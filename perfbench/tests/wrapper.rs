//! The traced wrapper must not change what runs: on the unit-scale
//! fixture, wrapped and bare engines give byte-identical rendered answers,
//! before and after the same update events, monolithic and sharded.

use std::path::PathBuf;
use std::sync::Arc;

use micrograph_core::engine::{MicroblogEngine, WriteMode};
use micrograph_core::ingest;
use micrograph_core::serve::{execute_rendered, request_stream};
use micrograph_core::shard::ShardedEngine;
use micrograph_core::ExecMode;
use micrograph_datagen::{generate, Dataset, GenConfig, StreamGen, StreamMix, UpdateEvent};
use perfbench::trace::{Recorder, TracedEngine};

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fixture() -> (GenConfig, Dataset, Vec<UpdateEvent>) {
    let config = GenConfig::unit();
    let dataset = generate(&config);
    let events = StreamGen::new(&dataset, &config, 11, StreamMix::default()).events(64);
    (config, dataset, events)
}

fn monoliths(dataset: &Dataset, dir: &str) -> (Arc<dyn MicroblogEngine>, Arc<dyn MicroblogEngine>) {
    let files = dataset.write_csv(&scratch(dir)).expect("write fixture csv");
    let (arbor, bit, _) = ingest::build_engines(&files).expect("build fixture engines");
    (Arc::new(arbor), Arc::new(bit))
}

fn rendered(engine: &dyn MicroblogEngine, users: u64) -> Vec<String> {
    request_stream(5, 300, users, 16)
        .iter()
        .map(|req| execute_rendered(engine, req).unwrap_or_else(|e| format!("<error:{e}>")))
        .collect()
}

#[test]
fn wrapped_monoliths_answer_like_bare_ones_before_and_after_writes() {
    let (config, dataset, events) = fixture();
    let rec = Recorder::new();
    let (bare_arbor, bare_bit) = monoliths(&dataset, "bare");
    let (arbor, bit) = monoliths(&dataset, "wrapped");
    let wrapped: [Arc<dyn MicroblogEngine>; 2] = [
        Arc::new(TracedEngine::new(arbor, rec.clone(), "arbordb")),
        Arc::new(TracedEngine::new(bit, rec.clone(), "bitgraph")),
    ];
    let bare = [bare_arbor, bare_bit];
    for (b, w) in bare.iter().zip(&wrapped) {
        assert_eq!(rendered(&**b, config.users), rendered(&**w, config.users));
        assert_eq!(b.name(), w.name());
    }
    assert!(
        !rec.drain().is_empty(),
        "query calls through the wrapper leave spans"
    );

    for (b, w) in bare.iter().zip(&wrapped) {
        b.apply_event_batch(&events[..32]).expect("bare batch");
        w.apply_event_batch(&events[..32]).expect("wrapped batch");
        for e in &events[32..] {
            b.apply_event(e).expect("bare event");
            w.apply_event(e).expect("wrapped event");
        }
        assert_eq!(
            rendered(&**b, config.users + 8),
            rendered(&**w, config.users + 8)
        );
    }
    let spans = rec.drain();
    assert_eq!(
        spans
            .iter()
            .filter(|s| s.method.is_write())
            .map(|s| s.events)
            .sum::<u64>(),
        2 * 64
    );

    // Toggles and their getters reach the wrapped engine.
    let [w_arbor, w_bit] = &wrapped;
    assert_eq!(w_arbor.exec_mode(), bare[0].exec_mode());
    assert!(w_arbor.set_exec_mode(ExecMode::Tuple));
    assert_eq!(w_arbor.exec_mode(), Some(ExecMode::Tuple));
    assert_eq!(w_bit.write_mode(), Some(WriteMode::Snapshot));
    assert!(w_bit.set_write_mode(WriteMode::Locked));
    assert_eq!(w_bit.write_mode(), Some(WriteMode::Locked));
    assert_eq!(w_arbor.batched_kernels(), bare[0].batched_kernels());
    assert_eq!(w_bit.scatter_mode(), None);
    assert_eq!(w_bit.replica_count(), None);
    assert_eq!(
        rendered(&**w_arbor, config.users + 8),
        rendered(&*bare[0], config.users + 8)
    );
    assert_eq!(
        rendered(&**w_bit, config.users + 8),
        rendered(&*bare[1], config.users + 8)
    );
}

#[test]
fn recording_off_records_nothing() {
    let (config, dataset, _) = fixture();
    let rec = Recorder::new();
    let (arbor, _) = monoliths(&dataset, "off");
    let traced = TracedEngine::new(arbor, rec.clone(), "arbordb");
    rec.set_enabled(false);
    rendered(&traced, config.users);
    assert!(rec.drain().is_empty());
}

#[test]
fn sharded_engine_over_wrapped_shards_answers_like_bare_shards() {
    let (config, dataset, events) = fixture();
    let rec = Recorder::new();
    let (bare_arbor, bare_bit) =
        ingest::build_sharded_engines(&dataset, &scratch("sharded-bare"), 2).expect("bare shards");
    let dir = scratch("sharded-wrapped");
    let parts = micrograph_core::shard::partition_dataset(&dataset, 2);
    let mut arbors: Vec<Box<dyn MicroblogEngine>> = Vec::new();
    let mut bits: Vec<Box<dyn MicroblogEngine>> = Vec::new();
    for (i, part) in parts.iter().enumerate() {
        let files = part
            .write_csv(&dir.join(format!("shard-{i}")))
            .expect("shard csv");
        let (arbor, bit, _) = ingest::build_engines(&files).expect("shard engines");
        arbors.push(Box::new(TracedEngine::new(
            Arc::new(arbor),
            rec.clone(),
            "leg",
        )));
        bits.push(Box::new(TracedEngine::new(
            Arc::new(bit),
            rec.clone(),
            "leg",
        )));
    }
    let wrapped = [
        TracedEngine::new(Arc::new(ShardedEngine::new(arbors)), rec.clone(), "arbordb"),
        TracedEngine::new(Arc::new(ShardedEngine::new(bits)), rec.clone(), "bitgraph"),
    ];
    let bare: [&dyn MicroblogEngine; 2] = [&bare_arbor, &bare_bit];
    for (b, w) in bare.iter().zip(&wrapped) {
        assert_eq!(rendered(*b, config.users), rendered(w, config.users));
        assert_eq!(b.scatter_mode(), w.scatter_mode());
        assert_eq!(b.replica_count(), w.replica_count());
        b.apply_event_batch(&events).expect("bare batch");
        w.apply_event_batch(&events).expect("wrapped batch");
        assert_eq!(
            rendered(*b, config.users + 8),
            rendered(w, config.users + 8)
        );
    }
    let spans = rec.drain();
    assert!(
        spans.iter().any(|s| s.layer == "leg"),
        "scatter legs leave spans"
    );
    assert!(spans
        .iter()
        .any(|s| s.layer == "arbordb" && s.method.query().is_some()));
}
