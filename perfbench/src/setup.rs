//! Building the engines from generated inputs, timing each layer of the
//! set-up: `datagen`, `core::shard` partitioning, `arbordb::import` and
//! `bitgraph::loader` (both driven through `core::ingest`).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use arbordb::db::{DbConfig, GraphDb};
use arbordb::import::ImportOptions;
use bitgraph::loader::{LoadConfig, LoadOptions};
use micrograph_core::engine::MicroblogEngine;
use micrograph_core::ingest;
use micrograph_core::shard::{partition_dataset, ShardedEngine};
use micrograph_core::{ArborEngine, BitEngine, CoreError};
use micrograph_datagen::{
    generate, CsvFiles, Dataset, GenConfig, StreamGen, StreamMix, UpdateEvent,
};
use micrograph_pagestore::PAGE_SIZE;

use crate::trace::{Recorder, TracedEngine};

/// Hash shards of the sharded workload.
pub const SHARDS: usize = 4;
/// Each spilled shard's page cache holds this share of its store.
pub const SPILL_CACHE_DIVISOR: u64 = 6;

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Per-layer set-up figures of one build.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `datagen::generate`.
    pub generate_ms: f64,
    /// Writing the CSV sources (all shards).
    pub csv_ms: f64,
    /// `StreamGen` event generation.
    pub stream_ms: f64,
    /// `shard::partition_dataset` (0 for monoliths).
    pub partition_ms: f64,
    /// arbordb bulk import, summed over shards.
    pub import_ms: f64,
    /// Dense-node intermediate step of the import.
    pub import_dense_ms: f64,
    /// Index build step of the import.
    pub import_index_ms: f64,
    /// arbordb store bytes after the import, summed over shards.
    pub store_bytes: u64,
    /// arbordb page-cache capacity, summed over shards.
    pub cache_bytes: u64,
    /// bitgraph bulk load, summed over shards.
    pub load_ms: f64,
    /// bitgraph cache-full flush stalls during the load.
    pub load_flush_stalls: u64,
    /// The whole build, wall time.
    pub total_s: f64,
}

/// Generated inputs: the dataset and the update-event stream.
pub struct Inputs {
    /// Generator configuration (the medium preset).
    pub config: GenConfig,
    /// The base dataset.
    pub dataset: Dataset,
    /// Update events continuing the dataset.
    pub events: Vec<UpdateEvent>,
}

/// Generates the medium-preset dataset (from the preset's own seed) and
/// `events` stream events from `seed`.
fn gen_inputs(seed: u64, events: usize, times: &mut SetupTimes) -> Inputs {
    let config = GenConfig::medium();
    let t = Instant::now();
    let dataset = generate(&config);
    times.generate_ms = ms_since(t);
    let t = Instant::now();
    let events = StreamGen::new(
        &dataset,
        &config,
        seed ^ 0x005e_ed0f_e7e7,
        StreamMix::default(),
    )
    .events(events);
    times.stream_ms = ms_since(t);
    Inputs {
        config,
        dataset,
        events,
    }
}

/// Where an arbordb store lives and how big its page cache is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArborStore {
    /// In memory, default page cache, no WAL.
    Memory,
    /// On disk, default page cache, WAL synced at every commit.
    Disk,
    /// On disk, page cache sized to `1/SPILL_CACHE_DIVISOR` of the store
    /// measured after the import.
    DiskSpill,
}

/// Handles the benchmark reads counters from, next to the engines it drives.
#[derive(Default)]
pub struct Probes {
    /// Every arbordb database (one per shard).
    pub dbs: Vec<Arc<GraphDb>>,
    /// arbordb adapters, when the benchmark holds them (plan-cache stats).
    pub arbors: Vec<Arc<ArborEngine>>,
    /// bitgraph adapters, when the benchmark holds them (navigation stats).
    pub bits: Vec<Arc<BitEngine>>,
    /// Each on-disk arbordb's `wal.log`.
    pub wal_paths: Vec<PathBuf>,
}

impl Probes {
    /// Total bytes in the WAL files now.
    pub fn wal_bytes(&self) -> u64 {
        self.wal_paths
            .iter()
            .filter_map(|p| std::fs::metadata(p).ok())
            .map(|m| m.len())
            .sum()
    }
}

/// The two engines one workload drives, plus their counter probes.
pub struct Built {
    /// The arbordb-backed engine.
    pub arbor: Arc<dyn MicroblogEngine>,
    /// The bitgraph-backed engine.
    pub bit: Arc<dyn MicroblogEngine>,
    /// Counter sources.
    pub probes: Probes,
    /// Per-layer set-up figures.
    pub times: SetupTimes,
    /// Generated inputs.
    pub inputs: Inputs,
}

fn csv(dataset: &Dataset, dir: &Path, times: &mut SetupTimes) -> Result<CsvFiles, CoreError> {
    let t = Instant::now();
    let files = dataset
        .write_csv(dir)
        .map_err(|e| CoreError::Ingest(e.to_string()))?;
    times.csv_ms += ms_since(t);
    Ok(files)
}

fn import_arbor(
    files: &CsvFiles,
    dir: &Path,
    store: ArborStore,
    times: &mut SetupTimes,
    probes: &mut Probes,
) -> Result<ArborEngine, CoreError> {
    let opts = ImportOptions::default();
    let db_dir = dir.join("arbordb");
    let on_disk = store != ArborStore::Memory;
    let (db, report) = ingest::ingest_arbor(
        files,
        on_disk.then_some(db_dir.as_path()),
        DbConfig::default(),
        &opts,
    )?;
    times.import_ms += report.total_ms;
    times.import_dense_ms += report.intermediate_ms;
    times.import_index_ms += report.index_build_ms;
    let store_bytes = db.size_bytes();
    times.store_bytes += store_bytes;
    let db = if store == ArborStore::DiskSpill {
        // Reopen the imported store with a cache that holds only part of it.
        db.flush()?;
        drop(db);
        let pages = store_bytes
            .div_ceil(PAGE_SIZE as u64 * SPILL_CACHE_DIVISOR)
            .max(32);
        let config = DbConfig {
            page_cache_pages: pages as usize,
            ..DbConfig::default()
        };
        Arc::new(GraphDb::open(&db_dir, config)?)
    } else {
        db
    };
    times.cache_bytes += (db.config().page_cache_pages * PAGE_SIZE) as u64;
    if on_disk {
        probes.wal_paths.push(db_dir.join("wal.log"));
    }
    probes.dbs.push(db.clone());
    Ok(ArborEngine::new(db))
}

fn load_bit(files: &CsvFiles, times: &mut SetupTimes) -> Result<BitEngine, CoreError> {
    let (g, report) =
        ingest::ingest_bit(files, None, LoadConfig::default(), &LoadOptions::default())?;
    times.load_ms += report.total_ms;
    times.load_flush_stalls += report.flush_stalls;
    BitEngine::new(g)
}

/// How the engines of one workload are deployed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deployment {
    /// One arbordb and one bitgraph engine over the whole dataset.
    Monolith(ArborStore),
    /// `SHARDS` hash shards per backend, arbordb spilling its page cache.
    Sharded,
}

/// Generates the inputs (`events` stream events from `seed`) and builds
/// both engines under `dir`, timing the whole set-up. With a
/// recorder the engines come wrapped in [`TracedEngine`]s labelled with
/// the backend name, and sharded engines also wrap each shard (layer
/// `"leg"`, one span per scatter leg).
pub fn build(
    deployment: Deployment,
    seed: u64,
    events: usize,
    dir: &Path,
    recorder: Option<&Arc<Recorder>>,
) -> Result<Built, CoreError> {
    let start = Instant::now();
    let mut times = SetupTimes::default();
    let inputs = gen_inputs(seed, events, &mut times);
    let (arbor, bit, probes) = match deployment {
        Deployment::Monolith(store) => build_monolith(&inputs, dir, store, &mut times)?,
        Deployment::Sharded => build_sharded(&inputs, dir, recorder, &mut times)?,
    };
    let (arbor, bit): (Arc<dyn MicroblogEngine>, Arc<dyn MicroblogEngine>) = match recorder {
        Some(rec) => (
            Arc::new(TracedEngine::new(arbor, rec.clone(), "arbordb")),
            Arc::new(TracedEngine::new(bit, rec.clone(), "bitgraph")),
        ),
        None => (arbor, bit),
    };
    times.total_s = start.elapsed().as_secs_f64();
    Ok(Built {
        arbor,
        bit,
        probes,
        times,
        inputs,
    })
}

type Pair = (Arc<dyn MicroblogEngine>, Arc<dyn MicroblogEngine>, Probes);

fn build_monolith(
    inputs: &Inputs,
    dir: &Path,
    store: ArborStore,
    times: &mut SetupTimes,
) -> Result<Pair, CoreError> {
    let mut probes = Probes::default();
    let files = csv(&inputs.dataset, &dir.join("csv"), times)?;
    let arbor = Arc::new(import_arbor(&files, dir, store, times, &mut probes)?);
    let bit = Arc::new(load_bit(&files, times)?);
    probes.arbors.push(arbor.clone());
    probes.bits.push(bit.clone());
    Ok((arbor, bit, probes))
}

/// `SHARDS` partitions, each imported on disk and reopened with a spilling
/// page cache, and loaded into bitgraph.
fn build_sharded(
    inputs: &Inputs,
    dir: &Path,
    recorder: Option<&Arc<Recorder>>,
    times: &mut SetupTimes,
) -> Result<Pair, CoreError> {
    let mut probes = Probes::default();
    let t = Instant::now();
    let parts = partition_dataset(&inputs.dataset, SHARDS);
    times.partition_ms = ms_since(t);
    let mut arbor_shards: Vec<Box<dyn MicroblogEngine>> = Vec::with_capacity(SHARDS);
    let mut bit_shards: Vec<Box<dyn MicroblogEngine>> = Vec::with_capacity(SHARDS);
    for (i, part) in parts.iter().enumerate() {
        let shard_dir = dir.join(format!("shard-{i}"));
        let files = csv(part, &shard_dir.join("csv"), times)?;
        let arbor = import_arbor(
            &files,
            &shard_dir,
            ArborStore::DiskSpill,
            times,
            &mut probes,
        )?;
        let bit = load_bit(&files, times)?;
        match recorder {
            Some(rec) => {
                let (arbor, bit) = (Arc::new(arbor), Arc::new(bit));
                probes.arbors.push(arbor.clone());
                probes.bits.push(bit.clone());
                arbor_shards.push(Box::new(TracedEngine::new(arbor, rec.clone(), "leg")));
                bit_shards.push(Box::new(TracedEngine::new(bit, rec.clone(), "leg")));
            }
            None => {
                arbor_shards.push(Box::new(arbor));
                bit_shards.push(Box::new(bit));
            }
        }
    }
    Ok((
        Arc::new(ShardedEngine::new(arbor_shards)),
        Arc::new(ShardedEngine::new(bit_shards)),
        probes,
    ))
}
