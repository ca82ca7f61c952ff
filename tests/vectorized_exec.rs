//! Vectorized-execution invariants (DESIGN.md §4g): the batched ArborQL
//! operator tree is a pure performance feature — flipping
//! [`micrograph_core::ExecMode`] must never move a single byte of any
//! answer. Vectorized ≡ tuple is pinned across the 8-engine matrix and
//! under masked transient chaos, and the cardinality statistics the
//! cost-based planner consults are pinned against a from-scratch rebuild
//! scan after incremental `apply_event` streams (statistics may shape
//! plans, never answers).

use std::collections::HashMap;
use std::sync::Arc;

use arbor_ql::QueryEngine;
use arbordb::db::{DbConfig, GraphDb};
use micrograph_core::engine::MicroblogEngine;
use micrograph_core::fault::silence_injected_panics;
use micrograph_core::ingest::{build_chaos_sharded_engines, build_engines, build_sharded_engines};
use micrograph_core::serve::{serve, ServeConfig, ServeReport};
use micrograph_core::workload::{run_query, QueryId, QueryParams};
use micrograph_core::{DegradationMode, ExecMode, FaultPlan, RetryPolicy, Value};
use micrograph_datagen::{generate, Dataset, GenConfig, StreamGen, StreamMix};
use proptest::prelude::*;

struct Guard(std::path::PathBuf);
impl Drop for Guard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const USERS: u64 = 120;

fn gen_config(seed: u64) -> GenConfig {
    let mut cfg = GenConfig::unit();
    cfg.seed = seed;
    cfg.users = USERS;
    cfg.poster_fraction = 0.3;
    cfg.tweets_per_poster = 6;
    cfg.mentions_per_tweet = 1.2;
    cfg.tags_per_tweet = 0.8;
    cfg
}

fn dataset(seed: u64, tag: &str) -> (Dataset, Guard) {
    let dir = micrograph_common::unique_temp_dir(&format!("vexec-{tag}-{seed}"));
    let _ = std::fs::remove_dir_all(&dir);
    (generate(&gen_config(seed)), Guard(dir))
}

fn config(threads: usize, requests: usize) -> ServeConfig {
    ServeConfig { threads, requests, seed: 7, users: USERS, vocab: 16, ..Default::default() }
}

/// Everything an executor flip must keep identical on a clean engine.
fn fingerprint(r: &ServeReport) -> (Vec<String>, u64, u64, String) {
    (r.rendered.clone(), r.errors, r.degraded, r.faults.to_string())
}

#[test]
fn exec_mode_flip_matches_the_monolith_across_the_matrix() {
    // The 8-engine matrix with the executor axis added: the monolithic
    // arbordb engine in both modes is the double-sided reference, and
    // every sharded arbordb composition must answer the full Q1–Q6 sweep
    // identically in both modes. Engines without a declarative layer
    // (bitgraph, sharded or not) refuse the toggle and still agree.
    let (ds, g) = dataset(71, "matrix");
    let files = ds.write_csv(&g.0.join("mono")).unwrap();
    let (arbor, bit, _) = build_engines(&files).unwrap();
    let mut engines: Vec<Box<dyn MicroblogEngine>> = vec![Box::new(bit)];
    for shards in [1usize, 2, 4] {
        let (sa, sb) =
            build_sharded_engines(&ds, &g.0.join(format!("shards-{shards}")), shards).unwrap();
        engines.push(Box::new(sa));
        engines.push(Box::new(sb));
    }
    let reference: &dyn MicroblogEngine = &arbor;
    assert_eq!(reference.exec_mode(), Some(ExecMode::Vectorized), "vectorized is the default");
    let mut rng = micrograph_common::rng::SplitMix64::new(71);
    for round in 0..3 {
        let mut params = QueryParams::sample(&mut rng, USERS, 8);
        params.n = [1, 10, 25][round];
        for q in QueryId::ALL {
            assert!(reference.set_exec_mode(ExecMode::Tuple));
            let expected = run_query(reference, q, &params).unwrap();
            assert!(reference.set_exec_mode(ExecMode::Vectorized));
            assert_eq!(
                expected,
                run_query(reference, q, &params).unwrap(),
                "{}: monolith exec flip moved the answer",
                q.label()
            );
            for e in &engines {
                let e: &dyn MicroblogEngine = e.as_ref();
                if e.exec_mode().is_some() {
                    for mode in [ExecMode::Tuple, ExecMode::Vectorized] {
                        assert!(e.set_exec_mode(mode));
                        assert_eq!(
                            expected,
                            run_query(e, q, &params).unwrap(),
                            "{} on {} ({}) diverged from monolith",
                            q.label(),
                            e.name(),
                            mode.as_str()
                        );
                    }
                } else {
                    assert!(
                        !e.set_exec_mode(ExecMode::Tuple),
                        "{}: engines without a declarative layer must refuse the toggle",
                        e.name()
                    );
                    assert_eq!(
                        expected,
                        run_query(e, q, &params).unwrap(),
                        "{} on {} diverged from monolith",
                        q.label(),
                        e.name()
                    );
                }
            }
        }
    }
}

#[test]
fn exec_mode_flip_keeps_serve_digests() {
    // Full serving runs: digest and fingerprint are invariant under the
    // executor flip on the monolith and on a sharded composition.
    let (ds, g) = dataset(72, "digest");
    let files = ds.write_csv(&g.0.join("mono")).unwrap();
    let (arbor, _bit, _) = build_engines(&files).unwrap();
    let (sharded, _) = build_sharded_engines(&ds, &g.0.join("s"), 2).unwrap();
    for engine in [&arbor as &dyn MicroblogEngine, &sharded] {
        assert!(engine.set_exec_mode(ExecMode::Vectorized));
        let vec = serve(engine, &config(2, 128)).unwrap();
        assert!(engine.set_exec_mode(ExecMode::Tuple));
        let tup = serve(engine, &config(2, 128)).unwrap();
        assert!(engine.set_exec_mode(ExecMode::Vectorized));
        assert_eq!(
            fingerprint(&vec),
            fingerprint(&tup),
            "{}: exec flip moved the fingerprint",
            engine.name()
        );
        assert_eq!(vec.digest(), tup.digest(), "{} digest", engine.name());
    }
}

#[test]
fn exec_mode_flip_is_invariant_under_masked_transient_chaos() {
    // Transient faults are fully masked by the retry budget, so the
    // executor flip stays answer-invariant even through the chaos wrapper
    // (which forwards the toggle like its other instrumentation
    // passthroughs) — both modes pin the fault-free digest.
    silence_injected_panics();
    let (ds, g) = dataset(73, "chaos");
    let (clean, _) = build_sharded_engines(&ds, &g.0.join("clean"), 4).unwrap();
    let (chaos, _) = build_chaos_sharded_engines(
        &ds,
        &g.0.join("chaos"),
        4,
        FaultPlan::transient(3),
        RetryPolicy::default(),
        DegradationMode::Strict,
    )
    .unwrap();
    let base = serve(&clean, &config(1, 96)).unwrap();
    assert!(base.faults.is_zero());
    let mut digests = Vec::new();
    for mode in [ExecMode::Tuple, ExecMode::Vectorized] {
        assert!(chaos.set_exec_mode(mode), "chaos wrapper must forward the exec toggle");
        assert_eq!(chaos.exec_mode(), Some(mode));
        let r = serve(&chaos, &config(1, 96)).unwrap();
        assert!(r.faults.total_injected() > 0, "vacuous: plan injected nothing");
        assert_eq!(
            r.rendered,
            base.rendered,
            "{}: chaos leaked into answers",
            mode.as_str()
        );
        assert_eq!(r.errors, 0);
        assert_eq!(r.degraded, 0);
        digests.push(r.digest());
    }
    assert_eq!(digests[0], digests[1], "exec flip moved the chaos digest");
    assert!(chaos.set_exec_mode(ExecMode::Vectorized));
}

// ---- pattern-predicate filters -----------------------------------------------

/// An in-memory user graph: users `0..users` (indexed `uid`) and the given
/// `(from, to, type)` edges, duplicates and self-loops included.
fn pattern_graph(users: i64, edges: &[(i64, i64, &str)]) -> QueryEngine {
    let db = GraphDb::open_memory(DbConfig::default()).unwrap();
    let mut tx = db.begin_write().unwrap();
    let nodes: Vec<_> = (0..users)
        .map(|u| tx.create_node("user", &[("uid", Value::Int(u))]).unwrap())
        .collect();
    for &(a, b, t) in edges {
        tx.create_rel(nodes[a as usize], nodes[b as usize], t, &[]).unwrap();
    }
    tx.commit().unwrap();
    db.create_index("user", "uid").unwrap();
    QueryEngine::new(Arc::new(db))
}

/// One query shape per pattern-predicate case; `{}` is replaced by `""`
/// (semi-join) or `"NOT "` (anti-semi-join).
const PATTERN_SHAPES: [(&str, &str); 8] = [
    // anchor on `from` (the Q4 shape)
    ("from-anchor", "MATCH (a:user {uid: $uid})-[:follows]->(f)-[:follows]->(r) \
                     WHERE {}(a)-[:follows]->(r) RETURN r.uid, f.uid"),
    // anchor on `to` (the Q5 shape)
    ("to-anchor", "MATCH (a:user {uid: $uid})<-[:follows]-(f)<-[:follows]-(p) \
                   WHERE {}(p)-[:follows]->(a) RETURN p.uid, f.uid"),
    // both endpoints vary across rows
    ("both-vary", "MATCH (x:user)-[:follows]->(y) WHERE {}(y)-[:follows]->(x) \
                   RETURN x.uid, y.uid"),
    // both vary over a cross product larger than one batch
    ("cross", "MATCH (x:user) WITH x MATCH (y:user) WHERE {}(x)-[:likes]->(y) \
               RETURN x.uid, y.uid"),
    ("undirected", "MATCH (a:user {uid: $uid})-[:follows]->(f)-[:follows]-(r) \
                    WHERE {}(a)-[:follows]-(r) RETURN r.uid, f.uid"),
    ("self-loop", "MATCH (x:user) WHERE {}(x)-[:follows]->(x) RETURN x.uid"),
    // parallel duplicate edges on both the expansion and the pattern
    ("parallel", "MATCH (a:user {uid: $uid})-[:follows]->(f) WHERE {}(f)-[:follows]->(a) \
                  RETURN f.uid"),
    ("missing-type", "MATCH (a:user {uid: $uid})-[:follows]->(f) WHERE {}(a)-[:blocks]->(f) \
                      RETURN f.uid"),
];

/// Rows of `text` for `uid` under `mode`.
fn rows_in(ql: &QueryEngine, mode: ExecMode, text: &str, uid: i64) -> Vec<Vec<Value>> {
    ql.set_exec_mode(mode);
    ql.query(text, &[("uid", Value::Int(uid))]).unwrap().rows
}

/// Runs every pattern shape, positive and `NOT`, in both executors for
/// `uid`: the vectorized rows must equal the tuple rows in order, and the
/// positive and negated rows must partition the unfiltered rows. Returns
/// the `(positive, negated)` row counts per shape.
fn check_pattern_shapes(ql: &QueryEngine, uid: i64) -> Vec<(usize, usize)> {
    let mut counts = Vec::new();
    for (name, shape) in PATTERN_SHAPES {
        let mut split = Vec::new();
        for neg in ["", "NOT "] {
            let text = shape.replace("{}", neg);
            let tuple = rows_in(ql, ExecMode::Tuple, &text, uid);
            let vec = rows_in(ql, ExecMode::Vectorized, &text, uid);
            assert_eq!(vec, tuple, "{name} ({neg}) uid {uid}: exec flip moved the rows");
            split.push(tuple.len());
        }
        let where_at = shape.find("WHERE").unwrap();
        let return_at = shape.find("RETURN").unwrap();
        let unfiltered = format!("{}{}", &shape[..where_at], &shape[return_at..]);
        let all = rows_in(ql, ExecMode::Tuple, &unfiltered, uid).len();
        assert_eq!(split[0] + split[1], all, "{name} uid {uid}: rows not partitioned");
        counts.push((split[0], split[1]));
    }
    counts
}

#[test]
fn pattern_filters_agree_across_exec_modes() {
    // 40 users; user 0 is a hub (20 followees: the tuple path memoizes
    // it, degree >= 16); self-loops on 0 and 3; user 5 follows 0 twice and
    // 0 follows 5 twice; a `likes` ring for the cross product.
    let mut edges: Vec<(i64, i64, &str)> = (1..=20).map(|v| (0, v, "follows")).collect();
    for u in 0..40 {
        edges.push((u, (u * 7 + 3) % 40, "follows"));
        if u % 2 == 0 {
            edges.push((u, (u * 11 + 1) % 40, "follows"));
        }
        edges.push((u, (u + 1) % 40, "likes"));
    }
    edges.extend([(0, 0, "follows"), (3, 3, "follows")]);
    edges.extend([(0, 5, "follows"), (5, 0, "follows"), (5, 0, "follows")]);
    let ql = pattern_graph(40, &edges);
    let names: Vec<&str> = PATTERN_SHAPES.iter().map(|s| s.0).collect();
    let mut seen = vec![(0, 0); PATTERN_SHAPES.len()];
    for uid in [0, 3, 5, 17] {
        for (i, (pos, neg)) in check_pattern_shapes(&ql, uid).into_iter().enumerate() {
            seen[i].0 += pos;
            seen[i].1 += neg;
        }
    }
    // Every shape but the never-created type keeps rows on both sides.
    for (name, (pos, neg)) in names.iter().zip(&seen) {
        assert!(*neg > 0, "{name}: vacuous NOT form");
        assert_eq!(*pos == 0, *name == "missing-type", "{name}: positive form rows {pos}");
    }
    let cross = seen[names.iter().position(|n| *n == "cross").unwrap()];
    assert!(cross.0 + cross.1 > 4 * 1024, "cross product must span several batches");
}

#[test]
fn vectorized_q4_2_profile_halves_the_oracles_db_hits() {
    // The unit-scale fixture's dataset (400 users of the small preset);
    // Q4.2 for its highest-out-degree user, profiled in both executors:
    // same rows, and the batch-level anti-semi-join needs at most half the
    // tuple interpreter's db hits.
    let ds = generate(&GenConfig { users: 400, ..GenConfig::small() });
    let dir = micrograph_common::unique_temp_dir("vexec-q4-profile");
    let _ = std::fs::remove_dir_all(&dir);
    let g = Guard(dir);
    let (arbor, _bit, _) = build_engines(&ds.write_csv(&g.0).unwrap()).unwrap();
    let mut out_degree: HashMap<u64, u64> = HashMap::new();
    for &(a, _) in &ds.follows {
        *out_degree.entry(a).or_insert(0) += 1;
    }
    let (&uid, _) = out_degree.iter().max_by_key(|&(u, d)| (*d, std::cmp::Reverse(*u))).unwrap();
    let q4_2 = "MATCH (a:user {uid: $uid})-[:follows]->(f)<-[:follows]-(r) \
                WHERE NOT (a)-[:follows]->(r) AND r.uid <> $uid \
                RETURN r.uid, count(*) AS c ORDER BY c DESC, r.uid ASC LIMIT $n";
    let params = [("uid", Value::Int(uid as i64)), ("n", Value::Int(10))];
    let ql = arbor.ql();
    ql.set_exec_mode(ExecMode::Tuple);
    let tuple = ql.profile(q4_2, &params).unwrap();
    ql.set_exec_mode(ExecMode::Vectorized);
    let vec = ql.profile(q4_2, &params).unwrap();
    assert_eq!(vec.result.rows, tuple.result.rows, "uid {uid}: exec flip moved Q4.2");
    assert_eq!(vec.result.rows.len(), 10, "uid {uid}: vacuous Q4.2");
    let (v, t) = (vec.result.stats.db_hits, tuple.result.stats.db_hits);
    assert!(2 * v <= t, "uid {uid}: vectorized {v} db hits vs tuple {t}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random small multigraphs (self-loops, parallel edges and two
    /// relationship types all occur): every pattern shape, positive and
    /// negated, returns the same rows in both executors.
    #[test]
    fn pattern_filters_agree_on_random_graphs(
        edges in prop::collection::vec((0i64..24, 0i64..24, 0usize..3), 0..160),
        uid in 0i64..24,
    ) {
        let edges: Vec<(i64, i64, &str)> = edges
            .into_iter()
            .map(|(a, b, t)| (a, b, if t == 2 { "likes" } else { "follows" }))
            .collect();
        check_pattern_shapes(&pattern_graph(24, &edges), uid);
    }
}

// ---- cardinality-statistics maintenance ------------------------------------

/// A full snapshot of everything the planner can read: per-label node
/// counts, per-type edge counts, and both degree histograms per type.
#[allow(clippy::type_complexity)]
fn stats_snapshot(db: &GraphDb) -> (u64, u64, Vec<(String, u64)>, Vec<(String, u64, Vec<u64>, Vec<u64>)>) {
    let s = db.statistics();
    let labels = ["user", "tweet", "hashtag"]
        .iter()
        .map(|l| (l.to_string(), db.label_id(l).map_or(0, |id| s.node_count(id))))
        .collect();
    let rels = ["follows", "posts", "retweets", "mentions", "tags"]
        .iter()
        .map(|t| match db.rel_type_id(t) {
            Some(id) => {
                let r = s.rel_type_stats(id).unwrap_or_default();
                (t.to_string(), r.edges, r.out_hist.to_vec(), r.in_hist.to_vec())
            }
            None => (t.to_string(), 0, Vec::new(), Vec::new()),
        })
        .collect();
    (s.total_nodes(), s.total_edges(), labels, rels)
}

#[test]
fn statistics_track_apply_event_streams_incrementally() {
    // Incrementally-maintained statistics after a streaming update
    // workload must be indistinguishable from a from-scratch rebuild scan
    // — the ground truth the planner's estimates are anchored to.
    let cfg = gen_config(74);
    let ds = generate(&cfg);
    let g = Guard(micrograph_common::unique_temp_dir("vexec-stats-74"));
    let _ = std::fs::remove_dir_all(&g.0);
    let files = ds.write_csv(&g.0.join("csv")).unwrap();
    let (arbor, _bit, _) = build_engines(&files).unwrap();
    let db = arbor.db();
    assert!(db.statistics().total_nodes() > 0, "bulk import must seed the statistics");

    let before_nodes = db.statistics().total_nodes();
    let before_edges = db.statistics().total_edges();
    let events = StreamGen::new(&ds, &cfg, 11, StreamMix::default()).events(400);
    for e in &events {
        arbor.apply_event(e).unwrap();
    }
    assert!(db.statistics().total_nodes() > before_nodes, "stream created no nodes");
    assert!(db.statistics().total_edges() > before_edges, "stream created no edges");

    let incremental = stats_snapshot(db);
    db.rebuild_statistics().unwrap();
    assert_eq!(
        incremental,
        stats_snapshot(db),
        "incremental maintenance drifted from the rebuild scan"
    );
}

#[test]
fn statistics_survive_aborts_and_deletes() {
    // The transactional rules: an aborted write leaves no trace, a
    // committed delete unwinds node/edge/histogram counters exactly.
    let db = GraphDb::open_memory(DbConfig::default()).unwrap();
    let (a, b) = {
        let mut tx = db.begin_write().unwrap();
        let a = tx.create_node("user", &[("uid", Value::Int(1))]).unwrap();
        let b = tx.create_node("user", &[("uid", Value::Int(2))]).unwrap();
        tx.create_rel(a, b, "follows", &[]).unwrap();
        tx.commit().unwrap();
        (a, b)
    };
    let committed = stats_snapshot(&db);
    assert_eq!(db.statistics().total_nodes(), 2);
    assert_eq!(db.statistics().total_edges(), 1);

    // Abort (explicit and implicit drop): statistics must not move.
    {
        let mut tx = db.begin_write().unwrap();
        let c = tx.create_node("user", &[("uid", Value::Int(3))]).unwrap();
        tx.create_rel(c, a, "follows", &[]).unwrap();
        tx.abort().unwrap();
    }
    {
        let mut tx = db.begin_write().unwrap();
        tx.create_node("tweet", &[("tid", Value::Int(9))]).unwrap();
        // dropped without commit
    }
    assert_eq!(stats_snapshot(&db), committed, "aborted writes leaked into statistics");

    // Delete the edge, then a node: counters unwind to the empty-ish state
    // and match a rebuild at every step.
    let rel = db
        .rels(a, None, arbordb::Direction::Outgoing)
        .next()
        .expect("a has one outgoing edge")
        .unwrap()
        .0;
    let mut tx = db.begin_write().unwrap();
    tx.delete_rel(rel).unwrap();
    tx.commit().unwrap();
    assert_eq!(db.statistics().total_edges(), 0);
    let follows = db.rel_type_id("follows").unwrap();
    assert_eq!(db.statistics().participants(follows, arbordb::Direction::Outgoing), 0);
    let mut tx = db.begin_write().unwrap();
    tx.delete_node(b).unwrap();
    tx.commit().unwrap();
    assert_eq!(db.statistics().total_nodes(), 1);
    let after_deletes = stats_snapshot(&db);
    db.rebuild_statistics().unwrap();
    assert_eq!(after_deletes, stats_snapshot(&db), "delete path drifted from the rebuild scan");
}

#[test]
fn statistics_only_shape_plans_never_answers() {
    // The §4g safety property, exercised end to end: clearing the
    // statistics out from under a live engine may change the chosen plan,
    // but every workload answer stays byte-identical in both executors.
    let (ds, g) = dataset(75, "stale");
    let files = ds.write_csv(&g.0.join("mono")).unwrap();
    let (arbor, _bit, _) = build_engines(&files).unwrap();
    let mut rng = micrograph_common::rng::SplitMix64::new(75);
    let params = QueryParams::sample(&mut rng, USERS, 8);
    let mut expected = Vec::new();
    for q in QueryId::ALL {
        expected.push(run_query(&arbor, q, &params).unwrap());
    }
    // Nuke the statistics (planner falls back to heuristics) and clear the
    // plan cache so new plans are actually built against the empty snapshot.
    arbor.db().statistics().clear();
    arbor.ql().clear_cache();
    let reference: &dyn MicroblogEngine = &arbor;
    for mode in [ExecMode::Tuple, ExecMode::Vectorized] {
        assert!(reference.set_exec_mode(mode));
        for (i, q) in QueryId::ALL.into_iter().enumerate() {
            assert_eq!(
                expected[i],
                run_query(reference, q, &params).unwrap(),
                "{} ({}): empty statistics changed an answer",
                q.label(),
                mode.as_str()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// For random datasets and top-n limits, the vectorized operators and
    /// the tuple interpreter return identical rows for every workload
    /// query on a sharded arbordb composition — batching can never change
    /// an answer, only how many rows move per operator call.
    #[test]
    fn exec_flip_agrees_on_random_datasets(
        data_seed in 500u64..600,
        n in 1usize..16,
    ) {
        let (ds, g) = dataset(data_seed, "prop");
        let (sharded, _) = build_sharded_engines(&ds, &g.0.join("s"), 2).unwrap();
        let mut rng = micrograph_common::rng::SplitMix64::new(data_seed);
        let mut params = QueryParams::sample(&mut rng, USERS, 8);
        params.n = n;
        for q in QueryId::ALL {
            prop_assert!(sharded.set_exec_mode(ExecMode::Tuple));
            let tup = run_query(&sharded, q, &params).unwrap();
            prop_assert!(sharded.set_exec_mode(ExecMode::Vectorized));
            let vec = run_query(&sharded, q, &params).unwrap();
            prop_assert_eq!(
                tup, vec,
                "{} n={} seed={}: exec flip changed the answer",
                q.label(), n, data_seed
            );
        }
    }
}
