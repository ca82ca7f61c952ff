//! Generators for every table and figure in the paper's evaluation.
//!
//! | artifact | generator |
//! |---|---|
//! | Table 1  | [`table1`] |
//! | Table 2  | [`table2`] |
//! | Fig 2    | [`fig2`] (arbordb import curves) |
//! | Fig 3    | [`fig3`] (bitgraph load curves + follows marker) |
//! | Fig 4a–h | [`fig4`] (Q3.1 / Q4.1 / Q5.2 / Q6.1 per engine) |
//! | §4 items | [`ablations`] (D1–D6 in DESIGN.md) |
//! | §5 FW1   | [`update_throughput`] (the future-work update workload) |
//! | §5 FW2, FW4–FW8 | [`serving`] (every serving axis; [`serving_report`], [`serving_json`]) |
//! | §5 FW3   | [`chaos`] (fault-injection robustness, DESIGN.md §4d) |

use arbor_ql::EngineOptions;
use arbor_ql::plan::PlannerOptions;
use micrograph_common::rng::SplitMix64;
use micrograph_common::stats::ProgressCurve;
use micrograph_core::adapters::RecommendationPhrasing;
use micrograph_core::engine::MicroblogEngine;
use micrograph_core::ingest::ingest_bit;
use micrograph_core::runner::{measure, measure_cold, measure_query, MeasureConfig};
use micrograph_core::serve::{serve, MixedReport, ServeConfig, ServeReport};
use micrograph_core::workload::{render_table2, QueryId, QueryParams};
use micrograph_core::{ArborEngine, ShardedEngine, Value};

use crate::fixture::Fixture;
use crate::report::{compare_line, Series};

/// Lighter measurement protocol for figure sweeps (many subjects).
pub fn figure_protocol() -> MeasureConfig {
    MeasureConfig { min_warmup: 2, max_warmup: 6, stable_spread: 0.35, runs: 5 }
}

/// Regenerates Table 1 alongside the paper's reference counts.
pub fn table1(f: &Fixture) -> String {
    let s = f.dataset.stats();
    let mut out = String::new();
    out.push_str("Table 1: Characteristics of the data set (synthetic, paper-shape ratios)\n\n");
    out.push_str(&s.render_table());
    out.push('\n');
    out.push_str("Paper reference (Li et al. crawl):\n");
    out.push_str("  user 24,789,792   follows  284,000,284\n");
    out.push_str("  tweet 24,000,023  posts     24,000,023\n");
    out.push_str("  hashtag 616,109   mentions  11,100,547\n");
    out.push_str("                    tags       7,137,992\n");
    out.push_str(&format!(
        "\nShape checks: follows fraction {:.2} (paper 0.87), mentions/tweet {:.2} (paper 0.46), tags/tweet {:.2} (paper 0.30)\n",
        s.follows_fraction(),
        s.mentions as f64 / s.tweets.max(1) as f64,
        s.tags as f64 / s.tweets.max(1) as f64,
    ));
    out
}

/// Regenerates Table 2 (the query workload).
pub fn table2() -> String {
    format!("Table 2: Query workload\n\n{}", render_table2())
}

fn curve_series(title: &str, curve: &ProgressCurve) -> Series {
    let mut s = Series::new(title, "records", "interval ms");
    s.points = curve
        .interval_times_ms()
        .into_iter()
        .map(|(r, t)| (r as f64, t))
        .collect();
    s.markers = curve.markers.iter().map(|(l, at)| (l.clone(), *at as f64)).collect();
    s
}

/// Figure 2: arbordb import times for nodes (a) and edges (b).
pub fn fig2(f: &Fixture) -> Vec<Series> {
    let a = curve_series("Fig 2(a) arbordb node import", &f.reports.arbor.node_curve);
    let b = curve_series("Fig 2(b) arbordb edge import", &f.reports.arbor.edge_curve);
    vec![a, b]
}

/// Figure 3: bitgraph load times for nodes (a) and edges (b), with the
/// end-of-follows marker (the paper's vertical line).
pub fn fig3(f: &Fixture) -> Vec<Series> {
    let a = curve_series("Fig 3(a) bitgraph node load", &f.reports.bit.node_curve);
    let b = curve_series("Fig 3(b) bitgraph edge load", &f.reports.bit.edge_curve);
    vec![a, b]
}

/// A Figure 4 panel id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Panel {
    /// (a) Q3.1 on arbordb.
    A,
    /// (b) Q3.1 on bitgraph.
    B,
    /// (c) Q4.1 on arbordb.
    C,
    /// (d) Q4.1 on bitgraph.
    D,
    /// (e) Q5.2 on arbordb.
    E,
    /// (f) Q5.2 on bitgraph.
    F,
    /// (g) Q6.1 on arbordb.
    G,
    /// (h) Q6.1 on bitgraph.
    H,
}

impl Panel {
    /// All panels in paper order.
    pub const ALL: [Panel; 8] =
        [Panel::A, Panel::B, Panel::C, Panel::D, Panel::E, Panel::F, Panel::G, Panel::H];

    /// Parses "a".."h".
    pub fn parse(s: &str) -> Option<Panel> {
        match s.to_ascii_lowercase().as_str() {
            "a" => Some(Panel::A),
            "b" => Some(Panel::B),
            "c" => Some(Panel::C),
            "d" => Some(Panel::D),
            "e" => Some(Panel::E),
            "f" => Some(Panel::F),
            "g" => Some(Panel::G),
            "h" => Some(Panel::H),
            _ => None,
        }
    }
}

/// How many subjects each figure panel sweeps.
const SUBJECTS: usize = 20;
/// "No limit": the paper's Figure 4(a–d) x-axis is total rows returned.
const UNLIMITED: usize = usize::MAX / 2;

fn engine_of(f: &Fixture, arbor: bool) -> &dyn MicroblogEngine {
    if arbor {
        &f.arbor
    } else {
        &f.bit
    }
}

/// Regenerates one Figure 4 panel.
pub fn fig4(f: &Fixture, panel: Panel) -> Series {
    match panel {
        Panel::A => fig4_q31(f, true),
        Panel::B => fig4_q31(f, false),
        Panel::C => fig4_q41(f, true),
        Panel::D => fig4_q41(f, false),
        Panel::E => fig4_q52(f, true),
        Panel::F => fig4_q52(f, false),
        Panel::G => fig4_q61(f, true),
        Panel::H => fig4_q61(f, false),
    }
}

/// Q3.1 latency against rows returned (panels a/b).
fn fig4_q31(f: &Fixture, arbor: bool) -> Series {
    let engine = engine_of(f, arbor);
    let name = if arbor { "arbordb" } else { "bitgraph" };
    let subjects = Fixture::log_spread(&f.users_by_mention_degree(), SUBJECTS);
    let mut s = Series::new(
        format!("Fig 4({}) Q3.1 co-occurrence — {name}", if arbor { 'a' } else { 'b' }),
        "rows returned",
        "average time (ms)",
    );
    for (uid, _) in subjects {
        let rows = engine.co_mentioned_users(uid, UNLIMITED).expect("q3.1").len() as f64;
        let params = QueryParams { uid, n: UNLIMITED, ..QueryParams::default() };
        let m = measure_query(engine, QueryId::Q3_1, &params, &figure_protocol())
            .expect("measure");
        s.points.push((rows, m.avg_ms));
    }
    s.points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    s
}

/// Q4.1 latency against rows returned (panels c/d).
fn fig4_q41(f: &Fixture, arbor: bool) -> Series {
    let engine = engine_of(f, arbor);
    let name = if arbor { "arbordb" } else { "bitgraph" };
    let subjects = Fixture::log_spread(&f.users_by_out_degree(), SUBJECTS);
    let mut s = Series::new(
        format!("Fig 4({}) Q4.1 recommendation — {name}", if arbor { 'c' } else { 'd' }),
        "rows returned",
        "average time (ms)",
    );
    for (uid, _) in subjects {
        let rows = engine.recommend_followees(uid, UNLIMITED).expect("q4.1").len() as f64;
        let params = QueryParams { uid, n: UNLIMITED, ..QueryParams::default() };
        let m = measure_query(engine, QueryId::Q4_1, &params, &figure_protocol())
            .expect("measure");
        s.points.push((rows, m.avg_ms));
    }
    s.points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    s
}

/// Q5.2 latency against mention degree (panels e/f).
fn fig4_q52(f: &Fixture, arbor: bool) -> Series {
    let engine = engine_of(f, arbor);
    let name = if arbor { "arbordb" } else { "bitgraph" };
    let subjects = Fixture::log_spread(&f.users_by_mention_degree(), SUBJECTS);
    let mut s = Series::new(
        format!("Fig 4({}) Q5.2 potential influence — {name}", if arbor { 'e' } else { 'f' }),
        "degree (mentions of user)",
        "average time (ms)",
    );
    for (uid, degree) in subjects {
        let params = QueryParams { uid, n: UNLIMITED, ..QueryParams::default() };
        let m = measure_query(engine, QueryId::Q5_2, &params, &figure_protocol())
            .expect("measure");
        s.points.push((degree as f64, m.avg_ms));
    }
    s.points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    s
}

/// Q6.1 latency against path length (panels g/h): random user pairs
/// bucketed by the length of the path found.
fn fig4_q61(f: &Fixture, arbor: bool) -> Series {
    let engine = engine_of(f, arbor);
    let name = if arbor { "arbordb" } else { "bitgraph" };
    let users = f.dataset.users.len() as u64;
    let mut rng = SplitMix64::new(0x6_1);
    let max_hops = 4u32;
    // Collect pairs per observed path length until each bucket has a few.
    let mut buckets: std::collections::BTreeMap<u32, Vec<(i64, i64)>> = Default::default();
    let mut attempts = 0;
    while attempts < 4000 && buckets.values().map(|v| v.len()).sum::<usize>() < 40 {
        attempts += 1;
        let a = rng.next_range(1, users + 1) as i64;
        let b = rng.next_range(1, users + 1) as i64;
        if a == b {
            continue;
        }
        if let Some(len) = engine.shortest_path_len(a, b, max_hops).expect("q6.1") {
            let bucket = buckets.entry(len).or_default();
            if bucket.len() < 8 {
                bucket.push((a, b));
            }
        }
    }
    let mut s = Series::new(
        format!("Fig 4({}) Q6.1 shortest path — {name}", if arbor { 'g' } else { 'h' }),
        "path length",
        "average time (ms)",
    );
    for (len, pairs) in buckets {
        let mut total = 0.0;
        for &(a, b) in &pairs {
            let params =
                QueryParams { uid: a, uid_b: b, max_hops, ..QueryParams::default() };
            let m = measure_query(engine, QueryId::Q6_1, &params, &figure_protocol())
                .expect("measure");
            total += m.avg_ms;
        }
        s.points.push((len as f64, total / pairs.len() as f64));
    }
    s
}

/// The §4 ablations (DESIGN.md D1–D5) as a text report.
pub fn ablations(f: &Fixture) -> String {
    let mut out = String::new();
    out.push_str("== Ablations (Section 4 discussion items) ==\n\n");
    out.push_str(&d1_plan_cache(f));
    out.push_str(&d2_phrasings(f));
    out.push_str(&d3_topn_pushdown(f));
    out.push_str(&d4_cold_cache(f));
    out.push_str(&d5_materialization(f));
    out.push_str(&d6_traversal_vs_navigation(f));
    out
}

/// D6 — §4: bitgraph raw navigation vs traversal contexts ("raw navigation
/// operations are slightly more efficient ... perhaps due to the overhead
/// involved with the traversals").
pub fn d6_traversal_vs_navigation(f: &Fixture) -> String {
    let subjects = Fixture::log_spread(&f.users_by_out_degree(), 8);
    let mut nav_total = 0.0;
    let mut trav_total = 0.0;
    for &(uid, _) in &subjects {
        let nav = measure(&figure_protocol(), || f.bit.two_step_reach_nav(uid).map(|_| ()))
            .expect("measure");
        let trav = measure(&figure_protocol(), || {
            f.bit.two_step_reach_traversal(uid).map(|_| ())
        })
        .expect("measure");
        nav_total += nav.avg_ms;
        trav_total += trav.avg_ms;
    }
    let n = subjects.len() as f64;
    format!(
        "D6 bitgraph 2-step reach: raw navigation {:.3} ms vs traversal context {:.3} ms ({:.2}x)\n",
        nav_total / n,
        trav_total / n,
        (trav_total / n) / (nav_total / n).max(1e-9)
    )
}

/// D1 — plan-cache speedup with parameters.
pub fn d1_plan_cache(f: &Fixture) -> String {
    // Low-degree subjects keep execution cheap, so compilation cost is the
    // variable under test.
    let ranked = f.users_by_out_degree();
    let subjects: Vec<(i64, u64)> = ranked.iter().rev().take(10).copied().collect();
    let q = "MATCH (a:user {uid: $uid})-[:follows]->(x)-[:posts]->(t:tweet) RETURN t.tid";
    let ql = f.arbor.ql();
    ql.clear_cache();
    let run = |literal: bool| -> f64 {
        let mut total = 0.0;
        for _ in 0..20 {
            for &(uid, _) in &subjects {
                let t = micrograph_common::stats::Timer::start();
                if literal {
                    // A fresh literal text never repeats in a real workload:
                    // every execution pays parse + plan.
                    ql.clear_cache();
                    let text = q.replace("$uid", &uid.to_string());
                    ql.query(&text, &[]).expect("query");
                } else {
                    ql.query(q, &[("uid", Value::Int(uid))]).expect("query");
                }
                total += t.elapsed_ms();
            }
        }
        total / (20.0 * subjects.len() as f64)
    };
    let parameterized = run(false);
    let literal = run(true);
    format!(
        "D1 plan cache (Q2.2): parameterized {parameterized:.3} ms/query vs literal {literal:.3} ms/query ({:.2}x)\n",
        literal / parameterized.max(1e-9)
    )
}

/// D2 — the three recommendation phrasings.
pub fn d2_phrasings(f: &Fixture) -> String {
    let (uid, _) = f.users_by_out_degree()[0];
    let mut out = String::new();
    for (label, phrasing) in [
        ("(a) [:follows*2..2]", RecommendationPhrasing::VarLength),
        ("(b) explicit 2-step", RecommendationPhrasing::Canonical),
        ("(c) undirected *2..2", RecommendationPhrasing::Undirected),
    ] {
        let m = measure(&figure_protocol(), || {
            f.arbor.recommend_phrasing(phrasing, uid, 10).map(|_| ())
        })
        .expect("measure");
        out.push_str(&format!(
            "D2 phrasing {label:<22} {:.3} ms (uid {uid})\n",
            m.avg_ms
        ));
    }
    out
}

/// D3 — TopN pushdown on/off, plus the navigation engine's forced full
/// retrieval.
pub fn d3_topn_pushdown(f: &Fixture) -> String {
    // Head users: the ordering/limiting overhead only matters when the
    // aggregated candidate set is large.
    let subjects: Vec<(i64, u64)> =
        f.users_by_out_degree().into_iter().take(3).collect();
    let with = ArborEngine::with_options(f.arbor.db_arc(), EngineOptions::standard());
    let without = ArborEngine::with_options(
        f.arbor.db_arc(),
        EngineOptions {
            planner: PlannerOptions { topn_pushdown: false, ..PlannerOptions::default() },
            ..EngineOptions::standard()
        },
    );
    let time = |e: &ArborEngine| -> f64 {
        let mut total = 0.0;
        for &(uid, _) in &subjects {
            let m = measure(&figure_protocol(), || e.recommend_followees(uid, 10).map(|_| ()))
                .expect("measure");
            total += m.avg_ms;
        }
        total / subjects.len() as f64
    };
    let bit_time = {
        let mut total = 0.0;
        for &(uid, _) in &subjects {
            let m = measure(&figure_protocol(), || f.bit.recommend_followees(uid, 10).map(|_| ()))
                .expect("measure");
            total += m.avg_ms;
        }
        total / subjects.len() as f64
    };
    format!(
        "D3 top-n (Q4.1, n=10): TopN pushdown {:.3} ms vs Sort+Limit {:.3} ms; bitgraph full-retrieve+sort {:.3} ms\n",
        time(&with),
        time(&without),
        bit_time
    )
}

/// D4 — cold vs warm cache against source degree.
pub fn d4_cold_cache(f: &Fixture) -> String {
    let ranked = f.users_by_out_degree();
    let lo = ranked[ranked.len() - 1];
    let hi = ranked[0];
    let mut out = String::new();
    for (label, (uid, deg)) in [("low-degree", lo), ("high-degree", hi)] {
        let warm = measure(&figure_protocol(), || f.arbor.followee_tweets(uid).map(|_| ()))
            .expect("measure");
        let cold = measure_cold(&f.arbor, 3, || f.arbor.followee_tweets(uid).map(|_| ()))
            .expect("measure");
        out.push_str(&format!(
            "D4 cold cache (Q2.2, {label}, out-degree {deg}): cold {:.3} ms vs warm {:.3} ms ({:.1}x)\n",
            cold.avg_ms,
            warm.avg_ms,
            cold.avg_ms / warm.avg_ms.max(1e-9)
        ));
    }
    out
}

/// D5 — neighbor-materialization import blow-up at two scales.
pub fn d5_materialization(f: &Fixture) -> String {
    use bitgraph::loader::{LoadConfig, LoadOptions};
    let base = LoadConfig::default();
    let mut out = String::new();
    let (_g1, off) = ingest_bit(
        &f.files,
        Some(&f.dir.join("d5-off.gdb")),
        base.clone(),
        &LoadOptions::default(),
    )
    .expect("load");
    let (_g2, on) = ingest_bit(
        &f.files,
        Some(&f.dir.join("d5-on.gdb")),
        LoadConfig { materialize: true, ..base },
        &LoadOptions::default(),
    )
    .expect("load");
    out.push_str(&format!(
        "D5 materialization: off {:.0} ms / {} bytes; on {:.0} ms / {} bytes ({:.1}x bytes)\n",
        off.total_ms,
        off.disk_bytes,
        on.total_ms,
        on.disk_bytes,
        on.disk_bytes as f64 / off.disk_bytes.max(1) as f64
    ));
    out
}

/// FW1 — the §5 future-work update workload: event-application throughput
/// on both engines over a fresh copy of the fixture's dataset.
pub fn update_throughput(f: &Fixture) -> String {
    use micrograph_core::ingest::{build_engines, ingest_arbor};
    use micrograph_datagen::{StreamGen, StreamMix};

    const EVENTS: usize = 2_000;
    let config = crate::fixture::Scale::Small.config();
    // Events continue the fixture's dataset; engines are rebuilt so the
    // fixture itself stays immutable for other experiments.
    let mut events_gen = StreamGen::new(&f.dataset, &config, 7, StreamMix::default());
    let events = events_gen.events(EVENTS);

    let (db, _) = ingest_arbor(
        &f.files,
        Some(&f.dir.join("fw1-arbordb")),
        arbordb::db::DbConfig::default(),
        &arbordb::import::ImportOptions::default(),
    )
    .expect("ingest");
    let arbor = ArborEngine::new(db);
    let (_a2, bit, _) = build_engines(&f.files).expect("ingest");
    // One generic application path for both engines, through the trait.
    let apply_all = |engine: &dyn MicroblogEngine| -> f64 {
        let t = micrograph_common::stats::Timer::start();
        for e in &events {
            engine.apply_event(e).expect("apply");
        }
        t.elapsed_ms()
    };
    let arbor_ms = apply_all(&arbor);
    let bit_ms = apply_all(&bit);

    format!(
        "FW1 update workload ({EVENTS} events): arbordb {:.0} ev/s (WAL commit per event, disk) vs bitgraph {:.0} ev/s (in-memory + extent log)
",
        EVENTS as f64 / arbor_ms * 1000.0,
        EVENTS as f64 / bit_ms * 1000.0,
    )
}

/// Measured trials per serving leg. Odd, so a row's median is one of its
/// samples; every leg also gets one unmeasured warmup call first.
pub const TRIALS: usize = 5;

/// Straggler threshold (virtual µs) the tail axis arms hedging with.
pub const TAIL_HEDGE_US: u64 = 25;

/// The serving axes in run order, with the caption the text report prints.
const AXES: [(&str, &str); 6] = [
    ("threads", "reader threads over one shared engine"),
    ("scatter", "sequential vs parallel scatter, 1 reader (DESIGN.md 4e)"),
    ("exec", "ArborQL tuple vs vectorized executor, bitgraph native baseline, 1 reader (4g)"),
    ("tail", "hedging off/on, 50 s virtual deadline, clean and transient-chaos shards (4f)"),
    ("replica", "2 shards x R replicas, healthy, then replica 0 of every shard killed (4i)"),
    ("mixed", "1 writer drains an event stream while 2 readers serve (4j)"),
];

/// `labels!["shards" = n, ...]`: a leg's labels, values rendered by `Display`.
macro_rules! labels {
    ($($k:literal = $v:expr),* $(,)?) => { vec![$(($k, $v.to_string())),*] };
}

/// What one call of a serving leg measured.
#[derive(Debug, Clone, Default)]
struct Trial {
    threads: usize,
    requests: usize,
    /// Events a mixed leg's writer applied before its quiesced pass.
    events: usize,
    /// qps and p50/p95/p99 ms, plus write ev/s and p99 ms for mixed legs.
    metrics: Vec<(&'static str, f64)>,
    /// Fingerprint of the answers; `None` when the leg checks them itself.
    digest: Option<u64>,
    /// Deterministic counters; they must repeat exactly across trials.
    counters: Vec<(&'static str, u64)>,
}

fn latency(qps: f64, p50_ms: f64, p95_ms: f64, p99_ms: f64) -> Vec<(&'static str, f64)> {
    vec![("qps", qps), ("p50_ms", p50_ms), ("p95_ms", p95_ms), ("p99_ms", p99_ms)]
}

impl From<ServeReport> for Trial {
    fn from(r: ServeReport) -> Trial {
        let f = &r.faults;
        Trial {
            threads: r.threads,
            requests: r.requests,
            events: 0,
            metrics: latency(r.qps, r.p50_ms, r.p95_ms, r.p99_ms),
            digest: Some(r.digest()),
            counters: vec![
                ("errors", r.errors),
                ("degraded", r.degraded),
                ("injected", f.total_injected()),
                ("retries", f.retries),
                ("hedges", f.hedges),
                ("hedge_wins", f.hedge_wins),
                ("failovers", f.failovers),
                ("replica_reads", f.replica_reads),
            ],
        }
    }
}

impl From<MixedReport> for Trial {
    fn from(r: MixedReport) -> Trial {
        let (q, w) = (&r.reader, &r.writer);
        Trial {
            threads: r.threads,
            requests: q.requests,
            events: w.events,
            metrics: [
                latency(q.qps, q.p50_ms, q.p95_ms, q.p99_ms),
                vec![("write_eps", w.events_per_s), ("write_p99_ms", w.p99_ms)],
            ]
            .concat(),
            digest: Some(r.digest()),
            // Mid-burst reader errors depend on timing, so no counters.
            counters: Vec::new(),
        }
    }
}

/// Median, min and max of one metric over a leg's trials.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Spread {
    median: f64,
    min: f64,
    max: f64,
}

impl Spread {
    /// The spread of a non-empty, odd-length sample.
    fn of(xs: &[f64]) -> Spread {
        let mut s = xs.to_vec();
        s.sort_by(f64::total_cmp);
        Spread { median: s[s.len() / 2], min: s[0], max: s[s.len() - 1] }
    }
}

/// One serving leg: the labels its row carries and a closure that runs one
/// `serve`/`serve_mixed` and returns what it measured.
struct Leg<'a> {
    labels: Vec<(&'static str, String)>,
    run: Box<dyn FnMut() -> Trial + 'a>,
}

fn leg<'a>(labels: Vec<(&'static str, String)>, run: impl FnMut() -> Trial + 'a) -> Leg<'a> {
    Leg { labels, run: Box::new(run) }
}

/// A leg that runs `set` (the toggle it measures), then one `serve` of
/// `config` on `engine`; the engine's name is its first label.
fn read_leg<'a>(
    engine: &'a dyn MicroblogEngine,
    mut labels: Vec<(&'static str, String)>,
    config: ServeConfig,
    set: impl Fn() + 'a,
) -> Leg<'a> {
    labels.insert(0, ("engine", engine.name().to_string()));
    leg(labels, move || {
        set();
        serve(engine, &config).expect("serve").into()
    })
}

fn describe(labels: &[(&'static str, String)]) -> String {
    labels.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(" ")
}

/// One serving row: a leg's labels, then the spread of every metric over
/// its [`TRIALS`] measured trials.
#[derive(Debug)]
pub struct Row {
    axis: &'static str,
    labels: Vec<(&'static str, String)>,
    metrics: Vec<(&'static str, Spread)>,
    threads: usize,
    requests: usize,
    events: usize,
    counters: Vec<(&'static str, u64)>,
}

impl Row {
    fn of(axis: &'static str, labels: Vec<(&'static str, String)>, trials: &[Trial]) -> Row {
        let first = &trials[0];
        let leg = describe(&labels);
        for t in trials {
            assert_eq!(t.counters, first.counters, "{leg}: counters moved between trials");
        }
        let metrics = (first.metrics.iter().enumerate())
            .map(|(i, &(name, _))| {
                (name, Spread::of(&trials.iter().map(|t| t.metrics[i].1).collect::<Vec<_>>()))
            })
            .collect();
        Row {
            axis,
            labels,
            metrics,
            threads: first.threads,
            requests: first.requests,
            events: first.events,
            counters: first.counters.clone(),
        }
    }

    fn label(&self, key: &str) -> &str {
        self.labels.iter().find(|(k, _)| *k == key).map_or("", |(_, v)| v.as_str())
    }

    fn median(&self, metric: &str) -> f64 {
        let found = self.metrics.iter().find(|(k, _)| *k == metric);
        found.unwrap_or_else(|| panic!("no metric {metric}")).1.median
    }

    fn counter(&self, key: &str) -> u64 {
        self.counters.iter().find(|(k, _)| *k == key).map_or(0, |&(_, v)| v)
    }
}

/// The measured-leg runner behind every serving axis. [`Runner::run`]
/// warms each leg once, then measures every leg [`TRIALS`] times in rounds
/// that alternate forward and reverse leg order, so no leg always runs
/// first. Each call's answers are checked against one digest per request
/// stream, held across axes: every engine that serves a stream (monolith,
/// sharded, replicated, chaos-wrapped) must answer it byte-identically,
/// whatever its toggles.
#[derive(Default)]
struct Runner {
    /// First digest seen per request stream, with the leg that set it.
    streams: Vec<(String, u64, String)>,
    rows: Vec<Row>,
}

impl Runner {
    /// Warms and measures `legs`, appending one row per leg. Panics, naming
    /// the leg, when a call's digest differs from its stream's first one.
    fn run(&mut self, axis: &'static str, mut legs: Vec<Leg<'_>>) {
        for leg in &mut legs {
            let trial = (leg.run)();
            self.check(&leg.labels, &trial);
        }
        let mut trials = vec![Vec::with_capacity(TRIALS); legs.len()];
        for round in 0..TRIALS {
            for k in 0..legs.len() {
                let i = if round % 2 == 0 { k } else { legs.len() - 1 - k };
                let trial = (legs[i].run)();
                self.check(&legs[i].labels, &trial);
                trials[i].push(trial);
            }
        }
        for (leg, trials) in legs.into_iter().zip(trials) {
            self.rows.push(Row::of(axis, leg.labels, &trials));
        }
    }

    fn check(&mut self, labels: &[(&'static str, String)], trial: &Trial) {
        let Some(digest) = trial.digest else { return };
        // Every leg draws its requests from seed 42, so a stream is named by
        // its length and the events applied before it.
        let stream = format!("{}-request stream after {} events", trial.requests, trial.events);
        let leg = format!("{} threads={}", describe(labels), trial.threads);
        match self.streams.iter().find(|(s, ..)| *s == stream) {
            Some((_, first, by)) => assert!(
                *first == digest,
                "{leg}: digest {digest:#018x} on the {stream} differs from {first:#018x} of {by}"
            ),
            None => self.streams.push((stream, digest, leg)),
        }
    }
}

/// The serving experiment (§5 FW2, DESIGN.md §4e–§4j): every axis is a leg
/// list measured by one `Runner` over the same mixed Q1–Q6 stream (the
/// LDBC-style multi-client axis the paper leaves open). Sharded
/// compositions are built once per shard count and shared by the axes;
/// each axis resets the toggles it flips and frees what no later axis uses.
/// The replica axis runs after the other read axes because it kills
/// replica 0 of the shared 2-shard pair.
pub fn serving(f: &Fixture) -> Vec<Row> {
    use micrograph_core::adapters::BitEngine;
    use micrograph_core::fault::silence_injected_panics;
    use micrograph_core::ingest::{
        build_chaos_sharded_engines, build_replicated_engines, build_sharded_engines, ingest_arbor,
    };
    use micrograph_core::serve::{serve_mixed, MixedConfig};
    use micrograph_core::{
        DegradationMode, ExecMode, FaultPlan, RetryPolicy, ScatterMode, WriteMode,
    };
    use micrograph_datagen::{StreamGen, StreamMix};

    let users = f.dataset.users.len() as u64;
    let read = |threads, requests| ServeConfig { threads, requests, users, ..Default::default() };
    let config = read(1, 128);
    let mut sharded = Vec::new();
    for n in [1, 2, 4] {
        let dir = f.dir.join(format!("serving-{n}"));
        let (a, b) = build_sharded_engines(&f.dataset, &dir, n).expect("build sharded engines");
        sharded.push((n, a, b));
    }
    let mut runner = Runner::default();

    let mut legs = Vec::new();
    for engine in [&f.arbor as &dyn MicroblogEngine, &f.bit] {
        for threads in [1, 2, 4] {
            legs.push(read_leg(engine, vec![], read(threads, 128), || ()));
        }
    }
    runner.run("threads", legs);

    let mut legs = Vec::new();
    for (n, a, b) in &sharded {
        for engine in [a, b] {
            for mode in [ScatterMode::Sequential, ScatterMode::Parallel] {
                let labels = labels!["shards" = n, "mode" = mode.label()];
                legs.push(read_leg(engine, labels, config, move || {
                    assert!(engine.set_scatter_mode(mode), "sharded engine lost its scatter toggle")
                }));
            }
        }
    }
    runner.run("scatter", legs);
    for (_, a, b) in &sharded {
        a.set_scatter_mode(ScatterMode::Parallel);
        b.set_scatter_mode(ScatterMode::Parallel);
    }

    let mut arbors: Vec<(usize, &dyn MicroblogEngine)> = vec![(0, &f.arbor)];
    arbors.extend(sharded[1..].iter().map(|(n, a, _)| (*n, a as &dyn MicroblogEngine)));
    let mut legs = Vec::new();
    for &(n, engine) in &arbors {
        for mode in [ExecMode::Tuple, ExecMode::Vectorized] {
            let labels = labels!["shards" = n, "exec" = mode.as_str()];
            legs.push(read_leg(engine, labels, config, move || {
                assert!(engine.set_exec_mode(mode), "arbordb engine lost its exec-mode toggle")
            }));
        }
    }
    assert!(!f.bit.set_exec_mode(ExecMode::Tuple), "bitgraph must refuse the exec toggle");
    legs.push(read_leg(&f.bit, labels!["shards" = 0, "exec" = "native"], config, || ()));
    runner.run("exec", legs);
    for (_, engine) in &arbors {
        engine.set_exec_mode(ExecMode::Vectorized);
    }

    // Hedging is virtual-time keyed, so on clean shards its wall-clock
    // effect is nil by design; under transient chaos its counters move
    // while the answers stay those of the clean legs.
    silence_injected_panics();
    let (chaos, _) = build_chaos_sharded_engines(
        &f.dataset,
        &f.dir.join("serving-chaos-4"),
        4,
        FaultPlan::transient(3),
        RetryPolicy::default(),
        DegradationMode::Strict,
    )
    .expect("build chaos engines");
    let mut targets: Vec<(usize, &str, &ShardedEngine)> = Vec::new();
    for (n, a, b) in &sharded {
        targets.extend([(*n, "clean", a), (*n, "clean", b)]);
    }
    targets.push((4, "transient", &chaos));
    let tail = ServeConfig { deadline_us: Some(50_000_000), ..config };
    let mut legs = Vec::new();
    for &(n, plan, engine) in &targets {
        for hedge in [false, true] {
            let labels = labels!["shards" = n, "plan" = plan, "hedge" = hedge];
            legs.push(read_leg(engine, labels, tail, move || {
                engine.set_hedging(hedge.then_some(TAIL_HEDGE_US))
            }));
        }
    }
    runner.run("tail", legs);
    for (_, _, engine) in &targets {
        engine.set_hedging(None);
    }
    // Only the 2-shard pair serves on, so free the rest before the
    // replicas are built.
    let (_, a2, b2) = sharded.swap_remove(1);
    drop((chaos, sharded));

    // 4 readers over 512 requests; R = 1 is the shared 2-shard pair (an
    // R = 1 replicated build is the same engine).
    let readers = read(4, 512);
    let mut replicated = Vec::new();
    for r in [2, 3] {
        let dir = f.dir.join(format!("serving-replicas-{r}"));
        let (a, b) = build_replicated_engines(&f.dataset, &dir, 2, r).expect("build replicas");
        replicated.push((r, a, b));
    }
    let mut groups: Vec<(usize, &ShardedEngine)> = vec![(1, &a2), (1, &b2)];
    for (r, a, b) in &replicated {
        groups.extend([(*r, a), (*r, b)]);
    }
    let mut legs = Vec::new();
    for &(r, engine) in &groups {
        let labels = labels!["shards" = 2, "replicas" = r, "condition" = "healthy"];
        legs.push(read_leg(engine, labels, readers, || ()));
    }
    runner.run("replica", legs);
    // With replica 0 of every shard dead, a spare replica must absorb the
    // loss byte-identically; a sole replica must fail every request fast,
    // never serving a stale or partial answer in Strict mode.
    for (_, engine) in &groups {
        for shard in 0..2 {
            engine.kill_replica(shard, 0);
        }
    }
    let mut legs = Vec::new();
    for &(r, engine) in &groups {
        let name = engine.name();
        let labels =
            labels!["engine" = name, "shards" = 2, "replicas" = r, "condition" = "degraded"];
        legs.push(leg(labels, move || {
            let report = serve(engine, &readers).expect("serve degraded");
            let sole = r == 1;
            if sole {
                assert_eq!(report.errors, 512, "{name}: a dead sole replica must fail all");
            } else {
                assert!(report.faults.failovers > 0, "{name}: replica loss must hop");
            }
            let mut trial = Trial::from(report);
            trial.digest = trial.digest.filter(|_| !sole);
            trial
        }));
    }
    runner.run("replica", legs);
    drop((replicated, a2, b2));

    // The writer mutates its engine, so every call ingests a fresh one from
    // the fixture's CSV bundle; arbordb goes to disk, where the WAL is what
    // group commit amortizes, and its readers queue behind the write latch.
    // bitgraph runs the same ladder with snapshot reads, plus the locked
    // oracle at batch 64 for the reader-p99 contrast.
    let small = crate::fixture::Scale::Small.config();
    let events = &StreamGen::new(&f.dataset, &small, 7, StreamMix::default()).events(1_000);
    let mixed = MixedConfig { threads: 2, requests: 128, users, ..MixedConfig::default() };
    let mut legs = Vec::new();
    for (engine, mode, batch) in [
        ("arbordb", None, 1),
        ("arbordb", None, 64),
        ("arbordb", None, 256),
        ("bitgraph", Some(WriteMode::Snapshot), 1),
        ("bitgraph", Some(WriteMode::Snapshot), 64),
        ("bitgraph", Some(WriteMode::Snapshot), 256),
        ("bitgraph", Some(WriteMode::Locked), 64),
    ] {
        let config = MixedConfig { batch, batched: batch > 1, ..mixed };
        let labels = labels![
            "engine" = engine,
            "mode" = mode.map_or("latched", |m| m.as_str()),
            "batch" = batch,
            "batched" = config.batched
        ];
        let dir = f.dir.join(format!("serving-mixed-{batch}"));
        legs.push(leg(labels, move || {
            let report = match mode {
                None => {
                    let _ = std::fs::remove_dir_all(&dir);
                    let ingest =
                        ingest_arbor(&f.files, Some(&dir), Default::default(), &Default::default());
                    serve_mixed(&ArborEngine::new(ingest.expect("ingest").0), events, &config)
                }
                Some(mode) => {
                    let (g, _) =
                        ingest_bit(&f.files, None, Default::default(), &Default::default())
                            .expect("load");
                    let bit = BitEngine::new(g).expect("engine");
                    assert!(bit.set_write_mode(mode), "bitgraph lost its write-mode toggle");
                    serve_mixed(&bit, events, &config)
                }
            };
            report.expect("mixed serve").into()
        }));
    }
    runner.run("mixed", legs);
    runner.rows
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One number as both the text report and the JSON artifact print it.
fn num(v: f64) -> String {
    format!("{v:.4}")
}

/// The row of `axis` whose engine name contains `backend` and whose labels
/// include every `want` pair.
fn pick<'r>(rows: &'r [Row], axis: &str, backend: &str, want: &[(&str, &str)]) -> &'r Row {
    let mut matching =
        rows.iter().filter(|r| r.axis == axis && r.label("engine").contains(backend));
    let found = matching.find(|r| want.iter().all(|&(k, v)| r.label(k) == v));
    found.unwrap_or_else(|| panic!("no {axis} row for {backend} with {want:?}"))
}

/// The headline numbers, computed from the rows alone so the text report
/// and `BENCH_serving.json` carry the same values.
fn headlines(rows: &[Row]) -> Vec<(&'static str, f64)> {
    // The sharded backend gap (4g/4h): parallel-scatter qps at 4 shards.
    let gap = |b| pick(rows, "scatter", b, &[("shards", "4"), ("mode", "par")]).median("qps");
    // Replication (4i): healthy qps, and goodput (full-coverage answers per
    // second) with replica 0 of every shard dead.
    let replica =
        |b, r, condition| pick(rows, "replica", b, &[("replicas", r), ("condition", condition)]);
    let healthy = |b, r| replica(b, r, "healthy").median("qps");
    let goodput = |b, r| {
        let row = replica(b, r, "degraded");
        let ok = row.requests as u64 - row.counter("errors") - row.counter("degraded");
        row.median("qps") * ok as f64 / row.requests as f64
    };
    // Mixed (4j): group-commit ingest scaling and the burst reader tail.
    let mixed = |b, mode, batch, metric| {
        pick(rows, "mixed", b, &[("mode", mode), ("batch", batch)]).median(metric)
    };
    let eps = |b, mode, batch| mixed(b, mode, batch, "write_eps");
    vec![
        ("gap_arbordb_parallel_qps", gap("arbordb")),
        ("gap_bitgraph_parallel_qps", gap("bitgraph")),
        ("gap_bitgraph_over_arbordb", gap("bitgraph") / gap("arbordb")),
        ("replica_arbordb_r1_qps", healthy("arbordb", "1")),
        ("replica_arbordb_r2_qps", healthy("arbordb", "2")),
        ("replica_bitgraph_r1_qps", healthy("bitgraph", "1")),
        ("replica_bitgraph_r2_qps", healthy("bitgraph", "2")),
        ("replica_arbordb_dead_r1_goodput", goodput("arbordb", "1")),
        ("replica_arbordb_dead_r2_goodput", goodput("arbordb", "2")),
        ("replica_bitgraph_dead_r1_goodput", goodput("bitgraph", "1")),
        ("replica_bitgraph_dead_r2_goodput", goodput("bitgraph", "2")),
        ("mixed_arbordb_perevent_eps", eps("arbordb", "latched", "1")),
        ("mixed_arbordb_batch256_eps", eps("arbordb", "latched", "256")),
        (
            "mixed_arbordb_group_commit_speedup",
            eps("arbordb", "latched", "256") / eps("arbordb", "latched", "1"),
        ),
        ("mixed_bitgraph_perevent_eps", eps("bitgraph", "snapshot", "1")),
        ("mixed_bitgraph_batch256_eps", eps("bitgraph", "snapshot", "256")),
        ("mixed_bitgraph_snapshot_read_p99_ms", mixed("bitgraph", "snapshot", "64", "p99_ms")),
        ("mixed_bitgraph_locked_read_p99_ms", mixed("bitgraph", "locked", "64", "p99_ms")),
    ]
}

/// Renders the serving rows, one line per leg under a caption per axis,
/// then the headlines.
pub fn serving_report(rows: &[Row]) -> String {
    let mut out = format!(
        "== Serving: mixed Q1-Q6 stream, median [min-max] of {TRIALS} warmed trials per leg, nproc {} ==\n",
        nproc()
    );
    for (axis, caption) in AXES {
        out.push_str(&format!("\n-- {axis}: {caption} --\n"));
        let rows: Vec<&Row> = rows.iter().filter(|r| r.axis == axis).collect();
        let name = |r: &Row| {
            let shape =
                format!("threads={} requests={} events={}", r.threads, r.requests, r.events);
            format!("{} {shape}", describe(&r.labels))
        };
        let width = rows.iter().map(|r| name(r).len()).max().unwrap_or(0);
        for r in rows {
            let mut line = format!("{:<width$}", name(r));
            for (k, s) in &r.metrics {
                let p = if k.ends_with("_ms") { 3 } else { 0 };
                let cell = format!("{:.p$} [{:.p$}-{:.p$}]", s.median, s.min, s.max);
                line.push_str(&format!("  {k} {cell:<21}"));
            }
            for (k, v) in r.counters.iter().filter(|(_, v)| *v > 0) {
                line.push_str(&format!("  {k}={v}"));
            }
            out.push_str(line.trim_end());
            out.push('\n');
        }
    }
    out.push('\n');
    for (k, v) in headlines(rows) {
        out.push_str(&format!("headline {k} {}\n", num(v)));
    }
    out
}

/// Renders the serving rows as the `BENCH_serving.json` artifact: a header
/// (scale, trials, host nproc, hedge threshold), one `<axis>_rows` array
/// per axis in the one row schema, `headlines`, and the tail axis's
/// transient-chaos rows again as the `chaos` section.
pub fn serving_json(scale: &str, rows: &[Row]) -> String {
    let mut out = format!(
        "{{\n  \"experiment\": \"serving\",\n  \"scale\": \"{scale}\",\n  \"trials\": {TRIALS},\n  \
         \"nproc\": {},\n  \"hedge_threshold_us\": {TAIL_HEDGE_US},\n",
        nproc()
    );
    for (axis, _) in AXES {
        let lines: Vec<String> = rows.iter().filter(|r| r.axis == axis).map(row_json).collect();
        out.push_str(&format!("  \"{axis}_rows\": [\n{}\n  ],\n", lines.join(",\n")));
    }
    let headlines: Vec<String> =
        headlines(rows).iter().map(|(k, v)| format!("\"{k}\": {}", num(*v))).collect();
    out.push_str(&format!("  \"headlines\": {{{}}},\n", headlines.join(", ")));
    // The runner panics unless every chaos call answered like the clean
    // legs, hence the constant `digest_matches_clean`.
    let chaos: Vec<String> = (rows.iter())
        .filter(|r| r.axis == "tail" && r.label("plan") == "transient")
        .map(row_json)
        .collect();
    out.push_str(&format!(
        "  \"chaos\": {{\"plan\": \"transient\", \"digest_matches_clean\": true, \"legs\": [\n{}\n  ]}}\n}}\n",
        chaos.join(",\n")
    ));
    out
}

/// One row in the shared schema: labels, median/min/max per metric, then
/// trials, threads, requests, events (0 unless the leg writes) and counters.
fn row_json(r: &Row) -> String {
    let mut fields: Vec<String> = (r.labels.iter())
        .map(|(k, v)| {
            if v.parse::<i64>().is_ok() || v == "true" || v == "false" {
                format!("\"{k}\": {v}")
            } else {
                format!("\"{k}\": {v:?}")
            }
        })
        .collect();
    fields.extend(r.metrics.iter().map(|(k, s)| {
        let (median, min, max) = (num(s.median), num(s.min), num(s.max));
        format!("\"{k}\": {{\"median\": {median}, \"min\": {min}, \"max\": {max}}}")
    }));
    let (threads, requests, events) = (r.threads, r.requests, r.events);
    fields.push(format!("\"trials\": {TRIALS}, \"threads\": {threads}, \"requests\": {requests}, \"events\": {events}"));
    let counters: Vec<String> = r.counters.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    fields.push(format!("\"counters\": {{{}}}", counters.join(", ")));
    format!("    {{{}}}", fields.join(", "))
}

/// The chaos-serving experiment: deterministic fault injection against the
/// sharded composition (DESIGN.md §4d). Three regimes over a 2-shard
/// chaos-wrapped engine: transient faults fully masked by retries (digest
/// pinned byte-identical to the fault-free run), a hostile plan in Strict
/// mode (typed errors, caught panics), and the same plan in Partial mode
/// (coverage-tagged degradation).
pub fn chaos(f: &Fixture) -> String {
    use micrograph_core::fault::silence_injected_panics;
    use micrograph_core::ingest::{build_chaos_sharded_engines, build_sharded_engines};
    use micrograph_core::{DegradationMode, FaultPlan, RetryPolicy};
    silence_injected_panics();
    let users = f.dataset.users.len() as u64;
    let config = ServeConfig { threads: 4, requests: 128, seed: 42, users, vocab: 16, ..Default::default() };
    let mut out = String::new();
    out.push_str("== Chaos serving (seeded fault injection, sharded stack) ==\n\n");

    let (clean, _) =
        build_sharded_engines(&f.dataset, &f.dir.join("chaos-clean"), 2).expect("build clean");
    let baseline = serve(&clean, &config).expect("serve baseline");

    let (masked_engine, _) = build_chaos_sharded_engines(
        &f.dataset,
        &f.dir.join("chaos-transient"),
        2,
        FaultPlan::transient(3),
        RetryPolicy::default(),
        DegradationMode::Strict,
    )
    .expect("build transient");
    let masked = serve(&masked_engine, &config).expect("serve transient");
    assert_eq!(masked.digest(), baseline.digest(), "transient faults leaked into answers");
    out.push_str(&format!(
        "transient plan: {} faults injected, {} retries spent, 0 answers changed \
         (digest == fault-free {:#018x})\n",
        masked.faults.total_injected(),
        masked.faults.retries,
        baseline.digest(),
    ));

    for (mode, label) in
        [(DegradationMode::Strict, "Strict"), (DegradationMode::Partial, "Partial")]
    {
        let (engine, _) = build_chaos_sharded_engines(
            &f.dataset,
            &f.dir.join(format!("chaos-hostile-{label}")),
            2,
            FaultPlan::hostile(5),
            RetryPolicy::default(),
            mode,
        )
        .expect("build hostile");
        let report = serve(&engine, &config).expect("serve hostile");
        out.push_str(&format!(
            "hostile plan, {label}: {} — {} errored, {} degraded\n",
            report.faults, report.errors, report.degraded,
        ));
    }
    out
}

/// Import/size summary (the §3.2 headline numbers).
pub fn import_summary(f: &Fixture) -> String {
    let mut out = String::new();
    out.push_str("== Import summary (paper: Neo4j 45 min / 2.8 GB; Sparksee 72 min / 15.1 GB) ==\n");
    out.push_str(&compare_line(
        "bulk import wall time",
        f.reports.arbor.total_ms,
        f.reports.bit.total_ms,
        "ms",
    ));
    out.push_str(&compare_line(
        "disk bytes",
        f.reports.arbor.disk_bytes as f64,
        f.reports.bit.disk_bytes as f64,
        "B",
    ));
    out.push_str(&format!(
        "edge-curve jitter (flush jumps): arbordb {:.2} vs bitgraph {:.2} (higher = spikier)\n",
        f.reports.arbor.edge_curve.jitter(),
        f.reports.bit.edge_curve.jitter(),
    ));
    out.push_str(&format!(
        "arbordb intermediate (dense nodes) {:.0} ms, index build {:.0} ms; bitgraph flush stalls {}\n",
        f.reports.arbor.intermediate_ms, f.reports.arbor.index_build_ms, f.reports.bit.flush_stalls,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};

    /// A leg that logs each call and answers the 8-request stream with `digest`.
    fn stub<'a>(name: &'static str, log: &'a RefCell<Vec<&'static str>>, digest: u64) -> Leg<'a> {
        leg(labels!["leg" = name], move || {
            log.borrow_mut().push(name);
            Trial { threads: 1, requests: 8, digest: Some(digest), ..Trial::default() }
        })
    }

    #[test]
    fn every_leg_is_warmed_once_then_measured_in_alternating_order() {
        let log = RefCell::new(Vec::new());
        let mut runner = Runner::default();
        runner.run("axis", vec![stub("a", &log, 7), stub("b", &log, 7), stub("c", &log, 7)]);
        let mut want = vec!["a", "b", "c"];
        for round in 0..TRIALS {
            want.extend(if round % 2 == 0 { ["a", "b", "c"] } else { ["c", "b", "a"] });
        }
        assert_eq!(*log.borrow(), want);
        let rows: Vec<&str> = runner.rows.iter().map(|r| r.label("leg")).collect();
        assert_eq!(rows, ["a", "b", "c"]);
    }

    #[test]
    fn rows_hold_median_min_max_of_the_measured_trials_only() {
        assert_eq!(
            Spread::of(&[3.0, 9.0, 1.0, 4.0, 2.0]),
            Spread { median: 3.0, min: 1.0, max: 9.0 }
        );
        // Call 0 is the warmup, whose outlier must not reach the row; the
        // measured calls return TRIALS, TRIALS - 1, ..., 1.
        let calls = Cell::new(0usize);
        let descending = leg(labels!["leg" = "a"], || {
            let i = calls.replace(calls.get() + 1);
            let qps = if i == 0 { 1e9 } else { (TRIALS + 1 - i) as f64 };
            Trial { metrics: vec![("qps", qps)], ..Trial::default() }
        });
        let mut runner = Runner::default();
        runner.run("axis", vec![descending]);
        assert_eq!(calls.get(), TRIALS + 1);
        let want = Spread { median: (TRIALS / 2 + 1) as f64, min: 1.0, max: TRIALS as f64 };
        assert_eq!(runner.rows[0].metrics, [("qps", want)]);
    }

    #[test]
    #[should_panic(expected = "leg=c threads=1: digest")]
    fn a_leg_whose_digest_differs_from_its_stream_panics_naming_it() {
        let log = RefCell::new(Vec::new());
        let mut runner = Runner::default();
        runner.run("first", vec![stub("a", &log, 7), stub("b", &log, 7)]);
        // A 16-request stream keeps its own digest ...
        let long = leg(labels!["leg" = "long"], || Trial {
            requests: 16,
            digest: Some(9),
            ..Trial::default()
        });
        runner.run("second", vec![long]);
        // ... while the 8-request stream still answers to axis `first`.
        runner.run("third", vec![stub("c", &log, 8)]);
    }
}
