//! The repository benchmark. One run builds both engines for one workload
//! from generated inputs (the medium dataset preset; request and event
//! streams from the workload seed), drives them through the public serving
//! surface, checks every answer, and prints each metric by name with its
//! unit. The last line of standard output is the JSON result.
//!
//! ```text
//! perfbench --workload <read-warm|read-sharded-spill|firehose> --seed <n>
//!           --seconds <s> --trace <0|1> [--work-dir <dir>]
//! ```
//!
//! See `README.md` next to this crate for the workloads and metrics.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use micrograph_core::engine::{MicroblogEngine, WriteMode};
use micrograph_core::serve::{request_stream, Request};
use micrograph_core::workload::QueryId;
use perfbench::drive::{self, Chunk, ReadOut, WriteOut};
use perfbench::report::{median, percentile, quote, ratio, Counters, Metrics, SpanAgg};
use perfbench::setup::{self, ArborStore, Built, Deployment, SHARDS, SPILL_CACHE_DIVISOR};
use perfbench::sys::{self, CtxSwitches, ThreadTimes};
use perfbench::trace::Recorder;

/// Open-loop writer rate, events/s.
const RATE: f64 = 1000.0;
/// Requests per backend per round of a read phase.
const CHUNK: usize = 1000;
/// Closed-loop read clients.
const CLIENTS: usize = 2;
/// Builds per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Firehose slots per backend.
const SLOTS: usize = 4;
/// Share of `--seconds` a traced read-workload run spends reading; the rest
/// is the uncontended write probe, half per backend. Untraced runs only read.
const READ_SHARE: f64 = 0.7;
/// A traced read-workload run alternates a read phase and a write probe
/// this often.
const CYCLES: usize = 4;
/// Events each backend commits per write probe, at most.
const PROBE_EVENTS_PER_CYCLE: usize = 500;
/// Length of the generated request stream (rounds wrap around it).
const STREAM_LEN: usize = 100_000;
/// Requests of the single-threaded cross-backend check after the writes.
const CHECK_LEN: usize = 200;
/// Tag subjects come from this head of the hashtag vocabulary.
const TAG_HEAD: u64 = 16;

const BACKENDS: [&str; 2] = ["arbordb", "bitgraph"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ReadWarm,
    ReadShardedSpill,
    Firehose,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "read-warm" => Some(Workload::ReadWarm),
            "read-sharded-spill" => Some(Workload::ReadShardedSpill),
            "firehose" => Some(Workload::Firehose),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ReadWarm => "read-warm",
            Workload::ReadShardedSpill => "read-sharded-spill",
            Workload::Firehose => "firehose",
        }
    }

    fn deployment(self) -> Deployment {
        match self {
            Workload::ReadWarm => Deployment::Monolith(ArborStore::Memory),
            Workload::ReadShardedSpill => Deployment::Sharded,
            Workload::Firehose => Deployment::Monolith(ArborStore::Disk),
        }
    }

    /// Events to generate: the firehose applies all of them on each
    /// backend; the write probe of the read workloads applies a prefix.
    fn events(self, seconds: f64) -> usize {
        match self {
            Workload::Firehose => ((RATE * seconds / 2.0) as usize).max(1),
            _ => PROBE_EVENTS_PER_CYCLE * CYCLES,
        }
    }

    fn flush_policy(self) -> &'static str {
        match self {
            Workload::ReadWarm => {
                "arbordb in memory (no WAL); bitgraph snapshot publish per commit, extent log without fsync"
            }
            _ => {
                "arbordb on disk, WAL synced at every commit; bitgraph snapshot publish per commit, extent log without fsync"
            }
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut work_dir = PathBuf::from(".perfbench-work");
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds out of range: {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--work-dir" => work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        work_dir,
    })
}

/// Latency samples of one measurement window (a read round, a firehose
/// slot, the write probe) and the window's busy time.
struct Window {
    ms: Vec<f64>,
    busy_ms: f64,
}

/// The windows of one backend. Each reported figure is the median over
/// windows of that figure per window, so one disturbed window cannot move it.
#[derive(Default)]
struct Windows(Vec<Window>);

impl Windows {
    fn push(&mut self, ms: &[f64], busy_ms: f64) {
        self.0.push(Window {
            ms: ms.to_vec(),
            busy_ms,
        });
    }

    fn median_of(&self, f: impl Fn(&Window) -> f64) -> f64 {
        median(&self.0.iter().map(f).collect::<Vec<_>>())
    }

    fn qps(&self) -> f64 {
        self.median_of(|w| ratio(w.ms.len() as f64, w.busy_ms / 1e3))
    }

    fn percentile(&self, p: f64) -> f64 {
        self.median_of(|w| percentile(&w.ms, p))
    }

    /// A percentile over the samples of every window together.
    fn pooled_percentile(&self, p: f64) -> f64 {
        let all: Vec<f64> = self.0.iter().flat_map(|w| w.ms.iter().copied()).collect();
        percentile(&all, p)
    }
}

/// Everything one run measured, per backend where it applies.
#[derive(Default)]
struct Run {
    attempted: u64,
    failed: u64,
    /// Read rounds of the read workloads, or the firehose reader's slots.
    reads: [Windows; 2],
    /// The writer's windows: the write probe, or the firehose slots.
    writes: [Windows; 2],
    writers: [Vec<WriteOut>; 2],
    readers: [Vec<ReadOut>; 2],
    spans: [SpanAgg; 2],
    /// Engine counters over the traced windows.
    counters: Counters,
    /// Engine counters over the whole timed read phase.
    phase_counters: Counters,
    /// Growth of the arbordb WAL files while arbordb took events.
    wal_bytes: u64,
    /// Events both backends have applied (the write probe resumes here).
    events_done: usize,
    ctx: CtxSwitches,
    plain_ms: f64,
    traced_ms: f64,
    rounds: u64,
}

impl Run {
    /// Counts answer failures between two chunks over the same requests:
    /// every errored request on either side, plus every request both
    /// answered differently.
    fn check(&mut self, a: &Chunk, b: &Chunk) {
        self.attempted += (a.rendered.len() + b.rendered.len()) as u64;
        self.failed += a.errors + b.errors;
        self.failed += a
            .rendered
            .iter()
            .zip(&b.rendered)
            .filter(|(x, y)| x.is_some() && y.is_some() && x != y)
            .count() as u64;
    }

    fn applied(&self, k: usize) -> usize {
        self.writers[k].iter().map(|w| w.applied).sum()
    }

    fn lag_ms(&self, k: usize) -> f64 {
        self.writers[k].iter().map(|w| w.lag_ms).fold(0.0, f64::max)
    }

    /// Records one writer window of backend `k` (and its reader, if any).
    fn record(&mut self, k: usize, write: WriteOut, read: Option<ReadOut>) {
        self.ctx = self.ctx.plus(&write.ctx);
        self.attempted += write.applied as u64;
        self.failed += write.failed;
        self.writes[k].push(&write.lat_ms, 0.0);
        self.writers[k].push(write);
        if let Some(read) = read {
            self.ctx = self.ctx.plus(&read.ctx);
            self.attempted += read.ms.len() as u64;
            self.failed += read.errors;
            self.reads[k].push(&read.ms, read.wall_ms);
            self.readers[k].push(read);
        }
    }
}

fn wrap(stream: &[Request], round: usize) -> &[Request] {
    let slots = stream.len() / CHUNK;
    let lo = (round % slots) * CHUNK;
    &stream[lo..lo + CHUNK]
}

/// Warm-up: serves chunk 0 on both backends, untimed, and checks its answers.
fn warm_up(b: &Built, stream: &[Request], clients: usize, run: &mut Run) {
    let a = drive::serve_chunk(&*b.arbor, wrap(stream, 0), clients);
    let c = drive::serve_chunk(&*b.bit, wrap(stream, 0), clients);
    run.check(&a, &c);
}

/// Closed-loop rounds until `budget` is spent: each round serves the same
/// chunk on both backends, alternating which goes first, and compares
/// every answer. Traced runs serve each chunk twice per backend, recording
/// off then on, and also require the two to answer identically.
fn read_phase(
    b: &Built,
    stream: &[Request],
    budget: Duration,
    clients: usize,
    rec: Option<&Recorder>,
    run: &mut Run,
) {
    let engines: [&dyn MicroblogEngine; 2] = [&*b.arbor, &*b.bit];
    let before = Counters::read(&b.probes);
    let ctx = CtxSwitches::live_threads();
    let start = Instant::now();
    let first = run.rounds as usize;
    let mut round = first;
    while round == first || start.elapsed() < budget {
        let reqs = wrap(stream, round + 1);
        let order = if round.is_multiple_of(2) {
            [0, 1]
        } else {
            [1, 0]
        };
        let mut served: [Option<Chunk>; 2] = [None, None];
        for k in order {
            let chunk = match rec {
                None => {
                    let c = drive::serve_chunk(engines[k], reqs, clients);
                    run.reads[k].push(&c.ms, c.wall_ms);
                    c
                }
                Some(rec) => {
                    rec.set_enabled(false);
                    let plain = drive::serve_chunk(engines[k], reqs, clients);
                    let c0 = Counters::read(&b.probes);
                    rec.set_enabled(true);
                    let traced = drive::serve_chunk(engines[k], reqs, clients);
                    rec.set_enabled(false);
                    run.counters = run.counters.plus(&Counters::read(&b.probes).since(&c0));
                    run.spans[k].absorb(BACKENDS[k], &rec.drain());
                    run.failed += drive::mismatches(&plain, &traced);
                    run.plain_ms += plain.ms.iter().sum::<f64>();
                    run.traced_ms += traced.ms.iter().sum::<f64>();
                    run.reads[k].push(&plain.ms, plain.wall_ms);
                    run.ctx = run.ctx.plus(&plain.ctx);
                    traced
                }
            };
            run.ctx = run.ctx.plus(&chunk.ctx);
            served[k] = Some(chunk);
        }
        let [Some(a), Some(c)] = served else {
            unreachable!("both backends served the round")
        };
        run.check(&a, &c);
        round += 1;
    }
    run.rounds = round as u64;
    run.ctx = run.ctx.plus(&CtxSwitches::live_threads().since(&ctx));
    run.phase_counters = run
        .phase_counters
        .plus(&Counters::read(&b.probes).since(&before));
}

/// One write probe of the read workloads: each backend in turn commits the
/// next events one at a time, closed-loop with no reader, for `budget` or
/// `PROBE_EVENTS_PER_CYCLE` events, whichever ends first. The side that
/// applied fewer then catches up in one untimed batch (with snapshot
/// publication switched off meanwhile, which never changes an answer), and
/// both must answer a fixed request stream alike.
fn write_probe(
    b: &Built,
    budget: Duration,
    check: &[Request],
    rec: Option<&Recorder>,
    run: &mut Run,
) {
    let engines: [&dyn MicroblogEngine; 2] = [&*b.arbor, &*b.bit];
    let events = &b.inputs.events;
    let from = run.events_done;
    let next = &events[from..(from + PROBE_EVENTS_PER_CYCLE).min(events.len())];
    let mut reached = [from; 2];
    for k in 0..2 {
        let wal = b.probes.wal_bytes();
        let ctx = CtxSwitches::live_threads();
        if let Some(rec) = rec {
            rec.set_enabled(true);
        }
        let write = drive::closed_loop_write(engines[k], next, budget);
        if let Some(rec) = rec {
            rec.set_enabled(false);
            run.spans[k].absorb(BACKENDS[k], &rec.drain());
        }
        if k == 0 {
            run.wal_bytes += b.probes.wal_bytes().saturating_sub(wal);
        }
        run.ctx = run.ctx.plus(&CtxSwitches::live_threads().since(&ctx));
        reached[k] += write.applied;
        run.record(k, write, None);
    }
    let target = reached[0].max(reached[1]);
    for (k, engine) in engines.into_iter().enumerate() {
        if reached[k] == target {
            continue;
        }
        let mode = engine.write_mode();
        if mode.is_some() {
            engine.set_write_mode(WriteMode::Locked);
        }
        run.attempted += 1;
        run.failed += engine
            .apply_event_batch(&events[reached[k]..target])
            .is_err() as u64;
        if let Some(mode) = mode {
            engine.set_write_mode(mode);
        }
    }
    run.events_done = target;
    run.attempted += 2 * check.len() as u64;
    run.failed += drive::cross_check(engines[0], engines[1], check);
}

/// The firehose: the event stream is cut into `SLOTS` consecutive slices,
/// and each backend takes every slice from the open-loop writer with one
/// closed-loop reader beside it. Slots alternate between the backends
/// (ABBA), so a drift of the host hits both alike. Afterwards both must
/// answer a fixed request stream alike.
fn firehose_phase(
    b: &Built,
    reads: &[Request],
    check: &[Request],
    rec: Option<&Recorder>,
    run: &mut Run,
) {
    let engines: [&dyn MicroblogEngine; 2] = [&*b.arbor, &*b.bit];
    let events = &b.inputs.events;
    let per_slot = events.len().div_ceil(SLOTS);
    let mut read_pos = [0usize; 2];
    for slot in 0..SLOTS {
        let slice =
            &events[(slot * per_slot).min(events.len())..((slot + 1) * per_slot).min(events.len())];
        let order = if slot.is_multiple_of(2) {
            [0, 1]
        } else {
            [1, 0]
        };
        for k in order {
            let wal = b.probes.wal_bytes();
            let c0 = Counters::read(&b.probes);
            let ctx = CtxSwitches::live_threads();
            if let Some(rec) = rec {
                rec.set_enabled(true);
            }
            let (write, read) = drive::mixed(engines[k], slice, RATE, reads, read_pos[k]);
            if let Some(rec) = rec {
                rec.set_enabled(false);
                run.spans[k].absorb(BACKENDS[k], &rec.drain());
                run.counters = run.counters.plus(&Counters::read(&b.probes).since(&c0));
            }
            if k == 0 {
                run.wal_bytes += b.probes.wal_bytes().saturating_sub(wal);
            }
            run.ctx = run.ctx.plus(&CtxSwitches::live_threads().since(&ctx));
            read_pos[k] += read.ms.len();
            run.record(k, write, Some(read));
        }
    }
    run.attempted += 2 * check.len() as u64;
    run.failed += drive::cross_check(engines[0], engines[1], check);
}

/// Read-only chunks served with recording off and on, for the tracing
/// overhead of a workload whose timed phase cannot be repeated.
fn overhead_probe(b: &Built, reqs: &[Request], rec: &Recorder, run: &mut Run) {
    for engine in [&*b.arbor, &*b.bit] {
        rec.set_enabled(false);
        let plain = drive::serve_chunk(engine, reqs, 1);
        rec.set_enabled(true);
        let traced = drive::serve_chunk(engine, reqs, 1);
        rec.set_enabled(false);
        rec.drain();
        run.attempted += 2 * reqs.len() as u64;
        run.failed += drive::mismatches(&plain, &traced);
        run.plain_ms += plain.ms.iter().sum::<f64>();
        run.traced_ms += traced.ms.iter().sum::<f64>();
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = args
        .work_dir
        .join(format!("{}-{}", args.workload.name(), std::process::id()));
    let outcome = execute(&args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn execute(args: &Args, dir: &std::path::Path) -> Result<ExitCode, String> {
    let w = args.workload;
    let recorder = args.trace.then(Recorder::new);
    if let Some(rec) = &recorder {
        rec.set_enabled(false);
    }
    let events = w.events(args.seconds);

    // Set-up: untraced runs build several times and keep the last build.
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::with_capacity(repeats);
    let mut built = None;
    for k in 0..repeats {
        drop(built.take());
        let build_dir = dir.join(format!("build-{k}"));
        if k > 0 {
            let _ = std::fs::remove_dir_all(dir.join(format!("build-{}", k - 1)));
        }
        let b = setup::build(
            w.deployment(),
            args.seed,
            events,
            &build_dir,
            recorder.as_ref(),
        )
        .map_err(|e| format!("set-up failed: {e}"))?;
        setup_s.push(b.times.total_s);
        built = Some(b);
    }
    let b = built.expect("at least one build");

    let stream = request_stream(
        args.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 1,
        STREAM_LEN,
        b.inputs.config.users,
        TAG_HEAD,
    );
    let check = request_stream(
        args.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 2,
        CHECK_LEN,
        b.inputs.config.users,
        TAG_HEAD,
    );
    let rec = recorder.as_deref();
    let mut run = Run::default();
    let mut guard: Option<String> = None;

    match w {
        Workload::ReadWarm | Workload::ReadShardedSpill => {
            // A traced sharded run uses one client so that legs on pool
            // threads fall inside the interval of the request they serve.
            let clients = if args.trace && w == Workload::ReadShardedSpill {
                1
            } else {
                CLIENTS
            };
            warm_up(&b, &stream, clients, &mut run);
            if args.trace {
                let read_budget =
                    Duration::from_secs_f64(args.seconds * READ_SHARE / CYCLES as f64);
                let write_budget = Duration::from_secs_f64(
                    args.seconds * (1.0 - READ_SHARE) / 2.0 / CYCLES as f64,
                );
                for _ in 0..CYCLES {
                    read_phase(&b, &stream, read_budget, clients, rec, &mut run);
                    write_probe(&b, write_budget, &check, rec, &mut run);
                }
            } else {
                read_phase(
                    &b,
                    &stream,
                    Duration::from_secs_f64(args.seconds),
                    clients,
                    None,
                    &mut run,
                );
            }
            let p = &run.phase_counters.pages;
            if w == Workload::ReadWarm && p.misses != 0 {
                guard = Some(format!(
                    "read-warm saw {} page misses in the timed reads",
                    p.misses
                ));
            }
            if w == Workload::ReadShardedSpill && p.hits >= p.accesses {
                guard = Some(format!(
                    "read-sharded-spill page hit ratio reached 1.0 ({} of {} accesses)",
                    p.hits, p.accesses
                ));
            }
        }
        Workload::Firehose => {
            warm_up(&b, &stream, 1, &mut run);
            if let Some(rec) = rec {
                overhead_probe(&b, wrap(&stream, 1), rec, &mut run);
            }
            firehose_phase(&b, &stream[CHUNK..], &check, rec, &mut run);
        }
    }

    // ---- report ---------------------------------------------------------
    let mut m = Metrics::default();
    if args.trace {
        layer_metrics(&mut m, &b, &run);
    } else {
        m.put("setup_s", median(&setup_s), "s");
        m.put("peak_rss_mb", sys::peak_rss_mb(), "MiB");
        for (k, name) in BACKENDS.iter().enumerate() {
            m.put(format!("{name}.read_qps"), run.reads[k].qps(), "1/s");
            m.put(
                format!("{name}.read_p50_ms"),
                run.reads[k].percentile(50.0),
                "ms",
            );
            m.put(
                format!("{name}.read_p99_ms"),
                run.reads[k].percentile(99.0),
                "ms",
            );
        }
        if w == Workload::Firehose {
            put_writes(&mut m, &run);
        }
    }

    let failed_frac = ratio(run.failed as f64, run.attempted as f64);
    let ds = b.inputs.dataset.stats();
    let env = [
        ("workload", quote(w.name())),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", (args.trace as u8).to_string()),
        ("nproc", sys::nproc().to_string()),
        (
            "commit",
            quote(&std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into())),
        ),
        ("users", ds.users.to_string()),
        ("tweets", ds.tweets.to_string()),
        ("hashtags", ds.hashtags.to_string()),
        ("follows", ds.follows.to_string()),
        ("edges", ds.total_edges().to_string()),
        ("arbordb_store_bytes", b.times.store_bytes.to_string()),
        ("arbordb_cache_bytes", b.times.cache_bytes.to_string()),
        (
            "shards",
            if w == Workload::ReadShardedSpill {
                SHARDS
            } else {
                1
            }
            .to_string(),
        ),
        (
            "spill_cache_divisor",
            if w == Workload::ReadShardedSpill {
                SPILL_CACHE_DIVISOR
            } else {
                1
            }
            .to_string(),
        ),
        ("flush_policy", quote(w.flush_policy())),
        ("arbordb_events_timed", run.applied(0).to_string()),
        ("bitgraph_events_timed", run.applied(1).to_string()),
        ("write_rate_per_s", RATE.to_string()),
        ("arbordb_writer_lag_ms", run.lag_ms(0).to_string()),
        ("bitgraph_writer_lag_ms", run.lag_ms(1).to_string()),
        ("read_rounds", run.rounds.to_string()),
        ("arbordb_read_windows", run.reads[0].0.len().to_string()),
        ("bitgraph_read_windows", run.reads[1].0.len().to_string()),
        ("setup_s_runs", format!("{setup_s:?}")),
        ("failed_frac", failed_frac.to_string()),
    ];
    let env: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("{}: {v}", quote(k)))
        .collect();
    println!("env {{{}}}", env.join(", "));
    println!(
        "{} seed {}: {} of {} operations failed (failed_frac {failed_frac})",
        w.name(),
        args.seed,
        run.failed,
        run.attempted
    );
    print!("{}", m.table());
    if let Some(g) = &guard {
        eprintln!("perfbench: regime guard failed: {g}");
    }
    let correct = run.failed == 0 && guard.is_none();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.attempted.max(1),
        run.failed,
        m.json()
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Write latency per backend, percentiles over every write window.
fn put_writes(m: &mut Metrics, run: &Run) {
    for (k, name) in BACKENDS.iter().enumerate() {
        m.put(
            format!("{name}.write_p50_ms"),
            run.writes[k].pooled_percentile(50.0),
            "ms",
        );
        m.put(
            format!("{name}.write_p99_ms"),
            run.writes[k].pooled_percentile(99.0),
            "ms",
        );
    }
}

fn put_threads(
    m: &mut Metrics,
    role: &str,
    backend: &str,
    windows: impl Iterator<Item = ThreadTimes>,
) {
    let t = windows.fold(ThreadTimes::default(), |a, t| ThreadTimes {
        oncpu_ms: a.oncpu_ms + t.oncpu_ms,
        runq_ms: a.runq_ms + t.runq_ms,
        blocked_ms: a.blocked_ms + t.blocked_ms,
    });
    m.put(
        format!("thread.{role}.{backend}.oncpu_ms"),
        t.oncpu_ms,
        "ms",
    );
    m.put(format!("thread.{role}.{backend}.runq_ms"), t.runq_ms, "ms");
    m.put(
        format!("thread.{role}.{backend}.blocked_ms"),
        t.blocked_ms,
        "ms",
    );
}

/// The per-layer metrics of a traced run. Counts are per read request of
/// the traced window; a layer the workload bypasses reports 0.
fn layer_metrics(m: &mut Metrics, b: &Built, run: &Run) {
    let t = &b.times;
    m.put("datagen.generate_ms", t.generate_ms, "ms");
    m.put("datagen.csv_ms", t.csv_ms, "ms");
    m.put("datagen.stream_ms", t.stream_ms, "ms");
    m.put("arbordb.import_ms", t.import_ms, "ms");
    m.put("arbordb.import.dense_ms", t.import_dense_ms, "ms");
    m.put("arbordb.import.index_ms", t.import_index_ms, "ms");
    m.put("arbordb.store_bytes", t.store_bytes as f64, "B");
    m.put("bitgraph.load_ms", t.load_ms, "ms");
    m.put(
        "bitgraph.load.flush_stalls",
        t.load_flush_stalls as f64,
        "count",
    );
    m.put("shard.partition_ms", t.partition_ms, "ms");

    for (k, name) in BACKENDS.iter().enumerate() {
        for q in QueryId::ALL {
            let ms = run.spans[k]
                .query_ms
                .get(&q)
                .map(Vec::as_slice)
                .unwrap_or(&[]);
            let label = format!("{q:?}");
            m.put(
                format!("query.{label}.{name}.busy_ms"),
                ratio(ms.iter().sum(), ms.len() as f64),
                "ms",
            );
            m.put(
                format!("query.{label}.{name}.p99_ms"),
                percentile(ms, 99.0),
                "ms",
            );
        }
    }

    let c = &run.counters;
    let (arbor, bit) = (&run.spans[0], &run.spans[1]);
    let per_arbor_req = |v: u64| ratio(v as f64, arbor.requests as f64);
    let per_bit_req = |v: u64| ratio(v as f64, bit.requests as f64);
    m.put(
        "arborql.plan_cache_hit_ratio",
        ratio(c.plan_hits as f64, (c.plan_hits + c.plan_misses) as f64),
        "ratio",
    );
    m.put(
        "arbordb.page_accesses",
        per_arbor_req(c.pages.accesses),
        "count/req",
    );
    m.put(
        "arbordb.db_hits_per_row",
        ratio(c.pages.accesses as f64, arbor.rows as f64),
        "count/row",
    );
    m.put(
        "arbordb.index_seeks",
        per_arbor_req(c.index_seeks),
        "count/req",
    );
    m.put(
        "arbordb.label_scans",
        per_arbor_req(c.label_scans),
        "count/req",
    );
    m.put(
        "arbordb.page_hit_ratio",
        ratio(c.pages.hits as f64, c.pages.accesses as f64),
        "ratio",
    );
    m.put(
        "arbordb.page_misses",
        per_arbor_req(c.pages.misses),
        "count/req",
    );
    m.put(
        "arbordb.page_evictions",
        per_arbor_req(c.pages.evictions),
        "count/req",
    );
    m.put(
        "arbordb.page_writebacks",
        per_arbor_req(c.pages.writebacks),
        "count/req",
    );
    m.put(
        "bitgraph.neighbors_calls",
        per_bit_req(c.bit.neighbors_calls),
        "count/req",
    );
    m.put(
        "bitgraph.explode_calls",
        per_bit_req(c.bit.explode_calls),
        "count/req",
    );
    m.put(
        "bitgraph.find_object_calls",
        per_bit_req(c.bit.find_object_calls),
        "count/req",
    );
    m.put(
        "bitgraph.select_scans",
        per_bit_req(c.bit.select_scans),
        "count/req",
    );
    m.put(
        "bitgraph.values_read",
        per_bit_req(c.bit.values_read),
        "count/req",
    );
    m.put(
        "bitgraph.values_read_per_row",
        ratio(c.bit.values_read as f64, bit.rows as f64),
        "count/row",
    );

    for (k, name) in BACKENDS.iter().enumerate() {
        let s = &run.spans[k];
        let reqs = s.requests as f64;
        m.put(
            format!("shard.{name}.legs_per_request"),
            ratio(s.legs as f64, reqs),
            "count/req",
        );
        m.put(
            format!("shard.{name}.leg_busy_ms"),
            ratio(s.leg_ms.iter().sum(), reqs),
            "ms/req",
        );
        m.put(
            format!("shard.{name}.leg_p99_ms"),
            percentile(&s.leg_ms, 99.0),
            "ms",
        );
        m.put(
            format!("shard.{name}.merge_self_ms"),
            ratio(s.merge_self_ms, reqs),
            "ms/req",
        );
    }

    put_writes(m, run);
    for (k, name) in BACKENDS.iter().enumerate() {
        let s = &run.spans[k];
        m.put(format!("{name}.commit_busy_ms"), s.commit_ms, "ms");
        m.put(
            format!("{name}.batch_events_mean"),
            ratio(s.commit_events as f64, s.commits as f64),
            "events",
        );
        m.put(format!("{name}.writer_lag_ms"), run.lag_ms(k), "ms");
    }
    m.put(
        "arbordb.wal_bytes_per_event",
        ratio(run.wal_bytes as f64, run.applied(0) as f64),
        "B/event",
    );
    for (k, name) in BACKENDS.iter().enumerate() {
        put_threads(m, "writer", name, run.writers[k].iter().map(|w| w.thread));
        put_threads(m, "reader", name, run.readers[k].iter().map(|r| r.thread));
    }

    m.put("proc.ctx_voluntary", run.ctx.voluntary as f64, "count");
    m.put("proc.ctx_involuntary", run.ctx.involuntary as f64, "count");
    m.put(
        "trace.overhead_frac",
        ratio(run.traced_ms - run.plain_ms, run.plain_ms),
        "frac",
    );
}
