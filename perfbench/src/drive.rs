//! Load generation: closed-loop read clients, the open-loop writer, and
//! the cross-backend answer check. Everything goes through the public
//! serving surface (`serve::execute_rendered`, `MicroblogEngine`).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use micrograph_core::engine::MicroblogEngine;
use micrograph_core::serve::{execute_rendered, Request};
use micrograph_datagen::UpdateEvent;

use crate::setup::ms_since;
use crate::sys::{CtxSwitches, ThreadClock, ThreadTimes};

/// One batch of requests served by closed-loop clients.
pub struct Chunk {
    /// Rendered answer per request (`None` when the request errored).
    pub rendered: Vec<Option<String>>,
    /// Latency per request, ms, in completion order per client.
    pub ms: Vec<f64>,
    /// Wall time of the whole chunk, ms.
    pub wall_ms: f64,
    /// Requests that returned an error.
    pub errors: u64,
    /// Context switches of the client threads.
    pub ctx: CtxSwitches,
}

/// Serves `reqs` with `clients` closed-loop client threads sharing one
/// cursor: each client sends its next request when the previous answer
/// is back.
pub fn serve_chunk(engine: &dyn MicroblogEngine, reqs: &[Request], clients: usize) -> Chunk {
    let cursor = AtomicUsize::new(0);
    let start = Instant::now();
    // Per client: (stream index, latency ms, answer) per request, and the
    // client thread's context switches.
    type Samples = Vec<(usize, f64, Option<String>)>;
    let per_client: Vec<(Samples, CtxSwitches)> = thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let ctx = CtxSwitches::thread();
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = reqs.get(i) else { break };
                        let t = Instant::now();
                        let answer = execute_rendered(engine, req).ok();
                        out.push((i, ms_since(t), answer));
                    }
                    (out, CtxSwitches::thread().since(&ctx))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("read client panicked"))
            .collect()
    });
    let wall_ms = ms_since(start);
    let mut chunk = Chunk {
        rendered: vec![None; reqs.len()],
        ms: Vec::with_capacity(reqs.len()),
        wall_ms,
        errors: 0,
        ctx: CtxSwitches::default(),
    };
    for (samples, ctx) in per_client {
        chunk.ctx = chunk.ctx.plus(&ctx);
        for (i, ms, answer) in samples {
            chunk.errors += answer.is_none() as u64;
            chunk.ms.push(ms);
            chunk.rendered[i] = answer;
        }
    }
    chunk
}

/// Requests whose answers differ between two chunks over the same
/// requests (an errored request counts as differing).
pub fn mismatches(a: &Chunk, b: &Chunk) -> u64 {
    a.rendered
        .iter()
        .zip(&b.rendered)
        .filter(|(x, y)| x.is_none() || y.is_none() || x != y)
        .count() as u64
}

/// Runs `reqs` one at a time on both engines and counts the requests whose
/// answers are not byte-identical (errors included).
pub fn cross_check(a: &dyn MicroblogEngine, b: &dyn MicroblogEngine, reqs: &[Request]) -> u64 {
    reqs.iter()
        .filter(|req| {
            let (x, y) = (execute_rendered(a, req).ok(), execute_rendered(b, req).ok());
            x.is_none() || y.is_none() || x != y
        })
        .count() as u64
}

/// What the open-loop writer saw.
#[derive(Debug, Clone, Default)]
pub struct WriteOut {
    /// Per event: from its due time until its commit call returned, ms.
    pub lat_ms: Vec<f64>,
    /// `apply_event_batch` calls made.
    pub batches: u64,
    /// Events applied (a prefix of the stream).
    pub applied: usize,
    /// Events in batches that returned an error.
    pub failed: u64,
    /// How far behind the last event's due time the writer finished, ms.
    pub lag_ms: f64,
    /// The writer thread's CPU / runqueue / blocked split.
    pub thread: ThreadTimes,
    /// The writer thread's context switches.
    pub ctx: CtxSwitches,
}

/// Applies `events` open-loop at `rate` events/s: event `i` is due at
/// `i / rate` s, and each round commits every event already due through one
/// `apply_event_batch` call (natural group commit). A slow commit makes
/// later events wait, and that wait is part of their latency.
pub fn open_loop_write(
    engine: &dyn MicroblogEngine,
    events: &[UpdateEvent],
    rate: f64,
) -> WriteOut {
    let clock = ThreadClock::start();
    let ctx = CtxSwitches::thread();
    let due = |i: usize| Duration::from_secs_f64(i as f64 / rate);
    let mut out = WriteOut {
        lat_ms: Vec::with_capacity(events.len()),
        ..WriteOut::default()
    };
    let start = Instant::now();
    let mut next = 0;
    while next < events.len() {
        let now = start.elapsed();
        let upto = ((now.as_secs_f64() * rate) as usize + 1).min(events.len());
        if upto <= next {
            thread::sleep(due(next).saturating_sub(now));
            continue;
        }
        if engine.apply_event_batch(&events[next..upto]).is_err() {
            out.failed += (upto - next) as u64;
        }
        let done = start.elapsed();
        out.lat_ms
            .extend((next..upto).map(|i| (done - due(i)).as_secs_f64() * 1e3));
        out.batches += 1;
        next = upto;
    }
    out.applied = next;
    if let Some(last) = events.len().checked_sub(1) {
        out.lag_ms = start.elapsed().saturating_sub(due(last)).as_secs_f64() * 1e3;
    }
    out.thread = clock.stop();
    out.ctx = CtxSwitches::thread().since(&ctx);
    out
}

/// Applies `events` one per commit, closed loop, until `budget` is spent or
/// the events run out. Each event's latency is its commit call.
pub fn closed_loop_write(
    engine: &dyn MicroblogEngine,
    events: &[UpdateEvent],
    budget: Duration,
) -> WriteOut {
    let clock = ThreadClock::start();
    let ctx = CtxSwitches::thread();
    let mut out = WriteOut::default();
    let start = Instant::now();
    for event in events.chunks(1) {
        if start.elapsed() >= budget {
            break;
        }
        let t = Instant::now();
        if engine.apply_event_batch(event).is_err() {
            out.failed += 1;
        }
        out.lat_ms.push(ms_since(t));
        out.batches += 1;
        out.applied += 1;
    }
    out.thread = clock.stop();
    out.ctx = CtxSwitches::thread().since(&ctx);
    out
}

/// What the concurrent reader saw while the writer ran.
#[derive(Debug, Clone, Default)]
pub struct ReadOut {
    /// Latency per request, ms.
    pub ms: Vec<f64>,
    /// Requests that returned an error.
    pub errors: u64,
    /// Reader wall time, ms.
    pub wall_ms: f64,
    /// The reader thread's CPU / runqueue / blocked split.
    pub thread: ThreadTimes,
    /// The reader thread's context switches.
    pub ctx: CtxSwitches,
}

/// Sets a flag when dropped, so the reader stops even if the writer panics.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Runs [`open_loop_write`] with one closed-loop reader beside it, cycling
/// through `reads` from position `from` until the writer is done.
pub fn mixed(
    engine: &dyn MicroblogEngine,
    events: &[UpdateEvent],
    rate: f64,
    reads: &[Request],
    from: usize,
) -> (WriteOut, ReadOut) {
    let done = AtomicBool::new(false);
    thread::scope(|s| {
        let reader = s.spawn(|| {
            let clock = ThreadClock::start();
            let ctx = CtxSwitches::thread();
            let start = Instant::now();
            let mut out = ReadOut::default();
            for req in reads.iter().cycle().skip(from % reads.len().max(1)) {
                if done.load(Ordering::Relaxed) {
                    break;
                }
                let t = Instant::now();
                out.errors += execute_rendered(engine, req).is_err() as u64;
                out.ms.push(ms_since(t));
            }
            out.wall_ms = ms_since(start);
            out.thread = clock.stop();
            out.ctx = CtxSwitches::thread().since(&ctx);
            out
        });
        let writer = s.spawn(|| {
            let _stop = StopOnDrop(&done);
            open_loop_write(engine, events, rate)
        });
        let write = writer.join().expect("writer thread panicked");
        let read = reader.join().expect("reader thread panicked");
        (write, read)
    })
}
