//! Process and thread figures read from `/proc`: scheduler time per
//! thread, context switches, peak resident memory.

use std::fs;

/// Scheduler times of the calling thread, from `/proc/thread-self/schedstat`.
#[derive(Debug, Clone, Copy, Default)]
struct SchedTimes {
    /// Time on a CPU, ns.
    oncpu_ns: u64,
    /// Time runnable but waiting for a CPU, ns.
    runq_ns: u64,
}

impl SchedTimes {
    /// The calling thread's times (zeros when the file is unreadable).
    fn now() -> SchedTimes {
        let text = fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
        let mut it = text
            .split_whitespace()
            .map(|f| f.parse::<u64>().unwrap_or(0));
        SchedTimes {
            oncpu_ns: it.next().unwrap_or(0),
            runq_ns: it.next().unwrap_or(0),
        }
    }
}

/// How one thread spent a phase: on a CPU, queued for one, or blocked
/// (sleeping, waiting on a lock or on I/O) for the rest of its wall time.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadTimes {
    /// On-CPU time, ms.
    pub oncpu_ms: f64,
    /// Runqueue wait, ms.
    pub runq_ms: f64,
    /// Wall time minus on-CPU time minus runqueue wait, ms.
    pub blocked_ms: f64,
}

/// Measures the calling thread from construction to [`ThreadClock::stop`].
pub struct ThreadClock {
    start: SchedTimes,
    wall: std::time::Instant,
}

impl ThreadClock {
    /// Starts measuring the calling thread.
    pub fn start() -> ThreadClock {
        ThreadClock {
            start: SchedTimes::now(),
            wall: std::time::Instant::now(),
        }
    }

    /// The calling thread's split since [`ThreadClock::start`]; call it on
    /// the same thread.
    pub fn stop(&self) -> ThreadTimes {
        let end = SchedTimes::now();
        let wall_ms = self.wall.elapsed().as_secs_f64() * 1e3;
        let oncpu_ms = end.oncpu_ns.saturating_sub(self.start.oncpu_ns) as f64 / 1e6;
        let runq_ms = end.runq_ns.saturating_sub(self.start.runq_ns) as f64 / 1e6;
        ThreadTimes {
            oncpu_ms,
            runq_ms,
            blocked_ms: (wall_ms - oncpu_ms - runq_ms).max(0.0),
        }
    }
}

fn status_field(text: &str, key: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Voluntary and involuntary context switches.
#[derive(Debug, Clone, Copy, Default)]
pub struct CtxSwitches {
    /// Switches where the thread gave up the CPU (blocked or slept).
    pub voluntary: u64,
    /// Switches where the scheduler took the CPU away.
    pub involuntary: u64,
}

impl CtxSwitches {
    fn parse(text: &str) -> CtxSwitches {
        CtxSwitches {
            voluntary: status_field(text, "voluntary_ctxt_switches:"),
            involuntary: status_field(text, "nonvoluntary_ctxt_switches:"),
        }
    }

    /// The calling thread's counts.
    pub fn thread() -> CtxSwitches {
        CtxSwitches::parse(&fs::read_to_string("/proc/thread-self/status").unwrap_or_default())
    }

    /// Summed over the threads of this process alive now. Threads that exit
    /// in between are not seen: threads the benchmark spawns for a phase
    /// count their own switches with [`CtxSwitches::thread`].
    pub fn live_threads() -> CtxSwitches {
        let mut sum = CtxSwitches::default();
        let Ok(dir) = fs::read_dir("/proc/self/task") else {
            return sum;
        };
        for entry in dir.flatten() {
            let text = fs::read_to_string(entry.path().join("status")).unwrap_or_default();
            let c = CtxSwitches::parse(&text);
            sum.voluntary += c.voluntary;
            sum.involuntary += c.involuntary;
        }
        sum
    }

    /// `self - earlier`, per field.
    pub fn since(&self, earlier: &CtxSwitches) -> CtxSwitches {
        CtxSwitches {
            voluntary: self.voluntary.saturating_sub(earlier.voluntary),
            involuntary: self.involuntary.saturating_sub(earlier.involuntary),
        }
    }

    /// Field-wise sum.
    pub fn plus(&self, other: &CtxSwitches) -> CtxSwitches {
        CtxSwitches {
            voluntary: self.voluntary + other.voluntary,
            involuntary: self.involuntary + other.involuntary,
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let text = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&text, "VmHWM:") as f64 / 1024.0
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
