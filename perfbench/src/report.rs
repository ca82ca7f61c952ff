//! Metric assembly: latency summaries, counter deltas, span aggregation and
//! the result line.

use std::collections::HashMap;
use std::fmt::Write as _;

use bitgraph::graph::GraphStats;
use micrograph_core::workload::QueryId;
use micrograph_pagestore::PoolStats;

use crate::setup::Probes;
use crate::trace::Span;

/// Nearest-rank percentile of `samples` (0 when empty).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Median of `values`, the mean of the middle two for an even count (0
/// when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Named metrics in insertion order, each with its unit.
#[derive(Default)]
pub struct Metrics {
    items: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Adds (or replaces) one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        // `+ 0.0` turns a -0.0 (the sum of no samples) into 0.
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        match self.items.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => *slot = (name, value, unit),
            None => self.items.push((name, value, unit)),
        }
    }

    /// One aligned `name value unit` line per metric.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.items {
            let _ = writeln!(out, "  {name:<44} {value:>16.6} {unit}");
        }
        out
    }

    /// The `metrics` object of the result line.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .items
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    quote(name),
                    quote(unit)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Engine counters summed over every probe: arbordb buffer pools and
/// indexes, the ArborQL plan cache, bitgraph navigation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Buffer-pool counters over all stores of all databases.
    pub pages: PoolStats,
    /// Property-index seeks.
    pub index_seeks: u64,
    /// Label-index scans.
    pub label_scans: u64,
    /// Plan-cache hits.
    pub plan_hits: u64,
    /// Plan-cache misses.
    pub plan_misses: u64,
    /// bitgraph navigation counters.
    pub bit: GraphStats,
}

impl Counters {
    /// Reads every probe now.
    pub fn read(probes: &Probes) -> Counters {
        let mut c = Counters::default();
        for db in &probes.dbs {
            let s = db.stats();
            c.pages.accesses += s.pages.accesses;
            c.pages.hits += s.pages.hits;
            c.pages.misses += s.pages.misses;
            c.pages.evictions += s.pages.evictions;
            c.pages.writebacks += s.pages.writebacks;
            c.index_seeks += s.index_seeks;
            c.label_scans += s.label_scans;
        }
        for arbor in &probes.arbors {
            let (hits, misses) = arbor.ql().cache_stats();
            c.plan_hits += hits;
            c.plan_misses += misses;
        }
        for bit in &probes.bits {
            let s = bit.graph().stats();
            c.bit.neighbors_calls += s.neighbors_calls;
            c.bit.explode_calls += s.explode_calls;
            c.bit.find_object_calls += s.find_object_calls;
            c.bit.select_indexed += s.select_indexed;
            c.bit.select_scans += s.select_scans;
            c.bit.values_read += s.values_read;
        }
        c
    }

    /// `self - earlier`, field by field.
    pub fn since(&self, e: &Counters) -> Counters {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        Counters {
            pages: PoolStats {
                accesses: d(self.pages.accesses, e.pages.accesses),
                hits: d(self.pages.hits, e.pages.hits),
                misses: d(self.pages.misses, e.pages.misses),
                evictions: d(self.pages.evictions, e.pages.evictions),
                writebacks: d(self.pages.writebacks, e.pages.writebacks),
            },
            index_seeks: d(self.index_seeks, e.index_seeks),
            label_scans: d(self.label_scans, e.label_scans),
            plan_hits: d(self.plan_hits, e.plan_hits),
            plan_misses: d(self.plan_misses, e.plan_misses),
            bit: GraphStats {
                neighbors_calls: d(self.bit.neighbors_calls, e.bit.neighbors_calls),
                explode_calls: d(self.bit.explode_calls, e.bit.explode_calls),
                find_object_calls: d(self.bit.find_object_calls, e.bit.find_object_calls),
                select_indexed: d(self.bit.select_indexed, e.bit.select_indexed),
                select_scans: d(self.bit.select_scans, e.bit.select_scans),
                values_read: d(self.bit.values_read, e.bit.values_read),
            },
        }
    }

    /// Field-wise sum.
    pub fn plus(&self, o: &Counters) -> Counters {
        Counters {
            pages: PoolStats {
                accesses: self.pages.accesses + o.pages.accesses,
                hits: self.pages.hits + o.pages.hits,
                misses: self.pages.misses + o.pages.misses,
                evictions: self.pages.evictions + o.pages.evictions,
                writebacks: self.pages.writebacks + o.pages.writebacks,
            },
            index_seeks: self.index_seeks + o.index_seeks,
            label_scans: self.label_scans + o.label_scans,
            plan_hits: self.plan_hits + o.plan_hits,
            plan_misses: self.plan_misses + o.plan_misses,
            bit: GraphStats {
                neighbors_calls: self.bit.neighbors_calls + o.bit.neighbors_calls,
                explode_calls: self.bit.explode_calls + o.bit.explode_calls,
                find_object_calls: self.bit.find_object_calls + o.bit.find_object_calls,
                select_indexed: self.bit.select_indexed + o.bit.select_indexed,
                select_scans: self.bit.select_scans + o.bit.select_scans,
                values_read: self.bit.values_read + o.bit.values_read,
            },
        }
    }
}

/// Spans of one backend, folded into per-layer figures.
#[derive(Debug, Default)]
pub struct SpanAgg {
    /// Trait-boundary duration per query request, ms.
    pub query_ms: HashMap<QueryId, Vec<f64>>,
    /// Query requests seen at the trait boundary.
    pub requests: u64,
    /// Rows those requests returned.
    pub rows: u64,
    /// Scatter legs inside query requests.
    pub legs: u64,
    /// Duration per leg, ms.
    pub leg_ms: Vec<f64>,
    /// Request time not covered by any of its legs, summed, ms.
    pub merge_self_ms: f64,
    /// Write calls (`apply_event*`) at the trait boundary.
    pub commits: u64,
    /// Events those calls carried.
    pub commit_events: u64,
    /// Time in those calls, ms.
    pub commit_ms: f64,
}

impl SpanAgg {
    /// Folds in the spans of `backend` (outer layer) and the `"leg"` spans
    /// recorded while they ran. Legs run on pool threads, so each is
    /// assigned to the request whose interval contains it; that holds when
    /// one client sends requests at a time.
    pub fn absorb(&mut self, backend: &str, spans: &[Span]) {
        let mut requests: Vec<&Span> = Vec::new();
        let mut legs: Vec<&Span> = spans.iter().filter(|s| s.layer == "leg").collect();
        for s in spans.iter().filter(|s| s.layer == backend) {
            if s.method.is_write() {
                self.commits += 1;
                self.commit_events += s.events;
                self.commit_ms += s.ms();
            } else if let Some(q) = s.method.query() {
                self.query_ms.entry(q).or_default().push(s.ms());
                self.requests += 1;
                self.rows += s.rows;
                requests.push(s);
            }
        }
        if legs.is_empty() {
            return;
        }
        requests.sort_by_key(|s| s.start_ns);
        legs.sort_by_key(|s| s.start_ns);
        let mut first = 0;
        for req in requests {
            while first < legs.len() && legs[first].start_ns < req.start_ns {
                first += 1;
            }
            let mut covered = 0u64;
            let mut reach = req.start_ns;
            for leg in legs[first..]
                .iter()
                .take_while(|l| l.start_ns <= req.end_ns)
            {
                if leg.end_ns > req.end_ns {
                    continue;
                }
                self.legs += 1;
                self.leg_ms.push(leg.ms());
                let from = leg.start_ns.max(reach);
                if leg.end_ns > from {
                    covered += leg.end_ns - from;
                    reach = leg.end_ns;
                }
            }
            self.merge_self_ms += (req.end_ns - req.start_ns).saturating_sub(covered) as f64 / 1e6;
        }
    }
}
