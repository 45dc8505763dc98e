//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start, an end and the span that was open when
//! it began. Spans stay in memory until [`Tracer::to_json`] writes them
//! out. Every call made through [`Tracer::call`] also runs with the
//! tracer's `kanon_obs` collector installed, so the program's own work
//! counters land beside the spans.

use crate::report::Outcome;
use kanon_obs::{Collector, Report};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed or open span. Times are nanoseconds since the tracer's
/// creation.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: u64,
    end: Option<u64>,
    parent: Option<usize>,
}

/// An in-memory span recorder plus the collector installed around every
/// traced call. A disabled tracer records nothing and installs nothing,
/// so the same code runs untraced.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    collector: Collector,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer with a fresh collector.
    pub fn new() -> Tracer {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            collector: Collector::new(),
        }
    }

    /// A tracer that records nothing and installs no collector.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: None,
            parent,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now();
        let idx = self.open.pop().expect("Tracer::end without an open span");
        self.spans[idx].end = Some(end);
    }

    /// Runs `f` inside a span named `name`, with the collector
    /// installed.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let collector = self.collector.clone();
        self.call_in(name, &collector, f)
    }

    /// Runs `f` inside a span named `name` with a throwaway collector
    /// installed: for work whose counters another call already counts.
    pub fn call_scratch<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.call_in(name, &Collector::new(), f)
    }

    fn call_in<T>(&mut self, name: &'static str, c: &Collector, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        self.begin(name);
        let out = {
            let _guard = c.install();
            f()
        };
        self.end();
        out
    }

    fn duration(&self, s: &Span) -> u64 {
        s.end.unwrap_or(s.start) - s.start
    }

    /// Durations in milliseconds of every closed span named `name`, in
    /// the order they were opened.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end.is_some())
            .map(|s| self.duration(s) as f64 / 1e6)
            .collect()
    }

    /// Total self time in milliseconds of the spans named `name`: each
    /// span's duration minus the part its direct children cover.
    pub fn self_ms(&self, name: &str) -> f64 {
        let mut total: i128 = 0;
        for (i, s) in self.spans.iter().enumerate() {
            if s.name != name {
                continue;
            }
            total += self.duration(s) as i128;
            for c in self.spans.iter().filter(|c| c.parent == Some(i)) {
                total -= self.duration(c) as i128;
            }
        }
        total as f64 / 1e6
    }

    /// Total duration in milliseconds of the spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// The counters the program recorded during traced calls.
    pub fn report(&self) -> Report {
        self.collector.report()
    }

    /// Sets the counter metrics of every traced run from the collector.
    pub fn set_counters(&self, outcome: &mut Outcome) {
        use kanon_obs::{Counter as C, RuntimeCounter as R};
        let r = self.report();
        let c = |x: C| r.counter(x) as f64;
        let pairs = [
            ("algos.k1_rows_expanded", C::K1RowsExpanded),
            ("algos.one_k_upgrades", C::OneKUpgrades),
            ("algos.join_table_hits", C::JoinTableHits),
            ("algos.signature_bytes_streamed", C::SignatureBytesStreamed),
            ("algos.pair_cost_evals", C::PairCostEvals),
            ("algos.cluster_dist_evals", C::ClusterDistEvals),
            ("algos.nn_rescans", C::NnRescans),
            ("algos.cache_repairs", C::CacheRepairs),
            ("algos.merges_performed", C::MergesPerformed),
            ("algos.mondrian_splits", C::MondrianSplits),
            ("algos.shards_built", C::ShardsBuilt),
            ("algos.shard_rows_max", C::ShardRowsMax),
            ("algos.boundary_repairs", C::BoundaryRepairs),
            ("matching.hk_augmenting_passes", C::HkAugmentingPasses),
            ("matching.scc_passes", C::SccPasses),
            ("matching.oracle_recomputes", C::OracleRecomputes),
            ("matching.upgrade_steps", C::UpgradeSteps),
            ("matching.deficient_records", C::DeficientRecords),
        ];
        for (name, counter) in pairs {
            outcome.set(name, c(counter));
        }
        let merges = c(C::MergesPerformed);
        let per_merge = if merges > 0.0 {
            c(C::ClusterDistEvals) / merges
        } else {
            0.0
        };
        outcome.set("algos.evals_per_merge", per_merge);
        outcome.set("parallel.jobs", r.parallel_jobs as f64);
        outcome.set("parallel.max_workers", r.max_workers as f64);
        let runtime = [
            ("parallel.pool_tasks_dispatched", R::PoolTasksDispatched),
            ("parallel.pool_park_wakes", R::PoolParkWakes),
            ("parallel.pool_threads_spawned", R::PoolThreadsSpawned),
        ];
        for (name, counter) in runtime {
            outcome.set(name, r.runtime_counter(counter) as f64);
        }
    }

    /// Writes the spans to `spans.json` in `dir`.
    pub fn write_spans(&self, dir: &Path, outcome: &mut Outcome) {
        let path = dir.join("spans.json");
        if let Err(e) = std::fs::write(&path, self.to_json()) {
            outcome.fail(format!("writing spans to {}: {e}", path.display()));
        }
    }

    /// Every span as a JSON array of `{name, start_ns, end_ns, parent}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name,
                s.start,
                s.end.unwrap_or(s.start)
            );
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.begin("outer");
        t.call("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        t.end();
        let outer = t.total_ms("outer");
        let inner = t.total_ms("inner");
        assert!(inner >= 20.0);
        assert!((t.self_ms("outer") - (outer - inner)).abs() < 1e-6);
        assert!(t.to_json().contains("\"name\":\"inner\""));
    }
}
