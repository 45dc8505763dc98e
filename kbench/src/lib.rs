//! The kanon benchmark: batch anonymization and serve commits, end to
//! end and per layer. See `README.md` beside this crate for the
//! workloads, the metrics and how to read them.
//!
//! Each workload is one process. An untraced run (`--trace 0`) measures
//! the end-to-end metrics with no collector installed; a traced run
//! (`--trace 1`) times each layer from outside, by calling the public
//! functions of the kanon crates one at a time inside spans, and reads
//! the program's `kanon_obs` counters through a collector installed
//! around each call.

#![forbid(unsafe_code)]

pub mod batch;
pub mod machine;
pub mod release;
pub mod report;
pub mod serve;
pub mod trace;

use report::Outcome;
use std::path::Path;

/// End-to-end metrics `(name, unit)`, in report order. Every workload
/// reports each of them in an untraced run.
pub const END_TO_END: [(&str, &str); 9] = [
    ("wall_s", "s"),
    ("loss_em", "em"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
    ("batch_p50_ms", "ms"),
    ("batch_p95_ms", "ms"),
    ("ingest_rows_per_s", "rows/s"),
    ("read_p50_ms", "ms"),
    ("recover_s", "s"),
];

/// Per-layer metrics `(name, unit)`, in report order. Every workload
/// reports each of them in a traced run; a layer the workload does not
/// reach reads 0. `read_p95_ms`, the tail of `serve_art`'s reads, is
/// here, ungated: the tail of a ~1 ms read beside writes depends on
/// whether both CPUs are busy at that moment and moved by 3× from run to
/// run (see README.md).
pub const PER_LAYER: [(&str, &str); 59] = [
    ("read_p95_ms", "ms"),
    ("data.ingest_ms", "ms"),
    ("data.render_ms", "ms"),
    ("data.output_bytes", "bytes"),
    ("measures.cost_table_ms", "ms"),
    ("algos.k1_expansion_ms", "ms"),
    ("algos.one_k_ms", "ms"),
    ("algos.k1_rows_expanded", "count"),
    ("algos.one_k_upgrades", "count"),
    ("algos.join_table_hits", "count"),
    ("algos.signature_bytes_streamed", "bytes"),
    ("algos.pair_cost_evals", "count"),
    ("algos.sharded_ms", "ms"),
    ("algos.cluster_dist_evals", "count"),
    ("algos.nn_rescans", "count"),
    ("algos.cache_repairs", "count"),
    ("algos.merges_performed", "count"),
    ("algos.evals_per_merge", "ratio"),
    ("algos.mondrian_splits", "count"),
    ("algos.shards_built", "count"),
    ("algos.shard_rows_max", "rows"),
    ("algos.boundary_repairs", "count"),
    ("matching.global_1k_ms", "ms"),
    ("matching.hk_augmenting_passes", "count"),
    ("matching.scc_passes", "count"),
    ("matching.oracle_recomputes", "count"),
    ("matching.upgrade_steps", "count"),
    ("matching.deficient_records", "count"),
    ("verify.check_ms", "ms"),
    ("parallel.jobs", "count"),
    ("parallel.max_workers", "count"),
    ("parallel.pool_tasks_dispatched", "count"),
    ("parallel.pool_park_wakes", "count"),
    ("parallel.pool_threads_spawned", "count"),
    ("serve.parse_ms", "ms"),
    ("serve.journal_append_ms", "ms"),
    ("serve.apply_ms", "ms"),
    ("serve.render_loss_ms", "ms"),
    ("serve.render_csv_ms", "ms"),
    ("serve.unaccounted_ms", "ms"),
    ("serve.rows_ingested", "rows"),
    ("serve.rows_absorbed", "rows"),
    ("serve.rows_absorbed_eps", "rows"),
    ("serve.absorb_rate", "ratio"),
    ("serve.snapshot_ms", "ms"),
    ("serve.compact_ms", "ms"),
    ("serve.journal_bytes_written", "bytes"),
    ("serve.journal_bytes_compacted", "bytes"),
    ("serve.snapshot_bytes", "bytes"),
    ("serve.write_amp", "ratio"),
    ("serve.output_bytes", "bytes"),
    ("serve.bootstrap_ms", "ms"),
    ("serve.restore_ms", "ms"),
    ("serve.replay_ms", "ms"),
    ("trace_overhead_frac", "ratio"),
    ("trace_coverage_frac", "ratio"),
    ("machine.nproc", "count"),
    ("machine.threads", "count"),
    ("machine.parallelism", "ratio"),
];

/// The unit of a metric named in [`END_TO_END`] or [`PER_LAYER`].
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// The workloads, by the names `BENCHMARK.json` gives them.
#[derive(Debug, Clone)]
pub enum Workload {
    /// `global_art` or `sharded_adult`.
    Batch(batch::BatchParams),
    /// `serve_art`.
    Serve(serve::ServeParams),
}

impl Workload {
    /// The full-size workload named `name`; `seconds` sets the serve
    /// stream length.
    pub fn named(name: &str, seconds: u64) -> Option<Workload> {
        match name {
            "global_art" => Some(Workload::Batch(batch::BatchParams::global_art())),
            "sharded_adult" => Some(Workload::Batch(batch::BatchParams::sharded_adult())),
            "serve_art" => Some(Workload::Serve(serve::ServeParams::art(seconds))),
            _ => None,
        }
    }

    /// Runs the workload once, untraced or traced, working in `dir`,
    /// and keeps exactly the metrics of the matching list. A traced run
    /// also reports `machine`.
    pub fn run(
        &self,
        seed: u64,
        seconds: f64,
        traced: bool,
        machine: &machine::Machine,
        dir: &Path,
    ) -> Outcome {
        let mut outcome = match (self, traced) {
            (Workload::Batch(p), false) => batch::run(p, seed, seconds, dir),
            (Workload::Batch(p), true) => batch::run_traced(p, seed, dir),
            (Workload::Serve(p), false) => serve::run(p, seed, dir),
            (Workload::Serve(p), true) => serve::run_traced(p, seed, dir),
        };
        if traced {
            outcome.set("machine.nproc", machine.nproc as f64);
            outcome.set("machine.threads", machine.threads as f64);
            outcome.set("machine.parallelism", machine.parallelism);
            outcome.finish(&PER_LAYER, true);
        } else {
            outcome.finish(&END_TO_END, false);
        }
        outcome
    }
}
