//! The batch workloads: one table in a CSV file on disk, anonymized,
//! verified and rendered back to CSV, repeated.
//!
//! * `global_art` — global (1,k)-anonymity of ART: Algorithm 4
//!   (`k1_expansion`), Algorithm 5 (`one_k_anonymize`), Algorithm 6
//!   (`global_1k_from_kk`, the matching layer) and its verification.
//!   Never touches the clustering engine, shards or serve.
//! * `sharded_adult` — sharded k-anonymity of an Adult-like table:
//!   shard partition, per-shard engine and boundary repair. Bypasses
//!   Algorithms 4–6.

use crate::release::{parse_generalized, same_loss};
use crate::report::{median, tail, Outcome};
use crate::trace::Tracer;
use kanon_algos::{
    global_1k_from_kk, k1_expansion, one_k_anonymize, try_global_1k_anonymize,
    try_sharded_k_anonymize, GlobalConfig, ShardConfig,
};
use kanon_core::{GeneralizedTable, SharedSchema, Table};
use kanon_data::csv::{generalized_to_csv, table_to_csv, RowPolicy};
use kanon_data::table_from_path_with_policy;
use kanon_measures::{EntropyMeasure, NodeCostTable};
use kanon_verify::{is_global_1k_anonymous, is_k_anonymous};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Which batch pipeline runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pipeline {
    /// Global (1,k)-anonymity of ART (Algorithms 4, 5, 6).
    GlobalArt,
    /// Sharded k-anonymity of an Adult-like table.
    ShardedAdult,
}

/// Size and parameters of a batch workload.
#[derive(Debug, Clone)]
pub struct BatchParams {
    /// The pipeline.
    pub pipeline: Pipeline,
    /// Rows in each input table.
    pub n: usize,
    /// The anonymity parameter.
    pub k: usize,
    /// Shard size cap (sharded pipeline only).
    pub shard_max: usize,
    /// Seconds one repetition takes on the reference machine: a run of
    /// `--seconds s` makes `s / rep_seconds` repetitions (at least
    /// `min_reps`), each on its own table.
    pub rep_seconds: f64,
    /// Fewest repetitions a run makes.
    pub min_reps: usize,
}

impl BatchParams {
    /// `global_art` at full size: ART, n = 4000, k = 10.
    pub fn global_art() -> BatchParams {
        BatchParams {
            pipeline: Pipeline::GlobalArt,
            n: 4000,
            k: 10,
            shard_max: 0,
            rep_seconds: 4.0,
            min_reps: 3,
        }
    }

    /// `sharded_adult` at full size: Adult-like, n = 20 000, k = 10,
    /// shards of at most 2000 rows.
    pub fn sharded_adult() -> BatchParams {
        BatchParams {
            pipeline: Pipeline::ShardedAdult,
            n: 20_000,
            k: 10,
            shard_max: 2000,
            rep_seconds: 2.5,
            min_reps: 3,
        }
    }

    /// A tiny instance of the same pipeline, for the self-tests.
    pub fn tiny(pipeline: Pipeline) -> BatchParams {
        BatchParams {
            pipeline,
            n: 300,
            k: 5,
            shard_max: 100,
            rep_seconds: 1.0,
            min_reps: 2,
        }
    }

    /// Repetitions of a run of `seconds`.
    pub fn reps(&self, seconds: f64) -> usize {
        ((seconds / self.rep_seconds).round() as usize).max(self.min_reps)
    }

    fn generate(&self, seed: u64) -> Table {
        match self.pipeline {
            Pipeline::GlobalArt => kanon_data::art::generate(self.n, seed),
            Pipeline::ShardedAdult => kanon_data::adult::generate(self.n, seed),
        }
    }
}

/// The seed of repetition `rep`'s table in a run with workload seed
/// `seed`. Each repetition anonymizes its own table, so a run's median
/// averages over inputs as well as over time.
fn table_seed(seed: u64, rep: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(rep as u64)
}

/// One input file.
struct Input {
    path: PathBuf,
    schema: SharedSchema,
}

impl Input {
    fn path(&self) -> &str {
        self.path.to_str().expect("the work directory is UTF-8")
    }
}

/// Generates each repetition's table and writes it as CSV; returns the
/// inputs and each set-up's seconds.
fn prepare(
    p: &BatchParams,
    seed: u64,
    reps: usize,
    dir: &Path,
) -> Result<(Vec<Input>, Vec<f64>), String> {
    let mut inputs = Vec::with_capacity(reps);
    let mut times = Vec::with_capacity(reps);
    for r in 0..reps {
        let path = dir.join(format!("input{r}.csv"));
        let t = Instant::now();
        let table = p.generate(table_seed(seed, r));
        std::fs::write(&path, table_to_csv(&table)).map_err(|e| e.to_string())?;
        times.push(t.elapsed().as_secs_f64());
        inputs.push(Input {
            path,
            schema: table.schema().clone(),
        });
    }
    Ok((inputs, times))
}

/// What one repetition produced.
struct Rep {
    csv: String,
    gtable: GeneralizedTable,
    loss: f64,
    /// The output passed its notion's `kanon-verify` check.
    verified: bool,
    /// Seconds from the file on disk to the verified CSV string.
    total_s: f64,
}

fn load(input: &Input) -> Result<(Table, NodeCostTable), String> {
    let (table, _) =
        table_from_path_with_policy(&input.schema, input.path(), true, RowPolicy::Strict)
            .map_err(|e| e.to_string())?;
    let costs = NodeCostTable::compute(&table, &EntropyMeasure);
    Ok((table, costs))
}

fn verify(p: &BatchParams, table: &Table, gtable: &GeneralizedTable) -> Result<bool, String> {
    match p.pipeline {
        Pipeline::GlobalArt => {
            is_global_1k_anonymous(table, gtable, p.k).map_err(|e| e.to_string())
        }
        Pipeline::ShardedAdult => Ok(is_k_anonymous(gtable, p.k)),
    }
}

/// One untraced repetition: each pipeline through its single public
/// entry point, no collector installed.
fn rep(p: &BatchParams, input: &Input) -> Result<Rep, String> {
    let t0 = Instant::now();
    let (table, costs) = load(input)?;
    let (gtable, loss) = match p.pipeline {
        Pipeline::GlobalArt => {
            let out = try_global_1k_anonymize(&table, &costs, &GlobalConfig::new(p.k))
                .map_err(|e| e.to_string())?;
            (out.table, out.loss)
        }
        Pipeline::ShardedAdult => {
            let cfg = ShardConfig::new(p.k).with_shard_max(p.shard_max);
            let out = try_sharded_k_anonymize(&table, &costs, &cfg)
                .map_err(|e| e.to_string())?
                .into_inner();
            (out.out.table, out.out.loss)
        }
    };
    let verified = verify(p, &table, &gtable)?;
    let csv = generalized_to_csv(&gtable);
    Ok(Rep {
        csv,
        gtable,
        loss,
        verified,
        total_s: t0.elapsed().as_secs_f64(),
    })
}

/// One traced repetition: the same work, one public function per span.
fn traced_rep(p: &BatchParams, input: &Input, t: &mut Tracer) -> Result<Rep, String> {
    let t0 = Instant::now();
    t.begin("rep");
    let (table, _) = t
        .call("data.ingest", || {
            table_from_path_with_policy(&input.schema, input.path(), true, RowPolicy::Strict)
        })
        .map_err(|e| e.to_string())?;
    let costs = t.call("measures.cost_table", || {
        NodeCostTable::compute(&table, &EntropyMeasure)
    });
    let (gtable, loss) = match p.pipeline {
        Pipeline::GlobalArt => {
            let k1 = t
                .call("algos.k1_expansion", || k1_expansion(&table, &costs, p.k))
                .map_err(|e| e.to_string())?;
            let kk = t
                .call("algos.one_k", || {
                    one_k_anonymize(&table, &k1.table, &costs, p.k)
                })
                .map_err(|e| e.to_string())?;
            let out = t
                .call("matching.global_1k", || {
                    global_1k_from_kk(&table, &kk.table, &costs, p.k)
                })
                .map_err(|e| e.to_string())?;
            (out.table, out.loss)
        }
        Pipeline::ShardedAdult => {
            let cfg = ShardConfig::new(p.k).with_shard_max(p.shard_max);
            let out = t
                .call("algos.sharded", || {
                    try_sharded_k_anonymize(&table, &costs, &cfg)
                })
                .map_err(|e| e.to_string())?
                .into_inner();
            (out.out.table, out.out.loss)
        }
    };
    let verified = t.call("verify.check", || verify(p, &table, &gtable))?;
    let csv = t.call("data.render", || generalized_to_csv(&gtable));
    t.end();
    Ok(Rep {
        csv,
        gtable,
        loss,
        verified,
        total_s: t0.elapsed().as_secs_f64(),
    })
}

/// Checks a repetition: its output passed the notion's check, and the
/// rendered release, parsed back as its consumer would, holds the very
/// generalized rows the check passed and has the loss the algorithm
/// reported.
fn gate(input: &Input, rep: &Rep) -> Result<(), String> {
    if !rep.verified {
        return Err("output fails its anonymity check".to_string());
    }
    let release = parse_generalized(&input.schema, &rep.csv)?;
    if release.rows() != rep.gtable.rows() {
        return Err("the parsed release differs from the checked output".to_string());
    }
    let (_, costs) = load(input)?;
    let recomputed = costs.table_loss(&release);
    if !same_loss(recomputed, rep.loss) {
        return Err(format!(
            "release loss {recomputed} differs from reported {}",
            rep.loss
        ));
    }
    Ok(())
}

/// The untraced run: one repetition per table.
///
/// The batch workloads have no readers beside the writer and no state
/// to restore, so the serve-shaped metrics report what a user of a
/// batch job sees: a reader of the release waits for the whole job
/// (`read_p50_ms`), and a job that crashed recovers by running again
/// from its input file (`recover_s`). Both are the median repetition,
/// like `wall_s` and `batch_p50_ms`.
pub fn run(p: &BatchParams, seed: u64, seconds: f64, dir: &Path) -> Outcome {
    let mut outcome = Outcome::default();
    let Some((inputs, setups)) = outcome.check_ok("set-up", prepare(p, seed, p.reps(seconds), dir))
    else {
        return outcome;
    };
    let mut reps: Vec<Rep> = Vec::new();
    for (i, input) in inputs.iter().enumerate() {
        let r = rep(p, input).and_then(|r| gate(input, &r).map(|()| r));
        let Some(r) = outcome.check_ok(&format!("repetition {}", i + 1), r) else {
            return outcome;
        };
        reps.push(r);
    }
    let n_reps = reps.len();
    let totals: Vec<f64> = reps.iter().map(|r| r.total_s).collect();
    let wall = median(&totals);
    let ms: Vec<f64> = totals.iter().map(|s| s * 1e3).collect();
    let (p95, p95_note) = tail(&ms);
    let of_reps = format!("median of {n_reps} tables");
    outcome.set_noted("wall_s", wall, of_reps.clone());
    outcome.set_noted(
        "loss_em",
        reps.iter().map(|r| r.loss).sum::<f64>() / n_reps as f64,
        format!("mean of {n_reps} tables"),
    );
    outcome.set_noted(
        "setup_s",
        median(&setups),
        format!("median of {} input generations", setups.len()),
    );
    outcome.set_noted("batch_p50_ms", wall * 1e3, of_reps.clone());
    outcome.set_noted("batch_p95_ms", p95, p95_note);
    outcome.set("ingest_rows_per_s", p.n as f64 / wall);
    outcome.set_noted(
        "read_p50_ms",
        wall * 1e3,
        format!("{of_reps}: the job time"),
    );
    outcome.set_noted("recover_s", wall, format!("{of_reps}: a re-run"));
    if let Some(rss) = crate::machine::peak_rss_mib() {
        outcome.set("peak_rss_mb", rss);
    }
    outcome
}

/// The traced run: two untraced and two traced repetitions on one
/// table, alternating, then the per-layer metrics of the last traced
/// one. Every repetition must render the first one's bytes.
pub fn run_traced(p: &BatchParams, seed: u64, dir: &Path) -> Outcome {
    let mut outcome = Outcome::default();
    let Some((inputs, _)) = outcome.check_ok("set-up", prepare(p, seed, 1, dir)) else {
        return outcome;
    };
    let input = &inputs[0];
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut tracer = Tracer::new();
    let mut first: Option<String> = None;
    for i in 0..4 {
        let r = if i % 2 == 0 {
            rep(p, input)
        } else {
            tracer = Tracer::new();
            traced_rep(p, input, &mut tracer)
        };
        let checked = r.and_then(|r| {
            match &first {
                None => gate(input, &r)?,
                Some(f) if *f != r.csv => {
                    return Err("output differs from the first repetition's".to_string())
                }
                Some(_) => {}
            }
            Ok(r)
        });
        let Some(r) = outcome.check_ok(&format!("repetition {}", i + 1), checked) else {
            return outcome;
        };
        if i % 2 == 0 {
            untraced.push(r.total_s);
        } else {
            traced.push(r.total_s);
            outcome.set("data.output_bytes", r.csv.len() as f64);
        }
        first.get_or_insert(r.csv);
    }
    let layers = [
        ("data.ingest", "data.ingest_ms"),
        ("measures.cost_table", "measures.cost_table_ms"),
        ("algos.k1_expansion", "algos.k1_expansion_ms"),
        ("algos.one_k", "algos.one_k_ms"),
        ("matching.global_1k", "matching.global_1k_ms"),
        ("algos.sharded", "algos.sharded_ms"),
        ("verify.check", "verify.check_ms"),
        ("data.render", "data.render_ms"),
    ];
    let mut covered = 0.0;
    for (span, metric) in layers {
        let ms = tracer.self_ms(span);
        covered += ms;
        if !tracer.durations_ms(span).is_empty() {
            outcome.set(metric, ms);
        }
    }
    outcome.set("trace_coverage_frac", covered / tracer.total_ms("rep"));
    outcome.set(
        "trace_overhead_frac",
        median(&traced) / median(&untraced) - 1.0,
    );
    tracer.set_counters(&mut outcome);
    tracer.write_spans(dir, &mut outcome);
    outcome
}
