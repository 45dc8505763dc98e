//! Self-tests of the benchmark at a tiny size: determinism, agreement
//! of traced and untraced runs, and the metric names of
//! `BENCHMARK.json`.

use kbench::batch::{BatchParams, Pipeline};
use kbench::machine::Machine;
use kbench::report::Outcome;
use kbench::serve::ServeParams;
use kbench::{Workload, END_TO_END, PER_LAYER};
use std::path::PathBuf;

fn tiny() -> [(&'static str, Workload); 3] {
    [
        (
            "global_art",
            Workload::Batch(BatchParams::tiny(Pipeline::GlobalArt)),
        ),
        (
            "sharded_adult",
            Workload::Batch(BatchParams::tiny(Pipeline::ShardedAdult)),
        ),
        ("serve_art", Workload::Serve(ServeParams::tiny())),
    ]
}

fn work_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the work directory");
    dir
}

fn run(name: &str, w: &Workload, traced: bool, tag: &str) -> Outcome {
    let dir = work_dir(&format!("{name}-{tag}"));
    let machine = Machine {
        nproc: 1,
        threads: 1,
        parallelism: 1.0,
    };
    let outcome = w.run(7, 0.0, traced, &machine, &dir);
    assert!(
        outcome.correct(),
        "{name} (traced: {traced}) failed:\n{}",
        outcome.human()
    );
    outcome
}

/// Per-layer metrics that are deterministic work counts: everything
/// but times, runtime pool data and the machine header.
fn counter_block(o: &Outcome) -> Vec<(&'static str, f64)> {
    o.metrics
        .iter()
        .filter(|m| matches!(m.unit, "count" | "bytes" | "rows"))
        .filter(|m| !m.name.starts_with("parallel.") && !m.name.starts_with("machine."))
        .map(|m| (m.name, m.value))
        .collect()
}

#[test]
fn two_runs_agree_on_loss_and_counters() {
    for (name, w) in tiny() {
        let a = run(name, &w, false, "a");
        let b = run(name, &w, false, "b");
        assert_eq!(
            a.get("loss_em"),
            b.get("loss_em"),
            "{name}: loss_em differs"
        );
        assert!(a.get("loss_em").is_some_and(|l| l > 0.0), "{name}: no loss");
        let ta = run(name, &w, true, "ta");
        let tb = run(name, &w, true, "tb");
        assert_eq!(
            counter_block(&ta),
            counter_block(&tb),
            "{name}: counters differ"
        );
    }
}

#[test]
fn traced_runs_check_their_outputs_against_untraced_ones() {
    // A traced batch run fails unless every traced repetition renders
    // the bytes of the untraced ones; a traced serve run fails unless
    // the traced mirror, the untraced mirror and the daemon publish the
    // same release. `run` asserts the outcome is correct.
    for (name, w) in tiny() {
        let o = run(name, &w, true, "cmp");
        assert!(o.attempted >= 2, "{name}: nothing compared");
        let coverage = o.get("trace_coverage_frac").expect("coverage");
        assert!(coverage >= 0.95, "{name}: spans cover only {coverage}");
    }
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn listed(json: &str, list: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{list}\"")).expect("list present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list closed")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry
            .find(&format!("\"{key}\": \""))
            .expect("field present")
            + key.len()
            + 5;
        entry[at..].split('"').next().expect("quoted").to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

#[test]
fn every_listed_metric_is_printed_once_with_its_unit() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let as_owned = |l: &[(&str, &str)]| -> Vec<(String, String)> {
        l.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed(&json, "end_to_end"), as_owned(&END_TO_END));
    assert_eq!(listed(&json, "per_layer"), as_owned(&PER_LAYER));
    for (name, w) in tiny() {
        for (traced, list) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let o = run(name, &w, traced, "names");
            let human = o.human();
            let result = o.json();
            for &(metric, unit) in list {
                let lines: Vec<&str> = human
                    .lines()
                    .filter(|l| l.split_whitespace().next() == Some(metric))
                    .collect();
                assert_eq!(
                    lines.len(),
                    1,
                    "{name}: {metric} printed {} times",
                    lines.len()
                );
                assert_eq!(
                    lines[0].split_whitespace().nth(2),
                    Some(unit),
                    "{name}: {metric}"
                );
                let key = format!("\"{metric}\": {{\"value\": ");
                assert_eq!(
                    result.matches(&key).count(),
                    1,
                    "{name}: {metric} in the result"
                );
                assert!(result.contains(&format!("\"unit\": \"{unit}\"")));
            }
            assert_eq!(o.metrics.len(), list.len(), "{name}: extra metrics");
        }
    }
}
