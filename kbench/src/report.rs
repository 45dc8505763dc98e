//! Metric values, the percentile rule, and the result line.

use std::fmt::Write as _;

/// One named, measured value with its unit and an optional human note
/// (sample count, which percentile was taken).
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Shown beside the value in the human-readable report.
    pub note: String,
}

/// What one run did: operations attempted and failed, the reasons of
/// the failures, and the metrics it measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (repetitions, requests, checks).
    pub attempted: u64,
    /// Reasons of failed operations; its length is the failure count.
    pub failures: Vec<String>,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Counts one operation, failed with `why` unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(why());
        }
    }

    /// Counts one operation, failed with the error of `r` if any.
    pub fn check_ok<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failures.push(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Counts one operation that failed with `why`.
    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failures.push(why);
    }

    /// Records the metric `name`, whose unit comes from the metric
    /// tables of the crate root.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.set_noted(name, value, String::new());
    }

    /// [`set`](Self::set) with a note shown beside the value.
    pub fn set_noted(&mut self, name: &'static str, value: f64, note: String) {
        let unit = crate::unit_of(name).unwrap_or_else(|| panic!("metric {name} has no unit"));
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note,
        });
    }

    /// Keeps exactly the metrics of `list`, in its order. A metric the
    /// run did not set reads 0 when `zero_fill` (a layer the workload
    /// does not reach) and is a failure otherwise.
    pub fn finish(&mut self, list: &[(&'static str, &'static str)], zero_fill: bool) {
        let mut kept = Vec::with_capacity(list.len());
        for &(name, unit) in list {
            match self.metrics.iter().position(|m| m.name == name) {
                Some(i) => kept.push(self.metrics.swap_remove(i)),
                None if zero_fill => kept.push(Metric {
                    name,
                    value: 0.0,
                    unit,
                    note: "layer not reached".to_string(),
                }),
                None => {
                    self.fail(format!("metric {name} was not measured"));
                }
            }
        }
        self.metrics = kept;
        self.finite_or_fail();
    }

    /// The metric named `name`, if measured.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// True when nothing failed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The human-readable lines: one per metric, then one per failure.
    pub fn human(&self) -> String {
        let width = self.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
        let mut out = String::new();
        for m in &self.metrics {
            let _ = write!(out, "{:width$}  {} {}", m.name, m.value, m.unit);
            if !m.note.is_empty() {
                let _ = write!(out, "  ({})", m.note);
            }
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "failed_frac  {} ratio  ({} of {} operations)",
            self.failed_frac(),
            self.failures.len(),
            self.attempted
        );
        for f in &self.failures {
            let _ = writeln!(out, "FAILED: {f}");
        }
        out
    }

    /// Failed operations divided by attempted ones.
    pub fn failed_frac(&self) -> f64 {
        self.failures.len() as f64 / self.attempted.max(1) as f64
    }

    /// The single-line JSON result the benchmark ends its output with.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failures.len()
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // Non-finite values are not JSON; they only arise from a
            // broken measurement, which `finite_or_fail` reports.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, v, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Records a failure for every metric whose value is not finite.
    fn finite_or_fail(&mut self) {
        let bad: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| format!("metric {} is not finite", m.name))
            .collect();
        for why in bad {
            self.fail(why);
        }
    }
}

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The tail of `xs` by the benchmark's percentile rule: the highest
/// percentile that has at least ten samples beyond it (nearest rank),
/// or the maximum when there are ten samples or fewer. Returns the value
/// and a note naming the percentile taken and the sample count.
pub fn tail(xs: &[f64]) -> (f64, String) {
    let n = xs.len();
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if n > 10 {
        let p = 100.0 * (n - 10) as f64 / n as f64;
        (v[n - 11], format!("p{p:.1} of {n} samples"))
    } else {
        (
            v.last().copied().unwrap_or(0.0),
            format!("max of {n} samples; no percentile has 10 beyond it"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let (v, note) = tail(&xs);
        assert_eq!(v, 190.0);
        assert_eq!(note, "p95.0 of 200 samples");
        assert_eq!(tail(&[1.0, 5.0, 2.0]).0, 5.0);
    }

    #[test]
    fn json_line_has_the_four_keys() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        o.set("wall_s", 1.25);
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
