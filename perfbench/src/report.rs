//! Result plumbing: the metric map every workload fills, order
//! statistics, and the one-line JSON result the benchmark ends with.

use std::time::{Duration, Instant};

/// Named metrics in insertion order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.entries.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Operations attempted and failed, with the reason for each failure.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Outcome {
    /// Counts `n` operations, failing all of them with `problem` unless
    /// it is `None`.
    pub fn record(&mut self, n: u64, problem: Option<String>) {
        self.attempted += n;
        if let Some(p) = problem {
            self.failed += n;
            if self.problems.len() < 20 {
                self.problems.push(p);
            }
        }
    }

    pub fn merge(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.problems.truncate(20);
    }

    /// The result line: `correct` holds when nothing failed.
    pub fn result_json(&self, metrics: &Metrics) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.json()
        )
    }
}

/// Nearest-rank percentile (`q` in `0..=1`) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Wall time of `f`, in seconds.
pub fn secs(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// Set-up samples are taken before every unit of work rather than all up
/// front, so their median spans the whole run and a burst of load from
/// elsewhere on the machine cannot move it alone.
///
/// How many fixed work units of `nominal` seconds (measured on the
/// reference 2-core container) make a run of about `seconds`: at least
/// one. Runs are sized in whole units, not stopped by the clock, so the
/// same seed always does the same work and a slow moment stretches the
/// run instead of changing its inputs.
pub fn units(seconds: f64, nominal: f64) -> u64 {
    ((seconds / nominal).round() as u64).max(1)
}

pub fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

/// `part / whole` for counters, 0 when the base is empty.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Splitmix-style two-input mix for deriving per-campaign seeds and
/// order-independent digest folds.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&[3.0], 0.9), 3.0);
    }

    #[test]
    fn result_line_is_flat_json() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.5, "s");
        let mut o = Outcome::default();
        o.record(3, None);
        assert_eq!(
            o.result_json(&m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
