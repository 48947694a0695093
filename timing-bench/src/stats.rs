//! Percentiles, typed failure accounting and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Median of `values` (NaN-free); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some(0.5 * (sorted[n / 2 - 1] + sorted[n / 2])),
    }
}

/// The highest of the standard reporting percentiles that still has at least
/// ten samples above it, with its value: p99 needs 1000 samples, p90 needs
/// 100, p50 needs 20. `None` below 20 samples.
pub fn tail_percentile(values: &[f64]) -> Option<(u32, f64)> {
    const LADDER: [u32; 5] = [999, 990, 900, 750, 500];
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    LADDER.iter().find_map(|&permille| {
        // Nearest-rank index of the percentile; the samples strictly after it
        // are the ones beyond it.
        let rank = (permille as usize * n).div_ceil(1000).max(1);
        (n - rank >= 10).then(|| (permille / 10, sorted[rank - 1]))
    })
}

/// The nearest-rank percentile `p` (0–100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// Samples at least needed for a p90 with ten samples beyond it.
pub const P90_SAMPLES: usize = 100;

/// Whether `name` fits the metric-name grammar `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    name.chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Requests attempted and failed, with failures counted per error code
/// name (`EngineError` variant or `ServiceError` code). A request fails when
/// any of its stages fails; a failed request counts as missing every latency
/// limit.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub by_code: BTreeMap<String, u64>,
}

impl Tally {
    /// Records one request whose failed stages carried `codes`.
    pub fn record(&mut self, codes: &[&str]) {
        self.attempted += 1;
        if !codes.is_empty() {
            self.failed += 1;
        }
        for code in codes {
            *self.by_code.entry(code.to_string()).or_insert(0) += 1;
        }
    }

    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Latency of a request for percentile purposes: a failed request misses
/// every limit.
pub fn latency_sample(seconds: f64, ok: bool) -> f64 {
    if ok {
        seconds
    } else {
        f64::INFINITY
    }
}

/// Named metrics with units, kept in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(
            valid_metric_name(name),
            "metric name {name:?} breaks the grammar"
        );
        self.0.retain(|(n, _, _)| n != name);
        self.0.push((name.to_string(), value, unit));
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.0.iter()
    }

    /// The JSON result line, restricted to `names`.
    pub fn result_line(&self, correct: bool, tally: &Tally, names: &[&str]) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            tally.attempted, tally.failed
        );
        let mut first = true;
        for name in names {
            let (value, unit) = self
                .0
                .iter()
                .find(|(n, _, _)| n == name)
                .map(|(_, v, u)| (*v, *u))
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            // JSON has no infinities; a failed request's latency is reported
            // as the largest finite number (the run is marked incorrect).
            let value = if value.is_finite() { value } else { f64::MAX };
            let _ = write!(
                out,
                "{}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}",
                if first { "" } else { ", " }
            );
            first = false;
        }
        out.push_str("}}");
        out
    }
}

/// 64-bit FNV-1a over result bits: the workload's output digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, value: u64) {
        for b in value.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        let values = |n: usize| (1..=n).map(|v| v as f64).collect::<Vec<_>>();
        assert_eq!(tail_percentile(&values(19)), None);
        assert_eq!(tail_percentile(&values(20)), Some((50, 10.0)));
        assert_eq!(tail_percentile(&values(40)), Some((75, 30.0)));
        assert_eq!(tail_percentile(&values(99)), Some((75, 75.0)));
        assert_eq!(tail_percentile(&values(100)), Some((90, 90.0)));
        assert_eq!(tail_percentile(&values(999)), Some((90, 900.0)));
        assert_eq!(tail_percentile(&values(1000)), Some((99, 990.0)));
        // Ten samples beyond, whatever their values.
        let mut with_failures = values(100);
        with_failures[0] = f64::INFINITY;
        assert_eq!(tail_percentile(&with_failures), Some((90, 91.0)));
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 50.0), Some(3.0));
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 100.0), Some(5.0));
    }

    #[test]
    fn metric_names_follow_the_grammar() {
        for ok in [
            "stages_per_s",
            "charlib.rs_extract.us_p50",
            "trace.overhead_pct",
            "a-1",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".lead",
            "has space",
            "slash/name",
            "ünï",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "breaks the grammar")]
    fn metrics_reject_bad_names() {
        Metrics::default().put("bad name", 1.0, "s");
    }

    #[test]
    fn failed_share_counts_requests_and_codes() {
        let mut tally = Tally::default();
        assert_eq!(tally.failed_share(), 0.0);
        tally.record(&[]);
        tally.record(&["lint"]);
        tally.record(&["simulation", "upstream-failed"]);
        tally.record(&[]);
        assert_eq!(tally.attempted, 4);
        assert_eq!(tally.failed, 2);
        assert_eq!(tally.failed_share(), 0.5);
        assert_eq!(tally.by_code["upstream-failed"], 1);
        assert_eq!(latency_sample(0.2, false), f64::INFINITY);
        assert_eq!(latency_sample(0.2, true), 0.2);
    }

    #[test]
    fn result_line_has_exactly_the_named_metrics() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.5, "s");
        m.put("extra", 2.0, "count");
        m.put("latency_ms", f64::INFINITY, "ms");
        let mut tally = Tally::default();
        tally.record(&[]);
        let line = m.result_line(true, &tally, &["latency_ms", "setup_s"]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.7976931348623157e308, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
