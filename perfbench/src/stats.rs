//! Small numeric and formatting helpers shared by the workloads.

use std::fmt::Write as _;
use std::time::Duration;

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank quantile of an already sorted sample.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Seconds as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// FNV-1a over `bytes`, as 16 hex digits: the digest format recorded in
/// `expected.json`.
pub fn digest(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// SplitMix64: the benchmark's own input generator, so request streams
/// depend only on `--seed` and the request index.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// `host` (wall clock of the machine the run is on), `count`, or `ratio`.
    pub clock: &'static str,
    /// How many samples the value summarises.
    pub samples: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Self {
        let clock = match unit {
            "count" | "ratio" => unit,
            _ => "host",
        };
        Self {
            name: name.into(),
            value,
            unit,
            clock,
            samples,
        }
    }
}

/// The last stdout line: the result object the benchmark contract reads.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// A JSON number with every digit the measurement has.
fn json_number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v:?}")
    }
}
