//! Order statistics and process probes shared by every phase.

use divtopk_engine::LatencyHistogram;

/// Tail percentiles the benchmark reports, low to high. A sample set's
/// tail is the highest of these with at least [`TAIL_MIN_BEYOND`]
/// samples strictly above it, so a tail is never one lucky outlier.
const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];
/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Value at percentile `p` (0–100) of `sorted` by the nearest-rank rule.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// Mean of a sample (NaN when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The highest ladder percentile with ≥ [`TAIL_MIN_BEYOND`] samples
/// beyond it, and its value: `(percentile, value)`. Falls back to the
/// median when the sample is too small for any tail.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    let p = TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| (n as f64 * (1.0 - p / 100.0)).floor() as usize >= TAIL_MIN_BEYOND)
        .unwrap_or(50.0);
    (p, percentile(sorted, p))
}

/// Sorted copy of a sample.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quantile `q` of a server latency histogram in milliseconds, linearly
/// interpolated inside the histogram bucket that holds the rank (the
/// usual histogram-quantile estimate), instead of the bucket's upper
/// edge that `LatencyHistogram::quantile_ns` reports.
pub fn histogram_quantile_ms(h: &LatencyHistogram, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return f64::NAN;
    }
    // Upper edge of the bucket holding the i-th smallest sample (1-based).
    let at = |i: u64| h.quantile_ns((i as f64 - 0.5) / n as f64);
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    let upper = at(rank);
    let (mut lo, mut hi) = (1, rank);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if at(mid) >= upper {
            hi = mid
        } else {
            lo = mid + 1
        }
    }
    let first = lo;
    let (mut lo, mut hi) = (rank, n);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if at(mid) <= upper {
            lo = mid
        } else {
            hi = mid - 1
        }
    }
    let last = lo;
    // Bucket 0 covers (0, 1024] ns; above it each power-of-two octave is
    // split into eight equal buckets.
    let width = if upper <= LatencyHistogram::LINEAR_MAX_NS {
        upper
    } else {
        let base = 1u64 << (63 - (upper - 1).leading_zeros());
        base / LatencyHistogram::SUB_BUCKETS
    };
    let frac = (rank - first) as f64 + 0.5;
    let lower = (upper - width) as f64;
    (lower + width as f64 * frac / (last - first + 1) as f64) / 1e6
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Cumulative `(steal, total)` CPU time from `/proc/stat`, in ticks:
/// time the hypervisor ran something else while this machine's vCPUs
/// wanted to run. `None` where `/proc/stat` is unavailable.
pub fn cpu_steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Nanoseconds as milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}
