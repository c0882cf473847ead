//! The benchmark's own arithmetic: percentiles and the rule for which one
//! a sample supports, ratios with explicit bases, SLO attainment, and the
//! merge of per-node queue-delay histograms.

use medusa_telemetry::{bucket_bounds_us, HistogramSnapshot, FINITE_BUCKETS};

/// Percentiles a timing may be reported at, highest first.
pub const PERCENTILE_LADDER: [f64; 4] = [0.999, 0.99, 0.9, 0.5];

/// Samples that must lie beyond a percentile before it is reported.
pub const SAMPLES_BEYOND: usize = 10;

/// The highest percentile of [`PERCENTILE_LADDER`] with at least
/// [`SAMPLES_BEYOND`] of `n` samples beyond it, or `None` when even the
/// median is unsupported.
pub fn supported_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .into_iter()
        .find(|&q| beyond(n, q) >= SAMPLES_BEYOND)
}

/// Samples strictly beyond the nearest-rank `q` quantile of `n` samples.
fn beyond(n: usize, q: f64) -> usize {
    n.saturating_sub(nearest_rank(n, q))
}

/// 1-based nearest rank of quantile `q` over `n` samples: `ceil(q · n)`,
/// clamped to `1..=n`. Computed in integer per-mille-of-per-mille steps so
/// `0.99 · 1000` lands on exactly 990.
fn nearest_rank(n: usize, q: f64) -> usize {
    let q_ppm = (q * 1_000_000.0).round() as u128;
    let rank = (q_ppm * n as u128).div_ceil(1_000_000) as usize;
    rank.clamp(1, n.max(1))
}

/// Nearest-rank quantile of `sorted` (ascending). Panics on an empty
/// slice: every caller reports a sample count it has already checked.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    sorted[nearest_rank(sorted.len(), q) - 1]
}

/// Median of `values` (nearest rank; sorts in place).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(values, 0.5)
}

/// `part / base`, or 0 when the base is empty. Every ratio the benchmark
/// prints names its base in the metric catalogue.
pub fn ratio(part: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        part / base
    }
}

/// Share of `offered` requests whose TTFT is at most `limit_s`. Only
/// requests that produced a first token have a sample; everything else
/// offered (unfinished, dropped) counts as a miss.
pub fn slo_attainment(ttfts_s: &[f64], offered: usize, limit_s: f64) -> f64 {
    let met = ttfts_s.iter().filter(|&&t| t <= limit_s).count();
    ratio(met as f64, offered as f64)
}

/// Sums per-node histograms bucket by bucket into one fleet histogram.
pub fn merge_histograms<'a>(hists: impl IntoIterator<Item = &'a HistogramSnapshot>) -> Histogram {
    let mut merged = Histogram::default();
    for h in hists {
        for (m, c) in merged.counts.iter_mut().zip(h.counts.iter()) {
            *m += c;
        }
        merged.count += h.count;
    }
    merged
}

/// A merged log-bucket histogram (the telemetry crate's 1-2-5 series).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket counts; the last entry is the overflow bucket.
    pub counts: [u64; FINITE_BUCKETS + 1],
    /// Total observations.
    pub count: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; FINITE_BUCKETS + 1],
            count: 0,
        }
    }
}

impl Histogram {
    /// Upper bound, in µs, of the bucket holding the nearest-rank `q`
    /// quantile; `None` when empty or when the quantile falls in the
    /// overflow bucket (which has no finite bound).
    pub fn quantile_us(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = nearest_rank(self.count as usize, q) as u64;
        let mut seen = 0u64;
        let bounds = bucket_bounds_us();
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bounds.get(i).copied();
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(0), None);
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(0.5));
        assert_eq!(supported_percentile(99), Some(0.5));
        assert_eq!(supported_percentile(100), Some(0.9));
        assert_eq!(supported_percentile(999), Some(0.9));
        assert_eq!(supported_percentile(1000), Some(0.99));
        assert_eq!(supported_percentile(9999), Some(0.99));
        assert_eq!(supported_percentile(10_000), Some(0.999));
        assert_eq!(supported_percentile(1_000_000), Some(0.999));
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 500.0);
        assert_eq!(quantile(&v, 0.99), 990.0);
        assert_eq!(quantile(&v, 1.0), 1000.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        let mut odd = vec![3.0, 1.0, 2.0];
        assert_eq!(median(&mut odd), 2.0);
    }

    #[test]
    fn slo_attainment_counts_unfinished_as_misses() {
        // Four of ten offered requests produced a first token; three of
        // those met the limit. The six without a sample are misses.
        let ttfts = [0.1, 0.2, 0.3, 5.0];
        assert_eq!(slo_attainment(&ttfts, 10, 0.5), 0.3);
        assert_eq!(slo_attainment(&ttfts, 4, 0.5), 0.75);
        // The limit itself is met.
        assert_eq!(slo_attainment(&ttfts, 4, 0.3), 0.75);
        assert_eq!(slo_attainment(&[], 0, 1.0), 0.0);
    }

    #[test]
    fn ratios_use_their_stated_base() {
        // fail_ratio: failed ÷ attempted.
        assert_eq!(ratio(3.0, 12.0), 0.25);
        // cache hit ratio: hits ÷ (hits + misses).
        assert_eq!(ratio(6.0, 6.0 + 2.0), 0.75);
        // An empty base reports 0, never NaN.
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert!(!ratio(5.0, 0.0).is_nan());
    }

    fn hist(values_us: &[u64]) -> HistogramSnapshot {
        let reg = medusa_telemetry::Registry::new();
        for &v in values_us {
            reg.observe_us("h", v);
        }
        reg.snapshot()
            .histogram("h")
            .cloned()
            .unwrap_or(HistogramSnapshot {
                counts: [0; FINITE_BUCKETS + 1],
                sum: 0,
                count: 0,
            })
    }

    #[test]
    fn histogram_merge_sums_buckets_and_counts() {
        let a = hist(&[1, 3, 3, 40]);
        let b = hist(&[3, 900, 900]);
        let merged = merge_histograms([&a, &b]);
        assert_eq!(merged.count, 7);
        let whole = hist(&[1, 3, 3, 40, 3, 900, 900]);
        assert_eq!(merged.counts, whole.counts);
        // Ranks 1..=7 over buckets {1}, {5,5,5}, {50}, {1000,1000}.
        assert_eq!(merged.quantile_us(0.0), Some(1));
        assert_eq!(merged.quantile_us(0.5), Some(5));
        assert_eq!(merged.quantile_us(0.6), Some(50));
        assert_eq!(merged.quantile_us(0.99), Some(1000));
        assert_eq!(merge_histograms([]).quantile_us(0.5), None);
    }

    #[test]
    fn merged_quantile_matches_single_node_quantile() {
        let a = hist(&[10, 20, 30]);
        let empty = hist(&[]);
        let merged = merge_histograms([&a, &empty]);
        let alone = merge_histograms([&a]);
        assert_eq!(merged, alone);
    }
}
