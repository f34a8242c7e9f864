//! Order statistics and the tail-percentile rule.

/// Nearest-rank quantile of an ascending slice: the value at rank
/// `ceil(q · n)` (1-based). Returns 0 for an empty slice.
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    // The small epsilon keeps `0.95 × 200` at rank 190 despite rounding.
    let rank = ((q * sorted.len() as f64 - 1e-9).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples strictly beyond the nearest-rank `percentile` of `n` samples.
#[must_use]
pub fn samples_beyond(n: usize, percentile: u32) -> usize {
    if n == 0 {
        return 0;
    }
    n - (percentile as usize * n).div_ceil(100).clamp(1, n)
}

/// The tail percentile reported for a run of `expected_samples` latencies:
/// the highest whole percentile, at most 95 and at least 50, that leaves at
/// least ten samples beyond it. It is fixed from the *expected* run length,
/// so a faster program is judged at the same percentile as its parent.
#[must_use]
pub fn tail_percentile(expected_samples: usize) -> u32 {
    (50..=95)
        .rev()
        .find(|&p| samples_beyond(expected_samples, p) >= 10)
        .unwrap_or(50)
}

/// Sorts a copy of `values` ascending.
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `values` (nearest rank; 0 when empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// A tail quantile that a short stall of the host cannot decide: the
/// `(offset_s, value)` samples of a region `span_s` long are cut into
/// `windows` equal windows by offset, the nearest-rank `q`-quantile is taken
/// in each non-empty window, and the median of those is returned with the
/// per-window values. A stall of the whole host shows in the windows it
/// falls in and moves the median only once it covers half of them.
#[must_use]
pub fn windowed_quantile(
    samples: &[(f64, f64)],
    span_s: f64,
    windows: usize,
    q: f64,
) -> (f64, Vec<f64>) {
    let windows = windows.max(1);
    let mut cut = vec![Vec::new(); windows];
    for &(offset, value) in samples {
        let w = ((offset / span_s * windows as f64).floor().max(0.0) as usize).min(windows - 1);
        cut[w].push(value);
    }
    let per_window: Vec<f64> = cut
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| quantile(&sorted(w), q))
        .collect();
    (median(&per_window), per_window)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.95), 95.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn windowed_quantile_ignores_a_stall_in_one_window() {
        // Five 1 s windows of 100 samples each; the third holds a stall.
        let samples: Vec<(f64, f64)> = (0..500)
            .map(|i| {
                let offset = f64::from(i) / 100.0;
                let stalled = (2.0..3.0).contains(&offset);
                (
                    offset,
                    f64::from(i % 100) + if stalled { 1000.0 } else { 0.0 },
                )
            })
            .collect();
        let (value, per_window) = windowed_quantile(&samples, 5.0, 5, 0.95);
        assert_eq!(per_window, vec![94.0, 94.0, 1094.0, 94.0, 94.0]);
        assert_eq!(value, 94.0);
        // Taken over the whole region, the stall decides the tail.
        let pooled: Vec<f64> = samples.iter().map(|s| s.1).collect();
        assert_eq!(quantile(&sorted(&pooled), 0.95), 1074.0);
        // Offsets at or past the end land in the last window.
        let (_, edge) = windowed_quantile(&[(5.0, 1.0), (-0.1, 2.0)], 5.0, 5, 0.5);
        assert_eq!(edge, vec![2.0, 1.0]);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        for n in 20..5000 {
            let p = tail_percentile(n);
            assert!((50..=95).contains(&p));
            assert!(
                samples_beyond(n, p) >= 10,
                "n={n}: p{p} leaves {} beyond",
                samples_beyond(n, p)
            );
            // It is the highest such percentile.
            if p < 95 {
                assert!(samples_beyond(n, p + 1) < 10, "n={n}: p{} also fits", p + 1);
            }
        }
        assert_eq!(tail_percentile(200), 95);
        assert_eq!(tail_percentile(10_000), 95);
        assert_eq!(tail_percentile(100), 90);
    }
}
