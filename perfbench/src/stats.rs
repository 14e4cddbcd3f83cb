//! The benchmark's own arithmetic: percentiles, per-request ratios, span
//! self time. Kept free of any program type so it can be unit-tested
//! alone.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of percentile `p` (0 < p <= 1) in `n` sorted
/// samples, or `None` when fewer than [`MIN_BEYOND`] samples lie beyond
/// it — a tail that thin is one outlier, not a percentile.
pub fn percentile_index(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    // Nearest rank; the product is rounded first so that a float error
    // just above an integer does not push the rank up by one.
    let rank = ((p * n as f64 * 1e9).round() / 1e9).ceil() as usize;
    let idx = rank.clamp(1, n) - 1;
    (n - 1 - idx >= MIN_BEYOND).then_some(idx)
}

/// Percentile `p` of `samples` (sorted in place). Infinite samples — a
/// request that failed or never completed — sort last, so they count as
/// over any limit.
pub fn percentile(samples: &mut [f64], p: f64) -> Option<f64> {
    samples.sort_by(f64::total_cmp);
    percentile_index(samples.len(), p).map(|i| samples[i])
}

/// Median (nearest-rank) of `samples`; needs no tail beyond it beyond
/// what a non-empty sample gives.
pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    samples[(samples.len() - 1) / 2]
}

/// `count / base`, zero when the base is zero (a layer that did no work
/// in the window).
pub fn per(count: u64, base: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        count as f64 / base as f64
    }
}

/// Self time of a span `[start, end)`: its duration minus the part of
/// it that the union of its child spans covers. Children may overlap
/// each other and stick out of the parent; only the covered part of the
/// parent's own interval is subtracted.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    end.saturating_sub(start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990 -> index 989, ten samples beyond.
        assert_eq!(percentile_index(1000, 0.99), Some(989));
        // 999 samples: rank 990 -> index 989, only nine beyond.
        assert_eq!(percentile_index(999, 0.99), None);
        assert_eq!(percentile_index(0, 0.5), None);
        // The median of 20 samples is the 10th, ten beyond it; of 19, the
        // 10th with nine beyond.
        assert_eq!(percentile_index(20, 0.5), Some(9));
        assert_eq!(percentile_index(19, 0.5), None);
    }

    #[test]
    fn failed_requests_sort_past_every_limit() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        for x in v.iter_mut().take(20) {
            *x = f64::INFINITY;
        }
        assert_eq!(percentile(&mut v, 0.99), Some(f64::INFINITY));
        assert_eq!(percentile(&mut v, 0.5), Some(520.0));
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn per_request_ratios() {
        assert_eq!(per(3000, 1000), 3.0);
        assert_eq!(per(5, 0), 0.0);
        assert_eq!(per(1, 4), 0.25);
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        assert_eq!(self_time(0, 100, &[]), 100);
        // Two disjoint children.
        assert_eq!(self_time(0, 100, &[(10, 20), (50, 70)]), 70);
        // Overlapping children are not subtracted twice.
        assert_eq!(self_time(0, 100, &[(10, 40), (30, 60)]), 50);
        // A child sticking out of the parent only counts inside it.
        assert_eq!(self_time(10, 100, &[(0, 30), (90, 200)]), 60);
        // A child outside the parent counts for nothing.
        assert_eq!(self_time(10, 20, &[(30, 40)]), 10);
        // Fully covered.
        assert_eq!(self_time(10, 20, &[(0, 40)]), 0);
    }
}
