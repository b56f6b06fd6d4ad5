//! Order statistics, the median-of-segments rule and the FNV-64 digest.

/// `p`-th percentile (0..=100) of an ascending slice, nearest-rank.
/// Empty input reads 0 so a workload that took no sample of some kind
/// reports a number, not a panic.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Sort `samples` in place and read several percentiles at once.
pub fn percentiles<const N: usize>(samples: &mut [u64], ps: [f64; N]) -> [f64; N] {
    samples.sort_unstable();
    ps.map(|p| percentile_sorted(samples, p))
}

/// Median of an unsorted float slice (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The run value of a metric: the median over segments of the
/// per-segment statistic, skipping segments marked invalid. When every
/// segment is invalid the statistic is still reported (over all of them)
/// and the caller reports the invalid count beside it.
pub fn median_of_segments(per_segment: &[f64], valid: &[bool]) -> f64 {
    let kept: Vec<f64> =
        per_segment.iter().zip(valid).filter(|(_, &ok)| ok).map(|(&v, _)| v).collect();
    if kept.is_empty() {
        median(per_segment)
    } else {
        median(&kept)
    }
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method) — the rule the acceptance check and
/// `--repeat` share. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let (n, ld) = (4usize, v.len());
    let m = ld + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    })
}

/// Interquartile range as a share of the median — the "spread" the
/// bounds in `BENCHMARK.json` are sized against.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold one 64-bit word into a running FNV-1a digest.
pub fn fnv_fold(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        let [p50, p99, p100] = percentiles(&mut v, [50.0, 99.0, 100.0]);
        assert_eq!((p50, p99, p100), (50.0, 99.0, 100.0));
        assert_eq!(percentile_sorted(&[7], 99.9), 7.0);
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
        // Ten samples: p99 is the largest, p50 the fifth.
        let ten: Vec<u64> = (10..20).collect();
        assert_eq!(percentile_sorted(&ten, 99.0), 19.0);
        assert_eq!(percentile_sorted(&ten, 50.0), 14.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn median_of_segments_skips_invalid_ones() {
        let stats = [10.0, 11.0, 500.0, 12.0, 13.0];
        assert_eq!(median_of_segments(&stats, &[true; 5]), 12.0);
        assert_eq!(median_of_segments(&stats, &[true, true, false, true, true]), 11.5);
        // Nothing valid: still a number, over everything.
        assert_eq!(median_of_segments(&stats, &[false; 5]), 12.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[5.0, 7.0]), [4.5, 6.0, 7.5]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a 64 of the eight bytes of 0u64.
        let mut h = FNV_OFFSET;
        fnv_fold(&mut h, 0);
        let mut expect = FNV_OFFSET;
        for _ in 0..8 {
            expect = expect.wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(h, expect);
        let mut h2 = FNV_OFFSET;
        fnv_fold(&mut h2, 1);
        assert_ne!(h, h2);
    }
}
