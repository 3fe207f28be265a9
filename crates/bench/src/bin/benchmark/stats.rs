//! Order statistics: medians, percentiles, the tail-percentile rule and the
//! quartiles the compare mode reads.

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quantile `q` in `[0, 1]` of an ascending, non-empty slice, linearly
/// interpolated between the two nearest ranks.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// Medians of `groups` interleaved groups of `samples`: sample `i` goes to
/// group `i % groups`. Consecutive samples land in different groups, so a
/// burst of host load that slows a few samples in a row moves each group's
/// median little, and the groups' spread is much narrower than the
/// samples'.
pub fn group_medians(samples: &[f64], groups: usize) -> Vec<f64> {
    assert!(groups > 0 && samples.len() >= groups, "{} samples for {groups} groups", samples.len());
    (0..groups)
        .map(|g| median(&samples.iter().skip(g).step_by(groups).copied().collect::<Vec<_>>()))
        .collect()
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (its default "exclusive" method)
/// computes them, so spreads printed here match a reader's own script.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    let ld = data.len();
    assert!(ld > 0, "quartiles of an empty sample");
    if ld == 1 {
        return [data[0]; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Percentile ladder for the tail rule, in parts per million.
const TAIL_LADDER_PPM: [u64; 6] = [500_000, 900_000, 990_000, 999_000, 999_900, 999_990];

/// The highest ladder percentile (p50, p90, p99, p99.9, ...) that has at
/// least ten samples beyond it in a sample of `n`; p50 when none has.
/// Integer arithmetic, so `n = 1000` qualifies p99 exactly.
pub fn tail_percentile(n: usize) -> f64 {
    let mut best = TAIL_LADDER_PPM[0];
    for ppm in TAIL_LADDER_PPM {
        if n as u64 * (1_000_000 - ppm) >= 10 * 1_000_000 {
            best = ppm;
        }
    }
    best as f64 / 10_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), 50.0);
        assert_eq!(tail_percentile(19), 50.0);
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(99), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(999), 90.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(9_999), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(24_000), 99.9);
        assert_eq!(tail_percentile(100_000), 99.99);
        assert_eq!(tail_percentile(10_000_000), 99.999);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn interpolated_quantiles() {
        let v = sorted(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 4.0);
        assert_eq!(quantile_sorted(&v, 0.5), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn group_medians_interleave() {
        // Groups {1, 9, 3} and {2, 4, 5}: the run of slow samples 9 and 4
        // lands one in each group, and neither median moves to it.
        assert_eq!(group_medians(&[1.0, 2.0, 9.0, 4.0, 3.0, 5.0], 2), [3.0, 4.0]);
        assert_eq!(group_medians(&[7.0], 1), [7.0]);
    }
}
