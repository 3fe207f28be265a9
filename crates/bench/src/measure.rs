//! The one pair timer behind every host A/B comparison in this crate.
//!
//! [`pair`] times two closures in interleaved samples and summarises each
//! side's per-call times as a [`Dist`]: median and quartiles by
//! [`crate::stats::quartiles`], the repository benchmark's own rule.
//! [`Arm`] is one comparison as the BENCH files record it: both
//! distributions plus the speedup, the ratio of the two medians.

use crate::stats;
use serde::Serialize;
use std::time::Instant;

/// Median and quartiles of one side's per-call times, microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Dist {
    /// Median.
    pub median_us: f64,
    /// First quartile.
    pub q1_us: f64,
    /// Third quartile.
    pub q3_us: f64,
}

impl Dist {
    /// Summarises per-call samples given in microseconds.
    pub(crate) fn from_samples(samples_us: &[f64]) -> Self {
        let [q1_us, median_us, q3_us] = stats::quartiles(samples_us);
        Self { median_us, q1_us, q3_us }
    }
}

fn time_us(f: &mut impl FnMut()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e6
}

/// Times `a` and `b` over `samples` interleaved samples and returns the
/// distribution of each side's per-call time.
///
/// One untimed warm-up call of each comes first. Sample `i` then times one
/// call of each side, `a` first on even `i` and `b` first on odd `i`, so
/// slow drift (thermal throttling, frequency governors, a noisy neighbour)
/// hits both sides alike and neither always runs on the caches the other
/// left behind.
pub fn pair(samples: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (Dist, Dist) {
    assert!(samples > 0, "a pair needs at least one sample");
    a();
    b();
    let mut a_us = Vec::with_capacity(samples);
    let mut b_us = Vec::with_capacity(samples);
    for i in 0..samples {
        if i % 2 == 0 {
            a_us.push(time_us(&mut a));
            b_us.push(time_us(&mut b));
        } else {
            b_us.push(time_us(&mut b));
            a_us.push(time_us(&mut a));
        }
    }
    (Dist::from_samples(&a_us), Dist::from_samples(&b_us))
}

/// One timed comparison of a candidate against its baseline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Arm {
    /// The reference side: a per-row oracle or a naive kernel.
    pub baseline: Dist,
    /// The side under test.
    pub candidate: Dist,
    /// Baseline median over candidate median: above 1 when the candidate
    /// is faster.
    pub speedup: f64,
}

impl Arm {
    /// Times `baseline` against `candidate` with [`pair`].
    pub fn time(samples: usize, baseline: impl FnMut(), candidate: impl FnMut()) -> Self {
        let (baseline, candidate) = pair(samples, baseline, candidate);
        Self { baseline, candidate, speedup: baseline.median_us / candidate.median_us }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn pair_warms_up_then_alternates_the_order() {
        let calls = RefCell::new(Vec::new());
        // Each side's first call (its warm-up) is slow; the rest are not.
        let call = |side: char| {
            let first = !calls.borrow().contains(&side);
            calls.borrow_mut().push(side);
            if first {
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
        };
        let (a, b) = pair(4, || call('a'), || call('b'));
        // The warm-ups are the first two calls; the eight after them are
        // timed, in the order a b, b a, a b, b a.
        let calls = calls.into_inner();
        assert_eq!(calls[..2], ['a', 'b']);
        assert_eq!(calls[2..], ['a', 'b', 'b', 'a', 'a', 'b', 'b', 'a']);
        // Had a warm-up been timed, the third quartile of five samples
        // would carry half of its 100 ms.
        for d in [a, b] {
            assert!(d.q3_us < 50_000.0, "a warm-up was timed: {d:?}");
        }
    }

    #[test]
    fn dist_reads_the_shared_quartile_rule() {
        let samples = [9.0, 1.0, 4.0, 7.0, 3.0, 12.0, 5.0];
        let [q1, median, q3] = stats::quartiles(&samples);
        assert_eq!(Dist::from_samples(&samples), Dist { median_us: median, q1_us: q1, q3_us: q3 });
        // Python: statistics.quantiles([1, 3, 4, 5, 7, 9, 12], n=4) == [3.0, 5.0, 9.0]
        assert_eq!(Dist::from_samples(&samples), Dist { median_us: 5.0, q1_us: 3.0, q3_us: 9.0 });
    }

    #[test]
    fn arm_speedup_is_the_ratio_of_medians() {
        let arm = Arm::time(10, || std::thread::sleep(std::time::Duration::from_millis(2)), || {});
        assert_eq!(arm.speedup, arm.baseline.median_us / arm.candidate.median_us);
        assert!(arm.speedup > 1.0, "{arm:?}");
    }
}
