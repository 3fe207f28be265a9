//! Workload descriptors for the paper's linear-algebra benchmarks.
//!
//! Table 2 (dense/sparse square MM), Fig 4 (skewed MM) and Fig 6 (layer
//! characterization sweep) all iterate over matrix-multiplication problems;
//! this module centralises those problem definitions so every harness binary
//! and simulator agrees on the workloads.

use bfly_tensor::{Csr, Matrix, WorkspaceRng};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A single matrix-multiplication problem `A (m x k) * B (k x n)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MatmulProblem {
    /// Rows of A / C.
    pub m: usize,
    /// Inner dimension.
    pub k: usize,
    /// Columns of B / C.
    pub n: usize,
}

impl MatmulProblem {
    /// A square `n x n x n` problem.
    pub fn square(n: usize) -> Self {
        Self { m: n, k: n, n }
    }

    /// Total multiply-add FLOPs (2mnk).
    pub fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.n as f64 * self.k as f64
    }

    /// Bytes of the three f32 operands.
    pub fn bytes(&self) -> u64 {
        (4 * (self.m * self.k + self.k * self.n + self.m * self.n)) as u64
    }

    /// Skewness ratio `s = m / k` as defined in paper §3.2.
    pub fn skewness(&self) -> f64 {
        self.m as f64 / self.k as f64
    }

    /// Materialises a sparse A (given density) and dense B.
    pub fn sparse_operands(&self, density: f64, rng: &mut WorkspaceRng) -> (Csr, Matrix) {
        let a = Csr::random(self.m, self.k, density, rng);
        let b = Matrix::random_uniform(self.k, self.n, 1.0, rng);
        (a, b)
    }
}

/// The skew sweep of Fig 4: problems with constant FLOP budget and aspect
/// ratio `s = m/k` swept over powers of four in `[4^-max_exp, 4^max_exp]`.
///
/// `base` is the square dimension at `s = 1`. For skew `s = 4^e` we set
/// `m = base * 2^e`, `k = base / 2^e` and keep `n = base`, so
/// `m * k * n = base^3` (and hence total FLOPs) stays constant while the
/// aspect ratio varies — isolating the shape effect, as §3.2 intends.
pub fn skew_sweep(base: usize, max_exp: i32) -> Vec<MatmulProblem> {
    assert!(base.is_power_of_two(), "skew sweep base must be a power of two");
    assert!(max_exp >= 0 && (1usize << max_exp) <= base, "skew exceeds base dimension");
    let mut out = Vec::new();
    for e in -max_exp..=max_exp {
        let (m, k) = if e >= 0 {
            (base << e as u32, base >> e as u32)
        } else {
            (base >> (-e) as u32, base << (-e) as u32)
        };
        out.push(MatmulProblem { m, k, n: base });
    }
    out
}

/// Square-size sweep `2^lo ..= 2^hi`, used by Figs 5-7.
pub fn square_sweep(lo: u32, hi: u32) -> Vec<MatmulProblem> {
    (lo..=hi).map(|e| MatmulProblem::square(1 << e)).collect()
}

/// Sparsity configurations from Table 2: 90 % and 99 % sparse.
pub const TABLE2_DENSITIES: [f64; 2] = [0.10, 0.01];

/// The square dimension used for Table 2's throughput comparison.
pub const TABLE2_DIM: usize = 2048;

/// Generates a random dense matrix with a target fraction of *zero* entries
/// ("sparsity"), kept in dense storage — used to test how dense kernels fare
/// on sparse data.
pub fn dense_with_sparsity(n: usize, sparsity: f64, rng: &mut WorkspaceRng) -> Matrix {
    assert!((0.0..=1.0).contains(&sparsity));
    Matrix::from_fn(
        n,
        n,
        |_, _| {
            if rng.gen_bool(sparsity) {
                0.0
            } else {
                rng.gen_range(-1.0f32..1.0)
            }
        },
    )
}

/// One piecewise-linear span of a [`TrafficTrace`]: the offered request
/// rate ramps from `start_rps` to `end_rps` over `duration_s` seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RateSegment {
    /// Wall-clock length of the segment, seconds.
    pub duration_s: f64,
    /// Offered rate at the start of the segment, requests per second.
    pub start_rps: f64,
    /// Offered rate at the end of the segment, requests per second.
    pub end_rps: f64,
}

impl RateSegment {
    fn rate_at(&self, t: f64) -> f64 {
        let frac = (t / self.duration_s).clamp(0.0, 1.0);
        self.start_rps + (self.end_rps - self.start_rps) * frac
    }
}

/// A replayable request-rate profile for trace-driven load generation:
/// a sequence of piecewise-linear [`RateSegment`]s covering the run.
///
/// Traces describe *offered load over time* — the serving load generators
/// turn them into concrete arrival timestamps with a seeded RNG
/// ([`arrivals`] for Poisson, [`pareto_arrivals`] for heavy-tailed), so
/// the same trace + seed replays the identical arrival sequence on any
/// host.
///
/// [`arrivals`]: TrafficTrace::arrivals
/// [`pareto_arrivals`]: TrafficTrace::pareto_arrivals
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficTrace {
    /// The spans of the profile, played back to back.
    pub segments: Vec<RateSegment>,
}

impl TrafficTrace {
    /// A flat trace: `rps` held for `duration_s` seconds.
    pub fn constant(rps: f64, duration_s: f64) -> Self {
        Self { segments: vec![RateSegment { duration_s, start_rps: rps, end_rps: rps }] }
    }

    /// A diurnal profile: `cycles` sinusoidal day/night swings between
    /// `base_rps` (trough) and `peak_rps` (crest), each `period_s` seconds
    /// long, sampled into piecewise-linear segments.
    pub fn diurnal(base_rps: f64, peak_rps: f64, period_s: f64, cycles: usize) -> Self {
        assert!(cycles > 0, "diurnal trace needs at least one cycle");
        assert!(peak_rps >= base_rps, "diurnal peak must be at least the base rate");
        const STEPS: usize = 16;
        let mid = (base_rps + peak_rps) / 2.0;
        let amp = (peak_rps - base_rps) / 2.0;
        let rate = |step: usize| {
            let phase = step as f64 / STEPS as f64 * std::f64::consts::TAU;
            // Start at the trough so the trace opens at base_rps.
            mid - amp * phase.cos()
        };
        let mut segments = Vec::with_capacity(cycles * STEPS);
        for _ in 0..cycles {
            for step in 0..STEPS {
                segments.push(RateSegment {
                    duration_s: period_s / STEPS as f64,
                    start_rps: rate(step),
                    end_rps: rate(step + 1),
                });
            }
        }
        Self { segments }
    }

    /// A flash crowd: quiet at `base_rps`, then a sharp ramp to
    /// `spike_multiplier * base_rps` starting at `spike_at_s`, holding the
    /// spike for `hold_s`, then decaying back to base for the remainder of
    /// `duration_s`. The ramp itself takes a tenth of the hold.
    pub fn flash_crowd(
        base_rps: f64,
        spike_multiplier: f64,
        duration_s: f64,
        spike_at_s: f64,
        hold_s: f64,
    ) -> Self {
        assert!(spike_multiplier >= 1.0, "a flash crowd ramps up, not down");
        let ramp_s = (hold_s / 10.0).max(1e-3);
        let peak = base_rps * spike_multiplier;
        let tail = duration_s - spike_at_s - ramp_s - hold_s - ramp_s;
        assert!(tail >= 0.0, "flash crowd does not fit inside the trace duration");
        let mut segments = vec![
            RateSegment { duration_s: spike_at_s, start_rps: base_rps, end_rps: base_rps },
            RateSegment { duration_s: ramp_s, start_rps: base_rps, end_rps: peak },
            RateSegment { duration_s: hold_s, start_rps: peak, end_rps: peak },
            RateSegment { duration_s: ramp_s, start_rps: peak, end_rps: base_rps },
        ];
        if tail > 0.0 {
            segments.push(RateSegment { duration_s: tail, start_rps: base_rps, end_rps: base_rps });
        }
        Self { segments }
    }

    /// Total wall-clock length of the trace, seconds.
    pub fn duration_s(&self) -> f64 {
        self.segments.iter().map(|s| s.duration_s).sum()
    }

    /// The offered rate at time `t_s` into the trace (clamped to the ends).
    pub fn rate_at(&self, t_s: f64) -> f64 {
        let mut t = t_s.max(0.0);
        for seg in &self.segments {
            if t <= seg.duration_s {
                return seg.rate_at(t);
            }
            t -= seg.duration_s;
        }
        self.segments.last().map_or(0.0, |s| s.end_rps)
    }

    /// The highest instantaneous rate anywhere in the trace.
    pub fn peak_rps(&self) -> f64 {
        self.segments.iter().map(|s| s.start_rps.max(s.end_rps)).fold(0.0, f64::max)
    }

    /// Expected number of requests the whole trace offers (the integral of
    /// the rate profile).
    pub fn expected_requests(&self) -> f64 {
        self.segments.iter().map(|s| s.duration_s * (s.start_rps + s.end_rps) / 2.0).sum()
    }

    /// The same shape at `factor` times every rate — how benches calibrate
    /// a template trace against a measured capacity.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor > 0.0, "trace scale factor must be positive");
        Self {
            segments: self
                .segments
                .iter()
                .map(|s| RateSegment {
                    duration_s: s.duration_s,
                    start_rps: s.start_rps * factor,
                    end_rps: s.end_rps * factor,
                })
                .collect(),
        }
    }

    /// Panics unless the trace is well-formed: at least one segment, every
    /// duration positive and finite, every rate finite and non-negative.
    pub fn validate(&self) {
        assert!(!self.segments.is_empty(), "a traffic trace needs at least one segment");
        for seg in &self.segments {
            assert!(
                seg.duration_s.is_finite() && seg.duration_s > 0.0,
                "segment durations must be positive"
            );
            assert!(
                seg.start_rps.is_finite()
                    && seg.end_rps.is_finite()
                    && seg.start_rps >= 0.0
                    && seg.end_rps >= 0.0,
                "segment rates must be finite and non-negative"
            );
        }
    }

    /// Arrival timestamps (seconds from trace start) for a non-homogeneous
    /// Poisson process following the trace's rate profile, via
    /// Lewis-Shedler thinning against the peak rate. Seed the RNG to make
    /// the trace replayable.
    pub fn arrivals<R: Rng>(&self, rng: &mut R) -> Vec<f64> {
        self.validate();
        let horizon = self.duration_s();
        let lambda_max = self.peak_rps();
        if lambda_max <= 0.0 {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.expected_requests().ceil() as usize);
        let mut t = 0.0f64;
        loop {
            // Candidate gap from the homogeneous envelope process.
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -u.ln() / lambda_max;
            if t >= horizon {
                return out;
            }
            if rng.gen_range(0.0..1.0) * lambda_max < self.rate_at(t) {
                out.push(t);
            }
        }
    }

    /// Heavy-tailed arrivals: inter-arrival gaps drawn from a Pareto
    /// distribution with shape `alpha` (> 1), scaled so the *mean* gap
    /// tracks the trace's instantaneous rate — bursty flash-crowd-like
    /// clumping with the same offered load as [`arrivals`].
    ///
    /// [`arrivals`]: TrafficTrace::arrivals
    pub fn pareto_arrivals<R: Rng>(&self, alpha: f64, rng: &mut R) -> Vec<f64> {
        self.validate();
        assert!(alpha > 1.0, "Pareto arrivals need alpha > 1 for a finite mean gap");
        let horizon = self.duration_s();
        let mut out = Vec::new();
        let mut t = 0.0f64;
        loop {
            let rate = self.rate_at(t).max(f64::EPSILON);
            // Pareto(alpha, xm) has mean alpha * xm / (alpha - 1); pick xm
            // so the mean gap is 1 / rate.
            let xm = (alpha - 1.0) / (alpha * rate);
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += xm / u.powf(1.0 / alpha);
            if t >= horizon {
                return out;
            }
            out.push(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfly_tensor::seeded_rng;

    #[test]
    fn square_problem_flops() {
        let p = MatmulProblem::square(64);
        assert_eq!(p.flops(), 2.0 * 64.0 * 64.0 * 64.0);
        assert_eq!(p.skewness(), 1.0);
    }

    #[test]
    fn skew_sweep_holds_flops_constant() {
        let probs = skew_sweep(256, 6);
        let base_flops = MatmulProblem::square(256).flops();
        for p in &probs {
            assert_eq!(p.flops(), base_flops, "problem {p:?} changed FLOPs");
        }
    }

    #[test]
    fn skew_sweep_covers_requested_ratios() {
        let probs = skew_sweep(256, 4);
        let ratios: Vec<f64> = probs.iter().map(|p| p.skewness()).collect();
        assert!(ratios.contains(&1.0));
        assert!(ratios.iter().any(|&r| r >= 256.0));
        assert!(ratios.iter().any(|&r| r <= 1.0 / 256.0));
        // Monotonically increasing sweep.
        for w in ratios.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn square_sweep_is_powers_of_two() {
        let probs = square_sweep(3, 6);
        let dims: Vec<usize> = probs.iter().map(|p| p.n).collect();
        assert_eq!(dims, vec![8, 16, 32, 64]);
    }

    #[test]
    fn sparse_operands_match_density() {
        let mut rng = seeded_rng(1);
        let p = MatmulProblem::square(128);
        let (a, b) = p.sparse_operands(0.01, &mut rng);
        assert_eq!(a.shape(), (128, 128));
        assert_eq!(b.shape(), (128, 128));
        assert!((a.density() - 0.01).abs() < 0.01);
    }

    #[test]
    fn constant_trace_offers_the_flat_rate() {
        let trace = TrafficTrace::constant(100.0, 4.0);
        trace.validate();
        assert_eq!(trace.duration_s(), 4.0);
        assert_eq!(trace.rate_at(0.0), 100.0);
        assert_eq!(trace.rate_at(3.9), 100.0);
        assert_eq!(trace.peak_rps(), 100.0);
        assert!((trace.expected_requests() - 400.0).abs() < 1e-9);
    }

    #[test]
    fn flash_crowd_spikes_then_returns_to_base() {
        let trace = TrafficTrace::flash_crowd(50.0, 4.0, 10.0, 3.0, 2.0);
        trace.validate();
        assert!((trace.duration_s() - 10.0).abs() < 1e-9);
        assert_eq!(trace.rate_at(1.0), 50.0, "quiet before the spike");
        assert_eq!(trace.rate_at(4.0), 200.0, "holding the spike");
        assert_eq!(trace.rate_at(9.9), 50.0, "back to base after the decay");
        assert_eq!(trace.peak_rps(), 200.0);
    }

    #[test]
    fn diurnal_trace_swings_between_base_and_peak() {
        let trace = TrafficTrace::diurnal(10.0, 90.0, 8.0, 2);
        trace.validate();
        assert!((trace.duration_s() - 16.0).abs() < 1e-9);
        assert!((trace.rate_at(0.0) - 10.0).abs() < 1e-9, "opens at the trough");
        assert!((trace.rate_at(4.0) - 90.0).abs() < 1e-6, "crests mid-cycle");
        assert!(trace.peak_rps() <= 90.0 + 1e-9);
    }

    #[test]
    fn scaled_trace_multiplies_every_rate() {
        let trace = TrafficTrace::flash_crowd(50.0, 3.0, 10.0, 3.0, 2.0).scaled(2.0);
        assert_eq!(trace.rate_at(1.0), 100.0);
        assert_eq!(trace.peak_rps(), 300.0);
        assert!((trace.duration_s() - 10.0).abs() < 1e-9, "scaling never stretches time");
    }

    #[test]
    fn seeded_arrivals_replay_and_track_the_offered_load() {
        let trace = TrafficTrace::constant(1000.0, 2.0);
        let a = trace.arrivals(&mut seeded_rng(7));
        let b = trace.arrivals(&mut seeded_rng(7));
        assert_eq!(a, b, "same trace + seed must replay bit-identically");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals are sorted");
        assert!(a.iter().all(|&t| (0.0..2.0).contains(&t)));
        let expected = trace.expected_requests();
        assert!(
            (a.len() as f64 - expected).abs() < expected * 0.2,
            "Poisson count {} strays too far from the offered {expected}",
            a.len()
        );
    }

    #[test]
    fn thinned_arrivals_follow_the_spike() {
        let trace = TrafficTrace::flash_crowd(200.0, 5.0, 4.0, 1.0, 1.0);
        let arrivals = trace.arrivals(&mut seeded_rng(11));
        let quiet = arrivals.iter().filter(|&&t| t < 1.0).count();
        let spike = arrivals.iter().filter(|&&t| (1.1..2.1).contains(&t)).count();
        assert!(
            spike as f64 > quiet as f64 * 3.0,
            "spike window saw {spike} arrivals vs {quiet} in an equal quiet window"
        );
    }

    #[test]
    fn pareto_arrivals_are_heavier_tailed_than_poisson() {
        let trace = TrafficTrace::constant(2000.0, 2.0);
        let pareto = trace.pareto_arrivals(1.5, &mut seeded_rng(3));
        let poisson = trace.arrivals(&mut seeded_rng(3));
        let expected = trace.expected_requests();
        assert!(
            (pareto.len() as f64 - expected).abs() < expected * 0.35,
            "heavy-tailed count {} strays too far from the offered {expected}",
            pareto.len()
        );
        let max_gap = |ts: &[f64]| ts.windows(2).map(|w| w[1] - w[0]).fold(0.0f64, f64::max);
        assert!(
            max_gap(&pareto) > max_gap(&poisson),
            "Pareto gaps should include lulls Poisson almost never produces"
        );
    }

    #[test]
    fn dense_with_sparsity_hits_target() {
        let mut rng = seeded_rng(2);
        let m = dense_with_sparsity(128, 0.9, &mut rng);
        let zeros = m.len() - m.count_nonzero(0.0);
        let frac = zeros as f64 / m.len() as f64;
        assert!((frac - 0.9).abs() < 0.02, "zero fraction {frac}");
    }
}
