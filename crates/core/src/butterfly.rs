//! Butterfly factorization math (paper §2.3.1, after Dao et al. ICML'19).
//!
//! A butterfly matrix `B^(N)` for `N = 2^m` is the product of `m` butterfly
//! factors `B = B_N * ... * B_4 * B_2`; factor `B_k` is block-diagonal with
//! `N/k` blocks, each block mixing positions `p` and `p + k/2` through a
//! learnable 2x2 "twiddle" `[[a, b], [c, d]]`. Each factor therefore holds
//! `2N` nonzero parameters, giving the `O(N log N)` storage and apply cost
//! that replaces the `O(N^2)` dense layer. The full transform of Eq. 3 is
//! `T = B P` with `P` a fixed permutation (bit reversal recovers the
//! Cooley-Tukey FFT dataflow; Eq. 1 is the special case with FFT twiddles).

use crate::kernels::TwiddleStage;
use bfly_tensor::{Matrix, Permutation};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One butterfly factor: `n/2` independent 2x2 twiddles at stride
/// `block_size/2` within each `block_size`-wide block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ButterflyFactor {
    /// Width of each block-diagonal block (2, 4, ..., n).
    pub block_size: usize,
    /// Flat twiddle storage: one `[a, b, c, d]` quadruple per mixed position
    /// pair at offset `4 * t`, pairs ordered by block then by offset within
    /// the half-block. Length `2 n` (`n/2` pairs). Kept flat — rather than
    /// `Vec<[f32; 4]>` — so it is the *same* layout as the layer's `Param`
    /// value: sync is a single `copy_from_slice` and the inference path can
    /// run directly on a borrowed parameter slice.
    pub twiddles: Vec<f32>,
}

impl ButterflyFactor {
    /// Identity factor of the given block size for a transform of size `n`.
    pub fn identity(n: usize, block_size: usize) -> Self {
        assert!(block_size >= 2 && block_size <= n);
        let mut twiddles = Vec::with_capacity(2 * n);
        for _ in 0..n / 2 {
            twiddles.extend_from_slice(&[1.0, 0.0, 0.0, 1.0]);
        }
        Self { block_size, twiddles }
    }

    /// Random near-orthogonal initialisation: each twiddle is a rotation
    /// through a uniform angle plus small noise. Products of rotations stay
    /// orthogonal, so activations neither explode nor vanish at init.
    pub fn random(n: usize, block_size: usize, rng: &mut impl Rng) -> Self {
        let mut twiddles = Vec::with_capacity(2 * n);
        for _ in 0..n / 2 {
            let theta: f32 = rng.gen_range(0.0..std::f32::consts::TAU);
            let (s, c) = theta.sin_cos();
            let eps = 0.01f32;
            twiddles.extend_from_slice(&[
                c + rng.gen_range(-eps..eps),
                -s + rng.gen_range(-eps..eps),
                s + rng.gen_range(-eps..eps),
                c + rng.gen_range(-eps..eps),
            ]);
        }
        Self { block_size, twiddles }
    }

    /// Hadamard factor: every twiddle is `[[1, 1], [1, -1]] / sqrt(2)` when
    /// `normalized`, else unnormalised — the FWHT stage.
    pub fn hadamard(n: usize, block_size: usize, normalized: bool) -> Self {
        let s = if normalized { std::f32::consts::FRAC_1_SQRT_2 } else { 1.0 };
        let mut twiddles = Vec::with_capacity(2 * n);
        for _ in 0..n / 2 {
            twiddles.extend_from_slice(&[s, s, s, -s]);
        }
        Self { block_size, twiddles }
    }

    /// Applies the factor in place to one vector of length `n`.
    #[inline]
    pub fn apply_in_place(&self, x: &mut [f32]) {
        crate::kernels::apply_twiddle_stage(self.block_size, &self.twiddles, x);
    }

    /// Backward through this factor. `x` is the cached *input* to the factor,
    /// `grad` is dL/d output on entry and dL/d input on exit;
    /// `grad_twiddles` accumulates dL/d twiddle (flat, same layout as
    /// [`ButterflyFactor::twiddles`]).
    #[inline]
    pub fn backward_in_place(&self, x: &[f32], grad: &mut [f32], grad_twiddles: &mut [f32]) {
        let n = x.len();
        let k = self.block_size;
        let half = k / 2;
        let mut t = 0usize;
        for start in (0..n).step_by(k) {
            for j in 0..half {
                let p = start + j;
                let q = p + half;
                let (a, b, c, d) = quad(&self.twiddles, t);
                let (xp, xq) = (x[p], x[q]);
                let (gyp, gyq) = (grad[p], grad[q]);
                let gt = &mut grad_twiddles[4 * t..4 * t + 4];
                gt[0] += gyp * xp;
                gt[1] += gyp * xq;
                gt[2] += gyq * xp;
                gt[3] += gyq * xq;
                grad[p] = a * gyp + c * gyq;
                grad[q] = b * gyp + d * gyq;
                t += 1;
            }
        }
    }

    /// Number of scalar parameters (4 per twiddle pair).
    pub fn param_count(&self) -> usize {
        self.twiddles.len()
    }
}

/// Reads the `t`-th twiddle quadruple from flat storage.
#[inline(always)]
fn quad(twiddles: &[f32], t: usize) -> (f32, f32, f32, f32) {
    let base = 4 * t;
    (twiddles[base], twiddles[base + 1], twiddles[base + 2], twiddles[base + 3])
}

/// A complete butterfly transform `T = B_n ... B_2 P` of size `n` (power of
/// two): the paper's Eq. 3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Butterfly {
    n: usize,
    /// Factors ordered by application: `factors[0]` (block size 2) first.
    pub factors: Vec<ButterflyFactor>,
    /// The initial permutation `P` (bit reversal by default).
    pub perm: Permutation,
}

impl Butterfly {
    /// Random butterfly of size `n` (must be a power of two >= 2) with
    /// bit-reversal permutation and rotation-initialised twiddles.
    pub fn random(n: usize, rng: &mut impl Rng) -> Self {
        Self::random_with_perm(n, Permutation::bit_reversal(n), rng)
    }

    /// Random butterfly with an explicit initial permutation.
    pub fn random_with_perm(n: usize, perm: Permutation, rng: &mut impl Rng) -> Self {
        assert!(n.is_power_of_two() && n >= 2, "butterfly size {n} must be a power of two >= 2");
        assert_eq!(perm.len(), n, "permutation size mismatch");
        let stages = n.trailing_zeros() as usize;
        let factors = (1..=stages).map(|s| ButterflyFactor::random(n, 1 << s, rng)).collect();
        Self { n, factors, perm }
    }

    /// The identity transform (all twiddles identity, identity permutation).
    pub fn identity(n: usize) -> Self {
        assert!(n.is_power_of_two() && n >= 2);
        let stages = n.trailing_zeros() as usize;
        let factors = (1..=stages).map(|s| ButterflyFactor::identity(n, 1 << s)).collect();
        Self { n, factors, perm: Permutation::identity(n) }
    }

    /// The exact Walsh-Hadamard transform as a butterfly: all twiddles
    /// `[[1,1],[1,-1]]` (optionally orthonormalised) and identity permutation.
    /// Used to validate expressiveness: `H` is a structured transform the
    /// butterfly represents with zero error.
    pub fn hadamard(n: usize, normalized: bool) -> Self {
        assert!(n.is_power_of_two() && n >= 2);
        let stages = n.trailing_zeros() as usize;
        let factors =
            (1..=stages).map(|s| ButterflyFactor::hadamard(n, 1 << s, normalized)).collect();
        Self { n, factors, perm: Permutation::identity(n) }
    }

    /// Assembles a butterfly from explicit factors — the path offline
    /// fitters use when the twiddles come from an identification algorithm
    /// rather than random initialisation.
    ///
    /// # Panics
    /// Panics unless `n` is a power of two >= 2, the permutation has length
    /// `n`, and the factors are exactly the block sizes `2, 4, …, n` in
    /// application order with `2n`-long twiddle storage each.
    pub fn from_factors(n: usize, factors: Vec<ButterflyFactor>, perm: Permutation) -> Self {
        assert!(n.is_power_of_two() && n >= 2, "butterfly size {n} must be a power of two >= 2");
        assert_eq!(perm.len(), n, "permutation size mismatch");
        assert_eq!(factors.len(), n.trailing_zeros() as usize, "need log2 n factors");
        for (s, f) in factors.iter().enumerate() {
            assert_eq!(f.block_size, 1 << (s + 1), "factor {s} has the wrong block size");
            assert_eq!(f.twiddles.len(), 2 * n, "factor {s} has the wrong twiddle length");
        }
        Self { n, factors, perm }
    }

    /// Transform size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of factors (`log2 n`).
    pub fn stages(&self) -> usize {
        self.factors.len()
    }

    /// Total learnable scalar parameters (`2 n log2 n`).
    pub fn param_count(&self) -> usize {
        self.factors.iter().map(ButterflyFactor::param_count).sum()
    }

    /// Applies the transform to one vector: `y = B P x`.
    pub fn apply(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.n, "butterfly input length mismatch");
        let mut y = self.perm.apply(x);
        for f in &self.factors {
            f.apply_in_place(&mut y);
        }
        y
    }

    /// Borrowed stage views over the factors, in application order — the
    /// form the fused kernels of [`crate::kernels`] take.
    pub fn views(&self) -> Vec<TwiddleStage<'_>> {
        self.factors
            .iter()
            .map(|f| TwiddleStage { block_size: f.block_size, twiddles: &f.twiddles })
            .collect()
    }

    /// Materialises the dense `n x n` matrix `T` with `T x = apply(x)`.
    ///
    /// O(n^2 log n) — intended for tests and small demos only.
    pub fn materialize(&self) -> Matrix {
        let mut out = Matrix::zeros(self.n, self.n);
        for j in 0..self.n {
            let mut e = vec![0.0f32; self.n];
            e[j] = 1.0;
            let col = self.apply(&e);
            for (i, v) in col.iter().enumerate() {
                out[(i, j)] = *v;
            }
        }
        out
    }

    /// Forward pass that records the input to every factor, for backprop.
    /// Returns `(output, cache)` where `cache[s]` is the input to factor `s`
    /// and `cache[stages]` is the final output.
    pub fn forward_cached(&self, x: &[f32]) -> (Vec<f32>, Vec<Vec<f32>>) {
        let mut cache = Vec::with_capacity(self.stages() + 1);
        let mut y = self.perm.apply(x);
        for f in &self.factors {
            cache.push(y.clone());
            f.apply_in_place(&mut y);
        }
        cache.push(y.clone());
        (y, cache)
    }

    /// Backward pass for one sample given the forward cache.
    ///
    /// `grad_out` is dL/dy; returns dL/dx and accumulates per-factor twiddle
    /// gradients into `grad_twiddles` (one flat `Vec<f32>` per factor, same
    /// layout as the factors' twiddles).
    pub fn backward_cached(
        &self,
        cache: &[Vec<f32>],
        grad_out: &[f32],
        grad_twiddles: &mut [Vec<f32>],
    ) -> Vec<f32> {
        assert_eq!(grad_twiddles.len(), self.stages());
        let mut g = grad_out.to_vec();
        for (s, f) in self.factors.iter().enumerate().rev() {
            f.backward_in_place(&cache[s], &mut g, &mut grad_twiddles[s]);
        }
        // Backward through the permutation: y = x[perm] => dx[perm[i]] += g[i].
        let mut gx = vec![0.0f32; self.n];
        for (i, &j) in self.perm.map().iter().enumerate() {
            gx[j as usize] = g[i];
        }
        gx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfly_tensor::fwht::hadamard_matrix;
    use bfly_tensor::matmul::matvec;
    use bfly_tensor::seeded_rng;

    #[test]
    fn identity_butterfly_is_identity() {
        let b = Butterfly::identity(8);
        let x: Vec<f32> = (0..8).map(|i| i as f32).collect();
        assert_eq!(b.apply(&x), x);
        assert!(b.materialize().relative_error(&Matrix::identity(8)) < 1e-6);
    }

    #[test]
    fn hadamard_butterfly_matches_dense_hadamard() {
        // The key expressiveness check: H_n is exactly representable.
        let b = Butterfly::hadamard(16, false);
        let h = hadamard_matrix(16);
        assert!(b.materialize().relative_error(&h) < 1e-5);
    }

    #[test]
    fn apply_matches_materialized_product() {
        let mut rng = seeded_rng(21);
        let b = Butterfly::random(32, &mut rng);
        let t = b.materialize();
        let x: Vec<f32> = (0..32).map(|i| (i as f32 * 0.37).sin()).collect();
        let via_apply = b.apply(&x);
        let via_dense = matvec(&t, &x);
        for (a, d) in via_apply.iter().zip(&via_dense) {
            assert!((a - d).abs() < 1e-4, "{a} vs {d}");
        }
    }

    #[test]
    fn param_count_is_2n_logn() {
        let mut rng = seeded_rng(24);
        let b = Butterfly::random(1024, &mut rng);
        assert_eq!(b.param_count(), 2 * 1024 * 10);
        assert_eq!(b.stages(), 10);
    }

    #[test]
    fn random_init_roughly_preserves_norm() {
        let mut rng = seeded_rng(25);
        let b = Butterfly::random(256, &mut rng);
        let x: Vec<f32> = (0..256).map(|i| ((i * 7919) % 101) as f32 / 101.0 - 0.5).collect();
        let y = b.apply(&x);
        let nx: f32 = x.iter().map(|v| v * v).sum::<f32>().sqrt();
        let ny: f32 = y.iter().map(|v| v * v).sum::<f32>().sqrt();
        let ratio = ny / nx;
        assert!(ratio > 0.5 && ratio < 2.0, "norm ratio {ratio}");
    }

    #[test]
    fn backward_input_grad_matches_transpose_apply() {
        // For y = T x, dL/dx = T^T dL/dy. The cached-backward path must agree
        // with the materialised transpose.
        let mut rng = seeded_rng(26);
        let b = Butterfly::random(16, &mut rng);
        let x: Vec<f32> = (0..16).map(|i| (i as f32 * 0.21).sin()).collect();
        let (_, cache) = b.forward_cached(&x);
        let gy: Vec<f32> = (0..16).map(|i| (i as f32 * 0.13).cos()).collect();
        let mut gt: Vec<Vec<f32>> =
            b.factors.iter().map(|f| vec![0.0f32; f.twiddles.len()]).collect();
        let gx = b.backward_cached(&cache, &gy, &mut gt);
        let expect = matvec(&b.materialize().transpose(), &gy);
        for (a, e) in gx.iter().zip(&expect) {
            assert!((a - e).abs() < 1e-4, "{a} vs {e}");
        }
    }

    #[test]
    fn twiddle_gradients_match_finite_differences() {
        let mut rng = seeded_rng(27);
        let mut b = Butterfly::random(8, &mut rng);
        let x: Vec<f32> = (0..8).map(|i| 0.3 + 0.1 * i as f32).collect();
        // Loss = sum(y^2)/2, dL/dy = y.
        let (y, cache) = b.forward_cached(&x);
        let mut gt: Vec<Vec<f32>> =
            b.factors.iter().map(|f| vec![0.0f32; f.twiddles.len()]).collect();
        let _ = b.backward_cached(&cache, &y, &mut gt);
        let eps = 1e-3f32;
        let loss = |b: &Butterfly, x: &[f32]| -> f64 {
            b.apply(x).iter().map(|v| (*v as f64).powi(2) / 2.0).sum()
        };
        #[allow(clippy::needless_range_loop)] // indices also mutate b.factors
        for s in 0..b.stages() {
            for idx in [0usize, b.factors[s].twiddles.len() - 1] {
                let orig = b.factors[s].twiddles[idx];
                b.factors[s].twiddles[idx] = orig + eps;
                let lp = loss(&b, &x);
                b.factors[s].twiddles[idx] = orig - eps;
                let lm = loss(&b, &x);
                b.factors[s].twiddles[idx] = orig;
                let numeric = ((lp - lm) / (2.0 * eps as f64)) as f32;
                let analytic = gt[s][idx];
                assert!(
                    (analytic - numeric).abs() < 2e-2 * numeric.abs().max(1.0),
                    "stage {s} twiddle entry {idx}: {analytic} vs {numeric}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "power")]
    fn rejects_non_power_of_two() {
        let mut rng = seeded_rng(28);
        // 784 = MNIST dimension; the paper notes power-of-two requirements.
        let _ = Butterfly::random(784, &mut rng);
    }
}
