//! Orthogonal (rotation-parametrized) butterfly factorization.
//!
//! Each 2x2 twiddle is constrained to a Givens rotation
//! `[[cos t, -sin t], [sin t, cos t]]`, so a factor holds `n/2` angles
//! instead of `2n` free entries and the whole transform `(n/2) log2 n`
//! parameters. The resulting operator is exactly orthogonal, which gives
//! perfect conditioning during training (Dao et al. discuss this variant).
//!
//! **Reproduction note**: at n = 1024 the SHL model with this layer has
//! `512*10 + 1024 (bias) + 10250 (classifier) = 16,394` parameters —
//! within 4 of the paper's otherwise-unexplained Butterfly N_Params of
//! 16,390 (Table 4). The paper's butterfly was almost certainly
//! rotation-parametrized; we provide both variants and compare them in the
//! ablation bench.

use crate::butterfly_layer::{ButterflyLayerOf, Parametrization};
use crate::kernels::AngleStage;
use bfly_tensor::{Matrix, Permutation};
use rand::Rng;

/// One rotation-parametrized butterfly factor: `n/2` angles.
#[derive(Debug, Clone, PartialEq)]
pub struct OrthoFactor {
    /// Width of each block-diagonal block.
    pub block_size: usize,
    /// Rotation angle per mixed pair; length `n/2`.
    pub angles: Vec<f32>,
}

impl OrthoFactor {
    /// Uniformly random angles in `[0, 2 pi)`.
    pub fn random(n: usize, block_size: usize, rng: &mut impl Rng) -> Self {
        let angles = (0..n / 2).map(|_| rng.gen_range(0.0..std::f32::consts::TAU)).collect();
        Self { block_size, angles }
    }

    /// Applies the factor in place to one vector.
    #[inline]
    pub fn apply_in_place(&self, x: &mut [f32]) {
        crate::kernels::apply_rotation_stage(self.block_size, &self.angles, x);
    }

    /// Applies the inverse (= transpose) rotation in place.
    #[inline]
    pub fn apply_inverse_in_place(&self, x: &mut [f32]) {
        let n = x.len();
        let k = self.block_size;
        let half = k / 2;
        let mut t = 0usize;
        for start in (0..n).step_by(k) {
            for j in 0..half {
                let p = start + j;
                let q = p + half;
                let (s, c) = self.angles[t].sin_cos();
                let xp = x[p];
                let xq = x[q];
                x[p] = c * xp + s * xq;
                x[q] = -s * xp + c * xq;
                t += 1;
            }
        }
    }

    /// Backward: `x` is the cached input, `grad` is dL/d output on entry and
    /// dL/d input on exit; `grad_angles` accumulates dL/d angle.
    #[inline]
    pub fn backward_in_place(&self, x: &[f32], grad: &mut [f32], grad_angles: &mut [f32]) {
        let n = x.len();
        let k = self.block_size;
        let half = k / 2;
        let mut t = 0usize;
        for start in (0..n).step_by(k) {
            for j in 0..half {
                let p = start + j;
                let q = p + half;
                let (s, c) = self.angles[t].sin_cos();
                let (xp, xq) = (x[p], x[q]);
                let (gp, gq) = (grad[p], grad[q]);
                // y_p = c xp - s xq ; y_q = s xp + c xq
                // dL/dt = gp * (-s xp - c xq) + gq * (c xp - s xq)
                grad_angles[t] += gp * (-s * xp - c * xq) + gq * (c * xp - s * xq);
                // dL/dx = R^T g
                grad[p] = c * gp + s * gq;
                grad[q] = -s * gp + c * gq;
                t += 1;
            }
        }
    }
}

/// An orthogonal butterfly transform `T = R_n ... R_2 P`; exactly
/// norm-preserving for every parameter setting.
#[derive(Debug, Clone, PartialEq)]
pub struct OrthoButterfly {
    n: usize,
    /// Factors ordered by application (block size 2 first).
    pub factors: Vec<OrthoFactor>,
    /// The initial permutation.
    pub perm: Permutation,
}

impl OrthoButterfly {
    /// Random orthogonal butterfly with bit-reversal permutation.
    pub fn random(n: usize, rng: &mut impl Rng) -> Self {
        assert!(n.is_power_of_two() && n >= 2, "size {n} must be a power of two >= 2");
        let stages = n.trailing_zeros() as usize;
        let factors = (1..=stages).map(|s| OrthoFactor::random(n, 1 << s, rng)).collect();
        Self { n, factors, perm: Permutation::bit_reversal(n) }
    }

    /// Number of factors.
    pub fn stages(&self) -> usize {
        self.factors.len()
    }

    /// Learnable parameter count: `(n/2) log2 n`.
    pub fn param_count(&self) -> usize {
        self.factors.iter().map(|f| f.angles.len()).sum()
    }

    /// Borrowed stage views over the factors, in application order — the
    /// form the fused kernels of [`crate::kernels`] take.
    pub fn views(&self) -> Vec<AngleStage<'_>> {
        self.factors
            .iter()
            .map(|f| AngleStage { block_size: f.block_size, angles: &f.angles })
            .collect()
    }

    /// Applies the transform to one vector.
    pub fn apply(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.n, "input length mismatch");
        let mut y = self.perm.apply(x);
        for f in &self.factors {
            f.apply_in_place(&mut y);
        }
        y
    }

    /// Applies the exact inverse transform (orthogonality makes this free).
    pub fn apply_inverse(&self, y: &[f32]) -> Vec<f32> {
        assert_eq!(y.len(), self.n, "input length mismatch");
        let mut x = y.to_vec();
        for f in self.factors.iter().rev() {
            f.apply_inverse_in_place(&mut x);
        }
        self.perm.inverse().apply(&x)
    }

    /// Materialises the dense operator (tests only).
    pub fn materialize(&self) -> Matrix {
        let mut out = Matrix::zeros(self.n, self.n);
        for j in 0..self.n {
            let mut e = vec![0.0f32; self.n];
            e[j] = 1.0;
            for (i, v) in self.apply(&e).iter().enumerate() {
                out[(i, j)] = *v;
            }
        }
        out
    }
}

/// Givens rotations: one angle per mixed pair, `n/2` parameters per factor,
/// the layout of [`OrthoFactor::angles`].
pub struct Rotations;

impl Parametrization for Rotations {
    type Stage<'a> = AngleStage<'a>;
    const NAME: &'static str = "ortho-butterfly";
    const PREFIX: &'static str = "ortho";

    #[inline]
    fn stage(block_size: usize, angles: &[f32]) -> AngleStage<'_> {
        AngleStage { block_size, angles }
    }

    fn random_factor(n: usize, block_size: usize, rng: &mut impl Rng) -> Vec<f32> {
        OrthoFactor::random(n, block_size, rng).angles
    }
}

/// The orthogonal butterfly as a trainable layer: `y = crop(R P pad(x)) + b`.
/// Parameter budget at n = 1024 matches the paper's Table 4 butterfly row
/// to within 4 parameters (see module docs).
pub type OrthoButterflyLayer = ButterflyLayerOf<Rotations>;

#[cfg(test)]
mod tests {
    use super::*;
    use bfly_nn::Layer;
    use bfly_tensor::seeded_rng;

    crate::butterfly_layer::layer_tests!(Rotations, angle_gradients_match_finite_differences);

    #[test]
    fn operator_is_orthogonal() {
        let mut rng = seeded_rng(61);
        let b = OrthoButterfly::random(32, &mut rng);
        let t = b.materialize();
        let gram = bfly_tensor::matmul(&t.transpose(), &t);
        assert!(gram.relative_error(&Matrix::identity(32)) < 1e-4, "T^T T != I");
    }

    #[test]
    fn norm_is_preserved_exactly() {
        let mut rng = seeded_rng(62);
        let b = OrthoButterfly::random(64, &mut rng);
        let x: Vec<f32> = (0..64).map(|i| (i as f32 * 0.7).sin()).collect();
        let y = b.apply(&x);
        let nx: f32 = x.iter().map(|v| v * v).sum();
        let ny: f32 = y.iter().map(|v| v * v).sum();
        assert!((nx - ny).abs() / nx < 1e-4, "norm changed: {nx} -> {ny}");
    }

    #[test]
    fn inverse_round_trips() {
        let mut rng = seeded_rng(63);
        let b = OrthoButterfly::random(16, &mut rng);
        let x: Vec<f32> = (0..16).map(|i| i as f32 * 0.1 - 0.8).collect();
        let back = b.apply_inverse(&b.apply(&x));
        for (a, c) in x.iter().zip(&back) {
            assert!((a - c).abs() < 1e-5);
        }
    }

    #[test]
    fn param_count_matches_paper_butterfly_budget() {
        let mut rng = seeded_rng(64);
        let layer = OrthoButterflyLayer::new(1024, 1024, &mut rng);
        // (1024/2)*10 angles + 1024 bias.
        assert_eq!(layer.param_count(), 512 * 10 + 1024);
        // SHL total: within 4 of the paper's Table 4 value 16,390.
        let total = layer.param_count() + 1024 * 10 + 10;
        assert_eq!(total, 16_394);
        assert!((total as i64 - 16_390).unsigned_abs() <= 4);
    }
}
