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

use crate::kernels::{fused_backward, fused_forward, fused_forward_train, AngleStage};
use bfly_nn::{Layer, Param};
use bfly_tensor::{LinOp, Matrix, Permutation, Scratch};
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

    /// Transform size.
    pub fn n(&self) -> usize {
        self.n
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

/// The orthogonal butterfly as a trainable layer: `y = crop(R P pad(x)) + b`.
///
/// Parameter budget at n = 1024 matches the paper's Table 4 butterfly row
/// to within 4 parameters (see module docs). The angles live only in the
/// factor parameters; every kernel call borrows them as [`AngleStage`]
/// views.
pub struct OrthoButterflyLayer {
    in_dim: usize,
    out_dim: usize,
    /// The fixed input permutation.
    perm: Permutation,
    /// One angle parameter per factor in application order; factor `s` has
    /// block size `2 << s`.
    angle_params: Vec<Param>,
    bias: Param,
    /// Stage-input cache `[row][stage][n]`, reused across training steps.
    arena: Vec<f32>,
    cached_rows: Option<usize>,
    scratch: Scratch,
}

/// Stage views over per-factor angles in application order (factor `s` has
/// block size `2 << s`).
fn angle_stages<'a>(angles: impl IntoIterator<Item = &'a [f32]>) -> Vec<AngleStage<'a>> {
    angles
        .into_iter()
        .enumerate()
        .map(|(s, a)| AngleStage { block_size: 2 << s, angles: a })
        .collect()
}

impl OrthoButterflyLayer {
    /// Creates a layer with random rotations and zero bias.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        let n = in_dim.max(out_dim).next_power_of_two().max(2);
        let OrthoButterfly { factors, perm, .. } = OrthoButterfly::random(n, rng);
        let angle_params = factors
            .into_iter()
            .enumerate()
            .map(|(s, f)| Param::new(format!("ortho.factor{s}"), f.angles))
            .collect();
        Self {
            in_dim,
            out_dim,
            perm,
            angle_params,
            bias: Param::new("ortho.bias", vec![0.0; out_dim]),
            arena: Vec::new(),
            cached_rows: None,
            scratch: Scratch::new(),
        }
    }

    /// Internal transform size.
    pub fn transform_size(&self) -> usize {
        self.perm.len()
    }

    /// Materialises the effective dense weight.
    pub fn effective_weight(&self) -> Matrix {
        let factors = self
            .angle_params
            .iter()
            .enumerate()
            .map(|(s, p)| OrthoFactor { block_size: 2 << s, angles: p.value.clone() })
            .collect();
        let butterfly = OrthoButterfly { n: self.perm.len(), factors, perm: self.perm.clone() };
        butterfly.materialize().submatrix(0, 0, self.out_dim, self.in_dim)
    }
}

impl Layer for OrthoButterflyLayer {
    fn forward(&mut self, input: &Matrix, train: bool) -> Matrix {
        assert_eq!(input.cols(), self.in_dim, "OrthoButterflyLayer input dim mismatch");
        let stages = angle_stages(self.angle_params.iter().map(|p| &p.value[..]));
        if train {
            let out = fused_forward_train(
                input,
                &self.perm,
                &stages,
                &self.bias.value,
                &mut self.arena,
                &mut self.scratch,
            );
            self.cached_rows = Some(input.rows());
            out
        } else {
            fused_forward(input, &self.perm, &stages, &self.bias.value, &mut self.scratch)
        }
    }

    fn forward_inference(&self, input: &Matrix, scratch: &mut Scratch) -> Matrix {
        assert_eq!(input.cols(), self.in_dim, "OrthoButterflyLayer input dim mismatch");
        let stages = angle_stages(self.angle_params.iter().map(|p| &p.value[..]));
        fused_forward(input, &self.perm, &stages, &self.bias.value, scratch)
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let rows = self
            .cached_rows
            .take()
            .expect("OrthoButterflyLayer::backward called without a training-mode forward");
        assert_eq!(grad_output.cols(), self.out_dim, "OrthoButterflyLayer grad dim mismatch");
        assert_eq!(grad_output.rows(), rows, "grad batch does not match cached forward");
        let batch = grad_output.rows();
        let mut db = vec![0.0f32; self.out_dim];
        for r in 0..batch {
            for (d, g) in db.iter_mut().zip(grad_output.row(r)) {
                *d += g;
            }
        }
        self.bias.accumulate_grad(&db);

        let (angles, mut grads): (Vec<_>, Vec<_>) =
            self.angle_params.iter_mut().map(Param::value_and_grad).unzip();
        fused_backward(
            grad_output,
            &self.perm,
            &angle_stages(angles),
            &self.arena,
            self.in_dim,
            &mut self.scratch,
            |s, flat| grads[s].iter_mut().zip(flat).for_each(|(g, d)| *g += d),
        )
    }

    fn params(&mut self) -> Vec<&mut Param> {
        let mut ps: Vec<&mut Param> = self.angle_params.iter_mut().collect();
        ps.push(&mut self.bias);
        ps
    }

    fn param_count(&self) -> usize {
        self.angle_params.iter().map(Param::len).sum::<usize>() + self.bias.len()
    }

    fn name(&self) -> &str {
        "ortho-butterfly"
    }

    fn trace(&self, batch: usize) -> Vec<LinOp> {
        // Same execution profile as the free-twiddle butterfly: one small
        // strided op per factor.
        let n = self.perm.len();
        let mut ops = vec![LinOp::Permute { rows: batch, width: n }];
        for _ in 0..self.angle_params.len() {
            ops.push(LinOp::Twiddle { pairs: n / 2, batch });
        }
        ops.push(LinOp::Elementwise { n: batch * self.out_dim, flops_per_elem: 1 });
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfly_tensor::seeded_rng;

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

    #[test]
    fn forward_matches_effective_weight() {
        let mut rng = seeded_rng(65);
        let mut layer = OrthoButterflyLayer::new(16, 16, &mut rng);
        let x = Matrix::random_uniform(4, 16, 1.0, &mut rng);
        let y = layer.forward(&x, false);
        let w = layer.effective_weight();
        let expect = bfly_tensor::matmul::matmul_a_bt(&x, &w);
        assert!(y.relative_error(&expect) < 1e-4);
    }

    #[test]
    fn angle_gradients_match_finite_differences() {
        let mut rng = seeded_rng(66);
        let mut layer = OrthoButterflyLayer::new(8, 8, &mut rng);
        let x = Matrix::random_uniform(3, 8, 1.0, &mut rng);
        bfly_nn::check_gradients(&mut layer, &x, 1e-3, 3e-2);
    }

    #[test]
    fn inference_path_is_bit_identical_to_training_forward() {
        let mut rng = seeded_rng(68);
        let mut layer = OrthoButterflyLayer::new(12, 6, &mut rng);
        let x = Matrix::random_uniform(9, 12, 1.0, &mut rng);
        let via_train = layer.forward(&x, true);
        let mut scratch = Scratch::new();
        let via_inference = layer.forward_inference(&x, &mut scratch);
        assert_eq!(via_train.as_slice(), via_inference.as_slice());
    }

    #[test]
    fn rectangular_shapes_pad_and_crop() {
        let mut rng = seeded_rng(67);
        let mut layer = OrthoButterflyLayer::new(12, 6, &mut rng);
        assert_eq!(layer.transform_size(), 16);
        let x = Matrix::random_uniform(2, 12, 1.0, &mut rng);
        let y = layer.forward(&x, true);
        assert_eq!(y.shape(), (2, 6));
        let g = layer.backward(&y);
        assert_eq!(g.shape(), (2, 12));
    }

    #[test]
    #[should_panic(expected = "grad dim mismatch")]
    fn backward_rejects_a_gradient_of_the_wrong_width() {
        let mut rng = seeded_rng(69);
        let mut layer = OrthoButterflyLayer::new(12, 6, &mut rng);
        let x = Matrix::random_uniform(2, 12, 1.0, &mut rng);
        layer.forward(&x, true);
        layer.backward(&Matrix::zeros(2, 4));
    }
}
