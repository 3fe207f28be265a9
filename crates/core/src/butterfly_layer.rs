//! Butterfly factorization as a drop-in replacement for `nn.Linear`
//! (the Table 4 "Butterfly" method).

use crate::butterfly::{Butterfly, ButterflyFactor};
use crate::kernels::{fused_backward, fused_forward, fused_forward_train, TwiddleStage};
use bfly_nn::{Layer, Param};
use bfly_tensor::{LinOp, Matrix, Permutation, Scratch};
use rand::Rng;

/// A learnable butterfly layer `y = crop(B P pad(x)) + bias`.
///
/// The transform is square of size `n = next_pow2(max(in_dim, out_dim))`;
/// non-power-of-two or rectangular shapes are handled by zero-padding the
/// input and cropping the output (the butterfly itself must be a power of
/// two — §2.3). Parameters: `2 n log2 n` twiddles plus `out_dim` bias.
///
/// The twiddles live only in the factor parameters, in the flat layout the
/// fused kernels of [`crate::kernels`] read: every forward and backward
/// borrows them as [`TwiddleStage`] views, so an optimizer step is seen by
/// the next call without any copy. Training stage caches live in a reusable
/// flat arena.
pub struct ButterflyLayer {
    in_dim: usize,
    out_dim: usize,
    /// The fixed input permutation `P`.
    perm: Permutation,
    /// One flat parameter per factor in application order, quadruples
    /// `[a, b, c, d]` per twiddle; factor `s` has block size `2 << s`.
    factor_params: Vec<Param>,
    bias: Param,
    /// Stage-input cache `[row][stage][n]`, reused across training steps.
    arena: Vec<f32>,
    /// Batch size the arena currently caches (set by a training forward,
    /// consumed by backward).
    cached_rows: Option<usize>,
    scratch: Scratch,
}

/// Stage views over per-factor twiddles in application order (factor `s`
/// has block size `2 << s`).
fn twiddle_stages<'a>(twiddles: impl IntoIterator<Item = &'a [f32]>) -> Vec<TwiddleStage<'a>> {
    twiddles
        .into_iter()
        .enumerate()
        .map(|(s, t)| TwiddleStage { block_size: 2 << s, twiddles: t })
        .collect()
}

impl ButterflyLayer {
    /// Creates a butterfly layer with rotation-initialised twiddles and zero
    /// bias.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        let n = in_dim.max(out_dim).next_power_of_two().max(2);
        Self::from_butterfly(in_dim, out_dim, Butterfly::random(n, rng), vec![0.0; out_dim])
    }

    /// Builds a layer around an existing factorization — the deployment path
    /// for offline compression, where the twiddles come from a fit against a
    /// trained dense weight rather than random initialisation. The layer is
    /// fully trainable, so a compressed model can be fine-tuned. Each
    /// factor's twiddle storage moves into its parameter.
    ///
    /// # Panics
    /// Panics if the butterfly's size is not the layer's transform size
    /// `next_pow2(max(in_dim, out_dim))` or the bias length is not `out_dim`.
    pub fn from_butterfly(
        in_dim: usize,
        out_dim: usize,
        butterfly: Butterfly,
        bias: Vec<f32>,
    ) -> Self {
        assert!(in_dim >= 1 && out_dim >= 1);
        let n = in_dim.max(out_dim).next_power_of_two().max(2);
        assert_eq!(butterfly.n(), n, "butterfly size must be next_pow2(max(in, out))");
        assert_eq!(bias.len(), out_dim, "bias length must match out_dim");
        let Butterfly { factors, perm, .. } = butterfly;
        let factor_params = factors
            .into_iter()
            .enumerate()
            .map(|(s, f)| {
                assert_eq!(f.block_size, 2 << s, "factor {s} has the wrong block size");
                Param::new(format!("butterfly.factor{s}"), f.twiddles)
            })
            .collect();
        Self {
            in_dim,
            out_dim,
            perm,
            factor_params,
            bias: Param::new("butterfly.bias", bias),
            arena: Vec::new(),
            cached_rows: None,
            scratch: Scratch::new(),
        }
    }

    /// Internal transform size.
    pub fn transform_size(&self) -> usize {
        self.perm.len()
    }

    /// Materialises the effective dense weight `W (out x in)` this layer
    /// currently represents (tests / inspection; O(n^2 log n)).
    pub fn effective_weight(&self) -> Matrix {
        let factors = self
            .factor_params
            .iter()
            .enumerate()
            .map(|(s, p)| ButterflyFactor { block_size: 2 << s, twiddles: p.value.clone() })
            .collect();
        let butterfly = Butterfly::from_factors(self.perm.len(), factors, self.perm.clone());
        butterfly.materialize().submatrix(0, 0, self.out_dim, self.in_dim)
    }
}

impl Layer for ButterflyLayer {
    fn forward(&mut self, input: &Matrix, train: bool) -> Matrix {
        assert_eq!(input.cols(), self.in_dim, "ButterflyLayer input dim mismatch");
        let stages = twiddle_stages(self.factor_params.iter().map(|p| &p.value[..]));
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
        assert_eq!(input.cols(), self.in_dim, "ButterflyLayer input dim mismatch");
        let stages = twiddle_stages(self.factor_params.iter().map(|p| &p.value[..]));
        fused_forward(input, &self.perm, &stages, &self.bias.value, scratch)
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let rows = self
            .cached_rows
            .take()
            .expect("ButterflyLayer::backward called without a training-mode forward");
        assert_eq!(grad_output.cols(), self.out_dim, "ButterflyLayer grad dim mismatch");
        assert_eq!(grad_output.rows(), rows, "grad batch does not match cached forward");
        let batch = grad_output.rows();

        // Bias gradient: column sums.
        let mut db = vec![0.0f32; self.out_dim];
        for r in 0..batch {
            for (d, g) in db.iter_mut().zip(grad_output.row(r)) {
                *d += g;
            }
        }
        self.bias.accumulate_grad(&db);

        let (twiddles, mut grads): (Vec<_>, Vec<_>) =
            self.factor_params.iter_mut().map(Param::value_and_grad).unzip();
        fused_backward(
            grad_output,
            &self.perm,
            &twiddle_stages(twiddles),
            &self.arena,
            self.in_dim,
            &mut self.scratch,
            |s, flat| grads[s].iter_mut().zip(flat).for_each(|(g, d)| *g += d),
        )
    }

    fn params(&mut self) -> Vec<&mut Param> {
        let mut ps: Vec<&mut Param> = self.factor_params.iter_mut().collect();
        ps.push(&mut self.bias);
        ps
    }

    fn param_count(&self) -> usize {
        self.factor_params.iter().map(Param::len).sum::<usize>() + self.bias.len()
    }

    fn name(&self) -> &str {
        "butterfly"
    }

    fn trace(&self, batch: usize) -> Vec<LinOp> {
        let n = self.perm.len();
        let mut ops = vec![LinOp::Permute { rows: batch, width: n }];
        // Each factor is a Twiddle op over n/2 pairs — crucially, log2(n)
        // *separate* small operations (separate kernels on the GPU /
        // compute sets on the IPU) executed as strided multiply-adds rather
        // than one tuned dense matmul: this is the source of the
        // factorization overhead both devices pay at small N in Fig 6.
        for _ in 0..self.factor_params.len() {
            ops.push(LinOp::Twiddle { pairs: n / 2, batch });
        }
        ops.push(LinOp::Elementwise { n: batch * self.out_dim, flops_per_elem: 1 });
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfly_nn::Layer;
    use bfly_tensor::matmul::matmul_a_bt;
    use bfly_tensor::seeded_rng;

    #[test]
    fn forward_matches_effective_weight() {
        let mut rng = seeded_rng(41);
        let mut layer = ButterflyLayer::new(16, 16, &mut rng);
        let x = Matrix::random_uniform(4, 16, 1.0, &mut rng);
        let y = layer.forward(&x, false);
        let w = layer.effective_weight();
        let expect = matmul_a_bt(&x, &w); // bias is zero at init
        assert!(y.relative_error(&expect) < 1e-4);
    }

    #[test]
    fn rectangular_shapes_pad_and_crop() {
        let mut rng = seeded_rng(42);
        let mut layer = ButterflyLayer::new(12, 7, &mut rng);
        assert_eq!(layer.transform_size(), 16);
        let x = Matrix::random_uniform(3, 12, 1.0, &mut rng);
        let y = layer.forward(&x, false);
        assert_eq!(y.shape(), (3, 7));
        let w = layer.effective_weight();
        assert_eq!(w.shape(), (7, 12));
        assert!(y.relative_error(&matmul_a_bt(&x, &w)) < 1e-4);
    }

    #[test]
    fn param_count_is_2nlogn_plus_bias() {
        let mut rng = seeded_rng(43);
        let layer = ButterflyLayer::new(1024, 1024, &mut rng);
        assert_eq!(layer.param_count(), 2 * 1024 * 10 + 1024);
    }

    #[test]
    fn backward_input_grad_matches_dense_equivalent() {
        let mut rng = seeded_rng(44);
        let mut layer = ButterflyLayer::new(8, 8, &mut rng);
        let x = Matrix::random_uniform(3, 8, 1.0, &mut rng);
        let y = layer.forward(&x, true);
        let gx = layer.backward(&y.clone());
        // dX = dY W for dense y = x W^T.
        let w = layer.effective_weight();
        let expect = bfly_tensor::matmul(&y, &w);
        assert!(gx.relative_error(&expect) < 1e-4);
    }

    #[test]
    fn twiddle_gradients_match_finite_differences() {
        let mut rng = seeded_rng(45);
        let mut layer = ButterflyLayer::new(8, 8, &mut rng);
        let x = Matrix::random_uniform(2, 8, 1.0, &mut rng);
        bfly_nn::check_gradients(&mut layer, &x, 1e-3, 3e-2);
    }

    #[test]
    fn inference_path_is_bit_identical_to_training_forward() {
        let mut rng = seeded_rng(49);
        // Ragged rectangular shape, batch spanning multiple row blocks.
        let mut layer = ButterflyLayer::new(12, 7, &mut rng);
        let x = Matrix::random_uniform(37, 12, 1.0, &mut rng);
        let via_train = layer.forward(&x, true);
        let mut scratch = Scratch::new();
        let via_inference = layer.forward_inference(&x, &mut scratch);
        assert_eq!(via_train.as_slice(), via_inference.as_slice());
        // Inference must also track parameter updates without a sync step.
        layer.factor_params[0].value[0] += 0.25;
        let after_train = layer.forward(&x, false);
        let after_inference = layer.forward_inference(&x, &mut scratch);
        assert_eq!(after_train.as_slice(), after_inference.as_slice());
    }

    #[test]
    fn bias_gradient_is_column_sum() {
        let mut rng = seeded_rng(46);
        let mut layer = ButterflyLayer::new(4, 4, &mut rng);
        let x = Matrix::filled(3, 4, 0.5);
        let _ = layer.forward(&x, true);
        let g = Matrix::filled(3, 4, 2.0);
        let _ = layer.backward(&g);
        assert_eq!(layer.bias.grad, vec![6.0; 4]);
    }

    #[test]
    fn trace_has_logn_twiddle_stages() {
        let mut rng = seeded_rng(47);
        let layer = ButterflyLayer::new(1024, 1024, &mut rng);
        let trace = layer.trace(50);
        let twiddle_count = trace.iter().filter(|op| matches!(op, LinOp::Twiddle { .. })).count();
        assert_eq!(twiddle_count, 10);
    }

    #[test]
    fn butterfly_layer_learns_a_butterfly_teacher() {
        // Gradient-descend a randomly initialised student onto the transform
        // of a random butterfly teacher (same permutation) — the trainability
        // property that lets butterfly layers "learn fast algorithms for
        // linear transforms" (Dao et al.). Exact-representation checks for
        // named transforms (Hadamard) live in `butterfly::tests`.
        use bfly_nn::Sgd;
        let n = 8;
        let mut rng = seeded_rng(48);
        let mut student = ButterflyLayer::new(n, n, &mut rng);
        let teacher = ButterflyLayer::new(n, n, &mut rng);
        let target = teacher.effective_weight();
        let opt = Sgd::new(0.05, 0.9);
        let mut initial_loss = None;
        let mut final_loss = f64::MAX;
        for _ in 0..600 {
            let x = Matrix::random_uniform(16, n, 1.0, &mut rng);
            let want = matmul_a_bt(&x, &target);
            let got = student.forward(&x, true);
            let diff = got.sub(&want);
            final_loss = diff.as_slice().iter().map(|v| (*v as f64).powi(2)).sum::<f64>() / 16.0;
            initial_loss.get_or_insert(final_loss);
            student.zero_grad();
            let _ = student.backward(&diff.scale(1.0 / 16.0));
            opt.step(&mut student.params());
        }
        let initial = initial_loss.expect("ran at least one step");
        assert!(
            final_loss < initial * 0.05,
            "did not learn the teacher: {initial} -> {final_loss}"
        );
    }
}
