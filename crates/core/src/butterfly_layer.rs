//! Butterfly factorization as a drop-in replacement for `nn.Linear` (the
//! Table 4 "Butterfly" method), in either parametrization of its 2x2 blocks:
//! free twiddles ([`ButterflyLayer`]) or Givens rotations
//! ([`OrthoButterflyLayer`](crate::ortho::OrthoButterflyLayer)).

use crate::butterfly::{Butterfly, ButterflyFactor};
use crate::kernels::{
    fused_backward, fused_forward, fused_forward_train, StageKernel, TwiddleStage,
};
use crate::ortho::Rotations;
use bfly_nn::{Layer, Param};
use bfly_tensor::{LinOp, Matrix, Permutation, Scratch};
use rand::Rng;
use std::marker::PhantomData;

/// How the 2x2 blocks of a butterfly's factors are parametrized. The
/// structure around them — the permutation, the `log2 n` stages, the
/// padding, cropping and bias — is the same for every parametrization and
/// is written once, in [`ButterflyLayerOf`].
pub trait Parametrization {
    /// The kernel view over one factor's parameters.
    type Stage<'a>: StageKernel;

    /// [`Layer::name`] of the layer.
    const NAME: &'static str;

    /// Prefix of the layer's parameter names: `<prefix>.factor<s>` and
    /// `<prefix>.bias`.
    const PREFIX: &'static str;

    /// A view of one factor's parameters as a stage of width `block_size`.
    fn stage(block_size: usize, params: &[f32]) -> Self::Stage<'_>;

    /// Random initial parameters of one factor of a size-`n` transform.
    fn random_factor(n: usize, block_size: usize, rng: &mut impl Rng) -> Vec<f32>;
}

/// Free 2x2 twiddles: `2n` parameters per factor, in the flat `[a, b, c, d]`
/// layout of [`ButterflyFactor::twiddles`].
pub struct Twiddles;

impl Parametrization for Twiddles {
    type Stage<'a> = TwiddleStage<'a>;
    const NAME: &'static str = "butterfly";
    const PREFIX: &'static str = "butterfly";

    #[inline]
    fn stage(block_size: usize, twiddles: &[f32]) -> TwiddleStage<'_> {
        TwiddleStage { block_size, twiddles }
    }

    fn random_factor(n: usize, block_size: usize, rng: &mut impl Rng) -> Vec<f32> {
        ButterflyFactor::random(n, block_size, rng).twiddles
    }
}

/// The free-twiddle butterfly layer.
pub type ButterflyLayer = ButterflyLayerOf<Twiddles>;

/// A learnable butterfly layer `y = crop(B P pad(x)) + bias`, its factors
/// parametrized by `P`.
///
/// The transform is square of size `n = next_pow2(max(in_dim, out_dim))`;
/// non-power-of-two or rectangular shapes are handled by zero-padding the
/// input and cropping the output (the butterfly itself must be a power of
/// two — §2.3). Parameters: `log2 n` factors plus `out_dim` bias.
///
/// The factors' parameters live only in their `Param`s, in the flat layout
/// the fused kernels of [`crate::kernels`] read: every forward and backward
/// borrows them as `P::Stage` views, so an optimizer step is seen by the
/// next call without any copy. Training stage caches live in a reusable
/// flat arena.
pub struct ButterflyLayerOf<P: Parametrization> {
    in_dim: usize,
    out_dim: usize,
    /// The fixed input permutation (the `P` of `T = B P`).
    perm: Permutation,
    /// One flat parameter per factor in application order; factor `s` has
    /// block size `2 << s`.
    factor_params: Vec<Param>,
    bias: Param,
    /// Stage-input cache `[row][stage][n]`, reused across training steps.
    arena: Vec<f32>,
    /// Batch size the arena currently caches (set by a training forward,
    /// consumed by backward).
    cached_rows: Option<usize>,
    scratch: Scratch,
    parametrization: PhantomData<P>,
}

/// Transform size of a layer between these widths.
fn transform_width(in_dim: usize, out_dim: usize) -> usize {
    in_dim.max(out_dim).next_power_of_two().max(2)
}

/// Stage views over per-factor parameters in application order (factor `s`
/// has block size `2 << s`).
fn stages<'a, P: Parametrization>(
    params: impl IntoIterator<Item = &'a [f32]>,
) -> Vec<P::Stage<'a>> {
    params.into_iter().enumerate().map(|(s, p)| P::stage(2 << s, p)).collect()
}

impl<P: Parametrization> ButterflyLayerOf<P> {
    /// Creates a layer with random factors (bit-reversal permutation) and
    /// zero bias.
    ///
    /// # Panics
    /// Panics if a width is zero.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        let n = transform_width(in_dim, out_dim);
        let factors = (0..n.trailing_zeros()).map(|s| P::random_factor(n, 2 << s, rng)).collect();
        Self::from_parts(in_dim, out_dim, Permutation::bit_reversal(n), factors, vec![0.0; out_dim])
    }

    /// The one constructor every other goes through.
    ///
    /// # Panics
    /// Panics if a width is zero, the permutation's size is not the
    /// transform size `next_pow2(max(in_dim, out_dim))` or the bias length
    /// is not `out_dim`.
    fn from_parts(
        in_dim: usize,
        out_dim: usize,
        perm: Permutation,
        factors: Vec<Vec<f32>>,
        bias: Vec<f32>,
    ) -> Self {
        assert!(in_dim >= 1 && out_dim >= 1, "butterfly layer widths must be at least 1");
        assert_eq!(
            perm.len(),
            transform_width(in_dim, out_dim),
            "butterfly size must be next_pow2(max(in, out))"
        );
        assert_eq!(bias.len(), out_dim, "bias length must match out_dim");
        let factor_params = factors
            .into_iter()
            .enumerate()
            .map(|(s, f)| Param::new(format!("{}.factor{s}", P::PREFIX), f))
            .collect();
        Self {
            in_dim,
            out_dim,
            perm,
            factor_params,
            bias: Param::new(format!("{}.bias", P::PREFIX), bias),
            arena: Vec::new(),
            cached_rows: None,
            scratch: Scratch::new(),
            parametrization: PhantomData,
        }
    }

    /// Internal transform size.
    pub fn transform_size(&self) -> usize {
        self.perm.len()
    }

    /// Materialises the effective dense weight `W (out x in)` this layer
    /// currently represents (tests / inspection; O(n^2 log n)). Column `j`
    /// is the transform of the unit vector `e_j`, through the per-row
    /// [`StageKernel::apply_row`] rather than the fused kernels.
    pub fn effective_weight(&self) -> Matrix {
        let stages = stages::<P>(self.factor_params.iter().map(|p| &p.value[..]));
        let mut w = Matrix::zeros(self.out_dim, self.in_dim);
        let mut e = vec![0.0f32; self.perm.len()];
        for j in 0..self.in_dim {
            e[j] = 1.0;
            let mut col = self.perm.apply(&e);
            e[j] = 0.0;
            for stage in &stages {
                stage.apply_row(&mut col);
            }
            for (i, v) in col.iter().take(self.out_dim).enumerate() {
                w[(i, j)] = *v;
            }
        }
        w
    }
}

impl ButterflyLayer {
    /// Builds a layer around an existing factorization — the deployment path
    /// for offline compression, where the twiddles come from a fit against a
    /// trained dense weight rather than random initialisation. The layer is
    /// fully trainable, so a compressed model can be fine-tuned. Each
    /// factor's twiddle storage moves into its parameter.
    ///
    /// # Panics
    /// Panics if a width is zero, the butterfly's size is not the layer's
    /// transform size `next_pow2(max(in_dim, out_dim))` or the bias length
    /// is not `out_dim`.
    pub fn from_butterfly(
        in_dim: usize,
        out_dim: usize,
        butterfly: Butterfly,
        bias: Vec<f32>,
    ) -> Self {
        let Butterfly { factors, perm, .. } = butterfly;
        let factors = factors
            .into_iter()
            .enumerate()
            .map(|(s, f)| {
                assert_eq!(f.block_size, 2 << s, "factor {s} has the wrong block size");
                f.twiddles
            })
            .collect();
        Self::from_parts(in_dim, out_dim, perm, factors, bias)
    }
}

/// [`Layer`] for the parametrization `$p`, stamped out once per
/// parametrization rather than written as a blanket `impl<P>`. Generic code
/// is compiled in the crate that uses it, so a blanket impl would be
/// compiled again, with that crate's inlining, in every binary that boxes a
/// layer: in the repository benchmark's binary, built with one codegen
/// unit, it grew the twiddle layer's `forward` by 144 B and `fused_forward`
/// by 1,219 B. Stamped here, each impl is compiled once, in this crate.
macro_rules! impl_layer {
    ($p:ty) => {
        impl Layer for ButterflyLayerOf<$p> {
            fn forward(&mut self, input: &Matrix, train: bool) -> Matrix {
                assert_eq!(input.cols(), self.in_dim, "butterfly layer input dim mismatch");
                let stages = stages::<$p>(self.factor_params.iter().map(|p| &p.value[..]));
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
                assert_eq!(input.cols(), self.in_dim, "butterfly layer input dim mismatch");
                let stages = stages::<$p>(self.factor_params.iter().map(|p| &p.value[..]));
                fused_forward(input, &self.perm, &stages, &self.bias.value, scratch)
            }

            fn backward(&mut self, grad_output: &Matrix) -> Matrix {
                let rows = self
                    .cached_rows
                    .take()
                    .expect("butterfly layer backward called without a training-mode forward");
                assert_eq!(grad_output.cols(), self.out_dim, "butterfly layer grad dim mismatch");
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

                let (values, mut grads): (Vec<_>, Vec<_>) =
                    self.factor_params.iter_mut().map(Param::value_and_grad).unzip();
                fused_backward(
                    grad_output,
                    &self.perm,
                    &stages::<$p>(values),
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
                <$p>::NAME
            }

            fn trace(&self, batch: usize) -> Vec<LinOp> {
                butterfly_trace(self.perm.len(), self.out_dim, batch)
            }
        }
    };
}

impl_layer!(Twiddles);
impl_layer!(Rotations);

/// The device-op trace of one forward of a butterfly layer of transform
/// size `n` (a power of two) and output width `out_dim`, for the
/// simulators: a permute, one twiddle op per factor, the bias add. The
/// factors are `log2 n` *separate* small operations (separate kernels on the
/// GPU, compute sets on the IPU) executed as strided multiply-adds rather
/// than one tuned dense matmul: the source of the factorization overhead
/// both devices pay at small N in Fig 6. Both parametrizations run this
/// profile. Needs no weights, so the simulators can price sizes too large to
/// allocate.
pub fn butterfly_trace(n: usize, out_dim: usize, batch: usize) -> Vec<LinOp> {
    assert!(n.is_power_of_two(), "butterfly transform size must be a power of two");
    let mut ops = vec![LinOp::Permute { rows: batch, width: n }];
    for _ in 0..n.trailing_zeros() {
        ops.push(LinOp::Twiddle { pairs: n / 2, batch });
    }
    ops.push(LinOp::Elementwise { n: batch * out_dim, flops_per_elem: 1 });
    ops
}

/// Defines, in the calling module, the `#[test]`s every parametrization of
/// [`ButterflyLayerOf`] must pass, for the parametrization `$p`; `$fd` names
/// its finite-difference gradient test. The caller must have
/// `ButterflyLayerOf`, `Layer`, `Matrix` and `seeded_rng` in scope.
#[cfg(test)]
macro_rules! layer_tests {
    ($p:ty, $fd:ident) => {
        #[test]
        fn forward_matches_effective_weight() {
            let mut rng = seeded_rng(41);
            let mut layer = ButterflyLayerOf::<$p>::new(16, 16, &mut rng);
            let x = Matrix::random_uniform(4, 16, 1.0, &mut rng);
            let y = layer.forward(&x, false);
            let w = layer.effective_weight();
            let expect = bfly_tensor::matmul::matmul_a_bt(&x, &w); // bias is zero at init
            assert!(y.relative_error(&expect) < 1e-4);
        }

        #[test]
        fn rectangular_shapes_pad_and_crop() {
            let mut rng = seeded_rng(42);
            let mut layer = ButterflyLayerOf::<$p>::new(12, 7, &mut rng);
            assert_eq!(layer.transform_size(), 16);
            let x = Matrix::random_uniform(3, 12, 1.0, &mut rng);
            let y = layer.forward(&x, true);
            assert_eq!(y.shape(), (3, 7));
            let w = layer.effective_weight();
            assert_eq!(w.shape(), (7, 12));
            assert!(y.relative_error(&bfly_tensor::matmul::matmul_a_bt(&x, &w)) < 1e-4);
            assert_eq!(layer.backward(&y).shape(), (3, 12));
        }

        #[test]
        fn backward_input_grad_matches_dense_equivalent() {
            let mut rng = seeded_rng(44);
            let mut layer = ButterflyLayerOf::<$p>::new(8, 8, &mut rng);
            let x = Matrix::random_uniform(3, 8, 1.0, &mut rng);
            let y = layer.forward(&x, true);
            let gx = layer.backward(&y.clone());
            // dX = dY W for dense y = x W^T.
            let w = layer.effective_weight();
            let expect = bfly_tensor::matmul(&y, &w);
            assert!(gx.relative_error(&expect) < 1e-4);
        }

        #[test]
        fn $fd() {
            let mut rng = seeded_rng(45);
            let mut layer = ButterflyLayerOf::<$p>::new(8, 8, &mut rng);
            let x = Matrix::random_uniform(3, 8, 1.0, &mut rng);
            bfly_nn::check_gradients(&mut layer, &x, 1e-3, 3e-2);
        }

        #[test]
        fn inference_path_is_bit_identical_to_training_forward() {
            let mut rng = seeded_rng(49);
            // Ragged rectangular shape, batch spanning multiple row blocks.
            let mut layer = ButterflyLayerOf::<$p>::new(12, 7, &mut rng);
            let x = Matrix::random_uniform(37, 12, 1.0, &mut rng);
            let via_train = layer.forward(&x, true);
            let mut scratch = bfly_tensor::Scratch::new();
            let via_inference = layer.forward_inference(&x, &mut scratch);
            assert_eq!(via_train.as_slice(), via_inference.as_slice());
            // Inference must also track parameter updates without a sync step.
            layer.params()[0].value[0] += 0.25;
            let after_train = layer.forward(&x, false);
            let after_inference = layer.forward_inference(&x, &mut scratch);
            assert_ne!(after_train.as_slice(), via_train.as_slice());
            assert_eq!(after_train.as_slice(), after_inference.as_slice());
        }

        #[test]
        fn bias_gradient_is_column_sum() {
            let mut rng = seeded_rng(46);
            let mut layer = ButterflyLayerOf::<$p>::new(4, 4, &mut rng);
            let x = Matrix::filled(3, 4, 0.5);
            let _ = layer.forward(&x, true);
            let g = Matrix::filled(3, 4, 2.0);
            let _ = layer.backward(&g);
            let bias = layer.params().pop().expect("the bias is the last parameter");
            assert_eq!(bias.grad, vec![6.0; 4]);
        }

        #[test]
        fn trace_has_logn_twiddle_stages() {
            let mut rng = seeded_rng(47);
            let layer = ButterflyLayerOf::<$p>::new(1024, 1024, &mut rng);
            let trace = layer.trace(50);
            let twiddles =
                trace.iter().filter(|op| matches!(op, bfly_tensor::LinOp::Twiddle { .. }));
            assert_eq!(twiddles.count(), 10);
        }

        #[test]
        #[should_panic(expected = "grad dim mismatch")]
        fn backward_rejects_a_gradient_of_the_wrong_width() {
            let mut rng = seeded_rng(69);
            let mut layer = ButterflyLayerOf::<$p>::new(12, 6, &mut rng);
            let x = Matrix::random_uniform(2, 12, 1.0, &mut rng);
            layer.forward(&x, true);
            layer.backward(&Matrix::zeros(2, 4));
        }

        #[test]
        #[should_panic(expected = "widths must be at least 1")]
        fn new_rejects_a_zero_width() {
            let _ = ButterflyLayerOf::<$p>::new(0, 4, &mut seeded_rng(70));
        }
    };
}
#[cfg(test)]
pub(crate) use layer_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use bfly_tensor::matmul::matmul_a_bt;
    use bfly_tensor::seeded_rng;

    layer_tests!(Twiddles, twiddle_gradients_match_finite_differences);

    #[test]
    fn param_count_is_2nlogn_plus_bias() {
        let mut rng = seeded_rng(43);
        let layer = ButterflyLayer::new(1024, 1024, &mut rng);
        assert_eq!(layer.param_count(), 2 * 1024 * 10 + 1024);
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
