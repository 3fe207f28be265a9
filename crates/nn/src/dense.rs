//! Fully-connected (dense) layer — the `torch.nn.Linear` baseline.

use crate::layer::{DenseView, Layer};
use crate::param::Param;
use bfly_tensor::matmul::{matmul, matmul_at_b};
use bfly_tensor::{panel, LinOp, Matrix, Scratch};
use rand::Rng;

/// `y = x W^T + b` with `W: out x in`, matching `torch.nn.Linear` semantics.
///
/// This is the Table 4 "Baseline" method and the reference point of Fig 6.
///
/// The weight `Param` holds `W` in the panel-major order of
/// [`bfly_tensor::panel`], the layout the forward kernel streams, and in no
/// other: [`Dense::weight_matrix`] and [`Layer::dense_view`] unpack it, and
/// [`Dense::set_weight`] and [`Dense::from_parts`] pack. Its gradient and
/// momentum share that order; the optimizer's updates are element-wise, so
/// the order changes no value.
pub struct Dense {
    in_dim: usize,
    out_dim: usize,
    weight: Param,
    bias: Param,
    cached_input: Option<Matrix>,
}

impl Dense {
    /// Creates a dense layer with Kaiming-uniform initialisation
    /// (`U(-1/sqrt(in), 1/sqrt(in))`, the `torch.nn.Linear` default).
    ///
    /// The weight is drawn in row-major order straight into its panels, so
    /// the RNG stream matches a row-major draw and no second buffer exists.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        let scale = 1.0 / (in_dim as f32).sqrt();
        let weight = panel::pack(
            out_dim,
            in_dim,
            (0..out_dim * in_dim).map(|_| rng.gen_range(-scale..=scale)),
        );
        let bias: Vec<f32> = (0..out_dim).map(|_| rng.gen_range(-scale..=scale)).collect();
        Self {
            in_dim,
            out_dim,
            weight: Param::new("dense.weight", weight),
            bias: Param::new("dense.bias", bias),
            cached_input: None,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The weight as a row-major `out x in` matrix.
    pub fn weight_matrix(&self) -> Matrix {
        Matrix::from_vec(self.out_dim, self.in_dim, self.row_major_weight())
    }

    /// Overwrites the weight matrix (used to initialise structured-layer
    /// comparisons from a shared dense starting point).
    pub fn set_weight(&mut self, w: &Matrix) {
        assert_eq!(w.shape(), (self.out_dim, self.in_dim), "weight shape mismatch");
        self.weight.value = panel::pack(self.out_dim, self.in_dim, w.as_slice().iter().copied());
    }

    /// Builds a dense layer from an existing `out × in` weight matrix and
    /// bias — the path model rebuilders (offline compression) use to carry
    /// trained parameters into a fresh stack.
    ///
    /// # Panics
    /// Panics if `bias.len() != weight.rows()`.
    pub fn from_parts(weight: Matrix, bias: Vec<f32>) -> Self {
        let (out_dim, in_dim) = weight.shape();
        assert_eq!(bias.len(), out_dim, "bias length must match weight rows");
        let weight = panel::pack(out_dim, in_dim, weight.into_vec());
        Self {
            in_dim,
            out_dim,
            weight: Param::new("dense.weight", weight),
            bias: Param::new("dense.bias", bias),
            cached_input: None,
        }
    }

    fn row_major_weight(&self) -> Vec<f32> {
        panel::unpack(self.out_dim, self.in_dim, &self.weight.value)
    }

    /// Shared affine kernel of both forward paths: `y = x W^T + b` straight
    /// from the panel-major weight.
    fn affine(&self, input: &Matrix) -> Matrix {
        assert_eq!(input.cols(), self.in_dim, "Dense input dim mismatch");
        panel::affine(input, &self.weight.value, &self.bias.value)
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Matrix, train: bool) -> Matrix {
        let y = self.affine(input);
        if train {
            self.cached_input = Some(input.clone());
        }
        y
    }

    fn forward_inference(&self, input: &Matrix, _scratch: &mut Scratch) -> Matrix {
        self.affine(input)
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let input = self
            .cached_input
            .take()
            .expect("Dense::backward called without a training-mode forward");
        assert_eq!(grad_output.cols(), self.out_dim, "Dense grad dim mismatch");
        // dW = dY^T X ; db = column-sum(dY) ; dX = dY W, with row-major
        // temporaries: dW is packed into the weight's order to accumulate.
        let dw = matmul_at_b(grad_output, &input);
        self.weight.accumulate_grad(&panel::pack(self.out_dim, self.in_dim, dw.into_vec()));
        let mut db = vec![0.0f32; self.out_dim];
        for r in 0..grad_output.rows() {
            for (d, g) in db.iter_mut().zip(grad_output.row(r)) {
                *d += g;
            }
        }
        self.bias.accumulate_grad(&db);
        matmul(grad_output, &self.weight_matrix())
    }

    fn params(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    fn name(&self) -> &str {
        "dense"
    }

    fn trace(&self, batch: usize) -> Vec<LinOp> {
        // One fused kernel: frameworks lower Linear to addmm, which applies
        // the bias inside the matmul epilogue (no separate launch).
        vec![LinOp::MatMul { m: batch, k: self.in_dim, n: self.out_dim }]
    }

    fn dense_view(&self) -> Option<DenseView<'_>> {
        Some(DenseView {
            in_dim: self.in_dim,
            out_dim: self.out_dim,
            weight: self.row_major_weight(),
            bias: &self.bias.value,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfly_tensor::seeded_rng;

    /// Finite-difference check of dense-layer gradients.
    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = seeded_rng(11);
        let mut layer = Dense::new(5, 3, &mut rng);
        let x = Matrix::random_uniform(4, 5, 1.0, &mut rng);
        crate::gradcheck::check_gradients(&mut layer, &x, 1e-3, 2e-2);
    }

    #[test]
    fn inference_path_is_bit_identical_to_eval_forward() {
        let mut rng = seeded_rng(16);
        let mut layer = Dense::new(7, 4, &mut rng);
        let x = Matrix::random_uniform(3, 7, 1.0, &mut rng);
        let via_forward = layer.forward(&x, false);
        let mut scratch = bfly_tensor::Scratch::new();
        let via_inference = layer.forward_inference(&x, &mut scratch);
        assert_eq!(via_forward.as_slice(), via_inference.as_slice());
    }

    #[test]
    fn forward_matches_manual_affine() {
        let mut rng = seeded_rng(12);
        let mut layer = Dense::new(3, 2, &mut rng);
        layer.set_weight(&Matrix::from_rows(&[&[1.0, 0.0, -1.0], &[0.5, 0.5, 0.5]]));
        layer.bias.value = vec![10.0, -10.0];
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        let y = layer.forward(&x, false);
        assert!((y[(0, 0)] - (1.0 - 3.0 + 10.0)).abs() < 1e-6);
        assert!((y[(0, 1)] - (3.0 - 10.0)).abs() < 1e-6);
    }

    #[test]
    fn new_draws_the_row_major_stream() {
        // The weight is drawn straight into panel order; unpacked, it must be
        // the row-major draw every seeded model and Table 4 rests on, and
        // the bias must follow it in the stream.
        for &out in &[1, 3, 10, 16, 17, 33] {
            for (in_dim, seed) in [(7, 1), (20, 2)] {
                let layer = Dense::new(in_dim, out, &mut seeded_rng(seed));
                let mut rng = seeded_rng(seed);
                let scale = 1.0 / (in_dim as f32).sqrt();
                let mut draw = |n: usize| -> Vec<f32> {
                    (0..n).map(|_| rng.gen_range(-scale..=scale)).collect()
                };
                let weight = draw(out * in_dim);
                assert_eq!(layer.weight_matrix().as_slice(), weight.as_slice(), "out {out}");
                assert_eq!(layer.bias.value, draw(out), "out {out}");
            }
        }
    }

    #[test]
    fn from_parts_and_set_weight_round_trip_the_weight() {
        let mut rng = seeded_rng(17);
        let w = Matrix::random_uniform(19, 6, 1.0, &mut rng);
        let layer = Dense::from_parts(w.clone(), vec![0.5; 19]);
        assert_eq!(layer.weight_matrix().as_slice(), w.as_slice());

        let mut layer = Dense::new(6, 19, &mut rng);
        layer.set_weight(&w);
        let view = layer.dense_view().expect("dense layers expose a view");
        assert_eq!(view.weight, w.as_slice());
        assert_eq!((view.out_dim, view.in_dim), (19, 6));
    }

    #[test]
    fn sizes_are_unchanged_when_out_is_not_a_panel_multiple() {
        let mut rng = seeded_rng(18);
        let mut layer = Dense::new(5, 17, &mut rng);
        assert_eq!(layer.param_count(), 17 * 5 + 17);
        assert_eq!(layer.train_state_bytes(), 2 * (17 * 5 + 17) * 4);
    }

    #[test]
    fn param_count_matches_baseline_formula() {
        let mut rng = seeded_rng(13);
        // The paper's Table 4 baseline: 1024x1024 hidden + 1024->10 classifier.
        let hidden = Dense::new(1024, 1024, &mut rng);
        let classifier = Dense::new(1024, 10, &mut rng);
        assert_eq!(hidden.param_count() + classifier.param_count(), 1_059_850);
    }

    #[test]
    #[should_panic(expected = "without a training-mode forward")]
    fn backward_without_forward_panics() {
        let mut rng = seeded_rng(14);
        let mut layer = Dense::new(2, 2, &mut rng);
        let _ = layer.backward(&Matrix::zeros(1, 2));
    }

    #[test]
    fn bias_gradient_is_column_sum() {
        let mut rng = seeded_rng(15);
        let mut layer = Dense::new(2, 2, &mut rng);
        let x = Matrix::filled(3, 2, 1.0);
        let _ = layer.forward(&x, true);
        let g = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let _ = layer.backward(&g);
        assert_eq!(layer.bias.grad, vec![9.0, 12.0]);
    }
}
