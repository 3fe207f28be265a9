//! Low-rank layer — a Table 4 comparison method.
//!
//! `y = U (V x) + bias` with `U: out x r`, `V: r x in`. The paper's Table 4
//! budget (N_Params = 13,322 = 2*1024*1 + 1024 + classifier) implies
//! **rank 1**, which explains its dramatic accuracy collapse (18.6 %): a
//! rank-1 hidden layer cannot separate 10 classes.

use bfly_nn::{Layer, Param};
use bfly_tensor::matmul::{matmul, matmul_a_bt_slice, matmul_at_b};
use bfly_tensor::{LinOp, Matrix, Scratch};
use rand::Rng;

/// The low-rank structured layer.
pub struct LowRankLayer {
    in_dim: usize,
    out_dim: usize,
    rank: usize,
    u: Param,
    v: Param,
    bias: Param,
    cached_input: Option<Matrix>,
    cached_vx: Option<Matrix>,
}

impl LowRankLayer {
    /// Creates a low-rank layer of the given rank (>= 1).
    pub fn new(in_dim: usize, out_dim: usize, rank: usize, rng: &mut impl Rng) -> Self {
        assert!(rank >= 1, "rank must be >= 1");
        let su = 1.0 / (rank as f32).sqrt();
        let sv = 1.0 / (in_dim as f32).sqrt();
        let u: Vec<f32> = (0..out_dim * rank).map(|_| rng.gen_range(-su..=su)).collect();
        let v: Vec<f32> = (0..rank * in_dim).map(|_| rng.gen_range(-sv..=sv)).collect();
        Self {
            in_dim,
            out_dim,
            rank,
            u: Param::new("lowrank.u", u),
            v: Param::new("lowrank.v", v),
            bias: Param::new("lowrank.bias", vec![0.0; out_dim]),
            cached_input: None,
            cached_vx: None,
        }
    }

    /// Materialises the effective dense weight `U V` (tests only).
    pub fn effective_weight(&self) -> Matrix {
        let u = Matrix::from_vec(self.out_dim, self.rank, self.u.value.clone());
        let v = Matrix::from_vec(self.rank, self.in_dim, self.v.value.clone());
        matmul(&u, &v)
    }

    /// `U (V x) + bias` reading the factors straight from parameter storage;
    /// also returns the intermediate `X V^T` for the training cache.
    fn affine(&self, input: &Matrix) -> (Matrix, Matrix) {
        let vx = matmul_a_bt_slice(input, &self.v.value, self.rank); // batch x r
        let mut y = matmul_a_bt_slice(&vx, &self.u.value, self.out_dim); // batch x out
        for r in 0..y.rows() {
            for (o, b) in y.row_mut(r).iter_mut().zip(&self.bias.value) {
                *o += b;
            }
        }
        (y, vx)
    }
}

impl Layer for LowRankLayer {
    fn forward(&mut self, input: &Matrix, train: bool) -> Matrix {
        assert_eq!(input.cols(), self.in_dim, "LowRankLayer input dim mismatch");
        let (y, vx) = self.affine(input);
        if train {
            self.cached_input = Some(input.clone());
            self.cached_vx = Some(vx);
        }
        y
    }

    fn forward_inference(&self, input: &Matrix, _scratch: &mut Scratch) -> Matrix {
        assert_eq!(input.cols(), self.in_dim, "LowRankLayer input dim mismatch");
        self.affine(input).0
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let input = self.cached_input.take().expect("LowRankLayer::backward without forward");
        let vx = self.cached_vx.take().expect("missing vx cache");
        assert_eq!(grad_output.cols(), self.out_dim, "LowRankLayer grad dim mismatch");
        let mut dbias = vec![0.0f32; self.out_dim];
        for r in 0..grad_output.rows() {
            for (d, g) in dbias.iter_mut().zip(grad_output.row(r)) {
                *d += g;
            }
        }
        self.bias.accumulate_grad(&dbias);
        let u = Matrix::from_vec(self.out_dim, self.rank, self.u.value.clone());
        let v = Matrix::from_vec(self.rank, self.in_dim, self.v.value.clone());
        // dU = dY^T (X V^T) ; dVX = dY U ; dV = dVX^T X ; dX = dVX V.
        let du = matmul_at_b(grad_output, &vx);
        self.u.accumulate_grad(du.as_slice());
        let dvx = matmul(grad_output, &u);
        let dv = matmul_at_b(&dvx, &input);
        self.v.accumulate_grad(dv.as_slice());
        matmul(&dvx, &v)
    }

    fn params(&mut self) -> Vec<&mut Param> {
        vec![&mut self.u, &mut self.v, &mut self.bias]
    }

    fn param_count(&self) -> usize {
        self.u.len() + self.v.len() + self.bias.len()
    }

    fn name(&self) -> &str {
        "lowrank"
    }

    fn trace(&self, batch: usize) -> Vec<LinOp> {
        vec![
            LinOp::MatMul { m: batch, k: self.in_dim, n: self.rank },
            LinOp::MatMul { m: batch, k: self.rank, n: self.out_dim },
            LinOp::Elementwise { n: batch * self.out_dim, flops_per_elem: 1 },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfly_tensor::matmul::matmul_a_bt;
    use bfly_tensor::seeded_rng;

    #[test]
    fn param_count_matches_paper_formula() {
        let mut rng = seeded_rng(81);
        let layer = LowRankLayer::new(1024, 1024, 1, &mut rng);
        assert_eq!(layer.param_count(), 2 * 1024 + 1024);
        // With the 1024->10 classifier: 3072 + 10250 = 13,322 (Table 4).
        assert_eq!(layer.param_count() + 1024 * 10 + 10, 13_322);
    }

    #[test]
    fn forward_matches_effective_weight() {
        let mut rng = seeded_rng(82);
        let mut layer = LowRankLayer::new(20, 12, 3, &mut rng);
        let x = Matrix::random_uniform(5, 20, 1.0, &mut rng);
        let y = layer.forward(&x, false);
        let expect = matmul_a_bt(&x, &layer.effective_weight());
        assert!(y.relative_error(&expect) < 1e-4);
    }

    #[test]
    fn effective_weight_has_low_rank() {
        // Every 2x2 minor spanning independent dyads of a rank-1 matrix is 0.
        let mut rng = seeded_rng(83);
        let layer = LowRankLayer::new(6, 6, 1, &mut rng);
        let w = layer.effective_weight();
        for i in 1..6 {
            for j in 1..6 {
                let det = w[(0, 0)] * w[(i, j)] - w[(0, j)] * w[(i, 0)];
                assert!(det.abs() < 1e-6, "rank > 1 detected at minor ({i},{j})");
            }
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = seeded_rng(84);
        let mut layer = LowRankLayer::new(6, 5, 2, &mut rng);
        let x = Matrix::random_uniform(3, 6, 1.0, &mut rng);
        let y = layer.forward(&x, true);
        let gx = layer.backward(&y.clone());
        let expect_gx = matmul(&y, &layer.effective_weight());
        assert!(gx.relative_error(&expect_gx) < 1e-4);
        bfly_nn::check_gradients(&mut layer, &x, 1e-3, 3e-2);
    }

    #[test]
    fn inference_path_is_bit_identical_to_eval_forward() {
        let mut rng = seeded_rng(85);
        let mut layer = LowRankLayer::new(20, 12, 3, &mut rng);
        let x = Matrix::random_uniform(5, 20, 1.0, &mut rng);
        let via_eval = layer.forward(&x, false);
        let mut scratch = Scratch::new();
        let via_inference = layer.forward_inference(&x, &mut scratch);
        assert_eq!(via_eval.as_slice(), via_inference.as_slice());
    }
}
