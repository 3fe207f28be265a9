//! Shared finite-difference gradient checking for layer tests.
//!
//! Every structured layer used to carry its own copy of the same
//! perturb-and-compare loop (butterfly, ortho, pixelfly, dense, conv, …),
//! which drifted in probe indices and tolerances. This module is the single
//! implementation they all call. It lives in the library rather than behind
//! `#[cfg(test)]` so layer tests in *other* crates can reuse it; it costs
//! nothing unless called.

use crate::layer::Layer;
use bfly_tensor::Matrix;

/// Probe loss `sum(y^2) / 2`, whose gradient with respect to `y` is `y`
/// itself — so a layer's analytic gradients can be produced by backpropagating
/// its own forward output.
fn probe_loss(layer: &mut dyn Layer, x: &Matrix) -> f64 {
    layer.forward(x, false).as_slice().iter().map(|v| (*v as f64) * (*v as f64) / 2.0).sum()
}

/// Checks every parameter's analytic gradient against central finite
/// differences at three probe indices per parameter (first, middle, last).
///
/// Runs one training-mode forward/backward with the probe loss
/// `sum(y^2) / 2` (so `dL/dy = y`), then for each probed value evaluates the
/// loss at `±eps` and asserts
/// `|analytic - numeric| < tol * max(|numeric|, 1)`.
///
/// # Panics
/// Panics (test-style assert) when a gradient disagrees with its finite
/// difference.
pub fn check_gradients(layer: &mut dyn Layer, x: &Matrix, eps: f32, tol: f32) {
    layer.zero_grad();
    let y = layer.forward(x, true);
    let _ = layer.backward(&y);
    let analytic: Vec<(String, Vec<f32>)> =
        layer.params().iter().map(|p| (p.name().to_string(), p.grad.clone())).collect();
    for (pi, (name, grads)) in analytic.iter().enumerate() {
        let len = grads.len();
        if len == 0 {
            continue;
        }
        let mut picks = vec![0, len / 2, len - 1];
        picks.dedup();
        for idx in picks {
            let orig = layer.params()[pi].value[idx];
            layer.params()[pi].value[idx] = orig + eps;
            let lp = probe_loss(layer, x);
            layer.params()[pi].value[idx] = orig - eps;
            let lm = probe_loss(layer, x);
            layer.params()[pi].value[idx] = orig;
            let numeric = ((lp - lm) / (2.0 * eps as f64)) as f32;
            let got = grads[idx];
            assert!(
                (got - numeric).abs() < tol * numeric.abs().max(1.0),
                "param {pi} ({name}) idx {idx}: analytic {got} vs numeric {numeric}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Dense;
    use bfly_tensor::seeded_rng;

    #[test]
    fn accepts_a_correct_layer() {
        let mut rng = seeded_rng(41);
        let mut layer = Dense::new(5, 3, &mut rng);
        let x = Matrix::random_uniform(4, 5, 1.0, &mut rng);
        check_gradients(&mut layer, &x, 1e-3, 2e-2);
    }

    #[test]
    #[should_panic(expected = "analytic")]
    fn rejects_a_corrupted_gradient() {
        use crate::param::Param;
        use bfly_tensor::LinOp;

        /// `y = w * x` elementwise, but backward reports a doubled gradient.
        struct BadLayer {
            w: Param,
            cached: Option<Matrix>,
        }
        impl Layer for BadLayer {
            fn forward(&mut self, input: &Matrix, train: bool) -> Matrix {
                if train {
                    self.cached = Some(input.clone());
                }
                let w = self.w.value[0];
                input.map(|x| w * x)
            }
            fn backward(&mut self, grad_output: &Matrix) -> Matrix {
                let x = self.cached.take().expect("forward first");
                let dw: f32 =
                    grad_output.as_slice().iter().zip(x.as_slice()).map(|(g, x)| g * x).sum();
                self.w.accumulate_grad(&[2.0 * dw]);
                let w = self.w.value[0];
                grad_output.map(|g| w * g)
            }
            fn params(&mut self) -> Vec<&mut Param> {
                vec![&mut self.w]
            }
            fn param_count(&self) -> usize {
                1
            }
            fn name(&self) -> &str {
                "bad"
            }
            fn trace(&self, _batch: usize) -> Vec<LinOp> {
                Vec::new()
            }
        }

        let mut layer = BadLayer { w: Param::new("w", vec![1.5]), cached: None };
        let x = Matrix::from_rows(&[&[1.0, -2.0, 0.5]]);
        check_gradients(&mut layer, &x, 1e-3, 2e-2);
    }
}
