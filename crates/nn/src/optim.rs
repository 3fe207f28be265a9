//! The optimizer: SGD with momentum, as the paper trains (Table 3).

use crate::param::Param;

/// Stochastic gradient descent with classical momentum:
/// `v <- mu * v + g ; w <- w - lr * v`.
#[derive(Debug, Clone, Copy)]
pub struct Sgd {
    /// Learning rate (Table 3: 0.001).
    pub lr: f32,
    /// Momentum coefficient (Table 3: 0.9).
    pub momentum: f32,
}

impl Sgd {
    /// Creates an SGD optimizer.
    pub fn new(lr: f32, momentum: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        Self { lr, momentum }
    }

    /// Applies one update step to the given parameters using their
    /// accumulated gradients, then leaves the gradients untouched (call
    /// `zero_grad` separately, mirroring the usual framework contract).
    ///
    /// # Panics
    /// Panics on a frozen parameter, or one whose gradient or momentum
    /// buffer is not as long as its values.
    pub fn step(&self, params: &mut [&mut Param]) {
        for p in params.iter_mut() {
            assert!(!p.is_frozen(), "SGD step on frozen (forward-only) parameter {}", p.name());
            assert_eq!(p.grad.len(), p.value.len(), "SGD step: {} gradient length", p.name());
            assert_eq!(p.velocity.len(), p.value.len(), "SGD step: {} momentum length", p.name());
            for ((w, vel), g) in p.value.iter_mut().zip(&mut p.velocity).zip(&p.grad) {
                let v = self.momentum * *vel + g;
                *vel = v;
                *w -= self.lr * v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_param(at: f32) -> Param {
        Param::new("x", vec![at])
    }

    #[test]
    fn sgd_descends_a_quadratic() {
        // Minimise f(x) = x^2 with df = 2x.
        let mut p = quadratic_param(5.0);
        let opt = Sgd::new(0.1, 0.0);
        for _ in 0..100 {
            p.zero_grad();
            let g = 2.0 * p.value[0];
            p.accumulate_grad(&[g]);
            opt.step(&mut [&mut p]);
        }
        assert!(p.value[0].abs() < 1e-3, "x = {}", p.value[0]);
    }

    #[test]
    fn momentum_accelerates_convergence() {
        let run = |momentum: f32| -> usize {
            let mut p = quadratic_param(5.0);
            let opt = Sgd::new(0.02, momentum);
            for step in 0..2000 {
                p.zero_grad();
                let g = 2.0 * p.value[0];
                p.accumulate_grad(&[g]);
                opt.step(&mut [&mut p]);
                if p.value[0].abs() < 1e-3 {
                    return step;
                }
            }
            2000
        };
        assert!(run(0.9) < run(0.0), "momentum should converge faster");
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn rejects_zero_lr() {
        let _ = Sgd::new(0.0, 0.9);
    }

    #[test]
    #[should_panic(expected = "SGD step: x gradient length")]
    fn sgd_rejects_a_gradient_of_the_wrong_length() {
        let mut p = Param::new("x", vec![1.0, 2.0, 3.0]);
        p.grad = vec![0.5; 2];
        Sgd::new(0.1, 0.9).step(&mut [&mut p]);
    }
}
