//! Optimizers. The paper trains with SGD + momentum (Table 3).

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

    /// The paper's Table 3 configuration: lr = 0.001, momentum = 0.9.
    pub fn paper_default() -> Self {
        Self::new(0.001, 0.9)
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

/// Adam optimizer — not used by the paper's benchmark, provided for the
/// extension experiments (EXPERIMENTS.md ablations).
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    step: u64,
    moments: Vec<(Vec<f32>, Vec<f32>)>,
}

impl Adam {
    /// Creates an Adam optimizer with the usual defaults.
    pub fn new(lr: f32) -> Self {
        Self { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, step: 0, moments: Vec::new() }
    }

    /// Applies one Adam step. Parameter ordering must be stable across calls
    /// (true for `Sequential::params`).
    pub fn step(&mut self, params: &mut [&mut Param]) {
        if self.moments.len() != params.len() {
            self.moments =
                params.iter().map(|p| (vec![0.0; p.len()], vec![0.0; p.len()])).collect();
        }
        self.step += 1;
        let b1t = 1.0 - self.beta1.powi(self.step as i32);
        let b2t = 1.0 - self.beta2.powi(self.step as i32);
        for (p, (m, v)) in params.iter_mut().zip(&mut self.moments) {
            assert!(!p.is_frozen(), "Adam step on frozen (forward-only) parameter {}", p.name());
            for i in 0..p.value.len() {
                let g = p.grad[i];
                m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * g;
                v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * g * g;
                let mhat = m[i] / b1t;
                let vhat = v[i] / b2t;
                p.value[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
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
    fn adam_descends_a_quadratic() {
        let mut p = quadratic_param(3.0);
        let mut opt = Adam::new(0.1);
        for _ in 0..300 {
            p.zero_grad();
            let g = 2.0 * p.value[0];
            p.accumulate_grad(&[g]);
            opt.step(&mut [&mut p]);
        }
        assert!(p.value[0].abs() < 1e-2, "x = {}", p.value[0]);
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
