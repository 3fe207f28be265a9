//! Learnable parameter tensors.

/// A flat learnable parameter buffer with its gradient and momentum state.
///
/// Layers own their `Param`s; the optimizer visits them through
/// [`crate::layer::Layer::params`]. Keeping the momentum buffer inside the
/// parameter (rather than in the optimizer) makes optimizer state survive
/// re-borrowing the layer stack every step without any keying scheme.
#[derive(Debug, Clone)]
pub struct Param {
    name: String,
    /// Current parameter values.
    pub value: Vec<f32>,
    /// Accumulated gradient (same length as `value`; empty when frozen).
    pub grad: Vec<f32>,
    /// SGD momentum buffer (same length as `value`; empty when frozen).
    pub velocity: Vec<f32>,
    frozen: bool,
}

impl Param {
    /// Creates a parameter from initial values.
    pub fn new(name: impl Into<String>, value: Vec<f32>) -> Self {
        let n = value.len();
        Self { name: name.into(), value, grad: vec![0.0; n], velocity: vec![0.0; n], frozen: false }
    }

    /// Releases the gradient and momentum buffers, converting the parameter
    /// to forward-only (inference) mode. Idempotent; not reversible.
    pub fn freeze(&mut self) {
        self.grad = Vec::new();
        self.velocity = Vec::new();
        self.frozen = true;
    }

    /// True when the parameter is forward-only (no training buffers).
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Bytes held by the training-only buffers (gradient + momentum).
    /// Zero after [`Param::freeze`] — this is the saving inference mode buys.
    pub fn train_state_bytes(&self) -> usize {
        (self.grad.len() + self.velocity.len()) * std::mem::size_of::<f32>()
    }

    /// Human-readable parameter name (for debugging and reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// True when the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.iter_mut().for_each(|g| *g = 0.0);
    }

    /// Accumulates `delta` into the gradient buffer.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn accumulate_grad(&mut self, delta: &[f32]) {
        assert!(!self.frozen, "accumulate_grad on frozen (forward-only) parameter {}", self.name);
        assert_eq!(delta.len(), self.grad.len(), "gradient length mismatch for {}", self.name);
        for (g, d) in self.grad.iter_mut().zip(delta) {
            *g += d;
        }
    }

    /// Borrows the values and the gradient buffer apart, so a backward
    /// kernel can read the one while it accumulates into the other.
    ///
    /// # Panics
    /// Panics on a frozen parameter, as [`Param::accumulate_grad`] does.
    pub fn value_and_grad(&mut self) -> (&[f32], &mut [f32]) {
        assert!(!self.frozen, "backward into frozen (forward-only) parameter {}", self.name);
        (&self.value, &mut self.grad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_param_has_zero_grad_and_velocity() {
        let p = Param::new("w", vec![1.0, 2.0]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.grad, vec![0.0, 0.0]);
        assert_eq!(p.velocity, vec![0.0, 0.0]);
    }

    #[test]
    fn accumulate_then_zero() {
        let mut p = Param::new("w", vec![0.0; 3]);
        p.accumulate_grad(&[1.0, 2.0, 3.0]);
        p.accumulate_grad(&[1.0, 1.0, 1.0]);
        assert_eq!(p.grad, vec![2.0, 3.0, 4.0]);
        p.zero_grad();
        assert_eq!(p.grad, vec![0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "gradient length mismatch")]
    fn mismatched_grad_panics() {
        let mut p = Param::new("w", vec![0.0; 2]);
        p.accumulate_grad(&[1.0]);
    }

    #[test]
    fn frozen_param_holds_no_training_state() {
        let mut p = Param::new("w", vec![1.0; 8]);
        assert_eq!(p.train_state_bytes(), 8 * 2 * 4);
        p.freeze();
        assert!(p.is_frozen());
        assert_eq!(p.train_state_bytes(), 0);
        assert_eq!(p.grad.capacity(), 0);
        assert_eq!(p.velocity.capacity(), 0);
        assert_eq!(p.value, vec![1.0; 8], "freezing must not touch values");
    }

    #[test]
    #[should_panic(expected = "frozen")]
    fn frozen_param_rejects_gradients() {
        let mut p = Param::new("w", vec![0.0; 2]);
        p.freeze();
        p.accumulate_grad(&[1.0, 1.0]);
    }
}
