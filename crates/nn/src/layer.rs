//! The layer abstraction and sequential container.

use crate::param::Param;
use bfly_tensor::{LinOp, Matrix, Scratch};

/// Read-only view of a layer that computes a dense affine map
/// `y = x Wᵀ + b`, exposed without downcasting.
///
/// Offline compression drivers walk a [`Sequential`] and ask each layer for
/// this view: layers that are plain affine maps (e.g. [`crate::Dense`])
/// return their parameters, everything else returns `None` from
/// [`Layer::dense_view`].
pub struct DenseView<'a> {
    /// Input dimensionality.
    pub in_dim: usize,
    /// Output dimensionality.
    pub out_dim: usize,
    /// Row-major `out_dim × in_dim` weight, a copy unpacked from whatever
    /// layout the layer stores it in.
    pub weight: Vec<f32>,
    /// `out_dim` bias.
    pub bias: &'a [f32],
}

/// A differentiable layer with owned parameters.
///
/// The calling convention is define-by-run without a graph: `forward` caches
/// whatever it needs (when `train` is true), and the next `backward` call
/// consumes that cache, accumulates parameter gradients, and returns the
/// gradient with respect to the layer input. Layers are therefore *not*
/// reentrant across interleaved forward calls — the training loop runs
/// strictly forward-then-backward per batch, which is all the paper's SHL
/// benchmark needs.
///
/// `Send + Sync` are supertraits so model stacks can move into serving
/// worker threads and — for the lock-free inference path — be shared across
/// them behind an `Arc`; every layer is plain owned data, so this costs
/// nothing.
pub trait Layer: Send + Sync {
    /// Computes the layer output for a batch (one sample per row).
    fn forward(&mut self, input: &Matrix, train: bool) -> Matrix;

    /// Lock-free forward pass over an immutable receiver.
    ///
    /// This is the serving hot path: the model is shared read-only across
    /// worker threads and every caller supplies its own [`Scratch`] for
    /// intermediates, so no lock or interior mutability is needed.
    /// Implementations must be bit-identical to `forward(input, false)`.
    ///
    /// Layers whose forward reads derived storage (block-sparse data synced
    /// from a `Param`) require that storage to be in sync, which holds at
    /// construction and after any `forward` call; butterfly-style layers read
    /// their parameter values directly and have no such requirement.
    ///
    /// The default panics: layers served from a frozen model must override
    /// it, while training-only layers need not.
    fn forward_inference(&self, _input: &Matrix, _scratch: &mut Scratch) -> Matrix {
        panic!("{} does not implement the lock-free inference path", self.name());
    }

    /// Backpropagates `grad_output` (dL/d output), accumulating parameter
    /// gradients and returning dL/d input.
    ///
    /// # Panics
    /// Implementations may panic if called without a preceding training-mode
    /// `forward`.
    fn backward(&mut self, grad_output: &Matrix) -> Matrix;

    /// Mutable access to all learnable parameters.
    fn params(&mut self) -> Vec<&mut Param>;

    /// Immutable parameter count (the `N_Params` reported in Table 4).
    fn param_count(&self) -> usize;

    /// Short layer name for reports.
    fn name(&self) -> &str;

    /// Emits the abstract device-op trace of one *forward* pass with the
    /// given batch size, for the performance simulators.
    fn trace(&self, batch: usize) -> Vec<LinOp>;

    /// Clears all parameter gradients.
    fn zero_grad(&mut self) {
        for p in self.params() {
            p.zero_grad();
        }
    }

    /// Converts the layer to forward-only (inference) mode: every parameter's
    /// gradient and momentum buffer is released, cutting parameter memory to
    /// a third. `forward(_, false)` results are unchanged; `backward` and
    /// optimizer steps must not be called afterwards.
    fn freeze(&mut self) {
        for p in self.params() {
            p.freeze();
        }
    }

    /// Bytes held by training-only state (gradients + momentum) across all
    /// parameters. Zero after [`Layer::freeze`].
    fn train_state_bytes(&mut self) -> usize {
        self.params().iter().map(|p| p.train_state_bytes()).sum()
    }

    /// Exposes the layer's parameters as a dense affine map, when the layer
    /// *is* one. Default: `None` (structured, stateless, and convolutional
    /// layers are not inspectable this way).
    fn dense_view(&self) -> Option<DenseView<'_>> {
        None
    }
}

/// A stack of layers applied in order.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Self { layers: Vec::new() }
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: Box<dyn Layer>) -> Self {
        self.layers.push(layer);
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the stack has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Access to the contained layers.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Matrix, train: bool) -> Matrix {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, train);
        }
        x
    }

    fn forward_inference(&self, input: &Matrix, scratch: &mut Scratch) -> Matrix {
        let mut layers = self.layers.iter();
        let Some(first) = layers.next() else {
            return input.clone();
        };
        let mut x = first.forward_inference(input, scratch);
        for layer in layers {
            x = layer.forward_inference(&x, scratch);
        }
        x
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    fn params(&mut self) -> Vec<&mut Param> {
        self.layers.iter_mut().flat_map(|l| l.params()).collect()
    }

    fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    fn name(&self) -> &str {
        "sequential"
    }

    fn trace(&self, batch: usize) -> Vec<LinOp> {
        self.layers.iter().flat_map(|l| l.trace(batch)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Relu;
    use crate::dense::Dense;
    use bfly_tensor::seeded_rng;

    #[test]
    fn sequential_chains_forward() {
        let mut rng = seeded_rng(1);
        let mut model = Sequential::new()
            .push(Box::new(Dense::new(4, 3, &mut rng)))
            .push(Box::new(Relu::new()))
            .push(Box::new(Dense::new(3, 2, &mut rng)));
        let x = Matrix::filled(5, 4, 0.3);
        let y = model.forward(&x, false);
        assert_eq!(y.shape(), (5, 2));
        assert_eq!(model.param_count(), 4 * 3 + 3 + 3 * 2 + 2);
    }

    #[test]
    fn sequential_backward_returns_input_grad_shape() {
        let mut rng = seeded_rng(2);
        let mut model = Sequential::new()
            .push(Box::new(Dense::new(6, 4, &mut rng)))
            .push(Box::new(Relu::new()));
        let x = Matrix::filled(3, 6, 0.1);
        let y = model.forward(&x, true);
        let g = model.backward(&Matrix::filled(y.rows(), y.cols(), 1.0));
        assert_eq!(g.shape(), x.shape());
    }

    #[test]
    fn trace_concatenates_layer_traces() {
        let mut rng = seeded_rng(3);
        let model = Sequential::new()
            .push(Box::new(Dense::new(4, 4, &mut rng)))
            .push(Box::new(Dense::new(4, 2, &mut rng)));
        let trace = model.trace(8);
        assert_eq!(trace.len(), 2);
    }
}
