//! Whole-model offline compression: walk a trained dense MLP stack and
//! replace each affine layer whose butterfly fit clears a per-layer error
//! budget.
//!
//! The driver is data-free: it sees only the trained parameters (through
//! [`bfly_nn::DenseView`]) and reconstruction error, never the task. Layers
//! whose fit misses the budget — or where the factorization would not
//! actually save parameters, like a narrow classifier head — keep their
//! dense form, so a compressed model is always a valid drop-in for the
//! original. End-task accuracy deltas are measured by the callers
//! (`examples/compress_deploy.rs`, `bench_compress`), which hold the data.

use super::{compress_matrix, CompressAlgo, CompressError};
use crate::butterfly_layer::ButterflyLayer;
use bfly_nn::{Dense, Layer, Relu, Sequential, Tanh};
use bfly_tensor::{Matrix, WorkspaceRng};

/// Configuration for [`compress_model`].
#[derive(Debug, Clone)]
pub struct ModelCompressConfig {
    /// Fitting algorithm for every affine layer.
    pub algo: CompressAlgo,
    /// Per-layer error budget: a layer is replaced only when the fit's
    /// relative operator error is at or below this. `1.0` accepts any fit
    /// no worse than zeroing the layer; `0.0` demands exactness.
    pub max_operator_error: f32,
    /// Minimum parameter saving (`FitReport::compression`) a replacement
    /// must achieve. The default `0.0` keeps layers dense whenever the
    /// factorization would hold *more* parameters than the weight matrix
    /// (e.g. a 1024 → 10 classifier head).
    pub min_compression: f64,
}

impl Default for ModelCompressConfig {
    fn default() -> Self {
        Self { algo: CompressAlgo::default(), max_operator_error: 1.0, min_compression: 0.0 }
    }
}

/// Why a layer did or did not get compressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerDecision {
    /// Replaced by a [`ButterflyLayer`] built from the fit.
    Compressed,
    /// The fit's operator error exceeded
    /// [`ModelCompressConfig::max_operator_error`]; dense form kept.
    ErrorOverBudget,
    /// The factorization would not save enough parameters
    /// ([`ModelCompressConfig::min_compression`]); dense form kept.
    NoParameterSaving,
    /// Not an affine layer (activation etc.) — copied through unchanged.
    Passthrough,
}

/// Per-layer record of a [`compress_model`] run.
#[derive(Debug, Clone)]
pub struct LayerCompression {
    /// Position in the original stack.
    pub index: usize,
    /// `Layer::name()` of the original layer.
    pub name: String,
    /// What happened to it.
    pub decision: LayerDecision,
    /// Relative operator error of the butterfly fit (0 for passthrough
    /// layers, which are reproduced exactly).
    pub operator_error: f32,
    /// Parameters of the original layer.
    pub dense_params: usize,
    /// Parameters of the layer in the output stack.
    pub compressed_params: usize,
}

/// Outcome of [`compress_model`]: the rebuilt stack plus the audit trail.
pub struct ModelCompression {
    /// The compressed model — drop-in for the original (same input/output
    /// shapes), trainable for fine-tuning.
    pub model: Sequential,
    /// One record per layer of the original stack.
    pub layers: Vec<LayerCompression>,
    /// Total parameters of the original stack.
    pub dense_params: usize,
    /// Total parameters of the compressed stack.
    pub compressed_params: usize,
}

impl std::fmt::Debug for ModelCompression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelCompression")
            .field("layers", &self.layers)
            .field("dense_params", &self.dense_params)
            .field("compressed_params", &self.compressed_params)
            .finish_non_exhaustive()
    }
}

impl ModelCompression {
    /// Whole-model parameter compression ratio `dense / compressed`
    /// (> 1 when the rewrite saved parameters).
    pub fn compression_ratio(&self) -> f64 {
        self.dense_params as f64 / self.compressed_params.max(1) as f64
    }

    /// Number of layers actually replaced by butterfly form.
    pub fn compressed_layer_count(&self) -> usize {
        self.layers.iter().filter(|l| l.decision == LayerDecision::Compressed).count()
    }

    /// Largest per-layer fit error among the *replaced* layers (0.0 when
    /// nothing was replaced) — the budget actually spent.
    pub fn worst_layer_error(&self) -> f32 {
        self.layers
            .iter()
            .filter(|l| l.decision == LayerDecision::Compressed)
            .map(|l| l.operator_error)
            .fold(0.0, f32::max)
    }
}

/// Rebuilds a stateless layer the driver recognises by name.
fn rebuild_passthrough(name: &str) -> Result<Box<dyn Layer>, CompressError> {
    match name {
        "relu" => Ok(Box::new(Relu::new())),
        "tanh" => Ok(Box::new(Tanh::new())),
        other => Err(CompressError::UnsupportedLayer(other.to_string())),
    }
}

/// Compresses a trained dense stack layer-by-layer.
///
/// Every affine layer (one exposing a [`bfly_nn::DenseView`]) is fitted
/// with `config.algo`; the fit is accepted when it clears both the error
/// budget and the parameter-saving floor, otherwise the dense layer is
/// rebuilt verbatim from its trained weights. Non-affine layers must be
/// recognised stateless activations (`relu` / `tanh`); anything else is a
/// typed [`CompressError::UnsupportedLayer`].
///
/// The RNG only feeds [`CompressAlgo::Gradient`] fits; with the default
/// hierarchical algorithm the walk is fully deterministic.
pub fn compress_model(
    model: &Sequential,
    config: &ModelCompressConfig,
    rng: &mut WorkspaceRng,
) -> Result<ModelCompression, CompressError> {
    let mut out = Sequential::new();
    let mut layers = Vec::with_capacity(model.len());
    for (index, layer) in model.layers().iter().enumerate() {
        let dense_params = layer.param_count();
        let record = match layer.dense_view() {
            Some(view) => {
                let target = Matrix::from_vec(view.out_dim, view.in_dim, view.weight);
                let report = compress_matrix(&target, &config.algo, rng)?;
                let accept = report.operator_error <= config.max_operator_error
                    && report.compression >= config.min_compression;
                if accept {
                    let replacement = ButterflyLayer::from_butterfly(
                        view.in_dim,
                        view.out_dim,
                        report.butterfly,
                        view.bias.to_vec(),
                    );
                    let compressed_params = replacement.param_count();
                    out = out.push(Box::new(replacement));
                    LayerCompression {
                        index,
                        name: layer.name().to_string(),
                        decision: LayerDecision::Compressed,
                        operator_error: report.operator_error,
                        dense_params,
                        compressed_params,
                    }
                } else {
                    let decision = if report.operator_error > config.max_operator_error {
                        LayerDecision::ErrorOverBudget
                    } else {
                        LayerDecision::NoParameterSaving
                    };
                    out = out.push(Box::new(Dense::from_parts(target, view.bias.to_vec())));
                    LayerCompression {
                        index,
                        name: layer.name().to_string(),
                        decision,
                        operator_error: report.operator_error,
                        dense_params,
                        compressed_params: dense_params,
                    }
                }
            }
            None => {
                out = out.push(rebuild_passthrough(layer.name())?);
                LayerCompression {
                    index,
                    name: layer.name().to_string(),
                    decision: LayerDecision::Passthrough,
                    operator_error: 0.0,
                    dense_params,
                    compressed_params: dense_params,
                }
            }
        };
        layers.push(record);
    }
    let dense_params = layers.iter().map(|l| l.dense_params).sum();
    let compressed_params = layers.iter().map(|l| l.compressed_params).sum();
    Ok(ModelCompression { model: out, layers, dense_params, compressed_params })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::butterfly::Butterfly;
    use bfly_nn::build_dense_mlp;
    use bfly_tensor::{seeded_rng, Scratch};

    #[test]
    fn compresses_hidden_layers_and_keeps_the_head_dense() {
        let mut rng = seeded_rng(91);
        let model = build_dense_mlp(64, &[64, 64], 10, &mut rng);
        let result =
            compress_model(&model, &ModelCompressConfig::default(), &mut rng).expect("supported");
        assert_eq!(result.layers.len(), 5);
        assert_eq!(result.layers[0].decision, LayerDecision::Compressed);
        assert_eq!(result.layers[1].decision, LayerDecision::Passthrough);
        assert_eq!(result.layers[2].decision, LayerDecision::Compressed);
        // 64 → 10 head: butterfly would need 2·64·6 = 768 > 640 weights.
        assert_eq!(result.layers[4].decision, LayerDecision::NoParameterSaving);
        assert!(result.compression_ratio() > 2.0, "ratio {}", result.compression_ratio());
        assert_eq!(result.compressed_params, result.model.param_count());
        assert_eq!(result.dense_params, model.param_count());
    }

    #[test]
    fn zero_error_budget_keeps_everything_dense_and_bit_identical() {
        let mut rng = seeded_rng(92);
        let model = build_dense_mlp(32, &[32], 4, &mut rng);
        let config = ModelCompressConfig { max_operator_error: 0.0, ..Default::default() };
        let result = compress_model(&model, &config, &mut rng).expect("supported");
        assert_eq!(result.compressed_layer_count(), 0);
        assert_eq!(result.compression_ratio(), 1.0);
        let x = Matrix::random_uniform(5, 32, 1.0, &mut rng);
        let mut scratch = Scratch::new();
        let original = model.forward_inference(&x, &mut scratch);
        let rebuilt = result.model.forward_inference(&x, &mut scratch);
        assert_eq!(original.as_slice(), rebuilt.as_slice());
    }

    #[test]
    fn butterfly_representable_weights_compress_near_exactly() {
        // Plant a butterfly-representable weight in a square hidden layer:
        // the hierarchical sweep identifies it and the compressed model's
        // outputs match the dense original to f32 noise.
        let mut rng = seeded_rng(93);
        let teacher = Butterfly::random(16, &mut rng);
        let planted = teacher.materialize();
        let mut dense = Dense::new(16, 16, &mut rng);
        dense.set_weight(&planted);
        let model = Sequential::new().push(Box::new(dense)).push(Box::new(Relu::new()));
        let config = ModelCompressConfig { max_operator_error: 1e-3, ..Default::default() };
        let result = compress_model(&model, &config, &mut rng).expect("supported");
        assert_eq!(result.layers[0].decision, LayerDecision::Compressed);
        assert!(result.worst_layer_error() < 1e-4);
        let x = Matrix::random_uniform(4, 16, 1.0, &mut rng);
        let mut scratch = Scratch::new();
        let original = model.forward_inference(&x, &mut scratch);
        let compressed = result.model.forward_inference(&x, &mut scratch);
        assert!(original.relative_error(&compressed) < 1e-4);
    }

    #[test]
    fn unsupported_layers_are_typed_errors() {
        let mut rng = seeded_rng(94);
        let model = Sequential::new().push(Box::new(bfly_nn::GlobalAvgPool::new(1, 2, 2)));
        let err = compress_model(&model, &ModelCompressConfig::default(), &mut rng)
            .expect_err("pool layers are not rebuildable");
        match err {
            CompressError::UnsupportedLayer(name) => assert!(!name.is_empty()),
            other => panic!("expected UnsupportedLayer, got {other:?}"),
        }
    }
}
