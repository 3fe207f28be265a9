//! # bfly-core
//!
//! The paper's primary contribution: **butterfly factorizations as
//! memory-reducing replacements for dense layers**, targeted at
//! memory-constrained MIMD accelerators.
//!
//! Contents:
//! - [`butterfly`] — the `T = B P` factorization of Eq. 3: `log2 n` sparse
//!   factors with learnable 2x2 twiddles, `O(n log n)` apply and storage;
//! - [`butterfly_layer`] — the factorization as a trainable `nn.Linear`
//!   replacement with exact analytic gradients, generic over the
//!   parametrization of its 2x2 blocks (free twiddles, or the rotations of
//!   [`ortho`]), and the butterfly's device-op trace;
//! - [`block_sparse`] / [`pixelfly`] — pixelated butterfly (flat block
//!   butterfly + low-rank term), including the power-of-two restrictions the
//!   paper hits on MNIST;
//! - [`baselines`] — Fastfood, Circulant and Low-rank comparison methods
//!   with the exact Table 4 parameter budgets;
//! - [`shl`] — the single-hidden-layer benchmark model builder.
//!
//! Performance characterisation on the simulated IPU/GPU lives in
//! `bfly-ipu` / `bfly-gpu`; those crates consume the `LinOp` traces emitted
//! by each layer's `trace` method.

#![warn(missing_docs)]

pub mod baselines;
pub mod block_sparse;
pub mod butterfly;
pub mod butterfly_layer;
pub mod compress;
pub mod conv_butterfly;
pub mod kernels;
pub mod ortho;
pub mod pixelfly;
pub mod shl;

pub use baselines::{CirculantLayer, FastfoodLayer, LowRankLayer, PrunedDenseLayer};
pub use block_sparse::BlockSparseMatrix;
pub use butterfly::{Butterfly, ButterflyFactor};
pub use butterfly_layer::{butterfly_trace, ButterflyLayer};
pub use compress::{
    compress_matrix, compress_model, fit_butterfly, fit_butterfly_hierarchical, CompressAlgo,
    CompressError, FitConfig, FitPerm, FitReport, HierarchicalConfig, LayerCompression,
    LayerDecision, ModelCompressConfig, ModelCompression,
};
pub use conv_butterfly::ButterflyConv1x1;
pub use kernels::{
    apply_rotation_stage, apply_twiddle_stage, fused_backward, fused_block_backward,
    fused_block_forward, fused_block_forward_train, fused_forward, fused_forward_train, AngleStage,
    BlockCsr, BlockGrads, LowRankRef, StageKernel, TwiddleStage,
};
pub use ortho::{OrthoButterfly, OrthoButterflyLayer};
pub use pixelfly::{flat_butterfly_mask, PixelflyConfig, PixelflyError, PixelflyLayer};
pub use shl::{build_shl, build_shl_inference, compression_percent, shl_param_count, Method};
