//! # bfly-nn
//!
//! A deliberately small neural-network framework: layers with explicit
//! forward/backward, softmax cross-entropy, SGD with momentum, and a training
//! loop reproducing the paper's single-hidden-layer (SHL) benchmark
//! methodology (§4.2 / Table 3). Structured layers from `bfly-core` plug in
//! through the [`Layer`] trait.

#![warn(missing_docs)]

pub mod activation;
pub mod dense;
pub mod gradcheck;
pub mod layer;
pub mod loss;
pub mod mlp;
pub mod optim;
pub mod param;
pub mod train;

pub use activation::{Relu, Tanh};
pub use dense::Dense;
pub use gradcheck::check_gradients;
pub use layer::{DenseView, Layer, Sequential};
pub use loss::{accuracy, softmax, softmax_cross_entropy, LossOutput};
pub use mlp::{build_dense_mlp, dense_mlp_param_count};
pub use optim::Sgd;
pub use param::Param;
pub use train::{evaluate, fit, EpochStats, TrainConfig, TrainReport};
