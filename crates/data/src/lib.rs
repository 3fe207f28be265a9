//! # bfly-data
//!
//! Datasets and workloads for the butterfly-factorization reproduction:
//! synthetic CIFAR-10-like / MNIST-like classification data (the real
//! datasets are unavailable in this environment — see `synth` module docs for
//! the substitution rationale), an in-place train/val/test split that never
//! holds the dataset twice, and the matrix-multiplication workload
//! definitions shared by the Table 2 / Fig 4 / Fig 6 harnesses.

#![warn(missing_docs)]

pub mod dataset;
pub mod synth;
pub mod workload;

pub use dataset::{split, Dataset, Split};
pub use synth::{generate, SynthSpec};
pub use workload::{skew_sweep, square_sweep, MatmulProblem, RateSegment, TrafficTrace};
