//! # bfly-tensor
//!
//! Dense and sparse linear algebra kernels for the butterfly-factorization
//! workspace: row-major [`Matrix`], CSR/COO sparse formats, three tiers of
//! matmul kernel (naive / blocked / row-wise axpy; the offline `rayon` shim
//! runs them all on one thread), the panel-major `Dense` weight layout and
//! its SIMD forward kernel, a radix-2 FFT, the fast Walsh-Hadamard
//! transform, permutations, and deterministic RNG plumbing.
//!
//! Everything is `f32` (matching the FP32 configurations benchmarked in the
//! paper) with `f64` accumulators only where numerical-stability tests need
//! them.

#![warn(missing_docs)]

pub mod dct;
pub mod fft;
pub mod fwht;
pub mod matmul;
pub mod matrix;
pub mod ops;
pub mod panel;
pub mod perm;
pub mod rng;
pub mod scratch;
pub mod sparse;

pub use dct::{dct2, dct2_ortho, dct_matrix};
pub use fft::{fft, fft_real, ifft, Complex};
pub use fwht::{fwht_in_place, fwht_normalized};
pub use matmul::{matmul, matmul_blocked, matmul_naive, matvec, MatmulKind};
pub use matrix::Matrix;
pub use ops::LinOp;
pub use perm::Permutation;
pub use rng::{derived_rng, seeded_rng, WorkspaceRng};
pub use scratch::Scratch;
pub use sparse::{Coo, Csr};
