//! Abstract linear-algebra operation descriptors ("op traces").
//!
//! The performance simulators in this workspace do not execute layer math;
//! they consume a *trace* of the operations a layer performs per batch and
//! price each operation with a device-specific cost model. This enum is the
//! shared vocabulary: `bfly-core` layers emit `LinOp` traces, and
//! `bfly-ipu` / `bfly-gpu` translate them into compute sets / kernels.

use serde::{Deserialize, Serialize};

/// One abstract device operation with enough shape information to price it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LinOp {
    /// Dense matmul `C(m x n) = A(m x k) * B(k x n)`.
    MatMul {
        /// Rows of A and C.
        m: usize,
        /// Inner dimension.
        k: usize,
        /// Columns of B and C.
        n: usize,
    },
    /// Unstructured sparse x dense multiply with `nnz` nonzeros in the sparse
    /// operand (CSR semantics).
    SpMM {
        /// Rows of the sparse operand.
        m: usize,
        /// Columns of the sparse operand / rows of the dense one.
        k: usize,
        /// Columns of the dense operand.
        n: usize,
        /// Nonzeros in the sparse operand.
        nnz: usize,
    },
    /// Block-sparse x dense multiply: `nnz_blocks` dense blocks of
    /// `block x block` (the pixelfly access pattern).
    BlockSpMM {
        /// Rows of the block-sparse operand.
        m: usize,
        /// Columns of the block-sparse operand.
        k: usize,
        /// Columns of the dense operand.
        n: usize,
        /// Side length of each dense block.
        block: usize,
        /// Number of stored blocks.
        nnz_blocks: usize,
    },
    /// One butterfly-factor application: `pairs` learnable 2x2 twiddles,
    /// each applied across `batch` batch elements (8 FLOPs per pair per
    /// element). Distinct from [`LinOp::SpMM`] because frameworks execute it
    /// as many tiny strided multiply-adds, not as a tuned sparse kernel —
    /// the distinction that drives the paper's Fig 6.
    Twiddle {
        /// Number of 2x2 twiddles in the factor (`n/2`).
        pairs: usize,
        /// Batch elements each twiddle processes.
        batch: usize,
    },
    /// Element-wise map over `n` elements costing `flops_per_elem` each
    /// (ReLU = 1, diagonal scale = 1, residual add = 1, ...).
    Elementwise {
        /// Number of elements.
        n: usize,
        /// FLOPs per element.
        flops_per_elem: u32,
    },
    /// Gather/permutation of `rows` vectors of `width` elements (pure data
    /// movement, no FLOPs).
    Permute {
        /// Number of vectors permuted.
        rows: usize,
        /// Elements per vector.
        width: usize,
    },
    /// Batched radix-2 FFT of length `n` applied to `batch` vectors.
    Fft {
        /// Transform length (power of two).
        n: usize,
        /// Number of independent transforms.
        batch: usize,
    },
    /// Batched fast Walsh-Hadamard transform.
    Fwht {
        /// Transform length (power of two).
        n: usize,
        /// Number of independent transforms.
        batch: usize,
    },
    /// Raw data copy of `bytes` bytes (host/device staging or inter-tile).
    Copy {
        /// Bytes moved.
        bytes: u64,
    },
}

impl LinOp {
    /// FLOPs performed by this operation (multiply-add counted as 2).
    pub fn flops(&self) -> f64 {
        match *self {
            LinOp::MatMul { m, k, n } => 2.0 * m as f64 * k as f64 * n as f64,
            LinOp::SpMM { n, nnz, .. } => 2.0 * nnz as f64 * n as f64,
            LinOp::BlockSpMM { n, block, nnz_blocks, .. } => {
                2.0 * nnz_blocks as f64 * (block * block) as f64 * n as f64
            }
            LinOp::Twiddle { pairs, batch } => 8.0 * pairs as f64 * batch as f64,
            LinOp::Elementwise { n, flops_per_elem } => n as f64 * flops_per_elem as f64,
            LinOp::Permute { .. } | LinOp::Copy { .. } => 0.0,
            // 5 n log2 n is the standard radix-2 FFT operation count;
            // FWHT is additions only: n log2 n.
            LinOp::Fft { n, batch } => 5.0 * (n as f64) * (n as f64).log2().max(0.0) * batch as f64,
            LinOp::Fwht { n, batch } => (n as f64) * (n as f64).log2().max(0.0) * batch as f64,
        }
    }

    /// Minimum bytes that must move through memory for this operation,
    /// assuming f32 operands and a read-once/write-once ideal.
    pub fn min_bytes(&self) -> u64 {
        const W: u64 = 4;
        match *self {
            LinOp::MatMul { m, k, n } => W * (m * k + k * n + m * n) as u64,
            LinOp::SpMM { m, k, n, nnz } => {
                // values + column indices + row pointers + dense in/out.
                W * (2 * nnz + m + 1) as u64 + W * (k * n + m * n) as u64
            }
            LinOp::BlockSpMM { m, k, n, block, nnz_blocks } => {
                W * (nnz_blocks * block * block) as u64 + W * (k * n + m * n) as u64
            }
            LinOp::Twiddle { pairs, batch } => {
                // read + write both halves across the batch, plus twiddles.
                W * (4 * pairs * batch + 4 * pairs) as u64
            }
            LinOp::Elementwise { n, .. } => 2 * W * n as u64,
            LinOp::Permute { rows, width } => 2 * W * (rows * width) as u64,
            LinOp::Fft { n, batch } => 4 * W * (n * batch) as u64, // complex in+out
            LinOp::Fwht { n, batch } => 2 * W * (n * batch) as u64,
            LinOp::Copy { bytes } => bytes,
        }
    }
}

/// Total FLOPs of a trace.
pub fn trace_flops(trace: &[LinOp]) -> f64 {
    trace.iter().map(LinOp::flops).sum()
}

/// Total minimum bytes of a trace.
pub fn trace_bytes(trace: &[LinOp]) -> u64 {
    trace.iter().map(LinOp::min_bytes).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_flops_formula() {
        let op = LinOp::MatMul { m: 4, k: 5, n: 6 };
        assert_eq!(op.flops(), 240.0);
        assert_eq!(op.min_bytes(), 4 * (20 + 30 + 24));
    }

    #[test]
    fn spmm_flops_scale_with_nnz() {
        let dense = LinOp::MatMul { m: 100, k: 100, n: 100 };
        let sparse = LinOp::SpMM { m: 100, k: 100, n: 100, nnz: 100 }; // 99% sparse
        assert!((sparse.flops() / dense.flops() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn block_spmm_equals_spmm_at_full_blocks() {
        let blocked = LinOp::BlockSpMM { m: 64, k: 64, n: 32, block: 8, nnz_blocks: 16 };
        let flat = LinOp::SpMM { m: 64, k: 64, n: 32, nnz: 16 * 64 };
        assert_eq!(blocked.flops(), flat.flops());
    }

    #[test]
    fn pure_movement_ops_have_zero_flops() {
        assert_eq!(LinOp::Permute { rows: 10, width: 10 }.flops(), 0.0);
        assert_eq!(LinOp::Copy { bytes: 1024 }.flops(), 0.0);
        assert!(LinOp::Copy { bytes: 1024 }.min_bytes() == 1024);
    }

    #[test]
    fn fft_cheaper_than_dense_for_large_n() {
        let n = 1024;
        let fft = LinOp::Fft { n, batch: 1 };
        let mm = LinOp::MatMul { m: n, k: n, n: 1 };
        assert!(fft.flops() < mm.flops());
    }

    #[test]
    fn trace_sums() {
        let trace =
            [LinOp::MatMul { m: 2, k: 2, n: 2 }, LinOp::Elementwise { n: 4, flops_per_elem: 1 }];
        assert_eq!(trace_flops(&trace), 16.0 + 4.0);
        assert!(trace_bytes(&trace) > 0);
    }
}
