//! Kernel cost model: roofline (compute vs memory bound) plus per-kernel
//! launch overhead, with efficiency curves calibrated to the paper's Table 2
//! and Fig 4/6 measurements.

use crate::spec::GpuSpec;
use bfly_tensor::LinOp;
use serde::{Deserialize, Serialize};

/// Peak fraction cuBLAS FP32 reaches on large well-shaped matmuls
/// (Table 2: 9722 / 10300).
pub const CUBLAS_EFFICIENCY: f64 = 0.94;

/// Peak fraction the TF32 tensor-core path reaches
/// (Table 2: 59312 / 82000).
pub const TF32_EFFICIENCY: f64 = 0.72;

/// Dimension at which cuBLAS efficiency saturates; efficiency ramps
/// linearly below it (small/skewed matrices underfill the SMs).
pub const CUBLAS_FILL_DIM: f64 = 192.0;

/// Tensor cores need larger tiles to fill; they also degrade faster on
/// skewed shapes ("TC performance degrades faster than GPU performance
/// without TC for skewed matrices", §3.4).
pub const TF32_FILL_DIM: f64 = 512.0;

/// Effective FLOP/s of the cuSPARSE CSR SpMM path (Table 2 actual
/// throughput: ~1 TFLOP/s at both 90 % and 99 % sparsity once the
/// dense-equivalent convention is unwound).
pub const CUSPARSE_FLOPS: f64 = 1.05e12;

/// Fraction of HBM bandwidth strided/elementwise kernels achieve.
pub const STRIDED_BW_FRACTION: f64 = 0.6;

/// Kernel launches one butterfly-factor application costs in the plain
/// PyTorch implementation (a multiply and an add/assign per factor) — the
/// constant behind the 14.45x worst-case of Fig 6.
pub const KERNELS_PER_TWIDDLE: u64 = 2;

/// Kernel launches the block-sparse pixelfly matmul costs (gather, batched
/// GEMM, scatter-add in the pure-torch implementation of reference \[1\]).
pub const KERNELS_PER_BLOCK_SPMM: u64 = 6;

/// Time and launch count of one op on the GPU.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KernelCost {
    /// Seconds excluding launch overhead.
    pub busy_seconds: f64,
    /// Number of kernel launches.
    pub kernels: u64,
}

impl KernelCost {
    /// Total seconds including launch overhead.
    pub fn seconds(&self, spec: &GpuSpec) -> f64 {
        self.busy_seconds + self.kernels as f64 * spec.kernel_launch_seconds
    }
}

/// Roofline time: max of compute time and memory time.
fn roofline(flops: f64, rate: f64, bytes: u64, bw: f64) -> f64 {
    (flops / rate).max(bytes as f64 / bw)
}

/// Dense-matmul efficiency for the FP32 CUDA-core path.
fn cublas_eff(m: usize, k: usize, n: usize) -> f64 {
    let min_dim = m.min(k).min(n) as f64;
    CUBLAS_EFFICIENCY * (min_dim / CUBLAS_FILL_DIM).clamp(0.02, 1.0)
}

/// Dense-matmul efficiency for the TF32 tensor-core path.
fn tf32_eff(m: usize, k: usize, n: usize) -> f64 {
    // Tensor cores are fed by both output dims; the *smaller* of m,n rules,
    // and the ramp is steeper than for CUDA cores (skew sensitivity).
    let min_dim = m.min(k).min(n) as f64;
    let fill = (min_dim / TF32_FILL_DIM).min(1.0);
    TF32_EFFICIENCY * fill.powf(1.3).max(0.01)
}

/// Prices one op. `tensor_cores` selects the TF32 path for dense matmul.
pub fn op_cost(op: &LinOp, tensor_cores: bool, spec: &GpuSpec) -> KernelCost {
    match *op {
        LinOp::MatMul { m, k, n } => {
            let flops = 2.0 * m as f64 * k as f64 * n as f64;
            let bytes = (4 * (m * k + k * n + m * n)) as u64;
            let rate = if tensor_cores {
                spec.tf32_peak * tf32_eff(m, k, n)
            } else {
                spec.fp32_peak * cublas_eff(m, k, n)
            };
            KernelCost {
                busy_seconds: roofline(flops, rate, bytes, spec.hbm_bytes_per_sec),
                kernels: 1,
            }
        }
        LinOp::SpMM { m, k, n, nnz } => {
            // Vendor "does not yet support sparse computations with TC"
            // (§3.4) — the sparse path ignores `tensor_cores`.
            let flops = 2.0 * nnz as f64 * n as f64;
            let bytes = (4 * (2 * nnz + m + 1 + k * n + m * n)) as u64;
            KernelCost {
                busy_seconds: roofline(flops, CUSPARSE_FLOPS, bytes, spec.hbm_bytes_per_sec),
                kernels: 1,
            }
        }
        LinOp::BlockSpMM { m, k, n, block, nnz_blocks } => {
            let flops = 2.0 * (nnz_blocks * block * block) as f64 * n as f64;
            let bytes = (4 * (nnz_blocks * block * block + k * n + m * n)) as u64;
            // Block alignment lets the dense pipelines work: this is the
            // whole point of pixelfly on a "dense processor" (§4.2). The
            // effective shape per batched GEMM is block x block x n.
            let rate = if tensor_cores {
                spec.tf32_peak * tf32_eff(block * 8, block * 8, n).max(0.05 * TF32_EFFICIENCY)
            } else {
                spec.fp32_peak * cublas_eff(block * 8, block * 8, n)
            };
            KernelCost {
                busy_seconds: roofline(flops, rate, bytes, spec.hbm_bytes_per_sec),
                kernels: KERNELS_PER_BLOCK_SPMM,
            }
        }
        LinOp::Twiddle { pairs, batch } => {
            // Two strided passes (multiply, then add/assign) over the full
            // 2*pairs x batch activation, each reading and writing it.
            let bytes = (32 * pairs * batch) as u64;
            let flops = 8.0 * pairs as f64 * batch as f64;
            KernelCost {
                busy_seconds: roofline(
                    flops,
                    spec.fp32_peak * 0.2,
                    bytes,
                    spec.hbm_bytes_per_sec * STRIDED_BW_FRACTION,
                ),
                kernels: KERNELS_PER_TWIDDLE,
            }
        }
        LinOp::Elementwise { n, flops_per_elem } => {
            let bytes = (8 * n) as u64;
            let flops = n as f64 * flops_per_elem as f64;
            KernelCost {
                busy_seconds: roofline(flops, spec.fp32_peak, bytes, spec.hbm_bytes_per_sec),
                kernels: 1,
            }
        }
        LinOp::Permute { rows, width } => {
            let bytes = (8 * rows * width) as u64;
            KernelCost {
                busy_seconds: bytes as f64 / (spec.hbm_bytes_per_sec * STRIDED_BW_FRACTION),
                kernels: 1,
            }
        }
        LinOp::Fft { n, batch } => {
            let flops = 5.0 * n as f64 * (n as f64).log2().max(1.0) * batch as f64;
            let bytes = (16 * n * batch) as u64;
            KernelCost {
                busy_seconds: roofline(flops, spec.fp32_peak * 0.5, bytes, spec.hbm_bytes_per_sec),
                kernels: 3,
            }
        }
        LinOp::Fwht { n, batch } => {
            let flops = n as f64 * (n as f64).log2().max(1.0) * batch as f64;
            let bytes = (8 * n * batch) as u64;
            KernelCost {
                busy_seconds: roofline(flops, spec.fp32_peak, bytes, spec.hbm_bytes_per_sec),
                kernels: 1,
            }
        }
        LinOp::Copy { bytes } => {
            KernelCost { busy_seconds: bytes as f64 / spec.host_link_bytes_per_sec, kernels: 0 }
        }
    }
}

/// Approximate resident bytes an op needs on the device.
pub fn op_resident_bytes(op: &LinOp) -> u64 {
    match *op {
        LinOp::MatMul { m, k, n } => (4 * (m * k + k * n + m * n)) as u64,
        LinOp::SpMM { m, k, n, nnz } => (4 * (2 * nnz + m + 1 + k * n + m * n)) as u64,
        LinOp::BlockSpMM { m, k, n, block, nnz_blocks } => {
            (4 * (nnz_blocks * block * block + k * n + m * n)) as u64
        }
        LinOp::Twiddle { pairs, batch } => (16 * pairs * batch + 16 * pairs) as u64,
        LinOp::Elementwise { n, .. } => (8 * n) as u64,
        LinOp::Permute { rows, width } => (8 * rows * width) as u64,
        LinOp::Fft { n, batch } => (16 * n * batch) as u64,
        LinOp::Fwht { n, batch } => (8 * n * batch) as u64,
        LinOp::Copy { .. } => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> GpuSpec {
        GpuSpec::a30()
    }

    #[test]
    fn cublas_calibration_at_2048() {
        // Table 2: GPU cublas FP32 at 9722 GFLOP/s on large square matmul.
        let s = spec();
        let op = LinOp::MatMul { m: 2048, k: 2048, n: 2048 };
        let cost = op_cost(&op, false, &s);
        let gflops = op.flops() / cost.seconds(&s) / 1e9;
        assert!((8500.0..10_300.0).contains(&gflops), "fp32 matmul {gflops} GFLOP/s");
    }

    #[test]
    fn tf32_calibration_at_2048() {
        // Table 2: TF32 at 59312 GFLOP/s.
        let s = spec();
        let op = LinOp::MatMul { m: 2048, k: 2048, n: 2048 };
        let cost = op_cost(&op, true, &s);
        let gflops = op.flops() / cost.seconds(&s) / 1e9;
        assert!((45_000.0..70_000.0).contains(&gflops), "tf32 matmul {gflops} GFLOP/s");
    }

    #[test]
    fn skew_hurts_tc_more_than_cuda_cores() {
        let s = spec();
        let square = LinOp::MatMul { m: 1024, k: 1024, n: 1024 };
        let skewed = LinOp::MatMul { m: 16384, k: 64, n: 1024 };
        let ratio = |tc: bool| {
            let sq = square.flops() / op_cost(&square, tc, &s).seconds(&s);
            let sk = skewed.flops() / op_cost(&skewed, tc, &s).seconds(&s);
            sq / sk
        };
        assert!(ratio(true) > ratio(false), "TC must degrade faster under skew");
    }

    #[test]
    fn sparse_ignores_tensor_cores() {
        let s = spec();
        let op = LinOp::SpMM { m: 1024, k: 1024, n: 1024, nnz: 10_000 };
        assert_eq!(op_cost(&op, true, &s), op_cost(&op, false, &s));
    }

    #[test]
    fn twiddle_is_launch_bound_at_small_n() {
        let s = spec();
        let op = LinOp::Twiddle { pairs: 64, batch: 128 };
        let cost = op_cost(&op, false, &s);
        assert!(cost.busy_seconds < s.kernel_launch_seconds);
        assert_eq!(cost.kernels, KERNELS_PER_TWIDDLE);
    }

    #[test]
    fn large_twiddle_is_bandwidth_bound() {
        let s = spec();
        let op = LinOp::Twiddle { pairs: 8192, batch: 16384 };
        let cost = op_cost(&op, false, &s);
        let bytes = 32.0 * 8192.0 * 16384.0;
        let bw_time = bytes / (s.hbm_bytes_per_sec * STRIDED_BW_FRACTION);
        assert!((cost.busy_seconds - bw_time).abs() / bw_time < 0.5);
    }

    #[test]
    fn resident_bytes_track_operands() {
        let op = LinOp::MatMul { m: 100, k: 100, n: 100 };
        assert_eq!(op_resident_bytes(&op), 4 * 3 * 100 * 100);
    }
}
