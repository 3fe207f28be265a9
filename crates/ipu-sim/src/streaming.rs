//! Streaming-memory execution — the paper's future work: "the use of
//! streaming memory in combination with sparse methods for scalable
//! learning problems".
//!
//! The M2000 carries 64 GB of off-chip Streaming Memory behind a 20 GB/s
//! link (Table 1). A program whose variables exceed on-chip SRAM can still
//! run by residing the overflow off-chip and streaming it through per
//! execution; the stream can overlap compute, so the step time becomes
//! `max(on-chip time, streamed bytes / link bandwidth)` plus a spill
//! penalty when even one *operand* cannot fit at once.
//!
//! This model makes the paper's motivation quantitative: a dense layer past
//! the SRAM boundary collapses to 20 GB/s-bound execution, while the
//! butterfly's compressed weights stay on chip.

use crate::compiler::{compile, lower, CompileError};
use crate::executor::execute;
use crate::memory::account;
use crate::spec::IpuSpec;
use bfly_tensor::LinOp;
use serde::{Deserialize, Serialize};

/// Off-chip streaming-memory configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamingSpec {
    /// Off-chip capacity in bytes (M2000: 64 GB per the paper's Table 1).
    pub capacity_bytes: u64,
    /// Link bandwidth in bytes/s (20 GB/s).
    pub bytes_per_sec: f64,
    /// Fraction of on-chip SRAM usable as staging for streamed tensors.
    pub staging_fraction: f64,
}

impl StreamingSpec {
    /// The M2000 configuration.
    pub fn m2000() -> Self {
        Self { capacity_bytes: 64 * (1 << 30), bytes_per_sec: 20.0e9, staging_fraction: 0.5 }
    }

    /// Checks the spec describes a physically meaningful link. A
    /// `staging_fraction` outside (0, 1] would silently produce a 0-byte
    /// staging buffer (or stage more than the SRAM that exists), and a
    /// non-positive or non-finite `bytes_per_sec` turns every stream time
    /// into infinity or nonsense — both are rejected here instead.
    pub fn validate(&self) -> Result<(), StreamingError> {
        if !self.staging_fraction.is_finite()
            || self.staging_fraction <= 0.0
            || self.staging_fraction > 1.0
        {
            return Err(StreamingError::InvalidSpec {
                field: "staging_fraction",
                value: self.staging_fraction,
            });
        }
        if !self.bytes_per_sec.is_finite() || self.bytes_per_sec <= 0.0 {
            return Err(StreamingError::InvalidSpec {
                field: "bytes_per_sec",
                value: self.bytes_per_sec,
            });
        }
        Ok(())
    }
}

/// Result of a streaming execution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamingReport {
    /// Seconds of on-chip execution (compute + exchange + overheads).
    pub on_chip_seconds: f64,
    /// Bytes that had to live off-chip.
    pub streamed_bytes: u64,
    /// Seconds the link is busy streaming those bytes.
    pub stream_seconds: f64,
    /// Whether the program ran entirely from SRAM (no streaming needed).
    pub fully_resident: bool,
}

impl StreamingReport {
    /// Wall-clock seconds assuming compute/stream overlap.
    pub fn seconds(&self) -> f64 {
        self.on_chip_seconds.max(self.stream_seconds)
    }

    /// Achieved GFLOP/s for a trace of `flops` work.
    pub fn gflops(&self, flops: f64) -> f64 {
        flops / self.seconds() / 1e9
    }
}

/// Streaming-execution failure.
#[derive(Debug, Clone)]
pub enum StreamingError {
    /// The data exceeds even the off-chip capacity.
    ExceedsStreamingMemory {
        /// Bytes required.
        required: u64,
        /// Off-chip capacity.
        capacity: u64,
    },
    /// A single *unsliceable* (single-tile) operand is larger than the
    /// on-chip staging area, so it can never be resident for its compute
    /// step. Spread variables stream through in slices and never hit this.
    OperandTooLarge {
        /// The operand's byte size.
        operand_bytes: u64,
        /// Available staging bytes.
        staging_bytes: u64,
    },
    /// The spec itself is unusable: `staging_fraction` outside (0, 1] or a
    /// non-positive `bytes_per_sec` (see [`StreamingSpec::validate`]).
    InvalidSpec {
        /// Which field failed validation.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl std::fmt::Display for StreamingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamingError::ExceedsStreamingMemory { required, capacity } => {
                write!(f, "needs {required} bytes, streaming memory holds {capacity}")
            }
            StreamingError::OperandTooLarge { operand_bytes, staging_bytes } => {
                write!(
                    f,
                    "operand of {operand_bytes} bytes exceeds {staging_bytes} bytes of staging"
                )
            }
            StreamingError::InvalidSpec { field, value } => {
                write!(f, "invalid streaming spec: {field} = {value}")
            }
        }
    }
}

impl std::error::Error for StreamingError {}

/// Runs a trace with streaming-memory spill when it does not fit in SRAM.
///
/// If the compiled graph fits on chip, this is identical to a plain run.
/// Otherwise the overflow bytes are streamed from off-chip per execution
/// (weights re-fetched every step — the steady-state of a training loop
/// whose working set exceeds SRAM).
pub fn run_streaming(
    trace: &[LinOp],
    spec: &IpuSpec,
    streaming: &StreamingSpec,
) -> Result<StreamingReport, StreamingError> {
    streaming.validate()?;
    match compile(trace, spec) {
        Ok(compiled) => {
            let report = execute(&compiled.graph, spec);
            Ok(StreamingReport {
                on_chip_seconds: report.seconds(spec),
                streamed_bytes: 0,
                stream_seconds: 0.0,
                fully_resident: true,
            })
        }
        Err(CompileError::OutOfMemory { .. }) => {
            let graph = lower(trace, spec);
            let mem = account(&graph, spec);
            let staging = (spec.total_sram() as f64 * streaming.staging_fraction) as u64;
            if mem.total_bytes > streaming.capacity_bytes {
                return Err(StreamingError::ExceedsStreamingMemory {
                    required: mem.total_bytes,
                    capacity: streaming.capacity_bytes,
                });
            }
            // Unsliceable (single-tile) variables must fit in staging;
            // spread variables stream through in slices.
            let largest_single = graph
                .variables
                .iter()
                .filter(|v| matches!(v.mapping, crate::graph::TileMapping::Single(_)))
                .map(|v| v.bytes)
                .max()
                .unwrap_or(0);
            if largest_single > staging {
                return Err(StreamingError::OperandTooLarge {
                    operand_bytes: largest_single,
                    staging_bytes: staging,
                });
            }
            let overflow = mem.total_bytes.saturating_sub(staging);
            let exec = execute(&graph, spec);
            Ok(StreamingReport {
                on_chip_seconds: exec.seconds(spec),
                streamed_bytes: overflow,
                stream_seconds: overflow as f64 / streaming.bytes_per_sec,
                fully_resident: false,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::IpuSpec;

    fn spec() -> IpuSpec {
        IpuSpec::gc200()
    }

    #[test]
    fn resident_traces_do_not_stream() {
        let r = run_streaming(
            &[LinOp::MatMul { m: 512, k: 512, n: 512 }],
            &spec(),
            &StreamingSpec::m2000(),
        )
        .expect("runs");
        assert!(r.fully_resident);
        assert_eq!(r.streamed_bytes, 0);
    }

    #[test]
    fn oversized_traces_stream_and_slow_down() {
        // A low-arithmetic-intensity layer whose weights exceed SRAM: the
        // 20 GB/s link, not the AMP units, sets the pace.
        let n = 16384;
        let batch = 64;
        let big = [LinOp::MatMul { m: batch, k: n, n }];
        let r = run_streaming(&big, &spec(), &StreamingSpec::m2000()).expect("streams");
        assert!(!r.fully_resident);
        assert!(r.streamed_bytes > 0);
        assert!(r.stream_seconds > r.on_chip_seconds, "must be link-bound");
        // Link-bound: effective throughput collapses versus the on-chip rate.
        let gflops = r.gflops(2.0 * (batch * n * n) as f64);
        let on_chip = run_streaming(
            &[LinOp::MatMul { m: 2048, k: 2048, n: 2048 }],
            &spec(),
            &StreamingSpec::m2000(),
        )
        .expect("runs")
        .gflops(2.0 * 2048f64.powi(3));
        assert!(gflops < on_chip / 4.0, "streaming {gflops} must be far below on-chip {on_chip}");
    }

    #[test]
    fn beyond_streaming_capacity_errors() {
        // ~4.6 TB of operands: over the 64 GB streaming memory.
        let n = 620_000;
        let err =
            run_streaming(&[LinOp::MatMul { m: n, k: n, n: 4 }], &spec(), &StreamingSpec::m2000())
                .expect_err("must not fit");
        assert!(matches!(err, StreamingError::ExceedsStreamingMemory { .. }));
    }

    #[test]
    fn zero_staging_fraction_is_rejected_not_silently_zero_staging() {
        // staging_fraction = 0 used to yield a 0-byte staging buffer that
        // made every single-tile operand "too large"; now the spec itself
        // is refused before any graph work happens.
        let bad = StreamingSpec { staging_fraction: 0.0, ..StreamingSpec::m2000() };
        assert!(matches!(
            bad.validate(),
            Err(StreamingError::InvalidSpec { field: "staging_fraction", .. })
        ));
        let err = run_streaming(&[LinOp::MatMul { m: 4, k: 64, n: 64 }], &spec(), &bad)
            .expect_err("invalid spec must not run");
        assert!(err.to_string().contains("staging_fraction"), "{err}");
        // Above 1.0 is equally meaningless: staging cannot exceed the SRAM.
        let over = StreamingSpec { staging_fraction: 1.5, ..StreamingSpec::m2000() };
        assert!(over.validate().is_err());
        assert!(StreamingSpec { staging_fraction: -0.25, ..StreamingSpec::m2000() }
            .validate()
            .is_err());
        assert!(StreamingSpec { staging_fraction: f64::NAN, ..StreamingSpec::m2000() }
            .validate()
            .is_err());
        assert!(
            StreamingSpec { staging_fraction: 1.0, ..StreamingSpec::m2000() }.validate().is_ok(),
            "the closed upper edge is legal"
        );
    }

    #[test]
    fn zero_bandwidth_is_rejected_not_infinite_stream_time() {
        // bytes_per_sec = 0 used to make stream_seconds infinite for any
        // overflow; the spec is now rejected up front.
        let bad = StreamingSpec { bytes_per_sec: 0.0, ..StreamingSpec::m2000() };
        assert!(matches!(
            bad.validate(),
            Err(StreamingError::InvalidSpec { field: "bytes_per_sec", .. })
        ));
        let err = run_streaming(&[LinOp::MatMul { m: 4, k: 64, n: 64 }], &spec(), &bad)
            .expect_err("invalid spec must not run");
        assert!(matches!(err, StreamingError::InvalidSpec { field: "bytes_per_sec", .. }));
        assert!(StreamingSpec { bytes_per_sec: -1.0, ..StreamingSpec::m2000() }
            .validate()
            .is_err());
        assert!(StreamingSpec { bytes_per_sec: f64::INFINITY, ..StreamingSpec::m2000() }
            .validate()
            .is_err());
    }

    #[test]
    fn spread_operands_never_hit_the_staging_limit() {
        // All compiler-produced variables are tile-spread (sliceable), so a
        // 2 GB weight streams fine instead of erroring.
        let n = 23_170; // ~2.1 GB weight matrix
        let r = run_streaming(&[LinOp::MatMul { m: 8, k: n, n }], &spec(), &StreamingSpec::m2000())
            .expect("streams in slices");
        assert!(!r.fully_resident);
        assert!(r.streamed_bytes as f64 > 1.5e9);
    }
}
