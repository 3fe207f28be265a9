//! Ablation — streaming memory (the paper's future work: "the use of
//! streaming memory in combination with sparse methods").
//!
//! Sweeps the hidden dimension past the on-chip SRAM boundary and compares
//! the dense layer against the butterfly under the M2000's 64 GB / 20 GB/s
//! streaming memory: once the dense weights spill off-chip, every step
//! re-streams them at link speed, while the butterfly's compressed weights
//! stay resident and keep on-chip throughput.

use bfly_bench::{fmt_bytes, fmt_time, format_table};
use bfly_core::butterfly_trace;
use bfly_ipu::streaming::{run_streaming, StreamingSpec};
use bfly_ipu::IpuDevice;
use bfly_tensor::ops::trace_flops;
use bfly_tensor::LinOp;

fn dense_trace(n: usize, batch: usize) -> Vec<LinOp> {
    vec![LinOp::MatMul { m: batch, k: n, n }]
}

fn main() {
    let dev = IpuDevice::gc200();
    let spec = dev.spec();
    let streaming = StreamingSpec::m2000();
    let batch = 256usize;

    println!(
        "Ablation: streaming memory ({} off-chip @ {} GB/s), batch {batch}\n",
        fmt_bytes(streaming.capacity_bytes),
        streaming.bytes_per_sec / 1e9
    );

    let mut rows = Vec::new();
    for e in 12..=16u32 {
        let n = 1usize << e;
        let dense = run_streaming(&dense_trace(n, batch), spec, &streaming);
        let bfly = run_streaming(&butterfly_trace(n, n, batch), spec, &streaming);
        let cell = |r: &Result<bfly_ipu::StreamingReport, _>, flops: f64| match r {
            Ok(rep) => format!(
                "{} ({}{})",
                fmt_time(rep.seconds()),
                if rep.fully_resident { "resident" } else { "streams " },
                if rep.fully_resident { String::new() } else { fmt_bytes(rep.streamed_bytes) }
            ),
            Err(_) => {
                let _ = flops;
                "exceeds streaming memory".into()
            }
        };
        rows.push(vec![
            format!("2^{e}"),
            fmt_bytes((4 * n * n) as u64),
            cell(&dense, trace_flops(&dense_trace(n, batch))),
            cell(&bfly, trace_flops(&butterfly_trace(n, n, batch))),
        ]);
    }
    println!("{}", format_table(&["N", "dense weights", "dense step", "butterfly step"], &rows));
    println!(
        "shape: past the SRAM boundary the dense layer's step time is set by the\n\
         20 GB/s link (weights re-streamed every step); the butterfly's O(N log N)\n\
         weights stay on chip to far larger N — compression compounds with\n\
         streaming memory, the combination the paper proposes to investigate."
    );
}
