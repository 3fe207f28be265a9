//! Fig 6 — Execution time of `torch.nn.Linear`, butterfly and pixelfly for
//! square problems of dimension N (batch = N), on the GPU with tensor cores
//! off and on, and on the IPU.
//!
//! Methodology notes mirrored from the paper (§4.1):
//! - the IPU path is framework-level (PopTorch) and "inherently includes
//!   data copy time", so the IPU columns include host-link staging of the
//!   input and output activations;
//! - the GPU path times kernels only.
//!
//! Expected shape: GPU break-even at N = 2^11 with worst-case butterfly
//! degradation ~14x at small N (kernel-launch bound); IPU break-even at
//! N = 2^10 with worst degradation ~1.4x (butterfly) / ~1.03x (pixelfly)
//! and max speedups ~1.6x / ~1.3x — the AMP units accelerate only the dense
//! layer, and host I/O flattens all curves.

use bfly_bench::anchors::fig6;
use bfly_bench::json::maybe_write_json;
use bfly_bench::{fmt_time, format_table};
use bfly_core::{butterfly_trace, PixelflyConfig, PixelflyLayer};
use bfly_gpu::GpuDevice;
use bfly_ipu::IpuDevice;
use bfly_nn::{Dense, Layer};
use bfly_tensor::{seeded_rng, LinOp};

/// Builds the three traces for dimension `n` with batch = `n`.
fn traces(n: usize) -> (Vec<LinOp>, Vec<LinOp>, Vec<LinOp>) {
    let mut rng = seeded_rng(7);
    let linear = Dense::new(n, n, &mut rng).trace(n);
    let butterfly = butterfly_trace(n, n, n);
    // Pixelfly: config scales down for small n (grid must admit the
    // butterfly size), as the reference implementation requires.
    let config = pixelfly_config(n);
    let pixelfly = PixelflyLayer::new(n, n, config, &mut rng)
        .expect("power-of-two dimensions in the sweep")
        .trace(n);
    (linear, butterfly, pixelfly)
}

/// The paper-default pixelfly config, shrunk when N is too small for it.
fn pixelfly_config(n: usize) -> PixelflyConfig {
    let mut c = PixelflyConfig::paper_default();
    while n / c.block_size < c.butterfly_size {
        if c.block_size > 2 {
            c.block_size /= 2;
        } else {
            c.butterfly_size /= 2;
        }
    }
    c.rank = c.rank.min(n / 8);
    c
}

fn main() {
    let gpu = GpuDevice::a30();
    let ipu = IpuDevice::gc200();

    println!("Fig 6: Linear vs butterfly vs pixelfly execution time (batch = N)\n");
    let mut gpu_off_rows = Vec::new();
    let mut gpu_on_rows = Vec::new();
    let mut ipu_rows = Vec::new();
    // Speedup series for the shape summary: (exp, butterfly, pixelfly).
    let mut gpu_speedups = Vec::new();
    let mut ipu_speedups = Vec::new();

    for e in 7..=13u32 {
        let n = 1usize << e;
        let (linear, butterfly, pixelfly) = traces(n);
        // Host staging of the input activation (IPU/PopTorch only; outputs
        // overlap with the next iteration in the 1000-iteration loop).
        let host_bytes = (4 * n * n) as u64;

        // GPU, tensor cores off / on.
        for (tc, rows) in [(false, &mut gpu_off_rows), (true, &mut gpu_on_rows)] {
            let tl = gpu.run(&linear, tc).expect("fits").seconds();
            let tb = gpu.run(&butterfly, tc).expect("fits").seconds();
            let tp = gpu.run(&pixelfly, tc).expect("fits").seconds();
            rows.push(vec![
                format!("2^{e}"),
                fmt_time(tl),
                fmt_time(tb),
                fmt_time(tp),
                format!("{:.2}", tl / tb),
                format!("{:.2}", tl / tp),
            ]);
            if !tc {
                gpu_speedups.push((e, tl / tb, tl / tp));
            }
        }

        // IPU (PopTorch-style, including host I/O). Out-of-memory is a real
        // outcome here — the dense layer exhausts on-chip SRAM first, the
        // memory-limit effect the paper reports for Linear.
        let run_ipu = |trace: &[LinOp]| -> Option<f64> {
            ipu.run_with_host_io(trace, host_bytes).ok().map(|r| r.seconds(ipu.spec()))
        };
        let tl = run_ipu(&linear);
        let tb = run_ipu(&butterfly);
        let tp = run_ipu(&pixelfly);
        let cell = |t: Option<f64>| t.map(fmt_time).unwrap_or_else(|| "OOM".into());
        let ratio = |a: Option<f64>, b: Option<f64>| match (a, b) {
            (Some(a), Some(b)) => format!("{:.2}", a / b),
            _ => "-".into(),
        };
        ipu_rows.push(vec![
            format!("2^{e}"),
            cell(tl),
            cell(tb),
            cell(tp),
            ratio(tl, tb),
            ratio(tl, tp),
        ]);
        if let (Some(tl), Some(tb), Some(tp)) = (tl, tb, tp) {
            ipu_speedups.push((e, tl / tb, tl / tp));
        }
    }

    let _ = maybe_write_json(
        "fig6_speedups",
        &serde_json::json!({
            "gpu_no_tc": gpu_speedups
                .iter()
                .map(|&(e, b, p)| serde_json::json!({"log2_n": e, "s_butterfly": b, "s_pixelfly": p}))
                .collect::<Vec<_>>(),
            "ipu": ipu_speedups
                .iter()
                .map(|&(e, b, p)| serde_json::json!({"log2_n": e, "s_butterfly": b, "s_pixelfly": p}))
                .collect::<Vec<_>>(),
        }),
    );

    let headers = ["N", "Linear", "Butterfly", "Pixelfly", "S(bfly)", "S(pixel)"];
    println!("GPU, tensor cores OFF:\n{}", format_table(&headers, &gpu_off_rows));
    println!("GPU, tensor cores ON:\n{}", format_table(&headers, &gpu_on_rows));
    println!("IPU (incl. host I/O, PopTorch-style):\n{}", format_table(&headers, &ipu_rows));

    // Shape summary vs the paper's headline numbers.
    let break_even = |s: &[(u32, f64, f64)]| match s.iter().find(|(_, b, _)| *b >= 1.0) {
        Some((e, ..)) => format!("2^{e}"),
        None => "none in sweep".to_string(),
    };
    let worst = |s: &[(u32, f64, f64)], pix: bool| {
        s.iter().map(|&(_, b, p)| 1.0 / if pix { p } else { b }).fold(0.0, f64::max)
    };
    let best = |s: &[(u32, f64, f64)], pix: bool| {
        s.iter().map(|&(_, b, p)| if pix { p } else { b }).fold(0.0, f64::max)
    };
    println!("shape vs paper (S = Linear time / method time; S > 1 means method wins):");
    println!(
        "  GPU butterfly break-even: {} (paper 2^{})",
        break_even(&gpu_speedups),
        fig6::GPU_BREAK_EVEN_EXP
    );
    println!(
        "  GPU worst degradation: butterfly {:.2}x (paper {}), pixelfly {:.2}x (paper {})",
        worst(&gpu_speedups, false),
        fig6::GPU_WORST_BUTTERFLY,
        worst(&gpu_speedups, true),
        fig6::GPU_WORST_PIXELFLY
    );
    println!(
        "  IPU butterfly break-even: {} (paper 2^{})",
        break_even(&ipu_speedups),
        fig6::IPU_BREAK_EVEN_EXP
    );
    println!(
        "  IPU worst degradation: butterfly {:.2}x (paper {}), pixelfly {:.2}x (paper {})",
        worst(&ipu_speedups, false),
        fig6::IPU_WORST_BUTTERFLY,
        worst(&ipu_speedups, true),
        fig6::IPU_WORST_PIXELFLY
    );
    println!(
        "  IPU max speedup: butterfly {:.2}x (paper {}), pixelfly {:.2}x (paper {})",
        best(&ipu_speedups, false),
        fig6::IPU_MAX_BUTTERFLY_SPEEDUP,
        best(&ipu_speedups, true),
        fig6::IPU_MAX_PIXELFLY_SPEEDUP
    );
}
