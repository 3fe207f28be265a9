//! Table 4 — Single-hidden-layer (SHL) benchmark on the CIFAR-10-like task
//! with the six structured-matrix methods, on GPU (tensor cores on/off) and
//! IPU: test accuracy, training time, and parameter count.
//!
//! Substitutions versus the paper (see DESIGN.md):
//! - the dataset is the synthetic CIFAR-10-like generator (1024-dim
//!   grayscale, 10 classes), so absolute accuracies differ; the comparison
//!   of interest is the *ordering* across methods and the parameter budgets
//!   (five of the paper's six N_Params are matched exactly);
//! - training runs for real on the host; per-device execution time is the
//!   simulated device time of the per-step op trace (forward + backward
//!   approximated as 3x the forward trace), times the number of steps. The
//!   three accuracy columns are independent seeds, mirroring the paper's
//!   note that device-to-device accuracy differences (<1.5 %) come from
//!   float non-associativity and weight-init randomization.
//!
//! Environment knobs: BFLY_SAMPLES (default 3000), BFLY_EPOCHS (default 6).

use bfly_bench::anchors::TABLE4;
use bfly_bench::simtime::simulated_training_seconds;
use bfly_bench::{env_usize, format_table};
use bfly_core::{build_shl, shl_param_count, Method};
use bfly_data::{generate, split, SynthSpec};
use bfly_gpu::GpuDevice;
use bfly_ipu::IpuDevice;
use bfly_nn::{fit, Layer, TrainConfig};
use bfly_tensor::seeded_rng;

fn main() {
    let samples = env_usize("BFLY_SAMPLES", 3000);
    let epochs = env_usize("BFLY_EPOCHS", 6);
    let dim = 1024usize;
    let classes = 10usize;
    let batch = 50usize;
    let gpu = GpuDevice::a30();
    let ipu = IpuDevice::gc200();

    println!(
        "Table 4: SHL on CIFAR-10-like (synthetic), {samples} samples, {epochs} epochs, batch {batch}\n"
    );

    let mut rows = Vec::new();
    for (anchor, method) in TABLE4.iter().zip(Method::table4_all()) {
        // Three independent init/shuffle seeds stand in for the three device
        // columns (the paper: <1.5 % spread from float non-associativity and
        // weight-init randomization). The dataset itself is fixed.
        let data = generate(&SynthSpec::cifar10_like(samples, 100));
        let mut accs = Vec::new();
        let mut steps_total = 0usize;
        for seed in 0..3u64 {
            let mut rng = seeded_rng(200 + seed);
            let s = split(data.clone(), 0.2, 0.15, &mut rng);
            let mut model = match build_shl(method, dim, classes, &mut rng) {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("{method}: {e}");
                    break;
                }
            };
            let config = TrainConfig { epochs, seed: 300 + seed, ..TrainConfig::default() };
            let report = fit(&mut model, &s, &config);
            accs.push(report.test_accuracy * 100.0);
            steps_total = report.steps;
        }
        if accs.len() < 3 {
            continue;
        }
        // Device time from the per-step forward trace.
        let mut rng = seeded_rng(400);
        let model = build_shl(method, dim, classes, &mut rng).expect("valid at 1024");
        let forward = model.trace(batch);
        let (t_tc, t_gpu, t_ipu) =
            simulated_training_seconds(&forward, batch, dim, steps_total, epochs, &gpu, &ipu);

        let n_params = shl_param_count(method, dim, classes);
        rows.push(vec![
            method.label().to_string(),
            format!("{n_params} ({})", anchor.n_params),
            format!("{:.2}", accs[0]),
            format!("{:.2}", accs[1]),
            format!("{:.2}", accs[2]),
            format!("{t_tc:.3}"),
            format!("{t_gpu:.3}"),
            format!("{t_ipu:.3}"),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "Method",
                "N_Params (paper)",
                "Acc% s0",
                "Acc% s1",
                "Acc% s2",
                "T gpu+tc [s]",
                "T gpu [s]",
                "T ipu [s]",
            ],
            &rows
        )
    );

    // Shape summary.
    println!("paper anchors (accuracy %, time s):");
    for a in &TABLE4 {
        println!(
            "  {:<9} N={:<8} acc {:5.2}/{:5.2}/{:5.2}  time {:6.2}/{:6.2}/{:6.2}",
            a.method,
            a.n_params,
            a.acc_gpu_tc,
            a.acc_gpu,
            a.acc_ipu,
            a.time_gpu_tc,
            a.time_gpu,
            a.time_ipu
        );
    }
    let compression = bfly_core::compression_percent(Method::Butterfly, dim, classes);
    println!("\nbutterfly compression vs baseline: {compression:.1}% (paper headline 98.5%)");
    println!(
        "expected shape: Baseline >= Butterfly ~ Pixelfly > Fastfood > Circulant > Low-rank;\n\
         butterfly trains faster on IPU than GPU (paper 1.62x); pixelfly does not."
    );
}
