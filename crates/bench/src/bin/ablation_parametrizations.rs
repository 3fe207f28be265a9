//! Ablation — butterfly parametrizations: free 2x2 twiddles (Dao et al.)
//! versus rotation-constrained (orthogonal) twiddles, against the dense
//! baseline.
//!
//! Motivation: the paper's Table 4 reports Butterfly N_Params = 16,390,
//! which no standard free-twiddle count reproduces — but the rotation
//! parametrization gives 16,394 (within 4). This ablation compares the two
//! variants head-to-head: parameters, trained accuracy, and simulated
//! device times, so the reader can judge whether the variants are
//! interchangeable for the paper's conclusions.
//!
//! Environment knobs: BFLY_SAMPLES (default 2000), BFLY_EPOCHS (default 6).

use bfly_bench::simtime::simulated_training_seconds;
use bfly_bench::{env_usize, format_table};
use bfly_core::{build_shl, shl_param_count, Method};
use bfly_data::{generate, split, SynthSpec};
use bfly_gpu::GpuDevice;
use bfly_ipu::IpuDevice;
use bfly_nn::{fit, Layer, TrainConfig};
use bfly_tensor::seeded_rng;

fn main() {
    let samples = env_usize("BFLY_SAMPLES", 2000);
    let epochs = env_usize("BFLY_EPOCHS", 6);
    let dim = 1024;
    let classes = 10;
    let batch = 50;
    let gpu = GpuDevice::a30();
    let ipu = IpuDevice::gc200();

    println!("Ablation: butterfly parametrizations ({samples} samples, {epochs} epochs)\n");
    let data = generate(&SynthSpec::cifar10_like(samples, 100));

    let mut rows = Vec::new();
    for method in [Method::Baseline, Method::Butterfly, Method::OrthoButterfly] {
        let mut rng = seeded_rng(500);
        let s = split(data.clone(), 0.2, 0.15, &mut rng);
        let mut model = build_shl(method, dim, classes, &mut rng).expect("valid at 1024");
        let config = TrainConfig { epochs, seed: 501, ..TrainConfig::default() };
        let report = fit(&mut model, &s, &config);
        let forward = model.trace(batch);
        let (_, t_gpu, t_ipu) =
            simulated_training_seconds(&forward, batch, dim, report.steps, epochs, &gpu, &ipu);
        rows.push(vec![
            method.label().to_string(),
            shl_param_count(method, dim, classes).to_string(),
            format!("{:.2}", report.test_accuracy * 100.0),
            format!("{t_gpu:.3}"),
            format!("{t_ipu:.3}"),
        ]);
    }
    println!("{}", format_table(&["method", "N_Params", "acc %", "T gpu [s]", "T ipu [s]"], &rows));
    println!("paper Table 4 butterfly: N_Params = 16,390, acc 41.13 (IPU)");
    println!(
        "ortho SHL total = {} — the closest decode of the paper's butterfly budget\n\
         (free-twiddle BP would be {}); both run the same device trace, so their\n\
         simulated times coincide and only expressiveness differs.",
        shl_param_count(Method::OrthoButterfly, dim, classes),
        shl_param_count(Method::Butterfly, dim, classes),
    );
}
