//! Ablation — sparsity methods head-to-head at equal parameter budget:
//! butterfly (unstructured-friendly factorization), pixelfly (block
//! structure for dense processors), and unstructured pruning (the pattern
//! the IPU's popsparse path is actually built for).
//!
//! This extends the paper's conclusion — "a sparse processor like the IPU
//! ... requires different methods [than a GPU]" — with the method its own
//! Table 2 suggests: static unstructured pruning at the same density as
//! butterfly's compression. Expected: on the simulated IPU the pruned layer
//! executes on the fast popsparse path; on the GPU it is crippled by
//! cuSPARSE's low effective rate, inverting the preference exactly as the
//! paper's dense-vs-sparse-processor argument predicts.
//!
//! Environment knobs: BFLY_SAMPLES (default 2000), BFLY_EPOCHS (default 6).

use bfly_bench::simtime::simulated_training_seconds;
use bfly_bench::{env_usize, format_table};
use bfly_core::{build_shl, shl_param_count, Method, PixelflyConfig};
use bfly_data::{generate, split, SynthSpec};
use bfly_gpu::GpuDevice;
use bfly_ipu::IpuDevice;
use bfly_nn::{fit, Layer, TrainConfig};
use bfly_tensor::seeded_rng;

fn main() {
    let samples = env_usize("BFLY_SAMPLES", 2000);
    let epochs = env_usize("BFLY_EPOCHS", 6);
    let dim = 1024usize;
    let classes = 10;
    let batch = 50;
    let gpu = GpuDevice::a30();
    let ipu = IpuDevice::gc200();

    // Budget-match pruning to the butterfly: 2 n log n + n surviving values
    // over n^2 weights ~= 21/1024 ~= 2.1% density.
    let butterfly_hidden = 2 * dim * (dim.trailing_zeros() as usize) + dim;
    let density_permille = (1000 * butterfly_hidden / (dim * dim)).max(1);

    println!(
        "Ablation: sparsity methods at matched budget (~{:.1}% density), {samples} samples, {epochs} epochs\n",
        density_permille as f64 / 10.0
    );

    let data = generate(&SynthSpec::cifar10_like(samples, 100));
    let methods = [
        Method::Baseline,
        Method::Butterfly,
        Method::Pixelfly(PixelflyConfig::paper_default()),
        Method::Pruned { density_permille },
    ];
    let mut rows = Vec::new();
    for method in methods {
        let mut rng = seeded_rng(700);
        let s = split(data.clone(), 0.2, 0.15, &mut rng);
        let mut model = build_shl(method, dim, classes, &mut rng).expect("valid at 1024");
        let config = TrainConfig { epochs, seed: 701, ..TrainConfig::default() };
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
            format!("{:.2}x", t_gpu / t_ipu),
        ]);
    }
    println!(
        "{}",
        format_table(
            &["method", "N_Params", "acc %", "T gpu [s]", "T ipu [s]", "IPU speedup"],
            &rows
        )
    );
    println!(
        "reading: at equal parameter budget the butterfly's *structure* is worth\n\
         real accuracy over random unstructured support, and it is the method the\n\
         IPU accelerates best; pixelfly's block alignment only pays on the GPU.\n\
         Pruned-SpMM training at batch 50 is overhead-bound on both devices —\n\
         popsparse's Table 2 wins need large activations to amortise its\n\
         rearrangement, which a batch-50 training step never provides."
    );
}
