//! Extra — the MNIST side of §4.2: the paper omits a full MNIST table but
//! reports three facts we reproduce here on the MNIST-like task (784-dim,
//! *not* a power of two):
//!
//! 1. "the pixelfly approach did not work on the MNIST dataset due to the
//!    requirements of the matrix sizes being a power of two";
//! 2. "for MNIST slight accuracy improvements for butterfly are visible,
//!    most likely to improved regularization as a side effect";
//! 3. "insights are mostly inline with those for CIFAR-10".
//!
//! Environment knobs: BFLY_SAMPLES (default 2500), BFLY_EPOCHS (default 6).

use bfly_bench::{env_usize, format_table};
use bfly_core::{build_shl, shl_param_count, Method, PixelflyConfig};
use bfly_data::{generate, split, SynthSpec};
use bfly_nn::{fit, TrainConfig};
use bfly_tensor::seeded_rng;

fn main() {
    let samples = env_usize("BFLY_SAMPLES", 2500);
    let epochs = env_usize("BFLY_EPOCHS", 6);
    let dim = 784usize; // 28 x 28 — intentionally not a power of two.
    let classes = 10usize;

    println!("MNIST-like SHL benchmark ({samples} samples, {epochs} epochs, dim {dim})\n");

    // Claim 1: pixelfly cannot be constructed at 784.
    let mut rng = seeded_rng(600);
    match build_shl(Method::Pixelfly(PixelflyConfig::paper_default()), dim, classes, &mut rng) {
        Err(e) => println!("pixelfly on MNIST: REJECTED as in the paper — {e}\n"),
        Ok(_) => println!("pixelfly on MNIST: unexpectedly constructed (differs from paper)\n"),
    }

    // Claims 2 & 3: train the remaining methods.
    let data = generate(&SynthSpec::mnist_like(samples, 601));
    let mut rows = Vec::new();
    let mut baseline_acc = 0.0f64;
    let mut butterfly_acc = 0.0f64;
    for method in [
        Method::Baseline,
        Method::Butterfly,
        Method::OrthoButterfly,
        Method::Fastfood,
        Method::Circulant,
        Method::LowRank { rank: 1 },
    ] {
        let mut rng = seeded_rng(602);
        let s = split(data.clone(), 0.2, 0.15, &mut rng);
        let mut model =
            build_shl(method, dim, classes, &mut rng).expect("non-pixelfly methods pad");
        let config = TrainConfig { epochs, seed: 603, ..TrainConfig::default() };
        let report = fit(&mut model, &s, &config);
        let acc = report.test_accuracy * 100.0;
        if method == Method::Baseline {
            baseline_acc = acc;
        }
        if method == Method::Butterfly {
            butterfly_acc = acc;
        }
        rows.push(vec![
            method.label().to_string(),
            shl_param_count(method, dim, classes).to_string(),
            format!("{acc:.2}"),
        ]);
    }
    println!("{}", format_table(&["method", "N_Params", "acc %"], &rows));
    println!(
        "butterfly vs baseline: {butterfly_acc:.2}% vs {baseline_acc:.2}% -> {}",
        if butterfly_acc >= baseline_acc - 0.5 {
            "within noise of / above the baseline (paper: slight improvements from regularization)"
        } else {
            "below the baseline on this run"
        }
    );
}
