//! Training the paper's SHL benchmark (§4.2) on the synthetic
//! CIFAR-10-like task: dense baseline vs butterfly hidden layer.
//!
//! Run with: `cargo run --release --example train_cifar`
//! Optional env: BFLY_SAMPLES (default 2000), BFLY_EPOCHS (default 6).

use bfly_bench::env_usize;
use bfly_core::{build_shl, compression_percent, shl_param_count, Method};
use bfly_data::{generate, split, SynthSpec};
use bfly_nn::{fit, TrainConfig};
use bfly_tensor::seeded_rng;

fn main() {
    let samples = env_usize("BFLY_SAMPLES", 2000);
    let epochs = env_usize("BFLY_EPOCHS", 6);
    let dim = 1024;
    let classes = 10;

    println!(
        "generating synthetic CIFAR-10-like data ({samples} samples, {dim}-dim, {classes} classes)"
    );
    let data = generate(&SynthSpec::cifar10_like(samples, 7));
    let mut rng = seeded_rng(8);
    let s = split(data, 0.2, 0.15, &mut rng);
    println!("split: {} train / {} val / {} test\n", s.train.len(), s.val.len(), s.test.len());

    // Table 3 hyperparameters: SGD(lr 0.001, momentum 0.9), batch 50, ReLU,
    // cross-entropy, 15% validation.
    let config = TrainConfig { epochs, seed: 9, verbose: true, ..TrainConfig::default() };

    for method in [Method::Baseline, Method::Butterfly] {
        let n_params = shl_param_count(method, dim, classes);
        println!("=== {method} ({n_params} parameters) ===");
        let mut model = build_shl(method, dim, classes, &mut rng)
            .expect("1024 is a power of two, every method is valid");
        let report = fit(&mut model, &s, &config);
        println!(
            "{method}: test accuracy {:.2}% after {} steps ({:.1}s host training)\n",
            report.test_accuracy * 100.0,
            report.steps,
            report.train_seconds
        );
    }
    println!(
        "butterfly uses {:.1}% fewer parameters than the dense baseline",
        compression_percent(Method::Butterfly, dim, classes)
    );
    println!("(paper: 98.5% compression at <1.5% accuracy cost on CIFAR-10)");
}
