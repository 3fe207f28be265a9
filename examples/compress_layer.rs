//! Post-training compression — and why the paper trains butterflies from
//! scratch instead.
//!
//! Run with: `cargo run --release --example compress_layer`
//!
//! This example attempts the tempting shortcut: train a dense SHL model,
//! project its hidden weight onto a butterfly (`fit_butterfly`), fine-tune.
//! The projection *fails to transfer the function* — an arbitrary trained
//! dense matrix has no butterfly structure to find (the class covers only
//! an O(n log n)-dimensional sliver of all matrices), so the operator error
//! stays near 1.0 and accuracy collapses until fine-tuning relearns the
//! task. Training the butterfly from scratch, as the paper does, reaches
//! dense-level accuracy directly. Structure must be trained in, not
//! retrofitted.

use bfly_core::{
    build_shl, fit_butterfly, fit_butterfly_hierarchical, ButterflyLayer, FitConfig,
    HierarchicalConfig, Method,
};
use bfly_data::{generate, split, SynthSpec};
use bfly_nn::{evaluate, fit, Dense, Layer, Relu, Sequential, TrainConfig};
use bfly_tensor::{seeded_rng, Matrix};

fn main() {
    let dim = 256usize;
    let classes = 10usize;
    let spec = SynthSpec {
        dim,
        num_classes: classes,
        samples: 2000,
        latent_dim: 24,
        latent_noise: 1.2,
        pixel_noise: 0.2,
        seed: 42,
    };
    let data = generate(&spec);
    let mut rng = seeded_rng(43);
    let s = split(data, 0.2, 0.15, &mut rng);

    // 1. Train the dense baseline.
    println!("1) training the dense SHL baseline (dim {dim})...");
    let mut dense_model = build_shl(Method::Baseline, dim, classes, &mut rng).expect("valid");
    let config = TrainConfig { epochs: 8, seed: 44, ..TrainConfig::default() };
    let report = fit(&mut dense_model, &s, &config);
    let dense_params = dense_model.param_count();
    println!(
        "   dense accuracy: {:.2}%  ({dense_params} parameters)",
        report.test_accuracy * 100.0
    );

    // 2. Extract the trained weights through the affine-layer view (row-major,
    //    whatever order the layers store them in): the hidden layer is the
    //    first layer of the Sequential, the classifier the last.
    let (hidden_weight, cls_w, cls_b) = {
        let layers = dense_model.layers();
        let hidden = layers[0].dense_view().expect("the baseline hidden layer is dense");
        let classifier = layers[layers.len() - 1].dense_view().expect("the classifier is dense");
        (
            Matrix::from_vec(dim, dim, hidden.weight),
            Matrix::from_vec(classes, dim, classifier.weight),
            classifier.bias.to_vec(),
        )
    };

    // 3. Project the hidden weight onto a butterfly factorization.
    println!("2) projecting the trained {dim}x{dim} hidden weight onto a butterfly...");
    let mut fit_rng = seeded_rng(45);
    let fit_config = FitConfig { steps: 1500, lr: 0.02, ..FitConfig::default() };
    let projection =
        fit_butterfly(&hidden_weight, &fit_config, &mut fit_rng).expect("valid fit config");
    println!(
        "   operator error {:.3}; factorization keeps {:.1}% of the dense weight's parameters",
        projection.operator_error,
        100.0 * (1.0 - projection.compression)
    );
    // The deterministic hierarchical sweep (Zheng-style identification)
    // reaches the same conclusion without any gradient steps: an arbitrary
    // trained dense weight has no butterfly structure to identify.
    let sweep = fit_butterfly_hierarchical(&hidden_weight, &HierarchicalConfig::default())
        .expect("valid target");
    println!(
        "   (hierarchical identification sweep agrees: operator error {:.3})",
        sweep.operator_error
    );

    // 4. Build a butterfly SHL initialised from the projection + the trained
    //    classifier; measure accuracy before and after fine-tuning.
    println!("3) swapping the butterfly in and fine-tuning...");
    // The hidden layer draws its init from the same stream `build_shl` would
    // give it; its factors are then overwritten with the projection's.
    let mut hidden = ButterflyLayer::new(dim, dim, &mut seeded_rng(46));
    for (param, factor) in hidden.params().into_iter().zip(&projection.butterfly.factors) {
        param.value.copy_from_slice(&factor.twiddles);
        param.mark_dirty();
    }
    let mut compressed = Sequential::new()
        .push(Box::new(hidden))
        .push(Box::new(Relu::new()))
        .push(Box::new(Dense::from_parts(cls_w, cls_b)));
    let before = evaluate(&mut compressed, &s.test);
    println!("   accuracy after projection, before fine-tune: {:.2}%", before * 100.0);
    let ft_config = TrainConfig { epochs: 10, seed: 47, ..TrainConfig::default() };
    let ft = fit(&mut compressed, &s, &ft_config);
    println!(
        "   accuracy after fine-tune: {:.2}%  ({} parameters, {:.1}% fewer)",
        ft.test_accuracy * 100.0,
        compressed.param_count(),
        100.0 * (1.0 - compressed.param_count() as f64 / dense_params as f64)
    );

    // 5. Reference: butterfly trained from scratch for longer.
    let mut scratch =
        build_shl(Method::Butterfly, dim, classes, &mut seeded_rng(48)).expect("valid");
    let scratch_report =
        fit(&mut scratch, &s, &TrainConfig { epochs: 12, seed: 49, ..TrainConfig::default() });
    println!(
        "4) butterfly trained from scratch (12 epochs): {:.2}%",
        scratch_report.test_accuracy * 100.0
    );
    println!(
        "\nlesson: projection onto the butterfly class cannot rescue an arbitrary\n\
         trained dense weight (operator error ~1.0) — the factorized structure\n\
         has to be trained in from the start, which is exactly the paper's\n\
         (and Dao et al.'s) methodology."
    );
}
