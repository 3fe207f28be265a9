//! Property-based integration tests of the fused inference hot path:
//! `Sequential::forward_inference` must be bit-identical to the training-mode
//! forward for every Table 4 method — including ragged (non-power-of-two,
//! rectangular) shapes — and running it concurrently from many threads over
//! a shared frozen model must change nothing.

use bfly_core::{build_shl, Method, PixelflyConfig};
use bfly_nn::{Layer, Sgd};
use bfly_tensor::{seeded_rng, Matrix, Scratch};
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Fused inference equals the per-stage training forward bit-for-bit on
    /// ragged shapes, for every Table 4 method that accepts the shape
    /// (pixelfly's paper grid rejects small ragged dims; that rejection is
    /// its own test below).
    #[test]
    fn fused_inference_matches_training_forward_ragged(
        seed in 0u64..1000, dim in 9usize..40, batch in 1usize..8,
    ) {
        let classes = 4;
        let mut methods = Method::table4_all();
        methods.push(Method::OrthoButterfly);
        for method in methods {
            let mut rng = seeded_rng(seed);
            let Ok(mut model) = build_shl(method, dim, classes, &mut rng) else {
                continue;
            };
            let mut rng = seeded_rng(seed ^ 0xA5A5);
            let x = Matrix::random_uniform(batch, dim, 1.0, &mut rng);
            let train = model.forward(&x, true);
            let mut scratch = Scratch::new();
            let infer = model.forward_inference(&x, &mut scratch);
            prop_assert_eq!(
                train.as_slice(), infer.as_slice(),
                "{} diverged at dim {} batch {}", method.label(), dim, batch
            );
        }
    }

    /// Concurrent lock-free forwards over one shared model are bit-identical
    /// to the single-threaded result — no hidden shared mutable state.
    #[test]
    fn concurrent_inference_is_bit_exact(seed in 0u64..1000, batch in 1usize..6) {
        let dim = 256;
        let mut rng = seeded_rng(seed);
        let model = build_shl(Method::Butterfly, dim, 10, &mut rng).expect("valid");
        let x = Matrix::random_uniform(batch, dim, 1.0, &mut rng);
        let mut scratch = Scratch::new();
        let want = model.forward_inference(&x, &mut scratch);
        let model = Arc::new(model);
        let results: Vec<Matrix> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let model = Arc::clone(&model);
                    let x = x.clone();
                    s.spawn(move || {
                        let mut scratch = Scratch::new();
                        model.forward_inference(&x, &mut scratch)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("no panic")).collect()
        });
        for got in results {
            prop_assert_eq!(got.as_slice(), want.as_slice());
        }
    }
}

/// All Table 4 methods (pixelfly included, at its conforming power-of-two
/// dimension) agree between the training forward and fused inference, and
/// still agree after an optimizer step: inference reads the updated
/// weights, not a copy taken before the step.
#[test]
fn fused_inference_matches_training_forward_pow2_all_methods() {
    let dim = 256;
    let mut methods = Method::table4_all();
    methods.push(Method::OrthoButterfly);
    for method in methods {
        let mut rng = seeded_rng(77);
        let mut model = build_shl(method, dim, 10, &mut rng).expect("256 fits every method");
        let x = Matrix::random_uniform(5, dim, 1.0, &mut rng);
        let train = model.forward(&x, true);
        let mut scratch = Scratch::new();
        let infer = model.forward_inference(&x, &mut scratch);
        assert_eq!(train.as_slice(), infer.as_slice(), "{} diverged", method.label());

        model.zero_grad();
        let _ = model.backward(&train);
        Sgd::new(0.1, 0.9).step(&mut model.params());
        // Inference first: a layer that refreshes a private copy of its
        // weights in `forward` must not leave `forward_inference` stale.
        let infer = model.forward_inference(&x, &mut scratch);
        let eval = model.forward(&x, false);
        assert_ne!(eval.as_slice(), train.as_slice(), "{}: the step moved nothing", method.label());
        assert_eq!(
            eval.as_slice(),
            infer.as_slice(),
            "{} diverged after an optimizer step",
            method.label()
        );
    }
}

/// Pixelfly's paper configuration rejects dims its block grid cannot tile;
/// the ragged property test above relies on that rejection being an `Err`,
/// not a panic.
#[test]
fn pixelfly_rejects_ragged_dims_gracefully() {
    let mut rng = seeded_rng(5);
    let result = build_shl(Method::Pixelfly(PixelflyConfig::paper_default()), 33, 4, &mut rng);
    assert!(result.is_err());
}
