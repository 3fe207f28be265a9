//! Training loop implementing the paper's SHL benchmark methodology
//! (§4.2, Table 3 hyperparameters).

use crate::layer::Layer;
use crate::loss::{accuracy, softmax_cross_entropy};
use crate::optim::Sgd;
use bfly_data::{Dataset, Split};
use bfly_tensor::{derived_rng, Matrix};
use rand::seq::SliceRandom;

/// Hyperparameters, defaulting to Table 3 of the paper.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Learning rate (paper: 0.001).
    pub lr: f32,
    /// Momentum (paper: 0.9).
    pub momentum: f32,
    /// Mini-batch size (paper: 50).
    pub batch_size: usize,
    /// Number of epochs to train.
    pub epochs: usize,
    /// Seed for batch shuffling.
    pub seed: u64,
    /// If true, prints per-epoch progress to stderr.
    pub verbose: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self { lr: 0.001, momentum: 0.9, batch_size: 50, epochs: 10, seed: 0, verbose: false }
    }
}

/// Per-epoch record of a training run.
#[derive(Debug, Clone)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss over the epoch.
    pub train_loss: f64,
    /// Training accuracy over the epoch (running, on training batches).
    pub train_accuracy: f64,
    /// Validation accuracy at epoch end.
    pub val_accuracy: f64,
}

/// Outcome of [`fit`].
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Per-epoch statistics.
    pub epochs: Vec<EpochStats>,
    /// Final test accuracy.
    pub test_accuracy: f64,
    /// Wall-clock seconds spent gathering each batch's rows and in
    /// forward+backward+step (excludes data generation, the per-epoch
    /// shuffle and validation), mirroring the paper's "execution time of
    /// the layers".
    pub train_seconds: f64,
    /// Number of optimizer steps taken.
    pub steps: usize,
}

/// Copies the rows `rows` of `features` into `buf`, reusing its allocation,
/// and wraps them as a matrix; [`Matrix::into_vec`] hands the buffer back.
fn gather(
    features: &Matrix,
    rows: impl ExactSizeIterator<Item = usize>,
    mut buf: Vec<f32>,
) -> Matrix {
    let n = rows.len();
    buf.clear();
    for r in rows {
        buf.extend_from_slice(features.row(r));
    }
    Matrix::from_vec(n, features.cols(), buf)
}

/// Trains `model` on `split.train`, validating on `split.val` and finally
/// evaluating on `split.test`.
///
/// Each epoch shuffles the row indices of the training split, and each step
/// gathers its batch into one reused buffer, so training holds one batch
/// beside the split rather than a shuffled copy of it.
///
/// # Panics
/// Panics if `config.batch_size` is zero.
pub fn fit(model: &mut dyn Layer, split: &Split, config: &TrainConfig) -> TrainReport {
    assert!(config.batch_size > 0, "batch_size must be positive");
    let opt = Sgd::new(config.lr, config.momentum);
    let mut shuffle_rng = derived_rng(config.seed, 1000);
    let train = &split.train;
    let mut order: Vec<usize> = Vec::with_capacity(train.len());
    let mut buf = Vec::with_capacity(config.batch_size.min(train.len()) * train.dim());
    let mut labels = Vec::new();
    let mut epochs = Vec::with_capacity(config.epochs);
    let mut train_seconds = 0.0f64;
    let mut steps = 0usize;
    for epoch in 0..config.epochs {
        let mut loss_sum = 0.0f64;
        let mut correct = 0usize;
        let mut seen = 0usize;
        order.clear();
        order.extend(0..train.len());
        order.shuffle(&mut shuffle_rng);
        let t0 = std::time::Instant::now();
        for chunk in order.chunks(config.batch_size) {
            let features = gather(&train.features, chunk.iter().copied(), buf);
            labels.clear();
            labels.extend(chunk.iter().map(|&r| train.labels[r]));
            model.zero_grad();
            let logits = model.forward(&features, true);
            let out = softmax_cross_entropy(&logits, &labels);
            loss_sum += out.loss * labels.len() as f64;
            correct += (accuracy(&logits, &labels) * labels.len() as f64).round() as usize;
            seen += labels.len();
            let _ = model.backward(&out.grad);
            opt.step(&mut model.params());
            steps += 1;
            buf = features.into_vec();
        }
        train_seconds += t0.elapsed().as_secs_f64();
        let val_accuracy = evaluate(model, &split.val);
        let stats = EpochStats {
            epoch,
            train_loss: loss_sum / seen.max(1) as f64,
            train_accuracy: correct as f64 / seen.max(1) as f64,
            val_accuracy,
        };
        if config.verbose {
            eprintln!(
                "epoch {:>3}  loss {:.4}  train-acc {:.3}  val-acc {:.3}",
                epoch, stats.train_loss, stats.train_accuracy, stats.val_accuracy
            );
        }
        epochs.push(stats);
    }
    let test_accuracy = evaluate(model, &split.test);
    TrainReport { epochs, test_accuracy, train_seconds, steps }
}

/// Computes classification accuracy of `model` on a dataset (inference mode,
/// processed in chunks of 256 rows gathered into one reused buffer to bound
/// memory).
pub fn evaluate(model: &mut dyn Layer, data: &Dataset) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let chunk = 256usize;
    let mut buf = Vec::with_capacity(chunk.min(data.len()) * data.dim());
    let mut correct = 0usize;
    let mut r = 0usize;
    while r < data.len() {
        let end = (r + chunk).min(data.len());
        let feats = gather(&data.features, r..end, buf);
        let logits = model.forward(&feats, false);
        correct += (accuracy(&logits, &data.labels[r..end]) * (end - r) as f64).round() as usize;
        buf = feats.into_vec();
        r = end;
    }
    correct as f64 / data.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Relu;
    use crate::dense::Dense;
    use crate::layer::Sequential;
    use bfly_data::{generate, split, SynthSpec};
    use bfly_tensor::seeded_rng;

    fn split_of(samples: usize) -> Split {
        let spec = SynthSpec {
            dim: 32,
            num_classes: 3,
            samples,
            latent_dim: 8,
            latent_noise: 0.3,
            pixel_noise: 0.05,
            seed: 5,
        };
        let data = generate(&spec);
        let mut rng = seeded_rng(6);
        split(data, 0.2, 0.15, &mut rng)
    }

    fn shl(seed: u64) -> Sequential {
        let mut rng = seeded_rng(seed);
        Sequential::new()
            .push(Box::new(Dense::new(32, 32, &mut rng)))
            .push(Box::new(Relu::new()))
            .push(Box::new(Dense::new(32, 3, &mut rng)))
    }

    /// `fit` as it was before batches were gathered into one buffer: each
    /// epoch copies all its batches out of the training split up front.
    fn fit_by_copies(model: &mut dyn Layer, split: &Split, config: &TrainConfig) -> TrainReport {
        let opt = Sgd::new(config.lr, config.momentum);
        let mut shuffle_rng = derived_rng(config.seed, 1000);
        let train = &split.train;
        let mut epochs = Vec::new();
        let mut steps = 0;
        for epoch in 0..config.epochs {
            let mut order: Vec<usize> = (0..train.len()).collect();
            order.shuffle(&mut shuffle_rng);
            let batches: Vec<(Matrix, Vec<usize>)> = order
                .chunks(config.batch_size)
                .map(|chunk| {
                    let mut features = Matrix::zeros(chunk.len(), train.dim());
                    for (dst, &src) in chunk.iter().enumerate() {
                        features.row_mut(dst).copy_from_slice(train.features.row(src));
                    }
                    (features, chunk.iter().map(|&r| train.labels[r]).collect())
                })
                .collect();
            let (mut loss_sum, mut correct, mut seen) = (0.0f64, 0usize, 0usize);
            for (features, labels) in &batches {
                model.zero_grad();
                let logits = model.forward(features, true);
                let out = softmax_cross_entropy(&logits, labels);
                loss_sum += out.loss * labels.len() as f64;
                correct += (accuracy(&logits, labels) * labels.len() as f64).round() as usize;
                seen += labels.len();
                let _ = model.backward(&out.grad);
                opt.step(&mut model.params());
                steps += 1;
            }
            epochs.push(EpochStats {
                epoch,
                train_loss: loss_sum / seen.max(1) as f64,
                train_accuracy: correct as f64 / seen.max(1) as f64,
                val_accuracy: evaluate_by_copies(model, &split.val),
            });
        }
        let test_accuracy = evaluate_by_copies(model, &split.test);
        TrainReport { epochs, test_accuracy, train_seconds: 0.0, steps }
    }

    /// `evaluate` with a fresh matrix per 256-row chunk.
    fn evaluate_by_copies(model: &mut dyn Layer, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let mut correct = 0usize;
        for r in (0..data.len()).step_by(256) {
            let end = (r + 256).min(data.len());
            let logits = model.forward(&data.features.submatrix(r, 0, end - r, data.dim()), false);
            correct +=
                (accuracy(&logits, &data.labels[r..end]) * (end - r) as f64).round() as usize;
        }
        correct as f64 / data.len() as f64
    }

    #[test]
    fn training_improves_over_chance() {
        let s = split_of(300);
        let mut model = shl(7);
        let config = TrainConfig { epochs: 30, lr: 0.05, ..TrainConfig::default() };
        let report = fit(&mut model, &s, &config);
        assert!(
            report.test_accuracy > 0.5,
            "test accuracy {} not above chance 0.33",
            report.test_accuracy
        );
        // Loss should decrease from first to last epoch.
        let first = report.epochs.first().map(|e| e.train_loss).unwrap_or(0.0);
        let last = report.epochs.last().map(|e| e.train_loss).unwrap_or(0.0);
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn fit_matches_batches_built_up_front() {
        // 476 training rows: each epoch ends on a ragged batch of 26, and
        // evaluating the training split ends on a ragged chunk of 220.
        let s = split_of(700);
        assert_eq!(s.train.len(), 476);
        let config = TrainConfig { epochs: 3, lr: 0.05, seed: 11, ..TrainConfig::default() };
        let (mut model, mut reference) = (shl(12), shl(12));
        let got = fit(&mut model, &s, &config);
        let want = fit_by_copies(&mut reference, &s, &config);
        assert_eq!(got.steps, want.steps);
        assert_eq!(got.epochs.len(), want.epochs.len());
        for (g, w) in got.epochs.iter().zip(&want.epochs) {
            assert_eq!(g.epoch, w.epoch);
            assert_eq!(g.train_loss.to_bits(), w.train_loss.to_bits(), "epoch {}", g.epoch);
            assert_eq!(g.train_accuracy.to_bits(), w.train_accuracy.to_bits());
            assert_eq!(g.val_accuracy.to_bits(), w.val_accuracy.to_bits());
        }
        assert_eq!(got.test_accuracy.to_bits(), want.test_accuracy.to_bits());
        let (params, reference_params) = (model.params(), reference.params());
        assert_eq!(params.len(), reference_params.len());
        for (p, r) in params.iter().zip(&reference_params) {
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&p.value), bits(&r.value), "{}", p.name());
        }
        assert_eq!(
            evaluate(&mut model, &s.train).to_bits(),
            evaluate_by_copies(&mut reference, &s.train).to_bits()
        );
    }

    #[test]
    fn report_counts_steps() {
        let s = split_of(300);
        let mut rng = seeded_rng(8);
        let mut model = Sequential::new().push(Box::new(Dense::new(32, 3, &mut rng)));
        let config = TrainConfig { epochs: 2, batch_size: 50, ..TrainConfig::default() };
        let report = fit(&mut model, &s, &config);
        let batches_per_epoch = s.train.len().div_ceil(50);
        assert_eq!(report.steps, 2 * batches_per_epoch);
        assert_eq!(report.epochs.len(), 2);
    }

    #[test]
    fn evaluate_handles_chunking() {
        let s = split_of(700);
        let mut rng = seeded_rng(9);
        let mut model = Sequential::new().push(Box::new(Dense::new(32, 3, &mut rng)));
        // 476 training rows in 256-row chunks exercise the partial chunk.
        let acc_full = evaluate(&mut model, &s.train);
        assert!((0.0..=1.0).contains(&acc_full));
    }

    #[test]
    #[should_panic(expected = "batch_size must be positive")]
    fn zero_batch_size_panics() {
        let s = split_of(300);
        let mut model = shl(10);
        let _ = fit(&mut model, &s, &TrainConfig { batch_size: 0, ..TrainConfig::default() });
    }
}
