//! In-memory classification datasets and train/val/test splitting.

use bfly_tensor::Matrix;
use rand::seq::SliceRandom;
use rand::Rng;

/// A labelled classification dataset. Each row of `features` is one sample.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Sample features, one row per sample.
    pub features: Matrix,
    /// Class label per sample, in `0..num_classes`.
    pub labels: Vec<usize>,
    /// Number of classes.
    pub num_classes: usize,
}

impl Dataset {
    /// Creates a dataset, validating shapes and label ranges.
    ///
    /// # Panics
    /// Panics if `labels.len() != features.rows()` or any label is out of
    /// range.
    pub fn new(features: Matrix, labels: Vec<usize>, num_classes: usize) -> Self {
        assert_eq!(features.rows(), labels.len(), "feature/label count mismatch");
        assert!(labels.iter().all(|&l| l < num_classes), "label out of range");
        Self { features, labels, num_classes }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.features.cols()
    }

    /// Reorders the samples in place so that sample `q` becomes the old
    /// sample `perm[q]`, following each cycle of `perm` with one row buffer.
    fn permute(&mut self, mut perm: Vec<usize>) {
        let dim = self.dim();
        let mut row = vec![0.0f32; dim];
        let features = self.features.as_mut_slice();
        for start in 0..perm.len() {
            if perm[start] == start {
                continue;
            }
            row.copy_from_slice(&features[start * dim..(start + 1) * dim]);
            let label = self.labels[start];
            let mut dst = start;
            loop {
                let src = perm[dst];
                // A settled slot points at itself, so no cycle is walked twice.
                perm[dst] = dst;
                if src == start {
                    features[dst * dim..(dst + 1) * dim].copy_from_slice(&row);
                    self.labels[dst] = label;
                    break;
                }
                features.copy_within(src * dim..(src + 1) * dim, dst * dim);
                self.labels[dst] = self.labels[src];
                dst = src;
            }
        }
    }

    /// Moves the samples from `at` on into a new dataset and gives their
    /// room here back to the allocator.
    fn split_off(&mut self, at: usize) -> Dataset {
        let (rows, dim) = self.features.shape();
        let mut features = std::mem::replace(&mut self.features, Matrix::zeros(0, dim)).into_vec();
        let tail = Matrix::from_vec(rows - at, dim, features[at * dim..].to_vec());
        features.truncate(at * dim);
        features.shrink_to_fit();
        self.features = Matrix::from_vec(at, dim, features);
        let labels = self.labels.split_off(at);
        self.labels.shrink_to_fit();
        Dataset { features: tail, labels, num_classes: self.num_classes }
    }
}

/// A train/validation/test partition of a dataset.
#[derive(Debug, Clone)]
pub struct Split {
    /// Training samples.
    pub train: Dataset,
    /// Validation samples (the paper holds out 15 % of the training set).
    pub val: Dataset,
    /// Test samples.
    pub test: Dataset,
}

/// Splits a dataset into train/val/test.
///
/// `val_fraction` is taken from the *training* portion after removing the
/// test samples, following Table 3 ("validation set: 15 % of training set").
///
/// The samples are shuffled in place and each held-out split is then copied
/// off the tail, so the dataset is never held twice: beyond the shuffled
/// order and one row, the extra memory is at most the larger held-out split.
/// In shuffled order the first test-sized block is the test split, the next
/// val-sized block the validation split and the rest the training split.
pub fn split(
    mut data: Dataset,
    test_fraction: f64,
    val_fraction: f64,
    rng: &mut impl Rng,
) -> Split {
    assert!((0.0..1.0).contains(&test_fraction));
    assert!((0.0..1.0).contains(&val_fraction));
    let n = data.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    let n_test = ((n as f64) * test_fraction).round() as usize;
    let n_val = (((n - n_test) as f64) * val_fraction).round() as usize;
    let n_train = n - n_test - n_val;
    // Lay the samples out as [train | test | val], each in shuffled order.
    order.rotate_left(n_test + n_val);
    data.permute(order);
    let val = data.split_off(n_train + n_test);
    let test = data.split_off(n_train);
    Split { train: data, val, test }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfly_tensor::seeded_rng;
    use proptest::prelude::*;

    fn toy(n: usize, dim: usize) -> Dataset {
        let features = Matrix::from_fn(n, dim, |r, c| (r * dim + c) as f32);
        let labels = (0..n).map(|i| i % 3).collect();
        Dataset::new(features, labels, 3)
    }

    /// Copies the samples at `indices` into a new dataset.
    fn select(data: &Dataset, indices: &[usize]) -> Dataset {
        let mut features = Matrix::zeros(indices.len(), data.dim());
        let mut labels = Vec::with_capacity(indices.len());
        for (dst, &src) in indices.iter().enumerate() {
            features.row_mut(dst).copy_from_slice(data.features.row(src));
            labels.push(data.labels[src]);
        }
        Dataset { features, labels, num_classes: data.num_classes }
    }

    /// `split` as it was before it worked in place: a shuffled copy of the
    /// whole dataset, then a copy of each split from it.
    fn split_by_copies(
        data: Dataset,
        test_fraction: f64,
        val_fraction: f64,
        rng: &mut impl Rng,
    ) -> Split {
        let mut order: Vec<usize> = (0..data.len()).collect();
        order.shuffle(rng);
        let data = select(&data, &order);
        let n = data.len();
        let n_test = ((n as f64) * test_fraction).round() as usize;
        let n_train_total = n - n_test;
        let n_val = ((n_train_total as f64) * val_fraction).round() as usize;
        let idx: Vec<usize> = (0..n).collect();
        let test = select(&data, &idx[0..n_test]);
        let val = select(&data, &idx[n_test..n_test + n_val]);
        let train = select(&data, &idx[n_test + n_val..]);
        Split { train, val, test }
    }

    #[test]
    fn select_pairs_features_with_labels() {
        let d = toy(10, 4);
        let s = select(&d, &[3, 7]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.labels, vec![0, 1]);
        assert_eq!(s.features.row(0), d.features.row(3));
    }

    #[test]
    fn split_fractions_are_respected() {
        let d = toy(100, 2);
        let mut rng = seeded_rng(1);
        let s = split(d, 0.2, 0.15, &mut rng);
        assert_eq!(s.test.len(), 20);
        assert_eq!(s.val.len(), 12); // 15% of 80
        assert_eq!(s.train.len(), 68);
    }

    #[test]
    fn split_partitions_all_samples() {
        let d = toy(57, 3);
        let mut rng = seeded_rng(2);
        let s = split(d, 0.1, 0.15, &mut rng);
        assert_eq!(s.train.len() + s.val.len() + s.test.len(), 57);
    }

    #[test]
    fn shuffle_keeps_feature_label_pairing() {
        let d = toy(20, 2);
        let pairs_before: Vec<(f32, usize)> =
            (0..20).map(|i| (d.features[(i, 0)], d.labels[i])).collect();
        let s = split(d, 0.25, 0.2, &mut seeded_rng(3));
        for part in [&s.train, &s.val, &s.test] {
            for i in 0..part.len() {
                let pair = (part.features[(i, 0)], part.labels[i]);
                assert!(pairs_before.contains(&pair), "pairing broken at {i}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn split_matches_shuffled_copies(
            n in 0usize..120,
            dim in 1usize..6,
            test_fraction in 0.0f64..0.9,
            val_fraction in 0.0f64..0.9,
            seed in 0u64..1_000,
        ) {
            let data = toy(n, dim);
            let got = split(data.clone(), test_fraction, val_fraction, &mut seeded_rng(seed));
            let want = split_by_copies(data, test_fraction, val_fraction, &mut seeded_rng(seed));
            for (g, w) in [(&got.train, &want.train), (&got.val, &want.val), (&got.test, &want.test)]
            {
                prop_assert_eq!(g.features.shape(), w.features.shape());
                prop_assert_eq!(g.features.as_slice(), w.features.as_slice());
                prop_assert_eq!(&g.labels, &w.labels);
                prop_assert_eq!(g.num_classes, w.num_classes);
            }
        }
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_out_of_range_labels() {
        let _ = Dataset::new(Matrix::zeros(2, 2), vec![0, 5], 3);
    }
}
