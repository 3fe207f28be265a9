//! Permutations — the `P^(N)` of the butterfly factorization `T = B P`.
//!
//! The paper's Eq. 2 factors a structured transform into butterfly factors
//! applied after "separation into two halves by some permutation"; the FFT
//! special case uses bit reversal / even-odd separation. This module provides
//! those permutations plus composition, inversion, and application to vectors
//! and matrix rows.

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::matrix::Matrix;

/// A permutation of `{0, .., n-1}`, stored as a forward map:
/// output index `i` takes input element `map[i]` (i.e. `y[i] = x[map[i]]`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Permutation {
    map: Vec<u32>,
}

impl Permutation {
    /// Identity permutation of size `n`.
    pub fn identity(n: usize) -> Self {
        Self { map: (0..n as u32).collect() }
    }

    /// Uniformly random permutation.
    pub fn random(n: usize, rng: &mut impl Rng) -> Self {
        let mut map: Vec<u32> = (0..n as u32).collect();
        map.shuffle(rng);
        Self { map }
    }

    /// Bit-reversal permutation (requires power-of-two `n`).
    ///
    /// This is the initial permutation of the radix-2 FFT, i.e. the canonical
    /// `P^(N)` in Eq. 3 of the paper.
    pub fn bit_reversal(n: usize) -> Self {
        assert!(n.is_power_of_two(), "bit reversal needs power-of-two size");
        let bits = n.trailing_zeros();
        let map = (0..n as u32)
            .map(|i| if bits == 0 { i } else { i.reverse_bits() >> (32 - bits) })
            .collect();
        Self { map }
    }

    /// Size of the permuted domain.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True for the empty permutation.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The forward map slice (`y[i] = x[map[i]]`).
    pub fn map(&self) -> &[u32] {
        &self.map
    }

    /// Inverse permutation.
    pub fn inverse(&self) -> Permutation {
        let mut inv = vec![0u32; self.map.len()];
        for (i, &m) in self.map.iter().enumerate() {
            inv[m as usize] = i as u32;
        }
        Self { map: inv }
    }

    /// Composition `self after other`: applying the result equals applying
    /// `other` first, then `self`.
    pub fn compose(&self, other: &Permutation) -> Permutation {
        assert_eq!(self.len(), other.len(), "composing permutations of different sizes");
        let map = self.map.iter().map(|&i| other.map[i as usize]).collect();
        Self { map }
    }

    /// Applies to a vector: `y[i] = x[map[i]]`.
    pub fn apply(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.len(), "permutation size mismatch");
        self.map.iter().map(|&i| x[i as usize]).collect()
    }

    /// Applies to every column of a row-major matrix whose *rows* are the
    /// vectors being permuted — i.e. permutes the columns of each row.
    pub fn apply_to_rows(&self, m: &Matrix) -> Matrix {
        assert_eq!(m.cols(), self.len(), "permutation/matrix width mismatch");
        let mut out = Matrix::zeros(m.rows(), m.cols());
        for r in 0..m.rows() {
            let src = m.row(r);
            let dst = out.row_mut(r);
            for (i, &j) in self.map.iter().enumerate() {
                dst[i] = src[j as usize];
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    #[test]
    fn identity_is_noop() {
        let p = Permutation::identity(5);
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(p.apply(&x), x.to_vec());
    }

    #[test]
    fn inverse_round_trips() {
        let mut rng = seeded_rng(3);
        let p = Permutation::random(33, &mut rng);
        let x: Vec<f32> = (0..33).map(|i| i as f32).collect();
        let y = p.inverse().apply(&p.apply(&x));
        assert_eq!(x, y);
    }

    #[test]
    fn compose_applies_right_then_left() {
        let mut rng = seeded_rng(4);
        let p = Permutation::random(16, &mut rng);
        let q = Permutation::random(16, &mut rng);
        let x: Vec<f32> = (0..16).map(|i| (i * i) as f32).collect();
        let via_compose = p.compose(&q).apply(&x);
        let via_seq = p.apply(&q.apply(&x));
        assert_eq!(via_compose, via_seq);
    }

    #[test]
    fn bit_reversal_is_involution() {
        let p = Permutation::bit_reversal(32);
        assert_eq!(p.compose(&p), Permutation::identity(32));
    }

    #[test]
    fn apply_to_rows_matches_per_row_apply() {
        let mut rng = seeded_rng(6);
        let p = Permutation::random(10, &mut rng);
        let m = Matrix::from_fn(4, 10, |r, c| (r * 10 + c) as f32);
        let out = p.apply_to_rows(&m);
        for r in 0..4 {
            assert_eq!(out.row(r), p.apply(m.row(r)).as_slice());
        }
    }
}
