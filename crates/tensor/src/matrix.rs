//! Dense row-major `f32` matrices.
//!
//! This is the workhorse container of the workspace: activations, weights and
//! materialised factorizations are all [`Matrix`] values. The layout is plain
//! row-major with no stride tricks, which keeps kernels simple and lets rayon
//! split work by row slices without aliasing concerns.

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix of `f32` values.
///
/// Invariant: `data.len() == rows * cols` at all times.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Wraps an existing buffer as a matrix.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self { rows: r, cols: c, data }
    }

    /// Fills a matrix with samples from `U(-scale, scale)`.
    pub fn random_uniform(rows: usize, cols: usize, scale: f32, rng: &mut impl Rng) -> Self {
        let data = (0..rows * cols).map(|_| rng.gen_range(-scale..=scale)).collect();
        Self { rows, cols, data }
    }

    /// Fills a matrix with `N(0, std^2)` samples (Box-Muller, deterministic per RNG).
    pub fn random_normal(rows: usize, cols: usize, std: f32, rng: &mut impl Rng) -> Self {
        let n = rows * cols;
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < n {
                data.push(r * theta.sin() * std);
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat element slice (row-major).
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat element slice (row-major).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrow of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterator over row slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Copies column `c` into a fresh vector.
    pub fn col(&self, c: usize) -> Vec<f32> {
        assert!(c < self.cols);
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        // Blocked transpose: keeps both source and destination accesses within
        // a cache-line-friendly window.
        const B: usize = 32;
        for rb in (0..self.rows).step_by(B) {
            for cb in (0..self.cols).step_by(B) {
                for r in rb..(rb + B).min(self.rows) {
                    for c in cb..(cb + B).min(self.cols) {
                        out.data[c * self.rows + r] = self.data[r * self.cols + c];
                    }
                }
            }
        }
        out
    }

    /// Element-wise sum; shapes must match.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in add");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a + b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Element-wise difference; shapes must match.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in sub");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a - b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// In-place `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in axpy");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Returns `alpha * self`.
    pub fn scale(&self, alpha: f32) -> Matrix {
        let data = self.data.iter().map(|a| a * alpha).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in hadamard");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a * b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|x| (*x as f64) * (*x as f64)).sum::<f64>().sqrt() as f32
    }

    /// Largest absolute element.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, x| m.max(x.abs()))
    }

    /// Relative Frobenius distance `|self - other|_F / max(|other|_F, eps)`.
    pub fn relative_error(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in relative_error");
        let denom = other.frobenius_norm().max(1e-12);
        self.sub(other).frobenius_norm() / denom
    }

    /// Number of elements whose absolute value exceeds `eps`.
    pub fn count_nonzero(&self, eps: f32) -> usize {
        self.data.iter().filter(|x| x.abs() > eps).count()
    }

    /// Extracts a sub-matrix (copy) of `height x width` starting at `(r0, c0)`.
    ///
    /// # Panics
    /// Panics if the window exceeds the matrix bounds.
    pub fn submatrix(&self, r0: usize, c0: usize, height: usize, width: usize) -> Matrix {
        assert!(r0 + height <= self.rows && c0 + width <= self.cols, "submatrix out of bounds");
        let mut out = Matrix::zeros(height, width);
        for r in 0..height {
            let src = &self.data[(r0 + r) * self.cols + c0..(r0 + r) * self.cols + c0 + width];
            out.row_mut(r).copy_from_slice(src);
        }
        out
    }

    /// Writes `block` into `self` starting at `(r0, c0)`.
    pub fn set_submatrix(&mut self, r0: usize, c0: usize, block: &Matrix) {
        assert!(
            r0 + block.rows <= self.rows && c0 + block.cols <= self.cols,
            "set_submatrix out of bounds"
        );
        for r in 0..block.rows {
            let dst_start = (r0 + r) * self.cols + c0;
            self.data[dst_start..dst_start + block.cols].copy_from_slice(block.row(r));
        }
    }

    /// Pads with zeros to the given shape (must be >= current shape).
    pub fn zero_pad(&self, rows: usize, cols: usize) -> Matrix {
        assert!(rows >= self.rows && cols >= self.cols, "zero_pad must grow the matrix");
        let mut out = Matrix::zeros(rows, cols);
        out.set_submatrix(0, 0, self);
        out
    }

    /// Sum of all elements (f64 accumulator for stability).
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|x| *x as f64).sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Returns a new matrix with `f` applied element-wise.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Matrix {
        let data = self.data.iter().map(|x| f(*x)).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for r in 0..show_rows {
            let row = self.row(r);
            let show_cols = row.len().min(8);
            write!(f, "  [")?;
            for (i, v) in row[..show_cols].iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v:.4}")?;
            }
            if row.len() > show_cols {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > show_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    #[test]
    fn zeros_has_right_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_is_diagonal() {
        let m = Matrix::identity(4);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(m[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_fn_indexes_row_major() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m[(1, 2)], 12.0);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn transpose_round_trips() {
        let mut rng = seeded_rng(7);
        let m = Matrix::random_uniform(37, 53, 1.0, &mut rng);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn transpose_swaps_indices() {
        let m = Matrix::from_fn(5, 9, |r, c| (r * 100 + c) as f32);
        let t = m.transpose();
        assert_eq!(t.shape(), (9, 5));
        for r in 0..5 {
            for c in 0..9 {
                assert_eq!(t[(c, r)], m[(r, c)]);
            }
        }
    }

    #[test]
    fn add_sub_axpy_are_consistent() {
        let mut rng = seeded_rng(1);
        let a = Matrix::random_uniform(4, 4, 1.0, &mut rng);
        let b = Matrix::random_uniform(4, 4, 1.0, &mut rng);
        let mut c = a.clone();
        c.axpy(1.0, &b);
        assert!(c.relative_error(&a.add(&b)) < 1e-6);
        assert!(a.add(&b).sub(&b).relative_error(&a) < 1e-5);
    }

    #[test]
    fn submatrix_and_set_submatrix_round_trip() {
        let m = Matrix::from_fn(6, 6, |r, c| (r * 6 + c) as f32);
        let b = m.submatrix(2, 3, 3, 2);
        assert_eq!(b[(0, 0)], m[(2, 3)]);
        let mut target = Matrix::zeros(6, 6);
        target.set_submatrix(2, 3, &b);
        assert_eq!(target[(4, 4)], m[(4, 4)]);
        assert_eq!(target[(0, 0)], 0.0);
    }

    #[test]
    fn zero_pad_preserves_content() {
        let m = Matrix::from_fn(3, 3, |r, c| (r + c) as f32);
        let p = m.zero_pad(5, 4);
        assert_eq!(p.shape(), (5, 4));
        assert_eq!(p.submatrix(0, 0, 3, 3), m);
        assert_eq!(p[(4, 3)], 0.0);
    }

    #[test]
    fn frobenius_norm_matches_manual() {
        let m = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn random_normal_moments_are_sane() {
        let mut rng = seeded_rng(42);
        let m = Matrix::random_normal(100, 100, 2.0, &mut rng);
        let mean = m.mean();
        let var =
            m.as_slice().iter().map(|x| (*x as f64 - mean).powi(2)).sum::<f64>() / m.len() as f64;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn count_nonzero_with_threshold() {
        let m = Matrix::from_rows(&[&[0.0, 1e-9, 0.5, -0.5]]);
        assert_eq!(m.count_nonzero(1e-6), 2);
    }

    #[test]
    fn hadamard_multiplies_elementwise() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[2.0, 0.5], &[1.0, 0.25]]);
        assert_eq!(a.hadamard(&b), Matrix::from_rows(&[&[2.0, 1.0], &[3.0, 1.0]]));
    }
}
