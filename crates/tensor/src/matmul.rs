//! Dense matrix-multiplication kernels.
//!
//! Three variants mirror the implementation tiers the paper benchmarks on
//! both devices (Table 2): a `naive` triple loop, a cache-`blocked` kernel,
//! and the default [`matmul`], an `i-k-j` axpy loop over output rows written
//! against the `rayon` API. The offline `rayon` shim runs it sequentially,
//! so on this workspace's builds no kernel here is multi-threaded. All
//! kernels compute `C = A * B` with `A: m x k`, `B: k x n`.
//!
//! The `Dense` layer's forward does not use these: it runs the panel-major
//! kernel of [`crate::panel`].

use crate::matrix::Matrix;
use rayon::prelude::*;

/// Kernel selector, mirroring the paper's implementation tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatmulKind {
    /// Textbook `i-j-k` triple loop ("GPU naive" / "IPU naive" tier).
    Naive,
    /// Cache-blocked `i-k-j` loop ("GPU shmem" / "IPU blocked" tier).
    Blocked,
    /// The default [`matmul`] ("cublas" / "poplin" tier): a row-wise axpy
    /// loop, parallel over rows only with a real `rayon`.
    Parallel,
}

/// `C = A * B` with the selected kernel.
///
/// # Panics
/// Panics if the inner dimensions disagree.
pub fn matmul_with(kind: MatmulKind, a: &Matrix, b: &Matrix) -> Matrix {
    match kind {
        MatmulKind::Naive => matmul_naive(a, b),
        MatmulKind::Blocked => matmul_blocked(a, b),
        MatmulKind::Parallel => matmul(a, b),
    }
}

/// Default multiply: for each output row, one axpy per `A` element over a
/// row of `B`, which the compiler vectorizes. Rows are split with
/// `par_chunks_mut`, which the offline `rayon` shim runs sequentially.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul inner dimension mismatch: {:?} x {:?}",
        a.shape(),
        b.shape()
    );
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    if m == 0 || n == 0 || k == 0 {
        return c;
    }

    // One task per output row; each task reads all of B. The inner loop is
    // k-major so B rows are streamed sequentially (good hardware prefetch)
    // and the compiler can vectorise the `axpy` over the output row.
    let b_data = b.as_slice();
    c.as_mut_slice().par_chunks_mut(n).enumerate().for_each(|(i, c_row)| {
        let a_row = a.row(i);
        for (kk, &a_ik) in a_row.iter().enumerate() {
            if a_ik == 0.0 {
                continue;
            }
            let b_row = &b_data[kk * n..(kk + 1) * n];
            for (c_ij, &b_kj) in c_row.iter_mut().zip(b_row) {
                *c_ij += a_ik * b_kj;
            }
        }
    });
    c
}

/// Textbook triple loop, kept for benchmarking and cross-checking.
pub fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul inner dimension mismatch");
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a[(i, kk)] * b[(kk, j)];
            }
            c[(i, j)] = acc;
        }
    }
    c
}

/// Single-threaded cache-blocked kernel (`i-k-j` order, 64-wide tiles).
pub fn matmul_blocked(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul inner dimension mismatch");
    const T: usize = 64;
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    let b_data = b.as_slice();
    for ib in (0..m).step_by(T) {
        for kb in (0..k).step_by(T) {
            for jb in (0..n).step_by(T) {
                let i_end = (ib + T).min(m);
                let k_end = (kb + T).min(k);
                let j_end = (jb + T).min(n);
                for i in ib..i_end {
                    let a_row = a.row(i);
                    let c_row = c.row_mut(i);
                    for kk in kb..k_end {
                        let a_ik = a_row[kk];
                        if a_ik == 0.0 {
                            continue;
                        }
                        let b_row = &b_data[kk * n..kk * n + n];
                        for j in jb..j_end {
                            c_row[j] += a_ik * b_row[j];
                        }
                    }
                }
            }
        }
    }
    c
}

/// Matrix-vector product `y = A x`.
///
/// # Panics
/// Panics if `x.len() != A.cols()`.
pub fn matvec(a: &Matrix, x: &[f32]) -> Vec<f32> {
    assert_eq!(a.cols(), x.len(), "matvec dimension mismatch");
    a.rows_iter().map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum()).collect()
}

/// `C = A^T * B` without materialising the transpose.
pub fn matmul_at_b(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows(), b.rows(), "matmul_at_b dimension mismatch");
    let (k, m) = a.shape();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    // Accumulate rank-1 updates row-by-row of A/B; parallelising safely would
    // need per-thread accumulators, so for large m we fall back to transpose.
    if m * n > 1 << 16 {
        return crate::matmul::matmul(&a.transpose(), b);
    }
    for kk in 0..k {
        let a_row = a.row(kk);
        let b_row = b.row(kk);
        for (i, &a_ki) in a_row.iter().enumerate() {
            if a_ki == 0.0 {
                continue;
            }
            let c_row = c.row_mut(i);
            for (c_ij, &b_kj) in c_row.iter_mut().zip(b_row) {
                *c_ij += a_ki * b_kj;
            }
        }
    }
    c
}

/// `C = A * B^T` without materialising the transpose.
pub fn matmul_a_bt(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.cols(), "matmul_a_bt dimension mismatch");
    matmul_a_bt_slice(a, b.as_slice(), b.rows())
}

/// `C = A * B^T` with `B` given as a row-major slice of `b_rows` rows of
/// width `A.cols()`.
///
/// Layers that keep a row-major weight in a flat `Param` value (the
/// low-rank baseline's factors) multiply against it directly instead of
/// cloning it into a `Matrix` first. Every output is one sequential dot
/// product, identical to [`matmul_a_bt`], so results are bit-identical.
/// `Dense` does not use it: its weight is panel-major and its forward is
/// [`crate::panel::affine`], which computes the same bits.
///
/// # Panics
/// Panics if `b.len() != b_rows * a.cols()`.
pub fn matmul_a_bt_slice(a: &Matrix, b: &[f32], b_rows: usize) -> Matrix {
    let k = a.cols();
    assert_eq!(b.len(), b_rows * k, "matmul_a_bt_slice dimension mismatch");
    let n = b_rows;
    let mut c = Matrix::zeros(a.rows(), n);
    if n == 0 || a.rows() == 0 {
        return c;
    }
    c.as_mut_slice().par_chunks_mut(n).enumerate().for_each(|(i, c_row)| {
        let a_row = a.row(i);
        for (j, c_ij) in c_row.iter_mut().enumerate() {
            let b_row = &b[j * k..(j + 1) * k];
            *c_ij = a_row.iter().zip(b_row).map(|(x, y)| x * y).sum();
        }
    });
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    fn random(m: usize, n: usize, seed: u64) -> Matrix {
        let mut rng = seeded_rng(seed);
        Matrix::random_uniform(m, n, 1.0, &mut rng)
    }

    #[test]
    fn all_kernels_agree() {
        let a = random(33, 47, 1);
        let b = random(47, 29, 2);
        let reference = matmul_naive(&a, &b);
        assert!(matmul_blocked(&a, &b).relative_error(&reference) < 1e-5);
        assert!(matmul(&a, &b).relative_error(&reference) < 1e-5);
        assert!(matmul_with(MatmulKind::Parallel, &a, &b).relative_error(&reference) < 1e-5);
    }

    #[test]
    fn identity_is_neutral() {
        let a = random(16, 16, 3);
        let i = Matrix::identity(16);
        assert!(matmul(&a, &i).relative_error(&a) < 1e-6);
        assert!(matmul(&i, &a).relative_error(&a) < 1e-6);
    }

    #[test]
    fn skewed_shapes_work() {
        // Extreme aspect ratios like the Fig 4 sweep.
        let a = random(256, 4, 4);
        let b = random(4, 8, 5);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), (256, 8));
        assert!(c.relative_error(&matmul_naive(&a, &b)) < 1e-5);
    }

    #[test]
    fn empty_dims_yield_zeros() {
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(5, 3);
        assert_eq!(matmul(&a, &b).shape(), (0, 3));
        let a = Matrix::zeros(4, 0);
        let b = Matrix::zeros(0, 3);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), (4, 3));
        assert!(c.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn mismatched_inner_dims_panic() {
        let _ = matmul(&Matrix::zeros(2, 3), &Matrix::zeros(4, 2));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = random(12, 9, 6);
        let x: Vec<f32> = (0..9).map(|i| i as f32 * 0.1).collect();
        let xm = Matrix::from_vec(9, 1, x.clone());
        let via_mm = matmul(&a, &xm);
        let via_mv = matvec(&a, &x);
        for (i, v) in via_mv.iter().enumerate() {
            assert!((v - via_mm[(i, 0)]).abs() < 1e-5);
        }
    }

    #[test]
    fn transposed_variants_match_explicit_transpose() {
        let a = random(21, 13, 7);
        let b = random(21, 17, 8);
        let expected = matmul(&a.transpose(), &b);
        assert!(matmul_at_b(&a, &b).relative_error(&expected) < 1e-5);

        let a2 = random(11, 19, 9);
        let b2 = random(23, 19, 10);
        let expected2 = matmul(&a2, &b2.transpose());
        assert!(matmul_a_bt(&a2, &b2).relative_error(&expected2) < 1e-5);
    }

    #[test]
    fn slice_variant_is_bit_identical_to_matrix_variant() {
        let a = random(13, 21, 13);
        let b = random(9, 21, 14);
        let via_matrix = matmul_a_bt(&a, &b);
        let via_slice = matmul_a_bt_slice(&a, b.as_slice(), b.rows());
        assert_eq!(via_matrix.as_slice(), via_slice.as_slice());
    }

    #[test]
    fn matmul_at_b_large_path_matches() {
        // Force the transpose fallback path (m * n > 2^16).
        let a = random(8, 300, 11);
        let b = random(8, 300, 12);
        let expected = matmul(&a.transpose(), &b);
        assert!(matmul_at_b(&a, &b).relative_error(&expected) < 1e-5);
    }
}
