//! Fast Walsh-Hadamard transform.
//!
//! The Fastfood baseline (Table 4) composes diagonal matrices with Hadamard
//! transforms: `V = S H G Pi H B`. The FWHT applies the `n x n` Hadamard
//! matrix in `O(n log n)` additions, needing no stored matrix at all.

use crate::matrix::Matrix;

/// In-place unnormalised fast Walsh-Hadamard transform.
///
/// Applies the Hadamard matrix `H_n` (entries +-1) to `data`. Applying it
/// twice yields `n * identity`, which [`fwht_normalized`] accounts for.
///
/// # Panics
/// Panics unless `data.len()` is a power of two.
pub fn fwht_in_place(data: &mut [f32]) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FWHT length {n} must be a power of two");
    let mut h = 1;
    while h < n {
        for start in (0..n).step_by(h * 2) {
            for i in start..start + h {
                let x = data[i];
                let y = data[i + h];
                data[i] = x + y;
                data[i + h] = x - y;
            }
        }
        h *= 2;
    }
}

/// In-place orthonormal FWHT (`H / sqrt(n)`), an involution.
pub fn fwht_normalized(data: &mut [f32]) {
    fwht_in_place(data);
    let scale = 1.0 / (data.len() as f32).sqrt();
    for x in data.iter_mut() {
        *x *= scale;
    }
}

/// The dense `n x n` Hadamard matrix (entries +-1), for cross-checking.
pub fn hadamard_matrix(n: usize) -> Matrix {
    assert!(n.is_power_of_two(), "Hadamard order must be a power of two");
    Matrix::from_fn(n, n, |r, c| {
        // H[r][c] = (-1)^{popcount(r & c)}
        if (r & c).count_ones() % 2 == 0 {
            1.0
        } else {
            -1.0
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::matvec;

    #[test]
    fn fwht_matches_dense_hadamard() {
        let n = 16;
        let h = hadamard_matrix(n);
        let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.31).sin()).collect();
        let expected = matvec(&h, &x);
        let mut got = x.clone();
        fwht_in_place(&mut got);
        for (g, e) in got.iter().zip(&expected) {
            assert!((g - e).abs() < 1e-4);
        }
    }

    #[test]
    fn normalized_fwht_is_involution() {
        let x: Vec<f32> = (0..64).map(|i| (i as f32 * 1.7).cos()).collect();
        let mut y = x.clone();
        fwht_normalized(&mut y);
        fwht_normalized(&mut y);
        for (a, b) in x.iter().zip(&y) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn unnormalized_fwht_twice_scales_by_n() {
        let x: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let mut y = x.clone();
        fwht_in_place(&mut y);
        fwht_in_place(&mut y);
        for (a, b) in x.iter().zip(&y) {
            assert!((a * 8.0 - b).abs() < 1e-4);
        }
    }

    #[test]
    fn hadamard_is_symmetric_and_orthogonal() {
        let h = hadamard_matrix(8);
        assert_eq!(h, h.transpose());
        let hh = crate::matmul::matmul(&h, &h);
        let scaled_identity = Matrix::identity(8).scale(8.0);
        assert!(hh.relative_error(&scaled_identity) < 1e-6);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fwht_rejects_non_power_of_two() {
        let mut x = vec![0.0; 10];
        fwht_in_place(&mut x);
    }
}
