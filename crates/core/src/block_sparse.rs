//! Block-sparse matrices — the storage format of pixelated butterfly.
//!
//! Pixelfly's "block butterfly" aligns the butterfly sparsity pattern to
//! `b x b` dense blocks so a dense accelerator can process whole blocks
//! (paper §2.3.2). A [`BlockSparseMatrix`] stores an explicit list of block
//! coordinates plus a dense payload per block.

use crate::kernels::block::BlockCsr;
use bfly_tensor::matmul::matmul;
use bfly_tensor::{Csr, Matrix};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A square-block sparse matrix of logical shape `rows x cols` with dense
/// `block x block` payloads at the listed block coordinates.
///
/// Invariants: `rows` and `cols` are multiples of `block`; block coordinates
/// are unique and sorted lexicographically; `data.len() ==
/// blocks.len() * block * block` (payloads stored row-major per block, in
/// the order of `blocks`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockSparseMatrix {
    rows: usize,
    cols: usize,
    block: usize,
    /// Sorted unique (block-row, block-col) coordinates.
    blocks: Vec<(u32, u32)>,
    /// Dense payloads, `block*block` floats per entry of `blocks`.
    data: Vec<f32>,
}

impl BlockSparseMatrix {
    /// Creates a block-sparse matrix with zero-initialised payloads.
    ///
    /// # Panics
    /// Panics if dimensions are not multiples of `block`, a coordinate is
    /// out of range, or coordinates repeat.
    pub fn zeros(rows: usize, cols: usize, block: usize, mut blocks: Vec<(u32, u32)>) -> Self {
        assert!(block >= 1, "block size must be >= 1");
        assert_eq!(rows % block, 0, "rows {rows} not a multiple of block {block}");
        assert_eq!(cols % block, 0, "cols {cols} not a multiple of block {block}");
        blocks.sort_unstable();
        let (br, bc) = (rows / block, cols / block);
        for w in blocks.windows(2) {
            assert_ne!(w[0], w[1], "duplicate block coordinate {:?}", w[0]);
        }
        for &(i, j) in &blocks {
            assert!((i as usize) < br && (j as usize) < bc, "block ({i},{j}) out of range");
        }
        let data = vec![0.0; blocks.len() * block * block];
        Self { rows, cols, block, blocks, data }
    }

    /// Same as [`zeros`](Self::zeros) but with Kaiming-style random payloads
    /// scaled by the *effective* fan-in (nonzero inputs per output row).
    pub fn random(
        rows: usize,
        cols: usize,
        block: usize,
        blocks: Vec<(u32, u32)>,
        rng: &mut impl Rng,
    ) -> Self {
        let mut m = Self::zeros(rows, cols, block, blocks);
        // Effective fan-in: average nonzero columns per row.
        let fan_in =
            if rows == 0 { 1.0 } else { (m.blocks.len() * block * block) as f32 / rows as f32 };
        let scale = 1.0 / fan_in.max(1.0).sqrt();
        for x in &mut m.data {
            *x = rng.gen_range(-scale..=scale);
        }
        m
    }

    /// Builds a block-sparse matrix by sampling `dense` at the given block
    /// coordinates (everything outside the pattern is dropped). This is the
    /// constructor tests and benches use instead of hand-building `data`
    /// vectors in coordinate order.
    ///
    /// # Panics
    /// Panics on the same invariant violations as [`zeros`](Self::zeros).
    pub fn from_dense(dense: &Matrix, block: usize, blocks: Vec<(u32, u32)>) -> Self {
        let mut m = Self::zeros(dense.rows(), dense.cols(), block, blocks);
        let b = block;
        for idx in 0..m.blocks.len() {
            let (bi, bj) = (m.blocks[idx].0 as usize, m.blocks[idx].1 as usize);
            for r in 0..b {
                for c in 0..b {
                    m.data[idx * b * b + r * b + c] = dense[(bi * b + r, bj * b + c)];
                }
            }
        }
        m
    }

    /// Logical shape.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored blocks.
    pub fn nnz_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of stored scalars (`nnz_blocks * block^2`).
    pub fn nnz(&self) -> usize {
        self.data.len()
    }

    /// Density relative to the dense `rows x cols` matrix.
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.rows * self.cols) as f64
    }

    /// The sorted block-coordinate list.
    pub fn block_coords(&self) -> &[(u32, u32)] {
        &self.blocks
    }

    /// The dense payload of stored block `idx` (row-major `block x block`,
    /// indices in [`block_coords`](Self::block_coords) order).
    ///
    /// # Panics
    /// Panics if `idx >= self.nnz_blocks()`.
    pub fn block_payload(&self, idx: usize) -> &[f32] {
        assert!(idx < self.blocks.len(), "block index {idx} out of range");
        let bb = self.block * self.block;
        &self.data[idx * bb..(idx + 1) * bb]
    }

    /// CSR-of-blocks view of the coordinate list for the fused kernels
    /// (per-block-row prefix offsets; payload order is unchanged).
    pub fn csr(&self) -> BlockCsr {
        BlockCsr::from_coords(self.rows, self.cols, self.block, &self.blocks)
    }

    /// Flat payload access (for the optimizer).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat payload access.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Converts to dense.
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        let b = self.block;
        for (idx, &(bi, bj)) in self.blocks.iter().enumerate() {
            let payload = &self.data[idx * b * b..(idx + 1) * b * b];
            for r in 0..b {
                for c in 0..b {
                    out[(bi as usize * b + r, bj as usize * b + c)] = payload[r * b + c];
                }
            }
        }
        out
    }

    /// Converts to scalar CSR (for popsparse-style execution comparison).
    pub fn to_csr(&self) -> Csr {
        Csr::from_dense(&self.to_dense(), 0.0)
    }

    /// `y = W x` for a single input vector `x` of length `cols`.
    pub fn apply(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols, "block-sparse apply length mismatch");
        let b = self.block;
        let mut y = vec![0.0f32; self.rows];
        for (idx, &(bi, bj)) in self.blocks.iter().enumerate() {
            let payload = &self.data[idx * b * b..(idx + 1) * b * b];
            let xs = &x[bj as usize * b..(bj as usize + 1) * b];
            let ys = &mut y[bi as usize * b..(bi as usize + 1) * b];
            for r in 0..b {
                let row = &payload[r * b..(r + 1) * b];
                let mut acc = 0.0f32;
                for (w, xv) in row.iter().zip(xs) {
                    acc += w * xv;
                }
                ys[r] += acc;
            }
        }
        y
    }

    /// Batched product `Y = X W^T` where rows of `X` are samples
    /// (`torch.nn.Linear` convention: `W` is `out x in` = `rows x cols`).
    pub fn matmul_batch(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.cols, "block-sparse batch width mismatch");
        let b = self.block;
        let batch = x.rows();
        let mut out = Matrix::zeros(batch, self.rows);
        // Iterate blocks in the outer loop so each payload streams once;
        // batch rows inner for cache-friendly row access.
        for (idx, &(bi, bj)) in self.blocks.iter().enumerate() {
            let payload = &self.data[idx * b * b..(idx + 1) * b * b];
            for s in 0..batch {
                let xs = &x.row(s)[bj as usize * b..(bj as usize + 1) * b];
                let ys = &mut out.row_mut(s)[bi as usize * b..(bi as usize + 1) * b];
                for r in 0..b {
                    let row = &payload[r * b..(r + 1) * b];
                    let mut acc = 0.0f32;
                    for (w, xv) in row.iter().zip(xs) {
                        acc += w * xv;
                    }
                    ys[r] += acc;
                }
            }
        }
        out
    }

    /// Backward pass for [`matmul_batch`](Self::matmul_batch): given `X` (cached input) and
    /// `dY = dL/d output`, accumulates payload gradients into `grad_data`
    /// and returns `dX`.
    pub fn backward_batch(&self, x: &Matrix, grad_out: &Matrix, grad_data: &mut [f32]) -> Matrix {
        assert_eq!(grad_data.len(), self.data.len(), "payload gradient length mismatch");
        assert_eq!(grad_out.cols(), self.rows, "grad width mismatch");
        assert_eq!(grad_out.rows(), x.rows(), "grad batch mismatch");
        let b = self.block;
        let batch = x.rows();
        let mut grad_in = Matrix::zeros(batch, self.cols);
        for (idx, &(bi, bj)) in self.blocks.iter().enumerate() {
            let payload = &self.data[idx * b * b..(idx + 1) * b * b];
            let gpayload = &mut grad_data[idx * b * b..(idx + 1) * b * b];
            for s in 0..batch {
                let xs = &x.row(s)[bj as usize * b..(bj as usize + 1) * b];
                let gys = &grad_out.row(s)[bi as usize * b..(bi as usize + 1) * b];
                // dW_block += gy_block ⊗ x_block ; dx_block += W_block^T gy_block
                let gxs = &mut grad_in.row_mut(s)[bj as usize * b..(bj as usize + 1) * b];
                for r in 0..b {
                    let g = gys[r];
                    if g == 0.0 {
                        continue;
                    }
                    let wrow = &payload[r * b..(r + 1) * b];
                    let gwrow = &mut gpayload[r * b..(r + 1) * b];
                    for c in 0..b {
                        gwrow[c] += g * xs[c];
                        gxs[c] += g * wrow[c];
                    }
                }
            }
        }
        grad_in
    }
}

/// Reference dense implementation of `matmul_batch` for testing.
pub fn matmul_batch_dense_reference(w: &BlockSparseMatrix, x: &Matrix) -> Matrix {
    matmul(x, &w.to_dense().transpose())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfly_tensor::seeded_rng;

    fn sample(rng: &mut impl Rng) -> BlockSparseMatrix {
        // 16x16 with 4x4 blocks: diagonal + one off-diagonal pair.
        BlockSparseMatrix::random(
            16,
            16,
            4,
            vec![(0, 0), (1, 1), (2, 2), (3, 3), (0, 2), (2, 0), (1, 3)],
            rng,
        )
    }

    #[test]
    fn apply_matches_dense() {
        let mut rng = seeded_rng(31);
        let w = sample(&mut rng);
        let x: Vec<f32> = (0..16).map(|i| (i as f32 * 0.3).sin()).collect();
        let dense = w.to_dense();
        let expect = bfly_tensor::matvec(&dense, &x);
        let got = w.apply(&x);
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_batch_matches_dense_reference() {
        let mut rng = seeded_rng(32);
        let w = sample(&mut rng);
        let x = Matrix::random_uniform(6, 16, 1.0, &mut rng);
        let got = w.matmul_batch(&x);
        let expect = matmul_batch_dense_reference(&w, &x);
        assert!(got.relative_error(&expect) < 1e-5);
    }

    #[test]
    fn nnz_and_density() {
        let mut rng = seeded_rng(33);
        let w = sample(&mut rng);
        assert_eq!(w.nnz_blocks(), 7);
        assert_eq!(w.nnz(), 7 * 16);
        assert!((w.density() - 7.0 * 16.0 / 256.0).abs() < 1e-12);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = seeded_rng(34);
        let mut w = BlockSparseMatrix::random(8, 8, 2, vec![(0, 0), (1, 2), (3, 1)], &mut rng);
        let x = Matrix::random_uniform(3, 8, 1.0, &mut rng);
        // Loss = sum(Y^2)/2.
        let y = w.matmul_batch(&x);
        let mut gdata = vec![0.0f32; w.data().len()];
        let gx = w.backward_batch(&x, &y, &mut gdata);
        let eps = 1e-3f32;
        // Check a few payload gradients.
        for idx in [0usize, 5, 11] {
            let orig = w.data()[idx];
            w.data_mut()[idx] = orig + eps;
            let lp: f64 =
                w.matmul_batch(&x).as_slice().iter().map(|v| (*v as f64).powi(2) / 2.0).sum();
            w.data_mut()[idx] = orig - eps;
            let lm: f64 =
                w.matmul_batch(&x).as_slice().iter().map(|v| (*v as f64).powi(2) / 2.0).sum();
            w.data_mut()[idx] = orig;
            let numeric = ((lp - lm) / (2.0 * eps as f64)) as f32;
            assert!(
                (gdata[idx] - numeric).abs() < 2e-2 * numeric.abs().max(1.0),
                "payload {idx}: {} vs {numeric}",
                gdata[idx]
            );
        }
        // Check input gradient against dense formula dX = dY W.
        let dense = w.to_dense();
        let expect_gx = matmul(&y, &dense);
        assert!(gx.relative_error(&expect_gx) < 1e-4);
    }

    #[test]
    fn csr_conversion_preserves_values() {
        let mut rng = seeded_rng(35);
        let w = sample(&mut rng);
        let csr = w.to_csr();
        assert_eq!(csr.to_dense(), w.to_dense());
    }

    #[test]
    fn from_dense_samples_the_pattern() {
        let mut rng = seeded_rng(36);
        let dense = Matrix::random_uniform(16, 16, 1.0, &mut rng);
        let pattern = vec![(0, 0), (1, 3), (2, 2)];
        let w = BlockSparseMatrix::from_dense(&dense, 4, pattern.clone());
        assert_eq!(w.block_coords(), pattern.as_slice());
        for (idx, &(bi, bj)) in pattern.iter().enumerate() {
            let payload = w.block_payload(idx);
            for r in 0..4 {
                for c in 0..4 {
                    let expect = dense[(bi as usize * 4 + r, bj as usize * 4 + c)];
                    assert_eq!(payload[r * 4 + c], expect);
                }
            }
        }
        // Outside the pattern everything is zero.
        assert_eq!(w.to_dense()[(0, 4)], 0.0);
    }

    #[test]
    #[should_panic(expected = "duplicate block coordinate")]
    fn duplicate_blocks_rejected() {
        let _ = BlockSparseMatrix::zeros(8, 8, 4, vec![(0, 0), (0, 0)]);
    }

    #[test]
    #[should_panic(expected = "not a multiple of block")]
    fn non_multiple_dims_rejected() {
        let _ = BlockSparseMatrix::zeros(10, 8, 4, vec![]);
    }
}
