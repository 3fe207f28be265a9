//! Bit-exactness invariants of the fused block-sparse kernels: whatever the
//! block size (every block size with SIMD tiles and the generic fallback),
//! sparsity pattern and (ragged) batch, the fused forward must reproduce the
//! naive matmul-per-block reference **bit for bit**, the training variant
//! must be bit-identical to the inference variant, and with a low-rank term
//! the forward and backward must reproduce the per-row loops in [`per_row`]
//! bit for bit. The kernels run the widest SIMD tiles the host has (sixteen
//! lanes on AVX-512, with the multi-row sparse forward tile from batch 8);
//! batches 0–70 leave every tile and row-block remainder.

use bfly_core::{
    fused_block_backward, fused_block_forward, fused_block_forward_train, BlockGrads,
    BlockSparseMatrix, LowRankRef,
};
use bfly_tensor::{seeded_rng, Matrix, Scratch};
use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
use rand::Rng;

/// The per-row loops the low-rank term ran before its register tiles, kept
/// as the reference the fused kernels must match bit for bit. The sparse
/// term's reference is the naive `matmul_batch` / `backward_batch`.
mod per_row {
    use bfly_core::BlockSparseMatrix;
    use bfly_tensor::Matrix;

    /// Eight lane accumulators, a fixed reduction tree, then the scalar
    /// tail.
    fn dot_lanes(a: &[f32], b: &[f32]) -> f32 {
        let mut acc = [0.0f32; 8];
        let mut ac = a.chunks_exact(8);
        let mut bc = b.chunks_exact(8);
        for (aa, bb) in ac.by_ref().zip(bc.by_ref()) {
            for l in 0..8 {
                acc[l] += aa[l] * bb[l];
            }
        }
        let mut sum =
            ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
        for (av, bv) in ac.remainder().iter().zip(bc.remainder()) {
            sum += av * bv;
        }
        sum
    }

    /// `(Y, Vx)` of the training forward `Y = X Wᵀ + (X Vᵀ) Uᵀ + bias`.
    pub fn forward(
        w: &BlockSparseMatrix,
        u: &[f32],
        v: &[f32],
        rank: usize,
        bias: &[f32],
        x: &Matrix,
    ) -> (Matrix, Matrix) {
        let in_dim = w.shape().1;
        let mut y = w.matmul_batch(x);
        let mut vx = Matrix::zeros(x.rows(), rank);
        for s in 0..x.rows() {
            for (j, vx_j) in vx.row_mut(s).iter_mut().enumerate() {
                *vx_j = dot_lanes(&v[j * in_dim..(j + 1) * in_dim], x.row(s));
            }
            for (i, o) in y.row_mut(s).iter_mut().enumerate() {
                *o += dot_lanes(&u[i * rank..(i + 1) * rank], vx.row(s));
            }
            for (o, bv) in y.row_mut(s).iter_mut().zip(bias) {
                *o += bv;
            }
        }
        (y, vx)
    }

    /// `(dX, dPayload, dU, dV)` of the backward, the gradients from zero.
    pub fn backward(
        w: &BlockSparseMatrix,
        u: &[f32],
        v: &[f32],
        rank: usize,
        x: &Matrix,
        vx: &Matrix,
        g: &Matrix,
    ) -> (Matrix, Vec<f32>, Vec<f32>, Vec<f32>) {
        let (out_dim, in_dim) = w.shape();
        let batch = x.rows();
        let mut gp = vec![0.0f32; w.data().len()];
        let mut gx = w.backward_batch(x, g, &mut gp);
        let mut dvx = Matrix::zeros(batch, rank);
        for s in 0..batch {
            for (gv, urow) in g.row(s).iter().zip(u.chunks_exact(rank)) {
                for (d, uv) in dvx.row_mut(s).iter_mut().zip(urow) {
                    *d += gv * uv;
                }
            }
            for (d, vrow) in dvx.row(s).iter().zip(v.chunks_exact(in_dim)) {
                for (dst, vv) in gx.row_mut(s).iter_mut().zip(vrow) {
                    *dst += d * vv;
                }
            }
        }
        let mut gu = vec![0.0f32; out_dim * rank];
        for (i, gurow) in gu.chunks_exact_mut(rank).enumerate() {
            for s in 0..batch {
                let gv = g.row(s)[i];
                for (d, vv) in gurow.iter_mut().zip(vx.row(s)) {
                    *d += gv * vv;
                }
            }
        }
        let mut gvs = vec![0.0f32; rank * in_dim];
        for (j, gvrow) in gvs.chunks_exact_mut(in_dim).enumerate() {
            for s in 0..batch {
                let d = dvx.row(s)[j];
                for (dst, xv) in gvrow.iter_mut().zip(x.row(s)) {
                    *dst += d * xv;
                }
            }
        }
        (gx, gp, gu, gvs)
    }
}

/// The bits of every value, every NaN as one value: Rust leaves NaN
/// payloads unspecified.
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
}

/// A ReLU-masked upstream gradient: about half the entries exact `+0.0`,
/// some `-0.0`, the rest uniform in `[-1, 1]`; with `nonfinite`, one NaN,
/// one `+inf` and one `-inf` in place of three entries.
fn masked_grad(rows: usize, cols: usize, nonfinite: bool, rng: &mut impl Rng) -> Matrix {
    let mut g = Matrix::random_uniform(rows, cols, 1.0, rng);
    for v in g.as_mut_slice() {
        match rng.gen_range(0u32..10) {
            0..=4 => *v = 0.0,
            5 => *v = -0.0,
            _ => {}
        }
    }
    let len = g.as_slice().len();
    if nonfinite && len > 0 {
        for x in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            g.as_mut_slice()[rng.gen_range(0..len)] = x;
        }
    }
    g
}

/// The fused training forward and backward with a low-rank term against
/// [`per_row`], every output compared by its bits.
fn check_lowrank_bit_identity(
    block: usize,
    grid_r: usize,
    grid_c: usize,
    rank: usize,
    batch: usize,
    nonfinite: bool,
    seed: u64,
) -> Result<(), String> {
    let (out_dim, in_dim) = (grid_r * block, grid_c * block);
    let coords = pattern(grid_r, grid_c, 40, true, seed);
    let mut rng = seeded_rng(seed ^ 0x1a4c);
    let w = BlockSparseMatrix::random(out_dim, in_dim, block, coords, &mut rng);
    let u: Vec<f32> = (0..out_dim * rank).map(|_| rng.gen_range(-0.5..=0.5f32)).collect();
    let v: Vec<f32> = (0..rank * in_dim).map(|_| rng.gen_range(-0.5..=0.5f32)).collect();
    let bias: Vec<f32> = (0..out_dim).map(|_| rng.gen_range(-0.5..=0.5f32)).collect();
    let x = Matrix::random_uniform(batch, in_dim, 1.0, &mut rng);
    let g = masked_grad(batch, out_dim, nonfinite, &mut rng);
    let lr = LowRankRef { u: &u, v: &v, rank };
    let at = format!(
        "block {block}, {out_dim}x{in_dim}, rank {rank}, batch {batch}, nonfinite {nonfinite}"
    );
    let mut scratch = Scratch::new();

    let (y, vx) =
        fused_block_forward_train(&w.csr(), w.data(), Some(lr), Some(&bias), &x, &mut scratch);
    let vx = vx.ok_or_else(|| format!("no Vx at {at}"))?;
    let (y_ref, vx_ref) = per_row::forward(&w, &u, &v, rank, &bias, &x);
    for (name, got, want) in [("y", &y, &y_ref), ("Vx", &vx, &vx_ref)] {
        if bits(got.as_slice()) != bits(want.as_slice()) {
            return Err(format!("{name} differs at {at}"));
        }
    }

    let mut gp = vec![0.0f32; w.data().len()];
    let (mut gu, mut gv) = (vec![0.0f32; u.len()], vec![0.0f32; v.len()]);
    let gx = fused_block_backward(
        &w.csr(),
        w.data(),
        Some(lr),
        &x,
        Some(&vx),
        &g,
        BlockGrads { payload: &mut gp, u: &mut gu, v: &mut gv },
        &mut scratch,
    );
    let (gx_ref, gp_ref, gu_ref, gv_ref) = per_row::backward(&w, &u, &v, rank, &x, &vx_ref, &g);
    for (name, got, want) in [
        ("dX", gx.as_slice(), gx_ref.as_slice()),
        ("dPayload", &gp[..], &gp_ref[..]),
        ("dU", &gu[..], &gu_ref[..]),
        ("dV", &gv[..], &gv_ref[..]),
    ] {
        if bits(got) != bits(want) {
            return Err(format!("{name} differs at {at}"));
        }
    }
    Ok(())
}

/// Deterministic random pattern: the block-grid diagonal (so every block row
/// is non-empty sometimes but not always) plus ~`keep_pct`% of off-diagonal
/// blocks; `diag` toggles the diagonal to also exercise empty block rows.
fn pattern(grid_r: usize, grid_c: usize, keep_pct: u64, diag: bool, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = seeded_rng(seed);
    let mut coords = Vec::new();
    for i in 0..grid_r as u32 {
        for j in 0..grid_c as u32 {
            let on_diag = u64::from(i) == u64::from(j) && diag;
            if on_diag || rng.gen_range(0u64..100) < keep_pct {
                coords.push((i, j));
            }
        }
    }
    coords
}

fn check_bit_identity(
    block: usize,
    grid_r: usize,
    grid_c: usize,
    keep_pct: u64,
    diag: bool,
    batch: usize,
    seed: u64,
) -> Result<(), String> {
    let coords = pattern(grid_r, grid_c, keep_pct, diag, seed);
    let mut rng = seeded_rng(seed ^ 0x5eed);
    let w = BlockSparseMatrix::random(grid_r * block, grid_c * block, block, coords, &mut rng);
    let x = Matrix::random_uniform(batch, grid_c * block, 1.0, &mut rng);
    let naive = w.matmul_batch(&x);
    let mut scratch = Scratch::new();
    let fused = fused_block_forward(&w.csr(), w.data(), None, None, &x, &mut scratch);
    // Run twice through the same scratch: pooled-buffer reuse must not
    // change results.
    let fused_again = fused_block_forward(&w.csr(), w.data(), None, None, &x, &mut scratch);
    if naive.as_slice() != fused.as_slice() {
        return Err(format!("fused != naive at block {block}, batch {batch}"));
    }
    if fused.as_slice() != fused_again.as_slice() {
        return Err(format!("fused not reproducible at block {block}, batch {batch}"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// With a low-rank term, `Y`, `Vx`, `dX`, the payload gradient, `dU` and
    /// `dV` match the per-row loops bit for bit: every block size with SIMD
    /// tiles and a generic one, ranks on both sides of the eight- and
    /// sixteen-lane chunks, batches with partial tiles and a partial 32-row
    /// block, and an upstream gradient with exact `±0.0` entries, and NaN
    /// and `±inf` ones in half the cases.
    #[test]
    fn lowrank_forward_and_backward_bit_identical_to_per_row(
        bsel in 0usize..5,       // 4, 8, 16, 32, and the generic 6
        grid_r in 1usize..4,
        grid_c in 1usize..4,
        rsel in 0usize..21,      // rank 1..=20, or 128 at 0
        batch in 0usize..71,
        nonfinite in 0u8..2,
        seed in 0u64..1_000_000,
    ) {
        let block = [4usize, 8, 16, 32, 6][bsel];
        let rank = if rsel == 0 { 128 } else { rsel };
        let r =
            check_lowrank_bit_identity(block, grid_r, grid_c, rank, batch, nonfinite == 1, seed);
        prop_assert!(r.is_ok(), "{}", r.err().unwrap_or_default());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every block size with SIMD tiles: fused ≡ naive bit for bit across
    /// random patterns (including empty block rows) and ragged batches.
    #[test]
    fn specialized_kernels_bit_identical_to_naive(
        bexp in 0usize..4,       // 4, 8, 16, 32
        grid_r in 1usize..6,
        grid_c in 1usize..6,
        keep_pct in 0u64..100,
        diag in 0u64..2,
        batch in 0usize..71,
        seed in 0u64..1_000_000,
    ) {
        let block = 4usize << bexp;
        let r = check_bit_identity(block, grid_r, grid_c, keep_pct, diag == 1, batch, seed);
        prop_assert!(r.is_ok(), "{}", r.err().unwrap_or_default());
    }

    /// Generic-fallback block sizes (no lane specialization, row-major
    /// payload path): same bit-identity contract.
    #[test]
    fn generic_fallback_bit_identical_to_naive(
        bsel in 0usize..4,       // 2, 3, 6, 64
        grid_r in 1usize..5,
        grid_c in 1usize..5,
        keep_pct in 0u64..100,
        batch in 0usize..40,
        seed in 0u64..1_000_000,
    ) {
        let block = [2usize, 3, 6, 64][bsel];
        let r = check_bit_identity(block, grid_r, grid_c, keep_pct, true, batch, seed);
        prop_assert!(r.is_ok(), "{}", r.err().unwrap_or_default());
    }

    /// The training forward (which additionally records `Vx`) is
    /// bit-identical to the inference forward with the full fused term
    /// (sparse + low-rank + bias) enabled.
    #[test]
    fn train_forward_bit_identical_to_inference(
        bexp in 0usize..3,       // 4, 8, 16
        grid in 1usize..5,
        rank in 1usize..9,
        batch in 1usize..50,
        seed in 0u64..1_000_000,
    ) {
        let block = 4usize << bexp;
        let dim = grid * block;
        let coords = pattern(grid, grid, 30, true, seed);
        let mut rng = seeded_rng(seed ^ 0xabcd);
        let w = BlockSparseMatrix::random(dim, dim, block, coords, &mut rng);
        let u: Vec<f32> = (0..dim * rank).map(|_| rng.gen_range(-0.5..=0.5f32)).collect();
        let v: Vec<f32> = (0..rank * dim).map(|_| rng.gen_range(-0.5..=0.5f32)).collect();
        let bias: Vec<f32> = (0..dim).map(|i| (i as f32).cos()).collect();
        let lr = LowRankRef { u: &u, v: &v, rank };
        let x = Matrix::random_uniform(batch, dim, 1.0, &mut rng);
        let mut scratch = Scratch::new();
        let infer =
            fused_block_forward(&w.csr(), w.data(), Some(lr), Some(&bias), &x, &mut scratch);
        let (train, vx) =
            fused_block_forward_train(&w.csr(), w.data(), Some(lr), Some(&bias), &x, &mut scratch);
        prop_assert_eq!(infer.as_slice(), train.as_slice());
        let vx = vx.expect("rank > 0 training forward must return Vx");
        prop_assert_eq!((vx.rows(), vx.cols()), (batch, rank));
    }

    /// The fused backward with `lowrank: None` (the rank-0 training path)
    /// must reproduce the naive `backward_batch` reference — payload
    /// gradient and dX alike — bit for bit, under a ReLU-masked gradient
    /// (in half the cases with NaN and `±inf` gradients and an infinite
    /// input and payload entry). Regression test: a zero-length dVx
    /// scratch must not truncate the row sweep and zero out dX.
    #[test]
    fn rank0_backward_bit_identical_to_naive(
        bexp in 0usize..4,       // 4, 8, 16, 32
        grid_r in 1usize..5,
        grid_c in 1usize..5,
        keep_pct in 0u64..100,
        diag in 0u64..2,
        batch in 1usize..71,
        nonfinite in 0u8..2,
        seed in 0u64..1_000_000,
    ) {
        let block = 4usize << bexp;
        let coords = pattern(grid_r, grid_c, keep_pct, diag == 1, seed);
        let mut rng = seeded_rng(seed ^ 0xbac);
        let mut w =
            BlockSparseMatrix::random(grid_r * block, grid_c * block, block, coords, &mut rng);
        let mut x = Matrix::random_uniform(batch, grid_c * block, 1.0, &mut rng);
        let g = masked_grad(batch, grid_r * block, nonfinite == 1, &mut rng);
        if nonfinite == 1 {
            // Infinite operands, mostly behind zero gradients: a product the
            // zero-skip failed to skip would read NaN.
            let (xs, ws) = (x.as_mut_slice(), w.data_mut());
            xs[rng.gen_range(0..xs.len())] = f32::INFINITY;
            if !ws.is_empty() {
                ws[rng.gen_range(0..ws.len())] = f32::INFINITY;
            }
        }
        let mut scratch = Scratch::new();
        let mut gp = vec![0.0f32; w.data().len()];
        let gx = fused_block_backward(
            &w.csr(),
            w.data(),
            None,
            &x,
            None,
            &g,
            BlockGrads { payload: &mut gp, u: &mut [], v: &mut [] },
            &mut scratch,
        );
        let mut gp_ref = vec![0.0f32; w.data().len()];
        let gx_ref = w.backward_batch(&x, &g, &mut gp_ref);
        prop_assert_eq!(bits(gx.as_slice()), bits(gx_ref.as_slice()));
        prop_assert_eq!(bits(&gp), bits(&gp_ref));
    }
}
