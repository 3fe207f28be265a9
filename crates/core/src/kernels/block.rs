//! Fused SIMD block-sparse kernels — the pixelfly serving and training hot
//! path.
//!
//! Pixelfly's forward is `y = W x + U (V x) + bias` with `W` block-sparse
//! (paper §2.3.2). The naive path walks the flat sorted `(block-row,
//! block-col)` coordinate list once per *term*: a scalar matmul per block, a
//! dense matmul pair for the low-rank correction (each allocating a full
//! matrix), and a final bias sweep — three full passes over the activations
//! plus allocator churn, exactly the shape the butterfly stages had before
//! they were fused.
//!
//! The kernels here give the block-sparse term the same treatment:
//!
//! - **CSR-of-blocks** ([`BlockCsr`]): per-block-row prefix offsets replace
//!   the coordinate list on the hot path. Because the coordinate list is
//!   sorted lexicographically, the payloads are *already* in CSR order — the
//!   view is built once with no payload movement.
//! - **One pass over row blocks**: each block of `ROW_BLOCK` batch rows
//!   computes its sparse product, then its low-rank correction, then its
//!   bias while it stays cache-resident; the only allocation is the
//!   returned output matrix (working buffers come from a caller-owned
//!   [`Scratch`]). The pass is written as a `rayon` chunk loop, but the
//!   vendored `rayon` shim runs it on the calling thread: every kernel here
//!   is single-threaded.
//! - **Lane-parallel microkernels** for the sparse forward, `b ∈ {4, 8, 16,
//!   32}` with a generic fallback, behind runtime AVX2/AVX-512 dispatch.
//!   They vectorize *across the block's output rows*: payloads are repacked
//!   column-major once per call, and each lane `r` accumulates
//!   `acc[r] += w[r][c] * x[c]` in ascending-`c` order — the exact FLOP
//!   sequence of the scalar dot, so results are **bit-identical** to
//!   [`BlockSparseMatrix::matmul_batch`](crate::BlockSparseMatrix::matmul_batch)
//!   whichever branch runs.
//! - **Register tiles** for everything else: the low-rank term of the
//!   forward, its four products in the backward (`dVx = dY U`,
//!   `dX += dVx V`, `dU += dYᵀ Vx`, `dV += dVxᵀ X`), the sparse term of
//!   `dX` and the payload gradient. Each loop has one scalar body — the
//!   per-row code, which is also the non-x86 fallback and the tests'
//!   oracle — and one explicit eight-lane AVX2 body (see `avx2`) that
//!   loads each factor or weight row once for several batch rows and
//!   reproduces the scalar body's bits.
//!
//! The low-rank forward uses a fixed eight-lane dot (`DOT_LANES`) with an
//! explicit reduction tree; its operation order is part of the kernel's
//! contract (identical on every ISA), which is what keeps the layer's
//! training forward, eval forward and `forward_inference` bit-identical to
//! each other.

use bfly_tensor::{Matrix, Scratch};
use rayon::prelude::*;

/// Batch rows per unit of work (same granularity as the butterfly
/// kernels).
const ROW_BLOCK: usize = 32;

/// Lanes of the fixed-shape low-rank dot product. Eight f32 lanes fill one
/// AVX2 register (two SSE, half an AVX-512); the explicit lane accumulators
/// plus a fixed reduction tree make the result independent of the ISA the
/// dispatch picks.
const DOT_LANES: usize = 8;

/// Minimum batch for the column-major payload repack. The repack touches the
/// whole payload once per call, so tiny batches can't amortize it — below
/// this the specialized sizes run the generic row-major kernel instead.
/// Both kernels are bit-identical to the naive reference, so the switch
/// cannot change results.
const REPACK_MIN_BATCH: usize = 8;

/// CSR-of-blocks view of a block-sparse pattern: per-block-row prefix
/// offsets into the (payload, block-column) arrays.
///
/// Built from a lexicographically sorted coordinate list, whose order equals
/// CSR order — so `row_ptr[bi]..row_ptr[bi + 1]` indexes both the block
/// columns *and* the payload slots of block row `bi` without any payload
/// reshuffle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockCsr {
    block: usize,
    rows: usize,
    cols: usize,
    /// `block_rows + 1` prefix offsets into `cols`.
    row_ptr: Vec<u32>,
    /// Block-row per stored block (CSR order) — the per-block payload
    /// gradient needs the inverse of `row_ptr` per entry.
    block_row: Vec<u32>,
    /// Block-column per stored block (CSR order).
    block_col: Vec<u32>,
}

impl BlockCsr {
    /// Builds the CSR view from a **sorted, unique, in-range** coordinate
    /// list (the invariant [`BlockSparseMatrix`](crate::BlockSparseMatrix)
    /// maintains).
    ///
    /// # Panics
    /// Panics if dimensions are not multiples of `block` or the coordinate
    /// list violates the sortedness/range invariant.
    pub fn from_coords(rows: usize, cols: usize, block: usize, coords: &[(u32, u32)]) -> Self {
        assert!(block >= 1, "block size must be >= 1");
        assert_eq!(rows % block, 0, "rows {rows} not a multiple of block {block}");
        assert_eq!(cols % block, 0, "cols {cols} not a multiple of block {block}");
        let (br, bc) = (rows / block, cols / block);
        let mut row_ptr = vec![0u32; br + 1];
        let mut block_row = Vec::with_capacity(coords.len());
        let mut block_col = Vec::with_capacity(coords.len());
        for w in coords.windows(2) {
            assert!(w[0] < w[1], "block coordinates must be sorted and unique");
        }
        for &(bi, bj) in coords {
            assert!((bi as usize) < br && (bj as usize) < bc, "block ({bi},{bj}) out of range");
            row_ptr[bi as usize + 1] += 1;
            block_row.push(bi);
            block_col.push(bj);
        }
        for i in 0..br {
            row_ptr[i + 1] += row_ptr[i];
        }
        Self { block, rows, cols, row_ptr, block_row, block_col }
    }

    /// Logical output width (`rows` of the `out x in` weight).
    pub fn out_dim(&self) -> usize {
        self.rows
    }

    /// Logical input width.
    pub fn in_dim(&self) -> usize {
        self.cols
    }

    /// Number of stored blocks.
    pub fn nnz_blocks(&self) -> usize {
        self.block_col.len()
    }

    /// The per-block-row prefix offsets (`block_rows + 1` entries).
    pub fn row_ptr(&self) -> &[u32] {
        &self.row_ptr
    }

    /// Block column of each stored block, CSR order.
    pub fn block_cols(&self) -> &[u32] {
        &self.block_col
    }

    /// Whether this block size has a lane-specialized microkernel (and the
    /// forward therefore runs on the column-major payload repack).
    pub fn specialized(&self) -> bool {
        matches!(self.block, 4 | 8 | 16 | 32)
    }
}

/// Borrowed low-rank correction factors: `u` is `out_dim x rank` and `v` is
/// `rank x in_dim`, both row-major — straight from flat parameter storage,
/// so the `&self` inference path never clones weights.
#[derive(Debug, Clone, Copy)]
pub struct LowRankRef<'a> {
    /// `out_dim x rank` row-major factor.
    pub u: &'a [f32],
    /// `rank x in_dim` row-major factor.
    pub v: &'a [f32],
    /// Rank of the correction (`> 0`; pass `None` instead of rank 0).
    pub rank: usize,
}

/// Gradient accumulators for [`fused_block_backward`]; every slice is
/// *accumulated into* (callers pass zeroed buffers for plain gradients).
#[derive(Debug)]
pub struct BlockGrads<'a> {
    /// dL/d payload, row-major per block in CSR order.
    pub payload: &'a mut [f32],
    /// dL/dU (`out_dim x rank`); empty when there is no low-rank term.
    pub u: &'a mut [f32],
    /// dL/dV (`rank x in_dim`); empty when there is no low-rank term.
    pub v: &'a mut [f32],
}

/// Transposes each `block x block` payload to column-major
/// (`dst[c * block + r] = src[r * block + c]`), the layout the
/// lane-specialized microkernels read. Runs once per batched call and is
/// amortised over every row.
pub fn repack_blocks_colmajor(block: usize, data: &[f32], dst: &mut [f32]) {
    assert_eq!(data.len(), dst.len(), "colmajor repack length mismatch");
    let bb = block * block;
    for (src, d) in data.chunks_exact(bb).zip(dst.chunks_exact_mut(bb)) {
        for r in 0..block {
            for c in 0..block {
                d[c * block + r] = src[r * block + c];
            }
        }
    }
}

/// Fused batched forward `Y = X W^T [+ (X V^T) U^T] [+ bias]` in one pass
/// over row blocks.
///
/// `payload` is the row-major-per-block CSR-order payload array (exactly
/// [`BlockSparseMatrix::data`](crate::BlockSparseMatrix::data)). With no
/// low-rank term and no bias the result is bit-identical to
/// [`BlockSparseMatrix::matmul_batch`](crate::BlockSparseMatrix::matmul_batch).
/// The only allocation is the returned matrix; working buffers come from
/// `scratch`.
pub fn fused_block_forward(
    csr: &BlockCsr,
    payload: &[f32],
    lowrank: Option<LowRankRef<'_>>,
    bias: Option<&[f32]>,
    input: &Matrix,
    scratch: &mut Scratch,
) -> Matrix {
    forward_inner(csr, payload, lowrank, bias, input, scratch, false).0
}

/// [`fused_block_forward`] that additionally returns the low-rank
/// intermediate `Vx` (`batch x rank`) the backward pass needs; `None` when
/// there is no low-rank term. Outputs are bit-identical to the inference
/// variant — same worker, same operation order.
pub fn fused_block_forward_train(
    csr: &BlockCsr,
    payload: &[f32],
    lowrank: Option<LowRankRef<'_>>,
    bias: Option<&[f32]>,
    input: &Matrix,
    scratch: &mut Scratch,
) -> (Matrix, Option<Matrix>) {
    forward_inner(csr, payload, lowrank, bias, input, scratch, true)
}

fn forward_inner(
    csr: &BlockCsr,
    payload: &[f32],
    lowrank: Option<LowRankRef<'_>>,
    bias: Option<&[f32]>,
    input: &Matrix,
    scratch: &mut Scratch,
    keep_vx: bool,
) -> (Matrix, Option<Matrix>) {
    let b = csr.block;
    let (out_dim, in_dim) = (csr.out_dim(), csr.in_dim());
    let batch = input.rows();
    assert_eq!(payload.len(), csr.nnz_blocks() * b * b, "payload length mismatch");
    assert_eq!(input.cols(), in_dim, "fused block forward input width mismatch");
    let rank = lowrank.map_or(0, |lr| lr.rank);
    if let Some(lr) = lowrank {
        assert!(lr.rank > 0, "pass None instead of a rank-0 low-rank term");
        assert_eq!(lr.u.len(), out_dim * lr.rank, "low-rank U shape mismatch");
        assert_eq!(lr.v.len(), lr.rank * in_dim, "low-rank V shape mismatch");
    }
    if let Some(bs) = bias {
        assert_eq!(bs.len(), out_dim, "bias length mismatch");
    }
    let mut out = Matrix::zeros(batch, out_dim);
    if batch == 0 {
        return (out, (keep_vx && rank > 0).then(|| Matrix::zeros(0, rank)));
    }
    // Column-major payload repack for the lane microkernels; generic block
    // sizes — and batches too small to amortize the repack — run the scalar
    // kernel on the row-major payload directly (bit-identical either way).
    let colmajor = csr.specialized() && batch >= REPACK_MIN_BATCH;
    let wt = if colmajor {
        let mut wt = scratch.take(payload.len());
        repack_blocks_colmajor(b, payload, &mut wt);
        wt
    } else {
        scratch.take(0)
    };
    let w: &[f32] = if colmajor { &wt } else { payload };
    // A handful of rows is one unit of work; skipping the thread-pool
    // hand-off there keeps single-row serving latency flat. Rows are
    // independent, so serial vs parallel cannot change any row's bits.
    let serial = batch < REPACK_MIN_BATCH;
    if rank == 0 {
        if serial {
            out.as_mut_slice()
                .chunks_mut(ROW_BLOCK * out_dim)
                .zip(input.as_slice().chunks(ROW_BLOCK * in_dim))
                .for_each(|(oblock, iblock)| {
                    forward_block(csr, w, colmajor, None, bias, iblock, oblock, &mut []);
                });
        } else {
            out.as_mut_slice()
                .par_chunks_mut(ROW_BLOCK * out_dim)
                .zip(input.as_slice().par_chunks(ROW_BLOCK * in_dim))
                .for_each(|(oblock, iblock)| {
                    forward_block(csr, w, colmajor, None, bias, iblock, oblock, &mut []);
                });
        }
        scratch.put(wt);
        return (out, None);
    }
    let mut vx = scratch.take(batch * rank);
    if serial {
        out.as_mut_slice()
            .chunks_mut(ROW_BLOCK * out_dim)
            .zip(input.as_slice().chunks(ROW_BLOCK * in_dim))
            .zip(vx.chunks_mut(ROW_BLOCK * rank))
            .for_each(|((oblock, iblock), vxblock)| {
                forward_block(csr, w, colmajor, lowrank, bias, iblock, oblock, vxblock);
            });
    } else {
        out.as_mut_slice()
            .par_chunks_mut(ROW_BLOCK * out_dim)
            .zip(input.as_slice().par_chunks(ROW_BLOCK * in_dim))
            .zip(vx.par_chunks_mut(ROW_BLOCK * rank))
            .for_each(|((oblock, iblock), vxblock)| {
                forward_block(csr, w, colmajor, lowrank, bias, iblock, oblock, vxblock);
            });
    }
    scratch.put(wt);
    if keep_vx {
        (out, Some(Matrix::from_vec(batch, rank, vx)))
    } else {
        scratch.put(vx);
        (out, None)
    }
}

/// One row block of the forward: the sparse term of every row, then the
/// low-rank term `Vx = X Vᵀ`, `Y += Vx Uᵀ`, then the bias. Each element
/// still sees sparse → low-rank → bias, the order of a per-row loop.
#[allow(clippy::too_many_arguments)]
fn forward_block(
    csr: &BlockCsr,
    w: &[f32],
    colmajor: bool,
    lowrank: Option<LowRankRef<'_>>,
    bias: Option<&[f32]>,
    iblock: &[f32],
    oblock: &mut [f32],
    vxblock: &mut [f32],
) {
    sparse_rows(csr, w, colmajor, iblock, oblock);
    if let Some(lr) = lowrank {
        lowrank_dots(iblock, lr.v, csr.in_dim(), vxblock, false);
        lowrank_dots(vxblock, lr.u, lr.rank, oblock, true);
    }
    if let Some(bs) = bias {
        for orow in oblock.chunks_exact_mut(csr.out_dim()) {
            for (o, bv) in orow.iter_mut().zip(bs) {
                *o += bv;
            }
        }
    }
}

/// Routes the sparse term of a row block to the widest vector ISA the host
/// supports. The wide variants recompile the *same* generic body with wider
/// vector units (see [`wide`]); operation order is unchanged and Rust never
/// contracts `a * b + c` into an FMA, so every branch is bit-identical.
fn sparse_rows(csr: &BlockCsr, w: &[f32], colmajor: bool, iblock: &[f32], oblock: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the runtime check above guarantees avx512f.
            return unsafe { wide::sparse_rows_avx512(csr, w, colmajor, iblock, oblock) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the runtime check above guarantees avx2.
            return unsafe { wide::sparse_rows_avx2(csr, w, colmajor, iblock, oblock) };
        }
    }
    sparse_rows_impl(csr, w, colmajor, iblock, oblock)
}

/// Wide-vector re-instantiations of [`sparse_rows_impl`] for x86-64 — same
/// trick as the butterfly stage kernels: `#[target_feature]` recompiles the
/// `#[inline(always)]` generic body with 256-/512-bit vectors enabled, so
/// the lane microkernels' accumulator rows fill wider registers.
#[cfg(target_arch = "x86_64")]
mod wide {
    use super::BlockCsr;

    #[target_feature(enable = "avx512f")]
    pub(super) fn sparse_rows_avx512(
        csr: &BlockCsr,
        w: &[f32],
        colmajor: bool,
        iblock: &[f32],
        oblock: &mut [f32],
    ) {
        super::sparse_rows_impl(csr, w, colmajor, iblock, oblock)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn sparse_rows_avx2(
        csr: &BlockCsr,
        w: &[f32],
        colmajor: bool,
        iblock: &[f32],
        oblock: &mut [f32],
    ) {
        super::sparse_rows_impl(csr, w, colmajor, iblock, oblock)
    }
}

#[inline(always)]
fn sparse_rows_impl(csr: &BlockCsr, w: &[f32], colmajor: bool, iblock: &[f32], oblock: &mut [f32]) {
    for (orow, irow) in oblock.chunks_mut(csr.out_dim()).zip(iblock.chunks(csr.in_dim())) {
        sparse_row(csr, w, colmajor, irow, orow);
    }
}

/// One row's block-sparse product `y += W x`, dispatched to the block-size
/// specialization. `w` is column-major per block when `colmajor` is set
/// (the lane microkernels' layout), row-major otherwise (generic sizes and
/// repack-skipping small batches).
#[inline(always)]
fn sparse_row(csr: &BlockCsr, w: &[f32], colmajor: bool, x: &[f32], y: &mut [f32]) {
    if !colmajor {
        return sparse_row_generic(csr, w, x, y);
    }
    match csr.block {
        4 => sparse_row_lanes::<4>(csr, w, x, y),
        8 => sparse_row_lanes::<8>(csr, w, x, y),
        16 => sparse_row_lanes::<16>(csr, w, x, y),
        32 => sparse_row_lanes::<32>(csr, w, x, y),
        _ => sparse_row_generic(csr, w, x, y),
    }
}

/// Lane-parallel microkernel: one accumulator lane per output row of the
/// block, walking the column-major payload in ascending input order. Lane
/// `r` performs `w[r][0]*x[0] + w[r][1]*x[1] + ...` — the scalar dot's exact
/// operation order — and each block's accumulator is added to `y` before the
/// next block's, matching the naive per-block loop bit for bit.
#[inline(always)]
fn sparse_row_lanes<const B: usize>(csr: &BlockCsr, wt: &[f32], x: &[f32], y: &mut [f32]) {
    for (bi, ys) in y.chunks_exact_mut(B).enumerate() {
        let (lo, hi) = (csr.row_ptr[bi] as usize, csr.row_ptr[bi + 1] as usize);
        for idx in lo..hi {
            let bj = csr.block_col[idx] as usize;
            let xs = &x[bj * B..(bj + 1) * B];
            let blk = &wt[idx * B * B..(idx + 1) * B * B];
            let mut acc = [0.0f32; B];
            for (col, xv) in blk.chunks_exact(B).zip(xs) {
                for (a, wv) in acc.iter_mut().zip(col) {
                    *a += wv * xv;
                }
            }
            for (o, a) in ys.iter_mut().zip(acc) {
                *o += a;
            }
        }
    }
}

/// Generic fallback for unspecialized block sizes: the naive scalar order on
/// the row-major payload (trivially bit-identical to `matmul_batch`).
#[inline(always)]
fn sparse_row_generic(csr: &BlockCsr, w: &[f32], x: &[f32], y: &mut [f32]) {
    let b = csr.block;
    let bb = b * b;
    for (bi, ys) in y.chunks_exact_mut(b).enumerate() {
        let (lo, hi) = (csr.row_ptr[bi] as usize, csr.row_ptr[bi + 1] as usize);
        for idx in lo..hi {
            let bj = csr.block_col[idx] as usize;
            let xs = &x[bj * b..(bj + 1) * b];
            let blk = &w[idx * bb..(idx + 1) * bb];
            for (row, o) in blk.chunks_exact(b).zip(ys.iter_mut()) {
                let mut acc = 0.0f32;
                for (wv, xv) in row.iter().zip(xs) {
                    acc += wv * xv;
                }
                *o += acc;
            }
        }
    }
}

/// Fixed-shape dot product: eight lane accumulators, a fixed reduction tree,
/// then the scalar tail. The operation order is explicit, so the scalar and
/// the SIMD bodies of [`lowrank_dots`] produce the same bits.
#[inline(always)]
fn dot_lanes(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; DOT_LANES];
    let mut ac = a.chunks_exact(DOT_LANES);
    let mut bc = b.chunks_exact(DOT_LANES);
    for (aa, bb) in ac.by_ref().zip(bc.by_ref()) {
        for l in 0..DOT_LANES {
            acc[l] += aa[l] * bb[l];
        }
    }
    let mut sum = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    for (av, bv) in ac.remainder().iter().zip(bc.remainder()) {
        sum += av * bv;
    }
    sum
}

/// `c[s][j] = dot_lanes(b[j], a[s])` — or `+=` when `add` — for every `k`
/// wide row `s` of `a` and row `j` of `b`, into the row-major `c`. The
/// forward's low-rank term: `Vx = X Vᵀ`, then `Y += Vx Uᵀ`.
fn lowrank_dots(a: &[f32], b: &[f32], k: usize, c: &mut [f32], add: bool) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the runtime check above guarantees avx2.
        return unsafe { avx2::dots(a, b, k, c, add) };
    }
    dots_scalar(a, b, k, c, add)
}

/// `(m, n)`: the rows of `a` and of `b` in a [`lowrank_dots`] call.
///
/// # Panics
/// Panics unless `a` and `b` are whole, non-empty `k`-wide rows and `c` is
/// `m × n`.
fn dots_shape(a: &[f32], b: &[f32], k: usize, c: &[f32]) -> (usize, usize) {
    assert!(k > 0 && !b.is_empty(), "low-rank dot operands must be non-empty");
    assert_eq!(a.len() % k, 0, "low-rank dot: left operand is not k wide");
    assert_eq!(b.len() % k, 0, "low-rank dot: right operand is not k wide");
    let (m, n) = (a.len() / k, b.len() / k);
    assert_eq!(c.len(), m * n, "low-rank dot: output is not m × n");
    (m, n)
}

/// The scalar body of [`lowrank_dots`]: one [`dot_lanes`] per output.
fn dots_scalar(a: &[f32], b: &[f32], k: usize, c: &mut [f32], add: bool) {
    let (_, n) = dots_shape(a, b, k, c);
    for (arow, crow) in a.chunks_exact(k).zip(c.chunks_exact_mut(n)) {
        for (o, brow) in crow.iter_mut().zip(b.chunks_exact(k)) {
            let d = dot_lanes(brow, arow);
            *o = if add { *o + d } else { d };
        }
    }
}

/// The left operand of [`lowrank_axpy`]: `A(i, kk)` is `a[i·k + kk]` of
/// the row-major `m × k` matrix, or `a[kk·m + i]` when `transposed` (the
/// row-major `k × m` matrix read as its transpose).
#[derive(Clone, Copy)]
struct Lhs<'a> {
    a: &'a [f32],
    m: usize,
    k: usize,
    transposed: bool,
}

impl Lhs<'_> {
    #[inline(always)]
    fn at(&self, i: usize, kk: usize) -> f32 {
        if self.transposed {
            self.a[kk * self.m + i]
        } else {
            self.a[i * self.k + kk]
        }
    }
}

/// `C += op(A)·B`: for each row `i` of the row-major `m × n` `c` and each
/// `kk` in ascending order, `c[i][..] += A(i, kk) * b[kk][..]`, with `A`
/// read from `a` as [`Lhs`] describes and `b` row-major `k × n`. Every
/// low-rank product of the backward: `dVx = dY U`, `dX += dVx V`,
/// `dU += dYᵀ Vx` and `dV += dVxᵀ X`.
fn lowrank_axpy(a: &[f32], transposed: bool, b: &[f32], n: usize, c: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the runtime check above guarantees avx2.
        return unsafe { avx2::axpy(a, transposed, b, n, c) };
    }
    axpy_scalar(a, transposed, b, n, c)
}

/// The [`Lhs`] of a [`lowrank_axpy`] call.
///
/// # Panics
/// Panics unless `b` and `c` are whole `n`-wide rows and `a` holds `m × k`
/// values.
fn axpy_lhs<'a>(a: &'a [f32], transposed: bool, b: &[f32], n: usize, c: &[f32]) -> Lhs<'a> {
    assert!(n > 0, "low-rank axpy: rows must be non-empty");
    assert_eq!(b.len() % n, 0, "low-rank axpy: right operand is not n wide");
    assert_eq!(c.len() % n, 0, "low-rank axpy: output is not n wide");
    let (m, k) = (c.len() / n, b.len() / n);
    assert_eq!(a.len(), m * k, "low-rank axpy: left operand is not m × k");
    Lhs { a, m, k, transposed }
}

/// The scalar body of [`lowrank_axpy`]: one row axpy per `(i, kk)`.
fn axpy_scalar(a: &[f32], transposed: bool, b: &[f32], n: usize, c: &mut [f32]) {
    let lhs = axpy_lhs(a, transposed, b, n, c);
    for (i, crow) in c.chunks_exact_mut(n).enumerate() {
        for (kk, brow) in b.chunks_exact(n).enumerate() {
            let av = lhs.at(i, kk);
            for (d, bv) in crow.iter_mut().zip(brow) {
                *d += av * bv;
            }
        }
    }
}

/// Fused backward for [`fused_block_forward_train`]: accumulates the payload
/// and low-rank factor gradients into `grads` and returns dL/d input.
///
/// `vx` is the cached `batch x rank` intermediate returned by the training
/// forward (required iff `lowrank` is `Some`). The bias gradient is the
/// caller's — a column sum independent of this kernel. Three passes, each
/// deterministic and run on the calling thread: row blocks for `dVx` + `dX`
/// (per-sample, independent), stored blocks for the payload gradient (each
/// accumulator sums samples in ascending order), and the factor gradients
/// `dU` / `dV` (samples ascending).
#[allow(clippy::too_many_arguments)]
pub fn fused_block_backward(
    csr: &BlockCsr,
    payload: &[f32],
    lowrank: Option<LowRankRef<'_>>,
    input: &Matrix,
    vx: Option<&Matrix>,
    grad_out: &Matrix,
    grads: BlockGrads<'_>,
    scratch: &mut Scratch,
) -> Matrix {
    let (out_dim, in_dim) = (csr.out_dim(), csr.in_dim());
    let batch = input.rows();
    assert_eq!(grad_out.rows(), batch, "grad batch mismatch");
    assert_eq!(grad_out.cols(), out_dim, "grad width mismatch");
    assert_eq!(input.cols(), in_dim, "input width mismatch");
    assert_eq!(grads.payload.len(), payload.len(), "payload gradient length mismatch");
    let rank = lowrank.map_or(0, |lr| lr.rank);
    if let Some(lr) = lowrank {
        let vx = vx.expect("low-rank backward requires the cached Vx");
        assert_eq!((vx.rows(), vx.cols()), (batch, lr.rank), "cached Vx shape mismatch");
        assert_eq!(grads.u.len(), lr.u.len(), "U gradient length mismatch");
        assert_eq!(grads.v.len(), lr.v.len(), "V gradient length mismatch");
    }

    // Pass 1 — per row block: dX = dY-through-blocks, then dVx = dY U and
    // dX += dVx V.
    let mut grad_in = Matrix::zeros(batch, in_dim);
    let mut dvx = scratch.take(batch * rank);
    if batch > 0 {
        if rank == 0 {
            // No dVx to produce: a zero-length dvx would truncate a
            // three-way zip to nothing, so drive the rows without it.
            grad_in
                .as_mut_slice()
                .par_chunks_mut(ROW_BLOCK * in_dim)
                .zip(grad_out.as_slice().par_chunks(ROW_BLOCK * out_dim))
                .for_each(|(gxblock, gblock)| {
                    backward_block(csr, payload, None, gblock, &mut [], gxblock);
                });
        } else {
            grad_in
                .as_mut_slice()
                .par_chunks_mut(ROW_BLOCK * in_dim)
                .zip(grad_out.as_slice().par_chunks(ROW_BLOCK * out_dim))
                .zip(dvx.par_chunks_mut(ROW_BLOCK * rank))
                .for_each(|((gxblock, gblock), dvxblock)| {
                    backward_block(csr, payload, lowrank, gblock, dvxblock, gxblock);
                });
        }
    }

    // Pass 2 — per stored block: dW[r][c] += Σ_s dY[s][r] * X[s][c],
    // samples in ascending order per accumulator.
    payload_grad(csr, input.as_slice(), grad_out.as_slice(), grads.payload);

    // Pass 3 — low-rank factor gradients: dU += dYᵀ Vx, dV += dVxᵀ X.
    if let Some(lr) = lowrank {
        let vx = vx.expect("checked above");
        lowrank_axpy(grad_out.as_slice(), true, vx.as_slice(), lr.rank, grads.u);
        lowrank_axpy(&dvx, true, input.as_slice(), in_dim, grads.v);
    }
    scratch.put(dvx);
    grad_in
}

/// One row block of backward pass 1.
fn backward_block(
    csr: &BlockCsr,
    w: &[f32],
    lowrank: Option<LowRankRef<'_>>,
    gblock: &[f32],
    dvxblock: &mut [f32],
    gxblock: &mut [f32],
) {
    sparse_dx(csr, w, gblock, gxblock);
    if let Some(lr) = lowrank {
        dvxblock.fill(0.0);
        lowrank_axpy(gblock, false, lr.u, lr.rank, dvxblock);
        lowrank_axpy(dvxblock, false, lr.v, csr.in_dim(), gxblock);
    }
}

/// Whether the sparse backward has an eight-lane body for this block size:
/// whole `__m256` rows, up to the paper's 32.
fn lane_block(block: usize) -> bool {
    matches!(block, 8 | 16 | 32)
}

/// `(out_dim, in_dim)` of the sparse backward kernels, after checking
/// their operands.
///
/// # Panics
/// Panics unless `w` is the whole payload, `gy` whole `out_dim` rows and
/// `x` the same number of `in_dim` rows.
fn sparse_shape(csr: &BlockCsr, w: &[f32], gy: &[f32], x: &[f32]) -> (usize, usize) {
    let (out_dim, in_dim) = (csr.out_dim(), csr.in_dim());
    assert_eq!(w.len(), csr.nnz_blocks() * csr.block * csr.block, "payload length mismatch");
    assert_eq!(gy.len() % out_dim, 0, "grad is not out_dim wide");
    assert_eq!(x.len(), gy.len() / out_dim * in_dim, "input rows do not match grad rows");
    (out_dim, in_dim)
}

/// The sparse term of dX for a row block: `dX[bj·b + c] += dY[bi·b + r] ·
/// W[r][c]` per stored block, skipping `dY == ±0`.
fn sparse_dx(csr: &BlockCsr, w: &[f32], gblock: &[f32], gxblock: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if lane_block(csr.block) && std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the runtime check above guarantees avx2.
        return unsafe { avx2::sparse_dx(csr, w, gblock, gxblock) };
    }
    sparse_dx_scalar(csr, w, gblock, gxblock)
}

/// The scalar body of [`sparse_dx`]: per row, per stored block, one row
/// axpy per non-zero `dY`.
fn sparse_dx_scalar(csr: &BlockCsr, w: &[f32], gblock: &[f32], gxblock: &mut [f32]) {
    let (out_dim, in_dim) = sparse_shape(csr, w, gblock, gxblock);
    let b = csr.block;
    let bb = b * b;
    for (gxrow, grow) in gxblock.chunks_exact_mut(in_dim).zip(gblock.chunks_exact(out_dim)) {
        for bi in 0..csr.row_ptr.len() - 1 {
            let gys = &grow[bi * b..(bi + 1) * b];
            for idx in csr.row_ptr[bi] as usize..csr.row_ptr[bi + 1] as usize {
                let bj = csr.block_col[idx] as usize;
                let gxs = &mut gxrow[bj * b..(bj + 1) * b];
                let blk = &w[idx * bb..(idx + 1) * bb];
                for (g, wrow) in gys.iter().zip(blk.chunks_exact(b)) {
                    if *g == 0.0 {
                        continue;
                    }
                    for (d, wv) in gxs.iter_mut().zip(wrow) {
                        *d += g * wv;
                    }
                }
            }
        }
    }
}

/// The payload gradient `dW[r][c] += Σ_s dY[s][bi·b + r] · X[s][bj·b + c]`
/// per stored block, samples ascending, skipping `dY == ±0`.
fn payload_grad(csr: &BlockCsr, x: &[f32], gy: &[f32], gp: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if lane_block(csr.block) && std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the runtime check above guarantees avx2.
        return unsafe { avx2::payload_grad(csr, x, gy, gp) };
    }
    payload_grad_scalar(csr, x, gy, gp)
}

/// The scalar body of [`payload_grad`]: per stored block, per sample, one
/// row axpy per non-zero `dY`.
fn payload_grad_scalar(csr: &BlockCsr, x: &[f32], gy: &[f32], gp: &mut [f32]) {
    let (out_dim, in_dim) = sparse_shape(csr, gp, gy, x);
    let b = csr.block;
    let batch = gy.len() / out_dim;
    for (idx, gp) in gp.chunks_exact_mut(b * b).enumerate() {
        let bi = csr.block_row[idx] as usize;
        let bj = csr.block_col[idx] as usize;
        for s in 0..batch {
            let gys = &gy[s * out_dim + bi * b..][..b];
            let xs = &x[s * in_dim + bj * b..][..b];
            for (g, gprow) in gys.iter().zip(gp.chunks_exact_mut(b)) {
                if *g == 0.0 {
                    continue;
                }
                for (d, xv) in gprow.iter_mut().zip(xs) {
                    *d += g * xv;
                }
            }
        }
    }
}

/// Explicit eight-lane AVX2 bodies of the low-rank and sparse-backward
/// kernels.
///
/// Each lane of a `__m256` accumulator is one accumulator of the scalar
/// body: the same products, added in the same order, starting from the
/// same value. `_mm256_mul_ps` then `_mm256_add_ps` rounds twice, like the
/// scalar `a * b + c` (Rust never contracts it into an FMA), so every
/// output equals the scalar body's bit for bit. The lanes are written out
/// because the autovectorizer does not find them: const-generic scalar
/// tiles recompiled under `#[target_feature]` came out with batch rows
/// shuffled into `xmm` registers, no faster than the per-row loops.
///
/// The only `unsafe` is at the load and store intrinsics, each fed from a
/// bounds-checked sub-slice; every entry point checks its operand shapes.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{axpy_lhs, dots_shape, sparse_shape, BlockCsr, Lhs};
    use std::arch::x86_64::*;
    use std::array::from_fn;
    use std::slice::ChunksExact;

    /// Batch rows per tile of the low-rank kernels.
    const MR: usize = 4;

    /// Eight `f32`s from the front of `s`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn load(s: &[f32]) -> __m256 {
        let s = &s[..8];
        // SAFETY: `s` is eight in-bounds `f32`s; the load is unaligned.
        unsafe { _mm256_loadu_ps(s.as_ptr()) }
    }

    /// Writes `v` to the front eight `f32`s of `d`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn store(d: &mut [f32], v: __m256) {
        let d = &mut d[..8];
        // SAFETY: `d` is eight in-bounds, exclusively borrowed `f32`s; the
        // store is unaligned.
        unsafe { _mm256_storeu_ps(d.as_mut_ptr(), v) }
    }

    /// `acc + a * b`, rounded after the multiply and after the add.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn mul_add(acc: __m256, a: __m256, b: __m256) -> __m256 {
        _mm256_add_ps(acc, _mm256_mul_ps(a, b))
    }

    /// `acc + g * x` where `g` is non-zero, `acc` itself where `g` is
    /// `±0.0`: the product is replaced by `-0.0`, and `acc + (-0.0)` is
    /// `acc` bit for bit, `±0.0` included (only a signalling NaN would come
    /// back quiet, and no arithmetic produces one). Masking the product
    /// keeps the select off the accumulator's dependency chain, which a
    /// `blendv` of the accumulator puts three uops on. `keep` and `skip`
    /// are [`splat_nonzero`]'s.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn mul_add_kept(acc: __m256, g: __m256, x: __m256, keep: __m256, skip: __m256) -> __m256 {
        _mm256_add_ps(acc, _mm256_or_ps(_mm256_and_ps(_mm256_mul_ps(g, x), keep), skip))
    }

    /// `g` broadcast, the lanes to keep (all set unless `g` is `±0.0`; the
    /// unordered `_CMP_NEQ_UQ` keeps NaN, as the scalar `g == 0.0` does),
    /// and the `-0.0` that replaces a skipped product.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn splat_nonzero(g: f32) -> (__m256, __m256, __m256) {
        let g = _mm256_set1_ps(g);
        let keep = _mm256_cmp_ps::<_CMP_NEQ_UQ>(g, _mm256_setzero_ps());
        (g, keep, _mm256_andnot_ps(keep, _mm256_set1_ps(-0.0)))
    }

    /// [`super::dot_lanes`]'s reduction `((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7))`
    /// of four accumulators at once: two rounds of pairwise `hadd` build
    /// each half's tree, one add joins the halves.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn reduce4(v: [__m256; 4]) -> [f32; 4] {
        let q = _mm256_hadd_ps(_mm256_hadd_ps(v[0], v[1]), _mm256_hadd_ps(v[2], v[3]));
        let s = _mm_add_ps(_mm256_castps256_ps128(q), _mm256_extractf128_ps::<1>(q));
        let mut out = [0.0f32; 4];
        // SAFETY: `out` is four writable `f32`s; the store is unaligned.
        unsafe { _mm_storeu_ps(out.as_mut_ptr(), s) };
        out
    }

    /// The SIMD body of [`super::lowrank_dots`]: [`MR`] rows of `a` by two
    /// rows of `b` per tile, then one row of `a` by four rows of `b`.
    #[target_feature(enable = "avx2")]
    pub(super) fn dots(a: &[f32], b: &[f32], k: usize, c: &mut [f32], add: bool) {
        let (_, n) = dots_shape(a, b, k, c);
        let mut a4 = a.chunks_exact(MR * k);
        let mut c4 = c.chunks_exact_mut(MR * n);
        for (a, c) in a4.by_ref().zip(c4.by_ref()) {
            dot_rows::<MR, 2>(a, b, k, c, add);
        }
        for (a, c) in a4.remainder().chunks_exact(k).zip(c4.into_remainder().chunks_exact_mut(n)) {
            dot_rows::<1, 4>(a, b, k, c, add);
        }
    }

    /// The `R` rows of `a` against every row of `b`: `C` rows of `b` per
    /// tile, then the rows left over one at a time.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn dot_rows<const R: usize, const C: usize>(
        a: &[f32],
        b: &[f32],
        k: usize,
        c: &mut [f32],
        add: bool,
    ) {
        let n = b.len() / k;
        let mut arows: [&[f32]; R] = [&[]; R];
        for (r, row) in arows.iter_mut().enumerate() {
            *row = &a[r * k..(r + 1) * k];
        }
        let mut j0 = 0;
        while j0 + C <= n {
            let mut brows: [&[f32]; C] = [&[]; C];
            for (q, row) in brows.iter_mut().enumerate() {
                *row = &b[(j0 + q) * k..(j0 + q + 1) * k];
            }
            put(c, n, j0, &dot_tile(arows, brows), add);
            j0 += C;
        }
        while j0 < n {
            put(c, n, j0, &dot_tile::<R, 1>(arows, [&b[j0 * k..(j0 + 1) * k]]), add);
            j0 += 1;
        }
    }

    /// Writes (or adds) an `R × C` tile of dots at column `j0` of the
    /// `n`-wide `c`.
    #[inline(always)]
    fn put<const R: usize, const C: usize>(
        c: &mut [f32],
        n: usize,
        j0: usize,
        d: &[[f32; C]; R],
        add: bool,
    ) {
        for (r, dr) in d.iter().enumerate() {
            for (o, v) in c[r * n + j0..][..C].iter_mut().zip(dr) {
                *o = if add { *o + v } else { *v };
            }
        }
    }

    /// `dot_lanes(b[j], a[r])` for `R` rows of `a` and `C` rows of `b`, all
    /// the same width: one accumulator per output, each chunk of a `b` row
    /// loaded once for all `R` rows.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn dot_tile<const R: usize, const C: usize>(a: [&[f32]; R], b: [&[f32]; C]) -> [[f32; C]; R] {
        let k = a[0].len();
        let chunks = k / 8;
        let body = 8 * chunks;
        // Every row cut to the vector body, so that the compiler can drop
        // most of the loads' bounds checks.
        let mut a8: [&[f32]; R] = [&[]; R];
        for (d, s) in a8.iter_mut().zip(&a) {
            *d = &s[..body];
        }
        let mut b8: [&[f32]; C] = [&[]; C];
        for (d, s) in b8.iter_mut().zip(&b) {
            *d = &s[..body];
        }
        let mut acc = [[_mm256_setzero_ps(); C]; R];
        for q in 0..chunks {
            let t = 8 * q;
            let mut bv = [_mm256_setzero_ps(); C];
            for (v, brow) in bv.iter_mut().zip(&b8) {
                *v = load(&brow[t..t + 8]);
            }
            for (accr, arow) in acc.iter_mut().zip(&a8) {
                let av = load(&arow[t..t + 8]);
                for (x, bv) in accr.iter_mut().zip(&bv) {
                    *x = mul_add(*x, *bv, av);
                }
            }
        }
        let mut out = [[0.0f32; C]; R];
        for (sums, group) in out.as_flattened_mut().chunks_mut(4).zip(acc.as_flattened().chunks(4))
        {
            let last = group.len() - 1;
            let four = [group[0], group[1.min(last)], group[2.min(last)], group[3.min(last)]];
            sums.copy_from_slice(&reduce4(four)[..group.len()]);
        }
        // The scalar tail of every dot, after the reduction.
        for (outr, arow) in out.iter_mut().zip(&a) {
            for (o, brow) in outr.iter_mut().zip(&b) {
                for (bv, av) in brow[body..].iter().zip(&arow[body..]) {
                    *o += bv * av;
                }
            }
        }
        out
    }

    /// The SIMD body of [`super::lowrank_axpy`]: [`MR`] rows of `c` by 16
    /// columns per tile, then 8, then single columns; the rows left over
    /// one at a time.
    #[target_feature(enable = "avx2")]
    pub(super) fn axpy(a: &[f32], transposed: bool, b: &[f32], n: usize, c: &mut [f32]) {
        let lhs = axpy_lhs(a, transposed, b, n, c);
        let brows = b.chunks_exact(n);
        let mut c4 = c.chunks_exact_mut(MR * n);
        let mut i0 = 0;
        for c in c4.by_ref() {
            axpy_rows::<MR>(lhs, i0, &brows, n, c);
            i0 += MR;
        }
        for c in c4.into_remainder().chunks_exact_mut(n) {
            axpy_rows::<1>(lhs, i0, &brows, n, c);
            i0 += 1;
        }
    }

    /// Rows `i0..i0 + R` of `C += op(A)·B`, held in `c`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn axpy_rows<const R: usize>(
        lhs: Lhs<'_>,
        i0: usize,
        brows: &ChunksExact<'_, f32>,
        n: usize,
        c: &mut [f32],
    ) {
        let mut j0 = 0;
        while j0 + 16 <= n {
            axpy_tile::<R, 2>(lhs, i0, brows.clone(), n, j0, c);
            j0 += 16;
        }
        if j0 + 8 <= n {
            axpy_tile::<R, 1>(lhs, i0, brows.clone(), n, j0, c);
            j0 += 8;
        }
        for j in j0..n {
            for r in 0..R {
                for (kk, brow) in brows.clone().enumerate() {
                    c[r * n + j] += lhs.at(i0 + r, kk) * brow[j];
                }
            }
        }
    }

    /// `R` rows by `8·V` columns of `C += op(A)·B` from column `j0`: the
    /// tile is loaded once, every `kk` adds into it in ascending order, and
    /// it is stored once.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn axpy_tile<const R: usize, const V: usize>(
        lhs: Lhs<'_>,
        i0: usize,
        brows: ChunksExact<'_, f32>,
        n: usize,
        j0: usize,
        c: &mut [f32],
    ) {
        let mut acc = [[_mm256_setzero_ps(); V]; R];
        for (r, accr) in acc.iter_mut().enumerate() {
            for (v, x) in accr.iter_mut().enumerate() {
                *x = load(&c[r * n + j0 + 8 * v..]);
            }
        }
        for (kk, brow) in brows.enumerate() {
            let brow = &brow[j0..j0 + 8 * V];
            for (r, accr) in acc.iter_mut().enumerate() {
                let av = _mm256_set1_ps(lhs.at(i0 + r, kk));
                for (v, x) in accr.iter_mut().enumerate() {
                    *x = mul_add(*x, av, load(&brow[8 * v..]));
                }
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            for (v, x) in accr.iter().enumerate() {
                store(&mut c[r * n + j0 + 8 * v..], *x);
            }
        }
    }

    /// The SIMD body of [`super::sparse_dx`] for block sizes 8, 16 and 32.
    #[target_feature(enable = "avx2")]
    pub(super) fn sparse_dx(csr: &BlockCsr, w: &[f32], gblock: &[f32], gxblock: &mut [f32]) {
        match csr.block {
            8 => sparse_dx_v::<1>(csr, w, gblock, gxblock),
            16 => sparse_dx_v::<2>(csr, w, gblock, gxblock),
            32 => sparse_dx_v::<4>(csr, w, gblock, gxblock),
            b => panic!("no eight-lane sparse dX body for block size {b}"),
        }
    }

    /// Two batch rows per tile, then the row left over.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn sparse_dx_v<const V: usize>(csr: &BlockCsr, w: &[f32], gblock: &[f32], gxblock: &mut [f32]) {
        let (out_dim, in_dim) = sparse_shape(csr, w, gblock, gxblock);
        let mut gx2 = gxblock.chunks_exact_mut(2 * in_dim);
        let mut g2 = gblock.chunks_exact(2 * out_dim);
        for (gx, g) in gx2.by_ref().zip(g2.by_ref()) {
            sparse_dx_rows::<2, V>(csr, w, g, gx);
        }
        let rest =
            gx2.into_remainder().chunks_exact_mut(in_dim).zip(g2.remainder().chunks(out_dim));
        for (gx, g) in rest {
            sparse_dx_rows::<1, V>(csr, w, g, gx);
        }
    }

    /// `R` batch rows of the sparse dX, `b = 8·V`: per stored block the
    /// `R × b` slice of dX is loaded once, each payload row once for all
    /// `R` rows, in the scalar body's block and row order.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn sparse_dx_rows<const R: usize, const V: usize>(
        csr: &BlockCsr,
        w: &[f32],
        g: &[f32],
        gx: &mut [f32],
    ) {
        let b = 8 * V;
        let (out_dim, in_dim) = (csr.out_dim(), csr.in_dim());
        for bi in 0..csr.row_ptr.len() - 1 {
            let gys: [&[f32]; R] = from_fn(|r| &g[r * out_dim + bi * b..][..b]);
            for idx in csr.row_ptr[bi] as usize..csr.row_ptr[bi + 1] as usize {
                let col = csr.block_col[idx] as usize * b;
                let blk = &w[idx * b * b..(idx + 1) * b * b];
                let mut acc = [[_mm256_setzero_ps(); V]; R];
                for (r, accr) in acc.iter_mut().enumerate() {
                    for (v, x) in accr.iter_mut().enumerate() {
                        *x = load(&gx[r * in_dim + col + 8 * v..]);
                    }
                }
                for (row, wrow) in blk.chunks_exact(b).enumerate() {
                    let mut wv = [_mm256_setzero_ps(); V];
                    for (v, x) in wv.iter_mut().enumerate() {
                        *x = load(&wrow[8 * v..]);
                    }
                    for (accr, gy) in acc.iter_mut().zip(&gys) {
                        let (gv, keep, skip) = splat_nonzero(gy[row]);
                        for (x, wv) in accr.iter_mut().zip(&wv) {
                            *x = mul_add_kept(*x, gv, *wv, keep, skip);
                        }
                    }
                }
                for (r, accr) in acc.iter().enumerate() {
                    for (v, x) in accr.iter().enumerate() {
                        store(&mut gx[r * in_dim + col + 8 * v..], *x);
                    }
                }
            }
        }
    }

    /// The SIMD body of [`super::payload_grad`] for block sizes 8, 16 and
    /// 32.
    #[target_feature(enable = "avx2")]
    pub(super) fn payload_grad(csr: &BlockCsr, x: &[f32], gy: &[f32], gp: &mut [f32]) {
        match csr.block {
            8 => payload_grad_v::<1>(csr, x, gy, gp),
            16 => payload_grad_v::<2>(csr, x, gy, gp),
            32 => payload_grad_v::<4>(csr, x, gy, gp),
            b => panic!("no eight-lane payload-gradient body for block size {b}"),
        }
    }

    /// Two payload rows per tile, `b = 8·V`: the `2 × b` tile is loaded
    /// once, each sample's input slice once for both rows, samples in
    /// ascending order.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn payload_grad_v<const V: usize>(csr: &BlockCsr, x: &[f32], gy: &[f32], gp: &mut [f32]) {
        let (out_dim, in_dim) = sparse_shape(csr, gp, gy, x);
        let b = 8 * V;
        let batch = gy.len() / out_dim;
        for (idx, gblk) in gp.chunks_exact_mut(b * b).enumerate() {
            let row0 = csr.block_row[idx] as usize * b;
            let col = csr.block_col[idx] as usize * b;
            for (pair, gpair) in gblk.chunks_exact_mut(2 * b).enumerate() {
                let row = row0 + 2 * pair;
                let mut acc = [[_mm256_setzero_ps(); V]; 2];
                for (accq, gprow) in acc.iter_mut().zip(gpair.chunks_exact(b)) {
                    for (v, a) in accq.iter_mut().enumerate() {
                        *a = load(&gprow[8 * v..]);
                    }
                }
                for s in 0..batch {
                    let xs = &x[s * in_dim + col..][..b];
                    let gs = &gy[s * out_dim + row..][..2];
                    let mut xv = [_mm256_setzero_ps(); V];
                    for (v, a) in xv.iter_mut().enumerate() {
                        *a = load(&xs[8 * v..]);
                    }
                    for (accq, g) in acc.iter_mut().zip(gs) {
                        let (gv, keep, skip) = splat_nonzero(*g);
                        for (a, xv) in accq.iter_mut().zip(&xv) {
                            *a = mul_add_kept(*a, gv, *xv, keep, skip);
                        }
                    }
                }
                for (accq, gprow) in acc.iter().zip(gpair.chunks_exact_mut(b)) {
                    for (v, a) in accq.iter().enumerate() {
                        store(&mut gprow[8 * v..], *a);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_sparse::BlockSparseMatrix;
    use bfly_tensor::matmul::{matmul, matmul_a_bt_slice, matmul_at_b};
    use bfly_tensor::seeded_rng;
    use rand::Rng;

    fn sample(b: usize, grid_r: usize, grid_c: usize, keep: f64, seed: u64) -> BlockSparseMatrix {
        let mut rng = seeded_rng(seed);
        let mut coords = Vec::new();
        for i in 0..grid_r as u32 {
            for j in 0..grid_c as u32 {
                if i == j || rng.gen_bool(keep) {
                    coords.push((i, j));
                }
            }
        }
        BlockSparseMatrix::random(grid_r * b, grid_c * b, b, coords, &mut rng)
    }

    #[test]
    fn csr_prefix_offsets_match_coords() {
        let w = sample(4, 6, 6, 0.3, 91);
        let csr = w.csr();
        assert_eq!(csr.nnz_blocks(), w.nnz_blocks());
        assert_eq!(csr.row_ptr().len(), 7);
        let mut idx = 0;
        for bi in 0..6usize {
            for k in csr.row_ptr()[bi] as usize..csr.row_ptr()[bi + 1] as usize {
                assert_eq!(w.block_coords()[idx], (bi as u32, csr.block_cols()[k]));
                idx += 1;
            }
        }
        assert_eq!(idx, w.nnz_blocks());
    }

    #[test]
    fn sparse_only_is_bit_identical_to_naive_all_specializations() {
        for (b, seed) in [(4usize, 1u64), (8, 2), (16, 3), (32, 4)] {
            let w = sample(b, 4, 4, 0.4, 90 + seed);
            let mut rng = seeded_rng(seed);
            let x = Matrix::random_uniform(37, w.shape().1, 1.0, &mut rng);
            let naive = w.matmul_batch(&x);
            let mut scratch = Scratch::new();
            let fused = fused_block_forward(&w.csr(), w.data(), None, None, &x, &mut scratch);
            assert_eq!(naive.as_slice(), fused.as_slice(), "block size {b}");
        }
    }

    #[test]
    fn generic_fallback_is_bit_identical_to_naive() {
        for b in [2usize, 6, 64] {
            let w = sample(b, 3, 5, 0.5, 40 + b as u64);
            let mut rng = seeded_rng(b as u64);
            let x = Matrix::random_uniform(9, w.shape().1, 1.0, &mut rng);
            let naive = w.matmul_batch(&x);
            let mut scratch = Scratch::new();
            let fused = fused_block_forward(&w.csr(), w.data(), None, None, &x, &mut scratch);
            assert_eq!(naive.as_slice(), fused.as_slice(), "block size {b}");
        }
    }

    #[test]
    fn lowrank_and_bias_match_reference_arithmetic() {
        let mut rng = seeded_rng(77);
        let w = sample(8, 4, 4, 0.4, 78);
        let (out_dim, in_dim) = w.shape();
        let rank = 5;
        let u: Vec<f32> = (0..out_dim * rank).map(|_| rng.gen_range(-0.5..=0.5)).collect();
        let v: Vec<f32> = (0..rank * in_dim).map(|_| rng.gen_range(-0.5..=0.5)).collect();
        let bias: Vec<f32> = (0..out_dim).map(|i| i as f32 * 0.01).collect();
        let x = Matrix::random_uniform(13, in_dim, 1.0, &mut rng);
        let mut scratch = Scratch::new();
        let fused = fused_block_forward(
            &w.csr(),
            w.data(),
            Some(LowRankRef { u: &u, v: &v, rank }),
            Some(&bias),
            &x,
            &mut scratch,
        );
        let mut expect = w.matmul_batch(&x);
        let vx = matmul_a_bt_slice(&x, &v, rank);
        expect.axpy(1.0, &matmul_a_bt_slice(&vx, &u, out_dim));
        for r in 0..expect.rows() {
            for (o, bv) in expect.row_mut(r).iter_mut().zip(&bias) {
                *o += bv;
            }
        }
        assert!(fused.relative_error(&expect) < 1e-5);
    }

    #[test]
    fn train_variant_is_bit_identical_and_returns_vx() {
        let mut rng = seeded_rng(79);
        let w = sample(4, 8, 8, 0.3, 80);
        let (out_dim, in_dim) = w.shape();
        let rank = 3;
        let u: Vec<f32> = (0..out_dim * rank).map(|_| rng.gen_range(-0.5..=0.5)).collect();
        let v: Vec<f32> = (0..rank * in_dim).map(|_| rng.gen_range(-0.5..=0.5)).collect();
        let lr = LowRankRef { u: &u, v: &v, rank };
        let x = Matrix::random_uniform(11, in_dim, 1.0, &mut rng);
        let mut scratch = Scratch::new();
        let infer = fused_block_forward(&w.csr(), w.data(), Some(lr), None, &x, &mut scratch);
        let (train, vx) =
            fused_block_forward_train(&w.csr(), w.data(), Some(lr), None, &x, &mut scratch);
        assert_eq!(infer.as_slice(), train.as_slice());
        let vx = vx.expect("low-rank training forward returns Vx");
        let expect_vx = matmul_a_bt_slice(&x, &v, rank);
        assert!(vx.relative_error(&expect_vx) < 1e-5);
    }

    #[test]
    fn backward_matches_naive_and_dense_formulas() {
        let mut rng = seeded_rng(81);
        let w = sample(8, 4, 4, 0.5, 82);
        let (out_dim, in_dim) = w.shape();
        let rank = 4;
        let u: Vec<f32> = (0..out_dim * rank).map(|_| rng.gen_range(-0.5..=0.5)).collect();
        let v: Vec<f32> = (0..rank * in_dim).map(|_| rng.gen_range(-0.5..=0.5)).collect();
        let lr = LowRankRef { u: &u, v: &v, rank };
        let x = Matrix::random_uniform(7, in_dim, 1.0, &mut rng);
        let g = Matrix::random_uniform(7, out_dim, 1.0, &mut rng);
        let mut scratch = Scratch::new();
        let (_, vx) =
            fused_block_forward_train(&w.csr(), w.data(), Some(lr), None, &x, &mut scratch);
        let vx = vx.expect("vx");

        let mut gp = vec![0.0f32; w.data().len()];
        let mut gu = vec![0.0f32; u.len()];
        let mut gv = vec![0.0f32; v.len()];
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

        // Payload + sparse dX against the naive reference.
        let mut gp_ref = vec![0.0f32; w.data().len()];
        let gx_sparse_ref = w.backward_batch(&x, &g, &mut gp_ref);
        for (a, e) in gp.iter().zip(&gp_ref) {
            assert!((a - e).abs() < 1e-4, "{a} vs {e}");
        }
        // dX = sparse dX + (dY U) V.
        let um = Matrix::from_vec(out_dim, rank, u.clone());
        let vm = Matrix::from_vec(rank, in_dim, v.clone());
        let dvx = matmul(&g, &um);
        let mut gx_ref = gx_sparse_ref;
        gx_ref.axpy(1.0, &matmul(&dvx, &vm));
        assert!(gx.relative_error(&gx_ref) < 1e-4);
        // dU = dY^T Vx ; dV = (dY U)^T X.
        let du_ref = matmul_at_b(&g, &vx);
        let dv_ref = matmul_at_b(&dvx, &x);
        for (a, e) in gu.iter().zip(du_ref.as_slice()) {
            assert!((a - e).abs() < 1e-4, "{a} vs {e}");
        }
        for (a, e) in gv.iter().zip(dv_ref.as_slice()) {
            assert!((a - e).abs() < 1e-4, "{a} vs {e}");
        }
    }

    #[test]
    fn backward_without_lowrank_matches_naive() {
        // Regression: at rank 0 the dVx scratch is zero-length and must not
        // truncate the row sweep (which would silently zero grad_in).
        let mut rng = seeded_rng(83);
        let w = sample(8, 4, 4, 0.5, 84);
        let (out_dim, in_dim) = w.shape();
        let x = Matrix::random_uniform(7, in_dim, 1.0, &mut rng);
        let g = Matrix::random_uniform(7, out_dim, 1.0, &mut rng);
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
        assert!(gx_ref.as_slice().iter().any(|v| *v != 0.0), "degenerate reference");
        assert_eq!(gx.as_slice(), gx_ref.as_slice());
        assert_eq!(gp.as_slice(), gp_ref.as_slice());
    }

    /// Every kernel with a SIMD body: the scalar body and the SIMD body, on
    /// the same inputs, must produce the same bits. The shapes cover the
    /// tile tails (rows not a multiple of four, columns and inner widths
    /// not a multiple of eight or sixteen); the zero-skip inputs include
    /// `±0.0` gradients, a NaN gradient, an infinite operand behind a zero
    /// gradient and `-0.0` accumulators.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn every_isa_body_is_bit_identical() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        fn bits(v: &[f32]) -> Vec<u32> {
            v.iter().map(|x| x.to_bits()).collect()
        }
        /// Values in `[-1, 1]` with exact `+0.0` and `-0.0` mixed in.
        fn signed_zeros(len: usize, rng: &mut impl Rng) -> Vec<f32> {
            (0..len)
                .map(|_| match rng.gen_range(0u32..8) {
                    0..=2 => 0.0,
                    3 => -0.0,
                    _ => rng.gen_range(-1.0..=1.0),
                })
                .collect()
        }
        type Body<'a> = &'a dyn Fn(&mut [f32]);
        let check = |what: &str, start: &[f32], scalar: Body<'_>, simd: Body<'_>| {
            let (mut want, mut got) = (start.to_vec(), start.to_vec());
            scalar(&mut want);
            simd(&mut got);
            assert_eq!(bits(&got), bits(&want), "{what}");
        };
        let mut rng = seeded_rng(29);
        for &(m, n, k) in
            &[(1, 1, 1), (3, 5, 7), (4, 2, 8), (5, 17, 13), (9, 33, 64), (32, 20, 130)]
        {
            let mut vals = |len: usize| signed_zeros(len, &mut rng);
            let (a, b, start) = (vals(m * k), vals(n * k), vals(m * n));
            for add in [false, true] {
                check(
                    &format!("dots {m}x{n}x{k} add={add}"),
                    &start,
                    &|c| dots_scalar(&a, &b, k, c, add),
                    // SAFETY: the check at the top guarantees avx2.
                    &|c| unsafe { avx2::dots(&a, &b, k, c, add) },
                );
            }
            let b = vals(k * n);
            for transposed in [false, true] {
                check(
                    &format!("axpy {m}x{n}x{k} transposed={transposed}"),
                    &start,
                    &|c| axpy_scalar(&a, transposed, &b, n, c),
                    // SAFETY: the check at the top guarantees avx2.
                    &|c| unsafe { avx2::axpy(&a, transposed, &b, n, c) },
                );
            }
        }
        for (block, rows) in [(8usize, 1usize), (8, 6), (16, 3), (32, 5), (32, 2)] {
            let w = sample(block, 3, 4, 0.5, 60 + block as u64);
            let csr = w.csr();
            let (out_dim, in_dim) = w.shape();
            let mut payload = w.data().to_vec();
            payload[3] = f32::INFINITY;
            let mut x = signed_zeros(rows * in_dim, &mut rng);
            x[0] = f32::INFINITY;
            let mut gy = signed_zeros(rows * out_dim, &mut rng);
            gy[1] = f32::NAN;
            // The infinite payload entry sits in row 0 of the first stored
            // block: the zero gradient there must skip it.
            gy[0] = -0.0;
            check(
                &format!("sparse dX block {block} rows {rows}"),
                &signed_zeros(rows * in_dim, &mut rng),
                &|gx| sparse_dx_scalar(&csr, &payload, &gy, gx),
                // SAFETY: the check at the top guarantees avx2.
                &|gx| unsafe { avx2::sparse_dx(&csr, &payload, &gy, gx) },
            );
            check(
                &format!("payload grad block {block} rows {rows}"),
                &signed_zeros(payload.len(), &mut rng),
                &|gp| payload_grad_scalar(&csr, &x, &gy, gp),
                // SAFETY: the check at the top guarantees avx2.
                &|gp| unsafe { avx2::payload_grad(&csr, &x, &gy, gp) },
            );
        }
    }

    #[test]
    fn empty_batch_and_empty_pattern_are_fine() {
        let w = BlockSparseMatrix::zeros(16, 16, 4, vec![]);
        let x = Matrix::zeros(0, 16);
        let mut scratch = Scratch::new();
        let y = fused_block_forward(&w.csr(), w.data(), None, None, &x, &mut scratch);
        assert_eq!((y.rows(), y.cols()), (0, 16));
        let x = Matrix::zeros(3, 16);
        let y = fused_block_forward(&w.csr(), w.data(), None, None, &x, &mut scratch);
        assert_eq!(y.as_slice(), vec![0.0; 48].as_slice());
    }
}
