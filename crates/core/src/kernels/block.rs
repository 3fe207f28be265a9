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
//! - **Register tiles** for every product: the sparse forward (payloads
//!   repacked column-major once per call, lanes across a block's output
//!   rows, several batch rows per payload-column load), the low-rank term
//!   of the forward, its four products in the backward (`dVx = dY U`,
//!   `dX += dVx V`, `dU += dYᵀ Vx`, `dV += dVxᵀ X`), the sparse term of
//!   `dX` and the payload gradient. Each kernel has one scalar body — the
//!   per-row code, which is also the non-x86 fallback and the tests'
//!   oracle — and one SIMD tile body generic over the vector width (see
//!   `simd`), run at sixteen lanes on AVX-512 hosts and at eight on AVX2
//!   hosts; block rows narrower than a vector run the same tiles at eight
//!   or four lanes. Each lane reproduces one accumulator of the scalar
//!   body, so results are **bit-identical** to it (and the sparse term to
//!   [`BlockSparseMatrix::matmul_batch`](crate::BlockSparseMatrix::matmul_batch))
//!   whichever width runs. Batches below `REPACK_MIN_BATCH` keep the
//!   per-row scalar sparse forward.
//!
//! The low-rank forward uses a fixed eight-lane dot (`DOT_LANES`) with an
//! explicit reduction tree; its operation order is part of the kernel's
//! contract (identical on every ISA: a sixteen-lane register holds two such
//! dots), which is what keeps the layer's training forward, eval forward
//! and `forward_inference` bit-identical to each other.

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

    /// Whether this block size has SIMD tiles (and the batched forward
    /// therefore runs on the column-major payload repack).
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
/// (`dst[c * block + r] = src[r * block + c]`), the layout the sparse
/// forward's SIMD tiles read. Runs once per batched call and is amortised
/// over every row.
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
    // Column-major payload repack for the SIMD tiles; generic block sizes,
    // hosts without the tiles and batches too small to amortize the repack
    // run the scalar kernel on the row-major payload directly
    // (bit-identical either way).
    let colmajor = csr.specialized() && batch >= REPACK_MIN_BATCH && has_tiles();
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

/// The sparse term of a row block. On the column-major payload (`colmajor`,
/// built only when [`has_tiles`]) the SIMD tiles run several rows per
/// payload load; otherwise each row runs the scalar per-row kernel on the
/// row-major payload. Both are bit-identical to `matmul_batch`.
fn sparse_rows(csr: &BlockCsr, w: &[f32], colmajor: bool, iblock: &[f32], oblock: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if colmajor {
        let isa = simd::Isa::detect().expect("the column-major payload is built for the tiles");
        return isa.sparse_forward(csr, w, iblock, oblock);
    }
    debug_assert!(!colmajor, "no tiles read the column-major payload on this host");
    for (orow, irow) in oblock.chunks_mut(csr.out_dim()).zip(iblock.chunks(csr.in_dim())) {
        sparse_row_generic(csr, w, irow, orow);
    }
}

/// Whether the host runs the SIMD tiles (an x86-64 CPU with AVX2).
fn has_tiles() -> bool {
    #[cfg(target_arch = "x86_64")]
    return simd::Isa::detect().is_some();
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// The scalar body of the sparse forward for one row, on the row-major
/// payload: per output, `acc = Σ_c w[r][c] · x[c]` in ascending `c` from
/// zero, then `y[r] += acc` — the naive order of `matmul_batch`.
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
    if let Some(isa) = simd::Isa::detect() {
        return isa.dots(a, b, k, c, add);
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
    if let Some(isa) = simd::Isa::detect() {
        return isa.axpy(a, transposed, b, n, c);
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

/// `(out_dim, in_dim)` of the sparse kernels, after checking their
/// operands.
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
    if let Some(isa) = simd::Isa::detect().filter(|_| csr.specialized()) {
        return isa.sparse_dx(csr, w, gblock, gxblock);
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
    if let Some(isa) = simd::Isa::detect().filter(|_| csr.specialized()) {
        return isa.payload_grad(csr, x, gy, gp);
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

/// The SIMD bodies of the sparse forward, the low-rank dots and products,
/// the sparse dX and the payload gradient: one register-tile body per
/// kernel, generic over the vector width ([`simd::Simd`]), compiled once
/// for AVX-512 (16 lanes) and once for AVX2 (8 lanes) and picked at run
/// time ([`simd::Isa`]).
///
/// Each lane of an accumulator is one accumulator of the scalar body: the
/// same products, added in the same order, starting from the same value.
/// A multiply then an add rounds twice, like the scalar `a * b + c` (Rust
/// never contracts it into an FMA, and no FMA intrinsic is used), so every
/// output equals the scalar body's bit for bit. The lanes are written out
/// because the autovectorizer does not find them: const-generic scalar
/// tiles recompiled under `#[target_feature]` came out with batch rows
/// shuffled into `xmm` registers, no faster than the per-row loops.
///
/// The `unsafe` is at the intrinsics, each behind a width token that only
/// exists on a CPU with the instructions, and at the load and store
/// intrinsics, each fed from a bounds-checked sub-slice; every entry point
/// checks its operand shapes.
#[cfg(target_arch = "x86_64")]
mod simd {
    use super::{axpy_lhs, dots_shape, sparse_shape, BlockCsr, Lhs};
    use std::arch::x86_64::*;
    use std::slice::ChunksExact;

    /// Batch rows per tile of the low-rank kernels.
    const MR: usize = 4;

    /// A vector width. A value of a type implementing it is a zero-sized
    /// token that is only made on a CPU with that width's instructions, so
    /// the methods are safe to call wherever a token is at hand; they
    /// compile to single instructions once inlined into a
    /// `#[target_feature]` entry point.
    pub(super) trait Simd: Copy {
        /// `f32` lanes per vector.
        const LANES: usize;
        /// One vector of `LANES` floats.
        type V: Copy;
        /// Which lanes [`Simd::add_kept`] adds.
        type Keep: Copy;
        /// The width of half as many lanes (itself at four lanes).
        type Half: Simd;
        fn half(self) -> Self::Half;
        fn zero(self) -> Self::V;
        fn splat(self, x: f32) -> Self::V;
        /// The first `LANES` floats of `s`.
        fn load(self, s: &[f32]) -> Self::V;
        /// Writes `v` to the first `LANES` floats of `d`.
        fn store(self, d: &mut [f32], v: Self::V);
        fn add(self, a: Self::V, b: Self::V) -> Self::V;
        fn mul(self, a: Self::V, b: Self::V) -> Self::V;
        /// `g` broadcast, and the lanes to keep: all unless `g` is `±0.0`
        /// (NaN is kept, as the scalar `g == 0.0` test keeps it).
        fn splat_nonzero(self, g: f32) -> (Self::V, Self::Keep);
        /// `acc + p` in the kept lanes and `acc` itself, bit for bit, in
        /// the others: the scalar body's skipped update.
        fn add_kept(self, acc: Self::V, p: Self::V, keep: Self::Keep) -> Self::V;

        /// `acc + a * b`, rounded after the multiply and after the add.
        #[inline(always)]
        fn mul_add(self, acc: Self::V, a: Self::V, b: Self::V) -> Self::V {
            self.add(acc, self.mul(a, b))
        }
    }

    /// A width whose vectors hold whole eight-lane accumulators of
    /// `super::dot_lanes`: `DOTS` dots per vector, one per eight-lane
    /// group.
    pub(super) trait DotSimd: Simd {
        /// Dots per vector.
        const DOTS: usize;
        /// Eight floats at `t` of each of the `DOTS` rows, one row per
        /// group.
        fn load_groups(self, rows: &[&[f32]], t: usize) -> Self::V;
        /// The eight floats at the front of `s`, in every group.
        fn dup_group(self, s: &[f32]) -> Self::V;
        /// `dot_lanes`' reduction `((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7))` of
        /// every group of `v`, vector by vector, into `out`.
        fn reduce_groups(self, v: &[Self::V], out: &mut [f32]);
    }

    /// Four lanes (SSE, part of every x86-64 CPU).
    #[derive(Clone, Copy)]
    pub(super) struct F32x4(());

    /// Eight lanes (AVX2).
    #[derive(Clone, Copy)]
    pub(super) struct F32x8(());

    /// Sixteen lanes (AVX-512F).
    #[derive(Clone, Copy)]
    pub(super) struct F32x16(());

    impl F32x8 {
        pub(super) fn detect() -> Option<Self> {
            std::arch::is_x86_feature_detected!("avx2").then_some(Self(()))
        }

        /// [`DotSimd::reduce_groups`] of four vectors at once: two rounds
        /// of pairwise `hadd` build each half's tree, one add joins the
        /// halves.
        #[inline(always)]
        fn reduce4(self, v: [__m256; 4]) -> [f32; 4] {
            let mut out = [0.0f32; 4];
            // SAFETY: `self` proves AVX2; `out` is four writable `f32`s and
            // the store is unaligned.
            unsafe {
                let q = _mm256_hadd_ps(_mm256_hadd_ps(v[0], v[1]), _mm256_hadd_ps(v[2], v[3]));
                let s = _mm_add_ps(_mm256_castps256_ps128(q), _mm256_extractf128_ps::<1>(q));
                _mm_storeu_ps(out.as_mut_ptr(), s);
            }
            out
        }
    }

    impl F32x16 {
        pub(super) fn detect() -> Option<Self> {
            let avx512 = std::arch::is_x86_feature_detected!("avx512f");
            (avx512 && std::arch::is_x86_feature_detected!("avx2")).then_some(Self(()))
        }
    }

    impl Simd for F32x4 {
        const LANES: usize = 4;
        type V = __m128;
        type Keep = (__m128, __m128);
        type Half = F32x4;

        #[inline(always)]
        fn half(self) -> F32x4 {
            self
        }
        #[inline(always)]
        fn zero(self) -> __m128 {
            // SAFETY: every x86-64 CPU has SSE.
            unsafe { _mm_setzero_ps() }
        }
        #[inline(always)]
        fn splat(self, x: f32) -> __m128 {
            // SAFETY: every x86-64 CPU has SSE.
            unsafe { _mm_set1_ps(x) }
        }
        #[inline(always)]
        fn load(self, s: &[f32]) -> __m128 {
            let s = &s[..4];
            // SAFETY: `s` is four in-bounds `f32`s; the load is unaligned.
            unsafe { _mm_loadu_ps(s.as_ptr()) }
        }
        #[inline(always)]
        fn store(self, d: &mut [f32], v: __m128) {
            let d = &mut d[..4];
            // SAFETY: `d` is four in-bounds, exclusively borrowed `f32`s; the
            // store is unaligned.
            unsafe { _mm_storeu_ps(d.as_mut_ptr(), v) }
        }
        #[inline(always)]
        fn add(self, a: __m128, b: __m128) -> __m128 {
            // SAFETY: every x86-64 CPU has SSE.
            unsafe { _mm_add_ps(a, b) }
        }
        #[inline(always)]
        fn mul(self, a: __m128, b: __m128) -> __m128 {
            // SAFETY: every x86-64 CPU has SSE.
            unsafe { _mm_mul_ps(a, b) }
        }
        /// The mask, and the `-0.0` that replaces a skipped product (see
        /// `add_kept`).
        #[inline(always)]
        fn splat_nonzero(self, g: f32) -> (__m128, (__m128, __m128)) {
            // SAFETY: every x86-64 CPU has SSE.
            unsafe {
                let g = _mm_set1_ps(g);
                let keep = _mm_cmpneq_ps(g, _mm_setzero_ps());
                (g, (keep, _mm_andnot_ps(keep, _mm_set1_ps(-0.0))))
            }
        }
        /// A skipped product is replaced by `-0.0`, and `acc + (-0.0)` is
        /// `acc` bit for bit, `±0.0` included (only a signalling NaN would
        /// come back quiet, and no arithmetic produces one). Masking the
        /// product keeps the select off the accumulator's dependency chain.
        #[inline(always)]
        fn add_kept(self, acc: __m128, p: __m128, (keep, skip): (__m128, __m128)) -> __m128 {
            // SAFETY: every x86-64 CPU has SSE.
            unsafe { _mm_add_ps(acc, _mm_or_ps(_mm_and_ps(p, keep), skip)) }
        }
    }

    impl Simd for F32x8 {
        const LANES: usize = 8;
        type V = __m256;
        type Keep = (__m256, __m256);
        type Half = F32x4;

        #[inline(always)]
        fn half(self) -> F32x4 {
            F32x4(())
        }
        #[inline(always)]
        fn zero(self) -> __m256 {
            // SAFETY: `self` proves AVX2.
            unsafe { _mm256_setzero_ps() }
        }
        #[inline(always)]
        fn splat(self, x: f32) -> __m256 {
            // SAFETY: `self` proves AVX2.
            unsafe { _mm256_set1_ps(x) }
        }
        #[inline(always)]
        fn load(self, s: &[f32]) -> __m256 {
            let s = &s[..8];
            // SAFETY: `self` proves AVX2; `s` is eight in-bounds `f32`s and
            // the load is unaligned.
            unsafe { _mm256_loadu_ps(s.as_ptr()) }
        }
        #[inline(always)]
        fn store(self, d: &mut [f32], v: __m256) {
            let d = &mut d[..8];
            // SAFETY: `self` proves AVX2; `d` is eight in-bounds, exclusively
            // borrowed `f32`s and the store is unaligned.
            unsafe { _mm256_storeu_ps(d.as_mut_ptr(), v) }
        }
        #[inline(always)]
        fn add(self, a: __m256, b: __m256) -> __m256 {
            // SAFETY: `self` proves AVX2.
            unsafe { _mm256_add_ps(a, b) }
        }
        #[inline(always)]
        fn mul(self, a: __m256, b: __m256) -> __m256 {
            // SAFETY: `self` proves AVX2.
            unsafe { _mm256_mul_ps(a, b) }
        }
        /// As [`F32x4`]'s: the unordered `_CMP_NEQ_UQ` keeps NaN.
        #[inline(always)]
        fn splat_nonzero(self, g: f32) -> (__m256, (__m256, __m256)) {
            // SAFETY: `self` proves AVX2.
            unsafe {
                let g = _mm256_set1_ps(g);
                let keep = _mm256_cmp_ps::<_CMP_NEQ_UQ>(g, _mm256_setzero_ps());
                (g, (keep, _mm256_andnot_ps(keep, _mm256_set1_ps(-0.0))))
            }
        }
        /// As [`F32x4`]'s: a skipped product becomes `-0.0`. A `blendv` of
        /// the accumulator would put three uops on its dependency chain.
        #[inline(always)]
        fn add_kept(self, acc: __m256, p: __m256, (keep, skip): (__m256, __m256)) -> __m256 {
            // SAFETY: `self` proves AVX2.
            unsafe { _mm256_add_ps(acc, _mm256_or_ps(_mm256_and_ps(p, keep), skip)) }
        }
    }

    impl Simd for F32x16 {
        const LANES: usize = 16;
        type V = __m512;
        type Keep = __mmask16;
        type Half = F32x8;

        #[inline(always)]
        fn half(self) -> F32x8 {
            F32x8(())
        }
        #[inline(always)]
        fn zero(self) -> __m512 {
            // SAFETY: `self` proves AVX-512F.
            unsafe { _mm512_setzero_ps() }
        }
        #[inline(always)]
        fn splat(self, x: f32) -> __m512 {
            // SAFETY: `self` proves AVX-512F.
            unsafe { _mm512_set1_ps(x) }
        }
        #[inline(always)]
        fn load(self, s: &[f32]) -> __m512 {
            let s = &s[..16];
            // SAFETY: `self` proves AVX-512F; `s` is sixteen in-bounds `f32`s
            // and the load is unaligned.
            unsafe { _mm512_loadu_ps(s.as_ptr()) }
        }
        #[inline(always)]
        fn store(self, d: &mut [f32], v: __m512) {
            let d = &mut d[..16];
            // SAFETY: `self` proves AVX-512F; `d` is sixteen in-bounds,
            // exclusively borrowed `f32`s and the store is unaligned.
            unsafe { _mm512_storeu_ps(d.as_mut_ptr(), v) }
        }
        #[inline(always)]
        fn add(self, a: __m512, b: __m512) -> __m512 {
            // SAFETY: `self` proves AVX-512F.
            unsafe { _mm512_add_ps(a, b) }
        }
        #[inline(always)]
        fn mul(self, a: __m512, b: __m512) -> __m512 {
            // SAFETY: `self` proves AVX-512F.
            unsafe { _mm512_mul_ps(a, b) }
        }
        /// The mask register of the lanes to keep (`_CMP_NEQ_UQ`: NaN is
        /// kept).
        #[inline(always)]
        fn splat_nonzero(self, g: f32) -> (__m512, __mmask16) {
            // SAFETY: `self` proves AVX-512F.
            unsafe {
                let g = _mm512_set1_ps(g);
                (g, _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(g, _mm512_setzero_ps()))
            }
        }
        /// A masked add: the skipped lanes keep `acc` untouched.
        #[inline(always)]
        fn add_kept(self, acc: __m512, p: __m512, keep: __mmask16) -> __m512 {
            // SAFETY: `self` proves AVX-512F.
            unsafe { _mm512_mask_add_ps(acc, keep, acc, p) }
        }
    }

    impl DotSimd for F32x8 {
        const DOTS: usize = 1;

        #[inline(always)]
        fn load_groups(self, rows: &[&[f32]], t: usize) -> __m256 {
            self.load(&rows[0][t..])
        }
        #[inline(always)]
        fn dup_group(self, s: &[f32]) -> __m256 {
            self.load(s)
        }
        #[inline(always)]
        fn reduce_groups(self, v: &[__m256], out: &mut [f32]) {
            for (group, sums) in v.chunks(4).zip(out.chunks_mut(4)) {
                let last = group.len() - 1;
                let four = [group[0], group[1.min(last)], group[2.min(last)], group[3.min(last)]];
                sums.copy_from_slice(&self.reduce4(four)[..group.len()]);
            }
        }
    }

    impl DotSimd for F32x16 {
        const DOTS: usize = 2;

        /// Two rows' eight floats, the second row in the upper half.
        #[inline(always)]
        fn load_groups(self, rows: &[&[f32]], t: usize) -> __m512 {
            let (lo, hi) = (&rows[0][t..t + 8], &rows[1][t..t + 8]);
            // SAFETY: `self` proves AVX-512F (and AVX); `lo` and `hi` are
            // eight in-bounds `f32`s each and the loads are unaligned.
            unsafe {
                let lo = _mm512_castps_pd(_mm512_castps256_ps512(_mm256_loadu_ps(lo.as_ptr())));
                let hi = _mm256_castps_pd(_mm256_loadu_ps(hi.as_ptr()));
                _mm512_castpd_ps(_mm512_insertf64x4::<1>(lo, hi))
            }
        }
        #[inline(always)]
        fn dup_group(self, s: &[f32]) -> __m512 {
            let s = &s[..8];
            // SAFETY: `self` proves AVX-512F (and AVX); `s` is eight
            // in-bounds `f32`s and the load is unaligned.
            unsafe {
                let v = _mm256_castps_pd(_mm256_loadu_ps(s.as_ptr()));
                _mm512_castpd_ps(_mm512_broadcast_f64x4(v))
            }
        }
        /// Splits each vector into its two groups and reduces them four at
        /// a time on the eight-lane tree.
        #[inline(always)]
        fn reduce_groups(self, v: &[__m512], out: &mut [f32]) {
            // SAFETY: `self` proves AVX-512F.
            let halves = |z: __m512| unsafe {
                let hi = _mm512_extractf64x4_pd::<1>(_mm512_castps_pd(z));
                (_mm512_castps512_ps256(z), _mm256_castpd_ps(hi))
            };
            for (pair, sums) in v.chunks(2).zip(out.chunks_mut(4)) {
                let (a0, a1) = halves(pair[0]);
                let (b0, b1) = halves(pair[pair.len() - 1]);
                sums.copy_from_slice(&self.half().reduce4([a0, a1, b0, b1])[..2 * pair.len()]);
            }
        }
    }

    /// The vector width the tiles run at: the widest the host has.
    #[derive(Clone, Copy)]
    pub(super) enum Isa {
        Avx512(F32x16),
        Avx2(F32x8),
    }

    impl Isa {
        /// `None` on a CPU without AVX2. The feature checks are cached by
        /// the standard library, so this is a few loads per call.
        pub(super) fn detect() -> Option<Self> {
            F32x16::detect().map(Isa::Avx512).or_else(|| F32x8::detect().map(Isa::Avx2))
        }
    }

    /// One `Isa` method per kernel, running its generic body compiled
    /// under `#[target_feature]` for the token's width.
    macro_rules! entry_points {
        ($($kernel:ident($($arg:ident: $ty:ty),*);)*) => {
            impl Isa {
                $(
                    pub(super) fn $kernel(self, $($arg: $ty),*) {
                        #[target_feature(enable = "avx512f")]
                        fn avx512(s: F32x16, $($arg: $ty),*) {
                            $kernel(s, $($arg),*)
                        }
                        #[target_feature(enable = "avx2")]
                        fn avx2(s: F32x8, $($arg: $ty),*) {
                            $kernel(s, $($arg),*)
                        }
                        match self {
                            // SAFETY: an `F32x16` is only made on a CPU with
                            // AVX-512F and AVX2.
                            Isa::Avx512(s) => unsafe { avx512(s, $($arg),*) },
                            // SAFETY: an `F32x8` is only made on a CPU with
                            // AVX2.
                            Isa::Avx2(s) => unsafe { avx2(s, $($arg),*) },
                        }
                    }
                )*
            }
        };
    }

    entry_points! {
        sparse_forward(csr: &BlockCsr, wt: &[f32], x: &[f32], y: &mut [f32]);
        dots(a: &[f32], b: &[f32], k: usize, c: &mut [f32], add: bool);
        axpy(a: &[f32], transposed: bool, b: &[f32], n: usize, c: &mut [f32]);
        sparse_dx(csr: &BlockCsr, w: &[f32], g: &[f32], gx: &mut [f32]);
        payload_grad(csr: &BlockCsr, x: &[f32], gy: &[f32], gp: &mut [f32]);
    }

    /// Runs `$tiles::<T, V, R>` for a block-sparse kernel: `T` is `$S` or
    /// the narrower width whose `V` vectors span one row of a `$block`-wide
    /// block, and `R` (tile rows) is four, or two when a block row takes
    /// four vectors, so the accumulators fit the register file.
    macro_rules! by_block {
        ($S:ident, $s:expr, $block:expr, $tiles:ident($($arg:expr),*)) => {
            match $block {
                b if b == 4 * $S::LANES => $tiles::<$S, 4, 2>($s, $($arg),*),
                b if b == 2 * $S::LANES => $tiles::<$S, 2, 4>($s, $($arg),*),
                b if b == $S::LANES => $tiles::<$S, 1, 4>($s, $($arg),*),
                b if b == <$S::Half as Simd>::LANES => {
                    $tiles::<$S::Half, 1, 4>($s.half(), $($arg),*)
                }
                b if b == <<$S::Half as Simd>::Half as Simd>::LANES => {
                    $tiles::<<$S::Half as Simd>::Half, 1, 4>($s.half().half(), $($arg),*)
                }
                b => panic!("no lane tile for block size {b}"),
            }
        };
    }

    /// The sparse forward `y += W x` of a row block on the column-major
    /// payload `wt`.
    #[inline(always)]
    fn sparse_forward<S: Simd>(s: S, csr: &BlockCsr, wt: &[f32], x: &[f32], y: &mut [f32]) {
        sparse_shape(csr, wt, y, x);
        by_block!(S, s, csr.block, forward_rows(csr, wt, x, y))
    }

    /// `R` batch rows per tile, then the rows left over one at a time.
    #[inline(always)]
    fn forward_rows<T: Simd, const V: usize, const R: usize>(
        s: T,
        csr: &BlockCsr,
        wt: &[f32],
        x: &[f32],
        y: &mut [f32],
    ) {
        let (out_dim, in_dim) = (csr.out_dim(), csr.in_dim());
        let mut yr = y.chunks_exact_mut(R * out_dim);
        let mut xr = x.chunks_exact(R * in_dim);
        for (y, x) in yr.by_ref().zip(xr.by_ref()) {
            forward_tile::<T, V, R>(s, csr, wt, x, y);
        }
        let rest = yr.into_remainder().chunks_exact_mut(out_dim).zip(xr.remainder().chunks(in_dim));
        for (y, x) in rest {
            forward_tile::<T, V, 1>(s, csr, wt, x, y);
        }
    }

    /// `R` batch rows of the sparse forward, `b = V · LANES`: per stored
    /// block, each payload column is loaded once for all `R` rows. Lane `i`
    /// of row `r`'s accumulator sums `w[i][c] · x[r][c]` over ascending `c`
    /// from zero and is then added to `y` — the scalar dot's order.
    #[inline(always)]
    fn forward_tile<T: Simd, const V: usize, const R: usize>(
        s: T,
        csr: &BlockCsr,
        wt: &[f32],
        x: &[f32],
        y: &mut [f32],
    ) {
        let (l, b) = (T::LANES, V * T::LANES);
        let (out_dim, in_dim) = (csr.out_dim(), csr.in_dim());
        for bi in 0..csr.row_ptr.len() - 1 {
            for idx in csr.row_ptr[bi] as usize..csr.row_ptr[bi + 1] as usize {
                let col = csr.block_col[idx] as usize * b;
                let blk = &wt[idx * b * b..(idx + 1) * b * b];
                let mut xs: [&[f32]; R] = [&[]; R];
                for (r, xr) in xs.iter_mut().enumerate() {
                    *xr = &x[r * in_dim + col..][..b];
                }
                let mut acc = [[s.zero(); V]; R];
                for (c, wcol) in blk.chunks_exact(b).enumerate() {
                    let mut wv = [s.zero(); V];
                    for (v, w) in wv.iter_mut().enumerate() {
                        *w = s.load(&wcol[v * l..]);
                    }
                    for (accr, xr) in acc.iter_mut().zip(&xs) {
                        let xv = s.splat(xr[c]);
                        for (a, w) in accr.iter_mut().zip(&wv) {
                            *a = s.mul_add(*a, *w, xv);
                        }
                    }
                }
                for (r, accr) in acc.iter().enumerate() {
                    let ys = &mut y[r * out_dim + bi * b..][..b];
                    for (v, a) in accr.iter().enumerate() {
                        let sum = s.add(s.load(&ys[v * l..]), *a);
                        s.store(&mut ys[v * l..], sum);
                    }
                }
            }
        }
    }

    /// The SIMD body of [`super::lowrank_dots`]: [`MR`] rows of `a` by two
    /// vectors of `b` rows per tile, then one row of `a` by four vectors.
    #[inline(always)]
    fn dots<S: DotSimd>(s: S, a: &[f32], b: &[f32], k: usize, c: &mut [f32], add: bool) {
        let (_, n) = dots_shape(a, b, k, c);
        let mut a4 = a.chunks_exact(MR * k);
        let mut c4 = c.chunks_exact_mut(MR * n);
        for (a, c) in a4.by_ref().zip(c4.by_ref()) {
            dot_rows::<S, MR, 2>(s, a, b, k, c, add);
        }
        for (a, c) in a4.remainder().chunks_exact(k).zip(c4.into_remainder().chunks_exact_mut(n)) {
            dot_rows::<S, 1, 4>(s, a, b, k, c, add);
        }
    }

    /// The `R` rows of `a` against every row of `b`: `P · DOTS` rows of `b`
    /// per tile, then `DOTS` rows at a time.
    #[inline(always)]
    fn dot_rows<S: DotSimd, const R: usize, const P: usize>(
        s: S,
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
        while j0 + P * S::DOTS <= n {
            put(c, n, j0, P * S::DOTS, &dot_tile::<S, R, P>(s, arows, b, k, j0), add);
            j0 += P * S::DOTS;
        }
        while j0 < n {
            let cols = S::DOTS.min(n - j0);
            put(c, n, j0, cols, &dot_tile::<S, R, 1>(s, arows, b, k, j0), add);
            j0 += S::DOTS;
        }
    }

    /// Writes (or adds) the first `cols` columns of a tile of dots at
    /// column `j0` of the `n`-wide `c`.
    #[inline(always)]
    fn put<const R: usize>(
        c: &mut [f32],
        n: usize,
        j0: usize,
        cols: usize,
        d: &[[f32; 8]; R],
        add: bool,
    ) {
        for (r, dr) in d.iter().enumerate() {
            for (o, v) in c[r * n + j0..][..cols].iter_mut().zip(dr) {
                *o = if add { *o + v } else { *v };
            }
        }
    }

    /// `dot_lanes(b[j0 + q], a[r])` for `R` rows of `a` and `q < P · DOTS`,
    /// all of width `k`: one eight-lane group per dot, each group of `b`
    /// rows loaded once for all `R` rows. A row index past the last row of
    /// `b` reads the last row again; [`dot_rows`] drops those dots.
    #[inline(always)]
    fn dot_tile<S: DotSimd, const R: usize, const P: usize>(
        s: S,
        a: [&[f32]; R],
        b: &[f32],
        k: usize,
        j0: usize,
    ) -> [[f32; 8]; R] {
        let n = b.len() / k;
        let body = k / 8 * 8;
        let brow = |q: usize| {
            let j = (j0 + q).min(n - 1);
            &b[j * k..(j + 1) * k]
        };
        // Every row cut to the vector body, so that the compiler can drop
        // most of the loads' bounds checks.
        let mut a8: [&[f32]; R] = [&[]; R];
        for (d, row) in a8.iter_mut().zip(&a) {
            *d = &row[..body];
        }
        let mut b8: [[&[f32]; 2]; P] = [[&[]; 2]; P];
        for (p, rows) in b8.iter_mut().enumerate() {
            for (g, row) in rows.iter_mut().enumerate().take(S::DOTS) {
                *row = &brow(p * S::DOTS + g)[..body];
            }
        }
        let mut acc = [[s.zero(); P]; R];
        for q in 0..k / 8 {
            let t = 8 * q;
            let mut bv = [s.zero(); P];
            for (v, rows) in bv.iter_mut().zip(&b8) {
                *v = s.load_groups(&rows[..S::DOTS], t);
            }
            for (accr, arow) in acc.iter_mut().zip(&a8) {
                let av = s.dup_group(&arow[t..]);
                for (x, bv) in accr.iter_mut().zip(&bv) {
                    *x = s.mul_add(*x, *bv, av);
                }
            }
        }
        let cols = P * S::DOTS;
        // At most four rows of `a` by eight dots (`P · DOTS <= 8`).
        let mut sums = [0.0f32; 32];
        s.reduce_groups(acc.as_flattened(), &mut sums[..R * cols]);
        let mut out = [[0.0f32; 8]; R];
        for (r, (outr, arow)) in out.iter_mut().zip(&a).enumerate() {
            for (q, o) in outr[..cols].iter_mut().enumerate() {
                *o = sums[r * cols + q];
                // The scalar tail of every dot, after the reduction.
                for (bv, av) in brow(q)[body..].iter().zip(&arow[body..]) {
                    *o += bv * av;
                }
            }
        }
        out
    }

    /// The SIMD body of [`super::lowrank_axpy`]: [`MR`] rows of `c` per
    /// tile, then the rows left over one at a time.
    #[inline(always)]
    fn axpy<S: Simd>(s: S, a: &[f32], transposed: bool, b: &[f32], n: usize, c: &mut [f32]) {
        let lhs = axpy_lhs(a, transposed, b, n, c);
        let brows = b.chunks_exact(n);
        let mut c4 = c.chunks_exact_mut(MR * n);
        let mut i0 = 0;
        for c in c4.by_ref() {
            axpy_rows::<S, MR>(s, lhs, i0, &brows, n, c);
            i0 += MR;
        }
        for c in c4.into_remainder().chunks_exact_mut(n) {
            axpy_rows::<S, 1>(s, lhs, i0, &brows, n, c);
            i0 += 1;
        }
    }

    /// Rows `i0..i0 + R` of `C += op(A)·B`, held in `c`: two vectors of
    /// columns per tile, then one, then one of half the width, then single
    /// columns.
    #[inline(always)]
    fn axpy_rows<S: Simd, const R: usize>(
        s: S,
        lhs: Lhs<'_>,
        i0: usize,
        brows: &ChunksExact<'_, f32>,
        n: usize,
        c: &mut [f32],
    ) {
        let (l, h) = (S::LANES, <S::Half as Simd>::LANES);
        let mut j0 = 0;
        while j0 + 2 * l <= n {
            axpy_tile::<S, R, 2>(s, lhs, i0, brows.clone(), n, j0, c);
            j0 += 2 * l;
        }
        if j0 + l <= n {
            axpy_tile::<S, R, 1>(s, lhs, i0, brows.clone(), n, j0, c);
            j0 += l;
        }
        if h < l && j0 + h <= n {
            axpy_tile::<S::Half, R, 1>(s.half(), lhs, i0, brows.clone(), n, j0, c);
            j0 += h;
        }
        for j in j0..n {
            for r in 0..R {
                for (kk, brow) in brows.clone().enumerate() {
                    c[r * n + j] += lhs.at(i0 + r, kk) * brow[j];
                }
            }
        }
    }

    /// `R` rows by `V` vectors of columns of `C += op(A)·B` from column
    /// `j0`: the tile is loaded once, every `kk` adds into it in ascending
    /// order, and it is stored once.
    #[inline(always)]
    fn axpy_tile<T: Simd, const R: usize, const V: usize>(
        s: T,
        lhs: Lhs<'_>,
        i0: usize,
        brows: ChunksExact<'_, f32>,
        n: usize,
        j0: usize,
        c: &mut [f32],
    ) {
        let l = T::LANES;
        let mut acc = [[s.zero(); V]; R];
        for (r, accr) in acc.iter_mut().enumerate() {
            for (v, x) in accr.iter_mut().enumerate() {
                *x = s.load(&c[r * n + j0 + l * v..]);
            }
        }
        for (kk, brow) in brows.enumerate() {
            let brow = &brow[j0..j0 + l * V];
            let mut bv = [s.zero(); V];
            for (v, x) in bv.iter_mut().enumerate() {
                *x = s.load(&brow[l * v..]);
            }
            for (r, accr) in acc.iter_mut().enumerate() {
                let av = s.splat(lhs.at(i0 + r, kk));
                for (x, bv) in accr.iter_mut().zip(&bv) {
                    *x = s.mul_add(*x, av, *bv);
                }
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            for (v, x) in accr.iter().enumerate() {
                s.store(&mut c[r * n + j0 + l * v..], *x);
            }
        }
    }

    /// The SIMD body of [`super::sparse_dx`].
    #[inline(always)]
    fn sparse_dx<S: Simd>(s: S, csr: &BlockCsr, w: &[f32], g: &[f32], gx: &mut [f32]) {
        sparse_shape(csr, w, g, gx);
        by_block!(S, s, csr.block, dx_rows(csr, w, g, gx))
    }

    /// `R` batch rows per tile, then the rows left over one at a time.
    #[inline(always)]
    fn dx_rows<T: Simd, const V: usize, const R: usize>(
        s: T,
        csr: &BlockCsr,
        w: &[f32],
        g: &[f32],
        gx: &mut [f32],
    ) {
        let (out_dim, in_dim) = (csr.out_dim(), csr.in_dim());
        let mut gxr = gx.chunks_exact_mut(R * in_dim);
        let mut gr = g.chunks_exact(R * out_dim);
        for (gx, g) in gxr.by_ref().zip(gr.by_ref()) {
            dx_tile::<T, V, R>(s, csr, w, g, gx);
        }
        let rest =
            gxr.into_remainder().chunks_exact_mut(in_dim).zip(gr.remainder().chunks(out_dim));
        for (gx, g) in rest {
            dx_tile::<T, V, 1>(s, csr, w, g, gx);
        }
    }

    /// `R` batch rows of the sparse dX, `b = V · LANES`: per stored block
    /// the `R × b` slice of dX is loaded once, each payload row once for
    /// all `R` rows, in the scalar body's block and row order.
    #[inline(always)]
    fn dx_tile<T: Simd, const V: usize, const R: usize>(
        s: T,
        csr: &BlockCsr,
        w: &[f32],
        g: &[f32],
        gx: &mut [f32],
    ) {
        let (l, b) = (T::LANES, V * T::LANES);
        let (out_dim, in_dim) = (csr.out_dim(), csr.in_dim());
        for bi in 0..csr.row_ptr.len() - 1 {
            let mut gys: [&[f32]; R] = [&[]; R];
            for (r, gy) in gys.iter_mut().enumerate() {
                *gy = &g[r * out_dim + bi * b..][..b];
            }
            for idx in csr.row_ptr[bi] as usize..csr.row_ptr[bi + 1] as usize {
                let col = csr.block_col[idx] as usize * b;
                let blk = &w[idx * b * b..(idx + 1) * b * b];
                let mut acc = [[s.zero(); V]; R];
                for (r, accr) in acc.iter_mut().enumerate() {
                    for (v, x) in accr.iter_mut().enumerate() {
                        *x = s.load(&gx[r * in_dim + col + l * v..]);
                    }
                }
                for (row, wrow) in blk.chunks_exact(b).enumerate() {
                    let mut wv = [s.zero(); V];
                    for (v, x) in wv.iter_mut().enumerate() {
                        *x = s.load(&wrow[l * v..]);
                    }
                    for (accr, gy) in acc.iter_mut().zip(&gys) {
                        let (gv, keep) = s.splat_nonzero(gy[row]);
                        for (x, wv) in accr.iter_mut().zip(&wv) {
                            *x = s.add_kept(*x, s.mul(gv, *wv), keep);
                        }
                    }
                }
                for (r, accr) in acc.iter().enumerate() {
                    for (v, x) in accr.iter().enumerate() {
                        s.store(&mut gx[r * in_dim + col + l * v..], *x);
                    }
                }
            }
        }
    }

    /// The SIMD body of [`super::payload_grad`].
    #[inline(always)]
    fn payload_grad<S: Simd>(s: S, csr: &BlockCsr, x: &[f32], gy: &[f32], gp: &mut [f32]) {
        sparse_shape(csr, gp, gy, x);
        by_block!(S, s, csr.block, payload_tiles(csr, x, gy, gp))
    }

    /// `P` payload rows per tile, `b = V · LANES`: the `P × b` tile is
    /// loaded once, each sample's input slice once for all `P` rows,
    /// samples in ascending order.
    #[inline(always)]
    fn payload_tiles<T: Simd, const V: usize, const P: usize>(
        s: T,
        csr: &BlockCsr,
        x: &[f32],
        gy: &[f32],
        gp: &mut [f32],
    ) {
        let (l, b) = (T::LANES, V * T::LANES);
        let (out_dim, in_dim) = (csr.out_dim(), csr.in_dim());
        let batch = gy.len() / out_dim;
        for (idx, gblk) in gp.chunks_exact_mut(b * b).enumerate() {
            let row0 = csr.block_row[idx] as usize * b;
            let col = csr.block_col[idx] as usize * b;
            for (tile, gtile) in gblk.chunks_exact_mut(P * b).enumerate() {
                let row = row0 + P * tile;
                let mut acc = [[s.zero(); V]; P];
                for (p, accp) in acc.iter_mut().enumerate() {
                    for (v, a) in accp.iter_mut().enumerate() {
                        *a = s.load(&gtile[p * b + l * v..]);
                    }
                }
                for smp in 0..batch {
                    let xs = &x[smp * in_dim + col..][..b];
                    let gs = &gy[smp * out_dim + row..][..P];
                    let mut xv = [s.zero(); V];
                    for (v, a) in xv.iter_mut().enumerate() {
                        *a = s.load(&xs[l * v..]);
                    }
                    for (accp, g) in acc.iter_mut().zip(gs) {
                        let (gv, keep) = s.splat_nonzero(*g);
                        for (a, xv) in accp.iter_mut().zip(&xv) {
                            *a = s.add_kept(*a, s.mul(gv, *xv), keep);
                        }
                    }
                }
                for (p, accp) in acc.iter().enumerate() {
                    for (v, a) in accp.iter().enumerate() {
                        s.store(&mut gtile[p * b + l * v..], *a);
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

    /// Every kernel with a SIMD body, at every vector width the host has:
    /// the scalar body and the SIMD body, on the same inputs, must produce
    /// the same bits (every NaN counts as one value: Rust leaves NaN
    /// payloads unspecified). The low-rank shapes take ranks 1–20 and 128
    /// and widths off the multiples of 8, 16 and 32; the sparse shapes take
    /// blocks 4, 8, 16 and 32 at batches that leave every tile remainder;
    /// the inputs hold about half `±0.0`, and NaN and `±inf` gradients, an
    /// infinite operand behind a zero gradient and `-0.0` accumulators. The
    /// widths compared and skipped are written to stderr past the test
    /// harness's capture, so a host without AVX-512 shows the skip.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn every_isa_body_is_bit_identical() {
        use simd::{F32x16, F32x8, Isa};
        use std::io::Write;
        let isas = [
            ("avx2", F32x8::detect().map(Isa::Avx2)),
            ("avx512f", F32x16::detect().map(Isa::Avx512)),
        ];
        let names = |have: bool| -> Vec<&str> {
            isas.iter().filter(|(_, isa)| isa.is_some() == have).map(|(name, _)| *name).collect()
        };
        let _ = writeln!(
            std::io::stderr(),
            "every_isa_body_is_bit_identical: scalar bodies compared with {:?}; skipped {:?}, \
             not on this CPU",
            names(true),
            names(false)
        );
        fn bits(v: &[f32]) -> Vec<u32> {
            v.iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
        }
        /// About half exact `+0.0` and `-0.0`, the rest in `[-1, 1]`.
        fn signed_zeros(len: usize, rng: &mut impl Rng) -> Vec<f32> {
            (0..len)
                .map(|_| match rng.gen_range(0u32..8) {
                    0..=2 => 0.0,
                    3 => -0.0,
                    _ => rng.gen_range(-1.0..=1.0),
                })
                .collect()
        }
        /// A NaN, a `+inf` and a `-inf` at spread positions of `v`.
        fn plant_nonfinite(v: &mut [f32]) {
            let n = v.len();
            let last = n.saturating_sub(1);
            for (at, x) in [(1, f32::NAN), (n / 2, f32::INFINITY), (last, f32::NEG_INFINITY)] {
                if at < n {
                    v[at] = x;
                }
            }
        }
        type Body<'a> = &'a dyn Fn(&mut [f32]);
        let check = |what: &str, start: &[f32], scalar: Body<'_>, simd: Body<'_>| {
            let (mut want, mut got) = (start.to_vec(), start.to_vec());
            scalar(&mut want);
            simd(&mut got);
            assert_eq!(bits(&got), bits(&want), "{what}");
        };
        let mut rng = seeded_rng(29);
        for (name, isa) in isas.iter().filter_map(|(name, isa)| Some((name, (*isa)?))) {
            for (i, rank) in (1..=20).chain([128]).enumerate() {
                let batch = [0, 1, 2, 3, 4, 5, 6, 7, 9, 33, 70][i % 11];
                let (in_dim, out_dim) = ([24, 40, 57, 71][i % 4], [40, 9, 64, 17][i % 4]);
                for nonfinite in [false, true] {
                    let at = format!("{name} rank {rank} batch {batch} nonfinite {nonfinite}");
                    let mut vals = |len: usize| signed_zeros(len, &mut rng);
                    let (x, u, v) =
                        (vals(batch * in_dim), vals(out_dim * rank), vals(rank * in_dim));
                    let (vx, mut gy, dvx) =
                        (vals(batch * rank), vals(batch * out_dim), vals(batch * rank));
                    if nonfinite {
                        plant_nonfinite(&mut gy);
                    }
                    let y = vals(batch * out_dim);
                    for (what, a, b, k, start, add) in [
                        ("Vx = X Vᵀ", &x, &v, in_dim, &vx, false),
                        ("Y += Vx Uᵀ", &vx, &u, rank, &y, true),
                    ] {
                        check(
                            &format!("dots {what} {at}"),
                            start,
                            &|c| dots_scalar(a, b, k, c, add),
                            &|c| isa.dots(a, b, k, c, add),
                        );
                    }
                    let (gx, gu, gv) =
                        (vals(batch * in_dim), vals(out_dim * rank), vals(rank * in_dim));
                    for (what, a, transposed, b, n, start) in [
                        ("dVx = dY U", &gy, false, &u, rank, &dvx),
                        ("dX += dVx V", &dvx, false, &v, in_dim, &gx),
                        ("dU += dYᵀ Vx", &gy, true, &vx, rank, &gu),
                        ("dV += dVxᵀ X", &dvx, true, &x, in_dim, &gv),
                    ] {
                        check(
                            &format!("axpy {what} {at}"),
                            start,
                            &|c| axpy_scalar(a, transposed, b, n, c),
                            &|c| isa.axpy(a, transposed, b, n, c),
                        );
                    }
                }
            }
            let batches = (0..=9).chain([15, 16, 17, 31, 32, 33, 50, 63, 64, 65, 70]);
            for (block, batch) in
                [4usize, 8, 16, 32].into_iter().flat_map(|b| batches.clone().map(move |n| (b, n)))
            {
                let w = sample(block, 2, 3, 0.5, 60 + block as u64);
                let csr = w.csr();
                let (out_dim, in_dim) = w.shape();
                let mut payload = w.data().to_vec();
                // Row 0 of the first stored block: the zero gradient there
                // must skip it.
                payload[3] = f32::INFINITY;
                let mut colmajor = vec![0.0; payload.len()];
                repack_blocks_colmajor(block, &payload, &mut colmajor);
                let mut x = signed_zeros(batch * in_dim, &mut rng);
                let mut gy = signed_zeros(batch * out_dim, &mut rng);
                if batch > 0 {
                    x[0] = f32::INFINITY;
                    gy[0] = -0.0;
                    plant_nonfinite(&mut gy);
                }
                let at = format!("{name} block {block} batch {batch}");
                check(
                    &format!("sparse forward {at}"),
                    &signed_zeros(batch * out_dim, &mut rng),
                    &|y| {
                        for (yrow, xrow) in y.chunks_mut(out_dim).zip(x.chunks(in_dim)) {
                            sparse_row_generic(&csr, &payload, xrow, yrow);
                        }
                    },
                    &|y| isa.sparse_forward(&csr, &colmajor, &x, y),
                );
                check(
                    &format!("sparse dX {at}"),
                    &signed_zeros(batch * in_dim, &mut rng),
                    &|gx| sparse_dx_scalar(&csr, &payload, &gy, gx),
                    &|gx| isa.sparse_dx(&csr, &payload, &gy, gx),
                );
                check(
                    &format!("payload grad {at}"),
                    &signed_zeros(payload.len(), &mut rng),
                    &|gp| payload_grad_scalar(&csr, &x, &gy, gp),
                    &|gp| isa.payload_grad(&csr, &x, &gy, gp),
                );
            }
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
