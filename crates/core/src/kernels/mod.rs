//! Fused, allocation-free host kernels for butterfly-style layers.
//!
//! The structured layers all share one execution shape: zero-pad the input to
//! the transform width `n`, apply a fixed permutation, run `log2 n` in-place
//! stages, then crop to the output width and add a bias. The naive
//! implementation walks the whole activation matrix once *per step* (a pad
//! copy, a permute copy, one parallel dispatch per stage, a crop copy) and
//! clones the activations once per stage in training mode — `O(stages)`
//! full-matrix traffic that throws away the paper's `O(n log n)` advantage on
//! allocator churn and cache misses.
//!
//! The kernels here instead make **one** parallel pass over row blocks: each
//! row is gathered through the permutation (with implicit zero-padding)
//! straight into a scratch row, every stage runs on it while it stays
//! cache-resident, and the crop + bias writes it to the output. Batched calls
//! first repack each stage's parameters into planar (structure-of-arrays)
//! scratch once, so the per-row pair loops read contiguous coefficient
//! streams — and rotation stages pay their `sin_cos` once per call, not once
//! per row. Training mode is the same pass but records each stage's input
//! into a caller-owned arena (`[row block][stage][row][n]`, reused across
//! steps) instead of per-stage matrix clones. The only allocation in steady
//! state is the returned output matrix.

use bfly_tensor::{Matrix, Permutation, Scratch};
use rayon::prelude::*;

pub mod block;
mod tiles;

pub use block::{
    fused_block_backward, fused_block_forward, fused_block_forward_train, BlockCsr, BlockGrads,
    LowRankRef,
};

/// Rows per unit of parallel work. Small enough to spread a modest batch
/// over cores, large enough that one scratch row per block amortises.
const ROW_BLOCK: usize = 32;

/// Minimum batch for the planar parameter repack: below this the
/// once-per-call deinterleave (a full sweep of every stage's parameters)
/// costs as much as it saves, so small batches use the canonical layout.
const PLANAR_MIN_BATCH: usize = 8;

/// Applies one flat-twiddle butterfly stage in place to a transform-width
/// row. `twiddles` holds `[a, b, c, d]` quadruples (see
/// [`ButterflyFactor::twiddles`](crate::butterfly::ButterflyFactor::twiddles));
/// free function so both owned factors and borrowed parameter slices share
/// the exact same arithmetic.
#[inline]
pub fn apply_twiddle_stage(block_size: usize, twiddles: &[f32], x: &mut [f32]) {
    let half = block_size / 2;
    let mut quads = twiddles.chunks_exact(4);
    for block in x.chunks_exact_mut(block_size) {
        let (lo, hi) = block.split_at_mut(half);
        for ((xp, xq), quad) in lo.iter_mut().zip(hi.iter_mut()).zip(quads.by_ref()) {
            let (a, b, c, d) = (quad[0], quad[1], quad[2], quad[3]);
            let p = *xp;
            let q = *xq;
            *xp = a * p + b * q;
            *xq = c * p + d * q;
        }
    }
}

/// Out-of-place variant of [`apply_twiddle_stage`]: reads the stage input
/// from `src` and writes the stage output to `dst` (every position of `dst`
/// is written — the pairs tile the row). Same arithmetic, so results are
/// bit-identical to copying `src` into `dst` and applying in place; the
/// training path uses it to advance one arena slot to the next without a
/// separate copy pass.
#[inline]
pub fn apply_twiddle_stage_into(block_size: usize, twiddles: &[f32], src: &[f32], dst: &mut [f32]) {
    let half = block_size / 2;
    let mut quads = twiddles.chunks_exact(4);
    for (sblock, dblock) in src.chunks_exact(block_size).zip(dst.chunks_exact_mut(block_size)) {
        let (slo, shi) = sblock.split_at(half);
        let (dlo, dhi) = dblock.split_at_mut(half);
        for ((((sp, sq), dp), dq), quad) in
            slo.iter().zip(shi).zip(dlo.iter_mut()).zip(dhi.iter_mut()).zip(quads.by_ref())
        {
            let (a, b, c, d) = (quad[0], quad[1], quad[2], quad[3]);
            *dp = a * sp + b * sq;
            *dq = c * sp + d * sq;
        }
    }
}

/// Applies one Givens-rotation stage in place to a transform-width row
/// (the [`OrthoFactor`](crate::ortho::OrthoFactor) parametrization: one
/// angle per mixed pair).
#[inline]
pub fn apply_rotation_stage(block_size: usize, angles: &[f32], x: &mut [f32]) {
    let half = block_size / 2;
    let mut angles = angles.iter();
    for block in x.chunks_exact_mut(block_size) {
        let (lo, hi) = block.split_at_mut(half);
        for ((xp, xq), theta) in lo.iter_mut().zip(hi.iter_mut()).zip(angles.by_ref()) {
            let (s, c) = theta.sin_cos();
            let p = *xp;
            let q = *xq;
            *xp = c * p - s * q;
            *xq = s * p + c * q;
        }
    }
}

/// Out-of-place variant of [`apply_rotation_stage`]; see
/// [`apply_twiddle_stage_into`] for the contract.
#[inline]
pub fn apply_rotation_stage_into(block_size: usize, angles: &[f32], src: &[f32], dst: &mut [f32]) {
    let half = block_size / 2;
    let mut angles = angles.iter();
    for (sblock, dblock) in src.chunks_exact(block_size).zip(dst.chunks_exact_mut(block_size)) {
        let (slo, shi) = sblock.split_at(half);
        let (dlo, dhi) = dblock.split_at_mut(half);
        for ((((sp, sq), dp), dq), theta) in
            slo.iter().zip(shi).zip(dlo.iter_mut()).zip(dhi.iter_mut()).zip(angles.by_ref())
        {
            let (s, c) = theta.sin_cos();
            *dp = c * sp - s * sq;
            *dq = s * sp + c * sq;
        }
    }
}

/// Deinterleaves `[a, b, c, d]` twiddle quadruples into four planes
/// `[a..][b..][c..][d..]` (`dst.len() == twiddles.len()`). The planar form
/// lets the stage loop read each coefficient stream contiguously, which the
/// interleaved quads deny the vectorizer; the repack runs once per batch
/// call and is amortised over every row.
#[inline]
pub fn repack_twiddles_planar(twiddles: &[f32], dst: &mut [f32]) {
    let pairs = twiddles.len() / 4;
    let (a, rest) = dst.split_at_mut(pairs);
    let (b, rest) = rest.split_at_mut(pairs);
    let (c, d) = rest.split_at_mut(pairs);
    for ((((quad, a), b), c), d) in twiddles.chunks_exact(4).zip(a).zip(b).zip(c).zip(d.iter_mut())
    {
        *a = quad[0];
        *b = quad[1];
        *c = quad[2];
        *d = quad[3];
    }
}

/// Inverse of [`repack_twiddles_planar`]: interleaves four planes
/// `[a..][b..][c..][d..]` back into `[a, b, c, d]` quadruples — how the
/// backward's planar twiddle-gradient accumulators reach the parameters.
#[inline]
fn unpack_twiddles_planar(planar: &[f32], dst: &mut [f32]) {
    let pairs = planar.len() / 4;
    let (a, rest) = planar.split_at(pairs);
    let (b, rest) = rest.split_at(pairs);
    let (c, d) = rest.split_at(pairs);
    for ((((quad, a), b), c), d) in dst.chunks_exact_mut(4).zip(a).zip(b).zip(c).zip(d) {
        quad.copy_from_slice(&[*a, *b, *c, *d]);
    }
}

/// Evaluates each angle's `sin_cos` once into two planes `[sin..][cos..]`
/// (`dst.len() == 2 * angles.len()`), so a batched rotation stage pays the
/// transcendentals once per call instead of once per row.
#[inline]
pub fn repack_angles_planar(angles: &[f32], dst: &mut [f32]) {
    let pairs = angles.len();
    let (sines, cosines) = dst.split_at_mut(pairs);
    for ((theta, sv), cv) in angles.iter().zip(sines).zip(cosines.iter_mut()) {
        let (s, c) = theta.sin_cos();
        *sv = s;
        *cv = c;
    }
}

/// Routes a planar stage call (or the backward's whole row-block sweep) to
/// the widest vector ISA the host supports.
///
/// On x86-64 the cost is one cached CPUID lookup per call; every other
/// architecture compiles straight to the generic body. The `wide` variants
/// run the *same* generic body, only recompiled with wider vector units
/// enabled (see the module doc on [`wide`]), so results are bit-identical
/// whichever branch is taken.
macro_rules! dispatch_wide {
    ($avx512:ident, $avx2:ident, $generic:ident, $($arg:expr),+) => {{
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: the runtime check above guarantees avx512f.
                return unsafe { wide::$avx512($($arg),+) };
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: the runtime check above guarantees avx2.
                return unsafe { wide::$avx2($($arg),+) };
            }
        }
        $generic($($arg),+)
    }};
}

/// Wide-vector re-instantiations of the planar stage loops and of the
/// backward's row-block sweep for x86-64.
///
/// `#[target_feature]` recompiles the inlined generic body with 256-bit
/// (AVX2) or 512-bit (AVX-512F) vector units enabled; the baseline build
/// only assumes SSE2, so without this the planar loops vectorize at four
/// lanes. The arithmetic is unchanged — identical operations in identical
/// order, and Rust never contracts `a * p + b * q` into an FMA — so every
/// variant is bit-identical to the generic one. Selection happens at run
/// time in [`dispatch_wide!`], never at compile time, keeping the binary
/// portable.
#[cfg(target_arch = "x86_64")]
mod wide {
    macro_rules! wide_pair {
        ($avx512:ident, $avx2:ident, $generic:ident, ($($arg:ident: $ty:ty),+)) => {
            #[target_feature(enable = "avx512f")]
            pub(super) fn $avx512($($arg: $ty),+) {
                super::$generic($($arg),+)
            }
            #[target_feature(enable = "avx2")]
            pub(super) fn $avx2($($arg: $ty),+) {
                super::$generic($($arg),+)
            }
        };
    }

    wide_pair!(
        twiddle_avx512,
        twiddle_avx2,
        twiddle_stage_planar_impl,
        (block_size: usize, planar: &[f32], x: &mut [f32])
    );
    wide_pair!(
        rotation_avx512,
        rotation_avx2,
        rotation_stage_planar_impl,
        (block_size: usize, planar: &[f32], x: &mut [f32])
    );

    use super::{Matrix, StageKernel};

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    pub(super) fn backward_blocks_avx512<S: StageKernel>(
        grad_output: &Matrix,
        map: &[u32],
        stages: &[S],
        arena: &[f32],
        planar: &[f32],
        acc: &mut [f32],
        rows: &mut [f32],
        dx: &mut Matrix,
    ) {
        super::backward_blocks_impl(grad_output, map, stages, arena, planar, acc, rows, dx)
    }

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) fn backward_blocks_avx2<S: StageKernel>(
        grad_output: &Matrix,
        map: &[u32],
        stages: &[S],
        arena: &[f32],
        planar: &[f32],
        acc: &mut [f32],
        rows: &mut [f32],
        dx: &mut Matrix,
    ) {
        super::backward_blocks_impl(grad_output, map, stages, arena, planar, acc, rows, dx)
    }
}

/// [`apply_twiddle_stage`] reading coefficients from the planar repack of
/// [`repack_twiddles_planar`]. Same values, same per-pair arithmetic and
/// order — bit-identical — but every stream is contiguous, so the pair loop
/// vectorizes for any block half of a few lanes or more.
#[inline]
pub fn apply_twiddle_stage_planar(block_size: usize, planar: &[f32], x: &mut [f32]) {
    dispatch_wide!(twiddle_avx512, twiddle_avx2, twiddle_stage_planar_impl, block_size, planar, x)
}

#[inline(always)]
fn twiddle_stage_planar_impl(block_size: usize, planar: &[f32], x: &mut [f32]) {
    let half = block_size / 2;
    let pairs = planar.len() / 4;
    let (a_all, rest) = planar.split_at(pairs);
    let (b_all, rest) = rest.split_at(pairs);
    let (c_all, d_all) = rest.split_at(pairs);
    let mut t = 0usize;
    for block in x.chunks_exact_mut(block_size) {
        let (lo, hi) = block.split_at_mut(half);
        for ((((xp, xq), a), b), (c, d)) in lo
            .iter_mut()
            .zip(hi.iter_mut())
            .zip(&a_all[t..t + half])
            .zip(&b_all[t..t + half])
            .zip(c_all[t..t + half].iter().zip(&d_all[t..t + half]))
        {
            let p = *xp;
            let q = *xq;
            *xp = a * p + b * q;
            *xq = c * p + d * q;
        }
        t += half;
    }
}

/// Out-of-place variant of [`apply_twiddle_stage_planar`], in the sixteen-lane
/// tiles of the training kernels (see `tiles`); bit-identical to it.
#[inline]
pub fn apply_twiddle_stage_into_planar(
    block_size: usize,
    planar: &[f32],
    src: &[f32],
    dst: &mut [f32],
) {
    // Not ISA-dispatched. A `#[target_feature]` wrapper per stage-row puts a
    // call boundary inside the training stage chain (measured ~30% slower);
    // compiling the whole training forward for AVX2 instead measured within
    // noise of the baseline build, since the pass is bound by its arena
    // writes rather than by the stage arithmetic.
    tiles::twiddle_forward(block_size, planar, src, dst)
}

/// [`apply_rotation_stage`] reading the precomputed `[sin..][cos..]` planes
/// of [`repack_angles_planar`]: no per-row transcendentals, contiguous
/// streams, bit-identical results.
#[inline]
pub fn apply_rotation_stage_planar(block_size: usize, planar: &[f32], x: &mut [f32]) {
    dispatch_wide!(
        rotation_avx512,
        rotation_avx2,
        rotation_stage_planar_impl,
        block_size,
        planar,
        x
    )
}

#[inline(always)]
fn rotation_stage_planar_impl(block_size: usize, planar: &[f32], x: &mut [f32]) {
    let half = block_size / 2;
    let pairs = planar.len() / 2;
    let (s_all, c_all) = planar.split_at(pairs);
    let mut t = 0usize;
    for block in x.chunks_exact_mut(block_size) {
        let (lo, hi) = block.split_at_mut(half);
        for (((xp, xq), s), c) in
            lo.iter_mut().zip(hi.iter_mut()).zip(&s_all[t..t + half]).zip(&c_all[t..t + half])
        {
            let p = *xp;
            let q = *xq;
            *xp = c * p - s * q;
            *xq = s * p + c * q;
        }
        t += half;
    }
}

/// Out-of-place variant of [`apply_rotation_stage_planar`].
#[inline]
pub fn apply_rotation_stage_into_planar(
    block_size: usize,
    planar: &[f32],
    src: &[f32],
    dst: &mut [f32],
) {
    // Not ISA-dispatched, for the same reason as
    // `apply_twiddle_stage_into_planar`.
    rotation_stage_into_planar_impl(block_size, planar, src, dst)
}

#[inline(always)]
fn rotation_stage_into_planar_impl(
    block_size: usize,
    planar: &[f32],
    src: &[f32],
    dst: &mut [f32],
) {
    let half = block_size / 2;
    let pairs = planar.len() / 2;
    let (s_all, c_all) = planar.split_at(pairs);
    let mut t = 0usize;
    for (sblock, dblock) in src.chunks_exact(block_size).zip(dst.chunks_exact_mut(block_size)) {
        let (slo, shi) = sblock.split_at(half);
        let (dlo, dhi) = dblock.split_at_mut(half);
        for ((((sp, sq), dp), dq), (s, c)) in slo
            .iter()
            .zip(shi)
            .zip(dlo.iter_mut())
            .zip(dhi.iter_mut())
            .zip(s_all[t..t + half].iter().zip(&c_all[t..t + half]))
        {
            *dp = c * sp - s * sq;
            *dq = s * sp + c * sq;
        }
        t += half;
    }
}

/// Backward through one rotation stage for one row, reading the
/// `[sin..][cos..]` planes of [`repack_angles_planar`] instead of calling
/// `sin_cos` per pair: the same call on the same angle, so bit-identical to
/// [`OrthoFactor::backward_in_place`](crate::ortho::OrthoFactor::backward_in_place).
/// One angle gradient per pair, so the accumulators need no planar layout.
#[inline(always)]
fn rotation_backward_planar(
    block_size: usize,
    planar: &[f32],
    x: &[f32],
    grad: &mut [f32],
    grad_angles: &mut [f32],
) {
    let half = block_size / 2;
    let (s_all, c_all) = planar.split_at(planar.len() / 2);
    let mut t = 0usize;
    for base in (0..x.len()).step_by(block_size) {
        for p in base..base + half {
            let q = p + half;
            let (s, c) = (s_all[t], c_all[t]);
            let (xp, xq) = (x[p], x[q]);
            let (gp, gq) = (grad[p], grad[q]);
            grad_angles[t] += gp * (-s * xp - c * xq) + gq * (c * xp - s * xq);
            grad[p] = c * gp + s * gq;
            grad[q] = -s * gp + c * gq;
            t += 1;
        }
    }
}

/// One butterfly stage, as seen by the fused kernels: its forward on one
/// row, in place or out of place, and its backward, which the fused training
/// path always runs on the planar repack.
///
/// Implemented by the borrowed views [`TwiddleStage`] and [`AngleStage`],
/// which layers build over their parameter slices and owned transforms
/// build with `views()`: the weights are stored once, wherever their owner
/// keeps them.
pub trait StageKernel: Sync {
    /// Applies the stage in place to one transform-width row.
    fn apply_row(&self, row: &mut [f32]);

    /// Applies the stage out of place: reads the input from `src`, writes
    /// the output to `dst` (every position written). Bit-identical to
    /// copying `src` into `dst` and calling [`StageKernel::apply_row`].
    fn apply_row_into(&self, src: &[f32], dst: &mut [f32]);

    /// Scratch floats this stage's planar repack needs.
    fn planar_len(&self) -> usize;

    /// Writes the planar repack consumed by [`StageKernel::apply_row_planar`]
    /// into `dst` (`dst.len() == self.planar_len()`). Batched callers run
    /// this once per call so the per-row loops read contiguous coefficient
    /// planes (and rotation stages pay their `sin_cos` once, not per row).
    fn repack_planar(&self, dst: &mut [f32]);

    /// [`StageKernel::apply_row`] reading parameters from the planar repack;
    /// must be bit-identical to it.
    fn apply_row_planar(&self, planar: &[f32], row: &mut [f32]);

    /// [`StageKernel::apply_row_into`] reading parameters from the planar
    /// repack; must be bit-identical to it.
    fn apply_row_into_planar(&self, planar: &[f32], src: &[f32], dst: &mut [f32]);

    /// Length of the per-stage parameter-gradient accumulator (the same in
    /// the planar and the flat layout).
    fn grad_len(&self) -> usize;

    /// Backward through the stage for one row, reading the parameters from
    /// the planar repack `planar`: `x` is the cached stage input, `grad` is
    /// dL/d output on entry and dL/d input on exit, and `grad_planar`
    /// accumulates the parameter gradients in the stage's planar gradient
    /// layout. Must be bit-identical to the stage's per-row backward.
    fn backward_row_planar(
        &self,
        planar: &[f32],
        x: &[f32],
        grad: &mut [f32],
        grad_planar: &mut [f32],
    );

    /// Writes planar accumulators in the flat layout of the stage's
    /// parameters (`flat.len() == grad_planar.len() == self.grad_len()`).
    fn unpack_grad(&self, grad_planar: &[f32], flat: &mut [f32]);
}

/// A butterfly stage borrowing its flat twiddles from wherever they are
/// stored: a layer's parameter or a [`Butterfly`](crate::butterfly::Butterfly)
/// factor.
pub struct TwiddleStage<'a> {
    /// Block width of the stage.
    pub block_size: usize,
    /// Borrowed flat twiddles (layout of
    /// [`ButterflyFactor::twiddles`](crate::butterfly::ButterflyFactor::twiddles)).
    pub twiddles: &'a [f32],
}

impl StageKernel for TwiddleStage<'_> {
    #[inline]
    fn apply_row(&self, row: &mut [f32]) {
        apply_twiddle_stage(self.block_size, self.twiddles, row);
    }
    #[inline]
    fn apply_row_into(&self, src: &[f32], dst: &mut [f32]) {
        apply_twiddle_stage_into(self.block_size, self.twiddles, src, dst);
    }
    #[inline]
    fn planar_len(&self) -> usize {
        self.twiddles.len()
    }
    #[inline]
    fn repack_planar(&self, dst: &mut [f32]) {
        repack_twiddles_planar(self.twiddles, dst);
    }
    #[inline]
    fn apply_row_planar(&self, planar: &[f32], row: &mut [f32]) {
        apply_twiddle_stage_planar(self.block_size, planar, row);
    }
    #[inline]
    fn apply_row_into_planar(&self, planar: &[f32], src: &[f32], dst: &mut [f32]) {
        apply_twiddle_stage_into_planar(self.block_size, planar, src, dst);
    }
    #[inline]
    fn grad_len(&self) -> usize {
        self.twiddles.len()
    }
    #[inline(always)]
    fn backward_row_planar(
        &self,
        planar: &[f32],
        x: &[f32],
        grad: &mut [f32],
        grad_planar: &mut [f32],
    ) {
        tiles::twiddle_backward(self.block_size, planar, x, grad, grad_planar);
    }
    #[inline]
    fn unpack_grad(&self, grad_planar: &[f32], flat: &mut [f32]) {
        unpack_twiddles_planar(grad_planar, flat);
    }
}

/// A rotation stage borrowing its angles from wherever they are stored: a
/// layer's parameter or an [`OrthoButterfly`](crate::ortho::OrthoButterfly)
/// factor.
pub struct AngleStage<'a> {
    /// Block width of the stage.
    pub block_size: usize,
    /// Borrowed rotation angles (one per mixed pair).
    pub angles: &'a [f32],
}

impl StageKernel for AngleStage<'_> {
    #[inline]
    fn apply_row(&self, row: &mut [f32]) {
        apply_rotation_stage(self.block_size, self.angles, row);
    }
    #[inline]
    fn apply_row_into(&self, src: &[f32], dst: &mut [f32]) {
        apply_rotation_stage_into(self.block_size, self.angles, src, dst);
    }
    #[inline]
    fn planar_len(&self) -> usize {
        2 * self.angles.len()
    }
    #[inline]
    fn repack_planar(&self, dst: &mut [f32]) {
        repack_angles_planar(self.angles, dst);
    }
    #[inline]
    fn apply_row_planar(&self, planar: &[f32], row: &mut [f32]) {
        apply_rotation_stage_planar(self.block_size, planar, row);
    }
    #[inline]
    fn apply_row_into_planar(&self, planar: &[f32], src: &[f32], dst: &mut [f32]) {
        apply_rotation_stage_into_planar(self.block_size, planar, src, dst);
    }
    #[inline]
    fn grad_len(&self) -> usize {
        self.angles.len()
    }
    #[inline(always)]
    fn backward_row_planar(
        &self,
        planar: &[f32],
        x: &[f32],
        grad: &mut [f32],
        grad_planar: &mut [f32],
    ) {
        rotation_backward_planar(self.block_size, planar, x, grad, grad_planar);
    }
    #[inline]
    fn unpack_grad(&self, grad_planar: &[f32], flat: &mut [f32]) {
        flat.copy_from_slice(grad_planar);
    }
}

/// Gathers `src` through the permutation into `dst`, zero-filling positions
/// that map past the input width. Bit-identical to zero-padding to width
/// `dst.len()` and then permuting, without materialising the padded row.
#[inline]
fn load_permuted(dst: &mut [f32], src: &[f32], map: &[u32]) {
    let in_dim = src.len();
    for (d, &j) in dst.iter_mut().zip(map) {
        let j = j as usize;
        *d = if j < in_dim { src[j] } else { 0.0 };
    }
}

/// Repacks every stage's planar coefficients into one scratch buffer
/// (stage slices packed back to back in stage order; walk with
/// [`StageKernel::planar_len`]). Return the buffer with `scratch.put`.
fn repack_stages<S: StageKernel>(stages: &[S], scratch: &mut Scratch) -> Vec<f32> {
    let total: usize = stages.iter().map(|s| s.planar_len()).sum();
    let mut planar = scratch.take(total);
    let mut off = 0;
    for stage in stages {
        let l = stage.planar_len();
        stage.repack_planar(&mut planar[off..off + l]);
        off += l;
    }
    planar
}

/// Fused inference forward: pad → permute → stages → crop + bias in one
/// parallel pass over row blocks.
///
/// `input` is `batch x in_dim` with `in_dim <= perm.len()`; `bias` has the
/// output width. The only allocation is the returned matrix — the working
/// rows come from (and return to) `scratch`.
pub fn fused_forward<S: StageKernel>(
    input: &Matrix,
    perm: &Permutation,
    stages: &[S],
    bias: &[f32],
    scratch: &mut Scratch,
) -> Matrix {
    let n = perm.len();
    let in_dim = input.cols();
    let out_dim = bias.len();
    let batch = input.rows();
    assert!(in_dim <= n && out_dim <= n, "transform width must cover both layer widths");
    let map = perm.map();
    let mut out = Matrix::zeros(batch, out_dim);
    if batch == 0 {
        return out;
    }
    let nblocks = batch.div_ceil(ROW_BLOCK);
    let mut work = scratch.take(nblocks * n);
    let use_planar = batch >= PLANAR_MIN_BATCH;
    let planar = if use_planar { repack_stages(stages, scratch) } else { scratch.take(0) };
    let planar_ref: &[f32] = &planar;
    out.as_mut_slice()
        .par_chunks_mut(ROW_BLOCK * out_dim)
        .zip(input.as_slice().par_chunks(ROW_BLOCK * in_dim))
        .zip(work.par_chunks_mut(n))
        .for_each(|((oblock, iblock), row)| {
            for (orow, irow) in oblock.chunks_mut(out_dim).zip(iblock.chunks(in_dim)) {
                load_permuted(row, irow, map);
                if use_planar {
                    let mut off = 0;
                    for stage in stages {
                        let l = stage.planar_len();
                        stage.apply_row_planar(&planar_ref[off..off + l], row);
                        off += l;
                    }
                } else {
                    for stage in stages {
                        stage.apply_row(row);
                    }
                }
                for ((o, v), b) in orow.iter_mut().zip(row.iter()).zip(bias) {
                    *o = v + b;
                }
            }
        });
    scratch.put(planar);
    scratch.put(work);
    out
}

/// Fused training forward: same single pass as [`fused_forward`], but each
/// stage's *input* row is recorded into `arena` for the backward pass.
///
/// `arena` is caller-owned and laid out `[row block][stage][row][n]`: each
/// `ROW_BLOCK`-row block owns a contiguous chunk holding one slab per stage,
/// so the backward pass can sweep a stage's cached inputs contiguously. It
/// is resized in place, so across steps of equal batch size it is written
/// without reallocating — this replaces the per-stage full-matrix `clone()`
/// of the unfused path.
pub fn fused_forward_train<S: StageKernel>(
    input: &Matrix,
    perm: &Permutation,
    stages: &[S],
    bias: &[f32],
    arena: &mut Vec<f32>,
    scratch: &mut Scratch,
) -> Matrix {
    let n = perm.len();
    let in_dim = input.cols();
    let out_dim = bias.len();
    let batch = input.rows();
    let nstages = stages.len();
    assert!(in_dim <= n && out_dim <= n, "transform width must cover both layer widths");
    assert!(nstages >= 1, "butterfly transforms have at least one stage");
    let map = perm.map();
    let mut out = Matrix::zeros(batch, out_dim);
    arena.resize(batch * nstages * n, 0.0);
    if batch == 0 {
        return out;
    }
    let nblocks = batch.div_ceil(ROW_BLOCK);
    let mut work = scratch.take(nblocks * n);
    let use_planar = batch >= PLANAR_MIN_BATCH;
    let planar = if use_planar { repack_stages(stages, scratch) } else { scratch.take(0) };
    let planar_ref: &[f32] = &planar;
    out.as_mut_slice()
        .par_chunks_mut(ROW_BLOCK * out_dim)
        .zip(input.as_slice().par_chunks(ROW_BLOCK * in_dim))
        .zip(arena.as_mut_slice().par_chunks_mut(ROW_BLOCK * nstages * n))
        .zip(work.par_chunks_mut(n))
        .for_each(|(((oblock, iblock), ablock), row)| {
            let brows = ablock.len() / (nstages * n);
            for (r, (orow, irow)) in
                oblock.chunks_mut(out_dim).zip(iblock.chunks(in_dim)).enumerate()
            {
                let base = r * n;
                load_permuted(&mut ablock[base..base + n], irow, map);
                // Stage slab s of this block holds the inputs to stage s:
                // each stage reads its row from slab s and writes straight
                // into slab s+1 (no separate copy pass). The final stage
                // writes to the scratch row so its cached input survives
                // for backward.
                let last = nstages - 1;
                let mut off = 0;
                for (s, stage) in stages.iter().enumerate() {
                    let slab = s * brows * n + base;
                    if s < last {
                        let (head, tail) = ablock.split_at_mut((s + 1) * brows * n);
                        let (src, dst) = (&head[slab..slab + n], &mut tail[base..base + n]);
                        if use_planar {
                            let l = stage.planar_len();
                            stage.apply_row_into_planar(&planar_ref[off..off + l], src, dst);
                            off += l;
                        } else {
                            stage.apply_row_into(src, dst);
                        }
                    } else if use_planar {
                        let l = stage.planar_len();
                        stage.apply_row_into_planar(
                            &planar_ref[off..off + l],
                            &ablock[slab..slab + n],
                            row,
                        );
                    } else {
                        stage.apply_row_into(&ablock[slab..slab + n], row);
                    }
                }
                for ((o, v), b) in orow.iter_mut().zip(row.iter()).zip(bias) {
                    *o = v + b;
                }
            }
        });
    scratch.put(planar);
    scratch.put(work);
    out
}

/// Fused backward through the stages and permutation, consuming the arena
/// written by [`fused_forward_train`].
///
/// `grad_output` is dL/d(cropped output); the bias gradient is the caller's
/// (a column sum, independent of the stages). Per-stage flat parameter
/// gradients are handed to `accumulate(stage_index, flat_grads)` in reverse
/// stage order; the return value is dL/d input (`batch x in_dim`).
///
/// The sweep is stage-major *within each row block*: a stage's cached
/// inputs sit in one contiguous arena slab, the block's grad rows stay
/// cache-resident across the `log n` stages, and the stage's accumulators
/// stay L1-hot through the inner row loop. Each block's rows start as
/// zero-padded copies of `grad_output` and, after stage 0, scatter through
/// the permutation straight into the returned matrix. Stages run on their
/// planar repack with planar accumulators (sixteen-lane tiles for twiddle
/// stages, see `tiles`), and the whole sweep runs in one ISA-dispatched
/// call. Rows are independent, every accumulator lane starts at `+0.0` and
/// receives its row contributions in ascending row order (blocks are walked
/// in order), so the result is bit-identical to per-row
/// [`Butterfly::backward_cached`](crate::butterfly::Butterfly::backward_cached)
/// from zeroed gradients.
///
/// The work memory comes from (and returns to) `scratch`; the only
/// allocation in steady state is the returned matrix.
pub fn fused_backward<S: StageKernel>(
    grad_output: &Matrix,
    perm: &Permutation,
    stages: &[S],
    arena: &[f32],
    in_dim: usize,
    scratch: &mut Scratch,
    mut accumulate: impl FnMut(usize, &[f32]),
) -> Matrix {
    let n = perm.len();
    let batch = grad_output.rows();
    assert!(in_dim <= n && grad_output.cols() <= n, "transform width must cover both layer widths");
    assert!(!stages.is_empty(), "butterfly transforms have at least one stage");
    assert_eq!(arena.len(), batch * stages.len() * n, "arena does not match this batch");
    let mut dx = Matrix::zeros(batch, in_dim);
    let planar = repack_stages(stages, scratch);
    let total: usize = stages.iter().map(|s| s.grad_len()).sum();
    let mut acc = scratch.take(total);
    acc.fill(0.0);
    let mut rows = scratch.take(batch.min(ROW_BLOCK) * n);
    backward_blocks(grad_output, perm.map(), stages, arena, &planar, &mut acc, &mut rows, &mut dx);
    let mut flat = scratch.take(stages.iter().map(|s| s.grad_len()).max().unwrap_or(0));
    let mut off = total;
    for (s, stage) in stages.iter().enumerate().rev() {
        let gl = stage.grad_len();
        off -= gl;
        stage.unpack_grad(&acc[off..off + gl], &mut flat[..gl]);
        accumulate(s, &flat[..gl]);
    }
    scratch.put(flat);
    scratch.put(rows);
    scratch.put(acc);
    scratch.put(planar);
    dx
}

/// Routes the backward's row-block sweep to the widest vector ISA the host
/// supports, once per call: a dispatch per stage-row would put a call
/// boundary inside the stage chain (see [`apply_twiddle_stage_into_planar`]).
/// Every variant compiles the same body, so all are bit-identical.
#[allow(clippy::too_many_arguments)]
fn backward_blocks<S: StageKernel>(
    grad_output: &Matrix,
    map: &[u32],
    stages: &[S],
    arena: &[f32],
    planar: &[f32],
    acc: &mut [f32],
    rows: &mut [f32],
    dx: &mut Matrix,
) {
    dispatch_wide!(
        backward_blocks_avx512,
        backward_blocks_avx2,
        backward_blocks_impl,
        grad_output,
        map,
        stages,
        arena,
        planar,
        acc,
        rows,
        dx
    )
}

/// The row-block sweep of [`fused_backward`]. `planar` and `acc` hold every
/// stage's planar parameters and accumulators back to back in stage order;
/// `rows` holds one row block of gradient rows.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn backward_blocks_impl<S: StageKernel>(
    grad_output: &Matrix,
    map: &[u32],
    stages: &[S],
    arena: &[f32],
    planar: &[f32],
    acc: &mut [f32],
    rows: &mut [f32],
    dx: &mut Matrix,
) {
    let n = map.len();
    let nstages = stages.len();
    let out_dim = grad_output.cols();
    let in_dim = dx.cols();
    for (block, ablock) in arena.chunks(ROW_BLOCK * nstages * n).enumerate() {
        let brows = ablock.len() / (nstages * n);
        let first = block * ROW_BLOCK;
        let g = &mut rows[..brows * n];
        for (r, grow) in g.chunks_exact_mut(n).enumerate() {
            let (head, pad) = grow.split_at_mut(out_dim);
            head.copy_from_slice(grad_output.row(first + r));
            pad.fill(0.0);
        }
        let (mut poff, mut aoff) = (planar.len(), acc.len());
        for (s, stage) in stages.iter().enumerate().rev() {
            poff -= stage.planar_len();
            aoff -= stage.grad_len();
            let p = &planar[poff..poff + stage.planar_len()];
            let a = &mut acc[aoff..aoff + stage.grad_len()];
            let slab = &ablock[s * brows * n..(s + 1) * brows * n];
            for (grow, xrow) in g.chunks_exact_mut(n).zip(slab.chunks_exact(n)) {
                stage.backward_row_planar(p, xrow, grow, a);
            }
        }
        // Backward through the permutation y = x[map]: dx[map[i]] = g[i],
        // cropped to the input width.
        for (r, grow) in g.chunks_exact(n).enumerate() {
            let dxrow = dx.row_mut(first + r);
            for (&v, &j) in grow.iter().zip(map) {
                if (j as usize) < in_dim {
                    dxrow[j as usize] = v;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::butterfly::Butterfly;
    use bfly_tensor::seeded_rng;

    /// The fused pass must reproduce the step-by-step reference exactly:
    /// pad, permute, per-stage apply, crop + bias.
    fn reference_forward(b: &Butterfly, input: &Matrix, bias: &[f32]) -> Matrix {
        let n = b.n();
        let batch = input.rows();
        let padded = input.zero_pad(batch, n);
        let mut y = b.perm.apply_to_rows(&padded);
        for f in &b.factors {
            y.as_mut_slice().chunks_mut(n).for_each(|row| f.apply_in_place(row));
        }
        let mut out = Matrix::zeros(batch, bias.len());
        for r in 0..batch {
            for (o, (v, bb)) in out.row_mut(r).iter_mut().zip(y.row(r).iter().zip(bias)) {
                *o = v + bb;
            }
        }
        out
    }

    #[test]
    fn fused_forward_is_bit_identical_to_reference() {
        let mut rng = seeded_rng(71);
        let b = Butterfly::random(16, &mut rng);
        let bias: Vec<f32> = (0..7).map(|i| i as f32 * 0.1).collect();
        // Ragged: 11 input columns, 7 outputs, batch crossing a block edge.
        let x = Matrix::random_uniform(37, 11, 1.0, &mut rng);
        let mut scratch = Scratch::new();
        let fused = fused_forward(&x, &b.perm, &b.views(), &bias, &mut scratch);
        let reference = reference_forward(&b, &x, &bias);
        assert_eq!(fused.as_slice(), reference.as_slice());
    }

    #[test]
    fn train_variant_matches_inference_and_fills_arena() {
        let mut rng = seeded_rng(72);
        let b = Butterfly::random(8, &mut rng);
        let bias = vec![0.0f32; 8];
        let x = Matrix::random_uniform(5, 8, 1.0, &mut rng);
        let mut scratch = Scratch::new();
        let mut arena = Vec::new();
        let via_train =
            fused_forward_train(&x, &b.perm, &b.views(), &bias, &mut arena, &mut scratch);
        let via_infer = fused_forward(&x, &b.perm, &b.views(), &bias, &mut scratch);
        assert_eq!(via_train.as_slice(), via_infer.as_slice());
        assert_eq!(arena.len(), 5 * b.stages() * 8);
        // Arena slot 0 of row 0 must be the permuted input row.
        let expect: Vec<f32> = b.perm.map().iter().map(|&j| x.row(0)[j as usize]).collect();
        assert_eq!(&arena[..8], expect.as_slice());
    }

    /// Bit for bit against per-row `forward_cached` / `backward_cached`,
    /// on the per-pair path (n = 8) and the lane tiles (n = 64).
    #[test]
    fn fused_backward_matches_cached_reference() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = seeded_rng(73);
        for n in [8, 64] {
            let b = Butterfly::random(n, &mut rng);
            let bias = vec![0.0f32; n];
            let x = Matrix::random_uniform(3, n, 1.0, &mut rng);
            let mut scratch = Scratch::new();
            let mut arena = Vec::new();
            let y = fused_forward_train(&x, &b.perm, &b.views(), &bias, &mut arena, &mut scratch);

            let mut fused_gt: Vec<Vec<f32>> =
                b.factors.iter().map(|f| vec![0.0f32; f.twiddles.len()]).collect();
            let gx = fused_backward(&y, &b.perm, &b.views(), &arena, n, &mut scratch, |s, flat| {
                for (acc, v) in fused_gt[s].iter_mut().zip(flat) {
                    *acc += v;
                }
            });

            // Reference: per-row forward_cached / backward_cached.
            let mut ref_gt: Vec<Vec<f32>> =
                b.factors.iter().map(|f| vec![0.0f32; f.twiddles.len()]).collect();
            for r in 0..3 {
                let (_, cache) = b.forward_cached(x.row(r));
                let gx_row = b.backward_cached(&cache, y.row(r), &mut ref_gt);
                assert_eq!(bits(gx.row(r)), bits(&gx_row), "dX row {r} at n {n}");
            }
            for (s, (f_gt, r_gt)) in fused_gt.iter().zip(&ref_gt).enumerate() {
                assert_eq!(bits(f_gt), bits(r_gt), "stage {s} twiddle gradient at n {n}");
            }
        }
    }

    /// The ISA bodies of the backward sweep against each other.
    #[cfg(target_arch = "x86_64")]
    mod isa {
        use super::*;
        use crate::ortho::OrthoButterfly;
        use rand::Rng;

        /// Bits of `v`, every NaN mapped to one pattern: IEEE 754 leaves the
        /// payload of an operation on two NaNs to the implementation, and the
        /// compiler may commute the operands of `+` and `*`.
        fn canonical_bits(v: &[f32]) -> Vec<u32> {
            v.iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
        }

        /// Gradient entries in `[-1, 1]` with `±0.0` and subnormals mixed in,
        /// plus sparse `±inf` and NaN when `nonfinite`.
        fn special_grads(len: usize, nonfinite: bool, rng: &mut impl Rng) -> Vec<f32> {
            (0..len)
                .map(|_| match rng.gen_range(0u32..256) {
                    0..=15 => 0.0,
                    16..=23 => -0.0,
                    24..=31 => f32::MIN_POSITIVE / 8.0,
                    32..=35 => -1.0e-41,
                    36 if nonfinite => f32::INFINITY,
                    37 if nonfinite => f32::NEG_INFINITY,
                    38 if nonfinite => f32::NAN,
                    _ => rng.gen_range(-1.0f32..1.0),
                })
                .collect()
        }

        /// Runs the backward sweep compiled for `isa` (`"generic"`, `"avx2"` or
        /// `"avx512f"`); returns `(dX, accumulators)`, or `None` when the host
        /// lacks the ISA.
        fn sweep<S: StageKernel>(
            isa: &str,
            g: &Matrix,
            perm: &Permutation,
            stages: &[S],
            arena: &[f32],
            in_dim: usize,
        ) -> Option<(Vec<u32>, Vec<u32>)> {
            let mut scratch = Scratch::new();
            let planar = repack_stages(stages, &mut scratch);
            let mut acc = vec![0.0; stages.iter().map(|s| s.grad_len()).sum()];
            let mut rows = vec![0.0; g.rows().min(ROW_BLOCK) * perm.len()];
            let mut dx = Matrix::zeros(g.rows(), in_dim);
            let map = perm.map();
            match isa {
                "generic" => backward_blocks_impl(
                    g, map, stages, arena, &planar, &mut acc, &mut rows, &mut dx,
                ),
                "avx2" if std::arch::is_x86_feature_detected!("avx2") => {
                    // SAFETY: the runtime check above guarantees avx2.
                    unsafe {
                        wide::backward_blocks_avx2(
                            g, map, stages, arena, &planar, &mut acc, &mut rows, &mut dx,
                        )
                    }
                }
                "avx512f" if std::arch::is_x86_feature_detected!("avx512f") => {
                    // SAFETY: the runtime check above guarantees avx512f.
                    unsafe {
                        wide::backward_blocks_avx512(
                            g, map, stages, arena, &planar, &mut acc, &mut rows, &mut dx,
                        )
                    }
                }
                _ => return None,
            }
            Some((canonical_bits(dx.as_slice()), canonical_bits(&acc)))
        }

        /// Every ISA body of the backward sweep the host supports, on the same
        /// inputs, produces the same bits in dX and every accumulator. The
        /// shapes cover the per-pair path (n = 16), every tile regime (n = 64
        /// and 1024), ragged widths and a partial row block; the gradients hold
        /// `±0.0` and subnormals, and in a second pass sparse `±inf` and NaN.
        #[test]
        fn every_isa_body_is_bit_identical() {
            fn check<S: StageKernel>(
                what: &str,
                g: &Matrix,
                perm: &Permutation,
                stages: &[S],
                arena: &[f32],
                in_dim: usize,
            ) {
                let want = sweep("generic", g, perm, stages, arena, in_dim);
                for isa in ["avx2", "avx512f"] {
                    if let Some(got) = sweep(isa, g, perm, stages, arena, in_dim) {
                        assert!(Some(got) == want, "{isa} body differs: {what}");
                    }
                }
            }
            let mut rng = seeded_rng(74);
            let mut scratch = Scratch::new();
            let mut arena = Vec::new();
            for (n, in_dim, out_dim, batch) in
                [(16, 16, 11, 5), (64, 50, 64, 33), (1024, 1000, 1024, 3)]
            {
                let b = Butterfly::random(n, &mut rng);
                let o = OrthoButterfly::random(n, &mut rng);
                let x = Matrix::random_uniform(batch, in_dim, 1.0, &mut rng);
                let bias = vec![0.0f32; out_dim];
                for nonfinite in [false, true] {
                    let g = Matrix::from_vec(
                        batch,
                        out_dim,
                        special_grads(batch * out_dim, nonfinite, &mut rng),
                    );
                    let what = format!("n {n} batch {batch} nonfinite {nonfinite}");
                    fused_forward_train(&x, &b.perm, &b.views(), &bias, &mut arena, &mut scratch);
                    check(&format!("butterfly {what}"), &g, &b.perm, &b.views(), &arena, in_dim);
                    fused_forward_train(&x, &o.perm, &o.views(), &bias, &mut arena, &mut scratch);
                    check(&format!("ortho {what}"), &g, &o.perm, &o.views(), &arena, in_dim);
                }
            }
        }
    }
}
