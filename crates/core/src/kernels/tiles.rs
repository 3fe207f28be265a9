//! Sixteen-lane tiles for the butterfly training stages.
//!
//! A stage with block size `2H` mixes position `p` with `q = p + H` through
//! pair `t`'s twiddle `[[a, b], [c, d]]`, and no two pairs share a position.
//! The forward is `p' = a·p + b·q`, `q' = c·p + d·q`; the backward turns the
//! output gradients into input gradients through the transpose and adds the
//! 2x2 outer product of output gradients and cached inputs to the pair's
//! twiddle gradient. Every pair is therefore an independent lane. A tile is
//! sixteen consecutive pairs: with the twiddles (and, backward, the gradient
//! accumulators) in four planes `a|b|c|d`, each operand of a tile is one
//! contiguous sixteen-float run, and the positions it touches are
//!
//! - for `H >= 16`, sixteen consecutive positions in the lower half of one
//!   block and the sixteen matching ones in its upper half;
//! - for `H` in `{1, 2, 4, 8}`, 32 consecutive positions (`16 / H` whole
//!   blocks), lane `l` at `p = (l / H)·2H + l % H` and `q = p + H`. `H` is a
//!   const generic, so the gathers and scatters compile to shuffles.
//!
//! Rows narrower than one tile (`n < 32`) run a per-pair loop.
//!
//! **Bit identity.** Each lane performs exactly the scalar operations of
//! [`ButterflyFactor::apply_in_place`] / [`ButterflyFactor::backward_in_place`]
//! for its pair, in the same order: each product is rounded, then each sum
//! (Rust never contracts `a * b + c` into an FMA, and no FMA intrinsic is
//! used), and an accumulator lane only ever receives its own pair's
//! products, one row per call. No two lanes are combined. The tiles are
//! plain `[f32; 16]` code, so the compiler maps them onto whatever vector
//! width the enclosing function enables — four SSE2 lanes in the baseline
//! build, eight or sixteen under the `#[target_feature]` instantiations of
//! the callers — without changing an operation.
//!
//! [`ButterflyFactor::apply_in_place`]: crate::butterfly::ButterflyFactor::apply_in_place
//! [`ButterflyFactor::backward_in_place`]: crate::butterfly::ButterflyFactor::backward_in_place

/// Pairs per tile.
const LANES: usize = 16;

/// Positions one tile covers: `LANES` pairs of two.
const TILE: usize = 2 * LANES;

type Lanes = [f32; LANES];

/// Takes the next tile off the front of `s`.
#[inline(always)]
fn next_tile<'a>(s: &mut &'a [f32]) -> &'a Lanes {
    let (tile, rest) = s.split_first_chunk().expect("planes and rows hold whole tiles");
    *s = rest;
    tile
}

/// Mutable [`next_tile`].
#[inline(always)]
fn next_tile_mut<'a>(s: &mut &'a mut [f32]) -> &'a mut Lanes {
    let (tile, rest) =
        std::mem::take(s).split_first_chunk_mut().expect("planes and rows hold whole tiles");
    *s = rest;
    tile
}

/// A cursor over the tiles of four equal planes `a|b|c|d`, in pair order.
struct Planes<'a>([&'a [f32]; 4]);

impl<'a> Planes<'a> {
    #[inline(always)]
    fn new(planes: &'a [f32]) -> Self {
        let m = planes.len() / 4;
        let (a, rest) = planes.split_at(m);
        let (b, rest) = rest.split_at(m);
        let (c, d) = rest.split_at(m);
        Self([a, b, c, d])
    }

    #[inline(always)]
    fn next(&mut self) -> [&'a Lanes; 4] {
        let [a, b, c, d] = &mut self.0;
        [next_tile(a), next_tile(b), next_tile(c), next_tile(d)]
    }
}

/// Mutable [`Planes`].
struct PlanesMut<'a>([&'a mut [f32]; 4]);

impl<'a> PlanesMut<'a> {
    #[inline(always)]
    fn new(planes: &'a mut [f32]) -> Self {
        let m = planes.len() / 4;
        let (a, rest) = planes.split_at_mut(m);
        let (b, rest) = rest.split_at_mut(m);
        let (c, d) = rest.split_at_mut(m);
        Self([a, b, c, d])
    }

    #[inline(always)]
    fn next(&mut self) -> [&'a mut Lanes; 4] {
        let [a, b, c, d] = &mut self.0;
        [next_tile_mut(a), next_tile_mut(b), next_tile_mut(c), next_tile_mut(d)]
    }
}

/// Lane `l`'s lower position within a narrow tile at block half `H`.
#[inline(always)]
const fn lo_pos<const H: usize>(l: usize) -> usize {
    l / H * 2 * H + l % H
}

/// Gathers the lower and upper elements of a narrow tile into lanes.
#[inline(always)]
fn gather<const H: usize>(s: &[f32]) -> (Lanes, Lanes) {
    let s: &[f32; TILE] = s.try_into().expect("a narrow tile spans TILE positions");
    let (mut lo, mut hi) = ([0.0; LANES], [0.0; LANES]);
    for l in 0..LANES {
        lo[l] = s[lo_pos::<H>(l)];
        hi[l] = s[lo_pos::<H>(l) + H];
    }
    (lo, hi)
}

/// Inverse of [`gather`].
#[inline(always)]
fn scatter<const H: usize>(lo: &Lanes, hi: &Lanes, d: &mut [f32]) {
    let d: &mut [f32; TILE] = d.try_into().expect("a narrow tile spans TILE positions");
    for l in 0..LANES {
        d[lo_pos::<H>(l)] = lo[l];
        d[lo_pos::<H>(l) + H] = hi[l];
    }
}

/// Forward through one tile: `(p', q')` from the inputs `(p, q)`. Every
/// operand is copied in before the arithmetic and the results written out
/// after it, so no store can alias a later load and the lanes need no
/// runtime alias checks.
#[inline(always)]
fn forward_tile(coef: [&Lanes; 4], sp: &Lanes, sq: &Lanes) -> (Lanes, Lanes) {
    let (a, b, c, d) = (*coef[0], *coef[1], *coef[2], *coef[3]);
    let (sp, sq) = (*sp, *sq);
    let (mut dp, mut dq) = ([0.0; LANES], [0.0; LANES]);
    for l in 0..LANES {
        dp[l] = a[l] * sp[l] + b[l] * sq[l];
        dq[l] = c[l] * sp[l] + d[l] * sq[l];
    }
    (dp, dq)
}

/// Backward through one tile: `gp`/`gq` hold the output gradients on entry
/// and the input gradients on exit; `sums` gain the twiddle gradients.
/// Loads, arithmetic and stores are separated as in [`forward_tile`].
#[inline(always)]
fn backward_tile(
    coef: [&Lanes; 4],
    sums: [&mut Lanes; 4],
    xp: &Lanes,
    xq: &Lanes,
    gp: &mut Lanes,
    gq: &mut Lanes,
) {
    let (a, b, c, d) = (*coef[0], *coef[1], *coef[2], *coef[3]);
    let (xp, xq, gyp, gyq) = (*xp, *xq, *gp, *gq);
    let [ga, gb, gc, gd] = sums;
    let (mut sa, mut sb, mut sc, mut sd) = (*ga, *gb, *gc, *gd);
    let (mut np, mut nq) = ([0.0; LANES], [0.0; LANES]);
    for l in 0..LANES {
        sa[l] += gyp[l] * xp[l];
        sb[l] += gyp[l] * xq[l];
        sc[l] += gyq[l] * xp[l];
        sd[l] += gyq[l] * xq[l];
        np[l] = a[l] * gyp[l] + c[l] * gyq[l];
        nq[l] = b[l] * gyp[l] + d[l] * gyq[l];
    }
    (*ga, *gb, *gc, *gd) = (sa, sb, sc, sd);
    (*gp, *gq) = (np, nq);
}

/// One twiddle stage out of place, reading the planar repack `a|b|c|d`:
/// every position of `dst` is written. Bit-identical to copying `src` into
/// `dst` and applying [`crate::kernels::apply_twiddle_stage`].
#[inline(always)]
pub(super) fn twiddle_forward(block_size: usize, planar: &[f32], src: &[f32], dst: &mut [f32]) {
    let half = block_size / 2;
    if src.len() < TILE {
        return forward_pairs(half, planar, src, dst);
    }
    match half {
        1 => forward_narrow::<1>(planar, src, dst),
        2 => forward_narrow::<2>(planar, src, dst),
        4 => forward_narrow::<4>(planar, src, dst),
        8 => forward_narrow::<8>(planar, src, dst),
        _ => forward_wide(half, planar, src, dst),
    }
}

#[inline(always)]
fn forward_wide(half: usize, planar: &[f32], src: &[f32], dst: &mut [f32]) {
    let mut coefs = Planes::new(planar);
    for (sb, db) in src.chunks_exact(2 * half).zip(dst.chunks_exact_mut(2 * half)) {
        let (mut slo, mut shi) = sb.split_at(half);
        let (mut dlo, mut dhi) = db.split_at_mut(half);
        for _ in 0..half / LANES {
            let (dp, dq) = forward_tile(coefs.next(), next_tile(&mut slo), next_tile(&mut shi));
            (*next_tile_mut(&mut dlo), *next_tile_mut(&mut dhi)) = (dp, dq);
        }
    }
}

#[inline(always)]
fn forward_narrow<const H: usize>(planar: &[f32], src: &[f32], dst: &mut [f32]) {
    let mut coefs = Planes::new(planar);
    for (s, d) in src.chunks_exact(TILE).zip(dst.chunks_exact_mut(TILE)) {
        let (sp, sq) = gather::<H>(s);
        let (dp, dq) = forward_tile(coefs.next(), &sp, &sq);
        scatter::<H>(&dp, &dq, d);
    }
}

#[inline(always)]
fn forward_pairs(half: usize, planar: &[f32], src: &[f32], dst: &mut [f32]) {
    let m = planar.len() / 4;
    let mut t = 0;
    for base in (0..src.len()).step_by(2 * half) {
        for p in base..base + half {
            let q = p + half;
            let (a, b, c, d) = (planar[t], planar[m + t], planar[2 * m + t], planar[3 * m + t]);
            let (sp, sq) = (src[p], src[q]);
            dst[p] = a * sp + b * sq;
            dst[q] = c * sp + d * sq;
            t += 1;
        }
    }
}

/// Backward through one twiddle stage for one row, reading the planar
/// repack `a|b|c|d`: `x` is the cached stage input, `grad` is dL/d output on
/// entry and dL/d input on exit, and the planar accumulators `acc`
/// (`ga|gb|gc|gd`) gain the row's twiddle gradients. Bit-identical to
/// [`crate::butterfly::ButterflyFactor::backward_in_place`] with its
/// interleaved accumulators.
#[inline(always)]
pub(super) fn twiddle_backward(
    block_size: usize,
    planar: &[f32],
    x: &[f32],
    grad: &mut [f32],
    acc: &mut [f32],
) {
    let half = block_size / 2;
    if x.len() < TILE {
        return backward_pairs(half, planar, x, grad, acc);
    }
    match half {
        1 => backward_narrow::<1>(planar, x, grad, acc),
        2 => backward_narrow::<2>(planar, x, grad, acc),
        4 => backward_narrow::<4>(planar, x, grad, acc),
        8 => backward_narrow::<8>(planar, x, grad, acc),
        _ => backward_wide(half, planar, x, grad, acc),
    }
}

#[inline(always)]
fn backward_wide(half: usize, planar: &[f32], x: &[f32], grad: &mut [f32], acc: &mut [f32]) {
    let (mut coefs, mut sums) = (Planes::new(planar), PlanesMut::new(acc));
    for (xb, gb) in x.chunks_exact(2 * half).zip(grad.chunks_exact_mut(2 * half)) {
        let (mut xlo, mut xhi) = xb.split_at(half);
        let (mut glo, mut ghi) = gb.split_at_mut(half);
        for _ in 0..half / LANES {
            backward_tile(
                coefs.next(),
                sums.next(),
                next_tile(&mut xlo),
                next_tile(&mut xhi),
                next_tile_mut(&mut glo),
                next_tile_mut(&mut ghi),
            );
        }
    }
}

#[inline(always)]
fn backward_narrow<const H: usize>(planar: &[f32], x: &[f32], grad: &mut [f32], acc: &mut [f32]) {
    let (mut coefs, mut sums) = (Planes::new(planar), PlanesMut::new(acc));
    for (xs, gs) in x.chunks_exact(TILE).zip(grad.chunks_exact_mut(TILE)) {
        let (xp, xq) = gather::<H>(xs);
        let (mut gp, mut gq) = gather::<H>(gs);
        backward_tile(coefs.next(), sums.next(), &xp, &xq, &mut gp, &mut gq);
        scatter::<H>(&gp, &gq, gs);
    }
}

#[inline(always)]
fn backward_pairs(half: usize, planar: &[f32], x: &[f32], grad: &mut [f32], acc: &mut [f32]) {
    let m = planar.len() / 4;
    let mut t = 0;
    for base in (0..x.len()).step_by(2 * half) {
        for p in base..base + half {
            let q = p + half;
            let (a, b, c, d) = (planar[t], planar[m + t], planar[2 * m + t], planar[3 * m + t]);
            let (xp, xq) = (x[p], x[q]);
            let (gyp, gyq) = (grad[p], grad[q]);
            acc[t] += gyp * xp;
            acc[m + t] += gyp * xq;
            acc[2 * m + t] += gyq * xp;
            acc[3 * m + t] += gyq * xq;
            grad[p] = a * gyp + c * gyq;
            grad[q] = b * gyp + d * gyq;
            t += 1;
        }
    }
}
