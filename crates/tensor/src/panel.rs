//! Panel-major storage for a dense layer's weight, and its forward kernel.
//!
//! A dense layer computes `y = x·Wᵀ + b` with `W: rows × cols` (`rows`
//! outputs, `cols` inputs). Stored row-major, every output is one dot
//! product along a row of `W`: a single sequential add chain, which runs at
//! the adder's latency rather than its throughput.
//!
//! Panel-major storage groups consecutive output rows into *panels* and
//! stores each panel k-major. Element `(j, k)` of the panel that starts at
//! row `j0` and is `w` rows wide sits at `j0·cols + k·w + (j − j0)`. One
//! step along `k` therefore reads `w` contiguous weights and advances `w`
//! independent accumulators, one vector register wide. Panels are 16 rows
//! wide while that many rows remain; the rest are covered by the binary
//! digits of the remainder (8, 4, 2, 1), so the buffer holds exactly
//! `rows × cols` values, with no padding.
//!
//! [`affine`] tiles 4 batch rows by one panel's lanes. Each output lane
//! still accumulates `x[i][k]·w[j][k]` in ascending `k`, starting from the
//! same `-0.0` that `Iterator::sum` starts from, and then adds the bias: the
//! same operations in the same order as [`crate::matmul::matmul_a_bt`]
//! followed by a bias add. Rust never contracts `a * b + c` into an FMA, so
//! the result is bit-identical to that reference on every ISA branch.
//!
//! This module is the only code that knows the layout: callers hand it
//! row-major values to [`pack`] and get row-major values back from
//! [`unpack`].

use crate::matrix::Matrix;

/// Widest panel, in output rows: one AVX-512 register of `f32` lanes.
const PANEL_ROWS: usize = 16;

/// Batch rows per register tile of [`affine`].
const MR: usize = 4;

/// The panels of a `rows`-row weight as `(first row, width)`, in row order.
fn spans(rows: usize) -> impl Iterator<Item = (usize, usize)> {
    let mut j0 = 0;
    std::iter::from_fn(move || {
        let left = rows - j0;
        (left > 0).then(|| {
            let w = if left >= PANEL_ROWS { PANEL_ROWS } else { 1 << left.ilog2() };
            j0 += w;
            (j0 - w, w)
        })
    })
}

/// Packs a `rows × cols` weight, given as its values in row-major order,
/// into panel order.
///
/// Taking an iterator lets a caller draw a fresh weight straight into its
/// panels, without a row-major buffer beside them.
///
/// # Panics
/// Panics if `values` yields fewer than `rows × cols` values.
pub fn pack(rows: usize, cols: usize, values: impl IntoIterator<Item = f32>) -> Vec<f32> {
    let mut values = values.into_iter();
    let mut out = vec![0.0; rows * cols];
    for (j0, w) in spans(rows) {
        let panel = &mut out[j0 * cols..(j0 + w) * cols];
        for lane in 0..w {
            for slot in panel.iter_mut().skip(lane).step_by(w) {
                *slot = values.next().expect("pack: fewer values than rows × cols");
            }
        }
    }
    out
}

/// The row-major values of a `rows × cols` weight stored by [`pack`].
///
/// # Panics
/// Panics if `panels.len() != rows × cols`.
pub fn unpack(rows: usize, cols: usize, panels: &[f32]) -> Vec<f32> {
    assert_eq!(panels.len(), rows * cols, "unpack: buffer is not rows × cols");
    let mut out = Vec::with_capacity(panels.len());
    for (j0, w) in spans(rows) {
        let panel = &panels[j0 * cols..(j0 + w) * cols];
        for lane in 0..w {
            out.extend(panel.iter().skip(lane).step_by(w));
        }
    }
    out
}

/// `y = x·Wᵀ + b` with `W` stored by [`pack`] as `bias.len() × x.cols()`.
///
/// Bit-identical to [`crate::matmul::matmul_a_bt`] of the row-major `W`
/// followed by adding `bias` to every row.
///
/// # Panics
/// Panics if `panels.len() != bias.len() × x.cols()`.
pub fn affine(x: &Matrix, panels: &[f32], bias: &[f32]) -> Matrix {
    let (batch, cols) = x.shape();
    let rows = bias.len();
    assert_eq!(panels.len(), rows * cols, "affine: weight is not bias.len() × x.cols()");
    let mut y = Matrix::zeros(batch, rows);
    affine_into(x.as_slice(), cols, panels, bias, y.as_mut_slice());
    y
}

/// Routes [`affine`] to the widest vector ISA the host supports. The wide
/// variants recompile the same generic body with wider vector units (see
/// [`wide`]), so every branch is bit-identical.
fn affine_into(x: &[f32], cols: usize, panels: &[f32], bias: &[f32], y: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the runtime check above guarantees avx512f.
            return unsafe { wide::affine_avx512(x, cols, panels, bias, y) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the runtime check above guarantees avx2.
            return unsafe { wide::affine_avx2(x, cols, panels, bias, y) };
        }
    }
    affine_impl(x, cols, panels, bias, y)
}

/// Wide-vector re-instantiations of [`affine_impl`] for x86-64:
/// `#[target_feature]` recompiles the `#[inline(always)]` generic body with
/// 256-bit (AVX2) or 512-bit (AVX-512F) vector units enabled, so a
/// 16-lane accumulator row is two registers or one instead of four SSE
/// registers. Selection happens at run time, never at compile time.
#[cfg(target_arch = "x86_64")]
mod wide {
    #[target_feature(enable = "avx512f")]
    pub(super) fn affine_avx512(
        x: &[f32],
        cols: usize,
        panels: &[f32],
        bias: &[f32],
        y: &mut [f32],
    ) {
        super::affine_impl(x, cols, panels, bias, y)
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn affine_avx2(x: &[f32], cols: usize, panels: &[f32], bias: &[f32], y: &mut [f32]) {
        super::affine_impl(x, cols, panels, bias, y)
    }
}

/// Panel-outer loop: each panel is read once from memory and reused from
/// cache by every tile of batch rows.
#[inline(always)]
fn affine_impl(x: &[f32], cols: usize, panels: &[f32], bias: &[f32], y: &mut [f32]) {
    for (j0, w) in spans(bias.len()) {
        let panel = &panels[j0 * cols..(j0 + w) * cols];
        match w {
            16 => panel_rows::<16>(x, cols, panel, bias, j0, y),
            8 => panel_rows::<8>(x, cols, panel, bias, j0, y),
            4 => panel_rows::<4>(x, cols, panel, bias, j0, y),
            2 => panel_rows::<2>(x, cols, panel, bias, j0, y),
            _ => panel_rows::<1>(x, cols, panel, bias, j0, y),
        }
    }
}

/// Every batch row against the `W`-wide panel of rows `j0..j0 + W`, [`MR`]
/// rows per tile, each output written once as `acc + bias`.
#[inline(always)]
fn panel_rows<const W: usize>(
    x: &[f32],
    cols: usize,
    panel: &[f32],
    bias: &[f32],
    j0: usize,
    y: &mut [f32],
) {
    let rows = bias.len();
    let batch = y.len() / rows;
    let bias = &bias[j0..j0 + W];
    let row = |i: usize| &x[i * cols..(i + 1) * cols];
    let mut store = |i: usize, acc: &[[f32; W]]| {
        for (r, acc) in acc.iter().enumerate() {
            let out = &mut y[(i + r) * rows + j0..][..W];
            for ((o, a), b) in out.iter_mut().zip(acc).zip(bias) {
                *o = a + b;
            }
        }
    };
    let mut i = 0;
    while i + MR <= batch {
        store(i, &tile::<W, MR>(std::array::from_fn(|r| row(i + r)), panel));
        i += MR;
    }
    while i < batch {
        store(i, &tile::<W, 1>([row(i)], panel));
        i += 1;
    }
}

/// `R × W` dot products of `R` input rows with one panel's `W` rows, each
/// accumulated in ascending `k` from `-0.0`.
#[inline(always)]
fn tile<const W: usize, const R: usize>(x: [&[f32]; R], panel: &[f32]) -> [[f32; W]; R] {
    // Cutting every row to the panel's `k` extent lets the compiler drop the
    // bounds check on `x[k]`.
    let x = x.map(|x| &x[..panel.len() / W]);
    let mut acc = [[-0.0f32; W]; R];
    for (k, wk) in panel.chunks_exact(W).enumerate() {
        for (acc, x) in acc.iter_mut().zip(&x) {
            let xk = x[k];
            for (a, w) in acc.iter_mut().zip(wk) {
                *a += xk * w;
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::matmul_a_bt;
    use crate::rng::seeded_rng;

    fn reference(x: &Matrix, w: &Matrix, bias: &[f32]) -> Matrix {
        let mut y = matmul_a_bt(x, w);
        for r in 0..y.rows() {
            for (v, b) in y.row_mut(r).iter_mut().zip(bias) {
                *v += b;
            }
        }
        y
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn panels_cover_every_row_once_with_binary_tails() {
        let widths = |rows| spans(rows).map(|(_, w)| w).collect::<Vec<_>>();
        assert_eq!(widths(0), Vec::<usize>::new());
        assert_eq!(widths(10), vec![8, 2]);
        assert_eq!(widths(33), vec![16, 16, 1]);
        assert_eq!(widths(47), vec![16, 16, 8, 4, 2, 1]);
        for rows in 0..70 {
            let mut next = 0;
            for (j0, w) in spans(rows) {
                assert_eq!(j0, next);
                next += w;
            }
            assert_eq!(next, rows);
        }
    }

    #[test]
    fn pack_places_each_element_at_its_panel_offset() {
        let (rows, cols) = (19, 5);
        let packed = pack(rows, cols, (0..rows * cols).map(|v| v as f32));
        for (j0, w) in spans(rows) {
            for j in j0..j0 + w {
                for k in 0..cols {
                    assert_eq!(packed[j0 * cols + k * w + (j - j0)], (j * cols + k) as f32);
                }
            }
        }
        assert_eq!(
            unpack(rows, cols, &packed),
            (0..rows * cols).map(|v| v as f32).collect::<Vec<_>>()
        );
    }

    #[test]
    fn zero_products_keep_the_sign_sum_starts_from() {
        // 0·(−w) = −0.0 everywhere, and a −0.0 bias keeps the sign: only an
        // accumulator starting from `Iterator::sum`'s −0.0 matches.
        let w = Matrix::filled(18, 7, -0.5);
        let x = Matrix::zeros(5, 7);
        let bias = vec![-0.0; 18];
        let got = affine(&x, &pack(18, 7, w.as_slice().iter().copied()), &bias);
        assert_eq!(bits(&got), bits(&reference(&x, &w, &bias)));
        // No inputs at all: the empty sum plus the bias.
        let got = affine(&Matrix::zeros(3, 0), &[], &[1.5, -0.0]);
        assert_eq!(
            bits(&got),
            bits(&reference(&Matrix::zeros(3, 0), &Matrix::zeros(2, 0), &[1.5, -0.0]))
        );
    }

    #[test]
    fn every_isa_instantiation_is_bit_identical() {
        let mut rng = seeded_rng(21);
        for &(batch, cols, rows) in &[(1, 37, 31), (6, 70, 40), (32, 64, 10), (0, 9, 17), (9, 1, 3)]
        {
            let x = Matrix::random_uniform(batch, cols, 1.0, &mut rng);
            let w = Matrix::random_uniform(rows, cols, 1.0, &mut rng);
            let bias: Vec<f32> = (0..rows).map(|j| j as f32 * 0.25 - 1.0).collect();
            let panels = pack(rows, cols, w.as_slice().iter().copied());
            let expected = bits(&reference(&x, &w, &bias));
            let run = |kernel: &dyn Fn(&mut [f32])| {
                let mut y = vec![0.0f32; batch * rows];
                kernel(&mut y);
                assert_eq!(y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), expected);
            };
            run(&|y| affine_impl(x.as_slice(), cols, &panels, &bias, y));
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("avx2") {
                    // SAFETY: the runtime check above guarantees avx2.
                    run(&|y| unsafe { wide::affine_avx2(x.as_slice(), cols, &panels, &bias, y) });
                }
                if std::arch::is_x86_feature_detected!("avx512f") {
                    // SAFETY: the runtime check above guarantees avx512f.
                    run(&|y| unsafe { wide::affine_avx512(x.as_slice(), cols, &panels, &bias, y) });
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "affine: weight is not")]
    fn mismatched_weight_panics() {
        let _ = affine(&Matrix::zeros(1, 3), &[0.0; 5], &[0.0; 2]);
    }
}
