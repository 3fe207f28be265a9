//! Bit-exactness of the fused butterfly kernels against their per-row
//! oracles: `fused_forward_train` must reproduce `Butterfly::forward_cached`
//! (outputs and every cached stage input in the arena), the inference
//! `fused_forward` the same outputs, and `fused_backward` must reproduce
//! `Butterfly::backward_cached` — or, for the orthogonal butterfly, the
//! per-row `OrthoFactor::backward_in_place` chain — in dX and in every
//! stage's parameter gradient, bit for bit. The sizes cross every path of
//! the kernels: the per-pair loops (n < 32), the narrow tiles (block half 1
//! to 8) and the wide tiles (half ≥ 16); the batches cross the planar
//! repack's 8-row threshold and the 32-row block.

use bfly_core::{fused_backward, fused_forward, fused_forward_train, Butterfly, OrthoButterfly};
use bfly_tensor::{seeded_rng, Matrix, Permutation, Scratch};
use proptest::{prop_assert, proptest, ProptestConfig};
use rand::Rng;

/// Rows per arena block of the fused kernels.
const ROW_BLOCK: usize = 32;

/// Bits of `v`, every NaN mapped to one pattern: IEEE 754 leaves the payload
/// of an operation on two NaNs to the implementation, and the compiler may
/// commute the operands of `+` and `*`. Everything else, `±0.0` included,
/// must match exactly.
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
}

/// Upstream gradient entries. `kind` 0: plain values in `[-1, 1]`; 1: with
/// `±0.0` and subnormals mixed in; 2: also sparse `±inf` and NaN.
fn grads(len: usize, kind: u32, rng: &mut impl Rng) -> Vec<f32> {
    (0..len)
        .map(|_| match (kind, rng.gen_range(0u32..256)) {
            (1.., 0..=31) => 0.0,
            (1.., 32..=47) => -0.0,
            (1.., 48..=63) => f32::MIN_POSITIVE / 16.0,
            (1.., 64..=71) => -1.0e-42,
            (2, 72) => f32::INFINITY,
            (2, 73) => f32::NEG_INFINITY,
            (2, 74) => f32::NAN,
            _ => rng.gen_range(-1.0f32..=1.0),
        })
        .collect()
}

fn pad(row: &[f32], n: usize) -> Vec<f32> {
    let mut v = row.to_vec();
    v.resize(n, 0.0);
    v
}

/// The arena slot of row `r`, stage `s` (`[row block][stage][row][n]`).
fn arena_row(arena: &[f32], batch: usize, nstages: usize, n: usize, r: usize, s: usize) -> &[f32] {
    let block = r / ROW_BLOCK;
    let brows = (batch - block * ROW_BLOCK).min(ROW_BLOCK);
    let at = block * ROW_BLOCK * nstages * n + s * brows * n + (r % ROW_BLOCK) * n;
    &arena[at..at + n]
}

/// One random case: dims, inputs and upstream gradient.
struct Case {
    n: usize,
    in_dim: usize,
    x: Matrix,
    bias: Vec<f32>,
    g: Matrix,
    /// Seeds the model's random parameters.
    model_seed: u64,
    at: String,
}

impl Case {
    fn new(log_n: u32, batch: usize, dims: (usize, usize), kind: u32, seed: u64) -> Self {
        let n = 1usize << log_n;
        let (in_dim, out_dim) = (1 + dims.0 % n, 1 + dims.1 % n);
        let mut rng = seeded_rng(seed);
        let x = Matrix::random_uniform(batch, in_dim, 1.0, &mut rng);
        let bias: Vec<f32> = (0..out_dim).map(|_| rng.gen_range(-0.5f32..=0.5)).collect();
        let g = Matrix::from_vec(batch, out_dim, grads(batch * out_dim, kind, &mut rng));
        let at = format!("n {n}, {in_dim} -> {out_dim}, batch {batch}, kind {kind}, seed {seed}");
        Self { n, in_dim, x, bias, g, model_seed: seed ^ 0xB0_77E5, at }
    }

    /// Checks the fused training forward against per-row `(output, stage
    /// inputs)` from `oracle`, and the fused inference forward against the
    /// same outputs; returns the training arena.
    fn check_forward<S: bfly_core::StageKernel>(
        &self,
        perm: &Permutation,
        stages: &[S],
        oracle: impl Fn(&[f32]) -> (Vec<f32>, Vec<Vec<f32>>),
    ) -> Result<Vec<f32>, String> {
        let (batch, nstages) = (self.x.rows(), stages.len());
        let mut scratch = Scratch::new();
        let mut arena = Vec::new();
        let y = fused_forward_train(&self.x, perm, stages, &self.bias, &mut arena, &mut scratch);
        let inferred = fused_forward(&self.x, perm, stages, &self.bias, &mut scratch);
        for r in 0..batch {
            let (out, cache) = oracle(&pad(self.x.row(r), self.n));
            let want: Vec<f32> = out.iter().zip(&self.bias).map(|(v, b)| v + b).collect();
            if bits(y.row(r)) != bits(&want) {
                return Err(format!("forward output row {r} differs at {}", self.at));
            }
            if bits(inferred.row(r)) != bits(&want) {
                return Err(format!("inference output row {r} differs at {}", self.at));
            }
            for (s, cached) in cache.iter().take(nstages).enumerate() {
                if bits(arena_row(&arena, batch, nstages, self.n, r, s)) != bits(cached) {
                    return Err(format!("arena row {r} stage {s} differs at {}", self.at));
                }
            }
        }
        Ok(arena)
    }

    /// Checks the fused backward's dX and per-stage gradients (summed into
    /// zeroed buffers) against the oracle's.
    fn check_backward<S: bfly_core::StageKernel>(
        &self,
        perm: &Permutation,
        stages: &[S],
        arena: &[f32],
        (dx_want, grads_want): (Matrix, Vec<Vec<f32>>),
    ) -> Result<(), String> {
        let mut scratch = Scratch::new();
        let mut got: Vec<Vec<f32>> = grads_want.iter().map(|g| vec![0.0; g.len()]).collect();
        let dx = fused_backward(&self.g, perm, stages, arena, self.in_dim, &mut scratch, |s, f| {
            for (acc, v) in got[s].iter_mut().zip(f) {
                *acc += v;
            }
        });
        if bits(dx.as_slice()) != bits(dx_want.as_slice()) {
            return Err(format!("dX differs at {}", self.at));
        }
        for (s, (got, want)) in got.iter().zip(&grads_want).enumerate() {
            if bits(got) != bits(want) {
                return Err(format!("stage {s} parameter gradient differs at {}", self.at));
            }
        }
        Ok(())
    }
}

fn check_butterfly(case: &Case) -> Result<(), String> {
    let b = Butterfly::random(case.n, &mut seeded_rng(case.model_seed));
    let arena = case.check_forward(&b.perm, &b.views(), |x| b.forward_cached(x))?;
    let mut dx = Matrix::zeros(case.g.rows(), case.in_dim);
    let mut gt: Vec<Vec<f32>> = b.factors.iter().map(|f| vec![0.0; f.twiddles.len()]).collect();
    for r in 0..case.g.rows() {
        let (_, cache) = b.forward_cached(&pad(case.x.row(r), case.n));
        let gx = b.backward_cached(&cache, &pad(case.g.row(r), case.n), &mut gt);
        dx.row_mut(r).copy_from_slice(&gx[..case.in_dim]);
    }
    case.check_backward(&b.perm, &b.views(), &arena, (dx, gt))
}

/// Per-row forward of the orthogonal butterfly, recording each stage input.
fn ortho_forward_cached(o: &OrthoButterfly, x: &[f32]) -> (Vec<f32>, Vec<Vec<f32>>) {
    let mut y = o.perm.apply(x);
    let mut cache = Vec::with_capacity(o.stages());
    for f in &o.factors {
        cache.push(y.clone());
        f.apply_in_place(&mut y);
    }
    (y, cache)
}

fn check_ortho(case: &Case) -> Result<(), String> {
    let o = OrthoButterfly::random(case.n, &mut seeded_rng(case.model_seed));
    let arena = case.check_forward(&o.perm, &o.views(), |x| ortho_forward_cached(&o, x))?;
    let mut dx = Matrix::zeros(case.g.rows(), case.in_dim);
    let mut ga: Vec<Vec<f32>> = o.factors.iter().map(|f| vec![0.0; f.angles.len()]).collect();
    for r in 0..case.g.rows() {
        let (_, cache) = ortho_forward_cached(&o, &pad(case.x.row(r), case.n));
        let mut g = pad(case.g.row(r), case.n);
        for (s, f) in o.factors.iter().enumerate().rev() {
            f.backward_in_place(&cache[s], &mut g, &mut ga[s]);
        }
        for (i, &j) in o.perm.map().iter().enumerate() {
            if (j as usize) < case.in_dim {
                dx.row_mut(r)[j as usize] = g[i];
            }
        }
    }
    case.check_backward(&o.perm, &o.views(), &arena, (dx, ga))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The free-twiddle butterfly: fused training and inference forwards
    /// and the fused backward ≡ per-row `forward_cached` /
    /// `backward_cached`, bit for bit.
    #[test]
    fn fused_butterfly_training_bit_identical_to_per_row(
        log_n in 1u32..13,          // n = 2 ..= 4096
        batch in 0usize..71,
        in_sel in 0usize..4096,
        out_sel in 0usize..4096,
        kind in 0u32..3,
        seed in 0u64..1_000_000,
    ) {
        let r = check_butterfly(&Case::new(log_n, batch, (in_sel, out_sel), kind, seed));
        prop_assert!(r.is_ok(), "{}", r.err().unwrap_or_default());
    }

    /// The orthogonal butterfly: fused training and inference forwards and
    /// the fused backward ≡ the per-row rotation chain, bit for bit.
    #[test]
    fn fused_ortho_training_bit_identical_to_per_row(
        log_n in 1u32..13,
        batch in 0usize..71,
        in_sel in 0usize..4096,
        out_sel in 0usize..4096,
        kind in 0u32..3,
        seed in 0u64..1_000_000,
    ) {
        let r = check_ortho(&Case::new(log_n, batch, (in_sel, out_sel), kind, seed));
        prop_assert!(r.is_ok(), "{}", r.err().unwrap_or_default());
    }
}
