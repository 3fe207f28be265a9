//! bench_blocksparse — times the fused block-sparse kernels against the
//! naive matmul-per-block reference (`BlockSparseMatrix::matmul_batch`) on
//! identical inputs.
//!
//! Three sections:
//!   * a **sweep** over block size x off-diagonal density x batch on a fixed
//!     1024-dim butterfly-style pattern, sparse term only, where fused and
//!     naive are required to agree **bit for bit** before either side is
//!     timed (the kernels' core contract, also pinned by proptests);
//!   * the **pixelfly point**: the full fused forward (sparse + low-rank +
//!     bias) against the pre-fusion affine (naive block matmul plus two
//!     dense low-rank passes) at the paper-default config
//!     (block 32, butterfly 8, rank 128) on n = 1024, batch 128, checked to
//!     a relative tolerance before timing;
//!   * the **training point**: one fused training step of the layer
//!     (`fused_block_forward_train` plus `fused_block_backward`) against
//!     the pre-fusion step (the naive affine, `backward_batch` for the
//!     sparse term and four dense matmuls for the low-rank one) at the
//!     repository benchmark's `train_pixelfly` shape (paper default,
//!     n = 1024, batch 50), every output checked to a relative tolerance
//!     before timing.
//!
//! Each point is timed by `bfly_bench::measure` (interleaved samples,
//! median and quartiles per side, speedup as the ratio of the medians).
//! Results print as tables of medians and are written to
//! `BENCH_blocksparse.json` at the workspace root. `--smoke` runs a
//! seconds-long version (tiny sizes, few samples, the training point at
//! full size) and skips the JSON write — used by CI to keep the binary from
//! rotting. It also gates the training step: the run fails if the fused
//! step reads below [`SMOKE_MIN_TRAIN_SPEEDUP`] the pre-fusion one.

use bfly_bench::format_table;
use bfly_bench::json::write_bench_json;
use bfly_bench::measure::Arm;
use bfly_bench::smoke_run;
use bfly_core::{
    flat_butterfly_mask, fused_block_backward, fused_block_forward, fused_block_forward_train,
    BlockGrads, BlockSparseMatrix, LowRankRef, PixelflyConfig,
};
use bfly_tensor::matmul::{matmul, matmul_a_bt_slice, matmul_at_b};
use bfly_tensor::{seeded_rng, Matrix, Scratch};
use rand::Rng;
use serde::Serialize;
use std::hint::black_box;

/// The smoke run's floor for the training point's speedup: the fused step
/// must beat the pre-fusion one.
const SMOKE_MIN_TRAIN_SPEEDUP: f64 = 1.0;

#[derive(Serialize)]
struct SweepPoint {
    n: usize,
    block: usize,
    /// Percentage of off-diagonal block-grid slots kept (the block-grid
    /// diagonal is always present).
    density_pct: u64,
    nnz_blocks: usize,
    batch: usize,
    /// Timed calls per side.
    samples: usize,
    /// Naive matmul-per-block (baseline) vs the fused kernel (candidate).
    timing: Arm,
}

#[derive(Serialize)]
struct PixelflyPoint {
    n: usize,
    batch: usize,
    block_size: usize,
    butterfly_size: usize,
    rank: usize,
    nnz_blocks: usize,
    /// Timed calls per side.
    samples: usize,
    /// The pre-fusion path (baseline) vs the fused kernels (candidate).
    timing: Arm,
}

#[derive(Serialize)]
struct BenchOutput {
    sweep: Vec<SweepPoint>,
    pixelfly: PixelflyPoint,
    train: PixelflyPoint,
}

/// Samples for a measurement of `work` multiply-adds per call: a
/// comparable wall-clock slice per point, at least 10 samples per side.
fn samples_for(work: usize, work_budget: f64) -> usize {
    ((work_budget / work.max(1) as f64) as usize).clamp(10, 300)
}

/// Block-grid diagonal plus ~`density_pct`% of the off-diagonal slots,
/// deterministic in `seed`.
fn random_pattern(grid: usize, density_pct: u64, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = seeded_rng(seed);
    let mut coords = Vec::new();
    for i in 0..grid as u32 {
        for j in 0..grid as u32 {
            if i == j || rng.gen_range(0u64..100) < density_pct {
                coords.push((i, j));
            }
        }
    }
    coords
}

fn sweep_point(
    n: usize,
    block: usize,
    density_pct: u64,
    batch: usize,
    work_budget: f64,
) -> SweepPoint {
    let grid = n / block;
    let coords = random_pattern(grid, density_pct, 0xB10C + block as u64);
    let mut rng = seeded_rng(0xF00D + n as u64 + block as u64);
    let w = BlockSparseMatrix::random(n, n, block, coords, &mut rng);
    let csr = w.csr();
    let x = Matrix::random_uniform(batch, n, 1.0, &mut rng);
    let mut scratch = Scratch::new();

    // The bench is only meaningful if the two sides compute the same thing;
    // the kernels' contract is bit-identity on the sparse term.
    let naive = w.matmul_batch(&x);
    let fused = fused_block_forward(&csr, w.data(), None, None, &x, &mut scratch);
    assert_eq!(
        naive.as_slice(),
        fused.as_slice(),
        "fused kernel must be bit-identical to naive at block {block}"
    );

    let samples = samples_for(csr.nnz_blocks() * block * block * batch, work_budget);
    let timing = Arm::time(
        samples,
        || {
            black_box(w.matmul_batch(&x));
        },
        || {
            black_box(fused_block_forward(&csr, w.data(), None, None, &x, &mut scratch));
        },
    );

    SweepPoint { n, block, density_pct, nnz_blocks: csr.nnz_blocks(), batch, samples, timing }
}

/// The pre-fusion pixelfly affine: naive matmul-per-block, then two dense
/// low-rank passes through freshly allocated matrices, then the bias — the
/// exact shape of the hot path before the fused kernels landed. Returns
/// `Y` and the intermediate `Vx`.
fn naive_pixelfly(
    w: &BlockSparseMatrix,
    u: &[f32],
    v: &[f32],
    rank: usize,
    bias: &[f32],
    x: &Matrix,
) -> (Matrix, Matrix) {
    let mut y = w.matmul_batch(x);
    let vx = matmul_a_bt_slice(x, v, rank);
    let uvx = matmul_a_bt_slice(&vx, u, y.cols());
    for (yrow, (urow, b)) in y
        .as_mut_slice()
        .chunks_exact_mut(bias.len())
        .zip(uvx.as_slice().chunks_exact(bias.len()).zip(std::iter::repeat(bias)))
    {
        for (yv, (uv, bv)) in yrow.iter_mut().zip(urow.iter().zip(b)) {
            *yv += uv + bv;
        }
    }
    (y, vx)
}

/// A paper-default pixelfly layer at width `n` drawn from `rng`: the
/// block-sparse matrix, the `n x rank` factor `U`, the `rank x n` factor
/// `V` and a bias.
fn paper_layer(n: usize, rng: &mut impl Rng) -> (BlockSparseMatrix, Vec<f32>, Vec<f32>, Vec<f32>) {
    let config = PixelflyConfig::paper_default();
    let coords = flat_butterfly_mask(n / config.block_size, config.butterfly_size);
    let w = BlockSparseMatrix::random(n, n, config.block_size, coords, rng);
    let rank = config.rank;
    let scale = 1.0 / ((n * rank) as f32).sqrt();
    let u: Vec<f32> = (0..n * rank).map(|_| rng.gen_range(-scale..=scale)).collect();
    let v: Vec<f32> = (0..rank * n).map(|_| rng.gen_range(-scale..=scale)).collect();
    let bias: Vec<f32> = (0..n).map(|i| 0.01 * (i as f32).cos()).collect();
    (w, u, v, bias)
}

fn pixelfly_point(n: usize, batch: usize, work_budget: f64) -> PixelflyPoint {
    let config = PixelflyConfig::paper_default();
    let mut rng = seeded_rng(0x9D2E);
    let (w, u, v, bias) = paper_layer(n, &mut rng);
    let csr = w.csr();
    let rank = config.rank;
    let lr = LowRankRef { u: &u, v: &v, rank };
    let x = Matrix::random_uniform(batch, n, 1.0, &mut rng);
    let mut scratch = Scratch::new();

    // The low-rank term uses a different (deterministic, lane-tree)
    // summation order than the naive dense passes, so the full forward is
    // checked to a relative tolerance rather than bit-identity.
    let (naive, _) = naive_pixelfly(&w, &u, &v, rank, &bias, &x);
    let fused = fused_block_forward(&csr, w.data(), Some(lr), Some(&bias), &x, &mut scratch);
    for (a, b) in naive.as_slice().iter().zip(fused.as_slice()) {
        let tol = 1e-4 * a.abs().max(1.0);
        assert!((a - b).abs() <= tol, "pixelfly fused diverged: naive {a} vs fused {b}");
    }

    let work = (csr.nnz_blocks() * config.block_size * config.block_size + 2 * n * rank) * batch;
    let samples = samples_for(work, work_budget);
    let timing = Arm::time(
        samples,
        || {
            black_box(naive_pixelfly(&w, &u, &v, rank, &bias, &x));
        },
        || {
            black_box(fused_block_forward(&csr, w.data(), Some(lr), Some(&bias), &x, &mut scratch));
        },
    );

    PixelflyPoint {
        n,
        batch,
        block_size: config.block_size,
        butterfly_size: config.butterfly_size,
        rank,
        nnz_blocks: csr.nnz_blocks(),
        samples,
        timing,
    }
}

/// The outputs of one training step: `Y`, `dX`, and the payload, `U` and
/// `V` gradients.
struct StepOutputs {
    y: Matrix,
    gx: Matrix,
    gp: Vec<f32>,
    gu: Vec<f32>,
    gv: Vec<f32>,
}

/// The pre-fusion training step: the naive affine, then `backward_batch`
/// for the sparse term and four dense matmuls for the low-rank one
/// (`dVx = dY U`, `dX += dVx V`, `dU = dYᵀ Vx`, `dV = dVxᵀ X`).
fn naive_train_step(
    w: &BlockSparseMatrix,
    (u, v): (&Matrix, &Matrix),
    bias: &[f32],
    x: &Matrix,
    g: &Matrix,
) -> StepOutputs {
    let (y, vx) = naive_pixelfly(w, u.as_slice(), v.as_slice(), v.rows(), bias, x);
    let mut gp = vec![0.0f32; w.data().len()];
    let mut gx = w.backward_batch(x, g, &mut gp);
    let dvx = matmul(g, u);
    gx.axpy(1.0, &matmul(&dvx, v));
    let gu = matmul_at_b(g, &vx).as_slice().to_vec();
    let gv = matmul_at_b(&dvx, x).as_slice().to_vec();
    StepOutputs { y, gx, gp, gu, gv }
}

fn train_point(n: usize, batch: usize, work_budget: f64) -> PixelflyPoint {
    let config = PixelflyConfig::paper_default();
    let mut rng = seeded_rng(0x7A17);
    let (w, u, v, bias) = paper_layer(n, &mut rng);
    let csr = w.csr();
    let rank = config.rank;
    let lr = LowRankRef { u: &u, v: &v, rank };
    let factors = (&Matrix::from_vec(n, rank, u.clone()), &Matrix::from_vec(rank, n, v.clone()));
    let x = Matrix::random_uniform(batch, n, 1.0, &mut rng);
    // A ReLU-masked upstream gradient, as training sees it: about half zero.
    let mut g = Matrix::random_uniform(batch, n, 1.0, &mut rng);
    for e in g.as_mut_slice() {
        if rng.gen_bool(0.5) {
            *e = 0.0;
        }
    }
    let mut scratch = Scratch::new();
    let (mut gp, mut gu, mut gv) =
        (vec![0.0; w.data().len()], vec![0.0; u.len()], vec![0.0; v.len()]);
    let mut fused_step = |gp: &mut [f32], gu: &mut [f32], gv: &mut [f32]| {
        for grad in [&mut *gp, &mut *gu, &mut *gv] {
            grad.fill(0.0);
        }
        let (y, vx) =
            fused_block_forward_train(&csr, w.data(), Some(lr), Some(&bias), &x, &mut scratch);
        let gx = fused_block_backward(
            &csr,
            w.data(),
            Some(lr),
            &x,
            vx.as_ref(),
            &g,
            BlockGrads { payload: gp, u: gu, v: gv },
            &mut scratch,
        );
        (y, gx)
    };

    // The fused low-rank term sums in a different (deterministic,
    // lane-tree) order than the dense matmuls, so every output is checked
    // to a relative tolerance rather than bit-identity.
    let naive = naive_train_step(&w, factors, &bias, &x, &g);
    let (y, gx) = fused_step(&mut gp, &mut gu, &mut gv);
    for (what, got, want) in [
        ("Y", y.as_slice(), naive.y.as_slice()),
        ("dX", gx.as_slice(), naive.gx.as_slice()),
        ("dPayload", &gp[..], &naive.gp[..]),
        ("dU", &gu[..], &naive.gu[..]),
        ("dV", &gv[..], &naive.gv[..]),
    ] {
        let scale = want.iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1e-6);
        for (a, b) in got.iter().zip(want) {
            assert!((a - b).abs() <= 1e-4 * scale, "fused training step diverged in {what}");
        }
    }

    let work =
        3 * (csr.nnz_blocks() * config.block_size * config.block_size + 2 * n * rank) * batch;
    let samples = samples_for(work, work_budget);
    let timing = Arm::time(
        samples,
        || {
            black_box(naive_train_step(&w, factors, &bias, &x, &g));
        },
        || {
            black_box(fused_step(&mut gp, &mut gu, &mut gv));
        },
    );
    PixelflyPoint {
        n,
        batch,
        block_size: config.block_size,
        butterfly_size: config.butterfly_size,
        rank,
        nnz_blocks: csr.nnz_blocks(),
        samples,
        timing,
    }
}

fn main() {
    let smoke = smoke_run();
    // Multiply-adds per measurement the sample count is budgeted by.
    let work_budget = if smoke { 600_000.0 } else { 300_000_000.0 };

    println!(
        "bench_blocksparse: naive matmul-per-block vs fused SIMD kernels, median us{}\n",
        if smoke { " (smoke mode)" } else { "" }
    );

    let n = if smoke { 128 } else { 1024 };
    let blocks: &[usize] = if smoke { &[8, 32] } else { &[4, 8, 16, 32] };
    let densities: &[u64] = if smoke { &[25] } else { &[5, 25, 100] };
    let batches: &[usize] = if smoke { &[8] } else { &[1, 8, 32, 128] };

    let mut sweep = Vec::new();
    for &block in blocks {
        for &density in densities {
            for &batch in batches {
                sweep.push(sweep_point(n, block, density, batch, work_budget));
            }
        }
    }

    let rows: Vec<Vec<String>> = sweep
        .iter()
        .map(|p| {
            vec![
                p.block.to_string(),
                format!("{}%", p.density_pct),
                p.nnz_blocks.to_string(),
                p.batch.to_string(),
                format!("{:.1}", p.timing.baseline.median_us),
                format!("{:.1}", p.timing.candidate.median_us),
                format!("{:.2}x", p.timing.speedup),
            ]
        })
        .collect();
    println!(
        "sparse term only, n = {n}:\n{}",
        format_table(
            &["block", "density", "nnz blocks", "batch", "naive us", "fused us", "speedup"],
            &rows
        )
    );

    let (pf_n, pf_batch) = if smoke { (256, 8) } else { (1024, 128) };
    let pixelfly = pixelfly_point(pf_n, pf_batch, work_budget);
    println!(
        "pixelfly paper-default (block {}, butterfly {}, rank {}) n {} batch {}: \
         naive {:.1} us, fused {:.1} us ({:.2}x)",
        pixelfly.block_size,
        pixelfly.butterfly_size,
        pixelfly.rank,
        pixelfly.n,
        pixelfly.batch,
        pixelfly.timing.baseline.median_us,
        pixelfly.timing.candidate.median_us,
        pixelfly.timing.speedup,
    );

    let train = train_point(1024, 50, work_budget);
    println!(
        "training step, paper default n {} batch {}: pre-fusion {:.1} us, fused {:.1} us ({:.2}x)",
        train.n,
        train.batch,
        train.timing.baseline.median_us,
        train.timing.candidate.median_us,
        train.timing.speedup,
    );
    if smoke && train.timing.speedup < SMOKE_MIN_TRAIN_SPEEDUP {
        eprintln!(
            "bench_blocksparse: fused training step below {SMOKE_MIN_TRAIN_SPEEDUP:.1}x the \
             pre-fusion step ({:.2}x)",
            train.timing.speedup
        );
        std::process::exit(1);
    }

    println!();
    write_bench_json("blocksparse", &BenchOutput { sweep, pixelfly, train }, smoke);
}
