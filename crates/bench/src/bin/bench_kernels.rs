//! bench_kernels — times the fused stage-major butterfly kernels against
//! per-row `Butterfly` oracles on identical inputs.
//!
//! Three arms per (n, batch) point, each a per-row oracle (the baseline)
//! against the fused kernel (the candidate):
//!   * `train`    — `forward_cached` on every row, keeping every row's
//!     cache as training must, vs `fused_forward_train`,
//!   * `backward` — `backward_cached` on every row vs `fused_backward`,
//!   * `infer`    — `apply` on every row plus the bias vs `fused_forward`.
//!
//! The oracles run the same arithmetic as the fused kernels, so every arm
//! first asserts that the two agree bit for bit (outputs, and for
//! `backward` also every twiddle gradient) and refuses to time a pair that
//! does not. Each arm is timed by `bfly_bench::measure`: interleaved
//! samples, median and quartiles per side, speedup as the ratio of the
//! medians.
//!
//! Results print as a table of medians and are written to
//! `BENCH_kernels.json` at the workspace root. The full run covers batch 50,
//! the Table 3 batch the SHL training trains at. `--smoke` runs a
//! seconds-long version (tiny sizes, few samples) and skips the JSON
//! write — used by CI to keep the binary from rotting. It also gates the
//! fused backward: the run fails if its arm reads below
//! [`SMOKE_MIN_BACKWARD_SPEEDUP`] its per-row oracle at batch 8.

use bfly_bench::format_table;
use bfly_bench::json::write_bench_json;
use bfly_bench::measure::Arm;
use bfly_bench::smoke_run;
use bfly_core::{fused_backward, fused_forward, fused_forward_train, Butterfly};
use bfly_tensor::{seeded_rng, Matrix, Scratch};
use serde::Serialize;
use std::hint::black_box;

/// The smoke run's floor for the backward arm's speedup at batch 8: the
/// fused backward must beat running its per-row oracle.
const SMOKE_MIN_BACKWARD_SPEEDUP: f64 = 1.0;

#[derive(Serialize)]
struct KernelPoint {
    n: usize,
    batch: usize,
    /// Timed calls per side in every arm.
    samples: usize,
    train: Arm,
    backward: Arm,
    infer: Arm,
}

#[derive(Serialize)]
struct BenchOutput {
    kernels: Vec<KernelPoint>,
}

/// `Butterfly::apply` on every row of `x`, plus `bias`: the per-row oracle
/// of `fused_forward`.
fn oracle_apply(b: &Butterfly, x: &Matrix, bias: &[f32]) -> Matrix {
    let mut out = Matrix::zeros(x.rows(), b.n());
    for r in 0..x.rows() {
        let y = b.apply(x.row(r));
        for ((o, v), bb) in out.row_mut(r).iter_mut().zip(&y).zip(bias) {
            *o = v + bb;
        }
    }
    out
}

/// `forward_cached` on every row of `x`, plus `bias`, keeping every row's
/// stage cache: the per-row oracle of `fused_forward_train`.
fn oracle_forward_train(b: &Butterfly, x: &Matrix, bias: &[f32]) -> (Matrix, Vec<Vec<Vec<f32>>>) {
    let mut out = Matrix::zeros(x.rows(), b.n());
    let mut caches = Vec::with_capacity(x.rows());
    for r in 0..x.rows() {
        let (y, cache) = b.forward_cached(x.row(r));
        for ((o, v), bb) in out.row_mut(r).iter_mut().zip(&y).zip(bias) {
            *o = v + bb;
        }
        caches.push(cache);
    }
    (out, caches)
}

/// `backward_cached` on every row of `grad`, accumulating the twiddle
/// gradients into `grad_twiddles`: the per-row oracle of `fused_backward`.
fn oracle_backward(
    b: &Butterfly,
    caches: &[Vec<Vec<f32>>],
    grad: &Matrix,
    grad_twiddles: &mut [Vec<f32>],
) -> Matrix {
    let mut dx = Matrix::zeros(grad.rows(), b.n());
    for (r, cache) in caches.iter().enumerate() {
        dx.row_mut(r).copy_from_slice(&b.backward_cached(cache, grad.row(r), grad_twiddles));
    }
    dx
}

fn zero_twiddle_grads(b: &Butterfly) -> Vec<Vec<f32>> {
    b.factors.iter().map(|f| vec![0.0; f.twiddles.len()]).collect()
}

/// Panics unless `oracle` and `fused` agree in every bit.
fn assert_bit_identical(what: &str, n: usize, batch: usize, oracle: &[f32], fused: &[f32]) {
    assert_eq!(oracle.len(), fused.len(), "{what} at n {n} batch {batch}: length differs");
    let differs = oracle.iter().zip(fused).position(|(o, f)| o.to_bits() != f.to_bits());
    if let Some(i) = differs {
        panic!(
            "{what} at n {n} batch {batch}: fused {} differs from the per-row oracle {} at {i}; \
             refusing to time it",
            fused[i], oracle[i]
        );
    }
}

fn bench_point(n: usize, batch: usize, work_budget: f64) -> KernelPoint {
    let mut rng = seeded_rng(0xF00D + n as u64);
    let b = Butterfly::random(n, &mut rng);
    let stages = b.views();
    let x = Matrix::random_uniform(batch, n, 1.0, &mut rng);
    let bias = vec![0.01f32; n];
    let mut scratch = Scratch::new();
    let mut arena = Vec::new();

    // Every fused result must equal its oracle bit for bit before either
    // side is timed.
    let check = |what: &str, oracle: &[f32], fused: &[f32]| {
        assert_bit_identical(what, n, batch, oracle, fused);
    };
    check(
        "infer",
        oracle_apply(&b, &x, &bias).as_slice(),
        fused_forward(&x, &b.perm, &stages, &bias, &mut scratch).as_slice(),
    );
    // Backward consumes the forward caches; both sides keep theirs from
    // this untimed pass (the caches are read-only for backward).
    let (y, caches) = oracle_forward_train(&b, &x, &bias);
    let fused_y = fused_forward_train(&x, &b.perm, &stages, &bias, &mut arena, &mut scratch);
    check("train", y.as_slice(), fused_y.as_slice());
    let mut oracle_gt = zero_twiddle_grads(&b);
    let mut fused_gt = zero_twiddle_grads(&b);
    let accumulate = |gt: &mut [Vec<f32>], s: usize, flat: &[f32]| {
        for (acc, v) in gt[s].iter_mut().zip(flat) {
            *acc += v;
        }
    };
    let oracle_dx = oracle_backward(&b, &caches, &y, &mut oracle_gt);
    let fused_dx = fused_backward(&y, &b.perm, &stages, &arena, n, &mut scratch, |s, flat| {
        accumulate(&mut fused_gt, s, flat);
    });
    check("backward dX", oracle_dx.as_slice(), fused_dx.as_slice());
    for (s, (o, f)) in oracle_gt.iter().zip(&fused_gt).enumerate() {
        check(&format!("backward twiddle grad {s}"), o, f);
    }

    // Budget samples by work so every point takes a comparable slice of
    // wall clock.
    let work = (n * batch * n.trailing_zeros() as usize).max(1);
    let samples = ((work_budget / work as f64) as usize).clamp(10, 200);

    let train = Arm::time(
        samples,
        || {
            black_box(oracle_forward_train(&b, &x, &bias));
        },
        || {
            black_box(fused_forward_train(&x, &b.perm, &stages, &bias, &mut arena, &mut scratch));
        },
    );
    let backward = Arm::time(
        samples,
        || {
            black_box(oracle_backward(&b, &caches, &y, &mut oracle_gt));
        },
        || {
            black_box(fused_backward(&y, &b.perm, &stages, &arena, n, &mut scratch, |s, flat| {
                accumulate(&mut fused_gt, s, flat)
            }));
        },
    );
    let infer = Arm::time(
        samples,
        || {
            black_box(oracle_apply(&b, &x, &bias));
        },
        || {
            black_box(fused_forward(&x, &b.perm, &stages, &bias, &mut scratch));
        },
    );
    KernelPoint { n, batch, samples, train, backward, infer }
}

fn main() {
    let smoke = smoke_run();
    // Touched elements per measurement the sample count is budgeted by.
    let work_budget = if smoke { 50_000.0 } else { 50_000_000.0 };
    let (sizes, batches): (&[usize], &[usize]) =
        if smoke { (&[64, 256], &[1, 8]) } else { (&[256, 1024, 4096], &[1, 8, 32, 50, 128]) };

    println!(
        "bench_kernels: per-row Butterfly oracles vs fused butterfly kernels, median us{}\n",
        if smoke { " (smoke mode)" } else { "" }
    );

    let mut points = Vec::new();
    for &n in sizes {
        for &batch in batches {
            points.push(bench_point(n, batch, work_budget));
        }
    }

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            let mut row = vec![p.n.to_string(), p.batch.to_string()];
            for arm in [&p.train, &p.backward, &p.infer] {
                row.push(format!("{:.1}", arm.baseline.median_us));
                row.push(format!("{:.1}", arm.candidate.median_us));
                row.push(format!("{:.2}x", arm.speedup));
            }
            row
        })
        .collect();
    println!(
        "{}",
        format_table(
            &[
                "n",
                "batch",
                "train oracle",
                "fused",
                "x",
                "bwd oracle",
                "fused",
                "x",
                "infer oracle",
                "fused",
                "x",
            ],
            &rows
        )
    );

    if smoke {
        let slow: Vec<String> = points
            .iter()
            .filter(|p| p.batch == 8 && p.backward.speedup < SMOKE_MIN_BACKWARD_SPEEDUP)
            .map(|p| format!("n {} ({:.2}x)", p.n, p.backward.speedup))
            .collect();
        if !slow.is_empty() {
            eprintln!(
                "bench_kernels: fused backward below {SMOKE_MIN_BACKWARD_SPEEDUP:.1}x its per-row \
                 oracle at batch 8: {}",
                slow.join(", ")
            );
            std::process::exit(1);
        }
    }

    write_bench_json("kernels", &BenchOutput { kernels: points }, smoke);
}
