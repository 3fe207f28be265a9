//! Criterion benchmarks of the three dense matmul kernel tiers (the host
//! analogues of Table 2's naive / blocked / library tiers), and of the
//! `Dense` forward kernel against the row-major dot-product reference.

use bfly_tensor::matmul::{matmul, matmul_a_bt, matmul_blocked, matmul_naive};
use bfly_tensor::{panel, seeded_rng, Matrix};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_matmul_tiers(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul_tiers");
    for &n in &[128usize, 512] {
        let mut rng = seeded_rng(1);
        let a = Matrix::random_uniform(n, n, 1.0, &mut rng);
        let b = Matrix::random_uniform(n, n, 1.0, &mut rng);
        group.throughput(Throughput::Elements((2 * n * n * n) as u64));
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |bch, _| {
            bch.iter(|| matmul_naive(&a, &b))
        });
        group.bench_with_input(BenchmarkId::new("blocked", n), &n, |bch, _| {
            bch.iter(|| matmul_blocked(&a, &b))
        });
        group.bench_with_input(BenchmarkId::new("parallel", n), &n, |bch, _| {
            bch.iter(|| matmul(&a, &b))
        });
    }
    group.finish();
}

fn bench_skewed_shapes(c: &mut Criterion) {
    // Host-side analogue of Fig 4: same FLOPs, different aspect ratios.
    let mut group = c.benchmark_group("matmul_skew");
    let base = 256usize;
    for &(m, k) in &[(base, base), (base * 4, base / 4), (base / 4, base * 4)] {
        let mut rng = seeded_rng(2);
        let a = Matrix::random_uniform(m, k, 1.0, &mut rng);
        let b = Matrix::random_uniform(k, base, 1.0, &mut rng);
        let label = format!("{m}x{k}x{base}");
        group.bench_with_input(BenchmarkId::new("parallel", &label), &label, |bch, _| {
            bch.iter(|| matmul(&a, &b))
        });
    }
    group.finish();
}

fn bench_dense_affine(c: &mut Criterion) {
    // The paper's SHL layers: the 1024 → 1024 hidden layer at serving batch
    // sizes 1 and 32, and the 1024 → 10 classifier at batch 32.
    let mut group = c.benchmark_group("dense_affine");
    for &(label, batch, out) in
        &[("hidden_b1", 1, 1024), ("hidden_b32", 32, 1024), ("classifier_b32", 32, 10)]
    {
        let mut rng = seeded_rng(3);
        let x = Matrix::random_uniform(batch, 1024, 1.0, &mut rng);
        let w = Matrix::random_uniform(out, 1024, 1.0, &mut rng);
        let panels = panel::pack(out, 1024, w.as_slice().iter().copied());
        let bias = vec![0.0; out];
        group.throughput(Throughput::Elements((2 * batch * out * 1024) as u64));
        group.bench_with_input(BenchmarkId::new("panel", label), &label, |bch, _| {
            bch.iter(|| panel::affine(&x, &panels, &bias))
        });
        group.bench_with_input(BenchmarkId::new("matmul_a_bt", label), &label, |bch, _| {
            bch.iter(|| matmul_a_bt(&x, &w))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_matmul_tiers, bench_skewed_shapes, bench_dense_affine
}
criterion_main!(benches);
