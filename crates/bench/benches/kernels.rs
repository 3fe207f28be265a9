//! Wall-clock Criterion benchmarks of the butterfly kernels themselves:
//! the O(n log n) butterfly apply versus the O(n^2) dense product it
//! replaces, plus the pixelfly block-sparse product and full training
//! steps of the butterfly and pixelfly layers.

use bfly_bench::legacy::{legacy_backward, legacy_forward, LegacyButterfly};
use bfly_core::{
    flat_butterfly_mask, fused_backward, fused_forward_train, BlockSparseMatrix, Butterfly,
};
use bfly_tensor::{matmul::matmul_a_bt, seeded_rng, Matrix, Scratch};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_butterfly_vs_dense(c: &mut Criterion) {
    let mut group = c.benchmark_group("butterfly_vs_dense_apply");
    for &n in &[256usize, 1024, 4096] {
        let mut rng = seeded_rng(1);
        let butterfly = Butterfly::random(n, &mut rng);
        let dense = Matrix::random_uniform(n, n, 1.0, &mut rng);
        let batch = Matrix::random_uniform(16, n, 1.0, &mut rng);
        group.throughput(Throughput::Elements((16 * n) as u64));
        group.bench_with_input(BenchmarkId::new("butterfly", n), &n, |b, _| {
            b.iter(|| butterfly.apply_batch(&batch))
        });
        group.bench_with_input(BenchmarkId::new("dense", n), &n, |b, _| {
            b.iter(|| matmul_a_bt(&batch, &dense))
        });
    }
    group.finish();
}

fn bench_block_sparse(c: &mut Criterion) {
    let mut group = c.benchmark_group("pixelfly_block_sparse");
    for &n in &[1024usize, 4096] {
        let mut rng = seeded_rng(2);
        let block = 32;
        let mask = flat_butterfly_mask(n / block, 8);
        let w = BlockSparseMatrix::random(n, n, block, mask, &mut rng);
        let x = Matrix::random_uniform(16, n, 1.0, &mut rng);
        group.throughput(Throughput::Elements(w.nnz() as u64));
        group.bench_with_input(BenchmarkId::new("block_spmm", n), &n, |b, _| {
            b.iter(|| w.matmul_batch(&x))
        });
    }
    group.finish();
}

fn bench_butterfly_train_step(c: &mut Criterion) {
    use bfly_core::ButterflyLayer;
    use bfly_nn::Layer;
    let mut group = c.benchmark_group("butterfly_train_step");
    let n = 1024usize;
    let mut rng = seeded_rng(3);
    let mut layer = ButterflyLayer::new(n, n, &mut rng);
    let x = Matrix::random_uniform(50, n, 1.0, &mut rng);
    group.bench_with_input(BenchmarkId::new("fwd_bwd", n), &n, |b, _| {
        b.iter(|| {
            let y = layer.forward(&x, true);
            layer.zero_grad();
            layer.backward(&y)
        })
    });
    group.finish();
}

/// The paper-default pixelfly layer (block 32, butterfly size 8, rank 128)
/// at n = 1024: the training forward alone, forward + backward at the
/// Table 3 batch of 50, and the serving forward at batch 1 and 32.
fn bench_pixelfly_train_step(c: &mut Criterion) {
    use bfly_core::{PixelflyConfig, PixelflyLayer};
    use bfly_nn::Layer;
    let mut group = c.benchmark_group("pixelfly_train_step");
    let n = 1024usize;
    let mut rng = seeded_rng(5);
    let mut layer = PixelflyLayer::new(n, n, PixelflyConfig::paper_default(), &mut rng)
        .expect("paper-default pixelfly is valid at n = 1024");
    let x = Matrix::random_uniform(50, n, 1.0, &mut rng);
    group.bench_with_input(BenchmarkId::new("forward_train", n), &n, |b, _| {
        b.iter(|| layer.forward(&x, true))
    });
    group.bench_with_input(BenchmarkId::new("fwd_bwd", n), &n, |b, _| {
        b.iter(|| {
            let y = layer.forward(&x, true);
            layer.zero_grad();
            layer.backward(&y)
        })
    });
    let mut scratch = Scratch::new();
    for batch in [1usize, 32] {
        let x = Matrix::random_uniform(batch, n, 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::new("forward_inference", batch), &batch, |b, _| {
            b.iter(|| layer.forward_inference(&x, &mut scratch))
        });
    }
    group.finish();
}

/// The fused stage-major kernels against the pre-fusion reference path
/// (`bfly_bench::legacy`) on identical inputs: training forward with stage
/// caching, and the backward pass. `bench_kernels` (the binary) covers the
/// full (n, batch) grid; this group keeps one representative point under
/// Criterion's statistics.
fn bench_fused_vs_legacy(c: &mut Criterion) {
    let mut group = c.benchmark_group("fused_vs_legacy");
    let n = 1024usize;
    let batch = 32usize;
    let mut rng = seeded_rng(4);
    let b = Butterfly::random(n, &mut rng);
    let mut lb = LegacyButterfly::from_butterfly(&b);
    let x = Matrix::random_uniform(batch, n, 1.0, &mut rng);
    let bias = vec![0.01f32; n];
    group.throughput(Throughput::Elements((batch * n) as u64));
    group.bench_with_input(BenchmarkId::new("forward_train_legacy", n), &n, |bch, _| {
        bch.iter(|| legacy_forward(&mut lb, &x, &bias, n, true))
    });
    let mut scratch = Scratch::new();
    let mut arena = Vec::new();
    group.bench_with_input(BenchmarkId::new("forward_train_fused", n), &n, |bch, _| {
        bch.iter(|| fused_forward_train(&x, &b.perm, &b.factors, &bias, &mut arena, &mut scratch))
    });
    let (y, cache) = legacy_forward(&mut lb, &x, &bias, n, true);
    let _ = fused_forward_train(&x, &b.perm, &b.factors, &bias, &mut arena, &mut scratch);
    let mut legacy_gt: Vec<Vec<f32>> =
        b.factors.iter().map(|f| vec![0.0; f.twiddles.len()]).collect();
    group.bench_with_input(BenchmarkId::new("backward_legacy", n), &n, |bch, _| {
        bch.iter(|| legacy_backward(&lb, &y, &cache, n, &mut legacy_gt))
    });
    let mut fused_gt: Vec<Vec<f32>> =
        b.factors.iter().map(|f| vec![0.0; f.twiddles.len()]).collect();
    group.bench_with_input(BenchmarkId::new("backward_fused", n), &n, |bch, _| {
        bch.iter(|| {
            fused_backward(&y, &b.perm, &b.factors, &arena, n, |s, flat| {
                for (acc, v) in fused_gt[s].iter_mut().zip(flat) {
                    *acc += v;
                }
            })
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_butterfly_vs_dense, bench_block_sparse, bench_butterfly_train_step,
        bench_pixelfly_train_step, bench_fused_vs_legacy
}
criterion_main!(benches);
