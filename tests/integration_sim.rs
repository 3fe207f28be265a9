//! Cross-crate integration tests of the device simulators driven by real
//! layer traces: the qualitative claims of the paper's evaluation must hold
//! as executable properties.

use bfly_core::{ButterflyLayer, OrthoButterflyLayer, PixelflyConfig, PixelflyLayer};
use bfly_gpu::GpuDevice;
use bfly_ipu::IpuDevice;
use bfly_nn::{Dense, Layer};
use bfly_tensor::{seeded_rng, LinOp};

/// Dense-layer trace built without materialising the (potentially
/// multi-gigabyte) weight matrix — identical to `Dense::trace`, asserted in
/// `layer_traces_match_direct_construction`.
fn dense_trace(n: usize, batch: usize) -> Vec<LinOp> {
    vec![LinOp::MatMul { m: batch, k: n, n }]
}

/// Butterfly-layer trace built without allocating twiddles — identical to
/// the `trace` of both butterfly layers for power-of-two `n`.
fn butterfly_trace(n: usize, batch: usize) -> Vec<LinOp> {
    assert!(n.is_power_of_two());
    let mut ops = vec![LinOp::Permute { rows: batch, width: n }];
    for _ in 0..n.trailing_zeros() {
        ops.push(LinOp::Twiddle { pairs: n / 2, batch });
    }
    ops.push(LinOp::Elementwise { n: batch * n, flops_per_elem: 1 });
    ops
}

#[test]
fn layer_traces_match_direct_construction() {
    let mut rng = seeded_rng(1);
    assert_eq!(Dense::new(256, 256, &mut rng).trace(32), dense_trace(256, 32));
    assert_eq!(ButterflyLayer::new(256, 256, &mut rng).trace(32), butterfly_trace(256, 32));
    assert_eq!(OrthoButterflyLayer::new(256, 256, &mut rng).trace(32), butterfly_trace(256, 32));
}

#[test]
fn gpu_butterfly_is_launch_bound_small_and_wins_large() {
    // Fig 6 GPU shape: butterfly much slower at N=2^7, faster at N=2^13.
    let gpu = GpuDevice::a30();
    let small_dense = gpu.run(&dense_trace(128, 128), false).expect("fits").seconds();
    let small_bfly = gpu.run(&butterfly_trace(128, 128), false).expect("fits").seconds();
    assert!(small_bfly > 4.0 * small_dense, "{small_bfly} vs {small_dense}");

    let large_dense = gpu.run(&dense_trace(8192, 8192), false).expect("fits").seconds();
    let large_bfly = gpu.run(&butterfly_trace(8192, 8192), false).expect("fits").seconds();
    assert!(large_bfly < large_dense, "{large_bfly} vs {large_dense}");
}

#[test]
fn ipu_speedups_are_modest_in_both_directions() {
    // Fig 6 IPU shape: worst degradation and max speedup both within ~2x —
    // the AMP units accelerate only the dense layer, and host I/O flattens
    // the curves.
    let ipu = IpuDevice::gc200();
    for e in [8u32, 10, 12] {
        let n = 1usize << e;
        let host = (4 * n * n) as u64;
        let dense = ipu.run_with_host_io(&dense_trace(n, n), host).expect("fits");
        let bfly = ipu.run_with_host_io(&butterfly_trace(n, n), host).expect("fits");
        let ratio = dense.seconds(ipu.spec()) / bfly.seconds(ipu.spec());
        assert!(
            (0.3..=2.5).contains(&ratio),
            "IPU butterfly speedup {ratio} out of band at N=2^{e}"
        );
    }
}

#[test]
fn ipu_dense_beats_gpu_dense_on_chip() {
    // Table 2: IPU poplin 44219 vs GPU cublas 9722 GFLOP/s.
    let gpu = GpuDevice::a30();
    let ipu = IpuDevice::gc200();
    let trace = dense_trace(2048, 2048);
    let g = gpu.run(&trace, false).expect("fits").seconds();
    let i = ipu.run(&trace).expect("fits").seconds(ipu.spec());
    assert!(i < g / 2.0, "IPU {i} should be well ahead of GPU {g}");
}

#[test]
fn tensor_cores_close_most_of_the_gap() {
    let gpu = GpuDevice::a30();
    let ipu = IpuDevice::gc200();
    let trace = dense_trace(2048, 2048);
    let g_tc = gpu.run(&trace, true).expect("fits").seconds();
    let i = ipu.run(&trace).expect("fits").seconds(ipu.spec());
    let ratio = g_tc / i;
    assert!((0.3..=3.0).contains(&ratio), "TC-on ratio {ratio} out of band");
}

#[test]
fn sparse_effective_gflops_exceed_peak_at_99_percent() {
    // Table 2's bold entries: dense-equivalent throughput above peak.
    let ipu = IpuDevice::gc200();
    let n = 2048;
    let dense_flops = 2.0 * (n as f64).powi(3);
    let sp = LinOp::SpMM { m: n, k: n, n, nnz: n * n / 100 };
    let eff = ipu.run(&[sp]).expect("fits").effective_gflops(dense_flops, ipu.spec());
    assert!(eff > 62_500.0, "popsparse-99% effective {eff} GFLOP/s should exceed peak");

    let gpu = GpuDevice::a30();
    let eff_gpu = gpu.run(&[sp], false).expect("fits").effective_gflops(dense_flops);
    assert!(eff_gpu > 10_300.0, "cusparse-99% effective {eff_gpu} should exceed FP32 peak");
}

#[test]
fn butterfly_survives_sizes_where_dense_ooms() {
    let ipu = IpuDevice::gc200();
    let n = 16384;
    let batch = 2048;
    assert!(ipu.run(&dense_trace(n, batch)).is_err(), "dense must OOM at {n}");
    assert!(ipu.run(&butterfly_trace(n, batch)).is_ok(), "butterfly must fit at {n}");
}

#[test]
fn pixelfly_memory_sits_between_dense_and_butterfly() {
    // Weight-dominated regime (small batch): the memory ordering of Table 4
    // parameter budgets must show up in compiled on-chip footprints too.
    let ipu = IpuDevice::gc200();
    let mut rng = seeded_rng(3);
    let n = 2048;
    let batch = 16;
    let config = PixelflyConfig { block_size: 32, butterfly_size: 8, rank: 64 };
    let pixel_trace = PixelflyLayer::new(n, n, config, &mut rng).expect("valid").trace(batch);
    let dense = ipu.run(&dense_trace(n, batch)).expect("fits").compiled.memory.data_bytes;
    let bfly = ipu.run(&butterfly_trace(n, batch)).expect("fits").compiled.memory.data_bytes;
    let pixel = ipu.run(&pixel_trace).expect("fits").compiled.memory.data_bytes;
    assert!(bfly < pixel && pixel < dense, "bfly {bfly} < pixel {pixel} < dense {dense}");
}

#[test]
fn compute_sets_scale_with_butterfly_depth() {
    // Fig 7: one compute set per factor.
    let ipu = IpuDevice::gc200();
    let cs_at =
        |n: usize| ipu.run(&butterfly_trace(n, 64)).expect("fits").compiled.memory.compute_sets;
    let small = cs_at(256); // 8 factors
    let large = cs_at(4096); // 12 factors
    assert_eq!(large - small, 4, "compute sets must grow one per factor");
}

#[test]
fn gpu_oom_hits_dense_before_butterfly() {
    // Fig 6: "torch.nn.Linear ... reaches its limit earlier due to memory
    // limitations" (on the GPU's 24 GB).
    let gpu = GpuDevice::a30();
    let n = 49152;
    assert!(gpu.run(&dense_trace(n, n), false).is_err());
    assert!(gpu.run(&butterfly_trace(32768, 32768), false).is_ok());
}
