//! Integration tests of the extension features built on top of the paper's
//! scope: orthogonal butterfly, pruned baseline, multi-IPU scaling, and
//! streaming memory.

use bfly_core::{build_shl, shl_param_count, Method, OrthoButterfly};
use bfly_data::split;
use bfly_ipu::multi::{data_parallel_step, PodSpec};
use bfly_ipu::streaming::{run_streaming, StreamingSpec};
use bfly_ipu::IpuDevice;
use bfly_nn::{fit, Layer, TrainConfig};
use bfly_tensor::{seeded_rng, LinOp, Matrix};

#[test]
fn ortho_butterfly_matches_paper_butterfly_budget() {
    // The decode of the paper's 16,390: rotation parametrization.
    let ours = shl_param_count(Method::OrthoButterfly, 1024, 10);
    assert_eq!(ours, 16_394);
    assert!(ours.abs_diff(16_390) <= 4);
}

#[test]
fn ortho_butterfly_trains_like_free_butterfly() {
    let spec = bfly_data::SynthSpec {
        dim: 64,
        num_classes: 4,
        samples: 400,
        latent_dim: 12,
        latent_noise: 0.5,
        pixel_noise: 0.1,
        seed: 21,
    };
    let data = bfly_data::generate(&spec);
    let mut rng = seeded_rng(22);
    let s = split(data, 0.2, 0.15, &mut rng);
    let config = TrainConfig { epochs: 15, lr: 0.02, seed: 23, ..TrainConfig::default() };
    let mut ortho = build_shl(Method::OrthoButterfly, 64, 4, &mut rng).expect("valid");
    let acc = fit(&mut ortho, &s, &config).test_accuracy;
    assert!(acc > 0.4, "ortho butterfly stuck at {acc}");
}

#[test]
fn ortho_operator_stays_orthogonal_through_training_updates() {
    // Rotations stay rotations under any angle update: the materialised
    // operator is orthogonal for *every* parameter setting.
    let mut rng = seeded_rng(24);
    let mut b = OrthoButterfly::random(16, &mut rng);
    for f in &mut b.factors {
        for a in &mut f.angles {
            *a += 0.37; // arbitrary "gradient step"
        }
    }
    let t = b.materialize();
    let gram = bfly_tensor::matmul(&t.transpose(), &t);
    assert!(gram.relative_error(&Matrix::identity(16)) < 1e-4);
}

#[test]
fn pruned_method_budget_tracks_density() {
    let lo = shl_param_count(Method::Pruned { density_permille: 10 }, 1024, 10);
    let hi = shl_param_count(Method::Pruned { density_permille: 100 }, 1024, 10);
    assert!(hi > 5 * lo);
    // And the built model agrees with the formula.
    let mut rng = seeded_rng(25);
    let model =
        build_shl(Method::Pruned { density_permille: 21 }, 1024, 10, &mut rng).expect("valid");
    assert_eq!(
        model.param_count(),
        shl_param_count(Method::Pruned { density_permille: 21 }, 1024, 10)
    );
}

#[test]
fn pod_scaling_helps_butterfly_more_than_dense() {
    let n = 4096usize;
    let dense_grad = (4 * n * n) as u64;
    let bfly_grad = (4 * (2 * n * n.trailing_zeros() as usize)) as u64;
    let dense_tr = move |batch: usize| vec![LinOp::MatMul { m: batch, k: n, n }];
    let bfly_tr = move |batch: usize| {
        let mut ops = vec![LinOp::Permute { rows: batch, width: n }];
        for _ in 0..n.trailing_zeros() {
            ops.push(LinOp::Twiddle { pairs: n / 2, batch });
        }
        ops
    };
    let eff = |grad: u64, tr: &dyn Fn(usize) -> Vec<LinOp>| {
        let single = data_parallel_step(&PodSpec::with_ipus(1), 2048, grad, tr)
            .expect("fits")
            .total_seconds();
        data_parallel_step(&PodSpec::m2000(), 2048, grad, tr)
            .expect("fits")
            .scaling_efficiency(single)
    };
    let e_dense = eff(dense_grad, &dense_tr);
    let e_bfly = eff(bfly_grad, &bfly_tr);
    assert!(e_bfly > e_dense, "butterfly {e_bfly} should out-scale dense {e_dense}");
}

#[test]
fn streaming_keeps_butterfly_on_chip_where_dense_spills() {
    let ipu = IpuDevice::gc200();
    let streaming = StreamingSpec::m2000();
    let n = 16384usize;
    let batch = 256usize;
    let dense = run_streaming(&[LinOp::MatMul { m: batch, k: n, n }], ipu.spec(), &streaming)
        .expect("streams");
    assert!(!dense.fully_resident, "1 GB of dense weights cannot be resident");
    let mut bfly = vec![LinOp::Permute { rows: batch, width: n }];
    for _ in 0..n.trailing_zeros() {
        bfly.push(LinOp::Twiddle { pairs: n / 2, batch });
    }
    let b = run_streaming(&bfly, ipu.spec(), &streaming).expect("resident");
    assert!(b.fully_resident, "butterfly weights must stay on chip");
    assert!(b.seconds() < dense.seconds(), "resident butterfly must beat streamed dense");
}
