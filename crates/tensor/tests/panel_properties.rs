//! Bit-exactness of the panel-major `Dense` forward kernel: for every batch,
//! input width and output width — every panel tail width included — it
//! must reproduce `matmul_a_bt` of the row-major weight plus the bias, bit
//! for bit, and packing must round-trip.

use bfly_tensor::matmul::matmul_a_bt;
use bfly_tensor::{panel, seeded_rng, Matrix};
use proptest::{prop_assert_eq, proptest, ProptestConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn panel_affine_is_bit_identical_to_matmul_a_bt(
        batch in 0usize..=10,
        in_dim in 1usize..=70,
        out_dim in 1usize..=40,
        seed in 0u64..1_000_000,
    ) {
        // 10 stands for the serving batch of 32: eight full register tiles.
        let batch = if batch == 10 { 32 } else { batch };
        let mut rng = seeded_rng(seed);
        let x = Matrix::random_uniform(batch, in_dim, 1.0, &mut rng);
        let w = Matrix::random_uniform(out_dim, in_dim, 1.0, &mut rng);
        let bias = Matrix::random_uniform(1, out_dim, 1.0, &mut rng).into_vec();

        let panels = panel::pack(out_dim, in_dim, w.as_slice().iter().copied());
        prop_assert_eq!(panel::unpack(out_dim, in_dim, &panels), w.as_slice().to_vec());

        let mut expected = matmul_a_bt(&x, &w);
        for r in 0..batch {
            for (v, b) in expected.row_mut(r).iter_mut().zip(&bias) {
                *v += b;
            }
        }
        let got = panel::affine(&x, &panels, &bias);
        prop_assert_eq!(got.shape(), (batch, out_dim));
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&got), bits(&expected), "batch {} in {} out {}", batch, in_dim, out_dim);
    }
}
