//! Ablation — multi-IPU data-parallel scaling (the paper's future work:
//! "scaling to multiple IPUs").
//!
//! Compares the dense SHL hidden layer against its butterfly replacement on
//! pods of 1..8 GC200s: per-step time and scaling efficiency. The butterfly
//! side has two advantages the model exposes: (1) its gradients are ~100x
//! smaller, so the ring allreduce is nearly free, and (2) the per-device
//! memory headroom lets much larger models scale at all.

use bfly_bench::format_table;
use bfly_core::butterfly_trace;
use bfly_ipu::multi::{data_parallel_step, PodSpec};
use bfly_tensor::LinOp;

fn dense_trace(n: usize) -> impl Fn(usize) -> Vec<LinOp> {
    move |batch| vec![LinOp::MatMul { m: batch, k: n, n }]
}

fn main() {
    let n = 8192usize;
    let global_batch = 4096usize;
    let dense_grad = (4 * n * n) as u64;
    let bfly_grad = (4 * (2 * n * n.trailing_zeros() as usize + n)) as u64;

    println!(
        "Ablation: data-parallel scaling, hidden dim {n}, global batch {global_batch}\n\
         gradients: dense {} MB vs butterfly {} KB\n",
        dense_grad / (1 << 20),
        bfly_grad / 1024
    );

    let mut rows = Vec::new();
    let mut dense_single = f64::NAN;
    let mut bfly_single = f64::NAN;
    for ipus in [1usize, 2, 4, 8] {
        let pod = PodSpec::with_ipus(ipus);
        let dense = data_parallel_step(&pod, global_batch, dense_grad, &dense_trace(n));
        let bfly = data_parallel_step(&pod, global_batch, bfly_grad, &|batch| {
            butterfly_trace(n, n, batch)
        })
        .expect("butterfly fits at every pod size");
        let (dense_cell, dense_eff) = match &dense {
            Ok(r) => {
                if ipus == 1 {
                    dense_single = r.total_seconds();
                }
                (
                    format!("{:.3} ms", r.total_seconds() * 1e3),
                    format!("{:.0}%", 100.0 * r.scaling_efficiency(dense_single)),
                )
            }
            // A per-device OOM is a real outcome: the dense layer at this
            // size only fits once the batch shards far enough.
            Err(_) => ("OOM".into(), "-".into()),
        };
        if ipus == 1 {
            bfly_single = bfly.total_seconds();
        }
        rows.push(vec![
            ipus.to_string(),
            dense_cell,
            dense_eff,
            format!("{:.3} ms", bfly.total_seconds() * 1e3),
            format!("{:.0}%", 100.0 * bfly.scaling_efficiency(bfly_single)),
        ]);
    }
    println!(
        "{}",
        format_table(&["IPUs", "dense step", "dense eff", "butterfly step", "bfly eff"], &rows)
    );
    println!(
        "shape: butterfly sustains near-linear scaling (tiny allreduce); the dense\n\
         layer loses efficiency to gradient synchronisation as devices are added."
    );
}
