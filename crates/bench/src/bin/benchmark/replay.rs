//! Isolated replays of one SHL's layers: host `forward_inference` time per
//! layer, the hidden layer's computed work, and what the IPU and GPU
//! simulators predict for its `trace()`. Simulated values are device time
//! from a cost model, never wall time, and are labelled `sim_us`.

use crate::report::Metric;
use crate::spec::DIM;
use crate::stats::median;
use bfly_bench::simtime::simulated_training_seconds;
use bfly_gpu::GpuDevice;
use bfly_ipu::IpuDevice;
use bfly_nn::{Layer, Sequential};
use bfly_tensor::ops::{trace_bytes, trace_flops};
use bfly_tensor::{derived_rng, Matrix, Scratch};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median per-call µs of `f`, timed in batches of calls lasting about a
/// millisecond each, for at least `budget` and at least three batches.
pub fn time_us(budget: Duration, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let once = t.elapsed().as_nanos().max(1);
    let calls = (1_000_000 / once).clamp(1, 10_000) as u32;
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..calls {
            f();
        }
        samples.push(t.elapsed().as_secs_f64() * 1e6 / calls as f64);
    }
    median(&samples)
}

/// Replays `model` (hidden → ReLU → classifier) layer by layer.
pub fn layers(model: &Sequential, seed: u64, budget: Duration) -> Result<Vec<Metric>, String> {
    let [hidden, relu, classifier] = model.layers() else {
        return Err(format!("expected a 3-layer SHL, got {} layers", model.len()));
    };
    let x32 = Matrix::random_uniform(32, DIM, 1.0, &mut derived_rng(seed, 23));
    let x1 = Matrix::from_vec(1, DIM, x32.row(0).to_vec());
    let mut scratch = Scratch::new();
    let h32 = relu.forward_inference(&hidden.forward_inference(&x32, &mut scratch), &mut scratch);
    let mut fwd = |layer: &dyn Layer, x: &Matrix| {
        time_us(budget, || {
            black_box(layer.forward_inference(black_box(x), &mut scratch));
        })
    };
    let mut out = vec![
        Metric::one("kernels.hidden.fwd_us.b1", "us", fwd(hidden.as_ref(), &x1)),
        Metric::one("kernels.hidden.fwd_us.b32", "us", fwd(hidden.as_ref(), &x32)),
        Metric::one("kernels.classifier.fwd_us.b32", "us", fwd(classifier.as_ref(), &h32)),
    ];

    // Computed from the trace, not measured: what the hidden layer must do.
    let trace = hidden.trace(32);
    out.push(Metric::one("kernels.hidden.flops.b32", "flop", trace_flops(&trace)));
    out.push(Metric::one("kernels.hidden.bytes.b32", "bytes", trace_bytes(&trace) as f64));

    let ipu = IpuDevice::gc200();
    let gpu = GpuDevice::a30();
    let run = ipu.run(&trace).map_err(|e| format!("IPU simulator rejected the trace: {e:?}"))?;
    let exec = &run.execution;
    out.push(Metric::one("ipu_sim.hidden.us.b32", "sim_us", run.seconds(ipu.spec()) * 1e6));
    out.push(Metric::one(
        "ipu_sim.hidden.compute_cycles.b32",
        "cycles",
        exec.compute_cycles as f64,
    ));
    out.push(Metric::one(
        "ipu_sim.hidden.exchange_cycles.b32",
        "cycles",
        exec.exchange_cycles as f64,
    ));
    out.push(Metric::one(
        "ipu_sim.hidden.overhead_cycles.b32",
        "cycles",
        exec.overhead_cycles as f64,
    ));
    let gpu_run = gpu.run(&trace, false).map_err(|e| format!("GPU simulator: {e:?}"))?;
    out.push(Metric::one("gpu_sim.hidden.us.b32", "sim_us", gpu_run.seconds() * 1e6));

    // One training step of the whole model at the paper's batch of 50.
    let (_, gpu_step, ipu_step) =
        simulated_training_seconds(&model.trace(50), 50, DIM, 1, 0, &gpu, &ipu);
    out.push(Metric::one("ipu_sim.train_step_us", "sim_us", ipu_step * 1e6));
    out.push(Metric::one("gpu_sim.train_step_us", "sim_us", gpu_step * 1e6));
    Ok(out)
}
