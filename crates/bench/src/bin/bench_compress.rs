//! bench_compress — the offline compress → deploy → serve pipeline,
//! measured.
//!
//! Two measurements, one JSON:
//!
//! 1. **Compression frontier.** For each dense-MLP depth, train the model
//!    on the synthetic task, compress it layer-by-layer with the
//!    deterministic hierarchical sweep (`compress_model`), fine-tune the
//!    compressed stack briefly, and record parameter compression against
//!    end-task accuracy delta. A per-layer error-budget row shows the
//!    budget semantics: a tight budget rejects every unstructured hidden
//!    layer and degenerates to the identity rewrite (ratio 1.0, delta 0).
//! 2. **Serve throughput at equal offered load.** The trained dense stack
//!    and its compressed twin are deployed as prebuilt models into
//!    separate, identically configured servers over the simulated pod, and
//!    the same seeded closed-loop workload is offered to each: wall and
//!    simulated-device throughput, tail latency, and resident weight bytes
//!    side by side.
//!
//! `--smoke` runs a tiny sweep for CI and skips the JSON write so
//! checked-in numbers always come from a full run.

use bfly_bench::json::write_bench_json;
use bfly_bench::{format_table, smoke_run};
use bfly_core::{compress_model, Method, ModelCompressConfig};
use bfly_data::{generate, split, Split, SynthSpec};
use bfly_nn::{build_dense_mlp, evaluate, fit, Sequential, TrainConfig};
use bfly_serve::{Arrivals, CacheConfig, LoadPlan, PrebuiltModel, ServeConfig, Server};
use bfly_tensor::seeded_rng;
use serde::Serialize;
use std::time::Duration;

const CLASSES: usize = 10;
/// Fine-tuning learning rate of the compressed stack.
const FT_LR: f64 = 0.01;
/// Pod size both served models run on.
const REPLICAS: usize = 4;

#[derive(Serialize)]
struct FrontierPoint {
    hidden_layers: usize,
    /// Per-layer relative-error budget the sweep ran under.
    error_budget: f32,
    dense_params: usize,
    compressed_params: usize,
    compression_ratio: f64,
    compressed_layer_count: usize,
    /// Worst per-layer fit error among the replaced layers.
    worst_layer_error: f32,
    dense_accuracy: f64,
    /// Accuracy straight after projection, before any fine-tuning.
    projected_accuracy: f64,
    /// Accuracy after fine-tuning the compressed stack.
    compressed_accuracy: f64,
    /// compressed − dense, percentage points (negative = loss).
    accuracy_delta_pts: f64,
    /// ≥ 4x parameter compression at ≤ 2 points accuracy loss.
    meets_bar: bool,
}

#[derive(Serialize)]
struct ServeStats {
    model: String,
    weight_bytes: u64,
    completed: u64,
    wall_throughput_rps: f64,
    sim_throughput_rps: f64,
    pod_makespan_us: f64,
    latency_p50_us: u64,
    latency_p99_us: u64,
    mean_batch: f64,
}

#[derive(Serialize)]
struct BenchOutput {
    dim: usize,
    classes: usize,
    samples: usize,
    train_epochs: usize,
    finetune_epochs: usize,
    finetune_lr: f64,
    algo: String,
    serve_clients: u64,
    serve_per_client: u64,
    serve_replicas: usize,
    frontier: Vec<FrontierPoint>,
    serve: Vec<ServeStats>,
}

struct Task {
    dim: usize,
    split: Split,
    train_epochs: usize,
    ft_epochs: usize,
}

/// Trains the dense stack, compresses under `budget`, fine-tunes, and
/// returns the frontier point plus both stacks (dense, compressed).
fn frontier_point(
    task: &Task,
    hidden_layers: usize,
    budget: f32,
) -> (FrontierPoint, Sequential, Sequential) {
    let hidden = vec![task.dim; hidden_layers];
    let mut rng = seeded_rng(60 + hidden_layers as u64);
    let mut dense = build_dense_mlp(task.dim, &hidden, CLASSES, &mut rng);
    let report = fit(
        &mut dense,
        &task.split,
        &TrainConfig { epochs: task.train_epochs, seed: 61, ..TrainConfig::default() },
    );
    let dense_accuracy = report.test_accuracy;

    let config = ModelCompressConfig { max_operator_error: budget, ..Default::default() };
    let result = compress_model(&dense, &config, &mut rng).expect("dense MLPs are supported");
    let ratio = result.compression_ratio();
    let worst = result.worst_layer_error();
    let replaced = result.compressed_layer_count();
    let (dense_params, compressed_params) = (result.dense_params, result.compressed_params);
    let mut compressed = result.model;

    let projected_accuracy = evaluate(&mut compressed, &task.split.test);
    let compressed_accuracy = if replaced > 0 {
        fit(
            &mut compressed,
            &task.split,
            &TrainConfig {
                epochs: task.ft_epochs,
                lr: FT_LR as f32,
                seed: 62,
                ..TrainConfig::default()
            },
        )
        .test_accuracy
    } else {
        // Nothing was rewritten: the stack is the dense original.
        projected_accuracy
    };
    let delta = (compressed_accuracy - dense_accuracy) * 100.0;
    let point = FrontierPoint {
        hidden_layers,
        error_budget: budget,
        dense_params,
        compressed_params,
        compression_ratio: ratio,
        compressed_layer_count: replaced,
        worst_layer_error: worst,
        dense_accuracy,
        projected_accuracy,
        compressed_accuracy,
        accuracy_delta_pts: delta,
        meets_bar: ratio >= 4.0 && delta >= -2.0,
    };
    (point, dense, compressed)
}

/// Offers the same seeded closed-loop workload to one prebuilt model on a
/// fresh single-model server.
fn serve_once(
    task: &Task,
    name: &str,
    method: Method,
    stack: Sequential,
    clients: u64,
    per_client: u64,
) -> ServeStats {
    let config = ServeConfig {
        dim: task.dim,
        classes: CLASSES,
        seed: 63,
        max_batch: 32,
        max_wait: Duration::from_micros(200),
        queue_capacity: (clients as usize * 4).max(256),
        workers: 2,
        // Cache off: every request computes, so throughput is honest.
        cache: CacheConfig::disabled(),
        replicas: REPLICAS,
        ..Default::default()
    };
    let server =
        Server::start(config, [PrebuiltModel::new(name, method, stack)]).expect("prebuilt fleet");
    let arrivals = Arrivals::Closed { clients, per_client };
    let models = vec![name.to_string()];
    let load = LoadPlan { models, arrivals, seed: 64, pool: 64, slo_sim_us: None }.run(&server);
    let snapshot = server.shutdown();
    let makespan = snapshot.pod_makespan_us;
    ServeStats {
        model: name.to_string(),
        weight_bytes: snapshot.models.iter().map(|m| m.weight_bytes).sum(),
        completed: load.completed,
        wall_throughput_rps: load.throughput_rps,
        sim_throughput_rps: if makespan > 0.0 {
            load.completed as f64 / (makespan / 1e6)
        } else {
            0.0
        },
        pod_makespan_us: makespan,
        latency_p50_us: load.latency_p50_us,
        latency_p99_us: load.latency_p99_us,
        mean_batch: load.mean_batch,
    }
}

fn main() {
    let smoke = smoke_run();
    let dim: usize = if smoke { 64 } else { 256 };
    let samples: usize = if smoke { 600 } else { 2400 };
    let train_epochs: usize = if smoke { 3 } else { 10 };
    let ft_epochs: usize = if smoke { 5 } else { 30 };
    let clients: u64 = if smoke { 4 } else { 16 };
    let per_client: u64 = if smoke { 25 } else { 250 };

    let spec = SynthSpec {
        dim,
        num_classes: CLASSES,
        samples,
        latent_dim: 24.min(dim / 2),
        latent_noise: 1.2,
        pixel_noise: 0.2,
        seed: 58,
    };
    let data = generate(&spec);
    let mut rng = seeded_rng(59);
    let task = Task { dim, split: split(data, 0.2, 0.15, &mut rng), train_epochs, ft_epochs };

    // Frontier: depth sweep under the permissive budget, plus one
    // tight-budget row demonstrating the budget semantics. The depth-2
    // stacks from the last permissive row are kept for the serve phase.
    let depth_points: Vec<(usize, f32)> =
        if smoke { vec![(1, 1.0), (1, 0.5)] } else { vec![(1, 1.0), (2, 1.0), (2, 0.5)] };
    let serve_depth = if smoke { 1 } else { 2 };
    let mut frontier = Vec::new();
    let mut serve_stacks: Option<(Sequential, Sequential)> = None;
    for (depth, budget) in depth_points {
        println!("frontier: {depth} hidden layer(s), error budget {budget} ...");
        let (point, dense, compressed) = frontier_point(&task, depth, budget);
        println!(
            "  {:.1}x compression, dense {:.2}% -> compressed {:.2}% ({:+.2} pts){}",
            point.compression_ratio,
            point.dense_accuracy * 100.0,
            point.compressed_accuracy * 100.0,
            point.accuracy_delta_pts,
            if point.meets_bar { "  [meets >=4x @ <=2pt bar]" } else { "" }
        );
        if depth == serve_depth && budget == 1.0 {
            serve_stacks = Some((dense, compressed));
        }
        frontier.push(point);
    }

    let rows: Vec<Vec<String>> = frontier
        .iter()
        .map(|p| {
            vec![
                p.hidden_layers.to_string(),
                format!("{:.2}", p.error_budget),
                p.dense_params.to_string(),
                p.compressed_params.to_string(),
                format!("{:.1}x", p.compression_ratio),
                format!("{:.2}", p.dense_accuracy * 100.0),
                format!("{:.2}", p.projected_accuracy * 100.0),
                format!("{:.2}", p.compressed_accuracy * 100.0),
                format!("{:+.2}", p.accuracy_delta_pts),
                if p.meets_bar { "yes" } else { "no" }.to_string(),
            ]
        })
        .collect();
    println!();
    println!(
        "{}",
        format_table(
            &[
                "hidden", "budget", "dense-p", "comp-p", "ratio", "dense%", "proj%", "tuned%",
                "delta", "bar"
            ],
            &rows
        )
    );

    // Serve: identical offered load at the dense stack and its compressed
    // twin, separate but identically configured servers.
    let (dense, compressed) = serve_stacks.expect("serve depth is always in the sweep");
    println!("serving dense vs compressed at equal offered load ({clients}x{per_client})...");
    let serve = vec![
        serve_once(&task, "mlp-dense", Method::Baseline, dense, clients, per_client),
        serve_once(&task, "mlp-butterfly", Method::Butterfly, compressed, clients, per_client),
    ];
    let srows: Vec<Vec<String>> = serve
        .iter()
        .map(|s| {
            vec![
                s.model.clone(),
                format!("{}", s.weight_bytes / 1024),
                s.completed.to_string(),
                format!("{:.0}", s.wall_throughput_rps),
                format!("{:.0}", s.sim_throughput_rps),
                s.latency_p50_us.to_string(),
                s.latency_p99_us.to_string(),
            ]
        })
        .collect();
    println!();
    println!(
        "{}",
        format_table(
            &["model", "KiB", "completed", "wall-rps", "sim-rps", "p50us", "p99us"],
            &srows
        )
    );
    if let [d, b] = serve.as_slice() {
        if d.wall_throughput_rps > 0.0 {
            println!(
                "compressed serves {:.2}x the dense throughput at {:.1}x fewer resident bytes",
                b.wall_throughput_rps / d.wall_throughput_rps,
                d.weight_bytes as f64 / b.weight_bytes.max(1) as f64
            );
        }
    }

    let output = BenchOutput {
        dim,
        classes: CLASSES,
        samples,
        train_epochs,
        finetune_epochs: ft_epochs,
        finetune_lr: FT_LR,
        algo: "hierarchical".to_string(),
        serve_clients: clients,
        serve_per_client: per_client,
        serve_replicas: REPLICAS,
        frontier,
        serve,
    };
    write_bench_json("compress", &output, smoke);
}
