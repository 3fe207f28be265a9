//! Table 5 — Parameter sweep for pixelfly on the IPU: vary one of
//! {butterfly size, block size, low-rank size} while holding the other two
//! fixed, for every combination of the fixed values; report the mean and
//! the maximum standard deviation of execution time, accuracy and N_Params.
//!
//! Expected shape (paper §5):
//! - low-rank size has the *smallest* influence on execution time (it runs
//!   as an AMP-friendly dense matmul) but the *largest* on accuracy;
//! - block size has the greatest impact on execution time;
//! - butterfly size has the biggest impact on the parameter count among the
//!   structured-term knobs;
//! - no configuration is optimal for all three metrics at once.
//!
//! Environment knobs: BFLY_SAMPLES (default 1500), BFLY_EPOCHS (default 4).

use bfly_bench::simtime::simulated_training_seconds;
use bfly_bench::{env_usize, format_table, mean_std};
use bfly_core::{build_shl, shl_param_count, Method, PixelflyConfig};
use bfly_data::{generate, split, SynthSpec};
use bfly_gpu::GpuDevice;
use bfly_ipu::IpuDevice;
use bfly_nn::{fit, Layer, TrainConfig};
use bfly_tensor::seeded_rng;

/// Metrics of one trained pixelfly configuration.
struct Outcome {
    time_s: f64,
    accuracy: f64,
    n_params: f64,
}

fn run_config(
    config: PixelflyConfig,
    data: &bfly_data::Dataset,
    epochs: usize,
    gpu: &GpuDevice,
    ipu: &IpuDevice,
) -> Option<Outcome> {
    let dim = 1024;
    let classes = 10;
    let batch = 50;
    let method = Method::Pixelfly(config);
    let mut rng = seeded_rng(11);
    let s = split(data.clone(), 0.2, 0.15, &mut rng);
    let mut model = build_shl(method, dim, classes, &mut rng).ok()?;
    let report = fit(&mut model, &s, &TrainConfig { epochs, seed: 12, ..TrainConfig::default() });
    let forward = model.trace(batch);
    let (_, _, t_ipu) =
        simulated_training_seconds(&forward, batch, dim, report.steps, epochs, gpu, ipu);
    Some(Outcome {
        time_s: t_ipu,
        accuracy: report.test_accuracy * 100.0,
        n_params: shl_param_count(method, dim, classes) as f64,
    })
}

/// For each combination of fixed parameters, sweeps the varied one and
/// returns `(overall mean per metric, max std per metric)` as in Table 5.
fn sweep(
    label: &str,
    combos: &[Vec<PixelflyConfig>],
    data: &bfly_data::Dataset,
    epochs: usize,
    gpu: &GpuDevice,
    ipu: &IpuDevice,
) -> Vec<Vec<String>> {
    let mut all_means = (Vec::new(), Vec::new(), Vec::new());
    let mut max_std = (0.0f64, 0.0f64, 0.0f64);
    for configs in combos {
        let outcomes: Vec<Outcome> =
            configs.iter().filter_map(|&c| run_config(c, data, epochs, gpu, ipu)).collect();
        if outcomes.len() < 2 {
            continue;
        }
        let times: Vec<f64> = outcomes.iter().map(|o| o.time_s).collect();
        let accs: Vec<f64> = outcomes.iter().map(|o| o.accuracy).collect();
        let params: Vec<f64> = outcomes.iter().map(|o| o.n_params).collect();
        let (tm, ts) = mean_std(&times);
        let (am, as_) = mean_std(&accs);
        let (pm, ps) = mean_std(&params);
        all_means.0.push(tm);
        all_means.1.push(am);
        all_means.2.push(pm);
        max_std.0 = max_std.0.max(ts);
        max_std.1 = max_std.1.max(as_);
        max_std.2 = max_std.2.max(ps);
    }
    let avg = |v: &[f64]| if v.is_empty() { 0.0 } else { v.iter().sum::<f64>() / v.len() as f64 };
    vec![
        vec![
            label.into(),
            "Time[s]".into(),
            format!("{:.3}", avg(&all_means.0)),
            format!("{:.3}", max_std.0),
        ],
        vec![
            String::new(),
            "Accuracy[%]".into(),
            format!("{:.1}", avg(&all_means.1)),
            format!("{:.1}", max_std.1),
        ],
        vec![
            String::new(),
            "N_Params".into(),
            format!("{:.0}", avg(&all_means.2)),
            format!("{:.0}", max_std.2),
        ],
    ]
}

fn main() {
    let samples = env_usize("BFLY_SAMPLES", 1500);
    let epochs = env_usize("BFLY_EPOCHS", 4);
    let gpu = GpuDevice::a30();
    let ipu = IpuDevice::gc200();
    let data = generate(&SynthSpec::cifar10_like(samples, 100));

    println!("Table 5: pixelfly parameter sweep on the IPU ({samples} samples, {epochs} epochs)\n");

    // Vary butterfly size; fixed: block in {8, 16, 32}, rank = 2.
    let bf_combos: Vec<Vec<PixelflyConfig>> = [8usize, 16, 32]
        .iter()
        .map(|&block| {
            let grid = 1024 / block;
            [2usize, 4, 8, 16, 32]
                .iter()
                .filter(|&&bf| bf <= grid)
                .map(|&bf| PixelflyConfig { block_size: block, butterfly_size: bf, rank: 2 })
                .collect()
        })
        .collect();

    // Vary block size; fixed: butterfly = 2, rank in {4, 64, 128}.
    let block_combos: Vec<Vec<PixelflyConfig>> = [4usize, 64, 128]
        .iter()
        .map(|&rank| {
            [4usize, 8, 16, 32, 64]
                .iter()
                .map(|&block| PixelflyConfig { block_size: block, butterfly_size: 2, rank })
                .collect()
        })
        .collect();

    // Vary low-rank size; fixed: (butterfly, block) in {(4,16), (8,8), (16,16)}.
    let rank_combos: Vec<Vec<PixelflyConfig>> = [(4usize, 16usize), (8, 8), (16, 16)]
        .iter()
        .map(|&(bf, block)| {
            [2usize, 4, 16, 64, 128]
                .iter()
                .map(|&rank| PixelflyConfig { block_size: block, butterfly_size: bf, rank })
                .collect()
        })
        .collect();

    let mut rows = Vec::new();
    rows.extend(sweep("butterfly var.", &bf_combos, &data, epochs, &gpu, &ipu));
    rows.extend(sweep("block var.", &block_combos, &data, epochs, &gpu, &ipu));
    rows.extend(sweep("low-rank var.", &rank_combos, &data, epochs, &gpu, &ipu));

    println!("{}", format_table(&["varied", "metric", "mean", "max std"], &rows));

    println!("paper (Table 5, means/stds over their combos):");
    println!("  butterfly var.: Time 372+-107, Acc 43.8+-2.2, N_Params 1064970+-326625");
    println!("  block var.    : Time 465+-192, Acc 38.9+-1.4, N_Params  81930+-184638");
    println!("  low-rank var. : Time 465+-18,  Acc 37.8+-2.7, N_Params 344074+-181317");
    println!();
    println!("shape checks (paper §5):");
    let std_of = |metric_rows: &[Vec<String>], idx: usize| -> f64 {
        metric_rows[idx][3].parse().unwrap_or(f64::NAN)
    };
    let time_stds = [std_of(&rows, 0), std_of(&rows, 3), std_of(&rows, 6)];
    println!(
        "  low-rank size has the smallest influence on time: {} (stds: bfly {:.3}, block {:.3}, rank {:.3})",
        if time_stds[2] <= time_stds[0] && time_stds[2] <= time_stds[1] { "CONFIRMED" } else { "DIFFERS" },
        time_stds[0], time_stds[1], time_stds[2]
    );
    let acc_stds = [std_of(&rows, 1), std_of(&rows, 4), std_of(&rows, 7)];
    println!(
        "  low-rank size has the biggest impact on accuracy: {} (stds: bfly {:.1}, block {:.1}, rank {:.1})",
        if acc_stds[2] >= acc_stds[0] && acc_stds[2] >= acc_stds[1] { "CONFIRMED" } else { "DIFFERS" },
        acc_stds[0], acc_stds[1], acc_stds[2]
    );
    println!("  (per §5, pick the configuration by the primary target — no single optimum.)");
}
