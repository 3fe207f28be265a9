//! The workloads and the metric contract.
//!
//! `BENCHMARK.json` at the repository root names the workloads and every
//! metric with its unit, direction and regression bound. It is compiled in,
//! so the binary and the file cannot drift apart: the workload table below
//! must list exactly its workloads, and every run must emit every metric it
//! names.

use crate::json;
use bfly_core::{Method, PixelflyConfig};
use std::sync::OnceLock;

/// The benchmark contract, as committed at the repository root.
pub const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// Input dimension and classes of the paper's SHL (Table 4 shape).
pub const DIM: usize = 1024;
/// Output classes of the SHL.
pub const CLASSES: usize = 10;

/// Largest share of requests (or training steps) that may fail before a run
/// counts as incorrect.
pub const MAX_FAIL_FRAC: f64 = 0.001;

/// Metrics the compare mode also rates, with absolute bounds:
/// `(name, bound, higher_is_better)`. They stay out of `BENCHMARK.json`,
/// whose end-to-end metrics every workload must emit and none may read 0:
/// `fail_frac` reads 0 when all is well, and only training has a `test_acc`.
pub const ABSOLUTE_GATES: [(&str, f64, bool); 2] =
    [("fail_frac", MAX_FAIL_FRAC, false), ("test_acc", 0.005, true)];

/// One metric the contract names.
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Relative regression bound; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

/// The parsed contract.
pub struct Contract {
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

/// The contract compiled into this binary.
pub fn contract() -> &'static Contract {
    static CONTRACT: OnceLock<Contract> = OnceLock::new();
    CONTRACT.get_or_init(|| parse_contract(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed"))
}

fn parse_contract(text: &str) -> Result<Contract, String> {
    let doc = json::parse(text)?;
    let field = |key: &str| json::get(&doc, key).ok_or(format!("BENCHMARK.json lacks {key}"));
    let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
        json::items(field(key)?)
            .iter()
            .map(|m| {
                let text = |k: &str| {
                    json::get(m, k).and_then(json::as_str).map(str::to_string).ok_or(k.to_string())
                };
                Ok(MetricSpec {
                    name: text("name")?,
                    unit: text("unit")?,
                    higher_is_better: text("better")? == "higher",
                    bound: json::get(m, "bound").and_then(json::as_f64),
                })
            })
            .collect()
    };
    Ok(Contract {
        run_seconds: json::as_f64(field("run_seconds")?).ok_or("run_seconds is not a number")?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// A serving workload: one SHL behind the framed ingress.
#[derive(Clone)]
pub struct ServeSpec {
    pub method: Method,
    /// Open-loop Poisson arrival rate.
    pub rate_rps: f64,
    /// Requests outstanding in the closed loop, split over two connections.
    pub window: usize,
    /// Closed-loop replies slower than this do not count toward capacity.
    pub limit_ms: f64,
    /// Distinct hot rows every request is drawn from; 0 sends unique rows.
    pub hot_rows: usize,
}

/// A training workload: `fit` on cifar10-like data with Table 3 settings.
pub struct TrainSpec {
    pub method: Method,
    pub samples: usize,
    pub epochs: usize,
    pub max_trials: usize,
    /// Model-init seed, fixed per workload so every trial and every run
    /// starts from the same weights; the run seed picks only the data.
    pub init_seed: u64,
}

pub enum Kind {
    Serve(ServeSpec),
    Train(TrainSpec),
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub fn workloads() -> Vec<Workload> {
    let serve = |name, method, rate_rps, window, limit_ms, hot_rows| Workload {
        name,
        kind: Kind::Serve(ServeSpec { method, rate_rps, window, limit_ms, hot_rows }),
    };
    let train = |name, method, epochs, init_seed| Workload {
        name,
        kind: Kind::Train(TrainSpec { method, samples: 12_000, epochs, max_trials: 5, init_seed }),
    };
    vec![
        serve("serve_butterfly", Method::Butterfly, 6000.0, 64, 10.0, 0),
        serve("serve_dense", Method::Baseline, 400.0, 16, 50.0, 0),
        serve("serve_hot", Method::Butterfly, 6000.0, 64, 10.0, 64),
        train("train_butterfly", Method::Butterfly, 6, 0x7B01),
        train("train_pixelfly", Method::Pixelfly(PixelflyConfig::paper_default()), 2, 0x7B02),
    ]
}

/// How much a run measures: `seconds` of measurement, or the seconds-long
/// smoke scale the unit test uses.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub seconds: f64,
    pub smoke: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_table_matches_the_contract() {
        let doc = json::parse(BENCHMARK_JSON).expect("parses");
        let listed: Vec<&str> = json::items(json::get(&doc, "workloads").expect("workloads"))
            .iter()
            .filter_map(|w| json::get(w, "name").and_then(json::as_str))
            .collect();
        let names: Vec<&str> = workloads().iter().map(|w| w.name).collect();
        assert_eq!(names, listed);
        let c = contract();
        assert!(c.end_to_end.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(c.per_layer.iter().all(|m| m.bound.is_none()));
        assert!(c.end_to_end.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
