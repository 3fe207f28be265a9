//! Metrics of one run and the three ways they are written out: one
//! `workload metric value unit` line each, the full result (every trial) as
//! JSON, and the contract's last-line summary.

use crate::spec::{contract, MetricSpec};
use crate::stats::median;
use crate::trace::Span;
use serde::Value;
use serde_json::json;
use std::time::Instant;

/// One named measurement; the reported value is the median of its trials.
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub trials: Vec<f64>,
}

impl Metric {
    pub fn trials(name: &str, unit: &str, trials: Vec<f64>) -> Self {
        assert!(!trials.is_empty(), "metric {name} has no trials");
        Self { name: name.to_string(), unit: unit.to_string(), trials }
    }

    pub fn one(name: &str, unit: &str, value: f64) -> Self {
        Self::trials(name, unit, vec![value])
    }

    pub fn value(&self) -> f64 {
        median(&self.trials)
    }
}

/// Everything one workload run produced.
pub struct Outcome {
    pub workload: &'static str,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Output-check violations; any makes the run incorrect.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    /// A traced run's spans and the instant their times count from.
    pub trace: Option<(Instant, Vec<Span>)>,
}

impl Outcome {
    pub fn new(workload: &'static str, traced: bool) -> Self {
        Self {
            workload,
            traced,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            metrics: Vec::new(),
            trace: None,
        }
    }

    /// Emits 0 for every per-layer metric under `prefixes` this run did
    /// not measure: the workload bypasses those layers, so it spends no
    /// time and does no work in them.
    pub fn zero_bypassed(&mut self, prefixes: &[&str]) {
        for spec in &contract().per_layer {
            if prefixes.iter().any(|p| spec.name.starts_with(p)) && self.get(&spec.name).is_none() {
                self.push(Metric::one(&spec.name, &spec.unit, 0.0));
            }
        }
    }

    pub fn push(&mut self, metric: Metric) {
        assert!(
            self.metrics.iter().all(|m| m.name != metric.name),
            "metric {} emitted twice",
            metric.name
        );
        self.metrics.push(metric);
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The metrics the contract asks of this kind of run.
    pub fn contract_metrics(&self) -> &'static [MetricSpec] {
        if self.traced {
            &contract().per_layer
        } else {
            &contract().end_to_end
        }
    }

    /// Contract metrics this run did not emit, or emitted with another unit
    /// or a non-finite value.
    pub fn contract_violations(&self) -> Vec<String> {
        self.contract_metrics()
            .iter()
            .filter_map(|spec| match self.get(&spec.name) {
                None => Some(format!("{} not emitted", spec.name)),
                Some(m) if m.unit != spec.unit => {
                    Some(format!("{} in {} not {}", spec.name, m.unit, spec.unit))
                }
                Some(m) if !m.value().is_finite() => Some(format!("{} is not finite", spec.name)),
                Some(_) => None,
            })
            .collect()
    }

    /// `workload metric value unit`, one line per metric.
    pub fn print_lines(&self) {
        for m in &self.metrics {
            println!("{} {} {:?} {}", self.workload, m.name, m.value(), m.unit);
        }
        for e in &self.errors {
            println!("{} error {e}", self.workload);
        }
    }

    /// The full result with every trial, as the compare mode reads it.
    pub fn result_json(&self, seed: u64) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (m.name.clone(), json!({"value": m.value(), "unit": m.unit, "trials": m.trials}))
            })
            .collect();
        json!({
            "workload": self.workload,
            "seed": seed,
            "traced": self.traced,
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "metrics": Value::Object(metrics)
        })
    }

    /// The last line the contract asks for: the contract's metrics only.
    pub fn summary_json(&self) -> Value {
        let metrics = self
            .contract_metrics()
            .iter()
            .filter_map(|spec| self.get(&spec.name))
            .map(|m| (m.name.clone(), json!({"value": m.value(), "unit": m.unit})))
            .collect();
        json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(metrics)
        })
    }
}
