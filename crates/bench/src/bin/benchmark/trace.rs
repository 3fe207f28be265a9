//! Spans recorded by the benchmark around its calls into each layer. They
//! stay in memory and are written once, at the end of a traced run.

use crate::report::Metric;
use crate::stats::median;
use serde::Value;
use serde_json::json;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::Instant;

/// One timed interval. Spans of one request (or training step) share
/// `request`; `parent` names the span of the same request that caused it.
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<&'static str>,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn new(
        name: &'static str,
        request: u64,
        parent: Option<&'static str>,
        start: Instant,
        end: Instant,
    ) -> Self {
        Self { name, request, parent, start, end: end.max(start) }
    }

    pub fn micros(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e6
    }
}

/// Durations (µs) of every span called `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(Span::micros).collect()
}

/// Median self time (µs) per span name: a span's duration minus the part
/// its children cover (children of one span do not overlap).
pub fn self_times_us(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_us: HashMap<(u64, &'static str), f64> = HashMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            *child_us.entry((s.request, parent)).or_default() += s.micros();
        }
    }
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        let children = child_us.get(&(s.request, s.name)).copied().unwrap_or(0.0);
        by_name.entry(s.name).or_default().push((s.micros() - children).max(0.0));
    }
    by_name.into_iter().map(|(name, v)| (name, median(&v))).collect()
}

/// Self times as printable metrics (`trace.self_us.<span>`).
pub fn self_time_metrics(spans: &[Span]) -> Vec<Metric> {
    self_times_us(spans)
        .into_iter()
        .map(|(name, us)| Metric::one(&format!("trace.self_us.{name}"), "us", us))
        .collect()
}

/// Writes every span, with times in µs since `epoch`, to `path`.
pub fn write(path: &Path, workload: &str, seed: u64, epoch: Instant, spans: &[Span]) {
    let since = |t: Instant| t.saturating_duration_since(epoch).as_secs_f64() * 1e6;
    let rows: Vec<Value> = spans
        .iter()
        .map(|s| {
            json!({
                "name": s.name,
                "request": s.request,
                "parent": s.parent,
                "start_us": since(s.start),
                "end_us": since(s.end)
            })
        })
        .collect();
    let doc = json!({"workload": workload, "seed": seed, "spans": rows});
    let body = serde_json::to_string(&doc).expect("infallible");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    }
    std::fs::write(path, body).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_of_the_same_request() {
        let t = Instant::now();
        let us = |n: u64| t + Duration::from_micros(n);
        let spans = vec![
            Span::new("request", 1, None, us(0), us(100)),
            Span::new("client.encode", 1, Some("request"), us(0), us(10)),
            Span::new("client.write", 1, Some("request"), us(10), us(30)),
            Span::new("request", 2, None, us(0), us(50)),
        ];
        let self_us = self_times_us(&spans);
        // request 1: 100 - 30 = 70; request 2: 50 -> median 60.
        assert!((self_us["request"] - 60.0).abs() < 1e-6);
        assert!((self_us["client.encode"] - 10.0).abs() < 1e-6);
    }
}
