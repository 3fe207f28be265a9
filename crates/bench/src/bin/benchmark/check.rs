//! Compare mode: `--check A.json B.json` reads two result files and rates
//! every (workload, end-to-end metric) with the bounds in `BENCHMARK.json`,
//! and `fail_frac` and `test_acc` with the absolute bounds of `spec.rs`.

use crate::json;
use crate::spec::{contract, ABSOLUTE_GATES};
use crate::stats::quartiles;
use serde::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The trial spread of either side is wider than the bound, so a
    /// change within the bound cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How a metric is rated: its bound and direction. A relative bound is a
/// share of A's median; an absolute one is in the metric's own unit.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    pub bound: f64,
    pub higher_is_better: bool,
    pub relative: bool,
}

/// Rates `b` (the change) against `a` (the parent). Each side's spread is
/// its interquartile range, over its median for a relative gate. When
/// either spread exceeds the bound the verdict is unresolved, unless every
/// trial of `b` reads better than every trial of `a`. Otherwise `b` is
/// worse when its median is worse than `a`'s by more than the bound, better
/// when it is better by more than the bound, and the same in between.
pub fn verdict(a: &[f64], b: &[f64], gate: Gate) -> Verdict {
    let (qa, qb) = (quartiles(a), quartiles(b));
    let scale = |q: [f64; 3]| if gate.relative { q[1].abs() } else { 1.0 };
    let spread = |q: [f64; 3]| (q[2] - q[0]) / scale(q);
    let worse_by = if gate.higher_is_better { qa[1] - qb[1] } else { qb[1] - qa[1] } / scale(qa);
    let all_better = if gate.higher_is_better {
        b.iter().cloned().fold(f64::INFINITY, f64::min)
            > a.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
    } else {
        b.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            < a.iter().cloned().fold(f64::INFINITY, f64::min)
    };
    // `!(x <= bound)` also catches a NaN spread from a zero median.
    if !(spread(qa) <= gate.bound && spread(qb) <= gate.bound) {
        return if all_better { Verdict::Better } else { Verdict::Unresolved };
    }
    if worse_by > gate.bound {
        Verdict::Worse
    } else if worse_by < -gate.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Every gated metric: the contract's end-to-end metrics with their
/// relative bounds, then the absolute gates.
fn gates() -> Vec<(String, Gate)> {
    let relative = contract().end_to_end.iter().map(|m| {
        let gate = Gate {
            bound: m.bound.unwrap_or(0.0),
            higher_is_better: m.higher_is_better,
            relative: true,
        };
        (m.name.clone(), gate)
    });
    let absolute = ABSOLUTE_GATES.iter().map(|&(name, bound, higher_is_better)| {
        (name.to_string(), Gate { bound, higher_is_better, relative: false })
    });
    relative.chain(absolute).collect()
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn trials(result: &Value, metric: &str) -> Option<Vec<f64>> {
    let m = json::get(json::get(result, "metrics")?, metric)?;
    let t: Vec<f64> =
        json::items(json::get(m, "trials")?).iter().filter_map(json::as_f64).collect();
    (!t.is_empty()).then_some(t)
}

/// Prints one row per (workload, metric); false when any row is worse or
/// unresolved, or a workload of A is missing from B.
pub fn run(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let workloads = |v: &Value| json::get(v, "workloads").cloned().unwrap_or(Value::Null);
    let (wa, wb) = (workloads(&a), workloads(&b));
    let mut clean = true;
    println!(
        "{:<16} {:<17} {:>12} {:>25} {:>12} {:>25} {:>8}  verdict",
        "workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "change"
    );
    for (workload, ra) in json::members(&wa) {
        let Some(rb) = json::get(&wb, workload) else {
            println!("{workload:<16} missing from {b_path}");
            clean = false;
            continue;
        };
        for (name, gate) in gates() {
            let (Some(ta), Some(tb)) = (trials(ra, &name), trials(rb, &name)) else {
                continue;
            };
            let v = verdict(&ta, &tb, gate);
            clean &= matches!(v, Verdict::Better | Verdict::Same);
            let (qa, qb) = (quartiles(&ta), quartiles(&tb));
            let change = if gate.relative {
                format!("{:+.2}%", 100.0 * (qb[1] - qa[1]) / qa[1].abs())
            } else {
                format!("{:+.4}", qb[1] - qa[1])
            };
            println!(
                "{workload:<16} {:<17} {:>12.6} {:>25} {:>12.6} {:>25} {change:>8}  {}",
                name,
                qa[1],
                format!("[{:.6}, {:.6}]", qa[0], qa[2]),
                qb[1],
                format!("[{:.6}, {:.6}]", qb[0], qb[2]),
                v.label()
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(bound: f64, higher_is_better: bool) -> Gate {
        Gate { bound, higher_is_better, relative: true }
    }

    #[test]
    fn verdict_within_bound_is_same() {
        let a = [10.0, 10.1, 9.9];
        assert_eq!(verdict(&a, &[10.4, 10.5, 10.3], rel(0.1, false)), Verdict::Same);
        assert_eq!(verdict(&a, &a, rel(0.1, true)), Verdict::Same);
    }

    #[test]
    fn verdict_respects_direction() {
        let a = [10.0, 10.1, 9.9];
        let slower = [12.0, 12.1, 11.9];
        // Lower is better: a 20% rise is a regression; higher is better: a gain.
        assert_eq!(verdict(&a, &slower, rel(0.1, false)), Verdict::Worse);
        assert_eq!(verdict(&a, &slower, rel(0.1, true)), Verdict::Better);
        assert_eq!(verdict(&slower, &a, rel(0.1, false)), Verdict::Better);
        assert_eq!(verdict(&slower, &a, rel(0.1, true)), Verdict::Worse);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_trial_is_better() {
        let noisy = [8.0, 10.0, 12.0];
        // A 40% interquartile spread cannot resolve a 10% bound...
        assert_eq!(verdict(&noisy, &[10.0, 10.0, 10.0], rel(0.1, false)), Verdict::Unresolved);
        assert_eq!(verdict(&[10.0, 10.0, 10.0], &noisy, rel(0.1, false)), Verdict::Unresolved);
        // ...unless the change beats the parent on every trial.
        assert_eq!(verdict(&noisy, &[5.0, 6.0, 7.5], rel(0.1, false)), Verdict::Better);
        assert_eq!(verdict(&noisy, &[13.0, 16.0, 19.0], rel(0.1, true)), Verdict::Better);
    }

    #[test]
    fn zero_median_is_unresolved_under_a_relative_bound() {
        assert_eq!(verdict(&[0.0; 3], &[0.0; 3], rel(0.1, false)), Verdict::Unresolved);
    }

    #[test]
    fn absolute_bounds_compare_in_the_metric_unit() {
        let fail = Gate { bound: 0.001, higher_is_better: false, relative: false };
        assert_eq!(verdict(&[0.0], &[0.0], fail), Verdict::Same);
        assert_eq!(verdict(&[0.0], &[0.0005], fail), Verdict::Same);
        assert_eq!(verdict(&[0.0], &[0.002], fail), Verdict::Worse);
        let acc = Gate { bound: 0.005, higher_is_better: true, relative: false };
        assert_eq!(verdict(&[0.40; 3], &[0.396; 3], acc), Verdict::Same);
        assert_eq!(verdict(&[0.40; 3], &[0.39; 3], acc), Verdict::Worse);
        assert_eq!(verdict(&[0.40; 3], &[0.41; 3], acc), Verdict::Better);
    }

    #[test]
    fn every_gate_has_a_positive_bound() {
        let gates = gates();
        assert_eq!(gates.len(), contract().end_to_end.len() + ABSOLUTE_GATES.len());
        assert!(gates.iter().all(|(_, g)| g.bound > 0.0));
    }
}
