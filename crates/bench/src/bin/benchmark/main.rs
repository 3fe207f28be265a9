//! The repository benchmark: framed-ingress serving and SHL training
//! workloads, end-to-end and per-layer metrics. See `README.md` beside this
//! file for how to run and read it.
//!
//! ```text
//! benchmark [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
//!     runs every workload, each in its own child process, prints every
//!     metric and writes target/benchmark/results-seed<N>[-trace].json
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
//!     runs one workload in this process; the last stdout line is its
//!     summary JSON
//! benchmark --check A.json B.json
//!     compares two result files with the bounds in BENCHMARK.json
//! ```

mod alloc;
mod check;
mod json;
mod replay;
mod report;
mod serve;
mod spec;
mod stats;
mod trace;
mod train;

use report::{Metric, Outcome};
use serde::Value;
use spec::{contract, workloads, Kind, Scale, Workload, MAX_FAIL_FRAC};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace [0|1]] [--smoke] | benchmark --check A.json B.json";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    check: Option<(String, String)>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: contract().run_seconds,
        trace: false,
        smoke: false,
        check: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => out.workload = Some(value(arg)?),
            "--seed" => out.seed = value(arg)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value(arg)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds.is_finite() && out.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            // `--trace` alone, or with an explicit 0 or 1.
            "--trace" => {
                out.trace = it.peek().is_none_or(|v| *v != "0");
                if it.peek().is_some_and(|v| *v == "0" || *v == "1") {
                    it.next();
                }
            }
            "--smoke" => out.smoke = true,
            "--check" => out.check = Some((value(arg)?, value(arg)?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

/// True when both slices hold the same floats, bit for bit.
fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Runs one workload in this process.
fn run_workload(w: &Workload, seed: u64, scale: Scale, traced: bool) -> Result<Outcome, String> {
    let mut outcome = match &w.kind {
        Kind::Serve(spec) => serve::run(w.name, spec, seed, &scale, traced)?,
        Kind::Train(spec) => train::run(w.name, spec, seed, &scale, traced)?,
    };
    outcome.push(Metric::one("peak_rss_mib", "MiB", peak_rss_mib()?));
    if outcome.attempted == 0 {
        outcome.errors.push(format!("{}: attempted nothing", w.name));
    }
    let fail_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    outcome.push(Metric::one("fail_frac", "fraction", fail_frac));
    if fail_frac > MAX_FAIL_FRAC {
        outcome.errors.push(format!(
            "{}: {} of {} failed, more than {MAX_FAIL_FRAC}",
            w.name, outcome.failed, outcome.attempted
        ));
    }
    Ok(outcome)
}

fn results_dir() -> PathBuf {
    PathBuf::from("target").join("benchmark")
}

/// `--workload NAME`: prints every metric, the full result as a `result`
/// line, and the contract summary as the last line.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let all = workloads();
    let w = all.iter().find(|w| w.name == name).ok_or(format!("unknown workload {name:?}"))?;
    let scale = Scale { seconds: args.seconds, smoke: args.smoke };
    let outcome =
        run_workload(w, args.seed, scale, args.trace).map_err(|e| format!("{name}: {e}"))?;
    let violations = outcome.contract_violations();
    if !violations.is_empty() {
        return Err(format!("{name}: {}", violations.join("; ")));
    }
    if let Some((epoch, spans)) = &outcome.trace {
        let path = results_dir().join(format!("trace-{name}-seed{}.json", args.seed));
        trace::write(&path, name, args.seed, *epoch, spans);
    }
    outcome.print_lines();
    let result = serde_json::to_string(&outcome.result_json(args.seed)).expect("infallible");
    println!("result {result}");
    println!("{}", serde_json::to_string(&outcome.summary_json()).expect("infallible"));
    if !outcome.correct() {
        eprintln!("{name}: output check failed: {}", outcome.errors.join("; "));
    }
    Ok(outcome.correct())
}

/// Every workload, each in a child process so its peak RSS is its own.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    let mut results = Vec::new();
    for w in workloads() {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit());
        if args.smoke {
            cmd.arg("--smoke");
        }
        let out = cmd.output().map_err(|e| format!("{}: {e}", w.name))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        for line in stdout.lines() {
            match line.strip_prefix("result ") {
                Some(result) => results.push((w.name.to_string(), json::parse(result)?)),
                None if !line.starts_with('{') => println!("{line}"),
                None => {}
            }
        }
        if !out.status.success() {
            eprintln!("benchmark: workload {} failed ({})", w.name, out.status);
            ok = false;
        }
    }
    let doc = serde_json::json!({
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": args.trace,
        "smoke": args.smoke,
        "host_cores": bfly_bench::host_cores(),
        "workloads": Value::Object(results)
    });
    let suffix = if args.trace { "-trace" } else { "" };
    let path = results_dir().join(format!("results-seed{}{suffix}.json", args.seed));
    std::fs::create_dir_all(results_dir()).map_err(|e| e.to_string())?;
    let body = serde_json::to_string_pretty(&doc).expect("infallible");
    std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match (&args.check, &args.workload) {
        (Some((a, b)), _) => check::run(a, b),
        (None, Some(name)) => run_one(name, &args),
        (None, None) => run_all(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn trace_flag_takes_an_optional_value() {
        assert!(args(&["--trace"]).expect("valid").trace);
        assert!(args(&["--trace", "1", "--seed", "3"]).expect("valid").trace);
        let a = args(&["--trace", "0", "--seed", "3"]).expect("valid");
        assert!(!a.trace);
        assert_eq!(a.seed, 3);
        assert!(args(&["--trace", "--smoke"]).expect("valid").smoke);
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--bogus"]).is_err());
    }

    /// Every workload at smoke scale, untraced and traced: outputs check
    /// out and every metric `BENCHMARK.json` names is emitted in its unit.
    #[test]
    fn smoke_every_workload_emits_the_contract() {
        let scale = Scale { seconds: 1.0, smoke: true };
        for w in workloads() {
            for traced in [false, true] {
                let o = run_workload(&w, 7, scale, traced)
                    .unwrap_or_else(|e| panic!("{} traced={traced}: {e}", w.name));
                assert!(o.correct(), "{} traced={traced}: {:?}", w.name, o.errors);
                assert_eq!(o.contract_violations(), Vec::<String>::new(), "{}", w.name);
                assert_eq!(o.failed, 0, "{} traced={traced}", w.name);
                assert_eq!(o.trace.is_some(), traced);
            }
        }
    }
}
