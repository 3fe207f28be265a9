//! Machine-readable output for the harness binaries.
//!
//! Every figure/table binary prints a human-readable table; setting
//! `BFLY_JSON=1` additionally writes the underlying series as JSON under
//! `target/bench-results/`, so plots can be regenerated without scraping
//! stdout. The BENCH-writing binaries commit their results as
//! `BENCH_<name>.json` through [`write_bench_json`], which stamps each
//! file with where and how it was produced.

use serde::Serialize;
use serde_json::Value;
use std::path::PathBuf;
use std::process::Command;

/// Where JSON results are written.
pub fn results_dir() -> PathBuf {
    PathBuf::from("target").join("bench-results")
}

/// True when the user asked for JSON output (`BFLY_JSON=1`).
pub fn json_enabled() -> bool {
    std::env::var("BFLY_JSON").map(|v| v == "1").unwrap_or(false)
}

/// Writes `value` as `target/bench-results/<name>.json` when enabled.
/// Returns the path written, or `None` when disabled or on I/O failure
/// (failures are reported to stderr, never fatal for a bench run).
pub fn maybe_write_json<T: Serialize>(name: &str, value: &T) -> Option<PathBuf> {
    if !json_enabled() {
        return None;
    }
    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("BFLY_JSON: cannot create {}: {e}", dir.display());
        return None;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(body) => match std::fs::write(&path, body) {
            Ok(()) => {
                eprintln!("BFLY_JSON: wrote {}", path.display());
                Some(path)
            }
            Err(e) => {
                eprintln!("BFLY_JSON: cannot write {}: {e}", path.display());
                None
            }
        },
        Err(e) => {
            eprintln!("BFLY_JSON: serialisation failed: {e}");
            None
        }
    }
}

/// Puts the provenance keys first in the result object `value`: the
/// host's core count, the build profile (`release` or `debug`) and the git
/// revision the binary was run from.
///
/// # Panics
/// Panics unless `value` is a JSON object.
fn stamp(value: Value, host_cores: usize, profile: &str, git_rev: &str) -> Value {
    let Value::Object(fields) = value else {
        panic!("a bench result must serialize to a JSON object");
    };
    let mut stamped = vec![
        ("host_cores".to_string(), Value::UInt(host_cores as u64)),
        ("profile".to_string(), Value::Str(profile.to_string())),
        ("git_rev".to_string(), Value::Str(git_rev.to_string())),
    ];
    stamped.extend(fields);
    Value::Object(stamped)
}

/// `git describe --always --dirty` of the working directory, or `unknown`
/// when git is missing or fails.
fn git_rev() -> String {
    Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Writes a committed benchmark result — `BENCH_<name>.json` in the
/// current directory (the repo root under `cargo run`), with the
/// provenance keys `host_cores`, `profile` and `git_rev` first — unless
/// this is a smoke run, in which case the checked-in file is left
/// untouched and a note says so.
/// Full-run I/O failure is fatal: a bench run whose numbers cannot be
/// recorded did not happen.
pub fn write_bench_json<T: Serialize>(name: &str, value: &T, smoke: bool) {
    let file = format!("BENCH_{name}.json");
    if smoke {
        println!("smoke run: {file} left untouched");
        return;
    }
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    let stamped = stamp(serde_json::to_value(value), crate::host_cores(), profile, &git_rev());
    let body = serde_json::to_string_pretty(&stamped).expect("bench output must serialize");
    std::fs::write(&file, body).unwrap_or_else(|e| panic!("cannot write {file}: {e}"));
    println!("wrote {file}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Serialize;

    #[derive(Serialize)]
    struct Row {
        n: usize,
        value: f64,
    }

    #[test]
    fn disabled_by_default() {
        std::env::remove_var("BFLY_JSON");
        assert!(!json_enabled());
        assert!(maybe_write_json("unit-test", &Row { n: 1, value: 2.0 }).is_none());
    }

    #[test]
    fn stamp_puts_provenance_first() {
        let result = serde_json::json!({"dim": 256u32, "results": [1u8]});
        let stamped = stamp(result, 2, "release", "4b0eeda-dirty");
        let Value::Object(fields) = stamped else { panic!("stamp keeps an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["host_cores", "profile", "git_rev", "dim", "results"]);
        assert_eq!(fields[0].1, Value::UInt(2));
        assert_eq!(fields[1].1, Value::Str("release".into()));
        assert_eq!(fields[2].1, Value::Str("4b0eeda-dirty".into()));
        assert_eq!(fields[3].1, Value::UInt(256));
    }

    #[test]
    #[should_panic(expected = "JSON object")]
    fn stamp_rejects_non_objects() {
        stamp(serde_json::json!([1u8, 2u8]), 1, "debug", "unknown");
    }

    #[test]
    fn smoke_runs_never_touch_committed_results() {
        write_bench_json("unit-test-smoke", &Row { n: 1, value: 2.0 }, true);
        assert!(!std::path::Path::new("BENCH_unit-test-smoke.json").exists());
    }

    #[test]
    fn writes_when_enabled() {
        std::env::set_var("BFLY_JSON", "1");
        let path = maybe_write_json("unit-test-write", &vec![Row { n: 1, value: 2.0 }])
            .expect("should write");
        let body = std::fs::read_to_string(&path).expect("readable");
        assert!(body.contains("\"n\": 1"));
        std::fs::remove_file(path).ok();
        std::env::remove_var("BFLY_JSON");
    }
}
