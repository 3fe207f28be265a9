//! Runs the benchmark from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- ARGS
//! ```
//!
//! is the same as
//!
//! ```text
//! cargo run --release --offline -p bfly-bench --bin benchmark -- ARGS
//! ```
//!
//! The launcher replaces itself with the second command, so the benchmark
//! is built by the repository workspace (its profile, its lock file) and
//! every argument reaches it unchanged. Outside a checkout of the
//! repository, Cargo finds no `Cargo.toml` and the command fails.

use std::os::unix::process::CommandExt;
use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let err = Command::new(cargo)
        .args(["run", "--release", "--quiet", "--offline", "--manifest-path", "Cargo.toml"])
        .args(["-p", "bfly-bench", "--bin", "benchmark", "--"])
        .args(std::env::args_os().skip(1))
        .exec();
    eprintln!("benchmark-launcher: cannot run cargo: {err}");
    ExitCode::FAILURE
}
