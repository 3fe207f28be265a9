//! # bfly-bench
//!
//! Harness library shared by the table/figure reproduction binaries:
//! paper-reported anchor values, implementation-tier efficiency constants
//! for the Table 2 comparison, plain-text table formatting, the one pair
//! timer behind every host A/B comparison ([`measure`]), the one runner
//! behind every serving experiment ([`serving`]: one served run with its
//! wall-clock and simulated sections apart, rotated trials, quartile
//! summaries and ratios only at equal acceptance), and the writer that
//! stamps provenance into every committed `BENCH_*.json` ([`json`]).
//!
//! The binaries take their configuration from constants. `--smoke` asks a
//! BENCH-writing binary for a CI-sized run that leaves its committed file
//! alone. The only environment variables read are `BFLY_SAMPLES` and
//! `BFLY_EPOCHS` (training binaries and examples, to cut runtime) and
//! `BFLY_JSON` (machine-readable series, see [`json`]).

#![warn(missing_docs)]

pub mod anchors;
pub mod json;
pub mod measure;
pub mod serving;
pub mod simtime;
#[path = "bin/benchmark/stats.rs"]
pub mod stats;
pub mod tiers;

use std::fmt::Write as _;

/// True when the binary was invoked with `--smoke`: CI-sized sweeps that
/// must never overwrite the checked-in `BENCH_*.json` numbers, which always
/// come from full runs.
pub fn smoke_run() -> bool {
    std::env::args().any(|a| a == "--smoke")
}

/// Reads a `usize` environment knob, falling back to `default` when the
/// variable is unset or unparsable.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Host cores available to the process — stamped into every committed
/// bench JSON so results carry their provenance.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Formats a plain-text table with a header row and aligned columns.
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let write_row = |out: &mut String, cells: &[String]| {
        for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            let _ = write!(out, "{cell:>w$}", w = w);
        }
        out.push('\n');
    };
    write_row(&mut out, &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        write_row(&mut out, row);
    }
    out
}

/// Formats seconds with an adaptive unit.
pub fn fmt_time(seconds: f64) -> String {
    if seconds < 1e-6 {
        format!("{:.1} ns", seconds * 1e9)
    } else if seconds < 1e-3 {
        format!("{:.2} us", seconds * 1e6)
    } else if seconds < 1.0 {
        format!("{:.3} ms", seconds * 1e3)
    } else {
        format!("{seconds:.3} s")
    }
}

/// Formats byte counts with an adaptive unit.
pub fn fmt_bytes(bytes: u64) -> String {
    let b = bytes as f64;
    if b < 1024.0 {
        format!("{bytes} B")
    } else if b < 1024.0 * 1024.0 {
        format!("{:.1} KiB", b / 1024.0)
    } else if b < 1024.0 * 1024.0 * 1024.0 {
        format!("{:.1} MiB", b / (1024.0 * 1024.0))
    } else {
        format!("{:.2} GiB", b / (1024.0 * 1024.0 * 1024.0))
    }
}

/// Mean and (population) standard deviation of a sample.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = format_table(
            &["name", "value"],
            &[vec!["a".into(), "1".into()], vec!["longer".into(), "22".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].contains("longer"));
    }

    #[test]
    fn time_units_adapt() {
        assert!(fmt_time(5e-9).ends_with("ns"));
        assert!(fmt_time(5e-5).ends_with("us"));
        assert!(fmt_time(5e-2).ends_with("ms"));
        assert!(fmt_time(5.0).ends_with('s'));
    }

    #[test]
    fn bytes_units_adapt() {
        assert_eq!(fmt_bytes(100), "100 B");
        assert!(fmt_bytes(10 * 1024).contains("KiB"));
        assert!(fmt_bytes(10 << 20).contains("MiB"));
        assert!(fmt_bytes(10 << 30).contains("GiB"));
    }

    #[test]
    fn mean_std_matches_manual() {
        let (m, s) = mean_std(&[1.0, 3.0]);
        assert_eq!(m, 2.0);
        assert_eq!(s, 1.0);
    }

    #[test]
    fn env_knobs_fall_back_and_parse() {
        // Unique variable names so parallel tests cannot interfere.
        assert_eq!(env_usize("BFLY_TEST_KNOB_USIZE_UNSET", 7), 7);
        std::env::set_var("BFLY_TEST_KNOB_USIZE", "5");
        assert_eq!(env_usize("BFLY_TEST_KNOB_USIZE", 1), 5);
        std::env::set_var("BFLY_TEST_KNOB_USIZE", "not a number");
        assert_eq!(env_usize("BFLY_TEST_KNOB_USIZE", 1), 1);
        std::env::remove_var("BFLY_TEST_KNOB_USIZE");
    }

    #[test]
    fn host_cores_is_at_least_one() {
        assert!(host_cores() >= 1);
    }
}
