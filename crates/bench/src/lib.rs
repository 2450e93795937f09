//! # emma-bench — the figure/table regeneration harness
//!
//! One experiment function per table/figure of the paper's evaluation
//! section; the `src/bin` binaries print them in the paper's format and
//! EXPERIMENTS.md records paper-vs-measured. All experiments *really
//! execute* the compiled programs (results are checked against the reference
//! interpreter where cheap), and "runtime" is the engine's deterministic
//! simulated time — see `emma-engine` for the cost model.

#![warn(missing_docs)]

pub mod fig4;
pub mod fig5;
pub mod iterative;
pub mod table1;
pub mod tpch_experiment;

use emma::prelude::*;

/// The paper's timeout: experiments that do not finish within one
/// (simulated) hour are reported as timed out.
pub const PAPER_TIMEOUT_SECS: f64 = 3_600.0;

/// Outcome of one measured configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Outcome {
    /// Finished within the budget, with the simulated runtime in seconds.
    Finished(f64),
    /// Exceeded the (simulated) one-hour budget — the paper's
    /// "failed to finish within the timeout".
    TimedOut,
}

impl Outcome {
    /// The runtime, if finished.
    pub fn secs(&self) -> Option<f64> {
        match self {
            Outcome::Finished(s) => Some(*s),
            Outcome::TimedOut => None,
        }
    }

    /// Formats like the paper's tables (`466s` or `>1h`).
    pub fn display(&self) -> String {
        match self {
            Outcome::Finished(s) => format!("{s:.0}s"),
            Outcome::TimedOut => ">1h".to_string(),
        }
    }
}

/// Runs one configuration under the paper timeout and returns its outcome
/// together with the stats (if finished).
pub fn run_with_timeout(
    engine: &Engine,
    program: &Program,
    catalog: &Catalog,
    flags: &OptimizerFlags,
) -> (Outcome, Option<ExecStats>) {
    let compiled = parallelize(program, flags);
    let engine = engine.clone().with_timeout(PAPER_TIMEOUT_SECS);
    match engine.run(&compiled, catalog) {
        Ok(run) => (Outcome::Finished(run.stats.simulated_secs), Some(run.stats)),
        Err(ExecError::Timeout { .. }) => (Outcome::TimedOut, None),
        Err(e) => panic!("unexpected engine error: {e}"),
    }
}

/// Renders criterion measurements as the `"results"` array body shared by
/// every `BENCH_*.json` writer: one JSON object per measurement, including a
/// `records_per_sec` throughput derived from `records` and the mean time.
///
/// Guards against the division producing `inf`/`NaN` (a zero or non-finite
/// `mean_ns` — e.g. an empty sample set) by reporting 0 instead: `inf` and
/// `NaN` are not valid JSON number tokens, so an unguarded writer would
/// emit a file nothing can parse.
pub fn bench_json(ms: &[criterion::Measurement], records: u64) -> String {
    let finite = |v: f64| if v.is_finite() { v } else { 0.0 };
    let mut out = String::new();
    for (i, m) in ms.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let rps = records as f64 * 1e9 / m.mean_ns;
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"mean_ns\": {:.0}, \"min_ns\": {:.0}, \"max_ns\": {:.0}, \"samples\": {}, \"iters_per_sample\": {}, \"records_per_sec\": {:.0}}}",
            m.id,
            finite(m.mean_ns),
            finite(m.min_ns),
            finite(m.max_ns),
            m.samples,
            m.iters_per_sample,
            if rps.is_finite() { rps } else { 0.0 },
        ));
    }
    out
}

/// Pretty-prints a row-major table with a header.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}
