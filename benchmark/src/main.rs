//! One whole-program benchmark of the Emma reproduction: seven paper
//! workloads, the wall clock and the simulated clock, and a per-layer trace.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` is the timed run (end-to-end metrics), `--trace 1` the traced
//! run (per-layer metrics); without `--trace` both run, timed first. Every
//! metric is printed by name with its unit, and the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. The exit code is 1 when any output check failed.

mod alloc;
mod check;
mod json;
mod measure;
mod stats;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use std::path::Path;
use std::process::{Command, ExitCode};

use measure::Tally;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

struct Args {
    workload: &'static workloads::Workload,
    seed: u64,
    seconds: f64,
    /// `Some(false)` timed run only, `Some(true)` traced run only, `None` both.
    trace: Option<bool>,
}

fn usage() -> String {
    let mut text =
        "usage: emma-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]\nworkloads:\n"
            .to_string();
    for w in &workloads::WORKLOADS {
        text += &format!("  {:<16} {}\n", w.name, w.why);
    }
    text
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 10.0;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(workloads::find(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=60.0).contains(&seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// First line of a command's output, or "unknown".
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("emma-benchmark measures optimized builds only: run it with --release");
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    // Outside a git checkout `git` would search the parent directories.
    let commit = if root.join(".git").exists() {
        first_line("git", &["-C", &root.to_string_lossy(), "rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {}  seed {}  nproc {nproc}  {}  commit {commit}",
        w.name,
        args.seed,
        first_line("rustc", &["--version"])
    );

    let mut tally = Tally::default();
    let mut log = String::new();
    let mut metrics = Vec::new();
    if args.trace != Some(true) {
        metrics.extend(
            measure::timed_run(
                w,
                args.seed,
                args.seconds,
                measure::FULL,
                &mut tally,
                &mut log,
            )
            .0,
        );
    }
    if args.trace != Some(false) {
        let (m, tracer) = measure::traced_run(w, args.seed, measure::FULL, &mut tally, &mut log);
        metrics.extend(m.0);
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let file = out.join(format!("trace-{}.jsonl", w.name));
        match std::fs::create_dir_all(&out)
            .and_then(|()| std::fs::write(&file, tracer.to_jsonl(w.name)))
        {
            Ok(()) => {
                log += &format!(
                    "trace: {} spans in {}\n",
                    tracer.spans().len(),
                    file.display()
                )
            }
            Err(e) => eprintln!("trace not written to {}: {e}", file.display()),
        }
    }
    print!("{log}");
    for m in &metrics {
        println!("{:<44} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "error_rate {:.6} ({} failed of {} attempted)",
        stats::ratio(tally.failed as f64, tally.attempted as f64),
        tally.failed,
        tally.attempted
    );
    println!(
        "{}",
        json::result_line(tally.attempted, tally.failed, &metrics)
    );
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
