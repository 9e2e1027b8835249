//! `perfbench`: the end-to-end and per-layer benchmark of the igpm stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <durable_stream|pattern_fanout|bounded_stream> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints human-readable notes, then, as the last line of standard output,
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` — every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`. Exits non-zero when an output check fails. See
//! `perfbench/README.md` for the workloads and metrics.

mod calib;
mod closed;
mod durable;
mod gen;
mod replay;
mod report;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// The run's parameters.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: usize,
    pub trace: bool,
    /// Where traces and scratch state go, inside the working directory.
    pub out_dir: PathBuf,
}

fn parse_args() -> Result<Ctx, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let slot = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            _ => return Err(format!("unknown flag {flag}")),
        };
        *slot = Some(value);
    }
    let number = |name: &str, value: Option<String>| -> Result<u64, String> {
        let value = value.ok_or_else(|| format!("--{name} is required"))?;
        value.parse().map_err(|_| format!("--{name} must be a whole number, got {value}"))
    };
    let seconds = number("seconds", seconds)?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds must be 1..=600, got {seconds}"));
    }
    let trace = match number("trace", trace)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Ctx {
        workload: workload.ok_or("--workload is required")?,
        seed: number("seed", seed)?,
        seconds: seconds as usize,
        trace,
        out_dir: PathBuf::from(".perfbench"),
    })
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let result = match ctx.workload.as_str() {
        "durable_stream" => durable::run(&ctx),
        "pattern_fanout" => closed::pattern_fanout(&ctx),
        "bounded_stream" => closed::bounded_stream(&ctx),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(report) if report.failed == 0 => {
            for note in &report.notes {
                println!("# {note}");
            }
            println!("{}", report.result_line(ctx.trace));
            ExitCode::SUCCESS
        }
        Ok(report) => {
            eprintln!("perfbench: {} of {} operations failed", report.failed, report.attempted);
            println!("{}", report::failure_line(report.attempted, report.failed));
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("perfbench: output check failed: {message}");
            println!("{}", report::failure_line(1, 0));
            ExitCode::FAILURE
        }
    }
}
