//! `e2e` — the wall-clock benchmark of the M3R reproduction.
//!
//! ```text
//! e2e run       --workload W --seed S [--seconds T] [--quick] [--trace 0|1]
//! e2e trace     --workload W --seed S [--seconds T] [--quick]
//! e2e selfcheck --runs N [--workload W] [--seconds T]
//! ```
//!
//! See `e2e/README.md` for the metric definitions.

mod json;
mod probes;
mod run;
mod selfcheck;
mod span;
mod stats;
mod sys;
mod trace;
mod workload;

use std::process::ExitCode;

use run::{Outcome, RunSpec, RUN_SECONDS, WORKLOADS};
use workload::Sizes;

struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    quick: bool,
    trace: bool,
    runs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv
        .next()
        .ok_or("missing command: run | trace | selfcheck")?;
    let mut args = Args {
        trace: command == "trace",
        command,
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        quick: false,
        runs: 10,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--runs" => args.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--trace" => args.trace = value()? == "1",
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.iter().any(|(name, _)| name == w) {
            let names: Vec<_> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            return Err(format!("unknown workload {w:?}; one of {names:?}"));
        }
    }
    if !(1..=60).contains(&args.seconds) {
        return Err("--seconds must be 1..=60".to_string());
    }
    Ok(args)
}

fn print_outcome(outcome: &Outcome) {
    for m in &outcome.metrics {
        println!("{:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!("context {}", outcome.context.render());
    println!("{}", outcome.result_json().render());
}

/// Run the command; `Ok(false)` when it ran but its outputs were wrong (or
/// `selfcheck` found a metric too noisy).
fn execute(args: Args) -> Result<bool, String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build; build with --release".into());
    }
    if sys::nproc() < 2 {
        return Err("the fixed configuration (2 places, 2 workers) needs nproc >= 2".into());
    }
    match args.command.as_str() {
        "run" | "trace" => {
            let spec = RunSpec {
                workload: args.workload.ok_or("--workload is required")?,
                seed: args.seed,
                seconds: args.seconds,
                quick: args.quick,
                sizes: Sizes::full(),
            };
            let outcome = if args.trace {
                trace::trace(&spec)
            } else {
                run::run(&spec)
            }
            .map_err(|e| e.to_string())?;
            print_outcome(&outcome);
            Ok(outcome.correct)
        }
        "selfcheck" => {
            selfcheck::selfcheck(args.runs, args.workload.as_deref(), args.seconds, args.seed)
        }
        other => Err(format!(
            "unknown command {other:?}: run | trace | selfcheck"
        )),
    }
}

fn main() -> ExitCode {
    match parse_args().and_then(execute) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}
