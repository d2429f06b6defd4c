//! `bench` — the one runner.
//!
//! ```text
//! bench run <workload> [--seed N] [--seconds S]     end-to-end metrics, tracing off
//! bench trace <workload> [--seed N] [--seconds S]   per-layer metrics + out/<workload>.spans.jsonl
//! bench selfcheck [--seed N] [--seconds S]          do two sets of runs of the same code agree?
//! bench --workload W --seed N --seconds S --trace 0|1   the form BENCHMARK.json's command takes
//! ```
//!
//! Each invocation runs one workload in its own process, so `VmHWM` is
//! per workload. The last line of standard output is one JSON object:
//! `correct`, `attempted`, `failed`, `metrics`. The exit code is 0
//! when the run completed, whatever the oracle said — failed ops are
//! in the result line — and non-zero on a usage error, an
//! attributed ratio under 0.90 where layers must reconcile, or a
//! failed self-check.

use perfbench::selfcheck::selfcheck;
use perfbench::workloads::{dispatch, NAMES, RUN_SECONDS};
use std::process::ExitCode;

/// Workloads whose spans must reconcile with the unit wall: import +
/// evaluate + export + decode, and import-rtt + execute-rtt.
const MUST_RECONCILE: &[&str] = &["covid_batch", "serve_churn"];
const MIN_ATTRIBUTED: f64 = 0.90;

struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    history: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench run|trace <workload> [--seed N] [--seconds S]\n       \
         bench selfcheck [--seed N] [--seconds S]\n       \
         bench --workload W --seed N --seconds S --trace 0|1\n\
         workloads: {}",
        NAMES.join(", ")
    );
    ExitCode::from(2)
}

fn parse() -> Option<Args> {
    // The flag-only form is the driver's: it runs in a checkout that
    // is thrown away, so it leaves history.jsonl alone.
    let mut args = Args {
        command: "run".into(),
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        history: false,
    };
    let mut words = std::env::args().skip(1).peekable();
    if let Some(first) = words.peek() {
        if !first.starts_with("--") {
            args.command = words.next()?;
            args.history = true;
            if !matches!(args.command.as_str(), "selfcheck" | "calibrate") {
                args.workload = Some(words.next()?);
            }
        }
    }
    while let Some(flag) = words.next() {
        match flag.as_str() {
            "--no-history" => args.history = false,
            "--workload" => args.workload = Some(words.next()?),
            "--seed" => args.seed = words.next()?.parse().ok()?,
            "--seconds" => args.seconds = words.next()?.parse().ok().filter(|s| *s > 0)?,
            "--trace" => {
                args.command = match words.next()?.as_str() {
                    "0" => "run".into(),
                    "1" => "trace".into(),
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    Some(args)
}

fn main() -> ExitCode {
    let Some(args) = parse() else {
        return usage();
    };
    if args.command == "calibrate" {
        perfbench::calibrate::serve();
        return ExitCode::SUCCESS;
    }
    if args.command == "selfcheck" {
        return match selfcheck(args.seed, args.seconds) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("bench selfcheck: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let traced = match args.command.as_str() {
        "run" => false,
        "trace" => true,
        _ => return usage(),
    };
    let Some(workload) = args.workload else {
        return usage();
    };
    let Some(outcome) = dispatch(&workload, args.seed, args.seconds, traced, args.history) else {
        eprintln!("bench: no workload named {workload:?}");
        return usage();
    };
    outcome.print(&workload, args.seed);
    if traced && MUST_RECONCILE.contains(&workload.as_str()) {
        let ratio = outcome.get("bench.attributed_ratio").unwrap_or(0.0);
        if ratio < MIN_ATTRIBUTED {
            eprintln!(
                "bench: only {:.1}% of {workload}'s unit wall is attributed to a layer \
                 (need {:.0}%)",
                ratio * 100.0,
                MIN_ATTRIBUTED * 100.0
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
