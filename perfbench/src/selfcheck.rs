//! `bench selfcheck`: does the benchmark agree with itself?
//!
//! Every workload is run four times on one seed in the order A, B, B,
//! A — each run in a process of its own, as the driver runs them — and
//! for every end-to-end metric the median of set A is compared with
//! the median of set B. Two sets of runs of the *same* code must agree
//! within the metric's bound, or the bound is not one the benchmark
//! can hold. Each workload also runs once on a second seed, where the
//! only requirement is that no operation fails.

use crate::oracle::Json;
use crate::report::{bench_dir, END_TO_END};
use crate::workloads::NAMES;
use std::process::Command;

/// One run's result line, parsed back.
struct RunResult {
    failed: u64,
    metrics: Vec<(String, f64)>,
}

/// Runs `bench run <workload>` as a child process and reads the JSON
/// object its output ends with.
fn run_child(workload: &str, seed: u64, seconds: u64) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["run", workload, "--no-history"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("could not start {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let json = stdout
        .lines()
        .last()
        .and_then(Json::parse)
        .ok_or_else(|| format!("{workload} printed no result line"))?;
    let failed = json.get("failed").and_then(Json::as_usize).unwrap_or(0) as u64;
    let Some(Json::Obj(members)) = json.get("metrics") else {
        return Err(format!("{workload} printed no metrics"));
    };
    let metrics = members
        .iter()
        .filter_map(|(name, m)| match m.get("value") {
            Some(Json::Num(v)) => Some((name.clone(), *v)),
            _ => None,
        })
        .collect();
    Ok(RunResult { failed, metrics })
}

/// `(name, bound, higher is better)` of every end-to-end metric, from
/// `BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, f64, bool)>, String> {
    let path = bench_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text).ok_or("BENCHMARK.json does not parse")?;
    let list = json
        .get("end_to_end")
        .and_then(Json::items)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m.get("better").and_then(Json::as_str);
            match (name, m.get("bound"), better) {
                (Some(name), Some(Json::Num(bound)), Some(better)) => {
                    Ok((name.to_string(), *bound, better == "higher"))
                }
                _ => Err("malformed end_to_end entry".to_string()),
            }
        })
        .collect()
}

/// How much worse `b` is than `a`, as a share of `a` (negative when
/// better), given the metric's direction.
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// Runs the self-check; `Ok(true)` when every difference is within its
/// bound and no operation failed.
pub fn selfcheck(seed: u64, seconds: u64) -> Result<bool, String> {
    let bounds = bounds()?;
    debug_assert_eq!(bounds.len(), END_TO_END.len());
    let mut pass = true;
    println!(
        "{:<12} {:<16} {:>12} {:>12} {:>9} {:>7}",
        "workload", "metric", "set A", "set B", "differ", "bound"
    );
    for workload in NAMES {
        // A, B, B, A: a drift over the four runs lands on both sets.
        let runs: Vec<RunResult> = (0..4)
            .map(|_| run_child(workload, seed, seconds))
            .collect::<Result<_, _>>()?;
        let value = |run: &RunResult, name: &str| {
            run.metrics
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v)
        };
        for (name, bound, higher) in &bounds {
            let a = (value(&runs[0], name) + value(&runs[3], name)) / 2.0;
            let b = (value(&runs[1], name) + value(&runs[2], name)) / 2.0;
            // Either set may be the "parent": take the worse direction.
            let differ = worsening(a, b, *higher).max(worsening(b, a, *higher));
            let ok = differ <= *bound;
            pass &= ok;
            println!(
                "{workload:<12} {name:<16} {a:>12.4} {b:>12.4} {:>8.2}% {:>6.0}%{}",
                differ * 100.0,
                bound * 100.0,
                if ok { "" } else { "  EXCEEDS BOUND" }
            );
        }
        let failed: u64 = runs.iter().map(|r| r.failed).sum();
        let other = run_child(workload, seed + 1, seconds)?;
        println!(
            "{workload:<12} failed ops: {failed} on seed {seed}, {} on seed {}",
            other.failed,
            seed + 1
        );
        pass &= failed == 0 && other.failed == 0;
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_respects_the_direction() {
        assert!((worsening(10.0, 11.0, false) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 9.0, true) - 0.1).abs() < 1e-12);
        assert!(worsening(10.0, 9.0, false) < 0.0);
        assert_eq!(worsening(0.0, 5.0, false), 0.0);
    }

    #[test]
    fn bounds_come_from_benchmark_json() {
        let bounds = bounds().expect("BENCHMARK.json is readable");
        let names: Vec<&str> = bounds.iter().map(|(n, _, _)| n.as_str()).collect();
        let table: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, table);
        assert!(bounds.iter().all(|(_, b, _)| *b > 0.0 && *b <= 0.25));
        assert_eq!(
            bounds.iter().filter(|(_, _, higher)| *higher).count(),
            1,
            "only ops_per_s is better when higher"
        );
    }
}
