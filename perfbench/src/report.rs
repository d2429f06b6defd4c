//! Metric names, statistics, and the result line.
//!
//! The two tables here are the benchmark's vocabulary; `BENCHMARK.json`
//! at the repository root repeats them and a test keeps the two in
//! step.

use crate::calibrate::NOMINAL_MS;
use std::io::Write;
use std::path::PathBuf;

/// End-to-end metrics: `(name, unit)`. Printed by `bench run`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`. Printed by `bench trace`; a
/// metric that does not apply to a workload reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("parser.parse_ms", "ms"),
    ("engine.prepare_ms", "ms"),
    ("dataframe.import_ms", "ms"),
    ("dataframe.decode_ms", "ms"),
    ("core.intern_ms", "ms"),
    ("core.docstore_mb", "MB"),
    ("engine.eval_ms", "ms"),
    ("engine.eval.ie_ms", "ms"),
    ("engine.eval.join_ms", "ms"),
    ("engine.eval.negation_ms", "ms"),
    ("engine.eval.rounds", "count"),
    ("engine.eval.rule_firings", "count"),
    ("engine.eval.tuples_derived", "count"),
    ("engine.eval.tuples_new", "count"),
    ("engine.eval.dedupe_ratio", "ratio"),
    ("engine.eval.join_rows_scanned", "count"),
    ("engine.eval.rows_scanned_per_new_tuple", "ratio"),
    ("engine.planner.index_builds", "count"),
    ("engine.planner.index_hits", "count"),
    ("engine.export_ms", "ms"),
    ("engine.snapshot_ms", "ms"),
    ("nlp.sentences_ms", "ms"),
    ("nlp.sections_ms", "ms"),
    ("nlp.matcher_ms", "ms"),
    ("nlp.context_ms", "ms"),
    ("covid.native_ms", "ms"),
    ("covid.declarative_overhead", "ratio"),
    ("regex.compile_ms", "ms"),
    ("regex.scan_literal_mb_per_s", "MB/s"),
    ("regex.scan_class_mb_per_s", "MB/s"),
    ("regex.matches", "count"),
    ("regex.prefilter.searches", "count"),
    ("regex.prefilter.pruned", "count"),
    ("regex.prefilter.prune_ratio", "ratio"),
    ("cache.memo.hits", "count"),
    ("cache.memo.misses", "count"),
    ("cache.memo.hit_ratio", "ratio"),
    ("cache.memo.evictions", "count"),
    ("cache.memo.resident_mb", "MB"),
    ("par.workers", "count"),
    ("par.shards", "count"),
    ("par.stolen", "count"),
    ("par.serial_rules", "count"),
    ("serve.json.parse_ms", "ms"),
    ("serve.json.parse_mb_per_s", "MB/s"),
    ("serve.json.render_ms", "ms"),
    ("serve.http.read_ms", "ms"),
    ("serve.http.write_ms", "ms"),
    ("serve.import_rtt_ms", "ms"),
    ("serve.execute_after_write_ms", "ms"),
    ("serve.read.point_p50_ms", "ms"),
    ("serve.read.filtered_p50_ms", "ms"),
    ("serve.read.full_p50_ms", "ms"),
    ("serve.read.p99_ms", "ms"),
    ("serve.read.p999_ms", "ms"),
    ("serve.server.request_p50_ms", "ms"),
    ("serve.client_overhead_ms", "ms"),
    ("serve.evals", "count"),
    ("serve.coalesced", "count"),
    ("serve.openloop.p50_ms", "ms"),
    ("serve.openloop.p99_ms", "ms"),
    ("serve.openloop.max_late_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
    ("bench.attributed_ratio", "ratio"),
];

/// Median of `values` (sorts them); 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `(0, 1]` of sorted `values`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Peak resident set size of this process (`VmHWM`), in megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result of one run, in the shape the last output line carries.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Operations attempted in the timed units.
    pub attempted: u64,
    /// Operations whose oracle check failed (or that were refused).
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(String, f64, String)>,
    /// Unit count and frozen input sizes, for the reader and the
    /// history line.
    pub sizes: String,
    /// Median host-calibration sample of the run, in ms; the time
    /// metrics above are already scaled by `NOMINAL_MS ÷` this. `None`
    /// for a traced run, whose per-layer metrics are as measured.
    pub calibration_ms: Option<f64>,
}

impl Outcome {
    /// The one-line JSON object the run ends with.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Value of metric `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// Prints every metric by name with its unit, then the JSON line.
    pub fn print(&self, workload: &str, seed: u64) {
        println!("workload {workload} seed {seed} {}", self.sizes);
        for (name, value, unit) in &self.metrics {
            println!("  {name:<42} {value:>16.4} {unit}");
        }
        println!("  ops attempted {} failed {}", self.attempted, self.failed);
        if let Some(ms) = self.calibration_ms {
            println!(
                "  host calibration {ms:.2} ms (nominal {NOMINAL_MS}): times above are measured × {:.4}",
                NOMINAL_MS / ms
            );
        }
        println!("{}", self.json_line());
    }
}

/// The benchmark's own directory (where `out/` and `history.jsonl`
/// live), fixed when the binary is built.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The checked-out commit, read from `.git` without starting a
/// process; `unknown` outside a git checkout.
pub fn git_rev() -> String {
    let git = bench_dir().join("..").join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference)).unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".into()
    } else {
        rev.chars().take(12).collect()
    }
}

/// Appends one line per `bench run` to `history.jsonl`, so the
/// trajectory lives in the repository.
pub fn append_history(workload: &str, seed: u64, outcome: &Outcome) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, _)| format!("\"{name}\": {value}"))
        .collect();
    let line = format!(
        "{{\"git_rev\": \"{}\", \"host_cores\": {cores}, \"workload\": \"{workload}\", \
         \"seed\": {seed}, \"sizes\": \"{}\", \"calibration_ms\": {}, \"attempted\": {}, \
         \"failed\": {}, \"metrics\": {{{}}}}}\n",
        git_rev(),
        outcome.sizes,
        outcome.calibration_ms.unwrap_or(NOMINAL_MS),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    let path = bench_dir().join("history.jsonl");
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(line.as_bytes()));
    if let Err(e) = appended {
        eprintln!("bench: could not append to {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Json;

    #[test]
    fn statistics_use_nearest_rank() {
        let mut v = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&mut v), 3.0);
        assert_eq!(percentile(&v, 0.9), 5.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.2), 1.0);
        assert_eq!(median(&mut [1.0, 2.0]), 1.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(peak_rss_mb() > 1.0);
    }

    #[test]
    fn the_result_line_is_one_json_object_with_the_contract_keys() {
        let outcome = Outcome {
            attempted: 10,
            failed: 1,
            metrics: vec![("wall_s".into(), 1.25, "s".into())],
            sizes: String::new(),
            calibration_ms: None,
        };
        let json = Json::parse(&outcome.json_line()).expect("valid JSON");
        assert_eq!(json.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(json.get("attempted").and_then(Json::as_usize), Some(10));
        assert_eq!(json.get("failed").and_then(Json::as_usize), Some(1));
        let wall = json.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("value"), Some(&Json::Num(1.25)));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
    }

    /// `BENCHMARK.json` must name exactly the metrics and workloads the
    /// binary prints.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let text = std::fs::read_to_string(bench_dir().join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(Json::items)
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_string(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), table(END_TO_END));
        assert_eq!(names("per_layer"), table(PER_LAYER));
        let workloads: Vec<&str> = json
            .get("workloads")
            .and_then(Json::items)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
        assert_eq!(
            json.get("run_seconds").and_then(Json::as_usize),
            Some(crate::workloads::RUN_SECONDS as usize)
        );
    }
}
