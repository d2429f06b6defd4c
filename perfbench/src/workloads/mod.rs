//! The five workloads and the two drivers (`run`, `trace`) that time
//! them.
//!
//! Every workload has the same shape, which is what makes it repeat:
//! fixed work, never fixed duration. `setup` generates the inputs from
//! the seed, computes the oracle, builds sessions/servers and runs one
//! untimed warm-up unit; then `U` timed units follow and `wall_s` is
//! their sum. `--seconds` scales `U` linearly from the counts frozen
//! here for [`RUN_SECONDS`]; the corpus sizes never change. Product
//! defaults throughout — there are no "off" arms: gains are claimed
//! against this baseline, not against a switch.

pub mod covid_batch;
mod daemon;
pub mod rgx_extract;
pub mod serve_churn;
pub mod serve_read;
pub mod tc_join;

use crate::calibrate::{Calibrator, NOMINAL_MS};
use crate::report::{self, Outcome, END_TO_END, PER_LAYER};
use crate::spans::Recorder;
use spannerlib_core::Value;
use spannerlib_dataframe::DataFrame;
use spannerlog_engine::{EvalProfile, Session, TraceLevel};
use std::collections::BTreeMap;
use std::time::Instant;

/// Workload names, in `BENCHMARK.json` order. Later issues cite them.
pub const NAMES: &[&str] = &[
    "covid_batch",
    "rgx_extract",
    "tc_join",
    "serve_read",
    "serve_churn",
];

/// The `--seconds` value the frozen unit counts were calibrated for
/// (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

/// How many times `bench run` sets up, to report the median set-up.
const SETUP_REPEATS: usize = 3;

/// Per-layer values a workload measured, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// [`Recorder::self_ms_per_unit`]: span name → ms per unit.
pub type SpanMs = BTreeMap<&'static str, f64>;

/// One workload. `unit` is the only timed call.
pub trait Workload: Sized {
    /// Units in a run of [`RUN_SECONDS`] seconds on the reference box.
    const UNITS: usize;

    /// Inputs from the seed → oracle → sessions/servers → one untimed
    /// warm-up unit. `units` is how many timed units will follow.
    fn setup(seed: u64, units: usize) -> Self;

    /// Switches the engine's own `TraceLevel::Summary` profile on for
    /// the units that follow (workloads that own their sessions).
    fn set_traced(&mut self, _traced: bool) {}

    /// Runs timed unit `index`, recording spans around each call into
    /// a layer, and keeps its output for [`Workload::verify`].
    fn unit(&mut self, index: usize, rec: &mut Recorder);

    /// Checks the last unit's output against the oracle, outside the
    /// timed window. Returns `(ops attempted, ops failed)`; a unit
    /// whose check fails counts all its ops as failed.
    fn verify(&mut self, index: usize) -> (u64, u64);

    /// `bench trace` only: per-layer numbers measured by calling the
    /// layers' public functions directly on this workload's inputs,
    /// plus whatever the program's own counters report. `scale` is
    /// `--seconds ÷ RUN_SECONDS`, for phases with a length of their
    /// own. `spans` is the traced units' roll-up: per span name, the
    /// median self time per unit in milliseconds.
    fn layers(&mut self, spans: &SpanMs, scale: f64) -> Layers;

    /// Frozen sizes, for the history line.
    fn sizes(&self) -> String;

    /// Stops whatever `setup` started.
    fn teardown(self) {}
}

/// Timed units for `--seconds`, scaled from the frozen count.
fn scaled_units(frozen: usize, seconds: u64) -> usize {
    ((frozen as u64 * seconds + RUN_SECONDS / 2) / RUN_SECONDS).max(3) as usize
}

struct Timed {
    latencies_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// The percentile `latency_p90_ms` carries for a run of `units` units:
/// the 90th where at least ten samples lie beyond it, else the highest
/// that has ten beyond it, and never less than the median. A
/// percentile with fewer samples beyond it is decided by one or two
/// slow units and does not repeat (on `tc_join`'s 14 units the true p90
/// — the second-slowest unit — spread by 26 % between runs of the same
/// code). So the batch workloads report their median here (13–14
/// units) or their p75 (40 units), and only the two serving workloads
/// a real p90.
pub fn tail_percentile(units: usize) -> f64 {
    (1.0 - 10.0 / units as f64).clamp(0.5, 0.9)
}

/// Calibration samples a run aims for (each costs ~30 ms).
const CALIBRATION_SAMPLES: usize = 40;

/// Runs units `first..first + count`, each inside a `unit` root span,
/// sampling the host-calibration kernel between units (never inside
/// one) so that about [`CALIBRATION_SAMPLES`] are spread over them.
fn time_units<W: Workload>(
    w: &mut W,
    rec: &mut Recorder,
    mut calibrator: Option<&mut Calibrator>,
    first: usize,
    count: usize,
) -> Timed {
    let mut timed = Timed {
        latencies_ms: Vec::with_capacity(count),
        attempted: 0,
        failed: 0,
    };
    let every = (count / CALIBRATION_SAMPLES).max(1);
    let each = CALIBRATION_SAMPLES.div_ceil(count);
    for index in first..first + count {
        rec.set_unit(index);
        let root = rec.enter("unit");
        let start = Instant::now();
        w.unit(index, rec);
        let elapsed = start.elapsed();
        rec.exit(root);
        timed.latencies_ms.push(elapsed.as_secs_f64() * 1e3);
        let (ops, failed) = w.verify(index);
        timed.attempted += ops;
        timed.failed += failed;
        if let Some(calibrator) = calibrator.as_deref_mut() {
            if index % every == 0 {
                (0..each).for_each(|_| calibrator.sample());
            }
        }
    }
    timed
}

/// `bench run`: tracing off, every end-to-end metric.
///
/// The process does what a user's would — one set-up, then the timed
/// units — so `peak_rss_mb` is that of one workload instance. The
/// set-up is then repeated on the same seed and the median of the
/// three is reported, so that one slow page-in does not read as a
/// set-up regression. Times are scaled to a quiet reference box (see
/// [`crate::calibrate`]).
pub fn run<W: Workload>(name: &str, seed: u64, seconds: u64, history: bool) -> Outcome {
    let units = scaled_units(W::UNITS, seconds);
    let mut calibrator = Calibrator::start().ok();
    let sample = |c: &mut Option<Calibrator>| {
        if let Some(c) = c.as_mut() {
            (0..3).for_each(|_| c.sample());
        }
    };
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let timed_setup = |setups: &mut Vec<f64>| {
        let start = Instant::now();
        let w = W::setup(seed, units);
        setups.push(start.elapsed().as_secs_f64());
        w
    };

    sample(&mut calibrator);
    let mut w = timed_setup(&mut setups);
    let timed = time_units(
        &mut w,
        &mut Recorder::new(false),
        calibrator.as_mut(),
        0,
        units,
    );
    let sizes = format!("units={units} {}", w.sizes());
    w.teardown();
    let peak_rss_mb = report::peak_rss_mb();
    for _ in 1..SETUP_REPEATS {
        sample(&mut calibrator);
        timed_setup(&mut setups).teardown();
    }
    sample(&mut calibrator);
    let calibration_ms = calibrator
        .as_ref()
        .map_or(NOMINAL_MS, Calibrator::median_ms);
    if let Some(calibrator) = calibrator {
        calibrator.stop();
    }

    let scale = NOMINAL_MS / calibration_ms;
    let wall_s: f64 = timed.latencies_ms.iter().sum::<f64>() / 1e3 * scale;
    let mut sorted = timed.latencies_ms;
    sorted.sort_by(f64::total_cmp);
    let values = [
        report::median(&mut setups) * scale,
        wall_s,
        timed.attempted as f64 / wall_s,
        report::percentile(&sorted, 0.5) * scale,
        report::percentile(&sorted, tail_percentile(sorted.len())) * scale,
        peak_rss_mb,
    ];
    let outcome = Outcome {
        attempted: timed.attempted,
        failed: timed.failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit), value)| (name.to_string(), value, unit.to_string()))
            .collect(),
        sizes,
        calibration_ms: Some(calibration_ms),
    };
    if history {
        report::append_history(name, seed, &outcome);
    }
    outcome
}

/// `bench trace`: two thirds of the units, alternating untraced (the
/// baseline) and traced (spans and the engine profile on) so that a
/// drift over the run lands on both; then the direct layer
/// measurements; every per-layer metric. End-to-end numbers never come
/// from here.
pub fn trace<W: Workload>(name: &str, seed: u64, seconds: u64) -> Outcome {
    let units = scaled_units(W::UNITS, seconds);
    let pairs = units.div_ceil(3);
    let mut w = W::setup(seed, units);

    let mut off = Recorder::new(false);
    let mut rec = Recorder::new(true);
    let (mut baseline_ms, mut traced_ms) = (0.0, 0.0);
    let (mut attempted, mut failed) = (0, 0);
    for pair in 0..pairs {
        for traced in [false, true] {
            w.set_traced(traced);
            let recorder = if traced { &mut rec } else { &mut off };
            let timed = time_units(&mut w, recorder, None, 2 * pair + usize::from(traced), 1);
            *(if traced {
                &mut traced_ms
            } else {
                &mut baseline_ms
            }) += timed.latencies_ms[0];
            attempted += timed.attempted;
            failed += timed.failed;
        }
    }

    let mut layers = w.layers(&rec.self_ms_per_unit(), seconds as f64 / RUN_SECONDS as f64);
    let sizes = format!("units={pairs}+{pairs} {}", w.sizes());
    w.teardown();
    layers.insert("bench.trace_overhead", traced_ms / baseline_ms);
    layers.insert("bench.attributed_ratio", rec.attributed_ratio());

    let path = report::bench_dir()
        .join("out")
        .join(format!("{name}.spans.jsonl"));
    if let Err(e) = rec.write_jsonl(&path) {
        eprintln!("bench: could not write {}: {e}", path.display());
    }
    for name in layers.keys() {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "{name} is not in the per-layer table"
        );
    }
    Outcome {
        attempted,
        failed,
        metrics: PER_LAYER
            .iter()
            .map(|(name, unit)| {
                (
                    name.to_string(),
                    layers.get(name).copied().unwrap_or(0.0),
                    unit.to_string(),
                )
            })
            .collect(),
        sizes,
        calibration_ms: None,
    }
}

/// Runs workload `name` (`None` if there is no such workload).
pub fn dispatch(
    name: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    history: bool,
) -> Option<Outcome> {
    fn go<W: Workload>(
        name: &str,
        seed: u64,
        seconds: u64,
        traced: bool,
        history: bool,
    ) -> Outcome {
        if traced {
            trace::<W>(name, seed, seconds)
        } else {
            run::<W>(name, seed, seconds, history)
        }
    }
    Some(match name {
        "covid_batch" => go::<covid_batch::CovidBatch>(name, seed, seconds, traced, history),
        "rgx_extract" => go::<rgx_extract::RgxExtract>(name, seed, seconds, traced, history),
        "tc_join" => go::<tc_join::TcJoin>(name, seed, seconds, traced, history),
        "serve_read" => go::<serve_read::ServeRead>(name, seed, seconds, traced, history),
        "serve_churn" => go::<serve_churn::ServeChurn>(name, seed, seconds, traced, history),
        _ => return None,
    })
}

/// Milliseconds `f` takes, median of `repeats` calls.
pub(crate) fn time_ms<T>(repeats: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    report::median(&mut samples)
}

/// Copies the roll-up of `span` into layer metric `metric`.
pub(crate) fn layer_from_span(
    layers: &mut Layers,
    spans: &SpanMs,
    metric: &'static str,
    span: &str,
) {
    if let Some(ms) = spans.get(span) {
        layers.insert(metric, *ms);
    }
}

/// The engine trace level of a unit: its summary profile when the unit
/// is traced, nothing otherwise.
pub(crate) fn trace_level(traced: bool) -> TraceLevel {
    if traced {
        TraceLevel::Summary
    } else {
        TraceLevel::Off
    }
}

/// Imports `(id, text)` rows as relation `name` the way the product's
/// drivers do: `DataFrame::from_rows` + `import_dataframe`.
pub(crate) fn import_texts<'a>(
    session: &mut Session,
    name: &str,
    rows: impl Iterator<Item = (&'a str, &'a str)>,
) -> Option<()> {
    let frame = DataFrame::from_rows(
        vec!["doc".into(), "text".into()],
        rows.map(|(id, text)| vec![Value::str(id), Value::str(text)])
            .collect(),
    )
    .ok()?;
    session.import_dataframe(&frame, name).ok()
}

/// The `engine.*` and `par.*` metrics of one evaluation, from the
/// engine's own `TraceLevel::Summary` profile.
pub(crate) fn engine_layers(layers: &mut Layers, profile: &EvalProfile) {
    let ms = |ns: u64| ns as f64 / 1e6;
    let ie_ns: u64 = profile.ie_functions.iter().map(|f| f.latency.sum).sum();
    let rules = || profile.strata.iter().flat_map(|s| s.rules.iter());
    let negation_ns: u64 = rules()
        .filter(|r| r.source.contains("not "))
        .map(|r| r.total_ns)
        .sum();
    let scanned: u64 = rules().map(|r| r.join_rows_scanned).sum();
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    layers.insert("engine.eval_ms", ms(profile.total_ns));
    layers.insert("engine.eval.ie_ms", ms(ie_ns));
    // Self time of the evaluator: what is left once the IE calls are
    // taken out — joins, negation, dedupe. IE calls made on pool
    // workers overlap, so their sum can exceed the wall.
    layers.insert(
        "engine.eval.join_ms",
        ms(profile.total_ns.saturating_sub(ie_ns)),
    );
    layers.insert("engine.eval.negation_ms", ms(negation_ns));
    layers.insert("engine.eval.rounds", profile.rounds as f64);
    layers.insert("engine.eval.rule_firings", profile.rule_firings as f64);
    layers.insert("engine.eval.tuples_derived", profile.tuples_derived as f64);
    layers.insert("engine.eval.tuples_new", profile.tuples_new as f64);
    layers.insert(
        "engine.eval.dedupe_ratio",
        ratio(profile.tuples_new, profile.tuples_derived),
    );
    layers.insert("engine.eval.join_rows_scanned", scanned as f64);
    layers.insert(
        "engine.eval.rows_scanned_per_new_tuple",
        ratio(scanned, profile.tuples_new),
    );
    layers.insert("engine.planner.index_builds", profile.index_builds as f64);
    layers.insert("engine.planner.index_hits", profile.index_hits as f64);
    layers.insert(
        "regex.prefilter.searches",
        profile.prefilter_searches as f64,
    );
    layers.insert("regex.prefilter.pruned", profile.prefilter_pruned as f64);
    layers.insert(
        "regex.prefilter.prune_ratio",
        ratio(profile.prefilter_pruned, profile.prefilter_searches),
    );
    layers.insert("par.workers", profile.par_workers as f64);
    layers.insert("par.shards", profile.par_shards as f64);
    layers.insert("par.stolen", profile.par_stolen as f64);
    layers.insert("par.serial_rules", profile.par_serial_rules as f64);
}

/// The `cache.memo.*` metrics from a session's memo counters.
pub(crate) fn cache_layers(layers: &mut Layers, stats: &spannerlog_engine::CacheStats) {
    layers.insert("cache.memo.hits", stats.hits as f64);
    layers.insert("cache.memo.misses", stats.misses as f64);
    layers.insert("cache.memo.hit_ratio", stats.hit_rate());
    layers.insert("cache.memo.evictions", stats.evictions as f64);
    layers.insert(
        "cache.memo.resident_mb",
        stats.bytes as f64 / (1024.0 * 1024.0),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_counts_scale_with_seconds_and_never_vanish() {
        assert_eq!(scaled_units(12, RUN_SECONDS), 12);
        assert_eq!(scaled_units(12, RUN_SECONDS * 2), 24);
        assert_eq!(scaled_units(12, 1), 3);
        assert_eq!(scaled_units(RUN_SECONDS as usize * 1_000, 1), 1_000);
    }

    #[test]
    fn the_tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(13), 0.5);
        assert_eq!(tail_percentile(40), 0.75);
        assert_eq!(tail_percentile(100), 0.9);
        assert_eq!(tail_percentile(12_000), 0.9);
    }
}
