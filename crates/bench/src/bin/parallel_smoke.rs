//! Bench-smoke for split-correct shard-parallel evaluation: times the
//! §4.2 clinical pipeline end to end on a ×8-scaled corpus with the
//! evaluator pinned serial against pools of 2, 4, and 8 workers, checks
//! every arm classifies the corpus identically to the serial run, and
//! writes the speedups to `BENCH_parallel.json` (first argument
//! overrides the output path). CI uploads the file as an artifact; the
//! checked-in copy at the repo root records a reference run.
//!
//! Each of the eight corpus copies perturbs its note texts and ids, so
//! neither the document interner nor the IE memo can collapse the
//! copies — the parallel arms must actually extract eight corpora's
//! worth of spans.
//!
//! `--strict` (used for reference runs and CI) gates the 4-worker arm
//! at ≥ 1.8x over serial — provided the host exposes at least 4 CPUs.
//! On smaller hosts there is no hardware to saturate and the parallel
//! path pays its shared-lock and scheduling overhead with nothing to
//! overlap, so the gate degrades to "bounded overhead" (≥ 0.75x), and
//! the JSON records `host_cores` so readers can tell which gate a
//! reference file was held to.

use spannerlib_covid::corpus::{generate_corpus, CorpusDoc};
use spannerlib_covid::spanner::SpannerPipeline;
use spannerlog_engine::TraceLevel;
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 5;
const BASE_DOCS: usize = 30;
const SCALE: usize = 8;

/// Best-of-REPS wall-clock nanoseconds for `work` on fresh state from
/// `setup`. Pipeline construction (parsing, planning, CSV loads) stays
/// outside the timed region — parallelism only affects evaluation.
fn measure<S>(setup: impl Fn() -> S, work: impl Fn(&mut S)) -> u128 {
    (0..REPS)
        .map(|_| {
            let mut state = setup();
            let start = Instant::now();
            work(&mut state);
            start.elapsed().as_nanos()
        })
        .min()
        .expect("REPS > 0")
}

/// The base corpus replicated `SCALE` times with per-copy perturbed
/// ids and texts (a distinct benign suffix sentence), defeating both
/// document interning and IE memoization across copies.
fn scaled_corpus() -> Vec<CorpusDoc> {
    let base = generate_corpus(BASE_DOCS, 42);
    (0..SCALE)
        .flat_map(|copy| {
            base.iter().map(move |doc| {
                let mut d = doc.clone();
                d.id = format!("{}_c{copy}", d.id);
                d.text = format!("{} Batch marker b{copy} filed.", d.text);
                d
            })
        })
        .collect()
}

/// Times a full classify pass at `workers` (0 pins serial) and returns
/// the best-of-REPS time plus one run's results for the equality check.
fn measure_arm(
    corpus: &[CorpusDoc],
    workers: usize,
) -> (u128, Vec<spannerlib_covid::classify::DocumentResult>) {
    let build =
        || SpannerPipeline::with_config(TraceLevel::Off, Some(workers)).expect("pipeline builds");
    let ns = measure(build, |pipeline| {
        black_box(pipeline.classify_corpus(corpus).expect("corpus classifies"));
    });
    let results = build().classify_corpus(corpus).expect("corpus classifies");
    (ns, results)
}

fn main() {
    let mut strict = false;
    let mut out_path = "BENCH_parallel.json".to_string();
    for arg in std::env::args().skip(1) {
        if arg == "--strict" {
            strict = true;
        } else {
            out_path = arg;
        }
    }

    let corpus = scaled_corpus();
    let docs = corpus.len();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let (serial_ns, serial_results) = measure_arm(&corpus, 0);
    let (w2_ns, w2_results) = measure_arm(&corpus, 2);
    let (w4_ns, w4_results) = measure_arm(&corpus, 4);
    let (w8_ns, w8_results) = measure_arm(&corpus, 8);

    // Parallelism must be semantically invisible on the full clinical
    // workload: every arm classifies every document identically.
    for (workers, results) in [(2, &w2_results), (4, &w4_results), (8, &w8_results)] {
        assert_eq!(
            &serial_results, results,
            "{workers}-worker arm diverged from the serial classification"
        );
    }

    let w2_speedup = serial_ns as f64 / w2_ns as f64;
    let w4_speedup = serial_ns as f64 / w4_ns as f64;
    let w8_speedup = serial_ns as f64 / w8_ns as f64;
    let json = format!(
        "{{\n  \"bench\": \"parallel_serial_vs_workers\",\n  \
         \"reps_per_arm\": {REPS},\n  \"docs\": {docs},\n  \
         \"host_cores\": {host_cores},\n  \"serial_ns\": {serial_ns},\n  \
         \"w2_ns\": {w2_ns},\n  \"w2_speedup\": {w2_speedup:.3},\n  \
         \"w4_ns\": {w4_ns},\n  \"w4_speedup\": {w4_speedup:.3},\n  \
         \"w8_ns\": {w8_ns},\n  \"w8_speedup\": {w8_speedup:.3}\n}}\n",
    );
    std::fs::write(&out_path, &json).expect("write bench output");
    print!("{json}");

    // The headline gate: 4 workers must beat serial by ≥ 1.8x where the
    // hardware makes that possible; degraded hosts only assert the
    // parallel path's overhead stays bounded.
    let floor = if host_cores >= 4 { 1.8 } else { 0.75 };
    if w4_speedup < floor {
        let msg = format!(
            "4-worker speedup {w4_speedup:.3}x below the {floor}x gate \
             ({host_cores} host cores)"
        );
        if strict {
            panic!("{msg}");
        }
        eprintln!("warning: {msg}");
    }
}
