//! Shard-parallel evaluation vs serial, on two workloads:
//!
//! * `parallel_covid/*` — the §4.2 clinical pipeline end to end on a
//!   scaled corpus, at 0 (pinned serial), 2, and 4 workers.
//! * `parallel_rgx/*` — a pure split-correct extraction rule over a
//!   synthetic corpus: the best case for sharding (no serial-fallback
//!   rules diluting the win).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spannerlib_covid::corpus::generate_corpus;
use spannerlib_covid::spanner::SpannerPipeline;
use spannerlog_engine::{Session, TraceLevel};
use std::hint::black_box;

fn bench_covid_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_covid");
    group.sample_size(10);
    let corpus = generate_corpus(60, 42);
    for workers in [0usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let mut pipeline = SpannerPipeline::with_config(TraceLevel::Off, Some(workers))
                        .expect("pipeline builds");
                    black_box(
                        pipeline
                            .classify_corpus(&corpus)
                            .expect("corpus classifies"),
                    );
                })
            },
        );
    }
    group.finish();
}

fn bench_pure_extraction(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_rgx");
    group.sample_size(10);
    let corpus: Vec<(String, String)> = (0..96)
        .map(|i| {
            let body = format!("tok{} alpha beta{} gamma ", i % 11, i % 7).repeat(40);
            (format!("d{i}"), body)
        })
        .collect();
    let program = r#"Tok(d, w) <- Texts(d, t), rgx_string("(tok[0-9]+|beta[0-9]+)", t) -> (w)"#;
    for workers in [0usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let mut session = Session::builder().parallelism(workers).build();
                    session.import_typed("Texts", corpus.clone()).unwrap();
                    session.run(black_box(program)).unwrap();
                    black_box(session.relation("Tok").unwrap().len());
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_covid_pipeline, bench_pure_extraction);
criterion_main!(benches);
