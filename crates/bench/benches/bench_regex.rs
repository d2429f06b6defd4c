//! Ablation B (DESIGN.md): the regex-formula engine.
//!
//! * `compile` — pattern → NFA cost (amortized away by the IE cache).
//! * `findall/*` — leftmost-first scan over growing documents: expected
//!   linear in document length. `findall/class_led/*` is the case no
//!   literal prefix can rescue (`\w+@\w+\.com`): the DFA front walks
//!   every byte, so its throughput is the matcher's, not `str::find`'s.
//! * `allmatches/*` — formal spanner semantics on the quadratic-output
//!   worst case (`x{a+}` over `aⁿ`): expected superlinear, which is the
//!   semantic price of ⟦γ⟧(d) enumeration.
//! * `email/*` — the paper's §3.2 extraction pattern over realistic text.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use spannerlib_bench::{email_document, uniform_document};
use spannerlib_regex::Regex;
use std::hint::black_box;

fn bench_compile(c: &mut Criterion) {
    let mut group = c.benchmark_group("regex_compile");
    for pattern in [
        "x{a+}c+y{b+}",
        r"(\w+)@(\w+)\.\w+",
        "[a-z]+([0-9]{2,4}|x+)*",
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(pattern), pattern, |b, p| {
            b.iter(|| Regex::new(black_box(p)).unwrap())
        });
    }
    group.finish();
}

fn bench_findall(c: &mut Criterion) {
    let mut group = c.benchmark_group("regex_findall");
    let re = Regex::new("x{a+}c+y{b+}").unwrap();
    for n in [1_000usize, 4_000, 16_000] {
        let doc = "acb aacccbbb ".repeat(n / 13 + 1);
        group.throughput(Throughput::Bytes(doc.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &doc, |b, d| {
            b.iter(|| re.find_iter(black_box(d)).count())
        });
    }
    let class_led = Regex::new(r"\w+@\w+\.com").unwrap();
    for words in [500usize, 2_000, 8_000] {
        let doc = email_document(words, 99);
        group.throughput(Throughput::Bytes(doc.len() as u64));
        group.bench_with_input(BenchmarkId::new("class_led", words), &doc, |b, d| {
            b.iter(|| class_led.find_iter(black_box(d)).count())
        });
    }
    group.finish();
}

fn bench_allmatches(c: &mut Criterion) {
    let mut group = c.benchmark_group("regex_allmatches");
    let re = Regex::new("x{a+}").unwrap();
    for n in [32usize, 64, 128] {
        let doc = uniform_document('a', n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &doc, |b, d| {
            b.iter(|| re.all_matches(black_box(d)).len())
        });
    }
    group.finish();
}

fn bench_email(c: &mut Criterion) {
    let mut group = c.benchmark_group("regex_email_extraction");
    let re = Regex::new(r"(\w+)@(\w+)\.\w+").unwrap();
    for words in [500usize, 2_000, 8_000] {
        let doc = email_document(words, 99);
        group.throughput(Throughput::Bytes(doc.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(words), &doc, |b, d| {
            b.iter(|| re.captures_iter(black_box(d)).count())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_compile,
    bench_findall,
    bench_allmatches,
    bench_email
);
criterion_main!(benches);
