//! Runs every reproduced artifact of the paper and prints a
//! paper-vs-measured report.
//!
//! Usage: `cargo run -p spannerlib-bench --bin experiments --release`

use spannerlib_covid::corpus::generate_corpus;
use spannerlib_covid::loc;
use spannerlib_covid::native::report::SurveillanceReport;
use spannerlib_covid::native::NativePipeline;
use spannerlib_covid::spanner::SpannerPipeline;
use spannerlib_regex::Regex;
use std::time::Instant;

fn heading(title: &str) {
    println!("\n=== {title} ===");
}

fn main() {
    // ---------------------------------------------------------------
    heading("Exp. §2 — the worked rgx example (exactness check)");
    let re = Regex::new("x{a+}c+y{b+}").unwrap();
    let d = "acb aacccbbb";
    let rows: Vec<Vec<Option<(usize, usize)>>> = re
        .captures_iter(d)
        .map(|c| c.explicit_groups().collect())
        .collect();
    println!("pattern x{{a+}}c+y{{b+}} over {d:?}:");
    for row in &rows {
        println!("  {row:?}");
    }
    let expect = vec![
        vec![Some((0, 1)), Some((2, 3))],
        vec![Some((4, 6)), Some((9, 12))],
    ];
    println!(
        "paper expects [(0,1),(2,3)] and [(4,6),(9,12)] → {}",
        if rows == expect {
            "MATCH (exact)"
        } else {
            "MISMATCH"
        }
    );
    assert_eq!(rows, expect);

    // ---------------------------------------------------------------
    heading("Exp. Table 1 — lines-of-code comparison");
    let docs = generate_corpus(150, 42);
    let native = NativePipeline::new();
    let t0 = Instant::now();
    let native_results = native.classify_corpus(&docs);
    let native_time = t0.elapsed();
    let mut spanner = SpannerPipeline::new().unwrap();
    let t0 = Instant::now();
    let spanner_results = spanner.classify_corpus(&docs).unwrap();
    let spanner_time = t0.elapsed();
    let agree = native_results
        .iter()
        .zip(&spanner_results)
        .filter(|(n, s)| n.status == s.status && n.mentions == s.mentions)
        .count();
    println!(
        "equivalence: {agree}/{} docs identical (status AND mention evidence)",
        docs.len()
    );
    println!(
        "gold accuracy: native {:.3}, spannerlib {:.3}",
        native.accuracy(&docs),
        spanner.accuracy(&docs).unwrap()
    );
    println!();
    println!("{}", loc::render_table1());

    // ---------------------------------------------------------------
    heading("Demo: surveillance statistics (imperative folds vs aggregation rules)");
    let report = SurveillanceReport::build(&native_results);
    println!("{report}");
    let counts = spanner.session_mut().export("?StatusCount(s, n)").unwrap();
    println!("\nStatusCount(s, count(d)) <- Status(d, s):\n{counts}");

    // ---------------------------------------------------------------
    heading("Ablation B — findall vs all-matches regex semantics");
    println!(
        "{:>8} {:>12} {:>12} {:>10} {:>10}",
        "doc len", "findall", "all-match", "rows(f)", "rows(a)"
    );
    for n in [64usize, 128, 256] {
        let doc = spannerlib_bench::uniform_document('a', n);
        let re = Regex::new("x{a+}").unwrap();
        let t0 = Instant::now();
        let rows_f = re.find_iter(&doc).count();
        let t_f = t0.elapsed();
        let t0 = Instant::now();
        let rows_a = re.all_matches(&doc).len();
        let t_a = t0.elapsed();
        println!(
            "{:>8} {:>10.2?} {:>10.2?} {:>10} {:>10}",
            n, t_f, t_a, rows_f, rows_a
        );
    }
    println!("expected shape: findall linear rows, all-matches quadratic rows");

    // ---------------------------------------------------------------
    heading("Ablation C — imperative vs declarative pipeline throughput");
    println!(
        "corpus of {} notes: native {:?} ({:.1} docs/ms), spannerlib {:?} ({:.2} docs/ms)",
        docs.len(),
        native_time,
        docs.len() as f64 / native_time.as_millis().max(1) as f64,
        spanner_time,
        docs.len() as f64 / spanner_time.as_millis().max(1) as f64,
    );
    println!(
        "declarative overhead: {:.1}x — expected shape: native faster (paper §6 \
         concedes the engine does not emphasise performance)",
        spanner_time.as_secs_f64() / native_time.as_secs_f64()
    );
}
