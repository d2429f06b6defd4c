//! Demo scenario 4 ("Real Code Base", paper §4.2/§5): the COVID-19
//! classification case study, side by side.
//!
//! Runs the imperative pipeline and its SpannerLib rewrite over the same
//! synthetic corpus, verifies they agree, compares both against the gold
//! labels, prints the surveillance statistics from both sides (explicit
//! folds vs aggregation rules), shows where the declarative evaluation
//! spent its time (the per-rule `EvalProfile`), and finishes with the
//! Table 1 lines-of-code audit.
//!
//! Run with: `cargo run --example covid_case_study`

use spannerlib::covid::corpus::generate_corpus;
use spannerlib::covid::loc;
use spannerlib::covid::native::report::SurveillanceReport;
use spannerlib::covid::native::NativePipeline;
use spannerlib::covid::spanner::SpannerPipeline;
use spannerlib::TraceLevel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let docs = generate_corpus(100, 42);
    println!(
        "Generated {} synthetic clinical notes. Sample:\n",
        docs.len()
    );
    println!(
        "--- {} (gold: {}) ---\n{}",
        docs[0].id, docs[0].gold, docs[0].text
    );

    // Imperative implementation.
    let native = NativePipeline::new();
    let native_results = native.classify_corpus(&docs);
    let native_acc = native.accuracy(&docs);

    // SpannerLib rewrite.
    let mut spanner = SpannerPipeline::with_tracing(TraceLevel::Summary)?;
    let spanner_results = spanner.classify_corpus(&docs)?;
    let profile = spanner.profile().expect("tracing is on");
    let spanner_acc = spanner.accuracy(&docs)?;

    let agree = native_results
        .iter()
        .zip(&spanner_results)
        .filter(|(n, s)| n.status == s.status)
        .count();
    println!(
        "\nAgreement: {agree}/{} documents classified identically",
        docs.len()
    );
    println!("Gold accuracy: native {native_acc:.3}, spannerlib {spanner_acc:.3}\n");
    assert_eq!(agree, docs.len(), "implementations must agree");

    // Surveillance statistics: imperative fold vs aggregation rules.
    // The ad-hoc query is prepared once and run against a Send + Sync
    // snapshot — the evaluated state is frozen, so this is a pure read.
    let report = SurveillanceReport::build(&native_results);
    println!("{report}\n");
    let count_query = spanner.session_mut().prepare("?StatusCount(s, n)")?;
    let snapshot = spanner.session_mut().snapshot()?;
    let counts = snapshot.execute(&count_query)?;
    println!("Same numbers from the Spannerlog aggregation rule\n  StatusCount(s, count(d)) <- Status(d, s):\n{counts}\n");

    // Where the fixpoint that classified the corpus spent its time.
    println!("{}", profile.render());

    // Table 1.
    println!("{}", loc::render_table1());
    Ok(())
}
