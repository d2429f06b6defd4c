//! The case-study's central claim: the SpannerLib rewrite computes the
//! same thing as the imperative original. These tests run both pipelines
//! over seeded synthetic corpora and demand **identical** document
//! classifications and mention-level evidence, plus high accuracy
//! against the generator's gold labels, and data/code configuration
//! sync.

use spannerlib_covid::classify::CovidStatus;
use spannerlib_covid::corpus::generate_corpus;
use spannerlib_covid::native::NativePipeline;
use spannerlib_covid::spanner::SpannerPipeline;
use spannerlog_engine::TraceLevel;

#[test]
fn pipelines_agree_on_corpus() {
    let docs = generate_corpus(120, 2024);
    let native = NativePipeline::new().classify_corpus(&docs);
    let mut spanner = SpannerPipeline::with_tracing(TraceLevel::Summary).expect("pipeline builds");
    let rewritten = spanner.classify_corpus(&docs).expect("classification runs");

    // The program has no recursion, so the engine reaches this result in
    // one firing per rule.
    let rules = spannerlib_covid::spanner::RULES.matches("<-").count() as u64;
    let profile = spanner.profile().expect("traced run");
    assert_eq!((rules, profile.rule_firings), (23, 23));
    assert_eq!(profile.rounds, 17, "one round per head predicate");

    assert_eq!(native.len(), rewritten.len());
    for (n, s) in native.iter().zip(&rewritten) {
        assert_eq!(n.doc_id, s.doc_id);
        assert_eq!(
            n.status,
            s.status,
            "status disagreement on {}:\n{}",
            n.doc_id,
            docs.iter().find(|d| d.id == n.doc_id).unwrap().text
        );
        assert_eq!(
            n.mentions,
            s.mentions,
            "evidence disagreement on {}:\n{}",
            n.doc_id,
            docs.iter().find(|d| d.id == n.doc_id).unwrap().text
        );
    }
}

#[test]
fn pipelines_agree_on_second_seed() {
    let docs = generate_corpus(80, 7);
    let native = NativePipeline::new().classify_corpus(&docs);
    let mut spanner = SpannerPipeline::new().unwrap();
    let rewritten = spanner.classify_corpus(&docs).unwrap();
    for (n, s) in native.iter().zip(&rewritten) {
        assert_eq!((&n.doc_id, n.status), (&s.doc_id, s.status));
    }
}

#[test]
fn both_pipelines_hit_gold_accuracy() {
    let docs = generate_corpus(150, 99);
    let native_acc = NativePipeline::new().accuracy(&docs);
    let spanner_acc = SpannerPipeline::new().unwrap().accuracy(&docs).unwrap();
    assert!(native_acc >= 0.95, "native accuracy {native_acc}");
    assert!(spanner_acc >= 0.95, "spanner accuracy {spanner_acc}");
    assert!(
        (native_acc - spanner_acc).abs() < 1e-9,
        "accuracies diverge: {native_acc} vs {spanner_acc}"
    );
}

#[test]
fn surveillance_statistics_agree() {
    // The native report (imperative folds) must equal the Spannerlog
    // aggregation rules (StatusCount / EvidenceCount).
    let docs = generate_corpus(100, 5);
    let native_results = NativePipeline::new().classify_corpus(&docs);
    let report = spannerlib_covid::native::report::SurveillanceReport::build(&native_results);

    let mut spanner = SpannerPipeline::new().unwrap();
    spanner.classify_corpus(&docs).unwrap();
    let counts = spanner.session_mut().export("?StatusCount(s, n)").unwrap();
    for row in counts.iter_rows() {
        let status = CovidStatus::from_name(row[0].as_str().unwrap()).unwrap();
        let n = row[1].as_int().unwrap() as usize;
        assert_eq!(report.count(status), n, "count mismatch for {status}");
    }
    let evidence_counts = spanner
        .session_mut()
        .export("?EvidenceCount(e, n)")
        .unwrap();
    for row in evidence_counts.iter_rows() {
        let evidence = row[0].as_str().unwrap();
        let n = row[1].as_int().unwrap() as usize;
        assert_eq!(
            report.by_evidence.get(evidence).copied().unwrap_or(0),
            n,
            "evidence count mismatch for {evidence}"
        );
    }
}

#[test]
fn csv_artifacts_match_inline_configuration() {
    // The "code as data" files must equal what the inline native config
    // generates — run `cargo run -p spannerlib-covid --bin regen_data`
    // after changing either side.
    use spannerlib_covid::native::context_rules::MODIFIER_TABLE;
    use spannerlib_covid::native::target_rules::lexicon_rows;

    let mut targets = String::from("phrase,label\n");
    for (phrase, label) in lexicon_rows() {
        targets.push_str(&format!("{phrase},{label}\n"));
    }
    assert_eq!(spannerlib_covid::spanner::TARGETS_CSV, targets);

    let mut rules = String::from("phrase,category,direction,max_scope\n");
    for (phrase, category, direction, scope) in MODIFIER_TABLE {
        rules.push_str(&format!("{phrase},{category},{direction},{scope}\n"));
    }
    assert_eq!(spannerlib_covid::spanner::MODIFIER_RULES_CSV, rules);
}

#[test]
fn every_status_appears_in_agreement_run() {
    // Guard against a degenerate corpus making the agreement test vacuous.
    let docs = generate_corpus(120, 2024);
    let mut spanner = SpannerPipeline::new().unwrap();
    let results = spanner.classify_corpus(&docs).unwrap();
    for status in [
        CovidStatus::Positive,
        CovidStatus::Uncertain,
        CovidStatus::Negative,
        CovidStatus::Unknown,
    ] {
        assert!(
            results.iter().any(|r| r.status == status),
            "no document classified {status}"
        );
    }
}
