//! The one IE call `covid.slog` shares, planned as relations.
//!
//! `Mention` and `Asserted` both ask `mentions(s) -> (m, "COVID")` of
//! every sentence. The program answers it once per distinct sentence:
//! from `mentions#0?`, the demand relation of the sentences the two
//! rules ask about, into `mentions#0`, which keeps the `"COVID"` rows
//! only and drops the label column. No other call of the program is
//! shared, so no other function gets relations of its own. These tests
//! read the relations' rows from the run's profile, and run in release
//! in CI, where they stand in for the memo counters this plan replaced.

use spannerlib_core::Value;
use spannerlib_covid::corpus::generate_corpus;
use spannerlib_covid::spanner::SpannerPipeline;
use spannerlog_engine::{IeContext, IeFunction, IeRows, Result, TraceLevel};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// `f`, whose body calls add up in `calls`.
struct Counted {
    f: Arc<dyn IeFunction>,
    calls: Arc<AtomicUsize>,
}

impl IeFunction for Counted {
    fn input_arity(&self) -> Option<usize> {
        self.f.input_arity()
    }

    fn call(&self, args: &[Value], out: &mut IeRows<'_>, ctx: &mut IeContext<'_>) -> Result<()> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        self.f.call(args, out, ctx)
    }
}

#[test]
fn mentions_runs_once_per_distinct_sentence_into_relations_of_its_own() {
    let docs = generate_corpus(400, 2024);
    let mut pipeline = SpannerPipeline::with_tracing(TraceLevel::Summary).unwrap();
    let session = pipeline.session_mut();
    let calls = Arc::new(AtomicUsize::new(0));
    let f = session.registry().ie("mentions").unwrap().clone();
    let counted = Counted {
        f,
        calls: calls.clone(),
    };
    session.register_ie("mentions", Arc::new(counted));
    pipeline.classify_corpus(&docs).unwrap();
    // Read before the reads below: the program changed with the
    // registration, and they evaluate it again.
    let (calls, profile) = (calls.load(Ordering::SeqCst), pipeline.profile().unwrap());

    let session = pipeline.session_mut();
    let mut column = |relation: &str, col: usize| -> BTreeSet<Value> {
        let rows = session.relation(relation).unwrap();
        rows.iter().map(|row| row[col].clone()).collect()
    };
    // A mention span lies in one sentence: one row of `mentions#0` each.
    let (sentences, mentions) = (column("Sent", 1).len(), column("Mention", 1).len());
    assert!(
        sentences > 1000 && mentions > 100,
        "{sentences}, {mentions}"
    );
    assert_eq!(
        calls, sentences,
        "once per distinct sentence, though two rules ask"
    );

    let mut rows: BTreeMap<&str, u64> = BTreeMap::new();
    let rules = profile.strata.iter().flat_map(|s| &s.rules);
    for rule in rules.filter(|r| r.head.contains('#')) {
        *rows.entry(&rule.head).or_default() += rule.tuples_new;
    }
    let expected = [("mentions#0", mentions), ("mentions#0?", sentences)];
    let expected = expected.map(|(name, n)| (name, n as u64));
    assert_eq!(
        rows,
        BTreeMap::from(expected),
        "sents, note_sections and assertions share nothing"
    );
}
