//! A corpus write that replaces a few notes is maintained note by note.
//!
//! Every `covid.slog` atom that loses rows when a note leaves binds the
//! note id (`d`) or a mention (`m`) in its rule's head, so each per-note
//! component over-deletes the replaced notes' rows by key and calls its
//! IE functions for the new notes only. A component that fell back to
//! deriving its head again would call them for every note: `sents`
//! would read 40.

use spannerlib_covid::corpus::generate_corpus;
use spannerlib_covid::spanner::SpannerPipeline;
use spannerlog_engine::TraceLevel;
use std::collections::BTreeMap;

#[test]
fn replacing_four_notes_calls_the_ie_functions_for_those_four() {
    let mut docs = generate_corpus(40, 3);
    let mut pipeline = SpannerPipeline::with_tracing(TraceLevel::Summary).unwrap();
    pipeline.classify_corpus(&docs).unwrap();
    assert!(!pipeline.profile().unwrap().maintained);

    // Notes 0, 10, 20 and 30 leave; four notes under new ids come in.
    let fresh = generate_corpus(44, 99).split_off(40);
    for (at, note) in [0, 10, 20, 30].into_iter().zip(fresh) {
        docs[at] = note;
    }
    pipeline.classify_corpus(&docs).unwrap();
    let profile = pipeline.profile().unwrap();
    assert!(profile.maintained, "{:?}", profile.full_reason);
    assert_eq!((profile.seed_rows_added, profile.seed_rows_removed), (4, 4));
    let calls: BTreeMap<&str, u64> = (profile.ie_functions.iter())
        .map(|f| (f.name.as_str(), f.calls))
        .collect();
    for (function, bodies) in [("sents", 4), ("note_sections", 4), ("mentions", 30)] {
        assert_eq!(calls.get(function), Some(&bodies), "{function}: {calls:?}");
    }
}
