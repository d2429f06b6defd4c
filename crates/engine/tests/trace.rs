//! Observability integration tests: `EvalProfile` agreement with
//! `EvalStats`, partial profiles and culprit attribution on aborted
//! runs, stats draining, what switching tracing off keeps, and the
//! property that tracing never changes query results.

mod support;

use proptest::prelude::*;
use spannerlib_core::Value;
use spannerlib_trace::TraceLevel;
use spannerlog_engine::{EngineError, EvalMode, EvalStats, Session};
use std::fmt::Write as _;

/// Transitive closure over a six-edge chain: one recursive component,
/// deep enough to need several rounds.
const TC_PROGRAM: &str = "new Edge(int, int)
Edge(1, 2) Edge(2, 3) Edge(3, 4) Edge(4, 5) Edge(5, 6) Edge(6, 7)
Path(x, y) <- Edge(x, y)
Path(x, z) <- Path(x, y), Edge(y, z)";

/// A single IE-bearing rule over one document.
const EMAIL_PROGRAM: &str = r#"new Texts(str)
Texts("reach ann@gmail.com or bob@work.org")
R(usr, dom) <- Texts(t), rgx_string("(\w+)@(\w+)\.\w+", t) -> (usr, dom)."#;

fn traced_session(level: TraceLevel) -> Session {
    Session::builder().tracing(level).build()
}

#[test]
fn profile_counters_agree_with_eval_stats() {
    let mut session = traced_session(TraceLevel::Summary);
    session.run(TC_PROGRAM).unwrap();
    assert_eq!(session.export("?Path(x, y)").unwrap().num_rows(), 21);

    let profile = session.profile().expect("Summary level yields a profile");
    let eval: EvalStats = session.stats();
    // Round 1 fires both rules in full (paths of length 1 and 2); each
    // later round fires the recursive rule's one delta variant and finds
    // the next length, until round 6 finds nothing.
    assert_eq!((eval.rounds, eval.rule_firings), (6, 7));
    assert_eq!((eval.tuples_derived, eval.tuples_new), (26, 21));
    assert_eq!(profile.rounds, eval.rounds as u64);
    assert_eq!(profile.rule_firings, eval.rule_firings as u64);
    assert_eq!(profile.tuples_derived, eval.tuples_derived as u64);
    assert_eq!(profile.tuples_new, eval.tuples_new as u64);
    assert_eq!(profile.error, None);

    // The per-rule breakdown sums back to the totals.
    let rules: Vec<_> = profile.strata.iter().flat_map(|s| &s.rules).collect();
    assert_eq!(rules.len(), 2);
    assert_eq!(
        rules.iter().map(|r| r.firings).sum::<u64>(),
        profile.rule_firings
    );
    assert_eq!(
        rules.iter().map(|r| r.tuples_new).sum::<u64>(),
        profile.tuples_new
    );
    assert_eq!(
        profile.strata.iter().map(|s| s.rounds).sum::<u64>(),
        profile.rounds
    );
    assert!(rules.iter().all(|r| r.head == "Path" && r.line > 0));
    assert!(rules.iter().any(|r| r.join_rows_scanned > 0));
    assert!(rules.iter().any(|r| r.source.contains("Path")));
}

#[test]
fn ie_profile_counts_body_calls_and_latency() {
    // A second rule asks the call the first one did — as covid's
    // `Mention` and `Asserted` both ask `mentions(s)` — and the program
    // asks it once: `calls` counts body executions.
    let mut session = traced_session(TraceLevel::Summary);
    session.run(EMAIL_PROGRAM).unwrap();
    session
        .run(r#"Users(usr) <- Texts(t), rgx_string("(\w+)@(\w+)\.\w+", t) -> (usr, _)"#)
        .unwrap();
    assert_eq!(session.export("?R(usr, dom)").unwrap().num_rows(), 2);

    let profile = session.profile().unwrap();
    let ie = profile
        .ie_functions
        .iter()
        .find(|f| f.name == "rgx_string")
        .expect("rgx_string profiled");
    assert_eq!(ie.calls, 1);
    assert_eq!(ie.latency.count, ie.calls);
}

/// A match that leaves an optional group undefined gives `rgx` and
/// `rgx_string` no row; the profile counts it, on one lane and on two,
/// and so does its JSON record.
#[test]
fn unassigned_matches_count_the_rows_an_optional_group_drops() {
    for workers in [0, 2] {
        let mut session = Session::builder()
            .tracing(TraceLevel::Summary)
            .parallelism(workers)
            .build();
        session
            .run(
                r#"new Texts(str)
Texts("ab a ab") Texts("a a b") Texts("b")
S(s, b) <- Texts(t), rgx("(a)(b)?", t) -> (s, b)
W(w) <- Texts(t), rgx_string("a(b)?", t) -> (w)"#,
            )
            .unwrap();
        // "ab a ab": two rows and one unassigned match per pattern;
        // "a a b": none and two; "b": no match at all.
        assert_eq!(session.relation("S").unwrap().len(), 2);
        assert_eq!(session.relation("W").unwrap().len(), 1);
        let profile = session.profile().unwrap();
        assert_eq!(profile.unassigned_matches, 6, "workers {workers}");
        let json = profile.to_json_lines();
        assert!(json.contains("\"unassigned_matches\":6,"), "{json}");
    }
}

#[test]
fn round_limit_abort_names_the_driving_rule_and_keeps_partial_profile() {
    let mut session = Session::builder()
        .max_fixpoint_rounds(2)
        .tracing(TraceLevel::Summary)
        .build();
    session.run(TC_PROGRAM).unwrap();
    let err = session.export("?Path(x, y)").unwrap_err();

    let EngineError::LimitExceeded {
        resource, culprit, ..
    } = &err
    else {
        panic!("expected LimitExceeded, got {err:?}");
    };
    assert_eq!(*resource, "fixpoint rounds");
    assert!(culprit.is_known());
    assert_eq!(culprit.head, "Path");
    assert!(culprit.line > 0);
    let message = err.to_string();
    assert!(message.contains("fixpoint rounds"), "{message}");
    assert!(message.contains("\"Path\""), "{message}");

    // The caret snippet points into the program source.
    let snippet = culprit.snippet(TC_PROGRAM);
    assert!(snippet.contains("  | "), "{snippet}");
    assert!(snippet.contains('^'), "{snippet}");
    assert!(snippet.contains("Path"), "{snippet}");

    // Partial progress survives the abort.
    let profile = session.profile().expect("aborted run keeps its profile");
    let error = profile.error.as_deref().unwrap();
    assert!(error.contains("fixpoint rounds"), "{error}");
    assert_eq!(profile.rounds, 3);
    assert!(profile.strata[0].rules.iter().any(|r| r.firings > 0));
    assert!(profile.render().contains("aborted"));
}

/// The round limit guards recursion, so only recursive components are
/// charged against it: a chain of non-recursive components longer than
/// the limit evaluates, and recursion behind it still trips the limit
/// on its own third round, blamed on the same rule as without the chain.
#[test]
fn round_limit_charges_only_recursive_components() {
    let chain = "new Edge(int, int)
Edge(1, 2) Edge(2, 3) Edge(3, 4) Edge(4, 5) Edge(5, 6) Edge(6, 7)
A(x) <- Edge(x, _)
B(x) <- A(x), not Edge(x, 7)
C(x) <- B(x), not A(7)
D(x) <- C(x)
E(count(x)) <- D(x)";
    let mut session = Session::builder()
        .max_fixpoint_rounds(2)
        .tracing(TraceLevel::Summary)
        .build();
    session.run(chain).unwrap();
    assert_eq!(session.export_typed::<(i64,)>("?E(n)").unwrap(), [(5,)]);
    assert_eq!(session.stats().rounds, 5);

    session
        .run("Path(x, y) <- D(x), Edge(x, y)\nPath(x, z) <- Path(x, y), Edge(y, z)")
        .unwrap();
    let err = session.export("?Path(x, y)").unwrap_err();
    let EngineError::LimitExceeded {
        resource,
        limit,
        culprit,
    } = &err
    else {
        panic!("expected LimitExceeded, got {err:?}");
    };
    assert_eq!((*resource, *limit), ("fixpoint rounds", 2));
    assert_eq!(culprit.head, "Path");
    assert!(
        culprit.source.contains("Path(x, y), Edge(y, z)"),
        "{culprit:?}"
    );
    // Five uncharged rounds, then the three of `Path`.
    assert_eq!(session.profile().unwrap().rounds, 8);
}

#[test]
fn limit_snippet_survives_non_ascii_sources() {
    // Multi-byte predicate names before and on the culprit line: the
    // snippet must still excerpt the right line with the caret under it.
    let program = "new Kanté(int, int)
Kanté(1, 2) Kanté(2, 3) Kanté(3, 4) Kanté(4, 5)
Pfäd(x, y) <- Kanté(x, y)
Pfäd(x, z) <- Pfäd(x, y), Kanté(y, z)";
    let mut session = Session::builder()
        .max_fixpoint_rounds(2)
        .tracing(TraceLevel::Summary)
        .build();
    session.run(program).unwrap();
    let err = session.export("?Pfäd(x, y)").unwrap_err();
    let EngineError::LimitExceeded { culprit, .. } = &err else {
        panic!("expected LimitExceeded, got {err:?}");
    };
    assert_eq!(culprit.head, "Pfäd");
    let snippet = culprit.snippet(program);
    let caret_line = snippet
        .lines()
        .find(|l| l.starts_with("  | Pfäd"))
        .unwrap_or_else(|| panic!("no excerpted source line in {snippet:?}"));
    assert!(caret_line.contains("<-"), "{snippet}");
    assert!(snippet.lines().last().unwrap().ends_with('^'), "{snippet}");
}

#[test]
fn row_limit_abort_names_the_inserting_rule() {
    let mut session = Session::builder()
        .max_materialized_rows(5)
        .tracing(TraceLevel::Summary)
        .build();
    session.run(TC_PROGRAM).unwrap();
    let err = session.export("?Path(x, y)").unwrap_err();
    let EngineError::LimitExceeded {
        resource, culprit, ..
    } = &err
    else {
        panic!("expected LimitExceeded, got {err:?}");
    };
    assert_eq!(*resource, "materialized rows");
    assert!(culprit.is_known());
    assert_eq!(culprit.head, "Path");
    assert!(session.profile().is_some());
}

/// A firing's rows go in a shard's piece at a time, and the row cap is
/// still checked after every new row: one firing that derives 100 rows,
/// 10 of them distinct, under a cap of 5 stops at the sixth new row —
/// mid-piece, on one lane or cut in shards — as inserting row by row
/// did, with the same culprit and the same `tuples_new`.
#[test]
fn a_row_cap_crossed_mid_piece_stops_at_the_crossing_row() {
    for workers in [0, 2] {
        let mut session = Session::builder()
            .max_materialized_rows(5)
            .parallelism(workers)
            .tracing(TraceLevel::Summary)
            .build();
        session.run("new N(int)").unwrap();
        (0..10).for_each(|i| session.add_fact("N", [Value::Int(i)]).unwrap());
        session.run("H(x) <- N(x), N(y)").unwrap();
        let err = session.ensure_evaluated().unwrap_err();
        let EngineError::LimitExceeded {
            resource,
            limit,
            culprit,
        } = &err
        else {
            panic!("expected LimitExceeded, got {err:?}");
        };
        assert_eq!((*resource, *limit), ("materialized rows", 5));
        assert_eq!(culprit.head, "H", "parallelism({workers})");
        let profile = session.profile().unwrap();
        let rule = &profile.strata[0].rules[0];
        assert_eq!(
            (profile.tuples_derived, profile.tuples_new, rule.tuples_new),
            (100, 6, 6),
            "parallelism({workers})"
        );
    }
}

#[test]
fn tracing_off_yields_no_profile_and_set_tracing_forces_one() {
    let mut session = Session::new();
    session.run(TC_PROGRAM).unwrap();
    session.export("?Path(x, y)").unwrap();
    assert!(session.profile().is_none(), "Off is the default");
    assert!(session.snapshot().unwrap().profile().is_none());

    // Enabling tracing re-evaluates even though inputs are unchanged.
    session.set_tracing(TraceLevel::Summary);
    session.export("?Path(x, y)").unwrap();
    assert!(session.profile().is_some());
}

/// Switching tracing off changes nothing a run derives, so the next
/// query skips evaluation and a write is maintained from the last run.
#[test]
fn switching_tracing_off_keeps_the_last_run_as_the_basis() {
    let mut session = traced_session(TraceLevel::Summary);
    session.run(TC_PROGRAM).unwrap();
    session.export("?Path(x, y)").unwrap();
    assert_eq!(session.eval_seq(), 1);

    session.set_tracing(TraceLevel::Off);
    assert_eq!(session.export("?Path(x, y)").unwrap().num_rows(), 21);
    assert_eq!(session.eval_seq(), 1, "nothing changed: no run");

    session
        .add_fact("Edge", [Value::Int(7), Value::Int(8)])
        .unwrap();
    assert_eq!(session.export("?Path(x, y)").unwrap().num_rows(), 28);
    assert_eq!(session.eval_seq(), 2);
    let mode = session.stats().mode;
    assert!(matches!(mode, EvalMode::Maintained { .. }), "{mode:?}");
}

/// A profile describes the latest run: a run with tracing off leaves
/// none behind, on the session and on its snapshots.
#[test]
fn an_untraced_run_leaves_no_stale_profile() {
    let mut session = traced_session(TraceLevel::Summary);
    session.run(TC_PROGRAM).unwrap();
    session.export("?Path(x, y)").unwrap();
    assert_eq!(session.profile().unwrap().eval_seq, 1);

    session.set_tracing(TraceLevel::Off);
    session
        .add_fact("Edge", [Value::Int(7), Value::Int(8)])
        .unwrap();
    session.ensure_evaluated().unwrap();
    assert_eq!(session.eval_seq(), 2);
    assert_eq!(session.profile(), None);
    assert_eq!(session.snapshot().unwrap().profile(), None);
}

#[test]
fn snapshot_carries_the_producing_runs_profile() {
    let mut session = traced_session(TraceLevel::Summary);
    session.run(TC_PROGRAM).unwrap();
    let snapshot = session.snapshot().unwrap();
    let profile = snapshot.profile().expect("snapshot inherits the profile");
    assert_eq!(profile, session.profile().unwrap());
    assert!(profile.rule_firings > 0);
    assert!(format!("{snapshot:?}").contains("profiled: true"));
}

#[test]
fn profile_renders_a_table_and_exports_json_lines() {
    let mut session = traced_session(TraceLevel::Summary);
    session.run(TC_PROGRAM).unwrap();
    session.export("?Path(x, y)").unwrap();
    let profile = session.profile().unwrap();

    let table = profile.render();
    assert!(table.contains("Path"), "{table}");
    assert!(table.contains("stratum"), "{table}");

    let json = profile.to_json_lines();
    assert_eq!(json.lines().count(), 1 + 2);
    for line in json.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    }
    assert!(json.contains(r#""type":"profile""#));
    assert!(json.contains(r#""type":"rule""#));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Tracing is observation only: for random edge sets, the derived
    /// relation is the reference's with tracing off and at summary
    /// level.
    #[test]
    fn tracing_level_never_changes_results(
        edges in prop::collection::vec((0..6i64, 0..6i64), 1..12),
    ) {
        let mut facts = String::new();
        for (a, b) in &edges {
            write!(facts, "Edge({a}, {b}) ").unwrap();
        }
        let program = format!(
            "new Edge(int, int)\n{facts}\nPath(x, y) <- Edge(x, y)\nPath(x, z) <- Path(x, y), Edge(y, z)"
        );
        let reference = support::evaluate(&program, &[], &Default::default()).unwrap();
        let mut expected: Vec<(i64, i64)> = reference.relations["Path"]
            .iter()
            .map(|row| (row[0].as_int().unwrap(), row[1].as_int().unwrap()))
            .collect();
        expected.sort_unstable();
        for level in [TraceLevel::Off, TraceLevel::Summary] {
            let mut session = Session::builder().tracing(level).build();
            session.run(&program).unwrap();
            let mut rows: Vec<(i64, i64)> = session.export_typed("?Path(x, y)").unwrap();
            rows.sort_unstable();
            prop_assert_eq!(&rows, &expected, "at {:?}", level);
        }
    }
}
