//! Integration tests for reuse within one evaluation — IE calls the
//! rules of a run share, counted as body executions (the profile's
//! `calls`), and every evaluation asking afresh — and for the
//! `spannerlib_cache` subsystem's document-store lifecycle (bounded
//! memory under long-lived churn, compaction correctness).

use spannerlog_engine::{DocGc, EvalMode, FullReason, Session, TraceLevel};

/// The body executions of IE function `name` in the session's last
/// (traced) evaluation.
fn body_calls(session: &Session, name: &str) -> u64 {
    let profile = session.profile().expect("a traced session");
    let f = profile.ie_functions.iter().find(|f| f.name == name);
    f.map_or(0, |f| f.calls)
}

/// One synthetic "clinical note"-sized document, unique per round.
fn churn_doc(round: usize) -> String {
    let mut text = format!("note {round}: ");
    for w in 0..300 {
        text.push_str(&format!("word{round}x{w} "));
        if w % 10 == 0 {
            text.push_str(&format!("code-{round}-{w} "));
        }
    }
    text
}

const CHURN_RULE: &str = r#"Code(d, s) <- Texts(d, t), rgx("code-[0-9]+-[0-9]+", t) -> (s)"#;

/// The ROADMAP churn scenario: a long-lived session streaming distinct
/// documents through import → execute → an empty import (the rule reads
/// `Texts`, so it is emptied rather than removed). With a GC threshold
/// configured, doc-store bytes stay bounded — compaction reclaims
/// dropped documents instead of growing without bound.
#[test]
fn long_lived_churn_keeps_doc_store_bounded() {
    const GC_WATERMARK: usize = 64 * 1024;
    let mut session = Session::builder()
        .doc_gc(DocGc::Threshold {
            bytes: GC_WATERMARK,
        })
        .build();
    session
        .import_typed("Texts", vec![("d".to_string(), churn_doc(0))])
        .unwrap();
    session.run(CHURN_RULE).unwrap();
    let query = session.prepare("?Code(d, s)").unwrap();

    let mut total_text_bytes = 0usize;
    let mut peak_bytes = 0usize;
    for round in 0..100 {
        let text = churn_doc(round);
        total_text_bytes += text.len();
        session
            .import_typed("Texts", vec![(format!("doc-{round}"), text)])
            .unwrap();
        let out = query.execute(&mut session).unwrap();
        assert!(out.num_rows() > 0, "round {round} extracted nothing");
        session
            .import_typed("Texts", Vec::<(String, String)>::new())
            .unwrap();
        peak_bytes = peak_bytes.max(session.docs().bytes());
    }

    // The stream interned far more text than the bound we assert.
    assert!(
        total_text_bytes > 180 * 1024,
        "workload too small to prove anything"
    );
    // Bounded: watermark + one in-flight document — only relations
    // root a document.
    let bound = GC_WATERMARK + 8 * 1024;
    assert!(
        peak_bytes < bound,
        "doc store peaked at {peak_bytes} bytes (bound {bound})"
    );
    assert!(
        session.docs().epoch() > 0,
        "threshold policy never ran a compaction pass"
    );

    // The derived relation still roots the final round's document —
    // compaction is exact, not eager.
    let partial = session.compact_docs();
    assert_eq!(partial.kept_docs, 1, "Code(d, s) spans pin the last doc");

    // Dropping that last root releases everything.
    session.remove_relation("Code").unwrap();
    let report = session.compact_docs();
    assert_eq!(session.docs().bytes(), 0, "final report: {report:?}");
    assert_eq!(session.docs().len(), 0);
}

/// Nothing is kept from one evaluation for the next: a run forced by a
/// program change asks every question of the cold run again — once per
/// distinct text, though two rules ask it — and answers as the cold run
/// did. (A write to an input is maintained and asks nothing about the
/// unchanged documents.)
#[test]
fn each_evaluation_starts_with_an_empty_memo() {
    let mut session = Session::builder().tracing(TraceLevel::Summary).build();
    session
        .import_typed(
            "Texts",
            vec![
                (
                    "a".to_string(),
                    "reach me at ann@work and bob@home".to_string(),
                ),
                ("b".to_string(), "nothing to see".to_string()),
            ],
        )
        .unwrap();
    session
        .run(
            r#"Email(d, s) <- Texts(d, t), rgx_string("[a-z]+@[a-z]+", t) -> (s)
Mailed(d) <- Texts(d, t), rgx_string("[a-z]+@[a-z]+", t) -> (_)"#,
        )
        .unwrap();
    // A side relation new rules can read: each one changes the program,
    // which forces a full rerun.
    session.run("new Tick(int)\nTicked(x) <- Tick(x)").unwrap();
    let query = session.prepare("?Email(d, s)").unwrap();

    let cold = query.execute(&mut session).unwrap();
    assert_eq!(body_calls(&session, "rgx_string"), 2, "one per text");

    for i in 1..=5 {
        session.run(&format!("Ticked{i}(x) <- Tick(x)")).unwrap();
        let query = session.prepare("?Email(d, s)").unwrap();
        let rerun = query.execute(&mut session).unwrap();
        assert_eq!(rerun, cold);
        let mode = session.stats().mode;
        assert_eq!(mode, EvalMode::Full(FullReason::ProgramChanged));
        assert_eq!(body_calls(&session, "rgx_string"), 2, "rerun {i}");
    }
}

/// Within one evaluation every rule that asks a host function the
/// same arguments shares one call: two rules over the same eight values
/// run the body eight times, on one lane and on two.
#[test]
fn rules_of_one_evaluation_share_the_memo() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    for workers in [0, 2] {
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = calls.clone();
        let mut session = Session::builder()
            .parallelism(workers)
            .register("probe", Some(1), move |args, out, _| {
                seen.fetch_add(1, Ordering::SeqCst);
                out.push(&[args[0].clone()])
            })
            .build();
        session
            .import_typed("S", (0..8i64).map(|n| (n,)).collect::<Vec<_>>())
            .unwrap();
        session
            .run("A(x, y) <- S(x), probe(x) -> (y)\nB(x, y) <- S(x), probe(x) -> (y)")
            .unwrap();
        assert_eq!(session.relation("A").unwrap().len(), 8);
        assert_eq!(session.relation("B").unwrap().len(), 8);
        assert_eq!(calls.load(Ordering::SeqCst), 8, "workers {workers}");
    }
}

/// A string's hash is a function of its bytes, so equal texts are one
/// value however they arrived: from a CSV frame, `import_typed`, an IE
/// function's output, the `str` conversion or `format`, they dedupe to
/// one row of a relation and one row of the demand of a call five rules
/// share.
#[test]
fn equal_strings_from_every_source_are_one_row_and_one_memo_key() {
    use spannerlib_core::ValueType;
    use spannerlib_dataframe::DataFrame;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let calls = Arc::new(AtomicUsize::new(0));
    let seen = calls.clone();
    // One lane: two shards could both miss the key.
    let mut session = Session::builder()
        .parallelism(0)
        .register("probe", Some(1), move |args, out, _| {
            seen.fetch_add(1, Ordering::SeqCst);
            out.push(&[args[0].clone()])
        })
        .build();
    let csv = DataFrame::from_csv_typed("name\nann\n", &[ValueType::Str]).unwrap();
    session.import_dataframe(&csv, "Csv").unwrap();
    session
        .import_typed("Typed", vec![("ann".to_string(),)])
        .unwrap();
    session
        .run(
            r#"new Text(str)
new Parts(str, str)
Text("she is ann") Parts("an", "n")
FromIe(x) <- Text(t), rgx_string("a[a-z]+", t) -> (x)
FromStr(t, min(str(s))) <- Text(t), rgx("a[a-z]+", t) -> (s)
FromFormat(x) <- Parts(a, b), format("{}{}", a, b) -> (x)
Names(x) <- Csv(x)
Names(x) <- Typed(x)
Names(x) <- FromIe(x)
Names(x) <- FromStr(_, x)
Names(x) <- FromFormat(x)
Probed(y) <- Csv(x), probe(x) -> (y)
Probed(y) <- Typed(x), probe(x) -> (y)
Probed(y) <- FromIe(x), probe(x) -> (y)
Probed(y) <- FromStr(_, x), probe(x) -> (y)
Probed(y) <- FromFormat(x), probe(x) -> (y)"#,
        )
        .unwrap();
    let names: Vec<(String,)> = session.export_typed("?Names(x)").unwrap();
    assert_eq!(names, [("ann".to_string(),)]);
    let probed: Vec<(String,)> = session.export_typed("?Probed(y)").unwrap();
    assert_eq!(probed, names);
    // Five rules ask `probe("ann")`: the body runs once.
    assert_eq!(calls.load(Ordering::SeqCst), 1);
}

/// Re-registering a function under a cached name must invalidate its
/// memoized results — the new body wins.
#[test]
fn reregistration_invalidates_memoized_results() {
    let mut session = Session::new();
    session.register("probe", Some(1), |args, out, _| {
        out.push(&[args[0].clone()])
    });
    session
        .run("new S(int)\nS(1)\nD(y) <- S(x), probe(x) -> (y)")
        .unwrap();
    let first: Vec<(i64,)> = session.export_typed("?D(y)").unwrap();
    assert_eq!(first, vec![(1,)]);

    session.register("probe", Some(1), |args, out, _| {
        out.push(&[(args[0].as_int().unwrap() + 100).into()])
    });
    let second: Vec<(i64,)> = session.export_typed("?D(y)").unwrap();
    assert_eq!(second, vec![(101,)], "stale memo served the old body");
}

/// The constant-time builtins are called once per binding row — a row of
/// a relation costs more than they do — so two rules asking them the
/// same calls share only the expensive function: `rgx` runs once per text,
/// the builtins once per binding row at each rule.
#[test]
fn cheap_builtins_bypass_the_memo() {
    let mut session = Session::builder().tracing(TraceLevel::Summary).build();
    session
        .run(
            r#"new Texts(str)
Texts("aa b aaa") Texts("a bb")
Run(b, n) <- Texts(t), rgx("a+", t) -> (s), span_len(s) -> (n), span_start(s) -> (b),
             format("{}:{}", b, n) -> (k), starts_with(k, "0"), add(n, 1) -> (m), m > 1
Again(s) <- Texts(t), rgx("a+", t) -> (s), span_len(s) -> (n), span_start(s) -> (b),
            format("{}:{}", b, n) -> (k), starts_with(k, "0"), add(n, 1) -> (m), m > 1"#,
        )
        .unwrap();
    let rows: Vec<(i64, i64)> = session.export_typed("?Run(b, n)").unwrap();
    assert_eq!(rows, [(0, 1), (0, 2)]);
    assert_eq!(session.relation("Again").unwrap().len(), 2);
    assert_eq!(body_calls(&session, "rgx"), 2, "one rgx call per text");
    // Three runs of `a` in the texts, at each of the two rules.
    assert_eq!(body_calls(&session, "span_len"), 2 * 3);
    let profile = session.profile().unwrap();
    let mut shared: Vec<&str> = (profile.strata.iter().flat_map(|s| &s.rules))
        .map(|r| r.head.as_str())
        .filter(|h| h.contains('#'))
        .collect();
    shared.sort_unstable();
    assert_eq!(shared, ["rgx#0", "rgx#0?"]);
}

/// Binding rows that share an argument tuple are deduplicated into one
/// call of a host function — but a constant-time builtin is called once
/// per row, which costs less than the grouping. Once per *distinct*
/// row, that is: a scan whose `_` column folds three tuples into one
/// binding hands either function one row. Both hold per shard: a
/// sharded firing cuts the scanned rows into ranges, and an atom no
/// other asks groups only the rows of its own range.
#[test]
fn shared_argument_rows_batch_except_at_per_row_builtins() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// The body calls of the host `probe(x) -> (x)` and the builtin `add`
    /// where `rule` asks them, at `workers`.
    fn run_with(workers: usize, rule: &str) -> (usize, u64) {
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = calls.clone();
        let mut session = Session::builder()
            .parallelism(workers)
            .tracing(TraceLevel::Summary)
            .register("probe", Some(1), move |args, out, _| {
                seen.fetch_add(1, Ordering::SeqCst);
                out.push(&[args[0].clone()])
            })
            .build();
        // Three rows project the same argument value 7.
        session
            .import_typed("S", vec![(7i64, 1i64), (7, 2), (7, 3)])
            .unwrap();
        session.run(rule).unwrap();
        session.ensure_evaluated().unwrap();
        assert_eq!(session.relation("D").unwrap().len(), 1, "{rule}");
        (calls.load(Ordering::SeqCst), body_calls(&session, "add"))
    }

    let named = "D(a, y, z) <- S(a, b), probe(a) -> (y), add(a, 1) -> (z)";
    assert_eq!(
        run_with(0, named),
        (1, 3),
        "probe once per distinct tuple, add once per binding row"
    );
    let folded = "D(a, y, z) <- S(a, _), probe(a) -> (y), add(a, 1) -> (z)";
    assert_eq!(
        run_with(0, folded),
        (1, 1),
        "the three tuples are one binding"
    );
    // Two workers cut the three rows into three shards.
    for rule in [named, folded] {
        let (probe, add) = run_with(2, rule);
        assert!((1..=3).contains(&probe), "{rule}");
        assert_eq!(add, 3, "{rule}");
    }
}

/// The per-row selection is the builtins' own: a host function
/// registered under a builtin's name is grouped by argument vector like
/// any other. Over two rows that ask `add(1, 1)`, the host `add` runs
/// once and the builtin twice (on one lane: two would cut the rows into
/// two shards).
#[test]
fn registering_a_builtins_name_makes_it_grouped() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let program = "new R(int, int)\nR(1, 10) R(1, 20)\nS(a, s) <- R(a, b), add(a, a) -> (s)";
    let one_lane = || Session::builder().parallelism(0);
    let mut builtin = one_lane().tracing(TraceLevel::Summary).build();
    builtin.run(program).unwrap();
    let sums: Vec<(i64, i64)> = builtin.export_typed("?S(a, s)").unwrap();
    assert_eq!(sums, [(1, 2)]);
    assert_eq!(body_calls(&builtin, "add"), 2, "once per binding row");

    let calls = Arc::new(AtomicUsize::new(0));
    let seen = calls.clone();
    let mut host = one_lane().build();
    host.register("add", Some(2), move |args, out, _| {
        seen.fetch_add(1, Ordering::SeqCst);
        let sum = args[0].as_int().unwrap() + args[1].as_int().unwrap();
        out.push(&[sum.into()])
    });
    host.run(program).unwrap();
    assert_eq!(host.export_typed::<(i64, i64)>("?S(a, s)").unwrap(), sums);
    assert_eq!(calls.load(Ordering::SeqCst), 1, "once per argument vector");
}

/// A call whose output has the wrong arity fails its rule before any
/// row of it is kept — also when the function drops the error its
/// refused row returned — and re-registering the function corrected
/// evaluates cleanly. Two rules ask the call, so it is one the program
/// plans as a relation, which runs the body once per argument.
#[test]
fn wrong_arity_outputs_are_rejected_before_they_are_memoised() {
    use spannerlib_core::Value;
    use spannerlog_engine::EngineError;

    for (workers, drops_the_error) in [(0, false), (2, false), (0, true), (2, true)] {
        let mut session = Session::builder()
            .parallelism(workers)
            .tracing(TraceLevel::Summary)
            .register("pair", Some(1), move |args, out, _| {
                let refused = out.push(&[args[0].clone(), args[0].clone(), args[0].clone()]);
                match drops_the_error {
                    true => Ok(()),
                    false => refused,
                }
            })
            .build();
        session
            .import_typed("N", (0..6i64).map(|n| (n,)).collect::<Vec<_>>())
            .unwrap();
        session
            .run("P(x, a, b) <- N(x), pair(x) -> (a, b)\nQ(x, a) <- N(x), pair(x) -> (a, _)")
            .unwrap();
        let err = session.ensure_evaluated().unwrap_err();
        assert!(
            matches!(&err, EngineError::IeOutputArity { function, expected: 2, actual: 3 } if function == "pair"),
            "{err:?}"
        );
        session.register("pair", Some(1), |args, out, _| {
            out.push(&[args[0].clone(), Value::Int(1)])
        });
        assert_eq!(session.relation("P").unwrap().len(), 6);
        assert_eq!(session.relation("Q").unwrap().len(), 6);
        assert_eq!(body_calls(&session, "pair"), 6);
    }
}

/// Compaction keeps every id a live span references (across extensional
/// *and* derived relations).
#[test]
fn compaction_preserves_live_spans() {
    let mut session = Session::new();
    session
        .import_typed(
            "Texts",
            vec![
                ("keep".to_string(), "alpha beta".to_string()),
                ("drop".to_string(), "gamma delta".to_string()),
            ],
        )
        .unwrap();
    session
        .run(r#"W(d, s) <- Texts(d, t), rgx("[a-z]+", t) -> (s)"#)
        .unwrap();
    session.ensure_evaluated().unwrap();
    assert_eq!(session.docs().len(), 2);

    // Re-import without the second text: its spans die with the next
    // fixpoint, and they were its last roots.
    session
        .import_typed(
            "Texts",
            vec![("keep".to_string(), "alpha beta".to_string())],
        )
        .unwrap();
    session.ensure_evaluated().unwrap();
    let report = session.compact_docs();
    assert_eq!(report.removed_docs, 1);
    assert_eq!(session.docs().len(), 1);

    // Surviving spans still resolve to their text.
    let words = session.relation("W").unwrap();
    for tuple in words.sorted_tuples() {
        let span = tuple[1].as_span().unwrap();
        assert!(!session.span_text(span).unwrap().is_empty());
    }
}

/// After a compaction — by hand or under a `DocGc` threshold — the store
/// still finds a surviving text by its hash: importing it again adds no
/// second document, and its spans keep their document.
#[test]
fn compacted_stores_find_surviving_texts() {
    let texts = |names: &[&str]| -> Vec<(String, String)> {
        let text = |name: &str| format!("{name} {}", name.repeat(3));
        names.iter().map(|&n| (n.to_string(), text(n))).collect()
    };
    let docs_of = |session: &mut Session| -> std::collections::BTreeMap<String, _> {
        let words = session.relation("W").unwrap();
        let tuples = words.sorted_tuples();
        let row = |t: &spannerlib_core::Tuple| {
            let doc = t[1].as_span().unwrap().doc;
            (t[0].as_str().unwrap().to_string(), doc)
        };
        tuples.iter().map(row).collect()
    };
    for gc in [DocGc::Disabled, DocGc::Threshold { bytes: 0 }] {
        let mut session = Session::builder().doc_gc(gc).build();
        session
            .import_typed("Texts", texts(&["a", "b", "c"]))
            .unwrap();
        session
            .run(r#"W(d, s) <- Texts(d, t), rgx("[a-z]+", t) -> (s)"#)
            .unwrap();
        session.ensure_evaluated().unwrap();
        let before = docs_of(&mut session);
        // `b` loses its last span, and `d` grows the store: the
        // threshold's pass runs at the next import, which brings `b` back.
        session
            .import_typed("Texts", texts(&["a", "c", "d"]))
            .unwrap();
        session.ensure_evaluated().unwrap();
        if gc == DocGc::Disabled {
            assert_eq!(session.compact_docs().removed_docs, 1);
        }
        session
            .import_typed("Texts", texts(&["a", "b", "c", "d"]))
            .unwrap();
        session.ensure_evaluated().unwrap();
        let after = docs_of(&mut session);
        assert_eq!(
            (after["a"], after["c"]),
            (before["a"], before["c"]),
            "{gc:?}"
        );
        assert!(
            after["b"].index() > before["c"].index(),
            "{gc:?}: a fresh id"
        );
        assert_eq!(session.docs().len(), 4, "{gc:?}");
        for (id, text) in session.docs().iter() {
            assert_eq!(session.docs().lookup(text), Some(id), "{gc:?}");
        }
    }
}
