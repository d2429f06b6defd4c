//! Lifecycle tests for the prepare-once/execute-many API: builder,
//! prepared programs/queries, typed exports, snapshots, generation
//! counters, and resource limits.

use spannerlib_core::{Schema, Value, ValueType};
use spannerlib_dataframe::{DataFrame, FrameError, FromRow};
use spannerlog_engine::{EngineError, Session, Snapshot};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const EMAIL_RULE: &str =
    r#"R(usr, dom) <- Texts(d, t), rgx_string("(\w+)@(\w+)\.\w+", t) -> (usr, dom)."#;

fn texts_frame(rows: &[(&str, &str)]) -> DataFrame {
    DataFrame::from_rows(
        vec!["date".into(), "text".into()],
        rows.iter()
            .map(|(d, t)| vec![Value::str(*d), Value::str(*t)])
            .collect(),
    )
    .unwrap()
}

/// One prepared query, re-executed across three fresh imports, must
/// match a fresh session per batch (compile once, run per batch).
#[test]
fn prepared_query_reused_across_imports_matches_fresh_sessions() {
    let batches: Vec<Vec<(&str, &str)>> = vec![
        vec![("d1", "ann@gmail.com and bob@work.org")],
        vec![("d2", "eve@gmail.com"), ("d3", "no emails here")],
        vec![("d4", "zed@mail.net or ann@gmail.com")],
    ];

    let mut session = Session::new();
    session
        .import_dataframe(&texts_frame(&batches[0]), "Texts")
        .unwrap();
    session.run(EMAIL_RULE).unwrap();
    let query = session.prepare(r#"?R(usr, dom)"#).unwrap();

    for batch in &batches {
        session
            .import_dataframe(&texts_frame(batch), "Texts")
            .unwrap();
        let prepared_out = query.execute(&mut session).unwrap();

        // Reference: a brand-new session driven with the paper verbs.
        let mut fresh = Session::new();
        fresh
            .import_dataframe(&texts_frame(batch), "Texts")
            .unwrap();
        fresh.run(EMAIL_RULE).unwrap();
        let fresh_out = fresh.export("?R(usr, dom)").unwrap();

        assert_eq!(prepared_out, fresh_out, "batch {batch:?}");
    }
}

/// The fixpoint reruns only when an *input* relation of the prepared
/// program changed — observed via an IE call counter.
#[test]
fn unchanged_edb_skips_the_fixpoint() {
    let calls = Arc::new(AtomicUsize::new(0));
    let seen = calls.clone();
    let mut session = Session::builder()
        .register("probe", Some(1), move |args, _ctx| {
            seen.fetch_add(1, Ordering::SeqCst);
            Ok(vec![vec![args[0].clone()]])
        })
        .build();
    session
        .run("new S(int)\nnew Unrelated(int)\nS(1)\nP(y) <- S(x), probe(x) -> (y)")
        .unwrap();
    let query = session.prepare("?P(y)").unwrap();

    query.execute(&mut session).unwrap();
    let after_first = calls.load(Ordering::SeqCst);
    assert!(after_first > 0);

    // Re-executing with nothing changed: no IE calls.
    query.execute(&mut session).unwrap();
    query.execute(&mut session).unwrap();
    assert_eq!(calls.load(Ordering::SeqCst), after_first);

    // Mutating a relation the program does not read: still no re-run.
    session.add_fact("Unrelated", [Value::Int(7)]).unwrap();
    query.execute(&mut session).unwrap();
    assert_eq!(calls.load(Ordering::SeqCst), after_first);

    // Mutating an input relation: the fixpoint reruns.
    session.add_fact("S", [Value::Int(2)]).unwrap();
    query.execute(&mut session).unwrap();
    assert!(calls.load(Ordering::SeqCst) > after_first);
}

/// Importing over a name that was only rule-derived until now makes it
/// extensional — dependent queries must see the change (regression
/// test: the derived-name branch used to skip invalidation and serve
/// stale results).
#[test]
fn import_over_materialized_derived_relation_retriggers_fixpoint() {
    let mut session = Session::new();
    session
        .run("new S(int)\nS(1)\nD(x) <- S(x)\nH(x) <- D(x)")
        .unwrap();
    // Prepare while D is still derived-only, then materialize it.
    let query = session.prepare("?H(x)").unwrap();
    assert_eq!(query.execute(&mut session).unwrap().num_rows(), 1);

    // Shadow D with imported facts; H must re-derive over the union of
    // the import and the still-active rule — through the *old* prepared
    // query (regression: D was once excluded from its fingerprint
    // inputs because it was derived at prepare time) and through a
    // fresh export alike.
    session.import_typed("D", vec![(5i64,)]).unwrap();
    let via_prepared: Vec<(i64,)> = query.execute_typed(&mut session).unwrap();
    assert_eq!(via_prepared, vec![(1,), (5,)]);
    let via_export: Vec<(i64,)> = session.export_typed("?H(x)").unwrap();
    assert_eq!(via_export, via_prepared);
}

/// A relation that is both extensional and a rule head: host facts
/// added to it between executions must re-trigger the fixpoint
/// (regression test — excluding rule heads from the fingerprint's input
/// set silently served stale results here).
#[test]
fn fact_into_extensional_rule_head_retriggers_fixpoint() {
    let mut session = Session::new();
    session
        .run(
            r#"
            new G(int)
            new E(int)
            G(1)
            E(x) <- G(x)
            H(x) <- E(x)
        "#,
        )
        .unwrap();
    let query = session.prepare("?H(x)").unwrap();
    assert_eq!(query.execute(&mut session).unwrap().num_rows(), 1);

    // E is a rule head *and* extensional; a direct fact must show up.
    session.add_fact("E", [Value::Int(5)]).unwrap();
    let live = query.execute(&mut session).unwrap();

    let mut fresh = Session::new();
    fresh
        .run("new G(int)\nnew E(int)\nG(1)\nE(5)\nE(x) <- G(x)\nH(x) <- E(x)")
        .unwrap();
    let reference = fresh.export("?H(x)").unwrap();
    assert_eq!(live, reference);
    assert_eq!(live.num_rows(), 2);
}

/// Per-tuple provenance regression: a relation that is both imported
/// and a rule head must drop *stale derived* tuples when the rule's
/// inputs are re-imported, while keeping host-asserted facts — exact
/// re-import semantics, matching a fresh session per batch.
#[test]
fn reimport_retracts_stale_derived_tuples_from_extensional_heads() {
    let mut session = Session::new();
    session
        .run(
            r#"
            new In(int)
            new Out(int)
            Out(99)
            In(1)
            Out(x) <- In(x)
        "#,
        )
        .unwrap();
    let query = session.prepare("?Out(x)").unwrap();
    let first: Vec<(i64,)> = query.execute_typed(&mut session).unwrap();
    assert_eq!(first, vec![(1,), (99,)]);

    // Re-import the rule's input: Out(1) was derived from the old
    // In(1) and must vanish; the fact Out(99) must survive.
    session.import_typed("In", vec![(2i64,)]).unwrap();
    let second: Vec<(i64,)> = query.execute_typed(&mut session).unwrap();
    assert_eq!(second, vec![(2,), (99,)]);

    // Repeated churn stays exact (no accumulation across batches).
    for batch in [vec![(3i64,)], vec![(4i64,), (5,)], vec![]] {
        session.import_typed("In", batch.clone()).unwrap();
        let got: Vec<(i64,)> = query.execute_typed(&mut session).unwrap();
        let mut expected: Vec<(i64,)> = batch;
        expected.push((99,));
        expected.sort();
        assert_eq!(got, expected);
    }
}

/// Compile-time assertion: snapshots cross and are shared between
/// threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Snapshot>()
};

/// Four threads querying one snapshot agree with serial execution, and
/// the writer session keeps mutating independently.
#[test]
fn snapshot_concurrent_queries_agree_with_serial() {
    let mut session = Session::new();
    session
        .run(
            r#"
            new Edge(int, int)
            Edge(1, 2) Edge(2, 3) Edge(3, 4) Edge(4, 5) Edge(2, 5)
            Path(x, y) <- Edge(x, y)
            Path(x, z) <- Path(x, y), Edge(y, z)
        "#,
        )
        .unwrap();
    let query = session.prepare("?Path(x, y)").unwrap();
    let snapshot = session.snapshot().unwrap();
    let serial = snapshot.execute(&query).unwrap();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let snapshot = &snapshot;
                let query = &query;
                scope.spawn(move || snapshot.execute(query).unwrap())
            })
            .collect();
        for handle in handles {
            assert_eq!(handle.join().unwrap(), serial);
        }
    });

    // The writer is not locked out: mutate and diverge from the frozen
    // snapshot.
    session
        .add_fact("Edge", [Value::Int(5), Value::Int(6)])
        .unwrap();
    let live = query.execute(&mut session).unwrap();
    assert!(live.num_rows() > serial.num_rows());
    assert_eq!(snapshot.execute(&query).unwrap(), serial);
}

/// Safety-checker rejection surfaces at prepare() time, carrying the
/// offending rule's source position.
#[test]
fn unsafe_rule_rejected_at_prepare_time_with_position() {
    let mut session = Session::new();
    session.run("new S(str)\nR(x, y) <- S(x)").unwrap();
    let err = session.prepare("?R(x, y)").unwrap_err();
    match err {
        EngineError::Unsafe { line, ref msg } => {
            assert_eq!(line, 2, "span points at the rule head: {msg}");
        }
        other => panic!("expected Unsafe, got {other:?}"),
    }
}

/// Parse errors at prepare() time carry byte offsets and render a caret
/// diagnostic pointing at the offending token.
#[test]
fn prepare_parse_error_renders_caret() {
    let mut session = Session::new();
    let src = "?R(x, \nbad syntax here)";
    let err = session.prepare(src).unwrap_err();
    let EngineError::Parse(parse_err) = err else {
        panic!("expected Parse error");
    };
    assert_eq!(parse_err.line, 2);
    assert!(parse_err.offset > 0);
    let rendered = parse_err.render(src);
    assert!(rendered.contains('^'), "{rendered}");
    assert!(rendered.contains("bad syntax here"), "{rendered}");
}

/// Importing over an existing relation with a different schema is a
/// real error now.
#[test]
fn import_schema_mismatch_is_rejected() {
    let mut session = Session::new();
    let original = DataFrame::from_rows(
        vec!["user".into(), "count".into()],
        vec![vec![Value::str("ann"), Value::Int(3)]],
    )
    .unwrap();
    session.import_dataframe(&original, "Counts").unwrap();

    // Same schema: replacement is fine.
    let same = DataFrame::from_rows(
        vec!["user".into(), "count".into()],
        vec![vec![Value::str("bob"), Value::Int(9)]],
    )
    .unwrap();
    session.import_dataframe(&same, "Counts").unwrap();

    // Different schema: rejected, relation untouched.
    let retyped = DataFrame::from_rows(
        vec!["user".into(), "count".into()],
        vec![vec![Value::str("eve"), Value::str("not a count")]],
    )
    .unwrap();
    let err = session.import_dataframe(&retyped, "Counts").unwrap_err();
    assert!(matches!(err, EngineError::SchemaMismatch { .. }));
    let out = session.export("?Counts(u, c)").unwrap();
    assert_eq!(out.get(0, 0), Some(Value::str("bob")));
}

/// remove_relation evicts state; the slot can then be retyped.
#[test]
fn remove_relation_evicts_and_allows_retyping() {
    let mut session = Session::new();
    session.run("new S(int)\nS(1)").unwrap();
    session.remove_relation("S").unwrap();
    assert!(matches!(
        session.remove_relation("S").unwrap_err(),
        EngineError::UnknownRelation(_)
    ));
    // The name is free again, with a new schema.
    session
        .declare("S", Schema::new(vec![ValueType::Str]))
        .unwrap();
    session.add_fact("S", [Value::str("now a string")]).unwrap();
    assert_eq!(session.export("?S(x)").unwrap().num_rows(), 1);
}

/// clear_rules drops derived content but keeps facts and registrations.
#[test]
fn clear_rules_keeps_facts() {
    let mut session = Session::new();
    session.run("new S(int)\nS(1)\nD(x) <- S(x)").unwrap();
    assert_eq!(session.export("?D(x)").unwrap().num_rows(), 1);
    session.clear_rules();
    assert_eq!(session.rule_count(), 0);
    assert_eq!(session.export("?D(x)").unwrap().num_rows(), 0);
    assert_eq!(session.export("?S(x)").unwrap().num_rows(), 1);
}

/// truncate_rules takes a rejected cell back out: the rules loaded
/// before it evaluate again.
#[test]
fn truncate_rules_takes_a_rejected_cell_back_out() {
    let mut session = Session::new();
    session.run("new S(int)\nS(1)\nD(x) <- S(x)").unwrap();
    let loaded = session.rule_count();
    session
        .run("Bad(x, y) <- S(x)\nAlso(x) <- S(x)")
        .expect("run only stores rules");
    assert!(session.prepare_program().is_err());
    assert!(session.export("?D(x)").is_err(), "one bad rule fails all");
    session.truncate_rules(loaded);
    assert_eq!(session.rule_count(), loaded);
    assert_eq!(session.export("?D(x)").unwrap().num_rows(), 1);
    assert_eq!(session.export("?Also(x)").unwrap().num_rows(), 0);
    // Past the end there is nothing to drop.
    session.truncate_rules(loaded + 5);
    assert_eq!(session.rule_count(), loaded);
}

/// Builder-configured resource limits abort runaway evaluations.
#[test]
fn limits_abort_runaway_evaluation() {
    let program = r#"
        new Edge(int, int)
        Edge(1, 2) Edge(2, 3) Edge(3, 4) Edge(4, 5) Edge(5, 6) Edge(6, 7)
        Path(x, y) <- Edge(x, y)
        Path(x, z) <- Path(x, y), Edge(y, z)
    "#;

    let mut capped_rounds = Session::builder().max_fixpoint_rounds(2).build();
    capped_rounds.run(program).unwrap();
    assert!(matches!(
        capped_rounds.export("?Path(x, y)").unwrap_err(),
        EngineError::LimitExceeded {
            resource: "fixpoint rounds",
            limit: 2,
            ..
        }
    ));

    let mut capped_rows = Session::builder().max_materialized_rows(5).build();
    capped_rows.run(program).unwrap();
    assert!(matches!(
        capped_rows.export("?Path(x, y)").unwrap_err(),
        EngineError::LimitExceeded {
            resource: "materialized rows",
            limit: 5,
            ..
        }
    ));

    // Generous limits do not interfere.
    let mut roomy = Session::builder()
        .max_fixpoint_rounds(1_000)
        .max_materialized_rows(1_000_000)
        .build();
    roomy.run(program).unwrap();
    assert_eq!(roomy.export("?Path(\"1\", y)").unwrap().num_rows(), 0);
    assert_eq!(roomy.export("?Path(1, y)").unwrap().num_rows(), 6);
}

/// Typed export: rows land in host tuples and domain structs.
#[test]
fn typed_export_and_import() {
    #[derive(Debug, PartialEq)]
    struct Email {
        user: String,
        domain: String,
    }

    impl FromRow for Email {
        fn from_row(row: &[Value]) -> Result<Self, FrameError> {
            let (user, domain) = FromRow::from_row(row)?;
            Ok(Email { user, domain })
        }
    }

    let mut session = Session::new();
    // Typed import: tuples of primitives become a relation.
    session
        .import_typed(
            "Texts",
            vec![
                ("2024-01-01", "write to ann@gmail.com"),
                ("2024-01-02", "or eve@gmail.com"),
            ],
        )
        .unwrap();
    session.run(EMAIL_RULE).unwrap();

    let emails: Vec<Email> = session.export_typed("?R(usr, dom)").unwrap();
    assert_eq!(
        emails,
        vec![
            Email {
                user: "ann".into(),
                domain: "gmail".into()
            },
            Email {
                user: "eve".into(),
                domain: "gmail".into()
            },
        ]
    );

    // Tuple form works without a struct, on sessions and snapshots.
    let pairs: Vec<(String, String)> = session.export_typed("?R(usr, dom)").unwrap();
    assert_eq!(pairs[0].0, "ann");
    let query = session.prepare("?R(usr, dom)").unwrap();
    let snapshot = session.snapshot().unwrap();
    let from_snapshot: Vec<(String, String)> = snapshot.execute_typed(&query).unwrap();
    assert_eq!(from_snapshot, pairs);

    // Type mismatches are real errors, not silent coercions.
    let err = session
        .export_typed::<(i64, String)>("?R(usr, dom)")
        .unwrap_err();
    assert!(matches!(
        err,
        EngineError::Frame(FrameError::CellType { index: 0, .. })
    ));
}

/// An empty typed import needs an existing relation for its schema; a
/// non-empty one replaces content wholesale.
#[test]
fn typed_import_empty_and_replacement() {
    let mut session = Session::new();
    let no_rows: Vec<(i64,)> = Vec::new();
    assert!(matches!(
        session
            .import_typed("Missing", no_rows.clone())
            .unwrap_err(),
        EngineError::UnknownRelation(_)
    ));

    session.import_typed("N", vec![(1i64,), (2,)]).unwrap();
    assert_eq!(session.export("?N(x)").unwrap().num_rows(), 2);
    session.import_typed("N", no_rows).unwrap();
    assert_eq!(session.export("?N(x)").unwrap().num_rows(), 0);
}

/// `Snapshot::fingerprint()` is a content identity for serving-layer
/// validators (ETags): stable across no-op snapshots and mutations of
/// relations the program never reads, changed by input churn and by
/// recompilation.
#[test]
fn snapshot_fingerprint_tracks_read_relations_only() {
    let mut session = Session::new();
    session
        .run("new S(int)\nnew Unrelated(int)\nS(1)\nP(x) <- S(x)")
        .unwrap();
    let fp1 = session.snapshot().unwrap().fingerprint();
    // Stable across no-op snapshots.
    assert_eq!(session.snapshot().unwrap().fingerprint(), fp1);
    // A mutation the program does not read leaves it unchanged.
    session.add_fact("Unrelated", [Value::Int(7)]).unwrap();
    assert_eq!(session.snapshot().unwrap().fingerprint(), fp1);
    // Churning an input relation moves it.
    session.add_fact("S", [Value::Int(2)]).unwrap();
    let fp2 = session.snapshot().unwrap().fingerprint();
    assert_ne!(fp2, fp1);
    // A recompile moves it even with inputs untouched.
    session.run("Q(x) <- S(x)").unwrap();
    let fp3 = session.snapshot().unwrap().fingerprint();
    assert_ne!(fp3, fp2);
}

/// Serving-shaped churn: one writer keeps importing and publishing new
/// snapshots while reader threads execute against whichever snapshot is
/// current. Every observation must be internally consistent (a snapshot
/// of `n` inputs always yields exactly `n * n` join rows). The writer
/// keeps churning until every reader has read under it at least once,
/// however late the scheduler starts them.
#[test]
fn writer_churn_under_concurrent_snapshot_readers() {
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::sync::RwLock;

    const READERS: usize = 4;

    let mut session = Session::new();
    session.run("new V(int)\nD(x, y) <- V(x), V(y)").unwrap();
    session.import_typed("V", vec![(0i64,)]).unwrap();
    let query = session.prepare("?D(x, y)").unwrap();
    let published: RwLock<Arc<(usize, Snapshot)>> =
        RwLock::new(Arc::new((1, session.snapshot().unwrap())));
    let stop = AtomicBool::new(false);
    let readers_under_way = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                let published = &published;
                let stop = &stop;
                let query = &query;
                let readers_under_way = &readers_under_way;
                scope.spawn(move || {
                    let mut executions = 0usize;
                    while !stop.load(Ordering::SeqCst) {
                        let current = published.read().unwrap().clone();
                        let (n, snapshot) = &*current;
                        let frame = snapshot.execute(query).unwrap();
                        assert_eq!(frame.num_rows(), n * n, "torn snapshot at n={n}");
                        executions += 1;
                        if executions == 1 {
                            readers_under_way.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    executions
                })
            })
            .collect();

        // The writer churns imports and republishes; readers are never
        // blocked and never observe a half-applied import.
        for n in (2..=20usize).cycle() {
            let rows: Vec<(i64,)> = (0..n as i64).map(|i| (i,)).collect();
            session.import_typed("V", rows).unwrap();
            let snapshot = session.snapshot().unwrap();
            *published.write().unwrap() = Arc::new((n, snapshot));
            if n == 20 && readers_under_way.load(Ordering::SeqCst) == READERS {
                break;
            }
        }
        stop.store(true, Ordering::SeqCst);
        for reader in readers {
            assert!(reader.join().unwrap() > 0, "every reader read under churn");
        }
    });
}

/// A prepared program hands out many queries over one compilation.
#[test]
fn prepared_program_serves_multiple_queries() {
    let mut session = Session::new();
    session
        .run(
            r#"
            new M(str, int)
            M("a", 1) M("a", 3) M("b", 10)
            Stats(g, sum(x)) <- M(g, x)
        "#,
        )
        .unwrap();
    let program = session.prepare_program().unwrap();
    assert_eq!(program.program().rule_count(), 1);
    assert_eq!(program.program().input_relations(), ["M"]);

    let by_group = program.query("?Stats(g, s)").unwrap();
    let just_a = program.query(r#"?Stats("a", s)"#).unwrap();
    assert_eq!(by_group.execute(&mut session).unwrap().num_rows(), 2);
    let a: Vec<(i64,)> = just_a.execute_typed(&mut session).unwrap();
    assert_eq!(a, vec![(4,)]);
}
