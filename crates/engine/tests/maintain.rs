//! Incremental maintenance, case by case: what a write removes and adds
//! is carried through delete-and-rederive, negation, aggregation and
//! recursion to the same relations the reference evaluator derives from
//! the inputs as they stand; every reason for a full evaluation is
//! reported as such; and a maintained evaluation that fails leaves the
//! session exact.

mod support;

use spannerlib_core::Value;
use spannerlog_engine::aggregate::AggFunction;
use spannerlog_engine::{EngineError, EvalMode, FullReason, Registry, Session, TraceLevel};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The rows of `name`, sorted, with every cell rendered.
fn rows(session: &mut Session, name: &str) -> Vec<Vec<String>> {
    let rel = session.relation(name).unwrap();
    let render = |t: &spannerlib_core::Tuple| t.values().iter().map(|v| format!("{v:?}")).collect();
    rel.sorted_tuples().iter().map(render).collect()
}

/// `session` holds what the reference derives from the same `cell` of
/// declarations and facts with `program`, in every relation of `names`.
fn assert_reference(session: &mut Session, cell: &str, program: &str, names: &[&str]) {
    assert_derives(
        session,
        &format!("{cell}\n{program}"),
        &Registry::new(),
        names,
    );
}

/// `session` holds what the reference derives from `source`, calling the
/// functions of `registry`, in every relation of `names`.
fn assert_derives(session: &mut Session, source: &str, registry: &Registry, names: &[&str]) {
    let reference = support::evaluate(source, &[], registry).unwrap();
    for name in names {
        let rel = session.relation(name).unwrap();
        let rows = support::canonical(rel.iter(), session.docs());
        assert_eq!(rows, reference.canonical(name), "{name}");
    }
}

fn mode(session: &Session) -> EvalMode {
    session.stats().mode
}

fn maintained(session: &Session) -> bool {
    matches!(mode(session), EvalMode::Maintained { .. })
}

/// A session over `cell` and `program`, evaluated once.
fn evaluated(cell: &str, program: &str) -> Session {
    let mut session = Session::new();
    session.run(cell).unwrap();
    session.run(program).unwrap();
    session.ensure_evaluated().unwrap();
    session
}

fn ints(values: &[i64]) -> Vec<(i64,)> {
    values.iter().map(|&v| (v,)).collect()
}

#[test]
fn a_head_with_two_supports_keeps_it_when_one_goes() {
    let program = "H(x) <- A(x)\nH(x) <- B(x)";
    let mut session = evaluated("new A(int)\nnew B(int)\nA(1) A(2) B(1)", program);
    session.import_typed("A", ints(&[2])).unwrap();
    assert_eq!(rows(&mut session, "H"), [["Int(1)"], ["Int(2)"]]);
    assert_eq!(
        mode(&session),
        EvalMode::Maintained {
            added: 0,
            removed: 1
        }
    );
    assert_reference(
        &mut session,
        "new A(int)\nnew B(int)\nA(2) B(1)",
        program,
        &["H"],
    );

    session.import_typed("B", ints(&[])).unwrap();
    assert_eq!(rows(&mut session, "H"), [["Int(2)"]]);
    assert!(maintained(&session));
}

#[test]
fn a_negated_atom_gaining_and_losing_rows() {
    let program = "H(x) <- N(x), not M(x)\nK(x) <- H(x), not M(x)";
    let mut session = evaluated("new N(int)\nnew M(int)\nN(1) N(2) N(3) M(2)", program);
    session.add_fact("M", [Value::Int(3)]).unwrap();
    assert_eq!(rows(&mut session, "H"), [["Int(1)"]]);
    assert_eq!(
        mode(&session),
        EvalMode::Maintained {
            added: 1,
            removed: 0
        }
    );

    session.import_typed("M", ints(&[])).unwrap();
    assert_eq!(
        rows(&mut session, "K"),
        [["Int(1)"], ["Int(2)"], ["Int(3)"]]
    );
    assert_eq!(
        mode(&session),
        EvalMode::Maintained {
            added: 0,
            removed: 2
        }
    );
    assert_reference(
        &mut session,
        "new N(int)\nnew M(int)\nN(1) N(2) N(3)",
        program,
        &["H", "K"],
    );
}

#[test]
fn an_aggregate_group_shrinking_to_nothing_disappears() {
    let program = "C(g, count(x)) <- G(g, x)\nBig(g) <- C(g, n), n > 1";
    let cell = "new G(str, int)\nG(\"a\", 1) G(\"a\", 2) G(\"b\", 1)";
    let mut session = evaluated(cell, program);
    session
        .import_typed("G", vec![("a".to_string(), 1i64)])
        .unwrap();
    assert_eq!(rows(&mut session, "C"), [["Str(\"a\")", "Int(1)"]]);
    assert!(rows(&mut session, "Big").is_empty());
    assert!(maintained(&session));
    assert_reference(
        &mut session,
        "new G(str, int)\nG(\"a\", 1)",
        program,
        &["C", "Big"],
    );
}

/// An aggregate the program looks up when it runs: registered again, its
/// new body reaches every group — also through a query prepared before,
/// which keeps its compiled program — not only the groups a write
/// touches.
#[test]
fn a_re_registered_aggregate_reaches_every_group_of_a_stale_prepared_query() {
    struct Tenfold;
    impl AggFunction for Tenfold {
        fn apply(&self, values: &[Value]) -> spannerlog_engine::Result<Value> {
            Ok(Value::Int(10 * values.len() as i64))
        }
    }
    let program = "C(g, count(x)) <- G(g, x)";
    let mut session = evaluated("new G(str, int)\nG(\"a\", 1) G(\"b\", 1)", program);
    let query = session.prepare("?C(g, n)").unwrap();
    query.execute(&mut session).unwrap();
    session.register_aggregate("count", Arc::new(Tenfold));
    session
        .add_fact("G", [Value::str("b"), Value::Int(2)])
        .unwrap();
    query.execute(&mut session).unwrap();
    assert_eq!(mode(&session), EvalMode::Full(FullReason::ProgramChanged));

    assert_eq!(
        rows(&mut session, "C"),
        [["Str(\"a\")", "Int(10)"], ["Str(\"b\")", "Int(20)"]]
    );
}

#[test]
fn transitive_closure_losing_an_edge_and_gaining_one() {
    let program = "Path(x, y) <- Edge(x, y)\nPath(x, z) <- Path(x, y), Edge(y, z)";
    let mut session = evaluated(
        "new Edge(int, int)\nEdge(1, 2) Edge(2, 3) Edge(3, 4) Edge(1, 3)",
        program,
    );
    session
        .import_typed("Edge", vec![(1i64, 2i64), (3, 4), (1, 3)])
        .unwrap();
    let cell = "new Edge(int, int)\nEdge(1, 2) Edge(3, 4) Edge(1, 3)";
    assert_reference(&mut session, cell, program, &["Path"]);
    assert!(maintained(&session));

    // Only gains: the delta loop runs on from the new edge.
    session
        .add_fact("Edge", [Value::Int(4), Value::Int(5)])
        .unwrap();
    let cell = format!("{cell}\nEdge(4, 5)");
    assert_reference(&mut session, &cell, program, &["Path"]);
    assert_eq!(
        mode(&session),
        EvalMode::Maintained {
            added: 1,
            removed: 0
        }
    );
}

#[test]
fn a_self_join_losing_and_gaining_rows() {
    let program = "Two(x, z) <- E(x, y), E(y, z)\nOdd(x) <- E(x, _), not Two(x, _)";
    let mut session = evaluated("new E(int, int)\nE(1, 2) E(2, 3) E(3, 1) E(4, 4)", program);
    session
        .import_typed("E", vec![(1i64, 2i64), (2, 1), (3, 1), (5, 5)])
        .unwrap();
    let cell = "new E(int, int)\nE(1, 2) E(2, 1) E(3, 1) E(5, 5)";
    assert_reference(&mut session, cell, program, &["Two", "Odd"]);
    assert_eq!(
        mode(&session),
        EvalMode::Maintained {
            added: 2,
            removed: 2
        }
    );
}

/// No atom binds `H`'s head, which only an IE output binds, so the
/// over-delete fires the rule over what each atom lost: a derivation
/// through two rows one write removed — here both rows of `E` — joins one
/// lost row with the *old* database, which still holds the other.
#[test]
fn a_derivation_through_two_rows_lost_in_one_write_is_over_deleted() {
    let program = "H(y) <- E(x, z), E(z, w), range(x) -> (y)";
    let mut session = evaluated("new E(int, int)\nE(3, 1) E(1, 2) E(0, 0)", program);
    assert_eq!(rows(&mut session, "H").len(), 3);
    session.import_typed("E", vec![(0i64, 0i64)]).unwrap();
    assert_reference(&mut session, "new E(int, int)\nE(0, 0)", program, &["H"]);
    assert_eq!(
        mode(&session),
        EvalMode::Maintained {
            added: 0,
            removed: 2
        }
    );
}

/// `Q`'s head is bound by an IE output only, so its rederivation reaches
/// every head the surviving `N` rows derive — `Q(2)` among them, which
/// the old database lacked — and `R` must see it as gained.
#[test]
fn a_rederivation_reaching_a_new_head_seeds_the_components_after() {
    let program = "Q(y) <- N(x), range(x) -> (y), not Bad(y)\nR(y) <- Q(y)";
    let mut session = evaluated("new N(int)\nnew Bad(int)\nN(2) Bad(5)", program);
    session.import_typed("N", ints(&[1, 3])).unwrap();
    let cell = "new N(int)\nnew Bad(int)\nN(1) N(3) Bad(5)";
    assert_reference(&mut session, cell, program, &["Q", "R"]);
    assert!(maintained(&session));
}

/// Two rules share `words(t)`: the cold run calls it once per text, and a
/// re-import of the same rows is maintained without a single call.
#[test]
fn an_identical_re_import_makes_no_ie_call() {
    let calls = Arc::new(AtomicUsize::new(0));
    let seen = calls.clone();
    let mut session = Session::builder()
        .register("words", Some(1), move |args, out, _| {
            seen.fetch_add(1, Ordering::SeqCst);
            let text = args[0].as_str().unwrap_or_default();
            text.split(' ').try_for_each(|w| out.push(&[Value::str(w)]))
        })
        .build();
    let texts = vec![("a", "one two"), ("b", "three")];
    session.import_typed("Texts", texts.clone()).unwrap();
    session
        .run("W(d, w) <- Texts(d, t), words(t) -> (w)\nV(w) <- Texts(_, t), words(t) -> (w)")
        .unwrap();
    let query = session.prepare("?W(d, w)").unwrap();
    let first = query.execute(&mut session).unwrap();
    let called = calls.load(Ordering::SeqCst);
    assert_eq!(called, 2, "one call per text, though two rules ask it");

    session.import_typed("Texts", texts).unwrap();
    assert_eq!(query.execute(&mut session).unwrap(), first);
    assert_eq!(
        mode(&session),
        EvalMode::Maintained {
            added: 0,
            removed: 0
        }
    );
    assert_eq!(calls.load(Ordering::SeqCst), called, "no call at all");
}

#[test]
fn every_reason_for_a_full_evaluation_is_named() {
    let full = |session: &Session| match mode(session) {
        EvalMode::Full(reason) => Some(reason),
        EvalMode::Maintained { .. } => None,
    };
    let write = |session: &mut Session| {
        let n = session.relation("S").unwrap().len() as i64;
        session.add_fact("S", [Value::Int(n + 10)]).unwrap();
        session.ensure_evaluated().unwrap();
    };
    let cell = "new S(int)\nS(1)";
    let mut session = Session::builder().tracing(TraceLevel::Summary).build();
    session.run(cell).unwrap();
    session.run("D(x) <- S(x)").unwrap();
    session.ensure_evaluated().unwrap();
    assert_eq!(full(&session), Some(FullReason::FirstEvaluation));
    let profile = session.profile().unwrap();
    assert!(profile.render().contains("| full (first evaluation) |"));
    write(&mut session);
    assert_eq!(full(&session), None);
    let profile = session.profile().unwrap();
    assert!(profile
        .render()
        .contains("| maintained (+1 −0 seed rows) |"));

    session.run("E(x) <- D(x)").unwrap();
    session.ensure_evaluated().unwrap();
    assert_eq!(full(&session), Some(FullReason::ProgramChanged));

    session.set_tracing(TraceLevel::Off);
    session.set_tracing(TraceLevel::Summary);
    session.ensure_evaluated().unwrap();
    assert_eq!(full(&session), Some(FullReason::TracingChanged));

    session.set_max_materialized_rows(Some(0));
    session.add_fact("S", [Value::Int(0)]).unwrap();
    assert!(session.ensure_evaluated().is_err());
    session.set_max_materialized_rows(None);
    session.ensure_evaluated().unwrap();
    assert_eq!(full(&session), Some(FullReason::PreviousRunFailed));

    session
        .import_typed("Docs", vec![("gone".to_string(),)])
        .unwrap();
    session
        .run(r#"Tok(s) <- Docs(t), rgx("[a-z]+", t) -> (s)"#)
        .unwrap();
    session.ensure_evaluated().unwrap();
    session
        .import_typed("Docs", vec![("kept".to_string(),)])
        .unwrap();
    session.ensure_evaluated().unwrap();
    assert_eq!(session.compact_docs().removed_docs, 1);
    write(&mut session);
    assert_eq!(full(&session), Some(FullReason::DocumentsCompacted));

    let mut heads = Session::new();
    heads
        .run("new S(int)\nnew T(int)\nS(1)\nT(x) <- S(x)")
        .unwrap();
    write(&mut heads);
    write(&mut heads);
    assert_eq!(full(&heads), Some(FullReason::InputIsRuleHead));
}

/// Texts, one of which makes `fragile` panic.
const FRAGILE: &str = "new Texts(str)\nTexts(\"calm\") Texts(\"still\")";
const FRAGILE_RULES: &str = "F(t, n) <- Texts(t), fragile(t) -> (n)";

fn fragile_session() -> Session {
    let mut session = Session::new();
    session.register("fragile", Some(1), |args, out, _| {
        let text = args[0].as_str().unwrap_or_default();
        assert_ne!(text, "boom", "fragile met its input");
        out.push(&[Value::Int(text.len() as i64)])
    });
    session.run(FRAGILE).unwrap();
    session.run(FRAGILE_RULES).unwrap();
    session.ensure_evaluated().unwrap();
    session
}

#[test]
fn a_panic_inside_a_maintained_evaluation_leaves_the_session_exact() {
    let mut session = fragile_session();
    session.add_fact("Texts", [Value::str("boom")]).unwrap();
    let unwound = catch_unwind(AssertUnwindSafe(|| session.ensure_evaluated()));
    let err = unwound
        .expect("the IE panic stops at the call")
        .unwrap_err();
    assert!(
        matches!(&err, EngineError::IePanicked { function, rule, .. }
            if function == "fragile" && rule.head == "F"),
        "{err:?}"
    );

    session
        .import_typed("Texts", vec![("calm".to_string(),), ("new".to_string(),)])
        .unwrap();
    session.ensure_evaluated().unwrap();
    assert_eq!(
        mode(&session),
        EvalMode::Full(FullReason::PreviousRunFailed)
    );
    let mut registry = Registry::new();
    registry.register_closure("fragile", Some(1), |args, out, _| {
        out.push(&[Value::Int(args[0].as_str().unwrap_or_default().len() as i64)])
    });
    let source = format!("new Texts(str)\nTexts(\"calm\") Texts(\"new\")\n{FRAGILE_RULES}");
    assert_derives(&mut session, &source, &registry, &["F"]);
}

#[test]
fn a_deadline_expiring_inside_a_maintained_evaluation_leaves_the_session_exact() {
    let program = "Slow(t, n) <- Texts(t), sleepy(t) -> (n)";
    let register = |session: &mut Session| {
        session.register("sleepy", Some(1), |args, out, _| {
            std::thread::sleep(std::time::Duration::from_millis(30));
            out.push(&[Value::Int(args[0].as_str().unwrap_or_default().len() as i64)])
        });
    };
    let mut session = Session::builder().parallelism(1).build();
    register(&mut session);
    session.run("new Texts(str)\nTexts(\"a\")").unwrap();
    session.run(program).unwrap();
    session.ensure_evaluated().unwrap();

    let texts: Vec<(String,)> = ["a", "bb", "ccc", "dddd"]
        .map(|t| (t.to_string(),))
        .to_vec();
    session.import_typed("Texts", texts).unwrap();
    session.set_max_eval_millis(Some(40));
    let err = session.ensure_evaluated().unwrap_err();
    assert!(
        matches!(
            err,
            EngineError::LimitExceeded {
                resource: "eval wall-clock millis",
                ..
            }
        ),
        "{err:?}"
    );

    session.set_max_eval_millis(None);
    session.ensure_evaluated().unwrap();
    assert_eq!(
        mode(&session),
        EvalMode::Full(FullReason::PreviousRunFailed)
    );
    let texts = "new Texts(str)\nTexts(\"a\") Texts(\"bb\") Texts(\"ccc\") Texts(\"dddd\")";
    let reference = support::evaluate(&format!("{texts}\n{program}"), &[], session.registry());
    let slow = session.relation("Slow").unwrap();
    assert_eq!(
        support::canonical(slow.iter(), session.docs()),
        reference.unwrap().canonical("Slow")
    );
}

/// A full evaluation over a database a snapshot shares builds the new
/// one from the extensional relations alone; the snapshot keeps
/// answering from its own derived relations.
#[test]
fn a_snapshot_keeps_its_derived_relations_across_a_full_evaluation() {
    let mut session = evaluated("new S(int)\nS(1) S(2)", "D(x) <- S(x)");
    let before = session.snapshot().unwrap();
    session.run("E(x) <- D(x), x > 1").unwrap();
    session.ensure_evaluated().unwrap();
    assert_eq!(mode(&session), EvalMode::Full(FullReason::ProgramChanged));
    assert_eq!(before.relation("D").len(), 2);
    assert!(before.relation("E").is_empty());
    assert_eq!(rows(&mut session, "E"), [["Int(2)"]]);
    assert_eq!(rows(&mut session, "D"), [["Int(1)"], ["Int(2)"]]);
}
