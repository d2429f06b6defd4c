//! The one delta loop, at its edges: a rule two changed atoms reach
//! derives each new head once, and a rule that scans nothing — which no
//! changed atom reaches — gets its one firing from the empty database.

use spannerlib_core::Value;
use spannerlog_engine::{EvalMode, FullReason, Session, TraceLevel};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn texts(values: &[&str]) -> Vec<(String,)> {
    values.iter().map(|v| (v.to_string(),)).collect()
}

/// `d` moves from "b" to "c" in both `L` and `R`: the variant seeded at
/// `L` reads only the rows `R` held before, so `f` is asked about "c"
/// once, by the variant seeded at `R`.
#[test]
fn a_head_two_changed_atoms_reach_is_derived_once() {
    let calls = Arc::new(AtomicUsize::new(0));
    let seen = calls.clone();
    let mut session = Session::builder()
        .parallelism(0)
        .register("f", Some(1), move |args, out, _| {
            seen.fetch_add(1, Ordering::SeqCst);
            out.push(&[args[0].clone()])
        })
        .build();
    session.import_typed("L", texts(&["a", "b"])).unwrap();
    session.import_typed("R", texts(&["a", "b"])).unwrap();
    session.run("A(d, x) <- L(d), R(d), f(d) -> (x)").unwrap();
    session.ensure_evaluated().unwrap();
    assert_eq!(calls.load(Ordering::SeqCst), 2, "one call per document");

    session.import_typed("L", texts(&["a", "c"])).unwrap();
    session.import_typed("R", texts(&["a", "c"])).unwrap();
    let rows = session
        .export_typed::<(String, String)>("?A(d, x)")
        .unwrap();
    let expected = [("a", "a"), ("c", "c")].map(|(d, x)| (d.to_string(), x.to_string()));
    assert_eq!(rows, expected);
    assert_eq!(
        session.stats().mode,
        EvalMode::Maintained {
            added: 2,
            removed: 2
        }
    );
    assert_eq!(calls.load(Ordering::SeqCst), 3, "\"c\" is asked once");
}

/// `Lit` reads no relation: its rows come from the run over the empty
/// database — the first, and one `set_tracing` forces — and a write to
/// another input leaves them as they are.
#[test]
fn a_rule_that_scans_nothing_fires_from_the_empty_database() {
    let mut session = Session::new();
    session
        .run(
            r#"new S(int)
            S(1)
            Lit(w) <- rgx_string("([a-z]+)", "alpha beta") -> (w)
            T(x) <- S(x)"#,
        )
        .unwrap();
    let lit = |session: &mut Session| session.export_typed::<(String,)>("?Lit(w)").unwrap();
    assert_eq!(lit(&mut session), texts(&["alpha", "beta"]));
    assert_eq!(
        session.stats().mode,
        EvalMode::Full(FullReason::FirstEvaluation)
    );

    session.add_fact("S", [Value::Int(2)]).unwrap();
    assert_eq!(lit(&mut session), texts(&["alpha", "beta"]));
    assert_eq!(
        session.stats().mode,
        EvalMode::Maintained {
            added: 1,
            removed: 0
        }
    );
    assert_eq!(
        session.export_typed::<(i64,)>("?T(x)").unwrap(),
        [(1,), (2,)]
    );

    session.set_tracing(TraceLevel::Summary);
    assert_eq!(lit(&mut session), texts(&["alpha", "beta"]));
    assert_eq!(
        session.stats().mode,
        EvalMode::Full(FullReason::TracingChanged)
    );
}
