//! The flat row store under the fixpoint, from the outside: the arena
//! `Relation` against a set model, recursion whose relations are
//! re-indexed by extension, a head without columns, and the wall-clock
//! budget inside one join, one IE batch and one `rgx_all` call.
//!
//! (The `Relation` model test lives here rather than in
//! `spannerlib-core`, which has no `proptest` dev-dependency.)

mod support;

use proptest::prelude::*;
use spannerlib_core::{DocId, Relation, Schema, Span, Tuple, Value, ValueType};
use spannerlog_engine::{EngineError, Registry, Session, TraceLevel};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

const TYPES: [ValueType; 5] = [
    ValueType::Str,
    ValueType::Span,
    ValueType::Int,
    ValueType::Bool,
    ValueType::Float,
];

/// The `pick`-th value of a type: a couple of hundred distinct ones per
/// type (two for `bool`), the awkward floats first.
fn value(value_type: ValueType, pick: u16) -> Value {
    let n = usize::from(pick);
    match value_type {
        ValueType::Str => Value::str(format!("s{}", n % 150)),
        ValueType::Span => Value::Span(Span::new(DocId::from_index(pick as u32 % 3), n, n + n % 5)),
        ValueType::Int => Value::Int(i64::from(pick) - 100),
        ValueType::Bool => Value::Bool(pick.is_multiple_of(2)),
        ValueType::Float => Value::Float(match pick {
            0 => f64::NAN,
            1 => -0.0,
            2 => 0.0,
            3 => f64::NEG_INFINITY,
            _ => f64::from(pick) / 4.0,
        }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random insert / remove / contains sequences leave the arena
    /// relation with the membership, `len` and `sorted_tuples` of a
    /// `BTreeSet` of rows after every step — through several doublings
    /// of its table, re-inserts of removed rows, NaN and −0.0, and
    /// arity 0 — and with its rows in insertion order.
    #[test]
    fn relation_agrees_with_a_set_model(
        kinds in prop::collection::vec(0usize..5, 0..4),
        ops in prop::collection::vec((0u8..5, prop::collection::vec(0u16..200, 3)), 1..300),
    ) {
        let types: Vec<ValueType> = kinds.iter().map(|&k| TYPES[k]).collect();
        let mut rel = Relation::new(Schema::new(types.clone()));
        let mut model: BTreeSet<Vec<Value>> = BTreeSet::new();
        let mut order: Vec<Vec<Value>> = Vec::new();
        for (op, picks) in &ops {
            let row: Vec<Value> = types.iter().zip(picks).map(|(&t, &p)| value(t, p)).collect();
            let tuple = Tuple::new(row.clone());
            match op {
                0..=2 => {
                    let new = model.insert(row.clone());
                    prop_assert_eq!(rel.insert(tuple.clone()).unwrap(), new);
                    if new {
                        order.push(row.clone());
                    }
                }
                3 => {
                    let was = model.remove(&row);
                    prop_assert_eq!(rel.remove(&tuple), was);
                    order.retain(|r| *r != row);
                }
                _ => {}
            }
            prop_assert_eq!(rel.contains(&tuple), model.contains(&row));
            prop_assert_eq!(rel.len(), model.len());
            let sorted: Vec<Vec<Value>> =
                rel.sorted_tuples().iter().map(|t| t.values().to_vec()).collect();
            prop_assert_eq!(sorted, model.iter().cloned().collect::<Vec<_>>());
            prop_assert_eq!(rel.iter().map(<[Value]>::to_vec).collect::<Vec<_>>(), order.clone());
        }
        // Equality is set equality, whatever the insertion order.
        let tuples = model.iter().map(|row| Tuple::new(row.clone()));
        let sorted = Relation::from_tuples(Schema::new(types), tuples).unwrap();
        prop_assert_eq!(rel, sorted);
    }
}

fn chain(relation: &str, nodes: usize) -> String {
    let edges: Vec<String> = (1..nodes)
        .map(|i| format!("{relation}({i}, {})", i + 1))
        .collect();
    format!("new {relation}(int, int)\n{}\n", edges.join(" "))
}

/// Evaluates `program`; the relations named, as the reference writes
/// them, and the run's `(rounds, index_builds)`.
fn evaluate(program: &str, names: &[&str]) -> (Vec<BTreeSet<Vec<String>>>, u64, u64) {
    let mut session = Session::builder().tracing(TraceLevel::Summary).build();
    session.run(program).unwrap();
    let relations = names
        .iter()
        .map(|name| support::canonical(session.relation(name).unwrap().iter(), session.docs()))
        .collect();
    let profile = session.profile().unwrap();
    (relations, profile.rounds, profile.index_builds)
}

/// Non-linear and mutual recursion scan — keyed — the very relations
/// they grow. Each `(relation, key columns)` index is built once and
/// extended by the rows of every later round: the number of builds is
/// the number of such pairs, whatever the number of rounds.
#[test]
fn recursive_relations_are_indexed_once_however_many_rounds() {
    // Path[0] probed by the full firing and the variant whose delta is
    // the first atom, Path[1] by the variant whose delta is the second.
    let closure = "Path(x, y) <- Edge(x, y)\nPath(x, z) <- Path(x, y), Path(y, z)";
    // A[0] and A[1] likewise, and E[0] under the last rule. On the long
    // chain a delta of B outgrows E there, is probed from it, and shares
    // the run's index B[1] like any keyed scan; on the short one it
    // never does.
    let mutual = "A(x, y) <- E(x, y)\nB(x, z) <- A(x, y), A(y, z)\nA(x, z) <- B(x, y), E(y, z)";
    for (rules, edge, names, pairs) in [
        (closure, "Edge", &["Path"][..], [2, 2]),
        (mutual, "E", &["A", "B"][..], [3, 4]),
    ] {
        let mut rounds_seen = Vec::new();
        for (nodes, pairs) in [8, 64].into_iter().zip(pairs) {
            let program = chain(edge, nodes) + rules;
            let (rows, rounds, builds) = evaluate(&program, names);
            let reference = support::evaluate(&program, &[], &Registry::new()).unwrap();
            let reference: Vec<_> = names.iter().map(|name| reference.canonical(name)).collect();
            assert_eq!(rows, reference, "{rules} over {nodes} nodes");
            assert_eq!(builds, pairs, "{rules} over {nodes} nodes, {rounds} rounds");
            rounds_seen.push(rounds);
        }
        assert!(rounds_seen[0] < rounds_seen[1], "{rounds_seen:?}");
    }
    let program = chain("Edge", 64) + closure;
    let (rows, _, _) = evaluate(&program, &["Path"]);
    assert_eq!(rows[0].len(), 63 * 64 / 2);
}

/// A head without columns is a relation of at most one row: the empty
/// one.
#[test]
fn nullary_head_holds_one_row() {
    let mut session = Session::new();
    session
        .run("new Edge(int, int)\nEdge(1, 2) Edge(2, 3)\nAny() <- Edge(x, y)\nNone() <- Edge(x, x)")
        .unwrap();
    let any = session.relation("Any").unwrap();
    assert_eq!(any.len(), 1);
    assert_eq!(any.sorted_tuples(), [Tuple::empty()]);
    let holds = |session: &mut Session, query: &str| {
        let frame = session.export(query).unwrap();
        (frame.num_rows(), frame.get(0, 0))
    };
    assert_eq!(holds(&mut session, "?Any()"), (1, Some(Value::Bool(true))));
    assert_eq!(
        holds(&mut session, "?None()"),
        (1, Some(Value::Bool(false)))
    );
    // Re-derived from three edges, it is still one row.
    session.run("Edge(3, 4)").unwrap();
    assert_eq!(session.relation("Any").unwrap().len(), 1);
    assert_eq!(holds(&mut session, "?Any()"), (1, Some(Value::Bool(true))));
}

/// One IE-free rule whose join outgrows the budget is a single firing
/// of a single round: nothing between rounds or before IE batches ever
/// looks at the clock. The join loop itself must.
#[test]
fn wall_clock_budget_interrupts_one_large_join() {
    let mut session = Session::builder().max_eval_millis(50).build();
    session.run("new N(int)").unwrap();
    for i in 0..300 {
        session.add_fact("N", [Value::Int(i)]).unwrap();
    }
    session.run("Big(x, y, z) <- N(x), N(y), N(z)").unwrap();
    let started = Instant::now();
    let err = session.ensure_evaluated().unwrap_err();
    let took = started.elapsed();
    let EngineError::LimitExceeded {
        resource,
        limit,
        culprit,
    } = &err
    else {
        panic!("expected LimitExceeded, got {err:?}");
    };
    assert_eq!((*resource, *limit), ("eval wall-clock millis", 50));
    assert_eq!(culprit.head, "Big");
    assert!(culprit.source.contains("N(x), N(y), N(z)"), "{culprit:?}");
    assert!(took < Duration::from_secs(2), "gave up after {took:?}");
}

/// One `rgx_all` call can enumerate for seconds: `x{a*}y{a*}b` over
/// 400 `a`s matches nothing, through Θ(n³) configurations. The call asks
/// the run's deadline as it goes and stops there, and the run fails on
/// its budget, not on the call.
#[test]
fn wall_clock_budget_interrupts_one_rgx_all_call() {
    let mut session = Session::builder().max_eval_millis(200).build();
    let text = "a".repeat(400);
    session.run("new Docs(str)").unwrap();
    session
        .add_fact("Docs", [Value::str(text.as_str())])
        .unwrap();
    session
        .run(r#"M(x, y) <- Docs(t), rgx_all("x{a*}y{a*}b", t) -> (x, y)"#)
        .unwrap();
    let started = Instant::now();
    let err = session.ensure_evaluated().unwrap_err();
    let took = started.elapsed();
    let EngineError::LimitExceeded {
        resource,
        limit,
        culprit,
    } = &err
    else {
        panic!("expected LimitExceeded, got {err:?}");
    };
    assert_eq!((*resource, *limit), ("eval wall-clock millis", 200));
    assert_eq!(culprit.head, "M");
    assert!(took < Duration::from_secs(3), "gave up after {took:?}");
}

/// One IE step over many rows is a single batch: the look at the clock
/// before it sees a fresh budget. The loop over its calls must look
/// again — on the calling thread and in every shard.
#[test]
fn wall_clock_budget_interrupts_one_slow_ie_batch() {
    for workers in [0, 2] {
        let mut session = Session::builder()
            .max_eval_millis(20)
            .parallelism(workers)
            .register("slow", Some(1), |args, out, _| {
                std::thread::sleep(Duration::from_millis(2));
                out.push(&[args[0].clone()])
            })
            .build();
        session.run("new N(int)").unwrap();
        for i in 0..200 {
            session.add_fact("N", [Value::Int(i)]).unwrap();
        }
        session.run("Slow(x, y) <- N(x), slow(x) -> (y)").unwrap();
        let started = Instant::now();
        let err = session.ensure_evaluated().unwrap_err();
        let took = started.elapsed();
        let EngineError::LimitExceeded {
            resource,
            limit,
            culprit,
        } = &err
        else {
            panic!("expected LimitExceeded, got {err:?}");
        };
        assert_eq!((*resource, *limit), ("eval wall-clock millis", 20));
        assert_eq!(culprit.head, "Slow");
        assert!(culprit.source.contains("slow(x)"), "{culprit:?}");
        // 200 calls are 400 ms of sleep (200 over two lanes).
        assert!(
            took < Duration::from_millis(100),
            "parallelism({workers}) gave up after {took:?}"
        );
    }
}
