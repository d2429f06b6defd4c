//! Which IE calls a program shares. A *call* is what an IE atom asks
//! whatever its variables bind — the function, the constants at its
//! inputs, its output arity — and it is *shared* when two sites ask it,
//! or when its one site sits in a recursive component. A shared call of
//! any function but a constant-time builtin is planned as relations: a
//! demand relation `f#k?` of the argument vectors its sites ask, and
//! `f#k` of the rows it returns that some site reads. Every case runs on
//! one lane and on two, holds every relation to the reference evaluator,
//! counts body calls with a wrapper around the function, and reads the
//! rows of the call's relations from the run's profile.

mod support;

use spannerlib_core::{Schema, Value, ValueType};
use spannerlog_engine::{
    EngineError, IeContext, IeFunction, IeRows, Registry, Result, Session, TraceLevel,
};
use std::collections::BTreeMap;
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

/// `f(x) -> (m, l)` over ints: `(x, "A")`, `(x + 100, "B")` and
/// `(2x, "A")` — or, when `only_a`, the two `"A"` rows alone.
fn labels(only_a: bool) -> Arc<dyn IeFunction> {
    let mut registry = Registry::new();
    registry.register_closure("f", Some(1), move |args, out, _| {
        let x = args[0].as_int().expect("an int argument");
        let rows = [(x, "A"), (x + 100, "B"), (2 * x, "A")];
        let mut rows = rows.into_iter().filter(|&(_, l)| !only_a || l == "A");
        rows.try_for_each(|(m, l)| out.push(&[Value::Int(m), Value::str(l)]))
    });
    registry.ie("f").unwrap().clone()
}

/// The builtin `rgx`.
fn rgx() -> Arc<dyn IeFunction> {
    Registry::new().ie("rgx").unwrap().clone()
}

/// A session at `parallelism` with `name` bound to `f`, whose body calls
/// add up in the returned counter.
fn session(name: &str, f: &Arc<dyn IeFunction>, parallelism: usize) -> (Session, Arc<AtomicUsize>) {
    let (session, mut calls) = session_of(&[(name, f.clone())], parallelism);
    (session, calls.remove(0))
}

/// A session at `parallelism` with each `(name, f)` of `functions`
/// bound, whose body calls add up in the returned counters, in order.
fn session_of(
    functions: &[(&str, Arc<dyn IeFunction>)],
    parallelism: usize,
) -> (Session, Vec<Arc<AtomicUsize>>) {
    let builder = Session::builder().parallelism(parallelism);
    let mut builder = builder.tracing(TraceLevel::Summary);
    let mut counters = Vec::new();
    for (name, f) in functions {
        let calls = Arc::new(AtomicUsize::new(0));
        builder = builder.register_ie(name, counted(f, &calls));
        counters.push(calls);
    }
    (builder.build(), counters)
}

fn counted(f: &Arc<dyn IeFunction>, calls: &Arc<AtomicUsize>) -> Arc<dyn IeFunction> {
    Arc::new(Counted {
        f: f.clone(),
        calls: calls.clone(),
    })
}

/// Evaluates `session` and holds every relation the reference derives
/// from `program` — its inputs are its own facts — with `name` bound to
/// `f`, to it.
fn check(session: &mut Session, program: &str, name: &str, f: &Arc<dyn IeFunction>) {
    check_of(session, program, &[(name, f.clone())]);
}

/// [`check`] with each `(name, f)` of `functions` bound.
fn check_of(session: &mut Session, program: &str, functions: &[(&str, Arc<dyn IeFunction>)]) {
    let mut registry = Registry::new();
    for (name, f) in functions {
        registry.register_ie(name, f.clone());
    }
    let reference = support::evaluate(program, &[], &registry).unwrap();
    session.ensure_evaluated().unwrap();
    for relation in reference.relations.keys() {
        let rows = session.relation(relation).unwrap();
        let rows = support::canonical(rows.iter(), session.docs());
        assert_eq!(rows, reference.canonical(relation), "{relation}");
    }
}

/// The rows of each relation of a shared call the last run derived,
/// read from its profile.
fn aux_rows(session: &Session) -> BTreeMap<String, u64> {
    let profile = session.profile().expect("a traced session");
    let mut rows = BTreeMap::new();
    let rules = profile.strata.iter().flat_map(|s| &s.rules);
    for rule in rules.filter(|r| r.head.contains('#')) {
        *rows.entry(rule.head.clone()).or_default() += rule.tuples_new;
    }
    rows
}

/// `[(name, rows)]` as [`aux_rows`] reads them.
fn rows_of(pairs: &[(&str, u64)]) -> BTreeMap<String, u64> {
    pairs.iter().map(|&(n, r)| (n.to_string(), r)).collect()
}

/// What one evaluation of `program` did at `parallelism` with `name`
/// bound to `f`, checked against the reference: its body calls and the
/// rows of the relations of its shared calls.
fn run(
    program: &str,
    name: &str,
    f: &Arc<dyn IeFunction>,
    parallelism: usize,
) -> (usize, BTreeMap<String, u64>) {
    let (mut session, calls) = session(name, f, parallelism);
    session.run(program).unwrap();
    check(&mut session, program, name, f);
    (calls.load(Ordering::SeqCst), aux_rows(&session))
}

/// Three distinct arguments, one of them in two rows.
const S: &str = "new S(int, int)\nS(1, 0) S(2, 0) S(2, 1) S(3, 0)\n";

/// Two sites reading `(m, "A")` ask one call: each distinct argument
/// runs the body once, on any number of lanes, and `f#0` keeps the
/// `"A"` rows only — as many as a function that returns nothing else
/// leaves there.
#[test]
fn two_sites_share_one_call_narrowed_to_their_constant() {
    let program = format!(
        "{S}P(x, m) <- S(x, _), f(x) -> (m, \"A\")\nQ(x, m) <- S(x, _), f(x) -> (m, \"A\")"
    );
    for parallelism in [0, 2] {
        let (calls, aux) = run(&program, "f", &labels(false), parallelism);
        assert_eq!(calls, 3, "once per distinct argument");
        assert_eq!(aux, rows_of(&[("f#0", 6), ("f#0?", 3)]));
        let (_, only_a) = run(&program, "f", &labels(true), parallelism);
        assert_eq!(aux, only_a, "f#0 holds only \"A\" rows");
    }
}

/// Five `rgx` sites with five patterns are five calls of one site each:
/// none is planned as a relation, and every document is scanned once
/// per pattern — `k` rules over `n` documents run `rgx` `k × n` times.
#[test]
fn five_patterns_share_nothing() {
    let patterns = ["a+", "b+", "ab", "[ab]+b", "x"];
    let mut program = String::from("new Texts(str, str)\n");
    let docs = 40;
    for d in 0..docs {
        program += &format!("Texts(\"d{d}\", \"aab ab {d} bba x\")\n");
    }
    for (i, pattern) in patterns.iter().enumerate() {
        program += &format!("R{i}(d, s) <- Texts(d, t), rgx(\"{pattern}\", t) -> (s)\n");
    }
    for parallelism in [0, 2] {
        let (calls, aux) = run(&program, "rgx", &rgx(), parallelism);
        assert_eq!(calls, docs * patterns.len(), "docs × patterns");
        assert!(aux.is_empty(), "{aux:?}");
    }
}

/// A site reading `(m, "A")` beside one reading `(m, l)` asks the same
/// call, but the second reads every row: `f#0` keeps them all, as it
/// does when both sites read `(m, l)`.
#[test]
fn a_constant_one_site_reads_does_not_narrow_the_call() {
    let program =
        format!("{S}P(x, m) <- S(x, _), f(x) -> (m, \"A\")\nQ(x, m, l) <- S(x, _), f(x) -> (m, l)");
    let unnarrowed =
        format!("{S}P(x, m) <- S(x, _), f(x) -> (m, l)\nQ(x, m, l) <- S(x, _), f(x) -> (m, l)");
    for parallelism in [0, 2] {
        let (calls, aux) = run(&program, "f", &labels(false), parallelism);
        assert_eq!(calls, 3);
        assert_eq!(aux, rows_of(&[("f#0", 9), ("f#0?", 3)]));
        let (_, all) = run(&unnarrowed, "f", &labels(false), parallelism);
        assert_eq!(aux, all);
    }
}

/// The one site of a call inside a recursive component is shared with
/// the later rounds, which ask it again: over the whole run the body
/// runs once per distinct argument, on any number of lanes.
#[test]
fn a_lone_site_in_a_recursion_runs_once_per_argument() {
    let program = "new Edge(int, int)
Edge(1, 2) Edge(2, 3) Edge(3, 4) Edge(4, 5)
P(x, y) <- Edge(x, y)
P(x, z) <- P(x, y), Edge(y, z), f(z) -> (m, \"A\")";
    for parallelism in [0, 2] {
        let (calls, aux) = run(program, "f", &labels(false), parallelism);
        assert_eq!(calls, 3, "f(3), f(4), f(5)");
        assert_eq!(aux["f#0?"], 3);
    }
}

/// A constant-time builtin is never planned as a relation, even where
/// two sites share its call: each site calls it once per binding row.
/// Its body calls are read from the run's profile: a wrapper registered
/// under its name would be a host function, which is grouped.
#[test]
fn a_per_row_builtin_skips_the_memo_at_a_shared_site() {
    let program =
        format!("{S}P(x, n) <- S(x, y), add(x, 1) -> (n)\nQ(x, n) <- S(x, y), add(x, 1) -> (n)");
    let add = Registry::new().ie("add").unwrap().clone();
    for parallelism in [0, 2] {
        let (mut session, _) = session_of(&[], parallelism);
        session.run(&program).unwrap();
        check(&mut session, &program, "add", &add);
        let profile = session.profile().unwrap();
        let calls = profile.ie_functions.iter().find(|f| f.name == "add");
        assert_eq!(
            calls.map(|f| f.calls),
            Some(2 * 4),
            "two sites × four binding rows"
        );
        assert!(aux_rows(&session).is_empty());
    }
}

/// `feed(x) -> (x + 1000)`.
fn plus_thousand() -> Arc<dyn IeFunction> {
    let mut registry = Registry::new();
    registry.register_closure("feed", Some(1), |args, out, _| {
        out.push(&[Value::Int(args[0].as_int().unwrap() + 1000)])
    });
    registry.ie("feed").unwrap().clone()
}

/// `g(x) -> (x + 10)`.
fn plus_ten() -> Arc<dyn IeFunction> {
    let mut registry = Registry::new();
    registry.register_closure("g", Some(1), |args, out, _| {
        out.push(&[Value::Int(args[0].as_int().unwrap() + 10)])
    });
    registry.ie("g").unwrap().clone()
}

/// A call whose input an IE atom of no shared call binds stays a plain
/// atom at every site: its demand rule would run that atom again, on top
/// of the site's own call — three calls more. `feed` runs once per
/// distinct argument its one site meets in a shard, as it does where no
/// call is shared.
#[test]
fn a_call_fed_by_an_unshared_ie_atom_stays_a_plain_atom() {
    let program = format!(
        "{S}R(x, l) <- S(x, y), feed(x) -> (z), f(z) -> (m, l)\n\
         Q(x, m) <- S(x, y), f(x) -> (m, \"A\")"
    );
    let functions = [("feed", plus_thousand()), ("f", labels(false))];
    for parallelism in [0, 2] {
        let (mut session, calls) = session_of(&functions, parallelism);
        session.run(&program).unwrap();
        check_of(&mut session, &program, &functions);
        assert_eq!(session.relation("R").unwrap().len(), 3 * 2);
        let fed = calls[0].load(Ordering::SeqCst);
        assert!((3..=4).contains(&fed), "{fed} calls of feed");
        assert!(aux_rows(&session).is_empty());
    }
}

/// A call whose input another shared call binds is planned as relations
/// too, also when it is numbered first: the demand of `f#0` at `P` and
/// `Q` reads `g#1`, kept before it. Each body runs once per distinct
/// argument — `g` for 0 to 3, `f` for 0, 1 (at `O`) and 10 to 13.
#[test]
fn a_call_fed_by_a_shared_call_is_shared() {
    let program = format!(
        "{S}O(m) <- S(_, y), f(y) -> (m, \"B\")\n\
         P(x, l) <- S(x, _), g(x) -> (z), f(z) -> (m, l)\n\
         Q(y, l) <- S(_, y), g(y) -> (z), f(z) -> (m, l)"
    );
    let functions = [("g", plus_ten()), ("f", labels(false))];
    for parallelism in [0, 2] {
        let (mut session, calls) = session_of(&functions, parallelism);
        session.run(&program).unwrap();
        check_of(&mut session, &program, &functions);
        let calls: Vec<usize> = calls.iter().map(|c| c.load(Ordering::SeqCst)).collect();
        assert_eq!(calls, [4, 6], "g, f");
        // Three rows per argument, but f(0)'s `(0, "A")` and `(2·0, "A")`
        // are one.
        let aux = [("f#0", 17), ("f#0?", 6), ("g#1", 4), ("g#1?", 4)];
        assert_eq!(aux_rows(&session), rows_of(&aux));
    }
}

/// No program, query or host call names a relation of a shared call: a
/// session hands out none, removes none, and refuses to import or
/// declare a name with a `#` in it; a snapshot lists none.
#[test]
fn no_host_can_name_a_relation_of_a_shared_call() {
    let program = format!(
        "{S}P(x, m) <- S(x, _), f(x) -> (m, \"A\")\nQ(x, m) <- S(x, _), f(x) -> (m, \"A\")"
    );
    for parallelism in [0, 2] {
        let (mut session, _) = session("f", &labels(false), parallelism);
        session.run(&program).unwrap();
        check(&mut session, &program, "f", &labels(false));
        assert_eq!(aux_rows(&session)["f#0"], 6, "the relation exists");
        for name in ["f#0", "f#0?"] {
            assert!(session.relation(name).unwrap().is_empty(), "{name}");
            let removed = session.remove_relation(name);
            assert!(matches!(removed, Err(EngineError::UnknownRelation(_))));
            let imported = session.import_typed(name, vec![(1i64, 2i64)]);
            assert!(matches!(imported, Err(EngineError::ReservedName(_))));
            let declared = session.declare(name, Schema::new(vec![ValueType::Int]));
            assert!(matches!(declared, Err(EngineError::ReservedName(_))));
            // `#` starts a comment: the query is `?f`, which is no query.
            assert!(session.export(&format!("?{name}(x, m)")).is_err());
            let snapshot = session.snapshot().unwrap();
            assert!(snapshot.relation(name).is_empty());
            assert!(
                format!("{snapshot:?}").contains("relations: 3"),
                "{snapshot:?}"
            );
        }
        check(&mut session, &program, "f", &labels(false));
    }
}

/// A program change that numbers the calls anew leaves no relation of
/// the old numbering behind: `rgx#0` is `rgx("a+", t)` in the first
/// program and `rgx("b+", t)` in the second, and `rgx_string#1` of the
/// third is `rgx_string#0` of the fourth. Each program, and a write
/// maintained after it, derives what the reference does.
#[test]
fn no_stale_relation_survives_a_renumbering() {
    let texts = "new Texts(str, str)\nTexts(\"d0\", \"aab ab\") Texts(\"d1\", \"bba\")\n";
    let pair = |head: &str, f: &str, pattern: &str| {
        let rule = |h: &str| format!("{h}(d, s) <- Texts(d, t), {f}(\"{pattern}\", t) -> (s)\n");
        rule(&format!("{head}1")) + &rule(&format!("{head}2"))
    };
    let programs = [
        (pair("A", "rgx", "a+"), vec!["rgx#0", "rgx#0?"]),
        (pair("B", "rgx", "b+"), vec!["rgx#0", "rgx#0?"]),
        (
            pair("C", "rgx", "a+") + &pair("D", "rgx_string", "b+"),
            vec!["rgx#0", "rgx#0?", "rgx_string#1", "rgx_string#1?"],
        ),
        (
            pair("D", "rgx_string", "b+"),
            vec!["rgx_string#0", "rgx_string#0?"],
        ),
    ];
    let originals = vec![
        ("d0".to_string(), "aab ab".to_string()),
        ("d1".to_string(), "bba".to_string()),
    ];
    for parallelism in [0, 2] {
        let (mut session, _) = session("rgx", &rgx(), parallelism);
        session.run(texts).unwrap();
        for (rules, aux) in &programs {
            session.import_typed("Texts", originals.clone()).unwrap();
            session.clear_rules();
            session.run(rules).unwrap();
            let program = format!("{texts}{rules}");
            check(&mut session, &program, "rgx", &rgx());
            assert_eq!(aux_rows(&session).keys().collect::<Vec<_>>(), *aux);
            let added = [Value::str("d2"), Value::str("ab ba")];
            session.add_fact("Texts", added).unwrap();
            let program = format!("{program}Texts(\"d2\", \"ab ba\")\n");
            check(&mut session, &program, "rgx", &rgx());
        }
    }
}

/// Where the rewrite would leave the program unstratifiable — a site
/// behind `not Na(x)`, where `Na` reads what the other site derives, so
/// the demand would close a cycle through the negation — the call stays
/// a plain IE atom, called at each site; without the negation it is
/// planned as relations.
#[test]
fn an_unstratifiable_rewrite_falls_back_to_plain_ie_atoms() {
    let cyclic = format!(
        "{S}A(x, m) <- S(x, _), f(x) -> (m, \"A\")\nNa(x) <- A(x, 2)\n\
         B(x, m) <- S(x, _), not Na(x), f(x) -> (m, \"A\")"
    );
    let acyclic = cyclic.replace("not Na(x), ", "");
    for parallelism in [0, 2] {
        let (calls, aux) = run(&cyclic, "f", &labels(false), parallelism);
        assert!(aux.is_empty(), "{aux:?}");
        if parallelism == 0 {
            // Two shards of `S` may each ask f(2) of a plain atom.
            assert_eq!(calls, 3 + 1, "A asks 1, 2, 3; B asks 3 (Na holds 1 and 2)");
        }
        let (calls, aux) = run(&acyclic, "f", &labels(false), parallelism);
        assert_eq!(aux, rows_of(&[("f#0", 6), ("f#0?", 3)]));
        assert_eq!(calls, 3);
    }
}
