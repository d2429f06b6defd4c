//! Which IE calls the run's memo keeps. A *call* is what an IE atom
//! asks whatever its variables bind — the function, the constants at its
//! inputs, its output arity — and it is *shared* when two sites ask it,
//! or when its one site sits in a recursive component. Only a shared
//! call of a cacheable function reaches the memo, which keeps the output
//! rows that hold the constants every site of the call reads. Every case
//! runs on one lane and on two, holds every relation to the reference
//! evaluator, and counts body calls with a wrapper around the function.

mod support;

use spannerlib_core::Value;
use spannerlog_engine::{CacheStats, IeContext, IeFunction, IeOutput, Registry, Result, Session};
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

    fn call(&self, args: &[Value], n_outputs: usize, ctx: &mut IeContext<'_>) -> Result<IeOutput> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        self.f.call(args, n_outputs, ctx)
    }

    fn cacheable(&self) -> bool {
        self.f.cacheable()
    }
}

/// `f(x) -> (m, l)` over ints: `(x, "A")`, `(x + 100, "B")` and
/// `(2x, "A")` — or, when `only_a`, the two `"A"` rows alone.
fn labels(only_a: bool) -> Arc<dyn IeFunction> {
    let mut registry = Registry::new();
    registry.register_closure("f", Some(1), move |args, _| {
        let x = args[0].as_int().expect("an int argument");
        let row = |m: i64, l: &str| vec![Value::Int(m), Value::str(l)];
        let mut rows = vec![row(x, "A"), row(x + 100, "B"), row(2 * x, "A")];
        if only_a {
            rows.retain(|r| r[1] == Value::str("A"));
        }
        Ok(rows)
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
    let calls = Arc::new(AtomicUsize::new(0));
    let session = Session::builder()
        .parallelism(parallelism)
        .register_ie(name, counted(f, &calls))
        .build();
    (session, calls)
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
    let mut registry = Registry::new();
    registry.register_ie(name, f.clone());
    let reference = support::evaluate(program, &[], &registry).unwrap();
    session.ensure_evaluated().unwrap();
    for relation in reference.relations.keys() {
        let rows = session.relation(relation).unwrap();
        let rows = support::canonical(rows.iter(), session.docs());
        assert_eq!(rows, reference.canonical(relation), "{relation}");
    }
}

/// What one evaluation of `program` did at `parallelism` with `name`
/// bound to `f`, checked against the reference: its body calls and the
/// memo's counters.
fn run(
    program: &str,
    name: &str,
    f: &Arc<dyn IeFunction>,
    parallelism: usize,
) -> (usize, CacheStats) {
    let (mut session, calls) = session(name, f, parallelism);
    session.run(program).unwrap();
    check(&mut session, program, name, f);
    (calls.load(Ordering::SeqCst), session.stats().cache)
}

/// Three distinct arguments, one of them in two rows.
const S: &str = "new S(int, int)\nS(1, 0) S(2, 0) S(2, 1) S(3, 0)\n";

/// Two sites reading `(m, "A")` ask one call: each distinct argument
/// runs the body once, the second site finds what the first stored, and
/// the memo keeps the `"A"` rows only — what it keeps of a function that
/// returns nothing else.
#[test]
fn two_sites_share_one_call_narrowed_to_their_constant() {
    let program = format!(
        "{S}P(x, m) <- S(x, _), f(x) -> (m, \"A\")\nQ(x, m) <- S(x, _), f(x) -> (m, \"A\")"
    );
    for parallelism in [0, 2] {
        let (calls, cache) = run(&program, "f", &labels(false), parallelism);
        assert_eq!(calls as u64, cache.misses, "every miss calls the body");
        assert_eq!(cache.entries, 3, "one entry per distinct argument");
        if parallelism == 0 {
            assert_eq!((calls, cache.hits), (3, 3));
        }
        let (_, only_a) = run(&program, "f", &labels(true), parallelism);
        assert_eq!(cache.bytes, only_a.bytes, "the memo holds only \"A\" rows");
    }
}

/// Five `rgx` sites with five patterns are five calls of one site each:
/// none reaches the memo, and every document is scanned once per
/// pattern.
#[test]
fn five_patterns_share_nothing() {
    let patterns = ["a+", "b+", "ab", "[ab]+b", "x"];
    let mut program = String::from(
        "new Texts(str, str)\nTexts(\"d0\", \"aab ab\") Texts(\"d1\", \"bba\") Texts(\"d2\", \"x ab\")\n",
    );
    for (i, pattern) in patterns.iter().enumerate() {
        program += &format!("R{i}(d, s) <- Texts(d, t), rgx(\"{pattern}\", t) -> (s)\n");
    }
    for parallelism in [0, 2] {
        let (calls, cache) = run(&program, "rgx", &rgx(), parallelism);
        assert_eq!(calls, 3 * patterns.len(), "docs × patterns");
        assert_eq!((cache.misses, cache.hits, cache.entries), (0, 0, 0));
    }
}

/// A site reading `(m, "A")` beside one reading `(m, l)` asks the same
/// call, but the second reads every row: the memo keeps them all, as it
/// does when both sites read `(m, l)`.
#[test]
fn a_constant_one_site_reads_does_not_narrow_the_call() {
    let program =
        format!("{S}P(x, m) <- S(x, _), f(x) -> (m, \"A\")\nQ(x, m, l) <- S(x, _), f(x) -> (m, l)");
    let unnarrowed =
        format!("{S}P(x, m) <- S(x, _), f(x) -> (m, l)\nQ(x, m, l) <- S(x, _), f(x) -> (m, l)");
    for parallelism in [0, 2] {
        let (calls, cache) = run(&program, "f", &labels(false), parallelism);
        assert_eq!(calls as u64, cache.misses);
        if parallelism == 0 {
            assert_eq!((calls, cache.hits), (3, 3));
        }
        let (_, all) = run(&unnarrowed, "f", &labels(false), parallelism);
        assert_eq!((cache.entries, cache.bytes), (all.entries, all.bytes));
        let (_, only_a) = run(&unnarrowed, "f", &labels(true), parallelism);
        assert!(cache.bytes > only_a.bytes, "the \"B\" rows are kept too");
    }
}

/// The one site of a call inside a recursive component is shared with
/// the later rounds, which ask it again: over the whole run the body
/// runs once per distinct argument. (Without the memo, `f(4)` and
/// `f(5)` would run again in rounds 2 and 3.)
#[test]
fn a_lone_site_in_a_recursion_runs_once_per_argument() {
    let program = "new Edge(int, int)
Edge(1, 2) Edge(2, 3) Edge(3, 4) Edge(4, 5)
P(x, y) <- Edge(x, y)
P(x, z) <- P(x, y), Edge(y, z), f(z) -> (m, \"A\")";
    for parallelism in [0, 2] {
        let (calls, cache) = run(program, "f", &labels(false), parallelism);
        assert_eq!(calls as u64, cache.misses);
        assert_eq!(cache.entries, 3, "f(3), f(4), f(5)");
        assert!(cache.hits >= 3, "{cache:?}");
        if parallelism == 0 {
            assert_eq!(calls, 3);
        }
    }
}

/// A function registered again as uncached never reaches the memo, even
/// where two sites share its call: each site calls it once per binding
/// row.
#[test]
fn an_uncached_function_skips_the_memo_at_a_shared_site() {
    let program = format!(
        "{S}P(x, m) <- S(x, y), f(x) -> (m, \"A\")\nQ(x, m) <- S(x, y), f(x) -> (m, \"A\")"
    );
    let cached = labels(false);
    let body = cached.clone();
    let mut registry = Registry::new();
    registry.register_closure_uncached("f", Some(1), move |args, ctx| body.call(args, 2, ctx));
    let uncached = registry.ie("f").unwrap().clone();
    for parallelism in [0, 2] {
        let (mut session, calls) = session("f", &cached, parallelism);
        session.run(&program).unwrap();
        check(&mut session, &program, "f", &cached);
        let before = session.stats().cache;
        assert!(before.hits > 0, "{before:?}");

        let again = Arc::new(AtomicUsize::new(0));
        session.register_ie("f", counted(&uncached, &again));
        check(&mut session, &program, "f", &uncached);
        assert_eq!(
            again.load(Ordering::SeqCst),
            2 * 4,
            "two sites × four binding rows"
        );
        let after = session.stats().cache;
        assert_eq!((after.hits, after.misses), (before.hits, before.misses));
        assert_eq!((after.entries, after.bytes), (0, 0));
        assert!(calls.load(Ordering::SeqCst) > 0);
    }
}
