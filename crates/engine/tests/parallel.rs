//! Shard-parallel evaluation: every kind of firing shards, parallel ≡
//! serial result equivalence, and the `par:` summary in evaluation
//! profiles.

use spannerlib_core::Value;
use spannerlog_engine::{Session, TraceLevel};

/// A mixed program: an extraction rule, an aggregation, an IE-free
/// self-join, and a join of two relations feeding an IE call.
const MIXED_RULES: &str = r#"
Word(d, w) <- Texts(d, t), rgx_string("([a-z]+)", t) -> (w)
Cnt(d, count(w)) <- Word(d, w)
Shared(w) <- Word(d1, w), Word(d2, w), d1 < d2
Cross(s) <- Pats(p), Texts(d, t), rgx_string(p, t) -> (s)
"#;

fn corpus() -> Vec<(String, String)> {
    (0..12)
        .map(|i| {
            (
                format!("d{i}"),
                format!("alpha beta{i} gamma delta{} epsilon", i % 3),
            )
        })
        .collect()
}

fn load(session: &mut Session) {
    session.import_typed("Texts", corpus()).unwrap();
    session.run("new Pats(str)").unwrap();
    session
        .add_fact("Pats", [Value::str("beta[0-9]+")])
        .unwrap();
}

/// Every firing may shard, not only one an analysis cleared: at two
/// lanes an IE-free recursive program (whose delta rounds shard their
/// delta) and a `count` over an IE output (whose body shards, and whose
/// groups fold on the calling thread) both run shard tasks, and derive
/// what a serial session derives. `Reach` walks a binary tree from its
/// one-row root: the base rule and the recursive rule's full firing
/// each scan at most that one row, which stays on the caller, so only
/// the delta rounds — 2, 4, 8 and 16 new nodes — have rows to cut.
#[test]
fn recursive_and_aggregating_firings_shard() {
    let programs = [
        (
            "Reach(y) <- Root(y)
             Reach(y) <- Reach(x), Edge(x, y)",
            "Reach",
        ),
        (
            r#"Cnt(d, count(w)) <- Texts(d, t), rgx_string("([a-z]+)", t) -> (w)"#,
            "Cnt",
        ),
    ];
    for (program, relation) in programs {
        let run = |workers: usize| {
            let mut session = Session::builder()
                .parallelism(workers)
                .tracing(TraceLevel::Summary)
                .build();
            load(&mut session);
            session.run("new Root(int)\nnew Edge(int, int)").unwrap();
            session.add_fact("Root", [Value::Int(0)]).unwrap();
            for i in 0..15 {
                for child in [2 * i + 1, 2 * i + 2] {
                    session
                        .add_fact("Edge", [Value::Int(i), Value::Int(child)])
                        .unwrap();
                }
            }
            session.run(program).unwrap();
            session
        };
        let mut parallel = run(2);
        let rows = canonical(&mut parallel, relation);
        assert!(rows.len() > 10, "{relation}: {rows:?}");
        assert_eq!(rows, canonical(&mut run(0), relation), "{relation}");
        let profile = parallel.profile().expect("summary tracing");
        assert_eq!(profile.par_workers, 2, "{relation}");
        assert!(profile.par_shards > 0, "{relation}: {profile:?}");
    }
}

/// An aggregate folds a group's values in one order however its body
/// was cut. Float addition is not associative — `1e16 + 1 − 1e16` is 0
/// in one order and 1 in another — and an IE step groups its rows by
/// argument within each shard, so the order in which the rows reach
/// the fold depends on the cut; the sum must not.
#[test]
fn a_float_sum_does_not_depend_on_the_cut() {
    let sum = |workers: usize| {
        let mut session = Session::builder()
            .parallelism(workers)
            .register("key", Some(1), |_, _| Ok(vec![vec![Value::str("k")]]))
            .build();
        session.run("new Docs(str, float)").unwrap();
        for (t, w) in [("a", 1e16), ("b", 1.0), ("a", -1e16)] {
            let row = [Value::str(t), Value::Float(w)];
            session.add_fact("Docs", row).unwrap();
        }
        session
            .run("T(k, sum(w)) <- Docs(t, w), key(t) -> (k)")
            .unwrap();
        canonical(&mut session, "T")
    };
    let serial = sum(0);
    assert_eq!(serial.len(), 1, "{serial:?}");
    for workers in [2, 4] {
        assert_eq!(sum(workers), serial, "parallelism({workers})");
    }
}

/// The constant-time builtins — off the memo because a probe costs more
/// than they do — shard like any IE call (the shape of `covid.slog`'s
/// `EvidenceKey`), and sharding them changes nothing.
#[test]
fn uncached_builtins_shard_like_any_ie_call() {
    let rules = r#"
Mention(d, m) <- Texts(d, t), rgx("beta[0-9]+", t) -> (m)
MentionKey(d, k) <- Mention(d, m), span_start(m) -> (ms), span_end(m) -> (me),
                    format("{}|{}|{}", d, ms, me) -> (k)
"#;
    let run = |workers: usize| {
        let mut session = Session::builder().parallelism(workers).build();
        load(&mut session);
        session.run(rules).unwrap();
        session
    };
    let mut parallel = run(4);
    let keys = canonical(&mut parallel, "MentionKey");
    assert_eq!(keys.len(), 12);
    assert_eq!(keys, canonical(&mut run(0), "MentionKey"));
}

/// Canonicalized tuples (spans resolved to text + offsets: doc ids are
/// not stable across sessions).
fn canonical(session: &mut Session, name: &str) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = session
        .relation(name)
        .unwrap()
        .sorted_tuples()
        .iter()
        .map(|t| {
            t.values()
                .iter()
                .map(|v| match v {
                    Value::Span(s) => {
                        format!(
                            "{:?}[{}..{}]",
                            session.span_text(s).unwrap(),
                            s.start,
                            s.end
                        )
                    }
                    other => format!("{other:?}"),
                })
                .collect()
        })
        .collect();
    rows.sort();
    rows
}

/// Parallel and pinned-serial sessions derive identical relations, for
/// every rule of a mixed program.
#[test]
fn parallel_matches_serial_on_mixed_program() {
    let run = |workers: usize| {
        let mut session = Session::builder().parallelism(workers).build();
        load(&mut session);
        session.run(MIXED_RULES).unwrap();
        session
    };
    let mut serial = run(0);
    let mut parallel = run(4);
    for name in ["Word", "Cnt", "Shared", "Cross"] {
        assert_eq!(
            canonical(&mut serial, name),
            canonical(&mut parallel, name),
            "relation {name} diverged under parallelism(4)"
        );
    }
    // Sanity: the extraction actually produced rows to compare.
    assert!(!canonical(&mut serial, "Word").is_empty());
    assert!(!canonical(&mut serial, "Cross").is_empty());
}

/// With workers, the profile carries the parallel counters and renders
/// the `par:` summary line.
#[test]
fn profile_reports_parallel_summary() {
    let mut session = Session::builder()
        .parallelism(4)
        .tracing(TraceLevel::Summary)
        .build();
    load(&mut session);
    session.run(MIXED_RULES).unwrap();
    session.export("?Word(d, w)").unwrap();
    let profile = session.profile().expect("summary tracing yields a profile");
    assert_eq!(profile.par_workers, 4);
    assert!(
        profile.par_shards > 0,
        "the Word rule must fan out shard tasks (profile: {profile:?})"
    );
    assert_eq!(profile.par_serial_rules, 0, "no firing is kept serial");
    let table = profile.render();
    assert!(table.contains("par:"), "parallel summary line:\n{table}");
}

/// `parallelism(0)` pins evaluation serial: no shard, no parallel
/// counters, no `par:` line.
#[test]
fn parallelism_zero_stays_serial() {
    let mut session = Session::builder()
        .parallelism(0)
        .tracing(TraceLevel::Summary)
        .build();
    load(&mut session);
    session.run(MIXED_RULES).unwrap();
    session.export("?Word(d, w)").unwrap();
    let profile = session.profile().unwrap();
    assert_eq!(profile.par_workers, 0);
    assert_eq!(profile.par_shards, 0);
    assert!(!profile.render().contains("par:"));
}

/// `parallelism(n)` counts the calling thread: at 2, shards run on the
/// caller and at most one more thread (a pool with a helping caller ran
/// them on 3); at 0, on the caller alone.
#[test]
fn parallelism_counts_the_calling_thread() {
    use std::collections::HashSet;
    use std::sync::{Arc, Mutex};
    use std::thread::{self, ThreadId};

    for (lanes, most) in [(2, 2), (0, 1)] {
        let seen: Arc<Mutex<HashSet<ThreadId>>> = Arc::default();
        let record = Arc::clone(&seen);
        let mut session = Session::builder()
            .parallelism(lanes)
            .register("probe", Some(1), move |_, _| {
                record.lock().unwrap().insert(thread::current().id());
                thread::sleep(std::time::Duration::from_millis(1));
                Ok(vec![vec![Value::Int(1)]])
            })
            .build();
        let texts: Vec<_> = (0..24)
            .map(|i| (format!("d{i}"), format!("text {i}")))
            .collect();
        session.import_typed("Texts", texts).unwrap();
        session
            .run("Seen(d, x) <- Texts(d, t), probe(t) -> (x)")
            .unwrap();
        assert_eq!(session.relation("Seen").unwrap().len(), 24);
        let seen = seen.lock().unwrap();
        assert!(seen.contains(&thread::current().id()), "{seen:?}");
        assert!(seen.len() <= most, "parallelism({lanes}) ran on {seen:?}");
    }
}

/// An IE function that panics mid-evaluation — on a shard worker or on
/// the calling thread — unwinds to the host, and the document store is
/// back in the session when it gets there: spans handed out before the
/// run still resolve, and the session evaluates the next program.
#[test]
fn doc_store_survives_a_panicking_ie_function() {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    for workers in [4, 0] {
        let mut session = Session::builder()
            .parallelism(workers)
            .register("boom", Some(1), |args, _| match args[0].as_str() {
                Some(text) if text.contains("beta7") => panic!("boom"),
                _ => Ok(vec![vec![Value::Int(1)]]),
            })
            .build();
        load(&mut session);
        let doc = session.intern("held by the host");
        let held = session.make_span(doc, 0, 4).unwrap();

        session
            .run("Bad(d, x) <- Texts(d, t), boom(t) -> (x)")
            .unwrap();
        let unwound = catch_unwind(AssertUnwindSafe(|| session.ensure_evaluated()));
        assert!(unwound.is_err(), "the panic reaches the host");

        assert_eq!(session.span_text(&held).unwrap(), "held");
        session.clear_rules();
        session.run(MIXED_RULES).unwrap();
        let mut fresh = Session::builder().parallelism(workers).build();
        load(&mut fresh);
        fresh.run(MIXED_RULES).unwrap();
        for name in ["Word", "Cnt", "Shared", "Cross"] {
            assert_eq!(
                canonical(&mut session, name),
                canonical(&mut fresh, name),
                "relation {name} after the unwind, parallelism({workers})"
            );
        }
    }
}
