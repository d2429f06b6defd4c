//! Shard-parallel evaluation: every kind of firing shards, parallel ≡
//! serial result equivalence, and the `par:` summary in evaluation
//! profiles.

use spannerlib_core::Value;
use spannerlog_engine::{EngineError, EvalMode, FullReason, Session, TraceLevel};

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

/// Cutting firings into shards moves work between lanes without adding
/// any: over transitive closure — whose delta rounds cut one scan and
/// probe the delta of `Path` from it once `ΔPath` outgrows `Edge` — a
/// count over `Path` and a three-way join, every lane count derives
/// the same relations from the same candidate rows (summed
/// `join_rows_scanned`) and the same index builds. A delta indexed
/// afresh in every shard, or a shard charged its whole relation, breaks
/// the equality.
#[test]
fn lanes_do_not_multiply_join_work() {
    let program = "
        Path(x, y) <- Edge(x, y)
        Path(x, z) <- Path(x, y), Edge(y, z)
        Reach(x, count(y)) <- Path(x, y)
        Q(x, z) <- A(x, y), B(y, z), C(z)";
    // A seeded random graph of 120 nodes and 240 edges.
    let mut state = 7u64;
    let mut node = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        Value::Int((state >> 33) as i64 % 120)
    };
    let edges: Vec<[Value; 2]> = (0..240).map(|_| [node(), node()]).collect();
    let run = |workers: usize| {
        let mut session = Session::builder()
            .parallelism(workers)
            .tracing(TraceLevel::Summary)
            .build();
        session
            .run("new Edge(int, int) new A(int, int) new B(int, int) new C(int)")
            .unwrap();
        for edge in &edges {
            session.add_fact("Edge", edge.clone()).unwrap();
        }
        for i in 0..2_000 {
            let (i, m) = (Value::Int(i), Value::Int(i % 50));
            session.add_fact("A", [i.clone(), m.clone()]).unwrap();
            session.add_fact("B", [m, i]).unwrap();
        }
        (0..5).for_each(|z| session.add_fact("C", [Value::Int(z)]).unwrap());
        session.run(program).unwrap();
        let relations: Vec<_> = ["Path", "Reach", "Q"]
            .map(|name| session.relation(name).unwrap().sorted_tuples())
            .into();
        let profile = session.profile().expect("summary tracing");
        let rules = profile.strata.iter().flat_map(|s| &s.rules);
        let scanned: u64 = rules.map(|r| r.join_rows_scanned).sum();
        (relations, scanned, profile.index_builds, profile.par_shards)
    };
    let (relations, scanned, builds, shards) = run(0);
    assert!(relations[0].len() > 1_000, "{} paths", relations[0].len());
    assert_eq!(shards, 0);
    for workers in [2, 4] {
        let (lane_relations, lane_scanned, lane_builds, lane_shards) = run(workers);
        assert!(lane_relations == relations, "parallelism({workers})");
        assert_eq!(
            (lane_scanned, lane_builds),
            (scanned, builds),
            "parallelism({workers}): (rows scanned, index builds)"
        );
        assert!(lane_shards > 0, "parallelism({workers})");
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
            .register("key", Some(1), |_, out, _| out.push(&[Value::str("k")]))
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

/// Several aggregates fold the distinct `(key, agg-vars)` projections
/// of the body, not its bindings: a join that reaches every `(k, a, b)`
/// of `S` through several rows of `T` counts and sums each once — and
/// `count(a)` counts projections, not distinct `a` — on one lane and
/// cut in shards.
#[test]
fn aggregates_fold_each_distinct_projection_once() {
    let fold = |workers: usize| {
        let mut session = Session::builder().parallelism(workers).build();
        session
            .run("new S(str, int, int, int)\nnew T(int, int)")
            .unwrap();
        let s = [("x", 1, 10), ("x", 2, 10), ("x", 2, 20), ("y", 1, 5)];
        for (d, (k, a, b)) in (0..3).flat_map(|d| s.map(|row| (d, row))) {
            let row = [Value::str(k), Value::Int(a), Value::Int(b), Value::Int(d)];
            session.add_fact("S", row).unwrap();
        }
        for (d, e) in [(0, 0), (0, 1), (1, 0), (2, 5)] {
            session
                .add_fact("T", [Value::Int(d), Value::Int(e)])
                .unwrap();
        }
        session
            .run("R(k, count(a), sum(b)) <- S(k, a, b, d), T(d, e)")
            .unwrap();
        session
            .export_typed::<(String, i64, i64)>("?R(k, n, s)")
            .unwrap()
    };
    let expected = [("x".to_string(), 3, 40), ("y".to_string(), 1, 5)];
    for workers in [0, 2] {
        assert_eq!(fold(workers), expected, "parallelism({workers})");
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
            .register("probe", Some(1), move |_, out, _| {
                record.lock().unwrap().insert(thread::current().id());
                thread::sleep(std::time::Duration::from_millis(1));
                out.push(&[Value::Int(1)])
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
/// the calling thread — fails the run with an error, and the document
/// store is back in the session when it returns: spans handed out before
/// the run still resolve, and the session evaluates the next program.
#[test]
fn doc_store_survives_a_panicking_ie_function() {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    for workers in [4, 0] {
        let mut session = Session::builder()
            .parallelism(workers)
            .register("boom", Some(1), |args, out, _| match args[0].as_str() {
                Some(text) if text.contains("beta7") => panic!("boom"),
                _ => out.push(&[Value::Int(1)]),
            })
            .build();
        load(&mut session);
        let doc = session.intern("held by the host");
        let held = session.make_span(doc, 0, 4).unwrap();

        session
            .run("Bad(d, x) <- Texts(d, t), boom(t) -> (x)")
            .unwrap();
        let unwound = catch_unwind(AssertUnwindSafe(|| session.ensure_evaluated()));
        let err = unwound.expect("the panic stops at the call").unwrap_err();
        assert!(matches!(err, EngineError::IePanicked { .. }), "{err:?}");

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

/// An IE function that panics inside an embedded session — on the
/// calling thread, or on a shard's lane — returns an error naming the
/// function and the rule, and the session's next evaluation runs in full
/// and succeeds.
#[test]
fn an_ie_panic_is_an_error_naming_the_function_and_the_rule() {
    for workers in [0, 2] {
        let mut session = Session::builder()
            .parallelism(workers)
            .register("boom", Some(1), |args, out, _| match args[0].as_str() {
                Some(text) if text.contains("beta7") => panic!("boom met beta7"),
                _ => out.push(&[Value::Int(1)]),
            })
            .build();
        load(&mut session);
        session
            .run("Bad(d, x) <- Texts(d, t), boom(t) -> (x)")
            .unwrap();
        let err = session.ensure_evaluated().unwrap_err();
        let EngineError::IePanicked {
            function,
            msg,
            rule,
        } = &err
        else {
            panic!("{err:?}");
        };
        assert_eq!(
            (function.as_str(), msg.as_str()),
            ("boom", "boom met beta7")
        );
        assert_eq!((rule.head.as_str(), rule.line), ("Bad", 1));
        assert!(
            err.to_string().contains("Bad(d, x) <- Texts(d, t)"),
            "{err}"
        );

        let calm: Vec<(String, String)> = (corpus().into_iter())
            .filter(|(_, t)| !t.contains("beta7"))
            .collect();
        session.import_typed("Texts", calm.clone()).unwrap();
        session.ensure_evaluated().unwrap();
        let mode = session.stats().mode;
        assert_eq!(mode, EvalMode::Full(FullReason::PreviousRunFailed));
        assert_eq!(session.relation("Bad").unwrap().len(), calm.len());

        // Two rules share the call: its answers are one relation's, asked
        // on behalf of both, so the error names the function and no rule
        // — neither of the two, nor one the program does not state.
        session
            .run("Also(d, x) <- Texts(d, t), boom(t) -> (x)")
            .unwrap();
        session.import_typed("Texts", corpus()).unwrap();
        let err = session.ensure_evaluated().unwrap_err();
        let EngineError::IePanicked { function, rule, .. } = &err else {
            panic!("{err:?}");
        };
        assert_eq!(function, "boom");
        assert!(!rule.is_known(), "{rule:?}");
        assert!(!err.to_string().contains('#'), "{err}");
        session.import_typed("Texts", calm.clone()).unwrap();
        session.ensure_evaluated().unwrap();
        assert_eq!(session.relation("Also").unwrap().len(), calm.len());
    }
}

/// The profile's lane counters, pinned: the rows each rule's scans
/// examined, the lanes, the shard tasks and the IE batches of one
/// program with an IE rule and a recursive rule, serial and at two
/// lanes. Serial runs report no lanes, shards or batches; at two lanes
/// every IE step counts one batch per shard it ran in, and the scans
/// examine the rows they examine serially.
#[test]
fn lane_counters_read_as_pinned() {
    let program = r#"
        Word(d, w) <- Texts(d, t), rgx_string("([a-z]+)", t) -> (w)
        Lit(w) <- rgx_string("([a-z]+)", "alpha beta") -> (w)
        Reach(y) <- Root(y)
        Reach(y) <- Reach(x), Edge(x, y)"#;
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
        session.ensure_evaluated().unwrap();
        let profile = session.profile().expect("summary tracing");
        let mut rules: Vec<(String, u32, u64)> = (profile.strata.iter().flat_map(|s| &s.rules))
            .map(|r| (r.head.clone(), r.line, r.join_rows_scanned))
            .collect();
        rules.sort();
        let lanes = (profile.par_workers, profile.par_shards);
        (rules, lanes, profile.par_ie_batches)
    };
    let scanned = |rules: [(&str, u32, u64); 4]| {
        rules
            .map(|(head, line, rows)| (head.to_string(), line, rows))
            .to_vec()
    };
    // `Word` scans 12 texts; `Lit` has no scan; `Reach` scans its root,
    // then each round's delta against `Edge`.
    let rules = scanned([
        ("Lit", 3, 0),
        ("Reach", 4, 1),
        ("Reach", 5, 64),
        ("Word", 2, 12),
    ]);
    assert_eq!(run(0), (rules.clone(), (0, 0), 0));
    // Two lanes cut `Word`'s 12 texts into 6 shards, and `Reach`'s delta
    // rounds into 23 more; `Lit`'s one batch runs on the caller.
    assert_eq!(run(2), (rules, (2, 29), 7));
}
