//! Split-correct parallel evaluation: compile-time shard-plan verdicts,
//! parallel ≡ serial result equivalence, serial fallback for rules the
//! analysis rejects, and the `par:` summary in evaluation profiles.

use spannerlib_core::Value;
use spannerlog_engine::{Session, TraceLevel};

/// A mixed program: one shardable extraction rule, one aggregation
/// (serial), one IE-free join (serial), and one cross-document join
/// feeding an IE call (serial).
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

/// The compile-time analysis classifies each rule, exposing verdicts
/// (and serial-fallback reasons) through the prepared program.
#[test]
fn shard_plan_classifies_rules() {
    let mut session = Session::new();
    load(&mut session);
    session.run(MIXED_RULES).unwrap();
    let program = session.prepare_program().unwrap();
    let plan = program.program().shard_plan();
    assert_eq!(plan.rules.len(), 4);
    assert_eq!(plan.parallel_rules(), 1);
    assert_eq!(plan.serial_rules(), 3);

    let by_head = |head: &str| {
        plan.rules
            .iter()
            .find(|r| r.head == head)
            .unwrap_or_else(|| panic!("no verdict for {head}"))
    };

    let word = by_head("Word");
    assert!(word.parallel, "single-scan IE rule shards: {word:?}");
    assert_eq!(word.doc_var.as_deref(), Some("t"));
    assert!(word.reason.is_none());

    let cnt = by_head("Cnt");
    assert!(!cnt.parallel);
    assert_eq!(cnt.reason, Some("aggregation folds across documents"));

    let shared = by_head("Shared");
    assert!(!shared.parallel);
    assert_eq!(shared.reason, Some("no IE step to parallelize"));

    let cross = by_head("Cross");
    assert!(!cross.parallel, "two scan roots feed rgx_string: {cross:?}");
    assert_eq!(cross.reason, Some("cross-document join feeds an IE call"));
}

/// An uncached function is classified by its roots like any other: the
/// constant-time builtins — off the memo because a probe costs more
/// than they do — leave a rule whose IE calls all hang off one scan
/// split-correct (the shape of `covid.slog`'s `EvidenceKey`), and
/// sharding it changes nothing.
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
    let program = parallel.prepare_program().unwrap();
    let verdicts = &program.program().shard_plan().rules;
    let key = verdicts.iter().find(|r| r.head == "MentionKey").unwrap();
    assert!(key.parallel, "{key:?}");
    assert_eq!((key.doc_var.as_deref(), key.reason), (Some("m"), None));
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

/// Parallel and pinned-serial sessions derive identical relations —
/// including the serial-fallback rules, which must still be correct
/// when the rest of the program runs sharded.
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

/// With workers and a shardable rule, the profile carries the parallel
/// counters and renders the `par:` summary line.
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
    assert!(profile.par_serial_rules > 0);
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
        let program = session.prepare_program().unwrap();
        assert_eq!(program.program().shard_plan().parallel_rules(), 1);
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
        let program = session.prepare_program().unwrap();
        assert_eq!(program.program().shard_plan().parallel_rules(), 1);
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
