//! Cost-based planner integration tests: step ordering by estimated
//! cardinality, index reuse across fixpoint rounds, trace surfacing of
//! plan choices, and the structured-error degradation path for malformed
//! plans (which safety analysis never produces, but `plan::execute_with`
//! must reject instead of panicking).

use rustc_hash::FxHashMap;
use spannerlib_core::{Relation, Rows, Schema, Tuple, Value, ValueType};
use spannerlib_trace::{EvalProfile, RunTrace, TraceLevel, NO_SPAN};
use spannerlog_engine::optimizer::{self, IndexCache, RuleOpt, StepMeta};
use spannerlog_engine::plan::{self, ExecCtx, HeadOut, PTerm, ParTally, RulePlan, Step, TraceCtx};
use spannerlog_engine::{EngineError, EvalStrategy, Registry, Session, SharedDocs};

/// A hand-built (unannotated) plan skeleton for malformed-plan tests.
fn bare_plan(steps: Vec<Step>, head: Vec<HeadOut>, var_names: &[&str]) -> RulePlan {
    RulePlan {
        head_predicate: "Broken".into(),
        steps,
        head,
        var_names: var_names.iter().map(|s| s.to_string()).collect(),
        line: 1,
        source: "Broken(x) <- ...".into(),
        dependencies: Vec::new(),
        opt: None,
    }
}

/// Where one scan of [`run_expect_err`] reads: the full relations
/// (through `indexes`, when given) or, for the scan at the step `delta`
/// names, that run of row ids.
#[derive(Default)]
struct Inputs<'a> {
    relations: FxHashMap<String, Relation>,
    delta: Option<(usize, std::ops::Range<usize>)>,
    indexes: Option<&'a IndexCache>,
    workers: usize,
}

/// Runs a plan and returns its error.
fn run_expect_err(plan: &RulePlan, inputs: &Inputs<'_>) -> EngineError {
    run(plan, inputs).expect_err("malformed plan must error, not panic")
}

fn run(plan: &RulePlan, inputs: &Inputs<'_>) -> Result<Rows, EngineError> {
    let registry = Registry::new();
    let docs = SharedDocs::default();
    let tally = ParTally::default();
    let ctx = ExecCtx {
        registry: &registry,
        delta: inputs.delta.clone(),
        seed: None,
        cache: None,
        indexes: inputs.indexes,
        docs: &docs,
        workers: inputs.workers,
        tally: &tally,
        deadline: None,
    };
    let mut trace = RunTrace::disabled();
    let mut tr = TraceCtx {
        trace: &mut trace,
        rule: 0,
        parent: NO_SPAN,
    };
    let pieces = plan::execute_with(plan, &inputs.relations, &ctx, &mut tr)?;
    let mut rows = Rows::new(plan.head.len());
    pieces.into_iter().for_each(|piece| rows.append(piece));
    Ok(rows)
}

fn assert_internal(err: EngineError, detail_fragment: &str) {
    let EngineError::Internal { rule, detail } = err else {
        panic!("expected EngineError::Internal, got {err:?}");
    };
    assert_eq!(rule, "Broken(x) <- ...");
    assert!(
        detail.contains(detail_fragment),
        "detail {detail:?} missing {detail_fragment:?}"
    );
    // The rendered message names the rule for the user.
    let msg = EngineError::Internal { rule, detail }.to_string();
    assert!(msg.contains("internal planner error"), "{msg}");
    assert!(msg.contains("Broken"), "{msg}");
}

#[test]
fn out_of_range_var_index_is_an_internal_error() {
    // Var(5) with only one declared variable: every row-binding access
    // would index out of bounds; validation must catch it up front.
    let plan = bare_plan(
        vec![Step::Scan {
            relation: "R".into(),
            terms: vec![PTerm::Var(5)],
        }],
        vec![HeadOut::Var(0)],
        &["x"],
    );
    assert_internal(run_expect_err(&plan, &Inputs::default()), "out of range");
}

#[test]
fn out_of_range_head_var_is_an_internal_error() {
    let plan = bare_plan(vec![], vec![HeadOut::Var(3)], &["x"]);
    assert_internal(run_expect_err(&plan, &Inputs::default()), "out of range");
}

#[test]
fn unbound_head_var_is_an_internal_error() {
    // No step binds x, but the head projects it.
    let plan = bare_plan(vec![], vec![HeadOut::Var(0)], &["x"]);
    assert_internal(run_expect_err(&plan, &Inputs::default()), "unbound");
}

#[test]
fn unbound_ie_input_is_an_internal_error() {
    // Safety would order a producer before the IE call; a plan that
    // feeds an unbound variable must degrade to a structured error.
    let plan = bare_plan(
        vec![Step::Ie {
            function: "rgx".into(),
            inputs: vec![PTerm::Var(0), PTerm::Var(1)],
            outputs: vec![],
        }],
        vec![HeadOut::Const(Value::Int(1))],
        &["p", "t"],
    );
    assert_internal(run_expect_err(&plan, &Inputs::default()), "unbound");
}

#[test]
fn unbound_compare_operand_is_an_internal_error() {
    let plan = bare_plan(
        vec![Step::Compare {
            left: PTerm::Var(0),
            op: spannerlog_parser::CmpOp::Lt,
            right: PTerm::Const(Value::Int(3)),
        }],
        vec![HeadOut::Const(Value::Int(1))],
        &["x"],
    );
    assert_internal(run_expect_err(&plan, &Inputs::default()), "unbound");
}

#[test]
fn order_steps_moves_selective_scan_first() {
    // Big(x, y) ⋈ Small(y, z): textual order scans Big unkeyed (1000
    // rows); cost order starts from Small (4 rows) so the Big probe is
    // keyed on y.
    let mut plan = bare_plan(
        vec![
            Step::Scan {
                relation: "Big".into(),
                terms: vec![PTerm::Var(0), PTerm::Var(1)],
            },
            Step::Scan {
                relation: "Small".into(),
                terms: vec![PTerm::Var(1), PTerm::Var(2)],
            },
        ],
        vec![HeadOut::Var(0), HeadOut::Var(2)],
        &["x", "y", "z"],
    );
    optimizer::annotate(&mut plan);
    let opt = plan.opt.clone().unwrap();
    let sizes = |i: usize| if i == 0 { 1000 } else { 4 };
    assert_eq!(optimizer::order_steps(&plan, &opt, sizes), vec![1, 0]);
    // With the sizes reversed the textual order already wins.
    let sizes = |i: usize| if i == 0 { 4 } else { 1000 };
    assert_eq!(optimizer::order_steps(&plan, &opt, sizes), vec![0, 1]);
    let label = optimizer::describe(&plan, &[1, 0], |i| if i == 0 { 1000 } else { 4 });
    assert_eq!(label, "Small[4]* ⋈ Big[1000]*");
}

#[test]
fn filters_run_before_scans_once_runnable() {
    // Scan(x) then compare x < 3 then scan joining on x: the compare
    // should run immediately after its producer, ahead of the second
    // scan.
    let mut plan = bare_plan(
        vec![
            Step::Scan {
                relation: "A".into(),
                terms: vec![PTerm::Var(0)],
            },
            Step::Scan {
                relation: "B".into(),
                terms: vec![PTerm::Var(0), PTerm::Var(1)],
            },
            Step::Compare {
                left: PTerm::Var(0),
                op: spannerlog_parser::CmpOp::Lt,
                right: PTerm::Const(Value::Int(3)),
            },
        ],
        vec![HeadOut::Var(1)],
        &["x", "y"],
    );
    optimizer::annotate(&mut plan);
    let opt = plan.opt.clone().unwrap();
    assert_eq!(
        optimizer::order_steps(&plan, &opt, |_| 100),
        vec![0, 2, 1],
        "the comparison must be hoisted ahead of the second scan"
    );
}

/// A plan whose last step is the scan a firing shards leaves the shards
/// nothing to run after it. Its rows come back from every bin, not from
/// the last one alone.
#[test]
fn an_empty_suffix_keeps_every_bin() {
    let mut rel = Relation::new(Schema::new(vec![ValueType::Int]));
    for i in 0..8 {
        rel.insert(Tuple::new([Value::Int(i)])).unwrap();
    }
    let scan = Step::Scan {
        relation: "R".into(),
        terms: vec![PTerm::Var(0)],
    };
    let mut plan = bare_plan(vec![scan], vec![HeadOut::Var(0)], &["t"]);
    let binds_t = StepMeta {
        needs: Vec::new(),
        binds: vec![0],
    };
    plan.opt = Some(RuleOpt {
        steps: vec![binds_t],
    });
    let sharded = Inputs {
        relations: FxHashMap::from_iter([("R".to_string(), rel)]),
        workers: 2,
        ..Inputs::default()
    };
    assert_eq!(run(&plan, &sharded).unwrap().len(), 8);
}

#[test]
fn planner_session_reuses_indexes_and_reports_plans() {
    let program = "new Edge(int, int)
Edge(1, 2) Edge(2, 3) Edge(3, 4) Edge(4, 5) Edge(5, 6)
Path(x, y) <- Edge(x, y)
Path(x, z) <- Path(x, y), Edge(y, z)";
    let mut on = Session::builder().tracing(TraceLevel::Summary).build();
    on.run(program).unwrap();
    assert_eq!(on.relation("Path").unwrap().len(), 15);
    let profile = on.profile().expect("summary tracing yields a profile");
    assert!(profile.index_builds > 0, "planner builds scan indexes");
    assert!(
        profile.index_hits > 0,
        "fixpoint rounds must reuse the Edge index (builds={}, hits={})",
        profile.index_builds,
        profile.index_hits
    );
    let table = profile.render();
    assert!(table.contains("plan:"), "per-rule plan lines:\n{table}");
    assert!(table.contains("indexes built"), "planner summary:\n{table}");
}

/// `EvalStrategy::Naive` is the reference configuration: the same
/// relations, but no step leaves its textual position, no index is
/// kept, and nothing is sharded even with four lanes to shard across.
#[test]
fn naive_strategy_never_reorders_and_never_shards() {
    let program = r#"new Pats(str)
Pats("b+")
Word(d, w) <- Texts(d, t), rgx_string("([a-z]+)", t) -> (w)
Late(d, p) <- Texts(d, _), Pats(p)"#;
    let run = |strategy: EvalStrategy| {
        let mut session = Session::builder()
            .strategy(strategy)
            .parallelism(4)
            .tracing(TraceLevel::Summary)
            .build();
        let texts = [
            ("d1", "alpha beta"),
            ("d2", "gamma delta"),
            ("d3", "epsilon"),
        ];
        session.import_typed("Texts", texts.to_vec()).unwrap();
        session.run(program).unwrap();
        let rows = ["Word", "Late"].map(|name| session.relation(name).unwrap().sorted_tuples());
        (rows, session.profile().expect("summary tracing"))
    };
    let plans = |profile: &EvalProfile| -> Vec<String> {
        let rules = profile.strata.iter().flat_map(|s| &s.rules);
        rules.map(|r| r.plan.clone()).collect()
    };
    let (rows, production) = run(EvalStrategy::SemiNaive);
    let (reference_rows, reference) = run(EvalStrategy::Naive);
    assert_eq!(rows, reference_rows);

    // The program gives production something to move and to shard…
    assert!(plans(&production).iter().any(|p| p.contains('*')));
    assert!(production.par_shards > 0, "{production:?}");
    // …and the reference does neither.
    assert!(plans(&reference).iter().all(|p| !p.contains('*')));
    assert_eq!((reference.index_builds, reference.index_hits), (0, 0));
    assert_eq!((reference.par_workers, reference.par_shards), (0, 0));
}

/// A scan whose term count is not the relation's arity is the same
/// `EngineError::Arity` whichever way the scan gets at its rows: a walk
/// of the arena, an index built into the cache, one found in the cache,
/// or one built for a delta and dropped.
#[test]
fn arity_mismatch_is_one_error_on_every_scan_route() {
    let mut rel = Relation::new(Schema::new(vec![ValueType::Int; 2]));
    rel.insert(Tuple::new([Value::Int(1), Value::Int(2)]))
        .unwrap();
    let scan = |terms: Vec<PTerm>| {
        let head = vec![HeadOut::Var(1)];
        let scan = Step::Scan {
            relation: "R".into(),
            terms,
        };
        bare_plan(vec![scan], head, &["x", "y", "z"])
    };
    // A constant keys the scan on column 0; without one it has no key.
    let keyed = PTerm::Const(Value::Int(1));
    let fits = scan(vec![keyed.clone(), PTerm::Var(1)]);
    let too_wide = scan(vec![keyed, PTerm::Var(1), PTerm::Var(2)]);
    let unkeyed = scan(vec![PTerm::Var(0), PTerm::Var(1), PTerm::Var(2)]);
    let named = |rel: &Relation| FxHashMap::from_iter([("R".to_string(), rel.clone())]);
    let assert_arity = |err: EngineError, route: &str| {
        let same = matches!(
            &err,
            EngineError::Arity { relation, expected: 3, actual: 2 } if relation == "R"
        );
        assert!(same, "{route}: {err:?}");
    };

    let indexes = IndexCache::default();
    let cached = Inputs {
        relations: named(&rel),
        indexes: Some(&indexes),
        ..Inputs::default()
    };
    assert_arity(run_expect_err(&unkeyed, &cached), "arena walk");
    assert_eq!(indexes.builds(), 0, "a key-less scan needs no index");
    assert_arity(run_expect_err(&too_wide, &cached), "first build");
    // Both plans key the scan on column 0, so the well-formed one
    // leaves behind exactly the entry the malformed one looks up.
    assert_eq!(run(&fits, &cached).unwrap().len(), 1);
    assert_eq!(indexes.builds(), 1);
    assert_arity(run_expect_err(&too_wide, &cached), "cache hit");

    let delta = Inputs {
        relations: named(&rel),
        delta: Some((0, 0..1)),
        ..Inputs::default()
    };
    assert_arity(run_expect_err(&too_wide, &delta), "delta scan");
    assert_eq!(run(&fits, &delta).unwrap().len(), 1);
}

#[test]
fn prefilter_counters_reach_the_profile() {
    // A literal-prefixed pattern over non-matching documents: every
    // search is prefilter-pruned, and the deltas land in the profile.
    let program = r#"new Texts(str)
Texts("nothing to see") Texts("still nothing")
Hit(s) <- Texts(t), rgx("zebra+", t) -> (s)"#;
    let mut session = Session::builder().tracing(TraceLevel::Summary).build();
    session.run(program).unwrap();
    session.export("?Hit(s)").unwrap();
    let profile = session.profile().unwrap();
    assert!(
        profile.prefilter_searches > 0,
        "rgx must route through the prefilter"
    );
    assert!(profile.prefilter_pruned > 0);
    assert!(profile.render().contains("prefilter:"));
}
