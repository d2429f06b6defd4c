use super::*;
use proptest::prelude::*;
use spannerlib_core::{hash_cells, Schema, Tuple, ValueType};
use std::collections::BTreeSet;

/// A partial assignment of a rule's variables.
type Env = Vec<Option<Value>>;

/// Five integers whose one-cell rows hash to consecutive numbers —
/// one [`RowTable`] tag, one home slot — so that every
/// single-column key these tests probe with collides with the
/// others and only the cell comparison tells them apart. Fx ends on
/// `(state ^ cell) * SEED`, a bijection of the cell: stepping its
/// pre-image by SEED⁻¹ steps the hash by one.
pub(crate) fn colliding_ints() -> [i64; 5] {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    // Newton's iteration doubles the correct low bits of SEED⁻¹.
    let inv = (0..6).fold(1u64, |inv, _| {
        inv.wrapping_mul(2u64.wrapping_sub(SEED.wrapping_mul(inv)))
    });
    let hash = |v: i64| hash_cells([&Value::Int(v)]);
    let state = hash(0).wrapping_mul(inv);
    let ints = [0u64, 1, 2, 3, 4].map(|k| (state ^ state.wrapping_add(inv.wrapping_mul(k))) as i64);
    let tags: BTreeSet<u64> = ints.iter().map(|&v| hash(v) >> 32).collect();
    assert_eq!(tags.len(), 1, "Fx changed; rebuild the colliding family");
    ints
}

fn term(kind: u8, n: usize, ints: &[i64; 5]) -> PTerm {
    match kind {
        0 => PTerm::Wildcard,
        1 => PTerm::Const(Value::Int(ints[n])),
        _ => PTerm::Var(n % 4),
    }
}

fn relation(arity: usize, tuples: &[Vec<usize>], ints: &[i64; 5]) -> Relation {
    let mut rel = Relation::new(Schema::new(vec![ValueType::Int; arity]));
    for t in tuples {
        rel.insert(Tuple::new(t[..arity].iter().map(|&v| Value::Int(ints[v]))))
            .unwrap();
    }
    rel
}

/// Whether `rel` holds a tuple matching `terms` under `env`; an
/// unbound variable matches nothing.
fn exists_match(rel: &Relation, terms: &[PTerm], env: &Env) -> bool {
    rel.iter().any(|tuple| {
        tuple.len() == terms.len()
            && terms.iter().zip(tuple).all(|(t, cell)| match t {
                PTerm::Wildcard => true,
                PTerm::Const(v) => v == cell,
                PTerm::Var(v) => env[*v].as_ref() == Some(cell),
            })
    })
}

/// `env` extended so that `terms` match `tuple`, if they can.
fn unify(terms: &[PTerm], tuple: &[Value], env: &Env) -> Option<Env> {
    let mut env = env.clone();
    for (t, cell) in terms.iter().zip(tuple) {
        match t {
            PTerm::Wildcard => {}
            PTerm::Const(v) if v == cell => {}
            PTerm::Var(v) if env[*v].as_ref().is_none_or(|b| b == cell) => {
                env[*v] = Some(cell.clone())
            }
            _ => return None,
        }
    }
    Some(env)
}

/// What `execute_with` is held to: the head tuples of `plan` by
/// definition — every combination of one tuple per positive atom
/// (the atom at `delta`'s step from that run of rows only) that
/// unifies, minus those a negation or comparison rejects.
fn nested_loops(
    plan: &RulePlan,
    relations: &FxHashMap<String, Relation>,
    delta: &Option<(usize, Range<usize>)>,
) -> BTreeSet<Vec<Value>> {
    let mut envs: Vec<Env> = vec![vec![None; plan.var_names.len()]];
    for (i, step) in plan.steps.iter().enumerate() {
        let Step::Scan { relation, terms } = step else {
            continue;
        };
        let rel = &relations[relation];
        let range = match delta {
            Some((at, range)) if *at == i => range.clone(),
            _ => 0..rel.len(),
        };
        let matches = |env: &Env| -> Vec<Env> {
            let rows = rel.rows().range(range.clone());
            rows.filter_map(|tuple| unify(terms, tuple, env)).collect()
        };
        envs = envs.iter().flat_map(matches).collect();
    }
    let value = |t: &PTerm, env: &Env| match t {
        PTerm::Var(v) => env[*v].clone().expect("safe body"),
        PTerm::Const(c) => c.clone(),
        PTerm::Wildcard => unreachable!("no wildcard operands are generated"),
    };
    envs.retain(|env| {
        plan.steps.iter().all(|step| match step {
            Step::Negation { relation, terms } => !exists_match(&relations[relation], terms, env),
            Step::Compare { left, op, right } => {
                compare(&value(left, env), &value(right, env), *op).unwrap()
            }
            _ => true,
        })
    });
    let head = |env: &Env| -> Vec<Value> {
        let cell = |h: &HeadOut| match h {
            HeadOut::Var(v) => value(&PTerm::Var(*v), env),
            HeadOut::Const(c) => c.clone(),
            HeadOut::Aggregate { .. } => unreachable!("no aggregates are generated"),
        };
        plan.head.iter().map(cell).collect()
    };
    envs.iter().map(head).collect()
}

/// A generated atom: `(relation, [(term kind, n); arity], negated)`.
pub(crate) type Atom = (usize, Vec<(u8, usize)>, bool);

/// A safe rule over `R0..R2` out of raw picks: positive atoms first
/// (at least one), then negations, then comparisons; whatever would
/// read a variable no positive atom binds reads something else.
pub(crate) fn safe_plan(
    arities: &[usize],
    atoms: &[Atom],
    compares: &[(usize, u8, usize)],
    head: &[(bool, usize)],
    ints: &[i64; 5],
) -> RulePlan {
    let atom = |&(rel, ref picks, _): &Atom| {
        let terms = picks[..arities[rel]].iter();
        let terms: Vec<PTerm> = terms.map(|&(kind, n)| term(kind, n, ints)).collect();
        (format!("R{rel}"), terms)
    };
    let mut steps: Vec<Step> = Vec::new();
    let mut scanned = Batch {
        rows: Rows::new(4),
        bound: vec![false; 4],
    };
    let positive = |&(i, a): &(usize, &Atom)| i == 0 || !a.2;
    for (_, a) in atoms.iter().enumerate().filter(positive) {
        let (relation, terms) = atom(a);
        steps.push(Step::Scan { relation, terms });
        scanned.bind(&steps[steps.len() - 1]);
    }
    let bound = scanned.bound;
    for (_, a) in atoms.iter().enumerate().filter(|a| !positive(a)) {
        let (relation, mut terms) = atom(a);
        for t in &mut terms {
            if matches!(t, PTerm::Var(v) if !bound[*v]) {
                *t = PTerm::Wildcard;
            }
        }
        steps.push(Step::Negation { relation, terms });
    }
    let constant = |n: usize| PTerm::Const(Value::Int(ints[n % 5]));
    let var_or_constant = |v: usize| match bound[v % 4] {
        true => PTerm::Var(v % 4),
        false => constant(v),
    };
    for &(left, op, right) in compares {
        let ops = [
            CmpOp::Eq,
            CmpOp::Neq,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        steps.push(Step::Compare {
            left: var_or_constant(left),
            op: ops[usize::from(op) % 6],
            // Two operand shapes: variable–variable and variable–constant.
            right: if op < 6 {
                var_or_constant(right)
            } else {
                constant(right)
            },
        });
    }
    let head = head
        .iter()
        .map(|&(is_var, n)| match var_or_constant(n) {
            PTerm::Var(v) if is_var => HeadOut::Var(v),
            _ => HeadOut::Const(Value::Int(ints[n])),
        })
        .collect();
    RulePlan {
        head_predicate: "H".into(),
        steps,
        head,
        var_names: ["a", "b", "c", "d"].map(String::from).to_vec(),
        line: 1,
        source: "H(..) <- generated".into(),
        dependencies: Vec::new(),
    }
}

/// The rows `plan` derives from `relations`, the scan at `delta`'s step
/// reading only that run of row ids, through `indexes`, its firings cut
/// into shards over `workers` lanes.
fn run(
    plan: &RulePlan,
    relations: &FxHashMap<String, Relation>,
    delta: Option<(usize, Range<usize>)>,
    indexes: &IndexCache,
    workers: usize,
) -> Result<Rows> {
    let (registry, docs) = (Registry::new(), SharedDocs::default());
    let sources: Vec<_> = delta
        .map(|(at, range)| (at, Source::rows(range)))
        .into_iter()
        .collect();
    let ctx = ExecCtx {
        registry: &registry,
        sources: &sources,
        indexes,
        docs: &docs,
        workers,
        deadline: None,
    };
    let mut trace = RunTrace::disabled();
    let mut tr = TraceCtx {
        trace: &mut trace,
        rule: 0,
    };
    let pieces = execute_with(plan, relations, &ctx, &mut tr)?;
    let mut rows = Rows::new(plan.head.len());
    pieces
        .iter()
        .flat_map(Rows::iter)
        .for_each(|row| rows.push(row));
    Ok(rows)
}

fn execute(
    plan: &RulePlan,
    relations: &FxHashMap<String, Relation>,
    delta: &Option<(usize, Range<usize>)>,
    indexes: &IndexCache,
) -> BTreeSet<Vec<Value>> {
    let rows = run(plan, relations, delta.clone(), indexes, 0).unwrap();
    rows.iter().map(<[Value]>::to_vec).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `execute_with`, planned, with the run's extended indexes,
    /// derives exactly the head tuples the definition gives, over
    /// constants, wildcards, variables repeated within an atom,
    /// negation and comparisons, for full firings and delta variants.
    /// (Planted to check that it does: a delta range taken one row
    /// short, and `TupleIndex::group_of` accepting the first candidate
    /// its table offers without comparing key cells.)
    #[test]
    fn execute_with_agrees_with_nested_loops(
        arities in prop::collection::vec(1usize..4, 3),
        tuples in prop::collection::vec(
            prop::collection::vec(prop::collection::vec(0usize..5, 3), 0..9), 3),
        atoms in prop::collection::vec(
            (0usize..3, prop::collection::vec((0u8..6, 0usize..5), 3), any::<bool>()), 1..5),
        compares in prop::collection::vec((0usize..4, 0u8..12, 0usize..5), 0..3),
        head in prop::collection::vec((any::<bool>(), 0usize..5), 0..4),
        delta in prop::option::of((0usize..4, 0usize..9, 0usize..9)),
    ) {
        let ints = colliding_ints();
        let relations: FxHashMap<String, Relation> = (0..3)
            .map(|r| (format!("R{r}"), relation(arities[r], &tuples[r], &ints)))
            .collect();
        let plan = safe_plan(&arities, &atoms, &compares, &head, &ints);
        // A delta: some run of the rows of one positive atom.
        let scans = plan.steps.iter().filter(|s| matches!(s, Step::Scan { .. })).count();
        let delta = delta.map(|(at, from, len)| {
            let Step::Scan { relation, .. } = &plan.steps[at % scans] else {
                unreachable!("scans come first")
            };
            let rows = relations[relation].len();
            let from = from % (rows + 1);
            (at % scans, from..from + len % (rows - from + 1))
        });
        let expected = nested_loops(&plan, &relations, &delta);
        let indexes = IndexCache::default();
        for _ in 0..2 {
            let got = execute(&plan, &relations, &delta, &indexes);
            prop_assert_eq!(&got, &expected, "planned: {:?}", plan.steps);
        }
    }

    /// The hash anti-join keeps exactly the rows for which a scan
    /// of the whole relation finds no match — over wildcards,
    /// constants, repeated and unbound variables, and term lists
    /// whose length is not the relation's arity.
    #[test]
    fn anti_join_agrees_with_exists_match(
        arity in 1usize..4,
        tuples in prop::collection::vec(prop::collection::vec(0usize..4, 3), 0..12),
        terms in prop::collection::vec((0u8..4, 0usize..4), 1..5),
        rows in prop::collection::vec(prop::collection::vec(0usize..4, 3), 0..10),
        bound in prop::collection::vec(any::<bool>(), 4),
    ) {
        let ints = colliding_ints();
        let rel = relation(arity, &tuples, &ints);
        let terms: Vec<PTerm> = terms.iter().map(|&(kind, n)| term(kind, n, &ints)).collect();
        let mut batch = Rows::new(4);
        for r in &rows {
            batch.push(&(0..4).map(|v| Value::Int(ints[r[v % 3]])).collect::<Vec<_>>());
        }
        let env = |row: &[Value]| -> Env {
            (0..4).map(|v| bound[v].then(|| row[v].clone())).collect()
        };
        let expected: Vec<&[Value]> = batch
            .iter()
            .filter(|row| !exists_match(&rel, &terms, &env(row)))
            .collect();
        let indexes = IndexCache::default();
        // The second probe reads the index the first built.
        for _ in 0..2 {
            let mut kept = Batch { rows: batch.clone(), bound: bound.clone() };
            anti_join(&mut kept, ("R", &rel), &terms, &indexes);
            prop_assert_eq!(kept.rows.iter().collect::<Vec<_>>(), expected.clone(), "terms {:?}", terms);
        }
    }
}

/// A plan of `steps` and `head` over the variables `var_names`.
fn plan_of(steps: Vec<Step>, head: Vec<HeadOut>, var_names: &[&str]) -> RulePlan {
    RulePlan {
        head_predicate: "Broken".into(),
        steps,
        head,
        var_names: var_names.iter().map(|s| s.to_string()).collect(),
        line: 1,
        source: "Broken(x) <- ...".into(),
        dependencies: Vec::new(),
    }
}

#[test]
fn order_steps_moves_selective_scan_first() {
    // Big(x, y) ⋈ Small(y, z): textual order scans Big unkeyed (1000
    // rows); cost order starts from Small (4 rows) so the Big probe is
    // keyed on y.
    let plan = plan_of(
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
    let sizes = |i: usize| if i == 0 { 1000 } else { 4 };
    assert_eq!(optimizer::order_steps(&plan, sizes), vec![1, 0]);
    // With the sizes reversed the textual order already wins.
    let sizes = |i: usize| if i == 0 { 4 } else { 1000 };
    assert_eq!(optimizer::order_steps(&plan, sizes), vec![0, 1]);
    let label = optimizer::describe(&plan, &[1, 0], |i| if i == 0 { 1000 } else { 4 });
    assert_eq!(label, "Small[4]* ⋈ Big[1000]*");
}

#[test]
fn filters_run_before_scans_once_runnable() {
    // Scan(x) then compare x < 3 then scan joining on x: the compare
    // should run immediately after its producer, ahead of the second
    // scan.
    let plan = plan_of(
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
                op: CmpOp::Lt,
                right: PTerm::Const(Value::Int(3)),
            },
        ],
        vec![HeadOut::Var(1)],
        &["x", "y"],
    );
    assert_eq!(
        optimizer::order_steps(&plan, |_| 100),
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
    let plan = plan_of(vec![scan], vec![HeadOut::Var(0)], &["t"]);
    let relations = FxHashMap::from_iter([("R".to_string(), rel)]);
    let sharded = run(&plan, &relations, None, &IndexCache::default(), 2);
    assert_eq!(sharded.unwrap().len(), 8);
}

/// A scan whose term count is not the relation's arity is the same
/// `EngineError::Arity` whichever way the scan gets at its rows: a walk
/// of the arena, an index built into the cache, one found in the cache,
/// or one a delta slices.
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
        plan_of(vec![scan], head, &["x", "y", "z"])
    };
    // A constant keys the scan on column 0; without one it has no key.
    let keyed = PTerm::Const(Value::Int(1));
    let fits = scan(vec![keyed.clone(), PTerm::Var(1)]);
    let too_wide = scan(vec![keyed, PTerm::Var(1), PTerm::Var(2)]);
    let unkeyed = scan(vec![PTerm::Var(0), PTerm::Var(1), PTerm::Var(2)]);
    let relations = FxHashMap::from_iter([("R".to_string(), rel)]);
    let assert_arity = |err: EngineError, route: &str| {
        let same = matches!(
            &err,
            EngineError::Arity { relation, expected: 2, actual: 3, .. } if relation == "R"
        );
        assert!(same, "{route}: {err:?}");
    };

    let indexes = IndexCache::default();
    let cached = |plan: &RulePlan| run(plan, &relations, None, &indexes, 0);
    assert_arity(cached(&unkeyed).unwrap_err(), "arena walk");
    assert_eq!(indexes.builds(), 0, "a key-less scan needs no index");
    assert_arity(cached(&too_wide).unwrap_err(), "first build");
    // Both plans key the scan on column 0, so the well-formed one
    // leaves behind exactly the entry the malformed one looks up.
    assert_eq!(cached(&fits).unwrap().len(), 1);
    assert_eq!(indexes.builds(), 1);
    assert_arity(cached(&too_wide).unwrap_err(), "cache hit");

    let delta = |plan: &RulePlan| run(plan, &relations, Some((0, 0..1)), &IndexCache::default(), 0);
    assert_arity(delta(&too_wide).unwrap_err(), "delta scan");
    assert_eq!(delta(&fits).unwrap().len(), 1);
}
