use super::*;
use proptest::prelude::*;
use spannerlib_core::{hash_cells, Schema, Tuple, ValueType};
use spannerlib_trace::NO_SPAN;
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
        opt: None,
    }
}

fn execute(
    plan: &RulePlan,
    relations: &FxHashMap<String, Relation>,
    delta: &Option<(usize, Range<usize>)>,
    indexes: &IndexCache,
) -> BTreeSet<Vec<Value>> {
    let (registry, docs) = (Registry::new(), SharedDocs::default());
    let ctx = ExecCtx {
        registry: &registry,
        delta: delta.clone(),
        seed: None,
        indexes,
        docs: &docs,
        workers: 0,
        deadline: None,
    };
    let mut trace = RunTrace::disabled();
    let mut tr = TraceCtx {
        trace: &mut trace,
        rule: 0,
        parent: NO_SPAN,
    };
    let derived = execute_with(plan, relations, &ctx, &mut tr).unwrap();
    derived
        .iter()
        .flat_map(Rows::iter)
        .map(<[Value]>::to_vec)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `execute_with` — in textual order, and planned, each with the
    /// run's extended indexes — derives exactly the head tuples the
    /// definition gives, over constants, wildcards, variables
    /// repeated within an atom, negation and comparisons, for full
    /// firings and delta variants. (Planted to check that it does: a
    /// delta range taken one row short, and `TupleIndex::group_of`
    /// accepting the first candidate its table offers without
    /// comparing key cells.)
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
        let mut plan = safe_plan(&arities, &atoms, &compares, &head, &ints);
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
        let textual = execute(&plan, &relations, &delta, &IndexCache::default());
        prop_assert_eq!(&textual, &expected, "textual order");
        optimizer::annotate(&mut plan);
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
