//! Wrong programs as a tested input. The generated programs of
//! `programs` go through one typed edit that still parses — a variable
//! becomes `_`, an atom is dropped, an arity changes, a negation closes a
//! cycle, a predicate or function is renamed, an aggregate enters a
//! recursion — and run as one cell with a declaration and two facts in
//! front, over a session that already holds a program. Either `run`
//! refuses the cell with a structured error and the session holds what
//! it held before, or the session evaluates to what the reference
//! evaluator (`support`) derives. Evaluation itself may fail only the
//! ways that depend on the data.

mod programs;
mod support;

use programs::{layered_program, layered_program_strategy, program_at, RuleSpec, PROGRAMS};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use spannerlib_core::{CoreError, Schema, Value, ValueType};
use spannerlog_engine::{EngineError, Session};
use spannerlog_parser::{parse_program, Atom, BodyElem, HeadTerm, Rule, Statement, Term};
use std::collections::{BTreeMap, BTreeSet};

/// The errors a wrong rule can raise without data; each must be reached.
const COMPILE_TIME: &[&str] = &[
    "Unsafe",
    "Arity",
    "IeArity",
    "NotStratifiable",
    "UnknownPredicate",
    "UnknownRelation",
    "UnknownIeFunction",
];

/// The errors an evaluation of a program that compiled may raise: each
/// depends on the data.
const AT_EVALUATION: &[&str] = &[
    "IeRuntime",
    "IeOutputArity",
    "IePanicked",
    "AggRuntime",
    "LimitExceeded",
];

/// The program the session holds before the edited cell.
const KEPT: &str = "Kept(x, y) <- Edge(x, y)\n";

/// What the edited cell adds in front of its rules.
const FACTS: &str = "new Extra(int)\nExtra(1)\nEdge(8, 8)\n";

/// One typed edit: which kind, the site it picks among the program's
/// sites of that kind, and a choice the kind reads.
type Edit = (u8, usize, bool);

/// A case: a layered program joined with one of the fixed programs,
/// its inputs, and the edit.
type Case = (Vec<Vec<RuleSpec>>, usize, Vec<(u8, u8)>, Vec<Vec<u8>>, Edit);

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        layered_program_strategy(),
        0..PROGRAMS,
        prop::collection::vec((0u8..8, 0u8..8), 0..16),
        prop::collection::vec(prop::collection::vec(0u8..4, 0..16), 1..4),
        (0u8..6, 0usize..1 << 16, 0u8..2).prop_map(|(k, s, c)| (k, s, c == 1)),
    )
}

/// Every term of `rule` a variable can stand in: plain head terms, atoms'
/// terms, IE inputs and outputs, comparison operands.
fn terms_mut(rule: &mut Rule) -> Vec<&mut Term> {
    let head = rule.head_terms.iter_mut().filter_map(|t| match t {
        HeadTerm::Term(t) => Some(t),
        HeadTerm::Aggregate { .. } => None,
    });
    let body = rule.body.iter_mut().flat_map(|b| match b {
        BodyElem::Relation(a) | BodyElem::Negated(a) => a.terms.iter_mut().collect::<Vec<_>>(),
        BodyElem::Ie(ie) => ie.inputs.iter_mut().chain(&mut ie.outputs).collect(),
        BodyElem::Comparison { left, right, .. } => vec![left, right],
    });
    head.chain(body).collect()
}

/// The sites `(rule, body element)` of the body elements `keep` picks.
fn body_sites(rules: &[Rule], keep: impl Fn(&Rule, &BodyElem) -> bool) -> Vec<(usize, usize)> {
    let sites = rules.iter().enumerate().flat_map(|(i, r)| {
        let elems = r.body.iter().enumerate();
        elems.filter(|(_, b)| keep(r, b)).map(move |(j, _)| (i, j))
    });
    sites.collect()
}

/// `predicate(_, …)` with `arity` wildcards.
fn any_row(predicate: &str, arity: usize) -> Atom {
    let terms = vec![Term::Wildcard; arity];
    let predicate = predicate.to_string();
    Atom { predicate, terms }
}

/// Applies `edit` to `rules`, or leaves them as they are when the program
/// has no site of its kind.
fn apply((kind, site, choice): Edit, rules: &mut [Rule]) {
    let pick = |n: usize| (n > 0).then(|| site % n);
    let heads: Vec<String> = rules.iter().map(|r| r.head_predicate.clone()).collect();
    let arity = |name: &str| {
        let rule = rules.iter().find(|r| r.head_predicate == name);
        rule.map_or(2, |r| r.head_terms.len())
    };
    match kind {
        // A variable becomes `_`.
        0 => {
            let mut vars: Vec<&mut Term> = rules.iter_mut().flat_map(terms_mut).collect();
            vars.retain(|t| matches!(t, Term::Variable(_)));
            if let Some(at) = pick(vars.len()) {
                *vars[at] = Term::Wildcard;
            }
        }
        // An atom is dropped from a body that keeps another.
        1 => {
            let sites = body_sites(rules, |r, _| r.body.len() > 1);
            if let Some((i, j)) = pick(sites.len()).map(|at| sites[at]) {
                rules[i].body.remove(j);
            }
        }
        // An IE call's inputs or outputs (`choice`), or else a relation
        // atom or a head, gains a term (a constant, where `_` could be
        // unsafe) or loses its last.
        2 => {
            let (grow, inputs, site) = (site % 2 == 0, site % 4 < 2, site / 4);
            let ie = |b: &BodyElem| matches!(b, BodyElem::Ie(_));
            let relation = |b: &BodyElem| matches!(b, BodyElem::Relation(_) | BodyElem::Negated(_));
            let sites = body_sites(rules, |_, b| if choice { ie(b) } else { relation(b) });
            let heads = if choice { 0 } else { rules.len() };
            let Some(at) = (sites.len() + heads > 0).then(|| site % (sites.len() + heads)) else {
                return;
            };
            let zero = Term::Const(spannerlog_parser::Constant::Int(0));
            if at >= sites.len() {
                let head = &mut rules[at - sites.len()].head_terms;
                match grow || head.len() < 2 {
                    true => head.push(HeadTerm::Term(zero)),
                    false => drop(head.pop()),
                }
                return;
            }
            let (i, j) = sites[at];
            let terms = match &mut rules[i].body[j] {
                BodyElem::Relation(a) | BodyElem::Negated(a) => &mut a.terms,
                BodyElem::Ie(ie) if inputs => &mut ie.inputs,
                BodyElem::Ie(ie) => &mut ie.outputs,
                BodyElem::Comparison { .. } => unreachable!("not a site"),
            };
            match grow || terms.len() < 2 {
                true => terms.push(zero),
                false => drop(terms.pop()),
            }
        }
        // A negation closes a cycle: a rule negates a head that reads its
        // own head — or, when none does, its own head.
        3 => {
            let Some(i) = pick(rules.len()) else {
                return;
            };
            let head = &rules[i].head_predicate;
            let reads_head = |r: &&Rule| {
                let reads =
                    |b: &BodyElem| matches!(b, BodyElem::Relation(a) if &a.predicate == head);
                r.body.iter().any(reads)
            };
            let readers: Vec<&Rule> = rules.iter().filter(reads_head).collect();
            let negated = match pick(readers.len()).filter(|_| choice) {
                Some(at) => readers[at].head_predicate.clone(),
                None => head.clone(),
            };
            let atom = any_row(&negated, arity(&negated));
            rules[i].body.push(BodyElem::Negated(atom));
        }
        // A body atom or IE call is renamed: to a name nothing knows, or
        // to another of the program's.
        4 => {
            let sites = body_sites(rules, |_, b| !matches!(b, BodyElem::Comparison { .. }));
            let Some((i, j)) = pick(sites.len()).map(|at| sites[at]) else {
                return;
            };
            let functions: BTreeSet<String> = (rules.iter().flat_map(|r| &r.body))
                .filter_map(|b| match b {
                    BodyElem::Ie(ie) => Some(ie.function.clone()),
                    _ => None,
                })
                .collect();
            let mut relations: BTreeSet<String> = heads.iter().cloned().collect();
            relations.extend(["Edge".to_string(), "Texts".to_string()]);
            let other = |known: &BTreeSet<String>, fresh: &str| match choice {
                true => fresh.to_string(),
                false => known.iter().nth(site % known.len()).cloned().unwrap(),
            };
            match &mut rules[i].body[j] {
                BodyElem::Relation(a) | BodyElem::Negated(a) => {
                    a.predicate = other(&relations, "Nowhere")
                }
                BodyElem::Ie(ie) => ie.function = other(&functions, "nowhere"),
                BodyElem::Comparison { .. } => unreachable!("not a site"),
            }
        }
        // An aggregate enters a recursion: a head counts its last variable
        // and its body reads the head.
        _ => {
            let Some(i) = pick(rules.len()) else {
                return;
            };
            let rule = &mut rules[i];
            let last_var = rule.head_terms.iter().rposition(|t| {
                matches!(
                    t,
                    HeadTerm::Term(Term::Variable(_)) | HeadTerm::Aggregate { .. }
                )
            });
            if let Some(at) = last_var {
                if let HeadTerm::Term(Term::Variable(v)) = &rule.head_terms[at] {
                    let var = v.clone();
                    let (func, conversions) = ("count".to_string(), Vec::new());
                    rule.head_terms[at] = HeadTerm::Aggregate {
                        func,
                        conversions,
                        var,
                    };
                }
                let atom = any_row(&rule.head_predicate, rule.head_terms.len());
                rule.body.push(BodyElem::Relation(atom));
            }
        }
    }
}

/// The program of `case`, edited, as source.
fn edited(heads: &[Vec<RuleSpec>], pick: usize, edit: Edit) -> String {
    let program = format!("{}{}", layered_program(heads), program_at(pick));
    let statements = parse_program(&program).expect("the generated program parses");
    let mut rules: Vec<Rule> = (statements.statements.into_iter())
        .filter_map(|s| match s {
            Statement::Rule(r) => Some(r),
            _ => None,
        })
        .collect();
    apply(edit, &mut rules);
    rules.iter().map(|r| format!("{r}\n")).collect()
}

fn render_text(codes: &[u8]) -> String {
    let chars = codes.iter().map(|c| ['a', 'b', ' ', 'x'][*c as usize]);
    chars.collect()
}

/// The rows of `name` in the session, in the reference's form.
fn engine_rows(session: &mut Session, name: &str) -> BTreeSet<Vec<String>> {
    let rel = session.relation(name).expect("the session evaluated");
    support::canonical(rel.iter(), session.docs())
}

/// The name of `err`'s variant.
fn variant(err: &EngineError) -> String {
    let debug = format!("{err:?}");
    debug
        .split(['(', ' '])
        .next()
        .unwrap_or_default()
        .to_string()
}

/// Runs one case; the name of the error `run` refused the cell with, if
/// it did.
fn check((heads, pick, edges, texts, edit): &Case) -> Option<&'static str> {
    let cell = edited(heads, *pick, *edit);
    let int = |n: u8| Value::Int(i64::from(n));
    let edge_rows: Vec<Vec<Value>> = edges.iter().map(|&(a, b)| vec![int(a), int(b)]).collect();
    let text_rows = texts.iter().enumerate();
    let text_rows: Vec<(String, String)> =
        (text_rows.map(|(i, t)| (format!("d{i}"), render_text(t)))).collect();
    let mut session = Session::new();
    session.run("new Edge(int, int)").unwrap();
    for row in &edge_rows {
        session.add_fact("Edge", row.iter().cloned()).unwrap();
    }
    session.import_typed("Texts", text_rows.clone()).unwrap();
    session.run(KEPT).unwrap();
    let held = ["Edge", "Texts", "Kept"].map(|name| engine_rows(&mut session, name));

    let source = format!("{FACTS}{cell}");
    if let Err(err) = session.run(&source) {
        let kind = COMPILE_TIME.iter().find(|&&k| variant(&err) == k);
        let kind = kind.unwrap_or_else(|| panic!("{err:?} is no compile-time error:\n{cell}"));
        assert_eq!(session.rule_count(), 1, "{err}:\n{cell}");
        let now = ["Edge", "Texts", "Kept"].map(|name| engine_rows(&mut session, name));
        assert_eq!(now, held, "{err}:\n{cell}");
        let extra = Schema::new(vec![ValueType::Int]);
        session
            .declare("Extra", extra)
            .expect("the declaration was undone");
        return Some(kind);
    }
    if let Err(err) = session.ensure_evaluated() {
        // So does a type mismatch: what an IE function outputs (a span
        // derived into a column of strings) is known only when it runs.
        let types = matches!(err, EngineError::Core(CoreError::TypeMismatch { .. }));
        let data = types || AT_EVALUATION.contains(&variant(&err).as_str());
        assert!(data, "{err:?} at evaluation:\n{cell}");
        return None;
    }
    let texts = text_rows
        .into_iter()
        .map(|(d, t)| vec![Value::str(d), Value::str(t)]);
    let inputs = [("Edge", edge_rows), ("Texts", texts.collect())];
    let program = format!("{KEPT}{source}");
    let reference = support::evaluate(&program, &inputs, &Default::default())
        .unwrap_or_else(|e| panic!("the reference failed ({e}) where the engine did not:\n{cell}"));
    for name in reference.relations.keys() {
        let (got, want) = (engine_rows(&mut session, name), reference.canonical(name));
        assert_eq!(got, want, "relation {name}:\n{cell}");
    }
    None
}

/// 256 edited programs: each fails `run` with a structured error and
/// leaves the session as it was, or evaluates to the reference; and
/// every compile-time error is reached at least once.
#[test]
fn wrong_programs_fail_at_run_or_match_the_reference() {
    let mut rng = TestRng::from_name("wrong_programs_fail_at_run_or_match_the_reference");
    let strategy = case_strategy();
    let mut reached: BTreeMap<&str, usize> = BTreeMap::new();
    for n in 0..256 {
        let case = strategy.generate(&mut rng);
        let outcome = std::panic::catch_unwind(|| check(&case));
        let kind = outcome.unwrap_or_else(|panic| {
            eprintln!("case {n} failed: {case:?}");
            std::panic::resume_unwind(panic)
        });
        *reached.entry(kind.unwrap_or("evaluated")).or_default() += 1;
    }
    for kind in COMPILE_TIME {
        assert!(
            reached.contains_key(kind),
            "{kind} never reached: {reached:?}"
        );
    }
    eprintln!("{reached:?}");
}
