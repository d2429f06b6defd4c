//! The body order safety analysis derives, pinned rule by rule: a plan
//! stores its steps in exactly these sequences, and the planner starts
//! from them. The table below was
//! computed at the commit before safety analysis and the planner came
//! to share one scheduler; it must never change by accident.

use spannerlib::engine::plan::{PTerm, RulePlan, Step};
use spannerlib::engine::safety::{analyze, SafetyContext};
use spannerlib::engine::Registry;
use spannerlib::parser::{parse_program, Statement};
use spannerlib::prelude::*;
use std::collections::HashSet;

/// One line per rule of `source`: its head and scheduled steps, or the
/// error analysis answers with. Relations are `extensional` plus every
/// rule head, as `CompiledProgram::compile` resolves them.
fn schedule(source: &str, extensional: &[&str], registry: &Registry) -> String {
    let statements = parse_program(source).unwrap().statements;
    let rules = statements.into_iter().filter_map(|s| match s {
        Statement::Rule(r) => Some(r),
        _ => None,
    });
    let rules: Vec<_> = rules.collect();
    let heads = rules.iter().map(|r| r.head_predicate.clone());
    let relations = extensional.iter().map(|s| s.to_string()).chain(heads);
    let relations: HashSet<String, _> = relations.collect();
    let ctx = SafetyContext {
        relations: &relations,
        registry,
    };
    let line = |rule| match analyze(rule, &ctx) {
        Ok(plan) => format!("  {} <- {}\n", plan.head_predicate, steps(&plan)),
        Err(e) => format!("  {rule} => {e}\n"),
    };
    rules.iter().map(line).collect()
}

fn steps(plan: &RulePlan) -> String {
    let term = |t: &PTerm| match t {
        PTerm::Var(v) => plan.var_names[*v].clone(),
        PTerm::Const(c) => c.to_string(),
        PTerm::Wildcard => "_".to_string(),
    };
    let step = |s: &Step| match s {
        Step::Scan { relation, .. } => relation.clone(),
        Step::Ie { function, .. } => format!("{function}()"),
        Step::Negation { relation, .. } => format!("not {relation}"),
        Step::Compare { left, op, right } => format!("{} {op} {}", term(left), term(right)),
    };
    plan.steps.iter().map(step).collect::<Vec<_>>().join(", ")
}

const PAPER_EXAMPLES: &str = r#"
R(usr, dom) <- Texts(d, t), rgx_string("(\w+)@(\w+)\.\w+", t) -> (usr, dom)
R(t, lex_concat(str(y))) <- Texts(d, t), rgx("\w+", t) -> (y)
T(z, v, w) <- R(x, y), S("bob", x), foo(x, y) -> (z), rgx("w{le}v{ft}", z) -> (w, v)
ScopeOf(pos, s) <- Files(f, c), Cursor(pos), ast(".*.(FuncDecl|ClassDecl)", c) -> (s),
                   contained_in(pos, s)
ScopeName(n) <- ScopeOf(pos, s), ast_name(s) -> (n)
Word(w) <- Docs(d), rgx("\w+", d) -> (w)
Loud(u) <- Word(w), shout(w) -> (u)
"#;

/// The shapes `safety.rs`'s unit tests schedule: an IE atom written
/// before the scan that feeds it, chained IE atoms written out of
/// order, a negation and a comparison written first, a relation-style
/// IE filter.
const SAFETY_SHAPES: &str = r#"
R(x) <- rgx("a", t) -> (x), Texts(d, t)
T(z, v, w) <- Texts(d, t), rgx("x{.}y{.}", z) -> (w, v), foo(d, t) -> (z)
R(x) <- not T(x), S(x)
R(x) <- x < 10, S(x), x != y, S(y)
R(x, y) <- S(x, y), contains(x, y)
"#;

/// The eight unsafe rules `safety.rs`'s unit tests provoke.
const UNSAFE: &str = r#"
R(x) <- f(x) -> (y), g(y) -> (x)
R(x, y) <- S(x)
R(x) <- S(x), not T(y)
R(x) <- S(x), x < y
R(_) <- S(x)
R(x) <- S(x), rgx("a", _) -> (y)
R(x) <- S(x), x < _
R(x) <- S(x), contains(x, _)
"#;

const GOLDEN: &str = r#"covid.slog
  Sent <- Notes, sents()
  Mention <- Sent, mentions()
  Asserted <- Sent, mentions(), assertions()
  IgnoredSection <- Notes, note_sections(), SectionPolicy
  Ignored <- Mention, IgnoredSection, contains()
  Ignored <- Asserted, ModifierPolicy
  Negated <- Asserted, ModifierPolicy, not Ignored
  Positive <- Asserted, ModifierPolicy, not Ignored, not Negated
  Uncertain <- Mention, not Ignored, not Negated, not Positive
  Evidence <- Negated
  Evidence <- Positive
  Evidence <- Uncertain
  HasPositive <- Positive
  HasUncertain <- Uncertain
  HasNegated <- Negated
  Surviving <- Evidence
  Status <- HasPositive
  Status <- HasUncertain, not HasPositive
  Status <- HasNegated, not HasPositive, not HasUncertain
  Status <- Notes, not Surviving
  StatusCount <- Status
  EvidenceKey <- Evidence, span_start(), span_end(), format()
  EvidenceCount <- EvidenceKey
tests/paper_examples.rs
  R <- Texts, rgx_string()
  R <- Texts, rgx()
  T <- R, S, foo(), rgx()
  ScopeOf <- Files, Cursor, ast(), contained_in()
  ScopeName <- ScopeOf, ast_name()
  Word <- Docs, rgx()
  Loud <- Word, shout()
safety.rs shapes
  R <- Texts, rgx()
  T <- Texts, foo(), rgx()
  R <- S, not T
  R <- S, x < 10, S, x != y
  R <- S, contains()
unsafe
  R(x) <- f(x) -> (y), g(y) -> (x). => unsafe rule (line 2): no safe evaluation order: cannot schedule f (unbound inputs: x); g (unbound inputs: y)
  R(x, y) <- S(x). => unsafe rule (line 3): head variable "y" is not bound by the body
  R(x) <- S(x), not T(y). => unsafe rule (line 4): no safe evaluation order: cannot schedule not T (unbound: y)
  R(x) <- S(x), x < y. => unsafe rule (line 5): no safe evaluation order: cannot schedule x < y
  R(_) <- S(x). => unsafe rule (line 6): wildcard in rule head
  R(x) <- S(x), rgx("a", _) -> (y). => unsafe rule (line 7): IE function "rgx" has a wildcard input
  R(x) <- S(x), x < _. => unsafe rule (line 8): comparison x < _ has a wildcard operand
  R(x) <- S(x), contains(x, _). => unsafe rule (line 9): IE function "contains" has a wildcard input
"#;

#[test]
fn safety_order_is_the_recorded_one() {
    let covid = spannerlib::covid::spanner::SpannerPipeline::new()
        .unwrap()
        .into_session();
    let mut session = Session::new();
    spannerlib::codeast::ie::register_ast_functions(&mut session);
    for (name, arity) in [("foo", 2), ("shout", 1), ("f", 1), ("g", 1)] {
        session.register(name, Some(arity), |_, _, _| Ok(()));
    }
    let extensional = ["Texts", "S", "T", "Files", "Cursor", "Docs"];
    let table = [
        "covid.slog\n".to_string(),
        schedule(
            spannerlib::covid::spanner::RULES,
            &["Notes", "SectionPolicy", "ModifierPolicy"],
            covid.registry(),
        ),
        "tests/paper_examples.rs\n".to_string(),
        schedule(PAPER_EXAMPLES, &extensional, session.registry()),
        "safety.rs shapes\n".to_string(),
        schedule(SAFETY_SHAPES, &extensional, session.registry()),
        "unsafe\n".to_string(),
        schedule(UNSAFE, &extensional, session.registry()),
    ]
    .concat();
    assert_eq!(table, GOLDEN);
}
