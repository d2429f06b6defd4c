//! The semantic safety checker (paper §3.1).
//!
//! "Spannerlog requires a more intricate definition of rule safety, which
//! in turn determines IE function execution order within a rule" — this
//! module implements that analysis, following the safety definitions of
//! Nahshon, Peterfreund & Vansummeren (WebDB 2016):
//!
//! 1. every variable of an IE atom's **input** must be bound by other
//!    body elements scheduled before it;
//! 2. every variable of a negated atom or comparison must be bound;
//! 3. every head variable (including aggregated ones) must be bound by
//!    the positive body.
//!
//! The checker lowers the body to plan steps as written and hands them
//! to the planner's scheduler ([`optimizer::schedule`]) at uniform
//! cost — the first schedulable element in source order, again and
//! again — which *derives the IE execution order* and rejects unsafe
//! rules in one pass: e.g. circular IE dependencies such as
//! `f(x) -> (y), g(y) -> (x)` with neither `x` nor `y` otherwise bound
//! leave the scheduler stuck.
//!
//! Atoms written relation-style whose predicate is actually a registered
//! IE function (`contains(pos, s)` in the paper's §4.1) are lowered to
//! zero-output IE steps here.

use crate::error::{EngineError, Result};
use crate::optimizer::{self, RuleOpt, StepMeta};
use crate::plan::{HeadOut, PTerm, RulePlan, Step};
use crate::registry::Registry;
use rustc_hash::FxHashSet;
use spannerlib_core::Value;
use spannerlog_parser::{BodyElem, Constant, HeadTerm, Rule, Term};

/// Converts a parsed constant into an engine value.
pub fn constant_value(c: &Constant) -> Value {
    match c {
        Constant::Str(s) => Value::str(s.as_str()),
        Constant::Int(i) => Value::Int(*i),
        Constant::Float(f) => Value::Float(*f),
        Constant::Bool(b) => Value::Bool(*b),
    }
}

/// Context the checker needs: which names are relations (declared or any
/// rule head) — everything else must be an IE function.
pub struct SafetyContext<'a> {
    /// Names that resolve to stored relations.
    pub relations: &'a FxHashSet<String>,
    /// The IE/aggregation registry.
    pub registry: &'a Registry,
}

/// The index of variable `name` in the rule's variable table, which
/// grows in first-mention order.
fn var_index(names: &mut Vec<String>, name: &str) -> usize {
    names.iter().position(|n| n == name).unwrap_or_else(|| {
        names.push(name.to_string());
        names.len() - 1
    })
}

fn pterm(names: &mut Vec<String>, t: &Term) -> PTerm {
    match t {
        Term::Variable(v) => PTerm::Var(var_index(names, v)),
        Term::Wildcard => PTerm::Wildcard,
        Term::Const(c) => PTerm::Const(constant_value(c)),
    }
}

/// Lowers one body element to its plan step, resolving its predicate.
fn lower(
    b: &BodyElem,
    line: usize,
    ctx: &SafetyContext<'_>,
    names: &mut Vec<String>,
) -> Result<Step> {
    let mut terms = |ts: &[Term]| ts.iter().map(|t| pterm(names, t)).collect();
    Ok(match b {
        BodyElem::Relation(a) if ctx.relations.contains(&a.predicate) => Step::Scan {
            relation: a.predicate.clone(),
            terms: terms(&a.terms),
        },
        // A relation-style atom over an IE function name: a filter.
        BodyElem::Relation(a) if ctx.registry.has_ie(&a.predicate) => Step::Ie {
            function: a.predicate.clone(),
            inputs: terms(&a.terms),
            outputs: Vec::new(),
        },
        BodyElem::Relation(a) => return Err(EngineError::UnknownPredicate(a.predicate.clone())),
        BodyElem::Negated(a) if ctx.relations.contains(&a.predicate) => Step::Negation {
            relation: a.predicate.clone(),
            terms: terms(&a.terms),
        },
        BodyElem::Negated(a) => return Err(EngineError::UnknownRelation(a.predicate.clone())),
        BodyElem::Ie(ie) => {
            if !ctx.registry.has_ie(&ie.function) {
                return Err(EngineError::UnknownIeFunction(ie.function.clone()));
            }
            // Static input-arity check when declared.
            if let Some(expected) = ctx.registry.ie(&ie.function)?.input_arity() {
                if ie.inputs.len() != expected {
                    return Err(EngineError::IeArity {
                        function: ie.function.clone(),
                        expected,
                        actual: ie.inputs.len(),
                    });
                }
            }
            // Wildcards cannot be IE inputs (nothing to pass).
            if ie.inputs.iter().any(|t| matches!(t, Term::Wildcard)) {
                let msg = format!("IE function {:?} has a wildcard input", ie.function);
                return Err(EngineError::Unsafe { line, msg });
            }
            Step::Ie {
                function: ie.function.clone(),
                inputs: terms(&ie.inputs),
                outputs: terms(&ie.outputs),
            }
        }
        BodyElem::Comparison { left, op, right } => Step::Compare {
            left: pterm(names, left),
            op: *op,
            right: pterm(names, right),
        },
    })
}

/// Analyzes one rule: checks safety and produces the executable plan,
/// its steps stored in the order they were scheduled and annotated with
/// the metadata the planner reschedules them by.
pub fn analyze(rule: &Rule, ctx: &SafetyContext<'_>) -> Result<RulePlan> {
    let unsafe_err = |msg: String| EngineError::Unsafe {
        line: rule.line,
        msg,
    };
    let mut var_names: Vec<String> = Vec::new();
    let lowered = rule
        .body
        .iter()
        .map(|b| lower(b, rule.line, ctx, &mut var_names));
    let steps: Vec<Step> = lowered.collect::<Result<_>>()?;
    let metas: Vec<StepMeta> = steps.iter().map(StepMeta::of).collect();

    // Which variables the steps at `scheduled` leave bound.
    let bound_by = |scheduled: &[usize]| {
        let mut bound = vec![false; var_names.len()];
        let binds = scheduled.iter().flat_map(|&i| &metas[i].binds);
        binds.for_each(|&v| bound[v] = true);
        bound
    };
    let order = optimizer::schedule(&metas, var_names.len(), |_, _| 0).map_err(|pending| {
        let scheduled: Vec<usize> = (0..steps.len()).filter(|i| !pending.contains(i)).collect();
        let bound = bound_by(&scheduled);
        let missing = |terms: &[PTerm]| {
            let unbound = terms.iter().filter_map(|t| match t {
                PTerm::Var(v) if !bound[*v] => Some(var_names[*v].as_str()),
                _ => None,
            });
            unbound.collect::<Vec<_>>().join(", ")
        };
        let blocked = pending.iter().map(|&i| match &steps[i] {
            Step::Scan { relation, .. } => relation.clone(),
            Step::Ie {
                function, inputs, ..
            } => format!("{function} (unbound inputs: {})", missing(inputs)),
            Step::Negation { relation, terms } => {
                format!("not {relation} (unbound: {})", missing(terms))
            }
            Step::Compare { .. } => rule.body[i].to_string(),
        });
        let blocked: Vec<String> = blocked.collect();
        unsafe_err(format!(
            "no safe evaluation order: cannot schedule {}",
            blocked.join("; ")
        ))
    })?;
    let bound = bound_by(&order);

    // Head checks: wildcards rejected; every variable bound.
    let mut head: Vec<HeadOut> = Vec::new();
    let mut bound_var =
        |v: &str| Some(var_index(&mut var_names, v)).filter(|&i| bound.get(i) == Some(&true));
    for t in &rule.head_terms {
        match t {
            HeadTerm::Term(Term::Wildcard) => {
                return Err(unsafe_err("wildcard in rule head".into()))
            }
            HeadTerm::Term(Term::Variable(v)) => {
                head.push(HeadOut::Var(bound_var(v).ok_or_else(|| {
                    unsafe_err(format!("head variable {v:?} is not bound by the body"))
                })?))
            }
            HeadTerm::Term(Term::Const(c)) => head.push(HeadOut::Const(constant_value(c))),
            HeadTerm::Aggregate {
                func,
                conversions,
                var,
            } => {
                // Validate function and conversions exist.
                ctx.registry.aggregate(func)?;
                for c in conversions {
                    ctx.registry.conversion(c)?;
                }
                let var = bound_var(var).ok_or_else(|| {
                    unsafe_err(format!(
                        "aggregated variable {var:?} is not bound by the body"
                    ))
                })?;
                head.push(HeadOut::Aggregate {
                    func: func.clone(),
                    conversions: conversions.clone(),
                    var,
                });
            }
        }
    }

    let negative_deps = rule.has_aggregation();
    let pick = |i: &usize| (steps[*i].clone(), metas[*i].clone());
    let (steps, metas): (Vec<Step>, Vec<StepMeta>) = order.iter().map(pick).unzip();
    let dependencies = steps.iter().filter_map(|step| match step {
        Step::Scan { relation, .. } => Some((relation.clone(), negative_deps)),
        Step::Negation { relation, .. } => Some((relation.clone(), true)),
        _ => None,
    });
    Ok(RulePlan {
        head_predicate: rule.head_predicate.clone(),
        dependencies: dependencies.collect(),
        steps,
        head,
        var_names,
        line: rule.line,
        source: rule.to_string(),
        opt: Some(RuleOpt { steps: metas }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spannerlog_parser::parse_program;
    use spannerlog_parser::Statement;

    fn rule(src: &str) -> Rule {
        match parse_program(src).unwrap().statements.remove(0) {
            Statement::Rule(r) => r,
            other => panic!("expected rule, got {other:?}"),
        }
    }

    fn ctx_with(relations: &[&str]) -> (FxHashSet<String>, Registry) {
        let rels: FxHashSet<String> = relations.iter().map(|s| s.to_string()).collect();
        (rels, Registry::new())
    }

    fn analyze_src(src: &str, relations: &[&str]) -> Result<RulePlan> {
        let (rels, registry) = ctx_with(relations);
        analyze(
            &rule(src),
            &SafetyContext {
                relations: &rels,
                registry: &registry,
            },
        )
    }

    #[test]
    fn paper_email_rule_is_safe() {
        let plan = analyze_src(
            r#"R(usr, dom) <- Texts(d, t), rgx("(\w+)@(\w+)", t) -> (usr, dom)"#,
            &["Texts"],
        )
        .unwrap();
        assert_eq!(plan.steps.len(), 2);
        assert!(matches!(plan.steps[0], Step::Scan { .. }));
        assert!(matches!(plan.steps[1], Step::Ie { .. }));
    }

    #[test]
    fn ie_scheduled_after_binding_even_if_written_first() {
        // The IE atom appears first in source but needs `t` from Texts.
        let plan = analyze_src(r#"R(x) <- rgx("a", t) -> (x), Texts(d, t)"#, &["Texts"]).unwrap();
        assert!(matches!(plan.steps[0], Step::Scan { .. }));
        assert!(matches!(plan.steps[1], Step::Ie { .. }));
    }

    #[test]
    fn chained_ie_functions_order_correctly() {
        // §2's example: foo feeds rgx.
        let plan = analyze_src(
            r#"T(z, v, w) <- Texts(d, t), rgx("x{.}", z) -> (w, v), foo(d, t) -> (z)"#,
            &["Texts"],
        );
        // `foo` is not registered — register it first.
        assert!(matches!(plan, Err(EngineError::UnknownIeFunction(_))));

        let (rels, mut registry) = ctx_with(&["Texts"]);
        registry.register_closure("foo", Some(2), |_args, _ctx| Ok(vec![]));
        let plan = analyze(
            &rule(r#"T(z, v, w) <- Texts(d, t), rgx("x{.}y{.}", z) -> (w, v), foo(d, t) -> (z)"#),
            &SafetyContext {
                relations: &rels,
                registry: &registry,
            },
        )
        .unwrap();
        // Order must be Texts, foo, rgx.
        match (&plan.steps[0], &plan.steps[1], &plan.steps[2]) {
            (
                Step::Scan { relation, .. },
                Step::Ie { function: f1, .. },
                Step::Ie { function: f2, .. },
            ) => {
                assert_eq!(relation, "Texts");
                assert_eq!(f1, "foo");
                assert_eq!(f2, "rgx");
            }
            other => panic!("unexpected order {other:?}"),
        }
    }

    #[test]
    fn circular_ie_dependency_is_unsafe() {
        let (rels, mut registry) = ctx_with(&[]);
        registry.register_closure("f", Some(1), |_a, _c| Ok(vec![]));
        registry.register_closure("g", Some(1), |_a, _c| Ok(vec![]));
        let err = analyze(
            &rule("R(x) <- f(x) -> (y), g(y) -> (x)"),
            &SafetyContext {
                relations: &rels,
                registry: &registry,
            },
        )
        .unwrap_err();
        match err {
            EngineError::Unsafe { msg, .. } => assert!(msg.contains("no safe evaluation order")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unbound_head_variable_is_unsafe() {
        let err = analyze_src("R(x, y) <- S(x)", &["S"]).unwrap_err();
        match err {
            EngineError::Unsafe { msg, .. } => assert!(msg.contains("y")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn negation_needs_bound_vars() {
        let err = analyze_src("R(x) <- S(x), not T(y)", &["S", "T"]).unwrap_err();
        assert!(matches!(err, EngineError::Unsafe { .. }));
        // Bound version is fine; negation scheduled after the scan.
        let plan = analyze_src("R(x) <- not T(x), S(x)", &["S", "T"]).unwrap();
        assert!(matches!(plan.steps[0], Step::Scan { .. }));
        assert!(matches!(plan.steps[1], Step::Negation { .. }));
    }

    #[test]
    fn comparison_needs_bound_vars() {
        assert!(analyze_src("R(x) <- S(x), x < y", &["S"]).is_err());
        assert!(analyze_src("R(x) <- S(x), x < 10", &["S"]).is_ok());
    }

    #[test]
    fn relation_style_ie_filter_is_rewritten() {
        // `contains(x, y)` written as a plain atom (paper §4.1 style).
        let plan = analyze_src("R(x, y) <- S(x, y), contains(x, y)", &["S"]).unwrap();
        match &plan.steps[1] {
            Step::Ie {
                function, outputs, ..
            } => {
                assert_eq!(function, "contains");
                assert!(outputs.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_predicate_reported() {
        let err = analyze_src("R(x) <- Mystery(x)", &[]).unwrap_err();
        assert!(matches!(err, EngineError::UnknownPredicate(_)));
    }

    #[test]
    fn wildcard_in_head_rejected() {
        let err = analyze_src("R(_) <- S(x)", &["S"]).unwrap_err();
        assert!(matches!(err, EngineError::Unsafe { .. }));
    }

    #[test]
    fn wildcard_ie_input_rejected() {
        let err = analyze_src(r#"R(x) <- S(x), rgx("a", _) -> (y)"#, &["S"]).unwrap_err();
        assert!(matches!(err, EngineError::Unsafe { .. }));
    }

    #[test]
    fn ie_input_arity_checked_statically() {
        let err = analyze_src(r#"R(x) <- S(t), rgx("a") -> (x)"#, &["S"]).unwrap_err();
        assert!(matches!(err, EngineError::IeArity { .. }));
    }

    #[test]
    fn aggregation_marks_dependencies_negative() {
        let plan = analyze_src("R(x, count(y)) <- S(x, y)", &["S"]).unwrap();
        assert!(plan.has_aggregation());
        assert_eq!(plan.dependencies, vec![("S".to_string(), true)]);
        let plain = analyze_src("R(x) <- S(x)", &["S"]).unwrap();
        assert_eq!(plain.dependencies, vec![("S".to_string(), false)]);
    }

    #[test]
    fn unknown_aggregate_rejected() {
        let err = analyze_src("R(bogus(y)) <- S(y)", &["S"]).unwrap_err();
        assert!(matches!(err, EngineError::UnknownAggregate(_)));
    }

    #[test]
    fn head_constants_allowed() {
        let plan = analyze_src(r#"R(x, "tag") <- S(x)"#, &["S"]).unwrap();
        assert!(matches!(plan.head[1], HeadOut::Const(_)));
    }
}
