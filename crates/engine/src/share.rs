//! Shared IE calls, planned as derived relations.
//!
//! In Spannerlog an IE atom `f(x) -> (y)` is a relation with input and
//! output columns (paper §3.1). A *call* is what an IE atom asks whatever
//! its variables bind: the function, the constants at its input positions
//! and its output arity. A call is *shared* when two sites — IE atoms of
//! any rules — ask it, or when its one site sits in a recursive
//! component, whose rounds ask again — unless its function is a
//! constant-time builtin, which costs less than a row of a relation
//! ([`Registry::per_row`](crate::registry::Registry::per_row)).
//! [`share_calls`] rewrites the program so that each shared call `k` of
//! `f` is answered once per argument vector, by ordinary rules — the
//! magic-set construction (Bancilhon et al.) restricted to IE inputs:
//!
//! ```text
//! f#k?(x…)     <- <a site's body before the call>     one per site
//! f#k(x…, y…)  <- f#k?(x…), f(…) -> (…)                 the call
//! H(…)         <- …, f#k(x…, y…), …                     each site
//! ```
//!
//! `x…` are the call's variable inputs — its constant inputs are the
//! call's own and are not stored — and `y…` its outputs but those where
//! every site reads one constant: the call rule keeps only the rows that
//! hold it, and drops the column. Safety analysis, stratification, the
//! planner, sharding and maintenance then treat these rules like any
//! other, and the call rule's one firing is the call's whole batch.
//!
//! `#` starts a comment in the lexer, so no program or query can name
//! these relations, and no host sees one (`Database::visible`). A full
//! evaluation drops them with every derived relation, so no program
//! change can leave one stale.

use crate::error::Result;
use crate::optimizer::{schedule, StepMeta};
use crate::plan::{PTerm, RulePlan, Step};
use crate::safety::{analyze, lower_body, SafetyContext};
use crate::strata::{stratify, Component};
use rustc_hash::{FxHashMap, FxHashSet};
use spannerlib_core::Value;
use spannerlog_parser::{Atom, BodyElem, HeadTerm, IeAtom, Rule, Term};

/// Whether `name` is a relation [`share_calls`] adds to a program.
pub(crate) fn is_auxiliary(name: &str) -> bool {
    name.contains('#')
}

impl RulePlan {
    /// Whether the rule is the program's own, not one [`share_calls`] adds
    /// (which no count of rounds or firings, and no error, names).
    pub(crate) fn is_written(&self) -> bool {
        !is_auxiliary(&self.head_predicate)
    }
}

/// One shared call and where it is asked.
#[derive(Default)]
struct Call<'a> {
    /// `f#k`: the relation of its answers.
    name: String,
    function: &'a str,
    /// Per input position, the constant every site passes there.
    constants: Vec<Option<Value>>,
    /// Per output column, the constant every site reads there, if they
    /// agree on one.
    fixed: Vec<Option<Value>>,
    /// The sites asking it, as (rule, body element).
    sites: Vec<(usize, usize)>,
    recurs: bool,
}

/// A rule's body lowered as written, and its uniform-cost safe order.
type Lowered = (Vec<Step>, Vec<usize>);

/// The components of `rules` with every shared call planned as
/// relations — or `components`, those of `rules` as written, when no
/// call is shared. A call whose rules would leave the program
/// unstratifiable (its sites sit in different strata, and a demand rule
/// would close a cycle through negation or an aggregate) stays a plain
/// IE atom.
pub(crate) fn share_calls(
    rules: &[Rule],
    ctx: &SafetyContext<'_>,
    components: Vec<Component>,
) -> Result<Vec<Component>> {
    let lowered = (rules.iter().map(|rule| {
        let (steps, names) = lower_body(rule, ctx)?;
        let metas: Vec<StepMeta> = steps.iter().map(StepMeta::of).collect();
        let order = schedule(&metas, names.len(), |_, _| 0);
        Ok((steps, order.unwrap_or_default()))
    }))
    .collect::<Result<Vec<Lowered>>>()?;
    let calls = calls_of(rules, &lowered, ctx, &components);
    let mut relations = ctx.relations.clone();
    relations.extend(calls.iter().flat_map(|c| [c.name.clone(), c.demand()]));
    let ctx = SafetyContext {
        relations: &relations,
        registry: ctx.registry,
    };
    // Keep every call whose rules stratify and whose demand rules ask IE
    // functions only through kept calls (a plain IE atom there would run
    // at the demand rule and again at the site); a kept call may feed one
    // passed.
    let (mut kept, mut best) = (Vec::new(), components);
    let mut pending: Vec<&Call> = calls.iter().collect();
    while let Some(at) = pending.iter().position(|c| c.fed_by(&kept, &lowered)) {
        kept.push(pending.remove(at));
        let rules = rewrite(rules, &lowered, &kept);
        let plans: Result<Vec<_>> = rules.iter().map(|r| analyze(r, &ctx)).collect();
        match plans.and_then(stratify) {
            Ok(rewritten) => best = rewritten,
            Err(_) => drop(kept.pop()),
        }
    }
    Ok(best)
}

/// The shared calls in `rules`, numbered by first appearance. A call of a
/// per-row builtin is left out, and so is one with no variable input:
/// there is no argument vector to share.
fn calls_of<'a>(
    rules: &'a [Rule],
    lowered: &'a [Lowered],
    ctx: &SafetyContext<'_>,
    components: &[Component],
) -> Vec<Call<'a>> {
    let recursive: FxHashSet<&str> = (components.iter().filter(|c| c.recursive))
        .flat_map(|c| c.rules.iter().map(|r| r.head_predicate.as_str()))
        .collect();
    let constant = |t: &PTerm| match t {
        PTerm::Const(c) => Some(c.clone()),
        _ => None,
    };
    let mut calls: Vec<Call> = Vec::new();
    let mut call_of: FxHashMap<(&str, Vec<Option<Value>>, usize), usize> = FxHashMap::default();
    for (r, (steps, _)) in lowered.iter().enumerate() {
        for (i, step) in steps.iter().enumerate() {
            let Step::Ie {
                function,
                inputs,
                outputs,
            } = step
            else {
                continue;
            };
            if ctx.registry.per_row(function) {
                continue;
            }
            let constants: Vec<Option<Value>> = inputs.iter().map(constant).collect();
            let fixed: Vec<Option<Value>> = outputs.iter().map(constant).collect();
            let key = (function.as_str(), constants.clone(), outputs.len());
            let at = *call_of.entry(key).or_insert_with(|| {
                let fixed = fixed.clone();
                calls.push(Call {
                    function,
                    constants,
                    fixed,
                    ..Call::default()
                });
                calls.len() - 1
            });
            let call = &mut calls[at];
            // A column stays fixed while every site reads one constant there.
            let agreed = call.fixed.iter_mut().zip(fixed);
            agreed
                .filter(|(a, own)| **a != *own)
                .for_each(|(a, _)| *a = None);
            call.sites.push((r, i));
            call.recurs |= recursive.contains(rules[r].head_predicate.as_str());
        }
    }
    calls.retain(|c| (c.sites.len() > 1 || c.recurs) && c.constants.contains(&None));
    for (k, call) in calls.iter_mut().enumerate() {
        call.name = format!("{}#{k}", call.function);
    }
    calls
}

/// The function, inputs and outputs of an IE site: an IE atom, or a
/// relation-style atom over an IE function, which has no outputs.
fn ie_parts(site: &BodyElem) -> (&str, &[Term], &[Term]) {
    match site {
        BodyElem::Ie(ie) => (&ie.function, &ie.inputs, &ie.outputs),
        BodyElem::Relation(a) => (&a.predicate, &a.terms, &[]),
        _ => ("", &[], &[]),
    }
}

impl Call<'_> {
    /// `f#k?`: the relation of the argument vectors its sites ask.
    fn demand(&self) -> String {
        format!("{}?", self.name)
    }

    /// Whether every demand rule of the call asks IE functions only
    /// through the relations of `kept` calls, or of this one.
    fn fed_by(&self, kept: &[&Call], lowered: &[Lowered]) -> bool {
        let answered = |site| kept.iter().chain([&self]).any(|c| c.sites.contains(&site));
        self.sites.iter().all(|&(r, i)| {
            let ie = |&j: &usize| matches!(lowered[r].0[j], Step::Ie { .. });
            let mut asked = demand_prefix(&lowered[r], i).filter(ie);
            asked.all(|j| answered((r, j)))
        })
    }

    /// A site's terms at the call's variable inputs: the key columns.
    fn keys<'t>(&self, inputs: &'t [Term]) -> impl Iterator<Item = &'t Term> + use<'t, '_> {
        let keyed = inputs.iter().zip(&self.constants);
        keyed.filter(|(_, c)| c.is_none()).map(|(t, _)| t)
    }

    /// A site's outputs at the columns the call's relation keeps.
    fn kept<'t>(&self, outputs: &'t [Term]) -> impl Iterator<Item = &'t Term> + use<'t, '_> {
        let kept = outputs.iter().zip(&self.fixed);
        kept.filter(|(_, c)| c.is_none()).map(|(t, _)| t)
    }

    /// A scan of `f#k` (or `f#k?`) with a site's `inputs` and `outputs`.
    fn atom(&self, predicate: String, inputs: &[Term], outputs: &[Term]) -> Atom {
        let terms = self.keys(inputs).chain(self.kept(outputs)).cloned();
        let terms = terms.collect();
        Atom { predicate, terms }
    }

    /// `f#k(x…, y…) <- f#k?(x…), f(…) -> (…)`, with the constants of
    /// `site` (every site's) and a fresh variable everywhere else.
    fn rule(&self, site: &BodyElem, line: usize) -> Rule {
        let (function, inputs, outputs) = ie_parts(site);
        let fresh = |prefix: &str, terms: &[Term], constants: &[Option<Value>]| {
            let terms = terms.iter().zip(constants).enumerate();
            let var = |i| Term::Variable(format!("{prefix}{i}"));
            (terms.map(|(i, (t, c))| c.as_ref().map_or_else(|| var(i), |_| t.clone())))
                .collect::<Vec<Term>>()
        };
        let inputs = fresh("x", inputs, &self.constants);
        let outputs = fresh("y", outputs, &self.fixed);
        let head = self.atom(self.name.clone(), &inputs, &outputs).terms;
        let demand = self.atom(self.demand(), &inputs, &[]);
        Rule {
            head_predicate: self.name.clone(),
            head_terms: head.into_iter().map(HeadTerm::Term).collect(),
            body: vec![
                BodyElem::Relation(demand),
                BodyElem::Ie(IeAtom {
                    function: function.to_string(),
                    inputs,
                    outputs,
                }),
            ],
            line,
        }
    }
}

/// `rules` with the calls `shared` planned as relations: per call its
/// demand rules (one per site, repeats dropped) and its call rule, ahead
/// of the rules as written — so that in a recursive component a round
/// asks, calls and reads in that order — each site a scan of the call's
/// relation.
fn rewrite(rules: &[Rule], lowered: &[Lowered], shared: &[&Call]) -> Vec<Rule> {
    let site_of: FxHashMap<(usize, usize), &Call> = (shared.iter())
        .flat_map(|call| call.sites.iter().map(move |&site| (site, *call)))
        .collect();
    let scan = |r: usize, (i, e): (usize, &BodyElem)| match site_of.get(&(r, i)) {
        Some(call) => {
            let (_, inputs, outputs) = ie_parts(e);
            BodyElem::Relation(call.atom(call.name.clone(), inputs, outputs))
        }
        None => e.clone(),
    };
    let bodies: Vec<Vec<BodyElem>> = (rules.iter().enumerate())
        .map(|(r, rule)| rule.body.iter().enumerate().map(|e| scan(r, e)).collect())
        .collect();
    let mut out: Vec<Rule> = Vec::new();
    for call in shared {
        let line = rules[call.sites[0].0].line;
        for &(r, i) in &call.sites {
            let (_, inputs, _) = ie_parts(&rules[r].body[i]);
            let head = call.atom(call.demand(), inputs, &[]).terms;
            let body = demand_prefix(&lowered[r], i).map(|j| bodies[r][j].clone());
            let demand = Rule {
                head_predicate: call.demand(),
                head_terms: head.into_iter().map(HeadTerm::Term).collect(),
                body: body.collect(),
                line,
            };
            if !out.contains(&demand) {
                out.push(demand);
            }
        }
        let (r, i) = call.sites[0];
        out.push(call.rule(&rules[r].body[i], line));
    }
    let rewritten = rules.iter().zip(bodies);
    out.extend(rewritten.map(|(rule, body)| Rule {
        body,
        ..rule.clone()
    }));
    out
}

/// The body elements, in body order, of the demand rule of the site at
/// element `site`: those the safe order runs before the call. An IE atom
/// among them stays only where it binds what the call, or another IE atom
/// that stays, needs — [`share_calls`] rewrites a call only where each
/// such atom is itself a shared call's scan — and a negation or
/// comparison only where what it needs is still bound.
fn demand_prefix((steps, order): &Lowered, site: usize) -> impl Iterator<Item = usize> {
    let metas: Vec<StepMeta> = steps.iter().map(StepMeta::of).collect();
    let before = &order[..order.iter().position(|&j| j == site).unwrap_or(0)];
    let mut keep = vec![false; steps.len()];
    let mut needed = metas[site].needs.clone();
    for &j in before.iter().rev() {
        let ie = matches!(steps[j], Step::Ie { .. });
        if !ie || metas[j].binds.iter().any(|v| needed.contains(v)) {
            keep[j] = true;
            needed.extend(metas[j].needs.iter().filter(|_| ie));
        }
    }
    let mut bound: Vec<usize> = Vec::new();
    for &j in before {
        let filter = matches!(steps[j], Step::Negation { .. } | Step::Compare { .. });
        keep[j] &= !filter || metas[j].needs.iter().all(|v| bound.contains(v));
        if keep[j] {
            bound.extend(&metas[j].binds);
        }
    }
    (0..keep.len()).filter(move |&j| keep[j])
}
