//! Cost-based step ordering and per-execution index reuse.
//!
//! Safety analysis ([`crate::safety`]) emits each rule body as a
//! *correct* pipeline — every step's variables are bound by the time it
//! runs — but in textual atom order. This module adds the planner on
//! top of that invariant:
//!
//! * [`annotate`] runs once per rule at compile time (from
//!   `CompiledProgram::compile`) and records, per step, which variables
//!   it **needs** bound, which it can **bind**, and whether it is an
//!   ordering **barrier** (an uncacheable IE call: invoked once per
//!   binding row, so its observable behaviour depends on its position).
//! * [`order_steps`] runs per rule firing, when relation cardinalities
//!   are known, and greedily picks the cheapest runnable step: filters
//!   first, then IE calls whose inputs are bound, then scans by
//!   estimated fan-out (relation size discounted per bound join
//!   column). Barriers are never crossed in either direction.
//! * [`IndexCache`] keeps the hash indexes scan joins probe
//!   ([`build_index`]) alive for the whole evaluation run, keyed by
//!   `(relation, row count, key columns)`. Within one run relations
//!   only grow (their extensional generation is fixed and derived
//!   inserts are append-only), so the row count is a faithful
//!   within-run generation: fixpoint rounds and sibling rules reuse
//!   identical indexes instead of rebuilding them.
//!
//! Any permutation respecting the `needs ⊆ bound` invariant and the
//! barriers is observationally equivalent: scans, negations, and
//! comparisons are pure, joins commute, and the head projection works
//! on set semantics. The `production_agrees_with_reference_*` property
//! tests (`crates/engine/tests/properties.rs`) pin that equivalence
//! against `EvalStrategy::Naive`, which never reorders.

use crate::plan::{PTerm, RulePlan, Step};
use crate::registry::Registry;
use rustc_hash::FxHashMap;
use spannerlib_core::{Relation, Tuple, Value};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// Per-step scheduling metadata (see [`annotate`]).
#[derive(Debug, Clone, Default)]
pub struct StepMeta {
    /// Variables that must already be bound for the step to run.
    pub needs: Vec<usize>,
    /// Variables the step can bind.
    pub binds: Vec<usize>,
    /// Whether the step pins the relative order of everything around it
    /// (uncacheable IE calls — one invocation per row, order-sensitive).
    pub barrier: bool,
}

/// Compile-time planner annotation of one rule, stored on
/// [`RulePlan::opt`].
#[derive(Debug, Clone, Default)]
pub struct RuleOpt {
    /// One entry per plan step, in plan order.
    pub steps: Vec<StepMeta>,
    /// Split-correctness verdict: may the rule's firings be sharded by
    /// document and evaluated on worker threads?
    pub split: SplitClass,
}

/// Compile-time split-correctness classification of one rule (after
/// Doleschal et al.: a program split that evaluates each document
/// independently is *split-correct* when the per-document unions equal
/// the whole-corpus result).
///
/// The analysis is conservative: a rule is `Parallel` only when every
/// IE call is rooted at a single scan variable (the *document
/// variable*), so partitioning binding rows by that variable's document
/// provably commutes with the remaining steps. Everything else —
/// aggregation (which folds across documents), uncacheable IE calls
/// (order-sensitive), cross-document joins feeding IE — falls back to
/// the serial path with a human-readable reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitClass {
    /// Shard-parallel: binding rows may be partitioned on `doc_var`
    /// (a plan variable index) and evaluated per shard.
    Parallel {
        /// Index of the document variable the shards partition on.
        doc_var: usize,
    },
    /// Serial fallback, with the reason the analysis rejected sharding.
    Serial {
        /// Human-readable rejection reason (surfaced by `ShardPlan`).
        reason: &'static str,
    },
}

impl Default for SplitClass {
    fn default() -> Self {
        SplitClass::Serial {
            reason: "unclassified",
        }
    }
}

impl SplitClass {
    /// Whether the rule may run shard-parallel.
    pub fn is_parallel(&self) -> bool {
        matches!(self, SplitClass::Parallel { .. })
    }
}

fn term_vars(terms: &[PTerm], out: &mut Vec<usize>) {
    for t in terms {
        if let PTerm::Var(v) = t {
            if !out.contains(v) {
                out.push(*v);
            }
        }
    }
}

/// Computes and stores the scheduling metadata for `plan`. Called once
/// from `CompiledProgram::compile`; plans without the annotation (e.g.
/// hand-built) simply execute in textual order.
pub fn annotate(plan: &mut RulePlan, registry: &Registry) {
    let steps: Vec<StepMeta> = plan
        .steps
        .iter()
        .map(|step| {
            let mut meta = StepMeta::default();
            match step {
                Step::Scan { terms, .. } => term_vars(terms, &mut meta.binds),
                Step::Ie {
                    function,
                    inputs,
                    outputs,
                } => {
                    term_vars(inputs, &mut meta.needs);
                    term_vars(outputs, &mut meta.binds);
                    // Unknown functions stay conservative barriers; the
                    // execute-time registry lookup reports the error.
                    meta.barrier = registry
                        .ie(function)
                        .map(|f| !f.cacheable())
                        .unwrap_or(true);
                }
                Step::Negation { terms, .. } => term_vars(terms, &mut meta.needs),
                Step::Compare { left, op: _, right } => {
                    term_vars(std::slice::from_ref(left), &mut meta.needs);
                    term_vars(std::slice::from_ref(right), &mut meta.needs);
                }
            }
            meta
        })
        .collect();
    let split = classify(plan, &steps);
    plan.opt = Some(RuleOpt { steps, split });
}

/// Split-correctness analysis (see [`SplitClass`]). Walks the body in
/// textual order tracing each variable back to the scan that *roots*
/// it: scans root their own variables, IE outputs inherit the root of
/// the IE inputs. A rule shards cleanly iff every IE call is fed from
/// exactly one root — that root's first IE input variable becomes the
/// document variable the shards partition on.
fn classify(plan: &RulePlan, metas: &[StepMeta]) -> SplitClass {
    if plan.has_aggregation() {
        return SplitClass::Serial {
            reason: "aggregation folds across documents",
        };
    }
    if metas.iter().any(|m| m.barrier) {
        return SplitClass::Serial {
            reason: "order-sensitive (uncacheable) IE call",
        };
    }
    if !plan.steps.iter().any(|s| matches!(s, Step::Ie { .. })) {
        return SplitClass::Serial {
            reason: "no IE step to parallelize",
        };
    }
    // For each variable: the index of the scan step that (transitively)
    // produced it, or `None` while unbound.
    let mut var_root: Vec<Option<usize>> = vec![None; plan.var_names.len()];
    let mut ie_root: Option<usize> = None;
    let mut doc_var: Option<usize> = None;
    for (i, step) in plan.steps.iter().enumerate() {
        match step {
            Step::Scan { terms, .. } => {
                for t in terms {
                    if let PTerm::Var(v) = t {
                        if let Some(slot) = var_root.get_mut(*v) {
                            if slot.is_none() {
                                *slot = Some(i);
                            }
                        }
                    }
                }
            }
            Step::Ie {
                inputs, outputs, ..
            } => {
                let mut roots: Vec<usize> = Vec::new();
                let mut first_var: Option<usize> = None;
                for t in inputs {
                    if let PTerm::Var(v) = t {
                        first_var.get_or_insert(*v);
                        match var_root.get(*v).copied().flatten() {
                            Some(r) => {
                                if !roots.contains(&r) {
                                    roots.push(r);
                                }
                            }
                            None => {
                                return SplitClass::Serial {
                                    reason: "IE input not rooted at a scan",
                                }
                            }
                        }
                    }
                }
                let root = match roots[..] {
                    [] => {
                        return SplitClass::Serial {
                            reason: "IE call with constant-only inputs",
                        }
                    }
                    [r] => r,
                    _ => {
                        return SplitClass::Serial {
                            reason: "cross-document join feeds an IE call",
                        }
                    }
                };
                match ie_root {
                    None => {
                        ie_root = Some(root);
                        doc_var = first_var;
                    }
                    Some(r) if r != root => {
                        return SplitClass::Serial {
                            reason: "IE calls rooted at different scans",
                        }
                    }
                    Some(_) => {}
                }
                for t in outputs {
                    if let PTerm::Var(v) = t {
                        if let Some(slot) = var_root.get_mut(*v) {
                            if slot.is_none() {
                                *slot = Some(root);
                            }
                        }
                    }
                }
            }
            Step::Negation { .. } | Step::Compare { .. } => {}
        }
    }
    match doc_var {
        Some(doc_var) => SplitClass::Parallel { doc_var },
        None => SplitClass::Serial {
            reason: "IE call with constant-only inputs",
        },
    }
}

/// Assumed output rows per input row of a cacheable IE call — a handful
/// of matches per document. Scans estimating a larger fan-out run after
/// the IE call; smaller ones run before it.
const IE_FANOUT: usize = 4;

/// Estimated cost of running `step` next given the currently bound
/// variables: the approximate number of result rows per input row.
fn step_cost(
    step: &Step,
    index: usize,
    bound: &[bool],
    scan_rows: &mut dyn FnMut(usize) -> usize,
) -> usize {
    match step {
        // Pure filters can only shrink the row set.
        Step::Compare { .. } => 0,
        Step::Negation { .. } => 1,
        Step::Ie { .. } => IE_FANOUT,
        Step::Scan { terms, .. } => {
            let n = scan_rows(index);
            // Each bound join column is assumed ~8x selective.
            let k = terms
                .iter()
                .filter(|t| match t {
                    PTerm::Const(_) => true,
                    PTerm::Var(v) => bound.get(*v).copied().unwrap_or(false),
                    PTerm::Wildcard => false,
                })
                .count();
            if k == 0 {
                n
            } else {
                (n >> (3 * k).min(63)).max(1)
            }
        }
    }
}

/// Greedily orders the steps of `plan` by estimated cost, returning a
/// permutation of the original step indices. `scan_rows(i)` reports the
/// (delta-aware) cardinality of the relation scanned by step `i`.
///
/// Steps become *runnable* once their needed variables are bound;
/// uncacheable IE calls split the body into segments that are ordered
/// independently, so nothing migrates across them. The permutation
/// always exists: the textual order itself satisfies the binding
/// invariant, so the lowest unscheduled original index is runnable at
/// every point (ties prefer it, keeping the choice deterministic).
pub fn order_steps(
    plan: &RulePlan,
    opt: &RuleOpt,
    mut scan_rows: impl FnMut(usize) -> usize,
) -> Vec<usize> {
    let n = plan.steps.len();
    if n <= 1 || opt.steps.len() != n {
        return (0..n).collect();
    }
    let mut order = Vec::with_capacity(n);
    let mut bound = vec![false; plan.var_names.len()];
    let mut emitted = vec![false; n];
    // Segment boundaries: barriers pin themselves and fence both sides.
    let mut lo = 0;
    while lo < n {
        let hi = (lo..n).find(|&i| opt.steps[i].barrier).unwrap_or(n);
        // Order the pure segment [lo, hi).
        while order.len() < hi {
            let mut best: Option<(usize, usize)> = None;
            for (i, &done) in emitted.iter().enumerate().take(hi).skip(lo) {
                if done {
                    continue;
                }
                let meta = &opt.steps[i];
                if !meta.needs.iter().all(|&v| bound.get(v) == Some(&true)) {
                    continue;
                }
                let cost = step_cost(&plan.steps[i], i, &bound, &mut scan_rows);
                if best.is_none_or(|(c, _)| cost < c) {
                    best = Some((cost, i));
                }
            }
            // Unreachable for safety-produced plans; bail out to textual
            // order for anything malformed (execute reports the error).
            let Some((_, pick)) = best else {
                return (0..n).collect();
            };
            emitted[pick] = true;
            for &v in &opt.steps[pick].binds {
                if let Some(b) = bound.get_mut(v) {
                    *b = true;
                }
            }
            order.push(pick);
        }
        // Emit the barrier itself in place.
        if hi < n {
            emitted[hi] = true;
            for &v in &opt.steps[hi].binds {
                if let Some(b) = bound.get_mut(v) {
                    *b = true;
                }
            }
            order.push(hi);
        }
        lo = hi + 1;
    }
    order
}

/// Renders a chosen order as a one-line plan description for the trace,
/// e.g. `Docs[3] ⋈ rgx → Mentions[1200]` with estimated input
/// cardinalities. `moved` marks steps that left their textual position.
pub fn describe(
    plan: &RulePlan,
    order: &[usize],
    mut scan_rows: impl FnMut(usize) -> usize,
) -> String {
    let parts: Vec<String> = order
        .iter()
        .enumerate()
        .map(|(pos, &i)| {
            let moved = pos != i;
            let tag = |s: String| if moved { format!("{s}*") } else { s };
            match &plan.steps[i] {
                Step::Scan { relation, .. } => tag(format!("{relation}[{}]", scan_rows(i))),
                Step::Ie { function, .. } => tag(format!("{function}()")),
                Step::Negation { relation, .. } => tag(format!("!{relation}")),
                Step::Compare { .. } => tag("cmp".to_string()),
            }
        })
        .collect();
    parts.join(" ⋈ ")
}

/// An owned hash index over one relation: the projection on a fixed
/// set of key columns → the tuples with that projection. Owned (values
/// are `Arc`-backed, so clones are cheap) because a cached index
/// outlives the borrow of the relation it was built from.
pub type TupleIndex = FxHashMap<Vec<Value>, Vec<Tuple>>;

/// Indexes `rel` on `key_cols`.
pub fn build_index(rel: &Relation, key_cols: &[usize]) -> TupleIndex {
    let mut index = TupleIndex::default();
    for tuple in rel.iter() {
        let key = key_cols.iter().map(|&c| tuple[c].clone()).collect();
        index.entry(key).or_default().push(tuple.clone());
    }
    index
}

/// Per-evaluation memo of [`build_index`] (see module docs for why the
/// row count is a sound within-run generation stand-in).
#[derive(Debug, Default)]
pub struct IndexCache {
    entries: FxHashMap<(String, usize, Vec<usize>), Rc<TupleIndex>>,
    /// Requests answered from the cache.
    pub hits: u64,
    /// Indexes built (cache misses).
    pub builds: u64,
}

impl IndexCache {
    /// The index of `rel` (stored under the name `relation`) on
    /// `key_cols`, built on first request.
    pub fn index(&mut self, relation: &str, rel: &Relation, key_cols: &[usize]) -> Rc<TupleIndex> {
        let key = (relation.to_string(), rel.len(), key_cols.to_vec());
        if let Some(index) = self.entries.get(&key) {
            self.hits += 1;
            return index.clone();
        }
        self.builds += 1;
        let index = Rc::new(build_index(rel, key_cols));
        self.entries.insert(key, index.clone());
        index
    }
}

/// `(relation, key columns)`.
type IndexKey = (String, Vec<usize>);

/// The [`build_index`] memo of one *frozen* database: what
/// [`IndexCache`] is to an evaluation run, a `Snapshot` and its clones
/// share one of these across reader threads. Nothing under it mutates,
/// so the key needs no generation; each `(relation, key columns)` index
/// is built at most once, under the write lock, and probed under the
/// read lock from then on.
#[derive(Debug, Default)]
pub struct SharedIndexes {
    entries: RwLock<FxHashMap<IndexKey, Arc<TupleIndex>>>,
    builds: AtomicU64,
}

impl SharedIndexes {
    /// The index of `rel` (stored under the name `relation`) on
    /// `key_cols`, built on first request.
    pub fn index(&self, relation: &str, rel: &Relation, key_cols: &[usize]) -> Arc<TupleIndex> {
        // The map only ever gains finished entries, so a lock poisoned
        // by a panicking builder still guards a valid map.
        let key = (relation.to_string(), key_cols.to_vec());
        let entries = self.entries.read().unwrap_or_else(PoisonError::into_inner);
        if let Some(index) = entries.get(&key) {
            return index.clone();
        }
        drop(entries);
        let mut entries = self.entries.write().unwrap_or_else(PoisonError::into_inner);
        entries
            .entry(key)
            .or_insert_with(|| {
                self.builds.fetch_add(1, Ordering::Relaxed);
                Arc::new(build_index(rel, key_cols))
            })
            .clone()
    }

    /// Indexes built so far.
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }
}
