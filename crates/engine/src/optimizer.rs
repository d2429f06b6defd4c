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
//! * [`IndexCache`] keeps the hash indexes keyed scan joins probe
//!   ([`TupleIndex`]: key → row ids) alive for the whole evaluation
//!   run, one per `(relation, key columns)`. Within one run relations
//!   only grow (their extensional generation is fixed and derived
//!   inserts append to the arena), so row ids are stable and an index
//!   is *extended* by the rows appended since it was last asked for:
//!   fixpoint rounds and sibling rules share it, and a recursive
//!   relation is never re-indexed from its first row.
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
use spannerlib_core::{hash_cells, Relation, RowTable, Rows, Value};
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

/// A hash index over a run of consecutive rows of one row store: the
/// projection on the key columns → the ids of the rows with it,
/// ascending. It holds row ids, never cells — keys are hashed and
/// compared in the store, which every call is handed again — so it
/// stays valid while the store only grows.
#[derive(Debug, Clone, Default)]
pub struct TupleIndex {
    key_cols: Vec<usize>,
    /// The next row id to take in.
    end: usize,
    /// Group numbers, under the hash of the group's key.
    keys: RowTable,
    /// Per distinct key, in order of first appearance: its row ids.
    groups: Vec<Vec<usize>>,
}

impl TupleIndex {
    /// Indexes the rows of `rows` with ids in `range` on `key_cols`.
    pub fn build(rows: &Rows, range: std::ops::Range<usize>, key_cols: &[usize]) -> TupleIndex {
        let mut index = TupleIndex {
            key_cols: key_cols.to_vec(),
            end: range.start,
            ..TupleIndex::default()
        };
        index.extend(rows, range.end);
        index
    }

    /// Takes in the rows up to id `end` that are not indexed yet.
    pub fn extend(&mut self, rows: &Rows, end: usize) {
        for id in self.end..end {
            let row = rows.row(id);
            let hash = hash_cells(self.key_cols.iter().map(|&c| &row[c]));
            let same_key = |g: usize| {
                let first = rows.row(self.groups[g][0]);
                self.key_cols.iter().all(|&c| first[c] == row[c])
            };
            match self.keys.find_or_insert(hash, self.groups.len(), same_key) {
                Some(g) => self.groups[g].push(id),
                None => self.groups.push(vec![id]),
            }
            self.end = id + 1;
        }
    }

    /// The row ids of every distinct key, keys by first appearance.
    pub fn groups(&self) -> &[Vec<usize>] {
        &self.groups
    }

    /// The ids of the rows whose key is `key`: a cell per key column.
    pub fn get<'a>(&self, rows: &Rows, key: impl Iterator<Item = &'a Value> + Clone) -> &[usize] {
        let group = self.keys.find(hash_cells(key.clone()), |g| {
            let first = rows.row(self.groups[g][0]);
            self.key_cols.iter().map(|&c| &first[c]).eq(key.clone())
        });
        group.map_or(&[], |g| &self.groups[g])
    }
}

/// `(relation, key columns)`.
type IndexKey = (String, Vec<usize>);

/// The hash indexes over one database's relations: an evaluation run
/// has one, and a `Snapshot` and its clones share one across reader
/// threads. Relations only grow while a run executes (see the module
/// docs) and not at all once frozen, so no index is ever rebuilt: a
/// request that finds one short of the relation's rows extends it, under
/// the write lock — in place, as nothing holds an index from one firing
/// to the next; every other request takes the read lock only.
#[derive(Debug, Default)]
pub struct IndexCache {
    entries: RwLock<FxHashMap<IndexKey, Arc<TupleIndex>>>,
    hits: AtomicU64,
    builds: AtomicU64,
}

impl IndexCache {
    /// The index of `rel` (stored under the name `relation`) on
    /// `key_cols`, covering every row `rel` holds now.
    pub fn index(&self, relation: &str, rel: &Relation, key_cols: &[usize]) -> Arc<TupleIndex> {
        // Indexes take in rows one at a time, so a lock poisoned by a
        // panicking builder still guards a valid map.
        let key = (relation.to_string(), key_cols.to_vec());
        let entries = self.entries.read().unwrap_or_else(PoisonError::into_inner);
        if let Some(index) = entries.get(&key).filter(|ix| ix.end == rel.len()) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return index.clone();
        }
        drop(entries);
        let mut entries = self.entries.write().unwrap_or_else(PoisonError::into_inner);
        let found = match entries.contains_key(&key) {
            true => &self.hits,
            false => &self.builds,
        };
        found.fetch_add(1, Ordering::Relaxed);
        let empty = || Arc::new(TupleIndex::build(rel.rows(), 0..0, key_cols));
        let index = entries.entry(key).or_insert_with(empty);
        if index.end < rel.len() {
            Arc::make_mut(index).extend(rel.rows(), rel.len());
        }
        index.clone()
    }

    /// Requests answered by an index that already existed.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Indexes created.
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }
}
