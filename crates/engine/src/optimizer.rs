//! The body scheduler — safety analysis and cost-based planning are
//! one greedy loop at two costs — and per-execution index reuse.
//!
//! A body order is *safe* when every step's needed variables are bound
//! by the steps before it (paper §3.1), and `schedule` is the only
//! loop that picks a next step: the runnable one of least cost, ties to
//! the lowest index.
//!
//! * [`crate::safety`] calls it once per rule at **uniform cost**: the
//!   lexicographically least safe order of the body as written, which
//!   the plan stores its steps in; a body without one is an unsafe
//!   rule. It schedules by each step's [`StepMeta`]: the variables the
//!   step **needs** bound and those it can **bind**, read off the step.
//! * `order_steps` calls it per rule firing, when cardinalities are
//!   known, at the **cardinality cost**: filters first, then IE calls,
//!   then scans by estimated fan-out (relation size discounted per
//!   bound join column). It derives the metadata again from the plan's
//!   steps, whose stored order is safe, so it always finds an order.
//! * [`IndexCache`] keeps the hash indexes keyed scan joins and
//!   anti-joins probe ([`TupleIndex`]: key → row ids, ascending) alive
//!   for a whole evaluation run — and, after a maintained one, for the
//!   next — one per `(relation, key columns)`. Relations mostly grow
//!   (derived inserts append to the arena), so row ids are stable and an
//!   index is *extended* by the rows appended since it was last asked
//!   for: fixpoint rounds, sibling rules, shards and maintained
//!   evaluations share it, and a recursive relation is never re-indexed
//!   from its first row. A scan over a range of the relation — a delta,
//!   a shard's cut — probes the same index and keeps the ids inside its
//!   range. A relation that is replaced drops its indexes; one that
//!   loses rows renumbers them.
//!
//! Every safe order is observationally equivalent: scans, negations
//! and comparisons are pure, IE functions are stateless mappings of
//! their inputs (§3.3) however often they are called, joins
//! commute, and the head projection works on set semantics. The
//! model-based property test (`crates/engine/tests/properties.rs`)
//! holds every order the planner picks to a reference evaluator of the
//! tests' own, which runs bodies as nested loops in textual order.

use crate::plan::{PTerm, RulePlan, Step};
use crate::share::is_auxiliary;
use rustc_hash::FxHashMap;
use spannerlib_core::{hash_cells, Relation, RowTable, Rows, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// Per-step scheduling metadata, as `schedule` reads it.
#[derive(Debug, Clone, Default)]
pub struct StepMeta {
    /// Variables that must already be bound for the step to run.
    pub needs: Vec<usize>,
    /// Variables the step can bind.
    pub binds: Vec<usize>,
}

impl StepMeta {
    /// What `step` needs bound and what it binds.
    pub fn of(step: &Step) -> StepMeta {
        let mut meta = StepMeta::default();
        match step {
            Step::Scan { terms, .. } => term_vars(terms, &mut meta.binds),
            Step::Ie {
                inputs, outputs, ..
            } => {
                term_vars(inputs, &mut meta.needs);
                term_vars(outputs, &mut meta.binds);
            }
            Step::Negation { terms, .. } => term_vars(terms, &mut meta.needs),
            Step::Compare { left, op: _, right } => {
                term_vars(std::slice::from_ref(left), &mut meta.needs);
                term_vars(std::slice::from_ref(right), &mut meta.needs);
            }
        }
        meta
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

/// Assumed output rows per input row of an IE call — a handful of
/// matches per document. Scans estimating a larger fan-out run after
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
        Step::Scan { relation, terms } => {
            let n = scan_rows(index);
            // Each bound join column is assumed ~8x selective.
            let k = terms
                .iter()
                .filter(|t| match t {
                    PTerm::Const(_) => true,
                    PTerm::Var(v) => bound[*v],
                    PTerm::Wildcard => false,
                })
                .count();
            // Every column bound: a membership test, at most one row. A
            // shared IE call's relation, keyed, answers what the call
            // did, and costs no more than it (`crate::share`).
            match k {
                0 => n,
                k if k == terms.len() => n.min(1),
                _ if is_auxiliary(relation) => (n >> (3 * k).min(63)).clamp(1, IE_FANOUT),
                k => (n >> (3 * k).min(63)).max(1),
            }
        }
    }
}

/// The scheduler: an order of the steps `metas` describes in which
/// every step's needed variables are bound by the steps before it. Each
/// pick is the runnable step of least `cost(step, bound variables)`,
/// ties to the lowest index; when none is runnable no such order
/// exists, and the pending steps come back as the error.
pub(crate) fn schedule(
    metas: &[StepMeta],
    n_vars: usize,
    mut cost: impl FnMut(usize, &[bool]) -> usize,
) -> Result<Vec<usize>, Vec<usize>> {
    let mut order = Vec::with_capacity(metas.len());
    let mut bound = vec![false; n_vars];
    let mut pending: Vec<usize> = (0..metas.len()).collect();
    while !pending.is_empty() {
        let is_bound = |v: &usize| bound[*v];
        let runnable = pending
            .iter()
            .enumerate()
            .filter(|&(_, &i)| metas[i].needs.iter().all(is_bound));
        // `min_by_key` keeps the first of equal minima: the lowest index.
        let Some((at, _)) = runnable.min_by_key(|&(_, &i)| cost(i, &bound)) else {
            return Err(pending);
        };
        let pick = pending.remove(at);
        metas[pick].binds.iter().for_each(|&v| bound[v] = true);
        order.push(pick);
    }
    Ok(order)
}

/// Orders the steps of `plan` for one firing: [`schedule`] at the
/// cardinality cost, `rows(i)` being the (delta-aware) cardinality of
/// the relation step `i` scans.
pub(crate) fn order_steps(plan: &RulePlan, mut rows: impl FnMut(usize) -> usize) -> Vec<usize> {
    let metas: Vec<StepMeta> = plan.steps.iter().map(StepMeta::of).collect();
    let cost = |i: usize, bound: &[bool]| step_cost(&plan.steps[i], i, bound, &mut rows);
    schedule(&metas, plan.var_names.len(), cost)
        .expect("a compiled plan stores its steps in a safe order, so one exists")
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
    groups: Vec<Ids>,
}

/// The row ids of one key, ascending. Most keys of most indexes — a
/// sentence, a document — have one row, which takes no allocation.
#[derive(Debug, Clone)]
enum Ids {
    One(usize),
    Many(Vec<usize>),
}

impl Ids {
    fn as_slice(&self) -> &[usize] {
        match self {
            Ids::One(id) => std::slice::from_ref(id),
            Ids::Many(ids) => ids,
        }
    }
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
            let (groups, key_cols) = (&self.groups, &self.key_cols);
            let same_key = |g: usize| {
                let first = rows.row(groups[g].as_slice()[0]);
                key_cols.iter().all(|&c| first[c] == row[c])
            };
            match self.keys.find_or_insert(hash, self.groups.len(), same_key) {
                Some(g) => match &mut self.groups[g] {
                    Ids::One(first) => self.groups[g] = Ids::Many(vec![*first, id]),
                    Ids::Many(ids) => ids.push(id),
                },
                None => self.groups.push(Ids::One(id)),
            }
            self.end = id + 1;
        }
    }

    /// The number of distinct keys.
    pub(crate) fn len(&self) -> usize {
        self.groups.len()
    }

    /// The row ids of the `g`th distinct key, keys by first appearance.
    pub(crate) fn group(&self, g: usize) -> &[usize] {
        self.groups[g].as_slice()
    }

    /// Follows its store through a renumbering: `new_ids[id]` is the new
    /// id of row `id`, `None` once it is gone, and the kept rows keep
    /// their order. No key is hashed again.
    pub(crate) fn renumber(&mut self, new_ids: &[Option<usize>]) {
        let mut new_group = Vec::with_capacity(self.groups.len());
        let mut kept = 0;
        let renumbered = |id: &mut usize| new_ids[*id].map(|new| *id = new).is_some();
        self.groups.retain_mut(|ids| {
            let keeps = match ids {
                Ids::One(id) => renumbered(id),
                Ids::Many(ids) => {
                    ids.retain_mut(renumbered);
                    !ids.is_empty()
                }
            };
            new_group.push(keeps.then_some(kept));
            kept += usize::from(keeps);
            keeps
        });
        self.keys = self.keys.renumber(|g| new_group[g]);
        self.end = new_ids[..self.end].iter().flatten().count();
    }

    /// The ids of the rows whose key is `key`: a cell per key column.
    pub fn get<'a>(&self, rows: &Rows, key: impl Iterator<Item = &'a Value> + Clone) -> &[usize] {
        let group = self.keys.find(hash_cells(key.clone()), |g| {
            let first = rows.row(self.group(g)[0]);
            self.key_cols.iter().map(|&c| &first[c]).eq(key.clone())
        });
        group.map_or(&[], |g| self.group(g))
    }
}

/// `(relation, key columns)`.
type IndexKey = (String, Vec<usize>);

/// The hash indexes over one database's relations: a `Database` carries
/// one, which its evaluation runs borrow and a maintained run hands on to
/// the next, and a `Snapshot` and its clones share one across reader
/// threads. Relations
/// only grow while a run executes (see the module docs; a maintained run
/// renumbers what it shrinks) and not at all once frozen, so no index is
/// ever rebuilt: a request that finds one short of the relation's rows
/// extends it, under the write lock — in place unless a clone of the
/// cache shares it; every other request takes the read lock only.
#[derive(Debug, Default)]
pub struct IndexCache {
    entries: RwLock<FxHashMap<IndexKey, Arc<TupleIndex>>>,
    hits: AtomicU64,
    builds: AtomicU64,
}

impl Clone for IndexCache {
    /// The same indexes — shared until either cache changes one — and no
    /// requests counted yet.
    fn clone(&self) -> Self {
        let entries = self.entries.read().unwrap_or_else(PoisonError::into_inner);
        IndexCache {
            entries: RwLock::new(entries.clone()),
            ..IndexCache::default()
        }
    }
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

    /// Drops every index of `relation`, whose rows were replaced.
    pub(crate) fn forget(&self, relation: &str) {
        let mut entries = self.entries.write().unwrap_or_else(PoisonError::into_inner);
        entries.retain(|(name, _), _| name != relation);
    }

    /// Follows `relation` through a renumbering of its rows (see
    /// [`TupleIndex::renumber`]).
    pub(crate) fn renumber(&self, relation: &str, new_ids: &[Option<usize>]) {
        let mut entries = self.entries.write().unwrap_or_else(PoisonError::into_inner);
        for ((name, _), index) in entries.iter_mut() {
            if name == relation {
                Arc::make_mut(index).renumber(new_ids);
            }
        }
    }

    /// Drops every index, so that the indexes a clone of this cache
    /// shares with it are the clone's alone, to extend and renumber in
    /// place.
    pub(crate) fn clear(&self) {
        let mut entries = self.entries.write().unwrap_or_else(PoisonError::into_inner);
        entries.clear();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer;
    use crate::plan::tests::{colliding_ints, safe_plan};
    use proptest::prelude::*;
    use spannerlib_core::{Schema, Tuple, ValueType};

    /// Extends `order` to the lexicographically least order of `0..n`
    /// whose every prefix `is_safe`, by exhaustive search.
    fn least_safe_order(
        n: usize,
        is_safe: &dyn Fn(&[usize]) -> bool,
        order: &mut Vec<usize>,
    ) -> bool {
        if order.len() == n {
            return true;
        }
        for i in (0..n).filter(|i| !order.contains(i)).collect::<Vec<_>>() {
            order.push(i);
            if is_safe(order) && least_safe_order(n, is_safe, order) {
                return true;
            }
            order.pop();
        }
        false
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The one scheduler, held to the definition over bodies written
        /// in any order — IE steps included, which can leave a body
        /// without a safe order: at uniform cost (safety analysis) it
        /// returns the lexicographically least order with `needs ⊆
        /// bound` at every step and is stuck iff there is none; at the
        /// cardinality cost (a firing, whose body has a safe order) its
        /// order is a permutation with the same invariant.
        #[test]
        fn one_scheduler_serves_safety_and_planning(
            arities in prop::collection::vec(1usize..4, 3),
            atoms in prop::collection::vec(
                (0usize..3, prop::collection::vec((0u8..6, 0usize..5), 3), any::<bool>()), 1..3),
            compares in prop::collection::vec((0usize..4, 0u8..12, 0usize..5), 0..3),
            ies in prop::collection::vec(
                (prop::collection::vec(0usize..6, 0..3), prop::collection::vec(0usize..6, 0..3)), 0..4),
            keys in prop::collection::vec(any::<u8>(), 7),
            sizes in prop::collection::vec(0usize..5000, 7),
        ) {
            let mut plan = safe_plan(&arities, &atoms, &compares, &[], &colliding_ints());
            // Variables 4 and 5 are bound by IE outputs or not at all.
            plan.var_names = (0..6).map(|v| format!("v{v}")).collect();
            let vars = |vs: &Vec<usize>| vs.iter().map(|&v| PTerm::Var(v)).collect();
            plan.steps.extend(ies.iter().map(|(inputs, outputs)| Step::Ie {
                function: "f".into(),
                inputs: vars(inputs),
                outputs: vars(outputs),
            }));
            let mut keyed: Vec<(u8, Step)> = keys.into_iter().zip(plan.steps).collect();
            keyed.sort_by_key(|(key, _)| *key);
            plan.steps = keyed.into_iter().map(|(_, step)| step).collect();

            let metas: Vec<StepMeta> = plan.steps.iter().map(StepMeta::of).collect();
            let is_safe = |order: &[usize]| {
                let mut bound = [false; 6];
                order.iter().all(|&i| {
                    let runnable = metas[i].needs.iter().all(|&v| bound[v]);
                    metas[i].binds.iter().for_each(|&v| bound[v] = true);
                    runnable
                })
            };
            let n = metas.len();
            let mut least = Vec::new();
            let exists = least_safe_order(n, &is_safe, &mut least);
            match optimizer::schedule(&metas, 6, |_, _| 0) {
                Ok(order) => prop_assert_eq!((exists, &order), (true, &least), "{:?}", plan.steps),
                Err(pending) => prop_assert!(!exists, "stuck on {:?} of {:?}", pending, plan.steps),
            }
            // A firing's plan is compiled: a safe order exists.
            if exists {
                let planned = optimizer::order_steps(&plan, |i| sizes[i]);
                let mut sorted = planned.clone();
                sorted.sort_unstable();
                prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
                prop_assert!(is_safe(&planned), "{:?} of {:?}", planned, plan.steps);
            }
        }
    }

    /// An index carried through a removal answers every key as one built
    /// over the rows left — groups that lose every row included — and
    /// keeps taking in rows appended after.
    #[test]
    fn a_renumbered_index_equals_a_rebuilt_one() {
        let row = |k: i64, v: i64| Tuple::new([Value::Int(k), Value::Int(v)]);
        let schema = Schema::new(vec![ValueType::Int; 2]);
        let tuples = (0..40).map(|v| row(v % 7, v));
        let mut rel = Relation::from_tuples(schema, tuples).unwrap();
        let mut index = TupleIndex::build(rel.rows(), 0..30, &[0]);
        let new_ids = rel.retain(|_, r| r[0] != Value::Int(3) && r[1].as_int().unwrap() % 5 != 0);
        index.renumber(&new_ids);
        rel.insert(row(3, 100)).unwrap();
        index.extend(rel.rows(), rel.len());
        let rebuilt = TupleIndex::build(rel.rows(), 0..rel.len(), &[0]);
        for k in 0..8 {
            let key = [Value::Int(k)];
            let ids = |ix: &TupleIndex| ix.get(rel.rows(), key.iter()).to_vec();
            assert_eq!(ids(&index), ids(&rebuilt), "key {k}");
        }
    }
}
