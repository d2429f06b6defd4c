//! Compiled rule plans and their execution.
//!
//! A [`RulePlan`] is a rule whose body has been scheduled by the safety
//! checker ([`crate::safety`]) into an executable pipeline over *binding
//! rows* — partial assignments of the rule's variables. Each [`Step`]
//! either extends the bindings (relation scan-join, IE call) or filters
//! them (negation, comparison, zero-output IE call).
//!
//! The pipeline runs batch-at-a-time over flat storage: a step's binding
//! rows are one [`Rows`] of `rows × n_vars` cells, a scan reads the
//! relation's arena (or a delta: a range of its row ids), and the head
//! projection writes one more flat batch for the evaluator to insert. A
//! batch holds no row twice — so a per-row builtin runs once per
//! distinct binding — but only the steps that can *create* a repeat
//! pay for a dedupe: a scan with a `_` column, and every IE step. The
//! others map distinct rows to distinct rows, and the head relation's
//! insert catches what the projection folds.
//!
//! Every step maps one binding row to rows, against relations that are
//! complete while the rule fires. Any firing is therefore cut into
//! *shards* — ranges of the row ids one of its scans reads — each of
//! which runs scan, IE calls and head projection on one lane, start to
//! finish (`run_sharded`); an aggregate head folds every shard's rows
//! once, on the caller.
//!
//! Only the engine builds the plans that run ([`crate::safety::analyze`],
//! and maintenance's copies with a scan added), in a safe step order:
//! the executor relies on every variable it reads being bound.

use crate::error::{EngineError, Result};
use crate::ie::SharedDocs;
use crate::ie_join::ie_join;
use crate::optimizer::{self, IndexCache, TupleIndex};
use crate::registry::Registry;
use crate::shard::{fold_aggregates, project_head, run_sharded, shard_scan};
use rustc_hash::FxHashMap;
use spannerlib_core::{Relation, RowTable, Rows, Value};
use spannerlib_trace::RunTrace;
use spannerlog_parser::CmpOp;
use std::ops::Range;

/// A term resolved against the rule's variable table.
#[derive(Debug, Clone, PartialEq)]
pub enum PTerm {
    /// Variable with index into the binding row.
    Var(usize),
    /// A constant value.
    Const(Value),
    /// `_` — matches anything, binds nothing.
    Wildcard,
}

/// One pipeline step.
#[derive(Debug, Clone)]
pub enum Step {
    /// Join current bindings with a stored relation.
    Scan {
        /// Relation to scan.
        relation: String,
        /// One term per relation column.
        terms: Vec<PTerm>,
    },
    /// Call an IE function for each binding row and join its output.
    Ie {
        /// Function name (for diagnostics).
        function: String,
        /// Input terms (bound vars / constants — guaranteed by safety).
        inputs: Vec<PTerm>,
        /// Output terms (new vars bind; bound vars/constants filter).
        outputs: Vec<PTerm>,
    },
    /// Drop rows for which a matching tuple exists.
    Negation {
        /// Relation that must *not* contain a match.
        relation: String,
        /// One term per column (all vars bound; wildcards allowed).
        terms: Vec<PTerm>,
    },
    /// Drop rows failing a comparison (all vars bound).
    Compare {
        /// Left operand.
        left: PTerm,
        /// Operator.
        op: CmpOp,
        /// Right operand.
        right: PTerm,
    },
}

/// A head output column.
#[derive(Debug, Clone)]
pub enum HeadOut {
    /// Project a bound variable.
    Var(usize),
    /// Emit a constant.
    Const(Value),
    /// Aggregate a variable within each group.
    Aggregate {
        /// Aggregation function name.
        func: String,
        /// Conversion chain as written (outermost first).
        conversions: Vec<String>,
        /// Index of the aggregated variable.
        var: usize,
    },
}

/// An executable rule.
#[derive(Debug, Clone)]
pub struct RulePlan {
    /// Head predicate.
    pub head_predicate: String,
    /// Ordered pipeline.
    pub steps: Vec<Step>,
    /// Head projection (aggregates trigger the group-by path).
    pub head: Vec<HeadOut>,
    /// Variable names by index (diagnostics).
    pub var_names: Vec<String>,
    /// Source line of the rule.
    pub line: usize,
    /// The rule's source text as reconstructed by the parser
    /// (diagnostics: limit attribution, trace labels).
    pub source: String,
    /// `(predicate, through_negation_or_aggregation)` dependencies for
    /// stratification.
    pub dependencies: Vec<(String, bool)>,
}

impl RulePlan {
    /// Whether the plan has any aggregate head column.
    pub fn has_aggregation(&self) -> bool {
        self.head
            .iter()
            .any(|h| matches!(h, HeadOut::Aggregate { .. }))
    }
}

/// A batch of binding rows. *Which* variables are bound is the same for
/// every row, so it is kept once; the other cells hold [`UNBOUND`].
pub(crate) struct Batch {
    pub(crate) rows: Rows,
    pub(crate) bound: Vec<bool>,
}

/// The filler in the cells of variables no step has bound yet.
static UNBOUND: Value = Value::Bool(false);

/// Candidate rows a join loop examines between two looks at the clock.
const DEADLINE_STRIDE: usize = 4096;

/// The execution environment of [`execute_with`], bundled so the
/// signature stays within clippy's argument budget.
pub(crate) struct ExecCtx<'a> {
    /// IE / aggregate / conversion registry.
    pub registry: &'a Registry,
    /// Per step, what its scan reads in place of every row of the
    /// relation it names (see [`Source`]); a scan without an entry reads
    /// them all.
    pub sources: &'a [(usize, Source<'a>)],
    /// The run's indexes of the relations its scans and negations read,
    /// shared with its shard workers. Only a scan of a seed, which is not
    /// the relation it names, builds an index of its own.
    pub indexes: &'a IndexCache,
    /// The document store, behind its lock for the whole evaluation.
    pub docs: &'a SharedDocs,
    /// Lanes a firing's shards run on, the calling thread included;
    /// below 2 a firing is one shard, on the calling thread.
    pub workers: usize,
    /// Wall-clock budget of the run (`EvalLimits::max_millis`), checked
    /// before each IE call and inside join loops; `None` = unlimited.
    pub deadline: Option<crate::eval::EvalDeadline>,
}

/// Where one [`execute_with`] call reports its trace data: the run's
/// collector and the rule's profiling handle.
pub(crate) struct TraceCtx<'a> {
    /// The evaluation run's collector.
    pub trace: &'a mut RunTrace,
    /// Handle from `RunTrace::register_rule` for the executing rule.
    pub rule: usize,
}

/// Executes `plan` against the given relations, returning the derived
/// head rows in pieces — one per shard, in shard order, each for
/// [`crate::Database::insert_derived`] to take in whole — repeats
/// included. `ctx.sources` restricts scans to runs of row ids or to
/// seeds; the planner costs each scan at the rows it reads. Join and
/// IE-batch work is reported through `tr`
/// (every call is a no-op when tracing is off).
///
/// A firing runs in three parts: on the caller the steps ordered before
/// the scan it shards (`shard_scan`); then that scan, every later step
/// and the head projection once per *shard* — a contiguous range of the
/// scanned relation's row ids (`run_sharded`); then, for an aggregate
/// head, the fold over every shard's rows, on the caller. A body with no
/// scan to shard runs whole on the caller.
pub(crate) fn execute_with(
    plan: &RulePlan,
    relations: &FxHashMap<String, Relation>,
    ctx: &ExecCtx<'_>,
    tr: &mut TraceCtx<'_>,
) -> Result<Vec<Rows>> {
    let n_vars = plan.var_names.len();
    let mut rows = Rows::new(n_vars);
    rows.push(std::iter::repeat_n(&UNBOUND, n_vars));
    let bound = vec![false; n_vars];
    let batch = Batch { rows, bound };

    // The rows the scan at step `i` reads — the planner's cost input
    // and the trace's estimate column.
    let scan_rows = |i: usize| match &plan.steps[i] {
        Step::Scan { relation, .. } => scan_source(i, relation, relations, ctx)
            .map_or(0, |(rel, source)| source.rows_of(rel).len()),
        _ => 0,
    };

    let order = optimizer::order_steps(plan, scan_rows);
    (tr.trace).plan_chosen(tr.rule, || optimizer::describe(plan, &order, scan_rows));
    let split_at = shard_scan(plan, &order).unwrap_or(order.len());

    let (prefix, sharded) = order.split_at(split_at);
    run_steps(plan, prefix, batch, relations, ctx, tr)
        .and_then(|batch| match sharded {
            [] => Ok(vec![project_head(plan, &batch)]),
            _ => run_sharded(plan, sharded, &batch, relations, ctx, tr),
        })
        .and_then(|pieces| fold_aggregates(plan, pieces, ctx.docs, ctx.registry))
}

impl Batch {
    /// Marks the variables `step` binds.
    pub(crate) fn bind(&mut self, step: &Step) {
        if let Step::Scan { terms, .. } | Step::Ie { outputs: terms, .. } = step {
            for t in terms {
                if let PTerm::Var(v) = t {
                    self.bound[*v] = true;
                }
            }
        }
    }
}

/// Runs the pipeline steps selected by `order` over `batch`: those a
/// firing runs before it shards, and those after its sharded scan once
/// per shard.
pub(crate) fn run_steps(
    plan: &RulePlan,
    order: &[usize],
    mut batch: Batch,
    relations: &FxHashMap<String, Relation>,
    ctx: &ExecCtx<'_>,
    tr: &mut TraceCtx<'_>,
) -> Result<Batch> {
    for &i in order {
        let step = &plan.steps[i];
        if batch.rows.is_empty() {
            batch.bind(step);
            continue;
        }
        match step {
            Step::Scan { relation, terms } => {
                let read = scan_source(i, relation, relations, ctx);
                batch.rows = scan_step(plan, (relation, terms), &batch, read, ctx, tr)?;
            }
            Step::Ie {
                function,
                inputs,
                outputs,
            } => {
                let atom = (&function[..], &inputs[..], &outputs[..]);
                batch.rows = ie_join(plan, atom, &batch, ctx, tr)?;
            }
            Step::Negation { relation, terms } => {
                if let Some(rel) = relations.get(relation) {
                    anti_join(&mut batch, (relation, rel), terms, ctx.indexes);
                }
            }
            Step::Compare { left, op, right } => {
                let mut failed = None;
                batch.rows.retain(|_, row| {
                    compare(cell(left, row), cell(right, row), *op).unwrap_or_else(|e| {
                        failed.get_or_insert(e);
                        false
                    })
                });
                if let Some(e) = failed {
                    return Err(e);
                }
            }
        }
        batch.bind(step);
    }
    Ok(batch)
}

/// What one scan reads: a run of the row ids of the relation it names —
/// what it gained, the rows it held before, a delta, a shard's cut — or
/// of a `seed` in its place (rows a relation lost, the heads a
/// rederivation rechecks), which no index of the run's answers for.
#[derive(Clone)]
pub(crate) struct Source<'r> {
    pub(crate) seed: Option<&'r Relation>,
    /// Row ids, cut to the relation's end when read.
    pub(crate) range: Range<usize>,
}

impl<'r> Source<'r> {
    /// Every row of the relation the scan names, however far it grows.
    pub(crate) const ALL: Source<'static> = Source::rows(0..usize::MAX);

    /// The rows `range` of the relation the scan names.
    pub(crate) const fn rows(range: Range<usize>) -> Source<'r> {
        Source { seed: None, range }
    }

    /// Every row of `seed`.
    pub(crate) const fn seed(seed: &'r Relation) -> Source<'r> {
        Source {
            seed: Some(seed),
            ..Source::ALL
        }
    }

    /// The ids read of `rel`, the relation this source reads.
    pub(crate) fn rows_of(&self, rel: &Relation) -> Range<usize> {
        self.range.start.min(rel.len())..self.range.end.min(rel.len())
    }
}

/// What the scan of `relation` at step `i` reads: the relation — its
/// own or a seed — and the rows of it, as the firing's sources say.
/// `None` when there is no such relation.
pub(crate) fn scan_source<'r>(
    i: usize,
    relation: &str,
    relations: &'r FxHashMap<String, Relation>,
    ctx: &ExecCtx<'r>,
) -> Option<(&'r Relation, Source<'r>)> {
    let source = ctx.sources.iter().find(|(at, _)| *at == i);
    let source = source.map_or(Source::ALL, |(_, source)| source.clone());
    let rel = source.seed.or_else(|| relations.get(relation))?;
    Some((rel, source))
}

/// The scan `relation(terms)` of `source` joined with `batch`, the rows
/// it examined charged to the rule.
pub(crate) fn scan_step(
    plan: &RulePlan,
    (relation, terms): (&str, &[PTerm]),
    batch: &Batch,
    read: Option<(&Relation, Source<'_>)>,
    ctx: &ExecCtx<'_>,
    tr: &mut TraceCtx<'_>,
) -> Result<Rows> {
    let mut examined = 0;
    let joined = match read {
        Some(read) => scan_join(plan, (relation, terms), batch, read, ctx, &mut examined),
        None => Ok(Rows::new(batch.rows.width())),
    };
    tr.trace.join_scanned(tr.rule, examined as u64);
    joined
}

/// The cell of binding row `row` that `t` stands for: its constant, or
/// its variable's column (a `_` has none: no operand or key is one).
pub(crate) fn cell<'a>(t: &'a PTerm, row: &'a [Value]) -> &'a Value {
    match t {
        PTerm::Const(c) => c,
        PTerm::Var(v) => &row[*v],
        PTerm::Wildcard => &UNBOUND,
    }
}

fn compare(a: &Value, b: &Value, op: CmpOp) -> Result<bool> {
    use std::cmp::Ordering;
    let ord: Ordering = match (a, b) {
        // Numeric cross-type comparison promotes to float.
        (Value::Int(x), Value::Float(y)) => (*x as f64).total_cmp(y),
        (Value::Float(x), Value::Int(y)) => x.total_cmp(&(*y as f64)),
        _ if a.value_type() == b.value_type() => a.cmp(b),
        _ => {
            // Eq/Neq across types are well-defined (always unequal);
            // ordering across types is a type error.
            return match op {
                CmpOp::Eq => Ok(false),
                CmpOp::Neq => Ok(true),
                _ => Err(EngineError::Incomparable {
                    left: a.value_type(),
                    right: b.value_type(),
                }),
            };
        }
    };
    Ok(match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Neq => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    })
}

/// How the columns of one atom — a scan's or negation's terms, an IE
/// call's outputs — meet a batch.
pub(crate) struct Columns<'p> {
    /// `(column, the cell it must equal)`: constants and bound
    /// variables. A scan's join key.
    pub(crate) key: Vec<(usize, &'p PTerm)>,
    /// `(column, earlier column)`: a variable the atom binds twice.
    same: Vec<(usize, usize)>,
    /// Per variable: the column that binds it here, if one does.
    binds: Vec<Option<usize>>,
    /// Whether a column is `_`: tuples differing only there extend a
    /// binding row identically.
    wildcard: bool,
}

impl<'p> Columns<'p> {
    pub(crate) fn of(terms: &'p [PTerm], bound: &[bool]) -> Columns<'p> {
        let mut cols = Columns {
            key: Vec::new(),
            same: Vec::new(),
            binds: vec![None; bound.len()],
            wildcard: false,
        };
        for (c, t) in terms.iter().enumerate() {
            match t {
                PTerm::Wildcard => cols.wildcard = true,
                PTerm::Var(v) if !bound[*v] => match cols.binds[*v] {
                    Some(first) => cols.same.push((c, first)),
                    None => cols.binds[*v] = Some(c),
                },
                _ => cols.key.push((c, t)),
            }
        }
        cols
    }

    fn key_cols(&self) -> Vec<usize> {
        self.key.iter().map(|&(c, _)| c).collect()
    }

    /// The key cells of binding row `input`, in key order.
    fn key_of<'r>(&'r self, input: &'r [Value]) -> impl Iterator<Item = &'r Value> + Clone {
        self.key.iter().map(move |(_, t)| cell(t, input))
    }

    /// Whether `tuple` agrees with `input` on the key columns (a fact
    /// already when an index on them found it).
    pub(crate) fn key_holds(&self, input: &[Value], tuple: &[Value]) -> bool {
        self.key.iter().all(|&(c, t)| tuple[c] == *cell(t, input))
    }

    /// Appends `input` extended by what `tuple` binds, unless `tuple`
    /// disagrees with itself on a twice-bound variable — or `seen`, the
    /// table of `out`'s rows, has the row already.
    pub(crate) fn emit(
        &self,
        input: &[Value],
        tuple: &[Value],
        out: &mut Rows,
        seen: &mut Option<RowTable>,
    ) {
        if self.same.iter().any(|&(a, b)| tuple[a] != tuple[b]) {
            return;
        }
        let binds = self.binds.iter().zip(input);
        let cells = binds.map(|(from, cell)| from.map_or(cell, |c| &tuple[c]));
        match seen {
            Some(seen) => drop(out.push_distinct(seen, cells)),
            None => out.push(cells),
        }
    }
}

/// Hash join of a batch with a relation — all its rows, or a range of
/// them.
///
/// Columns whose term is a constant or an already-bound variable form the
/// join key; remaining variable columns bind new variables (repeated new
/// variables unify left-to-right). Constants participate as ordinary key
/// columns, so rules filtering the same columns with *different*
/// constants share an index. A scan without a key walks its range once
/// per binding row. A keyed one probes the run's index of the relation
/// and keeps the ids inside its range — a delta, a shard's cut: a key's
/// ids ascend, so two binary searches slice them. A seed probes an
/// index built here over its range. The rows examined go to `scanned`,
/// on the error path too, however the firing was cut. Distinct
/// binding rows extended by distinct tuples are distinct unless a `_`
/// hides the difference: only then is the output deduplicated.
fn scan_join(
    plan: &RulePlan,
    (relation, terms): (&str, &[PTerm]),
    batch: &Batch,
    (rel, source): (&Relation, Source<'_>),
    ctx: &ExecCtx<'_>,
    scanned: &mut usize,
) -> Result<Rows> {
    let range = source.rows_of(rel);
    let mut out = Rows::new(batch.rows.width());
    if range.is_empty() {
        return Ok(out);
    }
    // Relations are uniform in arity: either every tuple fits the terms
    // or none does.
    if rel.schema().arity() != terms.len() {
        return Err(EngineError::Arity {
            relation: relation.to_string(),
            expected: rel.schema().arity(),
            actual: terms.len(),
            line: plan.line,
        });
    }
    let cols = Columns::of(terms, &batch.bound);
    let mut seen = cols.wildcard.then(RowTable::default);
    let rows = rel.rows();
    // One firing's join can outgrow any budget between two rounds.
    let mut examined = 0usize;
    let mut emit = |input: &[Value], tuple: &[Value]| {
        cols.emit(input, tuple, &mut out, &mut seen);
        examined += 1;
        match ctx.deadline {
            Some(d) if examined.is_multiple_of(DEADLINE_STRIDE) => d.check(Some(plan)),
            _ => Ok(()),
        }
    };
    let joined = if cols.key.is_empty() {
        batch.rows.iter().try_for_each(|input| {
            rows.range(range.clone())
                .try_for_each(|tuple| emit(input, tuple))
        })
    } else {
        let index = match source.seed {
            None => ctx.indexes.index(relation, rel, &cols.key_cols()),
            Some(_) => TupleIndex::build(rows, range.clone(), &cols.key_cols()).into(),
        };
        let whole = range == (0..rel.len());
        batch.rows.iter().try_for_each(|input| {
            let mut ids = index.get(rows, cols.key_of(input));
            if !whole {
                ids = &ids[ids.partition_point(|&id| id < range.start)..];
                ids = &ids[..ids.partition_point(|&id| id < range.end)];
            }
            ids.iter().try_for_each(|&id| emit(input, rows.row(id)))
        })
    };
    *scanned = examined;
    joined.map(|()| out)
}

/// Hash anti-join for `not relation(terms)`: drops every row for which
/// `rel`, stored as `relation`, holds a matching tuple. The non-wildcard
/// columns form the key; the run's index of the relation on them is
/// probed once per row.
fn anti_join(
    batch: &mut Batch,
    (relation, rel): (&str, &Relation),
    terms: &[PTerm],
    indexes: &IndexCache,
) {
    let cols = Columns::of(terms, &batch.bound);
    // Relations are uniform in arity: either every tuple can match or
    // none can. And a variable nothing has bound matches nothing.
    let unbound = cols.binds.iter().any(Option::is_some);
    if unbound || rel.is_empty() || rel.schema().arity() != terms.len() {
        return;
    }
    let index = indexes.index(relation, rel, &cols.key_cols());
    let matched = |row: &[Value]| !index.get(rel.rows(), cols.key_of(row)).is_empty();
    batch.rows.retain(|_, row| !matched(row));
}

#[cfg(test)]
pub(crate) mod tests;
