//! Compiled rule plans and their execution.
//!
//! A [`RulePlan`] is a rule whose body has been reordered by the safety
//! checker ([`crate::safety`]) into an executable pipeline over *binding
//! rows* — partial assignments of the rule's variables (`None` =
//! unbound). Each [`Step`] either extends the bindings (relation
//! scan-join, IE call) or filters them (negation, comparison, zero-output
//! IE call).

use crate::error::{EngineError, Result};
use crate::ie::{cached_ie_call, IeContext, IeOutput, SharedDocs};
use crate::optimizer::{self, IndexCache, RuleOpt, SplitClass, TupleIndex};
use crate::registry::Registry;
use rustc_hash::{FxHashMap, FxHashSet};
use spannerlib_cache::SharedIeMemo;
use spannerlib_core::{Relation, Tuple, Value};
use spannerlib_par::ThreadPool;
use spannerlib_trace::{RunTrace, SpanId, SpanKind, NO_SPAN};
use spannerlog_parser::CmpOp;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

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
    /// Planner annotation ([`crate::optimizer::annotate`]), filled at
    /// compile time. `None` (e.g. for hand-built plans) executes the
    /// steps in textual order.
    pub opt: Option<RuleOpt>,
}

impl RulePlan {
    /// Whether the plan has any aggregate head column.
    pub fn has_aggregation(&self) -> bool {
        self.head
            .iter()
            .any(|h| matches!(h, HeadOut::Aggregate { .. }))
    }
}

/// A binding row: `None` = variable not yet bound.
type Row = Vec<Option<Value>>;

/// Evaluation-wide counters that shard workers race on during parallel
/// firings — relaxed atomics, folded into the (single-threaded) trace
/// once per rule firing.
#[derive(Debug, Default)]
pub struct ParTally {
    /// Relation rows scanned by join steps.
    pub rows_scanned: AtomicU64,
    /// IE batch steps executed (once per shard of a sharded firing).
    pub ie_batches: AtomicU64,
    /// Shard tasks spawned for split-correct rule firings.
    pub shard_tasks: AtomicU64,
}

/// The execution environment of [`execute_with`], bundled so the
/// signature stays within clippy's argument budget.
pub struct ExecCtx<'a> {
    /// IE / aggregate / conversion registry.
    pub registry: &'a Registry,
    /// Step index whose scan reads from `deltas` instead of `relations`
    /// (semi-naive evaluation); `None` for a full evaluation.
    pub delta_at: Option<usize>,
    /// Per-round deltas of recursive predicates.
    pub deltas: &'a FxHashMap<String, Relation>,
    /// IE memo table, when enabled.
    pub cache: Option<&'a SharedIeMemo>,
    /// The production evaluator's scan-index memo. `None` is the
    /// reference configuration (`EvalStrategy::Naive`): steps run in the
    /// order safety analysis emitted and every scan builds and drops its
    /// own index. Single-threaded by design — shard workers, whose step
    /// order is already fixed, run with `None` too.
    pub indexes: Option<&'a RefCell<IndexCache>>,
    /// The document store, behind its lock for the whole evaluation.
    pub docs: &'a SharedDocs,
    /// The session's work-stealing pool; `None` keeps every firing on
    /// the calling thread.
    pub pool: Option<&'a ThreadPool>,
    /// Shared evaluation-wide counters.
    pub tally: &'a ParTally,
    /// Wall-clock budget of the run (`EvalLimits::max_millis`), checked
    /// before each IE batch; `None` = unlimited.
    pub deadline: Option<crate::eval::EvalDeadline>,
}

/// Where one [`execute_with`] call reports its trace data: the run's
/// collector, the rule's profiling handle, and the enclosing rule span.
pub struct TraceCtx<'a> {
    /// The evaluation run's collector.
    pub trace: &'a mut RunTrace,
    /// Handle from `RunTrace::register_rule` for the executing rule.
    pub rule: usize,
    /// The rule span join/IE-batch spans nest under.
    pub parent: SpanId,
}

/// Executes `plan` against the given relations, returning the derived
/// head tuples. `ctx.delta_at`, when set, makes the scan at that step
/// index read from `ctx.deltas` instead of `relations` (semi-naive
/// evaluation). `ctx.cache`, when set, memoizes IE calls across rows,
/// reruns, and executions. Join and IE-batch work is reported through
/// `tr` (every call is a no-op when tracing is off).
///
/// A rule classified split-correct runs in two parts: a prefix, up to
/// the step that binds the rule's document variable, and the remaining
/// steps once per bin of the rows partitioned on that variable
/// (`run_sharded`) — on the pool when there is one and more than one
/// bin, on the calling thread otherwise. Shard results merge back in
/// shard index order (stable document order), so the derived tuple
/// *set* does not depend on the number of bins.
pub fn execute_with(
    plan: &RulePlan,
    relations: &FxHashMap<String, Relation>,
    ctx: &ExecCtx<'_>,
    tr: &mut TraceCtx<'_>,
) -> Result<Vec<Tuple>> {
    validate_var_indexes(plan)?;
    let n_vars = plan.var_names.len();
    let rows: Vec<Row> = vec![vec![None; n_vars]];

    // Delta-aware cardinality of the relation scanned by step `i` —
    // the planner's cost input and the trace's estimate column.
    let scan_rows = |i: usize| -> usize {
        let Some(Step::Scan { relation, .. }) = plan.steps.get(i) else {
            return 0;
        };
        let map = if ctx.delta_at == Some(i) {
            ctx.deltas
        } else {
            relations
        };
        map.get(relation.as_str()).map_or(0, Relation::len)
    };

    let order: Vec<usize> = match plan.opt.as_ref().filter(|_| ctx.indexes.is_some()) {
        Some(opt) => {
            let order = optimizer::order_steps(plan, opt, scan_rows);
            tr.trace
                .plan_chosen(tr.rule, || optimizer::describe(plan, &order, scan_rows));
            order
        }
        None => (0..plan.steps.len()).collect(),
    };

    let scanned_before = ctx.tally.rows_scanned.load(Ordering::Relaxed);
    let result = match plan.opt.as_ref() {
        Some(RuleOpt {
            steps,
            split: SplitClass::Parallel { doc_var },
        }) => {
            // Prefix: run steps in order until the document variable is
            // bound, then shard the surviving rows.
            let mut bound = vec![false; n_vars];
            let mut split_at = order.len();
            for (pos, &i) in order.iter().enumerate() {
                for &v in &steps[i].binds {
                    if let Some(b) = bound.get_mut(v) {
                        *b = true;
                    }
                }
                if bound.get(*doc_var) == Some(&true) {
                    split_at = pos + 1;
                    break;
                }
            }
            let (prefix, suffix) = order.split_at(split_at);
            run_steps(plan, prefix, rows, relations, ctx, tr)
                .and_then(|seeded| run_sharded(plan, suffix, seeded, relations, ctx, tr, *doc_var))
        }
        _ => run_steps(plan, &order, rows, relations, ctx, tr),
    };
    // Rows scanned flow through the shared tally (shard workers race on
    // it) and fold into the trace once per firing.
    tr.trace.join_scanned(
        tr.rule,
        ctx.tally
            .rows_scanned
            .load(Ordering::Relaxed)
            .saturating_sub(scanned_before),
    );
    project_head(plan, result?, ctx.docs, ctx.registry)
}

/// Runs the pipeline steps selected by `order` over `rows`: the whole
/// order of a serial rule, the prefix of a split-correct one, and its
/// suffix once per shard.
fn run_steps(
    plan: &RulePlan,
    order: &[usize],
    mut rows: Vec<Row>,
    relations: &FxHashMap<String, Relation>,
    ctx: &ExecCtx<'_>,
    tr: &mut TraceCtx<'_>,
) -> Result<Vec<Row>> {
    let empty = Relation::new(spannerlib_core::Schema::empty());
    for &i in order {
        let step = &plan.steps[i];
        if rows.is_empty() {
            return Ok(Vec::new());
        }
        match step {
            Step::Scan { relation, terms } => {
                let is_delta = ctx.delta_at == Some(i);
                let rel = if is_delta {
                    ctx.deltas.get(relation.as_str()).unwrap_or(&empty)
                } else {
                    relations.get(relation.as_str()).unwrap_or(&empty)
                };
                ctx.tally
                    .rows_scanned
                    .fetch_add(rel.len() as u64, Ordering::Relaxed);
                let span = tr
                    .trace
                    .open(tr.parent, SpanKind::Join, || format!("scan {relation}"));
                // Deltas share their relation's name but mutate between
                // rounds, so only full-relation scans go through the memo.
                let cache = ctx.indexes.filter(|_| !is_delta);
                let joined = scan_join(plan, rows, rel, terms, relation, cache);
                tr.trace.close(span);
                rows = joined?;
            }
            Step::Ie {
                function,
                inputs,
                outputs,
            } => {
                // IE calls are where evaluation sinks open-ended time
                // (user code, regex scans), so the wall-clock budget is
                // re-checked at every batch boundary.
                if let Some(d) = ctx.deadline {
                    d.check(Some(plan))?;
                }
                let f = ctx.registry.ie(function)?.clone();
                // Batch rows by their concrete argument tuple:
                // *cacheable* IE functions are stateless, so each
                // distinct tuple is invoked (or memo-probed) exactly
                // once even when many binding rows agree on the inputs.
                // Uncacheable functions keep one call per row — their
                // whole point is that repeated calls may differ.
                let batch = f.cacheable();
                let mut groups: Vec<(Vec<Value>, Vec<Row>)> = Vec::new();
                let mut by_args: FxHashMap<Vec<Value>, usize> = FxHashMap::default();
                for row in rows {
                    let mut args: Vec<Value> = Vec::with_capacity(inputs.len());
                    for t in inputs {
                        args.push(match t {
                            PTerm::Var(v) => row[*v].clone().ok_or_else(|| {
                                internal(
                                    plan,
                                    format!(
                                        "input {} of IE function {function:?} is unbound",
                                        var_name(plan, *v)
                                    ),
                                )
                            })?,
                            PTerm::Const(c) => c.clone(),
                            PTerm::Wildcard => {
                                return Err(internal(
                                    plan,
                                    format!("wildcard input to IE function {function:?}"),
                                ))
                            }
                        });
                    }
                    match by_args.get(&args).filter(|_| batch) {
                        Some(&g) => groups[g].1.push(row),
                        None => {
                            if batch {
                                by_args.insert(args.clone(), groups.len());
                            }
                            groups.push((args, vec![row]));
                        }
                    }
                }
                ctx.tally.ie_batches.fetch_add(1, Ordering::Relaxed);
                let span = tr.trace.open(tr.parent, SpanKind::IeBatch, || {
                    format!("{function} ×{}", groups.len())
                });
                // Error paths may leak `span`; RunTrace::finish (and,
                // on shard forks, merge_fork) closes leaked spans at
                // the abort timestamp.
                let mut next = Vec::new();
                for (args, group_rows) in groups {
                    let t0 = tr.trace.now_ns();
                    let (out_rows, memo_hit) =
                        cached_ie_call(&*f, function, &args, outputs.len(), ctx.docs, ctx.cache)?;
                    tr.trace.ie_call(function, memo_hit, t0);
                    check_output_arity(function, outputs.len(), &out_rows)?;
                    for row in group_rows {
                        for out in out_rows.iter() {
                            if let Some(extended) = unify_values(&row, outputs, out) {
                                next.push(extended);
                            }
                        }
                    }
                }
                tr.trace.close(span);
                rows = dedupe(next);
            }
            Step::Negation { relation, terms } => {
                let rel = relations.get(relation.as_str()).unwrap_or(&empty);
                anti_join(&mut rows, rel, terms);
            }
            Step::Compare { left, op, right } => {
                let mut filtered = Vec::with_capacity(rows.len());
                for row in rows {
                    let keep = {
                        let a = term_value(left, &row, plan)?;
                        let b = term_value(right, &row, plan)?;
                        compare(a, b, *op)?
                    };
                    if keep {
                        filtered.push(row);
                    }
                }
                rows = filtered;
            }
        }
    }
    Ok(rows)
}

/// Rejects IE outputs whose arity disagrees with the calling atom.
fn check_output_arity(function: &str, expected: usize, out_rows: &IeOutput) -> Result<()> {
    for out in out_rows.iter() {
        if out.len() != expected {
            return Err(EngineError::IeOutputArity {
                function: function.to_string(),
                expected,
                actual: out.len(),
            });
        }
    }
    Ok(())
}

/// Runs the post-split suffix of a split-correct rule over the bins of
/// `rows` partitioned on the document variable. One bin — no pool, one
/// document, one row — runs on the calling thread. More fork a trace
/// per shard, evaluate each shard on the pool, and merge results and
/// traces back in shard index order; the first shard error (in that
/// stable order) wins, matching the one-bin error determinism.
fn run_sharded(
    plan: &RulePlan,
    suffix: &[usize],
    rows: Vec<Row>,
    relations: &FxHashMap<String, Relation>,
    ctx: &ExecCtx<'_>,
    tr: &mut TraceCtx<'_>,
    doc_var: usize,
) -> Result<Vec<Row>> {
    if suffix.is_empty() {
        return Ok(rows);
    }
    let target = ctx.pool.map_or(1, |p| p.workers().saturating_mul(2));
    let mut bins = partition_rows(rows, doc_var, ctx.docs, target);
    let pool = match ctx.pool {
        Some(pool) if bins.len() > 1 => pool,
        _ => {
            let rows = bins.pop().unwrap_or_default();
            return run_steps(plan, suffix, rows, relations, ctx, tr);
        }
    };
    ctx.tally
        .shard_tasks
        .fetch_add(bins.len() as u64, Ordering::Relaxed);
    // Shard tasks must not capture `ctx` itself: its index-memo handle
    // is single-threaded by design (`RefCell`), so the relevant fields
    // are rebundled per shard with `indexes: None, pool: None`.
    let registry = ctx.registry;
    let delta_at = ctx.delta_at;
    let deltas = ctx.deltas;
    let cache = ctx.cache;
    let docs = ctx.docs;
    let tally = ctx.tally;
    let deadline = ctx.deadline;
    let mut slots: Vec<Option<(Result<Vec<Row>>, RunTrace)>> =
        (0..bins.len()).map(|_| None).collect();
    pool.scope(|s| {
        for (i, (slot, bin)) in slots.iter_mut().zip(bins).enumerate() {
            let mut fork = tr.trace.fork();
            s.spawn(move || {
                let span = fork.open(NO_SPAN, SpanKind::Shard, || {
                    format!("shard {i} ({} rows)", bin.len())
                });
                let shard_ctx = ExecCtx {
                    registry,
                    delta_at,
                    deltas,
                    cache,
                    indexes: None,
                    docs,
                    pool: None,
                    tally,
                    deadline,
                };
                let mut shard_tr = TraceCtx {
                    trace: &mut fork,
                    rule: 0,
                    parent: span,
                };
                let res = run_steps(plan, suffix, bin, relations, &shard_ctx, &mut shard_tr);
                fork.close(span);
                *slot = Some((res, fork));
            });
        }
    });
    let mut merged: Vec<Row> = Vec::new();
    let mut first_err: Option<EngineError> = None;
    for slot in slots {
        let (res, fork) = slot.expect("pool scope ran every shard task");
        tr.trace.merge_fork(tr.rule, tr.parent, fork);
        match res {
            Ok(rows) if first_err.is_none() => merged.extend(rows),
            Err(e) if first_err.is_none() => first_err = Some(e),
            _ => {}
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(dedupe(merged)),
    }
}

/// Partitions binding rows on the document variable for shard-parallel
/// execution. When every row binds the variable to a span, the store's
/// balanced byte-weight shards drive the split (stable document-id
/// order); any other value mix falls back to greedy weight-balanced
/// binning keyed on the value itself, so rows over the same document
/// always land in the same shard.
fn partition_rows(
    rows: Vec<Row>,
    doc_var: usize,
    docs: &SharedDocs,
    target: usize,
) -> Vec<Vec<Row>> {
    if target <= 1 || rows.len() <= 1 {
        return vec![rows];
    }
    let all_spans = rows
        .iter()
        .all(|r| matches!(r.get(doc_var), Some(Some(Value::Span(_)))));
    if all_spans {
        let shards = docs.read().shards(target);
        if shards.len() > 1 {
            let mut bins: Vec<Vec<Row>> = (0..shards.len()).map(|_| Vec::new()).collect();
            for row in rows {
                let Some(Value::Span(span)) = &row[doc_var] else {
                    unreachable!("all_spans checked above");
                };
                let slot = shards
                    .iter()
                    .position(|s| s.contains(span.doc))
                    .unwrap_or(0);
                bins[slot].push(row);
            }
            bins.retain(|b| !b.is_empty());
            return bins;
        }
        // A store too small to split (e.g. one huge document) falls
        // through to value-keyed binning over the span values.
    }
    // Group rows by the document variable's value, then greedily pack
    // each group into the lightest bin (deterministic: groups keep
    // first-appearance order, ties prefer the lowest bin index).
    let mut group_of: FxHashMap<Option<Value>, usize> = FxHashMap::default();
    let mut groups: Vec<(u64, Vec<Row>)> = Vec::new();
    for row in rows {
        let key = row.get(doc_var).cloned().flatten();
        let g = match group_of.get(&key) {
            Some(&g) => g,
            None => {
                let weight = match &key {
                    Some(Value::Str(s)) => s.len() as u64,
                    Some(Value::Span(s)) => s.len() as u64,
                    _ => 1,
                }
                .max(1);
                group_of.insert(key, groups.len());
                groups.push((weight, Vec::new()));
                groups.len() - 1
            }
        };
        groups[g].1.push(row);
    }
    let n = target.min(groups.len());
    let mut bins: Vec<Vec<Row>> = (0..n).map(|_| Vec::new()).collect();
    let mut weights = vec![0u64; n];
    for (w, group_rows) in groups {
        let lightest = (0..n).min_by_key(|&i| (weights[i], i)).expect("n >= 1");
        weights[lightest] += w;
        bins[lightest].extend(group_rows);
    }
    bins.retain(|b| !b.is_empty());
    bins
}

/// A structured "the plan violated a binding invariant" error — the
/// degradation path for malformed plans that safety analysis would
/// never produce.
fn internal(plan: &RulePlan, detail: String) -> EngineError {
    EngineError::Internal {
        rule: if plan.source.is_empty() {
            plan.head_predicate.clone()
        } else {
            plan.source.clone()
        },
        detail,
    }
}

/// Variable name for diagnostics; tolerates out-of-range indexes.
fn var_name(plan: &RulePlan, v: usize) -> String {
    match plan.var_names.get(v) {
        Some(name) => format!("{name:?}"),
        None => format!("#{v}"),
    }
}

/// One cheap pass over the plan so every raw `row[v]` index below is in
/// range: a malformed plan (variable index past the variable table)
/// degrades to [`EngineError::Internal`] instead of an index panic.
fn validate_var_indexes(plan: &RulePlan) -> Result<()> {
    let n = plan.var_names.len();
    let check = |terms: &[PTerm]| -> Result<()> {
        for t in terms {
            if let PTerm::Var(v) = t {
                if *v >= n {
                    return Err(internal(
                        plan,
                        format!("variable index {v} out of range ({n} variables)"),
                    ));
                }
            }
        }
        Ok(())
    };
    for step in &plan.steps {
        match step {
            Step::Scan { terms, .. } | Step::Negation { terms, .. } => check(terms)?,
            Step::Ie {
                inputs, outputs, ..
            } => {
                check(inputs)?;
                check(outputs)?;
            }
            Step::Compare { left, op: _, right } => {
                check(std::slice::from_ref(left))?;
                check(std::slice::from_ref(right))?;
            }
        }
    }
    for h in &plan.head {
        let v = match h {
            HeadOut::Var(v) | HeadOut::Aggregate { var: v, .. } => *v,
            HeadOut::Const(_) => continue,
        };
        if v >= n {
            return Err(internal(
                plan,
                format!("head variable index {v} out of range ({n} variables)"),
            ));
        }
    }
    Ok(())
}

fn term_value<'r>(t: &'r PTerm, row: &'r Row, plan: &RulePlan) -> Result<&'r Value> {
    match t {
        PTerm::Var(v) => row[*v].as_ref().ok_or_else(|| {
            internal(
                plan,
                format!("comparison operand {} is unbound", var_name(plan, *v)),
            )
        }),
        PTerm::Const(c) => Ok(c),
        PTerm::Wildcard => Err(internal(plan, "wildcard comparison operand".to_string())),
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

/// Hash join of binding rows with a relation.
///
/// Columns whose term is a constant or an already-bound variable form the
/// join key; remaining variable columns bind new variables (repeated new
/// variables unify left-to-right). Constants participate as ordinary key
/// columns, so rules filtering the same columns with *different*
/// constants share an index. With `cache`, the index is taken from (or
/// built into) the evaluation's [`IndexCache`]; without, it is built
/// here and dropped on return.
fn scan_join(
    plan: &RulePlan,
    rows: Vec<Row>,
    rel: &Relation,
    terms: &[PTerm],
    relation: &str,
    cache: Option<&RefCell<IndexCache>>,
) -> Result<Vec<Row>> {
    if rel.is_empty() {
        return Ok(Vec::new());
    }
    // Relations are uniform in arity: either every tuple fits the terms
    // or none does.
    if rel.schema().arity() != terms.len() {
        return Err(EngineError::Arity {
            relation: relation.to_string(),
            expected: terms.len(),
            actual: rel.schema().arity(),
        });
    }
    let key_cols = join_key_cols(&rows[0], terms);
    let index: Rc<TupleIndex> = match cache {
        Some(cache) => cache.borrow_mut().index(relation, rel, &key_cols),
        None => Rc::new(optimizer::build_index(rel, &key_cols)),
    };

    let mut out = Vec::new();
    for row in &rows {
        let mut key: Vec<Value> = Vec::with_capacity(key_cols.len());
        for &c in &key_cols {
            key.push(match &terms[c] {
                PTerm::Const(v) => v.clone(),
                PTerm::Var(v) => row[*v]
                    .clone()
                    .ok_or_else(|| join_key_unbound(plan, relation, &terms[c]))?,
                PTerm::Wildcard => return Err(join_key_unbound(plan, relation, &terms[c])),
            });
        }
        let Some(candidates) = index.get(&key) else {
            continue;
        };
        for tuple in candidates {
            if let Some(extended) = unify_values(row, terms, tuple.values()) {
                out.push(extended);
            }
        }
    }
    Ok(dedupe(out))
}

/// The join-key columns of a scan: constants plus already-bound
/// variables. The bound-variable set is uniform across rows at any
/// step, so it is read off `first`.
fn join_key_cols(first: &Row, terms: &[PTerm]) -> Vec<usize> {
    let mut key_cols: Vec<usize> = Vec::new();
    for (c, t) in terms.iter().enumerate() {
        match t {
            PTerm::Const(_) => key_cols.push(c),
            PTerm::Var(v) if first[*v].is_some() => key_cols.push(c),
            _ => {}
        }
    }
    key_cols
}

fn join_key_unbound(plan: &RulePlan, relation: &str, t: &PTerm) -> EngineError {
    let what = match t {
        PTerm::Var(v) => format!("variable {}", var_name(plan, *v)),
        _ => "wildcard".to_string(),
    };
    internal(
        plan,
        format!("join key {what} of scan over {relation:?} is unbound"),
    )
}

/// Unifies concrete `values` against `terms`, extending `row` where a
/// variable is unbound and filtering where it is bound or constant.
fn unify_values(row: &Row, terms: &[PTerm], values: &[Value]) -> Option<Row> {
    let mut extended = row.clone();
    for (c, t) in terms.iter().enumerate() {
        match t {
            PTerm::Wildcard => {}
            PTerm::Const(v) => {
                if &values[c] != v {
                    return None;
                }
            }
            PTerm::Var(v) => match &extended[*v] {
                Some(existing) => {
                    if existing != &values[c] {
                        return None;
                    }
                }
                None => extended[*v] = Some(values[c].clone()),
            },
        }
    }
    Some(extended)
}

/// Hash anti-join for `not relation(terms)`: drops every row for which
/// `rel` holds a matching tuple. The non-wildcard columns form the key;
/// the relation's key set is built once for the step and probed once
/// per row.
fn anti_join(rows: &mut Vec<Row>, rel: &Relation, terms: &[PTerm]) {
    // Relations are uniform in arity: either every tuple can match or
    // none can.
    if rel.is_empty() || rel.schema().arity() != terms.len() {
        return;
    }
    let key_cols: Vec<usize> = (0..terms.len())
        .filter(|&c| terms[c] != PTerm::Wildcard)
        .collect();
    let keys: FxHashSet<Vec<&Value>> = rel
        .iter()
        .map(|tuple| key_cols.iter().map(|&c| &tuple[c]).collect())
        .collect();
    rows.retain(|row| {
        // Constants as written, variables as the row binds them; an
        // unbound variable matches nothing.
        let key: Option<Vec<&Value>> = key_cols
            .iter()
            .map(|&c| match &terms[c] {
                PTerm::Const(v) => Some(v),
                PTerm::Var(v) => row[*v].as_ref(),
                PTerm::Wildcard => None,
            })
            .collect();
        !key.is_some_and(|key| keys.contains(&key))
    });
}

/// The definition [`anti_join`] is tested against: a scan of the whole
/// relation per row.
#[cfg(test)]
fn exists_match(rel: &Relation, terms: &[PTerm], row: &Row) -> bool {
    rel.iter().any(|tuple| {
        tuple.arity() == terms.len()
            && terms.iter().enumerate().all(|(c, t)| match t {
                PTerm::Wildcard => true,
                PTerm::Const(v) => &tuple[c] == v,
                PTerm::Var(v) => Some(&tuple[c]) == row[*v].as_ref(),
            })
    })
}

/// Drops repeated rows, keeping first occurrences in order.
fn dedupe(mut rows: Vec<Row>) -> Vec<Row> {
    let mut seen: FxHashSet<&Row> = FxHashSet::default();
    let first: Vec<bool> = rows.iter().map(|r| seen.insert(r)).collect();
    let mut first = first.into_iter();
    rows.retain(|_| first.next().expect("one flag per row"));
    rows
}

/// Projects binding rows through the head, grouping if any aggregate
/// column is present.
fn project_head(
    plan: &RulePlan,
    rows: Vec<Row>,
    docs: &SharedDocs,
    registry: &Registry,
) -> Result<Vec<Tuple>> {
    let var_value = |row: &Row, v: usize| -> Result<Value> {
        row[v].clone().ok_or_else(|| {
            internal(
                plan,
                format!("head variable {} is unbound", var_name(plan, v)),
            )
        })
    };

    if !plan.has_aggregation() {
        let mut out = Vec::with_capacity(rows.len());
        for row in rows {
            let mut values = Vec::with_capacity(plan.head.len());
            for h in &plan.head {
                values.push(match h {
                    HeadOut::Var(v) => var_value(&row, *v)?,
                    HeadOut::Const(c) => c.clone(),
                    HeadOut::Aggregate { .. } => {
                        return Err(internal(
                            plan,
                            "aggregate head column outside the group-by path".to_string(),
                        ))
                    }
                });
            }
            out.push(Tuple::new(values));
        }
        return Ok(out);
    }

    // Group-by: key = non-aggregate head columns; each aggregate folds
    // the distinct (key, agg-vars) projections (set semantics — see
    // DESIGN.md §4 "aggregation semantics").
    let agg_vars: Vec<usize> = plan
        .head
        .iter()
        .filter_map(|h| match h {
            HeadOut::Aggregate { var, .. } => Some(*var),
            _ => None,
        })
        .collect();

    let mut groups: FxHashMap<Vec<Value>, Vec<Vec<Value>>> = FxHashMap::default();
    let mut seen: FxHashSet<(Vec<Value>, Vec<Value>)> = FxHashSet::default();
    let mut group_order: Vec<Vec<Value>> = Vec::new();
    for row in &rows {
        let mut key: Vec<Value> = Vec::with_capacity(plan.head.len());
        for h in &plan.head {
            match h {
                HeadOut::Var(v) => key.push(var_value(row, *v)?),
                HeadOut::Const(c) => key.push(c.clone()),
                HeadOut::Aggregate { .. } => {}
            }
        }
        let aggs: Vec<Value> = agg_vars
            .iter()
            .map(|&v| var_value(row, v))
            .collect::<Result<_>>()?;
        if seen.insert((key.clone(), aggs.clone())) {
            if !groups.contains_key(&key) {
                group_order.push(key.clone());
            }
            groups.entry(key).or_default().push(aggs);
        }
    }

    let mut out = Vec::with_capacity(groups.len());
    for key in group_order {
        let members = &groups[&key];
        let mut tuple: Vec<Value> = Vec::with_capacity(plan.head.len());
        let mut key_iter = key.iter();
        let mut agg_idx = 0usize;
        for h in &plan.head {
            match h {
                HeadOut::Var(_) | HeadOut::Const(_) => {
                    let v = key_iter.next().ok_or_else(|| {
                        internal(plan, "group key shorter than head projection".to_string())
                    })?;
                    tuple.push(v.clone());
                }
                HeadOut::Aggregate {
                    func, conversions, ..
                } => {
                    let mut values: Vec<Value> =
                        members.iter().map(|m| m[agg_idx].clone()).collect();
                    // Conversions apply innermost-first; they are stored
                    // outermost-first as written.
                    for conv_name in conversions.iter().rev() {
                        let conv = registry.conversion(conv_name)?;
                        let ctx = IeContext::new(docs);
                        values = values
                            .iter()
                            .map(|v| conv.convert(v, &ctx))
                            .collect::<Result<_>>()?;
                    }
                    let agg = registry.aggregate(func)?;
                    tuple.push(agg.apply(&values)?);
                    agg_idx += 1;
                }
            }
        }
        out.push(Tuple::new(tuple));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use spannerlib_core::{Schema, ValueType};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The hash anti-join keeps exactly the rows for which a scan
        /// of the whole relation finds no match — over wildcards,
        /// constants, repeated and unbound variables, and term lists
        /// whose length is not the relation's arity.
        #[test]
        fn anti_join_agrees_with_exists_match(
            arity in 1usize..4,
            tuples in prop::collection::vec(prop::collection::vec(0i64..4, 3), 0..12),
            terms in prop::collection::vec((0u8..4, 0i64..4), 1..5),
            rows in prop::collection::vec(prop::collection::vec(0i64..5, 3), 0..10),
        ) {
            let mut rel = Relation::new(Schema::new(vec![ValueType::Int; arity]));
            for t in &tuples {
                rel.insert(Tuple::new(t[..arity].iter().map(|&v| Value::Int(v))))
                    .unwrap();
            }
            let terms: Vec<PTerm> = terms
                .iter()
                .map(|&(kind, n)| match kind {
                    0 => PTerm::Wildcard,
                    1 => PTerm::Const(Value::Int(n)),
                    _ => PTerm::Var(n as usize % 3),
                })
                .collect();
            // 4 stands for "unbound".
            let rows: Vec<Row> = rows
                .iter()
                .map(|r| r.iter().map(|&v| (v < 4).then_some(Value::Int(v))).collect())
                .collect();

            let expected: Vec<Row> = rows
                .iter()
                .filter(|row| !exists_match(&rel, &terms, row))
                .cloned()
                .collect();
            let mut kept = rows.clone();
            anti_join(&mut kept, &rel, &terms);
            prop_assert_eq!(&kept, &expected, "terms {:?}", terms);
        }
    }
}
