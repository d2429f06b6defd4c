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
//! batch holds no row twice — so an uncached IE function runs once
//! per distinct binding — but only the steps that can *create* a repeat
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

use crate::error::{EngineError, Result};
use crate::ie::{IeContext, SharedDocs};
use crate::optimizer::{self, IndexCache, RuleOpt, TupleIndex};
use crate::registry::Registry;
use rustc_hash::FxHashMap;
use spannerlib_cache::SharedIeMemo;
use spannerlib_core::{Relation, RowTable, Rows, Value};
use spannerlib_trace::{RunTrace, SpanId, SpanKind, NO_SPAN};
use spannerlog_parser::CmpOp;
use std::fmt::Display;
use std::ops::Range;
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
    /// Planner annotation: safety analysis fills it, and
    /// [`crate::optimizer::annotate`] for a hand-built plan. `None`
    /// executes the steps in textual order.
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

/// A batch of binding rows. *Which* variables are bound is the same for
/// every row, so it is kept once; the other cells hold [`UNBOUND`].
struct Batch {
    rows: Rows,
    bound: Vec<bool>,
}

/// The filler in the cells of variables no step has bound yet.
static UNBOUND: Value = Value::Bool(false);

/// Candidate rows a join loop examines between two looks at the clock.
const DEADLINE_STRIDE: usize = 4096;

/// Evaluation-wide counters that shard workers race on during parallel
/// firings — relaxed atomics, folded into the (single-threaded) trace
/// once per rule firing.
#[derive(Debug, Default)]
pub struct ParTally {
    /// Relation rows scanned by join steps.
    pub rows_scanned: AtomicU64,
    /// IE batch steps executed (once per shard of a sharded firing).
    pub ie_batches: AtomicU64,
    /// Shard tasks spawned for rule firings.
    pub shard_tasks: AtomicU64,
}

/// The execution environment of [`execute_with`], bundled so the
/// signature stays within clippy's argument budget.
pub struct ExecCtx<'a> {
    /// IE / aggregate / conversion registry.
    pub registry: &'a Registry,
    /// Semi-naive evaluation: the step whose scan reads only a delta —
    /// the row ids the last round appended to its relation. `None` for
    /// a full evaluation.
    pub delta: Option<(usize, Range<usize>)>,
    /// Incremental maintenance: the step whose scan reads this relation —
    /// the rows a write changed, or the heads a rederivation rechecks —
    /// in place of the one it names. The planner starts from it. `None`
    /// outside maintenance.
    pub seed: Option<(usize, &'a Relation)>,
    /// IE memo table, when enabled.
    pub cache: Option<&'a SharedIeMemo>,
    /// The production evaluator's scan indexes, shared with its shard
    /// workers. `None` is the reference configuration
    /// (`EvalStrategy::Naive`): steps run in the order safety analysis
    /// emitted and every keyed scan builds and drops its own index.
    pub indexes: Option<&'a IndexCache>,
    /// The document store, behind its lock for the whole evaluation.
    pub docs: &'a SharedDocs,
    /// Lanes a firing's shards run on, the calling thread included;
    /// below 2 a firing is one shard, on the calling thread.
    pub workers: usize,
    /// Shared evaluation-wide counters.
    pub tally: &'a ParTally,
    /// Wall-clock budget of the run (`EvalLimits::max_millis`), checked
    /// before each IE call and inside join loops; `None` = unlimited.
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
/// head rows in pieces — one per shard, in shard order — repeats
/// included. `ctx.delta`, when set, restricts one scan to a run of row
/// ids (semi-naive evaluation). `ctx.cache`, when set, memoizes IE calls
/// across rows, reruns, and executions. Join and IE-batch work is
/// reported through `tr` (every call is a no-op when tracing is off).
///
/// A firing runs in three parts: on the caller the steps ordered before
/// the scan it shards (`shard_scan`); then that scan, every later step
/// and the head projection once per *shard* — a contiguous range of the
/// scanned relation's row ids (`run_sharded`); then, for an aggregate
/// head, the fold over every shard's rows, on the caller. A body with no
/// scan to shard runs whole on the caller.
pub fn execute_with(
    plan: &RulePlan,
    relations: &FxHashMap<String, Relation>,
    ctx: &ExecCtx<'_>,
    tr: &mut TraceCtx<'_>,
) -> Result<Vec<Rows>> {
    validate_var_indexes(plan)?;
    let n_vars = plan.var_names.len();
    let mut rows = Rows::new(n_vars);
    rows.push(std::iter::repeat_n(&UNBOUND, n_vars));
    let bound = vec![false; n_vars];
    let batch = Batch { rows, bound };

    // Delta-aware cardinality of the relation scanned by step `i` —
    // the planner's cost input and the trace's estimate column. A seed
    // is the change a firing starts from: it reads as free.
    let scan_rows = |i: usize| -> usize {
        match (&ctx.delta, plan.steps.get(i)) {
            _ if ctx.seed.is_some_and(|(at, _)| at == i) => 0,
            (Some((at, delta)), _) if *at == i => delta.len(),
            (_, Some(Step::Scan { relation, .. })) => {
                relations.get(relation).map_or(0, Relation::len)
            }
            _ => 0,
        }
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
    let split_at = shard_scan(plan, &order).unwrap_or(order.len());

    let scanned_before = ctx.tally.rows_scanned.load(Ordering::Relaxed);
    let (prefix, sharded) = order.split_at(split_at);
    let derived = run_steps(plan, prefix, batch, relations, ctx, tr)
        .and_then(|batch| match sharded {
            [] => project_head(plan, &batch).map(|rows| vec![rows]),
            _ => run_sharded(plan, sharded, &batch, relations, ctx, tr),
        })
        .and_then(|pieces| fold_aggregates(plan, pieces, ctx.docs, ctx.registry));
    // Rows scanned flow through the shared tally (shard workers race on
    // it) and fold into the trace once per firing.
    tr.trace.join_scanned(
        tr.rule,
        ctx.tally
            .rows_scanned
            .load(Ordering::Relaxed)
            .saturating_sub(scanned_before),
    );
    derived
}

/// The position in `order` of the scan a firing shards: the first that
/// `scan_join` reads as a plain pass over a row range — no constant
/// among its terms, no variable an earlier step binds. `None` when no
/// scan qualifies.
fn shard_scan(plan: &RulePlan, order: &[usize]) -> Option<usize> {
    let n_vars = plan.var_names.len();
    let mut prefix = Batch {
        rows: Rows::new(n_vars),
        bound: vec![false; n_vars],
    };
    order.iter().position(|&i| {
        let step = &plan.steps[i];
        let plain = matches!(step, Step::Scan { terms, .. }
            if Columns::of(terms, &prefix.bound).key.is_empty());
        prefix.bind(step);
        plain
    })
}

impl Batch {
    /// Marks the variables `step` binds.
    fn bind(&mut self, step: &Step) {
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
fn run_steps(
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
                let (rel, range) = scan_source(i, relation, relations, ctx);
                batch.rows = scan_step(plan, (relation, terms), &batch, rel, range, ctx, tr)?;
            }
            Step::Ie {
                function,
                inputs,
                outputs,
            } => batch.rows = ie_join(plan, (function, inputs, outputs), &batch, ctx, tr)?,
            Step::Negation { relation, terms } => {
                if let Some(rel) = relations.get(relation) {
                    let cached = ctx.indexes.map(|cache| (cache, relation.as_str()));
                    anti_join(&mut batch, rel, terms, cached);
                }
            }
            Step::Compare { left, op, right } => {
                operand(plan, left, &batch.bound, "comparison operand")?;
                operand(plan, right, &batch.bound, "comparison operand")?;
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

/// What the scan of `relation` at step `i` reads: the firing's seed,
/// all of it, when the seed is at `i` — as a range, so that no index of
/// the run's, which are per relation name, answers for it — else the
/// relation, over the firing's delta when that is at `i`.
fn scan_source<'r>(
    i: usize,
    relation: &str,
    relations: &'r FxHashMap<String, Relation>,
    ctx: &ExecCtx<'r>,
) -> (Option<&'r Relation>, Option<Range<usize>>) {
    match ctx.seed {
        Some((at, seed)) if at == i => (Some(seed), Some(0..seed.len())),
        _ => (
            relations.get(relation),
            ctx.delta.as_ref().filter(|d| d.0 == i).map(|d| d.1.clone()),
        ),
    }
}

/// The scan `relation(terms)` of `rel` joined with `batch` under its
/// trace span: over `range` of the relation's row ids — a delta, a
/// shard, a seed — or all.
fn scan_step(
    plan: &RulePlan,
    (relation, terms): (&str, &[PTerm]),
    batch: &Batch,
    rel: Option<&Relation>,
    range: Option<Range<usize>>,
    ctx: &ExecCtx<'_>,
    tr: &mut TraceCtx<'_>,
) -> Result<Rows> {
    let span = tr
        .trace
        .open(tr.parent, SpanKind::Join, || format!("scan {relation}"));
    let joined = match rel {
        Some(rel) => scan_join(plan, relation, terms, batch, rel, range, ctx),
        None => Ok(Rows::new(batch.rows.width())),
    };
    tr.trace.close(span);
    joined
}

/// Runs the sharded part of a firing — `order[0]`, the scan it shards,
/// the steps after it and the head projection — once per shard,
/// returning the head rows of each, in shard order. A shard is a
/// contiguous range of the row ids that scan reads: of its delta or its
/// seed when the firing restricts that scan, else of the whole relation
/// (a delta on another scan holds alongside). A rule body maps a binding row to rows
/// against relations that are complete while the rule fires, so the
/// shards' rows together are the firing's, however the range is cut.
/// Shards borrow `batch`, what the steps before left. One shard — fewer
/// than two lanes, a single row to scan — runs on the calling thread;
/// more fork a trace each, run on `spannerlib_par::map_ranges` lanes,
/// and merge traces back in shard order, the first error in that stable
/// order winning.
fn run_sharded(
    plan: &RulePlan,
    order: &[usize],
    batch: &Batch,
    relations: &FxHashMap<String, Relation>,
    ctx: &ExecCtx<'_>,
    tr: &mut TraceCtx<'_>,
) -> Result<Vec<Rows>> {
    let scan = &plan.steps[order[0]];
    let Step::Scan { relation, terms } = scan else {
        return Err(internal(plan, "a firing shards at a scan".to_string()));
    };
    let (rel, delta) = scan_source(order[0], relation, relations, ctx);
    let scanned = delta.clone().unwrap_or(0..rel.map_or(0, Relation::len));
    if batch.rows.is_empty() || scanned.is_empty() {
        return Ok(Vec::new());
    }
    let shard = |range: Option<Range<usize>>, tr: &mut TraceCtx<'_>| -> Result<Rows> {
        let mut shard = Batch {
            rows: scan_step(plan, (relation, terms), batch, rel, range, ctx, tr)?,
            bound: batch.bound.clone(),
        };
        shard.bind(scan);
        let shard = run_steps(plan, &order[1..], shard, relations, ctx, tr)?;
        project_head(plan, &shard)
    };
    if ctx.workers < 2 || scanned.len() < 2 {
        return shard(delta, tr).map(|rows| vec![rows]);
    }
    let trace = &*tr.trace;
    let shards = spannerlib_par::map_ranges(ctx.workers, scanned, |i, range| {
        let mut fork = trace.fork();
        let label = || format!("shard {i} (rows {}..{})", range.start, range.end);
        let span = fork.open(NO_SPAN, SpanKind::Shard, label);
        let mut shard_tr = TraceCtx {
            trace: &mut fork,
            rule: 0,
            parent: span,
        };
        let rows = shard(Some(range), &mut shard_tr);
        fork.close(span);
        (rows, fork)
    });
    ctx.tally
        .shard_tasks
        .fetch_add(shards.len() as u64, Ordering::Relaxed);
    let mut results = Vec::new();
    for (rows, fork) in shards {
        tr.trace.merge_fork(tr.rule, tr.parent, fork);
        results.push(rows);
    }
    results.into_iter().collect()
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

/// One cheap pass over the plan so every raw `row[v]` index below is in
/// range: a malformed plan (variable index past the variable table)
/// degrades to [`EngineError::Internal`] instead of an index panic.
fn validate_var_indexes(plan: &RulePlan) -> Result<()> {
    let n = plan.var_names.len();
    let terms = plan.steps.iter().flat_map(|step| -> Vec<&PTerm> {
        match step {
            Step::Scan { terms, .. } | Step::Negation { terms, .. } => terms.iter().collect(),
            Step::Ie {
                inputs, outputs, ..
            } => inputs.iter().chain(outputs).collect(),
            Step::Compare { left, right, .. } => vec![left, right],
        }
    });
    let body_vars = terms.filter_map(|t| match t {
        PTerm::Var(v) => Some(*v),
        _ => None,
    });
    let head_vars = plan.head.iter().filter_map(|h| match h {
        HeadOut::Var(v) | HeadOut::Aggregate { var: v, .. } => Some(*v),
        HeadOut::Const(_) => None,
    });
    match body_vars.chain(head_vars).find(|&v| v >= n) {
        Some(v) => Err(internal(
            plan,
            format!("variable index {v} out of range ({n} variables)"),
        )),
        None => Ok(()),
    }
}

/// The cell of binding row `row` that `t` stands for: its constant, or
/// its variable's column (`_`, which [`operand`] rejects, has none).
fn cell<'a>(t: &'a PTerm, row: &'a [Value]) -> &'a Value {
    match t {
        PTerm::Const(c) => c,
        PTerm::Var(v) => &row[*v],
        PTerm::Wildcard => &UNBOUND,
    }
}

/// Checks that `t` has a value in every row of a batch binding `bound`;
/// `role` names the term in the error a malformed plan gets otherwise.
fn operand(plan: &RulePlan, t: &PTerm, bound: &[bool], role: impl Display) -> Result<()> {
    match t {
        PTerm::Var(v) if !bound[*v] => Err(internal(
            plan,
            format!("{role} {:?} is unbound", plan.var_names[*v]),
        )),
        PTerm::Wildcard => Err(internal(plan, format!("{role} is a wildcard"))),
        _ => Ok(()),
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
struct Columns<'p> {
    /// `(column, the cell it must equal)`: constants and bound
    /// variables. A scan's join key.
    key: Vec<(usize, &'p PTerm)>,
    /// `(column, earlier column)`: a variable the atom binds twice.
    same: Vec<(usize, usize)>,
    /// Per variable: the column that binds it here, if one does.
    binds: Vec<Option<usize>>,
    /// Whether a column is `_`: tuples differing only there extend a
    /// binding row identically.
    wildcard: bool,
}

impl<'p> Columns<'p> {
    fn of(terms: &'p [PTerm], bound: &[bool]) -> Columns<'p> {
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
    fn key_holds(&self, input: &[Value], tuple: &[Value]) -> bool {
        self.key.iter().all(|&(c, t)| tuple[c] == *cell(t, input))
    }

    /// Appends `input` extended by what `tuple` binds, unless `tuple`
    /// disagrees with itself on a twice-bound variable — or `seen`, the
    /// table of `out`'s rows, has the row already.
    fn emit(&self, input: &[Value], tuple: &[Value], out: &mut Rows, seen: &mut Option<RowTable>) {
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

/// Hash join of a batch with a relation — all its rows, or `delta`.
///
/// Columns whose term is a constant or an already-bound variable form the
/// join key; remaining variable columns bind new variables (repeated new
/// variables unify left-to-right). Constants participate as ordinary key
/// columns, so rules filtering the same columns with *different*
/// constants share an index. A scan without a key walks the rows. A
/// keyed one probes an index of row ids: the run's cached one for a
/// whole-relation scan (a delta is other rows every round), else one
/// built here and dropped on return. Distinct binding rows extended by
/// distinct tuples are distinct unless a `_` hides the difference: only
/// then is the output deduplicated.
fn scan_join(
    plan: &RulePlan,
    relation: &str,
    terms: &[PTerm],
    batch: &Batch,
    rel: &Relation,
    delta: Option<Range<usize>>,
    ctx: &ExecCtx<'_>,
) -> Result<Rows> {
    let cache = ctx.indexes.filter(|_| delta.is_none());
    let range = delta.map_or(0..rel.len(), |d| {
        d.start.min(rel.len())..d.end.min(rel.len())
    });
    ctx.tally
        .rows_scanned
        .fetch_add(range.len() as u64, Ordering::Relaxed);
    let mut out = Rows::new(batch.rows.width());
    if range.is_empty() {
        return Ok(out);
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
    if cols.key.is_empty() {
        for input in batch.rows.iter() {
            rows.range(range.clone())
                .try_for_each(|tuple| emit(input, tuple))?;
        }
        return Ok(out);
    }
    let index = match cache {
        Some(cache) => cache.index(relation, rel, &cols.key_cols()),
        None => TupleIndex::build(rows, range, &cols.key_cols()).into(),
    };
    for input in batch.rows.iter() {
        let mut matching = index.get(rows, cols.key_of(input)).iter();
        matching.try_for_each(|&id| emit(input, rows.row(id)))?;
    }
    Ok(out)
}

/// Joins a batch with an IE atom `function(inputs) -> (outputs)`: every
/// binding row extended by the rows the function returns for its
/// argument vector (new output variables bind; bound ones and constants
/// filter). A *cacheable* function's results may be reused, so rows are
/// grouped by argument vector and each group is looked up or called
/// once; an uncached one is called once per row.
///
/// Cached, uncached and cache-off sessions share this one path. With a
/// memo the step takes its lock once to look every group up — by the
/// borrowed cells of the group's first row: a probe builds no key — and
/// copy the rows of the hits into the batch's own store, calls the
/// misses with no lock held, and takes the lock once more to store what
/// they returned. A row of the wrong arity fails the step before its
/// call is stored. IE calls are where evaluation sinks open-ended time
/// (user code, regex scans): the wall-clock budget is checked before
/// each.
fn ie_join(
    plan: &RulePlan,
    (function, inputs, outputs): (&str, &[PTerm], &[PTerm]),
    batch: &Batch,
    ctx: &ExecCtx<'_>,
    tr: &mut TraceCtx<'_>,
) -> Result<Rows> {
    let f = ctx.registry.ie(function)?;
    for t in inputs {
        let role = format_args!("input of IE function {function:?}");
        operand(plan, t, &batch.bound, role)?;
    }
    let var = |t: &PTerm| match t {
        PTerm::Var(v) => Some(*v),
        _ => None,
    };
    let arg_vars: Vec<usize> = inputs.iter().filter_map(var).collect();
    let (rows, n) = (&batch.rows, outputs.len());
    let by_args = (f.cacheable()).then(|| TupleIndex::build(rows, 0..rows.len(), &arg_vars));
    let groups = by_args.as_ref().map_or(rows.len(), |ix| ix.groups().len());
    let args = |g: usize| {
        let first = rows.row(by_args.as_ref().map_or(g, |ix| ix.groups()[g][0]));
        inputs.iter().map(move |t| cell(t, first))
    };
    ctx.tally.ie_batches.fetch_add(1, Ordering::Relaxed);
    // Error paths may leak `span`; RunTrace::finish (and, on shard
    // forks, merge_fork) closes leaked spans at the abort timestamp.
    let span = tr.trace.open(tr.parent, SpanKind::IeBatch, || {
        format!("{function} ×{groups}")
    });

    // The output rows of every group, and which of them are whose.
    let mut returned = Rows::new(n);
    let mut rows_of: Vec<Range<usize>> = vec![0..0; groups];
    let mut misses: Vec<usize> = Vec::new();
    let memo = ctx.cache.filter(|_| f.cacheable());
    let t0 = tr.trace.now_ns();
    let mut probe = memo.map(|memo| memo.lock());
    for (g, rows_of) in rows_of.iter_mut().enumerate() {
        let hit = probe
            .as_mut()
            .and_then(|memo| memo.lookup(function, args(g), &mut returned));
        match hit {
            Some(hit) => *rows_of = hit,
            None => misses.push(g),
        }
    }
    drop(probe);
    let each = tr.trace.now_ns().saturating_sub(t0) / groups.max(1) as u64;
    (misses.len()..groups).for_each(|_| tr.trace.ie_call_ns(function, Some(true), each));

    let mut call_args: Vec<Value> = Vec::with_capacity(inputs.len());
    let mut called = 0;
    let outcome = misses.iter().try_for_each(|&g| {
        if let Some(d) = ctx.deadline {
            d.check(Some(plan))?;
        }
        call_args.clear();
        call_args.extend(args(g).cloned());
        let t0 = tr.trace.now_ns();
        let out = f.call(&call_args, n, &mut IeContext::new(ctx.docs))?;
        tr.trace.ie_call(function, memo.map(|_| false), t0);
        if let Some(row) = out.iter().find(|row| row.len() != n) {
            return Err(EngineError::IeOutputArity {
                function: function.to_string(),
                expected: n,
                actual: row.len(),
            });
        }
        rows_of[g].start = returned.len();
        out.iter().for_each(|row| returned.push(row));
        rows_of[g].end = returned.len();
        called += 1;
        Ok(())
    });
    // What was paid for before a call failed is kept.
    if let Some(mut memo) = memo.map(|memo| memo.lock()) {
        for &g in &misses[..called] {
            memo.store(function, args(g), &returned, rows_of[g].clone());
        }
    }
    outcome?;

    let cols = Columns::of(outputs, &batch.bound);
    let mut next = Rows::new(rows.width());
    // Output rows can repeat and a `_` can fold distinct ones: always
    // dedupe.
    let mut seen = Some(RowTable::default());
    for (g, rows_of) in rows_of.into_iter().enumerate() {
        let solo = [g];
        let members = by_args.as_ref().map_or(&solo[..], |ix| &ix.groups()[g]);
        for input in members.iter().map(|&r| rows.row(r)) {
            let out_rows = returned.range(rows_of.clone());
            for out in out_rows.filter(|out| cols.key_holds(input, out)) {
                cols.emit(input, out, &mut next, &mut seen);
            }
        }
    }
    tr.trace.close(span);
    Ok(next)
}

/// Hash anti-join for `not relation(terms)`: drops every row for which
/// `rel` holds a matching tuple. The non-wildcard columns form the key;
/// the relation is indexed on them — by the run's cache, given it and
/// the name `rel` is stored under, else for the step alone — and probed
/// once per row.
fn anti_join(
    batch: &mut Batch,
    rel: &Relation,
    terms: &[PTerm],
    cached: Option<(&IndexCache, &str)>,
) {
    let cols = Columns::of(terms, &batch.bound);
    // Relations are uniform in arity: either every tuple can match or
    // none can. And a variable nothing has bound matches nothing.
    let unbound = cols.binds.iter().any(Option::is_some);
    if unbound || rel.is_empty() || rel.schema().arity() != terms.len() {
        return;
    }
    let index = match cached {
        Some((cache, relation)) => cache.index(relation, rel, &cols.key_cols()),
        None => TupleIndex::build(rel.rows(), 0..rel.len(), &cols.key_cols()).into(),
    };
    let matched = |row: &[Value]| !index.get(rel.rows(), cols.key_of(row)).is_empty();
    batch.rows.retain(|_, row| !matched(row));
}

/// Projects a batch through the head, a row per binding row: one cell
/// per head column, where an aggregate column takes its variable's.
/// Runs once per shard; [`fold_aggregates`] groups what every shard
/// projected.
fn project_head(plan: &RulePlan, batch: &Batch) -> Result<Rows> {
    let mut out = Rows::new(plan.head.len());
    if batch.rows.is_empty() {
        return Ok(out);
    }
    let as_term = |h: &HeadOut| match h {
        HeadOut::Const(c) => PTerm::Const(c.clone()),
        HeadOut::Var(v) | HeadOut::Aggregate { var: v, .. } => PTerm::Var(*v),
    };
    let head: Vec<PTerm> = plan.head.iter().map(as_term).collect();
    for t in &head {
        operand(plan, t, &batch.bound, "head variable")?;
    }
    for row in batch.rows.iter() {
        out.push(head.iter().map(|t| cell(t, row)));
    }
    Ok(out)
}

/// The head rows of a firing from what its shards projected: the pieces
/// themselves, or — when the head aggregates — one row per group. The
/// key is the non-aggregate head columns, and each aggregate folds the
/// distinct (key, agg-vars) projections, grouped on the key columns:
/// set semantics, so two bindings that project alike count once
/// (README, *Evaluation*). It runs once, on the caller, over every
/// shard's rows, and hands each aggregate its group's values sorted, so
/// the result does not depend on how the firing was cut.
fn fold_aggregates(
    plan: &RulePlan,
    pieces: Vec<Rows>,
    docs: &SharedDocs,
    registry: &Registry,
) -> Result<Vec<Rows>> {
    if !plan.has_aggregation() {
        return Ok(pieces);
    }
    let mut distinct = Rows::new(plan.head.len());
    let mut seen = RowTable::default();
    // Each piece goes as soon as its rows are in.
    for piece in pieces {
        for row in piece.iter() {
            distinct.push_distinct(&mut seen, row.iter());
        }
    }
    drop(seen);
    let is_key = |c: &usize| !matches!(plan.head[*c], HeadOut::Aggregate { .. });
    let key_cols: Vec<usize> = (0..plan.head.len()).filter(is_key).collect();
    let groups = TupleIndex::build(&distinct, 0..distinct.len(), &key_cols);
    let mut out = Rows::new(plan.head.len());
    let mut tuple: Vec<Value> = Vec::with_capacity(plan.head.len());
    for members in groups.groups() {
        for (c, h) in plan.head.iter().enumerate() {
            let HeadOut::Aggregate {
                func, conversions, ..
            } = h
            else {
                tuple.push(distinct.row(members[0])[c].clone());
                continue;
            };
            let mut values: Vec<Value> = members
                .iter()
                .map(|&m| distinct.row(m)[c].clone())
                .collect();
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
            // A group's members come in the order the shards' rows
            // did, which the cut decides; a fold that is not
            // associative (a float sum) sees them sorted instead.
            values.sort_unstable();
            tuple.push(registry.aggregate(func)?.apply(&values)?);
        }
        out.push(&tuple);
        tuple.clear();
    }
    Ok(vec![out])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::StepMeta;
    use proptest::prelude::*;
    use spannerlib_core::{hash_cells, Schema, Tuple, ValueType};
    use std::collections::BTreeSet;

    /// A partial assignment of a rule's variables.
    type Env = Vec<Option<Value>>;

    /// Five integers whose one-cell rows hash to consecutive numbers —
    /// one [`RowTable`] tag, one home slot — so that every
    /// single-column key these tests probe with collides with the
    /// others and only the cell comparison tells them apart. Fx ends on
    /// `(state ^ cell) * SEED`, a bijection of the cell: stepping its
    /// pre-image by SEED⁻¹ steps the hash by one.
    fn colliding_ints() -> [i64; 5] {
        const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        // Newton's iteration doubles the correct low bits of SEED⁻¹.
        let inv = (0..6).fold(1u64, |inv, _| {
            inv.wrapping_mul(2u64.wrapping_sub(SEED.wrapping_mul(inv)))
        });
        let hash = |v: i64| hash_cells([&Value::Int(v)]);
        let state = hash(0).wrapping_mul(inv);
        let ints =
            [0u64, 1, 2, 3, 4].map(|k| (state ^ state.wrapping_add(inv.wrapping_mul(k))) as i64);
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
                Step::Negation { relation, terms } => {
                    !exists_match(&relations[relation], terms, env)
                }
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
    type Atom = (usize, Vec<(u8, usize)>, bool);

    /// A safe rule over `R0..R2` out of raw picks: positive atoms first
    /// (at least one), then negations, then comparisons; whatever would
    /// read a variable no positive atom binds reads something else.
    fn safe_plan(
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
        indexes: Option<&IndexCache>,
    ) -> BTreeSet<Vec<Value>> {
        let (registry, docs, tally) = (Registry::new(), SharedDocs::default(), ParTally::default());
        let ctx = ExecCtx {
            registry: &registry,
            delta: delta.clone(),
            seed: None,
            cache: None,
            indexes,
            docs: &docs,
            workers: 0,
            tally: &tally,
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

    /// Where [`shard_scan`] cuts a firing: `order` over a plan of
    /// `steps` on variables `0..4`.
    fn shard_at(steps: Vec<Step>, order: &[usize]) -> Option<usize> {
        let plan = RulePlan {
            head_predicate: "H".into(),
            steps,
            head: Vec::new(),
            var_names: ["a", "b", "c", "d"].map(String::from).to_vec(),
            line: 1,
            source: String::new(),
            dependencies: Vec::new(),
            opt: None,
        };
        shard_scan(&plan, order)
    }

    fn scan(relation: &str, terms: &[PTerm]) -> Step {
        let (relation, terms) = (relation.to_string(), terms.to_vec());
        Step::Scan { relation, terms }
    }

    /// A firing shards its first scan in plan order that reads a plain
    /// row range, and nothing when every scan is keyed.
    #[test]
    fn shard_scan_takes_the_first_plain_scan() {
        let (v, ignore) = (PTerm::Var, PTerm::Const(Value::str("ignore")));
        // `IgnoredSection(d, x) <- Notes(d, t), note_sections(t) -> (x, c),
        // SectionPolicy(c, "ignore")` with the constant-keyed lookup
        // ordered first: the lookup is keyed, so `Notes` is cut.
        let notes = scan("Notes", &[v(0), v(1)]);
        let sections = Step::Ie {
            function: "note_sections".into(),
            inputs: vec![v(1)],
            outputs: vec![v(2), v(3)],
        };
        let policy = scan("SectionPolicy", &[v(3), ignore]);
        let steps = vec![notes, sections, policy];
        assert_eq!(shard_at(steps, &[2, 0, 1]), Some(1));
        // The delta variant of `Path(x, z) <- Edge(x, y), Path(y, z)`:
        // the planner puts the delta first, and `Edge` is then keyed on
        // `y`.
        let steps = vec![scan("Edge", &[v(0), v(1)]), scan("Path", &[v(1), v(2)])];
        assert_eq!(shard_at(steps, &[1, 0]), Some(0));
        // Every scan keyed: by a constant, then by a bound variable.
        let one = PTerm::Const(Value::Int(1));
        let steps = vec![scan("R", &[one, v(0)]), scan("S", &[v(0), v(1)])];
        assert_eq!(shard_at(steps, &[0, 1]), None);
    }

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
        /// cardinality cost (a firing) its order is a permutation with
        /// the same invariant.
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
            optimizer::annotate(&mut plan);
            let opt = plan.opt.as_ref().expect("annotated");
            let planned = optimizer::order_steps(&plan, opt, |i| sizes[i]);
            let mut sorted = planned.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
            prop_assert!(is_safe(&planned) || !exists, "{:?} of {:?}", planned, plan.steps);
        }

        /// `execute_with` — in textual order with an index per scan, and
        /// planned with the run's extended indexes — derives exactly
        /// the head tuples the definition gives, over constants,
        /// wildcards, variables repeated within an atom, negation and
        /// comparisons, for full firings and delta variants. Production
        /// and `EvalStrategy::Naive` share `run_steps`, so holding them
        /// to each other cannot see a bug in it; this can. (Planted to
        /// check that it does: a delta range taken one row short, and
        /// `TupleIndex::group_of` accepting the first candidate its
        /// table offers without comparing key cells.)
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
            prop_assert_eq!(&execute(&plan, &relations, &delta, None), &expected, "reference");
            optimizer::annotate(&mut plan);
            let indexes = IndexCache::default();
            for _ in 0..2 {
                let got = execute(&plan, &relations, &delta, Some(&indexes));
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
            for cached in [None, Some((&indexes, "R"))] {
                let mut kept = Batch { rows: batch.clone(), bound: bound.clone() };
                anti_join(&mut kept, &rel, &terms, cached);
                prop_assert_eq!(kept.rows.iter().collect::<Vec<_>>(), expected.clone(), "terms {:?}", terms);
            }
        }
    }
}
