//! Bottom-up evaluation, component by component: naive and semi-naive.
//!
//! The program arrives as the components of its predicate dependency
//! graph, dependencies first ([`crate::strata`]). The paper's
//! implementation "extended the naive bottom-up evaluation method to
//! include evaluation of IE clauses" (§3.1). [`EvalStrategy::Naive`]
//! reproduces that and nothing else: every component loops until a
//! round derives nothing new, rule bodies run in the order safety
//! analysis emitted, every scan builds and drops its own index, and
//! all of it happens on the calling thread. [`EvalStrategy::SemiNaive`]
//! is the production evaluator: it fires the rules of a non-recursive
//! component exactly once — nothing they read can still change — runs
//! the standard delta refinement (Green et al., *Datalog and Recursive
//! Query Processing*) on recursive ones, orders steps by estimated
//! cost, reuses scan indexes across the run, and shards every firing
//! across the session's lanes. The two are kept behaviourally
//! identical — the equivalence is property-tested — which makes the
//! naive strategy the one reference every shortcut is checked against.
//!
//! Evaluation respects the session's [`EvalLimits`]: a bound on the
//! rounds of recursive components guards against runaway recursion, a
//! bound on materialized tuples guards against blow-up — both surface
//! as [`EngineError::LimitExceeded`], attributed to the culprit rule.
//!
//! Every run is threaded through a [`RunTrace`] (see `spannerlib_trace`):
//! at `TraceLevel::Off` each call is a branch; at `Summary` per-rule and
//! per-IE counters and wall times accumulate; at `Spans` the hierarchy
//! execute → stratum → round → rule → join / IE batch is recorded as
//! timed span events — a component is what the trace crate calls a
//! *stratum*: components are the finest stratification.

use crate::database::Database;
use crate::error::{EngineError, LimitCulprit, Result};
use crate::ie::SharedDocs;
use crate::maintain::{EvalMode, Maintenance};
use crate::optimizer::IndexCache;
use crate::plan::{self, ExecCtx, ParTally, RulePlan, Step, TraceCtx};
use crate::registry::Registry;
use crate::strata::Component;
use rustc_hash::FxHashMap;
use spannerlib_cache::SharedIeMemo;
use spannerlib_core::Rows;
use spannerlib_trace::{RunTrace, SpanId, SpanKind, NO_SPAN};
use std::ops::Range;
use std::sync::atomic::Ordering;

/// Fixpoint algorithm selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalStrategy {
    /// The reference: re-evaluate every rule of a component against
    /// full relations until a round derives nothing new, steps in
    /// textual order, an index per scan, on the calling thread.
    Naive,
    /// Production: fire non-recursive components once, evaluate rule
    /// variants against per-round deltas inside recursive ones; order
    /// steps by cost, reuse scan indexes, shard firings across lanes.
    #[default]
    SemiNaive,
}

/// Resource limits applied to one fixpoint run (`None` = unlimited).
/// Configured through `SessionBuilder`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalLimits {
    /// Maximum fixpoint rounds summed across the recursive components
    /// (a non-recursive component cannot run away and is not charged).
    pub max_rounds: Option<usize>,
    /// Maximum newly materialized tuples across the whole run.
    pub max_rows: Option<usize>,
    /// Wall-clock budget in milliseconds for the whole run (checked
    /// between fixpoint rounds, before each IE call, and every few
    /// thousand rows inside a join).
    pub max_millis: Option<u64>,
}

/// The wall-clock budget of one evaluation run
/// ([`EvalLimits::max_millis`]), anchored when the run starts. Checked
/// once per fixpoint round, before every IE call, and every few thousand
/// candidate rows inside a join loop — the three places an evaluation
/// can sink unbounded time — so an overrun surfaces as
/// [`EngineError::LimitExceeded`] naming the rule that was executing,
/// not as a hung serving request.
#[derive(Debug, Clone, Copy)]
pub struct EvalDeadline {
    at: std::time::Instant,
    limit_ms: u64,
}

impl EvalDeadline {
    /// The deadline for `limits`, anchored at now; `None` when no
    /// wall-clock limit is configured.
    pub(crate) fn start(limits: &EvalLimits) -> Option<EvalDeadline> {
        limits.max_millis.map(|ms| EvalDeadline {
            at: std::time::Instant::now() + std::time::Duration::from_millis(ms),
            limit_ms: ms,
        })
    }

    /// Errors with the wall-clock [`EngineError::LimitExceeded`]
    /// (blaming `rule`) once the budget is spent.
    pub(crate) fn check(&self, rule: Option<&RulePlan>) -> Result<()> {
        if std::time::Instant::now() >= self.at {
            return Err(EngineError::LimitExceeded {
                resource: "eval wall-clock millis",
                limit: self.limit_ms as usize,
                culprit: culprit_of(rule),
            });
        }
        Ok(())
    }
}

/// The rule a limit overrun is blamed on, as a boxed error payload.
fn culprit_of(rule: Option<&RulePlan>) -> Box<LimitCulprit> {
    Box::new(match rule {
        Some(r) => LimitCulprit {
            head: r.head_predicate.clone(),
            source: r.source.clone(),
            line: r.line,
        },
        None => LimitCulprit::unknown(),
    })
}

impl EvalLimits {
    /// The round bound trips *between* rounds, so `rule` is the last
    /// rule that derived new tuples — the one still driving the
    /// fixpoint.
    fn check(
        &self,
        stats: &EvalStats,
        charged_rounds: usize,
        rule: Option<&RulePlan>,
    ) -> Result<()> {
        if let Some(max) = self.max_rounds {
            if charged_rounds > max {
                return Err(EngineError::LimitExceeded {
                    resource: "fixpoint rounds",
                    limit: max,
                    culprit: culprit_of(rule),
                });
            }
        }
        self.check_rows(stats, rule)
    }

    /// The row bound is also checked inside the insert loops, so one
    /// round cannot materialize unboundedly far past the cap (tuples
    /// buffered while a single rule plan executes are only bounded once
    /// that plan returns). `rule` is the rule whose insert crossed it.
    fn check_rows(&self, stats: &EvalStats, rule: Option<&RulePlan>) -> Result<()> {
        if let Some(max) = self.max_rows {
            if stats.tuples_new > max {
                return Err(EngineError::LimitExceeded {
                    resource: "materialized rows",
                    limit: max,
                    culprit: culprit_of(rule),
                });
            }
        }
        Ok(())
    }
}

/// Counters filled during evaluation (consumed by benches and tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Rounds across all components (one per non-recursive component
    /// under [`EvalStrategy::SemiNaive`]).
    pub rounds: usize,
    /// Rule-plan executions (including semi-naive variants).
    pub rule_firings: usize,
    /// Tuples derived (including duplicates rejected by set semantics).
    pub tuples_derived: usize,
    /// Tuples that were actually new.
    pub tuples_new: usize,
    /// Whether the run re-derived everything or maintained the previous
    /// result, and why or from how many changed rows.
    pub mode: EvalMode,
}

/// Everything one evaluation run needs besides the database, the
/// program, and the trace collector.
pub struct EvalCtx<'a> {
    /// IE / aggregate / conversion registry.
    pub registry: &'a Registry,
    /// Fixpoint algorithm.
    pub strategy: EvalStrategy,
    /// Resource limits.
    pub limits: EvalLimits,
    /// IE memo table, when enabled.
    pub cache: Option<&'a SharedIeMemo>,
    /// Lanes a firing's shards run on, the calling thread included
    /// (`SessionBuilder::parallelism`); below 2 — and
    /// [`EvalStrategy::Naive`] at any count — every firing runs on the
    /// calling thread.
    pub workers: usize,
}

/// The state of one evaluation run, shared by every component.
pub(crate) struct Run<'a> {
    strategy: EvalStrategy,
    limits: EvalLimits,
    trace: &'a mut RunTrace,
    stats: EvalStats,
    /// Rounds charged against [`EvalLimits::max_rounds`].
    charged_rounds: usize,
    /// The execution environment of a full firing; delta variants
    /// override `delta`, maintenance variants `seed`.
    pub(crate) exec: ExecCtx<'a>,
}

/// The component a [`Run`] is currently evaluating: its index, span,
/// and per-rule profiling handles.
pub(crate) struct Scope<'a> {
    pub(crate) component: &'a Component,
    pub(crate) index: usize,
    rule_ids: Vec<usize>,
    span: SpanId,
    /// Last rule to derive a new tuple — the round-limit culprit.
    driver: Option<usize>,
}

/// Per-round deltas of a recursive component's predicates: the row ids
/// a round appended to each (relations are append-only arenas).
pub(crate) type Deltas = FxHashMap<String, Range<usize>>;

/// One rule firing of a round: the index of the rule in its component,
/// the plan that runs — the rule's own or a variant of it — and where
/// its scans read.
pub(crate) type Firing<'p, 'x> = (usize, &'p RulePlan, ExecCtx<'x>);

/// The document store and the indexes on loan to one evaluation: the
/// documents behind the [`SharedDocs`] lock while rules fire, both moved
/// back into the database when the guard drops — on return, on error,
/// and when an IE function's panic unwinds through the run (from the
/// calling thread or re-raised from a shard), so spans handed out before
/// the run keep resolving. The run keeps the indexes valid: it only
/// appends rows, or renumbers the indexes of what it shrinks. A full
/// run's indexes go with it (`keep` unset): only the run after a
/// maintained one reads the database through them again.
struct Lent<'a> {
    db: &'a mut Database,
    docs: SharedDocs,
    indexes: IndexCache,
    keep: bool,
}

impl Drop for Lent<'_> {
    fn drop(&mut self) {
        self.db.docs = std::mem::take(&mut *self.docs.write());
        let indexes = std::mem::take(&mut self.indexes);
        self.db.indexes = if self.keep {
            indexes
        } else {
            IndexCache::default()
        };
    }
}

/// Evaluates `components` in order, inserting derived tuples into `db`.
/// A non-recursive component is complete after each of its rules fires
/// once; a recursive one runs to fixpoint. `ctx.cache`, when set,
/// memoizes IE calls across rounds and runs. Progress is reported
/// through `trace` (free when tracing is off); on a limit abort the
/// trace keeps the partial per-component progress.
///
/// For the duration of the run the documents sit behind a
/// [`SharedDocs`] lock — IE functions resolve and intern through it on
/// the calling thread exactly as on shard workers — and move back on
/// every exit (see the threading contract in `crate::session`), as do
/// the database's indexes, which the run reads and extends.
pub fn evaluate(
    db: &mut Database,
    components: &[Component],
    ctx: &EvalCtx<'_>,
    trace: &mut RunTrace,
) -> Result<EvalStats> {
    run(db, components, ctx, trace, None)
}

/// [`evaluate`] — or, given `maintenance`, the update of the derived
/// relations `db` already holds to the inputs it holds now, component by
/// component from the rows that changed (`crate::maintain`).
pub(crate) fn run(
    db: &mut Database,
    components: &[Component],
    ctx: &EvalCtx<'_>,
    trace: &mut RunTrace,
    mut maintenance: Option<Maintenance<'_>>,
) -> Result<EvalStats> {
    let lent = Lent {
        docs: SharedDocs::new(std::mem::take(&mut db.docs)),
        indexes: std::mem::take(&mut db.indexes),
        keep: maintenance.is_some(),
        db,
    };
    let db = &mut *lent.db;
    let production = ctx.strategy == EvalStrategy::SemiNaive;
    let workers = if production { ctx.workers } else { 0 };
    let tally = ParTally::default();
    // The database's indexes serve the whole run: relations only grow
    // while it executes (derived state was cleared before it, or
    // maintenance renumbers what it shrinks), so row ids are stable and
    // an index is extended, never rebuilt, across fixpoint rounds, rules,
    // and components.
    let index_cache = &lent.indexes;
    let (hits, builds) = (index_cache.hits(), index_cache.builds());
    let mut run = Run {
        strategy: ctx.strategy,
        limits: ctx.limits,
        trace,
        stats: EvalStats::default(),
        charged_rounds: 0,
        exec: ExecCtx {
            registry: ctx.registry,
            delta: None,
            seed: None,
            cache: ctx.cache,
            indexes: production.then_some(index_cache),
            docs: &lent.docs,
            workers,
            tally: &tally,
            deadline: EvalDeadline::start(&ctx.limits),
        },
    };
    let root = run.trace.open(NO_SPAN, SpanKind::Execute, || {
        format!("evaluate ({} components)", components.len())
    });
    let result = (components.iter().enumerate()).try_for_each(|(index, component)| {
        run.component(db, component, index, root, maintenance.as_mut())
    });
    if result.is_ok() {
        run.trace.close(root);
    }
    // The planner and parallel counters fold into the trace on both the
    // success and the abort path.
    let (hits, builds) = (index_cache.hits() - hits, index_cache.builds() - builds);
    run.trace.index_cache(hits, builds);
    if workers > 1 {
        run.trace.parallel_summary(
            workers as u64,
            tally.shard_tasks.load(Ordering::Relaxed),
            tally.ie_batches.load(Ordering::Relaxed),
        );
    }
    result.map(|()| run.stats)
}

impl Run<'_> {
    /// Evaluates — or maintains — one component under its own trace
    /// scope.
    fn component(
        &mut self,
        db: &mut Database,
        component: &Component,
        index: usize,
        root: SpanId,
        maintenance: Option<&mut Maintenance<'_>>,
    ) -> Result<()> {
        let rules = &component.rules;
        let rule_ids = rules
            .iter()
            .map(|r| {
                self.trace
                    .register_rule(index, &r.head_predicate, &r.source, r.line as u32)
            })
            .collect();
        let t0 = self.trace.now_ns();
        let span = self.trace.open(root, SpanKind::Stratum, || {
            format!("component {index} ({} rules)", rules.len())
        });
        let mut scope = Scope {
            component,
            index,
            rule_ids,
            span,
            driver: None,
        };
        let result = match (maintenance, self.strategy, component.recursive) {
            (Some(maintenance), ..) => maintenance.component(self, db, &mut scope),
            (None, EvalStrategy::Naive, _) => self.naive(db, &mut scope),
            (None, EvalStrategy::SemiNaive, false) => self.round(db, &mut scope, None).map(drop),
            (None, EvalStrategy::SemiNaive, true) => self.seminaive(db, &mut scope),
        };
        self.trace.stratum_done(index, t0);
        self.trace.close(span);
        result
    }

    /// The paper's loop: every rule against the full relations, until a
    /// round derives nothing new.
    fn naive(&mut self, db: &mut Database, scope: &mut Scope<'_>) -> Result<()> {
        while self.round(db, scope, None)? {}
        Ok(())
    }

    /// Round 1 fires every rule in full (everything read from outside
    /// the component is complete; its own relations hold at most
    /// imported facts), and the delta loop takes it from there.
    pub(crate) fn seminaive(&mut self, db: &mut Database, scope: &mut Scope<'_>) -> Result<()> {
        let ends = head_ends(db, scope);
        self.round(db, scope, None)?;
        self.delta_rounds(db, scope, ends)
    }

    /// The delta loop of a recursive component, once its heads have grown
    /// past `ends`: each round fires, per rule and per scan over a
    /// predicate of the component, the variant with that scan reading
    /// the delta — the rows the round before appended — until a round
    /// appends nothing.
    pub(crate) fn delta_rounds(
        &mut self,
        db: &mut Database,
        scope: &mut Scope<'_>,
        mut deltas: Deltas,
    ) -> Result<()> {
        loop {
            for (head, delta) in &mut deltas {
                *delta = delta.end..db.relation(head).map_or(0, |rel| rel.len());
            }
            if deltas.values().all(Range::is_empty) {
                return Ok(());
            }
            self.round(db, scope, Some(&deltas))?;
        }
    }

    /// One round over the component's rules: full firings, or — given
    /// `deltas` — the delta variants.
    fn round(
        &mut self,
        db: &mut Database,
        scope: &mut Scope<'_>,
        deltas: Option<&Deltas>,
    ) -> Result<bool> {
        let mut firings = Vec::new();
        for (ri, rule) in scope.component.rules.iter().enumerate() {
            // `None` is the full firing; `Some((i, delta))` the variant
            // whose scan at step `i` — over a predicate of the component
            // — reads only `delta`.
            let variants: Vec<Option<(usize, Range<usize>)>> = match deltas {
                None => vec![None],
                Some(deltas) => (rule.steps.iter().enumerate())
                    .filter_map(|(i, s)| match s {
                        Step::Scan { relation, .. } => Some((i, deltas.get(relation)?.clone())),
                        _ => None,
                    })
                    .map(Some)
                    .collect(),
            };
            firings.extend(variants.into_iter().map(|delta| {
                let exec = ExecCtx { delta, ..self.exec };
                (ri, rule, exec)
            }));
        }
        self.fire_round(db, None, scope, firings)
    }

    /// One round of `firings`, which read `reads` — `db` when `None` —
    /// and insert what they derive into `db`. Checks the run's limits
    /// once the round is over and returns whether anything new was
    /// derived; a round with nothing to fire is no round.
    pub(crate) fn fire_round(
        &mut self,
        db: &mut Database,
        reads: Option<&Database>,
        scope: &mut Scope<'_>,
        firings: Vec<Firing<'_, '_>>,
    ) -> Result<bool> {
        if firings.is_empty() {
            return Ok(false);
        }
        let component = scope.component;
        self.stats.rounds += 1;
        // Only a recursive component can run away; a long chain of
        // non-recursive ones must not trip the guard meant for that.
        self.charged_rounds += usize::from(component.recursive);
        self.trace.round(scope.index);
        let rounds = self.stats.rounds;
        let round_span = self
            .trace
            .open(scope.span, SpanKind::Round, || format!("round {rounds}"));
        let mut changed = false;
        for (ri, plan, exec) in firings {
            let rule_span = self
                .trace
                .open(round_span, SpanKind::Rule, || plan.source.clone());
            let mut tr = TraceCtx {
                trace: &mut *self.trace,
                rule: scope.rule_ids[ri],
                parent: rule_span,
            };
            let fired = fire_rule(
                reads,
                db,
                plan,
                &exec,
                self.limits,
                &mut self.stats,
                &mut tr,
            );
            self.trace.close(rule_span);
            if fired? {
                changed = true;
                scope.driver = Some(ri);
            }
        }
        self.trace.close(round_span);
        let driver = scope.driver.map(|ri| &component.rules[ri]);
        self.limits
            .check(&self.stats, self.charged_rounds, driver)?;
        if let Some(d) = self.exec.deadline {
            d.check(driver)?;
        }
        Ok(changed)
    }
}

/// Executes one rule plan over `reads` (`db` when `None`) and inserts its
/// derivations into `db` — the new ones go to the end of the head's
/// arena, which is all a delta needs — reporting the firing to the trace
/// (also on the limit-abort path, so an aborted run still profiles the
/// culprit's partial work). Returns whether any tuple was new.
fn fire_rule(
    reads: Option<&Database>,
    db: &mut Database,
    rule: &RulePlan,
    exec: &ExecCtx<'_>,
    limits: EvalLimits,
    stats: &mut EvalStats,
    tr: &mut TraceCtx<'_>,
) -> Result<bool> {
    stats.rule_firings += 1;
    let t0 = tr.trace.now_ns();
    let relations = reads.unwrap_or(db).relations();
    let derived = match plan::execute_with(rule, relations, exec, tr) {
        Ok(d) => d,
        Err(e) => {
            tr.trace.rule_fired(tr.rule, 0, 0, t0);
            return Err(e);
        }
    };
    let derived_n = derived.iter().map(Rows::len).sum::<usize>();
    stats.tuples_derived += derived_n;
    let new_before = stats.tuples_new;
    let mut within = Ok(());
    // Shard by shard, each piece going once it is in.
    'insert: for piece in derived {
        for row in piece.iter() {
            if db.insert_derived(&rule.head_predicate, row)? {
                stats.tuples_new += 1;
                within = limits.check_rows(stats, Some(rule));
                if within.is_err() {
                    break 'insert;
                }
            }
        }
    }
    let new_n = stats.tuples_new - new_before;
    tr.trace
        .rule_fired(tr.rule, derived_n as u64, new_n as u64, t0);
    within.map(|()| new_n > 0)
}

/// The current end of every head relation of the scope's component: the
/// deltas the delta loop starts from.
pub(crate) fn head_ends(db: &Database, scope: &Scope<'_>) -> Deltas {
    let heads = scope.component.rules.iter().map(|r| &r.head_predicate);
    let len = |head: &str| db.relation(head).map_or(0, |rel| rel.len());
    heads.map(|h| (h.clone(), 0..len(h))).collect()
}
