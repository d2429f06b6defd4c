//! Bottom-up evaluation, component by component, in one delta loop.
//!
//! The program arrives as the components of its predicate dependency
//! graph, dependencies first ([`crate::strata`]). The paper's
//! implementation "extended the naive bottom-up evaluation method to
//! include evaluation of IE clauses" (§3.1). This evaluator derives what
//! that loop derives, with less work: every run turns the rows each
//! component's inputs gained and lost into those its heads gained and
//! lost ([`crate::maintain`]) — a full run from the empty database, so
//! each rule fires once and a recursive component then runs the standard
//! delta refinement (Green et al., *Datalog and Recursive Query
//! Processing*). Steps are ordered by estimated cost, scan indexes are
//! reused across the run, and a full run shards every firing across the
//! session's lanes. The paper's loop itself lives in the engine's tests,
//! as a reference evaluator that shares none of this code; the property
//! tests hold every configuration of this one to it.
//!
//! Evaluation respects the session's [`EvalLimits`]: a bound on the
//! rounds of recursive components guards against runaway recursion, a
//! bound on materialized tuples guards against blow-up — both surface
//! as [`EngineError::LimitExceeded`], attributed to the culprit rule.
//!
//! Every run is threaded through a [`RunTrace`] (see `spannerlib_trace`):
//! at `TraceLevel::Off` each call is a branch; at `Summary` per-rule and
//! per-IE counters and wall times accumulate. A component is what the
//! trace crate calls a *stratum*: components are the finest
//! stratification.

use crate::database::Database;
use crate::error::{EngineError, LimitCulprit, Result};
use crate::ie::SharedDocs;
use crate::maintain::Seeds;
use crate::optimizer::IndexCache;
use crate::plan::{self, ExecCtx, RulePlan, Source, TraceCtx};
use crate::prepared::CompiledProgram;
use crate::registry::Registry;
use crate::strata::Component;
use crate::EvalMode;
use spannerlib_core::Rows;
use spannerlib_trace::RunTrace;

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
    /// between fixpoint rounds, before each IE call, every few thousand
    /// rows inside a join, and inside an `rgx_all` call).
    pub max_millis: Option<u64>,
}

/// The wall-clock budget of one evaluation run
/// ([`EvalLimits::max_millis`]), anchored when the run starts. Checked
/// once per fixpoint round, before every IE call, inside `rgx_all` and
/// every few thousand candidate rows inside a join loop — where an
/// evaluation can sink unbounded time — so an overrun surfaces as
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

    /// Whether the budget is spent.
    pub(crate) fn passed(&self) -> bool {
        std::time::Instant::now() >= self.at
    }

    /// Errors with the wall-clock [`EngineError::LimitExceeded`]
    /// (blaming `rule`) once the budget is spent.
    pub(crate) fn check(&self, rule: Option<&RulePlan>) -> Result<()> {
        if self.passed() {
            return Err(EngineError::LimitExceeded {
                resource: "eval wall-clock millis",
                limit: self.limit_ms as usize,
                culprit: culprit_of(rule),
            });
        }
        Ok(())
    }
}

/// The rule an error is blamed on, boxed; none for a shared call's own.
pub(crate) fn culprit_of(rule: Option<&RulePlan>) -> Box<LimitCulprit> {
    Box::new(match rule {
        Some(r) if r.is_written() => LimitCulprit {
            head: r.head_predicate.clone(),
            source: r.source.clone(),
            line: r.line,
        },
        _ => LimitCulprit::unknown(),
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
    /// Rounds of the components holding a rule as written (one per
    /// non-recursive component).
    pub rounds: usize,
    /// Plan executions of the rules as written, semi-naive variants too.
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
pub(crate) struct EvalCtx<'a> {
    /// IE / aggregate / conversion registry.
    pub registry: &'a Registry,
    /// Resource limits.
    pub limits: EvalLimits,
    /// Lanes a firing's shards run on, the calling thread included
    /// (`SessionBuilder::parallelism`); below 2 every firing runs on the
    /// calling thread.
    pub workers: usize,
}

/// The state of one evaluation run, shared by every component.
pub(crate) struct Run<'a> {
    limits: EvalLimits,
    trace: &'a mut RunTrace,
    stats: EvalStats,
    /// Rounds charged against [`EvalLimits::max_rounds`].
    charged_rounds: usize,
    /// The execution environment of every firing; each firing brings its
    /// own sources.
    pub(crate) exec: ExecCtx<'a>,
}

/// The component a [`Run`] is currently evaluating: its index and
/// per-rule profiling handles.
pub(crate) struct Scope<'a> {
    pub(crate) component: &'a Component,
    pub(crate) index: usize,
    rule_ids: Vec<usize>,
    /// Last rule to derive a new tuple — the round-limit culprit.
    driver: Option<usize>,
}

/// One rule firing of a round: the index of the rule in its component,
/// the plan that runs — the rule's own or a variant of it — and, per
/// step, what its scan reads in place of the whole relation.
pub(crate) type Firing<'p> = (usize, &'p RulePlan, Vec<(usize, Source<'p>)>);

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

/// Brings the derived relations of `db` up to date under `program`, from
/// what `seeds` say its inputs gained and lost since the old database,
/// each component under its own trace scope. Progress is reported
/// through `trace` (free when tracing is off); on a limit abort the trace
/// keeps the partial per-component progress.
///
/// For the duration of the run the documents sit behind a
/// [`SharedDocs`] lock — IE functions resolve and intern through it on
/// the calling thread exactly as on shard workers — and move back on
/// every exit (see the threading contract in `crate::session`), as do
/// the database's indexes, which the run reads and extends.
pub(crate) fn run(
    db: &mut Database,
    program: &CompiledProgram,
    ctx: &EvalCtx<'_>,
    trace: &mut RunTrace,
    mut seeds: Seeds,
) -> Result<EvalStats> {
    let lent = Lent {
        docs: SharedDocs::new(std::mem::take(&mut db.docs)),
        indexes: std::mem::take(&mut db.indexes),
        keep: !seeds.is_full(),
        db,
    };
    let db = &mut *lent.db;
    // The database's indexes serve the whole run: relations only grow
    // while it executes (derived state was cleared before it, or a
    // maintained run renumbers what it shrinks), so row ids are stable
    // and an index is extended, never rebuilt, across fixpoint rounds,
    // rules, and components.
    let index_cache = &lent.indexes;
    let (hits, builds) = (index_cache.hits(), index_cache.builds());
    let mut run = Run {
        limits: ctx.limits,
        trace,
        stats: EvalStats::default(),
        charged_rounds: 0,
        exec: ExecCtx {
            registry: ctx.registry,
            sources: &[],
            indexes: index_cache,
            docs: &lent.docs,
            // A run over a few changed rows fires on the calling thread: a
            // shard's fixed cost (a thread, a trace fork and a batch per
            // range) outweighs what another lane saves it — on the
            // two-core reference host even the insertions of 24 new notes
            // run faster on one.
            workers: if seeds.is_full() { ctx.workers } else { 0 },
            deadline: EvalDeadline::start(&ctx.limits),
        },
    };
    let components = &program.components;
    let result = (components.iter().enumerate()).try_for_each(|(index, component)| {
        let rules = &component.rules;
        let rule_ids = (rules.iter())
            .map(|r| (run.trace).register_rule(index, &r.head_predicate, &r.source, r.line as u32))
            .collect();
        let t0 = run.trace.now_ns();
        let mut scope = Scope {
            component,
            index,
            rule_ids,
            driver: None,
        };
        let result = seeds.component(&mut run, db, &mut scope, &program.variants[index]);
        run.trace.stratum_done(index, t0);
        result
    });
    // The index counters and the lanes fold into the trace on both the
    // success and the abort path; shards and IE batches were counted
    // where they ran.
    let (hits, builds) = (index_cache.hits() - hits, index_cache.builds() - builds);
    run.trace.index_cache(hits, builds);
    run.trace.parallel_summary(run.exec.workers as u64, 0, 0);
    result.map(|()| run.stats)
}

impl Run<'_> {
    /// One round of `firings`, which read `db` and insert what they
    /// derive into it — a firing sees what those before it in the round
    /// inserted. Checks the run's limits once the round is over; a round
    /// with nothing to fire is no round.
    pub(crate) fn fire_round(
        &mut self,
        db: &mut Database,
        scope: &mut Scope<'_>,
        firings: Vec<Firing<'_>>,
    ) -> Result<()> {
        if firings.is_empty() {
            return Ok(());
        }
        let component = scope.component;
        // A round of the rules a shared call adds alone is no round.
        if component.rules.iter().any(RulePlan::is_written) {
            self.stats.rounds += 1;
            self.trace.round(scope.index);
        }
        // Only a recursive component can run away; a long chain of
        // non-recursive ones must not trip the guard meant for that.
        self.charged_rounds += usize::from(component.recursive);
        for (ri, plan, sources) in firings {
            let mut tr = TraceCtx {
                trace: &mut *self.trace,
                rule: scope.rule_ids[ri],
            };
            let exec = ExecCtx {
                sources: &sources,
                ..self.exec
            };
            if fire_rule(db, plan, &exec, self.limits, &mut self.stats, &mut tr)? {
                scope.driver = Some(ri);
            }
        }
        let driver = scope.driver.map(|ri| &component.rules[ri]);
        self.limits
            .check(&self.stats, self.charged_rounds, driver)?;
        if let Some(d) = self.exec.deadline {
            d.check(driver)?;
        }
        Ok(())
    }
}

/// Executes one rule plan over `db` and inserts its derivations into it —
/// the new ones go to the end of the head's arena, which is all a delta
/// needs — reporting the firing to the trace (also on the limit-abort
/// path, so an aborted run still profiles the culprit's partial work).
/// Returns whether any tuple was new.
fn fire_rule(
    db: &mut Database,
    rule: &RulePlan,
    exec: &ExecCtx<'_>,
    limits: EvalLimits,
    stats: &mut EvalStats,
    tr: &mut TraceCtx<'_>,
) -> Result<bool> {
    stats.rule_firings += usize::from(rule.is_written());
    let t0 = tr.trace.now_ns();
    let derived = match plan::execute_with(rule, db.relations(), exec, tr) {
        Ok(d) => d,
        Err(e) => {
            tr.trace.rule_fired(tr.rule, 0, 0, t0, rule.is_written());
            return Err(e);
        }
    };
    let derived_n = derived.iter().map(Rows::len).sum::<usize>();
    stats.tuples_derived += derived_n;
    let new_before = stats.tuples_new;
    // Shard by shard, the row cap checked after every new row.
    let mut on_new = || {
        stats.tuples_new += 1;
        limits.check_rows(stats, Some(rule))
    };
    let inserted = (derived.iter())
        .try_for_each(|piece| db.insert_derived(&rule.head_predicate, piece, &mut on_new));
    let new_n = stats.tuples_new - new_before;
    let (derived_n, new_n) = (derived_n as u64, new_n as u64);
    tr.trace
        .rule_fired(tr.rule, derived_n, new_n, t0, rule.is_written());
    inserted.map(|()| new_n > 0)
}
