//! The evaluation driver: whether a [`Session`]'s next evaluation is
//! skipped, maintained or run in full, and the run itself.
//!
//! The session keeps one record of its last run ([`LastRun`]) — or why
//! there is none to build on. Each evaluation compares the generations
//! of its program's inputs with that record once: nothing moved under
//! the same program skips the run. Otherwise one run brings the derived
//! relations up to date (`crate::maintain`): from the database the last
//! run left and what the moved inputs gained and lost since — or, when a
//! [`FullReason`] says that cannot be built on, from the empty database,
//! after the derived relations are cleared.

use super::Session;
use crate::database::Database;
use crate::error::Result;
use crate::eval::{self, EvalCtx, EvalStats};
use crate::maintain::Seeds;
use crate::prepared::{CompiledProgram, PreparedProgram, PreparedQuery};
use rustc_hash::FxBuildHasher;
use spannerlib_trace::{EvalProfile, RunTrace, TraceLevel};
use std::hash::BuildHasher;
use std::sync::Arc;

/// Why an evaluation derived everything again from its inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FullReason {
    /// The session had not evaluated yet.
    FirstEvaluation,
    /// The rules, the registrations or the relation names changed since
    /// the last evaluation, or it evaluated another program.
    ProgramChanged,
    /// The last evaluation failed or was aborted, so the derived
    /// relations are partial.
    PreviousRunFailed,
    /// A rule derives into an extensional relation, where facts and
    /// derived rows share one relation.
    InputIsRuleHead,
    /// A compaction pass ran since the last evaluation: a row the last
    /// run derived or an input lost may name a document that is gone, or
    /// an id the pass gave another document.
    DocumentsCompacted,
    /// `Session::set_tracing` switched tracing on, which asks for the
    /// profile of a full run. Switching it off keeps the last run as the
    /// basis.
    TracingChanged,
}

impl FullReason {
    /// A short description, as profiles print it.
    pub fn describe(self) -> &'static str {
        match self {
            FullReason::FirstEvaluation => "first evaluation",
            FullReason::ProgramChanged => "program changed",
            FullReason::PreviousRunFailed => "previous run failed",
            FullReason::InputIsRuleHead => "input relation is a rule head",
            FullReason::DocumentsCompacted => "documents compacted",
            FullReason::TracingChanged => "trace level changed",
        }
    }
}

/// How an evaluation brought the derived relations up to date.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalMode {
    /// Every derived relation dropped and derived again from the inputs.
    Full(FullReason),
    /// The derived relations updated from the input rows that changed.
    Maintained {
        /// Input rows added since the last evaluation.
        added: usize,
        /// Input rows removed since the last evaluation.
        removed: usize,
    },
}

impl Default for EvalMode {
    fn default() -> Self {
        EvalMode::Full(FullReason::FirstEvaluation)
    }
}

impl EvalMode {
    /// Writes the mode onto the run's profile.
    fn record(self, profile: &mut EvalProfile) {
        match self {
            EvalMode::Full(reason) => profile.full_reason = Some(reason.describe().to_string()),
            EvalMode::Maintained { added, removed } => {
                profile.maintained = true;
                profile.seed_rows_added = added as u64;
                profile.seed_rows_removed = removed as u64;
            }
        }
    }
}

/// A value — or why the next evaluation must run in full instead.
pub(crate) type OrFull<T> = std::result::Result<T, FullReason>;

/// The last successful evaluation: which program, the generations of its
/// inputs when it finished, and the database it left as the next one's
/// basis.
pub(crate) struct LastRun {
    program_id: u64,
    input_gens: Vec<u64>,
    /// The database the run left, which the next run maintains — or why
    /// no run of the program can be maintained, in which case the session
    /// keeps no second reference to it and a write changes it in place.
    basis: OrFull<Arc<Database>>,
}

impl LastRun {
    /// The snapshot fingerprint: moves when the program recompiles or an
    /// input it reads changes, and only then.
    pub(super) fn fingerprint(&self) -> u64 {
        FxBuildHasher::default().hash_one((self.program_id, &self.input_gens))
    }
}

/// What a session that has not evaluated yet knows of its last run.
pub(super) const NOT_EVALUATED: OrFull<LastRun> = Err(FullReason::FirstEvaluation);

/// The database a run over `db` builds on — `last`'s, given the inputs
/// that `moved` since (`None` when `last` ran another program) — or why
/// it must start from the empty database.
fn basis<'m>(
    last: OrFull<LastRun>,
    moved: Option<Vec<&'m String>>,
    db: &Database,
) -> OrFull<(Arc<Database>, Vec<&'m String>)> {
    let old = last?.basis?;
    let moved = moved.ok_or(FullReason::ProgramChanged)?;
    if old.docs.epoch() != db.docs.epoch() {
        return Err(FullReason::DocumentsCompacted);
    }
    Ok((old, moved))
}

impl Session {
    /// Changes the trace level of subsequent evaluations. Switching
    /// tracing on forces the next query to re-evaluate in full, so it
    /// yields a profile without requiring an input mutation; switching it
    /// off keeps the last run as the next one's basis.
    pub fn set_tracing(&mut self, level: TraceLevel) {
        if self.trace_level != level && level.summarizes() {
            self.last = Err(FullReason::TracingChanged);
        }
        self.trace_level = level;
    }

    /// Attributes the *next* fixpoint run to serving requests: `ids`
    /// land on that run's [`EvalProfile::request_ids`]. The pending set
    /// is consumed by the next `ensure_evaluated` call — attached if it
    /// evaluates, discarded if the fingerprint lets it skip (the
    /// requests were then served by already-current state and owe no
    /// evaluation). Outside a serving front end there is rarely a
    /// reason to call this.
    pub fn set_request_ids(&mut self, ids: Vec<String>) {
        self.pending_request_ids = ids;
    }

    /// Marks compile-relevant state (rules, registrations, relation name
    /// set) as changed. The next evaluation runs in full — even that of
    /// a program prepared before, which may call a function registered
    /// since.
    pub(super) fn invalidate_program(&mut self) {
        self.compiled = None;
        self.rebase(None);
    }

    /// After the rules compiled into `program` (`None`: before they
    /// compile again), the last run stays the next one's basis only if it
    /// ran that program: one compiled before may read a name a write gave
    /// other rows, or call a function registered since.
    pub(super) fn rebase(&mut self, program: Option<&CompiledProgram>) {
        if let Ok(last) = &mut self.last {
            if last.basis.is_ok() && program.is_none_or(|p| p.id != last.program_id) {
                last.basis = Err(FullReason::ProgramChanged);
            }
        }
    }

    /// What the evaluation of `program` that just left the database hands
    /// the next one to maintain: the database itself — or, when no
    /// evaluation of `program` can be maintained whatever the inputs do,
    /// why not.
    fn basis_for(&self, program: &CompiledProgram) -> OrFull<Arc<Database>> {
        let mut rules = program.components.iter().flat_map(|c| &c.rules);
        if rules.any(|r| self.db.is_extensional(&r.head_predicate)) {
            return Err(FullReason::InputIsRuleHead);
        }
        Ok(Arc::clone(&self.db))
    }

    /// The current rule set's compilation — safety analysis (deriving IE
    /// execution order), stratification, and planning — as a shareable
    /// [`PreparedProgram`].
    ///
    /// [`Session::run`] compiled the rules when they arrived, refusing
    /// unsafe and unstratifiable ones; this compiles again only if a
    /// registration or the relation names changed since. Relations the
    /// rules read must be declared or imported before the rules arrive
    /// (so the compiler can distinguish relation atoms from IE filters);
    /// their *content* may be re-imported freely between executions.
    pub fn prepare_program(&mut self) -> Result<PreparedProgram> {
        Ok(PreparedProgram {
            inner: self.program()?,
        })
    }

    /// Prepares one query: compiles the rules (cached per rule-set
    /// revision) and parses `query_src` once. The returned
    /// [`PreparedQuery`] executes repeatedly against freshly imported
    /// data without re-parsing, re-checking, or re-planning.
    pub fn prepare(&mut self, query_src: &str) -> Result<PreparedQuery> {
        self.prepare_program()?.query(query_src)
    }

    /// The compiled program for the current rule set (cached until the
    /// rules, registrations, or relation name set change).
    pub(super) fn program(&mut self) -> Result<Arc<CompiledProgram>> {
        if let Some(program) = &self.compiled {
            return Ok(Arc::clone(program));
        }
        let program = CompiledProgram::compile(&self.rules, &self.db, &self.registry)?;
        Ok(Arc::clone(self.compiled.insert(Arc::new(program))))
    }

    /// Forces evaluation of the current rule set now (queries call this
    /// implicitly).
    pub fn ensure_evaluated(&mut self) -> Result<()> {
        let program = self.program()?;
        self.ensure_evaluated_with(&program).map(drop)
    }

    /// Brings the derived state up to date with `program` and returns
    /// it: nothing to do when the last run ran it and none of its inputs
    /// moved since (O(|inputs|)); otherwise one run from the input rows
    /// that changed — all of them, from the empty database, in the cases
    /// [`FullReason`] names. A full evaluation over a database a snapshot
    /// shares copies only the extensional relations and the documents.
    pub(crate) fn ensure_evaluated_with(&mut self, program: &CompiledProgram) -> Result<&Database> {
        // The one comparison of input generations: `None` when the last
        // run ran another program (or none ran), else the inputs it read
        // whose generation moved since.
        let db = &self.db;
        let last = self
            .last
            .as_ref()
            .ok()
            .filter(|l| l.program_id == program.id);
        let moved = last.map(|last| {
            let inputs = program.input_relations.iter().zip(&last.input_gens);
            let moved = inputs.filter(|&(name, &gen)| db.generation(name) != gen);
            moved.map(|(name, _)| name).collect::<Vec<_>>()
        });
        if moved.as_ref().is_some_and(Vec::is_empty) {
            // Served by already-current state: the pending request ids
            // owe no evaluation, so drop them rather than let them
            // mis-attribute to a later, unrelated run.
            self.pending_request_ids.clear();
            return Ok(&self.db);
        }
        let mut trace = RunTrace::new(self.trace_level);
        self.eval_seq += 1;
        trace.serving_context(self.eval_seq, std::mem::take(&mut self.pending_request_ids));
        let last = std::mem::replace(&mut self.last, Err(FullReason::PreviousRunFailed));
        let seeds = Seeds::new(basis(last, moved, &self.db), &mut self.db);
        let mode = seeds.mode(&self.db);
        let ctx = EvalCtx {
            registry: &self.registry,
            limits: self.limits,
            workers: self.parallelism,
        };
        let db = Arc::make_mut(&mut self.db);
        let result = eval::run(db, program, &ctx, &mut trace, seeds);
        // Capture the profile before propagating errors: an aborted run
        // leaves its partial per-component progress in `profile()`, and an
        // untraced run leaves none.
        let profile = trace.finish(result.as_ref().err().map(|e| e.to_string()));
        self.last_profile = profile.map(|mut profile| {
            mode.record(&mut profile);
            Arc::new(profile)
        });
        self.last_stats = EvalStats { mode, ..result? };
        // Generations are read *after* the run: rules may derive into
        // extensional heads, and those inserts must not look like fresh
        // external mutations on the next call.
        let input_gens = (program.input_relations.iter())
            .map(|name| self.db.generation(name))
            .collect();
        self.last = Ok(LastRun {
            program_id: program.id,
            input_gens,
            basis: self.basis_for(program),
        });
        Ok(&self.db)
    }
}
