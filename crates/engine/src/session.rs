//! The [`Session`]: the object that "facilitates communication between
//! the \[host\] and Spannerlog runtimes" (paper §3.2).
//!
//! A session owns the fact database, the rule set, and the IE registry.
//! The paper's four verbs still drive it, as thin wrappers over the
//! prepare/execute lifecycle:
//!
//! * [`Session::import_dataframe`] — host table → engine relation;
//! * [`Session::run`] — execute a cell of Spannerlog source
//!   (declarations, facts, rules, queries) as one write;
//! * [`Session::export`] — evaluate a query, returning a `DataFrame`;
//! * [`Session::register`] — host closure → IE function callable from
//!   rules.
//!
//! Serving paths use the layered lifecycle instead:
//!
//! 1. [`Session::builder`] configures parallelism, tracing, resource
//!    limits, and seeds the IE registry;
//! 2. [`Session::prepare`] / [`Session::prepare_program`] hand out the
//!    rule set's compilation — parse → safety analysis → IE sequencing →
//!    stratification → planning, run once, by the `run` that loaded the
//!    rules — as a `PreparedQuery` / `PreparedProgram`;
//! 3. `PreparedQuery::execute` runs repeatedly against freshly imported
//!    relations: the evaluation driver (`driver.rs`) skips the fixpoint
//!    when no input relation changed, or maintains the derived relations
//!    from the rows that changed (`crate::maintain`), or — in the cases
//!    [`FullReason`](crate::FullReason) names — evaluates in full;
//! 4. [`Session::snapshot`] freezes the evaluated state into a
//!    `Send + Sync` `Snapshot` for lock-free concurrent reads.
//!
//! This file keeps the builder and the mutation front: imports, facts,
//! rules, registrations, declarations, the document lifecycle. Queries,
//! exports, snapshots and stats are the read surface (`read.rs`).
//!
//! Every write takes one path (`write.rs`): after it the loaded rules
//! compile, and a refused one is undone whole.
//!
//! # Threading contract
//!
//! One thread drives a session at a time; concurrency enters at two
//! deliberate seams. *Reads* scale through [`Session::snapshot`], which
//! freezes an evaluated database into a `Send + Sync` snapshot — the
//! `Arc` the session also keeps as the state its next maintained
//! evaluation updates from, so the first write after an evaluation
//! copies the database once, snapshot or not (unless the program can
//! never be maintained: see `basis_for` in `driver.rs`).
//! *Evaluation* scales through [`SessionBuilder::parallelism`]: a rule
//! firing shards — by row range of its first scan that reads a plain
//! range (`shard::shard_scan`) — across the driving thread and threads
//! scoped to the firing (`spannerlib_par`), so no thread outlives the
//! call that spawned it. Every evaluation — sharded or not — keeps the
//! document store behind a read-write lock for the duration of the run,
//! so an IE function meets the same locking discipline under
//! `parallelism(0)` as on a many-core host. (A call two IE atoms ask
//! alike, or one asks inside a recursion, is no shared state: the
//! program plans it as a relation, `crate::share`.)
//! Parallel and serial runs derive identical tuple *sets*
//! (property-tested).
//! Registered IE functions must therefore be `Send + Sync` (the trait
//! already requires it) and must tolerate concurrent invocation on
//! distinct argument tuples. If an IE function panics, the panic stops
//! at the call — on the driving thread or a shard's — and the run fails
//! (after sibling shards drain) with [`EngineError::IePanicked`], naming
//! the function and, if one rule asked the call, the rule; the document
//! store is back in the session by then and derived relations are
//! recomputed in full by the next evaluation
//! (`FullReason::PreviousRunFailed`), so the session stays usable.

use crate::database::Database;
use crate::error::{EngineError, Result};
use crate::eval::{EvalLimits, EvalStats};
use crate::ie::{IeContext, IeFunction, IeRows};
use crate::prepared::CompiledProgram;
use crate::registry::Registry;
use crate::safety::constant_value;
use rustc_hash::FxHashSet;
use spannerlib_cache::DocGc;
use spannerlib_core::{CompactionReport, DocId, Relation, Schema, Tuple, Value};
use spannerlib_dataframe::{DataFrame, IntoRows};
use spannerlib_trace::{EvalProfile, TraceLevel};
use spannerlog_parser::{parse_program, Query, Rule, Statement};
use std::iter::once;
use std::sync::Arc;

pub(crate) mod driver;
mod read;
mod write;

use write::Edit;

/// Configures and builds a [`Session`]: resource limits, tracing,
/// parallelism, and IE registry seeding, in one fluent pass.
///
/// ```
/// # use spannerlog_engine::Session;
/// # use spannerlib_core::Value;
/// let mut session = Session::builder()
///     .max_fixpoint_rounds(10_000)
///     .max_materialized_rows(1_000_000)
///     .register("shout", Some(1), |args, out, _ctx| {
///         let s = args[0].as_str().unwrap_or_default().to_uppercase();
///         out.push(&[Value::str(s)])
///     })
///     .build();
/// # session.run("new S(str)").unwrap();
/// ```
pub struct SessionBuilder {
    /// The session being configured, as [`SessionBuilder::build`]
    /// returns it.
    session: Session,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        let session = Session {
            db: Arc::new(Database::new()),
            last: driver::NOT_EVALUATED,
            registry: Registry::new(),
            rules: Vec::new(),
            limits: EvalLimits::default(),
            compiled: None,
            last_stats: EvalStats::default(),
            doc_gc: DocGc::Disabled,
            gc_rearm_bytes: 0,
            trace_level: TraceLevel::Off,
            last_profile: None,
            parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            eval_seq: 0,
            pending_request_ids: Vec::new(),
        };
        SessionBuilder { session }
    }
}

impl SessionBuilder {
    /// A builder with builtin IE functions.
    pub fn new() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// Bounds the number of fixpoint rounds per evaluation, summed over
    /// the program's recursive components (guards runaway recursion in
    /// long-lived serving sessions; rules outside recursion fire once
    /// and are not counted).
    pub fn max_fixpoint_rounds(mut self, rounds: usize) -> SessionBuilder {
        self.session.limits.max_rounds = Some(rounds);
        self
    }

    /// Bounds the number of tuples one evaluation may materialize.
    pub fn max_materialized_rows(mut self, rows: usize) -> SessionBuilder {
        self.session.limits.max_rows = Some(rows);
        self
    }

    /// Bounds the wall-clock time of one evaluation, in milliseconds.
    /// The budget is anchored when the fixpoint starts and checked once
    /// per fixpoint round, before every IE call, and every few thousand
    /// candidate rows inside a join; an overrun surfaces as
    /// [`EngineError::LimitExceeded`] naming the rule that was executing
    /// (resource `"eval wall-clock millis"`). This is the primitive
    /// per-request deadlines in a serving front end build on — see
    /// [`Session::set_max_eval_millis`] for adjusting the budget between
    /// runs.
    pub fn max_eval_millis(mut self, millis: u64) -> SessionBuilder {
        self.session.limits.max_millis = Some(millis);
        self
    }

    /// Configures automatic document-store compaction. With
    /// [`DocGc::Threshold`], `remove_relation` and replacing imports
    /// trigger a compaction pass once live document text exceeds the
    /// watermark, tombstoning documents referenced by no relation.
    /// Default: [`DocGc::Disabled`] (compaction only via
    /// [`Session::compact_docs`]).
    pub fn doc_gc(mut self, policy: DocGc) -> SessionBuilder {
        self.session.doc_gc = policy;
        self
    }

    /// Sets how much each evaluation records ([`TraceLevel::Off`] by
    /// default): `Summary` produces an [`EvalProfile`] (per-rule and
    /// per-IE-function counters and wall times, read via
    /// [`Session::profile`]). At `Off` the evaluation hot path pays only
    /// a branch per instrumentation site.
    pub fn tracing(mut self, level: TraceLevel) -> SessionBuilder {
        self.session.trace_level = level;
        self
    }

    /// Sets how many threads parallel evaluation uses, the calling
    /// thread included (default: the machine's available parallelism).
    /// A rule firing is sharded by row range of one scan across the
    /// calling thread and `workers − 1` threads spawned for the firing;
    /// an aggregate head folds the shards' rows on the calling thread.
    /// `0` or `1` keeps every firing on the calling thread (one shard),
    /// as does a maintained evaluation, whose firings cover a few changed
    /// rows. Parallel and serial evaluation derive identical tuple sets
    /// (property-tested). See the module docs' threading contract.
    pub fn parallelism(mut self, workers: usize) -> SessionBuilder {
        self.session.parallelism = workers;
        self
    }

    /// Seeds the IE registry with a closure (same contract as
    /// [`Session::register`]).
    pub fn register<F>(mut self, name: &str, input_arity: Option<usize>, f: F) -> SessionBuilder
    where
        F: Fn(&[Value], &mut IeRows<'_>, &mut IeContext<'_>) -> Result<()> + Send + Sync + 'static,
    {
        self.session.registry.register_closure(name, input_arity, f);
        self
    }

    /// Seeds the IE registry with a function object.
    pub fn register_ie(mut self, name: &str, f: Arc<dyn IeFunction>) -> SessionBuilder {
        self.session.registry.register_ie(name, f);
        self
    }

    /// Builds the session.
    pub fn build(self) -> Session {
        self.session
    }
}

/// An embedded Spannerlog engine instance.
pub struct Session {
    /// Copy-on-write: snapshots and the last run's basis share this
    /// `Arc`; the first mutation after an evaluation clones the database
    /// once (`Arc::make_mut`), so `Session::snapshot` itself is O(1).
    db: Arc<Database>,
    /// The last successful evaluation — the program, its inputs'
    /// generations and the database the next run maintains — or why
    /// there is none to build on.
    last: driver::OrFull<driver::LastRun>,
    registry: Registry,
    rules: Vec<Rule>,
    limits: EvalLimits,
    /// The current rule set's compilation; dropped whenever it could
    /// change: rules added or cleared, registrations, or the set of
    /// known relation names.
    compiled: Option<Arc<CompiledProgram>>,
    last_stats: EvalStats,
    /// When to compact the document store automatically.
    doc_gc: DocGc,
    /// Hysteresis for the threshold policy: the next automatic pass
    /// arms only once resident bytes exceed this. Re-derived after
    /// every pass as `live bytes + configured threshold`, so a live set
    /// that permanently exceeds the watermark does not degenerate into
    /// a full no-op mark-and-sweep on every mutation.
    gc_rearm_bytes: usize,
    /// How much each evaluation records ([`SessionBuilder::tracing`]).
    trace_level: TraceLevel,
    /// Profile of the most recent fixpoint run (including aborted ones);
    /// `None` until a run happens with tracing at `Summary` or above.
    last_profile: Option<Arc<EvalProfile>>,
    /// Lanes for parallel evaluation, the calling thread included
    /// ([`SessionBuilder::parallelism`]); `0`/`1` = serial.
    parallelism: usize,
    /// Monotonic count of fixpoint runs actually executed (skipped
    /// evaluations do not bump it). Stamped onto each run's
    /// [`EvalProfile`] and onto snapshots, so serving layers can
    /// attribute a published result to the evaluation that produced it.
    eval_seq: u64,
    /// Request ids waiting to be attributed to the *next* fixpoint run
    /// ([`Session::set_request_ids`]). Consumed — attached or discarded
    /// — by the next `ensure_evaluated` call.
    pending_request_ids: Vec<String>,
}

impl Default for Session {
    fn default() -> Self {
        Self::new()
    }
}

impl Session {
    /// A fresh session with builtin IE functions.
    pub fn new() -> Session {
        Session::builder().build()
    }

    /// Starts configuring a session (limits, tracing, parallelism,
    /// registry seeds).
    pub fn builder() -> SessionBuilder {
        SessionBuilder::new()
    }

    /// Adjusts the wall-clock budget of *subsequent* evaluations (see
    /// [`SessionBuilder::max_eval_millis`]); `None` removes the limit.
    /// Serving front ends call this per request to turn a client
    /// deadline into an evaluation budget. Does not force
    /// re-evaluation: limits gate how long a run may take, not what it
    /// derives.
    pub fn set_max_eval_millis(&mut self, millis: Option<u64>) {
        self.limits.max_millis = millis;
    }

    /// Adjusts the materialized-row budget of subsequent evaluations
    /// (see [`SessionBuilder::max_materialized_rows`]); `None` removes
    /// the limit. Like [`Session::set_max_eval_millis`], never forces
    /// re-evaluation.
    pub fn set_max_materialized_rows(&mut self, rows: Option<usize>) {
        self.limits.max_rows = rows;
    }

    // ------------------------------------------------------------------
    // Pillar 2: host → engine (import; the export side is `read.rs`)
    // ------------------------------------------------------------------

    /// Imports a DataFrame as relation `name`, replacing any previous
    /// relation of that name (the paper's `session.import(df, name)`).
    ///
    /// Replacing an existing relation with data of a *different schema*
    /// is rejected with [`EngineError::SchemaMismatch`] — dependent
    /// rules and prepared programs were planned against the old shape.
    pub fn import_dataframe(&mut self, df: &DataFrame, name: &str) -> Result<()> {
        self.import_relation(name, df.to_relation())
    }

    /// Imports an already-built relation (same schema rules as
    /// [`Session::import_dataframe`]). An import that gives a rule head
    /// another arity is refused, and leaves the name as it was.
    pub fn import_relation(&mut self, name: &str, relation: Relation) -> Result<()> {
        Database::check_name(name)?;
        let existing = self.db.extensional_schema(name);
        if let Some(existing) = existing.filter(|&s| s != relation.schema()) {
            return Err(EngineError::SchemaMismatch {
                relation: name.to_string(),
                expected: existing.to_string(),
                actual: relation.schema().to_string(),
            });
        }
        self.write(once(Edit::Put(name, Some(relation))))?;
        self.maybe_compact_docs();
        Ok(())
    }

    /// Imports typed host rows as relation `name` — the symmetric
    /// counterpart of [`Session::export_typed`]. The schema is taken
    /// from the first row; an empty import requires the relation to
    /// already exist (it is then cleared).
    pub fn import_typed<R: IntoRows>(&mut self, name: &str, rows: R) -> Result<()> {
        let rows = rows.into_rows();
        let Some(first) = rows.first() else {
            let Some(schema) = self.db.extensional_schema(name).cloned() else {
                return Err(EngineError::UnknownRelation(format!(
                    "{name} (an empty typed import needs an existing relation to take \
                     its schema from)"
                )));
            };
            return self.import_relation(name, Relation::new(schema));
        };
        let schema = Schema::new(first.iter().map(Value::value_type).collect::<Vec<_>>());
        let mut relation = Relation::new(schema);
        for row in rows {
            relation.insert(Tuple::new(row))?;
        }
        self.import_relation(name, relation)
    }

    /// Runs a cell of Spannerlog source. Declarations, facts, and rules
    /// mutate the session; queries evaluate eagerly and their results are
    /// returned in order. The cell is one write: if it fails — at a
    /// statement, at a query or because its rules do not compile — it is
    /// undone, and the session holds what it held before the call.
    pub fn run(&mut self, source: &str) -> Result<Vec<(Query, DataFrame)>> {
        let statements = parse_program(source)?.statements;
        self.write(statements.into_iter().map(|statement| match statement {
            Statement::Declaration(d) => Edit::Declare(d.name.into(), Schema::new(d.types)),
            Statement::Fact(f) => Edit::Fact(
                f.predicate.into(),
                f.values.iter().map(constant_value).collect(),
            ),
            Statement::Rule(r) => Edit::Rule(r),
            Statement::Query(q) => Edit::Query(q),
        }))
    }

    // ------------------------------------------------------------------
    // Pillar 3: registering host code as IE functions
    // ------------------------------------------------------------------

    /// Registers a closure as an IE function (the paper's
    /// `session.register(foo, input=…, output=…)`). `input_arity` of
    /// `None` means variadic. `f(args, out, ctx)` writes each output row
    /// with [`IeRows::push`] (a filter: [`IeRows::keep`]). `f` must be a
    /// pure function of its arguments, because its answers are shared
    /// within a run and kept across maintained runs.
    pub fn register<F>(&mut self, name: &str, input_arity: Option<usize>, f: F)
    where
        F: Fn(&[Value], &mut IeRows<'_>, &mut IeContext<'_>) -> Result<()> + Send + Sync + 'static,
    {
        self.registry.register_closure(name, input_arity, f);
        self.invalidate_program();
    }

    /// Registers an IE function object.
    pub fn register_ie(&mut self, name: &str, f: Arc<dyn IeFunction>) {
        self.registry.register_ie(name, f);
        self.invalidate_program();
    }

    /// Registers an aggregation function.
    pub fn register_aggregate(&mut self, name: &str, f: Arc<dyn crate::aggregate::AggFunction>) {
        self.registry.register_aggregate(name, f);
        self.invalidate_program();
    }

    /// Registers a conversion function usable inside aggregation terms.
    pub fn register_conversion(&mut self, name: &str, f: Arc<dyn crate::aggregate::Conversion>) {
        self.registry.register_conversion(name, f);
        self.invalidate_program();
    }

    /// The registry (read access, e.g. for direct IE invocation in tests).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    // ------------------------------------------------------------------
    // Direct fact/relation access
    // ------------------------------------------------------------------

    /// Declares a relation programmatically. Like a cell's `new`, it is
    /// checked against the rules loaded: a schema that gives a rule head
    /// another arity is refused, and the name stays undeclared.
    pub fn declare(&mut self, name: &str, schema: Schema) -> Result<()> {
        self.write(once(Edit::Declare(name.into(), schema)))
            .map(drop)
    }

    /// Removes a relation (facts and schema) so long-lived sessions can
    /// evict state instead of being rebuilt. A relation a loaded rule
    /// reads is refused, as the rules would no longer compile: the host
    /// clears or replaces those rules first, or empties the relation
    /// with an import instead.
    ///
    /// Document texts interned by removed tuples are reclaimed by
    /// doc-store compaction: automatically under a
    /// [`SessionBuilder::doc_gc`] threshold policy, or explicitly via
    /// [`Session::compact_docs`].
    pub fn remove_relation(&mut self, name: &str) -> Result<()> {
        // Before db_mut: Arc::make_mut would deep-clone a snapshot-shared
        // database just to fail.
        if self.db.visible(name).is_none() {
            return Err(EngineError::UnknownRelation(name.to_string()));
        }
        self.write(once(Edit::Put(name, None)))?;
        self.maybe_compact_docs();
        Ok(())
    }

    /// Removes every rule (facts and registrations are kept); a cell
    /// whose rules do not compile leaves none behind to remove.
    pub fn clear_rules(&mut self) {
        self.rules.clear();
        self.invalidate_program();
    }

    /// Number of rules currently loaded.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Adds one fact programmatically.
    pub fn add_fact(
        &mut self,
        relation: &str,
        values: impl IntoIterator<Item = Value>,
    ) -> Result<()> {
        let fact = Edit::Fact(relation.into(), values.into_iter().collect());
        self.write(once(fact)).map(drop)
    }

    /// Interns a document, returning its id.
    pub fn intern(&mut self, text: &str) -> DocId {
        self.db_mut().docs.intern(text)
    }

    // ------------------------------------------------------------------
    // Document lifecycle
    // ------------------------------------------------------------------

    /// Compacts the document store now: documents referenced by no span
    /// in any relation (extensional or derived) are tombstoned and
    /// their text released — relations are the only roots. Surviving ids
    /// are unchanged, so spans held by the host stay valid; the store's
    /// epoch is bumped. Snapshots taken earlier keep their own frozen
    /// store (copy-on-write).
    ///
    /// When everything is live the pass returns a zero report *without*
    /// touching the store — in particular, without forcing the
    /// copy-on-write database clone a live snapshot would otherwise pay —
    /// and the epoch stays put.
    pub fn compact_docs(&mut self) -> CompactionReport {
        let mut live: FxHashSet<DocId> = FxHashSet::default();
        for (_, relation) in self.db.iter() {
            let spans = relation.iter().flatten().filter_map(Value::as_span);
            live.extend(spans.map(|span| span.doc));
        }
        let docs = &self.db.docs;
        let report = if docs.iter().all(|(id, _)| live.contains(&id)) {
            CompactionReport {
                epoch: docs.epoch(),
                removed_docs: 0,
                kept_docs: docs.len(),
                reclaimed_bytes: 0,
                live_bytes: docs.bytes(),
            }
        } else {
            self.db_mut().docs.compact(|id| live.contains(&id))
        };
        if let DocGc::Threshold { bytes } = self.doc_gc {
            self.gc_rearm_bytes = report.live_bytes + bytes;
        }
        report
    }

    /// Runs a compaction pass if the configured [`DocGc`] policy says
    /// the store has outgrown its watermark — with hysteresis: after a
    /// pass, the next one arms only once resident bytes grow a full
    /// threshold past what survived. Called after eviction-shaped
    /// mutations (`remove_relation`, replacing imports).
    fn maybe_compact_docs(&mut self) {
        let bytes = self.db.docs.bytes();
        if self.doc_gc.should_compact(bytes) && bytes > self.gc_rearm_bytes {
            self.compact_docs();
        }
    }

    /// Mutable access; clones the database first if a live [`Snapshot`]
    /// still shares it (copy-on-write).
    fn db_mut(&mut self) -> &mut Database {
        Arc::make_mut(&mut self.db)
    }
}
