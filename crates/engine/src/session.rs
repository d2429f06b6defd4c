//! The [`Session`]: the object that "facilitates communication between
//! the \[host\] and Spannerlog runtimes" (paper §3.2).
//!
//! A session owns the fact database, the rule set, and the IE registry.
//! The paper's four verbs still drive it, as thin wrappers over the
//! prepare/execute lifecycle:
//!
//! * [`Session::import_dataframe`] — host table → engine relation;
//! * [`Session::run`] — execute a cell of Spannerlog source
//!   (declarations, facts, rules, queries);
//! * [`Session::export`] — evaluate a query, returning a `DataFrame`;
//! * [`Session::register`] — host closure → IE function callable from
//!   rules.
//!
//! Serving paths use the layered lifecycle instead:
//!
//! 1. [`Session::builder`] configures strategy, resource limits, and
//!    seeds the IE registry;
//! 2. [`Session::prepare`] / [`Session::prepare_program`] run parse →
//!    safety analysis → IE sequencing → stratification → planning
//!    exactly once, yielding a [`PreparedQuery`] / [`PreparedProgram`];
//! 3. [`PreparedQuery::execute`] runs repeatedly against freshly
//!    imported relations — per-relation generation counters skip the
//!    fixpoint whenever no input relation changed, and otherwise a
//!    `SemiNaive` session maintains the derived relations from the rows
//!    that changed (`crate::maintain`), falling back to a full
//!    evaluation in the cases [`FullReason`] names;
//! 4. [`Session::snapshot`] freezes the evaluated state into a
//!    `Send + Sync` [`Snapshot`] for lock-free concurrent reads.
//!
//! # Threading contract
//!
//! One thread drives a session at a time; concurrency enters at two
//! deliberate seams. *Reads* scale through [`Session::snapshot`], which
//! freezes an evaluated database into a `Send + Sync` [`Snapshot`] — the
//! `Arc` the session also keeps as the state its next maintained
//! evaluation updates from, so the first write after an evaluation
//! copies the database once, snapshot or not (unless the program can
//! never be maintained: see `maintain::basis`).
//! *Evaluation* scales through [`SessionBuilder::parallelism`]: a rule
//! firing shards — by row range of its first scan that reads a plain
//! range (`plan::execute_with`) — across the driving thread and threads
//! scoped to the firing (`spannerlib_par`), so no thread outlives the
//! call that spawned it. Every evaluation — sharded or not — keeps the
//! document store behind a read-write lock and the IE memo behind its
//! usual mutex (taken twice per batch of IE calls, never across one)
//! for the duration of the run, so an IE function meets the same
//! locking discipline under `parallelism(0)` as on a many-core host.
//! Parallel
//! and serial runs derive identical tuple *sets* (property-tested).
//! Registered IE functions must therefore be `Send + Sync` (the trait
//! already requires it) and must tolerate concurrent invocation on
//! distinct argument tuples. If an IE function panics, the panic
//! propagates to the driving thread (after sibling shards drain, when
//! it happened on a spawned thread); the document store is back in the session
//! by then and derived relations are recomputed in full by the next
//! evaluation, so a host that catches the unwind can keep using the session.

use crate::database::{cleared, Database};
use crate::error::{EngineError, Result};
use crate::eval::{evaluate, EvalCtx, EvalLimits, EvalStats, EvalStrategy};
use crate::ie::{IeContext, IeFunction, IeOutput};
use crate::maintain::{self, EvalMode, FullReason, Seeds};
use crate::prepared::{CompiledProgram, PreparedProgram, PreparedQuery, Snapshot};
use crate::query::{run_query, QueryPlan};
use crate::registry::Registry;
use crate::safety::constant_value;
use parking_lot::Mutex;
use rustc_hash::FxHashSet;
use spannerlib_cache::{CacheStats, DocGc, IeMemo, SharedIeMemo};
use spannerlib_core::{
    CompactionReport, DocId, DocumentStore, Relation, Schema, Span, Tuple, Value,
};
use spannerlib_dataframe::{DataFrame, FromRow, IntoRows};
use spannerlib_trace::{EvalProfile, RunTrace, TraceLevel, DEFAULT_SPAN_BUFFER_BYTES};
use spannerlog_parser::{parse_program, Query, Rule, Statement};
use std::sync::Arc;

/// Default byte budget of the IE memo table (see
/// [`SessionBuilder::ie_cache_capacity`]).
pub const DEFAULT_IE_CACHE_BYTES: usize = 64 * 1024 * 1024;

/// Statistics of a session: the most recent fixpoint run plus the
/// lifetime counters of the IE memo table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Counters of the most recent fixpoint run.
    pub eval: EvalStats,
    /// Lifetime IE-cache counters (all zero when the cache is disabled).
    pub cache: CacheStats,
}

/// Fingerprint of the last fixpoint run: which program, and the
/// generations its input relations had when it finished. Evaluation is
/// skipped while both still match.
#[derive(Debug, Clone, PartialEq, Eq)]
struct EvalFingerprint {
    program_id: u64,
    input_gens: Vec<u64>,
}

/// Configures and builds a [`Session`]: evaluation strategy, resource
/// limits, and IE registry seeding, in one fluent pass.
///
/// ```
/// # use spannerlog_engine::{Session, EvalStrategy};
/// # use spannerlib_core::Value;
/// let mut session = Session::builder()
///     .strategy(EvalStrategy::SemiNaive)
///     .max_fixpoint_rounds(10_000)
///     .max_materialized_rows(1_000_000)
///     .register("shout", Some(1), |args, _ctx| {
///         let s = args[0].as_str().unwrap_or_default().to_uppercase();
///         Ok(vec![vec![Value::str(s)]])
///     })
///     .build();
/// # session.run("new S(str)").unwrap();
/// ```
pub struct SessionBuilder {
    strategy: EvalStrategy,
    limits: EvalLimits,
    registry: Registry,
    ie_cache_capacity: usize,
    doc_gc: DocGc,
    trace_level: TraceLevel,
    parallelism: Option<usize>,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        SessionBuilder {
            strategy: EvalStrategy::default(),
            limits: EvalLimits::default(),
            registry: Registry::new(),
            ie_cache_capacity: DEFAULT_IE_CACHE_BYTES,
            doc_gc: DocGc::Disabled,
            trace_level: TraceLevel::Off,
            parallelism: None,
        }
    }
}

impl SessionBuilder {
    /// A builder with builtin IE functions and semi-naive evaluation.
    pub fn new() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// Selects the evaluator: [`EvalStrategy::SemiNaive`] (the default)
    /// is the production path; [`EvalStrategy::Naive`] is the reference
    /// it is tested against — the paper's loop-until-unchanged, rule
    /// bodies in textual order, no index reuse, no sharding (see
    /// ablation A).
    pub fn strategy(mut self, strategy: EvalStrategy) -> SessionBuilder {
        self.strategy = strategy;
        self
    }

    /// Bounds the number of fixpoint rounds per evaluation, summed over
    /// the program's recursive components (guards runaway recursion in
    /// long-lived serving sessions; rules outside recursion fire once
    /// and are not counted).
    pub fn max_fixpoint_rounds(mut self, rounds: usize) -> SessionBuilder {
        self.limits.max_rounds = Some(rounds);
        self
    }

    /// Bounds the number of tuples one evaluation may materialize.
    pub fn max_materialized_rows(mut self, rows: usize) -> SessionBuilder {
        self.limits.max_rows = Some(rows);
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
        self.limits.max_millis = Some(millis);
        self
    }

    /// Sets the byte budget of the IE memo table, which caches
    /// `(function, arguments) → output rows` across fixpoint reruns and
    /// prepared-query executions ([`DEFAULT_IE_CACHE_BYTES`] by
    /// default). Pass `0` to disable cross-run memoization.
    ///
    /// Note that closures registered via [`SessionBuilder::register`]
    /// are held to the stateless IE contract regardless of this
    /// setting: within one rule firing, binding rows sharing an
    /// argument tuple are batched into a single call even with the
    /// cache off. A closure that is *not* a pure function of its
    /// arguments must be registered with
    /// [`SessionBuilder::register_uncached`], which opts it out of both
    /// memoization and batching.
    pub fn ie_cache_capacity(mut self, bytes: usize) -> SessionBuilder {
        self.ie_cache_capacity = bytes;
        self
    }

    /// Configures automatic document-store compaction. With
    /// [`DocGc::Threshold`], `remove_relation` and replacing imports
    /// trigger a compaction pass once live document text exceeds the
    /// watermark, tombstoning documents referenced by no relation (and
    /// dropping the memo entries that name them). Default:
    /// [`DocGc::Disabled`] (compaction only via
    /// [`Session::compact_docs`]).
    pub fn doc_gc(mut self, policy: DocGc) -> SessionBuilder {
        self.doc_gc = policy;
        self
    }

    /// Sets how much each evaluation records ([`TraceLevel::Off`] by
    /// default): `Summary` produces an [`EvalProfile`] (per-rule and
    /// per-IE-function counters and wall times, read via
    /// [`Session::profile`]); `Spans` additionally records hierarchical
    /// timed span events into a byte-bounded ring buffer. At `Off` the
    /// evaluation hot path pays only a branch per instrumentation site.
    pub fn tracing(mut self, level: TraceLevel) -> SessionBuilder {
        self.trace_level = level;
        self
    }

    /// Sets how many threads parallel evaluation uses, the calling
    /// thread included (default: the machine's available parallelism).
    /// A rule firing is sharded by row range of one scan across the
    /// calling thread and `workers − 1` threads spawned for the firing;
    /// an aggregate head folds the shards' rows on the calling thread.
    /// `0` or `1` keeps every firing on the calling thread (one shard),
    /// as do [`EvalStrategy::Naive`] and a maintained evaluation, whose
    /// firings cover a few changed rows. Parallel and serial evaluation derive
    /// identical tuple sets (property-tested). See the module docs'
    /// threading contract.
    pub fn parallelism(mut self, workers: usize) -> SessionBuilder {
        self.parallelism = Some(workers);
        self
    }

    /// Seeds the IE registry with a closure (same contract as
    /// [`Session::register`]).
    pub fn register<F>(mut self, name: &str, input_arity: Option<usize>, f: F) -> SessionBuilder
    where
        F: Fn(&[Value], &mut IeContext<'_>) -> Result<IeOutput> + Send + Sync + 'static,
    {
        self.registry.register_closure(name, input_arity, f);
        self
    }

    /// Seeds the IE registry with a closure whose results must never be
    /// memoized (not a pure function of its arguments — clocks, RNGs,
    /// live external lookups).
    pub fn register_uncached<F>(
        mut self,
        name: &str,
        input_arity: Option<usize>,
        f: F,
    ) -> SessionBuilder
    where
        F: Fn(&[Value], &mut IeContext<'_>) -> Result<IeOutput> + Send + Sync + 'static,
    {
        self.registry
            .register_closure_uncached(name, input_arity, f);
        self
    }

    /// Seeds the IE registry with a function object.
    pub fn register_ie(mut self, name: &str, f: Arc<dyn IeFunction>) -> SessionBuilder {
        self.registry.register_ie(name, f);
        self
    }

    /// Builds the session.
    pub fn build(self) -> Session {
        let ie_cache = (self.ie_cache_capacity > 0)
            .then(|| Arc::new(Mutex::new(IeMemo::new(self.ie_cache_capacity))));
        Session {
            db: Arc::new(Database::new()),
            basis: Err(FullReason::FirstEvaluation),
            registry: self.registry,
            rules: Vec::new(),
            strategy: self.strategy,
            limits: self.limits,
            rules_gen: 0,
            compiled: None,
            last_eval: None,
            last_fingerprint: 0,
            last_stats: EvalStats::default(),
            ie_cache,
            doc_gc: self.doc_gc,
            gc_rearm_bytes: 0,
            trace_level: self.trace_level,
            last_profile: None,
            parallelism: self
                .parallelism
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get())),
            eval_seq: 0,
            pending_request_ids: Vec::new(),
        }
    }
}

/// An embedded Spannerlog engine instance.
pub struct Session {
    /// Copy-on-write: snapshots and `basis` share this `Arc`; the first
    /// mutation after an evaluation clones the database once
    /// (`Arc::make_mut`), so `Session::snapshot` itself is O(1).
    db: Arc<Database>,
    /// The database as of the last successful evaluation, which the next
    /// one maintains — or why that one must run in full, in which case
    /// the session keeps no second reference to it.
    basis: std::result::Result<Arc<Database>, FullReason>,
    registry: Registry,
    rules: Vec<Rule>,
    strategy: EvalStrategy,
    limits: EvalLimits,
    /// Bumped whenever the compiled program could change: rules added or
    /// cleared, registrations, or the set of known relation names.
    rules_gen: u64,
    /// Cache of the current rule set's compilation, keyed by `rules_gen`.
    compiled: Option<(u64, Arc<CompiledProgram>)>,
    /// Fingerprint of the last fixpoint run (replaces the old global
    /// `dirty` flag).
    last_eval: Option<EvalFingerprint>,
    /// Hash of `last_eval`, exposed through [`Snapshot::fingerprint`]
    /// for ETag-style version headers. Stable while evaluation is
    /// skipped; changes whenever a read relation's generation moved or
    /// the program recompiled.
    last_fingerprint: u64,
    last_stats: EvalStats,
    /// Memo table for IE calls (`None` = disabled). Shared with
    /// evaluation runs and snapshots; keyed purely by call content, so
    /// it survives program recompilation and EDB churn.
    ie_cache: Option<SharedIeMemo>,
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
    /// A fresh session with builtin IE functions and semi-naive
    /// evaluation.
    pub fn new() -> Session {
        Session::builder().build()
    }

    /// Starts configuring a session (strategy, limits, registry seeds).
    pub fn builder() -> SessionBuilder {
        SessionBuilder::new()
    }

    /// A fresh session with an explicit evaluation strategy (the naive
    /// strategy reproduces the paper's implementation; see ablation A).
    pub fn with_strategy(strategy: EvalStrategy) -> Session {
        Session::builder().strategy(strategy).build()
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

    /// Statistics of the session, without resetting anything. The two
    /// halves deliberately cover different windows:
    ///
    /// * `eval` describes only the **most recent** fixpoint run — a
    ///   call that skipped evaluation because nothing changed keeps the
    ///   previous run's counters, as [`Session::profile`] does;
    /// * `cache` is **cumulative over the session's lifetime** (the memo
    ///   table outlives individual runs by design); meter a window by
    ///   subtracting two reads.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            eval: self.last_stats,
            cache: self.cache_stats(),
        }
    }

    /// Profile of the most recent fixpoint run — per-rule wall times,
    /// firings, tuple counts, join rows scanned, and per-IE-function
    /// call/memo/latency statistics. `None` until a run happens with
    /// tracing enabled (see [`SessionBuilder::tracing`]). An aborted run
    /// (limit exceeded) still leaves its partial profile here, with
    /// [`EvalProfile::error`] set. Skipped evaluations (unchanged
    /// inputs) keep the previous profile.
    pub fn profile(&self) -> Option<Arc<EvalProfile>> {
        self.last_profile.clone()
    }

    /// Changes the trace level of subsequent evaluations and forces the
    /// next query to re-evaluate in full (so a freshly enabled level
    /// yields a profile without requiring an input mutation).
    pub fn set_tracing(&mut self, level: TraceLevel) {
        if self.trace_level != level {
            self.trace_level = level;
            self.last_eval = None;
            self.basis = Err(FullReason::TracingChanged);
        }
    }

    /// The sequence number of the most recent fixpoint run — zero
    /// before the first run, bumped only when evaluation actually
    /// executes (fingerprint-skipped calls keep the number).
    pub fn eval_seq(&self) -> u64 {
        self.eval_seq
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

    /// Lifetime counters of the IE memo table (all zero when the cache
    /// is disabled).
    pub fn cache_stats(&self) -> CacheStats {
        self.ie_cache
            .as_ref()
            .map(|c| c.lock().stats())
            .unwrap_or_default()
    }

    /// Marks compile-relevant state (rules, registrations, relation name
    /// set) as changed. The next evaluation runs in full — even that of
    /// a program prepared before, which may call a function registered
    /// since.
    fn invalidate_program(&mut self) {
        self.rules_gen += 1;
        self.compiled = None;
        if self.basis.is_ok() {
            self.basis = Err(FullReason::ProgramChanged);
        }
    }

    // ------------------------------------------------------------------
    // Pillar 2: host → engine (import) and engine → host (export)
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
    /// [`Session::import_dataframe`]).
    pub fn import_relation(&mut self, name: &str, relation: Relation) -> Result<()> {
        if let Some(existing) = self.db.extensional_schema(name) {
            if existing != relation.schema() {
                return Err(EngineError::SchemaMismatch {
                    relation: name.to_string(),
                    expected: existing.to_string(),
                    actual: relation.schema().to_string(),
                });
            }
        } else {
            // A brand-new name can resolve predicates differently, and a
            // name that was only rule-derived until now becomes
            // extensional — either way the compiled program's view of
            // the EDB changes.
            self.invalidate_program();
        }
        self.db_mut().put_relation(name, relation);
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

    /// Evaluates a query string (`?R(x, "c")`) and exports the result as
    /// a DataFrame (the paper's `session.export('?R(usr, "gmail")')`).
    ///
    /// Thin wrapper over the prepared lifecycle: equivalent to
    /// `self.prepare(query_src)?.execute(self)`, re-parsing the query
    /// each call. Serving paths should prepare once instead.
    pub fn export(&mut self, query_src: &str) -> Result<DataFrame> {
        let plan = QueryPlan::parse(query_src)?;
        self.ensure_evaluated()?;
        run_query(&self.db, &plan, None)
    }

    /// Like [`Session::export`], converting each row into a typed host
    /// value via [`FromRow`]:
    /// `session.export_typed::<(String, i64)>("?Count(d, n)")`.
    pub fn export_typed<T: FromRow>(&mut self, query_src: &str) -> Result<Vec<T>> {
        Ok(self.export(query_src)?.to_typed()?)
    }

    /// Runs a cell of Spannerlog source. Declarations, facts, and rules
    /// mutate the session; queries evaluate eagerly and their results are
    /// returned in order.
    pub fn run(&mut self, source: &str) -> Result<Vec<(Query, DataFrame)>> {
        let program = parse_program(source)?;
        let mut outputs = Vec::new();
        for statement in program.statements {
            match statement {
                Statement::Declaration(d) => {
                    self.db_mut()
                        .declare(&d.name, Schema::new(d.types.clone()))?;
                    self.invalidate_program();
                }
                Statement::Fact(f) => {
                    self.add_fact_values(
                        &f.predicate,
                        f.values.iter().map(constant_value).collect(),
                    )?;
                }
                Statement::Rule(r) => {
                    self.rules.push(r);
                    self.invalidate_program();
                }
                Statement::Query(q) => {
                    self.ensure_evaluated()?;
                    let df = run_query(&self.db, &QueryPlan::compile(&q), None)?;
                    outputs.push((q, df));
                }
            }
        }
        Ok(outputs)
    }

    // ------------------------------------------------------------------
    // Prepare once, execute many
    // ------------------------------------------------------------------

    /// Compiles the current rule set — parse already happened in
    /// [`Session::run`]; this runs safety analysis (deriving IE
    /// execution order), stratification, and planning — and returns the
    /// artifact as a shareable [`PreparedProgram`].
    ///
    /// Unsafe rules and unstratifiable programs are rejected *here*,
    /// with source positions, before any data is processed. Relations
    /// the rules read must already be declared or imported (so the
    /// compiler can distinguish relation atoms from IE filters); their
    /// *content* may be re-imported freely between executions.
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

    /// Freezes the evaluated state into an immutable, `Send + Sync`
    /// [`Snapshot`]. The snapshot runs prepared queries concurrently
    /// across threads; the session remains free to mutate afterwards —
    /// the two share no mutable state.
    pub fn snapshot(&mut self) -> Result<Snapshot> {
        self.ensure_evaluated()?;
        Ok(Snapshot::new(
            Arc::clone(&self.db),
            self.ie_cache.clone(),
            self.last_profile.clone(),
            self.last_fingerprint,
            self.eval_seq,
        ))
    }

    /// The compiled program for the current rule set (cached until the
    /// rules, registrations, or relation name set change).
    fn program(&mut self) -> Result<Arc<CompiledProgram>> {
        if let Some((gen, program)) = &self.compiled {
            if *gen == self.rules_gen {
                return Ok(program.clone());
            }
        }
        let program = Arc::new(CompiledProgram::compile(
            &self.rules,
            &self.db,
            &self.registry,
        )?);
        self.compiled = Some((self.rules_gen, program.clone()));
        Ok(program)
    }

    // ------------------------------------------------------------------
    // Pillar 3: registering host code as IE functions
    // ------------------------------------------------------------------

    /// Registers a closure as an IE function (the paper's
    /// `session.register(foo, input=…, output=…)`). `input_arity` of
    /// `None` means variadic. Results are memoized by the IE cache,
    /// which assumes the paper's stateless contract — use
    /// [`Session::register_uncached`] for closures that are not pure
    /// functions of their arguments.
    pub fn register<F>(&mut self, name: &str, input_arity: Option<usize>, f: F)
    where
        F: Fn(&[Value], &mut IeContext<'_>) -> Result<IeOutput> + Send + Sync + 'static,
    {
        self.registry.register_closure(name, input_arity, f);
        self.after_registration(name);
    }

    /// Registers a closure whose results must never be memoized.
    pub fn register_uncached<F>(&mut self, name: &str, input_arity: Option<usize>, f: F)
    where
        F: Fn(&[Value], &mut IeContext<'_>) -> Result<IeOutput> + Send + Sync + 'static,
    {
        self.registry
            .register_closure_uncached(name, input_arity, f);
        self.after_registration(name);
    }

    /// Registers an IE function object.
    pub fn register_ie(&mut self, name: &str, f: Arc<dyn IeFunction>) {
        self.registry.register_ie(name, f);
        self.after_registration(name);
    }

    /// A (re-)registration may shadow an existing function: memoized
    /// results under the old body are stale (entries of *other*
    /// functions stay warm), and the compiled program may resolve
    /// predicates differently.
    fn after_registration(&mut self, name: &str) {
        self.invalidate_program();
        if let Some(cache) = &self.ie_cache {
            cache.lock().purge_function(name);
        }
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

    /// Declares a relation programmatically.
    pub fn declare(&mut self, name: &str, schema: Schema) -> Result<()> {
        self.db_mut().declare(name, schema)?;
        self.invalidate_program();
        Ok(())
    }

    /// Removes a relation (facts and schema) so long-lived sessions can
    /// evict state instead of being rebuilt. Rules referencing it will
    /// fail to compile until it is re-declared or re-imported.
    ///
    /// Document texts interned by removed tuples are reclaimed by
    /// doc-store compaction: automatically under a
    /// [`SessionBuilder::doc_gc`] threshold policy, or explicitly via
    /// [`Session::compact_docs`].
    pub fn remove_relation(&mut self, name: &str) -> Result<()> {
        // Existence check before db_mut: Arc::make_mut would deep-clone
        // a snapshot-shared database just to fail.
        if !self.db.contains(name) {
            return Err(EngineError::UnknownRelation(name.to_string()));
        }
        self.db_mut().remove(name);
        self.invalidate_program();
        self.maybe_compact_docs();
        Ok(())
    }

    /// Removes every rule (facts and registrations are kept).
    pub fn clear_rules(&mut self) {
        self.rules.clear();
        self.invalidate_program();
    }

    /// Removes the rules loaded after the first `len` — what a host
    /// that checks a cell's rules when it loads them (`prepare_program`)
    /// calls to take a rejected cell back out.
    pub fn truncate_rules(&mut self, len: usize) {
        if len < self.rules.len() {
            self.rules.truncate(len);
            self.invalidate_program();
        }
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
        self.add_fact_values(relation, values.into_iter().collect())
    }

    fn add_fact_values(&mut self, relation: &str, values: Vec<Value>) -> Result<()> {
        if !self.db.is_extensional(relation) {
            return Err(EngineError::UnknownRelation(format!(
                "{relation} (declare it with `new {relation}(…)` before adding facts)"
            )));
        }
        let schema = self.db.relation(relation)?.schema().clone();
        let tuple = Tuple::new(values);
        if tuple.arity() != schema.arity() {
            return Err(EngineError::Arity {
                relation: relation.to_string(),
                expected: schema.arity(),
                actual: tuple.arity(),
            });
        }
        for (i, (v, t)) in tuple.values().iter().zip(schema.types()).enumerate() {
            if v.value_type() != *t {
                return Err(EngineError::FactType {
                    relation: relation.to_string(),
                    column: i,
                    expected: *t,
                    actual: v.value_type(),
                });
            }
        }
        self.db_mut().insert(relation, tuple)?;
        Ok(())
    }

    /// Reads a relation (evaluating pending rules first).
    pub fn relation(&mut self, name: &str) -> Result<Relation> {
        self.ensure_evaluated()?;
        Ok(self.db.relation_or_empty(name))
    }

    // ------------------------------------------------------------------
    // Document store access (spans created by host code)
    // ------------------------------------------------------------------

    /// The session's document store.
    pub fn docs(&self) -> &DocumentStore {
        &self.db.docs
    }

    /// Interns a document, returning its id.
    pub fn intern(&mut self, text: &str) -> DocId {
        self.db_mut().docs.intern(text)
    }

    /// Creates a checked span over an interned document.
    pub fn make_span(&self, doc: DocId, start: usize, end: usize) -> Result<Span> {
        Ok(self.db.docs.span(doc, start, end)?)
    }

    /// Resolves a span to its text.
    pub fn span_text(&self, span: &Span) -> Result<String> {
        Ok(self.db.docs.span_text(span)?.to_string())
    }

    // ------------------------------------------------------------------
    // Document lifecycle
    // ------------------------------------------------------------------

    /// Compacts the document store now: documents referenced by no span
    /// in any relation (extensional or derived) are tombstoned and
    /// their text released, and the IE memo drops every entry that
    /// names one — relations are the only roots, so an entry dies with
    /// its document. Surviving ids are unchanged, so spans held by the
    /// host stay valid; the store's epoch is bumped. Snapshots taken
    /// earlier keep their own frozen store (copy-on-write).
    ///
    /// When everything is live the pass returns a zero report *without*
    /// touching the store — in particular, without forcing the
    /// copy-on-write database clone a live [`Snapshot`] would otherwise
    /// pay — and the epoch stays put.
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
            if let Some(cache) = &self.ie_cache {
                cache.lock().retain_docs(&live);
            }
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

    // ------------------------------------------------------------------
    // Fixpoint
    // ------------------------------------------------------------------

    /// Forces evaluation of the current rule set now (queries call this
    /// implicitly).
    pub fn ensure_evaluated(&mut self) -> Result<()> {
        let program = self.program()?;
        self.ensure_evaluated_with(&program)
    }

    /// Brings the derived state up to date with `program`: nothing to do
    /// when its fingerprint — the program identity plus the generations
    /// of every input relation — matches the previous run (O(|inputs|));
    /// otherwise a maintained evaluation from the input rows that changed
    /// since, or, in the cases [`FullReason`] names, a full one. A full
    /// evaluation over a database a snapshot shares copies only the
    /// extensional relations and the documents.
    pub(crate) fn ensure_evaluated_with(&mut self, program: &Arc<CompiledProgram>) -> Result<()> {
        if let Some(fp) = &self.last_eval {
            if fp.program_id == program.id
                && fp.input_gens.len() == program.input_relations.len()
                && program
                    .input_relations
                    .iter()
                    .zip(&fp.input_gens)
                    .all(|(name, gen)| self.db.generation(name) == *gen)
            {
                // Served by already-current state: the pending request
                // ids owe no evaluation, so drop them rather than let
                // them mis-attribute to a later, unrelated run.
                self.pending_request_ids.clear();
                return Ok(());
            }
        }
        let mut trace = RunTrace::new(self.trace_level, DEFAULT_SPAN_BUFFER_BYTES);
        self.eval_seq += 1;
        trace.serving_context(self.eval_seq, std::mem::take(&mut self.pending_request_ids));
        let old = std::mem::replace(&mut self.basis, Err(FullReason::PreviousRunFailed));
        let last = self.last_eval.take();
        let last = last.as_ref().map(|fp| (fp.program_id, &fp.input_gens[..]));
        let seeds = maintain::seeds(old, last, &self.db, program);
        let mode = seeds
            .as_ref()
            .map_or_else(|r| EvalMode::Full(*r), Seeds::mode);
        let ctx = EvalCtx {
            registry: &self.registry,
            strategy: self.strategy,
            limits: self.limits,
            cache: self.ie_cache.as_ref(),
            workers: self.parallelism,
        };
        // The regex prefilter counters are process-wide; deltas around
        // the run attribute its share to this profile.
        let prefilter_before = spannerlib_regex::prefilter::stats();
        let result = match seeds {
            Ok(seeds) => seeds.run(Arc::make_mut(&mut self.db), program, &ctx, &mut trace),
            Err(_) => evaluate(cleared(&mut self.db), &program.components, &ctx, &mut trace),
        };
        // Capture the profile before propagating errors: an aborted run
        // leaves its partial per-component progress in `profile()`.
        if let Some(mut profile) = trace.finish(result.as_ref().err().map(|e| e.to_string())) {
            let prefilter_after = spannerlib_regex::prefilter::stats();
            profile.prefilter_searches = prefilter_after.searches - prefilter_before.searches;
            profile.prefilter_pruned = prefilter_after.pruned - prefilter_before.pruned;
            mode.record(&mut profile);
            self.last_profile = Some(Arc::new(profile));
        }
        self.last_stats = EvalStats { mode, ..result? };
        // Generations are read *after* the run: rules may derive into
        // extensional heads, and those inserts must not look like fresh
        // external mutations on the next call.
        let input_gens: Vec<u64> = program
            .input_relations
            .iter()
            .map(|name| self.db.generation(name))
            .collect();
        {
            use std::hash::{Hash, Hasher};
            let mut h = rustc_hash::FxHasher::default();
            program.id.hash(&mut h);
            input_gens.hash(&mut h);
            self.last_fingerprint = h.finish();
        }
        self.last_eval = Some(EvalFingerprint {
            program_id: program.id,
            input_gens,
        });
        self.basis = maintain::basis(&self.db, program, &self.registry, self.strategy);
        Ok(())
    }

    /// Read access to the database for prepared-query execution.
    pub(crate) fn database(&self) -> &Database {
        &self.db
    }

    /// Mutable access; clones the database first if a live [`Snapshot`]
    /// still shares it (copy-on-write).
    fn db_mut(&mut self) -> &mut Database {
        Arc::make_mut(&mut self.db)
    }
}
