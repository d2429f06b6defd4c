//! The prepare-once/execute-many layer: compiled programs, prepared
//! queries, and immutable snapshots.
//!
//! Parsing, safety analysis (which also sequences IE calls),
//! stratification, and planning depend only on the rules and the
//! registry — not on the data. A [`CompiledProgram`] is that work done
//! once; [`PreparedQuery`] pairs it with a parsed query so serving
//! paths pay neither parsing nor planning per request, and [`Snapshot`]
//! freezes a fully evaluated database for lock-free concurrent reads.

use crate::database::Database;
use crate::error::{EngineError, Result};
use crate::maintain::{self, RuleVariants};
use crate::optimizer::IndexCache;
use crate::plan::Step;
use crate::query::{run_query, select, QueryPlan, Selection};
use crate::registry::Registry;
use crate::safety::{analyze, SafetyContext};
use crate::session::Session;
use crate::share::share_calls;
use crate::strata::{stratify, Component};
use rustc_hash::{FxHashMap, FxHashSet};
use spannerlib_core::{DocumentStore, Relation, Schema, Span};
use spannerlib_dataframe::{DataFrame, FromRow};
use spannerlog_parser::Rule;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static NEXT_PROGRAM_ID: AtomicU64 = AtomicU64::new(1);

/// A rule set taken through safety analysis, IE sequencing,
/// stratification, the planning of shared IE calls as relations
/// (`crate::share`) and planning exactly once.
#[derive(Debug)]
pub struct CompiledProgram {
    /// Instance id, unique per compilation (fingerprints evaluation).
    pub(crate) id: u64,
    /// Executable rule plans, grouped into the components of the
    /// dependency graph in evaluation order.
    pub(crate) components: Vec<Component>,
    /// Extensional relations the program reads (sorted): the only
    /// relations whose mutation can change derived content.
    pub(crate) input_relations: Vec<String>,
    /// Per component, per rule: the plans incremental maintenance fires
    /// besides the rule's own.
    pub(crate) variants: Vec<Vec<RuleVariants>>,
}

impl CompiledProgram {
    /// Compiles `rules` against the relation names known to `db` and the
    /// IE/aggregation `registry`. Unsafe rules, heads and atoms whose
    /// arity is not their relation's and unstratifiable programs are
    /// rejected here — before any data is touched.
    pub(crate) fn compile(
        rules: &[Rule],
        db: &Database,
        registry: &Registry,
    ) -> Result<CompiledProgram> {
        // Predicates that resolve to relations: extensional names plus
        // every rule head — not the derived relations an earlier run of
        // other rules left behind.
        let extensional = db.iter().filter(|(name, _)| db.is_extensional(name));
        let mut relation_names: FxHashSet<String> =
            extensional.map(|(name, _)| name.clone()).collect();
        let heads: FxHashSet<String> = rules.iter().map(|r| r.head_predicate.clone()).collect();
        relation_names.extend(heads.iter().cloned());

        let ctx = SafetyContext {
            relations: &relation_names,
            registry,
        };
        let plans = rules
            .iter()
            .map(|r| analyze(r, &ctx))
            .collect::<Result<Vec<_>>>()?;
        // A relation has one arity, which each head and atom of it has:
        // its declaration's, else its first head's.
        let mut arities = FxHashMap::default();
        for plan in &plans {
            let declared = db.extensional_schema(&plan.head_predicate);
            let arity = declared.map_or(plan.head.len(), Schema::arity);
            arities.entry(&plan.head_predicate).or_insert(arity);
        }
        for plan in &plans {
            let atoms = plan.steps.iter().filter_map(|step| match step {
                Step::Scan { relation, terms } | Step::Negation { relation, terms } => {
                    Some((relation, terms.len()))
                }
                _ => None,
            });
            for (relation, actual) in atoms.chain([(&plan.head_predicate, plan.head.len())]) {
                let declared = || {
                    db.extensional_schema(relation)
                        .map_or(actual, Schema::arity)
                };
                let expected = arities.get(relation).copied().unwrap_or_else(declared);
                if actual != expected {
                    let (relation, line) = (relation.clone(), plan.line);
                    return Err(EngineError::Arity {
                        relation,
                        expected,
                        actual,
                        line,
                    });
                }
            }
        }

        // Every predicate a rule depends on is a fingerprint input —
        // including rule heads. Derived inserts bypass the generation
        // counters, so a purely derived dependency sits at generation 0
        // and never perturbs the fingerprint; but the moment the host
        // mutates any dependency (a fact into an extensional head, an
        // import that shadows a derived name), its generation moves and
        // the fixpoint re-runs. Filtering on compile-time extensionality
        // here would blind old prepared queries to names that become
        // extensional later.
        let mut input_relations: Vec<String> = plans
            .iter()
            .flat_map(|p| p.dependencies.iter())
            .map(|(dep, _)| dep.clone())
            .collect::<FxHashSet<_>>()
            .into_iter()
            .collect();
        input_relations.sort_unstable();

        let components = share_calls(rules, &ctx, stratify(plans)?)?;
        Ok(CompiledProgram {
            id: NEXT_PROGRAM_ID.fetch_add(1, Ordering::Relaxed),
            variants: maintain::variants(&components),
            components,
            input_relations,
        })
    }

    /// Number of components of the predicate dependency graph that
    /// carry rules — the evaluation steps of the program.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// Number of compiled rules.
    pub fn rule_count(&self) -> usize {
        self.components.iter().map(|c| c.rules.len()).sum()
    }

    /// The extensional relations this program reads, sorted by name.
    pub fn input_relations(&self) -> &[String] {
        &self.input_relations
    }
}

/// A shareable handle on a [`CompiledProgram`] — the result of
/// [`Session::prepare_program`]. Derive per-query artifacts with
/// [`PreparedProgram::query`].
#[derive(Debug, Clone)]
pub struct PreparedProgram {
    pub(crate) inner: Arc<CompiledProgram>,
}

impl PreparedProgram {
    /// Parses `query_src` (e.g. `?R(usr, "gmail")`) into a
    /// [`PreparedQuery`] bound to this program.
    pub fn query(&self, query_src: &str) -> Result<PreparedQuery> {
        Ok(PreparedQuery {
            plan: QueryPlan::parse(query_src)?,
            source: query_src.to_string(),
            program: self.inner.clone(),
        })
    }

    /// The compiled program.
    pub fn program(&self) -> &CompiledProgram {
        &self.inner
    }
}

/// A query compiled once and executable many times — the serving-path
/// counterpart of [`Session::export`].
///
/// Execution evaluates the *prepared* program (the rules as of
/// [`Session::prepare`] time) against the session's current extensional
/// data; thanks to per-relation generation counters, an unchanged EDB
/// skips the fixpoint entirely.
///
/// Relations that are **both imported and rule heads** carry per-tuple
/// fact/derived provenance: re-evaluation retracts exactly the tuples
/// earlier fixpoints derived, so re-importing a rule's inputs yields
/// the same result as a fresh session — host-asserted facts survive,
/// stale derivations do not.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    pub(crate) plan: QueryPlan,
    pub(crate) source: String,
    pub(crate) program: Arc<CompiledProgram>,
}

impl PreparedQuery {
    /// Executes against `session`'s current data, re-running the
    /// fixpoint only if an input relation changed since the last
    /// evaluation of this program.
    pub fn execute(&self, session: &mut Session) -> Result<DataFrame> {
        run_query(
            session.ensure_evaluated_with(&self.program)?,
            &self.plan,
            None,
        )
    }

    /// Like [`PreparedQuery::execute`], converting each row via
    /// [`FromRow`].
    pub fn execute_typed<T: FromRow>(&self, session: &mut Session) -> Result<Vec<T>> {
        Ok(self.execute(session)?.to_typed()?)
    }

    /// The original query source text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The compiled query, as [`Snapshot::select`] takes it.
    pub fn plan(&self) -> &QueryPlan {
        &self.plan
    }

    /// The program this query was prepared against.
    pub fn program(&self) -> &CompiledProgram {
        &self.program
    }
}

/// An immutable, fully evaluated view of a session — `Send + Sync`, so
/// prepared queries can run against it concurrently from many threads
/// while the originating session keeps mutating.
///
/// Obtained from [`Session::snapshot`], which runs the fixpoint first;
/// snapshot queries are therefore pure reads.
#[derive(Clone)]
pub struct Snapshot {
    pub(crate) db: Arc<Database>,
    /// Hash indexes over `db`, built on first use by a constant-bearing
    /// query and shared by every clone of this snapshot.
    pub(crate) indexes: Arc<IndexCache>,
    /// Profile of the fixpoint run that produced the frozen state
    /// (`None` when the session evaluated with tracing off).
    pub(crate) profile: Option<Arc<spannerlib_trace::EvalProfile>>,
    /// Evaluation fingerprint hash; see [`Snapshot::fingerprint`].
    pub(crate) fingerprint: u64,
    /// Sequence number of the fixpoint run behind the frozen state; see
    /// [`Snapshot::eval_seq`].
    pub(crate) eval_seq: u64,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let relations = self.db.iter().filter(|(n, _)| self.db.visible(n).is_some());
        f.debug_struct("Snapshot")
            .field("relations", &relations.count())
            .field("profiled", &self.profile.is_some())
            .finish()
    }
}

// Compile-time guarantee: a Snapshot can cross and be shared between
// threads. (Also asserted in the integration tests.)
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Snapshot>()
};

impl Snapshot {
    /// Hash of the evaluation fingerprint behind this snapshot: the
    /// compiled program's identity plus the generation of every
    /// relation it reads. Two snapshots of the same session carry equal
    /// fingerprints iff no read relation changed (and the rules did not
    /// recompile) between them, which makes the value usable as an
    /// `ETag`-style version token for serving caches. Process-local:
    /// program ids are allocated per process, so the hash is not
    /// meaningful across restarts and must not be persisted.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Sequence number of the session's fixpoint run that produced this
    /// snapshot's derived state (see `Session::eval_seq`): zero if the
    /// session never actually evaluated, otherwise the 1-based count of
    /// the producing run. Unlike [`Snapshot::fingerprint`], consecutive
    /// values are ordered, so a serving layer can log *which* coalesced
    /// evaluation a request ended up reading.
    pub fn eval_seq(&self) -> u64 {
        self.eval_seq
    }

    /// Profile of the evaluation that produced this snapshot's derived
    /// state — `None` when the session traced at `TraceLevel::Off` (see
    /// `SessionBuilder::tracing`). Snapshot queries themselves are pure
    /// reads and add nothing to it.
    pub fn profile(&self) -> Option<Arc<spannerlib_trace::EvalProfile>> {
        self.profile.clone()
    }

    /// Evaluates a query string against the frozen data.
    pub fn export(&self, query_src: &str) -> Result<DataFrame> {
        run_query(&self.db, &QueryPlan::parse(query_src)?, Some(&self.indexes))
    }

    /// Like [`Snapshot::export`], converting each row via [`FromRow`].
    pub fn export_typed<T: FromRow>(&self, query_src: &str) -> Result<Vec<T>> {
        Ok(self.export(query_src)?.to_typed()?)
    }

    /// Executes a prepared query. The snapshot is already evaluated, so
    /// this skips even the fingerprint check — it is a pure read, and an
    /// indexed one when the query carries a constant: the matching
    /// tuples come from a hash index on the bound columns (built on the
    /// first such query, then shared with every clone of the snapshot),
    /// otherwise from one pass over the relation; only they are sorted
    /// and projected.
    pub fn execute(&self, query: &PreparedQuery) -> Result<DataFrame> {
        run_query(&self.db, &query.plan, Some(&self.indexes))
    }

    /// Starts answering `plan` without materialising anything: the
    /// returned [`Selection`] counts its rows before it sorts or clones
    /// them, so a caller with a row cap or a matching version token can
    /// stop early. `select(plan)?.into_frame()` is [`Snapshot::execute`].
    pub fn select<'a>(&'a self, plan: &'a QueryPlan) -> Result<Selection<'a>> {
        select(&self.db, plan, Some(&self.indexes))
    }

    /// Like [`Snapshot::execute`], converting each row via [`FromRow`].
    pub fn execute_typed<T: FromRow>(&self, query: &PreparedQuery) -> Result<Vec<T>> {
        Ok(self.execute(query)?.to_typed()?)
    }

    /// How many `(relation, bound columns)` indexes queries have built
    /// over this snapshot so far; each is built once and then shared.
    pub fn index_builds(&self) -> u64 {
        self.indexes.builds()
    }

    /// Reads a relation by name (empty if it does not exist).
    pub fn relation(&self, name: &str) -> Relation {
        self.db.relation_or_empty(name)
    }

    /// The frozen document store (resolves spans exported from this
    /// snapshot).
    pub fn docs(&self) -> &DocumentStore {
        &self.db.docs
    }

    /// Resolves a span to its text.
    pub fn span_text(&self, span: &Span) -> Result<String> {
        Ok(self.db.docs.span_text(span)?.to_string())
    }
}
