//! The read surface of a [`Session`]: queries and exports, relations,
//! snapshots, documents, and what the last evaluation reports. Every
//! read of derived state evaluates first (see the driver).

use super::driver::LastRun;
use super::Session;
use crate::error::Result;
use crate::eval::EvalStats;
use crate::prepared::Snapshot;
use crate::query::{run_query, QueryPlan};
use spannerlib_cache::CacheStats;
use spannerlib_core::{DocId, DocumentStore, Relation, Span};
use spannerlib_dataframe::{DataFrame, FromRow};
use spannerlib_trace::EvalProfile;
use std::sync::Arc;

impl Session {
    /// Evaluates a query string (`?R(x, "c")`) and exports the result as
    /// a DataFrame (the paper's `session.export('?R(usr, "gmail")')`).
    ///
    /// Thin wrapper over the prepared lifecycle: equivalent to
    /// `self.prepare(query_src)?.execute(self)`, re-parsing the query
    /// each call. Serving paths should prepare once instead.
    pub fn export(&mut self, query_src: &str) -> Result<DataFrame> {
        self.query(&QueryPlan::parse(query_src)?)
    }

    /// Like [`Session::export`], converting each row into a typed host
    /// value via [`FromRow`]:
    /// `session.export_typed::<(String, i64)>("?Count(d, n)")`.
    pub fn export_typed<T: FromRow>(&mut self, query_src: &str) -> Result<Vec<T>> {
        Ok(self.export(query_src)?.to_typed()?)
    }

    /// Evaluates, then answers `plan` — a query of [`Session::export`] or
    /// of a cell [`Session::run`] executes.
    pub(super) fn query(&mut self, plan: &QueryPlan) -> Result<DataFrame> {
        self.ensure_evaluated()?;
        run_query(&self.db, plan, None)
    }

    /// Reads a relation (evaluating pending rules first); empty if it
    /// does not exist.
    pub fn relation(&mut self, name: &str) -> Result<Relation> {
        self.ensure_evaluated()?;
        Ok(self.db.relation_or_empty(name))
    }

    /// Freezes the evaluated state into an immutable, `Send + Sync`
    /// [`Snapshot`]. The snapshot runs prepared queries concurrently
    /// across threads; the session remains free to mutate afterwards —
    /// the two share no mutable state. Its [`Snapshot::fingerprint`] is
    /// stable while evaluation is skipped and moves whenever a read
    /// relation's generation moved or the program recompiled.
    pub fn snapshot(&mut self) -> Result<Snapshot> {
        self.ensure_evaluated()?;
        Ok(Snapshot {
            db: Arc::clone(&self.db),
            indexes: Arc::default(),
            profile: self.last_profile.clone(),
            fingerprint: self.last.as_ref().map_or(0, LastRun::fingerprint),
            eval_seq: self.eval_seq,
        })
    }

    /// Counters of the **most recent** fixpoint run, without resetting
    /// anything — a call that skipped evaluation because nothing changed
    /// keeps the previous run's counters, as [`Session::profile`] does.
    pub fn stats(&self) -> EvalStats {
        self.last_stats
    }

    /// Profile of the most recent fixpoint run — per-rule wall times,
    /// firings, tuple counts, join rows scanned, and per-IE-function
    /// body-call/latency statistics. `None` until a run happens with
    /// tracing enabled (see [`SessionBuilder::tracing`]), and again after
    /// a run with tracing off: a profile always describes the latest run.
    /// An aborted run (limit exceeded) still leaves its partial profile
    /// here, with [`EvalProfile::error`] set. Skipped evaluations
    /// (unchanged inputs) run nothing and keep the previous profile.
    ///
    /// [`SessionBuilder::tracing`]: super::SessionBuilder::tracing
    pub fn profile(&self) -> Option<Arc<EvalProfile>> {
        self.last_profile.clone()
    }

    /// The counters of the IE memo the engine once kept: always zero, for
    /// the readers that still print them.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }

    /// The sequence number of the most recent fixpoint run — zero
    /// before the first run, bumped only when evaluation actually
    /// executes (fingerprint-skipped calls keep the number).
    pub fn eval_seq(&self) -> u64 {
        self.eval_seq
    }

    /// The session's document store.
    pub fn docs(&self) -> &DocumentStore {
        &self.db.docs
    }

    /// Creates a checked span over an interned document.
    pub fn make_span(&self, doc: DocId, start: usize, end: usize) -> Result<Span> {
        Ok(self.db.docs.span(doc, start, end)?)
    }

    /// Resolves a span to its text.
    pub fn span_text(&self, span: &Span) -> Result<String> {
        Ok(self.db.docs.span_text(span)?.to_string())
    }
}
