//! Shared server state: the session behind a checkout, and the
//! publish every reader shares.
//!
//! ## One session, checked out by the request that needs it
//!
//! The [`Session`] sits in a slot. A handler that mutates it
//! (`/register`, `/import`, `/prepare`) or has to evaluate it (a stale
//! `/execute`) takes it out with [`ServerState::checkout`], calls it on
//! its own thread and — on return or unwind — puts it back; a request
//! waits for the slot no longer than its own deadline. Readers never
//! touch the session: `/execute` runs against the latest [`Published`]
//! snapshot behind an `RwLock<Arc<_>>` swap — the lock is held only
//! for the pointer clone, so concurrent executes neither block each
//! other nor the request that holds the session.
//!
//! ## Lazy evaluation = cross-request IE batching
//!
//! Mutations apply immediately but do **not** evaluate; they only bump
//! the write version. The first `/execute` to observe a stale snapshot
//! checks the session out, evaluates and publishes; every execute that
//! waited behind it finds the publish current when its turn comes and
//! reads it — N requests waiting on the same churn cost one fixpoint
//! run (the `execute_coalesced` counter reports how often it happens).
//! Inside that run the engine's IE step already batches calls per
//! distinct argument tuple, and a *shared call* — one two
//! registered rules ask alike, or one rule inside a recursion — is a
//! derived relation of the program, which the run fills once and a
//! later write maintains like any other.

use crate::config::ServeConfig;
use crate::error::ApiError;
use crate::json::Json;
use crate::log::{now_micros, LogSink};
use parking_lot::RwLock;
use spannerlib_trace::MetricsRegistry;
use spannerlog_engine::{EvalMode, PreparedQuery, Session, Snapshot};
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// One atomically-published evaluation result.
pub(crate) struct Published {
    /// The frozen, fully evaluated state.
    pub snapshot: Snapshot,
    /// The [`ServerState::write_version`] this snapshot reflects.
    pub version: u64,
    /// Strong-validator ETag combining the publish version with the
    /// engine's evaluation fingerprint.
    pub etag: String,
    /// The rendered answer of every *prepared* query this publish has
    /// served, by prepared name: at most one entry per name the
    /// operator prepared, and gone with the `Published` at the next
    /// publish. Ad-hoc query strings never enter it.
    bodies: parking_lot::Mutex<HashMap<String, CachedBody>>,
}

/// One rendered `/execute` answer.
#[derive(Clone)]
pub(crate) struct CachedBody {
    /// The query the body answers; a name prepared again points at a
    /// different one, which makes the entry a miss.
    query: Arc<PreparedQuery>,
    /// The response body, shared with every response that sends it.
    pub body: Arc<[u8]>,
    /// Its `row_count`, for `max_rows`.
    pub rows: usize,
}

impl Published {
    /// Wraps a fresh snapshot; nothing is rendered yet.
    pub fn new(snapshot: Snapshot, version: u64) -> Published {
        Published {
            etag: format!("\"v{version}-{:016x}\"", snapshot.fingerprint()),
            snapshot,
            version,
            bodies: parking_lot::Mutex::new(HashMap::new()),
        }
    }

    /// The body rendered earlier for the prepared query `name`, if it
    /// still is `query`.
    pub fn cached_body(&self, name: &str, query: &Arc<PreparedQuery>) -> Option<CachedBody> {
        let bodies = self.bodies.lock();
        bodies
            .get(name)
            .filter(|hit| Arc::ptr_eq(&hit.query, query))
            .cloned()
    }

    /// Keeps `body` as the answer of the prepared query `name`.
    pub fn cache_body(&self, name: &str, query: &Arc<PreparedQuery>, body: Arc<[u8]>, rows: usize) {
        self.bodies.lock().insert(
            name.to_string(),
            CachedBody {
                query: query.clone(),
                body,
                rows,
            },
        );
    }

    /// Number of rendered bodies held.
    pub fn cached_bodies(&self) -> usize {
        self.bodies.lock().len()
    }
}

/// State shared between the acceptor and the connection handlers.
pub(crate) struct ServerState {
    /// Immutable configuration.
    pub cfg: ServeConfig,
    /// Latest published snapshot (swap-on-publish).
    pub published: RwLock<Arc<Published>>,
    /// Named prepared queries (`/prepare` inserts, `/execute` reads).
    pub prepared: RwLock<HashMap<String, Arc<PreparedQuery>>>,
    /// Bumped under a checkout ([`Checkout::mark_changed`]); a published
    /// version behind it means `/execute` must evaluate.
    write_version: AtomicU64,
    /// The session — `None` while a request has it checked out, and
    /// after [`ServerState::retire_session`]. The lock is held only to
    /// move the session in or out, never across a call into it.
    session: Mutex<Option<Session>>,
    /// Signalled each time the session comes back.
    session_returned: Condvar,
    /// `false` once shutdown begins: the acceptor stops, keep-alive
    /// connections close after the in-flight request, `/healthz` turns
    /// 503.
    pub accepting: AtomicBool,
    /// Request counters and per-route/per-status latency histograms.
    pub metrics: MetricsRegistry,
    /// Per-request JSONL access log (`None` = disabled).
    pub access_log: Option<Arc<LogSink>>,
    /// Destination for slow-evaluation records (`None` only when the
    /// slow-query log is disabled by config).
    pub slow_log: Option<Arc<LogSink>>,
    /// Process-unique fingerprint mixed into minted request ids, so ids
    /// from successive server instances don't collide in shared logs.
    instance: u32,
    /// Monotonic counter for minted request ids.
    request_seq: AtomicU64,
}

/// The session, out of its slot for one request. Dropping the guard —
/// unwinding included — puts the session back under the configured
/// evaluation budget and wakes one waiter; the engine's threading
/// contract (`session.rs`) keeps a session usable after an IE panic
/// unwound through it.
pub(crate) struct Checkout<'a> {
    state: &'a ServerState,
    session: Option<Session>,
}

impl Checkout<'_> {
    /// Records that the session changed (or may have): the current
    /// publish is stale from here on.
    pub fn mark_changed(&self) {
        self.state.write_version.fetch_add(1, Ordering::Release);
    }
}

impl Deref for Checkout<'_> {
    type Target = Session;

    fn deref(&self) -> &Session {
        self.session.as_ref().expect("held until drop")
    }
}

impl DerefMut for Checkout<'_> {
    fn deref_mut(&mut self) -> &mut Session {
        self.session.as_mut().expect("held until drop")
    }
}

impl Drop for Checkout<'_> {
    fn drop(&mut self) {
        if let Some(session) = &mut self.session {
            session.set_max_eval_millis(self.state.cfg.max_eval_millis);
        }
        *self.state.slot() = self.session.take();
        self.state.session_returned.notify_one();
    }
}

impl ServerState {
    /// Serving state over `session`, whose evaluated `snapshot` becomes
    /// publish 0.
    pub fn new(
        cfg: ServeConfig,
        session: Session,
        snapshot: Snapshot,
        access_log: Option<Arc<LogSink>>,
        slow_log: Option<Arc<LogSink>>,
    ) -> ServerState {
        ServerState {
            cfg,
            published: RwLock::new(Arc::new(Published::new(snapshot, 0))),
            prepared: RwLock::new(HashMap::new()),
            write_version: AtomicU64::new(0),
            session: Mutex::new(Some(session)),
            session_returned: Condvar::new(),
            accepting: AtomicBool::new(true),
            metrics: MetricsRegistry::new(),
            access_log,
            slow_log,
            // Differentiates minted request ids across restarts: wall
            // clock microseconds folded with the pid.
            instance: (now_micros() as u32) ^ std::process::id().rotate_left(16),
            request_seq: AtomicU64::new(0),
        }
    }

    /// Mints a request id for a request that arrived without an
    /// `X-Request-Id` header: `{instance:08x}-{seq:x}`.
    pub fn mint_request_id(&self) -> String {
        let seq = self.request_seq.fetch_add(1, Ordering::Relaxed);
        format!("{:08x}-{seq:x}", self.instance)
    }

    /// Current write version.
    pub fn version(&self) -> u64 {
        self.write_version.load(Ordering::Acquire)
    }

    /// The session slot. A poisoned lock is taken anyway: all that ever
    /// happens under it is an `Option` moving in or out, so the slot is
    /// valid at every step.
    fn slot(&self) -> MutexGuard<'_, Option<Session>> {
        self.session.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes the session out of its slot, waiting for the request that
    /// holds it no longer than `deadline` (`503 deadline` once that
    /// passes).
    pub fn checkout(&self, deadline: Option<Instant>) -> Result<Checkout<'_>, ApiError> {
        let mut slot = self.slot();
        loop {
            if let Some(session) = slot.take() {
                return Ok(Checkout {
                    state: self,
                    session: Some(session),
                });
            }
            slot = match deadline {
                None => self
                    .session_returned
                    .wait(slot)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Err(ApiError::deadline(
                            "deadline expired waiting for the session",
                        ));
                    }
                    let waited = self.session_returned.wait_timeout(slot, left);
                    waited.unwrap_or_else(PoisonError::into_inner).0
                }
            };
        }
    }

    /// Drops the session once the last handler has returned, so its
    /// registered IE functions do not outlive `serve()` in a
    /// process that keeps a `ServerHandle`.
    pub fn retire_session(&self) {
        let session = self.slot().take();
        drop(session);
    }

    /// The freshest snapshot consistent with all applied mutations: the
    /// published one when current, otherwise the one this request — or
    /// a request it waited behind — evaluates and publishes under a
    /// checkout. `request_id` is attributed to the evaluation's
    /// `EvalProfile`, so a slow rule is traceable back to the request
    /// that paid for it.
    pub fn fresh_published(
        &self,
        deadline: Option<Instant>,
        request_id: &str,
    ) -> Result<Arc<Published>, ApiError> {
        let current = self.published.read().clone();
        if current.version == self.version() {
            return Ok(current);
        }
        let mut session = self.checkout(deadline)?;
        // Versions only move under a checkout: whatever is read from
        // here on stays true until the guard drops.
        let version = self.version();
        let current = self.published.read().clone();
        if current.version == version {
            self.metrics.counter("execute_coalesced").inc();
            return Ok(current);
        }

        // Evaluation budget: the config cap, tightened to what is left
        // of this request's deadline.
        let left = deadline.map(|d| {
            let left = d.saturating_duration_since(Instant::now());
            (left.as_millis() as u64).max(1)
        });
        session.set_max_eval_millis(match (self.cfg.max_eval_millis, left) {
            (Some(cap), Some(left)) => Some(cap.min(left)),
            (cap, left) => cap.or(left),
        });
        session.set_request_ids(vec![request_id.to_string()]);
        let eval_seq = session.eval_seq();
        let eval_start = Instant::now();
        let outcome = session.snapshot();
        let eval_wall = eval_start.elapsed();

        self.metrics
            .histogram("eval_duration_ns")
            .record(eval_wall.as_nanos() as u64);
        slow_query_log(&session, self, eval_wall, request_id, outcome.is_err());

        let snapshot = outcome.map_err(|e| {
            self.metrics.counter("eval_errors_total").inc();
            ApiError::from_engine(&e)
        })?;
        self.metrics.counter("evals_total").inc();
        // Of those, the evaluations that updated the derived state from
        // the rows a write changed instead of deriving it again.
        let maintained = self.metrics.counter("evals_maintained_total");
        if session.eval_seq() > eval_seq
            && matches!(session.stats().mode, EvalMode::Maintained { .. })
        {
            maintained.inc();
        }
        let docs = session.docs();
        for (name, value) in [
            ("docstore_bytes", docs.bytes() as i64),
            ("docstore_docs", docs.len() as i64),
            ("docstore_epoch", docs.epoch() as i64),
            ("published_eval_seq", snapshot.eval_seq() as i64),
        ] {
            self.metrics.gauge(name).set(value);
        }
        let published = Arc::new(Published::new(snapshot, version));
        *self.published.write() = published.clone();
        Ok(published)
    }
}

/// Writes a slow-query record when the evaluation's wall time reached
/// `cfg.slow_eval_ms`: one JSONL object carrying the eval attribution
/// (seq, request ids, error) and the engine's per-rule `EvalProfile`
/// records embedded verbatim (requires session tracing ≥ `Summary`;
/// `spannerd` enables that automatically when `--slow-eval-ms` is set).
fn slow_query_log(
    session: &Session,
    state: &ServerState,
    eval_wall: std::time::Duration,
    request_id: &str,
    errored: bool,
) {
    let Some(threshold) = state.cfg.slow_eval_ms else {
        return;
    };
    let Some(sink) = &state.slow_log else {
        return;
    };
    if (eval_wall.as_millis() as u64) < threshold {
        return;
    }
    state.metrics.counter("slow_evals_total").inc();
    let profile = session.profile().map_or(Json::Null, |p| {
        Json::Arr(
            p.to_json_lines()
                .lines()
                .map(|line| Json::Raw(line.to_string()))
                .collect(),
        )
    });
    sink.write(&Json::Obj(vec![
        ("type".into(), Json::str("slow_eval")),
        ("ts_micros".into(), Json::Int(now_micros())),
        ("eval_seq".into(), Json::Int(session.eval_seq() as i64)),
        (
            "eval_wall_micros".into(),
            Json::Int(eval_wall.as_micros() as i64),
        ),
        ("threshold_ms".into(), Json::Int(threshold as i64)),
        ("errored".into(), Json::Bool(errored)),
        ("request_ids".into(), Json::Arr(vec![Json::str(request_id)])),
        ("profile".into(), profile),
    ]));
}
