//! Shared server state, the single-writer command thread, and the
//! refresh coalescer.
//!
//! ## Single writer, lock-free readers
//!
//! The [`Session`] is owned by one command thread; every mutation
//! (`/register`, `/import`, `/prepare`) serializes through an mpsc
//! channel. Readers never touch the session: `/execute` runs against
//! the latest [`Published`] snapshot behind an `RwLock<Arc<_>>` swap —
//! the lock is held only for the pointer clone, so concurrent executes
//! neither block each other nor the writer.
//!
//! ## Lazy evaluation = cross-request IE batching
//!
//! Mutations apply immediately but do **not** evaluate; they only bump
//! [`ServerState::write_version`]. The first `/execute` to observe a
//! stale snapshot sends [`Cmd::Refresh`], and the writer drains its
//! whole queue before evaluating: every concurrent execute waiting on
//! the same churn becomes one fixpoint run. Inside that run `plan.rs`
//! already batches cacheable IE calls per distinct argument tuple and
//! probes the shared memo — so IE work that N requests would have paid
//! for separately is paid once, which is this module's answer to
//! cross-request IE batching (the `execute_coalesced` counter reports
//! how often it happens).

use crate::catalog::{self, IeSpec};
use crate::config::ServeConfig;
use crate::error::ApiError;
use crate::json::Json;
use crate::log::{now_micros, LogSink};
use parking_lot::RwLock;
use spannerlib_core::Value;
use spannerlib_dataframe::DataFrame;
use spannerlib_trace::MetricsRegistry;
use spannerlog_engine::{PreparedQuery, Session, Snapshot};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender};
use std::sync::Arc;
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

/// A reply slot for one queued command. `sync_channel(1)` never blocks
/// the writer's send even if the requester already gave up.
pub(crate) type Reply<T> = SyncSender<Result<T, ApiError>>;

/// Commands the writer thread consumes.
pub(crate) enum Cmd {
    /// Run a source cell (rules, declarations, facts).
    Run {
        /// Spannerlog source text.
        source: String,
        /// Completion signal.
        reply: Reply<()>,
    },
    /// Register a catalog IE function.
    RegisterIe {
        /// The declarative spec.
        spec: IeSpec,
        /// Completion signal.
        reply: Reply<()>,
    },
    /// Import rows as a relation.
    Import {
        /// Relation name.
        relation: String,
        /// Rows (schema from the first row; empty re-uses the
        /// relation's existing schema).
        rows: Vec<Vec<Value>>,
        /// Completion signal.
        reply: Reply<()>,
    },
    /// Compile and store a named prepared query.
    Prepare {
        /// Name executes refer to.
        name: String,
        /// Query source, e.g. `?Status(d, s)`.
        query: String,
        /// Completion signal.
        reply: Reply<()>,
    },
    /// Evaluate pending churn and publish a fresh snapshot.
    Refresh {
        /// The requester's absolute deadline, if it has one.
        deadline: Option<Instant>,
        /// The requester's serving request id: attributed to the
        /// coalesced evaluation's `EvalProfile` so a slow rule is
        /// traceable back to the requests that paid for it.
        request_id: Option<String>,
        /// Receives the published snapshot (or the evaluation error).
        reply: Reply<Arc<Published>>,
    },
}

/// State shared between the acceptor, connection handlers, and the
/// writer thread.
pub(crate) struct ServerState {
    /// Immutable configuration.
    pub cfg: ServeConfig,
    /// Latest published snapshot (swap-on-publish).
    pub published: RwLock<Arc<Published>>,
    /// Named prepared queries (`/prepare` inserts, `/execute` reads).
    pub prepared: RwLock<HashMap<String, Arc<PreparedQuery>>>,
    /// Bumped by the writer after each applied mutation; a published
    /// version behind it means `/execute` must request a refresh.
    pub write_version: AtomicU64,
    /// Handlers clone a sender per mutation; dropped on shutdown so the
    /// writer loop ends.
    pub cmd_tx: parking_lot::Mutex<Option<Sender<Cmd>>>,
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
    pub instance: u32,
    /// Monotonic counter for minted request ids.
    pub request_seq: AtomicU64,
}

impl ServerState {
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

    /// A sender for the writer's command queue, or an error once the
    /// server is shutting down.
    pub fn sender(&self) -> Result<Sender<Cmd>, ApiError> {
        self.cmd_tx
            .lock()
            .clone()
            .ok_or_else(|| ApiError::new(503, "draining", "server is shutting down"))
    }
}

/// The writer thread: owns the session, applies mutations in arrival
/// order, and coalesces refresh requests into single evaluations. Ends
/// when every sender is dropped.
pub(crate) fn writer_loop(mut session: Session, rx: Receiver<Cmd>, state: Arc<ServerState>) {
    session.set_max_materialized_rows(state.cfg.max_materialized_rows);
    session.set_max_eval_millis(state.cfg.max_eval_millis);
    while let Ok(first) = rx.recv() {
        let mut waiters = Vec::new();
        let mut queue = Some(first);
        while let Some(cmd) = queue.take() {
            match cmd {
                Cmd::Run { source, reply } => {
                    let result = session
                        .run(&source)
                        .map(|_| ())
                        .map_err(|e| ApiError::from_engine(&e));
                    state.write_version.fetch_add(1, Ordering::Release);
                    let _ = reply.send(result);
                }
                Cmd::RegisterIe { spec, reply } => {
                    let result = catalog::register_ie(&mut session, &spec);
                    state.write_version.fetch_add(1, Ordering::Release);
                    let _ = reply.send(result);
                }
                Cmd::Import {
                    relation,
                    rows,
                    reply,
                } => {
                    let result = import(&mut session, &relation, rows);
                    state.write_version.fetch_add(1, Ordering::Release);
                    let _ = reply.send(result);
                }
                Cmd::Prepare { name, query, reply } => {
                    let result = match session.prepare(&query) {
                        Ok(pq) => {
                            state.prepared.write().insert(name, Arc::new(pq));
                            Ok(())
                        }
                        Err(e) => Err(ApiError::from_engine(&e)),
                    };
                    let _ = reply.send(result);
                }
                Cmd::Refresh {
                    deadline,
                    request_id,
                    reply,
                } => waiters.push(RefreshWaiter {
                    deadline,
                    request_id,
                    reply,
                }),
            }
            // Drain whatever arrived meanwhile: mutations apply before
            // the batch's single evaluation, refreshes join it.
            queue = rx.try_recv().ok();
        }
        if !waiters.is_empty() {
            refresh(&mut session, &state, waiters);
        }
    }
}

/// Applies one `/import` body. Schema comes from the first row; an
/// empty import clears an existing relation (engine semantics).
fn import(session: &mut Session, relation: &str, rows: Vec<Vec<Value>>) -> Result<(), ApiError> {
    if rows.is_empty() {
        return session
            .import_typed(relation, Vec::<(i64,)>::new())
            .map_err(|e| ApiError::from_engine(&e));
    }
    let names = (0..rows[0].len()).map(|i| format!("c{i}")).collect();
    let df = DataFrame::from_rows(names, rows)
        .map_err(|e| ApiError::bad_request(format!("malformed rows: {e}")))?;
    session
        .import_dataframe(&df, relation)
        .map_err(|e| ApiError::from_engine(&e))
}

/// One `/execute` request queued on the writer for a fresh snapshot.
pub(crate) struct RefreshWaiter {
    /// The requester's absolute deadline, if it has one.
    deadline: Option<Instant>,
    /// Its serving request id (attributed to the evaluation).
    request_id: Option<String>,
    /// Reply slot.
    reply: Reply<Arc<Published>>,
}

/// Runs (at most) one evaluation for a batch of refresh waiters and
/// publishes the result.
fn refresh(session: &mut Session, state: &ServerState, waiters: Vec<RefreshWaiter>) {
    let now = Instant::now();
    let mut live = Vec::new();
    for w in waiters {
        match w.deadline {
            Some(d) if d <= now => {
                let _ = w.reply.send(Err(ApiError::deadline(
                    "deadline expired while queued for evaluation",
                )));
            }
            _ => live.push(w),
        }
    }
    let Some(extra) = live.len().checked_sub(1) else {
        return; // every waiter's deadline already expired
    };
    if extra > 0 {
        state.metrics.counter("execute_coalesced").add(extra as u64);
    }
    state
        .metrics
        .gauge("eval_waiters_last")
        .set(live.len() as i64);

    // Version to stamp on the publish — read *before* evaluating, so a
    // mutation racing in mid-eval leaves the published version behind
    // `write_version` and the next execute triggers another refresh.
    let version = state.version();
    {
        let current = state.published.read().clone();
        if current.version == version {
            for w in live {
                let _ = w.reply.send(Ok(current.clone()));
            }
            return;
        }
    }

    // Evaluation budget: the config cap, tightened to the laxest waiter
    // deadline when *every* waiter carries one (a deadline-free waiter
    // is entitled to the full cap).
    let laxest: Option<u64> = if live.iter().all(|w| w.deadline.is_some()) {
        live.iter()
            .filter_map(|w| w.deadline)
            .map(|d| (d.saturating_duration_since(now).as_millis() as u64).max(1))
            .max()
    } else {
        None
    };
    let budget = match (state.cfg.max_eval_millis, laxest) {
        (Some(cap), Some(req)) => Some(cap.min(req)),
        (Some(cap), None) => Some(cap),
        (None, req) => req,
    };
    let request_ids: Vec<String> = live.iter().filter_map(|w| w.request_id.clone()).collect();
    session.set_request_ids(request_ids.clone());
    session.set_max_eval_millis(budget);
    let eval_start = Instant::now();
    let outcome = session.snapshot();
    let eval_wall = eval_start.elapsed();
    session.set_max_eval_millis(state.cfg.max_eval_millis);

    state
        .metrics
        .histogram("eval_duration_ns")
        .record(eval_wall.as_nanos() as u64);
    slow_query_log(session, state, eval_wall, &request_ids, outcome.is_err());

    match outcome {
        Ok(snapshot) => {
            state.metrics.counter("evals_total").inc();
            let (cache, docs) = (snapshot.cache_stats(), session.docs());
            for (name, value) in [
                ("ie_cache_entries", cache.entries as i64),
                ("ie_cache_bytes", cache.bytes as i64),
                ("ie_cache_evictions_total", cache.evictions as i64),
                ("docstore_bytes", docs.bytes() as i64),
                ("docstore_docs", docs.len() as i64),
                ("docstore_epoch", docs.epoch() as i64),
                ("published_eval_seq", snapshot.eval_seq() as i64),
            ] {
                state.metrics.gauge(name).set(value);
            }
            let published = Arc::new(Published::new(snapshot, version));
            *state.published.write() = published.clone();
            for w in live {
                let _ = w.reply.send(Ok(published.clone()));
            }
        }
        Err(e) => {
            state.metrics.counter("eval_errors_total").inc();
            let err = ApiError::from_engine(&e);
            for w in live {
                let _ = w.reply.send(Err(err.clone()));
            }
        }
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
    request_ids: &[String],
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
        (
            "request_ids".into(),
            Json::Arr(request_ids.iter().map(Json::str).collect()),
        ),
        ("profile".into(), profile),
    ]));
}
