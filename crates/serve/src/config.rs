//! Server configuration.

/// Tunables for [`crate::Server`]. All admission-control knobs are
/// per-request ceilings: a request may ask for *less* (`deadline_ms`,
/// `max_rows` in the `/execute` body) but never for more.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7171`; port `0` picks an ephemeral
    /// port (read it back from [`crate::Server::local_addr`]).
    pub addr: String,
    /// Connection-handler threads, spawned by [`crate::Server::serve`]
    /// and joined when it returns; a request runs — evaluation
    /// included — on the handler of its connection. `0` means one per
    /// available core. Each *active* keep-alive connection occupies a
    /// handler while later ones wait in the accept queue, but idle
    /// connections are closed after [`ServeConfig::idle_timeout_ms`],
    /// so handlers recycle; size this to the expected number of
    /// concurrently active clients.
    pub workers: usize,
    /// Largest accepted request body; beyond it the request is refused
    /// with 413 before evaluation starts.
    pub max_body_bytes: usize,
    /// Deadline applied to `/execute` requests that do not set
    /// `deadline_ms` themselves; `None` means no default deadline.
    pub default_deadline_ms: Option<u64>,
    /// Hard ceiling on the wall-clock budget of any single evaluation,
    /// regardless of what deadlines the waiting requests carry.
    pub max_eval_millis: Option<u64>,
    /// Row-materialization budget enforced during evaluation (maps to
    /// [`spannerlog_engine::SessionBuilder::max_materialized_rows`]);
    /// overruns surface as HTTP 429 naming the culprit rule.
    pub max_materialized_rows: Option<usize>,
    /// Close a keep-alive connection after this long with no request on
    /// it, freeing its handler thread for other clients. `None` keeps
    /// idle connections open forever (each then pins a handler for its
    /// lifetime). Enforcement granularity is the 250 ms socket read
    /// tick.
    pub idle_timeout_ms: Option<u64>,
    /// Access-log destination: one JSONL record per request, written to
    /// the literal `"stderr"` or to a file path (append). `None`
    /// disables the access log.
    pub access_log: Option<String>,
    /// Slow-query threshold: any evaluation whose wall time reaches
    /// this many milliseconds is logged (to the same destination rules
    /// as [`ServeConfig::slow_log`]) together with its per-rule
    /// `EvalProfile` JSON. `None` disables the slow-query log.
    pub slow_eval_ms: Option<u64>,
    /// Slow-query-log destination (`"stderr"` or a file path). `None`
    /// falls back to [`ServeConfig::access_log`]'s destination, or
    /// `stderr` when that is unset too.
    pub slow_log: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            max_body_bytes: 4 * 1024 * 1024,
            default_deadline_ms: Some(30_000),
            max_eval_millis: Some(60_000),
            max_materialized_rows: Some(10_000_000),
            idle_timeout_ms: Some(30_000),
            access_log: None,
            slow_eval_ms: None,
            slow_log: None,
        }
    }
}

impl ServeConfig {
    /// The effective handler-thread count (resolving `0` to the core
    /// count).
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism().map_or(4, |n| n.get())
        }
    }
}
