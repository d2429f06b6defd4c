//! The listener, router, and endpoint handlers.

use crate::catalog::{self, IeSpec};
use crate::config::ServeConfig;
use crate::error::ApiError;
use crate::http::{self, Body, ReadOutcome, Request, Response};
use crate::json::{write_escaped, Json};
use crate::log::{now_micros, LogSink};
use crate::state::{CachedBody, Published, ServerState};
use spannerlib_core::{Relation, Schema, Value};
use spannerlib_dataframe::{Column, DataFrame};
use spannerlib_trace::encode_prometheus;
use spannerlog_engine::{PreparedQuery, QueryPlan, Selection, Session};
use std::fmt::Write as _;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Socket read timeout: the tick at which idle keep-alive connections
/// re-check the drain flag.
const READ_TICK: Duration = Duration::from_millis(250);

/// A bound spannerd server. Construct with [`Server::bind`], then run
/// the accept loop with [`Server::serve`] (blocks until
/// [`ServerHandle::shutdown`]).
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    state: Arc<ServerState>,
}

/// A cheap handle for observing and stopping a running [`Server`] from
/// other threads (signal watchers, tests).
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<ServerState>,
    addr: SocketAddr,
}

// Compile-time guarantee: the handle crosses threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ServerHandle>()
};

impl ServerHandle {
    /// Begins graceful shutdown: stop accepting, let in-flight requests
    /// drain, turn `/healthz` 503. Idempotent.
    pub fn shutdown(&self) {
        if self.state.accepting.swap(false, Ordering::SeqCst) {
            // Wake the blocking `accept` so the loop observes the flag.
            let _ = TcpStream::connect(self.addr);
        }
    }

    /// Whether the server is still accepting new work.
    pub fn is_accepting(&self) -> bool {
        self.state.accepting.load(Ordering::SeqCst)
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Server {
    /// Binds `cfg.addr` and takes `session` into the server's state. The
    /// session is evaluated once here so the first `/execute` finds a
    /// published snapshot.
    pub fn bind(mut session: Session, cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        session.set_max_materialized_rows(cfg.max_materialized_rows);
        session.set_max_eval_millis(cfg.max_eval_millis);
        let snapshot = session
            .snapshot()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let access_log = match &cfg.access_log {
            Some(spec) => Some(Arc::new(LogSink::open(spec)?)),
            None => None,
        };
        // The slow-query log needs a destination only when a threshold
        // is set; it falls back to the access log's spec, then stderr.
        let slow_log = if cfg.slow_eval_ms.is_some() {
            let spec = cfg
                .slow_log
                .as_deref()
                .or(cfg.access_log.as_deref())
                .unwrap_or("stderr");
            Some(Arc::new(LogSink::open(spec)?))
        } else {
            None
        };
        let state = Arc::new(ServerState::new(
            cfg, session, snapshot, access_log, slow_log,
        ));
        // Handler threads as a gauge (named for the pool they replaced),
        // so `connections_active` reads as an occupancy ratio on a
        // dashboard.
        state
            .metrics
            .gauge("pool_workers")
            .set(state.cfg.effective_workers() as i64);
        Ok(Server {
            listener,
            addr,
            state,
        })
    }

    /// The bound address (read the ephemeral port back from here).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle for shutting the server down from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: self.state.clone(),
            addr: self.addr,
        }
    }

    /// Runs the accept loop on the calling thread and hands accepted
    /// connections, through one queue, to `cfg.effective_workers()`
    /// handler threads. Returns after [`ServerHandle::shutdown`]: the
    /// queue closes, every handler finishes the connections it holds or
    /// finds queued, and the session is dropped. A handler thread that
    /// fails to spawn returns its error once the others have stopped.
    pub fn serve(self) -> io::Result<()> {
        let state = &*self.state;
        let (queue, accepted) = mpsc::channel();
        let accepted = &Mutex::new(accepted);
        let served = std::thread::scope(move |scope| {
            for i in 0..state.cfg.effective_workers() {
                std::thread::Builder::new()
                    .name(format!("spannerd-handler-{i}"))
                    .spawn_scoped(scope, move || handle_queue(accepted, state))?;
            }
            for conn in self.listener.incoming() {
                if !state.accepting.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let _ = queue.send(stream);
            }
            // `queue` drops here — also on the early return above — so
            // the handlers run dry and the scope joins them.
            Ok(())
        });
        state.retire_session();
        served
    }
}

/// One handler thread: takes accepted connections off the queue —
/// holding its lock only for the `recv` — and serves each to its end,
/// until the accept loop closes the queue and nothing is left in it.
fn handle_queue(accepted: &Mutex<Receiver<TcpStream>>, state: &ServerState) {
    loop {
        let next = accepted
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .recv();
        match next {
            Ok(stream) => handle_connection(stream, state),
            Err(_) => return,
        }
    }
}

/// Decrements `connections_active` on every exit path of
/// [`handle_connection`].
struct ConnectionGuard<'a>(&'a ServerState);

impl Drop for ConnectionGuard<'_> {
    fn drop(&mut self) {
        self.0.metrics.gauge("connections_active").add(-1);
    }
}

/// Serves one keep-alive connection until close, error, idle timeout,
/// or drain. Idle connections are closed after
/// `cfg.idle_timeout_ms` so they stop pinning a handler thread; the
/// bundled [`crate::Client`] transparently reconnects, so well-behaved
/// clients never observe the close.
fn handle_connection(stream: TcpStream, state: &ServerState) {
    state.metrics.counter("http_connections_total").inc();
    state.metrics.gauge("connections_active").add(1);
    let _guard = ConnectionGuard(state);
    let _ = stream.set_read_timeout(Some(READ_TICK));
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut idle_since = Instant::now();
    loop {
        match http::read_request(&mut reader, state.cfg.max_body_bytes) {
            ReadOutcome::Request(req) => {
                let draining = !state.accepting.load(Ordering::SeqCst);
                let close = req.wants_close() || draining;
                let resp = route(&req, state);
                if http::write_response(&mut writer, &resp, close).is_err() || close {
                    return;
                }
                idle_since = Instant::now();
            }
            ReadOutcome::Closed => return,
            ReadOutcome::IdleTick => {
                // Idle keep-alive connections close themselves once the
                // server starts draining, or once they exceed the idle
                // timeout (freeing their handler thread).
                if !state.accepting.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(ms) = state.cfg.idle_timeout_ms {
                    if idle_since.elapsed() >= Duration::from_millis(ms) {
                        state.metrics.counter("connections_idle_closed").inc();
                        return;
                    }
                }
            }
            ReadOutcome::Bad { status, message } => {
                let err = ApiError::new(status, "protocol", message);
                let resp = Response::json(status, err.body());
                let _ = http::write_response(&mut writer, &resp, true);
                return;
            }
        }
    }
}

/// Per-request context threaded through the handlers: the request id
/// plus the snapshot attribution `/execute` fills in for the access
/// log.
struct ReqCtx {
    /// Accepted from `X-Request-Id` or minted; echoed on the response.
    id: String,
    /// ETag of the snapshot the request read (execute only).
    etag: Option<String>,
    /// Sequence number of the (possibly coalesced) evaluation whose
    /// published result the request read (execute only).
    eval_seq: Option<u64>,
}

/// The request id for `req`: the client's `X-Request-Id` when it is
/// sane (non-empty, ≤ 128 bytes, printable ASCII), else a minted one.
fn request_id(req: &Request, state: &ServerState) -> String {
    match req.header("x-request-id") {
        Some(id)
            if !id.is_empty() && id.len() <= 128 && id.bytes().all(|b| b.is_ascii_graphic()) =>
        {
            id.to_string()
        }
        _ => state.mint_request_id(),
    }
}

/// Buckets a status code into the class label used by the HTTP metrics
/// (`2xx`, `3xx`, `4xx`, `5xx`).
fn status_class(status: u16) -> &'static str {
    match status {
        200..=299 => "2xx",
        300..=399 => "3xx",
        400..=499 => "4xx",
        _ => "5xx",
    }
}

/// Dispatches one request; assigns its request id, records per-route /
/// per-status metrics, echoes the id on the response (and inside error
/// bodies), and appends the access-log record.
fn route(req: &Request, state: &ServerState) -> Response {
    let start = Instant::now();
    let mut ctx = ReqCtx {
        id: request_id(req, state),
        etag: None,
        eval_seq: None,
    };
    // A handler that panics has already returned the session
    // (`Checkout`'s drop runs while unwinding): the request is answered
    // 500, the connection and the daemon carry on. (A registered IE
    // function that panics does not get here: the engine answers it with
    // an error naming the function and the rule.)
    let dispatch = || match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => ("/healthz", healthz(state)),
        ("GET", "/metrics") => ("/metrics", metrics(state)),
        ("GET", "/profile") => ("/profile", profile(state)),
        ("POST", "/register") => ("/register", register(req, state)),
        ("POST", "/import") => ("/import", import(req, state)),
        ("POST", "/prepare") => ("/prepare", prepare(req, state)),
        ("POST", "/execute") => ("/execute", execute(req, state, &mut ctx)),
        (
            _,
            "/healthz" | "/metrics" | "/profile" | "/register" | "/import" | "/prepare"
            | "/execute",
        ) => (
            "other",
            Err(ApiError::new(
                405,
                "method_not_allowed",
                format!("{} is not supported on {}", req.method, req.path),
            )),
        ),
        _ => (
            "other",
            Err(ApiError::new(
                404,
                "not_found",
                format!("no such endpoint {:?}", req.path),
            )),
        ),
    };
    let (route_label, result) = catch_unwind(AssertUnwindSafe(dispatch)).unwrap_or_else(|_| {
        state.metrics.counter("handler_panics_total").inc();
        let message = "the request handler panicked; the session is back in service";
        ("other", Err(ApiError::new(500, "internal", message)))
    });
    let mut resp = match result {
        Ok(resp) => resp,
        Err(mut err) => {
            err.request_id = Some(ctx.id.clone());
            Response::json(err.status, err.body())
        }
    };
    resp.headers.push(("X-Request-Id".into(), ctx.id.clone()));
    let class = status_class(resp.status);
    let labels = [("route", route_label), ("status", class)];
    state
        .metrics
        .counter_with("http_requests_total", &labels)
        .inc();
    if resp.status >= 400 {
        state.metrics.counter("http_errors_total").inc();
    }
    let wall = start.elapsed();
    state
        .metrics
        .histogram_with("http_request_duration_ns", &labels)
        .record(wall.as_nanos() as u64);
    if let Some(log) = &state.access_log {
        log.write(&Json::Obj(vec![
            ("type".into(), Json::str("access")),
            ("ts_micros".into(), Json::Int(now_micros())),
            ("request_id".into(), Json::str(&ctx.id)),
            ("method".into(), Json::str(&req.method)),
            ("path".into(), Json::str(&req.path)),
            ("status".into(), Json::Int(i64::from(resp.status))),
            ("bytes".into(), Json::Int(resp.body.len() as i64)),
            ("wall_micros".into(), Json::Int(wall.as_micros() as i64)),
            (
                "etag".into(),
                ctx.etag.as_deref().map_or(Json::Null, Json::str),
            ),
            (
                "eval_seq".into(),
                ctx.eval_seq.map_or(Json::Null, |s| Json::Int(s as i64)),
            ),
        ]));
    }
    resp
}

/// Parses the request body as a JSON object.
fn body_json(req: &Request) -> Result<Json, ApiError> {
    let text = req
        .body_str()
        .map_err(|_| ApiError::bad_request("body is not UTF-8"))?;
    Json::parse(text).map_err(|e| ApiError::bad_request(format!("invalid JSON body: {e}")))
}

fn ok_body(state: &ServerState, extra: Vec<(String, Json)>) -> Response {
    let mut members = vec![
        ("ok".to_string(), Json::Bool(true)),
        ("version".to_string(), Json::Int(state.version() as i64)),
    ];
    members.extend(extra);
    Response::json(200, Json::Obj(members).render())
}

/// `GET /healthz`.
fn healthz(state: &ServerState) -> Result<Response, ApiError> {
    if state.accepting.load(Ordering::SeqCst) {
        Ok(ok_body(state, vec![("status".into(), Json::str("ok"))]))
    } else {
        Err(ApiError::new(503, "draining", "server is shutting down"))
    }
}

/// `GET /metrics` — Prometheus text-format exposition over every
/// counter, gauge, and latency histogram in the server's registry.
fn metrics(state: &ServerState) -> Result<Response, ApiError> {
    // What the current publish has built for its readers so far.
    let published = state.published.read().clone();
    state
        .metrics
        .gauge("execute_body_cache_entries")
        .set(published.cached_bodies() as i64);
    state
        .metrics
        .gauge("snapshot_index_builds")
        .set(published.snapshot.index_builds() as i64);
    let body = encode_prometheus(&state.metrics);
    Ok(Response {
        status: 200,
        headers: vec![(
            "Content-Type".into(),
            "text/plain; version=0.0.4; charset=utf-8".into(),
        )],
        body: Body::Owned(body.into_bytes()),
    })
}

/// `POST /register` — either `{"rules": "<source cell>"}` or
/// `{"ie": {"name", "pattern", "output": "spans"|"strings"}}`.
fn register(req: &Request, state: &ServerState) -> Result<Response, ApiError> {
    let json = body_json(req)?;
    if let Some(rules) = json.get("rules").and_then(Json::as_str) {
        let mut session = state.checkout(None)?;
        session.run(rules).map_err(|e| ApiError::from_engine(&e))?;
        session.mark_changed();
    } else if let Some(ie) = json.get("ie") {
        let spec = parse_ie_spec(ie)?;
        let mut session = state.checkout(None)?;
        catalog::register_ie(&mut session, &spec)?;
        session.mark_changed();
    } else {
        return Err(ApiError::bad_request(
            "body must carry \"rules\" (a source cell) or \"ie\" (a catalog spec)",
        ));
    }
    Ok(ok_body(state, vec![]))
}

fn parse_ie_spec(ie: &Json) -> Result<IeSpec, ApiError> {
    let name = ie
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| ApiError::bad_request("ie.name must be a string"))?;
    let pattern = ie
        .get("pattern")
        .and_then(Json::as_str)
        .ok_or_else(|| ApiError::bad_request("ie.pattern must be a string"))?;
    let strings = match ie.get("output").and_then(Json::as_str) {
        None | Some("spans") => false,
        Some("strings") => true,
        Some(other) => {
            return Err(ApiError::bad_request(format!(
                "ie.output must be \"spans\" or \"strings\", got {other:?}"
            )))
        }
    };
    Ok(IeSpec {
        name: name.to_string(),
        pattern: pattern.to_string(),
        strings,
    })
}

/// `POST /import` — `{"relation": "...", "rows": [[...], ...]}`.
fn import(req: &Request, state: &ServerState) -> Result<Response, ApiError> {
    let json = body_json(req)?;
    let Some(relation) = json.get("relation").and_then(Json::as_str) else {
        return Err(ApiError::bad_request("\"relation\" must be a string"));
    };
    let Some(rows_json) = json.get("rows").and_then(Json::as_array) else {
        return Err(ApiError::bad_request("\"rows\" must be an array of arrays"));
    };
    // Built before the session is taken: schema from the first row,
    // every later row checked against it.
    let mut built: Option<Relation> = None;
    let mut cells = Vec::new();
    for (i, row) in rows_json.iter().enumerate() {
        let Some(row) = row.as_array() else {
            return Err(ApiError::bad_request(format!("row {i} is not an array")));
        };
        cells.clear();
        for (j, cell) in row.iter().enumerate() {
            cells.push(cell_value(cell).ok_or_else(|| {
                ApiError::bad_request(format!(
                    "row {i} column {j}: cells must be strings, integers, floats, or booleans"
                ))
            })?);
        }
        built
            .get_or_insert_with(|| {
                Relation::new(Schema::new(
                    cells.iter().map(Value::value_type).collect::<Vec<_>>(),
                ))
            })
            .insert_row(&cells)
            .map_err(|e| ApiError::bad_request(format!("row {i}: {e}")))?;
    }
    let mut session = state.checkout(None)?;
    match built {
        Some(built) => session.import_relation(relation, built),
        // No row to take a schema from: the relation must exist, and is
        // cleared.
        None => session.import_typed(relation, Vec::<(i64,)>::new()),
    }
    .map_err(|e| ApiError::from_engine(&e))?;
    session.mark_changed();
    drop(session);
    Ok(ok_body(
        state,
        vec![("rows".into(), Json::Int(rows_json.len() as i64))],
    ))
}

/// Maps a JSON cell onto an engine value.
fn cell_value(cell: &Json) -> Option<Value> {
    match cell {
        Json::Str(s) => Some(Value::str(s.as_str())),
        Json::Int(n) => Some(Value::Int(*n)),
        Json::Float(x) => Some(Value::Float(*x)),
        Json::Bool(b) => Some(Value::Bool(*b)),
        _ => None,
    }
}

/// `POST /prepare` — `{"name": "...", "query": "?R(x)"}`.
fn prepare(req: &Request, state: &ServerState) -> Result<Response, ApiError> {
    let json = body_json(req)?;
    let (Some(name), Some(query)) = (
        json.get("name").and_then(Json::as_str),
        json.get("query").and_then(Json::as_str),
    ) else {
        return Err(ApiError::bad_request(
            "\"name\" and \"query\" must be strings",
        ));
    };
    let prepared = state
        .checkout(None)?
        .prepare(query)
        .map_err(|e| ApiError::from_engine(&e))?;
    state
        .prepared
        .write()
        .insert(name.to_string(), Arc::new(prepared));
    Ok(ok_body(state, vec![]))
}

/// What an `/execute` body names.
enum Target<'a> {
    /// `{"prepared": name}`, resolved in the prepared-query table.
    Prepared(&'a str, Arc<PreparedQuery>),
    /// `{"query": "?R(x)"}`, parsed for this request.
    AdHoc(QueryPlan),
}

/// How far the answer to an `/execute` exists.
enum Answer<'a> {
    /// Rendered earlier in this publish.
    Rendered(CachedBody),
    /// Resolved against the snapshot; no row read yet.
    Selected(Selection<'a>),
}

/// `POST /execute` — `{"prepared": name}` or `{"query": "?R(x)"}`, plus
/// optional `deadline_ms` and `max_rows`.
fn execute(req: &Request, state: &ServerState, ctx: &mut ReqCtx) -> Result<Response, ApiError> {
    let json = body_json(req)?;
    let deadline_ms = match json.get("deadline_ms") {
        None => state.cfg.default_deadline_ms,
        Some(v) => match v.as_i64() {
            Some(ms) if ms > 0 => Some(ms as u64),
            _ => {
                return Err(ApiError::bad_request(
                    "deadline_ms must be a positive integer",
                ))
            }
        },
    };
    let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    let max_rows = match json.get("max_rows") {
        None => None,
        Some(v) => match v.as_i64() {
            Some(n) if n >= 0 => Some(n as usize),
            _ => {
                return Err(ApiError::bad_request(
                    "max_rows must be a non-negative integer",
                ))
            }
        },
    };

    let published = state.fresh_published(deadline, &ctx.id)?;
    ctx.etag = Some(published.etag.clone());
    ctx.eval_seq = Some(published.snapshot.eval_seq());
    let target = if let Some(name) = json.get("prepared").and_then(Json::as_str) {
        let Some(query) = state.prepared.read().get(name).cloned() else {
            return Err(ApiError::new(
                404,
                "not_found",
                format!("no prepared query named {name:?}"),
            ));
        };
        Target::Prepared(name, query)
    } else if let Some(query_src) = json.get("query").and_then(Json::as_str) {
        Target::AdHoc(QueryPlan::parse(query_src).map_err(|e| ApiError::from_engine(&e))?)
    } else {
        return Err(ApiError::bad_request(
            "body must carry \"prepared\" (a name) or \"query\" (a query string)",
        ));
    };

    // The request is valid from here on; what remains is how much of
    // the answer has to exist to settle it. A body this publish already
    // rendered knows its row count; otherwise `max_rows` costs a filter,
    // a matching `If-None-Match` nothing, and only a `200` a frame.
    let cached = match &target {
        Target::Prepared(name, query) => published.cached_body(name, query),
        Target::AdHoc(_) => None,
    };
    let mut answer = match cached {
        Some(hit) => Answer::Rendered(hit),
        None => {
            let plan = match &target {
                Target::Prepared(_, query) => query.plan(),
                Target::AdHoc(plan) => plan,
            };
            let selection = published.snapshot.select(plan);
            Answer::Selected(selection.map_err(|e| ApiError::from_engine(&e))?)
        }
    };
    if let Some(cap) = max_rows {
        let rows = match &mut answer {
            Answer::Rendered(hit) => hit.rows,
            Answer::Selected(selection) => selection.num_rows(),
        };
        if rows > cap {
            return Err(ApiError::new(
                429,
                "too_many_rows",
                format!("result has {rows} rows, request admitted at most {cap}"),
            ));
        }
    }
    if req.header("if-none-match") == Some(published.etag.as_str()) {
        return Ok(Response {
            status: 304,
            headers: vec![("ETag".into(), published.etag.clone())],
            body: Body::Owned(Vec::new()),
        });
    }
    let body = match answer {
        Answer::Rendered(hit) => {
            state.metrics.counter("execute_body_cache_hits").inc();
            Body::Shared(hit.body)
        }
        Answer::Selected(selection) => {
            let frame = selection
                .into_frame()
                .map_err(|e| ApiError::from_engine(&e))?;
            let text = encode_frame(&frame, &published).into_bytes();
            match &target {
                Target::Prepared(name, query) => {
                    let body: Arc<[u8]> = text.into();
                    published.cache_body(name, query, body.clone(), frame.num_rows());
                    Body::Shared(body)
                }
                Target::AdHoc(_) => Body::Owned(text),
            }
        }
    };
    Ok(Response::json_body(200, body).with_header("ETag", published.etag.clone()))
}

/// Serializes a result frame —
/// `{"columns": […], "rows": [[…]], "row_count": n, "version": v, "fingerprint": "…"}`
/// — straight into the response text, reading each cell from its typed
/// column; spans resolve their text against the snapshot's frozen
/// document store as they are written.
fn encode_frame(frame: &DataFrame, published: &Published) -> String {
    let docs = published.snapshot.docs();
    let mut out = String::with_capacity(128 + 24 * frame.num_rows() * frame.num_columns());
    out.push_str("{\"columns\":[");
    for (i, name) in frame.column_names().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_escaped(&mut out, name);
    }
    out.push_str("],\"rows\":[");
    for row in 0..frame.num_rows() {
        out.push_str(if row > 0 { ",[" } else { "[" });
        for (i, column) in frame.columns().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match column {
                Column::Str(cells) => write_escaped(&mut out, &cells[row]),
                Column::Int(cells) => Json::Int(cells[row]).write(&mut out),
                Column::Bool(cells) => Json::Bool(cells[row]).write(&mut out),
                Column::Float(cells) => Json::Float(cells[row]).write(&mut out),
                Column::Span(cells) => {
                    let span = &cells[row];
                    let _ = write!(
                        out,
                        "{{\"start\":{},\"end\":{},\"text\":",
                        span.start_usize(),
                        span.end_usize()
                    );
                    match docs.span_text(span) {
                        Ok(text) => write_escaped(&mut out, text),
                        Err(_) => out.push_str("null"),
                    }
                    out.push('}');
                }
            }
        }
        out.push(']');
    }
    let _ = write!(
        out,
        "],\"row_count\":{},\"version\":{},\"fingerprint\":\"{:016x}\"}}",
        frame.num_rows(),
        published.version,
        published.snapshot.fingerprint()
    );
    out
}

/// `GET /profile` — publish version/fingerprint, and the evaluation
/// profile of the last published snapshot (when tracing is on). The
/// request and evaluation numbers are `/metrics`'.
fn profile(state: &ServerState) -> Result<Response, ApiError> {
    let published = state.published.read().clone();
    let eval_profile = published.snapshot.profile().map_or(Json::Null, |p| {
        Json::Arr(
            p.to_json_lines()
                .lines()
                .map(|line| Json::Raw(line.to_string()))
                .collect(),
        )
    });
    let body = Json::Obj(vec![
        ("version".into(), Json::Int(published.version as i64)),
        (
            "fingerprint".into(),
            Json::str(format!("{:016x}", published.snapshot.fingerprint())),
        ),
        (
            "eval_seq".into(),
            Json::Int(published.snapshot.eval_seq() as i64),
        ),
        ("eval_profile".into(), eval_profile),
    ]);
    Ok(Response::json(200, body.render()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spannerlog_engine::Snapshot;

    /// The `Json` tree `/execute` rendered its answer through before the
    /// direct encoder; kept as the reference for its bytes.
    fn render_frame(frame: &DataFrame, published: &Published) -> Json {
        let rows = frame
            .iter_rows()
            .map(|row| {
                Json::Arr(
                    row.iter()
                        .map(|v| value_json(v, &published.snapshot))
                        .collect(),
                )
            })
            .collect();
        Json::Obj(vec![
            (
                "columns".into(),
                Json::Arr(frame.column_names().iter().map(Json::str).collect()),
            ),
            ("rows".into(), Json::Arr(rows)),
            ("row_count".into(), Json::Int(frame.num_rows() as i64)),
            ("version".into(), Json::Int(published.version as i64)),
            (
                "fingerprint".into(),
                Json::str(format!("{:016x}", published.snapshot.fingerprint())),
            ),
        ])
    }

    fn value_json(v: &Value, snapshot: &Snapshot) -> Json {
        match v {
            Value::Str(s) => Json::str(&**s),
            Value::Int(n) => Json::Int(*n),
            Value::Bool(b) => Json::Bool(*b),
            Value::Float(x) => Json::Float(*x),
            Value::Span(span) => Json::Obj(vec![
                ("start".into(), Json::Int(span.start_usize() as i64)),
                ("end".into(), Json::Int(span.end_usize() as i64)),
                (
                    "text".into(),
                    snapshot.span_text(span).map_or(Json::Null, Json::str),
                ),
            ]),
        }
    }

    #[test]
    fn direct_encoder_writes_the_bytes_the_json_tree_rendered() {
        let mut session = Session::new();
        session
            .run(
                "new T(str, int, bool, float)\nS(t, s) <- T(t, _, _, _), rgx(\"\\\\w+\", t) -> (s)",
            )
            .unwrap();
        let texts = [
            "plain words",
            "quote \" backslash \\ tab \t newline \n",
            "ctrl \u{1}\u{1f} é 😀 \u{7f}",
            "",
        ];
        for (i, text) in texts.iter().enumerate() {
            let cells = [
                Value::str(*text),
                Value::Int(i as i64 - 2),
                Value::Bool(i % 2 == 0),
                Value::Float([0.5, -3.0, f64::NAN, f64::INFINITY][i]),
            ];
            session.add_fact("T", cells).unwrap();
        }
        let published = Published::new(session.snapshot().unwrap(), 7);
        for query in [
            "?T(t, n, b, x)",
            "?S(t, s)",
            "?S(_, s)",
            "?T(t, 99, b, x)",
            "?T(\"\", _, _, _)",
            "?Unseen(a)",
        ] {
            let frame = published.snapshot.export(query).unwrap();
            assert_eq!(
                encode_frame(&frame, &published),
                render_frame(&frame, &published).render(),
                "{query}"
            );
        }
        let spans = published.snapshot.export("?S(t, s)").unwrap();
        assert!(spans.num_rows() >= 6, "the span rows exist: {spans}");
    }
}
