//! # spannerlib-serve
//!
//! `spannerd`: an HTTP/1.1 serving front end over Spannerlog sessions —
//! the serving layer the ROADMAP's "millions of users" north star asks
//! for, built entirely on the engine's prepare-once/execute-many
//! primitives and with zero external dependencies (hand-rolled HTTP
//! and JSON over `std::net`).
//!
//! ## Architecture
//!
//! ```text
//!                    ┌────────────────────────────┐
//!   POST /register ──┤  checkout → the Session    │  one request holds
//!   POST /import   ──┤  (called on the handler's  │  it at a time, others
//!   POST /prepare  ──┤  own thread, then put back)│  wait ≤ their deadline
//!   stale /execute ──┤  evaluates lazily          │
//!                    └─────────────┬──────────────┘
//!                                  │ publish (RwLock<Arc<_>> swap)
//!                    ┌─────────────▼──────────────┐
//!   POST /execute ───┤  latest Snapshot (+ETag)   │  lock-free reads,
//!   GET  /profile ───┤  prepared-query table      │  one per handler
//!   GET  /healthz    └────────────────────────────┘
//!
//!   accept loop (the caller of serve) ──mpsc──▶ `workers` handler threads
//! ```
//!
//! * **One session, snapshot readers** — a request that mutates or
//!   evaluates checks the session out and puts it back, also when its
//!   handler panics (that request reads 500, the next one finds a
//!   working session); a registered IE function that panics fails its
//!   request with a 500 `ie_panic` error naming the function and, if
//!   one rule asked the call, the rule. `/execute` over a current publish never waits for it.
//! * **Deadlines** — `deadline_ms` becomes an engine wall-clock budget
//!   (`SessionBuilder::max_eval_millis`) checked between fixpoint
//!   rounds, before each IE call, and every few thousand candidate
//!   rows inside a join — so one IE-free rule with a huge join cannot
//!   hold the session past it; overruns return 503 naming the culprit
//!   rule, and so does a wait for the session that outlasts the
//!   deadline.
//! * **Admission control** — `max_materialized_rows` overruns return
//!   429 with the culprit rule; oversized bodies 413; chunked transfer
//!   411.
//! * **Cross-request IE batching** — concurrent `/execute` requests
//!   that observe a stale snapshot take turns on the session: the
//!   first evaluates and publishes, the others find the publish
//!   current, so one evaluation — with its plan-level IE batching and
//!   its shared IE calls — serves them all (see [`mod@self`]'s `state` module
//!   docs).
//!
//! ## Example
//!
//! ```no_run
//! use spannerlib_serve::{Client, Json, ServeConfig, Server};
//! use spannerlog_engine::Session;
//!
//! let server = Server::bind(Session::new(), ServeConfig::default()).unwrap();
//! let addr = server.local_addr();
//! let handle = server.handle();
//! std::thread::spawn(move || server.serve().unwrap());
//!
//! let mut client = Client::new(addr);
//! client
//!     .post("/register", &Json::parse(r#"{"rules": "new E(int, int)"}"#).unwrap())
//!     .unwrap();
//! handle.shutdown();
//! ```

pub mod catalog;
pub mod client;
pub mod config;
pub mod error;
pub mod http;
pub mod json;
pub mod log;
pub mod server;
pub mod signal;
mod state;

pub use catalog::IeSpec;
pub use client::{Client, ClientResponse};
pub use config::ServeConfig;
pub use error::{ApiError, ErrorCulprit};
pub use json::Json;
pub use server::{Server, ServerHandle};
