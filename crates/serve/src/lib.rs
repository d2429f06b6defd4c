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
//!   POST /register ──┤                            │
//!   POST /import   ──┤  mpsc → writer thread      │  owns the Session;
//!   POST /prepare  ──┤  (mutations, in order)     │  evaluates lazily
//!                    └─────────────┬──────────────┘
//!                                  │ publish (RwLock<Arc<_>> swap)
//!                    ┌─────────────▼──────────────┐
//!   POST /execute ───┤  latest Snapshot (+ETag)   │  lock-free reads,
//!   GET  /profile ───┤  prepared-query table      │  spannerlib_par pool
//!   GET  /healthz    └────────────────────────────┘
//! ```
//!
//! * **Single writer, snapshot readers** — mutations serialize through
//!   one command thread; `/execute` never blocks on (or is blocked by)
//!   the writer.
//! * **Deadlines** — `deadline_ms` becomes an engine wall-clock budget
//!   (`SessionBuilder::max_eval_millis`) checked between fixpoint
//!   rounds, before each IE call, and every few thousand candidate
//!   rows inside a join — so one IE-free rule with a huge join cannot
//!   hold the writer past it; overruns return 503 naming the culprit
//!   rule.
//! * **Admission control** — `max_materialized_rows` overruns return
//!   429 with the culprit rule; oversized bodies 413; chunked transfer
//!   411.
//! * **Cross-request IE batching** — concurrent `/execute` requests
//!   that observe a stale snapshot coalesce into a single evaluation,
//!   whose plan-level IE batching and shared memo serve them all (see
//!   [`mod@self`]'s `state` module docs).
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
