//! # spannerlib
//!
//! A Rust library for **embedding declarative Information Extraction in an
//! imperative workflow** — a from-scratch reproduction of the SpannerLib
//! system (Light et al., PVLDB 17(12), 2024).
//!
//! SpannerLib rests on *document spanners*: information extraction cast as
//! relational querying over strings and spans. Its language, **Spannerlog**,
//! is Datalog over strings and spans extended with *IE atoms*
//! `f(x…) -> (y…)` that call out to IE functions — regex formulas, NLP
//! models, LLMs, or any host callback registered on the [`Session`].
//!
//! ## The three pillars (paper §3)
//!
//! 1. **Spannerlog implementation** — [`spannerlog_engine`] evaluates
//!    programs bottom-up (semi-naive), with a semantic safety
//!    checker that also sequences IE calls inside each rule body, stratified
//!    negation, and aggregation.
//! 2. **Embedding Spannerlog in Rust** — a [`Session`] accepts "cells" of
//!    Spannerlog source ([`Session::run`]) interleaved with ordinary Rust
//!    code, and moves relations in and out as [`DataFrame`]s
//!    ([`Session::import_dataframe`] / [`Session::export`]).
//! 3. **Embedding Rust in Spannerlog** — any `Fn(&[Value]) -> rows` can be
//!    registered as an IE function ([`Session::register`]) and invoked from
//!    rules as a callback.
//!
//! ## Quick start: builder → prepare → execute
//!
//! The serving-path lifecycle — configure a session once, compile the
//! program once, then execute against freshly imported data as many
//! times as traffic demands:
//!
//! ```
//! use spannerlib::prelude::*;
//!
//! // 1. Build: resource limits, IE registry seeding.
//! let mut session = Session::builder()
//!     .max_fixpoint_rounds(10_000)
//!     .max_materialized_rows(1_000_000)
//!     .build();
//!
//! // 2. Load the program and compile it exactly once.
//! session.import_typed("Texts", vec![
//!     ("2024-01-01", "reach me at ann@gmail.com"),
//! ]).unwrap();
//! session.run(r#"
//!     R(usr, dom) <- Texts(d, t),
//!                    rgx_string("(\w+)@(\w+)\.\w+", t) -> (usr, dom).
//! "#).unwrap();
//! let query = session.prepare(r#"?R(usr, "gmail")"#).unwrap();
//!
//! // 3. Execute per batch: no re-parse, no re-plan; the fixpoint only
//! //    reruns when an input relation actually changed.
//! for batch in [vec![("2024-01-02", "or bob@work.org and eve@gmail.com")]] {
//!     session.import_typed("Texts", batch).unwrap();
//!     let out = query.execute(&mut session).unwrap();
//!     assert_eq!(out.num_rows(), 1);
//! }
//!
//! // 4. Typed export — host structs instead of stringly frames — and a
//! //    Send + Sync snapshot for lock-free concurrent reads.
//! let gmail_users: Vec<(String,)> = query.execute_typed(&mut session).unwrap();
//! assert_eq!(gmail_users[0].0, "eve");
//! let snapshot = session.snapshot().unwrap();
//! std::thread::scope(|s| {
//!     s.spawn(|| assert_eq!(snapshot.execute(&query).unwrap().num_rows(), 1));
//! });
//! ```
//!
//! ## The paper's four verbs
//!
//! The §3.2 notebook API — `import`/`run`/`export`/`register` — still
//! works unchanged, as thin wrappers over the same lifecycle:
//!
//! ```
//! use spannerlib::prelude::*;
//!
//! let mut session = Session::new();
//! let df = DataFrame::from_rows(
//!     vec!["date".into(), "text".into()],
//!     vec![
//!         vec![Value::str("2024-01-01"), Value::str("reach me at ann@gmail.com")],
//!         vec![Value::str("2024-01-02"), Value::str("or bob@work.org instead")],
//!     ],
//! )
//! .unwrap();
//! session.import_dataframe(&df, "Texts").unwrap();
//!
//! session
//!     .run(r#"
//!         R(usr, dom) <- Texts(d, t),
//!                        rgx_string("(\w+)@(\w+)\.\w+", t) -> (usr, dom).
//!     "#)
//!     .unwrap();
//!
//! let out = session.export("?R(usr, \"gmail\")").unwrap();
//! assert_eq!(out.num_rows(), 1);
//! ```
//!
//! The sub-crates are re-exported here so downstream users depend on a
//! single crate:
//!
//! | module | contents |
//! |---|---|
//! | [`core`] | spans, documents, values, relations |
//! | [`cache`] | doc-store lifecycle (GC); `CacheStats`, which reads zero |
//! | [`regex`] | the regex-formula (document spanner) engine |
//! | [`dataframe`] | the columnar host-side table type |
//! | [`parser`] | Spannerlog lexer/parser/AST |
//! | [`engine`] | safety, evaluation, builtins, [`Session`] |
//! | [`nlp`] | rule-based NLP substrate (tokenizer … ConText) |
//! | [`llm`] | deterministic LLM mock, TF-IDF RAG, few-shot store |
//! | [`codeast`] | minilang parser + AST pattern matcher |
//! | [`covid`] | the §4.2 case study, both implementations |
//! | [`trace`] | structured tracing, metrics, per-rule profiling |
//! | [`serve`] | `spannerd`: the HTTP serving front end |

pub use spannerlib_cache as cache;
pub use spannerlib_codeast as codeast;
pub use spannerlib_core as core;
pub use spannerlib_covid as covid;
pub use spannerlib_dataframe as dataframe;
pub use spannerlib_llm as llm;
pub use spannerlib_nlp as nlp;
pub use spannerlib_regex as regex;
pub use spannerlib_serve as serve;
pub use spannerlib_trace as trace;
pub use spannerlog_engine as engine;
pub use spannerlog_parser as parser;

pub use spannerlib_core::{DocId, DocumentStore, Relation, Schema, Span, Tuple, Value, ValueType};
pub use spannerlib_dataframe::DataFrame;
pub use spannerlog_engine::{
    CacheStats, DocGc, EvalProfile, EvalStats, PreparedProgram, PreparedQuery, Session,
    SessionBuilder, Snapshot, TraceLevel,
};

/// Everything a typical embedding needs, in one import.
pub mod prelude {
    pub use crate::core::{DocumentStore, Relation, Schema, Span, Tuple, Value, ValueType};
    pub use crate::dataframe::{DataFrame, FromRow, FromValue, IntoRow, IntoRows, IntoValue};
    pub use crate::engine::{
        CacheStats, DocGc, EngineError, EvalMode, EvalProfile, EvalStats, IeFunction,
        PreparedProgram, PreparedQuery, Session, SessionBuilder, Snapshot, TraceLevel,
    };
}
