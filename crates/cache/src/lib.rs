//! # spannerlib-cache
//!
//! The IE memo of one evaluation run, and the document-store lifecycle
//! policy of long-lived serving sessions.
//!
//! 1. **Asking twice** — IE functions are *stateless* mappings from
//!    inputs to output relations, and one evaluation often asks one
//!    question more than once: two rules over the same sentence, the
//!    rounds of a recursive component. The [`IeMemo`] is a
//!    content-addressed memo over `(function, argument values, output
//!    arity)`, kept in one pair of row arenas per function and probed
//!    once per batch of calls, with hit/miss counters ([`CacheStats`]).
//!    It lives for one run: every evaluation starts with an empty
//!    table, so nothing in it can go stale.
//! 2. **Document accumulation** — the engine's `DocumentStore` interns
//!    every text an IE function touches and never forgets it. The
//!    [`lifecycle`] module supplies the policy ([`DocGc`]) by which the
//!    engine compacts the store epoch-wise: documents referenced by no
//!    relation are tombstoned, releasing their text.
//!
//! This crate is engine-agnostic: it depends only on the core value
//! model, and the engine crate wires it into evaluation, the session
//! builder, and snapshots.

pub mod lifecycle;
pub mod memo;
pub mod stats;

pub use lifecycle::{DocGc, DOC_GC_WATERMARK_BYTES};
pub use memo::IeMemo;
pub use stats::CacheStats;
