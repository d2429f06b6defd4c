//! # spannerlib-cache
//!
//! The IE memo of one evaluation run — the table of its shared calls —
//! and the document-store lifecycle policy of long-lived serving
//! sessions.
//!
//! 1. **Asking twice** — IE functions are *stateless* mappings from
//!    inputs to output relations, and one evaluation often asks one
//!    question more than once: two rules over the same sentence, the
//!    rounds of a recursive component. The engine's planner marks those
//!    *shared calls* — a function, the constants at its inputs and its
//!    output arity, asked by two IE atoms or by one inside a recursion —
//!    and the [`IeMemo`] is their table: per call id, a content-addressed
//!    map from argument values to the output rows some atom of the call
//!    reads, kept in one pair of row arenas per call and probed once per
//!    batch of calls, with hit/miss counters ([`CacheStats`]). A call
//!    only one atom asks never reaches it. It lives for one run: every
//!    evaluation starts with an empty table, so nothing in it can go
//!    stale.
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
