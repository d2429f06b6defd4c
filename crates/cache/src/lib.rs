//! # spannerlib-cache
//!
//! Memoized IE evaluation and document-store lifecycle management for
//! long-lived serving sessions.
//!
//! SpannerLib's embedding pays off when repeated invocations over
//! overlapping documents do not re-pay the full spanner-evaluation cost
//! (the expensive part — see Maturana, Riveros & Vrgoč on the complexity
//! of evaluating document spanners). Two pressures build up in a session
//! that serves traffic for hours:
//!
//! 1. **Recomputation** — every fixpoint rerun re-invokes each IE
//!    function on each binding row, even though IE functions are
//!    *stateless* mappings from inputs to output relations. The
//!    [`IeMemo`] is a content-addressed memo over
//!    `(function, argument values, output arity)`, kept in one pair of
//!    row arenas per function and probed once per batch of calls, under
//!    a byte budget — a store that would overflow it empties the memo —
//!    with hit/miss/eviction counters ([`CacheStats`]).
//! 2. **Document accumulation** — the engine's `DocumentStore` interns
//!    every text an IE function touches and never forgets it. The
//!    [`lifecycle`] module supplies the policy ([`DocGc`]) by which the
//!    engine compacts the store epoch-wise: documents referenced by no
//!    relation are tombstoned, releasing their text.
//!
//! The two halves meet in one place: relations are the only roots of a
//! document, so after a compaction pass the memo drops every entry
//! that names a dropped document ([`IeMemo::retain_docs`]) — an entry
//! dies with its document instead of outliving it. What bounds memory
//! is the [`DocGc`] watermark plus the memo's byte budget over keys and
//! outputs.
//!
//! This crate is engine-agnostic: it depends only on the core value
//! model, and the engine crate wires it into evaluation, the session
//! builder, and snapshots.

pub mod lifecycle;
pub mod memo;
pub mod stats;

pub use lifecycle::{DocGc, DOC_GC_WATERMARK_BYTES};
pub use memo::{IeMemo, SharedIeMemo};
pub use stats::CacheStats;
