//! # spannerlib-cache
//!
//! The document-store lifecycle policy of long-lived serving sessions.
//!
//! The engine's `DocumentStore` interns every text an IE function
//! touches and never forgets it. The [`lifecycle`] module supplies the
//! policy ([`DocGc`]) by which the engine compacts the store epoch-wise:
//! documents no relation references are tombstoned, their text freed.
//!
//! There is no IE memo here: the engine plans a call two rules share as
//! a derived relation (its `share` module). [`CacheStats`], which counted
//! the memo's traffic, stays for its readers and reads zero.
//!
//! This crate is engine-agnostic: it depends only on the core value
//! model, and the engine crate wires it into the session builder and
//! snapshots.

pub mod lifecycle;
pub mod stats;

pub use lifecycle::{DocGc, DOC_GC_WATERMARK_BYTES};
pub use stats::CacheStats;
