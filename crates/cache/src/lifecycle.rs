//! Document-store lifecycle: GC policy and reference counting.
//!
//! The engine's `DocumentStore` interns every text an IE function (or
//! the host) touches. `remove_relation` and re-imports drop the *spans*
//! but, without help, never the *texts* — a long-lived serving session
//! that streams distinct documents grows without bound. The lifecycle
//! manager closes the loop:
//!
//! * [`DocRefCounts`] — a per-pass reference count over `DocId`s. The
//!   engine retains every span it can still observe (all relations,
//!   extensional and derived, plus resident IE-memo entries) and then
//!   compacts the store against the resulting live set.
//! * [`DocGc`] — *when* to run a pass: never (the historical
//!   append-only behavior), or whenever resident document bytes cross a
//!   threshold after an eviction-shaped mutation (`remove_relation`, a
//!   replacing import).
//!
//! Compaction is epoch-wise: every pass bumps the store's epoch, ids of
//! survivors are stable, and ids of removed documents become permanent
//! tombstones (loud errors, never aliased).

use rustc_hash::FxHashMap;
use spannerlib_core::{DocId, Value};

/// When the engine should compact the document store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DocGc {
    /// Never compact automatically (compaction can still be invoked
    /// explicitly). The default: zero overhead, append-only semantics.
    #[default]
    Disabled,
    /// Compact after an eviction-shaped mutation once live document
    /// text exceeds `bytes`.
    Threshold {
        /// Resident-byte watermark that arms a pass.
        bytes: usize,
    },
}

impl DocGc {
    /// Whether a store holding `current_bytes` of live text warrants a
    /// pass under this policy.
    pub fn should_compact(&self, current_bytes: usize) -> bool {
        match self {
            DocGc::Disabled => false,
            DocGc::Threshold { bytes } => current_bytes > *bytes,
        }
    }
}

/// Reference counts over document ids, rebuilt per compaction pass.
///
/// A mark-phase scratchpad rather than a persistently maintained
/// counter: set-semantics relations make incremental refcounting
/// error-prone (inserts deduplicate, clones share), while one sweep
/// over live tuples is exact by construction and linear in the data.
#[derive(Debug, Default)]
pub struct DocRefCounts {
    counts: FxHashMap<DocId, u32>,
}

impl DocRefCounts {
    /// An empty count table.
    pub fn new() -> DocRefCounts {
        DocRefCounts::default()
    }

    /// Adds one reference to `id`.
    pub fn retain(&mut self, id: DocId) {
        *self.counts.entry(id).or_insert(0) += 1;
    }

    /// Adds a reference for the document behind `v`, if it holds one
    /// (only spans reference documents; strings own their text).
    pub fn retain_value(&mut self, v: &Value) {
        if let Value::Span(span) = v {
            self.retain(span.doc);
        }
    }

    /// Retains every document referenced by a tuple.
    pub fn retain_tuple(&mut self, tuple: &[Value]) {
        for v in tuple {
            self.retain_value(v);
        }
    }

    /// Number of references recorded for `id`.
    pub fn count(&self, id: DocId) -> u32 {
        self.counts.get(&id).copied().unwrap_or(0)
    }

    /// Whether `id` is referenced at all — the liveness predicate
    /// handed to `DocumentStore::compact`.
    pub fn is_live(&self, id: DocId) -> bool {
        self.counts.contains_key(&id)
    }

    /// Number of distinct live documents.
    pub fn live_docs(&self) -> usize {
        self.counts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spannerlib_core::{Span, Tuple};

    #[test]
    fn threshold_policy_arms_above_watermark() {
        assert!(!DocGc::Disabled.should_compact(usize::MAX));
        let policy = DocGc::Threshold { bytes: 100 };
        assert!(!policy.should_compact(100));
        assert!(policy.should_compact(101));
    }

    #[test]
    fn refcounts_track_spans_only() {
        let mut refs = DocRefCounts::new();
        let doc = DocId::from_index(3);
        let tuple = Tuple::new([
            Value::str("owned text references no document"),
            Value::Span(Span::new(doc, 0, 4)),
            Value::Span(Span::new(doc, 5, 9)),
            Value::Int(42),
        ]);
        refs.retain_tuple(tuple.values());
        assert_eq!(refs.count(doc), 2);
        assert!(refs.is_live(doc));
        assert!(!refs.is_live(DocId::from_index(0)));
        assert_eq!(refs.live_docs(), 1);
    }
}
