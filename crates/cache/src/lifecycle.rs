//! Document-store lifecycle: the GC policy.
//!
//! The engine's `DocumentStore` interns every text an IE function (or
//! the host) touches. `remove_relation` and re-imports drop the *spans*
//! but, without help, never the *texts* — a long-lived serving session
//! that streams distinct documents grows without bound. A compaction
//! pass closes the loop: the engine marks the document of every span in
//! a relation, extensional or derived — relations are the only roots —
//! and compacts the store against that set — the engine's relations of
//! shared IE calls among them. [`DocGc`] says *when* a
//! pass runs: never (the historical append-only behavior), or whenever
//! resident document bytes cross a threshold after an eviction-shaped
//! mutation (`remove_relation`, a replacing import).
//!
//! Compaction is epoch-wise: every pass bumps the store's epoch, ids of
//! survivors are stable, and ids of removed documents become permanent
//! tombstones (loud errors, never aliased).

/// The watermark this workspace's long-lived sessions (`spannerd`,
/// `SpannerPipeline`) run [`DocGc::Threshold`] at: a clinical corpus.
pub const DOC_GC_WATERMARK_BYTES: usize = 32 * 1024 * 1024;

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_policy_arms_above_watermark() {
        assert!(!DocGc::Disabled.should_compact(usize::MAX));
        let policy = DocGc::Threshold { bytes: 100 };
        assert!(!policy.should_compact(100));
        assert!(policy.should_compact(101));
    }
}
