//! Interned document storage.
//!
//! Spans must reference their document (the ⟨**d**, i, j⟩ of the paper), but
//! carrying an owned string in every span would make tuples heavyweight.
//! The [`DocumentStore`] interns each distinct document text once and hands
//! out copyable [`DocId`]s; spans then stay three machine words.
//!
//! Interning is content-based: importing the same text twice yields the
//! same id, so spans created independently over equal texts compare equal —
//! exactly the set semantics Spannerlog relations need.

use crate::error::CoreError;
use crate::span::Span;
use crate::value::Str;
use rustc_hash::FxHashMap;
use std::sync::Arc;

/// Identifier of an interned document inside one [`DocumentStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DocId(u32);

impl DocId {
    /// Builds a `DocId` from a raw index. Only meaningful together with the
    /// store that produced the index; exposed for tests and serialization.
    pub fn from_index(index: u32) -> Self {
        DocId(index)
    }

    /// The raw index of this id inside its store.
    pub fn index(&self) -> u32 {
        self.0
    }
}

/// Summary of one [`DocumentStore::compact`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Epoch the store entered when this pass finished.
    pub epoch: u64,
    /// Documents tombstoned by this pass.
    pub removed_docs: usize,
    /// Documents still live after this pass.
    pub kept_docs: usize,
    /// Text bytes released by this pass.
    pub reclaimed_bytes: usize,
    /// Text bytes still resident after this pass.
    pub live_bytes: usize,
}

/// An interning store of document texts.
///
/// The store is append-only between compactions: interning never moves or
/// reuses an id, so `DocId`s held by spans stay valid. Long-lived sessions
/// can reclaim memory with [`DocumentStore::compact`], which *tombstones*
/// documents no longer referenced: the slot's text is dropped (and its
/// content-hash entry removed, so re-interning equal text mints a fresh
/// id) but the slot itself is never reused — a stale id resolves to a loud
/// [`CoreError::UnknownDoc`] instead of silently aliasing new content.
/// Each pass bumps the store's **epoch**, which cache layers use to scope
/// the validity of derived artifacts.
///
/// Texts are held behind [`Arc<str>`] so resolving is cheap and resolved
/// texts can outlive a borrow of the store.
#[derive(Debug, Default, Clone)]
pub struct DocumentStore {
    /// `None` = tombstoned by a compaction pass.
    texts: Vec<Option<Arc<str>>>,
    /// Live documents by content, hashed by the hash each [`Str`] carries.
    by_content: FxHashMap<Str, DocId>,
    /// Text bytes of live (non-tombstoned) documents.
    live_bytes: usize,
    /// Number of compaction passes this store has gone through.
    epoch: u64,
}

impl DocumentStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live (non-tombstoned) documents.
    pub fn len(&self) -> usize {
        self.by_content.len()
    }

    /// Whether the store holds no live documents.
    pub fn is_empty(&self) -> bool {
        self.by_content.is_empty()
    }

    /// Total text bytes of live documents — the dominant memory cost of
    /// the store (slot and hash-map overhead is a few machine words per
    /// document).
    pub fn bytes(&self) -> usize {
        self.live_bytes
    }

    /// Number of compaction passes this store has gone through. Bumped by
    /// every [`DocumentStore::compact`] call.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Total slots ever allocated, including tombstones (monotone; equals
    /// the next fresh id's index).
    pub fn slots(&self) -> usize {
        self.texts.len()
    }

    /// Interns `text`, returning its id. Repeated calls with equal content
    /// return the same id without storing a second copy.
    pub fn intern(&mut self, text: &str) -> DocId {
        self.intern_str(&Str::new(text))
    }

    /// Interns an already-shared text without copying when it is new.
    pub fn intern_arc(&mut self, text: Arc<str>) -> DocId {
        self.intern_str(&Str::new(text))
    }

    /// Interns a string by the hash it carries, sharing its text when it
    /// is new; a later call with the same string compares one pointer.
    pub fn intern_str(&mut self, text: &Str) -> DocId {
        if let Some(id) = self.lookup_str(text) {
            return id;
        }
        let id = DocId(self.texts.len() as u32);
        self.live_bytes += text.len();
        self.texts.push(Some(text.as_arc().clone()));
        self.by_content.insert(text.clone(), id);
        id
    }

    /// Looks up the id of `text` without interning it.
    pub fn lookup(&self, text: &str) -> Option<DocId> {
        self.lookup_str(&Str::new(text))
    }

    /// Looks up the id of a string by the hash it carries.
    pub fn lookup_str(&self, text: &Str) -> Option<DocId> {
        self.by_content.get(text).copied()
    }

    /// Resolves an id to its text. Unknown *and tombstoned* ids are
    /// errors — a compacted document is gone, not aliased.
    pub fn resolve(&self, id: DocId) -> Result<&Arc<str>, CoreError> {
        self.texts
            .get(id.0 as usize)
            .and_then(Option::as_ref)
            .ok_or(CoreError::UnknownDoc(id.0))
    }

    /// Resolves an id to its text, panicking on an unknown or tombstoned
    /// id.
    ///
    /// Ids are only minted by this store's `intern*` methods and
    /// compaction only tombstones unreferenced documents, so inside one
    /// engine instance the panic is unreachable; use [`Self::resolve`]
    /// when handling ids of untrusted provenance.
    pub fn text(&self, id: DocId) -> &str {
        self.texts[id.0 as usize]
            .as_deref()
            .expect("document was tombstoned by compaction")
    }

    /// Tombstones every document for which `live` returns `false`,
    /// dropping its text and freeing its content-hash entry, and bumps
    /// the store's epoch. Ids of surviving documents are unchanged; ids
    /// of removed documents become permanently invalid (resolving them
    /// errors — slots are never reused).
    ///
    /// The caller is responsible for passing a `live` predicate that
    /// covers *every* id still reachable from its data structures (the
    /// engine marks the spans of all relations).
    pub fn compact(&mut self, live: impl Fn(DocId) -> bool) -> CompactionReport {
        let mut removed_docs = 0;
        let mut reclaimed_bytes = 0;
        for (i, slot) in self.texts.iter_mut().enumerate() {
            let id = DocId(i as u32);
            if let Some(text) = slot {
                if !live(id) {
                    removed_docs += 1;
                    reclaimed_bytes += text.len();
                    *slot = None;
                }
            }
        }
        let texts = &self.texts;
        self.by_content
            .retain(|_, id| texts[id.0 as usize].is_some());
        self.live_bytes -= reclaimed_bytes;
        self.epoch += 1;
        CompactionReport {
            epoch: self.epoch,
            removed_docs,
            kept_docs: self.by_content.len(),
            reclaimed_bytes,
            live_bytes: self.live_bytes,
        }
    }

    /// Creates a *checked* span over document `id`: offsets must be in
    /// bounds and on UTF-8 character boundaries.
    pub fn span(&self, id: DocId, start: usize, end: usize) -> Result<Span, CoreError> {
        let text = self.resolve(id)?;
        let invalid = CoreError::InvalidSpan {
            start,
            end,
            doc_len: text.len(),
        };
        if start > end || end > text.len() {
            return Err(invalid);
        }
        if !text.is_char_boundary(start) || !text.is_char_boundary(end) {
            return Err(invalid);
        }
        Ok(Span::new(id, start, end))
    }

    /// Resolves a span to its substring.
    pub fn span_text(&self, span: &Span) -> Result<&str, CoreError> {
        let text = self.resolve(span.doc)?;
        let (start, end) = (span.start_usize(), span.end_usize());
        if end > text.len() || !text.is_char_boundary(start) || !text.is_char_boundary(end) {
            return Err(CoreError::InvalidSpan {
                start,
                end,
                doc_len: text.len(),
            });
        }
        Ok(&text[start..end])
    }

    /// Iterates over live `(id, text)` pairs in interning order
    /// (tombstoned slots are skipped).
    pub fn iter(&self) -> impl Iterator<Item = (DocId, &Arc<str>)> {
        self.texts
            .iter()
            .enumerate()
            .filter_map(|(i, t)| Some((DocId(i as u32), t.as_ref()?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_deduplicates() {
        let mut store = DocumentStore::new();
        let a = store.intern("hello");
        let b = store.intern("world");
        let c = store.intern("hello");
        assert_eq!(a, c);
        assert_ne!(a, b);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let mut store = DocumentStore::new();
        let id = store.intern("some text");
        assert_eq!(store.text(id), "some text");
        assert_eq!(store.resolve(id).unwrap().as_ref(), "some text");
    }

    #[test]
    fn unknown_doc_is_an_error() {
        let store = DocumentStore::new();
        assert_eq!(
            store.resolve(DocId::from_index(7)).unwrap_err(),
            CoreError::UnknownDoc(7)
        );
    }

    #[test]
    fn checked_span_rejects_out_of_bounds() {
        let mut store = DocumentStore::new();
        let id = store.intern("abc");
        assert!(store.span(id, 0, 3).is_ok());
        assert!(store.span(id, 0, 4).is_err());
        assert!(store.span(id, 2, 1).is_err());
    }

    #[test]
    fn checked_span_rejects_non_char_boundaries() {
        let mut store = DocumentStore::new();
        let id = store.intern("héllo"); // 'é' is two bytes: offsets 1..3
        assert!(store.span(id, 1, 3).is_ok());
        assert!(store.span(id, 1, 2).is_err());
        assert!(store.span(id, 2, 3).is_err());
    }

    #[test]
    fn span_text_resolves_substring() {
        let mut store = DocumentStore::new();
        let id = store.intern("acb aacccbbb");
        let span = store.span(id, 4, 6).unwrap();
        assert_eq!(store.span_text(&span).unwrap(), "aa");
    }

    #[test]
    fn intern_arc_shares_existing_entry() {
        let mut store = DocumentStore::new();
        let a = store.intern("shared");
        let b = store.intern_arc(Arc::from("shared"));
        assert_eq!(a, b);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn iter_yields_in_order() {
        let mut store = DocumentStore::new();
        store.intern("x");
        store.intern("y");
        let collected: Vec<_> = store
            .iter()
            .map(|(id, t)| (id.index(), t.to_string()))
            .collect();
        assert_eq!(collected, vec![(0, "x".to_string()), (1, "y".to_string())]);
    }

    #[test]
    fn lookup_without_interning() {
        let mut store = DocumentStore::new();
        assert_eq!(store.lookup("a"), None);
        let id = store.intern("a");
        assert_eq!(store.lookup("a"), Some(id));
    }

    #[test]
    fn bytes_track_live_text() {
        let mut store = DocumentStore::new();
        assert_eq!(store.bytes(), 0);
        store.intern("12345");
        store.intern("678");
        // Duplicate interning does not double-count.
        store.intern("12345");
        assert_eq!(store.bytes(), 8);
    }

    #[test]
    fn compact_tombstones_dead_docs_and_bumps_epoch() {
        let mut store = DocumentStore::new();
        let keep = store.intern("keep me");
        let drop = store.intern("drop me");
        assert_eq!(store.epoch(), 0);

        let report = store.compact(|id| id == keep);
        assert_eq!(report.epoch, 1);
        assert_eq!(report.removed_docs, 1);
        assert_eq!(report.kept_docs, 1);
        assert_eq!(report.reclaimed_bytes, "drop me".len());
        assert_eq!(store.epoch(), 1);
        assert_eq!(store.len(), 1);
        assert_eq!(store.bytes(), "keep me".len());

        // Survivor resolves at its old id; the tombstone errors loudly.
        assert_eq!(store.text(keep), "keep me");
        assert_eq!(
            store.resolve(drop).unwrap_err(),
            CoreError::UnknownDoc(drop.index())
        );
        assert_eq!(store.lookup("drop me"), None);
    }

    #[test]
    fn reinterning_after_compaction_mints_a_fresh_id() {
        let mut store = DocumentStore::new();
        let old = store.intern("text");
        store.compact(|_| false);
        let new = store.intern("text");
        // The slot is never reused: old spans cannot alias new content.
        assert_ne!(old, new);
        assert_eq!(new.index() as usize, store.slots() - 1);
        assert!(store.resolve(old).is_err());
        assert_eq!(store.text(new), "text");
    }

    #[test]
    fn a_string_and_its_text_intern_to_one_id() {
        let mut store = DocumentStore::new();
        let shared = Str::new("shared text");
        let id = store.intern_str(&shared);
        assert_eq!(store.intern("shared text"), id);
        assert_eq!(store.intern_arc(Arc::from("shared text")), id);
        assert_eq!(store.lookup("shared text"), Some(id));
        assert_eq!(store.lookup_str(&Str::new("shared text")), Some(id));
        let other = store.intern("the other way");
        assert_eq!(store.intern_str(&Str::new("the other way")), other);
        assert_eq!((store.len(), store.slots()), (2, 2));
        // The store shares the string's text, not a copy.
        assert!(Arc::ptr_eq(store.resolve(id).unwrap(), shared.as_arc()));
        // After a compaction the survivor is still found.
        store.compact(|doc| doc == other);
        assert_eq!(store.lookup_str(&shared), None);
        assert_eq!(store.lookup_str(&Str::new("the other way")), Some(other));
    }

    #[test]
    fn iter_skips_tombstones() {
        let mut store = DocumentStore::new();
        store.intern("a");
        let b = store.intern("b");
        store.intern("c");
        store.compact(|id| id != b);
        let texts: Vec<String> = store.iter().map(|(_, t)| t.to_string()).collect();
        assert_eq!(texts, vec!["a".to_string(), "c".to_string()]);
    }
}
