//! The content-addressed IE memo table.
//!
//! IE functions are stateless mappings from an input tuple to a relation
//! of output rows, so `(function name, argument values, output arity)`
//! fully determines the result — document texts are immutable once
//! interned, and compaction never reuses a `DocId`, so a span argument
//! names the same content for as long as its document lives. The memo
//! therefore caches outputs across fixpoint reruns *and* across
//! `PreparedQuery` executions, trading a byte budget for the dominant
//! cost of warm-path serving: re-running extraction over documents the
//! session has already seen.
//!
//! An entry keeps no document alive. Relations are the only roots of
//! the document store; when a compaction pass drops a document, the
//! engine calls [`IeMemo::retain_docs`] and every entry whose key or
//! output names it dies with it.
//!
//! The table lives under a configurable byte budget, charged for keys
//! and outputs; an insert that would overflow it empties the table and
//! starts over, as `regex::dfa::Cache` does with its states. It keeps no
//! recency order: an evaluation re-scans every live document in the
//! same order, so one would drop first what the next round asks for
//! first. Sizes are estimated (string payloads, enum footprints and a
//! fixed per-entry overhead): a stable bound, not allocator accounting.

use crate::stats::CacheStats;
use parking_lot::Mutex;
use rustc_hash::{FxHashMap, FxHashSet, FxHasher};
use spannerlib_core::{DocId, Value};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Cached output rows, shaped exactly like the engine's `IeOutput`.
pub type MemoOutput = Vec<Vec<Value>>;

/// The memo handle shared between a session, its evaluation runs, and
/// its snapshots.
pub type SharedIeMemo = Arc<Mutex<IeMemo>>;

/// The content address of one IE invocation.
///
/// The hash of the contents is computed once, at construction: a key
/// carries whole document texts, and the table hashes it on `get`, on
/// `insert` and again every time the map grows. Fields are private so
/// the stored hash cannot go stale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoKey {
    /// Hash of the three fields below; compared first, so unequal keys
    /// rarely reach the text comparison.
    hash: u64,
    /// Registered function name.
    function: Arc<str>,
    /// Concrete argument values of the call.
    args: Vec<Value>,
    /// Output arity expected by the calling IE atom (functions like
    /// `rgx` validate and shape output against it).
    n_outputs: usize,
}

impl Hash for MemoKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl MemoKey {
    /// Builds a key from a call site.
    pub fn new(function: &str, args: &[Value], n_outputs: usize) -> MemoKey {
        let mut hasher = FxHasher::default();
        (function, args, n_outputs).hash(&mut hasher);
        MemoKey {
            hash: hasher.finish(),
            function: Arc::from(function),
            args: args.to_vec(),
            n_outputs,
        }
    }
}

/// Approximate resident size of one value: enum footprint plus owned
/// string payload (spans, ints, bools, floats carry no heap payload).
fn value_bytes(v: &Value) -> usize {
    std::mem::size_of::<Value>()
        + match v {
            Value::Str(s) => s.len(),
            _ => 0,
        }
}

/// Fixed per-entry overhead charged on top of key/output payloads
/// (hash-map slot, key and row vectors, the output's `Arc` header).
const ENTRY_OVERHEAD: usize = 128;

/// What one entry is charged against the budget.
fn entry_bytes(key: &MemoKey, output: &MemoOutput) -> usize {
    let values = key.args.iter().chain(output.iter().flatten());
    ENTRY_OVERHEAD + key.function.len() + values.map(value_bytes).sum::<usize>()
}

struct MemoEntry {
    output: Arc<MemoOutput>,
    bytes: usize,
}

/// A byte-budgeted memo table for IE call results.
///
/// Lookups return shared `Arc` handles so hits never deep-copy output
/// rows. The table is single-threaded by itself; wrap it in
/// [`SharedIeMemo`] for the session/snapshot sharing pattern.
pub struct IeMemo {
    entries: FxHashMap<MemoKey, MemoEntry>,
    /// Sum of `MemoEntry::bytes` over `entries`; never above `budget`.
    bytes: usize,
    budget: usize,
    stats: CacheStats,
}

impl IeMemo {
    /// An empty memo with the given byte budget. A budget of zero
    /// caches nothing (every insert is rejected as oversized), but
    /// callers normally gate the whole cache off instead.
    pub fn new(budget_bytes: usize) -> IeMemo {
        IeMemo {
            entries: FxHashMap::default(),
            bytes: 0,
            budget: budget_bytes,
            stats: CacheStats::default(),
        }
    }

    /// The configured byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Approximate bytes currently resident.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the memo holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime counters, with `entries`/`bytes` reflecting the current
    /// residency.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.entries.len(),
            bytes: self.bytes,
            ..self.stats
        }
    }

    /// Looks up a call, counting a hit or miss.
    pub fn get(&mut self, key: &MemoKey) -> Option<Arc<MemoOutput>> {
        let hit = self.entries.get(key).map(|entry| entry.output.clone());
        self.stats.hits += u64::from(hit.is_some());
        self.stats.misses += u64::from(hit.is_none());
        hit
    }

    /// Stores a call result. An entry larger than the whole budget is
    /// rejected (counted in [`CacheStats::oversized`]); one that would
    /// carry the table past the budget empties the table first (every
    /// entry dropped that way is counted in [`CacheStats::evictions`]);
    /// re-inserting an existing key replaces it.
    pub fn insert(&mut self, key: MemoKey, output: Arc<MemoOutput>) {
        let bytes = entry_bytes(&key, &output);
        if bytes > self.budget {
            self.stats.oversized += 1;
            return;
        }
        if let Some(old) = self.entries.remove(&key) {
            self.bytes -= old.bytes;
        }
        if self.bytes + bytes > self.budget {
            self.stats.evictions += self.entries.len() as u64;
            self.clear();
        }
        self.bytes += bytes;
        self.entries.insert(key, MemoEntry { output, bytes });
        self.stats.insertions += 1;
    }

    /// Drops every entry (keeps lifetime counters).
    fn clear(&mut self) {
        self.entries.clear();
        self.bytes = 0;
    }

    /// Drops the entries `dead` picks, returning how many were removed.
    fn purge(&mut self, dead: impl Fn(&MemoKey, &MemoOutput) -> bool) -> usize {
        let before = self.entries.len();
        self.entries.retain(|key, entry| !dead(key, &entry.output));
        self.bytes = self.entries.values().map(|entry| entry.bytes).sum();
        before - self.entries.len()
    }

    /// Drops every entry cached under `function`, returning how many
    /// were removed. Called by the engine when a function is
    /// (re-)registered: a new body invalidates all addresses under that
    /// name, while entries of unrelated functions stay warm.
    pub fn purge_function(&mut self, function: &str) -> usize {
        self.purge(|key, _| key.function.as_ref() == function)
    }

    /// Drops every entry that names a document outside `live` — by a
    /// span argument of its key or a span in its output rows —
    /// returning how many were removed. Called by the engine after a
    /// compaction pass, so that no entry outlives a document: a dead
    /// `DocId` is never handed out again, and equal text interned anew
    /// gets a fresh one.
    pub fn retain_docs(&mut self, live: &FxHashSet<DocId>) -> usize {
        let dead = |v: &Value| matches!(v, Value::Span(s) if !live.contains(&s.doc));
        self.purge(|key, output| key.args.iter().chain(output.iter().flatten()).any(dead))
    }
}

// The memo crosses threads behind `SharedIeMemo` (`Arc<Mutex<..>>`),
// and parallel evaluation probes it from pool workers. Keep that
// contract checked at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<IeMemo>();
    assert_send_sync::<SharedIeMemo>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use spannerlib_core::Span;

    fn key(name: &str, n: i64) -> MemoKey {
        MemoKey::new(name, &[Value::Int(n)], 1)
    }

    fn rows(n: i64) -> Arc<MemoOutput> {
        Arc::new(vec![vec![Value::Int(n)]])
    }

    #[test]
    fn hit_returns_shared_output_and_counts() {
        let mut memo = IeMemo::new(1 << 20);
        assert!(memo.get(&key("f", 1)).is_none());
        memo.insert(key("f", 1), rows(10));
        let hit = memo.get(&key("f", 1)).expect("hit");
        assert_eq!(*hit, vec![vec![Value::Int(10)]]);
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes > 0);
    }

    #[test]
    fn stored_hash_addresses_the_key_and_contents_decide_equality() {
        let text = "a document text ".repeat(128);
        let a = MemoKey::new("rgx", &[Value::str("p"), Value::str(text.as_str())], 1);
        let b = MemoKey::new("rgx", &[Value::str("p"), Value::str(text.as_str())], 1);
        assert_eq!(a, b);
        assert_eq!(a.hash, b.hash);
        let mut memo = IeMemo::new(1 << 20);
        memo.insert(a.clone(), rows(1));
        assert!(memo.get(&b).is_some());
        // Two keys that collide on the hash are still two addresses.
        let mut forged = MemoKey::new("rgx", &[Value::str("p"), Value::str("other")], 1);
        forged.hash = a.hash;
        assert_ne!(a, forged);
        assert!(memo.get(&forged).is_none());
    }

    #[test]
    fn distinct_arities_are_distinct_addresses() {
        let mut memo = IeMemo::new(1 << 20);
        memo.insert(MemoKey::new("f", &[Value::Int(1)], 1), rows(1));
        assert!(memo.get(&MemoKey::new("f", &[Value::Int(1)], 2)).is_none());
    }

    #[test]
    fn overflow_empties_the_table_and_keeps_the_bound() {
        // Budget fits exactly two of these entries.
        let one = entry_bytes(&key("f", 1), &rows(0));
        let mut memo = IeMemo::new(2 * one);
        memo.insert(key("f", 1), rows(1));
        memo.insert(key("f", 2), rows(2));
        // Replacing a resident key is not an overflow.
        memo.insert(key("f", 2), rows(20));
        assert_eq!((memo.len(), memo.bytes()), (2, 2 * one));
        assert_eq!(memo.stats().evictions, 0);
        // A third entry is: both residents go, the newcomer stays.
        memo.insert(key("f", 3), rows(3));
        assert_eq!((memo.len(), memo.bytes()), (1, one));
        assert!(memo.get(&key("f", 1)).is_none());
        assert!(memo.get(&key("f", 2)).is_none());
        assert!(memo.get(&key("f", 3)).is_some());
        assert_eq!(memo.stats().evictions, 2);
        assert!(memo.bytes() <= memo.budget());
    }

    #[test]
    fn oversized_entries_are_rejected_not_thrashed() {
        let mut memo = IeMemo::new(ENTRY_OVERHEAD + 8);
        let big = Arc::new(vec![vec![Value::str("x".repeat(1024))]]);
        memo.insert(key("f", 1), big);
        assert!(memo.is_empty());
        assert_eq!(memo.stats().oversized, 1);
        assert_eq!(memo.stats().evictions, 0);
    }

    #[test]
    fn reinsert_replaces_without_leaking_bytes() {
        let mut memo = IeMemo::new(1 << 20);
        memo.insert(key("f", 1), rows(1));
        let bytes_once = memo.bytes();
        memo.insert(key("f", 1), rows(2));
        assert_eq!(memo.len(), 1);
        assert_eq!(memo.bytes(), bytes_once);
        assert_eq!(*memo.get(&key("f", 1)).unwrap(), vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn clear_keeps_lifetime_counters() {
        let mut memo = IeMemo::new(1 << 20);
        memo.insert(key("f", 1), rows(1));
        memo.get(&key("f", 1));
        memo.clear();
        assert!(memo.is_empty());
        assert_eq!(memo.bytes(), 0);
        let stats = memo.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.entries, 0);
    }

    #[test]
    fn entries_die_with_the_documents_they_name() {
        let mut memo = IeMemo::new(1 << 20);
        let span = |doc: u32| Value::Span(Span::new(DocId::from_index(doc), 0, 1));
        let out = |v: Value| Arc::new(vec![vec![Value::Int(0)], vec![v]]);
        memo.insert(MemoKey::new("by_key", &[span(1)], 1), rows(1));
        memo.insert(key("by_output", 2), out(span(2)));
        memo.insert(MemoKey::new("both_live", &[span(3)], 1), out(span(4)));
        memo.insert(MemoKey::new("text", &[Value::str("t")], 1), rows(5));
        let bytes_before = memo.bytes();
        let live: FxHashSet<DocId> = [3, 4].into_iter().map(DocId::from_index).collect();
        assert_eq!(memo.retain_docs(&live), 2);
        assert!(memo.get(&MemoKey::new("by_key", &[span(1)], 1)).is_none());
        assert!(memo.get(&key("by_output", 2)).is_none());
        assert!(memo
            .get(&MemoKey::new("both_live", &[span(3)], 1))
            .is_some());
        assert!(memo
            .get(&MemoKey::new("text", &[Value::str("t")], 1))
            .is_some());
        assert_eq!(memo.len(), 2);
        assert!(memo.bytes() < bytes_before);
        assert_eq!(memo.retain_docs(&live), 0);
    }

    #[test]
    fn purge_function_is_name_scoped() {
        let mut memo = IeMemo::new(1 << 20);
        memo.insert(key("f", 1), rows(1));
        memo.insert(key("f", 2), rows(2));
        memo.insert(key("g", 1), rows(3));
        let bytes_before = memo.bytes();
        assert_eq!(memo.purge_function("f"), 2);
        assert_eq!(memo.len(), 1);
        assert!(memo.bytes() < bytes_before);
        assert!(memo.get(&key("g", 1)).is_some(), "g stays warm");
        assert!(memo.get(&key("f", 1)).is_none());
        assert_eq!(memo.purge_function("absent"), 0);
    }

    /// Model-based check of the byte bound: random operation sequences
    /// against a plain map that applies the same policy by hand, at
    /// budgets from one entry to more than the key space needs.
    #[test]
    fn random_operation_sequences_agree_with_a_model_and_keep_the_bound() {
        // An LCG's high bits: the crate has no RNG dependency and needs none.
        fn next(state: &mut u64) -> u64 {
            *state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            *state >> 24
        }
        let doc_id = |doc: u64| DocId::from_index(doc as u32);
        let span = |doc: u64| Value::Span(Span::new(doc_id(doc), 0, 1));
        // 2 functions x 6 documents in the key, one of 6 documents and
        // a text of some length in the output.
        let call = |r: u64| {
            let docs = [r / 2 % 6, r / 12 % 6];
            let key = MemoKey::new(["f", "g"][(r % 2) as usize], &[span(docs[0])], 1);
            let text = Value::str("x".repeat((r / 72 % 40) as usize));
            (key, vec![vec![span(docs[1]), text]], docs)
        };
        // The largest entry: every budget below admits every call.
        let one = entry_bytes(&call(72 * 39).0, &call(72 * 39).1);
        let mut overflows = 0;
        for case in 0..200u64 {
            let mut rng = case;
            let mut memo = IeMemo::new(one + (next(&mut rng) % 30) as usize * one / 2);
            // key -> (output, bytes, documents named)
            let mut model: FxHashMap<MemoKey, (MemoOutput, usize, [u64; 2])> = FxHashMap::default();
            let mut evictions = 0;
            for _ in 0..120 {
                let r = next(&mut rng);
                let (key, output, docs) = call(r / 8);
                let (bytes, len) = (entry_bytes(&key, &output), model.len());
                match r % 8 {
                    0..=3 => {
                        memo.insert(key.clone(), Arc::new(output.clone()));
                        model.remove(&key);
                        if model.values().map(|e| e.1).sum::<usize>() + bytes > memo.budget() {
                            evictions += model.drain().count() as u64;
                        }
                        assert_eq!(memo.get(&key).as_deref(), Some(&output), "case {case}");
                        model.insert(key, (output, bytes, docs));
                    }
                    4 | 5 => {
                        let hit = memo.get(&key);
                        assert_eq!(hit.as_deref(), model.get(&key).map(|e| &e.0), "case {case}");
                    }
                    6 => {
                        let live = |doc: &u64| r >> (8 + doc) & 1 == 1;
                        model.retain(|_, e| e.2.iter().all(live));
                        let live = (0..6).filter(live).map(doc_id).collect();
                        assert_eq!(memo.retain_docs(&live), len - model.len(), "case {case}");
                    }
                    _ => {
                        model.retain(|k, _| k.function != key.function);
                        let purged = memo.purge_function(&key.function);
                        assert_eq!(purged, len - model.len(), "case {case}");
                    }
                }
                let sum: usize = memo.entries.values().map(|e| e.bytes).sum();
                let modelled: usize = model.values().map(|e| e.1).sum();
                let stats = memo.stats();
                assert!(sum <= memo.budget(), "case {case}");
                assert_eq!((sum, memo.len()), (modelled, model.len()), "case {case}");
                assert_eq!((memo.bytes(), stats.bytes), (sum, sum), "case {case}");
                assert_eq!(stats.entries, memo.len(), "case {case}");
                assert_eq!((stats.evictions, stats.oversized), (evictions, 0));
            }
            overflows += evictions;
        }
        assert!(overflows > 0, "no budget was small enough to overflow");
    }
}
