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
//! Entries live in arenas, one table per `(function, argument count,
//! output arity)`: the argument vectors of a table are the rows of one
//! [`Rows`] with a [`RowTable`] over them, the output rows of all its
//! entries sit back to back in a second `Rows`, and an entry is a range
//! of that store's row ids — the shape relations have. Nothing is
//! allocated per entry, a key owns nothing (a probe hands over borrowed
//! cells), and a table drops as a handful of vectors.
//!
//! An entry keeps no document alive. Relations are the only roots of
//! the document store; when a compaction pass drops a document, the
//! engine calls [`IeMemo::retain_docs`] and every entry whose key or
//! output names it dies with it.
//!
//! The memo lives under a configurable byte budget, charged for keys
//! and outputs; a store that would overflow it empties every table and
//! starts over, as `regex::dfa::Cache` does with its states. It keeps no
//! recency order: an evaluation re-scans every live document in the
//! same order, so one would drop first what the next round asks for
//! first. Sizes are estimated (string payloads, enum footprints and a
//! fixed per-entry share of the index): a stable bound, not allocator
//! accounting.

use crate::stats::CacheStats;
use parking_lot::Mutex;
use rustc_hash::FxHashSet;
use spannerlib_core::{hash_cells, DocId, RowTable, Rows, Value};
use std::ops::Range;
use std::sync::Arc;

/// The memo handle shared between a session, its evaluation runs, and
/// its snapshots. An evaluation takes the lock twice per batch of IE
/// calls — once to look every distinct argument vector up, once to
/// store what the misses returned — never once per call, and never
/// across a call.
pub type SharedIeMemo = Arc<Mutex<IeMemo>>;

/// Charged per entry on top of its cells: its range of output rows and
/// its slot in the half-full index.
const ENTRY_BYTES: usize = std::mem::size_of::<Range<u32>>() + 2 * std::mem::size_of::<u64>();

/// What an entry of these cells — its arguments and its output rows —
/// is charged against the budget: per cell the enum footprint plus the
/// payload of a string (spans, ints, bools, floats own no heap).
fn entry_bytes<'a>(cells: impl Iterator<Item = &'a Value>) -> usize {
    let cell = |v: &Value| std::mem::size_of::<Value>() + v.as_str().map_or(0, str::len);
    ENTRY_BYTES + cells.map(cell).sum::<usize>()
}

/// The entries of one `(function, argument count, output arity)`.
struct Table {
    function: String,
    /// One row per entry: its argument vector. Row id = entry id.
    args: Rows,
    /// The entry ids, under [`hash_cells`] of their argument vectors.
    index: RowTable,
    /// The output rows of every entry, back to back.
    outputs: Rows,
    /// Per entry: its rows of `outputs`.
    spans: Vec<Range<u32>>,
}

impl Table {
    fn new(function: &str, n_args: usize, n_outputs: usize) -> Table {
        Table {
            function: function.to_string(),
            args: Rows::new(n_args),
            index: RowTable::default(),
            outputs: Rows::new(n_outputs),
            spans: Vec::new(),
        }
    }

    fn is(&self, function: &str, n_args: usize, n_outputs: usize) -> bool {
        (self.args.width(), self.outputs.width()) == (n_args, n_outputs)
            && self.function == function
    }

    /// The entry whose argument vector is `args`, hashing to `hash`.
    fn find<'a>(&self, hash: u64, args: impl Iterator<Item = &'a Value> + Clone) -> Option<usize> {
        self.index
            .find(hash, |id| self.args.row(id).iter().eq(args.clone()))
    }

    /// The output rows of entry `id`.
    fn output(&self, id: usize) -> impl ExactSizeIterator<Item = &[Value]> + Clone {
        let span = &self.spans[id];
        self.outputs.range(span.start as usize..span.end as usize)
    }

    /// The cells entry `id` is charged for.
    fn cells(&self, id: usize) -> impl Iterator<Item = &Value> {
        self.args.row(id).iter().chain(self.output(id).flatten())
    }

    /// Adds an entry for an argument vector the table does not hold.
    fn push<'a>(
        &mut self,
        hash: u64,
        args: impl Iterator<Item = &'a Value>,
        output: impl Iterator<Item = &'a [Value]>,
    ) {
        let row_id = |rows: &Rows| u32::try_from(rows.len()).expect("table rows fit 32 bits");
        let start = row_id(&self.outputs);
        output.for_each(|row| self.outputs.push(row));
        self.spans.push(start..row_id(&self.outputs));
        self.index.find_or_insert(hash, self.args.len(), |_| false);
        self.args.push(args);
    }

    /// Rebuilds the table from the entries `keep(self, entry id)`
    /// accepts — unless that is all of them — and returns the bytes the
    /// others were charged.
    fn retain(&mut self, keep: impl Fn(&Table, usize) -> bool) -> usize {
        let entries = 0..self.spans.len();
        if entries.clone().all(|id| keep(self, id)) {
            return 0;
        }
        let mut kept = Table::new(&self.function, self.args.width(), self.outputs.width());
        let mut freed = 0;
        for id in entries {
            if keep(self, id) {
                let args = self.args.row(id).iter();
                kept.push(hash_cells(args.clone()), args, self.output(id));
            } else {
                freed += entry_bytes(self.cells(id));
            }
        }
        *self = kept;
        freed
    }
}

/// A byte-budgeted memo of IE call results, kept in per-function
/// arenas (see the module docs).
///
/// A lookup copies the rows of a hit into the caller's batch; a store
/// copies them in. The memo is single-threaded by itself; wrap it in
/// [`SharedIeMemo`] for the session/snapshot sharing pattern.
pub struct IeMemo {
    /// A handful: found by walking.
    tables: Vec<Table>,
    /// Sum of [`entry_bytes`] over every entry; never above `budget`.
    bytes: usize,
    budget: usize,
    stats: CacheStats,
}

impl IeMemo {
    /// An empty memo with the given byte budget. A budget of zero
    /// caches nothing (every store is rejected as oversized), but
    /// callers normally gate the whole cache off instead.
    pub fn new(budget_bytes: usize) -> IeMemo {
        IeMemo {
            tables: Vec::new(),
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
        self.tables.iter().map(|t| t.spans.len()).sum()
    }

    /// Whether the memo holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime counters, with `entries`/`bytes` reflecting the current
    /// residency.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.len(),
            bytes: self.bytes,
            ..self.stats
        }
    }

    /// Looks up the call `function(args)` at the output arity
    /// `out.width()`, counting a hit or miss. A hit appends the cached
    /// rows to `out` and returns their row ids there.
    pub fn lookup<'a>(
        &mut self,
        function: &str,
        args: impl ExactSizeIterator<Item = &'a Value> + Clone,
        out: &mut Rows,
    ) -> Option<Range<usize>> {
        let mut tables = self.tables.iter();
        let hit = tables
            .find(|t| t.is(function, args.len(), out.width()))
            .and_then(|t| Some((t, t.find(hash_cells(args.clone()), args)?)));
        self.stats.hits += u64::from(hit.is_some());
        self.stats.misses += u64::from(hit.is_none());
        let (table, id) = hit?;
        let start = out.len();
        table.output(id).for_each(|row| out.push(row));
        Some(start..out.len())
    }

    /// Stores the result of the call `function(args)`: the rows of
    /// `rows` with ids in `output`. An entry larger than the whole
    /// budget is rejected (counted in [`CacheStats::oversized`]); one
    /// that would carry the memo past the budget empties it first
    /// (every entry dropped that way is counted in
    /// [`CacheStats::evictions`]); storing under a resident key replaces
    /// its rows.
    pub fn store<'a>(
        &mut self,
        function: &str,
        args: impl ExactSizeIterator<Item = &'a Value> + Clone,
        rows: &'a Rows,
        output: Range<usize>,
    ) {
        let output = rows.range(output);
        let bytes = entry_bytes(args.clone().chain(output.clone().flatten()));
        if bytes > self.budget {
            self.stats.oversized += 1;
            return;
        }
        self.stats.insertions += 1;
        let hash = hash_cells(args.clone());
        let (n_args, n_outputs) = (args.len(), rows.width());
        let is_table = |t: &Table| t.is(function, n_args, n_outputs);
        if let Some(table) = self.tables.iter_mut().find(|t| is_table(t)) {
            if let Some(id) = table.find(hash, args.clone()) {
                // Two shards that missed one key both store it — the
                // same rows, a stateless function being what it is.
                if table.output(id).eq(output.clone()) {
                    return;
                }
                self.bytes -= table.retain(|_, entry| entry != id);
            }
        }
        if self.bytes + bytes > self.budget {
            self.stats.evictions += self.len() as u64;
            self.clear();
        }
        let at = self.tables.iter().position(is_table).unwrap_or_else(|| {
            self.tables.push(Table::new(function, n_args, n_outputs));
            self.tables.len() - 1
        });
        self.tables[at].push(hash, args, output);
        self.bytes += bytes;
    }

    /// Drops every entry (keeps lifetime counters).
    fn clear(&mut self) {
        self.tables.clear();
        self.bytes = 0;
    }

    /// Drops the entries `keep(table, entry id)` rejects (and a table
    /// left without any), returning how many went.
    fn retain(&mut self, keep: impl Fn(&Table, usize) -> bool) -> usize {
        let before = self.len();
        for table in &mut self.tables {
            self.bytes -= table.retain(&keep);
        }
        self.tables.retain(|t| !t.spans.is_empty());
        before - self.len()
    }

    /// Drops every entry cached under `function`, returning how many
    /// were removed. Called by the engine when a function is
    /// (re-)registered: a new body invalidates all addresses under that
    /// name, while entries of unrelated functions stay warm.
    pub fn purge_function(&mut self, function: &str) -> usize {
        self.retain(|table, _| table.function != function)
    }

    /// Drops every entry that names a document outside `live` — by a
    /// span argument of its key or a span in its output rows —
    /// returning how many were removed. Called by the engine after a
    /// compaction pass, so that no entry outlives a document: a dead
    /// `DocId` is never handed out again, and equal text interned anew
    /// gets a fresh one.
    pub fn retain_docs(&mut self, live: &FxHashSet<DocId>) -> usize {
        let dead = |v: &Value| matches!(v, Value::Span(s) if !live.contains(&s.doc));
        self.retain(|table, id| !table.cells(id).any(dead))
    }
}

// The memo crosses threads behind `SharedIeMemo` (`Arc<Mutex<..>>`),
// and parallel evaluation probes it from shard threads. Keep that
// contract checked at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<IeMemo>();
    assert_send_sync::<SharedIeMemo>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use rustc_hash::FxHashMap;
    use spannerlib_core::Span;

    type Output = Vec<Vec<Value>>;

    /// Stores `output` — rows of `n` cells, after one of another call.
    fn store_at(
        memo: &mut IeMemo,
        function: &str,
        args: &[Value],
        n: usize,
        output: &[Vec<Value>],
    ) {
        let mut rows = Rows::new(n);
        rows.push(&vec![Value::Bool(false); n]);
        output.iter().for_each(|row| rows.push(row));
        memo.store(function, args.iter(), &rows, 1..rows.len());
    }

    fn store(memo: &mut IeMemo, function: &str, args: &[Value], output: &[Vec<Value>]) {
        store_at(
            memo,
            function,
            args,
            output.first().map_or(0, Vec::len),
            output,
        );
    }

    /// The rows cached for `function(args)` at output arity `n`.
    fn lookup(memo: &mut IeMemo, function: &str, args: &[Value], n: usize) -> Option<Output> {
        // Rows of another batch come first: a hit is a range, not the lot.
        let mut out = Rows::new(n);
        out.push(&vec![Value::Bool(true); n]);
        let hit = memo.lookup(function, args.iter(), &mut out)?;
        assert_eq!((hit.start, hit.end), (1, out.len()));
        Some(out.range(hit).map(<[Value]>::to_vec).collect())
    }

    fn int(n: i64) -> Vec<Value> {
        vec![Value::Int(n)]
    }

    /// What [`store`]ing `output` under `args` is charged.
    fn charged(args: &[Value], output: &[Vec<Value>]) -> usize {
        entry_bytes(args.iter().chain(output.iter().flatten()))
    }

    #[test]
    fn hit_returns_shared_output_and_counts() {
        let mut memo = IeMemo::new(1 << 20);
        assert!(lookup(&mut memo, "f", &int(1), 1).is_none());
        store(&mut memo, "f", &int(1), &[int(10), int(11)]);
        assert_eq!(
            lookup(&mut memo, "f", &int(1), 1),
            Some(vec![int(10), int(11)])
        );
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, charged(&int(1), &[int(10), int(11)]));
    }

    #[test]
    fn stored_hash_addresses_the_key_and_contents_decide_equality() {
        let text = "a document text ".repeat(128);
        let key = |text: &str| [Value::str("p"), Value::str(text)];
        let mut memo = IeMemo::new(1 << 20);
        store(&mut memo, "rgx", &key(&text), &[int(1)]);
        // Another allocation of the same cells is the same address …
        assert!(lookup(&mut memo, "rgx", &key(&text), 1).is_some());
        // … and neither a prefix of them, nor other cells, nor another
        // function is.
        assert!(lookup(&mut memo, "rgx", &key(&text)[..1], 1).is_none());
        assert!(lookup(&mut memo, "rgx", &key(&text.replace('a', "b")), 1).is_none());
        assert!(lookup(&mut memo, "rgx_string", &key(&text), 1).is_none());
    }

    #[test]
    fn distinct_arities_are_distinct_addresses() {
        let mut memo = IeMemo::new(1 << 20);
        store(&mut memo, "f", &int(1), &[int(1)]);
        assert!(lookup(&mut memo, "f", &int(1), 2).is_none());
        // An empty output is an entry like any other, at its arity.
        store(&mut memo, "f", &int(1), &[]);
        assert_eq!(lookup(&mut memo, "f", &int(1), 0), Some(vec![]));
        assert_eq!(lookup(&mut memo, "f", &int(1), 1), Some(vec![int(1)]));
    }

    #[test]
    fn overflow_empties_the_table_and_keeps_the_bound() {
        // Budget fits exactly two of these entries.
        let one = charged(&int(1), &[int(0)]);
        let mut memo = IeMemo::new(2 * one);
        store(&mut memo, "f", &int(1), &[int(1)]);
        store(&mut memo, "f", &int(2), &[int(2)]);
        // Replacing a resident key is not an overflow.
        store(&mut memo, "f", &int(2), &[int(20)]);
        assert_eq!((memo.len(), memo.bytes()), (2, 2 * one));
        assert_eq!(memo.stats().evictions, 0);
        // A third entry is: both residents go — whatever their function
        // — and the newcomer stays.
        store(&mut memo, "g", &int(3), &[int(3)]);
        assert_eq!((memo.len(), memo.bytes()), (1, one));
        assert!(lookup(&mut memo, "f", &int(1), 1).is_none());
        assert!(lookup(&mut memo, "f", &int(2), 1).is_none());
        assert!(lookup(&mut memo, "g", &int(3), 1).is_some());
        assert_eq!(memo.stats().evictions, 2);
        assert!(memo.bytes() <= memo.budget());
    }

    #[test]
    fn oversized_entries_are_rejected_not_thrashed() {
        let mut memo = IeMemo::new(ENTRY_BYTES + 8);
        store(
            &mut memo,
            "f",
            &int(1),
            &[vec![Value::str("x".repeat(1024))]],
        );
        assert!(memo.is_empty());
        assert_eq!(memo.stats().oversized, 1);
        assert_eq!(memo.stats().evictions, 0);
    }

    #[test]
    fn reinsert_replaces_without_leaking_bytes() {
        let mut memo = IeMemo::new(1 << 20);
        store(&mut memo, "f", &int(0), &[int(0)]);
        store(&mut memo, "f", &int(1), &[int(1)]);
        let bytes_once = memo.bytes();
        store(&mut memo, "f", &int(1), &[int(2)]);
        assert_eq!((memo.len(), memo.bytes()), (2, bytes_once));
        assert_eq!(lookup(&mut memo, "f", &int(1), 1), Some(vec![int(2)]));
        assert_eq!(lookup(&mut memo, "f", &int(0), 1), Some(vec![int(0)]));
    }

    /// Two shards that miss one key at once both call the function and
    /// both store what it returned: one entry, charged once.
    #[test]
    fn two_stores_of_one_missed_key_are_one_entry() {
        let mut memo = IeMemo::new(1 << 20);
        let output = [vec![Value::str("sentence"), Value::Int(1)]];
        for _shard in 0..2 {
            assert!(lookup(&mut memo, "f", &int(1), 2).is_none());
        }
        for _shard in 0..2 {
            store(&mut memo, "f", &int(1), &output);
        }
        assert_eq!((memo.len(), memo.bytes()), (1, charged(&int(1), &output)));
        assert_eq!(lookup(&mut memo, "f", &int(1), 2), Some(output.to_vec()));
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 2, 2));
    }

    #[test]
    fn clear_keeps_lifetime_counters() {
        let mut memo = IeMemo::new(1 << 20);
        store(&mut memo, "f", &int(1), &[int(1)]);
        lookup(&mut memo, "f", &int(1), 1);
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
        let out = |v: Value| [int(0), vec![v]];
        store(&mut memo, "by_key", &[span(1)], &[int(1)]);
        store(&mut memo, "by_output", &int(2), &out(span(2)));
        store(&mut memo, "by_output", &int(3), &out(span(4)));
        store(&mut memo, "both_live", &[span(3)], &out(span(4)));
        store(&mut memo, "text", &[Value::str("t")], &[int(5)]);
        let bytes_before = memo.bytes();
        let live: FxHashSet<DocId> = [3, 4].into_iter().map(DocId::from_index).collect();
        assert_eq!(memo.retain_docs(&live), 2);
        assert!(lookup(&mut memo, "by_key", &[span(1)], 1).is_none());
        assert!(lookup(&mut memo, "by_output", &int(2), 1).is_none());
        // The neighbours of a dropped entry survive its table's rebuild.
        assert_eq!(
            lookup(&mut memo, "by_output", &int(3), 1),
            Some(out(span(4)).to_vec())
        );
        assert!(lookup(&mut memo, "both_live", &[span(3)], 1).is_some());
        assert!(lookup(&mut memo, "text", &[Value::str("t")], 1).is_some());
        assert_eq!(memo.len(), 3);
        assert!(memo.bytes() < bytes_before);
        assert_eq!(memo.retain_docs(&live), 0);
    }

    #[test]
    fn purge_function_is_name_scoped() {
        let mut memo = IeMemo::new(1 << 20);
        store(&mut memo, "f", &int(1), &[int(1)]);
        store(&mut memo, "f", &int(2), &[int(2)]);
        store(
            &mut memo,
            "f",
            &int(2),
            &[vec![Value::Int(2), Value::Int(2)]],
        );
        store(&mut memo, "g", &int(1), &[int(3)]);
        let bytes_before = memo.bytes();
        assert_eq!(memo.purge_function("f"), 3);
        assert_eq!(memo.len(), 1);
        assert!(memo.bytes() < bytes_before);
        assert!(lookup(&mut memo, "g", &int(1), 1).is_some(), "g stays warm");
        assert!(lookup(&mut memo, "f", &int(1), 1).is_none());
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
        // 2 functions x 6 documents in the key; up to 3 rows naming one
        // of 6 documents next to a text of some length in the output.
        let call = |r: u64| {
            let docs = [r / 2 % 6, r / 12 % 6];
            let key = (["f", "g"][(r % 2) as usize], span(docs[0]));
            let text = Value::str("x".repeat((r / 72 % 40) as usize));
            let output: Output = vec![vec![span(docs[1]), text]; (r / 2880 % 4) as usize];
            (key, output, docs)
        };
        // The largest entry: every budget below admits every call.
        let largest = call(72 * 39 + 2880 * 3);
        let one = charged(&[largest.0 .1], &largest.1);
        let mut overflows = 0;
        for case in 0..200u64 {
            let mut rng = case;
            let mut memo = IeMemo::new(one + (next(&mut rng) % 30) as usize * one / 2);
            // key -> (output, bytes, documents named)
            let mut model: FxHashMap<(&str, Value), (Output, usize, Vec<u64>)> =
                FxHashMap::default();
            let mut evictions = 0;
            for _ in 0..120 {
                let r = next(&mut rng);
                let (key, output, docs) = call(r / 8);
                let (function, args) = (key.0, [key.1.clone()]);
                let (bytes, len) = (charged(&args, &output), model.len());
                match r % 8 {
                    0..=3 => {
                        store_at(&mut memo, function, &args, 2, &output);
                        model.remove(&key);
                        if model.values().map(|e| e.1).sum::<usize>() + bytes > memo.budget() {
                            evictions += model.drain().count() as u64;
                        }
                        let hit = lookup(&mut memo, function, &args, 2);
                        assert_eq!(hit.as_ref(), Some(&output), "case {case}");
                        // An output without rows names only its key's document.
                        let named = docs[..1 + usize::from(!output.is_empty())].to_vec();
                        model.insert(key, (output, bytes, named));
                    }
                    4 | 5 => {
                        let hit = lookup(&mut memo, function, &args, 2);
                        assert_eq!(hit.as_ref(), model.get(&key).map(|e| &e.0), "case {case}");
                    }
                    6 => {
                        let live = |doc: &u64| r >> (8 + doc) & 1 == 1;
                        model.retain(|_, e| e.2.iter().all(live));
                        let live = (0..6).filter(live).map(doc_id).collect();
                        assert_eq!(memo.retain_docs(&live), len - model.len(), "case {case}");
                    }
                    _ => {
                        model.retain(|k, _| k.0 != function);
                        let purged = memo.purge_function(function);
                        assert_eq!(purged, len - model.len(), "case {case}");
                    }
                }
                let table_bytes = |t: &Table| -> usize {
                    (0..t.spans.len()).map(|id| entry_bytes(t.cells(id))).sum()
                };
                let sum: usize = memo.tables.iter().map(table_bytes).sum();
                let modelled: usize = model.values().map(|e| e.1).sum();
                let stats = memo.stats();
                assert!(sum <= memo.budget(), "case {case}");
                assert_eq!((sum, memo.len()), (modelled, model.len()), "case {case}");
                assert_eq!((memo.bytes(), stats.bytes), (sum, sum), "case {case}");
                assert_eq!(stats.entries, memo.len(), "case {case}");
                assert_eq!((stats.evictions, stats.oversized), (evictions, 0));
                // A rebuild leaves no dead row behind in an arena.
                for t in &memo.tables {
                    let live: usize = t.spans.iter().map(|s| s.len()).sum();
                    assert_eq!((t.outputs.len(), t.args.len()), (live, t.spans.len()));
                }
            }
            overflows += evictions;
        }
        assert!(overflows > 0, "no budget was small enough to overflow");
    }
}
