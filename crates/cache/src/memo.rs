//! The IE memo of one evaluation run: the table of its *shared calls*.
//!
//! IE functions are stateless mappings from an input tuple to a relation
//! of output rows, so a call and its argument values fully determine the
//! result. A *call* is what an IE atom asks — the function, the
//! constants at its input positions, its output arity — and the planner
//! numbers, per program, the calls more than one site asks: two rules
//! calling one function over the same sentence, or one site inside a
//! recursive component, whose rounds ask again. Only those reach the
//! memo; a call no other site asks is answered once per distinct argument
//! vector of its batch and kept nowhere. The memo lives exactly as long
//! as the run: the engine starts each evaluation with an empty table and
//! drops it when the run ends, so no entry outlives the program, the
//! registered functions or the documents it was computed under.
//!
//! Entries live in arenas, one table per call id: the argument vectors
//! of a table are the rows of one [`Rows`] with a [`RowTable`] over
//! them, the output rows of all its entries sit back to back in a second
//! `Rows`, and an entry is a range of that store's row ids — the shape
//! relations have. An entry holds the output rows some site of the call
//! reads — the caller narrows them — not necessarily all the function
//! returned. Nothing is allocated per entry, a key owns nothing (a probe
//! hands over borrowed cells), and a table drops as a handful of
//! vectors.
//!
//! Sizes are estimated (string payloads, enum footprints and a fixed
//! per-entry share of the index) for [`CacheStats::bytes`]: a reading,
//! not allocator accounting.

use crate::stats::CacheStats;
use spannerlib_core::{hash_cells, RowTable, Rows, Value};
use std::ops::Range;

/// Counted per entry on top of its cells: its range of output rows and
/// its slot in the half-full index.
const ENTRY_BYTES: usize = std::mem::size_of::<Range<u32>>() + 2 * std::mem::size_of::<u64>();

/// What an entry of these cells — its arguments and its output rows —
/// is counted as: per cell the enum footprint plus the payload of a
/// string (spans, ints, bools, floats own no heap).
fn entry_bytes<'a>(cells: impl Iterator<Item = &'a Value>) -> usize {
    let cell = |v: &Value| std::mem::size_of::<Value>() + v.as_str().map_or(0, str::len);
    ENTRY_BYTES + cells.map(cell).sum::<usize>()
}

/// The entries of one call.
struct Table {
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
    fn new(n_args: usize, n_outputs: usize) -> Table {
        Table {
            args: Rows::new(n_args),
            index: RowTable::default(),
            outputs: Rows::new(n_outputs),
            spans: Vec::new(),
        }
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
}

/// The memo of shared IE calls of one evaluation run, kept in per-call
/// arenas (see the module docs). A call is named by its id, which the
/// planner hands out per program, dense from 0; every argument vector
/// and output row of one call has the width of the first stored.
///
/// A lookup copies the rows of a hit into the caller's batch; a store
/// copies them in. The memo is single-threaded by itself; a run shares
/// it with its shard threads behind a mutex, which a batch of calls
/// takes twice — once to look every distinct argument vector up, once
/// to store what the misses returned — never once per call, and never
/// across a call.
#[derive(Default)]
pub struct IeMemo {
    /// By call id; `None` until the call's first store.
    tables: Vec<Option<Table>>,
    /// Sum of [`entry_bytes`] over every entry.
    bytes: usize,
    stats: CacheStats,
}

impl IeMemo {
    /// The counters of this table, with `entries`/`bytes` reflecting
    /// what it holds.
    pub fn stats(&self) -> CacheStats {
        let entries = self.tables.iter().flatten().map(|t| t.spans.len()).sum();
        CacheStats {
            entries,
            bytes: self.bytes,
            ..self.stats
        }
    }

    /// Looks up `args` under the call `call`, counting a hit or miss. A
    /// hit appends the stored rows to `out` and returns their row ids
    /// there.
    pub fn lookup<'a>(
        &mut self,
        call: usize,
        args: impl Iterator<Item = &'a Value> + Clone,
        out: &mut Rows,
    ) -> Option<Range<usize>> {
        let table = self.tables.get(call).and_then(Option::as_ref);
        let hit = table.and_then(|t| Some((t, t.find(hash_cells(args.clone()), args)?)));
        self.stats.hits += u64::from(hit.is_some());
        self.stats.misses += u64::from(hit.is_none());
        let (table, id) = hit?;
        let start = out.len();
        table.output(id).for_each(|row| out.push(row));
        Some(start..out.len())
    }

    /// Stores `output`, rows of `width` cells, as the answer of the call
    /// `call` to `args`. A key the memo already holds keeps its rows: two
    /// shards that missed one key both store it — the same rows, a
    /// stateless function being what it is.
    pub fn store<'a>(
        &mut self,
        call: usize,
        args: impl ExactSizeIterator<Item = &'a Value> + Clone,
        width: usize,
        output: impl Iterator<Item = &'a [Value]> + Clone,
    ) {
        self.stats.insertions += 1;
        if self.tables.len() <= call {
            self.tables.resize_with(call + 1, || None);
        }
        let n_args = args.len();
        let table = self.tables[call].get_or_insert_with(|| Table::new(n_args, width));
        let hash = hash_cells(args.clone());
        if table.find(hash, args.clone()).is_none() {
            self.bytes += entry_bytes(args.clone().chain(output.clone().flatten()));
            table.push(hash, args, output);
        }
    }
}

// A run shares the memo with its shard threads behind a mutex. Keep
// that contract checked at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<IeMemo>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use rustc_hash::FxHashMap;
    use spannerlib_core::{DocId, Span};

    type Output = Vec<Vec<Value>>;

    /// Stores `output`, rows of `n` cells, under `call`.
    fn store_at(memo: &mut IeMemo, call: usize, args: &[Value], n: usize, output: &[Vec<Value>]) {
        memo.store(call, args.iter(), n, output.iter().map(Vec::as_slice));
    }

    fn store(memo: &mut IeMemo, call: usize, args: &[Value], output: &[Vec<Value>]) {
        store_at(memo, call, args, output.first().map_or(0, Vec::len), output);
    }

    /// The rows stored for `args` under `call`, rows of `n` cells.
    fn lookup(memo: &mut IeMemo, call: usize, args: &[Value], n: usize) -> Option<Output> {
        // Rows of another batch come first: a hit is a range, not the lot.
        let mut out = Rows::new(n);
        out.push(&vec![Value::Bool(true); n]);
        let hit = memo.lookup(call, args.iter(), &mut out)?;
        assert_eq!((hit.start, hit.end), (1, out.len()));
        Some(out.range(hit).map(<[Value]>::to_vec).collect())
    }

    fn int(n: i64) -> Vec<Value> {
        vec![Value::Int(n)]
    }

    /// What [`store`]ing `output` under `args` is counted as.
    fn charged(args: &[Value], output: &[Vec<Value>]) -> usize {
        entry_bytes(args.iter().chain(output.iter().flatten()))
    }

    #[test]
    fn hit_returns_shared_output_and_counts() {
        let mut memo = IeMemo::default();
        assert!(lookup(&mut memo, 0, &int(1), 1).is_none());
        store(&mut memo, 0, &int(1), &[int(10), int(11)]);
        assert_eq!(
            lookup(&mut memo, 0, &int(1), 1),
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
        let mut memo = IeMemo::default();
        store(&mut memo, 0, &key(&text), &[int(1)]);
        // Another allocation of the same cells is the same address …
        assert!(lookup(&mut memo, 0, &key(&text), 1).is_some());
        // … and neither a prefix of them, nor other cells, nor another
        // call is.
        assert!(lookup(&mut memo, 0, &key(&text)[..1], 1).is_none());
        assert!(lookup(&mut memo, 0, &key(&text.replace('a', "b")), 1).is_none());
        assert!(lookup(&mut memo, 1, &key(&text), 1).is_none());
    }

    /// One function asked at two output arities is two calls, with two
    /// ids: two tables.
    #[test]
    fn distinct_arities_are_distinct_addresses() {
        let mut memo = IeMemo::default();
        store(&mut memo, 0, &int(1), &[int(1)]);
        assert!(lookup(&mut memo, 1, &int(1), 0).is_none());
        // An empty output is an entry like any other, at its arity.
        store_at(&mut memo, 1, &int(1), 0, &[]);
        assert_eq!(lookup(&mut memo, 1, &int(1), 0), Some(vec![]));
        assert_eq!(lookup(&mut memo, 0, &int(1), 1), Some(vec![int(1)]));
        assert_eq!(memo.stats().entries, 2);
    }

    /// Two shards that miss one key at once both call the function and
    /// both store what it returned: one entry, counted once.
    #[test]
    fn two_stores_of_one_missed_key_are_one_entry() {
        let mut memo = IeMemo::default();
        let output = [vec![Value::str("sentence"), Value::Int(1)]];
        for _shard in 0..2 {
            assert!(lookup(&mut memo, 0, &int(1), 2).is_none());
        }
        for _shard in 0..2 {
            store(&mut memo, 0, &int(1), &output);
        }
        let stats = memo.stats();
        assert_eq!((stats.entries, stats.bytes), (1, charged(&int(1), &output)));
        assert_eq!(lookup(&mut memo, 0, &int(1), 2), Some(output.to_vec()));
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 2, 2));
    }

    /// Model-based check: random store and lookup sequences against a
    /// plain map that keeps the first rows stored under a key.
    #[test]
    fn random_operation_sequences_agree_with_a_model() {
        // An LCG's high bits: the crate has no RNG dependency and needs none.
        fn next(state: &mut u64) -> u64 {
            *state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            *state >> 24
        }
        let span = |doc: u64| Value::Span(Span::new(DocId::from_index(doc as u32), 0, 1));
        // 2 calls x 6 documents in the key; up to 3 rows naming one
        // of 6 documents next to a text of some length in the output.
        let call = |r: u64| {
            let key = ((r % 2) as usize, span(r / 2 % 6));
            let text = Value::str("x".repeat((r / 72 % 40) as usize));
            let output: Output = vec![vec![span(r / 12 % 6), text]; (r / 2880 % 4) as usize];
            (key, output)
        };
        for case in 0..200u64 {
            let mut rng = case;
            let mut memo = IeMemo::default();
            // key -> (output, bytes)
            let mut model: FxHashMap<(usize, Value), (Output, usize)> = FxHashMap::default();
            for _ in 0..120 {
                let r = next(&mut rng);
                let (key, output) = call(r / 8);
                let (id, args) = (key.0, [key.1.clone()]);
                if r % 8 < 4 {
                    store_at(&mut memo, id, &args, 2, &output);
                    let bytes = charged(&args, &output);
                    model.entry(key.clone()).or_insert((output, bytes));
                }
                let hit = lookup(&mut memo, id, &args, 2);
                assert_eq!(hit.as_ref(), model.get(&key).map(|e| &e.0), "case {case}");
                let modelled: usize = model.values().map(|e| e.1).sum();
                let stats = memo.stats();
                assert_eq!((stats.entries, stats.bytes), (model.len(), modelled));
            }
        }
    }
}
