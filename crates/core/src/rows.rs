//! Flat row storage: the one shape rows are kept in.
//!
//! [`Rows`] holds `len × width` cells in a single `Vec`, so a row is a
//! slice and a *row id* its position. [`RowTable`] is the hash table
//! that goes with it: open addressing over row ids, storing no keys —
//! callers hand it a hash ([`hash_cells`]) and an equality test against
//! whatever store the ids index.

use crate::value::Value;
use rustc_hash::FxHasher;
use std::hash::{Hash, Hasher};
use std::ops::Range;

/// Hashes a sequence of cells — a whole row, or the key columns of one.
/// A string cell hashes as one word (after its type rank): the hash its
/// [`crate::Str`] took from its bytes when it was made, so a row of long
/// documents hashes as fast as a row of short ones.
pub fn hash_cells<'a>(cells: impl IntoIterator<Item = &'a Value>) -> u64 {
    let mut hasher = FxHasher::default();
    cells.into_iter().for_each(|cell| cell.hash(&mut hasher));
    hasher.finish()
}

/// Fixed-width rows stored back to back. Width 0 keeps only a count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Rows {
    width: usize,
    len: usize,
    cells: Vec<Value>,
}

impl Rows {
    /// An empty store of `width`-cell rows.
    pub fn new(width: usize) -> Self {
        Rows {
            width,
            ..Rows::default()
        }
    }

    /// Cells per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The row with id `id`; panics if there is none.
    pub fn row(&self, id: usize) -> &[Value] {
        assert!(id < self.len, "row {id} of {}", self.len);
        &self.cells[id * self.width..(id + 1) * self.width]
    }

    /// The rows with ids in `range`, in id order.
    pub fn range(&self, range: Range<usize>) -> impl ExactSizeIterator<Item = &[Value]> + Clone {
        range.map(|id| self.row(id))
    }

    /// All rows, in id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[Value]> + Clone {
        self.range(0..self.len)
    }

    /// Appends a row of cloned cells: exactly [`Rows::width`] of them.
    pub fn push<'a>(&mut self, cells: impl IntoIterator<Item = &'a Value>) {
        self.cells.extend(cells.into_iter().cloned());
        self.len += 1;
        assert_eq!(self.cells.len(), self.len * self.width, "row width");
    }

    /// Removes every row, keeping the allocation.
    pub fn clear(&mut self) {
        self.cells.clear();
        self.len = 0;
    }

    /// Appends `cells` as a row unless `table` — which must hold exactly
    /// this store's row ids, each under [`hash_cells`] of its row — has
    /// an equal one. Returns whether the row was new.
    pub fn push_distinct<'a>(
        &mut self,
        table: &mut RowTable,
        cells: impl Iterator<Item = &'a Value> + Clone,
    ) -> bool {
        let same = |id: usize| self.row(id).iter().eq(cells.clone());
        let new = table
            .find_or_insert(hash_cells(cells.clone()), self.len, same)
            .is_none();
        if new {
            self.push(cells);
        }
        new
    }

    /// Keeps the rows `keep(id, row)` holds for, in order, and closes
    /// the gaps — row ids change.
    pub fn retain(&mut self, mut keep: impl FnMut(usize, &[Value]) -> bool) {
        let (width, mut kept) = (self.width, 0);
        for id in 0..self.len {
            if keep(id, &self.cells[id * width..(id + 1) * width]) {
                (0..width).for_each(|c| self.cells.swap(kept * width + c, id * width + c));
                kept += 1;
            }
        }
        self.cells.truncate(kept * width);
        self.len = kept;
    }
}

/// A vacant [`RowTable`] slot. No row has this id: a store of 2³² − 1
/// rows does not fit in memory.
const VACANT: u64 = u64::MAX;

/// An open-addressing (linear probing) hash table of row ids. A slot is
/// the upper half of the row's hash next to its id, so a probe touches
/// the rows themselves only on a 32-bit tag match and growing re-places
/// slots without re-hashing a row.
#[derive(Debug, Clone, Default)]
pub struct RowTable {
    /// Empty or a power of two long, at most half full.
    slots: Vec<u64>,
    /// Number of ids stored.
    len: usize,
}

impl RowTable {
    /// The id stored under `hash` that `eq` accepts, or else the vacant
    /// slot where the probe for it ended. `slots` is not empty.
    fn probe(&self, hash: u64, mut eq: impl FnMut(usize) -> bool) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        // Fx mixes upwards: the high half is the well-distributed one.
        let tag = hash >> 32;
        let mut at = tag as usize & mask;
        loop {
            let slot = self.slots[at];
            if slot == VACANT {
                return Err(at);
            }
            if slot >> 32 == tag && eq(slot as u32 as usize) {
                return Ok(slot as u32 as usize);
            }
            at = (at + 1) & mask;
        }
    }

    /// The table of the ids `renumber` keeps, under their new ids. A slot
    /// keeps its tag, so no row is hashed again.
    pub fn renumber(&self, mut renumber: impl FnMut(usize) -> Option<usize>) -> RowTable {
        let mut out = RowTable {
            slots: vec![VACANT; self.slots.len()],
            len: 0,
        };
        for &slot in self.slots.iter().filter(|&&slot| slot != VACANT) {
            if let Some(id) = renumber(slot as u32 as usize) {
                if let Err(at) = out.probe(slot, |_| false) {
                    out.slots[at] = slot >> 32 << 32 | id as u64;
                    out.len += 1;
                }
            }
        }
        out
    }

    /// The id stored under `hash` for which `eq` holds.
    pub fn find(&self, hash: u64, eq: impl FnMut(usize) -> bool) -> Option<usize> {
        self.slots.first()?;
        self.probe(hash, eq).ok()
    }

    /// Like [`RowTable::find`], but stores `id` under `hash` when no
    /// stored id matches (and then returns `None`).
    pub fn find_or_insert(
        &mut self,
        hash: u64,
        id: usize,
        eq: impl FnMut(usize) -> bool,
    ) -> Option<usize> {
        if (self.len + 1) * 2 > self.slots.len() {
            // Every stored id is distinct: re-place slots by tag alone
            // (a vacant one lands on a vacant one).
            let grown = vec![VACANT; (self.slots.len() * 2).max(8)];
            for slot in std::mem::replace(&mut self.slots, grown) {
                if let Err(at) = self.probe(slot, |_| false) {
                    self.slots[at] = slot;
                }
            }
        }
        let at = match self.probe(hash, eq) {
            Ok(found) => return Some(found),
            Err(at) => at,
        };
        let id = u32::try_from(id).ok().filter(|&id| id != u32::MAX);
        self.slots[at] = hash >> 32 << 32 | u64::from(id.expect("row ids fit 32 bits"));
        self.len += 1;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn rows_are_slices_in_push_order() {
        let mut rows = Rows::new(2);
        rows.push(&ints(&[1, 2]));
        rows.push(&ints(&[3, 4]));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows.row(1), &ints(&[3, 4])[..]);
        let all: Vec<&[Value]> = rows.iter().collect();
        assert_eq!(all, [&ints(&[1, 2])[..], &ints(&[3, 4])[..]]);
        assert_eq!(rows.range(1..2).len(), 1);
    }

    #[test]
    fn width_zero_counts_rows() {
        let mut rows = Rows::new(0);
        rows.push(&[]);
        rows.push(&[]);
        assert_eq!(rows.len(), 2);
        assert!(rows.row(1).is_empty());
        rows.retain(|id, _| id == 0);
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn retain_compacts_in_order() {
        let mut rows = Rows::new(1);
        for v in 0..6 {
            rows.push(&ints(&[v]));
        }
        rows.retain(|_, row| row[0].as_int().unwrap() % 2 == 1);
        let left: Vec<i64> = rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(left, [1, 3, 5]);
    }

    #[test]
    fn push_distinct_keeps_first_occurrences() {
        let mut rows = Rows::new(1);
        let mut table = RowTable::default();
        let pushed: Vec<bool> = [3, 1, 3, 2, 1]
            .iter()
            .map(|&v| rows.push_distinct(&mut table, ints(&[v]).iter()))
            .collect();
        assert_eq!(pushed, [true, true, false, true, false]);
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn renumbered_tables_find_the_kept_ids_under_their_new_ones() {
        let mut table = RowTable::default();
        for id in 0..20u64 {
            assert_eq!(
                table.find_or_insert(id << 40 | 7, id as usize, |_| false),
                None
            );
        }
        let odd = table.renumber(|id| (id % 2 == 1).then_some(id / 2));
        for id in 0..20u64 {
            let found = odd.find(id << 40 | 7, |new| new == id as usize / 2);
            assert_eq!(found, (id % 2 == 1).then_some(id as usize / 2), "{id}");
        }
    }

    #[test]
    fn table_grows_and_never_trusts_a_hash() {
        // One hash for every id: only `eq` tells them apart.
        let mut table = RowTable::default();
        for id in 0..100 {
            assert_eq!(table.find_or_insert(7, id, |other| other == id), None);
        }
        for id in 0..100 {
            assert_eq!(table.find(7, |other| other == id), Some(id));
            assert_eq!(table.find_or_insert(7, 999, |other| other == id), Some(id));
        }
        assert_eq!(table.find(7, |_| false), None);
        assert_eq!(table.find(8 << 32, |_| true), None);
        assert_eq!(RowTable::default().find(7, |_| true), None);
    }
}
