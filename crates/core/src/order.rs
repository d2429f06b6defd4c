//! One order for rows: normalized keys, radix-sorted.
//!
//! [`sort_order`] puts row references in [`Value`]'s total order on some
//! of their columns — the order every export,
//! [`crate::Relation::sorted_tuples`] and the engine's aggregate fold
//! share. Each cell becomes an order-preserving word: exact for ints,
//! bools, floats (their `total_cmp` bits) and spans (document, start,
//! end — a word each); for a string, the bytes after the prefix every
//! string of its column shares, exact when at most seven of them are
//! left. A word keeps only the bits its spread over the rows needs, and
//! a row's words are packed with its index into one machine word, or two
//! when one is too narrow. An LSD radix sort then orders the packed keys
//! a digit at a time, skipping every digit all keys share — or, when
//! the keys are wide for their number, a comparison sort of the packed
//! integers.
//!
//! Packing stops after the first word that may not decide its column —
//! a longer string, a column of mixed types (its type rank alone), or
//! the second machine word running out — since a later column must not
//! overrule an undecided earlier one. Rows whose keys then tie are put
//! in order by comparing their cells. The result is always exactly
//! `Value::cmp` over the columns, for every mix of types.

use crate::value::Value;
use std::cmp::Ordering;

/// Fewer rows than this are ordered by comparing their cells: packing
/// keys does not pay for so few. Measured on (int, int) and (string,
/// span) rows, the two cost the same at 64 rows; at 8, comparing is
/// eight times faster.
const RADIX_FROM: usize = 64;

/// Bits of the widest radix digit: a pass's 2¹¹ counters stay in the
/// L1 cache.
const MAX_DIGIT: u32 = 11;

/// The sign bit of a word.
const SIGN: u64 = 1 << 63;

/// The order of some rows: indexes into the slice [`sort_order`] was
/// handed, first to last.
#[derive(Debug)]
pub struct Order {
    keys: Keys,
    /// The low bits of a key that hold its row's index.
    id_bits: u32,
    /// The columns ordered by.
    cols: Vec<usize>,
    /// The packed fields, the most significant first.
    fields: Vec<Field>,
    /// For each key bit above the index, lowest first: the position in
    /// `cols` of the column it encodes.
    col_at_bit: Vec<usize>,
    /// How many leading columns of `cols` the keys decide alone.
    decided: usize,
    /// For each position in `cols`: the field that holds the column's
    /// cells whole, if one does.
    whole: Vec<Option<usize>>,
}

#[derive(Debug)]
enum Keys {
    One(Vec<u64>),
    Two(Vec<u128>),
}

impl Order {
    /// Number of rows ordered.
    pub fn len(&self) -> usize {
        match &self.keys {
            Keys::One(keys) => keys.len(),
            Keys::Two(keys) => keys.len(),
        }
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn key(&self, pos: usize) -> u128 {
        match &self.keys {
            Keys::One(keys) => u128::from(keys[pos]),
            Keys::Two(keys) => keys[pos],
        }
    }

    fn id(&self, pos: usize) -> usize {
        (self.key(pos) & ((1 << self.id_bits) - 1)) as usize
    }

    /// The rows' indexes, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = usize> + '_ {
        (0..self.len()).map(|pos| self.id(pos))
    }

    /// The rows' indexes, in order, each with the number of leading
    /// columns it shares with the row before it (0 for the first row):
    /// where a run of rows equal on a prefix of the columns ends, told
    /// by the keys where they decide. `rows` must be the rows the order
    /// was computed from.
    pub fn iter_shared<'a>(
        &'a self,
        rows: &'a [&'a [Value]],
    ) -> impl ExactSizeIterator<Item = (usize, usize)> + 'a {
        let mask = (1 << self.id_bits) - 1;
        let mut prev: Option<u128> = None;
        (0..self.len()).map(move |pos| {
            let key = self.key(pos);
            let id = (key & mask) as usize;
            let Some(before) = prev.replace(key) else {
                return (id, 0);
            };
            let differ = (key ^ before) >> self.id_bits;
            if differ != 0 {
                let bit = u128::BITS - 1 - differ.leading_zeros();
                return (id, self.col_at_bit[bit as usize]);
            }
            let undecided = &self.cols[self.decided..];
            if undecided.is_empty() {
                return (id, self.decided);
            }
            let (row, before) = (rows[id], rows[(before & mask) as usize]);
            let equal = undecided.iter().take_while(|&&c| row[c] == before[c]);
            (id, self.decided + equal.count())
        })
    }

    /// The cell of column `cols[at]` of the row at position `pos` of the
    /// order: read back from its key when that holds the cell whole (an
    /// int, bool or float column), without touching the row, else
    /// cloned from `rows` — the rows the order was computed from.
    pub fn value(&self, rows: &[&[Value]], pos: usize, at: usize) -> Value {
        match self.whole.get(at).copied().flatten() {
            Some(f) => {
                let field = &self.fields[f];
                let bits = self.key(pos) >> (self.id_bits + field.shift);
                let word = (bits & ((1 << field.bits) - 1)) as u64 + field.min;
                field.encoding.decode(word)
            }
            None => rows[self.id(pos)][self.cols[at]].clone(),
        }
    }
}

/// Orders `rows` by the cells at `cols`, compared in turn with
/// `Value::cmp`. Rows equal on `cols` come out in no particular order.
/// Every row must have every column of `cols`.
pub fn sort_order(rows: &[&[Value]], cols: &[usize]) -> Order {
    sort_order_from(rows, cols, RADIX_FROM)
}

/// [`sort_order`] with the row count from which keys are packed and
/// radix-sorted.
pub(crate) fn sort_order_from(rows: &[&[Value]], cols: &[usize], radix_from: usize) -> Order {
    let n = rows.len();
    assert!(n as u64 <= u64::from(u32::MAX), "{n} rows to order");
    let mut order = Order {
        keys: Keys::One(Vec::new()),
        id_bits: bits(n.max(2) as u64 - 1),
        cols: cols.to_vec(),
        fields: Vec::new(),
        col_at_bit: Vec::new(),
        decided: 0,
        whole: Vec::new(),
    };
    if n < radix_from.max(2) {
        let mut ids: Vec<u64> = (0..n as u64).collect();
        ids.sort_unstable_by(|&a, &b| compare(rows[a as usize], rows[b as usize], cols));
        order.keys = Keys::One(ids);
        return order;
    }
    (order.fields, order.decided) = plan(rows, cols, u128::BITS - order.id_bits);
    // The first field is the most significant: the last holds the
    // lowest bits.
    for f in order.fields.iter_mut().rev() {
        f.shift = order.col_at_bit.len() as u32;
        let bits = std::iter::repeat_n(f.at, f.bits as usize);
        order.col_at_bit.extend(bits);
    }
    order.whole = (0..cols.len())
        .map(|at| {
            let mut of = order.fields.iter().enumerate().filter(|(_, f)| f.at == at);
            match (of.next(), of.next()) {
                (Some((i, f)), None) if at < order.decided && f.encoding.decodes() => Some(i),
                _ => None,
            }
        })
        .collect();
    order.keys = if order.col_at_bit.len() as u32 + order.id_bits <= u64::BITS {
        Keys::One(sort_keys(rows, &order))
    } else {
        Keys::Two(sort_keys(rows, &order))
    };
    order
}

/// `Value::cmp` over `cols`, column by column.
fn compare(a: &[Value], b: &[Value], cols: &[usize]) -> Ordering {
    cols.iter()
        .map(|&c| a[c].cmp(&b[c]))
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
}

/// Bits needed to hold `spread`.
fn bits(spread: u64) -> u32 {
    u64::BITS - spread.leading_zeros()
}

/// How a cell of one column becomes an order-preserving word.
#[derive(Debug, Clone, Copy)]
enum Encoding {
    Int,
    Bool,
    Float,
    SpanDoc,
    SpanStart,
    SpanEnd,
    /// The at most seven bytes after `.0` shared ones, zero-padded to
    /// `.1` bytes (the longest such tail), then their count: exact.
    ShortStr(usize, usize),
    /// The first eight bytes after `usize` shared ones: a prefix.
    StrPrefix(usize),
    /// The type rank of a column of mixed types.
    Rank,
}

impl Encoding {
    /// Whether [`Encoding::decode`] gives a cell back.
    fn decodes(self) -> bool {
        matches!(self, Encoding::Int | Encoding::Bool | Encoding::Float)
    }

    /// The cell whose word is `word`, for an encoding that
    /// [`Encoding::decodes`].
    fn decode(self, word: u64) -> Value {
        match self {
            Encoding::Int => Value::Int((word ^ SIGN) as i64),
            Encoding::Bool => Value::Bool(word != 0),
            Encoding::Float if word & SIGN != 0 => Value::Float(f64::from_bits(word ^ SIGN)),
            Encoding::Float => Value::Float(f64::from_bits(!word)),
            _ => unreachable!("{self:?} words are not decoded"),
        }
    }
}

/// Hands `f` the word of each row's cell at `col`, in row order, a loop
/// per encoding. Stops and returns `false` at a cell of another type.
fn each_word(encoding: Encoding, rows: &[&[Value]], col: usize, mut f: impl FnMut(u64)) -> bool {
    macro_rules! words {
        ($cell:pat => $word:expr) => {{
            for row in rows {
                let $cell = &row[col] else { return false };
                f($word);
            }
            true
        }};
    }
    match encoding {
        Encoding::Int => words!(Value::Int(i) => *i as u64 ^ SIGN),
        Encoding::Bool => words!(Value::Bool(b) => u64::from(*b)),
        // `total_cmp`: a set sign bit flips every bit, a clear one just
        // the sign.
        Encoding::Float => words!(Value::Float(x) => match x.to_bits() {
            bits if bits & SIGN != 0 => !bits,
            bits => bits | SIGN,
        }),
        Encoding::SpanDoc => words!(Value::Span(s) => u64::from(s.doc.index())),
        Encoding::SpanStart => words!(Value::Span(s) => u64::from(s.start)),
        Encoding::SpanEnd => words!(Value::Span(s) => u64::from(s.end)),
        Encoding::ShortStr(shared, width) => words!(Value::Str(s) => {
            let tail = &s.as_bytes()[shared..];
            let bytes = tail.iter().fold(0, |word, &b| word << 8 | u64::from(b));
            bytes << (8 * (width - tail.len()) + 3) | tail.len() as u64
        }),
        Encoding::StrPrefix(shared) => words!(Value::Str(s) => prefix(&s.as_bytes()[shared..])),
        Encoding::Rank => {
            rows.iter()
                .for_each(|row| f(u64::from(row[col].type_rank())));
            true
        }
    }
}

/// Up to the first eight bytes, big-endian, zero-padded.
fn prefix(bytes: &[u8]) -> u64 {
    match bytes.first_chunk::<8>() {
        Some(word) => u64::from_be_bytes(*word),
        None => {
            let padded = bytes.iter().chain(std::iter::repeat(&0)).take(8);
            padded.fold(0, |word, &b| word << 8 | u64::from(b))
        }
    }
}

/// One packed word of a key: `(word − min) >> drop` in `bits` bits,
/// `shift` bits above the row index, of the column at position `at` of
/// the order's columns.
#[derive(Debug)]
struct Field {
    at: usize,
    encoding: Encoding,
    min: u64,
    drop: u32,
    bits: u32,
    shift: u32,
}

/// The fields of the keys for `rows` on `cols`, in at most `room` bits,
/// and how many leading columns they decide.
fn plan(rows: &[&[Value]], cols: &[usize], mut room: u32) -> (Vec<Field>, usize) {
    let mut fields = Vec::new();
    for (at, &col) in cols.iter().enumerate() {
        let (encodings, exact) = encodings(rows, col);
        for encoding in encodings {
            let (mut min, mut max) = (u64::MAX, 0);
            let mut spread = |encoding| {
                (min, max) = (u64::MAX, 0);
                each_word(encoding, rows, col, |word| {
                    (min, max) = (min.min(word), max.max(word))
                })
            };
            // A column of mixed types is decided by its type rank first.
            let (encoding, exact) = if spread(encoding) {
                (encoding, exact)
            } else {
                spread(Encoding::Rank);
                (Encoding::Rank, false)
            };
            let need = bits(max - min);
            let take = need.min(room);
            room -= take;
            fields.push(Field {
                at,
                encoding,
                min,
                drop: need - take,
                bits: take,
                shift: 0,
            });
            if !exact || take < need {
                return (fields, at);
            }
        }
    }
    (fields, cols.len())
}

/// The encodings of column `col` by the type of its first cell, and
/// whether they decide it.
fn encodings(rows: &[&[Value]], col: usize) -> (Vec<Encoding>, bool) {
    match &rows[0][col] {
        Value::Int(_) => (vec![Encoding::Int], true),
        Value::Bool(_) => (vec![Encoding::Bool], true),
        Value::Float(_) => (vec![Encoding::Float], true),
        Value::Span(_) => {
            let words = vec![Encoding::SpanDoc, Encoding::SpanStart, Encoding::SpanEnd];
            (words, true)
        }
        Value::Str(first) => {
            let first = first.as_bytes();
            let (mut shared, mut longest) = (first.len(), 0);
            for row in rows {
                let Value::Str(text) = &row[col] else {
                    return (vec![Encoding::Rank], false);
                };
                shared = common_prefix(&first[..shared], text.as_bytes());
                longest = longest.max(text.len());
            }
            if longest - shared < 8 {
                (vec![Encoding::ShortStr(shared, longest - shared)], true)
            } else {
                (vec![Encoding::StrPrefix(shared)], false)
            }
        }
    }
}

/// The length of the longest common prefix of `a` and `b`.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    if b.starts_with(a) {
        return a.len();
    }
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// A packed key: one machine word or two.
trait Key: Copy + Default + Ord {
    /// `self`, shifted up by `bits`, with `value` in the bits freed.
    fn push(self, bits: u32, value: u64) -> Self;
    /// The bits `shift..` under `mask`.
    fn digit(self, shift: u32, mask: usize) -> usize;
    fn wide(self) -> u128;
}

impl Key for u64 {
    fn push(self, bits: u32, value: u64) -> Self {
        self.checked_shl(bits).unwrap_or(0) | value
    }
    fn digit(self, shift: u32, mask: usize) -> usize {
        (self >> shift) as usize & mask
    }
    fn wide(self) -> u128 {
        u128::from(self)
    }
}

impl Key for u128 {
    fn push(self, bits: u32, value: u64) -> Self {
        self << bits | u128::from(value)
    }
    fn digit(self, shift: u32, mask: usize) -> usize {
        (self >> shift) as usize & mask
    }
    fn wide(self) -> u128 {
        self
    }
}

/// Packs, radix-sorts and tie-breaks the keys of `rows`.
fn sort_keys<K: Key>(rows: &[&[Value]], order: &Order) -> Vec<K> {
    let mut keys = vec![K::default(); rows.len()];
    for f in order.fields.iter().filter(|f| f.bits > 0) {
        let mut at = 0;
        each_word(f.encoding, rows, order.cols[f.at], |word| {
            keys[at] = keys[at].push(f.bits, (word - f.min) >> f.drop);
            at += 1;
        });
    }
    for (id, key) in keys.iter_mut().enumerate() {
        *key = key.push(order.id_bits, id as u64);
    }
    let from = order.id_bits;
    radix_sort(&mut keys, from, from + order.col_at_bit.len() as u32);
    if order.decided < order.cols.len() {
        let undecided = &order.cols[order.decided..];
        let id = |key: &K| (key.wide() & ((1 << from) - 1)) as usize;
        for run in keys.chunk_by_mut(|a, b| a.wide() >> from == b.wide() >> from) {
            if run.len() > 1 {
                run.sort_unstable_by(|a, b| compare(rows[id(a)], rows[id(b)], undecided));
            }
        }
    }
    keys
}

/// Sorts `keys` by their bits `from..to`, stably, a digit at a time
/// from the lowest; a digit every key shares costs no pass. Keys
/// that need more passes than a third of `log2(keys)` are compared
/// whole instead, which then costs less, and orders them the same: the
/// bits below `from` ascend within a run of equal bits above.
fn radix_sort<K: Key>(keys: &mut Vec<K>, from: u32, to: u32) {
    let passes = (to - from).div_ceil(MAX_DIGIT);
    if passes == 0 {
        return;
    }
    if passes * 3 > bits(keys.len() as u64) {
        keys.sort_unstable();
        return;
    }
    let width = (to - from).div_ceil(passes);
    let shifts: Vec<u32> = (0..passes).map(|pass| from + pass * width).collect();
    let digit = |key: K, shift: u32| key.digit(shift, (1 << width) - 1);
    let mut counts = vec![vec![0usize; 1 << width]; shifts.len()];
    for &key in keys.iter() {
        for (count, &shift) in counts.iter_mut().zip(&shifts) {
            count[digit(key, shift)] += 1;
        }
    }
    let n = keys.len();
    let mut scratch: Vec<K> = Vec::new();
    for (count, &shift) in counts.iter_mut().zip(&shifts) {
        if count.contains(&n) {
            continue;
        }
        if scratch.is_empty() {
            scratch = vec![K::default(); n];
        }
        let mut at = 0;
        for slot in count.iter_mut() {
            (*slot, at) = (at, at + *slot);
        }
        for &key in keys.iter() {
            let slot = &mut count[digit(key, shift)];
            scratch[*slot] = key;
            *slot += 1;
        }
        std::mem::swap(keys, &mut scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::DocId;
    use crate::span::Span;
    use proptest::prelude::*;

    /// The rows in `sort_order_from`'s order, after checking that what
    /// the order reads back — a cell, the columns shared with the row
    /// before — is what the rows hold.
    fn ordered(rows: &[Vec<Value>], cols: &[usize], radix_from: usize) -> Vec<Vec<Value>> {
        let refs: Vec<&[Value]> = rows.iter().map(Vec::as_slice).collect();
        let order = sort_order_from(&refs, cols, radix_from);
        assert_eq!(order.len(), rows.len());
        let sorted: Vec<Vec<Value>> = order.iter().map(|i| rows[i].clone()).collect();
        for (pos, (id, shared)) in order.iter_shared(&refs).enumerate() {
            assert_eq!(rows[id], sorted[pos]);
            for (at, &c) in cols.iter().enumerate() {
                assert_eq!(order.value(&refs, pos, at), rows[id][c], "{pos} {at}");
            }
            let same = |&&c: &&usize| pos > 0 && sorted[pos - 1][c] == rows[id][c];
            assert_eq!(shared, cols.iter().take_while(same).count(), "{pos}");
        }
        sorted
    }

    fn reference(rows: &[Vec<Value>], cols: &[usize]) -> Vec<Vec<Value>> {
        let mut sorted = rows.to_vec();
        sorted.sort_by(|a, b| compare(a, b, cols));
        sorted
    }

    /// Only the cells at `cols` must agree: rows equal on them may come
    /// out in any order.
    fn on(rows: Vec<Vec<Value>>, cols: &[usize]) -> Vec<Vec<Value>> {
        let pick = |row: Vec<Value>| cols.iter().map(|&c| row[c].clone()).collect();
        rows.into_iter().map(pick).collect()
    }

    fn agrees(rows: &[Vec<Value>], cols: &[usize]) {
        for radix_from in [0, RADIX_FROM] {
            let got = on(ordered(rows, cols, radix_from), cols);
            assert_eq!(got, on(reference(rows, cols), cols), "cols {cols:?}");
        }
    }

    #[test]
    fn ints_at_the_extremes_and_both_signs() {
        let ints = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
        let rows: Vec<Vec<Value>> = ints
            .iter()
            .flat_map(|&a| {
                ints.iter()
                    .map(move |&b| vec![Value::Int(a), Value::Int(b)])
            })
            .collect();
        agrees(&rows, &[0, 1]);
        agrees(&rows, &[1, 0]);
        agrees(&rows, &[1]);
    }

    #[test]
    fn floats_follow_total_cmp() {
        let floats = [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::NEG_INFINITY,
            f64::INFINITY,
            -0.0,
            0.0,
            -1.5,
            2.25,
            f64::MIN_POSITIVE,
        ];
        let rows: Vec<Vec<Value>> = floats.iter().map(|&x| vec![Value::Float(x)]).collect();
        let got = ordered(&rows, &[0], 0);
        let bits = |rows: &[Vec<Value>]| -> Vec<u64> {
            rows.iter()
                .map(|r| r[0].as_float().unwrap().to_bits())
                .collect()
        };
        assert_eq!(bits(&got), bits(&reference(&rows, &[0])));
    }

    #[test]
    fn strings_tied_on_their_prefix_and_nuls() {
        let long = "0123456789abcdef";
        let texts = [
            "",
            "a",
            "a\0",
            "a\0\0",
            "ab",
            "é",
            "note_0001",
            "note_0010",
            "note_0002",
            long,
            "0123456789abcdef0",
            "0123456789abcdeg",
            "01234567",
            "01234567\0",
        ];
        let rows: Vec<Vec<Value>> = texts
            .iter()
            .enumerate()
            .map(|(i, t)| vec![Value::str(*t), Value::Int(i as i64 % 3)])
            .collect();
        agrees(&rows, &[0, 1]);
        agrees(&rows, &[1, 0]);
        // Every string shares a prefix longer than a word.
        let shared: Vec<Vec<Value>> = texts
            .iter()
            .map(|t| vec![Value::str(format!("{long}{long}{t}"))])
            .collect();
        agrees(&shared, &[0]);
    }

    #[test]
    fn spans_across_documents_and_mixed_columns() {
        let span = |d: u32, s: usize, e: usize| Value::Span(Span::new(DocId::from_index(d), s, e));
        let cells = [
            span(0, 0, 4),
            span(0, 0, 9),
            span(2, 1, 1),
            span(u32::MAX, 0, u32::MAX as usize),
            Value::Int(-3),
            Value::str("x"),
            Value::Bool(true),
            Value::Bool(false),
            Value::Float(-0.0),
        ];
        let rows: Vec<Vec<Value>> = cells
            .iter()
            .flat_map(|a| cells.iter().map(move |b| vec![a.clone(), b.clone()]))
            .collect();
        agrees(&rows, &[0, 1]);
        agrees(&rows[..36], &[1, 0]);
    }

    #[test]
    fn many_wide_columns_spill_into_a_second_word_and_tie_break() {
        let rows: Vec<Vec<Value>> = (0..500i64)
            .map(|i| {
                let wide = i.wrapping_mul(0x9e37_79b9_7f4a_7c15_u64 as i64);
                vec![
                    Value::Int(wide % 7),
                    Value::Int(wide),
                    Value::Int(-wide),
                    Value::Int(i),
                ]
            })
            .collect();
        agrees(&rows, &[0, 1, 2, 3]);
        agrees(&rows, &[0, 3]);
    }

    #[test]
    fn radix_sort_orders_by_the_bits_in_range() {
        // The low digit every key shares costs no pass; the bits below
        // `from` ride along.
        let keys: Vec<u64> = (0..4096u64)
            .rev()
            .map(|k| (k << 16) | (0x5a5 << 4) | (k % 16))
            .collect();
        let mut sorted = keys.clone();
        radix_sort(&mut sorted, 4, 28);
        let mut expected = keys;
        expected.sort_unstable();
        assert_eq!(sorted, expected);
        // Wide keys for so few are compared whole.
        let mut few: Vec<u128> = vec![3 << 100, 1 << 100, 2 << 100];
        radix_sort(&mut few, 0, 102);
        assert_eq!(few, [1 << 100, 2 << 100, 3 << 100]);
    }

    /// A cell of type `kind` out of pools that stress the encodings:
    /// ints at the ends of their range, signed zeros, infinities and NaN
    /// payloads, strings that tie on 8 and 16 bytes or differ in a
    /// trailing NUL, spans across documents — or one made from `raw`.
    fn adversarial(kind: u8, pick: u8, raw: u64) -> Value {
        const INTS: [i64; 7] = [
            i64::MIN,
            i64::MIN + 1,
            -(1 << 40),
            -1,
            1 << 40,
            i64::MAX - 1,
            i64::MAX,
        ];
        const FLOATS: [u64; 8] = [
            0x8000_0000_0000_0000, // -0.0
            0,                     // 0.0
            0x7ff0_0000_0000_0000, // inf
            0xfff0_0000_0000_0000, // -inf
            0x7ff8_0000_0000_0000, // NaN
            0xfff8_0000_0000_0001, // a negative NaN with a payload
            0x7ff0_0000_0000_0001, // a signalling NaN
            0x0000_0000_0000_0001, // the least subnormal
        ];
        const STEMS: [&str; 3] = ["", "abcdefgh", "abcdefghijklmnop"];
        const TAILS: [&str; 9] = [
            "",
            "\0",
            "\0\0",
            "a",
            "a\0",
            "é",
            "日本",
            "zzzzzzzzz",
            "\u{10ffff}",
        ];
        let pick = usize::from(pick);
        match kind % 5 {
            0 => Value::Int(match pick % 4 {
                0 => raw as i64,
                1 => (raw % 16) as i64 - 8,
                _ => INTS[pick % INTS.len()],
            }),
            1 => Value::Float(f64::from_bits(match pick % 3 {
                0 => raw,
                1 => (raw % 9) << 52,
                _ => FLOATS[pick % FLOATS.len()],
            })),
            2 => {
                let tail = TAILS[raw as usize % TAILS.len()];
                Value::str(format!("{}{tail}", STEMS[pick % STEMS.len()]))
            }
            3 => {
                let doc = DocId::from_index([0, 1, 7, u32::MAX][pick % 4]);
                let start = (raw % 20) as usize;
                Value::Span(Span::new(doc, start, start + (raw >> 8) as usize % 5))
            }
            _ => Value::Bool(raw & 1 == 1),
        }
    }

    /// Rows of `shapes.len()` columns out of `cells`: a shape below 5 is
    /// the type of every cell of its column, 5 a column of mixed types,
    /// and 6 to 11 a column of strings sharing a stem, with tails of at
    /// most seven bytes (below 9: an exact key) or eight (a prefix).
    fn adversarial_rows(shapes: &[u8], cells: &[(u8, u8, u64)]) -> Vec<Vec<Value>> {
        const STEMS: [&str; 3] = ["", "abcdefgh", "abcdefghijklmnop"];
        const TAILS: [&str; 10] = [
            "", "\0", "\0\0", "a", "a\0", "é", "日本", "0123456", "01234567", "01234568",
        ];
        let cell = |(&shape, &(kind, pick, raw)): (&u8, &(u8, u8, u64))| match shape {
            0..5 => adversarial(shape, pick, raw),
            5 => adversarial(kind, pick, raw),
            _ => {
                let tails = if shape < 9 { &TAILS[..8] } else { &TAILS[..] };
                let stem = STEMS[usize::from(shape) % 3];
                Value::str(format!("{stem}{}", tails[raw as usize % tails.len()]))
            }
        };
        let row = |cells: &[(u8, u8, u64)]| shapes.iter().zip(cells).map(cell).collect();
        cells.chunks_exact(shapes.len()).map(row).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The kernel's order is `sort_by(Value::cmp)` on the columns,
        /// through the radix path (and the comparison path below the
        /// cutoff), over every mix of types.
        #[test]
        fn the_order_is_value_cmp(
            shapes in prop::collection::vec(0u8..12, 1..4),
            cells in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u64>()), 0..900),
            cols in prop::collection::vec(0usize..4, 1..5),
            radix_from in 0usize..2,
        ) {
            let rows = adversarial_rows(&shapes, &cells);
            let cols: Vec<usize> = cols.iter().map(|c| c % shapes.len()).collect();
            let radix_from = [0, RADIX_FROM][radix_from];
            let got = on(ordered(&rows, &cols, radix_from), &cols);
            prop_assert_eq!(got, on(reference(&rows, &cols), &cols));
        }
    }

    /// Large inputs, as a release build sorts them: keys in two words,
    /// tie-broken prefix strings, mixed columns.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow without optimisations")]
    fn large_inputs_agree_with_value_cmp() {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for shapes in [[0, 0, 0], [2, 3, 0], [5, 2, 1], [3, 3, 4], [7, 10, 0]] {
            let cells: Vec<(u8, u8, u64)> = (0..150_000 * 3)
                .map(|_| (next() as u8, next() as u8, next()))
                .collect();
            let rows = adversarial_rows(&shapes, &cells);
            agrees(&rows, &[0, 1, 2]);
            agrees(&rows, &[2, 0]);
        }
    }

    #[test]
    fn no_rows_and_one_row() {
        assert!(sort_order(&[], &[0]).is_empty());
        let row = [Value::Int(1)];
        assert_eq!(
            sort_order(&[&row[..]], &[0]).iter().collect::<Vec<_>>(),
            [0]
        );
    }
}
