//! The dynamically-typed cell of a Spannerlog relation.
//!
//! The paper restricts the formal treatment to strings and spans (§2) and
//! notes that "IE functions can be extended to handle other primitives
//! (e.g., numbers)"; the shipped system supports them, and so do we:
//! [`Value`] covers strings, spans, 64-bit integers, booleans, and floats.
//!
//! Relations are *sets* that must be sortable for deterministic export, so
//! `Value` implements a **total** order (strings by their bytes, floats by
//! `f64::total_cmp`, and values of different types by a fixed type rank).
//!
//! A cell is two words (16 bytes). A string is a [`Str`]: one pointer to
//! its shared text and the hash of that text, taken once from its bytes
//! when the string is made. Hashing a string cell — to dedupe a row,
//! group a batch or index a relation — therefore costs one word, however
//! long the document, and two strings with different hashes compare
//! unequal without reading their bytes.

use crate::schema::ValueType;
use crate::span::Span;
use rustc_hash::FxHasher;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// An immutable shared string that carries the hash of its bytes.
///
/// The hash is computed once, when the string is made, from its bytes
/// alone — never from an address or a per-process seed — so equal texts
/// hash equal in every process. Cloning shares the allocation. Equality
/// checks for one shared allocation, then the hashes, then the bytes;
/// order is byte order, as for `str`. The text dereferences to `&str`.
#[derive(Clone)]
pub struct Str(Arc<Hashed>);

/// What a [`Str`] points at: a thin pointer keeps [`Value`] two words.
struct Hashed {
    hash: u64,
    text: Arc<str>,
}

impl Str {
    /// Shares `text` and hashes its bytes.
    pub fn new(text: impl Into<Arc<str>>) -> Self {
        let text = text.into();
        let mut hasher = FxHasher::default();
        hasher.write(text.as_bytes());
        // The length tells apart texts that differ only in trailing NULs,
        // which the word-padded byte hash does not.
        hasher.write_usize(text.len());
        Str(Arc::new(Hashed {
            hash: hasher.finish(),
            text,
        }))
    }

    /// The text.
    pub fn as_str(&self) -> &str {
        &self.0.text
    }

    /// The shared text itself, for callers that keep it (the document
    /// store interns it without a copy).
    pub fn as_arc(&self) -> &Arc<str> {
        &self.0.text
    }
}

impl Deref for Str {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0.text
    }
}

impl PartialEq for Str {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
            || (self.0.hash == other.0.hash && self.0.text == other.0.text)
    }
}

impl Eq for Str {}

impl Hash for Str {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.hash);
    }
}

impl PartialOrd for Str {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Str {
    fn cmp(&self, other: &Self) -> Ordering {
        if Arc::ptr_eq(&self.0, &other.0) {
            return Ordering::Equal;
        }
        self.0.text.cmp(&other.0.text)
    }
}

impl fmt::Debug for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self)
    }
}

/// A single cell value in a relation: two words.
#[derive(Debug, Clone)]
pub enum Value {
    /// A string, hashed once when it was made; cloning shares it.
    Str(Str),
    /// A span ⟨d, i, j⟩ into an interned document.
    Span(Span),
    /// A 64-bit signed integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// A 64-bit float, totally ordered via `total_cmp`.
    Float(f64),
}

impl Value {
    /// Builds a string value from anything string-like, hashing its
    /// text. To put one string in many cells, build it once and clone.
    pub fn str(s: impl Into<Arc<str>>) -> Self {
        Value::Str(Str::new(s))
    }

    /// The runtime type of this value.
    pub fn value_type(&self) -> ValueType {
        match self {
            Value::Str(_) => ValueType::Str,
            Value::Span(_) => ValueType::Span,
            Value::Int(_) => ValueType::Int,
            Value::Bool(_) => ValueType::Bool,
            Value::Float(_) => ValueType::Float,
        }
    }

    /// Returns the string content if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Returns the span if this is a `Span`.
    pub fn as_span(&self) -> Option<&Span> {
        match self {
            Value::Span(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the integer if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the boolean if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the float if this is a `Float`.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Rank used to order values of different types; stable across runs.
    pub(crate) fn type_rank(&self) -> u8 {
        match self {
            Value::Str(_) => 0,
            Value::Span(_) => 1,
            Value::Int(_) => 2,
            Value::Bool(_) => 3,
            Value::Float(_) => 4,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Span(a), Value::Span(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            // Bit-level equality keeps Eq/Hash consistent (NaN == NaN here,
            // which is what set semantics needs, not IEEE semantics).
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u8(self.type_rank());
        match self {
            Value::Str(s) => s.hash(state),
            Value::Span(s) => s.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Bool(b) => b.hash(state),
            Value::Float(f) => f.to_bits().hash(state),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Span(a), Value::Span(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "\"{}\"", s),
            Value::Span(s) => write!(f, "{}", s),
            Value::Int(i) => write!(f, "{}", i),
            Value::Bool(b) => write!(f, "{}", b),
            Value::Float(x) => write!(f, "{}", x),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::str(s)
    }
}

impl From<Span> for Value {
    fn from(s: Span) -> Self {
        Value::Span(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

// A cell is two words: the thin `Str` pointer, or a 12-byte span, next
// to the tag.
const _: () = assert!(std::mem::size_of::<Value>() == 16);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::DocId;
    use crate::rows::hash_cells;

    #[test]
    fn a_strings_hash_depends_only_on_its_bytes() {
        let text = "the same words";
        let built = [
            Value::str(text),
            Value::str(text.to_string()),
            Value::str(Arc::<str>::from(text)),
            Value::from(text),
            Value::Str(Str::new(text)),
        ];
        for value in &built {
            assert_eq!(value, &built[0]);
            assert_eq!(value.cmp(&built[0]), Ordering::Equal);
            assert_eq!(hash_cells([value]), hash_cells([&built[0]]));
        }
        assert_ne!(
            hash_cells([&Value::str("a")]),
            hash_cells([&Value::str("a\0")])
        );
    }

    #[test]
    fn every_byte_of_a_string_reaches_its_hash() {
        let mut bytes = vec![b'x'; 1000];
        let a = Value::str(String::from_utf8(bytes.clone()).unwrap());
        bytes[500] = b'y';
        let b = Value::str(String::from_utf8(bytes).unwrap());
        assert_ne!(a, b);
        assert_ne!(hash_cells([&a]), hash_cells([&b]));
    }

    #[test]
    fn strings_order_by_their_bytes() {
        let mut values: Vec<Value> = ["b", "ab", "B", "a", "", "é"]
            .into_iter()
            .map(Value::str)
            .collect();
        values.sort();
        let sorted: Vec<&str> = values.iter().filter_map(Value::as_str).collect();
        assert_eq!(sorted, ["", "B", "a", "ab", "b", "é"]);
    }

    #[test]
    fn type_introspection() {
        assert_eq!(Value::str("a").value_type(), ValueType::Str);
        assert_eq!(Value::Int(1).value_type(), ValueType::Int);
        assert_eq!(Value::Bool(true).value_type(), ValueType::Bool);
        assert_eq!(Value::Float(1.5).value_type(), ValueType::Float);
        let s = Span::new(DocId::from_index(0), 0, 1);
        assert_eq!(Value::Span(s).value_type(), ValueType::Span);
    }

    #[test]
    fn accessors_return_only_matching_variant() {
        let v = Value::str("x");
        assert_eq!(v.as_str(), Some("x"));
        assert_eq!(v.as_int(), None);
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Bool(false).as_bool(), Some(false));
        assert_eq!(Value::Float(2.0).as_float(), Some(2.0));
    }

    #[test]
    fn nan_is_self_equal_under_set_semantics() {
        let a = Value::Float(f64::NAN);
        let b = Value::Float(f64::NAN);
        assert_eq!(a, b);
    }

    #[test]
    fn float_total_order_handles_nan_and_zero() {
        let mut values = [
            Value::Float(f64::NAN),
            Value::Float(1.0),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Float(f64::NEG_INFINITY),
        ];
        values.sort();
        // total_cmp: -inf < -0.0 < 0.0 < 1.0 < NaN
        assert_eq!(values[0], Value::Float(f64::NEG_INFINITY));
        assert_eq!(values[3], Value::Float(1.0));
        assert!(matches!(values[4], Value::Float(x) if x.is_nan()));
    }

    #[test]
    fn cross_type_order_is_stable() {
        let mut values = vec![Value::Int(0), Value::str("z"), Value::Bool(true)];
        values.sort();
        assert_eq!(
            values,
            vec![Value::str("z"), Value::Int(0), Value::Bool(true)]
        );
    }

    #[test]
    fn display_quotes_strings_only() {
        assert_eq!(Value::str("a b").to_string(), "\"a b\"");
        assert_eq!(Value::Int(-4).to_string(), "-4");
        assert_eq!(Value::Bool(true).to_string(), "true");
    }

    #[test]
    fn conversions_from_host_types() {
        assert_eq!(Value::from("s"), Value::str("s"));
        assert_eq!(Value::from(5i64), Value::Int(5));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(0.5), Value::Float(0.5));
    }
}
