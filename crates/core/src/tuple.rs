//! Tuples: fixed-arity sequences of [`Value`]s.
//!
//! A `Tuple` is the *owned* row at the API edge — what a host inserts,
//! what `Relation::sorted_tuples` hands back. It is a heap `Vec` per
//! tuple, which is why nothing inside the system stores rows this way:
//! relations and rule bodies keep them flat (see [`crate::rows`]) and
//! pass `&[Value]` slices around.

use crate::value::Value;
use std::fmt;
use std::ops::Index;

/// A relation tuple.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    /// Builds a tuple from values.
    pub fn new(values: impl IntoIterator<Item = Value>) -> Self {
        Tuple {
            values: values.into_iter().collect(),
        }
    }

    /// The empty (nullary) tuple.
    pub fn empty() -> Self {
        Tuple::default()
    }

    /// Number of values.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Whether this is the nullary tuple.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The values as a slice.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The value at column `i`, if present.
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.values.get(i)
    }

    /// Appends a value in place.
    pub fn push(&mut self, v: Value) {
        self.values.push(v);
    }

    /// Iterates over the values.
    pub fn iter(&self) -> std::slice::Iter<'_, Value> {
        self.values.iter()
    }

    /// Consumes the tuple, yielding its values.
    pub fn into_values(self) -> impl Iterator<Item = Value> {
        self.values.into_iter()
    }
}

impl Index<usize> for Tuple {
    type Output = Value;

    fn index(&self, i: usize) -> &Value {
        &self.values[i]
    }
}

impl AsRef<[Value]> for Tuple {
    fn as_ref(&self) -> &[Value] {
        &self.values
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Tuple::new(iter)
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple { values }
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Schema, ValueType};
    use crate::CoreError;

    fn t(vals: &[i64]) -> Tuple {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn construction_and_access() {
        let tup = Tuple::new([Value::str("a"), Value::Int(2)]);
        assert_eq!(tup.arity(), 2);
        assert_eq!(tup[0], Value::str("a"));
        assert_eq!(tup.get(1), Some(&Value::Int(2)));
        assert_eq!(tup.get(2), None);
    }

    #[test]
    fn schema_check_accepts_matching() {
        let tup = Tuple::new([Value::str("a"), Value::Int(1)]);
        let schema = Schema::new(vec![ValueType::Str, ValueType::Int]);
        assert!(schema.check(tup.values()).is_ok());
    }

    #[test]
    fn schema_check_rejects_arity() {
        let tup = t(&[1]);
        let schema = Schema::new(vec![ValueType::Int, ValueType::Int]);
        assert_eq!(
            schema.check(tup.values()).unwrap_err(),
            CoreError::ArityMismatch {
                expected: 2,
                actual: 1
            }
        );
    }

    #[test]
    fn schema_check_rejects_type() {
        let tup = Tuple::new([Value::str("a")]);
        let schema = Schema::new(vec![ValueType::Int]);
        assert_eq!(
            schema.check(tup.values()).unwrap_err(),
            CoreError::TypeMismatch {
                column: 0,
                expected: ValueType::Int,
                actual: ValueType::Str,
            }
        );
    }

    #[test]
    fn display_renders_parenthesized() {
        let tup = Tuple::new([Value::str("u"), Value::Int(7)]);
        assert_eq!(tup.to_string(), "(\"u\", 7)");
        assert_eq!(Tuple::empty().to_string(), "()");
    }

    #[test]
    fn ordering_is_lexicographic() {
        let mut tuples = vec![t(&[2, 1]), t(&[1, 9]), t(&[1, 2])];
        tuples.sort();
        assert_eq!(tuples, vec![t(&[1, 2]), t(&[1, 9]), t(&[2, 1])]);
    }
}
