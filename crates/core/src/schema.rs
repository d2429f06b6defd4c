//! Relation schemas.
//!
//! A schema in the paper (§2) is "a sequence of types, where each type is
//! either *str* or *span*"; the implementation additionally supports the
//! numeric primitives the paper mentions as a natural extension.

use crate::error::CoreError;
use crate::value::Value;
use std::fmt;
use std::str::FromStr;

/// The type of one relation column / one IE-function argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ValueType {
    /// A string.
    Str,
    /// A span over a document.
    Span,
    /// A 64-bit signed integer.
    Int,
    /// A boolean.
    Bool,
    /// A 64-bit float.
    Float,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ValueType::Str => "str",
            ValueType::Span => "span",
            ValueType::Int => "int",
            ValueType::Bool => "bool",
            ValueType::Float => "float",
        };
        f.write_str(name)
    }
}

impl FromStr for ValueType {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "str" | "string" => Ok(ValueType::Str),
            "span" => Ok(ValueType::Span),
            "int" => Ok(ValueType::Int),
            "bool" => Ok(ValueType::Bool),
            "float" => Ok(ValueType::Float),
            other => Err(format!("unknown type name: {other:?}")),
        }
    }
}

/// An ordered sequence of column types.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Schema {
    types: Vec<ValueType>,
}

impl Schema {
    /// Builds a schema from a list of column types.
    pub fn new(types: impl Into<Vec<ValueType>>) -> Self {
        Schema {
            types: types.into(),
        }
    }

    /// The empty (nullary) schema.
    pub fn empty() -> Self {
        Schema { types: Vec::new() }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.types.len()
    }

    /// Whether the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// The column types in order.
    pub fn types(&self) -> &[ValueType] {
        &self.types
    }

    /// The type of column `i`, if it exists.
    pub fn column(&self, i: usize) -> Option<ValueType> {
        self.types.get(i).copied()
    }

    /// Checks a row against the schema: arity and per-column types.
    pub fn check(&self, row: &[Value]) -> Result<(), CoreError> {
        if row.len() != self.arity() {
            return Err(CoreError::ArityMismatch {
                expected: self.arity(),
                actual: row.len(),
            });
        }
        for (i, (v, t)) in row.iter().zip(&self.types).enumerate() {
            if v.value_type() != *t {
                return Err(CoreError::TypeMismatch {
                    column: i,
                    expected: *t,
                    actual: v.value_type(),
                });
            }
        }
        Ok(())
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, t) in self.types.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<ValueType>> for Schema {
    fn from(types: Vec<ValueType>) -> Self {
        Schema { types }
    }
}

impl From<&[ValueType]> for Schema {
    fn from(types: &[ValueType]) -> Self {
        Schema {
            types: types.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_type_names() {
        assert_eq!("str".parse::<ValueType>().unwrap(), ValueType::Str);
        assert_eq!("string".parse::<ValueType>().unwrap(), ValueType::Str);
        assert_eq!("span".parse::<ValueType>().unwrap(), ValueType::Span);
        assert_eq!("int".parse::<ValueType>().unwrap(), ValueType::Int);
        assert!("spam".parse::<ValueType>().is_err());
    }

    #[test]
    fn display_round_trips_with_parse() {
        for t in [
            ValueType::Str,
            ValueType::Span,
            ValueType::Int,
            ValueType::Bool,
            ValueType::Float,
        ] {
            assert_eq!(t.to_string().parse::<ValueType>().unwrap(), t);
        }
    }

    #[test]
    fn arity_and_access() {
        let s = Schema::new(vec![ValueType::Str, ValueType::Span]);
        assert_eq!(s.arity(), 2);
        assert_eq!(s.column(1), Some(ValueType::Span));
        assert_eq!(s.column(2), None);
    }

    #[test]
    fn schema_display() {
        let s = Schema::new(vec![ValueType::Str, ValueType::Span]);
        assert_eq!(s.to_string(), "(str, span)");
        assert_eq!(Schema::empty().to_string(), "()");
    }
}
