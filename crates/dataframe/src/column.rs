//! Typed columns.

use spannerlib_core::{Span, Str, Value, ValueType};

/// A homogeneous column of values.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// String column. A cell keeps the hash its string was made with,
    /// so a frame built from values imports without hashing again.
    Str(Vec<Str>),
    /// Span column.
    Span(Vec<Span>),
    /// Integer column.
    Int(Vec<i64>),
    /// Boolean column.
    Bool(Vec<bool>),
    /// Float column.
    Float(Vec<f64>),
}

impl Column {
    /// An empty column of the given type.
    pub fn empty(t: ValueType) -> Column {
        match t {
            ValueType::Str => Column::Str(Vec::new()),
            ValueType::Span => Column::Span(Vec::new()),
            ValueType::Int => Column::Int(Vec::new()),
            ValueType::Bool => Column::Bool(Vec::new()),
            ValueType::Float => Column::Float(Vec::new()),
        }
    }

    /// The column's element type.
    pub fn value_type(&self) -> ValueType {
        match self {
            Column::Str(_) => ValueType::Str,
            Column::Span(_) => ValueType::Span,
            Column::Int(_) => ValueType::Int,
            Column::Bool(_) => ValueType::Bool,
            Column::Float(_) => ValueType::Float,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Str(v) => v.len(),
            Column::Span(v) => v.len(),
            Column::Int(v) => v.len(),
            Column::Bool(v) => v.len(),
            Column::Float(v) => v.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at row `i`, if in bounds.
    pub fn get(&self, i: usize) -> Option<Value> {
        match self {
            Column::Str(v) => v.get(i).map(|s| Value::Str(s.clone())),
            Column::Span(v) => v.get(i).map(|s| Value::Span(*s)),
            Column::Int(v) => v.get(i).map(|x| Value::Int(*x)),
            Column::Bool(v) => v.get(i).map(|x| Value::Bool(*x)),
            Column::Float(v) => v.get(i).map(|x| Value::Float(*x)),
        }
    }

    /// Appends a value; returns `false` (without modifying the column)
    /// when the value's type does not match.
    pub fn push(&mut self, value: Value) -> bool {
        match (self, value) {
            (Column::Str(v), Value::Str(s)) => v.push(s),
            (Column::Span(v), Value::Span(s)) => v.push(s),
            (Column::Int(v), Value::Int(x)) => v.push(x),
            (Column::Bool(v), Value::Bool(x)) => v.push(x),
            (Column::Float(v), Value::Float(x)) => v.push(x),
            _ => return false,
        }
        true
    }

    /// A column of `value_type` holding `cells` in order, matching the
    /// type once for the whole column; `Err` carries the type of the
    /// first cell that is not a `value_type`.
    pub fn gather(
        value_type: ValueType,
        cells: impl Iterator<Item = Value>,
    ) -> Result<Column, ValueType> {
        fn typed<T>(
            cells: impl Iterator<Item = Value>,
            cell: impl Fn(Value) -> Result<T, Value>,
        ) -> Result<Vec<T>, ValueType> {
            let mut out = Vec::with_capacity(cells.size_hint().0);
            for value in cells {
                out.push(cell(value).map_err(|other| other.value_type())?);
            }
            Ok(out)
        }
        Ok(match value_type {
            ValueType::Str => Column::Str(typed(cells, |v| match v {
                Value::Str(s) => Ok(s),
                other => Err(other),
            })?),
            ValueType::Span => Column::Span(typed(cells, |v| match v {
                Value::Span(s) => Ok(s),
                other => Err(other),
            })?),
            ValueType::Int => Column::Int(typed(cells, |v| v.as_int().ok_or(v))?),
            ValueType::Bool => Column::Bool(typed(cells, |v| v.as_bool().ok_or(v))?),
            ValueType::Float => Column::Float(typed(cells, |v| v.as_float().ok_or(v))?),
        })
    }

    /// A new column keeping only the rows whose indices appear in `keep`,
    /// in the given order.
    pub fn take(&self, keep: &[usize]) -> Column {
        match self {
            Column::Str(v) => Column::Str(keep.iter().map(|&i| v[i].clone()).collect()),
            Column::Span(v) => Column::Span(keep.iter().map(|&i| v[i]).collect()),
            Column::Int(v) => Column::Int(keep.iter().map(|&i| v[i]).collect()),
            Column::Bool(v) => Column::Bool(keep.iter().map(|&i| v[i]).collect()),
            Column::Float(v) => Column::Float(keep.iter().map(|&i| v[i]).collect()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spannerlib_core::DocId;

    #[test]
    fn push_enforces_type() {
        let mut c = Column::empty(ValueType::Int);
        assert!(c.push(Value::Int(1)));
        assert!(!c.push(Value::str("no")));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn get_round_trips() {
        let mut c = Column::empty(ValueType::Str);
        c.push(Value::str("hello"));
        assert_eq!(c.get(0), Some(Value::str("hello")));
        assert_eq!(c.get(1), None);
    }

    #[test]
    fn span_column() {
        let mut c = Column::empty(ValueType::Span);
        let s = Span::new(DocId::from_index(0), 1, 4);
        assert!(c.push(Value::Span(s)));
        assert_eq!(c.get(0), Some(Value::Span(s)));
        assert_eq!(c.value_type(), ValueType::Span);
    }

    #[test]
    fn gather_types_a_column_once() {
        let cells = [Value::Int(3), Value::Int(-1)];
        let column = Column::gather(ValueType::Int, cells.into_iter()).unwrap();
        assert_eq!(column, Column::Int(vec![3, -1]));
        let mixed = [Value::Int(3), Value::str("x")];
        assert_eq!(
            Column::gather(ValueType::Int, mixed.into_iter()),
            Err(ValueType::Str)
        );
        let empty = Column::gather(ValueType::Span, std::iter::empty()).unwrap();
        assert_eq!(empty, Column::empty(ValueType::Span));
    }

    #[test]
    fn take_reorders() {
        let mut c = Column::empty(ValueType::Int);
        for i in 0..5 {
            c.push(Value::Int(i));
        }
        let t = c.take(&[4, 0, 2]);
        assert_eq!(t.get(0), Some(Value::Int(4)));
        assert_eq!(t.get(1), Some(Value::Int(0)));
        assert_eq!(t.get(2), Some(Value::Int(2)));
        assert_eq!(t.len(), 3);
    }
}
