//! The [`DataFrame`] itself.

use crate::column::Column;
use crate::error::FrameError;
use spannerlib_core::{Relation, Schema, Value, ValueType};
use std::fmt;

/// A named-column, typed, row-aligned table.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DataFrame {
    names: Vec<String>,
    columns: Vec<Column>,
}

impl DataFrame {
    /// An empty frame with the given column names and types.
    pub fn new(columns: Vec<(String, ValueType)>) -> Result<DataFrame, FrameError> {
        check_unique(columns.iter().map(|(n, _)| n.as_str()))?;
        let (names, columns) = columns
            .into_iter()
            .map(|(n, t)| (n, Column::empty(t)))
            .unzip();
        Ok(DataFrame { names, columns })
    }

    /// Builds a frame from rows of values. Column types are taken from the
    /// first row; every row must conform.
    pub fn from_rows(names: Vec<String>, rows: Vec<Vec<Value>>) -> Result<DataFrame, FrameError> {
        check_unique(names.iter().map(|s| s.as_str()))?;
        let first = rows.first().ok_or(FrameError::NoColumns)?;
        if first.len() != names.len() {
            return Err(FrameError::ArityMismatch {
                expected: names.len(),
                actual: first.len(),
            });
        }
        let mut df = DataFrame {
            columns: first
                .iter()
                .map(|v| Column::empty(v.value_type()))
                .collect(),
            names,
        };
        for row in rows {
            df.push_row(row)?;
        }
        Ok(df)
    }

    /// Builds a frame from named columns (lengths must agree).
    pub fn from_columns(columns: Vec<(String, Column)>) -> Result<DataFrame, FrameError> {
        check_unique(columns.iter().map(|(n, _)| n.as_str()))?;
        if let Some(expected) = columns.first().map(|(_, c)| c.len()) {
            for (name, col) in &columns {
                if col.len() != expected {
                    return Err(FrameError::RaggedColumns {
                        column: name.clone(),
                        actual: col.len(),
                        expected,
                    });
                }
            }
        }
        let (names, columns) = columns.into_iter().unzip();
        Ok(DataFrame { names, columns })
    }

    /// Column names, in order.
    pub fn column_names(&self) -> &[String] {
        &self.names
    }

    /// The columns, aligned with [`DataFrame::column_names`].
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// The engine schema corresponding to this frame's column types.
    pub fn schema(&self) -> Schema {
        Schema::new(
            self.columns
                .iter()
                .map(Column::value_type)
                .collect::<Vec<_>>(),
        )
    }

    /// The column named `name`.
    pub fn column(&self, name: &str) -> Result<&Column, FrameError> {
        self.index_of(name).map(|i| &self.columns[i])
    }

    /// Index of the column named `name`.
    pub fn index_of(&self, name: &str) -> Result<usize, FrameError> {
        self.names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| FrameError::NoSuchColumn(name.to_string()))
    }

    /// The cell at `(row, col)`.
    pub fn get(&self, row: usize, col: usize) -> Option<Value> {
        self.columns.get(col)?.get(row)
    }

    /// Appends one row.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<(), FrameError> {
        if row.len() != self.columns.len() {
            return Err(FrameError::ArityMismatch {
                expected: self.columns.len(),
                actual: row.len(),
            });
        }
        // Validate first so a failed push leaves the frame unchanged.
        for ((value, column), name) in row.iter().zip(&self.columns).zip(&self.names) {
            if value.value_type() != column.value_type() {
                return Err(FrameError::TypeMismatch {
                    column: name.clone(),
                    expected: column.value_type(),
                    actual: value.value_type(),
                });
            }
        }
        for (value, column) in row.into_iter().zip(&mut self.columns) {
            let pushed = column.push(value);
            debug_assert!(pushed, "validated above");
        }
        Ok(())
    }

    /// Row `i` as a vector of values.
    pub fn row(&self, i: usize) -> Option<Vec<Value>> {
        if i >= self.num_rows() {
            return None;
        }
        Some(
            self.columns
                .iter()
                .map(|c| c.get(i).expect("aligned columns"))
                .collect(),
        )
    }

    /// Iterates over rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        (0..self.num_rows()).map(|i| self.row(i).expect("in range"))
    }

    /// A new frame with only the named columns, in the given order.
    pub fn select(&self, names: &[&str]) -> Result<DataFrame, FrameError> {
        let idx: Vec<usize> = names
            .iter()
            .map(|n| self.index_of(n))
            .collect::<Result<_, _>>()?;
        Ok(DataFrame {
            names: names.iter().map(|n| n.to_string()).collect(),
            columns: idx.iter().map(|&i| self.columns[i].clone()).collect(),
        })
    }

    /// A new frame with only the rows satisfying `predicate`.
    pub fn filter(&self, mut predicate: impl FnMut(&[Value]) -> bool) -> DataFrame {
        let keep: Vec<usize> = (0..self.num_rows())
            .filter(|&i| {
                let row = self.row(i).expect("in range");
                predicate(&row)
            })
            .collect();
        self.take(&keep)
    }

    /// A new frame sorted (stably) by the named column.
    pub fn sort_by(&self, name: &str) -> Result<DataFrame, FrameError> {
        let col = self.index_of(name)?;
        let mut order: Vec<usize> = (0..self.num_rows()).collect();
        order.sort_by_key(|&i| self.columns[col].get(i).expect("in range"));
        Ok(self.take(&order))
    }

    /// The first `n` rows.
    pub fn head(&self, n: usize) -> DataFrame {
        let keep: Vec<usize> = (0..self.num_rows().min(n)).collect();
        self.take(&keep)
    }

    fn take(&self, keep: &[usize]) -> DataFrame {
        DataFrame {
            names: self.names.clone(),
            columns: self.columns.iter().map(|c| c.take(keep)).collect(),
        }
    }

    /// Converts every row into a typed host value via [`FromRow`] —
    /// `df.to_typed::<(String, i64)>()` or any domain struct
    /// implementing the trait.
    ///
    /// [`FromRow`]: crate::row::FromRow
    pub fn to_typed<T: crate::row::FromRow>(&self) -> Result<Vec<T>, FrameError> {
        self.iter_rows().map(|row| T::from_row(&row)).collect()
    }

    /// Converts the frame into an engine [`Relation`] (set semantics —
    /// duplicate rows collapse).
    pub fn to_relation(&self) -> Relation {
        let mut rel = Relation::new(self.schema());
        for row in self.iter_rows() {
            rel.insert_row(&row).expect("rows have the frame's schema");
        }
        rel
    }
}

fn check_unique<'a>(names: impl Iterator<Item = &'a str>) -> Result<(), FrameError> {
    let mut seen = std::collections::HashSet::new();
    for n in names {
        if !seen.insert(n) {
            return Err(FrameError::DuplicateColumn(n.to_string()));
        }
    }
    Ok(())
}

impl fmt::Display for DataFrame {
    /// Renders an aligned ASCII table — the notebook-cell view.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.names.iter().map(|n| n.chars().count()).collect();
        let rendered: Vec<Vec<String>> = self
            .iter_rows()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .map(|(c, v)| {
                        let s = match v {
                            // Strings unquoted in table view, like pandas.
                            Value::Str(s) => s.to_string(),
                            other => other.to_string(),
                        };
                        widths[c] = widths[c].max(s.chars().count());
                        s
                    })
                    .collect()
            })
            .collect();
        let sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            write!(f, "+")?;
            for w in &widths {
                write!(f, "{}+", "-".repeat(w + 2))?;
            }
            writeln!(f)
        };
        sep(f)?;
        write!(f, "|")?;
        for (n, w) in self.names.iter().zip(&widths) {
            write!(f, " {:<w$} |", n, w = w)?;
        }
        writeln!(f)?;
        sep(f)?;
        for row in &rendered {
            write!(f, "|")?;
            for (cell, w) in row.iter().zip(&widths) {
                write!(f, " {:<w$} |", cell, w = w)?;
            }
            writeln!(f)?;
        }
        sep(f)?;
        write!(
            f,
            "[{} rows x {} columns]",
            self.num_rows(),
            self.num_columns()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DataFrame {
        DataFrame::from_rows(
            vec!["name".into(), "age".into()],
            vec![
                vec![Value::str("ann"), Value::Int(34)],
                vec![Value::str("bob"), Value::Int(28)],
                vec![Value::str("eve"), Value::Int(41)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_shape() {
        let df = sample();
        assert_eq!(df.num_rows(), 3);
        assert_eq!(df.num_columns(), 2);
        assert_eq!(df.column_names(), &["name", "age"]);
        assert_eq!(
            df.schema(),
            Schema::new(vec![ValueType::Str, ValueType::Int])
        );
    }

    #[test]
    fn duplicate_names_rejected() {
        assert!(DataFrame::new(vec![
            ("a".into(), ValueType::Int),
            ("a".into(), ValueType::Str)
        ])
        .is_err());
    }

    #[test]
    fn push_row_validates_atomically() {
        let mut df = sample();
        // Wrong type in second column: frame must stay unchanged.
        let err = df
            .push_row(vec![Value::str("zed"), Value::str("not an int")])
            .unwrap_err();
        assert!(matches!(err, FrameError::TypeMismatch { .. }));
        assert_eq!(df.num_rows(), 3);
        assert!(df.push_row(vec![Value::str("zed"), Value::Int(1)]).is_ok());
        assert_eq!(df.num_rows(), 4);
    }

    #[test]
    fn ragged_columns_rejected() {
        let err = DataFrame::from_columns(vec![
            ("a".into(), Column::Int(vec![1, 2])),
            ("b".into(), Column::Int(vec![1])),
        ])
        .unwrap_err();
        assert!(matches!(err, FrameError::RaggedColumns { .. }));
    }

    #[test]
    fn select_and_filter() {
        let df = sample();
        let names = df.select(&["name"]).unwrap();
        assert_eq!(names.num_columns(), 1);
        let adults = df.filter(|row| row[1].as_int().unwrap() > 30);
        assert_eq!(adults.num_rows(), 2);
    }

    #[test]
    fn select_missing_column_errors() {
        assert!(sample().select(&["nope"]).is_err());
    }

    #[test]
    fn sort_by_and_head() {
        let df = sample().sort_by("age").unwrap();
        assert_eq!(df.get(0, 0), Some(Value::str("bob")));
        let top = df.head(1);
        assert_eq!(top.num_rows(), 1);
    }

    #[test]
    fn relation_collapses_duplicates() {
        let df = DataFrame::from_rows(
            vec!["x".into()],
            vec![vec![Value::Int(1)], vec![Value::Int(1)]],
        )
        .unwrap();
        assert_eq!(df.to_relation().len(), 1);
    }

    #[test]
    fn display_contains_cells() {
        let s = sample().to_string();
        assert!(s.contains("ann"));
        assert!(s.contains("age"));
        assert!(s.contains("[3 rows x 2 columns]"));
    }

    #[test]
    fn empty_frame_display() {
        let df = DataFrame::new(vec![("x".into(), ValueType::Int)]).unwrap();
        assert!(df.to_string().contains("[0 rows x 1 columns]"));
    }
}
