//! Relations: typed sets of tuples, stored as an append-only row arena.
//!
//! Spannerlog semantics is pure set semantics, so a relation is its
//! distinct rows: one flat [`Rows`] store of `len × arity` cells plus a
//! [`RowTable`] of row ids that inserts are deduplicated through. Rows
//! keep insertion order, so a *row id* — a row's position — is stable
//! for exactly as long as the relation only grows: what a round of
//! evaluation appended is a range of ids, and an index over the first
//! `n` rows is extended, not rebuilt, when more arrive. Removal compacts
//! and renumbers. Export paths ([`Relation::sorted_tuples`]) sort, all
//! with [`sort_order`].

use crate::error::CoreError;
use crate::order::sort_order;
use crate::rows::{hash_cells, RowTable, Rows};
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use std::fmt;

/// A set of tuples conforming to a [`Schema`].
#[derive(Debug, Clone, Default)]
pub struct Relation {
    schema: Schema,
    rows: Rows,
    /// Every row id of `rows`, under the hash of the whole row.
    table: RowTable,
}

impl Relation {
    /// Creates an empty relation with the given schema.
    pub fn new(schema: Schema) -> Self {
        Relation {
            rows: Rows::new(schema.arity()),
            schema,
            table: RowTable::default(),
        }
    }

    /// Creates a relation and inserts `tuples`, checking each against the
    /// schema.
    pub fn from_tuples(
        schema: Schema,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<Self, CoreError> {
        let mut rel = Relation::new(schema);
        for t in tuples {
            rel.insert(t)?;
        }
        Ok(rel)
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The arena: rows by id, in insertion order.
    pub fn rows(&self) -> &Rows {
        &self.rows
    }

    /// Inserts a tuple after validating it against the schema. Returns
    /// `true` when the tuple was new.
    pub fn insert(&mut self, tuple: Tuple) -> Result<bool, CoreError> {
        self.insert_row(tuple.values())
    }

    /// Inserts a row of borrowed cells after validating it against the
    /// schema; the cells are cloned only if the row is new.
    pub fn insert_row(&mut self, row: &[Value]) -> Result<bool, CoreError> {
        self.schema.check(row)?;
        Ok(self.insert_row_unchecked(row))
    }

    /// [`Relation::insert_row`] for a relation whose columns may hold
    /// values of several types: the caller guarantees the row's arity.
    pub fn insert_row_unchecked(&mut self, row: &[Value]) -> bool {
        self.rows.push_distinct(&mut self.table, row.iter())
    }

    /// The id of the row equal to `row`, if the relation holds one.
    pub fn row_id(&self, row: &[Value]) -> Option<usize> {
        let rows = &self.rows;
        self.table.find(hash_cells(row), |id| rows.row(id) == row)
    }

    /// Whether the relation contains `tuple`.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.row_id(tuple.values()).is_some()
    }

    /// Removes one tuple. Returns `true` when it was present. Linear in
    /// the relation: drop many rows with one [`Relation::retain`].
    pub fn remove(&mut self, tuple: &Tuple) -> bool {
        let found = self.row_id(tuple.values());
        found
            .inspect(|&gone| drop(self.retain(|id, _| id != gone)))
            .is_some()
    }

    /// Keeps the rows `keep(id, row)` holds for, in order; the rows
    /// after a dropped one get new ids. Returns the new id of every old
    /// row (`None` for a dropped one), for whatever indexes the old ids.
    pub fn retain(&mut self, mut keep: impl FnMut(usize, &[Value]) -> bool) -> Vec<Option<usize>> {
        let mut new_ids: Vec<Option<usize>> = vec![None; self.len()];
        let mut kept = 0;
        self.rows.retain(|id, row| {
            let keeps = keep(id, row);
            if keeps {
                new_ids[id] = Some(kept);
                kept += 1;
            }
            keeps
        });
        self.table = self.table.renumber(|id| new_ids[id]);
        new_ids
    }

    /// The rows with ids in `ids`, as a relation of the same schema.
    pub fn subset(&self, ids: impl IntoIterator<Item = usize>) -> Relation {
        let mut out = Relation::new(self.schema.clone());
        for id in ids {
            out.rows
                .push_distinct(&mut out.table, self.rows.row(id).iter());
        }
        out
    }

    /// Iterates over rows in insertion order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[Value]> + Clone {
        self.rows.iter()
    }

    /// All tuples, sorted lexicographically — the deterministic export
    /// order used by `Session::export` and the DataFrame bridge, which
    /// [`sort_order`] computes.
    pub fn sorted_tuples(&self) -> Vec<Tuple> {
        let rows: Vec<&[Value]> = self.iter().collect();
        let cols: Vec<usize> = (0..self.schema.arity()).collect();
        let order = sort_order(&rows, &cols);
        order
            .iter()
            .map(|id| Tuple::new(rows[id].to_vec()))
            .collect()
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.len() == other.len()
            && self.iter().all(|row| other.row_id(row).is_some())
    }
}

impl Eq for Relation {}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} [{} tuples]", self.schema, self.len())?;
        for t in self.sorted_tuples() {
            writeln!(f, "  {t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ValueType;
    use crate::value::Value;

    fn int_schema(n: usize) -> Schema {
        Schema::new(vec![ValueType::Int; n])
    }

    fn t(vals: &[i64]) -> Tuple {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn insert_deduplicates() {
        let mut r = Relation::new(int_schema(1));
        assert!(r.insert(t(&[1])).unwrap());
        assert!(!r.insert(t(&[1])).unwrap());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn insert_rejects_schema_violations() {
        let mut r = Relation::new(int_schema(2));
        assert!(r.insert(t(&[1])).is_err());
        assert!(r
            .insert(Tuple::new([Value::str("a"), Value::Int(1)]))
            .is_err());
    }

    #[test]
    fn remove_retracts_present_tuples_only() {
        let mut r = Relation::from_tuples(int_schema(1), [t(&[1]), t(&[2])]).unwrap();
        assert!(r.remove(&t(&[1])));
        assert!(!r.remove(&t(&[1])));
        assert_eq!(r.len(), 1);
        assert!(r.contains(&t(&[2])));
    }

    #[test]
    fn subset_keeps_the_schema_and_the_picked_rows() {
        let r = Relation::from_tuples(int_schema(1), [t(&[1]), t(&[2]), t(&[3])]).unwrap();
        let picked = r.subset([2, 0]);
        assert_eq!(picked.schema(), r.schema());
        assert_eq!(picked.sorted_tuples(), [t(&[1]), t(&[3])]);
    }

    #[test]
    fn sorted_tuples_are_deterministic() {
        let mut r = Relation::new(int_schema(1));
        for v in [5, 1, 3, 2, 4] {
            r.insert(t(&[v])).unwrap();
        }
        let sorted: Vec<i64> = r
            .sorted_tuples()
            .iter()
            .map(|t| t[0].as_int().unwrap())
            .collect();
        assert_eq!(sorted, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn equality_is_set_equality() {
        let a = Relation::from_tuples(int_schema(1), [t(&[1]), t(&[2])]).unwrap();
        let b = Relation::from_tuples(int_schema(1), [t(&[2]), t(&[1])]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn display_lists_sorted() {
        let r = Relation::from_tuples(int_schema(1), [t(&[2]), t(&[1])]).unwrap();
        let s = r.to_string();
        let pos1 = s.find("(1)").unwrap();
        let pos2 = s.find("(2)").unwrap();
        assert!(pos1 < pos2);
    }
}
