//! Query evaluation: `?R(usr, "gmail")` → DataFrame.
//!
//! Query terms follow the paper's §3.2 export syntax: constants and
//! wildcards *filter* the relation, variables *project* columns. A
//! repeated variable adds an equality constraint and projects once. A
//! variable-free query returns a single boolean column reporting whether
//! any tuple matched.
//!
//! Once the fixpoint is materialised a query is a plain selection plus
//! projection, and it is evaluated as one: a [`QueryPlan`] holds
//! everything that depends only on the query text, a [`Selection`]
//! picks the matching rows *by reference* into the relation's arena,
//! and only those survivors are ordered and have their projected cells
//! cloned, a typed column at a time. The order is `Value`'s total order
//! over the full row — that of `Relation::sorted_tuples` — produced by
//! the one order kernel, [`spannerlib_core::sort_order`]. Over a frozen
//! database (a `Snapshot`) a constant-bearing query does not even scan:
//! it probes a hash index of row ids on its bound columns, built on
//! first use and shared by every reader ([`IndexCache`]). A live
//! `Session`, whose database still mutates, takes the scan.

use crate::database::Database;
use crate::error::{EngineError, Result};
use crate::optimizer::IndexCache;
use crate::safety::constant_value;
use spannerlib_core::{sort_order, Relation, Value, ValueType};
use spannerlib_dataframe::{Column, DataFrame, FrameError};
use spannerlog_parser::{parse_program, Query, Statement, Term};

/// A query compiled once: the parts of `?R(t1, …, tn)` that do not
/// depend on the data. A `PreparedQuery` carries one; an ad-hoc query
/// string builds one per call.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    predicate: String,
    arity: usize,
    /// Columns a constant binds, ascending — the key columns of the
    /// index a frozen database answers from.
    bound_cols: Vec<usize>,
    /// The constants of `bound_cols`, resolved to [`Value`]s here
    /// rather than per tuple — the key probed in that index.
    bound_vals: Vec<Value>,
    /// `(column, first column)` of each repeated variable occurrence:
    /// the two cells must be equal.
    equalities: Vec<(usize, usize)>,
    /// Projected variables in first-occurrence order, with their column.
    projection: Vec<(String, usize)>,
}

impl QueryPlan {
    /// Compiles a parsed query.
    pub fn compile(query: &Query) -> QueryPlan {
        let mut plan = QueryPlan {
            predicate: query.predicate.clone(),
            arity: query.terms.len(),
            bound_cols: Vec::new(),
            bound_vals: Vec::new(),
            equalities: Vec::new(),
            projection: Vec::new(),
        };
        for (i, term) in query.terms.iter().enumerate() {
            match term {
                Term::Wildcard => {}
                Term::Const(c) => {
                    plan.bound_cols.push(i);
                    plan.bound_vals.push(constant_value(c));
                }
                Term::Variable(v) => match plan.projection.iter().find(|(name, _)| name == v) {
                    Some(&(_, first)) => plan.equalities.push((i, first)),
                    None => plan.projection.push((v.clone(), i)),
                },
            }
        }
        plan
    }

    /// Parses and compiles a query string such as `?R(usr, "gmail")`;
    /// the source must hold exactly one query statement.
    pub fn parse(query_src: &str) -> Result<QueryPlan> {
        let program = parse_program(query_src)?;
        let [Statement::Query(query)] = &program.statements[..] else {
            return Err(EngineError::NotAQuery(query_src.trim().to_string()));
        };
        Ok(QueryPlan::compile(query))
    }

    fn matches(&self, tuple: &[Value]) -> bool {
        let mut bound = self.bound_cols.iter().zip(&self.bound_vals);
        bound.all(|(&col, value)| tuple[col] == *value) && self.unifies(tuple)
    }

    /// Whether `tuple` satisfies the repeated-variable equalities.
    fn unifies(&self, tuple: &[Value]) -> bool {
        self.equalities.iter().all(|&(a, b)| tuple[a] == tuple[b])
    }
}

/// The answer to one query over one (already fixpointed) database, not
/// yet materialised: [`select`] only resolves the relation and checks
/// the arity, [`Selection::num_rows`] reads the relation once to find
/// the matching tuples, and [`Selection::into_frame`] orders and projects
/// them. A caller that may refuse the answer — a row cap, a matching
/// `ETag` — stops before paying for the later stages.
#[derive(Debug)]
pub struct Selection<'a> {
    plan: &'a QueryPlan,
    /// `None` when the database has never seen the relation: a derived
    /// relation that produced no tuples does not exist, so the answer is
    /// empty rather than an error.
    relation: Option<&'a Relation>,
    /// The frozen database's indexes; a live session has none.
    indexes: Option<&'a IndexCache>,
    /// Rows of the relation's arena, found by a scan or through the row
    /// ids of an index.
    survivors: Option<Vec<&'a [Value]>>,
}

/// Starts answering `plan` against `db`. With `indexes` — which must
/// belong to this, frozen, `db` — a constant-bearing query probes a hash
/// index on its bound columns; without, every query scans.
pub fn select<'a>(
    db: &'a Database,
    plan: &'a QueryPlan,
    indexes: Option<&'a IndexCache>,
) -> Result<Selection<'a>> {
    let relation = db.visible(&plan.predicate);
    if let Some(relation) = relation {
        if relation.schema().arity() != plan.arity {
            return Err(EngineError::Arity {
                relation: plan.predicate.clone(),
                expected: relation.schema().arity(),
                actual: plan.arity,
                line: 0,
            });
        }
    }
    Ok(Selection {
        plan,
        relation,
        indexes,
        survivors: None,
    })
}

/// Evaluates `plan` against `db` in one go (see [`select`]).
pub fn run_query(
    db: &Database,
    plan: &QueryPlan,
    indexes: Option<&IndexCache>,
) -> Result<DataFrame> {
    select(db, plan, indexes)?.into_frame()
}

impl<'a> Selection<'a> {
    /// The matching tuples, found on first use. A boolean query needs
    /// one witness, not all of them.
    fn survivors(&mut self) -> &mut Vec<&'a [Value]> {
        let (plan, relation, indexes) = (self.plan, self.relation, self.indexes);
        self.survivors.get_or_insert_with(|| {
            let Some(relation) = relation else {
                return Vec::new();
            };
            let limit = if plan.projection.is_empty() {
                1
            } else {
                usize::MAX
            };
            match indexes {
                Some(indexes) if !plan.bound_cols.is_empty() => {
                    let index = indexes.index(&plan.predicate, relation, &plan.bound_cols);
                    let matching = index.get(relation.rows(), plan.bound_vals.iter());
                    matching
                        .iter()
                        .map(|&id| relation.rows().row(id))
                        .filter(|tuple| plan.unifies(tuple))
                        .take(limit)
                        .collect()
                }
                _ => relation
                    .iter()
                    .filter(|tuple| plan.matches(tuple))
                    .take(limit)
                    .collect(),
            }
        })
    }

    /// Number of rows [`Selection::into_frame`] will return — counted
    /// before any of them is cloned or sorted.
    pub fn num_rows(&mut self) -> usize {
        if self.plan.projection.is_empty() {
            1
        } else {
            self.survivors().len()
        }
    }

    /// Materialises the answer: survivors in full-tuple order
    /// ([`sort_order`]), projected cells only. Column types come from
    /// the relation's schema, so an empty answer is typed too; only a
    /// relation the database has never seen falls back to string
    /// columns.
    pub fn into_frame(mut self) -> Result<DataFrame> {
        let survivors = std::mem::take(self.survivors());
        let plan = self.plan;
        if plan.projection.is_empty() {
            let holds = Column::Bool(vec![!survivors.is_empty()]);
            return Ok(DataFrame::from_columns(vec![(
                "result".to_string(),
                holds,
            )])?);
        }
        // Ordered by every column: column `col` is the order's `col`-th.
        let order = sort_order(&survivors, &(0..plan.arity).collect::<Vec<_>>());
        let mut columns = Vec::with_capacity(plan.projection.len());
        for (name, col) in &plan.projection {
            let value_type = self
                .relation
                .map_or(ValueType::Str, |r| r.schema().types()[*col]);
            let cells = (0..order.len()).map(|pos| order.value(&survivors, pos, *col));
            let column =
                Column::gather(value_type, cells).map_err(|actual| FrameError::TypeMismatch {
                    column: name.clone(),
                    expected: value_type,
                    actual,
                })?;
            columns.push((name.clone(), column));
        }
        Ok(DataFrame::from_columns(columns)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spannerlib_core::{Schema, Tuple};

    fn run(db: &Database, src: &str) -> Result<DataFrame> {
        run_query(db, &QueryPlan::parse(src)?, None)
    }

    fn sample_db() -> Database {
        let mut db = Database::new();
        db.declare("R", Schema::new(vec![ValueType::Str, ValueType::Str]))
            .unwrap();
        for (a, b) in [("ann", "gmail"), ("bob", "work"), ("eve", "gmail")] {
            db.insert("R", Tuple::new([Value::str(a), Value::str(b)]))
                .unwrap();
        }
        db
    }

    #[test]
    fn constant_filters_variable_projects() {
        let df = run(&sample_db(), "?R(usr, \"gmail\")").unwrap();
        assert_eq!(df.column_names(), &["usr"]);
        let users: Vec<Value> = df.iter_rows().map(|r| r[0].clone()).collect();
        assert_eq!(users, vec![Value::str("ann"), Value::str("eve")]);
    }

    #[test]
    fn wildcard_matches_anything() {
        let df = run(&sample_db(), "?R(usr, _)").unwrap();
        assert_eq!(df.num_rows(), 3);
    }

    #[test]
    fn full_projection_sorted() {
        let df = run(&sample_db(), "?R(u, d)").unwrap();
        assert_eq!(df.column_names(), &["u", "d"]);
        assert_eq!(df.get(0, 0), Some(Value::str("ann")));
    }

    #[test]
    fn repeated_variable_is_equality() {
        let mut db = Database::new();
        db.declare("P", Schema::new(vec![ValueType::Int, ValueType::Int]))
            .unwrap();
        db.insert("P", Tuple::new([Value::Int(1), Value::Int(1)]))
            .unwrap();
        db.insert("P", Tuple::new([Value::Int(1), Value::Int(2)]))
            .unwrap();
        let df = run(&db, "?P(x, x)").unwrap();
        assert_eq!(df.num_rows(), 1);
        assert_eq!(df.column_names(), &["x"]);
    }

    #[test]
    fn boolean_query() {
        let df = run(&sample_db(), "?R(\"ann\", \"gmail\")").unwrap();
        assert_eq!(df.get(0, 0), Some(Value::Bool(true)));
        let df = run(&sample_db(), "?R(\"ann\", \"work\")").unwrap();
        assert_eq!(df.get(0, 0), Some(Value::Bool(false)));
    }

    #[test]
    fn empty_result_has_columns() {
        let df = run(&sample_db(), "?R(u, \"none\")").unwrap();
        assert_eq!(df.num_rows(), 0);
        assert_eq!(df.column_names(), &["u"]);
    }

    #[test]
    fn empty_result_is_typed_from_the_schema() {
        let mut db = Database::new();
        let types = vec![ValueType::Int, ValueType::Span, ValueType::Float];
        db.declare("T", Schema::new(types.clone())).unwrap();
        let df = run(&db, "?T(n, s, x)").unwrap();
        assert_eq!(df.num_rows(), 0);
        assert_eq!(df.schema().types(), &types[..]);
        // Projection picks the types of the projected columns only.
        let df = run(&db, "?T(7, _, x)").unwrap();
        assert_eq!(df.schema().types(), &[ValueType::Float]);
        // A relation the database has never seen has no schema to ask.
        let df = run(&db, "?Nothing(a, b)").unwrap();
        assert_eq!(df.schema().types(), &[ValueType::Str, ValueType::Str]);
    }

    #[test]
    fn missing_relation_is_empty() {
        let df = run(&Database::new(), "?Nothing(x)").unwrap();
        assert_eq!(df.num_rows(), 0);
    }

    #[test]
    fn arity_mismatch_is_error() {
        assert!(matches!(
            run(&sample_db(), "?R(x)"),
            Err(EngineError::Arity { .. })
        ));
    }

    #[test]
    fn rows_are_counted_before_they_are_materialised() {
        let db = sample_db();
        let plan = QueryPlan::parse("?R(usr, \"gmail\")").unwrap();
        let mut selection = select(&db, &plan, None).unwrap();
        assert_eq!(selection.num_rows(), 2);
        assert_eq!(selection.into_frame().unwrap().num_rows(), 2);
        // A boolean query is one row whatever it matched.
        let plan = QueryPlan::parse("?R(_, _)").unwrap();
        assert_eq!(select(&db, &plan, None).unwrap().num_rows(), 1);
    }
}
