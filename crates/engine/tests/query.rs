//! The query path against the loop it replaced: `run_query` filters
//! first, sorts only the survivors and — over a frozen database —
//! answers constant-bearing queries from a hash index; the old path
//! cloned and sorted the whole relation, then filtered it. Kept here as
//! the reference, it must agree with both new routes on rows *and
//! order*, over random relations of every value kind and random
//! queries.

use proptest::prelude::*;
use spannerlib_core::{DocId, Relation, Schema, Span, Tuple, Value, ValueType};
use spannerlib_dataframe::DataFrame;
use spannerlog_engine::optimizer::IndexCache;
use spannerlog_engine::query::{run_query, QueryPlan};
use spannerlog_engine::safety::constant_value;
use spannerlog_engine::{Database, EngineError, Result};
use spannerlog_parser::{Constant, Query, Term};
use std::collections::HashMap;

/// The sort-then-filter-then-project loop `query.rs` ran up to PR 15.
fn reference(db: &Database, query: &Query) -> Result<DataFrame> {
    let empty = Relation::new(Schema::empty());
    let relation: &Relation = match db.relation(&query.predicate) {
        Ok(r) => r,
        Err(EngineError::UnknownRelation(_)) => &empty,
        Err(e) => return Err(e),
    };
    if !relation.schema().is_empty() && relation.schema().arity() != query.terms.len() {
        return Err(EngineError::Arity {
            relation: query.predicate.clone(),
            expected: relation.schema().arity(),
            actual: query.terms.len(),
            line: 0,
        });
    }
    let mut var_cols: Vec<(String, usize)> = Vec::new();
    let mut seen: HashMap<&str, usize> = HashMap::new();
    for (i, t) in query.terms.iter().enumerate() {
        if let Term::Variable(v) = t {
            if !seen.contains_key(v.as_str()) {
                seen.insert(v, i);
                var_cols.push((v.clone(), i));
            }
        }
    }
    let matches = |tuple: &[Value]| -> bool {
        query.terms.iter().enumerate().all(|(i, t)| match t {
            Term::Wildcard => true,
            Term::Const(c) => tuple[i] == constant_value(c),
            Term::Variable(v) => tuple[i] == tuple[seen[v.as_str()]],
        })
    };
    if var_cols.is_empty() {
        let holds = relation.iter().any(matches);
        return Ok(DataFrame::from_rows(
            vec!["result".to_string()],
            vec![vec![Value::Bool(holds)]],
        )?);
    }
    let names: Vec<String> = var_cols.iter().map(|(v, _)| v.clone()).collect();
    let mut tuples: Vec<Vec<Value>> = relation.iter().map(<[Value]>::to_vec).collect();
    tuples.sort();
    let mut rows: Vec<Vec<Value>> = Vec::new();
    for tuple in tuples {
        if matches(&tuple) {
            rows.push(var_cols.iter().map(|&(_, i)| tuple[i].clone()).collect());
        }
    }
    if rows.is_empty() {
        return Ok(DataFrame::new(
            names.into_iter().map(|n| (n, ValueType::Str)).collect(),
        )?);
    }
    Ok(DataFrame::from_rows(names, rows)?)
}

const TYPES: [ValueType; 5] = [
    ValueType::Str,
    ValueType::Span,
    ValueType::Int,
    ValueType::Bool,
    ValueType::Float,
];

/// Strings that tie on 8 and 16 bytes, differ by a trailing NUL, or
/// are empty or not ASCII, besides a few plain ones.
const STRS: [&str; 12] = [
    "ann",
    "bob",
    "a \"quoted\" one",
    "",
    "a",
    "a\0",
    "abcdefgh",
    "abcdefgh\0",
    "abcdefghijklmnop",
    "abcdefghijklmnopq",
    "é",
    "日本",
];
const INTS: [i64; 6] = [-1, 0, 7, i64::MIN, i64::MAX, 1 << 40];
/// No NaN: frames compare floats as IEEE does, under which a NaN cell
/// never equals itself (the order kernel's own oracle covers NaN).
const FLOATS: [f64; 6] = [-0.5, 0.0, 2.25, -0.0, f64::INFINITY, f64::NEG_INFINITY];

/// The `pick`-th value of a small per-type pool, so constants hit and
/// repeated variables unify often. Spans point into one of `docs`.
fn pool_value(value_type: ValueType, pick: u8, docs: [DocId; 2]) -> Value {
    let pick = usize::from(pick);
    match value_type {
        ValueType::Str => Value::str(STRS[pick % STRS.len()]),
        ValueType::Span => {
            let start = pick % 3;
            Value::Span(Span::new(docs[pick / 3 % 2], start, start + pick % 2 + 1))
        }
        ValueType::Int => Value::Int(INTS[pick % INTS.len()]),
        ValueType::Bool => Value::Bool(pick % 2 == 0),
        ValueType::Float => Value::Float(FLOATS[pick % FLOATS.len()]),
    }
}

/// A query constant out of the same pools (spans have no literal).
fn pool_constant(kind: u8, pick: u8) -> Constant {
    let pick = usize::from(pick);
    match kind % 4 {
        0 => Constant::Str(STRS[pick % STRS.len()].to_string()),
        1 => Constant::Int(INTS[pick % INTS.len()]),
        2 => Constant::Bool(pick % 2 == 0),
        _ => Constant::Float(FLOATS[pick % FLOATS.len()]),
    }
}

/// One generated case: column types, rows as pool picks, query terms as
/// `(shape, kind, pick)`, and which relation name the query asks for.
type Case = (Vec<u8>, Vec<Vec<u8>>, Vec<(u8, u8, u8)>, u8);

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        prop::collection::vec(0u8..5, 1..4),
        prop::collection::vec(prop::collection::vec(0u8..12, 3), 0..24),
        prop::collection::vec((0u8..8, 0u8..4, 0u8..12), 0..5),
        0u8..10,
    )
}

fn build(case: &Case) -> (Database, Query) {
    let (type_picks, rows, terms, name_pick) = case;
    let types: Vec<ValueType> = type_picks.iter().map(|&t| TYPES[usize::from(t)]).collect();
    let mut db = Database::new();
    let docs = ["a document to point spans into", "and a second one"].map(|t| db.docs.intern(t));
    db.declare("R", Schema::new(types.clone())).unwrap();
    for row in rows {
        let tuple = types.iter().zip(row).map(|(&t, &p)| pool_value(t, p, docs));
        db.insert("R", Tuple::new(tuple)).unwrap();
    }
    // Mostly the relation's own arity (the generated length decides only
    // one time in five, which is where the arity mismatches come from),
    // and column-typed constants more often than stray ones.
    let arity = if terms.len() % 5 == 4 {
        terms.len()
    } else {
        types.len()
    };
    let terms = (0..arity)
        .map(|i| {
            let (shape, kind, pick) = terms.get(i).copied().unwrap_or((i as u8, 0, i as u8));
            match shape {
                0..=2 => Term::Variable(["x", "y", "z"][usize::from(shape)].to_string()),
                3 => Term::Wildcard,
                4 => Term::Const(pool_constant(kind, pick)),
                _ => Term::Const(match types.get(i) {
                    Some(ValueType::Str) => pool_constant(0, pick),
                    Some(ValueType::Int) => pool_constant(1, pick),
                    Some(ValueType::Bool) => pool_constant(2, pick),
                    Some(ValueType::Float) => pool_constant(3, pick),
                    _ => pool_constant(kind, pick),
                }),
            }
        })
        .collect();
    let predicate = if *name_pick == 0 { "Unseen" } else { "R" };
    (
        db,
        Query {
            predicate: predicate.to_string(),
            terms,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn run_query_agrees_with_sort_then_filter(case in case_strategy()) {
        let (db, query) = build(&case);
        let plan = QueryPlan::compile(&query);
        let indexes = IndexCache::default();
        let expected = reference(&db, &query);
        for (route, indexes) in [("scan", None), ("index", Some(&indexes)), ("index again", Some(&indexes))] {
            let actual = run_query(&db, &plan, indexes);
            match (&expected, actual) {
                (Ok(expected), Ok(actual)) => {
                    prop_assert_eq!(expected.column_names(), actual.column_names(), "{} {}", route, query);
                    let rows: Vec<_> = actual.iter_rows().collect();
                    prop_assert_eq!(expected.iter_rows().collect::<Vec<_>>(), rows, "{} {}", route, query);
                    if expected.num_rows() > 0 {
                        prop_assert_eq!(expected, &actual, "{} {}", route, query);
                    }
                }
                (Err(expected), Err(actual)) => {
                    prop_assert_eq!(expected.to_string(), actual.to_string(), "{} {}", route, query);
                }
                (expected, actual) => {
                    prop_assert!(false, "{} {}: reference {:?}, run_query {:?}", route, query, expected, actual);
                }
            }
        }
        // One index per bound-column set, however often it is probed.
        prop_assert!(indexes.builds() <= 1);
    }
}
