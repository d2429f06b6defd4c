//! Aggregate heads against a fold written here: `count`, `sum`, `min`,
//! `max` and `lex_concat` over random heads and random body relations,
//! on one lane and on two: a second oracle for the fold, beside the
//! reference evaluator (`support`) the model-based test in
//! `properties.rs` holds every relation to.

use proptest::prelude::*;
use spannerlib_core::Value;
use spannerlog_engine::Session;
use std::collections::{BTreeMap, BTreeSet};

/// The body relation's columns: two the head may group by, three it
/// may aggregate.
const BODY: [&str; 5] = ["k", "j", "n", "x", "w"];

/// Cells of `B(k, j, n, x, w)` out of small pools, so groups and
/// repeated projections are common: strings that differ by a trailing
/// NUL or only after eight bytes, and floats whose sum depends on the
/// order they are added in.
fn body_row(picks: &[u8]) -> Vec<Value> {
    let pick = |c: usize, n: usize| usize::from(picks[c]) % n;
    let keys = ["", "a", "a\0", "abcdefghi", "abcdefghj"];
    let floats = [-0.5, 0.1, 0.2, 0.3, 1e16, -0.0, 0.0];
    let words = ["b", "a", "ab", "", "é"];
    vec![
        Value::str(keys[pick(0, keys.len())]),
        Value::Int(pick(1, 4) as i64 - 2),
        Value::Int(pick(2, 7) as i64 - 3),
        Value::Float(floats[pick(3, floats.len())]),
        Value::str(words[pick(4, words.len())]),
    ]
}

/// `(function, aggregated body column)`: every pairing the functions
/// accept.
const AGGREGATES: [(&str, usize); 11] = [
    ("count", 2),
    ("count", 4),
    ("sum", 2),
    ("sum", 3),
    ("min", 2),
    ("min", 3),
    ("min", 4),
    ("max", 2),
    ("max", 3),
    ("max", 4),
    ("lex_concat", 4),
];

/// A head column: a body column grouped by, or an aggregate.
#[derive(Debug, Clone, Copy)]
enum Head {
    Key(usize),
    Agg(&'static str, usize),
}

/// The head: one or both key columns and one or two aggregates, in an
/// order `shuffle` picks.
fn head(keys: u8, aggs: &[u8], shuffle: u8) -> Vec<Head> {
    let mut head: Vec<Head> = match keys % 3 {
        0 => vec![Head::Key(0)],
        1 => vec![Head::Key(1)],
        _ => vec![Head::Key(0), Head::Key(1)],
    };
    for &a in aggs {
        let (function, col) = AGGREGATES[usize::from(a) % AGGREGATES.len()];
        head.push(Head::Agg(function, col));
    }
    let len = head.len();
    head.rotate_left(usize::from(shuffle) % len);
    if shuffle & 0x80 != 0 {
        head.swap(0, len - 1);
    }
    head
}

fn rule(head: &[Head]) -> String {
    let terms: Vec<String> = head
        .iter()
        .map(|h| match *h {
            Head::Key(c) => BODY[c].to_string(),
            Head::Agg(function, c) => format!("{function}({})", BODY[c]),
        })
        .collect();
    format!("H({}) <- B({})", terms.join(", "), BODY.join(", "))
}

/// The fold by definition: per distinct key, the distinct projections
/// on the aggregated columns, each aggregate folding its column of them
/// sorted.
fn reference(body: &[Vec<Value>], head: &[Head]) -> Vec<Vec<Value>> {
    let keys: Vec<usize> = head
        .iter()
        .filter_map(|h| match h {
            Head::Key(c) => Some(*c),
            Head::Agg(..) => None,
        })
        .collect();
    let aggs: Vec<usize> = head
        .iter()
        .filter_map(|h| match h {
            Head::Agg(_, c) => Some(*c),
            Head::Key(_) => None,
        })
        .collect();
    let mut groups: BTreeMap<Vec<Value>, BTreeSet<Vec<Value>>> = BTreeMap::new();
    for row in body {
        let key = keys.iter().map(|&c| row[c].clone()).collect();
        let projection = aggs.iter().map(|&c| row[c].clone()).collect();
        groups.entry(key).or_default().insert(projection);
    }
    let fold = |function: &str, mut values: Vec<Value>| -> Value {
        values.sort();
        match function {
            "count" => Value::Int(values.len() as i64),
            "sum" => match values[0] {
                Value::Int(_) => Value::Int(values.iter().filter_map(Value::as_int).sum()),
                _ => Value::Float(
                    values
                        .iter()
                        .filter_map(Value::as_float)
                        .fold(0.0, |a, x| a + x),
                ),
            },
            "min" => values[0].clone(),
            "max" => values[values.len() - 1].clone(),
            "lex_concat" => Value::str(values.iter().filter_map(Value::as_str).collect::<String>()),
            other => unreachable!("no {other} in AGGREGATES"),
        }
    };
    let mut out: Vec<Vec<Value>> = groups
        .iter()
        .map(|(key, projections)| {
            let (mut k, mut a) = (0, 0);
            head.iter()
                .map(|h| match h {
                    Head::Key(_) => {
                        k += 1;
                        key[k - 1].clone()
                    }
                    Head::Agg(function, _) => {
                        a += 1;
                        fold(
                            function,
                            projections.iter().map(|p| p[a - 1].clone()).collect(),
                        )
                    }
                })
                .collect()
        })
        .collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every aggregate head derives, on one lane and on two, the rows
    /// the fold by definition gives over the exported body.
    #[test]
    fn aggregate_heads_match_a_fold_by_definition(
        rows in prop::collection::vec(prop::collection::vec(any::<u8>(), 5), 0..80),
        keys in 0u8..3,
        aggs in prop::collection::vec(any::<u8>(), 1..3),
        shuffle in any::<u8>(),
    ) {
        let head = head(keys, &aggs, shuffle);
        let vars: Vec<String> = (0..head.len()).map(|i| format!("c{i}")).collect();
        let query = format!("?H({})", vars.join(", "));
        let mut answers = Vec::new();
        for parallelism in [0, 2] {
            let mut session = Session::builder().parallelism(parallelism).build();
            session.run("new B(str, int, int, float, str)").unwrap();
            for picks in &rows {
                session.add_fact("B", body_row(picks)).unwrap();
            }
            session.run(&rule(&head)).unwrap();
            let body: Vec<Vec<Value>> = session.export("?B(k, j, n, x, w)").unwrap().iter_rows().collect();
            let got: Vec<Vec<Value>> = session.export(&query).unwrap().iter_rows().collect();
            prop_assert_eq!(&got, &reference(&body, &head), "{} at parallelism {}", rule(&head), parallelism);
            answers.push(got);
        }
        prop_assert_eq!(&answers[0], &answers[1]);
    }
}
