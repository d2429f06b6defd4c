//! The `rgx` family against the spanner algebra. `rgx_all` is the
//! all-matches spanner of its pattern read functionally: exactly the
//! rows of `Spanner::evaluate` that define every variable (Maturana et
//! al., *Document Spanners for Extracting Incomplete Information*). And
//! every row `rgx` or `rgx_string` returns — one leftmost-first match at
//! a time — is one of those rows. The reference evaluator calls these
//! functions as the registry holds them, so this is what checks them on
//! their own.

use proptest::prelude::*;
use spannerlib_core::{Rows, Value};
use spannerlib_regex::Spanner;
use spannerlog_engine::{IeContext, IeRows, Registry, SharedDocs};
use std::collections::BTreeSet;

/// A pattern over `a`, `b` and space in which some capture groups are
/// optional or sit in one branch of an alternation, nested up to
/// `depth`. No group sits under a repetition that can run it twice.
fn pattern(depth: u32) -> BoxedStrategy<String> {
    prop_oneof![
        3 => concat(depth),
        1 => (concat(depth), concat(depth)).prop_map(|(p, q)| format!("{p}|{q}")),
    ]
    .boxed()
}

/// One to two parts of a [`pattern`] in a row.
fn concat(depth: u32) -> BoxedStrategy<String> {
    let atom = prop_oneof![
        Just("a".to_string()),
        Just("b".to_string()),
        Just(" ".to_string()),
        Just("[ab]".to_string()),
        Just("a+".to_string()),
        Just("b*".to_string()),
    ];
    if depth == 0 {
        return atom.boxed();
    }
    let inner = || pattern(depth - 1);
    let part = prop_oneof![
        2 => atom,
        1 => inner().prop_map(|p| format!("({p})")),
        1 => inner().prop_map(|p| format!("({p})?")),
        1 => (inner(), inner()).prop_map(|(p, q)| format!("(({p})|({q}))")),
    ];
    prop::collection::vec(part, 1..3)
        .prop_map(|parts| parts.concat())
        .boxed()
}

/// A pattern with at least one capture group.
fn grouped_pattern() -> impl Strategy<Value = String> {
    pattern(2).prop_map(|p| match p.contains('(') {
        true => p,
        false => format!("({p})"),
    })
}

/// The rows `function(pattern, text)` returns, through the registry.
fn call(function: &str, pattern: &str, text: &str) -> Vec<Vec<Value>> {
    let groups = pattern.matches('(').count();
    let f = Registry::new().ie(function).unwrap().clone();
    let args = [Value::str(pattern), Value::str(text)];
    let (docs, mut rows) = (SharedDocs::default(), Rows::new(groups));
    let mut out = IeRows::new(function, &mut rows);
    let called = f.call(&args, &mut out, &mut IeContext::new(function, &docs));
    out.finish(called).unwrap();
    rows.iter().map(<[Value]>::to_vec).collect()
}

/// A row of span cells as byte ranges.
fn ranges(row: &[Value]) -> Vec<(usize, usize)> {
    let range = |v: &Value| {
        let span = v.as_span().expect("a span cell");
        (span.start_usize(), span.end_usize())
    };
    row.iter().map(range).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_rgx_family_reads_the_functional_part_of_the_spanner(
        pattern in grouped_pattern(),
        text in "[ab ]{0,8}",
    ) {
        let algebra = Spanner::new(&pattern).unwrap().evaluate(&text);
        let defined: BTreeSet<Vec<(usize, usize)>> = algebra
            .rows()
            .iter()
            .filter_map(|row| row.iter().copied().collect::<Option<Vec<_>>>())
            .collect();

        let all = call("rgx_all", &pattern, &text);
        let all: BTreeSet<_> = all.iter().map(|row| ranges(row)).collect();
        prop_assert_eq!(&all, &defined, "rgx_all({:?}, {:?})", pattern, text);

        let first = call("rgx", &pattern, &text);
        for row in &first {
            prop_assert!(defined.contains(&ranges(row)), "rgx row {:?}", row);
        }
        let strings = call("rgx_string", &pattern, &text);
        for row in &strings {
            let texts = |r: &Vec<(usize, usize)>| -> Vec<&str> {
                r.iter().map(|&(s, e)| &text[s..e]).collect()
            };
            let cells: Vec<&str> = row.iter().map(|v| v.as_str().unwrap()).collect();
            prop_assert!(defined.iter().any(|r| texts(r) == cells), "rgx_string row {:?}", row);
        }
    }
}
