//! Recursion through spans: rules that build a span from spans the
//! recursion derived, by equating offsets with `span_start` / `span_end`
//! and widening with `expand` (Peterfreund et al., *Recursive Programs
//! for Document Spanners*). Two languages no regular spanner extracts —
//! aⁿbⁿ and balanced parentheses — over random texts, held to a
//! brute-force enumeration of the substrings and to the reference
//! evaluator, on one lane and on two.

mod support;

use proptest::prelude::*;
use spannerlib_core::Value;
use spannerlog_engine::{Registry, Session};
use std::collections::BTreeSet;

/// `S` holds the spans of aⁿbⁿ, n ≥ 1: `ab`, and an `a` and a `b` that
/// touch a span of `S` on either side, widened over them.
const ANBN: &str = r#"
A(d, a) <- Texts(d, t), rgx("a", t) -> (a)
B(d, b) <- Texts(d, t), rgx("b", t) -> (b)
S(d, s) <- Texts(d, t), rgx("ab", t) -> (s)
S(d, w) <- S(d, s), span_start(s) -> (i), A(d, a), span_end(a) -> (i),
           span_end(s) -> (j), B(d, b), span_start(b) -> (j), expand(s, 1, 1) -> (w)
"#;

/// `S` holds the spans of nonempty balanced parentheses: `()`, a span of
/// `S` wrapped in a touching `(` and `)`, and two touching spans of `S`
/// as one — the second's length added to the first's end.
const DYCK: &str = r#"
A(d, a) <- Texts(d, t), rgx("[(]", t) -> (a)
B(d, b) <- Texts(d, t), rgx("[)]", t) -> (b)
S(d, s) <- Texts(d, t), rgx("[(][)]", t) -> (s)
S(d, w) <- S(d, s), span_start(s) -> (i), A(d, a), span_end(a) -> (i),
           span_end(s) -> (j), B(d, b), span_start(b) -> (j), expand(s, 1, 1) -> (w)
S(d, w) <- S(d, s), span_end(s) -> (i), S(d, u), span_start(u) -> (i),
           span_len(u) -> (k), expand(s, 0, k) -> (w)
"#;

fn anbn(s: &str) -> bool {
    let n = s.len() / 2;
    n > 0 && s == "a".repeat(n) + &"b".repeat(n)
}

fn balanced(s: &str) -> bool {
    let mut depth = 0i32;
    for c in s.chars() {
        depth += if c == '(' { 1 } else { -1 };
        if depth < 0 {
            return false;
        }
    }
    !s.is_empty() && depth == 0
}

/// `(document, start, end)` of every substring of a text `language`
/// holds.
fn brute_force(texts: &[String], language: fn(&str) -> bool) -> BTreeSet<(String, usize, usize)> {
    let mut spans = BTreeSet::new();
    for (d, text) in texts.iter().enumerate() {
        for i in 0..text.len() {
            for j in i + 1..=text.len() {
                if language(&text[i..j]) {
                    spans.insert((format!("d{d}"), i, j));
                }
            }
        }
    }
    spans
}

/// Holds `program`'s `S` over `texts` to the brute force and the
/// reference at parallelism 0 and 2.
fn check(program: &str, texts: &[String], language: fn(&str) -> bool) {
    let rows: Vec<(String, String)> = (texts.iter().enumerate())
        .map(|(d, t)| (format!("d{d}"), t.clone()))
        .collect();
    let inputs = rows
        .iter()
        .map(|(d, t)| vec![Value::str(d.as_str()), Value::str(t.as_str())]);
    let reference = support::evaluate(program, &[("Texts", inputs.collect())], &Registry::new());
    let reference = reference.unwrap().canonical("S");
    let expected = brute_force(texts, language);
    for parallelism in [0, 2] {
        let mut session = Session::builder().parallelism(parallelism).build();
        session.import_typed("Texts", rows.clone()).unwrap();
        session.run(program).unwrap();
        let s = session
            .relation("S")
            .map(|rel| rel.sorted_tuples())
            .unwrap_or_default();
        let spans: BTreeSet<_> = s
            .iter()
            .map(|t| {
                let span = t[1].as_span().unwrap();
                (
                    t[0].as_str().unwrap().to_string(),
                    span.start_usize(),
                    span.end_usize(),
                )
            })
            .collect();
        prop_assert_eq!(
            &spans,
            &expected,
            "{:?} at parallelism {}",
            texts,
            parallelism
        );
        let rows = s.iter().map(|t| t.values());
        prop_assert_eq!(&support::canonical(rows, session.docs()), &reference);
    }
}

/// A span of `S` four levels deep right after an older one: the whole
/// text is in `S` only by joining the two, a derivation of the
/// concatenating rule's delta variant that reads its *second* scan of
/// `S`. A round's later firings see what its earlier ones inserted, so a
/// dropped variant shows on no shallower text.
#[test]
fn a_deep_span_after_an_older_one_joins_it() {
    // `abaaaabbbb` with `a` opening and `b` closing, and the reverse.
    for text in ["()(((())))", "(((())))()"] {
        check(DYCK, &[text.to_string()], balanced);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn anbn_spans_match_a_brute_force_and_the_reference(
        texts in prop::collection::vec("[ab]{0,12}", 1..4),
    ) {
        check(ANBN, &texts, anbn);
    }

    #[test]
    fn balanced_parentheses_match_a_brute_force_and_the_reference(
        texts in prop::collection::vec("[()]{0,12}", 1..4),
    ) {
        check(DYCK, &texts, balanced);
    }
}
