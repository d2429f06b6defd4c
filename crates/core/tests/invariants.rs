//! Integration tests for the core value-model invariants the rest of the
//! workspace leans on: span ordering and containment laws, schema/tuple
//! arity and type checking, relation set semantics (dedup, deterministic
//! export order), and document interning.

use spannerlib_core::{
    CoreError, DocId, DocumentStore, Relation, Schema, Span, Tuple, Value, ValueType,
};

fn d(i: u32) -> DocId {
    DocId::from_index(i)
}

// ---------------------------------------------------------------------
// Span ordering and geometry
// ---------------------------------------------------------------------

#[test]
fn span_order_is_lexicographic_by_doc_start_end() {
    let mut spans = vec![
        Span::new(d(1), 0, 2),
        Span::new(d(0), 5, 9),
        Span::new(d(0), 0, 4),
        Span::new(d(0), 0, 2),
    ];
    spans.sort();
    assert_eq!(
        spans,
        vec![
            Span::new(d(0), 0, 2),
            Span::new(d(0), 0, 4),
            Span::new(d(0), 5, 9),
            Span::new(d(1), 0, 2),
        ]
    );
}

#[test]
fn span_order_is_total_and_consistent_with_eq() {
    let a = Span::new(d(0), 1, 3);
    let b = Span::new(d(0), 1, 3);
    assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
    assert_eq!(a, b);
    // Antisymmetry on a strict pair.
    let c = Span::new(d(0), 1, 4);
    assert!(a < c && (c >= a));
}

#[test]
#[should_panic(expected = "must not exceed end")]
fn inverted_span_is_rejected() {
    let _ = Span::new(d(0), 3, 2);
}

#[test]
fn containment_is_reflexive_and_transitive() {
    let outer = Span::new(d(0), 0, 10);
    let mid = Span::new(d(0), 2, 8);
    let inner = Span::new(d(0), 3, 5);
    assert!(outer.contains(&outer), "containment must be reflexive");
    assert!(outer.contains(&mid) && mid.contains(&inner));
    assert!(outer.contains(&inner), "containment must be transitive");
    // Cross-document containment never holds.
    assert!(!outer.contains(&Span::new(d(1), 3, 5)));
}

#[test]
fn empty_spans_never_overlap() {
    let empty = Span::new(d(0), 4, 4);
    let wide = Span::new(d(0), 0, 9);
    assert!(empty.is_empty());
    assert!(!empty.overlaps(&wide));
    assert!(!wide.overlaps(&empty));
    // But containment of an empty span inside a wide one holds.
    assert!(wide.contains(&empty));
}

#[test]
fn checked_spans_respect_document_bounds_and_char_boundaries() {
    let mut docs = DocumentStore::new();
    let id = docs.intern("héllo"); // 'é' is 2 bytes: h=0, é=1..3, l=3…
    assert!(docs.span(id, 0, 6).is_ok());
    assert!(matches!(
        docs.span(id, 0, 7),
        Err(CoreError::InvalidSpan { .. })
    ));
    // Byte offset 2 splits the 'é'.
    assert!(matches!(
        docs.span(id, 0, 2),
        Err(CoreError::InvalidSpan { .. })
    ));
}

#[test]
fn interning_is_idempotent_and_spans_align_across_copies() {
    let mut docs = DocumentStore::new();
    let a = docs.intern("same text");
    let b = docs.intern("same text");
    assert_eq!(a, b, "identical texts must intern to one document");
    let s1 = docs.span(a, 0, 4).unwrap();
    let s2 = docs.span(b, 0, 4).unwrap();
    assert_eq!(s1, s2);
    assert_eq!(docs.span_text(&s1).unwrap(), "same");
}

// ---------------------------------------------------------------------
// Schema / tuple checking
// ---------------------------------------------------------------------

#[test]
fn tuple_arity_mismatch_is_reported_with_both_arities() {
    let schema = Schema::new(vec![ValueType::Str, ValueType::Int]);
    let too_short = Tuple::new([Value::str("x")]);
    match schema.check(too_short.values()) {
        Err(CoreError::ArityMismatch { expected, actual }) => {
            assert_eq!((expected, actual), (2, 1));
        }
        other => panic!("expected ArityMismatch, got {other:?}"),
    }
}

#[test]
fn tuple_type_mismatch_names_the_offending_column() {
    let schema = Schema::new(vec![ValueType::Str, ValueType::Int]);
    let wrong = Tuple::new([Value::str("x"), Value::Bool(true)]);
    match schema.check(wrong.values()) {
        Err(CoreError::TypeMismatch {
            column,
            expected,
            actual,
        }) => {
            assert_eq!(column, 1);
            assert_eq!(expected, ValueType::Int);
            assert_eq!(actual, ValueType::Bool);
        }
        other => panic!("expected TypeMismatch, got {other:?}"),
    }
}

#[test]
fn well_typed_tuple_passes_and_projects() {
    let schema = Schema::new(vec![ValueType::Str, ValueType::Int, ValueType::Bool]);
    let t = Tuple::new([Value::str("x"), Value::Int(7), Value::Bool(false)]);
    assert!(schema.check(t.values()).is_ok());
}

#[test]
fn nullary_tuple_matches_only_empty_schema() {
    let t = Tuple::empty();
    assert!(Schema::empty().check(t.values()).is_ok());
    assert!(Schema::new(vec![ValueType::Int]).check(t.values()).is_err());
}

// ---------------------------------------------------------------------
// Relation set semantics
// ---------------------------------------------------------------------

#[test]
fn relation_deduplicates_inserts() {
    let mut rel = Relation::new(Schema::new(vec![ValueType::Int]));
    assert!(rel.insert(Tuple::new([Value::Int(1)])).unwrap());
    assert!(
        !rel.insert(Tuple::new([Value::Int(1)])).unwrap(),
        "duplicate"
    );
    assert!(rel.insert(Tuple::new([Value::Int(2)])).unwrap());
    assert_eq!(rel.len(), 2);
}

#[test]
fn relation_rejects_ill_typed_tuples() {
    let mut rel = Relation::new(Schema::new(vec![ValueType::Int]));
    assert!(rel.insert(Tuple::new([Value::str("no")])).is_err());
    assert!(rel.insert(Tuple::new([])).is_err());
    assert!(rel.is_empty());
}

#[test]
fn sorted_tuples_is_deterministic_regardless_of_insert_order() {
    let schema = Schema::new(vec![ValueType::Int, ValueType::Str]);
    let rows = [(3, "c"), (1, "b"), (2, "a"), (1, "a")];
    let mut forward = Relation::new(schema.clone());
    for &(n, s) in &rows {
        forward
            .insert(Tuple::new([Value::Int(n), Value::str(s)]))
            .unwrap();
    }
    let mut backward = Relation::new(schema);
    for &(n, s) in rows.iter().rev() {
        backward
            .insert(Tuple::new([Value::Int(n), Value::str(s)]))
            .unwrap();
    }
    assert_eq!(forward.sorted_tuples(), backward.sorted_tuples());
    let firsts: Vec<i64> = forward
        .sorted_tuples()
        .iter()
        .map(|t| t[0].as_int().unwrap())
        .collect();
    assert_eq!(firsts, vec![1, 1, 2, 3]);
}

// ---------------------------------------------------------------------
// Value total order (what makes sorted_tuples well-defined)
// ---------------------------------------------------------------------

#[test]
fn value_order_is_total_across_types() {
    let mut vs = vec![
        Value::Float(1.5),
        Value::str("b"),
        Value::Int(2),
        Value::Bool(true),
        Value::Span(Span::new(d(0), 0, 1)),
        Value::str("a"),
        Value::Int(-1),
    ];
    // A total order must sort without panicking and be stable under
    // re-sorting a rotation.
    vs.sort();
    let mut rotated: Vec<Value> = vs[3..]
        .iter()
        .cloned()
        .chain(vs[..3].iter().cloned())
        .collect();
    rotated.sort();
    assert_eq!(vs, rotated);
    // Same-type values keep their natural order.
    let pos_a = vs.iter().position(|v| v == &Value::str("a")).unwrap();
    let pos_b = vs.iter().position(|v| v == &Value::str("b")).unwrap();
    assert!(pos_a < pos_b);
    let pos_m1 = vs.iter().position(|v| v == &Value::Int(-1)).unwrap();
    let pos_2 = vs.iter().position(|v| v == &Value::Int(2)).unwrap();
    assert!(pos_m1 < pos_2);
}
