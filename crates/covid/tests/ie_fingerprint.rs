//! A golden fingerprint of the four covid IE functions' outputs.
//!
//! Covid agreement compares the native pipeline with the Spannerlog one,
//! and both run on the same `nlp` kernels, so a drift in a kernel moves
//! both sides at once and agreement still passes. This test pins what
//! the IE functions return instead: the row count and a stable hash of
//! `sents`, `note_sections`, `mentions` and `assertions` over a seeded
//! corpus. The constants were computed before the kernels were last
//! rewritten; a change that means to alter the functions' output
//! recomputes them and says why.

use spannerlib_core::Value;
use spannerlib_covid::corpus::generate_corpus;
use spannerlib_covid::native::context_rules::build_context_engine;
use spannerlib_covid::native::target_rules::build_target_matcher;
use spannerlib_covid::spanner::ie_funcs::register_ie_functions;
use spannerlog_engine::Session;
use std::sync::Arc;

/// One relation per IE function, keyed by note id. Spans are note
/// offsets: `sents` and `note_sections` read the note itself, and
/// `mentions` / `assertions` read a sentence span of it.
const PROGRAM: &str = r#"
new Notes(str, str)
Sents(d, s) <- Notes(d, t), sents(t) -> (s)
Sections(d, s, c) <- Notes(d, t), note_sections(t) -> (s, c)
Mentions(d, m, l) <- Sents(d, s), mentions(s) -> (m, l)
Assertions(d, m, c) <- Sents(d, s), assertions(s) -> (m, c)
"#;

/// `(relation, rows, FNV-1a 64 of the sorted rendered rows)`.
const GOLDEN: [(&str, usize, u64); 4] = [
    ("Sents", 906, 11_239_609_495_251_725_129),
    ("Sections", 720, 17_157_193_006_185_355_584),
    ("Mentions", 530, 15_129_053_569_192_162_827),
    ("Assertions", 256, 12_104_318_002_113_359_308),
];

fn render(value: &Value) -> String {
    match value {
        Value::Span(span) => format!("[{}, {})", span.start_usize(), span.end_usize()),
        Value::Str(s) => s.as_str().to_string(),
        other => format!("{other:?}"),
    }
}

fn fnv1a(lines: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in lines.iter().flat_map(|l| l.bytes().chain([b'\n'])) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn ie_function_outputs_match_the_golden_fingerprint() {
    let mut session = Session::new();
    register_ie_functions(
        &mut session,
        Arc::new(build_target_matcher()),
        Arc::new(build_context_engine()),
    );
    session.run(PROGRAM).expect("program loads");
    for doc in generate_corpus(120, 2024) {
        session
            .add_fact("Notes", [Value::str(doc.id), Value::str(doc.text)])
            .expect("note loads");
    }
    let mut got = Vec::new();
    for (name, _, _) in GOLDEN {
        let relation = session.relation(name).expect("relation evaluates");
        let mut lines: Vec<String> = relation
            .sorted_tuples()
            .iter()
            .map(|row| row.iter().map(render).collect::<Vec<_>>().join("\t"))
            .collect();
        lines.sort();
        got.push((name, lines.len(), fnv1a(&lines)));
    }
    assert_eq!(got, GOLDEN, "left: this build; right: the golden values");
}
