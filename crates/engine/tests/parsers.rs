//! Byte-level robustness of both parsers: arbitrary text, and valid
//! inputs after random edits. `spannerlog_parser::parse_program` gets
//! `covid.slog`, the property tests' generated and fixed programs;
//! `spannerlib_regex::Regex::new` gets patterns of every construct the
//! regex crate's generators render, and one `find_iter` when a pattern
//! compiles. Neither may panic, and a `ParseError` names a character
//! boundary of its source no further than its end, at the line and
//! column of that offset.

mod programs;

use programs::{layered_program, layered_program_strategy, program_at, PROGRAMS};
use proptest::prelude::*;
use spannerlib_regex::Regex;
use spannerlog_parser::parse_program;

const COVID: &str = include_str!("../../covid/rules/covid.slog");

/// Patterns covering what `crates/regex/tests/properties.rs` renders:
/// literals, classes and their negation, `.`, `\w` `\d`, anchors,
/// counted, lazy and optional repetition, groups nested, named and
/// empty, alternation with empty branches, multi-byte literals.
const PATTERNS: &[&str] = &[
    "a",
    "abc",
    "(a|b)*c",
    "[ab]+",
    "[^a]",
    "a{2,3}",
    "a{0}",
    "a*?b",
    "(a)(b)?",
    "(a)|(b)",
    "((a)|(b))c",
    "x{a+}c+y{b+}",
    r"\w+@\d",
    ".",
    "^a$",
    "é日+",
    "(a|)",
    "(?:ab)+",
    "[a-c]{1,}?",
];

/// What an edit writes: the punctuation, quotes and escapes of both
/// languages, digits, letters, whitespace, multi-byte characters, NUL.
const WRITES: &[char] = &[
    '(', ')', '[', ']', '{', '}', ',', '.', '"', '\\', '<', '-', '>', '?', '=', '!', '|', '*', '+',
    '^', '$', '_', '#', '0', '9', 'x', ' ', '\n', '\t', '\r', 'é', '日', '😀', '\0',
];

/// `seed` after `edits`, each `(op, at, pick)`: insert, delete or
/// replace the character at `at`, or repeat what follows it.
fn mutate(seed: &str, edits: &[(u8, usize, usize)]) -> String {
    let mut chars: Vec<char> = seed.chars().collect();
    for &(op, at, pick) in edits {
        let at = at % (chars.len() + 1);
        let write = WRITES[pick % WRITES.len()];
        match op % 4 {
            0 => chars.insert(at, write),
            1 if at < chars.len() => drop(chars.remove(at)),
            2 if at < chars.len() => chars[at] = write,
            _ => {
                let tail: Vec<char> = chars[at..].iter().take(pick % 8).copied().collect();
                chars.splice(at..at, tail);
            }
        }
    }
    chars.into_iter().collect()
}

fn edits() -> impl Strategy<Value = Vec<(u8, usize, usize)>> {
    prop::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 1..6)
}

/// Arbitrary text: printable ASCII, the characters edits write, and
/// any other scalar value.
fn text() -> impl Strategy<Value = String> {
    let char = prop_oneof![
        3 => (32u8..127).prop_map(char::from),
        2 => (0..WRITES.len()).prop_map(|i| WRITES[i]),
        1 => any::<u32>().prop_map(|c| char::from_u32(c % 0x11_0000).unwrap_or('\u{fffd}')),
    ];
    prop::collection::vec(char, 0..64).prop_map(String::from_iter)
}

/// Parses `source`; an error must point into it where its line and
/// column say.
fn parse(source: &str) {
    let Err(e) = parse_program(source) else {
        return;
    };
    assert!(e.offset <= source.len(), "{e:?} past the end of {source:?}");
    assert!(
        source.is_char_boundary(e.offset),
        "{e:?} inside a character of {source:?}"
    );
    let before = &source[..e.offset];
    let line = before.matches('\n').count() + 1;
    let col = before.rsplit('\n').next().map_or(0, |l| l.chars().count()) + 1;
    assert_eq!((e.line, e.col), (line, col), "{e:?} in {source:?}");
}

/// Compiles `pattern` and, when it compiles, scans `text` with it.
fn compile(pattern: &str, text: &str) {
    if let Ok(re) = Regex::new(pattern) {
        re.find_iter(text).count();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_program_places_every_error_in_arbitrary_text(source in text()) {
        parse(&source);
    }

    #[test]
    fn parse_program_places_every_error_in_edited_programs(
        heads in layered_program_strategy(),
        pick in 0..PROGRAMS + 2,
        edits in edits(),
    ) {
        let seed = match pick.checked_sub(PROGRAMS) {
            None => program_at(pick).to_string(),
            Some(0) => COVID.to_string(),
            Some(_) => layered_program(&heads),
        };
        parse(&mutate(&seed, &edits));
    }

    #[test]
    fn regex_compiles_or_refuses_arbitrary_text(pattern in text(), text in text()) {
        compile(&pattern, &text);
    }

    #[test]
    fn regex_compiles_or_refuses_edited_patterns(
        pick in 0..PATTERNS.len(),
        edits in edits(),
        text in text(),
    ) {
        compile(&mutate(PATTERNS[pick], &edits), &text);
    }
}
