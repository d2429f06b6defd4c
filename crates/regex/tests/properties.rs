//! Property tests: the production engines must agree with the brute-force
//! oracles on random patterns and documents.
//!
//! Patterns are generated as ASTs over a small alphabet, rendered through
//! `Display`, and re-parsed — so these tests simultaneously exercise the
//! printer/parser round-trip, the compiler, the DFA front, the Pike VM,
//! and the all-matches simulator.

mod oracle;

use oracle::{oracle_all_matches, oracle_find_iter};
use proptest::prelude::*;
use spannerlib_regex::ast::Ast;
use spannerlib_regex::classes::{ClassRange, ClassSet};
use spannerlib_regex::prefilter::Finder;
use spannerlib_regex::{pikevm, AllMatch, Regex};

/// Random pattern AST over {a, b, c}: small enough that the exponential
/// oracle stays fast, rich enough to cover alternation, repetition,
/// classes, groups, and anchors.
fn ast_strategy() -> impl Strategy<Value = Ast> {
    let leaf = prop_oneof![
        4 => prop_oneof![Just('a'), Just('b'), Just('c')].prop_map(Ast::Literal),
        1 => Just(Ast::AnyChar),
        1 => Just(Ast::Class(ClassSet::from_ranges([ClassRange::new('a', 'b')]))),
        1 => Just(Ast::Empty),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..4).prop_map(Ast::concat),
            prop::collection::vec(inner.clone(), 1..4).prop_map(Ast::alternation),
            (
                inner.clone(),
                0u32..3,
                prop::option::of(0u32..3),
                any::<bool>()
            )
                .prop_map(|(node, min, extra, greedy)| Ast::Repeat {
                    node: Box::new(node),
                    min,
                    max: extra.map(|e| min + e),
                    greedy,
                }),
            inner.prop_map(|node| Ast::Group {
                index: 1, // renumbered below
                name: None,
                node: Box::new(node)
            }),
        ]
    })
}

/// Renumbers group indices to 1..n in traversal order (the generator
/// assigns everything index 1).
fn renumber(ast: &mut Ast, next: &mut u32) {
    match ast {
        Ast::Group { index, node, .. } => {
            *index = *next;
            *next += 1;
            renumber(node, next);
        }
        Ast::Concat(parts) | Ast::Alternation(parts) => {
            for p in parts {
                renumber(p, next);
            }
        }
        Ast::Repeat { node, .. } => renumber(node, next),
        _ => {}
    }
}

fn rendered(mut ast: Ast) -> String {
    let mut next = 1;
    renumber(&mut ast, &mut next);
    ast.to_string()
}

fn pattern_strategy() -> impl Strategy<Value = String> {
    ast_strategy().prop_map(rendered)
}

fn text_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop_oneof![Just('a'), Just('b'), Just('c'), Just(' ')],
        0..10,
    )
    .prop_map(|cs| cs.into_iter().collect())
}

/// Wider pattern ASTs for the three-matcher differential: multi-byte
/// literals, `\w` `\d` `[^a]` `.`, counted and lazy repetition, nested
/// and optional groups, alternation with empty branches.
fn wide_ast_strategy() -> impl Strategy<Value = Ast> {
    let literal = prop_oneof![
        Just('a'),
        Just('b'),
        Just('c'),
        Just(' '),
        Just('é'),
        Just('日')
    ];
    let class = prop_oneof![
        Just(ClassSet::word()),
        Just(ClassSet::digit()),
        Just(ClassSet::single('a').negate()),
        Just(ClassSet::from_ranges([ClassRange::new('a', 'b')])),
    ];
    let leaf = prop_oneof![
        5 => literal.prop_map(Ast::Literal),
        1 => Just(Ast::AnyChar),
        3 => class.prop_map(Ast::Class),
        1 => Just(Ast::Empty),
    ];
    leaf.prop_recursive(4, 32, 4, |inner| {
        prop_oneof![
            3 => prop::collection::vec(inner.clone(), 1..4).prop_map(Ast::concat),
            2 => prop::collection::vec(inner.clone(), 1..4).prop_map(Ast::alternation),
            3 => (
                inner.clone(),
                0u32..4,
                prop::option::of(0u32..4),
                any::<bool>()
            )
                .prop_map(|(node, min, extra, greedy)| Ast::Repeat {
                    node: Box::new(node),
                    min,
                    max: extra.map(|e| min + e),
                    greedy,
                }),
            2 => inner.prop_map(|node| Ast::Group {
                index: 1, // renumbered by `rendered`
                name: None,
                node: Box::new(node)
            }),
        ]
    })
}

/// Texts that cross UTF-8 boundaries and are long enough to revisit DFA
/// states: mostly a few hundred characters, sometimes a handful (the
/// only size the exponential backtracking oracle can be asked about).
fn wide_text_strategy() -> impl Strategy<Value = String> {
    let ch = prop_oneof![
        4 => Just('a'),
        3 => Just('b'),
        2 => Just('c'),
        2 => Just(' '),
        1 => Just('7'),
        1 => Just('_'),
        1 => Just('\n'),
        1 => Just('é'),
        1 => Just('日'),
        1 => Just('😀'),
    ];
    prop_oneof![
        1 => prop::collection::vec(ch.clone(), 0..9),
        2 => prop::collection::vec(ch, 0..300),
    ]
    .prop_map(|cs| cs.into_iter().collect())
}

/// Longest text, in characters, the backtracking oracle is run on.
const ORACLE_MAX_CHARS: usize = 8;

fn row(groups: impl Fn(usize) -> Option<(usize, usize)>, group_count: usize) -> AllMatch {
    let (start, end) = groups(0).expect("group 0 set on a match");
    AllMatch {
        start,
        end,
        groups: (1..=group_count).map(groups).collect(),
    }
}

/// The non-overlapping scan driven by hand over `pikevm::search`, with
/// Python's rule for resuming after an empty match.
fn pikevm_scan(re: &Regex, text: &str) -> Vec<AllMatch> {
    let mut out = Vec::new();
    let mut pos = 0;
    while let Some(found) = pikevm::search(re.program(), text, pos) {
        let m = row(|k| found.group(k), re.group_count());
        pos = match text[m.end..].chars().next() {
            _ if m.end > m.start => m.end,
            Some(c) => m.end + c.len_utf8(),
            None => text.len() + 1,
        };
        out.push(m);
        if pos > text.len() {
            break;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The Pike VM scan must equal the backtracking oracle exactly:
    /// same spans, same capture groups, same order.
    #[test]
    fn pikevm_agrees_with_backtracking_oracle(
        pattern in pattern_strategy(),
        text in text_strategy(),
    ) {
        let re = Regex::new(&pattern).expect("generated pattern parses");
        let expected = oracle_find_iter(re.parsed(), &text);
        let actual: Vec<_> = re
            .captures_iter(&text)
            .map(|c| {
                let (s, e) = c.group(0).unwrap();
                spannerlib_regex::AllMatch {
                    start: s,
                    end: e,
                    groups: c.explicit_groups().collect(),
                }
            })
            .collect();
        prop_assert_eq!(actual, expected, "pattern {:?} text {:?}", pattern, text);
    }

    /// The all-configurations simulator must enumerate exactly the
    /// accepting parses the exhaustive oracle finds.
    #[test]
    fn allmatches_agrees_with_exhaustive_oracle(
        pattern in pattern_strategy(),
        text in text_strategy(),
    ) {
        let re = Regex::new(&pattern).expect("generated pattern parses");
        let expected = oracle_all_matches(re.parsed(), &text);
        let actual = re.all_matches(&text);
        prop_assert_eq!(actual, expected, "pattern {:?} text {:?}", pattern, text);
    }

    /// Every findall row is a row of the all-matches spanner (the scan is
    /// a subset of the formal semantics).
    #[test]
    fn findall_is_subset_of_allmatches(
        pattern in pattern_strategy(),
        text in text_strategy(),
    ) {
        let re = Regex::new(&pattern).expect("generated pattern parses");
        let all = re.all_matches(&text);
        for caps in re.captures_iter(&text) {
            let (s, e) = caps.group(0).unwrap();
            let row: Vec<_> = caps.explicit_groups().collect();
            prop_assert!(
                all.iter().any(|m| m.start == s && m.end == e && m.groups == row),
                "scan row ({s},{e},{row:?}) missing for pattern {:?} on {:?}",
                pattern, text
            );
        }
    }

    /// The literal prefilter must be transparent: for every pattern that
    /// gets one, prefiltered search equals the raw Pike VM search at every
    /// start offset, and the prefiltered scan still equals the
    /// backtracking oracle.
    #[test]
    fn prefilter_is_transparent(
        pattern in pattern_strategy(),
        text in text_strategy(),
    ) {
        let re = Regex::new(&pattern).expect("generated pattern parses");
        if let Some(pf) = re.prefilter() {
            for from in (0..=text.len()).filter(|&i| text.is_char_boundary(i)) {
                let plain = spannerlib_regex::pikevm::search(re.program(), &text, from);
                let fast = pf.search(re.program(), &text, from);
                prop_assert_eq!(
                    fast, plain,
                    "prefilter diverged: pattern {:?} text {:?} from {}",
                    pattern, text, from
                );
            }
            let expected: Vec<_> = oracle_find_iter(re.parsed(), &text)
                .into_iter()
                .map(|m| (m.start, m.end))
                .collect();
            let actual: Vec<_> = re.find_iter(&text).map(|m| (m.start, m.end)).collect();
            prop_assert_eq!(actual, expected, "pattern {:?} text {:?}", pattern, text);
        }
    }

    /// Pretty-printing a parsed pattern and re-parsing it reaches a fixed
    /// point after one iteration.
    #[test]
    fn display_parse_round_trip(pattern in pattern_strategy()) {
        let first = Regex::new(&pattern).expect("generated pattern parses");
        let rendered = first.parsed().ast.to_string();
        let second = Regex::new(&rendered)
            .unwrap_or_else(|e| panic!("re-parse of {rendered:?} failed: {e}"));
        prop_assert_eq!(rendered.clone(), second.parsed().ast.to_string());
    }

    /// Matching behaviour is invariant under the print/parse round trip.
    #[test]
    fn round_trip_preserves_semantics(
        pattern in pattern_strategy(),
        text in text_strategy(),
    ) {
        let first = Regex::new(&pattern).unwrap();
        let second = Regex::new(&first.parsed().ast.to_string()).unwrap();
        let spans1: Vec<_> = first.find_iter(&text).collect();
        let spans2: Vec<_> = second.find_iter(&text).collect();
        prop_assert_eq!(spans1, spans2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// One differential over all three matchers: the production scan
    /// (prefilter → DFA window → Pike VM for the groups), the Pike VM
    /// driven by hand, and — where it can afford the text — the
    /// backtracking oracle give the same spans, the same groups, in the
    /// same order; a search from any char boundary lands on the same
    /// match; `is_match` says whether there is one.
    #[test]
    fn dfa_front_agrees_with_pikevm_and_oracle(
        pattern in wide_ast_strategy().prop_map(rendered),
        text in wide_text_strategy(),
    ) {
        let re = Regex::new(&pattern).expect("generated pattern parses");
        let actual: Vec<_> = re
            .captures_iter(&text)
            .map(|c| row(|k| c.group(k), re.group_count()))
            .collect();
        let by_hand = pikevm_scan(&re, &text);
        prop_assert_eq!(&actual, &by_hand, "pattern {:?} text {:?}", pattern, text);
        let spans: Vec<_> = re.find_iter(&text).map(|m| (m.start, m.end)).collect();
        let expected_spans: Vec<_> = by_hand.iter().map(|m| (m.start, m.end)).collect();
        prop_assert_eq!(spans, expected_spans, "pattern {:?} text {:?}", pattern, text);
        prop_assert_eq!(re.is_match(&text), !by_hand.is_empty());
        if text.chars().count() <= ORACLE_MAX_CHARS {
            let oracle = oracle_find_iter(re.parsed(), &text);
            prop_assert_eq!(&actual, &oracle, "pattern {:?} text {:?}", pattern, text);
        }

        // Every boundary of a short text, a spread of them in a long one.
        let boundaries: Vec<usize> =
            (0..=text.len()).filter(|&i| text.is_char_boundary(i)).collect();
        let stride = (boundaries.len() / 16).max(1);
        for &from in boundaries.iter().step_by(stride) {
            let expected = pikevm::search(re.program(), &text, from)
                .map(|found| row(|k| found.group(k), re.group_count()));
            let captures = re
                .captures_at(&text, from)
                .map(|c| row(|k| c.group(k), re.group_count()));
            prop_assert_eq!(
                &captures, &expected,
                "pattern {:?} text {:?} from {}", pattern, text, from
            );
            let found = re.find_at(&text, from).map(|m| (m.start, m.end));
            prop_assert_eq!(found, expected.map(|m| (m.start, m.end)));
            prop_assert_eq!(re.is_match(&text[from..]), re.find(&text[from..]).is_some());
        }
    }
}

/// `P · L · S`: a class-led prefix `P` (`\w+`, `\d{1,4}`, `[^a]*`,
/// `[ab]+`, a `.`-led part or `b|\w{3}`, one or two of them, each maybe
/// a group),
/// a literal `L` of 1–4 chars, and a wide suffix `S`, empty a third of
/// the time so that more texts hold a match. Some `L`s start
/// with a char `P` can consume (the pattern keeps an infix), some do not
/// (it is split at `L`). Returns the pattern and `L`.
fn split_pattern_strategy() -> impl Strategy<Value = (String, String)> {
    let repeat = |set: ClassSet, min, max| Ast::Repeat {
        node: Box::new(Ast::Class(set)),
        min,
        max,
        greedy: true,
    };
    let part = prop_oneof![
        Just(repeat(ClassSet::word(), 1, None)),
        Just(repeat(ClassSet::digit(), 1, Some(4))),
        Just(repeat(ClassSet::single('a').negate(), 0, None)),
        Just(repeat(
            ClassSet::from_ranges([ClassRange::new('a', 'b')]),
            1,
            None
        )),
        Just(Ast::concat(vec![
            Ast::AnyChar,
            repeat(ClassSet::word(), 0, None)
        ])),
        // Not closed under suffixes: `zbx` reaches its last char from 0
        // and 1, `zb` its last from 1 only.
        Just(Ast::alternation(vec![
            Ast::Literal('b'),
            repeat(ClassSet::word(), 3, Some(3))
        ])),
    ];
    let part = (part, any::<bool>()).prop_map(|(node, grouped)| match grouped {
        true => Ast::Group {
            index: 1, // renumbered by `rendered`
            name: None,
            node: Box::new(node),
        },
        false => node,
    });
    let literal = prop_oneof![
        Just('@'),
        Just('-'),
        Just('\n'),
        Just('a'),
        Just('b'),
        Just('7'),
        Just(' '),
        Just('é'),
        Just('日'),
    ];
    (
        prop::collection::vec(part, 1..=2),
        prop::collection::vec(literal, 1..=4),
        prop_oneof![1 => Just(Ast::Empty), 2 => wide_ast_strategy()],
    )
        .prop_map(|(mut parts, literal, suffix)| {
            parts.extend(literal.iter().map(|&c| Ast::Literal(c)));
            parts.push(suffix);
            (rendered(Ast::concat(parts)), literal.into_iter().collect())
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// Split patterns over texts with their literal planted: the scan,
    /// `is_match`, and a search from every char boundary equal the Pike
    /// VM, and the backtracking oracle where it can afford the text.
    #[test]
    fn split_patterns_agree_with_pikevm_and_oracle(
        split in split_pattern_strategy(),
        text in wide_text_strategy(),
        plants in prop::collection::vec(any::<usize>(), 1..4),
    ) {
        let (pattern, literal) = split;
        let mut text = text;
        for plant in plants {
            let at = text.floor_char_boundary(plant % (text.len() + 1));
            text.insert_str(at, &literal);
        }
        let re = Regex::new(&pattern).expect("generated pattern parses");
        let actual: Vec<_> = re
            .captures_iter(&text)
            .map(|c| row(|k| c.group(k), re.group_count()))
            .collect();
        let by_hand = pikevm_scan(&re, &text);
        prop_assert_eq!(&actual, &by_hand, "pattern {:?} text {:?}", pattern, text);
        let spans: Vec<_> = re.find_iter(&text).map(|m| (m.start, m.end)).collect();
        let expected_spans: Vec<_> = by_hand.iter().map(|m| (m.start, m.end)).collect();
        prop_assert_eq!(spans, expected_spans, "pattern {:?} text {:?}", pattern, text);
        prop_assert_eq!(re.is_match(&text), !by_hand.is_empty());
        if text.chars().count() <= ORACLE_MAX_CHARS {
            let oracle = oracle_find_iter(re.parsed(), &text);
            prop_assert_eq!(&actual, &oracle, "pattern {:?} text {:?}", pattern, text);
        }
        for from in (0..=text.len()).filter(|&i| text.is_char_boundary(i)) {
            let expected = pikevm::search(re.program(), &text, from)
                .map(|found| row(|k| found.group(k), re.group_count()));
            let captures = re
                .captures_at(&text, from)
                .map(|c| row(|k| c.group(k), re.group_count()));
            prop_assert_eq!(
                &captures, &expected,
                "pattern {:?} text {:?} from {}", pattern, text, from
            );
            let found = re.find_at(&text, from).map(|m| (m.start, m.end));
            prop_assert_eq!(found, expected.map(|m| (m.start, m.end)));
            prop_assert_eq!(re.is_match(&text[from..]), re.find(&text[from..]).is_some());
        }
    }
}

/// `(X)?(Y)|(Z)` over wide `X`, `Y`, `Z`: every pattern has groups, and a
/// match leaves group 1 unassigned when `X` is skipped, groups 1 and 2
/// when the second branch matches, group 3 when the first does.
fn optional_groups_strategy() -> impl Strategy<Value = String> {
    let group = |node| Ast::Group {
        index: 1, // renumbered by `rendered`
        name: None,
        node: Box::new(node),
    };
    (
        wide_ast_strategy(),
        wide_ast_strategy(),
        wide_ast_strategy(),
    )
        .prop_map(move |(x, y, z)| {
            let optional = Ast::Repeat {
                node: Box::new(group(x)),
                min: 0,
                max: Some(1),
                greedy: true,
            };
            let first = Ast::concat(vec![optional, group(y)]);
            rendered(Ast::alternation(vec![first, group(z)]))
        })
}

/// `V (G) V ((G) V)` with wide `G`s and fixed-width `V`s (literals of
/// one or two bytes, `\w`, `[ab]`, an exact count): the window alone
/// places the groups when the `G`s hold none and the first has one
/// width, the Pike VM run inside the window when not.
fn fixed_groups_strategy() -> impl Strategy<Value = String> {
    let group = |node| Ast::Group {
        index: 1, // renumbered by `rendered`
        name: None,
        node: Box::new(node),
    };
    let leaf = prop_oneof![
        Just(Ast::Literal('a')),
        Just(Ast::Literal(' ')),
        Just(Ast::Literal('é')),
        Just(Ast::Class(ClassSet::word())),
        Just(Ast::Class(ClassSet::from_ranges([ClassRange::new(
            'a', 'b'
        )]))),
    ];
    let part = (leaf, 1u32..3).prop_map(|(node, n)| Ast::Repeat {
        node: Box::new(node),
        min: n,
        max: Some(n),
        greedy: true,
    });
    let fixed = || prop::collection::vec(part.clone(), 0..2).prop_map(Ast::concat);
    let parts = (
        fixed(),
        wide_ast_strategy(),
        fixed(),
        fixed(),
        wide_ast_strategy(),
        fixed(),
    );
    parts.prop_map(move |(v1, g1, v2, v3, g2, v4)| {
        let inner = group(Ast::concat(vec![v3, group(g2)]));
        rendered(Ast::concat(vec![v1, group(g1), v2, inner, v4]))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The groups of every match window — placed by the window alone
    /// where they sit at fixed distances from its ends, else by the Pike
    /// VM anchored inside it — equal the unanchored Pike VM's, searched
    /// from every char boundary, and the scan drops as many matches for
    /// an unassigned group on either path.
    #[test]
    fn window_groups_agree_with_pikevm(
        pattern in prop_oneof![optional_groups_strategy(), fixed_groups_strategy()],
        text in wide_text_strategy(),
    ) {
        let re = Regex::new(&pattern).expect("generated pattern parses");
        let scan: Vec<_> = re
            .captures_iter(&text)
            .map(|c| row(|k| c.group(k), re.group_count()))
            .collect();
        let by_hand = pikevm_scan(&re, &text);
        prop_assert_eq!(&scan, &by_hand, "pattern {:?} text {:?}", pattern, text);
        for from in (0..=text.len()).filter(|&i| text.is_char_boundary(i)) {
            let expected = pikevm::search(re.program(), &text, from)
                .map(|found| row(|k| found.group(k), re.group_count()));
            let captures = re
                .captures_at(&text, from)
                .map(|c| row(|k| c.group(k), re.group_count()));
            prop_assert_eq!(
                &captures, &expected,
                "pattern {:?} text {:?} from {}", pattern, text, from
            );
        }
        // `builtins::rgx`'s loop: one buffer for every match's groups, and
        // its `unassigned_matches` count of those that leave one undefined.
        let (mut matches, mut groups) = (re.captures_iter(&text), Vec::new());
        let (mut reused, mut unassigned) = (Vec::new(), 0);
        while matches.next_into(&mut groups) {
            unassigned += usize::from(groups[1..].contains(&None));
            reused.push(row(|k| groups[k], re.group_count()));
        }
        prop_assert_eq!(&reused, &by_hand);
        let expected = by_hand.iter().filter(|m| m.groups.contains(&None)).count();
        prop_assert_eq!(unassigned, expected, "pattern {:?} text {:?}", pattern, text);
    }
}

/// A needle of 1–8 chars and a haystack of at most 300 bytes made of loose
/// chars, copies of the needle and copies of its prefixes, so occurrences
/// overlap and near misses are common.
fn needle_and_haystack() -> impl Strategy<Value = (String, String)> {
    let ch = prop_oneof![
        Just('a'),
        Just('b'),
        Just(' '),
        Just('é'),
        Just('日'),
        Just('😀')
    ];
    // A piece is its char, or (when `copy` is set) the needle's first
    // `len` chars.
    let piece = (ch.clone(), any::<bool>(), 1usize..=8);
    let needle = prop::collection::vec(ch, 1..=8);
    (needle, prop::collection::vec(piece, 0..150)).prop_map(|(needle, pieces)| {
        let mut haystack = String::new();
        for (c, copy, len) in pieces {
            let piece: String = match copy {
                true => needle.iter().take(len).collect(),
                false => c.to_string(),
            };
            if haystack.len() + piece.len() > 300 {
                break;
            }
            haystack.push_str(&piece);
        }
        (needle.into_iter().collect(), haystack)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The prefilter's literal finder answers what `str::find` does, from
    /// every char boundary.
    #[test]
    fn finder_agrees_with_str_find(case in needle_and_haystack()) {
        let (needle, haystack) = case;
        let finder = Finder::from(needle.as_str());
        for from in (0..=haystack.len()).filter(|&i| haystack.is_char_boundary(i)) {
            prop_assert_eq!(
                finder.find(&haystack[from..]),
                haystack[from..].find(needle.as_str()),
                "needle {:?} haystack {:?} from {}", needle, haystack, from
            );
        }
    }

    /// `prefilter_is_transparent` over texts long enough to fill the
    /// finder's blocks: prefiltered search equals the Pike VM's.
    #[test]
    fn prefilter_is_transparent_on_long_texts(
        pattern in wide_ast_strategy().prop_map(rendered),
        text in wide_text_strategy(),
    ) {
        let re = Regex::new(&pattern).expect("generated pattern parses");
        if let Some(pf) = re.prefilter() {
            let boundaries: Vec<usize> =
                (0..=text.len()).filter(|&i| text.is_char_boundary(i)).collect();
            let stride = (boundaries.len() / 16).max(1);
            for &from in boundaries.iter().step_by(stride) {
                prop_assert_eq!(
                    pf.search(re.program(), &text, from),
                    pikevm::search(re.program(), &text, from),
                    "pattern {:?} text {:?} from {}", pattern, text, from
                );
            }
        }
    }
}

#[test]
fn regression_empty_alternation_branch() {
    // `a|` has an empty second branch: matches "a" or "".
    let re = Regex::new("a|").unwrap();
    let spans: Vec<_> = re.find_iter("ba").map(|m| (m.start, m.end)).collect();
    assert_eq!(spans, vec![(0, 0), (1, 2), (2, 2)]);
}

#[test]
fn regression_nested_empty_star() {
    let re = Regex::new("(?:(?:)*)*").unwrap();
    assert!(re.is_match(""));
}

#[test]
fn regression_lazy_star_prefers_empty() {
    let re = Regex::new("a*?").unwrap();
    let m = re.find("aaa").unwrap();
    assert_eq!((m.start, m.end), (0, 0));
}
