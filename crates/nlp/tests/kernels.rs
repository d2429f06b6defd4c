//! Differential tests: the tokenizer, phrase matcher, section detector
//! and ConText held equal to the kernels they replaced.
//!
//! Covid agreement compares the native pipeline with the Spannerlog
//! one, and both call these kernels, so a kernel that drifts moves both
//! sides and agreement still passes. Here the `reference` module keeps
//! the earlier implementations verbatim — a char-vector `tokenize`, a
//! `find` over one allocated lowercase `String` per token with labels
//! and phrases copied out, a `detect_sections_with` that builds its
//! header map on every call, and a ConText that finds a cue's rule by
//! parsing its label and its tokens by searching — and every output of
//! the library must equal theirs: on arbitrary text built from edge
//! characters (ASCII letters and digits, `' - . , :` and newlines,
//! U+00A0, U+2003, `é ß İ ǅ`, `٣`, a combining mark), and on every note
//! of a seeded covid corpus.

use proptest::prelude::*;
use spannerlib_covid::corpus::generate_corpus;
use spannerlib_covid::native::context_rules::modifier_rules;
use spannerlib_covid::native::target_rules::{build_target_matcher, lexicon_rows};
use spannerlib_nlp::context::{ContextModifier, TargetAssertion};
use spannerlib_nlp::sections::{default_headers, detect_sections, detect_sections_with};
use spannerlib_nlp::tokenizer::tokenize;
use spannerlib_nlp::{split_sentences, ContextEngine, ModifierRule, PhraseMatcher};

/// The kernels as they were, copied verbatim (only the `pub` markers,
/// the type names and the imports differ).
mod reference {
    // Kept whole, including what the tests do not call.
    #![allow(dead_code)]

    use rustc_hash::FxHashMap;
    use spannerlib_nlp::context::{ContextModifier, TargetAssertion};
    use spannerlib_nlp::sections::Section;
    use spannerlib_nlp::{ModifierCategory, ModifierDirection, ModifierRule, Token, TokenKind};

    /// Whether `c` may continue a word token once one has started.
    fn continues_word(c: char, next: Option<char>) -> bool {
        if c.is_alphanumeric() {
            return true;
        }
        // Internal apostrophe/hyphen: only when followed by a letter/digit,
        // so trailing punctuation is not swallowed ("end-" vs "COVID-19").
        (c == '\'' || c == '-') && next.is_some_and(|n| n.is_alphanumeric())
    }

    /// Whether `c` may continue a number token.
    fn continues_number(c: char, next: Option<char>) -> bool {
        if c.is_ascii_digit() {
            return true;
        }
        (c == '.' || c == ',') && next.is_some_and(|n| n.is_ascii_digit())
    }

    /// Tokenizes `text` into words, numbers, and punctuation.
    pub fn tokenize(text: &str) -> Vec<Token> {
        let mut tokens = Vec::new();
        let chars: Vec<(usize, char)> = text.char_indices().collect();
        let n = chars.len();
        let mut i = 0;
        while i < n {
            let (start, c) = chars[i];
            if c.is_whitespace() {
                i += 1;
                continue;
            }
            if c.is_alphabetic() {
                let mut j = i + 1;
                while j < n {
                    let next = chars.get(j + 1).map(|&(_, ch)| ch);
                    if continues_word(chars[j].1, next) {
                        j += 1;
                    } else {
                        break;
                    }
                }
                let end = chars.get(j).map_or(text.len(), |&(b, _)| b);
                tokens.push(Token {
                    start,
                    end,
                    kind: TokenKind::Word,
                });
                i = j;
            } else if c.is_ascii_digit() {
                let mut j = i + 1;
                while j < n {
                    let next = chars.get(j + 1).map(|&(_, ch)| ch);
                    if continues_number(chars[j].1, next) {
                        j += 1;
                    } else {
                        break;
                    }
                }
                let end = chars.get(j).map_or(text.len(), |&(b, _)| b);
                tokens.push(Token {
                    start,
                    end,
                    kind: TokenKind::Number,
                });
                i = j;
            } else {
                let end = chars.get(i + 1).map_or(text.len(), |&(b, _)| b);
                tokens.push(Token {
                    start,
                    end,
                    kind: TokenKind::Punct,
                });
                i += 1;
            }
        }
        tokens
    }

    /// Lowercased text of each token — the normalization used by the phrase
    /// matcher and ConText.
    pub fn lowered(tokens: &[Token], source: &str) -> Vec<String> {
        tokens
            .iter()
            .map(|t| t.text(source).to_lowercase())
            .collect()
    }

    /// A phrase occurrence.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct PhraseMatch {
        /// Byte offset of the first matched token.
        pub start: usize,
        /// Byte offset one past the last matched token.
        pub end: usize,
        /// Label of the matched phrase.
        pub label: String,
        /// The canonical (lexicon) form of the phrase.
        pub phrase: String,
    }

    /// A compiled phrase lexicon.
    #[derive(Debug, Clone, Default)]
    pub struct PhraseMatcher {
        /// First-token → list of (token sequence, label, canonical phrase).
        by_first: FxHashMap<String, Vec<(Vec<String>, String, String)>>,
    }

    impl PhraseMatcher {
        /// An empty matcher.
        pub fn new() -> Self {
            PhraseMatcher::default()
        }

        /// Adds a phrase under a label. Phrases are tokenized on whitespace
        /// and matched case-insensitively.
        pub fn add(&mut self, label: &str, phrase: &str) {
            let tokens: Vec<String> = phrase
                .split_whitespace()
                .map(|w| w.to_lowercase())
                .collect();
            if tokens.is_empty() {
                return;
            }
            self.by_first.entry(tokens[0].clone()).or_default().push((
                tokens,
                label.to_string(),
                phrase.to_string(),
            ));
        }

        /// Adds many phrases under one label.
        pub fn add_all<'p>(&mut self, label: &str, phrases: impl IntoIterator<Item = &'p str>) {
            for p in phrases {
                self.add(label, p);
            }
        }

        /// Number of phrases loaded.
        pub fn len(&self) -> usize {
            self.by_first.values().map(Vec::len).sum()
        }

        /// Whether no phrases are loaded.
        pub fn is_empty(&self) -> bool {
            self.by_first.is_empty()
        }

        /// Finds all phrase occurrences over a tokenized text. Matches with
        /// the same start keep only the longest; matches starting inside a
        /// previous match are allowed (ConText needs nested cues).
        pub fn find(&self, tokens: &[Token], source: &str) -> Vec<PhraseMatch> {
            let lower = lowered(tokens, source);
            let mut out = Vec::new();
            for i in 0..tokens.len() {
                let Some(candidates) = self.by_first.get(lower[i].as_str()) else {
                    continue;
                };
                let mut best: Option<(usize, &str, &str)> = None; // (token_len, label, phrase)
                for (seq, label, phrase) in candidates {
                    if i + seq.len() > tokens.len() {
                        continue;
                    }
                    if seq
                        .iter()
                        .zip(&lower[i..i + seq.len()])
                        .all(|(a, b)| a == b)
                    {
                        match best {
                            Some((blen, _, _)) if blen >= seq.len() => {}
                            _ => best = Some((seq.len(), label, phrase)),
                        }
                    }
                }
                if let Some((len, label, phrase)) = best {
                    out.push(PhraseMatch {
                        start: tokens[i].start,
                        end: tokens[i + len - 1].end,
                        label: label.to_string(),
                        phrase: phrase.to_string(),
                    });
                }
            }
            out
        }
    }

    /// Detects sections with a custom header table. Headers match at line
    /// starts, case-insensitively, and must be followed by `:`.
    pub fn detect_sections_with(text: &str, headers: &[(&str, &str)]) -> Vec<Section> {
        let by_lower: FxHashMap<String, String> = headers
            .iter()
            .map(|(h, c)| (h.to_lowercase(), c.to_string()))
            .collect();
        let max_header_words = headers
            .iter()
            .map(|(h, _)| h.split_whitespace().count())
            .max()
            .unwrap_or(1);

        let mut found: Vec<(usize, usize, String)> = Vec::new(); // (start, end incl ':', category)
        let mut line_start = 0usize;
        for line in text.split_inclusive('\n') {
            let trimmed = line.trim_start();
            let indent = line.len() - trimmed.len();
            if let Some(colon_rel) = trimmed.find(':') {
                let candidate = &trimmed[..colon_rel];
                if candidate.split_whitespace().count() <= max_header_words {
                    let key = candidate.trim().to_lowercase();
                    if let Some(category) = by_lower.get(&key) {
                        let start = line_start + indent;
                        let end = line_start + indent + colon_rel + 1;
                        found.push((start, end, category.clone()));
                    }
                }
            }
            line_start += line.len();
        }

        let mut sections = Vec::with_capacity(found.len());
        for (i, (start, end, category)) in found.iter().enumerate() {
            let body_end = found
                .get(i + 1)
                .map(|(next_start, _, _)| *next_start)
                .unwrap_or(text.len());
            sections.push(Section {
                category: category.clone(),
                header_start: *start,
                header_end: *end,
                body_end,
            });
        }
        sections
    }

    /// A compiled ConText engine.
    #[derive(Debug, Clone)]
    pub struct ContextEngine {
        rules: Vec<ModifierRule>,
        matcher: PhraseMatcher,
    }

    impl ContextEngine {
        /// Compiles a rule set.
        pub fn new(rules: Vec<ModifierRule>) -> Self {
            let mut matcher = PhraseMatcher::new();
            for (i, rule) in rules.iter().enumerate() {
                matcher.add(&i.to_string(), &rule.phrase);
            }
            ContextEngine { rules, matcher }
        }

        /// The rule set.
        pub fn rules(&self) -> &[ModifierRule] {
            &self.rules
        }

        /// Resolves modifier cues and scopes within one sentence
        /// (`sentence` is a byte range of `text`).
        pub fn modifiers_in_sentence(
            &self,
            text: &str,
            sentence: (usize, usize),
        ) -> Vec<ContextModifier> {
            let (s_start, s_end) = sentence;
            let sent_text = &text[s_start..s_end];
            let tokens: Vec<Token> = tokenize(sent_text);

            // Cue and termination occurrences, in token space.
            struct Cue {
                rule: usize,
                start_tok: usize,
                end_tok: usize,
                start: usize,
                end: usize,
            }
            let mut cues: Vec<Cue> = Vec::new();
            let mut terminators: Vec<usize> = Vec::new(); // token indices
            let mut pseudo_ranges: Vec<(usize, usize)> = Vec::new();
            for m in self.matcher.find(&tokens, sent_text) {
                let rule_idx: usize = m.label.parse().expect("labels are indices");
                let start_tok = tokens
                    .iter()
                    .position(|t| t.start == m.start)
                    .expect("match starts on a token");
                let end_tok = tokens
                    .iter()
                    .position(|t| t.end == m.end)
                    .expect("match ends on a token");
                if self.rules[rule_idx].direction == ModifierDirection::Terminate {
                    terminators.push(start_tok);
                } else if self.rules[rule_idx].direction == ModifierDirection::Pseudo {
                    pseudo_ranges.push((m.start, m.end));
                } else {
                    cues.push(Cue {
                        rule: rule_idx,
                        start_tok,
                        end_tok,
                        start: m.start,
                        end: m.end,
                    });
                }
            }

            // ConText precedence: a cue strictly contained in a longer cue —
            // or in a pseudo cue — is subsumed by it ("evidence of" inside
            // "no evidence of"; "history of" inside the pseudo
            // "history of present illness").
            let ranges: Vec<(usize, usize)> = cues
                .iter()
                .map(|c| (c.start, c.end))
                .chain(pseudo_ranges.iter().copied())
                .collect();
            cues.retain(|c| {
                !ranges
                    .iter()
                    .any(|&(s, e)| (s < c.start || e > c.end) && s <= c.start && c.end <= e)
            });

            let mut out = Vec::new();
            for cue in &cues {
                let rule = &self.rules[cue.rule];
                let window = rule.max_scope.unwrap_or(usize::MAX);

                let forward = |out: &mut Vec<ContextModifier>| {
                    let mut end_tok = tokens.len().saturating_sub(1);
                    // Truncate at the first terminator after the cue.
                    if let Some(&t) = terminators.iter().filter(|&&t| t > cue.end_tok).min() {
                        end_tok = end_tok.min(t.saturating_sub(1));
                    }
                    // Truncate at the window.
                    end_tok = end_tok.min(cue.end_tok.saturating_add(window));
                    if end_tok <= cue.end_tok && cue.end_tok + 1 > tokens.len() - 1 {
                        // Cue at sentence end: empty forward scope.
                    }
                    if cue.end_tok < tokens.len() - 1 && end_tok > cue.end_tok {
                        out.push(ContextModifier {
                            cue: (s_start + cue.start, s_start + cue.end),
                            category: rule.category,
                            scope: (
                                s_start + tokens[cue.end_tok + 1].start,
                                s_start + tokens[end_tok].end,
                            ),
                        });
                    }
                };
                let backward = |out: &mut Vec<ContextModifier>| {
                    let mut start_tok = 0usize;
                    if let Some(&t) = terminators.iter().filter(|&&t| t < cue.start_tok).max() {
                        start_tok = start_tok.max(t + 1);
                    }
                    start_tok = start_tok.max(cue.start_tok.saturating_sub(window));
                    if cue.start_tok > 0 && start_tok < cue.start_tok {
                        out.push(ContextModifier {
                            cue: (s_start + cue.start, s_start + cue.end),
                            category: rule.category,
                            scope: (
                                s_start + tokens[start_tok].start,
                                s_start + tokens[cue.start_tok - 1].end,
                            ),
                        });
                    }
                };

                match rule.direction {
                    ModifierDirection::Forward => forward(&mut out),
                    ModifierDirection::Backward => backward(&mut out),
                    ModifierDirection::Bidirectional => {
                        forward(&mut out);
                        backward(&mut out);
                    }
                    ModifierDirection::Terminate | ModifierDirection::Pseudo => {
                        unreachable!("filtered above")
                    }
                }
            }
            out
        }

        /// Asserts categories for each target span of one sentence.
        pub fn assert_targets(
            &self,
            text: &str,
            sentence: (usize, usize),
            targets: &[(usize, usize)],
        ) -> Vec<TargetAssertion> {
            let modifiers = self.modifiers_in_sentence(text, sentence);
            targets
                .iter()
                .map(|&(t_start, t_end)| {
                    let mut categories: Vec<ModifierCategory> = modifiers
                        .iter()
                        .filter(|m| {
                            let (s, e) = m.scope;
                            // Target must overlap the scope and not be the cue
                            // itself.
                            t_start < e && s < t_end && !(t_start >= m.cue.0 && t_end <= m.cue.1)
                        })
                        .map(|m| m.category)
                        .collect();
                    categories.sort();
                    categories.dedup();
                    TargetAssertion {
                        target: (t_start, t_end),
                        categories,
                    }
                })
                .collect()
        }
    }
}

/// Cases per property: the release suite runs many more.
const CASES: u32 = if cfg!(debug_assertions) { 256 } else { 4096 };

/// Single characters at the rules' edges.
const EDGE: &[&str] = &[
    "a", "z", "E", "Q", "0", "7", "'", "-", ".", ",", ":", "\n", " ", "\u{a0}", "\u{2003}", "é",
    "ß", "İ", "ǅ", "٣", "\u{301}",
];

/// Words the lexicons below are made of, in several cases.
const WORDS: &[&str] = &[
    "ab", "Ab", "AB", "b", "é", "É", "ßa", "İ", "i", "ǅz", "ǆz", "a-b", "x'y", "7", "no", "No",
    "denies", "but", "history", "of", "covid-19", "COVID", "fever",
];

/// Text drawn from `pool`, up to `max` pieces long.
fn text(pool: &'static [&'static str], max: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(0..pool.len(), 0..max)
        .prop_map(move |ix| ix.into_iter().map(|i| pool[i]).collect())
}

/// Edge characters with words between them, so that phrases match.
fn sentence() -> impl Strategy<Value = String> {
    prop::collection::vec((0..WORDS.len(), 0..EDGE.len()), 0..24).prop_map(|pieces| {
        pieces
            .into_iter()
            .map(|(w, e)| format!("{}{}", WORDS[w], EDGE[e]))
            .collect()
    })
}

/// `(label, phrase)` rows of one to three words.
fn lexicon() -> impl Strategy<Value = Vec<(String, String)>> {
    let phrase = (0..3usize, prop::collection::vec(0..WORDS.len(), 1..4));
    prop::collection::vec(phrase, 0..16).prop_map(|rows| {
        rows.into_iter()
            .map(|(label, words)| {
                let words: Vec<&str> = words.into_iter().map(|w| WORDS[w]).collect();
                (format!("L{label}"), words.join(" "))
            })
            .collect()
    })
}

/// Note-like text: lines that may open with a header, a colon and a
/// body of edge characters.
fn note() -> impl Strategy<Value = String> {
    const INDENT: &[&str] = &["", " ", "\t", "\u{a0}", "\u{2003}"];
    const HEADS: &[&str] = &[
        "Chief Complaint",
        "CHIEF  COMPLAINT",
        "hpi",
        "HPI",
        "Assessment/Plan",
        "assessment and plan",
        "Follow Up",
        "follow up",
        "Findings",
        "The ratio was 3",
        "İmaging",
        "Σ",
        "",
    ];
    const COLONS: &[&str] = &[":", "", "::", " :"];
    let line = (
        0..INDENT.len(),
        0..HEADS.len(),
        0..COLONS.len(),
        text(EDGE, 12),
    );
    prop::collection::vec(line, 0..10).prop_map(|lines| {
        lines
            .into_iter()
            .map(|(i, h, c, body)| format!("{}{}{}{body}\n", INDENT[i], HEADS[h], COLONS[c]))
            .collect()
    })
}

fn same_matches(matcher: &PhraseMatcher, reference: &reference::PhraseMatcher, text: &str) {
    let tokens = tokenize(text);
    let got = matcher.find(&tokens, text);
    let want = reference.find(&tokens, text);
    let pairs: Vec<_> = got
        .iter()
        .map(|m| (m.start, m.end, m.label.to_string(), m.phrase.to_string()))
        .collect();
    let expected: Vec<_> = want
        .into_iter()
        .map(|m| (m.start, m.end, m.label, m.phrase))
        .collect();
    assert_eq!(pairs, expected, "{text:?}");
    for m in &got {
        assert_eq!(
            (tokens[m.tokens.start].start, tokens[m.tokens.end - 1].end),
            (m.start, m.end),
            "{text:?}"
        );
    }
}

fn same_assertions(rules: &[ModifierRule], text: &str, targets: &[(usize, usize)]) {
    let engine = ContextEngine::new(rules.to_vec());
    let reference = reference::ContextEngine::new(rules.to_vec());
    let whole = (0, text.len());
    let want: Vec<TargetAssertion> = reference.assert_targets(text, whole, targets);
    assert_eq!(
        engine.assert_targets(text, whole, targets),
        want,
        "{text:?}"
    );
    let modifiers: Vec<ContextModifier> = engine.modifiers_in_sentence(text, whole);
    assert_eq!(
        modifiers,
        reference.modifiers_in_sentence(text, whole),
        "{text:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn tokenize_matches_the_char_vector_scan(text in text(EDGE, 48)) {
        prop_assert_eq!(tokenize(&text), reference::tokenize(&text));
    }

    #[test]
    fn find_matches_the_allocating_matcher(text in sentence(), rows in lexicon()) {
        let mut matcher = PhraseMatcher::new();
        let mut reference = reference::PhraseMatcher::new();
        for (label, phrase) in &rows {
            matcher.add(label, phrase);
            reference.add(label, phrase);
        }
        same_matches(&matcher, &reference, &text);
    }

    #[test]
    fn sections_match_the_per_call_table(text in note()) {
        prop_assert_eq!(
            detect_sections(&text),
            reference::detect_sections_with(&text, &default_headers())
        );
        let custom = [("findings", "findings"), ("the ratio was 3", "ratio"), ("", "empty")];
        prop_assert_eq!(
            detect_sections_with(&text, &custom),
            reference::detect_sections_with(&text, &custom)
        );
    }

    #[test]
    fn context_matches_the_label_parsing_engine(text in sentence(), every in 1..4usize) {
        // Every `every`-th token is a target.
        let targets: Vec<(usize, usize)> = tokenize(&text)
            .iter()
            .step_by(every)
            .map(|t| (t.start, t.end))
            .collect();
        same_assertions(&modifier_rules(), &text, &targets);
    }
}

/// Every kernel the covid IE functions call, on every note of a seeded
/// corpus, with the case study's own lexicon and ConText rules.
#[test]
fn corpus_notes_match_the_reference_kernels() {
    let matcher = build_target_matcher();
    let mut reference = reference::PhraseMatcher::new();
    for (phrase, label) in lexicon_rows() {
        reference.add(&label, &phrase);
    }
    let rules = modifier_rules();
    let headers = default_headers();
    for doc in generate_corpus(400, 11) {
        let note = doc.text.as_str();
        assert_eq!(tokenize(note), reference::tokenize(note), "{}", doc.id);
        assert_eq!(
            detect_sections(note),
            reference::detect_sections_with(note, &headers),
            "{}",
            doc.id
        );
        for s in split_sentences(note) {
            let sentence = s.text(note);
            same_matches(&matcher, &reference, sentence);
            let targets: Vec<(usize, usize)> = matcher
                .find(&tokenize(sentence), sentence)
                .iter()
                .map(|m| (m.start, m.end))
                .collect();
            same_assertions(&rules, sentence, &targets);
        }
    }
}
