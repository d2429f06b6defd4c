//! Case-insensitive multi-token phrase matching.
//!
//! The pipeline's *target matcher*: given a lexicon of phrases (each
//! carrying a label), find every occurrence over the token sequence.
//! Matching is token-aligned — `"covid"` does not match inside
//! `"covidiom"` — and longest-match-wins among overlapping phrases with
//! the same start, which is how medSpaCy's `TargetMatcher` resolves
//! overlaps.
//!
//! A search allocates its output and at most one buffer, in which it
//! lowercases each token that has an uppercase or non-ASCII byte before
//! looking it up as a phrase's first word ([`lowercase`]). An ASCII
//! token whose first byte and length no first word has is skipped
//! unread, and a phrase's later words are compared with the tokens in
//! place. A [`PhraseMatch`] borrows its label and phrase from the
//! matcher, and names the phrase by its index and the tokens it covers,
//! so a caller that keys its own table on the phrase (ConText's rules)
//! needs no lookup by text.

use crate::tokenizer::{lowercase, Token};
use rustc_hash::FxHashMap;
use std::ops::Range;

/// A phrase occurrence, borrowing from the [`PhraseMatcher`] that found
/// it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhraseMatch<'m> {
    /// Byte offset of the first matched token.
    pub start: usize,
    /// Byte offset one past the last matched token.
    pub end: usize,
    /// The matched tokens, as indices into the searched token slice.
    pub tokens: Range<usize>,
    /// Which phrase matched: the number of [`PhraseMatcher::add`] calls
    /// made before the one that loaded it.
    pub index: usize,
    /// Label of the matched phrase.
    pub label: &'m str,
    /// The canonical (lexicon) form of the phrase.
    pub phrase: &'m str,
}

/// One loaded phrase.
#[derive(Debug, Clone)]
struct Phrase {
    index: usize,
    /// Lowercased whitespace-separated words.
    tokens: Vec<String>,
    label: String,
    phrase: String,
}

/// A compiled phrase lexicon.
#[derive(Debug, Clone, Default)]
pub struct PhraseMatcher {
    /// First token → the phrases starting with it, in the order added.
    by_first: FxHashMap<String, Vec<Phrase>>,
    /// Number of `add` calls so far.
    added: usize,
    /// Per ASCII byte, one bit per byte length (the last bit standing
    /// for 63 and more) of the first words that start with that byte.
    /// An ASCII token lowercases to a word of its own length and first
    /// byte, so one whose bit is clear starts no phrase.
    ascii_firsts: Vec<u64>,
}

fn length_bit(len: usize) -> u64 {
    1 << len.min(63)
}

impl PhraseMatcher {
    /// An empty matcher.
    pub fn new() -> Self {
        PhraseMatcher::default()
    }

    /// Adds a phrase under a label. Phrases are tokenized on whitespace
    /// and matched case-insensitively.
    pub fn add(&mut self, label: &str, phrase: &str) {
        let index = self.added;
        self.added += 1;
        let tokens: Vec<String> = phrase
            .split_whitespace()
            .map(|w| w.to_lowercase())
            .collect();
        let Some(first) = tokens.first() else {
            return;
        };
        if let Some(&b) = first.as_bytes().first().filter(|b| b.is_ascii()) {
            self.ascii_firsts.resize(128, 0);
            self.ascii_firsts[usize::from(b)] |= length_bit(first.len());
        }
        self.by_first
            .entry(first.clone())
            .or_default()
            .push(Phrase {
                index,
                tokens,
                label: label.to_string(),
                phrase: phrase.to_string(),
            });
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
    /// the same start keep only the longest (the first added among
    /// equals); matches starting inside a previous match are allowed
    /// (ConText needs nested cues).
    pub fn find(&self, tokens: &[Token], source: &str) -> Vec<PhraseMatch<'_>> {
        let mut out = Vec::new();
        let mut buf = String::new();
        for (i, first) in tokens.iter().enumerate() {
            let text = first.text(source);
            if text.is_ascii() && !self.may_start(text) {
                continue;
            }
            let Some(candidates) = self.by_first.get(lowercase(text, &mut buf)) else {
                continue;
            };
            let mut best: Option<&Phrase> = None;
            for candidate in candidates {
                let len = candidate.tokens.len();
                let fits = tokens.get(i + 1..i + len).is_some_and(|rest| {
                    candidate.tokens[1..]
                        .iter()
                        .zip(rest)
                        .all(|(word, t)| lowercases_to(t.text(source), word))
                });
                if fits && best.is_none_or(|b| b.tokens.len() < len) {
                    best = Some(candidate);
                }
            }
            if let Some(phrase) = best {
                let matched = i..i + phrase.tokens.len();
                out.push(PhraseMatch {
                    start: first.start,
                    end: tokens[matched.end - 1].end,
                    tokens: matched,
                    index: phrase.index,
                    label: &phrase.label,
                    phrase: &phrase.phrase,
                });
            }
        }
        out
    }

    /// Whether ASCII text could lowercase to some phrase's first word.
    fn may_start(&self, ascii: &str) -> bool {
        ascii
            .as_bytes()
            .first()
            .and_then(|b| self.ascii_firsts.get(usize::from(b.to_ascii_lowercase())))
            .is_some_and(|bits| bits & length_bit(ascii.len()) != 0)
    }
}

/// Whether `text` lowercases to `word`, itself a lowercased string. ASCII
/// text lowercases byte by byte, so it is compared in place.
fn lowercases_to(text: &str, word: &str) -> bool {
    if text.is_ascii() {
        text.eq_ignore_ascii_case(word)
    } else {
        text.to_lowercase() == word
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    fn matcher() -> PhraseMatcher {
        let mut m = PhraseMatcher::new();
        m.add("COVID", "covid-19");
        m.add("COVID", "covid");
        m.add("COVID", "coronavirus");
        m.add("FEVER", "fever");
        m.add("FEVER", "high fever");
        m
    }

    fn find(src: &str) -> Vec<(String, String)> {
        let tokens = tokenize(src);
        let matcher = matcher();
        matcher
            .find(&tokens, src)
            .into_iter()
            .map(|m| (m.label.to_string(), src[m.start..m.end].to_string()))
            .collect()
    }

    #[test]
    fn single_and_multi_token_phrases() {
        // Nested matches at distinct starts are all reported ("fever"
        // inside "high fever") — ConText relies on that.
        assert_eq!(
            find("Patient has COVID-19 and high fever."),
            vec![
                ("COVID".to_string(), "COVID-19".to_string()),
                ("FEVER".to_string(), "high fever".to_string()),
                ("FEVER".to_string(), "fever".to_string()),
            ]
        );
    }

    #[test]
    fn longest_match_wins_at_same_start() {
        // "high fever" beats "fever" when starting at "high"; the bare
        // "fever" token still matches at its own start.
        let matches = find("high fever");
        assert_eq!(matches[0].1, "high fever");
        assert_eq!(matches[1].1, "fever");
    }

    #[test]
    fn case_insensitive() {
        assert_eq!(find("CORONAVIRUS detected")[0].0, "COVID");
    }

    #[test]
    fn token_aligned_no_substring_matches() {
        assert!(find("covidiom is not a disease").is_empty());
    }

    #[test]
    fn byte_offsets_correct() {
        let src = "note: covid positive";
        let tokens = tokenize(src);
        let matcher = matcher();
        let m = &matcher.find(&tokens, src)[0];
        assert_eq!(&src[m.start..m.end], "covid");
        assert_eq!(m.start, 6);
    }

    #[test]
    fn empty_matcher_finds_nothing() {
        let m = PhraseMatcher::new();
        assert!(m.is_empty());
        let src = "anything";
        assert!(m.find(&tokenize(src), src).is_empty());
    }

    #[test]
    fn phrase_count() {
        assert_eq!(matcher().len(), 5);
    }
}
