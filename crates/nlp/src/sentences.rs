//! Abbreviation-aware sentence splitting.
//!
//! Clinical notes mix prose with line-oriented structure, so the splitter
//! breaks on sentence punctuation (`.` `!` `?`) — unless the period
//! belongs to a known abbreviation or a decimal — and additionally on
//! blank lines and bullet-ish newlines, which is how medSpaCy's
//! `PyRuSH`-style splitters behave on notes.

use crate::tokenizer::{lowercase, tokenize, TokenKind};

/// Abbreviations that do not end a sentence despite a trailing period.
const ABBREVIATIONS: &[&str] = &[
    "dr", "mr", "mrs", "ms", "prof", "st", "jr", "sr", "vs", "etc", "e.g", "i.e", "fig", "al",
    "pt", "pts", "dx", "hx", "tx", "rx", "sx", "fx", "wt", "ht", "temp", "resp", "approx", "appt",
    "dept", "est", "min", "max", "mon", "tue", "wed", "thu", "fri", "sat", "sun", "jan", "feb",
    "mar", "apr", "jun", "jul", "aug", "sep", "sept", "oct", "nov", "dec", "no", "neg", "pos",
];

/// A sentence: a byte range of the source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sentence {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
}

impl Sentence {
    /// The sentence text.
    pub fn text<'t>(&self, source: &'t str) -> &'t str {
        &source[self.start..self.end]
    }
}

/// Splits `text` into sentences (trimmed, never empty).
pub fn split_sentences(text: &str) -> Vec<Sentence> {
    let tokens = tokenize(text);
    let mut boundaries: Vec<usize> = Vec::new(); // byte offsets *after* which a sentence ends
    let mut buf = String::new();

    for (i, tok) in tokens.iter().enumerate() {
        if tok.kind != TokenKind::Punct {
            continue;
        }
        let c = tok.text(text);
        if c != "." && c != "!" && c != "?" {
            continue;
        }
        if c == "." {
            // Abbreviation? look at the previous token.
            if let Some(prev) = i.checked_sub(1).map(|p| &tokens[p]) {
                if prev.end == tok.start && prev.kind == TokenKind::Word {
                    let w = lowercase(prev.text(text), &mut buf);
                    if ABBREVIATIONS.contains(&w) {
                        continue;
                    }
                    // Single-letter initials ("J. Smith").
                    if w.chars().count() == 1 {
                        continue;
                    }
                }
            }
        }
        // Consume any immediately following closing quotes/brackets.
        let mut end = tok.end;
        let mut j = i + 1;
        while let Some(next) = tokens.get(j) {
            if next.start == end && matches!(next.text(text), "\"" | "'" | ")" | "]") {
                end = next.end;
                j += 1;
            } else {
                break;
            }
        }
        boundaries.push(end);
    }

    // Blank lines always split.
    let mut search_from = 0;
    while let Some(rel) = text[search_from..].find("\n\n") {
        boundaries.push(search_from + rel);
        search_from += rel + 2;
    }
    // Newlines followed by a bullet or header-ish char split too.
    for (i, _) in text.match_indices('\n') {
        let rest = text[i + 1..].trim_start_matches([' ', '\t']);
        if rest.starts_with(['-', '*', '•'])
            || rest.starts_with(char::is_uppercase) && text[..i].ends_with(':')
        {
            boundaries.push(i);
        }
    }

    boundaries.sort_unstable();
    boundaries.dedup();

    let mut sentences = Vec::new();
    let mut start = 0usize;
    for &b in &boundaries {
        push_trimmed(text, start, b, &mut sentences);
        start = b;
    }
    push_trimmed(text, start, text.len(), &mut sentences);
    sentences
}

fn push_trimmed(text: &str, start: usize, end: usize, out: &mut Vec<Sentence>) {
    if start >= end {
        return;
    }
    let slice = &text[start..end];
    let leading = slice.len() - slice.trim_start().len();
    let trailing = slice.len() - slice.trim_end().len();
    let (s, e) = (start + leading, end - trailing);
    if s < e {
        out.push(Sentence { start: s, end: e });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<&str> {
        split_sentences(src).iter().map(|s| s.text(src)).collect()
    }

    #[test]
    fn splits_on_terminal_punctuation() {
        assert_eq!(
            texts("First sentence. Second one! Third?"),
            vec!["First sentence.", "Second one!", "Third?"]
        );
    }

    #[test]
    fn keeps_abbreviations_together() {
        assert_eq!(
            texts("Seen by Dr. Smith today. Follow up later."),
            vec!["Seen by Dr. Smith today.", "Follow up later."]
        );
    }

    #[test]
    fn keeps_decimals_together() {
        assert_eq!(
            texts("Temp was 38.5 today. Stable."),
            vec!["Temp was 38.5 today.", "Stable."]
        );
    }

    #[test]
    fn blank_lines_split() {
        assert_eq!(
            texts("First block\n\nSecond block"),
            vec!["First block", "Second block"]
        );
    }

    #[test]
    fn single_initial_does_not_split() {
        assert_eq!(texts("Seen by J. Smith."), vec!["Seen by J. Smith."]);
    }

    #[test]
    fn offsets_are_trimmed() {
        let src = "  Hello there.  Next.";
        let ss = split_sentences(src);
        assert_eq!(ss[0].text(src), "Hello there.");
        assert_eq!(ss[1].text(src), "Next.");
        assert_eq!(ss[0].start, 2);
    }

    #[test]
    fn empty_input() {
        assert!(split_sentences("").is_empty());
        assert!(split_sentences("   \n\n  ").is_empty());
    }

    #[test]
    fn abbreviations_are_lowercase() {
        for w in ABBREVIATIONS {
            assert_eq!(*w, w.to_lowercase(), "entry {w:?} must be lowercase");
        }
    }

    #[test]
    fn no_duplicate_abbreviations() {
        let mut seen = std::collections::HashSet::new();
        for a in ABBREVIATIONS {
            assert!(seen.insert(a), "duplicate abbreviation {a:?}");
        }
    }

    #[test]
    fn closing_quote_stays_with_sentence() {
        assert_eq!(
            texts("He said \"stop.\" Then left."),
            vec!["He said \"stop.\"", "Then left."]
        );
    }
}
