//! Span-carrying tokenizer.
//!
//! Deterministic rules, adequate for clinical prose: maximal runs of
//! alphabetic characters are words (internal apostrophes and hyphens
//! stay inside the token, as in `patient's` and `COVID-19` — the latter
//! mixes digits and is still one token), digit runs are numbers, and any
//! other non-whitespace character is a single punctuation token.
//!
//! [`tokenize`] is one forward scan over the bytes: an ASCII byte is
//! its own character, and only a non-ASCII byte is decoded. Every rule
//! is decided by the `char` predicates (`is_whitespace`,
//! `is_alphabetic`, `is_alphanumeric`, `is_ascii_digit`), so a token
//! boundary falls where it would over the decoded characters, and
//! nothing but the output vector is allocated. [`lowercase`] is the
//! normalization the other modules compare text under; it hands back
//! text that is lowercase ASCII already, and lowercases the rest into a
//! buffer its caller reuses.

use std::fmt;

/// Token classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenKind {
    /// Alphabetic (possibly with internal `'`/`-`/digits) word.
    Word,
    /// Pure digit run (possibly with internal `.` or `,`).
    Number,
    /// A single punctuation character.
    Punct,
}

/// A token: byte range plus classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Token {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
    /// Classification.
    pub kind: TokenKind,
}

impl Token {
    /// The token's text within `source`.
    pub fn text<'t>(&self, source: &'t str) -> &'t str {
        &source[self.start..self.end]
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the token is empty (never produced by [`tokenize`]).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

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

/// The character that starts at byte `i` of `text`, if any. An ASCII
/// byte is its own character; anything else is decoded.
#[inline]
fn char_at(text: &str, i: usize) -> Option<char> {
    let b = *text.as_bytes().get(i)?;
    if b.is_ascii() {
        Some(char::from(b))
    } else {
        text.get(i..)?.chars().next()
    }
}

/// The byte offset where a run that `continues` accepts, starting at
/// byte `i`, ends. A byte `ascii` accepts is a character `continues`
/// accepts whatever follows it, so a run of those is skipped unread.
#[inline]
fn run_end(
    text: &str,
    mut i: usize,
    ascii: impl Fn(&u8) -> bool,
    continues: impl Fn(char, Option<char>) -> bool,
) -> usize {
    let bytes = text.as_bytes();
    loop {
        while bytes.get(i).is_some_and(&ascii) {
            i += 1;
        }
        let Some(c) = char_at(text, i) else {
            return i;
        };
        if !continues(c, char_at(text, i + c.len_utf8())) {
            return i;
        }
        i += c.len_utf8();
    }
}

/// Tokenizes `text` into words, numbers, and punctuation.
pub fn tokenize(text: &str) -> Vec<Token> {
    // Prose averages more than four bytes a token.
    let mut tokens = Vec::with_capacity(text.len() / 4);
    let mut i = 0;
    while let Some(c) = char_at(text, i) {
        let start = i;
        i += c.len_utf8();
        if c.is_whitespace() {
            continue;
        }
        let kind = if c.is_alphabetic() {
            i = run_end(text, i, u8::is_ascii_alphanumeric, continues_word);
            TokenKind::Word
        } else if c.is_ascii_digit() {
            i = run_end(text, i, u8::is_ascii_digit, continues_number);
            TokenKind::Number
        } else {
            TokenKind::Punct
        };
        tokens.push(Token {
            start,
            end: i,
            kind,
        });
    }
    tokens
}

/// `text` lowercased — the normalization the phrase matcher, ConText
/// and the section detector compare text under. Text with no uppercase
/// or non-ASCII byte is lowercase already and comes back as it is; any
/// other is lowercased into `buf`, which a caller reuses across calls.
pub fn lowercase<'a>(text: &'a str, buf: &'a mut String) -> &'a str {
    if !text
        .bytes()
        .any(|b| b.is_ascii_uppercase() || !b.is_ascii())
    {
        return text;
    }
    if text.is_ascii() {
        buf.clear();
        buf.push_str(text);
        buf.make_ascii_lowercase();
    } else {
        *buf = text.to_lowercase();
    }
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(source: &str) -> Vec<&str> {
        tokenize(source).iter().map(|t| t.text(source)).collect()
    }

    #[test]
    fn words_numbers_punct() {
        assert_eq!(
            texts("Pt tested positive, 2 times."),
            vec!["Pt", "tested", "positive", ",", "2", "times", "."]
        );
    }

    #[test]
    fn internal_apostrophe_and_hyphen() {
        assert_eq!(texts("patient's"), vec!["patient's"]);
        assert_eq!(texts("COVID-19"), vec!["COVID-19"]);
        // Trailing hyphen is punctuation.
        assert_eq!(texts("end- stop"), vec!["end", "-", "stop"]);
    }

    #[test]
    fn numbers_with_decimals() {
        assert_eq!(texts("temp 38.5 today"), vec!["temp", "38.5", "today"]);
        // Trailing dot is sentence punctuation, not part of the number.
        assert_eq!(texts("count 12."), vec!["count", "12", "."]);
    }

    #[test]
    fn offsets_are_byte_accurate() {
        let src = "ab  cd";
        let toks = tokenize(src);
        assert_eq!((toks[0].start, toks[0].end), (0, 2));
        assert_eq!((toks[1].start, toks[1].end), (4, 6));
    }

    #[test]
    fn unicode_words() {
        let src = "naïve café";
        assert_eq!(texts(src), vec!["naïve", "café"]);
        let toks = tokenize(src);
        assert_eq!(toks[0].text(src), "naïve");
    }

    #[test]
    fn empty_and_whitespace_only() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("   \n\t ").is_empty());
    }

    #[test]
    fn lowered_normalizes() {
        let src = "COVID Positive";
        let toks = tokenize(src);
        let mut buf = String::new();
        let lowered: Vec<String> = toks
            .iter()
            .map(|t| lowercase(t.text(src), &mut buf).to_string())
            .collect();
        assert_eq!(lowered, vec!["covid", "positive"]);
    }
}
