//! Public API: compiled patterns with both matching semantics.

use crate::allmatches::{all_matches, all_matches_bounded, AllMatch};
use crate::compile::compile;
use crate::error::RegexError;
use crate::nfa::Program;
use crate::parser::{parse, ParsedPattern};
use crate::pikevm;
use crate::prefilter::Prefilter;

/// A compiled regex formula.
///
/// Construction parses and compiles once; matching never re-parses. The
/// two entry points correspond to the two semantics described in the crate
/// docs: [`Regex::find_iter`] (Python-style scanning, used by the `rgx` IE
/// function) and [`Regex::all_matches`] (formal spanner semantics, used by
/// `rgx_all` and the spanner algebra).
#[derive(Debug, Clone)]
pub struct Regex {
    pattern: String,
    parsed: ParsedPattern,
    program: Program,
    /// Literal obligation extracted at compile time; lets the scanning
    /// entry points skip VM launches (see [`crate::prefilter`]).
    prefilter: Option<Prefilter>,
}

/// A single match: the byte range of group 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Match {
    /// Byte offset of the match start.
    pub start: usize,
    /// Byte offset one past the match end.
    pub end: usize,
}

impl Match {
    /// Extracts the matched substring.
    pub fn as_str<'t>(&self, text: &'t str) -> &'t str {
        &text[self.start..self.end]
    }

    /// Whether the match is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// A match together with its capture groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Captures {
    /// `groups[0]` is the whole match; `groups[k]` is group `k`.
    groups: Vec<Option<(usize, usize)>>,
}

impl Captures {
    /// Byte range of group `k` (0 = whole match), if it participated.
    pub fn group(&self, k: usize) -> Option<(usize, usize)> {
        self.groups.get(k).copied().flatten()
    }

    /// The whole match.
    pub fn whole(&self) -> Match {
        let (start, end) = self.groups[0].expect("group 0 always set on a match");
        Match { start, end }
    }

    /// Number of groups including group 0.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether there are no explicit groups (only group 0).
    pub fn is_empty(&self) -> bool {
        self.groups.len() <= 1
    }

    /// Iterates over the explicit groups (1..), in index order.
    pub fn explicit_groups(&self) -> impl Iterator<Item = Option<(usize, usize)>> + '_ {
        self.groups.iter().skip(1).copied()
    }
}

impl Regex {
    /// Parses and compiles `pattern`.
    pub fn new(pattern: &str) -> Result<Regex, RegexError> {
        let parsed = parse(pattern)?;
        let program = compile(&parsed)?;
        let prefilter = Prefilter::build(&parsed.ast);
        Ok(Regex {
            pattern: pattern.to_string(),
            parsed,
            program,
            prefilter,
        })
    }

    /// The original pattern string.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// Number of explicit capture groups.
    pub fn group_count(&self) -> usize {
        self.program.group_count()
    }

    /// Names of the explicit groups, in index order (`None` = unnamed).
    pub fn group_names(&self) -> &[Option<String>] {
        &self.program.group_names
    }

    /// The parsed AST (used by the test oracles).
    pub fn parsed(&self) -> &ParsedPattern {
        &self.parsed
    }

    /// The compiled program (used by benches and the algebra layer).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The literal prefilter extracted from the pattern, if any (used by
    /// tests and benchmark reporting).
    pub fn prefilter(&self) -> Option<&Prefilter> {
        self.prefilter.as_ref()
    }

    /// Single scan entry point: routes through the prefilter when the
    /// pattern has one.
    fn search_at(&self, text: &str, start: usize) -> Option<pikevm::SearchResult> {
        match &self.prefilter {
            Some(pf) => pf.search(&self.program, text, start),
            None => pikevm::search(&self.program, text, start),
        }
    }

    /// Whether the pattern matches anywhere in `text`.
    pub fn is_match(&self, text: &str) -> bool {
        self.search_at(text, 0).is_some()
    }

    /// Leftmost-first match, if any.
    pub fn find(&self, text: &str) -> Option<Match> {
        self.find_at(text, 0)
    }

    /// Leftmost-first match at or after byte `start`.
    pub fn find_at(&self, text: &str, start: usize) -> Option<Match> {
        self.search_at(text, start).map(|r| {
            let (s, e) = r.group(0).expect("group 0 set");
            Match { start: s, end: e }
        })
    }

    /// Leftmost-first captures, if any.
    pub fn captures(&self, text: &str) -> Option<Captures> {
        self.captures_at(text, 0)
    }

    /// Leftmost-first captures at or after byte `start`.
    pub fn captures_at(&self, text: &str, start: usize) -> Option<Captures> {
        self.search_at(text, start).map(|r| Captures {
            groups: (0..=self.group_count()).map(|k| r.group(k)).collect(),
        })
    }

    /// Non-overlapping leftmost-first scan (Python `re.finditer`).
    pub fn find_iter<'r, 't>(&'r self, text: &'t str) -> FindIter<'r, 't> {
        FindIter {
            regex: self,
            text,
            pos: 0,
            done: false,
        }
    }

    /// Non-overlapping scan yielding captures.
    pub fn captures_iter<'r, 't>(&'r self, text: &'t str) -> CapturesIter<'r, 't> {
        CapturesIter {
            regex: self,
            text,
            pos: 0,
            done: false,
        }
    }

    /// Formal spanner semantics: every accepting run of every substring,
    /// sorted.
    pub fn all_matches(&self, text: &str) -> Vec<AllMatch> {
        all_matches(&self.program, text)
    }

    /// [`Regex::all_matches`] truncated after `limit` rows.
    pub fn all_matches_bounded(&self, text: &str, limit: usize) -> Vec<AllMatch> {
        all_matches_bounded(&self.program, text, limit)
    }
}

/// Iterator over non-overlapping matches.
pub struct FindIter<'r, 't> {
    regex: &'r Regex,
    text: &'t str,
    pos: usize,
    done: bool,
}

impl Iterator for FindIter<'_, '_> {
    type Item = Match;

    fn next(&mut self) -> Option<Match> {
        let (m, next_pos, done) = step(self.regex, self.text, self.pos, self.done)?;
        self.pos = next_pos;
        self.done = done;
        Some(Match {
            start: m.whole().start,
            end: m.whole().end,
        })
    }
}

/// Iterator over non-overlapping captures.
pub struct CapturesIter<'r, 't> {
    regex: &'r Regex,
    text: &'t str,
    pos: usize,
    done: bool,
}

impl Iterator for CapturesIter<'_, '_> {
    type Item = Captures;

    fn next(&mut self) -> Option<Captures> {
        let (m, next_pos, done) = step(self.regex, self.text, self.pos, self.done)?;
        self.pos = next_pos;
        self.done = done;
        Some(m)
    }
}

/// Shared scan step: find at `pos`, compute the next scan position using
/// the empty-match advance rule (Python semantics: after an empty match,
/// skip one character).
fn step(regex: &Regex, text: &str, pos: usize, done: bool) -> Option<(Captures, usize, bool)> {
    if done {
        return None;
    }
    let caps = regex.captures_at(text, pos)?;
    let m = caps.whole();
    if m.end > m.start {
        Some((caps, m.end, false))
    } else {
        // Empty match: advance one char; flag completion at text end.
        match text[m.end..].chars().next() {
            Some(c) => Some((caps, m.end + c.len_utf8(), false)),
            None => Some((caps, m.end, true)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spans(pattern: &str, text: &str) -> Vec<(usize, usize)> {
        Regex::new(pattern)
            .unwrap()
            .find_iter(text)
            .map(|m| (m.start, m.end))
            .collect()
    }

    #[test]
    fn paper_worked_example_is_exact() {
        // §2: α = x{a+}c+y{b+}, d = "acb aacccbbb" — rgxα(d) returns the
        // tuples (⟨0,1⟩, ⟨2,3⟩) and (⟨4,6⟩, ⟨9,12⟩), i.e. (a, b) and
        // (aa, bbb).
        let re = Regex::new("x{a+}c+y{b+}").unwrap();
        let d = "acb aacccbbb";
        let rows: Vec<Vec<Option<(usize, usize)>>> = re
            .captures_iter(d)
            .map(|c| c.explicit_groups().collect())
            .collect();
        assert_eq!(
            rows,
            vec![
                vec![Some((0, 1)), Some((2, 3))],
                vec![Some((4, 6)), Some((9, 12))],
            ]
        );
        assert_eq!(&d[0..1], "a");
        assert_eq!(&d[2..3], "b");
        assert_eq!(&d[4..6], "aa");
        assert_eq!(&d[9..12], "bbb");
    }

    #[test]
    fn email_pattern_of_section_3() {
        // The §3.2 embedding example: user/domain extraction.
        let re = Regex::new(r"(\w+)@(\w+)\.\w+").unwrap();
        let text = "write ann@gmail.com or bob@work.org";
        let pairs: Vec<(String, String)> = re
            .captures_iter(text)
            .map(|c| {
                let (us, ue) = c.group(1).unwrap();
                let (ds, de) = c.group(2).unwrap();
                (text[us..ue].to_string(), text[ds..de].to_string())
            })
            .collect();
        assert_eq!(
            pairs,
            vec![
                ("ann".to_string(), "gmail".to_string()),
                ("bob".to_string(), "work".to_string()),
            ]
        );
    }

    #[test]
    fn find_iter_nonoverlapping() {
        assert_eq!(spans("aa", "aaaaa"), vec![(0, 2), (2, 4)]);
    }

    #[test]
    fn empty_match_scan_matches_python() {
        // Python: [m.span() for m in re.finditer(r'a*', 'baa')]
        //         → [(0, 0), (1, 3), (3, 3)]
        assert_eq!(spans("a*", "baa"), vec![(0, 0), (1, 3), (3, 3)]);
        // Python: re.finditer(r'', 'ab') → [(0,0), (1,1), (2,2)]
        assert_eq!(spans("", "ab"), vec![(0, 0), (1, 1), (2, 2)]);
    }

    #[test]
    fn empty_match_after_final_char() {
        // Python: re.finditer(r'a*', 'aa') → [(0, 2), (2, 2)]
        assert_eq!(spans("a*", "aa"), vec![(0, 2), (2, 2)]);
    }

    #[test]
    fn is_match_and_find() {
        let re = Regex::new("b+").unwrap();
        assert!(re.is_match("abc"));
        assert!(!re.is_match("acd"));
        assert_eq!(re.find("abbc"), Some(Match { start: 1, end: 3 }));
    }

    #[test]
    fn match_as_str() {
        let re = Regex::new("b+").unwrap();
        let m = re.find("abbc").unwrap();
        assert_eq!(m.as_str("abbc"), "bb");
    }

    #[test]
    fn group_names_surface() {
        let re = Regex::new("x{a}(b)(?<z>c)").unwrap();
        assert_eq!(
            re.group_names(),
            &[Some("x".to_string()), None, Some("z".to_string())]
        );
        assert_eq!(re.group_count(), 3);
    }

    #[test]
    fn syntax_errors_propagate() {
        assert!(Regex::new("a(").is_err());
        assert!(Regex::new("[a").is_err());
    }

    #[test]
    fn all_matches_contains_every_findall_row() {
        let re = Regex::new("x{a+}c+y{b+}").unwrap();
        let d = "acb aacccbbb";
        let all = re.all_matches(d);
        for caps in re.captures_iter(d) {
            let row: Vec<Option<(usize, usize)>> = caps.explicit_groups().collect();
            let (s, e) = caps.group(0).unwrap();
            assert!(
                all.iter()
                    .any(|m| m.start == s && m.end == e && m.groups == row),
                "findall row {row:?} missing from all_matches"
            );
        }
    }
}
