//! Public API: compiled patterns with both matching semantics.

use crate::allmatches::{all_matches, all_matches_bounded, AllMatch};
use crate::compile::compile;
use crate::dfa::{self, Dfa};
use crate::error::RegexError;
use crate::nfa::Program;
use crate::parser::{parse, ParsedPattern};
use crate::pikevm;
use crate::prefilter::{Launch, Prefilter};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A compiled regex formula.
///
/// Construction parses and compiles once; matching never re-parses. The
/// two entry points correspond to the two semantics described in the crate
/// docs: [`Regex::find_iter`] (Python-style scanning, used by the `rgx` IE
/// function) and [`Regex::all_matches`] (formal spanner semantics, which
/// `rgx_all` enumerates through [`Regex::all_matches_bounded`]).
///
/// A `Regex` is `Send + Sync` and meant to be shared (`Arc<Regex>`):
/// the lazily built DFA states live in caches that a scan checks out of
/// an internal pool for its duration, so concurrent scans never wait on
/// one another beyond that hand-over. The pool grows to the largest
/// number of scans that ever ran at once; a clone starts with an empty
/// one.
#[derive(Debug)]
pub struct Regex {
    pattern: String,
    parsed: ParsedPattern,
    program: Program,
    /// Literal obligation extracted at compile time; lets the scanning
    /// entry points skip matcher launches (see [`crate::prefilter`]).
    prefilter: Option<Prefilter>,
    /// Locates matches; `None` for patterns with look-around assertions,
    /// which stay on the Pike VM.
    dfa: Option<Dfa>,
    /// Group offsets every match shares ([`crate::ast::Ast::fixed_groups`]).
    fixed: Option<Vec<(usize, usize)>>,
    /// Idle DFA caches.
    pool: Mutex<Vec<Pooled>>,
}

/// A DFA cache as the pool keeps it: boxed, so that a checkout moves a
/// pointer, not the cache's tables.
#[derive(Debug, Default)]
struct Pooled(Box<dfa::Cache>);

impl Clone for Regex {
    fn clone(&self) -> Regex {
        Regex {
            pattern: self.pattern.clone(),
            parsed: self.parsed.clone(),
            program: self.program.clone(),
            prefilter: self.prefilter.clone(),
            dfa: self.dfa.clone(),
            fixed: self.fixed.clone(),
            pool: Mutex::default(),
        }
    }
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

/// What a search has to deliver beyond "where".
enum Want<'g> {
    /// Whether any match exists; the returned span is not the match's.
    Existence,
    /// The span of the leftmost-first match.
    Span,
    /// The span, and every group (0 = whole match) written here.
    Groups(&'g mut Vec<Option<(usize, usize)>>),
}

/// One scan's hold on a DFA cache, returned to the pool on drop.
struct Searcher<'r> {
    regex: &'r Regex,
    /// Checked out at the scan's first DFA run: a scan its prefilter
    /// prunes takes no lock.
    cache: Option<Pooled>,
}

impl<'r> Searcher<'r> {
    fn new(regex: &'r Regex) -> Searcher<'r> {
        Searcher { regex, cache: None }
    }

    /// Single scan entry point: literal prefilter, then the DFA window —
    /// forward for the end, backwards for the start — and, only when they
    /// are wanted, the window's groups ([`Regex::window`]).
    fn search_at(&mut self, text: &str, from: usize, mut want: Want<'_>) -> Option<(usize, usize)> {
        let regex = self.regex;
        let cache = &mut self.cache;
        let mut run = |launch: Launch| match &regex.dfa {
            Some(dfa) => {
                let pooled = cache.get_or_insert_with(|| {
                    let idle = regex.idle_caches().pop();
                    idle.unwrap_or_default()
                });
                let cache = &mut pooled.0;
                let walked = cache.walked;
                let found = regex.window(dfa, cache, text, launch, &mut want);
                found.ok_or(cache.walked - walked)
            }
            // The one fallback: look-around assertions depend on the
            // neighbouring characters, which DFA states do not record.
            None => {
                let groups = match &mut want {
                    Want::Groups(groups) => Some(&mut **groups),
                    _ => None,
                };
                let (at, anchored) = launch.pike();
                pikevm::search_into(&regex.program, text, at, text.len(), anchored, groups).ok_or(0)
            }
        };
        match &regex.prefilter {
            Some(prefilter) => prefilter.search_with(text, from, run),
            None => run(Launch::From(from)).ok(),
        }
    }
}

impl Drop for Searcher<'_> {
    fn drop(&mut self) {
        // A cache abandoned mid-update by a panic is not worth keeping.
        if let (Some(cache), false) = (self.cache.take(), std::thread::panicking()) {
            self.regex.idle_caches().push(cache);
        }
    }
}

impl Regex {
    /// The pool. Its only updates are `push` and `pop`, which leave it
    /// valid at every step, so a poisoned lock is still good to use.
    fn idle_caches(&self) -> MutexGuard<'_, Vec<Pooled>> {
        self.pool.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The DFA's answer to one launch: the match's window, with its
    /// groups written when they are wanted: at the offsets every match
    /// shares, else by the Pike VM run anchored inside the window.
    fn window(
        &self,
        dfa: &Dfa,
        cache: &mut dfa::Cache,
        text: &str,
        launch: Launch,
        want: &mut Want<'_>,
    ) -> Option<(usize, usize)> {
        let (at, anchored) = match launch {
            Launch::At(at) => (at, true),
            Launch::From(at) => (at, false),
            Launch::Split { floor, literal } => {
                (dfa.prefix_start(cache, text, floor, literal)?, true)
            }
        };
        let earliest = matches!(want, Want::Existence);
        let end = dfa.find_end(&self.program, cache, text, at, anchored, earliest)?;
        if earliest {
            return Some((at, end));
        }
        let start = if anchored {
            at
        } else {
            dfa.find_start(cache, text, at, end)
        };
        if let Want::Groups(groups) = want {
            let whole = match &self.fixed {
                Some(fixed) => {
                    groups.clear();
                    groups.push(Some((start, end)));
                    groups.extend(fixed.iter().map(|&(a, b)| Some((start + a, end - b))));
                    Some((start, end))
                }
                None => pikevm::search_into(&self.program, text, start, end, true, Some(groups)),
            };
            debug_assert_eq!(whole, Some((start, end)));
        }
        Some((start, end))
    }

    /// Parses and compiles `pattern`.
    pub fn new(pattern: &str) -> Result<Regex, RegexError> {
        let parsed = parse(pattern)?;
        let program = compile(&parsed)?;
        let prefilter = Prefilter::build(&parsed.ast);
        let prefix = match &prefilter {
            Some(Prefilter::Inner { prefix, .. }) => Some(prefix),
            _ => None,
        };
        let dfa = Dfa::new(&program, &parsed.ast, prefix);
        Ok(Regex {
            pattern: pattern.to_string(),
            fixed: parsed.ast.fixed_groups(program.group_count()),
            parsed,
            program,
            prefilter,
            dfa,
            pool: Mutex::default(),
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

    /// Whether the pattern matches anywhere in `text`. Stops at the first
    /// accepting state instead of settling which match is leftmost-first.
    pub fn is_match(&self, text: &str) -> bool {
        Searcher::new(self)
            .search_at(text, 0, Want::Existence)
            .is_some()
    }

    /// Leftmost-first match, if any.
    pub fn find(&self, text: &str) -> Option<Match> {
        self.find_at(text, 0)
    }

    /// Leftmost-first match at or after byte `start`.
    pub fn find_at(&self, text: &str, start: usize) -> Option<Match> {
        Searcher::new(self)
            .search_at(text, start, Want::Span)
            .map(|(start, end)| Match { start, end })
    }

    /// Leftmost-first captures, if any.
    pub fn captures(&self, text: &str) -> Option<Captures> {
        self.captures_at(text, 0)
    }

    /// Leftmost-first captures at or after byte `start`.
    pub fn captures_at(&self, text: &str, start: usize) -> Option<Captures> {
        let mut groups = Vec::new();
        Searcher::new(self).search_at(text, start, Want::Groups(&mut groups))?;
        Some(Captures { groups })
    }

    /// Non-overlapping leftmost-first scan (Python `re.finditer`).
    pub fn find_iter<'r, 't>(&'r self, text: &'t str) -> FindIter<'r, 't> {
        FindIter {
            searcher: Searcher::new(self),
            text,
            pos: Some(0),
        }
    }

    /// Non-overlapping scan yielding captures.
    pub fn captures_iter<'r, 't>(&'r self, text: &'t str) -> CapturesIter<'r, 't> {
        CapturesIter {
            searcher: Searcher::new(self),
            text,
            pos: Some(0),
        }
    }

    /// Formal spanner semantics: every accepting run of every substring,
    /// sorted.
    pub fn all_matches(&self, text: &str) -> Vec<AllMatch> {
        all_matches(&self.program, text)
    }

    /// [`Regex::all_matches`] truncated after `limit` rows; `None` once
    /// `stop`, asked every few thousand configurations, answers `true`.
    pub fn all_matches_bounded(
        &self,
        text: &str,
        limit: usize,
        stop: &dyn Fn() -> bool,
    ) -> Option<Vec<AllMatch>> {
        all_matches_bounded(&self.program, text, limit, stop)
    }
}

/// Iterator over non-overlapping matches.
pub struct FindIter<'r, 't> {
    searcher: Searcher<'r>,
    text: &'t str,
    /// Where the next search starts; `None` once the scan is over.
    pos: Option<usize>,
}

impl Iterator for FindIter<'_, '_> {
    type Item = Match;

    fn next(&mut self) -> Option<Match> {
        let (start, end) = self.searcher.search_at(self.text, self.pos?, Want::Span)?;
        self.pos = resume_after(self.text, start, end);
        Some(Match { start, end })
    }
}

/// Iterator over non-overlapping captures.
pub struct CapturesIter<'r, 't> {
    searcher: Searcher<'r>,
    text: &'t str,
    pos: Option<usize>,
}

impl CapturesIter<'_, '_> {
    /// [`Iterator::next`] writing the next match's groups (0 = whole match)
    /// into `groups` instead of a fresh [`Captures`]; `false` when there
    /// is none. A scan that reuses `groups` allocates nothing per match.
    pub fn next_into(&mut self, groups: &mut Vec<Option<(usize, usize)>>) -> bool {
        let want = Want::Groups(groups);
        let found = (self.pos).and_then(|pos| self.searcher.search_at(self.text, pos, want));
        let Some((start, end)) = found else {
            return false;
        };
        self.pos = resume_after(self.text, start, end);
        true
    }
}

impl Iterator for CapturesIter<'_, '_> {
    type Item = Captures;

    fn next(&mut self) -> Option<Captures> {
        let mut groups = Vec::with_capacity(self.searcher.regex.group_count() + 1);
        self.next_into(&mut groups).then_some(Captures { groups })
    }
}

/// Where the scan resumes after the match `start..end`, or `None` when it
/// is over. Python semantics: after an empty match, skip one character.
fn resume_after(text: &str, start: usize, end: usize) -> Option<usize> {
    if end > start {
        Some(end)
    } else {
        let skipped = text[end..].chars().next()?;
        Some(end + skipped.len_utf8())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfa::tests::ab_text;

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

    /// Spans of the non-overlapping scan driven by hand over the
    /// reference matcher.
    fn reference_spans(re: &Regex, text: &str) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut pos = Some(0);
        while let Some(from) = pos {
            let Some(found) = pikevm::search(re.program(), text, from) else {
                break;
            };
            let (start, end) = found.group(0).unwrap();
            out.push((start, end));
            pos = resume_after(text, start, end);
        }
        out
    }

    #[test]
    fn empty_matches_skip_one_whole_character() {
        // After an empty match the scan resumes one *character* on.
        assert_eq!(spans("a*", "éa日"), vec![(0, 0), (2, 3), (3, 3), (6, 6)]);
        assert_eq!(spans("", "é"), vec![(0, 0), (2, 2)]);
        let re = Regex::new("(a*)(b?)").unwrap();
        let rows: Vec<Vec<_>> = re
            .captures_iter("ab😀")
            .map(|c| c.explicit_groups().collect())
            .collect();
        assert_eq!(
            rows,
            vec![
                vec![Some((0, 1)), Some((1, 2))],
                vec![Some((2, 2)), Some((2, 2))],
                vec![Some((6, 6)), Some((6, 6))],
            ]
        );
    }

    #[test]
    fn look_around_patterns_take_the_pike_vm() {
        let text = "a cat sat on concatenated cats; cat";
        for pattern in [
            r"\bcat\b",
            r"\Bcat",
            r"(c)at\B",
            "^a",
            "cat$",
            r"\b(\w+) (\w+)\b",
        ] {
            let re = Regex::new(pattern).unwrap();
            assert!(re.dfa.is_none(), "{pattern} has an assertion");
            let found: Vec<_> = re.find_iter(text).map(|m| (m.start, m.end)).collect();
            assert_eq!(found, reference_spans(&re, text), "{pattern}");
            assert!(!found.is_empty(), "{pattern}");
            for caps in re.captures_iter(text) {
                let expected = pikevm::search(re.program(), text, caps.whole().start).unwrap();
                for k in 0..caps.len() {
                    assert_eq!(caps.group(k), expected.group(k), "{pattern} group {k}");
                }
            }
            assert!(re.is_match(text));
            // No DFA, no cache to pool.
            assert!(re.pool.lock().unwrap().is_empty());
        }
        assert!(Regex::new("cat").unwrap().dfa.is_some());
    }

    #[test]
    fn overflowing_the_state_budget_changes_no_row() {
        // 2^15 reachable DFA states; the cache holds far fewer.
        let re = Regex::new("(a|b)*?(a(a|b){14})").unwrap();
        let text = ab_text(30_000, 0x9E37_79B9_7F4A_7C15);
        let found: Vec<_> = re.find_iter(&text).map(|m| (m.start, m.end)).collect();
        assert_eq!(found, reference_spans(&re, &text));
        assert!(found.len() > 100);
        for caps in re.captures_iter(&text).take(50) {
            let expected = pikevm::search(re.program(), &text, caps.whole().start).unwrap();
            for k in 0..caps.len() {
                assert_eq!(caps.group(k), expected.group(k));
            }
        }
        let pool = re.pool.lock().unwrap();
        assert_eq!(pool.len(), 1, "sequential scans share one cache");
        assert!(pool[0].0.emptied() > 0, "the scan must overflow the cache");
        assert!(pool[0].0.words() <= 2 * dfa::CACHE_BUDGET_WORDS);
    }

    #[test]
    fn is_match_agrees_with_find() {
        let cases = [
            (r"\w+@\w+\.com", "write ann@gmail.com", true),
            (r"\w+@\w+\.com", "write ann@gmail.org", false),
            ("error: [a-z]+", "error: 42, error: disk", true),
            ("error: [a-z]+", "error: 42", false),
            (r"\bcat\b", "concatenate", false),
            ("a*", "", true),
            ("[^a]日", "a日 b日", true),
        ];
        for (pattern, text, expected) in cases {
            let re = Regex::new(pattern).unwrap();
            assert_eq!(re.is_match(text), expected, "{pattern} on {text:?}");
            assert_eq!(re.find(text).is_some(), expected, "{pattern} on {text:?}");
        }
    }

    #[test]
    fn threads_scan_through_one_shared_regex() {
        use std::sync::{Arc, Barrier};
        const THREADS: usize = 2;
        let re = Arc::new(Regex::new(r"(\w+)@(\w+)\.com").unwrap());
        let texts: Vec<String> = (0..200)
            .map(|i| {
                format!(
                    "{} u{i}@host{i}.com é {} v{i}@x.org w@y.com",
                    ab_text(i, 7),
                    i
                )
            })
            .collect();
        let expected: Vec<Vec<Captures>> = texts
            .iter()
            .map(|t| Regex::new(re.pattern()).unwrap().captures_iter(t).collect())
            .collect();
        // Every thread holds a scan open when the others start theirs, so
        // each must have checked out a cache of its own.
        let barrier = Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    let mut first = re.captures_iter(&texts[0]);
                    assert_eq!(first.next().as_ref(), expected[0].first());
                    barrier.wait();
                    for (text, rows) in texts.iter().zip(&expected) {
                        let found: Vec<Captures> = re.captures_iter(text).collect();
                        assert_eq!(&found, rows);
                        assert!(re.is_match(text));
                    }
                    barrier.wait();
                });
            }
        });
        let idle = re.pool.lock().unwrap().len();
        assert!(
            (THREADS..=2 * THREADS).contains(&idle),
            "one cache per concurrent scan, reused across documents: {idle}"
        );
    }

    #[test]
    fn prefiltered_searches_walk_linear_time() {
        use crate::prefilter::{VERIFY_GRACE, WALKED};
        let cases = [
            (r"\w+@\w+\.com", "a@".repeat(50_000), " b@c.com"),
            (r"\w+@\w+\.com", "a".repeat(100_000) + "@", " b@c.com"),
            (r"\d{4}-\d{2}-\d{2}", "1234-".repeat(20_000), "2024-01-31"),
            // A prefix whose anchored runs all reach the end of the text.
            ("a[^x]*y", "a".repeat(50_000), "y"),
        ];
        for (pattern, text, tail) in cases {
            let re = Regex::new(pattern).unwrap();
            let unanchored = Regex {
                prefilter: None,
                ..re.clone()
            };
            for text in [text.clone(), text + tail] {
                // The counter is this thread's: other tests never touch it.
                let before = WALKED.get();
                let found: Vec<Match> = re.find_iter(&text).collect();
                let walked = WALKED.get() - before;
                assert_eq!(found, unanchored.find_iter(&text).collect::<Vec<_>>());
                assert_eq!(found.len(), usize::from(text.ends_with(tail)));
                assert!(
                    walked <= 2 * text.len() + VERIFY_GRACE,
                    "{pattern}: {walked} bytes walked over {}",
                    text.len()
                );
            }
        }
    }

    #[test]
    fn fixed_offsets_place_groups_as_the_pike_vm_does() {
        let text = "error: disk due 2024-01-31 abbb aé日xé日b ann@mail.com abcd é日a";
        for (pattern, fixed) in [
            ("error: ([a-z]+)", true),
            (r"due (\d{4}-\d{2}-(\d{2}))", true),
            ("é(.*)日[ab]", true),
            ("(a(b)c)(d)", true),
            ("(a)b*", false),
            (r"(\w+)@(\w+)\.com", false),
            ("(a|é)(日)", false),
        ] {
            let re = Regex::new(pattern).unwrap();
            assert_eq!(re.fixed.is_some(), fixed, "{pattern}");
            let found: Vec<Captures> = re.captures_iter(text).collect();
            assert!(!found.is_empty(), "{pattern}");
            for caps in found {
                let expected = pikevm::search(re.program(), text, caps.whole().start).unwrap();
                for k in 0..caps.len() {
                    assert_eq!(caps.group(k), expected.group(k), "{pattern} group {k}");
                }
            }
        }
    }

    #[test]
    fn regex_is_send_sync_and_clones_start_cold() {
        fn assert_send_sync<T: Send + Sync + Clone>() {}
        assert_send_sync::<Regex>();
        let re = Regex::new("a+").unwrap();
        assert!(re.is_match("caa"));
        assert_eq!(re.pool.lock().unwrap().len(), 1);
        let copy = re.clone();
        assert!(copy.pool.lock().unwrap().is_empty());
        assert_eq!(copy.find("caa"), re.find("caa"));
    }
}
