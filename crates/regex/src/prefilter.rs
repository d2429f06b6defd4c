//! Literal prefiltering: skip the matcher when a cheap substring scan
//! proves no match can exist.
//!
//! [`Prefilter::build`] walks the parsed [`Ast`] and extracts either a
//! **required prefix** — a literal every match must start with — or a
//! **required infix** — a literal every match must contain somewhere. At
//! search time the prefix variant launches the matcher *anchored* at each
//! prefix occurrence (located with `str::find`, which runs a fast
//! substring algorithm instead of walking an automaton over the text);
//! the infix variant rejects a document outright when the literal is
//! absent.
//!
//! Correctness: a prefilter never changes results, it only skips matcher
//! work that provably cannot produce a match. The leftmost-first contract is
//! preserved by the prefix variant because every match start is a prefix
//! occurrence, so the first occurrence at which an anchored run succeeds
//! *is* the leftmost match, and the anchored run keeps Perl priority among
//! the matches starting there (property-tested against the backtracking
//! oracle in `tests/properties.rs`). Patterns that can match the empty
//! string match *everywhere* and therefore never get a prefilter.
//!
//! Per-thread counters record how many searches consulted a prefilter
//! and how many were pruned without launching the matcher at all; the
//! engine reads them around each batch of IE calls, so a profile counts
//! its own evaluation's searches and no other thread's.

use crate::ast::Ast;
use crate::nfa::Program;
use crate::pikevm::{self, SearchResult};
use std::cell::Cell;

/// Longest literal we bother materializing for a counted repetition, so
/// `a{1000000}` doesn't allocate a megabyte of needle.
const MAX_REPEAT_LITERAL: usize = 64;

thread_local! {
    static SEARCHES: Cell<u64> = const { Cell::new(0) };
    static PRUNED: Cell<u64> = const { Cell::new(0) };
}

/// Snapshot of the calling thread's prefilter counters.
///
/// Monotonically increasing; consumers diff two snapshots taken on one
/// thread to attribute the searches between them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefilterStats {
    /// Searches that consulted a prefilter.
    pub searches: u64,
    /// Searches the prefilter answered without launching the VM at all.
    pub pruned: u64,
}

/// Reads the calling thread's counters.
pub fn stats() -> PrefilterStats {
    PrefilterStats {
        searches: SEARCHES.get(),
        pruned: PRUNED.get(),
    }
}

/// Runs `f`, returning what it returns and the searches it ran on the
/// calling thread.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, PrefilterStats) {
    let before = stats();
    let out = f();
    let after = stats();
    let searches = after.searches - before.searches;
    let pruned = after.pruned - before.pruned;
    (out, PrefilterStats { searches, pruned })
}

/// Adds one to a counter of the calling thread.
fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    counter.set(counter.get() + 1);
}

/// A literal obligation extracted from a pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Prefilter {
    /// Every match starts with this non-empty literal.
    Prefix(String),
    /// Every match contains this non-empty literal.
    Infix(String),
}

impl Prefilter {
    /// Extracts a prefilter from a parsed pattern, preferring the
    /// stronger prefix form. Returns `None` when the pattern carries no
    /// useful literal obligation (e.g. `[ab]+`, `.*`, or anything
    /// nullable).
    pub fn build(ast: &Ast) -> Option<Prefilter> {
        // An empty-capable pattern matches at every position; no literal
        // scan can rule any position out.
        if ast.is_nullable() {
            return None;
        }
        let (prefix, _) = prefix_of(ast);
        if !prefix.is_empty() {
            return Some(Prefilter::Prefix(prefix));
        }
        required_infix(ast).map(Prefilter::Infix)
    }

    /// The literal this prefilter scans for.
    pub fn literal(&self) -> &str {
        match self {
            Prefilter::Prefix(s) | Prefilter::Infix(s) => s,
        }
    }

    /// Prefiltered equivalent of [`pikevm::search`]: same result, less
    /// VM work. Updates the calling thread's counters.
    pub fn search(&self, program: &Program, text: &str, from: usize) -> Option<SearchResult> {
        self.search_with(text, from, |at, anchored| {
            if anchored {
                pikevm::search_anchored(program, text, at)
            } else {
                pikevm::search(program, text, at)
            }
        })
    }

    /// Drives any matcher through the prefilter: `run(at, anchored)` is
    /// asked for the match starting exactly at `at` (at each occurrence
    /// of a required prefix) or for the leftmost match at or after `at`
    /// (once, when a required infix is present). Updates the
    /// calling thread's counters.
    pub(crate) fn search_with<T>(
        &self,
        text: &str,
        from: usize,
        mut run: impl FnMut(usize, bool) -> Option<T>,
    ) -> Option<T> {
        bump(&SEARCHES);
        match self {
            Prefilter::Prefix(lit) => {
                // Candidate starts are exactly the occurrences of the
                // prefix; `str::find` locates them far faster than any
                // automaton walks the text.
                let step = lit.chars().next().map_or(1, char::len_utf8);
                let mut at = from;
                let mut launched = false;
                loop {
                    let Some(off) = text[at..].find(lit.as_str()) else {
                        if !launched {
                            bump(&PRUNED);
                        }
                        return None;
                    };
                    let pos = at + off;
                    launched = true;
                    if let Some(r) = run(pos, true) {
                        return Some(r);
                    }
                    // Occurrences may overlap; resume one char past this
                    // candidate's start.
                    at = pos + step;
                }
            }
            Prefilter::Infix(lit) => {
                if text[from..].contains(lit.as_str()) {
                    run(from, false)
                } else {
                    bump(&PRUNED);
                    None
                }
            }
        }
    }
}

/// Returns `(literal, exact)` where every match of `ast` *consumes* text
/// starting with `literal`, and `exact` means the node consumes exactly
/// `literal` in every match (so concatenation may keep accumulating past
/// it). Anchors are zero-width: they consume exactly `""`.
fn prefix_of(ast: &Ast) -> (String, bool) {
    match ast {
        Ast::Empty | Ast::Anchor(_) => (String::new(), true),
        Ast::Literal(c) => (c.to_string(), true),
        Ast::Class(_) | Ast::AnyChar => (String::new(), false),
        Ast::Concat(parts) => {
            let mut acc = String::new();
            for p in parts {
                let (pre, exact) = prefix_of(p);
                acc.push_str(&pre);
                if !exact {
                    return (acc, false);
                }
            }
            (acc, true)
        }
        Ast::Alternation(branches) => {
            let mut iter = branches.iter();
            let Some(first) = iter.next() else {
                return (String::new(), true);
            };
            let mut acc = prefix_of(first).0;
            for b in iter {
                let p = prefix_of(b).0;
                acc.truncate(common_prefix_len(&acc, &p));
                if acc.is_empty() {
                    break;
                }
            }
            (acc, false)
        }
        Ast::Repeat { node, min, max, .. } => {
            if *min == 0 {
                // The whole repeat may be skipped; it guarantees nothing
                // and what follows is not pinned to the match start.
                return (String::new(), false);
            }
            let (pre, exact) = prefix_of(node);
            if exact && !pre.is_empty() {
                // The node consumes exactly `pre`, so at least `min`
                // copies appear back to back (capped to keep the needle
                // small).
                let copies = (*min as usize).min((MAX_REPEAT_LITERAL / pre.len()).max(1));
                let lit = pre.repeat(copies);
                (lit, *max == Some(*min) && copies == *min as usize)
            } else {
                (pre, exact && *max == Some(*min))
            }
        }
        Ast::Group { node, .. } => prefix_of(node),
    }
}

/// Length of the longest common prefix of `a` and `b`, in bytes, falling
/// on a char boundary of both.
fn common_prefix_len(a: &str, b: &str) -> usize {
    a.char_indices()
        .zip(b.chars())
        .find(|((_, ca), cb)| ca != cb)
        .map_or_else(|| a.len().min(b.len()), |((i, _), _)| i)
}

/// If `ast` consumes exactly one string in every match, returns it.
fn exact_literal(ast: &Ast) -> Option<String> {
    let (lit, exact) = prefix_of(ast);
    exact.then_some(lit)
}

/// The longest single literal that must appear in every match, if any.
///
/// Concatenations fuse adjacent exact-literal parts into runs (so
/// `x(ab){2}y` yields `"xababy"`); alternations contribute nothing
/// (branches need not share an infix).
fn required_infix(ast: &Ast) -> Option<String> {
    match ast {
        Ast::Empty | Ast::Anchor(_) | Ast::Class(_) | Ast::AnyChar | Ast::Alternation(_) => None,
        Ast::Literal(c) => Some(c.to_string()),
        Ast::Group { node, .. } => required_infix(node),
        Ast::Repeat { node, min, .. } => {
            if *min >= 1 {
                required_infix(node)
            } else {
                None
            }
        }
        Ast::Concat(parts) => {
            let mut best: Option<String> = None;
            let mut run = String::new();
            for p in parts {
                match exact_literal(p) {
                    Some(s) => run.push_str(&s),
                    None => {
                        consider(&mut best, std::mem::take(&mut run));
                        if let Some(inner) = required_infix(p) {
                            consider(&mut best, inner);
                        }
                    }
                }
            }
            consider(&mut best, run);
            best
        }
    }
}

/// Keeps `cand` if it is longer than the current best.
fn consider(best: &mut Option<String>, cand: String) {
    if !cand.is_empty() && best.as_ref().is_none_or(|b| cand.len() > b.len()) {
        *best = Some(cand);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::parser::parse;

    fn build(pattern: &str) -> Option<Prefilter> {
        Prefilter::build(&parse(pattern).unwrap().ast)
    }

    #[test]
    fn extracts_literal_prefixes() {
        assert_eq!(build("abc+"), Some(Prefilter::Prefix("abc".into())));
        assert_eq!(build("x{foo}bar"), Some(Prefilter::Prefix("foobar".into())));
        assert_eq!(
            build("^error: .*"),
            Some(Prefilter::Prefix("error: ".into()))
        );
        // Common prefix across alternation branches.
        assert_eq!(build("(?:abd|abc)x"), Some(Prefilter::Prefix("ab".into())));
        // Counted repetition of an exact literal expands.
        assert_eq!(build("(?:ab){2}c"), Some(Prefilter::Prefix("ababc".into())));
        // A `+` guarantees one copy of its body.
        assert_eq!(build("(?:ab)+"), Some(Prefilter::Prefix("ab".into())));
    }

    #[test]
    fn falls_back_to_infix_literals() {
        assert_eq!(build("[ab]foo"), Some(Prefilter::Infix("foo".into())));
        assert_eq!(build(r"\d+-\d+"), Some(Prefilter::Infix("-".into())));
        // The longest run wins.
        assert_eq!(build(".ab.cdef."), Some(Prefilter::Infix("cdef".into())));
    }

    #[test]
    fn nullable_and_literal_free_patterns_get_none() {
        assert_eq!(build("a*"), None);
        assert_eq!(build("(abc)?"), None);
        assert_eq!(build("[ab]+"), None);
        assert_eq!(build(".*"), None);
        assert_eq!(build("a|"), None); // empty branch ⇒ nullable
    }

    #[test]
    fn counted_repetition_needle_is_capped() {
        let Some(Prefilter::Prefix(lit)) = build("(?:ab){1000}") else {
            panic!("expected prefix prefilter");
        };
        assert!(lit.len() <= MAX_REPEAT_LITERAL);
        assert!(lit.starts_with("abab"));
    }

    #[test]
    fn prefiltered_search_agrees_with_plain_search() {
        let cases = [
            ("abc", "xxabcyy"),
            ("abc", "no such thing"),
            ("ab+c", "zzabbbczz"),
            ("x{a+}c+y{b+}", "acb aacccbbb"),
            ("(?:abd|abc)x", "ab abd abcx"),
            ("[ab]foo", "zz bfoo afoo"),
            ("[ab]foo", "zz zz zz"),
            ("é+!", "caféé!"),
        ];
        for (pattern, text) in cases {
            let parsed = parse(pattern).unwrap();
            let program = compile(&parsed).unwrap();
            let pf = Prefilter::build(&parsed.ast)
                .unwrap_or_else(|| panic!("{pattern:?} should have a prefilter"));
            for from in (0..=text.len()).filter(|&i| text.is_char_boundary(i)) {
                assert_eq!(
                    pf.search(&program, text, from),
                    pikevm::search(&program, text, from),
                    "pattern {pattern:?} text {text:?} from {from}"
                );
            }
        }
    }

    #[test]
    fn counters_track_pruned_searches() {
        let parsed = parse("needle[0-9]").unwrap();
        let program = compile(&parsed).unwrap();
        let pf = Prefilter::build(&parsed.ast).unwrap();
        // The counters are this thread's: other tests never touch them.
        let search = |text| counted(|| pf.search(&program, text, 0));
        let (found, searched) = search("no match here");
        assert!(found.is_none());
        assert_eq!(
            searched,
            PrefilterStats {
                searches: 1,
                pruned: 1
            }
        );
        let (found, searched) = search("a needle7");
        assert!(found.is_some());
        assert_eq!(
            searched,
            PrefilterStats {
                searches: 1,
                pruned: 0
            }
        );
    }
}
