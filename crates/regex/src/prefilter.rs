//! Literal prefiltering: skip the matcher where a cheap substring scan
//! proves no match can exist, and start it where one can.
//!
//! [`Prefilter::build`] walks the parsed [`Ast`] for a literal every
//! match holds, strongest form first: a **prefix** every match starts
//! with (the matcher runs *anchored* at each occurrence); an **inner
//! split** — the top-level concatenation is `P · L · S`, `L` a run of
//! exact literals at part k ≥ 1 no commoner than the infix, and `P`
//! consumes no char equal to `L`'s first — where a reversed DFA of `P`
//! walks back from each occurrence of `L` to the smallest start and the
//! matcher runs anchored from there (regex-automata's "reverse inner";
//! look-around, which gets no DFA, rules it out); or an **infix** every
//! match contains (a document without it is rejected, else scanned
//! unanchored). All three locate the literal with one [`Finder`]: it
//! tests the literal's two rarest bytes at 64 candidate starts at once
//! and verifies only the starts that pass, so it skips text without
//! walking an automaton over it, byte by byte.
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
//! A split keeps it too: as `P` cannot consume `L`'s first char, a match
//! starting at or before an occurrence of `L` holds `L` there or at an
//! earlier one. So if a match holds `L` at the first occurrence, the one
//! from the smallest offset at which `P` reaches it (the walk) is the
//! leftmost; if the walk or the anchored run fails, none does, and the
//! search moves on. Walks never cross an earlier occurrence, but anchored
//! runs from successive candidates can overlap (`a[^x]*y` over `aaa…`):
//! once failed candidates have walked more bytes than the search skipped,
//! plus a grace, the rest of the text gets one unanchored scan.
//!
//! Per-thread counters record how many searches consulted a prefilter
//! and how many were pruned without launching the matcher at all; the
//! engine reads them around each batch of IE calls, so a profile counts
//! its own evaluation's searches and no other thread's.

use crate::ast::Ast;
use crate::nfa::Program;
use crate::pikevm::{self, SearchResult};
use std::cell::Cell;
use std::cmp::Reverse;
use std::ops::Deref;

/// Longest literal we bother materializing for a counted repetition, so
/// `a{1000000}` doesn't allocate a megabyte of needle.
const MAX_REPEAT_LITERAL: usize = 64;

thread_local! {
    static SEARCHES: Cell<u64> = const { Cell::new(0) };
    static PRUNED: Cell<u64> = const { Cell::new(0) };
    /// Bytes failed candidates have walked, for the linear-time tests.
    #[cfg(test)]
    pub(crate) static WALKED: Cell<usize> = const { Cell::new(0) };
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

/// Candidate starts a [`Finder`] tests at once.
const BLOCK: usize = 64;

/// Bytes a [`Finder`] may compare at failed candidates beyond the bytes
/// it has skipped before it hands the rest of a text to `str::find`, and
/// a search's failed candidates may walk before it scans the rest
/// unanchored.
pub(crate) const VERIFY_GRACE: usize = 1024;

/// Bytes of English prose and code, most frequent first. A byte missing
/// here (`:`, `@`, control and non-ASCII bytes) ranks as the rarest.
const FREQUENT: &[u8] =
    b" etaoinsrhldcumfpgwybv,.k\nTSAIMCxOBNDPEHRWLjFG0123456789-'\"qzJUVKYQXZ()/;_=";

/// How common `b` is: `None` (not listed) first, then the rarest listed.
fn rank(b: u8) -> Option<usize> {
    FREQUENT.iter().rev().position(|&f| f == b)
}

/// How common a literal's rarest byte is, as [`rank`] orders bytes.
fn rarity(literal: &str) -> Option<usize> {
    literal.bytes().map(rank).min().flatten()
}

/// Finds a literal's first occurrence, as `str::find` does, by testing
/// its two rarest bytes at 64 candidate starts at once (byte
/// compares the compiler vectorises) and verifying the starts that pass.
/// A `str` needle never starts with a UTF-8 continuation byte, so each
/// byte-wise occurrence starts at a char boundary. Once failed
/// verifications have compared more bytes than the scan skipped, the
/// rest goes to `str::find`, whose two-way search is linear on any text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finder {
    needle: String,
    /// Offsets of the two rarest bytes in the needle (the same offset
    /// twice for a one-byte needle).
    rare: [usize; 2],
}

impl Finder {
    /// A finder for `needle`.
    pub fn new(needle: String) -> Finder {
        let bytes = needle.as_bytes();
        // `None` (not listed) sorts first, then the least frequent listed.
        let rank = |&i: &usize| (rank(bytes[i]), i);
        let first = (0..bytes.len()).min_by_key(rank).unwrap_or(0);
        let second = (0..bytes.len()).filter(|&i| i != first).min_by_key(rank);
        Finder {
            rare: [first, second.unwrap_or(first)],
            needle,
        }
    }

    /// Byte offset of the needle's first occurrence in `haystack`.
    pub fn find(&self, haystack: &str) -> Option<usize> {
        self.scan(haystack.as_bytes()).unwrap_or_else(|at| {
            let at = haystack.floor_char_boundary(at);
            haystack[at..]
                .find(self.needle.as_str())
                .map(|off| at + off)
        })
    }

    /// `Ok` with the first occurrence, or `Err(at)` on giving up, with no
    /// occurrence before `at`.
    fn scan(&self, hay: &[u8]) -> Result<Option<usize>, usize> {
        let needle = self.needle.as_bytes();
        let [i1, i2] = self.rare;
        let (Some(&b1), Some(&b2)) = (needle.get(i1), needle.get(i2)) else {
            return Ok(Some(0));
        };
        let Some(ends) = (hay.len() + 1).checked_sub(needle.len()) else {
            return Ok(None);
        };
        let pass = |x: u8, y: u8| u8::from(x == b1) & u8::from(y == b2);
        let mut wasted = 0;
        let mut at = 0;
        while at < ends {
            let width = BLOCK.min(ends - at);
            let (a, b) = (&hay[at + i1..][..width], &hay[at + i2..][..width]);
            let mut mask = match (<&[u8; BLOCK]>::try_from(a), <&[u8; BLOCK]>::try_from(b)) {
                (Ok(a), Ok(b)) => block_mask(a, b, pass),
                _ => (0..width).fold(0, |m, k| m | u64::from(pass(a[k], b[k])) << k),
            };
            while mask != 0 {
                let pos = at + mask.trailing_zeros() as usize;
                mask &= mask - 1;
                if hay[pos..].starts_with(needle) {
                    return Ok(Some(pos));
                }
                wasted += needle.len();
                if wasted > pos + VERIFY_GRACE {
                    return Err(pos + 1);
                }
            }
            at += width;
        }
        Ok(None)
    }
}

/// Bit `k` set where `pass(a[k], b[k])` is 1. One OR over the block,
/// which the compiler turns into vector compares, settles most blocks;
/// the rest gather each 8 lanes' low bits with one multiply.
fn block_mask(a: &[u8; BLOCK], b: &[u8; BLOCK], pass: impl Fn(u8, u8) -> u8) -> u64 {
    if (0..BLOCK).fold(0, |any, k| any | pass(a[k], b[k])) == 0 {
        return 0;
    }
    let lanes: [u8; BLOCK] = std::array::from_fn(|k| pass(a[k], b[k]));
    let gather = |lanes: &[u8]| {
        let lanes = u64::from_le_bytes(lanes.try_into().expect("8 lanes"));
        lanes.wrapping_mul(0x0102_0408_1020_4080) >> 56
    };
    let chunks = lanes.chunks_exact(8).enumerate();
    chunks.fold(0, |mask, (i, lanes)| mask | gather(lanes) << (8 * i))
}

impl From<&str> for Finder {
    fn from(needle: &str) -> Finder {
        Finder::new(needle.to_string())
    }
}

impl Deref for Finder {
    type Target = str;

    fn deref(&self) -> &str {
        &self.needle
    }
}

/// A literal obligation extracted from a pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Prefilter {
    /// Every match starts with this non-empty literal.
    Prefix(Finder),
    /// Every match contains this non-empty literal.
    Infix(Finder),
    /// Every match is `prefix`, then `literal`, then the rest of the
    /// pattern, and `prefix` consumes no char equal to `literal`'s first.
    Inner {
        /// The literal run at the split.
        literal: Finder,
        /// The top-level parts of the pattern before the split.
        prefix: Ast,
    },
}

/// What [`Prefilter::search_with`] asks its matcher for.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Launch {
    /// The match starting exactly at this offset.
    At(usize),
    /// The leftmost match starting at or after this offset.
    From(usize),
    /// The match holding the inner literal at `literal`, from the
    /// smallest start ≥ `floor` at which the prefix reaches it.
    Split { floor: usize, literal: usize },
}

impl Launch {
    /// Where the Pike VM searches, and whether anchored: unable to walk
    /// back, it answers a split with the leftmost match from the floor.
    pub(crate) fn pike(self) -> (usize, bool) {
        match self {
            Launch::At(at) => (at, true),
            Launch::From(at) | Launch::Split { floor: at, .. } => (at, false),
        }
    }
}

impl Prefilter {
    /// Extracts a prefilter from a parsed pattern, preferring the
    /// stronger prefix form, then an inner split. Returns `None` when the
    /// pattern carries no useful literal obligation (e.g. `[ab]+`, `.*`,
    /// or anything nullable).
    pub fn build(ast: &Ast) -> Option<Prefilter> {
        // An empty-capable pattern matches at every position; no literal
        // scan can rule any position out.
        if ast.is_nullable() {
            return None;
        }
        let (prefix, _) = prefix_of(ast);
        if !prefix.is_empty() {
            return Some(Prefilter::Prefix(Finder::new(prefix)));
        }
        let infix = required_infix(ast);
        if let Some((literal, prefix)) = inner_split(ast, infix.as_deref()) {
            let literal = Finder::new(literal);
            return Some(Prefilter::Inner { literal, prefix });
        }
        infix.map(|infix| Prefilter::Infix(Finder::new(infix)))
    }

    /// The literal this prefilter scans for.
    pub fn literal(&self) -> &str {
        match self {
            Prefilter::Prefix(s) | Prefilter::Infix(s) | Prefilter::Inner { literal: s, .. } => s,
        }
    }

    /// Prefiltered equivalent of [`pikevm::search`]: same result, less
    /// VM work. Updates the calling thread's counters.
    pub fn search(&self, program: &Program, text: &str, from: usize) -> Option<SearchResult> {
        self.search_with(text, from, |launch| {
            let found = match launch.pike() {
                (at, true) => pikevm::search_anchored(program, text, at),
                (at, false) => pikevm::search(program, text, at),
            };
            found.ok_or(0)
        })
    }

    /// Drives any matcher through the prefilter: `run` is asked at each
    /// occurrence of a prefix or split literal, or once from the start
    /// when an infix occurs, and answers `Err` with the bytes it walked
    /// when it finds no match. Updates the calling thread's counters.
    pub(crate) fn search_with<T>(
        &self,
        text: &str,
        from: usize,
        mut run: impl FnMut(Launch) -> Result<T, usize>,
    ) -> Option<T> {
        bump(&SEARCHES);
        let lit = match self {
            Prefilter::Prefix(lit) | Prefilter::Inner { literal: lit, .. } => lit,
            Prefilter::Infix(lit) if lit.find(&text[from..]).is_some() => {
                return run(Launch::From(from)).ok();
            }
            Prefilter::Infix(_) => {
                bump(&PRUNED);
                return None;
            }
        };
        let step = lit.chars().next().map_or(1, char::len_utf8);
        let (mut at, mut walked) = (from, 0);
        while let Some(off) = lit.find(&text[at..]) {
            let pos = at + off;
            let launch = match self {
                Prefilter::Prefix(_) => Launch::At(pos),
                _ => Launch::Split {
                    floor: from,
                    literal: pos,
                },
            };
            match run(launch) {
                Ok(found) => return Some(found),
                Err(cost) => {
                    walked += cost;
                    #[cfg(test)]
                    WALKED.set(WALKED.get() + cost);
                }
            }
            // Occurrences may overlap; resume one char past this
            // candidate's start. No match starts at or before it.
            at = pos + step;
            if walked > pos - from + VERIFY_GRACE {
                return run(Launch::From(at)).ok();
            }
        }
        if at == from {
            bump(&PRUNED);
        }
        None
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

/// The rarest literal run at a split of `ast`'s top-level concatenation
/// (groups around it looked through) whose prefix, the parts before it,
/// consumes no char equal to its first, and that prefix; the longer run
/// wins a tie, then the earlier. No split with look-around, nor at a run
/// commoner than the `infix`, whose pruning of documents it would lose.
fn inner_split(ast: &Ast, infix: Option<&str>) -> Option<(String, Ast)> {
    if any_leaf(ast, &|leaf| matches!(leaf, Ast::Anchor(_))) {
        return None;
    }
    let mut ast = ast;
    while let Ast::Group { node, .. } = ast {
        ast = node;
    }
    let Ast::Concat(parts) = ast else {
        return None;
    };
    let (run, k) = (1..parts.len())
        .filter_map(|k| {
            let run: String = parts[k..].iter().map_while(exact_literal).collect();
            let first = run.chars().next()?;
            let consumes = |leaf: &Ast| match leaf {
                Ast::Literal(c) => *c == first,
                Ast::Class(set) => set.contains(first),
                Ast::AnyChar => first != '\n',
                _ => false,
            };
            let free = !parts[..k].iter().any(|p| any_leaf(p, &consumes));
            free.then_some((run, k))
        })
        .min_by_key(|(run, _)| (rarity(run), Reverse(run.len())))
        .filter(|(run, _)| infix.is_none_or(|infix| rarity(run) <= rarity(infix)))?;
    Some((run, Ast::concat(parts[..k].to_vec())))
}

/// Whether `leaf` holds for a literal, class, `.` or anchor of `ast`.
fn any_leaf(ast: &Ast, leaf: &impl Fn(&Ast) -> bool) -> bool {
    match ast {
        Ast::Concat(parts) | Ast::Alternation(parts) => parts.iter().any(|p| any_leaf(p, leaf)),
        Ast::Repeat { node, .. } | Ast::Group { node, .. } => any_leaf(node, leaf),
        _ => leaf(ast),
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
        assert!(splits("[ab]foo", "foo", "[ab]"));
        assert!(splits(r"\d+-\d+", "-", r"\d+"));
        // The longest run wins.
        assert_eq!(build(".ab.cdef."), Some(Prefilter::Infix("cdef".into())));
    }

    /// Whether `pattern` splits at `literal` after `prefix`.
    fn splits(pattern: &str, literal: &str, prefix: &str) -> bool {
        let prefix = parse(prefix).unwrap().ast;
        build(pattern)
            == Some(Prefilter::Inner {
                literal: literal.into(),
                prefix,
            })
    }

    #[test]
    fn class_led_patterns_split_at_their_rarest_free_literal() {
        let cases = [
            // `@` is rarer than `.com`, whose prefix could not consume `.`
            // either.
            (r"\w+@\w+\.com", "@", r"\w+"),
            // Two equal runs: the first.
            (r"\d{4}-\d{2}-\d{2}", "-", r"\d{4}"),
            // Groups are looked through, and the whole-pattern one too.
            (r"(\w+)@(\w+)\.\w+", "@", r"(\w+)"),
            (r"(\w+@\w+)", "@", r"\w+"),
            // The run may start inside a longer one: `\w+x` consumes `x`.
            (r"\w+x@y", "@y", r"\w+x"),
        ];
        for (pattern, literal, prefix) in cases {
            assert!(
                splits(pattern, literal, prefix),
                "{pattern}: {:?}",
                build(pattern)
            );
        }
        // Every prefix can consume the run's first char.
        assert_eq!(build(".ab.cdef."), Some(Prefilter::Infix("cdef".into())));
        // The only free run, ` `, is commoner than the infix.
        let infix = Some(Prefilter::Infix("error".into()));
        assert_eq!(build(r"\w+ \w+error"), infix);
        assert_eq!(build(r"\w+x"), Some(Prefilter::Infix("x".into())));
        // Look-around: the walk needs a DFA.
        assert_eq!(build(r"\b\w+@\w+"), Some(Prefilter::Infix("@".into())));
        assert_eq!(build(r"[ab]foo$"), Some(Prefilter::Infix("foo".into())));
        // Literal-led patterns keep the prefix.
        assert_eq!(build(r"@\w+\.com"), Some(Prefilter::Prefix("@".into())));
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
    fn a_text_where_every_block_passes_falls_back_to_str_find() {
        // Each needle's two rarest bytes start every unit of its text, so
        // every block of a megabyte of it passes the two-byte test, and
        // every candidate fails to verify. The second gives up inside a
        // char.
        for (needle, unit, rare) in [("aaaaaaae", "a", *b"aa"), ("ééééx", "é", [0xC3, 0xA9])] {
            let finder = Finder::from(needle);
            assert_eq!(finder.rare.map(|i| finder.as_bytes()[i]), rare);
            let hay = unit.repeat((1 << 20) / unit.len());
            let at = match finder.scan(hay.as_bytes()) {
                Err(at) if at < 2 * VERIFY_GRACE => hay.floor_char_boundary(at),
                other => panic!("{needle:?} did not give up early: {other:?}"),
            };
            assert_eq!(finder.find(&hay), None);
            // Occurrences around where the scan gave up, and one at the end.
            for at in (at - 8..at + 8).filter(|&i| hay.is_char_boundary(i)) {
                let planted = format!("{}{needle}{}", &hay[..at], &hay[at..]);
                assert_eq!(finder.find(&planted), Some(at), "{needle:?} at {at}");
            }
            let planted = format!("{hay}日{needle}");
            assert_eq!(finder.find(&planted), planted.find(needle));
            let from = unit.len();
            assert_eq!(finder.find(&planted[from..]), planted[from..].find(needle));
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

    #[test]
    fn a_split_counts_its_searches_as_the_infix_did() {
        let re = crate::Regex::new(r"\w+@\w+\.com").unwrap();
        assert!(matches!(re.prefilter(), Some(Prefilter::Inner { .. })));
        let count = |text| counted(|| re.find_iter(text).count());
        let pruned = PrefilterStats {
            searches: 1,
            pruned: 1,
        };
        assert_eq!(count("no address here"), (0, pruned));
        assert_eq!(count(""), (0, pruned));
        // A literal without a match is searched, not pruned; each match
        // is a search of its own, and the one after the last finds no
        // literal.
        let launched = PrefilterStats {
            searches: 1,
            pruned: 0,
        };
        assert_eq!(count("a@b.org"), (0, launched));
        let after = PrefilterStats {
            searches: 3,
            pruned: 1,
        };
        assert_eq!(count("a@b.com x@y.com"), (2, after));
    }
}
