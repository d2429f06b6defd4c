//! Lazily determinised DFA: *where* the leftmost-first match lies, found
//! without carrying capture slots.
//!
//! The span language of a regex formula is regular (Maturana et al.,
//! "Document Spanners for Extracting Incomplete Information"), so the
//! extent of a match can be decided by a plain DFA and only the variable
//! assignment needs the capturing machine. Two automata share one
//! alphabet:
//!
//! * the **forward** DFA runs over the capture program itself. A state is
//!   the Pike VM's thread list with the slots dropped: the NFA states in
//!   priority order, cut after the first `Match` (everything behind it is
//!   an alternative a backtracker would never reach), with a trailing
//!   [`SEED`] marker while the scan may still start a match at the next
//!   position. One pass yields the **end** of the leftmost-first match —
//!   greedy, lazy and ordered-alternation semantics included;
//! * the **reverse** DFA runs over the reversed pattern, backwards from
//!   that end and never past the scan's `from`, keeping every thread
//!   (longest match): the smallest start that reaches the end *is* the
//!   leftmost one, so priority plays no part and states are plain sets;
//! * the **prefix** DFA, for a pattern split at an inner literal, runs the
//!   reversed part before the literal backwards from an occurrence in the
//!   same way, to the smallest start, where the forward DFA runs anchored.
//!
//! The alphabet is the partition of `char` induced by the boundaries of
//! the program's `Char`/`Class`/`Any` instructions; ASCII maps through a
//! table, everything else through a binary search.
//!
//! When a step of the forward scan stays in a live, non-`Match` state
//! (`\d{4}-…`'s start state over letters), the scan skips the ASCII bytes
//! that state's row maps back to it, each tested against the row alone
//! instead of after the previous byte's transition. Everything else takes
//! the one-step path.
//!
//! States are built on first use and kept in a [`Cache`] that the caller
//! owns for the duration of a scan. A cache never holds more than
//! [`CACHE_BUDGET_WORDS`] per direction: when a new state would exceed
//! it, the cache is emptied and the scan continues from the state it was
//! about to enter, so memory stays bounded for patterns whose DFA is
//! exponential (`(a|b)*a(a|b){14}`) at the price of re-deriving states.
//!
//! Patterns with look-around assertions get no DFA at all — what an
//! assertion sees depends on the neighbouring characters, not on the
//! state — and stay on the Pike VM.

use crate::ast::Ast;
use crate::compile::compile_reversed;
use crate::nfa::{Inst, Program, StateId, Visited};
use std::collections::HashMap;
use std::sync::Arc;

/// Most `u32` words (transition entries plus NFA state lists) one
/// direction of a [`Cache`] holds before it is emptied: 128 KiB.
pub(crate) const CACHE_BUDGET_WORDS: usize = 1 << 15;

/// Set on a state id whose state contains `Match`.
const MATCH_FLAG: u32 = 1 << 31;
/// Transition not computed yet. Checked before [`MATCH_FLAG`] is read.
const UNKNOWN: u32 = u32::MAX;
/// The state with no threads: nothing can match any more.
const DEAD: u32 = 0;
/// Pseudo NFA state closing a forward state: "the scan has not matched
/// yet, so the next position starts a thread too" — the Pike VM's
/// per-position seeding, at the lowest priority.
const SEED: StateId = StateId::MAX;

/// The partition of `char` that the program's consuming instructions
/// cannot tell apart.
#[derive(Debug, Clone)]
struct CharClasses {
    /// First code point of every class, ascending; `starts[0] == 0`.
    starts: Vec<u32>,
    ascii: [u32; 128],
}

impl CharClasses {
    fn new(program: &Program) -> CharClasses {
        let mut starts = vec![0];
        let mut cut = |lo: char, hi: char| {
            starts.push(lo as u32);
            starts.push(hi as u32 + 1);
        };
        for inst in &program.insts {
            match inst {
                Inst::Char { c, .. } => cut(*c, *c),
                Inst::Class { set, .. } => set.ranges().iter().for_each(|r| cut(r.lo, r.hi)),
                Inst::Any { .. } => cut('\n', '\n'),
                _ => {}
            }
        }
        starts.sort_unstable();
        starts.dedup();
        // `char::MAX + 1` starts no class.
        starts.retain(|&s| s <= char::MAX as u32);
        let mut classes = CharClasses {
            starts,
            ascii: [0; 128],
        };
        for b in 0..128u8 {
            classes.ascii[b as usize] = classes.of(b as char);
        }
        classes
    }

    fn len(&self) -> usize {
        self.starts.len()
    }

    fn of(&self, c: char) -> u32 {
        (self.starts.partition_point(|&s| s <= c as u32) - 1) as u32
    }

    /// Class and UTF-8 width of the character starting at byte `at`.
    #[inline]
    fn at(&self, text: &str, at: usize) -> (u32, usize) {
        match text.as_bytes()[at] {
            b @ 0..=0x7F => (self.ascii[b as usize], 1),
            _ => {
                let c = text[at..].chars().next().expect("`at` is inside the text");
                (self.of(c), c.len_utf8())
            }
        }
    }

    /// Class and UTF-8 width of the character ending at byte `at`.
    #[inline]
    fn before(&self, text: &str, at: usize) -> (u32, usize) {
        match text.as_bytes()[at - 1] {
            b @ 0..=0x7F => (self.ascii[b as usize], 1),
            _ => {
                let c = text[..at].chars().next_back().expect("`at` is past 0");
                (self.of(c), c.len_utf8())
            }
        }
    }

    /// A member of `class`. A class starting inside the surrogate gap
    /// continues behind it (or holds no `char`, and no text selects it).
    fn representative(&self, class: u32) -> char {
        char::from_u32(self.starts[class as usize]).unwrap_or('\u{E000}')
    }
}

/// The immutable half of the matcher, built once per pattern.
#[derive(Debug, Clone)]
pub(crate) struct Dfa {
    classes: CharClasses,
    reversed: Program,
    /// The reversed prefix of a pattern split at an inner literal.
    prefix: Option<Program>,
}

/// The mutable half: lazily built states of every direction. One scan
/// owns one cache; [`crate::Regex`] pools them.
#[derive(Debug, Default)]
pub(crate) struct Cache {
    forward: Lazy,
    reverse: Lazy,
    prefix: Lazy,
    /// Bytes read by forward scans and prefix walks, ever; callers diff.
    pub(crate) walked: usize,
}

/// What one direction determinises: a program over the shared alphabet.
#[derive(Clone, Copy)]
struct Side<'a> {
    program: &'a Program,
    classes: &'a CharClasses,
    /// Keep every thread and record the last `Match` (the reverse
    /// direction) instead of cutting each state after its first.
    longest: bool,
}

impl Dfa {
    /// Builds the alphabet and the reversed programs for `program`, of
    /// pattern `ast`, and for the `prefix` before an inner literal the
    /// pattern is split at; `None` when it has a look-around assertion.
    pub(crate) fn new(program: &Program, ast: &Ast, prefix: Option<&Ast>) -> Option<Dfa> {
        let asserts = |i: &Inst| matches!(i, Inst::Assert { .. });
        if program.insts.iter().any(asserts) {
            return None;
        }
        let reversed = |ast| {
            compile_reversed(ast).expect("the reversed program is no larger than the forward one")
        };
        Some(Dfa {
            classes: CharClasses::new(program),
            reversed: reversed(ast),
            prefix: prefix.map(reversed),
        })
    }

    /// End of the leftmost-first match of `program` at or after `from`
    /// (exactly at `from` when `anchored`); with `earliest`, the first
    /// position at which *some* match is known to end.
    pub(crate) fn find_end(
        &self,
        program: &Program,
        cache: &mut Cache,
        text: &str,
        from: usize,
        anchored: bool,
        earliest: bool,
    ) -> Option<usize> {
        debug_assert!(text.is_char_boundary(from));
        let side = Side {
            program,
            classes: &self.classes,
            longest: false,
        };
        let lazy = &mut cache.forward;
        let mut sid = lazy.start(side, anchored);
        let mut at = from;
        let mut end = None;
        loop {
            if sid & MATCH_FLAG != 0 {
                end = Some(at);
                if earliest {
                    break;
                }
            } else if sid == DEAD {
                break;
            }
            if at == text.len() {
                break;
            }
            let (class, width) = self.classes.at(text, at);
            let next = lazy.next(side, sid, class);
            at += width;
            if next == sid && sid & MATCH_FLAG == 0 {
                at = lazy.skip_self_loop(&self.classes, text.as_bytes(), next, at);
            }
            sid = next;
        }
        cache.walked += at - from;
        end
    }

    /// Start of the match that ends at `end`, given that one starts at or
    /// after `from`: the reversed pattern run backwards from `end`.
    pub(crate) fn find_start(
        &self,
        cache: &mut Cache,
        text: &str,
        from: usize,
        end: usize,
    ) -> usize {
        let side = Side {
            program: &self.reversed,
            classes: &self.classes,
            longest: true,
        };
        cache
            .reverse
            .walk_back(side, text, from, end)
            .0
            .unwrap_or(end)
    }

    /// Smallest start ≥ `floor` from which a split pattern's prefix
    /// reaches the inner literal at `literal`, walking back from there.
    pub(crate) fn prefix_start(
        &self,
        cache: &mut Cache,
        text: &str,
        floor: usize,
        literal: usize,
    ) -> Option<usize> {
        let side = Side {
            program: self
                .prefix
                .as_ref()
                .expect("a split pattern's DFA has its prefix"),
            classes: &self.classes,
            longest: true,
        };
        let (start, stop) = cache.prefix.walk_back(side, text, floor, literal);
        cache.walked += literal - stop;
        start
    }
}

/// One direction's lazily built transition table.
#[derive(Debug, Default)]
struct Lazy {
    /// `trans[state * stride + class]`: a flagged state id or [`UNKNOWN`].
    trans: Vec<u32>,
    /// NFA states of every DFA state; index 0 is [`DEAD`].
    states: Vec<Arc<[StateId]>>,
    ids: HashMap<Arc<[StateId]>, u32>,
    /// Flagged ids of the unanchored and the anchored start state.
    starts: [Option<u32>; 2],
    /// Words charged against [`CACHE_BUDGET_WORDS`].
    words: usize,
    #[cfg(test)]
    emptied: usize,
    // Determinisation scratch: the state under construction, whether it
    // holds `Match`, the closure's DFS stack and its visited set.
    list: Vec<StateId>,
    matched: bool,
    stack: Vec<StateId>,
    seen: Visited,
}

impl Lazy {
    /// The state a scan begins in.
    fn start(&mut self, side: Side<'_>, anchored: bool) -> u32 {
        if let Some(sid) = self.starts[anchored as usize] {
            return sid;
        }
        self.begin(side);
        if !self.close(side, side.program.start) && !anchored {
            self.list.push(SEED);
        }
        let (sid, _) = self.intern(side);
        self.starts[anchored as usize] = Some(sid);
        sid
    }

    /// Runs `side`'s reversed program back from `at`, never below `floor`:
    /// the smallest offset at which it matched, and where it stopped.
    fn walk_back(
        &mut self,
        side: Side<'_>,
        text: &str,
        floor: usize,
        at: usize,
    ) -> (Option<usize>, usize) {
        let mut sid = self.start(side, true);
        let (mut at, mut start) = (at, None);
        loop {
            if sid & MATCH_FLAG != 0 {
                start = Some(at);
            } else if sid == DEAD {
                break;
            }
            if at <= floor {
                break;
            }
            let (class, width) = side.classes.before(text, at);
            sid = self.next(side, sid, class);
            at -= width;
        }
        (start, at)
    }

    /// The state reached from `sid` over a character of `class`.
    #[inline]
    fn next(&mut self, side: Side<'_>, sid: u32, class: u32) -> u32 {
        let from = (sid & !MATCH_FLAG) as usize;
        match self.trans[from * side.classes.len() + class as usize] {
            UNKNOWN => self.determinise(side, from, class),
            next => next,
        }
    }

    /// Where the run of ASCII bytes from `at` ends that the live,
    /// unflagged `sid` maps back to itself.
    #[inline]
    fn skip_self_loop(&self, classes: &CharClasses, text: &[u8], sid: u32, mut at: usize) -> usize {
        let stride = classes.len();
        let row = &self.trans[sid as usize * stride..][..stride];
        while let Some(&b) = text.get(at) {
            match classes.ascii.get(b as usize) {
                Some(&c) if row[c as usize] == sid => at += 1,
                _ => break,
            }
        }
        at
    }

    #[cold]
    fn determinise(&mut self, side: Side<'_>, from: usize, class: u32) -> u32 {
        let c = side.classes.representative(class);
        let source = self.states[from].clone();
        self.begin(side);
        for &pc in source.iter() {
            let next = if pc == SEED {
                side.program.start
            } else {
                match side.program.inst(pc) {
                    Inst::Char { c: want, next } if *want == c => *next,
                    Inst::Class { set, next } if set.contains(c) => *next,
                    Inst::Any { next } if c != '\n' => *next,
                    _ => continue,
                }
            };
            if self.close(side, next) {
                break;
            }
            if pc == SEED {
                self.list.push(SEED);
            }
        }
        let (sid, emptied) = self.intern(side);
        if !emptied {
            self.trans[from * side.classes.len() + class as usize] = sid;
        }
        sid
    }

    fn begin(&mut self, side: Side<'_>) {
        self.list.clear();
        self.matched = false;
        self.seen.reset(side.program);
    }

    /// Appends the epsilon closure of `pc` to the state under
    /// construction, in the Pike VM's priority order. Unless the side
    /// keeps every thread, stops at the first `Match` and reports `true`:
    /// nothing of lower priority counts any more.
    fn close(&mut self, side: Side<'_>, pc: StateId) -> bool {
        self.stack.push(pc);
        while let Some(pc) = self.stack.pop() {
            if !self.seen.insert(pc) {
                continue;
            }
            match side.program.inst(pc) {
                Inst::Split { primary, secondary } => {
                    self.stack.push(*secondary);
                    self.stack.push(*primary);
                }
                Inst::Save { next, .. } => self.stack.push(*next),
                Inst::Assert { .. } => unreachable!("patterns with assertions build no DFA"),
                Inst::Match => {
                    self.list.push(pc);
                    self.matched = true;
                    if !side.longest {
                        self.stack.clear();
                        return true;
                    }
                }
                Inst::Char { .. } | Inst::Class { .. } | Inst::Any { .. } => self.list.push(pc),
            }
        }
        false
    }

    /// Id of the state under construction, adding it if new. Reports
    /// whether the cache had to be emptied to make room, which voids
    /// every id handed out before.
    fn intern(&mut self, side: Side<'_>) -> (u32, bool) {
        if self.list.is_empty() {
            return (DEAD, false);
        }
        if side.longest {
            // Order carries no meaning without priorities.
            self.list.sort_unstable();
        }
        if let Some(&sid) = self.ids.get(self.list.as_slice()) {
            return (sid, false);
        }
        let stride = side.classes.len();
        let cost = stride + self.list.len();
        let emptied = self.states.len() > 1 && self.words + cost > CACHE_BUDGET_WORDS;
        if emptied {
            self.trans.clear();
            self.states.clear();
            self.ids.clear();
            self.starts = [None; 2];
            self.words = 0;
            #[cfg(test)]
            {
                self.emptied += 1;
            }
        }
        if self.states.is_empty() {
            self.states.push(Arc::from([]));
            self.trans.resize(stride, DEAD);
        }
        let mut sid = self.states.len() as u32;
        if self.matched {
            sid |= MATCH_FLAG;
        }
        let state: Arc<[StateId]> = Arc::from(self.list.as_slice());
        self.states.push(state.clone());
        self.ids.insert(state, sid);
        self.trans.resize(self.trans.len() + stride, UNKNOWN);
        self.words += cost;
        (sid, emptied)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::parser::parse;
    use crate::pikevm;

    impl Cache {
        /// `u32` words resident in the state tables of both directions.
        pub(crate) fn words(&self) -> usize {
            self.forward.words + self.reverse.words + self.prefix.words
        }

        /// How often either direction hit the budget and started over.
        pub(crate) fn emptied(&self) -> usize {
            self.forward.emptied + self.reverse.emptied + self.prefix.emptied
        }
    }

    /// A fixed, aperiodic text over `{a, b}` (xorshift) for the tests that
    /// need more distinct substrings than a DFA cache holds.
    pub(crate) fn ab_text(len: usize, mut x: u64) -> String {
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x & 1 == 0 {
                'a'
            } else {
                'b'
            }
        };
        (0..len).map(|_| next()).collect()
    }

    /// `(start, end)` through both DFAs.
    fn window(pattern: &str, text: &str, from: usize) -> Option<(usize, usize)> {
        let parsed = parse(pattern).unwrap();
        let program = compile(&parsed).unwrap();
        let dfa = Dfa::new(&program, &parsed.ast, None).expect("no assertions");
        let mut cache = Cache::default();
        let end = dfa.find_end(&program, &mut cache, text, from, false, false)?;
        Some((dfa.find_start(&mut cache, text, from, end), end))
    }

    fn reference(pattern: &str, text: &str, from: usize) -> Option<(usize, usize)> {
        let program = compile(&parse(pattern).unwrap()).unwrap();
        pikevm::search(&program, text, from).map(|r| r.group(0).unwrap())
    }

    #[test]
    fn windows_equal_the_pike_vm_from_every_offset() {
        let cases = [
            ("a+", "xaaay"),
            ("a+?", "xaaay"),
            ("a|ab", "ab"),
            ("ab|a", "ab"),
            ("a*", "baa"),
            ("", "ab"),
            ("(a*)*", "b"),
            ("x{a+}c+y{b+}", "acb aacccbbb"),
            (r"\w+@\w+\.com", "mail ann@gmail.com, bob@work.org, x@y.com"),
            (r"\d{4}-\d{2}-\d{2}", "on 2024-01-31 and 12024-02-290"),
            ("a.*?b|a.*c", "a--b--c a--c"),
            ("é+", "caféé!"),
            ("[^a]日.", "a日本 b日本語 😀日x"),
            (".+", "line one\nline two"),
        ];
        for (pattern, text) in cases {
            for from in (0..=text.len()).filter(|&i| text.is_char_boundary(i)) {
                assert_eq!(
                    window(pattern, text, from),
                    reference(pattern, text, from),
                    "pattern {pattern:?} text {text:?} from {from}"
                );
            }
        }
    }

    #[test]
    fn self_loop_runs_past_64_bytes_and_non_ascii_chars_agree() {
        let letters = "lorem ipsum dolor sit amet ".repeat(4);
        let text = format!("{letters}é{letters}2024-01-31 日{letters}😀 x{letters}9999-99-99");
        let cases = [
            r"\d{4}-\d{2}-\d{2}",
            r"[^\d]+\d",
            "[a-z ]+é",
            "x[^9]+9",
            "m.+?😀",
        ];
        let boundaries: Vec<usize> = (0..=text.len())
            .filter(|&i| text.is_char_boundary(i))
            .collect();
        for pattern in cases {
            for &from in boundaries.iter().step_by(7) {
                assert_eq!(
                    window(pattern, &text, from),
                    reference(pattern, &text, from),
                    "pattern {pattern:?} from {from}"
                );
            }
        }
    }

    #[test]
    fn an_emptied_cache_mid_scan_agrees_with_the_pike_vm() {
        let pattern = "(a|b)*a(a|b){14}";
        let parsed = parse(pattern).unwrap();
        let program = compile(&parsed).unwrap();
        let dfa = Dfa::new(&program, &parsed.ast, None).unwrap();
        let mut cache = Cache::default();
        // Long runs of one letter keep a state looping on itself; the
        // aperiodic stretches between them overflow the cache.
        let text = [
            "b".repeat(200),
            ab_text(8_000, 7),
            "a".repeat(100),
            ab_text(8_000, 11),
        ]
        .concat();
        for from in [0, 150, 8_250, 16_000] {
            for earliest in [false, true] {
                let end = dfa.find_end(&program, &mut cache, &text, from, false, earliest);
                let found = pikevm::search(&program, &text, from);
                if earliest {
                    assert_eq!(end.is_some(), found.is_some(), "from {from}");
                    continue;
                }
                let start = end.map(|e| dfa.find_start(&mut cache, &text, from, e));
                assert_eq!(
                    start.zip(end),
                    found.map(|r| r.group(0).unwrap()),
                    "from {from}"
                );
            }
        }
        assert!(cache.emptied() > 0, "the scans must overflow the cache");
    }

    #[test]
    fn anchored_and_earliest_modes() {
        let parsed = parse("ab+").unwrap();
        let program = compile(&parsed).unwrap();
        let dfa = Dfa::new(&program, &parsed.ast, None).unwrap();
        let mut cache = Cache::default();
        let text = "xxabbby";
        assert_eq!(
            dfa.find_end(&program, &mut cache, text, 0, true, false),
            None
        );
        assert_eq!(
            dfa.find_end(&program, &mut cache, text, 2, true, false),
            Some(6)
        );
        // Earliest stops at the first accepting state, not the greedy end.
        assert_eq!(
            dfa.find_end(&program, &mut cache, text, 0, false, true),
            Some(4)
        );
    }

    #[test]
    fn assertions_build_no_dfa() {
        for pattern in [r"\bcat\b", r"\Bcat", "^a", "a$"] {
            let parsed = parse(pattern).unwrap();
            let program = compile(&parsed).unwrap();
            assert!(Dfa::new(&program, &parsed.ast, None).is_none(), "{pattern}");
        }
    }

    #[test]
    fn classes_partition_chars_at_instruction_boundaries() {
        let program = compile(&parse(r"\w+@[^é]").unwrap()).unwrap();
        let classes = CharClasses::new(&program);
        let same = |a: char, b: char| classes.of(a) == classes.of(b);
        assert!(same('a', 'z') && same('0', '9'));
        assert!(!same('a', '@') && !same('@', ' ') && !same('é', 'e'));
        assert!(same('日', '本') && same('😀', '\u{E000}'));
        for class in 0..classes.len() as u32 {
            let c = classes.representative(class);
            assert!(
                classes.of(c) == class
                    || (0xD800..0xE000).contains(&classes.starts[class as usize])
            );
        }
    }

    #[test]
    fn an_exponential_dfa_stays_inside_the_budget() {
        let pattern = "(a|b)*a(a|b){14}";
        let text = ab_text(20_000, 0x2545_F491_4F6C_DD1D);
        let parsed = parse(pattern).unwrap();
        let program = compile(&parsed).unwrap();
        let dfa = Dfa::new(&program, &parsed.ast, None).unwrap();
        let mut cache = Cache::default();
        // One state per distinct 15-character suffix: 2^15 of them.
        let side = Side {
            program: &program,
            classes: &dfa.classes,
            longest: false,
        };
        let mut sid = cache.forward.start(side, true);
        for c in text.chars() {
            sid = cache.forward.next(side, sid, dfa.classes.of(c));
            assert!(cache.words() <= CACHE_BUDGET_WORDS);
        }
        assert!(cache.emptied() > 0, "the text must overflow the cache");
        // And the answers do not change when it does.
        let mut cache = Cache::default();
        for from in [0, 1, 7_000, 19_980] {
            let end = dfa.find_end(&program, &mut cache, &text, from, false, false);
            let start = end.map(|e| dfa.find_start(&mut cache, &text, from, e));
            assert_eq!(
                start.zip(end),
                reference(pattern, &text, from),
                "from {from}"
            );
        }
    }
}
