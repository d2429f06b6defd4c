//! Brute-force reference matchers.
//!
//! Two independent implementations of the two matching semantics, written
//! for obviousness rather than speed, used by unit and property tests to
//! cross-check the Pike VM (`spannerlib_regex::pikevm`) and the
//! all-configurations simulator (`spannerlib_regex::allmatches`):
//!
//! * [`oracle_find_iter`] — classic recursive *backtracking* in priority
//!   order (greedy tries longer first, alternation tries branches in
//!   order), scanning left to right; this is Perl/Python semantics by
//!   construction.
//! * [`oracle_all_matches`] — exhaustive enumeration of every accepting
//!   parse of every substring.

use rustc_hash::FxHashSet;
use spannerlib_regex::allmatches::AllMatch;
use spannerlib_regex::ast::Ast;
use spannerlib_regex::nfa::assertion_holds;
use spannerlib_regex::parser::ParsedPattern;

type Caps = Vec<Option<(usize, usize)>>;

struct Text {
    chars: Vec<char>,
    /// `byte_of[i]` is the byte offset of char `i`; `byte_of[len]` = text len.
    byte_of: Vec<usize>,
}

impl Text {
    fn new(text: &str) -> Self {
        let mut chars = Vec::new();
        let mut byte_of = Vec::new();
        for (b, c) in text.char_indices() {
            byte_of.push(b);
            chars.push(c);
        }
        byte_of.push(text.len());
        Text { chars, byte_of }
    }

    fn len(&self) -> usize {
        self.chars.len()
    }

    fn at(&self, i: usize) -> Option<char> {
        self.chars.get(i).copied()
    }

    fn prev(&self, i: usize) -> Option<char> {
        i.checked_sub(1).and_then(|p| self.chars.get(p).copied())
    }

    fn assertion(&self, kind: spannerlib_regex::ast::AnchorKind, pos: usize) -> bool {
        assertion_holds(kind, pos, self.len(), self.prev(pos), self.at(pos))
    }
}

/// Every `(start, end, groups)` of the leftmost-first non-overlapping scan,
/// in byte offsets — reference for `Regex::find_iter`.
pub fn oracle_find_iter(parsed: &ParsedPattern, text: &str) -> Vec<AllMatch> {
    let t = Text::new(text);
    let n_groups = parsed.group_names.len();
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos <= t.len() {
        match bt_search(&t, &parsed.ast, n_groups, pos) {
            None => break,
            Some((start, end, caps)) => {
                out.push(to_bytes(&t, start, end, &caps));
                pos = if end > start { end } else { end + 1 };
            }
        }
    }
    out
}

/// Every accepting run of every substring, in byte offsets — reference for
/// `Regex::all_matches`. Sorted and deduplicated.
pub fn oracle_all_matches(parsed: &ParsedPattern, text: &str) -> Vec<AllMatch> {
    let t = Text::new(text);
    let n_groups = parsed.group_names.len();
    let mut rows: FxHashSet<AllMatch> = FxHashSet::default();
    for start in 0..=t.len() {
        let caps: Caps = vec![None; n_groups];
        for (end, caps) in enum_match(&t, &parsed.ast, start, &caps) {
            rows.insert(to_bytes(&t, start, end, &caps));
        }
    }
    let mut rows: Vec<AllMatch> = rows.into_iter().collect();
    rows.sort();
    rows
}

fn to_bytes(t: &Text, start: usize, end: usize, caps: &Caps) -> AllMatch {
    AllMatch {
        start: t.byte_of[start],
        end: t.byte_of[end],
        groups: caps
            .iter()
            .map(|g| g.map(|(s, e)| (t.byte_of[s], t.byte_of[e])))
            .collect(),
    }
}

// ---------------------------------------------------------------------
// Backtracking (priority) oracle
// ---------------------------------------------------------------------

/// Leftmost-first search: first start position (scanning right) at which a
/// match exists; within a start, priority order of the backtracker.
fn bt_search(t: &Text, ast: &Ast, n_groups: usize, from: usize) -> Option<(usize, usize, Caps)> {
    for start in from..=t.len() {
        let mut caps: Caps = vec![None; n_groups];
        let mut result: Option<usize> = None;
        let matched = bt(t, ast, start, &mut caps, &mut |end, _| {
            result = Some(end);
            true
        });
        if matched {
            return Some((start, result.expect("continuation ran"), caps));
        }
    }
    None
}

/// Backtracking matcher in continuation-passing style. `k` receives the
/// end position; returning `true` commits (cuts the search).
fn bt(
    t: &Text,
    ast: &Ast,
    pos: usize,
    caps: &mut Caps,
    k: &mut dyn FnMut(usize, &mut Caps) -> bool,
) -> bool {
    match ast {
        Ast::Empty => k(pos, caps),
        Ast::Literal(c) => t.at(pos) == Some(*c) && k(pos + 1, caps),
        Ast::Class(set) => t.at(pos).is_some_and(|c| set.contains(c)) && k(pos + 1, caps),
        Ast::AnyChar => t.at(pos).is_some_and(|c| c != '\n') && k(pos + 1, caps),
        Ast::Anchor(kind) => t.assertion(*kind, pos) && k(pos, caps),
        Ast::Concat(parts) => bt_seq(t, parts, pos, caps, k),
        Ast::Alternation(branches) => {
            for b in branches {
                let saved = caps.clone();
                if bt(t, b, pos, caps, k) {
                    return true;
                }
                *caps = saved;
            }
            false
        }
        Ast::Group { index, node, .. } => {
            let g = (*index - 1) as usize;
            bt(t, node, pos, caps, &mut |end, caps| {
                let old = caps[g];
                caps[g] = Some((pos, end));
                if k(end, caps) {
                    true
                } else {
                    caps[g] = old;
                    false
                }
            })
        }
        Ast::Repeat {
            node,
            min,
            max,
            greedy,
        } => bt_rep(t, node, pos, caps, *min, *max, *greedy, k),
    }
}

fn bt_seq(
    t: &Text,
    parts: &[Ast],
    pos: usize,
    caps: &mut Caps,
    k: &mut dyn FnMut(usize, &mut Caps) -> bool,
) -> bool {
    match parts.split_first() {
        None => k(pos, caps),
        Some((head, rest)) => bt(t, head, pos, caps, &mut |p, c| bt_seq(t, rest, p, c, k)),
    }
}

#[allow(clippy::too_many_arguments)]
fn bt_rep(
    t: &Text,
    node: &Ast,
    pos: usize,
    caps: &mut Caps,
    min: u32,
    max: Option<u32>,
    greedy: bool,
    k: &mut dyn FnMut(usize, &mut Caps) -> bool,
) -> bool {
    if max == Some(0) {
        return k(pos, caps);
    }
    let enter = |caps: &mut Caps, k: &mut dyn FnMut(usize, &mut Caps) -> bool| -> bool {
        bt(t, node, pos, caps, &mut |p2, c2| {
            if p2 == pos && min == 0 && max.is_none() {
                // Empty iteration with no remaining obligation and no
                // bound: looping adds nothing and would not terminate.
                return false;
            }
            bt_rep(
                t,
                node,
                p2,
                c2,
                min.saturating_sub(1),
                max.map(|m| m - 1),
                greedy,
                k,
            )
        })
    };
    if min > 0 {
        let saved = caps.clone();
        if enter(caps, k) {
            return true;
        }
        *caps = saved;
        return false;
    }
    if greedy {
        let saved = caps.clone();
        if enter(caps, k) {
            return true;
        }
        *caps = saved;
        k(pos, caps)
    } else {
        let saved = caps.clone();
        if k(pos, caps) {
            return true;
        }
        *caps = saved;
        enter(caps, k)
    }
}

// ---------------------------------------------------------------------
// All-matches oracle
// ---------------------------------------------------------------------

/// All `(end, caps)` of every accepting parse of `ast` starting at `pos`.
fn enum_match(t: &Text, ast: &Ast, pos: usize, caps: &Caps) -> Vec<(usize, Caps)> {
    let set: FxHashSet<(usize, Caps)> = enum_set(t, ast, pos, caps);
    let mut v: Vec<(usize, Caps)> = set.into_iter().collect();
    v.sort();
    v
}

fn enum_set(t: &Text, ast: &Ast, pos: usize, caps: &Caps) -> FxHashSet<(usize, Caps)> {
    let mut out = FxHashSet::default();
    match ast {
        Ast::Empty => {
            out.insert((pos, caps.clone()));
        }
        Ast::Literal(c) => {
            if t.at(pos) == Some(*c) {
                out.insert((pos + 1, caps.clone()));
            }
        }
        Ast::Class(set) => {
            if t.at(pos).is_some_and(|c| set.contains(c)) {
                out.insert((pos + 1, caps.clone()));
            }
        }
        Ast::AnyChar => {
            if t.at(pos).is_some_and(|c| c != '\n') {
                out.insert((pos + 1, caps.clone()));
            }
        }
        Ast::Anchor(kind) => {
            if t.assertion(*kind, pos) {
                out.insert((pos, caps.clone()));
            }
        }
        Ast::Concat(parts) => {
            let mut states: FxHashSet<(usize, Caps)> = FxHashSet::default();
            states.insert((pos, caps.clone()));
            for part in parts {
                let mut next = FxHashSet::default();
                for (p, c) in &states {
                    next.extend(enum_set(t, part, *p, c));
                }
                states = next;
                if states.is_empty() {
                    break;
                }
            }
            out = states;
        }
        Ast::Alternation(branches) => {
            for b in branches {
                out.extend(enum_set(t, b, pos, caps));
            }
        }
        Ast::Group { index, node, .. } => {
            let g = (*index - 1) as usize;
            for (end, mut c) in enum_set(t, node, pos, caps) {
                c[g] = Some((pos, end));
                out.insert((end, c));
            }
        }
        Ast::Repeat { node, min, max, .. } => {
            // Mandatory part: exactly `min` iterations, layer by layer.
            let mut states: FxHashSet<(usize, Caps)> = FxHashSet::default();
            states.insert((pos, caps.clone()));
            for _ in 0..*min {
                let mut next = FxHashSet::default();
                for (p, c) in &states {
                    next.extend(enum_set(t, node, *p, c));
                }
                states = next;
                if states.is_empty() {
                    return out;
                }
            }
            // Optional part: BFS up to (max - min) further iterations;
            // dedupe is sound because a revisited (pos, caps) has an
            // identical future.
            out.extend(states.iter().cloned());
            let budget = max.map(|m| m - *min);
            let mut visited = states.clone();
            let mut frontier = states;
            let mut extra = 0u32;
            while budget.is_none_or(|b| extra < b) {
                let mut next = FxHashSet::default();
                for (p, c) in &frontier {
                    for r in enum_set(t, node, *p, c) {
                        if visited.insert(r.clone()) {
                            next.insert(r);
                        }
                    }
                }
                if next.is_empty() {
                    break;
                }
                out.extend(next.iter().cloned());
                frontier = next;
                extra += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spannerlib_regex::parser::parse;

    fn find_all(pattern: &str, text: &str) -> Vec<(usize, usize)> {
        oracle_find_iter(&parse(pattern).unwrap(), text)
            .into_iter()
            .map(|m| (m.start, m.end))
            .collect()
    }

    #[test]
    fn paper_example_exact() {
        // §2: rgx over "acb aacccbbb" with α = x{a+}c+y{b+} returns
        // exactly (⟨0,1⟩, ⟨2,3⟩) and (⟨4,6⟩, ⟨9,12⟩).
        let parsed = parse("x{a+}c+y{b+}").unwrap();
        let ms = oracle_find_iter(&parsed, "acb aacccbbb");
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[0].groups, vec![Some((0, 1)), Some((2, 3))]);
        assert_eq!(ms[1].groups, vec![Some((4, 6)), Some((9, 12))]);
    }

    #[test]
    fn scan_is_non_overlapping() {
        assert_eq!(find_all("aa", "aaaa"), vec![(0, 2), (2, 4)]);
    }

    #[test]
    fn empty_matches_advance() {
        // Python: re.findall(r'a*', 'baa') → ['', 'aa', ''].
        assert_eq!(find_all("a*", "baa"), vec![(0, 0), (1, 3), (3, 3)]);
    }

    #[test]
    fn greedy_vs_lazy() {
        assert_eq!(find_all("<.+>", "<a><b>"), vec![(0, 6)]);
        assert_eq!(find_all("<.+?>", "<a><b>"), vec![(0, 3), (3, 6)]);
    }

    #[test]
    fn nested_repetition_terminates() {
        assert_eq!(find_all("(a*)*", "aa"), vec![(0, 2), (2, 2)]);
    }

    #[test]
    fn all_matches_exhaustive_on_small_case() {
        let parsed = parse("a+").unwrap();
        let rows = oracle_all_matches(&parsed, "aa");
        let spans: Vec<(usize, usize)> = rows.iter().map(|m| (m.start, m.end)).collect();
        assert_eq!(spans, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn all_matches_with_bounded_repeat_and_empty_body() {
        // (?:a?){2} over "": the empty parse exists.
        let parsed = parse("(?:a?){2}").unwrap();
        let rows = oracle_all_matches(&parsed, "");
        assert_eq!(rows.len(), 1);
        assert_eq!((rows[0].start, rows[0].end), (0, 0));
    }

    #[test]
    fn min_repetitions_enforced() {
        let parsed = parse("a{3,}").unwrap();
        assert!(oracle_all_matches(&parsed, "aa").is_empty());
        assert_eq!(oracle_all_matches(&parsed, "aaa").len(), 1);
    }
}
