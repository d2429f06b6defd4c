//! Pike VM: the capture resolver and the reference matcher —
//! leftmost-first (Perl/Python) matching in `O(n · m)` time.
//!
//! [`crate::Regex`] no longer scans with this machine: the lazy DFA (the
//! crate's `dfa` module) finds where a match lies. A pattern whose every
//! match puts its groups at fixed distances from the window's ends takes
//! them from the window; for any other pattern with groups the VM runs
//! once, anchored inside that window, to assign them. The unanchored
//! [`search`] stays as the reference the DFA is tested against and as
//! the one fallback for patterns with look-around assertions, which the
//! DFA does not model.
//!
//! Thread lists keep **priority order**: threads created earlier in a step
//! outrank later ones, `Split` pushes its primary branch first, and new
//! scan-start threads are appended last. When a thread reaches `Match`,
//! every lower-priority thread is discarded — exactly the set of
//! alternatives a backtracking engine would never explore — while
//! higher-priority threads keep running and may supersede the match.
//! The result is the match Python's `re` would produce.
//!
//! Capture slots live in one flat slab per thread list (thread `i` owns
//! `slots[i * slot_count..][..slot_count]`), and both lists, the closure
//! stack and the slot buffers are per-thread scratch reused across
//! calls: a run allocates nothing once the scratch has grown to the
//! program's size.

use crate::nfa::{assertion_holds, Inst, Program, StateId, Visited};
use std::cell::RefCell;

/// A successful search: the final capture slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchResult {
    /// Slot vector; slots `2k`/`2k+1` delimit group `k` (group 0 is the
    /// whole match and is always present on success).
    pub slots: Vec<Option<u32>>,
}

impl SearchResult {
    /// Byte range of group `k`, if it participated in the match.
    pub fn group(&self, k: usize) -> Option<(usize, usize)> {
        group_of(&self.slots, k)
    }
}

fn group_of(slots: &[Option<u32>], k: usize) -> Option<(usize, usize)> {
    let start = (*slots.get(2 * k)?)?;
    let end = (*slots.get(2 * k + 1)?)?;
    Some((start as usize, end as usize))
}

/// One scan step's worth of threads plus the per-step dedupe set.
#[derive(Default)]
struct ThreadList {
    /// Program counters in priority order.
    pcs: Vec<StateId>,
    /// `slot_count` capture slots per thread, back to back.
    slots: Vec<Option<u32>>,
    seen: Visited,
}

impl ThreadList {
    fn clear(&mut self, program: &Program) {
        self.pcs.clear();
        self.slots.clear();
        self.seen.reset(program);
    }
}

/// What [`add_thread`] still has to do.
enum Frame {
    /// Visit this state with the working slots as they are.
    Explore(StateId),
    /// Undo a `Save` once everything behind it has been visited.
    Restore { slot: usize, old: Option<u32> },
}

#[derive(Default)]
struct Scratch {
    clist: ThreadList,
    nlist: ThreadList,
    stack: Vec<Frame>,
    /// Slots of the thread whose closure is being added.
    working: Vec<Option<u32>>,
    /// Slots of the best match so far; the result of a successful run.
    matched: Vec<Option<u32>>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// The character context assertions are evaluated in.
#[derive(Clone, Copy)]
struct Position {
    at: usize,
    prev: Option<char>,
    next: Option<char>,
}

/// Executes `program` over `text` starting the scan at byte `from`.
///
/// Returns the leftmost-first match at or after `from`, or `None`.
pub fn search(program: &Program, text: &str, from: usize) -> Option<SearchResult> {
    with_match(program, text, from, text.len(), false, |slots| {
        SearchResult {
            slots: slots.to_vec(),
        }
    })
}

/// Executes `program` over `text` with the match **anchored** at byte `at`:
/// only matches starting exactly at `at` are found, with the same Perl
/// priority among them as [`search`] would apply.
///
/// It returns as soon as the thread list drains, so a failed launch costs
/// `O(m)` in the pattern rather than `O(n · m)` in the text.
pub fn search_anchored(program: &Program, text: &str, at: usize) -> Option<SearchResult> {
    with_match(program, text, at, text.len(), true, |slots| SearchResult {
        slots: slots.to_vec(),
    })
}

/// [`search`] / [`search_anchored`] that consumes no character at or
/// past byte `end` and writes the groups (0 = whole match) into `groups`
/// when given. Returns the whole match.
///
/// Stopping at the end of a window the DFA found loses nothing: the
/// leftmost-first match is the last one the full run records, it is
/// recorded at the step its end is reached, and the run up to that step
/// does not depend on what follows.
pub(crate) fn search_into(
    program: &Program,
    text: &str,
    from: usize,
    end: usize,
    anchored: bool,
    groups: Option<&mut Vec<Option<(usize, usize)>>>,
) -> Option<(usize, usize)> {
    with_match(program, text, from, end, anchored, |slots| {
        if let Some(groups) = groups {
            groups.clear();
            groups.extend((0..slots.len() / 2).map(|k| group_of(slots, k)));
        }
        group_of(slots, 0).expect("group 0 is set on a match")
    })
}

fn with_match<T>(
    program: &Program,
    text: &str,
    from: usize,
    end: usize,
    anchored: bool,
    found: impl FnOnce(&[Option<u32>]) -> T,
) -> Option<T> {
    SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        run(program, text, from, end, anchored, scratch).then(|| found(&scratch.matched))
    })
}

/// Runs the VM; on success the match's slots are in `scratch.matched`.
fn run(
    program: &Program,
    text: &str,
    from: usize,
    end: usize,
    anchored: bool,
    scratch: &mut Scratch,
) -> bool {
    debug_assert!(text.is_char_boundary(from) && from <= end && end <= text.len());
    let Scratch {
        clist,
        nlist,
        stack,
        working,
        matched,
    } = scratch;
    let width = program.slot_count;
    clist.clear(program);
    nlist.clear(program);
    working.clear();
    working.resize(width, None);
    let mut found = false;

    let mut here = Position {
        at: from,
        prev: text[..from].chars().next_back(),
        next: text[from..].chars().next(),
    };
    loop {
        // Seed a new scan start unless a match was already found (leftmost
        // priority: existing threads started earlier, so they come first).
        // Anchored runs seed once, at `from` only.
        if !found && (!anchored || here.at == from) {
            working.fill(None);
            add_thread(
                program,
                clist,
                stack,
                working,
                program.start,
                text.len(),
                here,
            );
        }
        // An empty thread list means done when no new seeds can revive it:
        // after a match in the unanchored case, always in the anchored one.
        if clist.pcs.is_empty() && (found || anchored) {
            break;
        }

        // The character this step consumes; none at the window's end.
        let cur = here.next.filter(|_| here.at < end);
        let next_at = here.at + cur.map_or(0, char::len_utf8);
        let there = Position {
            at: next_at,
            prev: cur,
            next: text[next_at..].chars().next(),
        };
        for i in 0..clist.pcs.len() {
            let slots = &clist.slots[i * width..(i + 1) * width];
            let next = match program.inst(clist.pcs[i]) {
                Inst::Char { c, next } => (cur == Some(*c)).then_some(*next),
                Inst::Class { set, next } => cur.is_some_and(|c| set.contains(c)).then_some(*next),
                Inst::Any { next } => cur.is_some_and(|c| c != '\n').then_some(*next),
                Inst::Match => {
                    matched.clear();
                    matched.extend_from_slice(slots);
                    found = true;
                    // Lower-priority threads are alternatives a backtracker
                    // would never reach; drop them permanently.
                    break;
                }
                // Saves/Splits/Asserts were resolved by add_thread.
                Inst::Save { .. } | Inst::Split { .. } | Inst::Assert { .. } => unreachable!(),
            };
            if let Some(next) = next {
                working.copy_from_slice(slots);
                add_thread(program, nlist, stack, working, next, text.len(), there);
            }
        }

        std::mem::swap(clist, nlist);
        nlist.clear(program);
        if cur.is_none() {
            break;
        }
        here = there;
    }
    found
}

/// Adds `pc`'s epsilon closure to `list` in priority order, resolving
/// `Split`/`Save`/`Assert` eagerly so the main loop only sees consuming
/// instructions and `Match`. `working` holds the slots the closure
/// starts from and is returned unchanged; the explicit stack keeps deep
/// programs (counted repetitions expand to long `Split` chains) off the
/// call stack.
fn add_thread(
    program: &Program,
    list: &mut ThreadList,
    stack: &mut Vec<Frame>,
    working: &mut [Option<u32>],
    pc: StateId,
    len: usize,
    pos: Position,
) {
    stack.push(Frame::Explore(pc));
    while let Some(frame) = stack.pop() {
        let pc = match frame {
            Frame::Restore { slot, old } => {
                working[slot] = old;
                continue;
            }
            Frame::Explore(pc) => pc,
        };
        if !list.seen.insert(pc) {
            continue;
        }
        match program.inst(pc) {
            Inst::Split { primary, secondary } => {
                stack.push(Frame::Explore(*secondary));
                stack.push(Frame::Explore(*primary));
            }
            Inst::Save { slot, next } => {
                let slot = *slot as usize;
                stack.push(Frame::Restore {
                    slot,
                    old: working[slot],
                });
                working[slot] = Some(pos.at as u32);
                stack.push(Frame::Explore(*next));
            }
            Inst::Assert { kind, next } => {
                if assertion_holds(*kind, pos.at, len, pos.prev, pos.next) {
                    stack.push(Frame::Explore(*next));
                }
            }
            Inst::Char { .. } | Inst::Class { .. } | Inst::Any { .. } | Inst::Match => {
                list.pcs.push(pc);
                list.slots.extend_from_slice(working);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::parser::parse;

    fn find(pattern: &str, text: &str) -> Option<(usize, usize)> {
        let program = compile(&parse(pattern).unwrap()).unwrap();
        search(&program, text, 0).map(|r| r.group(0).unwrap())
    }

    fn groups(pattern: &str, text: &str) -> Vec<Option<(usize, usize)>> {
        let program = compile(&parse(pattern).unwrap()).unwrap();
        let r = search(&program, text, 0).unwrap();
        (0..=program.group_count()).map(|k| r.group(k)).collect()
    }

    #[test]
    fn literal_match() {
        assert_eq!(find("abc", "xxabcyy"), Some((2, 5)));
        assert_eq!(find("abc", "ab"), None);
    }

    #[test]
    fn leftmost_priority() {
        // Both "aa" at 0 and "aa" at 1 exist; leftmost wins.
        assert_eq!(find("aa", "aaa"), Some((0, 2)));
    }

    #[test]
    fn greedy_takes_longest_at_leftmost() {
        assert_eq!(find("a+", "xaaay"), Some((1, 4)));
    }

    #[test]
    fn lazy_takes_shortest() {
        assert_eq!(find("a+?", "xaaay"), Some((1, 2)));
    }

    #[test]
    fn alternation_prefers_first_branch() {
        // Perl semantics: "a|ab" on "ab" matches "a", not the longer "ab".
        assert_eq!(find("a|ab", "ab"), Some((0, 1)));
        assert_eq!(find("ab|a", "ab"), Some((0, 2)));
    }

    #[test]
    fn captures_from_paper_example_first_match() {
        // §2: α = x{a+}c+y{b+} over "acb aacccbbb"; first match groups.
        let g = groups("x{a+}c+y{b+}", "acb aacccbbb");
        assert_eq!(g[0], Some((0, 3)));
        assert_eq!(g[1], Some((0, 1))); // x ↦ "a"
        assert_eq!(g[2], Some((2, 3))); // y ↦ "b"
    }

    #[test]
    fn unmatched_group_is_none() {
        let g = groups("(a)|(b)", "b");
        assert_eq!(g[0], Some((0, 1)));
        assert_eq!(g[1], None);
        assert_eq!(g[2], Some((0, 1)));
    }

    #[test]
    fn repeated_group_keeps_last_iteration() {
        // Python: re.search(r'(ab)+', 'abab').group(1) == 'ab' at (2, 4).
        let g = groups("(ab)+", "abab");
        assert_eq!(g[0], Some((0, 4)));
        assert_eq!(g[1], Some((2, 4)));
    }

    #[test]
    fn empty_pattern_matches_empty_at_start() {
        assert_eq!(find("", "abc"), Some((0, 0)));
        assert_eq!(find("", ""), Some((0, 0)));
    }

    #[test]
    fn anchors_constrain() {
        assert_eq!(find("^b", "abc"), None);
        assert_eq!(find("^a", "abc"), Some((0, 1)));
        assert_eq!(find("c$", "abc"), Some((2, 3)));
        assert_eq!(find("b$", "abc"), None);
    }

    #[test]
    fn word_boundaries() {
        assert_eq!(find(r"\bcat\b", "a cat sat"), Some((2, 5)));
        assert_eq!(find(r"\bcat\b", "concatenate"), None);
        assert_eq!(find(r"\Bcat\B", "concatenate"), Some((3, 6)));
    }

    #[test]
    fn dot_excludes_newline() {
        assert_eq!(find("a.c", "a\nc"), None);
        assert_eq!(find("a.c", "axc"), Some((0, 3)));
    }

    #[test]
    fn search_from_offset() {
        let program = compile(&parse("a").unwrap()).unwrap();
        let r = search(&program, "a..a", 1).unwrap();
        assert_eq!(r.group(0), Some((3, 4)));
    }

    #[test]
    fn empty_star_loop_terminates() {
        // (a*)* can epsilon-loop; the seen-set must break the cycle.
        assert_eq!(find("(a*)*", "b"), Some((0, 0)));
        assert_eq!(find("(a*)+", "aab"), Some((0, 2)));
    }

    #[test]
    fn unicode_text() {
        assert_eq!(find("é+", "caféé!"), Some((3, 7)));
        let g = groups("x{é+}", "caféé!");
        assert_eq!(g[1], Some((3, 7)));
    }

    #[test]
    fn anchored_search_only_matches_at_the_given_offset() {
        let program = compile(&parse("ab+").unwrap()).unwrap();
        // Unanchored finds the match at 2; anchored at 0 does not.
        assert!(search(&program, "xxabby", 0).is_some());
        assert_eq!(search_anchored(&program, "xxabby", 0), None);
        let r = search_anchored(&program, "xxabby", 2).unwrap();
        assert_eq!(r.group(0), Some((2, 5)));
    }

    #[test]
    fn anchored_search_keeps_priority_and_assertions() {
        // Greedy priority at the anchor point matches the unanchored run.
        let program = compile(&parse("a+").unwrap()).unwrap();
        let r = search_anchored(&program, "xaaay", 1).unwrap();
        assert_eq!(r.group(0), Some((1, 4)));
        // Assertions are evaluated relative to the real text, not the
        // anchor: `^` fails mid-text even when anchored there.
        let program = compile(&parse("^a").unwrap()).unwrap();
        assert_eq!(search_anchored(&program, "ba", 1), None);
        let program = compile(&parse(r"\ba").unwrap()).unwrap();
        assert!(search_anchored(&program, "b a", 2).is_some());
    }

    #[test]
    fn anchored_empty_match() {
        let program = compile(&parse("a*").unwrap()).unwrap();
        let r = search_anchored(&program, "bbb", 1).unwrap();
        assert_eq!(r.group(0), Some((1, 1)));
    }

    #[test]
    fn counted_repetition_bounds() {
        assert_eq!(find("a{2,3}", "aaaa"), Some((0, 3)));
        assert_eq!(find("a{2,3}?", "aaaa"), Some((0, 2)));
        assert_eq!(find("a{5}", "aaaa"), None);
    }

    #[test]
    fn a_window_end_stops_the_run_without_changing_the_match() {
        let program = compile(&parse("(a+)(b*)").unwrap()).unwrap();
        let text = "xaabbb";
        let mut groups = Vec::new();
        // The full run and the run confined to the match's own window agree.
        let whole = search_into(&program, text, 1, text.len(), true, Some(&mut groups));
        assert_eq!(whole, Some((1, 6)));
        let full = groups.clone();
        assert_eq!(
            search_into(&program, text, 1, 6, true, Some(&mut groups)),
            Some((1, 6))
        );
        assert_eq!(groups, full);
        assert_eq!(groups, vec![Some((1, 6)), Some((1, 3)), Some((3, 6))]);
        // A shorter window only offers what ends inside it.
        assert_eq!(search_into(&program, text, 1, 4, true, None), Some((1, 4)));
    }

    #[test]
    fn assertions_at_a_window_end_see_the_real_text() {
        let program = compile(&parse(r"a+\b").unwrap()).unwrap();
        // "aa" ends at 2, where 'a' follows: no boundary inside the word.
        assert_eq!(search_into(&program, "aaa b", 0, 2, true, None), None);
        assert_eq!(
            search_into(&program, "aaa b", 0, 3, true, None),
            Some((0, 3))
        );
    }

    #[test]
    fn deep_split_chains_do_not_recurse() {
        // 30 000 optional copies in a row: one closure visits them all.
        let program = compile(&parse("(?:a?){30000}b").unwrap()).unwrap();
        let text = "a".repeat(10) + "b";
        assert_eq!(
            search_anchored(&program, &text, 0).unwrap().group(0),
            Some((0, 11))
        );
    }
}
