//! Thompson NFA with capture slots — the compiled form of a regex formula.
//!
//! Every instruction carries explicit successor state ids (no fallthrough),
//! which keeps the continuation-passing compiler in [`crate::compile`]
//! free of patch-up passes except for loops. Split instructions order
//! their branches by **priority**: the first branch is preferred, which is
//! how greedy/lazy repetition and ordered alternation are encoded.

use crate::ast::AnchorKind;
use crate::classes::ClassSet;

/// Index of a state/instruction in a [`Program`].
pub type StateId = u32;

/// One NFA instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inst {
    /// Consume exactly the character `c`.
    Char {
        /// The expected character.
        c: char,
        /// Successor state.
        next: StateId,
    },
    /// Consume any character in `set`.
    Class {
        /// The accepting character set.
        set: ClassSet,
        /// Successor state.
        next: StateId,
    },
    /// Consume any character except `\n` (the `.` semantics of Python).
    Any {
        /// Successor state.
        next: StateId,
    },
    /// Record the current input offset into capture slot `slot`.
    Save {
        /// Slot index; group *k* uses slots `2k` (open) and `2k+1` (close).
        slot: u16,
        /// Successor state.
        next: StateId,
    },
    /// Zero-width assertion.
    Assert {
        /// The assertion to check at the current position.
        kind: AnchorKind,
        /// Successor state.
        next: StateId,
    },
    /// Nondeterministic branch; `primary` has higher priority.
    Split {
        /// Preferred branch (tried first under backtracking semantics).
        primary: StateId,
        /// Fallback branch.
        secondary: StateId,
    },
    /// Accept.
    Match,
}

impl Inst {
    /// Successor states of this instruction, in priority order.
    pub fn successors(&self) -> impl Iterator<Item = StateId> {
        let (a, b) = match *self {
            Inst::Char { next, .. }
            | Inst::Class { next, .. }
            | Inst::Any { next }
            | Inst::Save { next, .. }
            | Inst::Assert { next, .. } => (Some(next), None),
            Inst::Split { primary, secondary } => (Some(primary), Some(secondary)),
            Inst::Match => (None, None),
        };
        a.into_iter().chain(b)
    }
}

/// A compiled regex formula.
#[derive(Debug, Clone)]
pub struct Program {
    /// The instruction pool; state ids index into it.
    pub insts: Vec<Inst>,
    /// Entry state.
    pub start: StateId,
    /// Total number of capture slots, `2 * (1 + explicit groups)`.
    pub slot_count: usize,
    /// Names of explicit groups (index `i` holds group `i + 1`'s name).
    pub group_names: Vec<Option<String>>,
}

impl Program {
    /// Number of explicit capture groups.
    pub fn group_count(&self) -> usize {
        self.group_names.len()
    }

    /// The instruction at `id`.
    pub fn inst(&self, id: StateId) -> &Inst {
        &self.insts[id as usize]
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program has no states (never true for compiled output).
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Sanity-checks that every successor id is in bounds and every save
    /// slot is within `slot_count`. Used by tests and debug assertions.
    pub fn validate(&self) -> Result<(), String> {
        if (self.start as usize) >= self.insts.len() {
            return Err(format!("start state {} out of bounds", self.start));
        }
        for (i, inst) in self.insts.iter().enumerate() {
            for s in inst.successors() {
                if (s as usize) >= self.insts.len() {
                    return Err(format!("inst {i} points to out-of-bounds state {s}"));
                }
            }
            if let Inst::Save { slot, .. } = inst {
                if *slot as usize >= self.slot_count {
                    return Err(format!(
                        "inst {i} saves slot {slot} but slot_count is {}",
                        self.slot_count
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The set of states visited while one thread list (or DFA state) is
/// built. Emptying it bumps a stamp instead of touching the vector, so a
/// step over a 100 000-state program costs what it visits, not what the
/// program holds.
#[derive(Debug, Default)]
pub(crate) struct Visited {
    /// `stamps[pc] == stamp` marks `pc` a member.
    stamps: Vec<u32>,
    stamp: u32,
}

impl Visited {
    /// Empties the set and makes room for the states of `program`.
    pub(crate) fn reset(&mut self, program: &Program) {
        if self.stamps.len() < program.len() {
            self.stamps.resize(program.len(), 0);
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.stamps.fill(0);
            self.stamp = 1;
        }
    }

    /// Adds `pc`; `false` if it was a member already.
    pub(crate) fn insert(&mut self, pc: StateId) -> bool {
        let stamp = &mut self.stamps[pc as usize];
        let new = *stamp != self.stamp;
        *stamp = self.stamp;
        new
    }
}

/// Evaluates a zero-width assertion at byte position `at` of `text`,
/// where `prev` is the character immediately before `at` (if any) and
/// `next` the character starting at `at` (if any).
pub fn assertion_holds(
    kind: AnchorKind,
    at: usize,
    len: usize,
    prev: Option<char>,
    next: Option<char>,
) -> bool {
    fn is_word(c: Option<char>) -> bool {
        c.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
    }
    match kind {
        AnchorKind::StartText => at == 0,
        AnchorKind::EndText => at == len,
        AnchorKind::WordBoundary => is_word(prev) != is_word(next),
        AnchorKind::NotWordBoundary => is_word(prev) == is_word(next),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn successors_enumerate_in_priority_order() {
        let split = Inst::Split {
            primary: 3,
            secondary: 7,
        };
        assert_eq!(split.successors().collect::<Vec<_>>(), vec![3, 7]);
        assert_eq!(Inst::Match.successors().count(), 0);
        let ch = Inst::Char { c: 'a', next: 5 };
        assert_eq!(ch.successors().collect::<Vec<_>>(), vec![5]);
    }

    #[test]
    fn validate_catches_bad_targets() {
        let prog = Program {
            insts: vec![Inst::Char { c: 'a', next: 9 }],
            start: 0,
            slot_count: 2,
            group_names: vec![],
        };
        assert!(prog.validate().is_err());
    }

    #[test]
    fn validate_catches_bad_slots() {
        let prog = Program {
            insts: vec![Inst::Save { slot: 4, next: 1 }, Inst::Match],
            start: 0,
            slot_count: 2,
            group_names: vec![],
        };
        assert!(prog.validate().is_err());
    }

    #[test]
    fn word_boundary_semantics() {
        use AnchorKind::*;
        // "ab cd": boundary at 0, 2, 3, 5.
        let cases = [
            (0, None, Some('a'), true),
            (1, Some('a'), Some('b'), false),
            (2, Some('b'), Some(' '), true),
            (3, Some(' '), Some('c'), true),
            (5, Some('d'), None, true),
        ];
        for (at, prev, next, expect) in cases {
            assert_eq!(
                assertion_holds(WordBoundary, at, 5, prev, next),
                expect,
                "at {at}"
            );
            assert_eq!(
                assertion_holds(NotWordBoundary, at, 5, prev, next),
                !expect,
                "at {at}"
            );
        }
    }

    #[test]
    fn text_anchors() {
        use AnchorKind::*;
        assert!(assertion_holds(StartText, 0, 3, None, Some('a')));
        assert!(!assertion_holds(StartText, 1, 3, Some('a'), Some('b')));
        assert!(assertion_holds(EndText, 3, 3, Some('c'), None));
        assert!(!assertion_holds(EndText, 2, 3, Some('b'), Some('c')));
    }
}
