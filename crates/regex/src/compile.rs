//! Continuation-passing Thompson construction: AST → [`Program`].
//!
//! `emit(node, k)` compiles `node` so that every accepting path continues
//! at state `k`. Only loops (`*`, `+`, `{m,}`) need a placeholder patch;
//! everything else falls out of the recursion. Split priority encodes
//! greediness: the primary branch of a greedy loop enters the body, of a
//! lazy loop exits it.

use crate::ast::Ast;
use crate::error::RegexError;
use crate::nfa::{Inst, Program, StateId};
use crate::parser::ParsedPattern;

/// Upper bound on compiled program size; counted repetitions expand by
/// duplication, so `a{1000}{1000}`-style blowups must be rejected rather
/// than eat memory.
const MAX_PROGRAM_SIZE: usize = 100_000;

/// Compiles a parsed pattern into an executable NFA program.
pub fn compile(parsed: &ParsedPattern) -> Result<Program, RegexError> {
    let mut c = Compiler {
        insts: Vec::new(),
        reversed: false,
    };
    // Entry chain: Save(0) → body → Save(1) → Match.
    let match_state = c.push(Inst::Match)?;
    let save_end = c.push(Inst::Save {
        slot: 1,
        next: match_state,
    })?;
    let body = c.emit(&parsed.ast, save_end)?;
    let start = c.push(Inst::Save {
        slot: 0,
        next: body,
    })?;
    let program = Program {
        insts: c.insts,
        start,
        slot_count: 2 * (1 + parsed.group_names.len()),
        group_names: parsed.group_names.clone(),
    };
    debug_assert_eq!(program.validate(), Ok(()));
    Ok(program)
}

/// Compiles a pattern — or the part of one before an inner literal — read
/// right to left, without capture slots: the program a reverse DFA walks
/// backwards from a match's end (or the literal) to find its start.
/// Reversal flips concatenations and nothing else; which branch or
/// repetition count a match prefers does not change *whether* a span
/// matches, so priorities are carried over but never consulted.
pub(crate) fn compile_reversed(ast: &Ast) -> Result<Program, RegexError> {
    let mut c = Compiler {
        insts: Vec::new(),
        reversed: true,
    };
    let match_state = c.push(Inst::Match)?;
    let start = c.emit(ast, match_state)?;
    let program = Program {
        insts: c.insts,
        start,
        slot_count: 0,
        group_names: Vec::new(),
    };
    debug_assert_eq!(program.validate(), Ok(()));
    Ok(program)
}

struct Compiler {
    insts: Vec<Inst>,
    /// Emit each concatenation back to front and drop the `Save`s.
    reversed: bool,
}

impl Compiler {
    fn push(&mut self, inst: Inst) -> Result<StateId, RegexError> {
        if self.insts.len() >= MAX_PROGRAM_SIZE {
            return Err(RegexError::syntax(
                0,
                format!("compiled program exceeds {MAX_PROGRAM_SIZE} states"),
            ));
        }
        self.insts.push(inst);
        Ok((self.insts.len() - 1) as StateId)
    }

    /// Compiles `ast` with continuation `k`; returns the entry state.
    fn emit(&mut self, ast: &Ast, k: StateId) -> Result<StateId, RegexError> {
        match ast {
            Ast::Empty => Ok(k),
            Ast::Literal(c) => self.push(Inst::Char { c: *c, next: k }),
            Ast::Class(set) => self.push(Inst::Class {
                set: set.clone(),
                next: k,
            }),
            Ast::AnyChar => self.push(Inst::Any { next: k }),
            Ast::Anchor(kind) => self.push(Inst::Assert {
                kind: *kind,
                next: k,
            }),
            Ast::Concat(parts) => {
                // Fold so each part continues into the one that follows
                // it in reading direction.
                let mut cont = k;
                if self.reversed {
                    for part in parts {
                        cont = self.emit(part, cont)?;
                    }
                } else {
                    for part in parts.iter().rev() {
                        cont = self.emit(part, cont)?;
                    }
                }
                Ok(cont)
            }
            Ast::Alternation(branches) => {
                // Right-fold splits; earlier branches get higher priority.
                let mut entries = Vec::with_capacity(branches.len());
                for b in branches {
                    entries.push(self.emit(b, k)?);
                }
                let mut cont = *entries.last().expect("alternation is non-empty");
                for &e in entries.iter().rev().skip(1) {
                    cont = self.push(Inst::Split {
                        primary: e,
                        secondary: cont,
                    })?;
                }
                Ok(cont)
            }
            Ast::Repeat {
                node,
                min,
                max,
                greedy,
            } => self.emit_repeat(node, *min, *max, *greedy, k),
            Ast::Group { node, .. } if self.reversed => self.emit(node, k),
            Ast::Group { index, node, .. } => {
                let open_slot = (2 * index) as u16;
                let close = self.push(Inst::Save {
                    slot: open_slot + 1,
                    next: k,
                })?;
                let body = self.emit(node, close)?;
                self.push(Inst::Save {
                    slot: open_slot,
                    next: body,
                })
            }
        }
    }

    fn emit_repeat(
        &mut self,
        node: &Ast,
        min: u32,
        max: Option<u32>,
        greedy: bool,
        k: StateId,
    ) -> Result<StateId, RegexError> {
        let mut cont = match max {
            None => self.emit_star(node, greedy, k)?,
            Some(max) => {
                // (max - min) nested optional copies; skipping any one of
                // them skips all the rest, so every secondary goes to `k`.
                let mut cont = k;
                for _ in min..max {
                    let body = self.emit(node, cont)?;
                    cont = self.push(if greedy {
                        Inst::Split {
                            primary: body,
                            secondary: k,
                        }
                    } else {
                        Inst::Split {
                            primary: k,
                            secondary: body,
                        }
                    })?;
                }
                cont
            }
        };
        for _ in 0..min {
            cont = self.emit(node, cont)?;
        }
        Ok(cont)
    }

    /// `node*`: loop state with a back edge — the one place that needs a
    /// placeholder patch.
    fn emit_star(&mut self, node: &Ast, greedy: bool, k: StateId) -> Result<StateId, RegexError> {
        let loop_state = self.push(Inst::Split {
            primary: 0, // patched below
            secondary: 0,
        })?;
        let body = self.emit(node, loop_state)?;
        self.insts[loop_state as usize] = if greedy {
            Inst::Split {
                primary: body,
                secondary: k,
            }
        } else {
            Inst::Split {
                primary: k,
                secondary: body,
            }
        };
        Ok(loop_state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn prog(pattern: &str) -> Program {
        compile(&parse(pattern).unwrap()).unwrap()
    }

    #[test]
    fn programs_validate() {
        for pat in [
            "a",
            "abc",
            "a|b|c",
            "a*",
            "a+?",
            "a{2,5}",
            "(a+)(b+)",
            "x{a+}c+y{b+}",
            "[a-z]+@[a-z]+",
            "^a$",
            "",
        ] {
            let p = prog(pat);
            assert_eq!(p.validate(), Ok(()), "pattern {pat:?}");
        }
    }

    #[test]
    fn slot_count_reflects_groups() {
        assert_eq!(prog("abc").slot_count, 2);
        assert_eq!(prog("(a)(b)").slot_count, 6);
        assert_eq!(prog("x{a+}c+y{b+}").slot_count, 6);
    }

    #[test]
    fn group_names_preserved() {
        let p = prog("x{a+}c+y{b+}");
        assert_eq!(
            p.group_names,
            vec![Some("x".to_string()), Some("y".to_string())]
        );
    }

    #[test]
    fn counted_repetition_expands() {
        // a{3} should contain three Char instructions.
        let p = prog("a{3}");
        let chars = p
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::Char { .. }))
            .count();
        assert_eq!(chars, 3);
    }

    #[test]
    fn oversized_expansion_is_rejected() {
        // Nested counted repetitions expand multiplicatively: 100³ states.
        let big = "(?:(?:(?:a{100}){100}){100})";
        let parsed = parse(big).unwrap();
        assert!(compile(&parsed).is_err());
    }

    #[test]
    fn reversed_program_reads_right_to_left_without_saves() {
        let p = compile_reversed(&parse("x{ab}c+").unwrap().ast).unwrap();
        assert_eq!(p.validate(), Ok(()));
        assert_eq!(p.slot_count, 0);
        assert!(!p.insts.iter().any(|i| matches!(i, Inst::Save { .. })));
        // Follow the only path from the start: c (loop), then b, then a.
        let mut order = Vec::new();
        let mut pc = p.start;
        loop {
            pc = match p.inst(pc) {
                Inst::Char { c, next } => {
                    order.push(*c);
                    *next
                }
                Inst::Split { secondary, .. } => *secondary,
                Inst::Match => break,
                other => panic!("unexpected {other:?}"),
            };
        }
        assert_eq!(order, vec!['c', 'b', 'a']);
    }

    #[test]
    fn empty_pattern_compiles_to_immediate_match() {
        let p = prog("");
        // Path: Save0 → Save1 → Match, no consuming instruction.
        assert!(p
            .insts
            .iter()
            .all(|i| !matches!(i, Inst::Char { .. } | Inst::Class { .. } | Inst::Any { .. })));
    }
}
