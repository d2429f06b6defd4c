//! # spannerlib-regex
//!
//! A from-scratch regex-formula engine with **document-spanner semantics**.
//!
//! Regex formulas — regular expressions with capture variables — are the
//! canonical IE functions of the document-spanner framework (Fagin et al.,
//! *J. ACM* 2015) and of the paper's `rgxα` primitives (§2). This crate
//! implements them without depending on any external regex library, because
//! the matching semantics *is* part of the system under reproduction:
//!
//! * [`Regex::find_iter`] — **leftmost-first, non-overlapping** scanning
//!   (the semantics of Python's `re`, which the original SpannerLib wraps).
//!   The paper's worked example (§2: `x{a+}c+y{b+}` over `acb aacccbbb`
//!   yields exactly two matches) holds under this mode.
//! * [`Regex::all_matches`] — the **formal spanner semantics**: every span
//!   ⟨i, j⟩ such that the formula matches `d[i..j]` in its entirety,
//!   together with *every* capture-variable assignment of every accepting
//!   run. This is the ⟦γ⟧(d) of the theory.
//!
//! The pattern syntax is classic regex (alternation, repetition,
//! character classes, anchors, `(...)`/`(?:...)`/`(?<name>...)` groups)
//! extended with *spanner variable groups* `x{...}` as written in the
//! paper — `x{a+}c+y{b+}` binds variables `x` and `y`.
//!
//! On top of single formulas, [`algebra`] evaluates a formula as a
//! [`Spanner`] to a [`SpanRelation`] of variable assignments, and unites
//! two of either: a union of formulas is again one automaton, and it
//! evaluates to the union of their relations. The Spannerlog engine does
//! the rest of the relational work (join, projection, selection) in its
//! rule bodies.
//!
//! Internals: patterns parse to an [`ast::Ast`] and compile to a Thompson
//! NFA with capture slots ([`nfa::Program`]). A scan ([`Regex::find_iter`],
//! [`Regex::captures_iter`], [`Regex::is_match`]) then goes through four
//! stages, each skipped when it has nothing to add:
//!
//! 1. the literal [`prefilter`] extracted from the AST rejects a text
//!    that lacks a required literal, or names the only offsets a match
//!    can start at;
//! 2. a lazily determinised **forward DFA** over the same program — its
//!    states are the Pike VM's priority-ordered thread lists without the
//!    slots, so leftmost-first semantics carry over — finds where the
//!    match ends (`is_match` stops here, at the first accepting state);
//! 3. a **reverse DFA** over the reversed pattern, run backwards from
//!    that end, finds where it starts;
//! 4. the capture groups, if wanted, come from that window: at fixed
//!    distances from its ends where every match has them there, else
//!    from the Pike VM ([`pikevm`]) run once, anchored inside it.
//!
//! Patterns with look-around assertions (`\b`, `\B`, `^`, `$`) build no
//! DFA — what an assertion sees is not a function of the state — and
//! scan with the Pike VM as before; that is the only fallback. DFA
//! states are cached per scan in scratch pooled inside the `Regex`
//! (concurrent scans of a shared `Regex` each hold their own), at most
//! 128 KiB per direction: a pattern whose DFA outgrows the budget has
//! its cache emptied and rebuilt as the scan goes on, which costs time,
//! never memory or correctness. [`Regex::all_matches`] is a different
//! algorithm, the all-configurations simulator in [`allmatches`]. The
//! reference semantics both are tested against is a brute-force
//! backtracking oracle that lives with the tests (`tests/oracle`).

pub mod algebra;
pub mod allmatches;
pub mod ast;
pub mod classes;
pub mod compile;
mod dfa;
pub mod error;
pub mod nfa;
pub mod parser;
pub mod pikevm;
pub mod prefilter;
pub mod regex;

pub use crate::regex::{Captures, Match, Regex};
pub use algebra::{SpanRelation, Spanner};
pub use allmatches::AllMatch;
pub use error::RegexError;
pub use prefilter::{Prefilter, PrefilterStats};
