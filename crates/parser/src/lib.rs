//! # spannerlog-parser
//!
//! Lexer, AST, and parser for **Spannerlog** — the paper's Datalog variant
//! over strings and spans with IE atoms (§2).
//!
//! The concrete syntax follows the paper's examples, ASCII-fied the same
//! way the original implementation does (`<-` for ←, `->` for ↦):
//!
//! ```text
//! # declarations give relations a typed schema
//! new Texts(str, str)
//!
//! # facts are ground atoms
//! Texts("2024-01-01", "reach me at ann@gmail.com")
//!
//! # rules; IE atoms call registered IE functions
//! R(usr, dom) <- Texts(d, t), rgx("(\w+)@(\w+)\.\w+", t) -> (usr, dom).
//!
//! # aggregation in the head (paper §3.1)
//! Summary(d, lex_concat(str(u))) <- Texts(d, t), R(u, dom)
//!
//! # queries: constants and wildcards filter, variables project
//! ?R(usr, "gmail")
//! ```
//!
//! Beyond the paper's core we also parse stratified **negation**
//! (`not Atom(...)`) and comparison guards (`x != y`, `n < m`) — both are
//! extensions beyond the paper's core. The engine's safety pass requires
//! their variables to be bound elsewhere in the body, and its
//! stratification pass rejects negation inside a recursive component
//! (README, *Evaluation*).
//!
//! Statements are self-delimiting; a trailing `.` is accepted anywhere a
//! statement ends. `#` starts a line comment. The unicode arrows `←` and
//! `↦` are accepted as synonyms of `<-` and `->`.

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod token;

pub use ast::{
    Atom, BodyElem, CmpOp, Constant, Declaration, Fact, HeadTerm, IeAtom, Program, Query, Rule,
    Statement, Term,
};
pub use error::{caret_snippet, ParseError};
pub use parser::parse_program;
