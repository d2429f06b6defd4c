//! The programs the property tests draw: a generator of layered
//! programs over `Edge`, and fixed programs over `Texts(d, t)` or
//! `Edge` to join with one.

#![allow(dead_code)]

use proptest::prelude::*;

/// Random IE-heavy program shapes over `Texts(d, t)`: span extraction
/// with joins, scalar extraction with aggregation, boolean filters with
/// negation, per-row builtins amid scans, recursion without IE, counts
/// over IE bodies.
pub const IE_PROGRAMS: &[&str] = &[
    r#"
    A(d, s) <- Texts(d, t), rgx("a+", t) -> (s)
    B(d, s) <- Texts(d, t), rgx("b+", t) -> (s)
    Pair(d, p, q) <- A(d, p), B(d, q)
    "#,
    r#"
    Tok(d, w) <- Texts(d, t), rgx_string("([ab]+)", t) -> (w)
    Cnt(d, count(w)) <- Tok(d, w)
    "#,
    r#"
    HasX(d) <- Texts(d, t), rgx_is_match("x", t)
    Plain(d) <- Texts(d, _), not HasX(d)
    Mark(d, s) <- Texts(d, t), HasX(d), rgx("x", t) -> (s)
    "#,
    // Per-row builtins between two scans: the planner may move them
    // like any other step, and `Key` — every IE call rooted at its
    // first scan — is sharded.
    r#"
    A(d, s) <- Texts(d, t), rgx("a+", t) -> (s)
    W(d, s) <- Texts(d, t), rgx("[ab]+", t) -> (s)
    Key(d, k) <- A(d, s), span_start(s) -> (b), format("{}@{}", d, b) -> (k), W(d, s)
    In(d, k) <- W(d, w), span_start(w) -> (b), A(d, s), contains(w, s),
                format("{}@{}", d, b) -> (k)
    "#,
    // An IE-free recursive component over documents and texts, a count
    // over it, and an IE call reading it.
    r#"
    Hop(x, y) <- Texts(x, y)
    Hop(y, x) <- Texts(x, y)
    Reach(x, z) <- Hop(x, z)
    Reach(x, z) <- Reach(x, y), Hop(y, z)
    Reached(x, count(y)) <- Reach(x, y)
    Lead(x, s) <- Reach(x, y), rgx("a+", y) -> (s)
    "#,
    // Counts whose bodies call an IE function, and a count over a count.
    r#"
    Runs(d, count(s)) <- Texts(d, t), rgx("a+|b+", t) -> (s)
    Words(d, count(w)) <- Texts(d, t), rgx_string("([ab]+)", t) -> (w)
    Docs(n, count(d)) <- Runs(d, n)
    "#,
    // One call at three sites with different body prefixes — a join, a
    // negation, and another IE atom the call does not need — and a
    // fourth site that reads a constant the others do not.
    r#"
    HasX(d) <- Texts(d, t), rgx_is_match("x", t)
    Near(d, s) <- Texts(d, t), HasX(d), rgx("a+", t) -> (s)
    Far(d, s) <- Texts(d, t), not HasX(d), rgx("a+", t) -> (s)
    Inside(d, s) <- Texts(d, t), rgx("[ab]+", t) -> (w), rgx("a+", t) -> (s), contains(w, s)
    Str(d, u) <- Texts(d, t), rgx_string("(a+)|b+", t) -> (u)
    Aa(d) <- Texts(d, t), rgx_string("(a+)|b+", t) -> ("aa")
    "#,
    // Calls whose input another IE atom binds: at `Run` the atom of a
    // call two sites share, at `Lone` one of a call nobody else asks.
    r#"
    Word(d, w) <- Texts(d, t), rgx_string("[ab]+", t) -> (w)
    Run(d, s) <- Texts(d, t), rgx_string("[ab]+", t) -> (w), rgx("a+", w) -> (s)
    Solo(d, s) <- Texts(d, t), rgx("a+", t) -> (s)
    Lone(d, s) <- Texts(d, t), rgx_string("b[ab]*", t) -> (w), rgx("b+", w) -> (s)
    Also(d, s) <- Texts(d, t), rgx("b+", t) -> (s)
    "#,
];

/// Programs whose recursive rules call `rgx`, `rgx_string` or `expand`
/// on what the recursion derived, linearly or not. A shard range cuts a delta (`Sub`),
/// or holds on one scan while a delta restricts another (`Walk`).
pub const RECURSIVE_IE_PROGRAMS: &[&str] = &[
    r#"
    Tok(d, s) <- Texts(d, t), rgx("[ab]+", t) -> (s)
    Sub(d, s) <- Tok(d, s)
    Sub(d, p) <- Sub(d, s), rgx("a+|b+", s) -> (p)
    Walk(d, s) <- Texts(d, t), rgx("a+", t) -> (s)
    Walk(d, p) <- Walk(d, s), Texts(d, t), rgx("b+", t) -> (p)
    "#,
    // A span grows a character each way while it covers only `a`s and
    // `b`s; a string loses its first character while one is left.
    r#"
    Grow(d, s) <- Texts(d, t), rgx("a", t) -> (s)
    Grow(d, w) <- Grow(d, s), expand(s, 1, 1) -> (w), rgx("[ab]+", w) -> (w)
    Tail(d, t) <- Texts(d, t)
    Tail(d, u) <- Tail(d, t), rgx_string("[ab x]([ab x]*)", t) -> (u)
    Long(d, count(w)) <- Grow(d, w)
    "#,
    // One call inside a recursion and outside it, over spans inside and
    // over texts outside: the call's argument column holds both.
    r#"
    Piece(d, s) <- Texts(d, t), rgx("[ab]+", t) -> (s)
    Piece(d, p) <- Piece(d, s), rgx("a+|b", s) -> (p)
    End(d, p) <- Texts(d, t), rgx("a+|b", t) -> (p)
    "#,
    // Balanced strings, `a` opening and `b` closing: `ab`, a balanced
    // span that `a` and `b` wrap, and two that touch, as one span.
    r#"
    Bal(d, s) <- Texts(d, t), rgx("ab", t) -> (s)
    Bal(d, w) <- Bal(d, s), expand(s, 1, 1) -> (w), rgx("a([ab]*)b", w) -> (s)
    Bal(d, w) <- Bal(d, s), span_end(s) -> (i), Bal(d, u), span_start(u) -> (i),
                 same_doc(s, u), span_len(u) -> (k), expand(s, 0, k) -> (w)
    "#,
];

/// IE-free programs over `Edge`: linear and non-linear recursion,
/// recursion through a three-way join, mutual recursion, negation over
/// a recursive relation.
pub const GRAPH_PROGRAMS: &[&str] = &[
    "
    Path(x, y) <- Edge(x, y)
    Path(x, z) <- Path(x, y), Edge(y, z)
    Dead(x) <- Node(x), not Path(x, x)
    Tc(x, y) <- Edge(x, y)
    Tc(x, z) <- Tc(x, y), Tc(y, z)
    ",
    "
    Sg(x, x) <- Edge(x, _)
    Sg(x, x) <- Edge(_, x)
    Sg(x, y) <- Edge(px, x), Sg(px, py), Edge(py, y)
    ",
    "
    Even(0) <- Edge(0, _)
    Odd(y) <- Even(x), Edge(x, y)
    Even(y) <- Odd(x), Edge(x, y)
    Reach(y) <- Edge(0, y)
    Reach(z) <- Reach(y), Edge(y, z)
    Unreached(x) <- Node(x), not Reach(x)
    ",
];

/// The `pick`th of [`IE_PROGRAMS`], [`RECURSIVE_IE_PROGRAMS`] and
/// [`GRAPH_PROGRAMS`], in that order.
pub fn program_at(pick: usize) -> &'static str {
    let all = IE_PROGRAMS
        .iter()
        .chain(RECURSIVE_IE_PROGRAMS)
        .chain(GRAPH_PROGRAMS);
    all.copied().nth(pick).expect("a program index in range")
}

pub const PROGRAMS: usize = IE_PROGRAMS.len() + RECURSIVE_IE_PROGRAMS.len() + GRAPH_PROGRAMS.len();

/// One rule of a random layered program over `Edge`: which lower
/// predicate feeds it, how the head is reached, and which lower
/// predicates it negates.
pub type RuleSpec = (u8, u8, Vec<u8>);

/// Renders heads `P0..Pn`, each with one or more rules. A rule reads a
/// lower predicate (or `Node`), optionally steps through `Edge` — from
/// that predicate or from its own head (recursion) — and negates lower
/// predicates, so negation chains run as deep as the program.
/// `not Edge(v, v)` stands in below `P0`. Shape 3 steps through `Edge`
/// and then the pure, memoised IE function `range`, which alone binds
/// the head, shape 4 counts the lower predicate, and negation picks 6
/// and 7 read `not Edge(v, _)` and `not Step(_, v)` (`Step` is `Edge`
/// joined with itself).
pub fn layered_program(heads: &[Vec<RuleSpec>]) -> String {
    let mut program = String::from(
        "Node(x) <- Edge(x, _)\nNode(y) <- Edge(_, y)\nStep(x, z) <- Edge(x, y), Edge(y, z)\n",
    );
    let lower = |i: usize, pick: u8| match pick as usize % (i + 1) {
        0 => "Node".to_string(),
        k => format!("P{}", k - 1),
    };
    for (i, rules) in heads.iter().enumerate() {
        for (src, shape, negated) in rules {
            let (head, body, v) = match shape {
                0 => ("x", format!("{}(x)", lower(i, *src)), "x"),
                1 => ("y", format!("{}(x), Edge(x, y)", lower(i, *src)), "y"),
                2 => ("y", format!("P{i}(x), Edge(x, y)"), "y"),
                3 => (
                    "y",
                    format!("{}(x), Edge(x, z), range(z) -> (y)", lower(i, *src)),
                    "y",
                ),
                _ => ("count(x)", format!("{}(x)", lower(i, *src)), "x"),
            };
            let mut rule = format!("P{i}({head}) <- {body}");
            for n in negated {
                match *n {
                    6 => rule.push_str(&format!(", not Edge({v}, _)")),
                    7 => rule.push_str(&format!(", not Step(_, {v})")),
                    n => match n as usize % (i + 1) {
                        0 => rule.push_str(&format!(", not Edge({v}, {v})")),
                        k => rule.push_str(&format!(", not P{}({v})", k - 1)),
                    },
                }
            }
            program.push_str(&rule);
            program.push('\n');
        }
    }
    program
}

/// Random layered programs: every shape and negation pick of
/// [`layered_program`].
pub fn layered_program_strategy() -> impl Strategy<Value = Vec<Vec<RuleSpec>>> {
    let rule = (0u8..6, 0u8..5, prop::collection::vec(0u8..8, 0..3));
    prop::collection::vec(prop::collection::vec(rule, 1..4), 1..6)
}
