//! Property tests for the engine: the production evaluator must be
//! observationally equivalent to the naive reference on random Datalog
//! and IE programs, aggregation must match a hand-rolled reference on
//! random inputs, and the IE memo cache must be semantically invisible
//! (cache-on ≡ cache-off).

use proptest::prelude::*;
use spannerlib_core::{Relation, Schema, Tuple, Value, ValueType};
use spannerlog_engine::{EvalMode, EvalStrategy, Session};

/// Random edge relation over a small node universe.
fn edges_strategy() -> impl Strategy<Value = Vec<(u8, u8)>> {
    prop::collection::vec((0u8..8, 0u8..8), 0..24)
}

fn load_graph(session: &mut Session, edges: &[(u8, u8)]) {
    session.run("new Edge(int, int)").unwrap();
    for &(a, b) in edges {
        session
            .add_fact("Edge", [Value::Int(a as i64), Value::Int(b as i64)])
            .unwrap();
    }
}

/// The named relations a graph `program` derives over `edges` under
/// `strategy`.
fn derive(
    strategy: EvalStrategy,
    edges: &[(u8, u8)],
    program: &str,
    relations: &[&str],
) -> Vec<Vec<spannerlib_core::Tuple>> {
    let mut session = Session::with_strategy(strategy);
    load_graph(&mut session, edges);
    session.run(program).unwrap();
    relations
        .iter()
        .map(|name| session.relation(name).unwrap().sorted_tuples())
        .collect()
}

/// Random short documents over a tiny alphabet, exercising matches,
/// non-matches, and empty texts.
fn texts_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(0u8..4, 0..24), 1..6)
}

fn render_text(codes: &[u8]) -> String {
    codes
        .iter()
        .map(|c| ['a', 'b', ' ', 'x'][*c as usize])
        .collect()
}

/// Random IE-heavy program shapes: span extraction with joins, scalar
/// extraction with aggregation, boolean filters with negation, uncached
/// builtins amid scans, recursion without IE, counts over IE bodies.
const IE_PROGRAMS: &[(&str, &[&str])] = &[
    (
        r#"
        A(d, s) <- Texts(d, t), rgx("a+", t) -> (s)
        B(d, s) <- Texts(d, t), rgx("b+", t) -> (s)
        Pair(d, p, q) <- A(d, p), B(d, q)
        "#,
        &["A", "B", "Pair"],
    ),
    (
        r#"
        Tok(d, w) <- Texts(d, t), rgx_string("([ab]+)", t) -> (w)
        Cnt(d, count(w)) <- Tok(d, w)
        "#,
        &["Tok", "Cnt"],
    ),
    (
        r#"
        HasX(d) <- Texts(d, t), rgx_is_match("x", t)
        Plain(d) <- Texts(d, _), not HasX(d)
        Mark(d, s) <- Texts(d, t), HasX(d), rgx("x", t) -> (s)
        "#,
        &["HasX", "Plain", "Mark"],
    ),
    // Uncached builtins between two scans: the planner may move them
    // like any other step, and `Key` — every IE call rooted at its
    // first scan — is sharded.
    (
        r#"
        A(d, s) <- Texts(d, t), rgx("a+", t) -> (s)
        W(d, s) <- Texts(d, t), rgx("[ab]+", t) -> (s)
        Key(d, k) <- A(d, s), span_start(s) -> (b), format("{}@{}", d, b) -> (k), W(d, s)
        In(d, k) <- W(d, w), span_start(w) -> (b), A(d, s), contains(w, s),
                    format("{}@{}", d, b) -> (k)
        "#,
        &["Key", "In"],
    ),
    // An IE-free recursive component over documents and texts, a count
    // over it, and an IE call reading it.
    (
        r#"
        Hop(x, y) <- Texts(x, y)
        Hop(y, x) <- Texts(x, y)
        Reach(x, z) <- Hop(x, z)
        Reach(x, z) <- Reach(x, y), Hop(y, z)
        Reached(x, count(y)) <- Reach(x, y)
        Lead(x, s) <- Reach(x, y), rgx("a+", y) -> (s)
        "#,
        &["Reach", "Reached", "Lead"],
    ),
    // Counts whose bodies call an IE function, and a count over a count.
    (
        r#"
        Runs(d, count(s)) <- Texts(d, t), rgx("a+|b+", t) -> (s)
        Words(d, count(w)) <- Texts(d, t), rgx_string("([ab]+)", t) -> (w)
        Docs(n, count(d)) <- Runs(d, n)
        "#,
        &["Runs", "Words", "Docs"],
    ),
];

fn import_texts(session: &mut Session, texts: &[Vec<u8>], round: usize) {
    session
        .import_typed(
            "Texts",
            texts
                .iter()
                .enumerate()
                .map(|(i, codes)| (format!("d{i}"), render_text(codes)))
                .skip(round % texts.len())
                .collect::<Vec<_>>(),
        )
        .unwrap();
}

/// A relation's tuples with spans rendered as resolved text + offsets:
/// shard workers race to intern documents, so raw doc ids differ from
/// run to run without being observably different.
fn canonical(session: &mut Session, name: &str) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = session
        .relation(name)
        .unwrap()
        .sorted_tuples()
        .iter()
        .map(|t| {
            t.values()
                .iter()
                .map(|v| match v {
                    Value::Span(s) => format!(
                        "{:?}[{}..{}]",
                        session.span_text(s).unwrap(),
                        s.start,
                        s.end
                    ),
                    other => format!("{other:?}"),
                })
                .collect()
        })
        .collect();
    rows.sort();
    rows
}

/// One rule of a random layered program over `Edge`: which lower
/// predicate feeds it, how the head is reached, and which lower
/// predicates it negates.
type RuleSpec = (u8, u8, Vec<u8>);

/// Renders heads `P0..Pn`, each with one or more rules. A rule reads a
/// lower predicate (or `Node`), optionally steps through `Edge` — from
/// that predicate or from its own head (recursion) — and negates lower
/// predicates, so negation chains run as deep as the program.
/// `not Edge(v, v)` stands in below `P0`. The draws of
/// [`extended_layered_program_strategy`] reach further: shape 3 steps
/// through `Edge` and then the pure, memoised IE function `range`, which
/// alone binds the head, shape 4 counts the lower predicate, and
/// negation picks 6 and 7 read `not Edge(v, _)` and `not Step(_, v)`
/// (`Step` is `Edge` joined with itself).
fn layered_program(heads: &[Vec<RuleSpec>]) -> String {
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

/// The first three shapes and six negation picks of [`layered_program`]:
/// deep negation chains, and recursion in a third of the rules.
fn layered_program_strategy() -> impl Strategy<Value = Vec<Vec<RuleSpec>>> {
    layered_program_draws(3, 6)
}

/// Every shape and negation pick of [`layered_program`].
fn extended_layered_program_strategy() -> impl Strategy<Value = Vec<Vec<RuleSpec>>> {
    layered_program_draws(5, 8)
}

fn layered_program_draws(shapes: u8, picks: u8) -> impl Strategy<Value = Vec<Vec<RuleSpec>>> {
    let rule = (0u8..6, 0u8..shapes, prop::collection::vec(0u8..picks, 0..3));
    prop::collection::vec(prop::collection::vec(rule, 1..4), 1..6)
}

/// One write to the inputs of a layered program: `(kind, edges)`. Kind 0
/// inserts the edges (`add_fact`), 1 replaces `Edge` by them
/// (`import_relation`), 2 deletes the edges leaving the first nodes of
/// the first two (`import_typed` of the rest), and 3 imports `Texts`
/// again without its first `edges.len()` documents.
type Write = (u8, Vec<(u8, u8)>);

fn writes_strategy() -> impl Strategy<Value = Vec<Write>> {
    prop::collection::vec((0u8..4, edges_strategy()), 1..6)
}

/// What a sequence of writes left in the inputs of a layered program
/// joined with an IE program over `Texts`.
#[derive(Debug, Default)]
struct Inputs {
    edges: std::collections::BTreeSet<(u8, u8)>,
    /// How many leading documents `Texts` skips ([`import_texts`]).
    skip: usize,
}

impl Inputs {
    /// Applies `write` here and, through the verb it names, to `session`.
    fn write(&mut self, session: &mut Session, texts: &[Vec<u8>], (kind, picks): &Write) {
        let int = |n: u8| Value::Int(i64::from(n));
        match kind {
            0 => {
                self.edges.extend(picks);
                for &(a, b) in picks {
                    session.add_fact("Edge", [int(a), int(b)]).unwrap();
                }
            }
            1 => {
                self.edges = picks.iter().copied().collect();
                let rows = self
                    .edges
                    .iter()
                    .map(|&(a, b)| Tuple::new([int(a), int(b)]));
                let edge = Relation::from_tuples(Schema::new(vec![ValueType::Int; 2]), rows);
                session.import_relation("Edge", edge.unwrap()).unwrap();
            }
            2 => {
                let from: Vec<u8> = picks.iter().take(2).map(|&(a, _)| a).collect();
                self.edges.retain(|(a, _)| !from.contains(a));
                let rows = self
                    .edges
                    .iter()
                    .map(|&(a, b)| (i64::from(a), i64::from(b)));
                session
                    .import_typed("Edge", rows.collect::<Vec<_>>())
                    .unwrap();
            }
            _ => {
                self.skip = picks.len();
                import_texts(session, texts, self.skip);
            }
        }
    }

    /// A fresh `Naive` session over these inputs, running `program`.
    fn reference(&self, texts: &[Vec<u8>], program: &str) -> Session {
        let mut session = Session::with_strategy(EvalStrategy::Naive);
        load_graph(
            &mut session,
            &self.edges.iter().copied().collect::<Vec<_>>(),
        );
        import_texts(&mut session, texts, self.skip);
        session.run(program).unwrap();
        session
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Transitive closure: naive ≡ semi-naive on random graphs.
    #[test]
    fn strategies_agree_on_transitive_closure(edges in edges_strategy()) {
        let program = "
            Path(x, y) <- Edge(x, y)
            Path(x, z) <- Path(x, y), Edge(y, z)
        ";
        let mut naive = Session::with_strategy(EvalStrategy::Naive);
        load_graph(&mut naive, &edges);
        naive.run(program).unwrap();
        let mut semi = Session::with_strategy(EvalStrategy::SemiNaive);
        load_graph(&mut semi, &edges);
        semi.run(program).unwrap();
        prop_assert_eq!(
            naive.relation("Path").unwrap().sorted_tuples(),
            semi.relation("Path").unwrap().sorted_tuples()
        );
    }

    /// Same-generation: recursion through a three-way join.
    #[test]
    fn strategies_agree_on_same_generation(edges in edges_strategy()) {
        let program = "
            Sg(x, x) <- Edge(x, _)
            Sg(x, x) <- Edge(_, x)
            Sg(x, y) <- Edge(px, x), Sg(px, py), Edge(py, y)
        ";
        let mut naive = Session::with_strategy(EvalStrategy::Naive);
        load_graph(&mut naive, &edges);
        naive.run(program).unwrap();
        let mut semi = Session::with_strategy(EvalStrategy::SemiNaive);
        load_graph(&mut semi, &edges);
        semi.run(program).unwrap();
        prop_assert_eq!(
            naive.relation("Sg").unwrap().sorted_tuples(),
            semi.relation("Sg").unwrap().sorted_tuples()
        );
    }

    /// Mutual recursion: two predicates in one component, each fed only
    /// by the other's delta.
    #[test]
    fn strategies_agree_on_mutual_recursion(edges in edges_strategy()) {
        let program = "
            Even(0) <- Edge(0, _)
            Odd(y) <- Even(x), Edge(x, y)
            Even(y) <- Odd(x), Edge(x, y)
        ";
        prop_assert_eq!(
            derive(EvalStrategy::Naive, &edges, program, &["Even", "Odd"]),
            derive(EvalStrategy::SemiNaive, &edges, program, &["Even", "Odd"])
        );
    }

    /// Stratified negation agrees across strategies too.
    #[test]
    fn strategies_agree_with_negation(edges in edges_strategy()) {
        let program = "
            Reach(y) <- Edge(0, y)
            Reach(z) <- Reach(y), Edge(y, z)
            Node(x) <- Edge(x, _)
            Node(y) <- Edge(_, y)
            Dead(x) <- Node(x), not Reach(x)
        ";
        let mut naive = Session::with_strategy(EvalStrategy::Naive);
        load_graph(&mut naive, &edges);
        naive.run(program).unwrap();
        let mut semi = Session::with_strategy(EvalStrategy::SemiNaive);
        load_graph(&mut semi, &edges);
        semi.run(program).unwrap();
        prop_assert_eq!(
            naive.relation("Dead").unwrap().sorted_tuples(),
            semi.relation("Dead").unwrap().sorted_tuples()
        );
    }

    /// Random layered programs — multi-rule heads, negation chains,
    /// recursive and non-recursive components side by side: the
    /// fire-once shortcut and the delta loop derive what the naive loop
    /// derives, relation for relation.
    #[test]
    fn strategies_agree_on_random_layered_programs(
        edges in edges_strategy(),
        heads in layered_program_strategy(),
    ) {
        let program = layered_program(&heads);
        let names: Vec<String> = (0..heads.len()).map(|i| format!("P{i}")).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        prop_assert_eq!(
            derive(EvalStrategy::Naive, &edges, &program, &names),
            derive(EvalStrategy::SemiNaive, &edges, &program, &names),
            "program:\n{}", program
        );
    }

    /// The model-based oracle of incremental maintenance: a session kept
    /// across a random sequence of inserts, replacements and deletions —
    /// through `add_fact`, `import_relation` and `import_typed` — holds
    /// after every write what a fresh `EvalStrategy::Naive` session
    /// derives from the same inputs, relation for relation, spans
    /// compared by their text. The program is a random layered one
    /// (negation, aggregation, recursion, the memoised `range`) joined
    /// with an IE program over `Texts`, and every write that moves an
    /// input is maintained, not evaluated again in full.
    #[test]
    fn maintained_sessions_match_a_fresh_reference(
        heads in extended_layered_program_strategy(),
        edges in edges_strategy(),
        texts in texts_strategy(),
        prog in 0usize..IE_PROGRAMS.len(),
        writes in writes_strategy(),
    ) {
        let (ie_program, ie_relations) = IE_PROGRAMS[prog];
        let program = format!("{}{ie_program}", layered_program(&heads));
        let mut names: Vec<String> = (0..heads.len()).map(|i| format!("P{i}")).collect();
        names.extend(["Node".into(), "Step".into()]);
        names.extend(ie_relations.iter().map(|name| name.to_string()));
        let mut inputs = Inputs { edges: edges.iter().copied().collect(), skip: 0 };
        let mut session = Session::new();
        load_graph(&mut session, &edges);
        import_texts(&mut session, &texts, 0);
        session.run(&program).unwrap();
        for step in 0..=writes.len() {
            if let Some(write) = step.checked_sub(1).map(|w| &writes[w]) {
                inputs.write(&mut session, &texts, write);
            }
            let seq = session.eval_seq();
            let mut reference = inputs.reference(&texts, &program);
            for name in &names {
                prop_assert_eq!(
                    canonical(&mut session, name),
                    canonical(&mut reference, name),
                    "relation {} after {} of {:?}, at {:?}\nprogram:\n{}",
                    name, step, writes, inputs, program
                );
            }
            let mode = session.stats().eval.mode;
            if step > 0 && session.eval_seq() > seq {
                prop_assert!(matches!(mode, EvalMode::Maintained { .. }), "{:?}", mode);
            }
        }
    }

    /// The IE memo is semantically invisible: cache-on and cache-off
    /// sessions agree tuple-for-tuple on random programs over random
    /// documents, across re-imports that exercise warm-path replay —
    /// at the default budget and at one of a few hundred bytes, which
    /// holds one to five entries and so empties mid-evaluation.
    #[test]
    fn cache_on_and_off_agree_tuple_for_tuple(
        texts in texts_strategy(),
        prog in 0usize..IE_PROGRAMS.len(),
        tiny_budget in 250usize..1200,
    ) {
        let (program, relations) = IE_PROGRAMS[prog];
        let mut uncached = Session::builder().ie_cache_capacity(0).build();
        let mut cached = [
            Session::new(),
            Session::builder().ie_cache_capacity(tiny_budget).build(),
        ];
        for round in 0..3 {
            import_texts(&mut uncached, &texts, round);
            if round == 0 {
                uncached.run(program).unwrap();
            }
            for session in &mut cached {
                import_texts(session, &texts, round);
                if round == 0 {
                    session.run(program).unwrap();
                }
                for name in relations {
                    prop_assert_eq!(
                        canonical(session, name),
                        canonical(&mut uncached, name),
                        "relation {} diverged on round {}", name, round
                    );
                }
            }
        }
        // The cached sessions actually exercised the memo, the tiny
        // one inside its budget.
        let [roomy, tiny] = cached.map(|session| session.stats().cache);
        prop_assert!(roomy.hits + roomy.misses > 0);
        prop_assert_eq!(tiny.hits + tiny.misses, roomy.hits + roomy.misses);
        prop_assert!(tiny.bytes <= tiny_budget, "{:?}", tiny);
    }

    /// The production evaluator — delta rounds, cost-ordered steps, scan
    /// indexes reused across rounds — agrees tuple-for-tuple with the
    /// reference (`EvalStrategy::Naive`: textual order, an index per
    /// scan) on random recursive graph programs with negation.
    #[test]
    fn production_agrees_with_reference_on_graphs(edges in edges_strategy()) {
        let program = "
            Path(x, y) <- Edge(x, y)
            Path(x, z) <- Path(x, y), Edge(y, z)
            Node(x) <- Edge(x, _)
            Node(y) <- Edge(_, y)
            Dead(x) <- Node(x), not Path(x, x)
        ";
        prop_assert_eq!(
            derive(EvalStrategy::SemiNaive, &edges, program, &["Path", "Dead"]),
            derive(EvalStrategy::Naive, &edges, program, &["Path", "Dead"])
        );
    }

    /// Production ≡ reference on IE-heavy programs: reordering around
    /// IE calls and negation, and sharding by document, never change
    /// the derived relations.
    #[test]
    fn production_agrees_with_reference_on_ie_programs(
        texts in texts_strategy(),
        prog in 0usize..IE_PROGRAMS.len(),
    ) {
        let (program, relations) = IE_PROGRAMS[prog];
        let mut production = Session::new();
        let mut reference = Session::with_strategy(EvalStrategy::Naive);
        import_texts(&mut production, &texts, 0);
        import_texts(&mut reference, &texts, 0);
        production.run(program).unwrap();
        reference.run(program).unwrap();
        for name in relations {
            prop_assert_eq!(
                canonical(&mut production, name),
                canonical(&mut reference, name),
                "relation {} diverged from the reference", name
            );
        }
    }

    /// Parallel evaluation is semantically invisible: `parallelism(k)`
    /// agrees tuple-for-tuple with a pinned-serial session on random
    /// programs — IE calls, recursion, aggregates — for several worker counts
    /// (including ones exceeding the row count). Shards are ranges of
    /// the scanned rows, so the rows are made to cut badly: several per
    /// document, a text under more than one document, and counts that
    /// are no multiple of a range. The last program is recursive
    /// through IE steps: a shard range cuts a delta (`Sub`), and holds
    /// on one scan while a delta restricts another (`Walk`).
    #[test]
    fn parallelism_is_semantically_invisible(
        texts in texts_strategy(),
        rows in prop::collection::vec((0u8..3, 0usize..6), 1..14),
        prog in 0usize..=IE_PROGRAMS.len(),
    ) {
        const RECURSIVE: (&str, &[&str]) = (
            r#"
            Tok(d, s) <- Texts(d, t), rgx("[ab]+", t) -> (s)
            Sub(d, s) <- Tok(d, s)
            Sub(d, p) <- Sub(d, s), rgx("a+|b+", s) -> (p)
            Walk(d, s) <- Texts(d, t), rgx("a+", t) -> (s)
            Walk(d, p) <- Walk(d, s), Texts(d, t), rgx("b+", t) -> (p)
            "#,
            &["Sub", "Walk"],
        );
        let (program, relations) = IE_PROGRAMS.get(prog).copied().unwrap_or(RECURSIVE);
        let run = |workers: usize| {
            let mut session = Session::builder().parallelism(workers).build();
            let text = |i: usize| render_text(&texts[i % texts.len()]);
            let rows = rows.iter().map(|&(d, i)| (format!("d{d}"), text(i)));
            session.import_typed("Texts", rows.collect::<Vec<_>>()).unwrap();
            session.run(program).unwrap();
            session
        };
        let mut serial = run(0);
        for workers in [2usize, 4, 7] {
            let mut parallel = run(workers);
            for name in relations {
                prop_assert_eq!(
                    canonical(&mut serial, name),
                    canonical(&mut parallel, name),
                    "relation {} diverged at parallelism({})", name, workers
                );
            }
        }
    }

    /// Aggregation: count/sum/min/max match a reference fold.
    #[test]
    fn aggregates_match_reference(values in prop::collection::vec((0u8..5, -20i64..20), 1..30)) {
        let mut session = Session::new();
        session.run("new M(int, int)").unwrap();
        // Set semantics: dedupe like the engine will.
        let mut dedup: Vec<(u8, i64)> = values.clone();
        dedup.sort_unstable();
        dedup.dedup();
        for &(g, v) in &dedup {
            session
                .add_fact("M", [Value::Int(g as i64), Value::Int(v)])
                .unwrap();
        }
        session
            .run("Stats(g, count(v), sum(v), min(v), max(v)) <- M(g, v)")
            .unwrap();
        let rel = session.relation("Stats").unwrap();

        use std::collections::BTreeMap;
        let mut expected: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
        for &(g, v) in &dedup {
            expected.entry(g as i64).or_default().push(v);
        }
        prop_assert_eq!(rel.len(), expected.len());
        for tuple in rel.sorted_tuples() {
            let g = tuple[0].as_int().unwrap();
            let members = &expected[&g];
            prop_assert_eq!(tuple[1].as_int().unwrap(), members.len() as i64);
            prop_assert_eq!(tuple[2].as_int().unwrap(), members.iter().sum::<i64>());
            prop_assert_eq!(tuple[3].as_int().unwrap(), *members.iter().min().unwrap());
            prop_assert_eq!(tuple[4].as_int().unwrap(), *members.iter().max().unwrap());
        }
    }

    /// The rgx IE path agrees between a rule and direct library use on
    /// random lowercase documents.
    #[test]
    fn rgx_rule_matches_direct_library(text in "[ab ]{0,20}") {
        let mut session = Session::new();
        session.run("new T(str)").unwrap();
        session.add_fact("T", [Value::str(text.as_str())]).unwrap();
        session
            .run(r#"W(w) <- T(t), rgx_string("[ab]+", t) -> (w)"#)
            .unwrap();
        let rel = session.relation("W").unwrap();
        let via_rule: std::collections::BTreeSet<String> = rel
            .sorted_tuples()
            .iter()
            .map(|t| t[0].as_str().unwrap().to_string())
            .collect();
        let re = spannerlib_regex::Regex::new("[ab]+").unwrap();
        let direct: std::collections::BTreeSet<String> = re
            .find_iter(&text)
            .map(|m| text[m.start..m.end].to_string())
            .collect();
        prop_assert_eq!(via_rule, direct);
    }
}
