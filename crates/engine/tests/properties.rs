//! Property tests for the engine. The model-based test holds a session
//! — at any parallelism and trace level — across a random sequence of
//! writes to what a reference evaluator written for tests only
//! (`support`) derives from the inputs as they stand after each write.
//! Focused tests hold one program family, or one configuration axis, to
//! the same reference.
//! Aggregation must match a hand-rolled fold, and `rgx` direct use of
//! the regex library.

mod programs;
mod support;

use programs::{
    layered_program, layered_program_strategy, program_at, IE_PROGRAMS, PROGRAMS,
    RECURSIVE_IE_PROGRAMS,
};
use proptest::prelude::*;
use spannerlib_core::{Relation, Schema, Tuple, Value, ValueType};
use spannerlog_engine::{EvalMode, Session, TraceLevel};
use std::collections::BTreeSet;

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

/// One write to the inputs: `(kind, edges)`. Kind 0 inserts the edges
/// (`add_fact`), 1 replaces `Edge` by them (`import_relation`), 2
/// deletes the edges leaving the first nodes of the first two
/// (`import_typed` of the rest), and 3 imports `Texts` again without its
/// first `edges.len()` rows.
type Write = (u8, Vec<(u8, u8)>);

fn writes_strategy() -> impl Strategy<Value = Vec<Write>> {
    prop::collection::vec((0u8..4, edges_strategy()), 1..6)
}

/// What a sequence of writes left in the inputs: `Edge`, and how many
/// leading rows of `texts` the `Texts` relation skips.
#[derive(Debug)]
struct Inputs {
    edges: BTreeSet<(u8, u8)>,
    texts: Vec<(String, String)>,
    skip: usize,
}

impl Inputs {
    /// The rows of `Texts`.
    fn texts(&self) -> Vec<(String, String)> {
        let skip = self.skip % self.texts.len().max(1);
        self.texts[skip..].to_vec()
    }

    /// Applies `write` here and, through the verb it names, to `session`.
    fn write(&mut self, session: &mut Session, (kind, picks): &Write) {
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
                session.import_typed("Texts", self.texts()).unwrap();
            }
        }
    }

    /// What the reference derives from these inputs with `program`.
    fn reference(&self, program: &str) -> support::Model {
        let int = |n: u8| Value::Int(i64::from(n));
        let edges = self.edges.iter().map(|&(a, b)| vec![int(a), int(b)]);
        let texts = (self.texts().into_iter()).map(|(d, t)| vec![Value::str(d), Value::str(t)]);
        let inputs = [("Edge", edges.collect()), ("Texts", texts.collect())];
        support::evaluate(program, &inputs, &Default::default()).unwrap()
    }
}

/// A session configuration: parallelism and trace level.
type Config = (usize, TraceLevel);

fn config_strategy() -> impl Strategy<Value = Config> {
    let levels = [TraceLevel::Off, TraceLevel::Summary];
    (0usize..3, 0usize..2).prop_map(move |(p, l)| (2 * p, levels[l]))
}

/// The rows of `name` in the session, in the reference's form.
fn engine_rows(session: &mut Session, name: &str) -> BTreeSet<Vec<String>> {
    // A derived relation that got no row does not exist.
    let Ok(rel) = session.relation(name) else {
        return BTreeSet::new();
    };
    support::canonical(rel.iter(), session.docs())
}

/// Holds every relation of `reference` to the session's, spans compared
/// by their text; `context` says where in a test the check fails.
fn check_against(
    session: &mut Session,
    reference: &support::Model,
    context: &dyn std::fmt::Display,
) {
    for name in reference.relations.keys() {
        prop_assert_eq!(
            engine_rows(session, name),
            reference.canonical(name),
            "relation {} {}",
            name,
            context
        );
    }
}

/// Evaluates `program` over `edges` and holds it to the reference.
fn graph_matches_reference(edges: &[(u8, u8)], program: &str) {
    let mut session = Session::new();
    load_graph(&mut session, edges);
    session.run(program).unwrap();
    let inputs = Inputs {
        edges: edges.iter().copied().collect(),
        texts: Vec::new(),
        skip: 0,
    };
    check_against(
        &mut session,
        &inputs.reference(program),
        &format!("program:\n{program}"),
    )
}

/// `Texts` with one row per document `d{i}`.
fn one_text_per_doc(texts: &[Vec<u8>]) -> Inputs {
    let texts = texts
        .iter()
        .enumerate()
        .map(|(i, t)| (format!("d{i}"), render_text(t)));
    Inputs {
        edges: BTreeSet::new(),
        texts: texts.collect(),
        skip: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 64 } else { 512 }))]

    /// The model-based test. A session, configured at random, evaluates
    /// a random layered program over `Edge` joined with one of the
    /// programs over `Texts` or `Edge` above, then takes a random
    /// sequence of inserts, replacements and deletions — through
    /// `add_fact`, `import_relation` and `import_typed`. After every
    /// write it holds, relation for relation, what the reference
    /// derives from the inputs as they stand then, spans compared by
    /// their text. `Texts` rows are cut to shard badly: several per
    /// document, a text under more than one document. A write that
    /// moves an input is maintained, not evaluated again in full.
    #[test]
    fn maintained_sessions_match_a_fresh_reference(
        heads in layered_program_strategy(),
        edges in edges_strategy(),
        texts in texts_strategy(),
        rows in prop::collection::vec((0u8..3, 0usize..6), 1..14),
        pick in 0..PROGRAMS,
        config in config_strategy(),
        writes in writes_strategy(),
    ) {
        let (parallelism, level) = config;
        let program = format!("{}{}", layered_program(&heads), program_at(pick));
        let texts = rows.iter().map(|&(d, i)| (format!("d{d}"), render_text(&texts[i % texts.len()])));
        let mut inputs = Inputs { edges: edges.iter().copied().collect(), texts: texts.collect(), skip: 0 };
        let mut session = Session::builder().parallelism(parallelism).tracing(level).build();
        load_graph(&mut session, &edges);
        session.import_typed("Texts", inputs.texts()).unwrap();
        session.run(&program).unwrap();
        for step in 0..=writes.len() {
            if let Some(write) = step.checked_sub(1).map(|w| &writes[w]) {
                inputs.write(&mut session, write);
            }
            let seq = session.eval_seq();
            let context = format!("after {step} of {writes:?}, at {inputs:?}\nprogram:\n{program}");
            check_against(&mut session, &inputs.reference(&program), &context);
            let mode = session.stats().mode;
            if step > 0 && session.eval_seq() > seq {
                prop_assert!(matches!(mode, EvalMode::Maintained { .. }), "{:?}", mode);
            }
        }
    }

    /// Transitive closure: the engine's semi-naive delta rounds derive
    /// what the reference's naive loop derives, on random graphs.
    #[test]
    fn strategies_agree_on_transitive_closure(edges in edges_strategy()) {
        graph_matches_reference(&edges, "
            Path(x, y) <- Edge(x, y)
            Path(x, z) <- Path(x, y), Edge(y, z)
        ");
    }

    /// Same-generation: recursion through a three-way join.
    #[test]
    fn strategies_agree_on_same_generation(edges in edges_strategy()) {
        graph_matches_reference(&edges, "
            Sg(x, x) <- Edge(x, _)
            Sg(x, x) <- Edge(_, x)
            Sg(x, y) <- Edge(px, x), Sg(px, py), Edge(py, y)
        ");
    }

    /// Mutual recursion: two predicates in one component, each fed only
    /// by the other's delta.
    #[test]
    fn strategies_agree_on_mutual_recursion(edges in edges_strategy()) {
        graph_matches_reference(&edges, "
            Even(0) <- Edge(0, _)
            Odd(y) <- Even(x), Edge(x, y)
            Even(y) <- Odd(x), Edge(x, y)
        ");
    }

    /// Stratified negation over a recursive relation.
    #[test]
    fn strategies_agree_with_negation(edges in edges_strategy()) {
        graph_matches_reference(&edges, "
            Reach(y) <- Edge(0, y)
            Reach(z) <- Reach(y), Edge(y, z)
            Node(x) <- Edge(x, _)
            Node(y) <- Edge(_, y)
            Dead(x) <- Node(x), not Reach(x)
        ");
    }

    /// Random layered programs — multi-rule heads, negation chains,
    /// recursive and non-recursive components side by side: the
    /// fire-once shortcut and the delta loop derive what the reference
    /// derives, relation for relation.
    #[test]
    fn strategies_agree_on_random_layered_programs(
        edges in edges_strategy(),
        heads in layered_program_strategy(),
    ) {
        graph_matches_reference(&edges, &layered_program(&heads));
    }

    /// Recursion, a self-join and negation of a recursive relation in
    /// one program: cost-ordered steps and scan indexes reused across
    /// rounds derive what the reference's nested loops derive.
    #[test]
    fn production_agrees_with_reference_on_graphs(edges in edges_strategy()) {
        graph_matches_reference(&edges, "
            Path(x, y) <- Edge(x, y)
            Path(x, z) <- Path(x, y), Edge(y, z)
            Node(x) <- Edge(x, _)
            Node(y) <- Edge(_, y)
            Dead(x) <- Node(x), not Path(x, x)
        ");
    }

    /// IE-heavy programs: reordering around IE calls and negation,
    /// grouped and memoised calls, and sharding by document derive what
    /// the reference derives calling each function once per row.
    #[test]
    fn production_agrees_with_reference_on_ie_programs(
        texts in texts_strategy(),
        prog in 0..IE_PROGRAMS.len(),
    ) {
        let program = IE_PROGRAMS[prog];
        let inputs = one_text_per_doc(&texts);
        let mut session = Session::new();
        session.import_typed("Texts", inputs.texts()).unwrap();
        session.run(program).unwrap();
        check_against(&mut session, &inputs.reference(program), &format!("program:\n{program}"));
    }

    /// Parallel evaluation is semantically invisible: at several worker
    /// counts (some above the row count) a session holds the reference
    /// on the IE programs and on those recursive through IE calls.
    /// Shards are ranges of the scanned rows, so the rows are made to
    /// cut badly: several per document, a text under more than one
    /// document, and counts that are no multiple of a range.
    #[test]
    fn parallelism_is_semantically_invisible(
        texts in texts_strategy(),
        rows in prop::collection::vec((0u8..3, 0usize..6), 1..14),
        prog in 0..IE_PROGRAMS.len() + RECURSIVE_IE_PROGRAMS.len(),
    ) {
        let program = program_at(prog);
        let texts = rows.iter().map(|&(d, i)| (format!("d{d}"), render_text(&texts[i % texts.len()])));
        let inputs = Inputs { edges: BTreeSet::new(), texts: texts.collect(), skip: 0 };
        let reference = inputs.reference(program);
        for workers in [0usize, 2, 4, 7] {
            let mut session = Session::builder().parallelism(workers).build();
            session.import_typed("Texts", inputs.texts()).unwrap();
            session.run(program).unwrap();
            let context = format!("at parallelism({workers})\nprogram:\n{program}");
            check_against(&mut session, &reference, &context);
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
