//! # spannerlib-bench
//!
//! The paper is a demonstration with one quantitative artifact (Table 1,
//! regenerated by the `table1` binary) and explicitly defers performance
//! work (§6: "SpannerLib does not yet put an emphasis on processing
//! performance"). The `experiments` binary runs every reproduced
//! artifact plus two ablations (B and C) and prints paper-vs-measured
//! output.
//!
//! Everything the repository *measures* lives in `perfbench/`; this
//! library holds the workload generators its `tc_join` workload and
//! `experiments` share.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A document of `n` copies of character `c` (worst case for all-matches
/// enumeration of `a+`-style patterns).
pub fn uniform_document(c: char, n: usize) -> String {
    std::iter::repeat_n(c, n).collect()
}

/// Edge list of a chain graph `0 → 1 → … → n` (deep recursion).
pub fn chain_graph(n: usize) -> Vec<(i64, i64)> {
    (0..n as i64).map(|i| (i, i + 1)).collect()
}

/// Edge list of a random graph over `nodes` nodes with `edges` edges.
pub fn random_graph(nodes: usize, edges: usize, seed: u64) -> Vec<(i64, i64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..edges)
        .map(|_| {
            (
                rng.gen_range(0..nodes) as i64,
                rng.gen_range(0..nodes) as i64,
            )
        })
        .collect()
}

/// Loads a graph into a session as relation `Edge(int, int)`.
pub fn load_edges(session: &mut spannerlog_engine::Session, edges: &[(i64, i64)]) {
    session.run("new Edge(int, int)").unwrap();
    for &(a, b) in edges {
        session
            .add_fact(
                "Edge",
                [
                    spannerlib_core::Value::Int(a),
                    spannerlib_core::Value::Int(b),
                ],
            )
            .unwrap();
    }
}

/// The transitive-closure program (`perfbench`'s `tc_join` runs it).
pub const TC_PROGRAM: &str = "
    Path(x, y) <- Edge(x, y)
    Path(x, z) <- Path(x, y), Edge(y, z)
";

/// The join-ordering workload (`perfbench`'s `tc_join` runs it): textual
/// order joins the two big relations first
/// (quadratic intermediate, `rows²/50` bindings); cost order starts
/// from the 5-row `C`, keeping every intermediate at a few hundred
/// rows.
pub const JOIN_PROGRAM: &str = "Q(x, z) <- A(x, y), B(y, z), C(z)";

/// Loads the `A`/`B`/`C` relations of [`JOIN_PROGRAM`]: `A(x, x % 50)`
/// and `B(i % 50, i)` with `rows` tuples each, and `C = {0..5}`.
pub fn load_join_workload(session: &mut spannerlog_engine::Session, rows: usize) {
    use spannerlib_core::Value;
    session
        .run("new A(int, int) new B(int, int) new C(int)")
        .unwrap();
    for i in 0..rows as i64 {
        session
            .add_fact("A", [Value::Int(i), Value::Int(i % 50)])
            .unwrap();
        session
            .add_fact("B", [Value::Int(i % 50), Value::Int(i)])
            .unwrap();
    }
    for z in 0..5 {
        session.add_fact("C", [Value::Int(z)]).unwrap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spannerlog_engine::Session;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(chain_graph(3), vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(uniform_document('a', 4), "aaaa");
        assert_eq!(random_graph(5, 9, 3), random_graph(5, 9, 3));
    }

    /// `perfbench`'s `tc_join` oracle recomputes truth from whatever
    /// graph it is handed: a changed RNG stream or node range would keep
    /// it green while changing the work and breaking comparability with
    /// `perfbench/history.jsonl`.
    #[test]
    fn random_graph_output_is_pinned() {
        let graph = random_graph(600, 1200, 7);
        assert_eq!(graph.len(), 1200);
        assert_eq!(&graph[..3], &[(461, 116), (578, 156), (142, 465)]);
        let checksum = graph.iter().fold(0u64, |h, &(a, b)| {
            h.wrapping_mul(1_000_003)
                .wrapping_add(a as u64 * 600 + b as u64)
        });
        assert_eq!(checksum, 6_311_500_302_637_875_676);
    }

    #[test]
    fn tc_program_closes_a_chain() {
        let mut session = Session::new();
        load_edges(&mut session, &chain_graph(40));
        session.run(TC_PROGRAM).unwrap();
        // 41 nodes on a line: every ordered pair i < j is a path.
        assert_eq!(session.relation("Path").unwrap().len(), 820);
    }

    #[test]
    fn join_workload_matches_a_nested_loop() {
        let mut session = Session::new();
        load_join_workload(&mut session, 200);
        session.run(JOIN_PROGRAM).unwrap();
        let mut derived = session.export_typed::<(i64, i64)>("?Q(x, z)").unwrap();
        derived.sort_unstable();
        // Q(x, z) <- A(x, x % 50), B(z % 50, z), C(z) with C = {0..5}.
        let mut expected = Vec::new();
        for x in 0..200i64 {
            for z in 0..200i64 {
                if x % 50 == z % 50 && z < 5 {
                    expected.push((x, z));
                }
            }
        }
        assert_eq!(derived, expected);
        assert_eq!(derived.len(), 20);
    }
}
