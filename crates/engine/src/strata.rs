//! Stratification of rule sets.
//!
//! Negation and aggregation must not feed back into themselves through
//! recursion. The finest stratification is computed here: one stratum
//! per strongly connected *component* of the predicate dependency graph,
//! in dependency order. A negated/aggregated dependency inside a
//! component is the unstratifiable case and rejects the program.
//!
//! Components are also what tells the evaluator where a fixpoint is
//! needed at all (Peterfreund et al., *Recursive Programs for Document
//! Spanners*): only a component that depends on itself iterates; every
//! other one is complete after its rules fire once.

use crate::error::{EngineError, Result};
use crate::plan::RulePlan;
use rustc_hash::FxHashMap;

/// The rules deriving one strongly connected component of the predicate
/// dependency graph — all rules of a head land in the same component.
#[derive(Debug, Clone)]
pub struct Component {
    /// The component's rules, in program order.
    pub rules: Vec<RulePlan>,
    /// Whether some rule reads a predicate of this same component, so
    /// evaluation must iterate to a fixpoint. Otherwise every body
    /// predicate is complete beforehand and one firing per rule is all.
    pub recursive: bool,
}

/// Groups rule plans into components, dependencies first: by the time a
/// component is evaluated, every predicate it reads from outside itself
/// — in particular every negated/aggregated one — has its final content.
pub fn stratify(plans: Vec<RulePlan>) -> Result<Vec<Component>> {
    // Nodes are predicates, numbered by first appearance so the output
    // order is a function of the program text alone.
    let mut node_of: FxHashMap<&str, usize> = FxHashMap::default();
    for p in &plans {
        for name in std::iter::once(&p.head_predicate).chain(p.dependencies.iter().map(|(d, _)| d))
        {
            let next = node_of.len();
            node_of.entry(name.as_str()).or_insert(next);
        }
    }
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); node_of.len()];
    for p in &plans {
        let head = node_of[p.head_predicate.as_str()];
        edges[head].extend(p.dependencies.iter().map(|(d, _)| node_of[d.as_str()]));
    }
    let component_of = tarjan(&edges);

    // Tarjan numbers components in completion order — a component closes
    // only after everything it reaches has — which is evaluation order.
    // Predicates without rules (extensional inputs) leave empty slots.
    let n_components = component_of.iter().map(|c| c + 1).max().unwrap_or(0);
    let mut slots: Vec<Component> = (0..n_components)
        .map(|_| Component {
            rules: Vec::new(),
            recursive: false,
        })
        .collect();
    let mut slot_of: Vec<usize> = Vec::with_capacity(plans.len());
    for p in &plans {
        let slot = component_of[node_of[p.head_predicate.as_str()]];
        for (dep, negative) in &p.dependencies {
            if component_of[node_of[dep.as_str()]] != slot {
                continue;
            }
            if *negative {
                return Err(EngineError::NotStratifiable(format!(
                    "predicate {:?} depends on itself through negation or aggregation",
                    p.head_predicate
                )));
            }
            slots[slot].recursive = true;
        }
        slot_of.push(slot);
    }
    for (p, slot) in plans.into_iter().zip(slot_of) {
        slots[slot].rules.push(p);
    }
    slots.retain(|c| !c.rules.is_empty());
    Ok(slots)
}

/// Tarjan's strongly-connected-components algorithm over adjacency
/// lists, returning each node's component number. Components are
/// numbered in completion order (a component's successors get lower
/// numbers). Iterative: rule chains come from user programs and may be
/// arbitrarily long.
fn tarjan(edges: &[Vec<usize>]) -> Vec<usize> {
    const UNVISITED: usize = usize::MAX;
    let n = edges.len();
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0usize; n];
    let mut component = vec![UNVISITED; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut next_component = 0usize;
    // (node, next outgoing edge to look at)
    let mut work: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        work.push((root, 0));
        while let Some(&mut (v, ref mut edge)) = work.last_mut() {
            if *edge == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
            }
            if let Some(&w) = edges[v].get(*edge) {
                *edge += 1;
                if index[w] == UNVISITED {
                    work.push((w, 0));
                } else if component[w] == UNVISITED {
                    // Visited but not yet closed: `w` is on the stack.
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            work.pop();
            if let Some(&(parent, _)) = work.last() {
                low[parent] = low[parent].min(low[v]);
            }
            if low[v] == index[v] {
                loop {
                    let w = stack.pop().expect("v is on the stack");
                    component[w] = next_component;
                    if w == v {
                        break;
                    }
                }
                next_component += 1;
            }
        }
    }
    component
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{HeadOut, RulePlan};

    fn plan(head: &str, deps: &[(&str, bool)]) -> RulePlan {
        RulePlan {
            head_predicate: head.to_string(),
            steps: Vec::new(),
            head: vec![HeadOut::Const(spannerlib_core::Value::Int(0))],
            var_names: Vec::new(),
            line: 1,
            source: format!("{head}() <- …."),
            dependencies: deps.iter().map(|(d, n)| (d.to_string(), *n)).collect(),
        }
    }

    /// `(heads of the component's rules, recursive)` per component.
    fn shape(components: &[Component]) -> Vec<(Vec<&str>, bool)> {
        components
            .iter()
            .map(|c| {
                let heads = c.rules.iter().map(|r| r.head_predicate.as_str()).collect();
                (heads, c.recursive)
            })
            .collect()
    }

    #[test]
    fn positive_recursion_in_one_stratum() {
        let components = stratify(vec![
            plan("Path", &[("Edge", false)]),
            plan("Path", &[("Path", false), ("Edge", false)]),
        ])
        .unwrap();
        assert_eq!(shape(&components), [(vec!["Path", "Path"], true)]);
    }

    #[test]
    fn negation_pushes_to_later_stratum() {
        // Listed consumer-first: order follows dependencies, not text.
        let components = stratify(vec![
            plan("Unreach", &[("Node", false), ("Reach", true)]),
            plan("Reach", &[("Edge", false)]),
        ])
        .unwrap();
        assert_eq!(
            shape(&components),
            [(vec!["Reach"], false), (vec!["Unreach"], false)]
        );
    }

    #[test]
    fn negative_self_loop_rejected() {
        let err = stratify(vec![plan("P", &[("P", true)])]).unwrap_err();
        assert!(matches!(err, EngineError::NotStratifiable(_)));
    }

    #[test]
    fn negative_cycle_through_two_predicates_rejected() {
        let err = stratify(vec![plan("A", &[("B", true)]), plan("B", &[("A", true)])]).unwrap_err();
        assert!(matches!(err, EngineError::NotStratifiable(_)));
    }

    #[test]
    fn negation_inside_a_positive_cycle_rejected() {
        // A → B → C → A positively, and C also negates A.
        let err = stratify(vec![
            plan("A", &[("B", false)]),
            plan("B", &[("C", false)]),
            plan("C", &[("A", false), ("E", false)]),
            plan("C", &[("E", false), ("A", true)]),
        ])
        .unwrap_err();
        assert_eq!(
            err.to_string(),
            EngineError::NotStratifiable(
                "predicate \"C\" depends on itself through negation or aggregation".into()
            )
            .to_string()
        );
    }

    #[test]
    fn aggregation_behaves_like_negation() {
        // Aggregation over a predicate is encoded as a negative
        // dependency by the safety pass: fine across components,
        // rejected inside one.
        let components = stratify(vec![
            plan("Base", &[("Edge", false)]),
            plan("Summary", &[("Base", true)]), // agg-marked dep
        ])
        .unwrap();
        assert_eq!(
            shape(&components),
            [(vec!["Base"], false), (vec!["Summary"], false)]
        );
        assert!(stratify(vec![
            plan("Base", &[("Edge", false), ("Summary", false)]),
            plan("Summary", &[("Base", true)]),
        ])
        .is_err());
    }

    #[test]
    fn chain_of_negations_builds_strata() {
        let components = stratify(vec![
            plan("C", &[("B", true)]),
            plan("A", &[("E", false)]),
            plan("B", &[("A", true)]),
        ])
        .unwrap();
        assert_eq!(
            shape(&components),
            [(vec!["A"], false), (vec!["B"], false), (vec!["C"], false)]
        );
    }

    #[test]
    fn covid_shaped_chain_is_one_non_recursive_component_per_head() {
        // Positive and negative edges alike only order the chain; the
        // same-head rules (`Ignored`, `Evidence`) stay together.
        let components = stratify(vec![
            plan("Sent", &[("Notes", false)]),
            plan("Mention", &[("Sent", false)]),
            plan("Ignored", &[("Mention", false), ("Section", false)]),
            plan("Ignored", &[("Mention", false), ("Policy", false)]),
            plan("Negated", &[("Mention", false), ("Ignored", true)]),
            plan("Evidence", &[("Negated", false)]),
            plan("Evidence", &[("Mention", false), ("Negated", true)]),
            plan("Count", &[("Evidence", true)]),
        ])
        .unwrap();
        assert_eq!(
            shape(&components),
            [
                (vec!["Sent"], false),
                (vec!["Mention"], false),
                (vec!["Ignored", "Ignored"], false),
                (vec!["Negated"], false),
                (vec!["Evidence", "Evidence"], false),
                (vec!["Count"], false),
            ]
        );
    }

    #[test]
    fn mutual_recursion_shares_a_component() {
        let components = stratify(vec![
            plan("Top", &[("Even", false)]),
            plan("Even", &[("Zero", false)]),
            plan("Even", &[("Odd", false), ("Succ", false)]),
            plan("Odd", &[("Even", false), ("Succ", false)]),
        ])
        .unwrap();
        assert_eq!(
            shape(&components),
            [(vec!["Even", "Even", "Odd"], true), (vec!["Top"], false)]
        );
    }

    #[test]
    fn long_rule_chains_do_not_recurse_on_the_call_stack() {
        let n = 20_000;
        let plans = (0..n)
            .map(|i| plan(&format!("P{}", i + 1), &[(&format!("P{i}"), false)]))
            .rev()
            .collect();
        let components = stratify(plans).unwrap();
        assert_eq!(components.len(), n);
        assert_eq!(components[0].rules[0].head_predicate, "P1");
        assert!(components.iter().all(|c| !c.recursive));
    }

    #[test]
    fn empty_program() {
        assert!(stratify(vec![]).unwrap().is_empty());
    }
}
