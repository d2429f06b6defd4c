//! Regex formulas as document spanners: a [`Spanner`] evaluates to a
//! [`SpanRelation`] of variable-to-span assignments under the formal
//! all-matches semantics of [`crate::allmatches`].
//!
//! Fagin et al. (2015) close regex formulas under union, projection,
//! natural join and string-equality selection. Of those, this module
//! keeps union at both levels — [`Spanner::union`] merges two formulas
//! into one automaton (renumbering capture variables so aligned
//! variables share slots), [`SpanRelation::union`] merges two results —
//! and the two agree. The Spannerlog engine joins, projects and selects
//! in its rule bodies instead.

use crate::allmatches::all_matches;
use crate::ast::Ast;
use crate::compile::compile;
use crate::error::RegexError;
use crate::nfa::Program;
use crate::parser::{parse, ParsedPattern};
use rustc_hash::FxHashSet;
use std::collections::BTreeSet;

/// A byte range; `None` means the variable did not participate in the run.
pub type VarSpan = Option<(usize, usize)>;

/// A composable document spanner.
#[derive(Debug, Clone)]
pub struct Spanner {
    ast: Ast,
    vars: Vec<String>,
    program: Program,
}

impl Spanner {
    /// Builds a spanner from a pattern. Unnamed capture groups are given
    /// synthetic variable names `g1`, `g2`, … by index.
    pub fn new(pattern: &str) -> Result<Spanner, RegexError> {
        let parsed = parse(pattern)?;
        let vars: Vec<String> = parsed
            .group_names
            .iter()
            .enumerate()
            .map(|(i, n)| n.clone().unwrap_or_else(|| format!("g{}", i + 1)))
            .collect();
        Spanner::from_parts(parsed.ast, vars)
    }

    fn from_parts(ast: Ast, vars: Vec<String>) -> Result<Spanner, RegexError> {
        let mut seen = FxHashSet::default();
        for v in &vars {
            if !seen.insert(v.clone()) {
                return Err(RegexError::DuplicateVariable(v.clone()));
            }
        }
        let parsed = ParsedPattern {
            ast: ast.clone(),
            group_names: vars.iter().cloned().map(Some).collect(),
        };
        let program = compile(&parsed)?;
        Ok(Spanner { ast, vars, program })
    }

    /// The spanner's variables, in column order.
    pub fn vars(&self) -> &[String] {
        &self.vars
    }

    /// Evaluates the spanner on `text` under the all-matches semantics,
    /// returning the relation of variable assignments (deduplicated).
    pub fn evaluate(&self, text: &str) -> SpanRelation {
        let rows: BTreeSet<Vec<VarSpan>> = all_matches(&self.program, text)
            .into_iter()
            .map(|m| m.groups)
            .collect();
        SpanRelation {
            vars: self.vars.clone(),
            rows: rows.into_iter().collect(),
        }
    }

    /// Spanner union: both operands must bind exactly the same variable
    /// set. Variables of `other` are re-aligned by name so that shared
    /// variables share capture slots in the merged automaton.
    pub fn union(&self, other: &Spanner) -> Result<Spanner, RegexError> {
        let lset: BTreeSet<&String> = self.vars.iter().collect();
        let rset: BTreeSet<&String> = other.vars.iter().collect();
        if lset != rset {
            return Err(RegexError::VariableMismatch {
                op: "union",
                left: self.vars.clone(),
                right: other.vars.clone(),
            });
        }
        // Remap other's group indices onto ours, by variable name.
        let remap: Vec<u32> = other
            .vars
            .iter()
            .map(|v| (self.vars.iter().position(|x| x == v).expect("same var set") + 1) as u32)
            .collect();
        let right_ast = remap_groups(&other.ast, &remap);
        let ast = Ast::alternation(vec![self.ast.clone(), right_ast]);
        Spanner::from_parts(ast, self.vars.clone())
    }
}

/// Rewrites every `Group { index }` to `remap[index - 1]`.
fn remap_groups(ast: &Ast, remap: &[u32]) -> Ast {
    match ast {
        Ast::Group { index, name, node } => Ast::Group {
            index: remap[(*index - 1) as usize],
            name: name.clone(),
            node: Box::new(remap_groups(node, remap)),
        },
        Ast::Concat(parts) => Ast::Concat(parts.iter().map(|p| remap_groups(p, remap)).collect()),
        Ast::Alternation(parts) => {
            Ast::Alternation(parts.iter().map(|p| remap_groups(p, remap)).collect())
        }
        Ast::Repeat {
            node,
            min,
            max,
            greedy,
        } => Ast::Repeat {
            node: Box::new(remap_groups(node, remap)),
            min: *min,
            max: *max,
            greedy: *greedy,
        },
        other => other.clone(),
    }
}

/// A materialized relation of variable-to-span assignments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRelation {
    vars: Vec<String>,
    rows: Vec<Vec<VarSpan>>,
}

impl SpanRelation {
    /// Builds a relation from explicit rows (deduplicated and sorted).
    pub fn from_rows(vars: Vec<String>, rows: impl IntoIterator<Item = Vec<VarSpan>>) -> Self {
        let set: BTreeSet<Vec<VarSpan>> = rows.into_iter().collect();
        SpanRelation {
            vars,
            rows: set.into_iter().collect(),
        }
    }

    /// Column names.
    pub fn vars(&self) -> &[String] {
        &self.vars
    }

    /// Rows, sorted lexicographically.
    pub fn rows(&self) -> &[Vec<VarSpan>] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Union with a relation over the same variables (aligned by name).
    pub fn union(&self, other: &SpanRelation) -> Result<SpanRelation, RegexError> {
        let lset: BTreeSet<&String> = self.vars.iter().collect();
        let rset: BTreeSet<&String> = other.vars.iter().collect();
        if lset != rset {
            return Err(RegexError::VariableMismatch {
                op: "relation union",
                left: self.vars.clone(),
                right: other.vars.clone(),
            });
        }
        let perm: Vec<usize> = self
            .vars
            .iter()
            .map(|v| other.vars.iter().position(|w| w == v).expect("same set"))
            .collect();
        let aligned = other
            .rows
            .iter()
            .map(|r| perm.iter().map(|&j| r[j]).collect());
        Ok(SpanRelation::from_rows(
            self.vars.clone(),
            self.rows.iter().cloned().chain(aligned),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spans(rel: &SpanRelation, var: &str) -> Vec<(usize, usize)> {
        let i = rel.vars().iter().position(|v| v == var).unwrap();
        let mut v: Vec<(usize, usize)> = rel.rows().iter().filter_map(|r| r[i]).collect();
        v.sort();
        v.dedup();
        v
    }

    #[test]
    fn evaluate_returns_variable_columns() {
        let sp = Spanner::new("x{ab}").unwrap();
        let rel = sp.evaluate("abab");
        assert_eq!(rel.vars(), &["x".to_string()]);
        assert_eq!(spans(&rel, "x"), vec![(0, 2), (2, 4)]);
    }

    #[test]
    fn union_requires_same_vars() {
        let a = Spanner::new("x{a}").unwrap();
        let b = Spanner::new("y{b}").unwrap();
        assert!(a.union(&b).is_err());
    }

    #[test]
    fn union_merges_results() {
        let a = Spanner::new("x{aa}").unwrap();
        let b = Spanner::new("x{bb}").unwrap();
        let u = a.union(&b).unwrap();
        let rel = u.evaluate("aabb");
        assert_eq!(spans(&rel, "x"), vec![(0, 2), (2, 4)]);
    }

    #[test]
    fn union_equals_relation_union() {
        let a = Spanner::new("x{a+}").unwrap();
        let b = Spanner::new("x{ab}").unwrap();
        let automaton = a.union(&b).unwrap().evaluate("aab");
        let relational = a.evaluate("aab").union(&b.evaluate("aab")).unwrap();
        assert_eq!(automaton, relational);
    }

    #[test]
    fn relation_union_aligns_by_name() {
        let a =
            SpanRelation::from_rows(vec!["x".into(), "y".into()], vec![vec![Some((0, 1)), None]]);
        let b =
            SpanRelation::from_rows(vec!["y".into(), "x".into()], vec![vec![None, Some((2, 3))]]);
        let u = a.union(&b).unwrap();
        assert_eq!(u.len(), 2);
        assert!(u.rows().contains(&vec![Some((2, 3)), None]));
    }
}
