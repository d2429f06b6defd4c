//! Abstract syntax of regex formulas.
//!
//! The AST distinguishes *capture groups* — which may carry a spanner
//! variable name, as in the paper's `x{a+}` notation — from grouping-only
//! parentheses, which the parser flattens away.

use crate::classes::ClassSet;
use std::fmt;

/// Zero-width assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnchorKind {
    /// `^` — start of the input.
    StartText,
    /// `$` — end of the input.
    EndText,
    /// `\b` — word boundary.
    WordBoundary,
    /// `\B` — not a word boundary.
    NotWordBoundary,
}

/// A node of the regex-formula AST.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Ast {
    /// Matches the empty string.
    Empty,
    /// A single literal character.
    Literal(char),
    /// A character class (`[...]`, `\d`, …).
    Class(ClassSet),
    /// `.` — any character except `\n` (Python `re` default).
    AnyChar,
    /// A zero-width assertion.
    Anchor(AnchorKind),
    /// Concatenation of sub-patterns, in order.
    Concat(Vec<Ast>),
    /// Ordered alternation (`a|b|c`); order encodes match priority.
    Alternation(Vec<Ast>),
    /// Repetition of a sub-pattern.
    Repeat {
        /// The repeated sub-pattern.
        node: Box<Ast>,
        /// Minimum number of repetitions.
        min: u32,
        /// Maximum number of repetitions; `None` means unbounded.
        max: Option<u32>,
        /// Greedy (`a*`) vs lazy (`a*?`) priority.
        greedy: bool,
    },
    /// A capture group. `index` is the 1-based group number (group 0 is the
    /// implicit whole match); `name` is the spanner variable, if any.
    Group {
        /// 1-based capture index.
        index: u32,
        /// Optional spanner-variable / group name.
        name: Option<String>,
        /// The captured sub-pattern.
        node: Box<Ast>,
    },
}

impl Ast {
    /// Concatenation that collapses the trivial cases.
    pub fn concat(mut parts: Vec<Ast>) -> Ast {
        match parts.len() {
            0 => Ast::Empty,
            1 => parts.pop().expect("len checked"),
            _ => Ast::Concat(parts),
        }
    }

    /// Alternation that collapses the single-branch case.
    pub fn alternation(mut branches: Vec<Ast>) -> Ast {
        match branches.len() {
            0 => Ast::Empty,
            1 => branches.pop().expect("len checked"),
            _ => Ast::Alternation(branches),
        }
    }

    /// Whether the pattern can match the empty string (conservative exact
    /// computation over the AST; anchors count as nullable).
    pub fn is_nullable(&self) -> bool {
        match self {
            Ast::Empty | Ast::Anchor(_) => true,
            Ast::Literal(_) | Ast::Class(_) | Ast::AnyChar => false,
            Ast::Concat(parts) => parts.iter().all(Ast::is_nullable),
            Ast::Alternation(branches) => branches.iter().any(Ast::is_nullable),
            Ast::Repeat { node, min, .. } => *min == 0 || node.is_nullable(),
            Ast::Group { node, .. } => node.is_nullable(),
        }
    }

    /// The length in bytes of every string the pattern matches, when
    /// they all have one (`None` may also mean "not known").
    pub(crate) fn width(&self) -> Option<usize> {
        match self {
            Ast::Empty | Ast::Anchor(_) => Some(0),
            Ast::Literal(c) => Some(c.len_utf8()),
            Ast::Class(set) => {
                let (first, last) = (set.ranges().first()?, set.ranges().last()?);
                let width = first.lo.len_utf8();
                (width == last.hi.len_utf8()).then_some(width)
            }
            // Conservative: branches of one width are not looked for.
            Ast::AnyChar | Ast::Alternation(_) => None,
            Ast::Concat(parts) => parts.iter().map(Ast::width).sum(),
            Ast::Repeat { node, min, max, .. } if *max == Some(*min) => {
                node.width()?.checked_mul(*min as usize)
            }
            Ast::Repeat { .. } => None,
            Ast::Group { node, .. } => node.width(),
        }
    }

    /// For each of the pattern's `groups`, the bytes from a match's start
    /// to the group's and from the group's end to the match's, when every
    /// match has the same: the group sits in no repetition or alternation,
    /// and what lies on either side has one width ([`Ast::width`]). A DFA
    /// window then places the groups alone. `None` when one is not fixed so.
    pub(crate) fn fixed_groups(&self, groups: usize) -> Option<Vec<(usize, usize)>> {
        type Out = [Option<(usize, usize)>];
        fn fix(ast: &Ast, before: Option<usize>, after: Option<usize>, out: &mut Out) {
            match ast {
                Ast::Group { index, node, .. } => {
                    out[*index as usize - 1] = before.zip(after);
                    fix(node, before, after, out);
                }
                Ast::Concat(parts) => {
                    let widths: Vec<_> = parts.iter().map(Ast::width).collect();
                    let plus =
                        |x: Option<_>, ws: &[_]| ws.iter().try_fold(x?, |x, w| Some(x + (*w)?));
                    for (i, part) in parts.iter().enumerate() {
                        let (b, a) = (plus(before, &widths[..i]), plus(after, &widths[i + 1..]));
                        fix(part, b, a, out);
                    }
                }
                // A group below may be entered twice, or not at all.
                _ => {}
            }
        }
        let mut out = vec![None; groups];
        fix(self, Some(0), Some(0), &mut out);
        out.into_iter().collect()
    }

    /// Collects `(index, name)` of every capture group, in index order.
    pub fn capture_groups(&self) -> Vec<(u32, Option<String>)> {
        fn walk(ast: &Ast, out: &mut Vec<(u32, Option<String>)>) {
            match ast {
                Ast::Group { index, name, node } => {
                    out.push((*index, name.clone()));
                    walk(node, out);
                }
                Ast::Concat(parts) | Ast::Alternation(parts) => {
                    for p in parts {
                        walk(p, out);
                    }
                }
                Ast::Repeat { node, .. } => walk(node, out),
                _ => {}
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out.sort_by_key(|(i, _)| *i);
        out
    }
}

impl fmt::Display for Ast {
    /// Renders a pattern string that re-parses to an equivalent AST (used
    /// by round-trip tests). Literals that collide with metacharacters are
    /// escaped.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ast::Empty => Ok(()),
            Ast::Literal(c) => {
                if "\\.+*?()|[]{}^$".contains(*c) {
                    write!(f, "\\{c}")
                } else {
                    write!(f, "{c}")
                }
            }
            Ast::Class(set) => {
                write!(f, "[")?;
                for r in set.ranges() {
                    if r.lo == r.hi {
                        write_class_char(f, r.lo)?;
                    } else {
                        write_class_char(f, r.lo)?;
                        write!(f, "-")?;
                        write_class_char(f, r.hi)?;
                    }
                }
                write!(f, "]")
            }
            Ast::AnyChar => write!(f, "."),
            Ast::Anchor(AnchorKind::StartText) => write!(f, "^"),
            Ast::Anchor(AnchorKind::EndText) => write!(f, "$"),
            Ast::Anchor(AnchorKind::WordBoundary) => write!(f, "\\b"),
            Ast::Anchor(AnchorKind::NotWordBoundary) => write!(f, "\\B"),
            Ast::Concat(parts) => {
                for p in parts {
                    if matches!(p, Ast::Alternation(_)) {
                        write!(f, "(?:{p})")?;
                    } else {
                        write!(f, "{p}")?;
                    }
                }
                Ok(())
            }
            Ast::Alternation(branches) => {
                for (i, b) in branches.iter().enumerate() {
                    if i > 0 {
                        write!(f, "|")?;
                    }
                    write!(f, "{b}")?;
                }
                Ok(())
            }
            Ast::Repeat {
                node,
                min,
                max,
                greedy,
            } => {
                let needs_group = !matches!(
                    node.as_ref(),
                    Ast::Literal(_) | Ast::Class(_) | Ast::AnyChar | Ast::Group { .. }
                );
                if needs_group {
                    write!(f, "(?:{node})")?;
                } else {
                    write!(f, "{node}")?;
                }
                match (min, max) {
                    (0, None) => write!(f, "*")?,
                    (1, None) => write!(f, "+")?,
                    (0, Some(1)) => write!(f, "?")?,
                    (m, None) => write!(f, "{{{m},}}")?,
                    (m, Some(n)) if m == n => write!(f, "{{{m}}}")?,
                    (m, Some(n)) => write!(f, "{{{m},{n}}}")?,
                }
                if !greedy {
                    write!(f, "?")?;
                }
                Ok(())
            }
            Ast::Group { name, node, .. } => match name {
                Some(n) => write!(f, "(?<{n}>{node})"),
                None => write!(f, "({node})"),
            },
        }
    }
}

fn write_class_char(f: &mut fmt::Formatter<'_>, c: char) -> fmt::Result {
    if "\\]^-[".contains(c) {
        write!(f, "\\{c}")
    } else {
        write!(f, "{c}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concat_collapses() {
        assert_eq!(Ast::concat(vec![]), Ast::Empty);
        assert_eq!(Ast::concat(vec![Ast::Literal('a')]), Ast::Literal('a'));
        assert!(matches!(
            Ast::concat(vec![Ast::Literal('a'), Ast::Literal('b')]),
            Ast::Concat(_)
        ));
    }

    #[test]
    fn nullability() {
        assert!(Ast::Empty.is_nullable());
        assert!(!Ast::Literal('a').is_nullable());
        let star = Ast::Repeat {
            node: Box::new(Ast::Literal('a')),
            min: 0,
            max: None,
            greedy: true,
        };
        assert!(star.is_nullable());
        let plus = Ast::Repeat {
            node: Box::new(Ast::Literal('a')),
            min: 1,
            max: None,
            greedy: true,
        };
        assert!(!plus.is_nullable());
        assert!(Ast::Anchor(AnchorKind::StartText).is_nullable());
    }

    #[test]
    fn capture_group_listing() {
        let ast = Ast::Concat(vec![
            Ast::Group {
                index: 2,
                name: Some("y".into()),
                node: Box::new(Ast::Literal('b')),
            },
            Ast::Group {
                index: 1,
                name: Some("x".into()),
                node: Box::new(Ast::Literal('a')),
            },
        ]);
        let groups = ast.capture_groups();
        assert_eq!(
            groups,
            vec![(1, Some("x".to_string())), (2, Some("y".to_string()))]
        );
    }

    #[test]
    fn groups_at_fixed_distances_from_the_window_ends() {
        let fixed = |pattern: &str| {
            let parsed = crate::parser::parse(pattern).unwrap();
            parsed.ast.fixed_groups(parsed.group_count())
        };
        assert_eq!(fixed("error: ([a-z]+)"), Some(vec![(7, 0)]));
        assert_eq!(fixed(r"due (\d{4}-\d{2}-\d{2})"), Some(vec![(4, 0)]));
        assert_eq!(fixed("a+"), Some(vec![]));
        // The group itself may vary; what lies around it may not.
        assert_eq!(fixed("é(.*)日[ab]"), Some(vec![(2, 4)]));
        assert_eq!(fixed("(a(b)c)(d)"), Some(vec![(0, 1), (1, 2), (3, 0)]));
        for varying in [
            r"(\w+)@(\w+)\.\w+", // a group before `@\w+`
            "x{a+}c+y{b+}",
            "(a)|(b)",    // an alternation
            "(a)(b)?",    // an optional group
            "(ab)+",      // a repetition
            "[aé](a)",    // a class of two widths
            "a{1,2}(a)",  // a counted range
            "((a)b(c*))", // group 2 before a repetition
        ] {
            assert_eq!(fixed(varying), None, "{varying}");
        }
    }

    #[test]
    fn display_escapes_metacharacters() {
        assert_eq!(Ast::Literal('+').to_string(), "\\+");
        assert_eq!(Ast::Literal('a').to_string(), "a");
    }
}
