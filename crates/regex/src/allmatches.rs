//! All-matches enumeration: the formal document-spanner semantics.
//!
//! For a regex formula γ and document d, the spanner ⟦γ⟧(d) of the theory
//! (Fagin et al. 2015) contains one row per *accepting run*: every span
//! ⟨i, j⟩ such that γ matches `d[i..j]` exactly, with every distinct
//! capture-variable assignment witnessing it. [`all_matches`] enumerates
//! that set — unlike the Pike VM, which keeps only the single
//! highest-priority match per scan position.
//!
//! The simulation keeps, per input position, the set of distinct
//! configurations `(state, slots)`. This can grow combinatorially for
//! adversarial patterns (the spanner can genuinely have exponentially many
//! rows, e.g. `x{a*}y{a*}` over `aⁿ` has Θ(n²) rows), so callers can bound
//! the output with [`all_matches_bounded`], and its time with the stop
//! check it asks every few thousand configurations.

use crate::nfa::{assertion_holds, Inst, Program, StateId};
use rustc_hash::FxHashSet;

/// One row of the spanner result.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AllMatch {
    /// Byte offset where the matched substring starts.
    pub start: usize,
    /// Byte offset one past the matched substring's end.
    pub end: usize,
    /// Byte ranges of the explicit capture groups (index 0 = group 1).
    pub groups: Vec<Option<(usize, usize)>>,
}

/// Enumerates every match of `program` over `text` under spanner
/// semantics, sorted by `(start, end, groups)`.
pub fn all_matches(program: &Program, text: &str) -> Vec<AllMatch> {
    all_matches_bounded(program, text, usize::MAX, &|| false).expect("nothing stops it")
}

/// Configurations the simulation steps between two stop checks.
const STOP_STRIDE: usize = 4096;

/// Like [`all_matches`] but stops once `limit` distinct rows have been
/// collected, never holding more (the rows collected so far are
/// returned, sorted). Every 4 096 configurations it steps it asks
/// `stop`, and gives up with `None` once that answers `true`.
pub fn all_matches_bounded(
    program: &Program,
    text: &str,
    limit: usize,
    stop: &dyn Fn() -> bool,
) -> Option<Vec<AllMatch>> {
    let mut out: FxHashSet<AllMatch> = FxHashSet::default();
    let mut stepped = 0usize;
    let mut stopped = || {
        stepped += 1;
        stepped.is_multiple_of(STOP_STRIDE) && stop()
    };
    let boundaries = text.char_indices().map(|(i, _)| i);
    for start in boundaries.chain(std::iter::once(text.len())) {
        if out.len() >= limit {
            break;
        }
        matches_from(program, text, start, limit, &mut out, &mut stopped)?;
    }
    let mut rows: Vec<AllMatch> = out.into_iter().collect();
    rows.sort();
    Some(rows)
}

/// Configuration of the all-runs simulation.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Config {
    pc: StateId,
    slots: Vec<Option<u32>>,
}

/// Adds to `out` every accepting run that starts at byte `start`, until
/// `out` holds `limit` rows. `None` when `stopped`, asked once per
/// configuration stepped, says to stop.
fn matches_from(
    program: &Program,
    text: &str,
    start: usize,
    limit: usize,
    out: &mut FxHashSet<AllMatch>,
    stopped: &mut dyn FnMut() -> bool,
) -> Option<()> {
    let len = text.len();
    let mut prev_char = if start == 0 {
        None
    } else {
        text[..start].chars().next_back()
    };
    let mut iter = text[start..].char_indices();
    let mut at = start;
    let mut cur_char = iter.next().map(|(_, c)| c);

    let mut configs: Vec<Config> = Vec::new();
    let mut seen: FxHashSet<Config> = FxHashSet::default();
    let init = Config {
        pc: program.start,
        slots: vec![None; program.slot_count],
    };
    close(
        program,
        init,
        at,
        len,
        prev_char,
        cur_char,
        &mut configs,
        &mut seen,
    );

    loop {
        // Record accepting configurations at this position.
        for c in &configs {
            if matches!(program.inst(c.pc), Inst::Match) {
                out.insert(config_to_match(program, c, start, at));
                if out.len() >= limit {
                    return Some(());
                }
            }
        }
        let Some(ch) = cur_char else { break };
        let next_at = at + ch.len_utf8();
        let next_char = iter.next().map(|(_, c)| c);

        let mut next_configs: Vec<Config> = Vec::new();
        let mut next_seen: FxHashSet<Config> = FxHashSet::default();
        for c in configs.drain(..) {
            if stopped() {
                return None;
            }
            let advance = match program.inst(c.pc) {
                Inst::Char { c: want, next } => (ch == *want).then_some(*next),
                Inst::Class { set, next } => set.contains(ch).then_some(*next),
                Inst::Any { next } => (ch != '\n').then_some(*next),
                _ => None,
            };
            if let Some(next_pc) = advance {
                let cfg = Config {
                    pc: next_pc,
                    slots: c.slots,
                };
                close(
                    program,
                    cfg,
                    next_at,
                    len,
                    cur_char,
                    next_char,
                    &mut next_configs,
                    &mut next_seen,
                );
            }
        }
        configs = next_configs;
        if configs.is_empty() {
            break;
        }
        prev_char = cur_char;
        let _ = prev_char; // tracked for symmetry; closure takes explicit args
        cur_char = next_char;
        at = next_at;
    }
    Some(())
}

/// Epsilon closure that keeps *all* distinct `(state, slots)`
/// configurations rather than just the highest-priority one per state.
#[allow(clippy::too_many_arguments)]
fn close(
    program: &Program,
    config: Config,
    at: usize,
    len: usize,
    prev: Option<char>,
    next: Option<char>,
    out: &mut Vec<Config>,
    seen: &mut FxHashSet<Config>,
) {
    if !seen.insert(config.clone()) {
        return;
    }
    match program.inst(config.pc) {
        Inst::Split { primary, secondary } => {
            close(
                program,
                Config {
                    pc: *primary,
                    slots: config.slots.clone(),
                },
                at,
                len,
                prev,
                next,
                out,
                seen,
            );
            close(
                program,
                Config {
                    pc: *secondary,
                    slots: config.slots,
                },
                at,
                len,
                prev,
                next,
                out,
                seen,
            );
        }
        Inst::Save { slot, next: n } => {
            let mut slots = config.slots;
            slots[*slot as usize] = Some(at as u32);
            close(
                program,
                Config { pc: *n, slots },
                at,
                len,
                prev,
                next,
                out,
                seen,
            );
        }
        Inst::Assert { kind, next: n } => {
            if assertion_holds(*kind, at, len, prev, next) {
                close(
                    program,
                    Config {
                        pc: *n,
                        slots: config.slots,
                    },
                    at,
                    len,
                    prev,
                    next,
                    out,
                    seen,
                );
            }
        }
        Inst::Char { .. } | Inst::Class { .. } | Inst::Any { .. } | Inst::Match => {
            out.push(config);
        }
    }
}

fn config_to_match(program: &Program, c: &Config, start: usize, end: usize) -> AllMatch {
    let groups = (1..=program.group_count())
        .map(|k| {
            let s = c.slots[2 * k]?;
            let e = c.slots[2 * k + 1]?;
            Some((s as usize, e as usize))
        })
        .collect();
    AllMatch { start, end, groups }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::parser::parse;

    fn all(pattern: &str, text: &str) -> Vec<AllMatch> {
        let program = compile(&parse(pattern).unwrap()).unwrap();
        all_matches(&program, text)
    }

    #[test]
    fn enumerates_every_span() {
        let ms = all("a+", "aaa");
        let spans: Vec<(usize, usize)> = ms.iter().map(|m| (m.start, m.end)).collect();
        assert_eq!(spans, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn paper_example_all_matches_superset() {
        // The findall semantics returns 2 matches (§2); the spanner
        // semantics additionally contains every other accepting run.
        let ms = all("x{a+}c+y{b+}", "acb aacccbbb");
        // The two findall rows must be present with the right captures.
        let has = |x: (usize, usize), y: (usize, usize)| {
            ms.iter()
                .any(|m| m.groups[0] == Some(x) && m.groups[1] == Some(y))
        };
        assert!(has((0, 1), (2, 3)));
        assert!(has((4, 6), (9, 12)));
        // An overlapping run the Pike VM never reports: x = second 'a'.
        assert!(has((5, 6), (9, 10)));
    }

    #[test]
    fn quadratically_many_rows() {
        // x{a*}y{a*} anchored to full document aⁿ: every split point.
        let ms = all("^x{a*}y{a*}$", "aaaa");
        assert_eq!(ms.len(), 5); // split at 0..=4
        for m in &ms {
            let (xs, xe) = m.groups[0].unwrap();
            let (ys, ye) = m.groups[1].unwrap();
            assert_eq!(xs, 0);
            assert_eq!(xe, ys);
            assert_eq!(ye, 4);
        }
    }

    #[test]
    fn empty_pattern_matches_everywhere() {
        let ms = all("", "ab");
        let spans: Vec<(usize, usize)> = ms.iter().map(|m| (m.start, m.end)).collect();
        assert_eq!(spans, vec![(0, 0), (1, 1), (2, 2)]);
    }

    #[test]
    fn bounded_enumeration_stops_early() {
        let program = compile(&parse("a*").unwrap()).unwrap();
        let ms = all_matches_bounded(&program, &"a".repeat(100), 10, &|| false).unwrap();
        assert_eq!(ms.len(), 10);
    }

    #[test]
    fn bounded_enumeration_returns_exactly_the_limit() {
        // 2 001 · 2 002 / 2 = 2 003 001 rows unbounded; the limit is
        // reached inside the first start position's runs.
        let program = compile(&parse("x{a*}").unwrap()).unwrap();
        let text = "a".repeat(2_000);
        for limit in [1, 7, 100, 2_001] {
            let ms = all_matches_bounded(&program, &text, limit, &|| false).unwrap();
            assert_eq!(ms.len(), limit);
            assert!(ms.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn alternation_yields_all_branch_runs() {
        // (a|ab) over "ab" from position 0: both runs accept.
        let ms = all("v{a|ab}", "ab");
        let vs: Vec<(usize, usize)> = ms.iter().map(|m| m.groups[0].unwrap()).collect();
        assert!(vs.contains(&(0, 1)));
        assert!(vs.contains(&(0, 2)));
    }

    #[test]
    fn anchored_pattern_restricts_starts() {
        let ms = all("^a", "aaa");
        assert_eq!(ms.len(), 1);
        assert_eq!((ms[0].start, ms[0].end), (0, 1));
    }

    #[test]
    fn rows_are_sorted_and_distinct() {
        let ms = all("a|a", "aa");
        // Duplicate runs collapse (set semantics).
        assert_eq!(ms.len(), 2);
        assert!(ms.windows(2).all(|w| w[0] < w[1]));
    }
}
