//! The ConText algorithm (Harkema et al., *J. Biomedical Informatics*
//! 2009) — assertion classification for clinical concepts.
//!
//! Given target concept spans inside a sentence, ConText decides whether
//! each is **negated** ("denies fever"), **hypothetical** ("if symptoms
//! develop"), **historical** ("history of pneumonia"), experienced by
//! someone else (**family** — "mother tested positive"), **uncertain**
//! ("possible covid"), or positively asserted ("confirmed covid-19").
//!
//! Mechanics: *modifier cues* are matched in the sentence; each cue
//! projects a **scope** forward and/or backward, truncated by
//! termination cues (`but`, `however`, …), a token window, and the
//! sentence boundary. Targets inside the scope acquire the cue's
//! category. This is the algorithm medSpaCy's `ConText` component
//! implements, reproduced here over byte-offset spans.
//!
//! The cue lexicon is one [`PhraseMatcher`] whose phrase *i* is rule
//! *i*, so a cue match names its rule and its token range directly
//! ([`crate::PhraseMatch::index`], [`crate::PhraseMatch::tokens`]).

use crate::matcher::PhraseMatcher;
use crate::tokenizer::{tokenize, Token};

/// Assertion categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ModifierCategory {
    /// Explicitly absent ("no", "denies", "ruled out").
    NegatedExistence,
    /// Explicitly present ("confirmed", "positive for").
    PositiveExistence,
    /// Conditional / future ("if", "should", "return if").
    Hypothetical,
    /// Past, not current ("history of", "in 2019").
    Historical,
    /// Someone other than the patient ("mother", "family member").
    FamilyExperiencer,
    /// Hedged ("possible", "cannot rule out").
    Uncertain,
}

impl ModifierCategory {
    /// Stable lowercase name (for relations and CSV files).
    pub fn name(&self) -> &'static str {
        match self {
            ModifierCategory::NegatedExistence => "negated",
            ModifierCategory::PositiveExistence => "positive",
            ModifierCategory::Hypothetical => "hypothetical",
            ModifierCategory::Historical => "historical",
            ModifierCategory::FamilyExperiencer => "family",
            ModifierCategory::Uncertain => "uncertain",
        }
    }

    /// Parses a stable name back into a category.
    pub fn from_name(name: &str) -> Option<ModifierCategory> {
        Some(match name {
            "negated" => ModifierCategory::NegatedExistence,
            "positive" => ModifierCategory::PositiveExistence,
            "hypothetical" => ModifierCategory::Hypothetical,
            "historical" => ModifierCategory::Historical,
            "family" => ModifierCategory::FamilyExperiencer,
            "uncertain" => ModifierCategory::Uncertain,
            _ => return None,
        })
    }
}

/// Scope direction of a modifier cue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModifierDirection {
    /// Modifies targets after the cue.
    Forward,
    /// Modifies targets before the cue.
    Backward,
    /// Both directions.
    Bidirectional,
    /// Not a modifier: terminates open scopes ("but", "however").
    Terminate,
    /// A *pseudo* cue (NegEx-style): matches so that it suppresses any
    /// shorter cue it contains ("history of present illness" blocks
    /// "history of"), but asserts nothing itself.
    Pseudo,
}

/// One cue phrase with its behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModifierRule {
    /// The cue phrase (matched case-insensitively, token-aligned).
    pub phrase: String,
    /// Category asserted on targets in scope.
    pub category: ModifierCategory,
    /// Scope direction.
    pub direction: ModifierDirection,
    /// Maximum scope length in *tokens* (`None` = to sentence edge).
    pub max_scope: Option<usize>,
}

impl ModifierRule {
    /// Convenience constructor.
    pub fn new(
        phrase: &str,
        category: ModifierCategory,
        direction: ModifierDirection,
        max_scope: Option<usize>,
    ) -> Self {
        ModifierRule {
            phrase: phrase.to_string(),
            category,
            direction,
            max_scope,
        }
    }
}

/// A cue occurrence with its resolved scope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContextModifier {
    /// Byte range of the cue phrase.
    pub cue: (usize, usize),
    /// Category asserted.
    pub category: ModifierCategory,
    /// Byte range the cue governs.
    pub scope: (usize, usize),
}

/// Assertion result for one target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetAssertion {
    /// Byte range of the target concept.
    pub target: (usize, usize),
    /// Categories asserted by in-scope cues (sorted, deduplicated).
    pub categories: Vec<ModifierCategory>,
}

impl TargetAssertion {
    /// Whether a category was asserted.
    pub fn has(&self, c: ModifierCategory) -> bool {
        self.categories.contains(&c)
    }
}

/// A compiled ConText engine.
#[derive(Debug, Clone)]
pub struct ContextEngine {
    rules: Vec<ModifierRule>,
    matcher: PhraseMatcher,
}

impl ContextEngine {
    /// Compiles a rule set.
    pub fn new(rules: Vec<ModifierRule>) -> Self {
        let mut matcher = PhraseMatcher::new();
        // Rule `i` is the matcher's phrase `i`: a match's index is its
        // rule.
        for rule in &rules {
            matcher.add(rule.category.name(), &rule.phrase);
        }
        ContextEngine { rules, matcher }
    }

    /// The rule set.
    pub fn rules(&self) -> &[ModifierRule] {
        &self.rules
    }

    /// Resolves modifier cues and scopes within one sentence
    /// (`sentence` is a byte range of `text`).
    pub fn modifiers_in_sentence(
        &self,
        text: &str,
        sentence: (usize, usize),
    ) -> Vec<ContextModifier> {
        let (s_start, s_end) = sentence;
        let sent_text = &text[s_start..s_end];
        let tokens: Vec<Token> = tokenize(sent_text);

        // Cue and termination occurrences, in token space.
        struct Cue<'r> {
            rule: &'r ModifierRule,
            start_tok: usize,
            end_tok: usize,
            start: usize,
            end: usize,
        }
        let mut cues: Vec<Cue> = Vec::new();
        let mut terminators: Vec<usize> = Vec::new(); // token indices
        let mut pseudo_ranges: Vec<(usize, usize)> = Vec::new();
        for m in self.matcher.find(&tokens, sent_text) {
            let rule = &self.rules[m.index];
            match rule.direction {
                ModifierDirection::Terminate => terminators.push(m.tokens.start),
                ModifierDirection::Pseudo => pseudo_ranges.push((m.start, m.end)),
                _ => cues.push(Cue {
                    rule,
                    start_tok: m.tokens.start,
                    end_tok: m.tokens.end - 1,
                    start: m.start,
                    end: m.end,
                }),
            }
        }

        // ConText precedence: a cue strictly contained in a longer cue —
        // or in a pseudo cue — is subsumed by it ("evidence of" inside
        // "no evidence of"; "history of" inside the pseudo
        // "history of present illness").
        let ranges: Vec<(usize, usize)> = cues
            .iter()
            .map(|c| (c.start, c.end))
            .chain(pseudo_ranges.iter().copied())
            .collect();
        cues.retain(|c| {
            !ranges
                .iter()
                .any(|&(s, e)| (s < c.start || e > c.end) && s <= c.start && c.end <= e)
        });

        let mut out = Vec::new();
        for cue in &cues {
            let rule = cue.rule;
            let window = rule.max_scope.unwrap_or(usize::MAX);

            let forward = |out: &mut Vec<ContextModifier>| {
                let mut end_tok = tokens.len().saturating_sub(1);
                // Truncate at the first terminator after the cue.
                if let Some(&t) = terminators.iter().filter(|&&t| t > cue.end_tok).min() {
                    end_tok = end_tok.min(t.saturating_sub(1));
                }
                // Truncate at the window.
                end_tok = end_tok.min(cue.end_tok.saturating_add(window));
                if end_tok <= cue.end_tok && cue.end_tok + 1 > tokens.len() - 1 {
                    // Cue at sentence end: empty forward scope.
                }
                if cue.end_tok < tokens.len() - 1 && end_tok > cue.end_tok {
                    out.push(ContextModifier {
                        cue: (s_start + cue.start, s_start + cue.end),
                        category: rule.category,
                        scope: (
                            s_start + tokens[cue.end_tok + 1].start,
                            s_start + tokens[end_tok].end,
                        ),
                    });
                }
            };
            let backward = |out: &mut Vec<ContextModifier>| {
                let mut start_tok = 0usize;
                if let Some(&t) = terminators.iter().filter(|&&t| t < cue.start_tok).max() {
                    start_tok = start_tok.max(t + 1);
                }
                start_tok = start_tok.max(cue.start_tok.saturating_sub(window));
                if cue.start_tok > 0 && start_tok < cue.start_tok {
                    out.push(ContextModifier {
                        cue: (s_start + cue.start, s_start + cue.end),
                        category: rule.category,
                        scope: (
                            s_start + tokens[start_tok].start,
                            s_start + tokens[cue.start_tok - 1].end,
                        ),
                    });
                }
            };

            match rule.direction {
                ModifierDirection::Forward => forward(&mut out),
                ModifierDirection::Backward => backward(&mut out),
                ModifierDirection::Bidirectional => {
                    forward(&mut out);
                    backward(&mut out);
                }
                ModifierDirection::Terminate | ModifierDirection::Pseudo => {
                    unreachable!("filtered above")
                }
            }
        }
        out
    }

    /// Asserts categories for each target span of one sentence.
    pub fn assert_targets(
        &self,
        text: &str,
        sentence: (usize, usize),
        targets: &[(usize, usize)],
    ) -> Vec<TargetAssertion> {
        let modifiers = self.modifiers_in_sentence(text, sentence);
        targets
            .iter()
            .map(|&(t_start, t_end)| {
                let mut categories: Vec<ModifierCategory> = modifiers
                    .iter()
                    .filter(|m| {
                        let (s, e) = m.scope;
                        // Target must overlap the scope and not be the cue
                        // itself.
                        t_start < e && s < t_end && !(t_start >= m.cue.0 && t_end <= m.cue.1)
                    })
                    .map(|m| m.category)
                    .collect();
                categories.sort();
                categories.dedup();
                TargetAssertion {
                    target: (t_start, t_end),
                    categories,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cues these tests read, each as a clinical lexicon writes it
    /// (the case study's is `spannerlib_covid`'s `MODIFIER_TABLE`).
    fn engine() -> ContextEngine {
        use ModifierCategory::*;
        use ModifierDirection::*;
        let rules = [
            ("denies", NegatedExistence, Forward, Some(10)),
            ("no", NegatedExistence, Forward, Some(10)),
            ("no evidence of", NegatedExistence, Forward, Some(10)),
            ("ruled out", NegatedExistence, Backward, Some(10)),
            ("was ruled out", NegatedExistence, Backward, Some(10)),
            ("confirmed", PositiveExistence, Forward, Some(10)),
            ("evidence of", PositiveExistence, Forward, Some(10)),
            ("tested positive for", PositiveExistence, Forward, Some(10)),
            ("if", Hypothetical, Forward, Some(12)),
            ("return if", Hypothetical, Forward, Some(12)),
            ("history of", Historical, Forward, Some(10)),
            ("mother", FamilyExperiencer, Forward, Some(12)),
            ("possible", Uncertain, Forward, Some(10)),
            ("history of present illness", Uncertain, Pseudo, None),
            ("but", Uncertain, Terminate, None),
        ];
        let rules = rules.map(|(phrase, category, direction, max_scope)| {
            ModifierRule::new(phrase, category, direction, max_scope)
        });
        ContextEngine::new(rules.to_vec())
    }

    /// Helper: assert categories for the given target substring within
    /// the (single-sentence) text.
    fn categories(text: &str, target: &str) -> Vec<ModifierCategory> {
        let start = text.find(target).expect("target present");
        let assertion =
            engine().assert_targets(text, (0, text.len()), &[(start, start + target.len())]);
        assertion[0].categories.clone()
    }

    #[test]
    fn forward_negation() {
        assert_eq!(
            categories("Patient denies fever", "fever"),
            vec![ModifierCategory::NegatedExistence]
        );
        assert_eq!(
            categories("no evidence of covid-19", "covid-19"),
            vec![ModifierCategory::NegatedExistence]
        );
    }

    #[test]
    fn backward_negation() {
        assert_eq!(
            categories("covid-19 was ruled out", "covid-19"),
            vec![ModifierCategory::NegatedExistence]
        );
    }

    #[test]
    fn termination_cuts_scope() {
        // "but" terminates the negation before "cough".
        assert_eq!(
            categories("denies fever but reports cough", "cough"),
            vec![]
        );
        assert_eq!(
            categories("denies fever but reports cough", "fever"),
            vec![ModifierCategory::NegatedExistence]
        );
    }

    #[test]
    fn hypothetical_and_family() {
        assert_eq!(
            categories("return if fever develops", "fever"),
            vec![ModifierCategory::Hypothetical]
        );
        assert_eq!(
            categories("mother tested positive for covid-19", "covid-19"),
            vec![
                ModifierCategory::PositiveExistence,
                ModifierCategory::FamilyExperiencer
            ]
        );
    }

    #[test]
    fn historical() {
        assert_eq!(
            categories("history of pneumonia noted", "pneumonia"),
            vec![ModifierCategory::Historical]
        );
    }

    #[test]
    fn uncertainty() {
        assert_eq!(
            categories("possible covid-19 infection", "covid-19"),
            vec![ModifierCategory::Uncertain]
        );
    }

    #[test]
    fn positive_existence() {
        assert_eq!(
            categories("confirmed covid-19 infection", "covid-19"),
            vec![ModifierCategory::PositiveExistence]
        );
    }

    #[test]
    fn unmodified_target_has_no_categories() {
        assert_eq!(categories("patient has covid-19", "covid-19"), vec![]);
    }

    #[test]
    fn cue_does_not_modify_itself() {
        // "positive" appears as both cue and (part of) target elsewhere;
        // ensure a target equal to the cue span is skipped.
        let text = "positive";
        let out = engine().assert_targets(text, (0, text.len()), &[(0, text.len())]);
        assert!(out[0].categories.is_empty());
    }

    #[test]
    fn scope_respects_sentence_bounds() {
        // Two sentences; negation in the first must not leak.
        let text = "Patient denies fever. Reports covid-19 today.";
        let second = text.find("Reports").unwrap();
        let target = text.find("covid-19").unwrap();
        let out = engine().assert_targets(
            text,
            (second, text.len()),
            &[(target, target + "covid-19".len())],
        );
        assert!(out[0].categories.is_empty());
    }

    #[test]
    fn window_limits_scope() {
        let rules = vec![ModifierRule::new(
            "no",
            ModifierCategory::NegatedExistence,
            ModifierDirection::Forward,
            Some(2),
        )];
        let eng = ContextEngine::new(rules);
        let text = "no cough wheeze or fever";
        let fever = text.find("fever").unwrap();
        let cough = text.find("cough").unwrap();
        let out = eng.assert_targets(
            text,
            (0, text.len()),
            &[(cough, cough + 5), (fever, fever + 5)],
        );
        assert_eq!(out[0].categories, vec![ModifierCategory::NegatedExistence]);
        assert!(out[1].categories.is_empty(), "beyond the 2-token window");
    }

    #[test]
    fn modifiers_report_cue_and_scope() {
        let text = "denies fever today";
        let mods = engine().modifiers_in_sentence(text, (0, text.len()));
        assert_eq!(mods.len(), 1);
        assert_eq!(&text[mods[0].cue.0..mods[0].cue.1], "denies");
        assert_eq!(&text[mods[0].scope.0..mods[0].scope.1], "fever today");
    }
}
