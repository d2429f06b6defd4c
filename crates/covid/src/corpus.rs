//! Synthetic clinical-note corpus with gold labels.
//!
//! The VA notes behind the original pipeline are not public, so the
//! corpus is generated: seeded templates compose clinical-style notes
//! section by section, embedding COVID mentions of known *kinds*
//! (positively asserted, negated, hypothetical, historical, family,
//! uncertain, unmodified). Every template uses cue phrases from the
//! ConText rule set, so the intended assertion is recoverable by the
//! pipelines, and the gold label falls out of the same evidence-
//! combination procedure both pipelines implement — which is what makes
//! end-to-end accuracy measurable.

use crate::classify::{combine_evidence, CovidStatus, MentionEvidence};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The kind of COVID mention a template plants in a note.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MentionKind {
    /// "tested positive for covid-19" and friends.
    Positive,
    /// "denies covid-19", "covid-19 was ruled out".
    Negated,
    /// "return if covid-19 symptoms develop".
    Hypothetical,
    /// "history of covid-19 last year".
    Historical,
    /// "mother tested positive for covid-19".
    Family,
    /// "possible covid-19 infection".
    Uncertain,
    /// A bare mention with no modifier.
    Unmodified,
}

impl MentionKind {
    /// The evidence class this kind should produce in the pipelines.
    pub fn expected_evidence(&self) -> MentionEvidence {
        match self {
            MentionKind::Positive => MentionEvidence::Positive,
            MentionKind::Negated => MentionEvidence::Negated,
            MentionKind::Hypothetical | MentionKind::Historical | MentionKind::Family => {
                MentionEvidence::Ignored
            }
            MentionKind::Uncertain | MentionKind::Unmodified => MentionEvidence::Uncertain,
        }
    }

    fn templates(&self) -> &'static [&'static str] {
        match self {
            MentionKind::Positive => &[
                "Patient tested positive for covid-19 this morning.",
                "Covid-19 test came back positive.",
                "Confirmed covid-19 infection on admission.",
                "PCR was positive for sars-cov-2.",
            ],
            MentionKind::Negated => &[
                "Patient denies covid-19 exposure.",
                "Negative for covid-19 on repeat testing.",
                "Covid-19 was ruled out.",
                "No evidence of coronavirus infection.",
            ],
            MentionKind::Hypothetical => &[
                "Return if covid-19 symptoms develop.",
                "Monitor for covid-19 in the coming days.",
                "Will screen for coronavirus at next visit.",
            ],
            MentionKind::Historical => &[
                "History of covid-19 last year.",
                "Previous covid-19 infection in the spring.",
                "Hx of coronavirus illness noted.",
            ],
            MentionKind::Family => &[
                "Mother tested positive for covid-19.",
                "Family member diagnosed with covid-19.",
                "Spouse has confirmed coronavirus infection.",
            ],
            MentionKind::Uncertain => &[
                "Possible covid-19 infection.",
                "Suspected covid-19 given presentation.",
                "Cannot rule out coronavirus at this time.",
            ],
            MentionKind::Unmodified => &[
                "Counseling regarding covid-19 provided.",
                "Discussed covid-19 vaccination during the visit.",
                "Reviewed covid-19 isolation guidance.",
            ],
        }
    }
}

/// Mention kinds for the `screen for` template: note that the
/// hypothetical "Will screen for…" uses `screening for`'s sibling cue —
/// the templates above only use phrases present in the case study's
/// ConText table (`native::context_rules::MODIFIER_TABLE`).
const ALL_KINDS: &[MentionKind] = &[
    MentionKind::Positive,
    MentionKind::Negated,
    MentionKind::Hypothetical,
    MentionKind::Historical,
    MentionKind::Family,
    MentionKind::Uncertain,
    MentionKind::Unmodified,
];

const COMPLAINTS: &[&str] = &[
    "Cough and fever for three days.",
    "Shortness of breath since yesterday.",
    "Sore throat and fatigue.",
    "Routine follow up visit.",
];

const HPI_FILLERS: &[&str] = &[
    "Patient reports fever and cough.",
    "Symptoms began approximately four days ago.",
    "Appetite remains good.",
    "No recent travel reported.",
    "Patient works as a teacher.",
];

const PMH_FILLERS: &[&str] = &[
    "Hypertension, well controlled.",
    "Type 2 diabetes on metformin.",
    "Asthma since childhood.",
    "Unremarkable.",
];

const FAMILY_FILLERS: &[&str] = &[
    "Noncontributory.",
    "Father with hypertension.",
    "No hereditary illness reported.",
];

const ROS_FILLERS: &[&str] = &[
    "Denies chest pain.",
    "Denies nausea and vomiting.",
    "Reports mild headache.",
    "Otherwise negative.",
];

const PLAN_FILLERS: &[&str] = &[
    "Continue current medications.",
    "Rest and hydration advised.",
    "Follow up in two weeks.",
    "Labs ordered.",
];

/// One generated note.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusDoc {
    /// Document id (`note_0001` …).
    pub id: String,
    /// The note text.
    pub text: String,
    /// Mention kinds planted, in order of appearance.
    pub events: Vec<MentionKind>,
    /// Gold classification derived from the planted kinds.
    pub gold: CovidStatus,
}

/// Generates `n` notes with the given seed (fully deterministic).
pub fn generate_corpus(n: usize, seed: u64) -> Vec<CorpusDoc> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|i| generate_doc(i, &mut rng)).collect()
}

fn pick<'a>(rng: &mut StdRng, pool: &[&'a str]) -> &'a str {
    pool.choose(rng).expect("pools are non-empty")
}

fn generate_doc(index: usize, rng: &mut StdRng) -> CorpusDoc {
    // 0–3 covid events per note; ~15% of notes have none.
    let n_events = if rng.gen_bool(0.15) {
        0
    } else {
        rng.gen_range(1..=3)
    };
    let events: Vec<MentionKind> = (0..n_events)
        .map(|_| *ALL_KINDS.choose(rng).expect("non-empty"))
        .collect();

    // Family-kind events go to the family-history section; the rest are
    // distributed over HPI and Assessment/Plan.
    let mut family_lines: Vec<String> = Vec::new();
    let mut hpi_lines: Vec<String> = Vec::new();
    let mut plan_lines: Vec<String> = Vec::new();
    let mut ordered_events: Vec<MentionKind> = Vec::new();
    for (j, kind) in events.iter().enumerate() {
        let sentence = pick(rng, kind.templates()).to_string();
        match kind {
            MentionKind::Family => family_lines.push(sentence),
            _ if j % 2 == 0 => hpi_lines.push(sentence),
            _ => plan_lines.push(sentence),
        }
        ordered_events.push(*kind);
    }

    let mut text = String::new();
    text.push_str(&format!("Chief Complaint: {}\n", pick(rng, COMPLAINTS)));
    text.push_str("History of Present Illness: ");
    text.push_str(pick(rng, HPI_FILLERS));
    for line in &hpi_lines {
        text.push(' ');
        text.push_str(line);
    }
    text.push('\n');
    text.push_str(&format!(
        "Past Medical History: {}\n",
        pick(rng, PMH_FILLERS)
    ));
    text.push_str("Family History: ");
    if family_lines.is_empty() {
        text.push_str(pick(rng, FAMILY_FILLERS));
    } else {
        text.push_str(&family_lines.join(" "));
    }
    text.push('\n');
    text.push_str(&format!("Review of Systems: {}\n", pick(rng, ROS_FILLERS)));
    text.push_str("Assessment/Plan: ");
    for line in &plan_lines {
        text.push_str(line);
        text.push(' ');
    }
    text.push_str(pick(rng, PLAN_FILLERS));
    text.push('\n');

    let gold = combine_evidence(ordered_events.iter().map(|k| k.expected_evidence()));
    CorpusDoc {
        id: format!("note_{index:04}"),
        text,
        events: ordered_events,
        gold,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate_corpus(20, 7);
        let b = generate_corpus(20, 7);
        assert_eq!(a, b);
        let c = generate_corpus(20, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn corpus_covers_every_status() {
        let docs = generate_corpus(300, 42);
        for status in [
            CovidStatus::Positive,
            CovidStatus::Uncertain,
            CovidStatus::Negative,
            CovidStatus::Unknown,
        ] {
            assert!(
                docs.iter().any(|d| d.gold == status),
                "no doc with gold {status}"
            );
        }
    }

    #[test]
    fn corpus_covers_every_mention_kind() {
        let docs = generate_corpus(300, 42);
        for kind in ALL_KINDS {
            assert!(
                docs.iter().any(|d| d.events.contains(kind)),
                "no doc with kind {kind:?}"
            );
        }
    }

    #[test]
    fn notes_have_expected_structure() {
        for doc in generate_corpus(20, 1) {
            assert!(doc.text.contains("Chief Complaint:"));
            assert!(doc.text.contains("Assessment/Plan:"));
            assert!(doc.text.contains("Family History:"));
        }
    }

    #[test]
    fn gold_matches_manual_combination() {
        let docs = generate_corpus(100, 9);
        for doc in docs {
            let expected = combine_evidence(doc.events.iter().map(|k| k.expected_evidence()));
            assert_eq!(doc.gold, expected);
        }
    }

    #[test]
    fn no_mention_docs_are_unknown() {
        let docs = generate_corpus(300, 3);
        for doc in docs.iter().filter(|d| d.events.is_empty()) {
            assert_eq!(doc.gold, CovidStatus::Unknown);
            assert!(!doc.text.to_lowercase().contains("covid"));
        }
    }
}
