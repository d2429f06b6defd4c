//! Clinical note section detection.
//!
//! Notes are organized into titled sections ("Past Medical History:",
//! "Assessment/Plan:" …) and the case-study pipeline treats concept
//! mentions differently per section — e.g. a COVID mention under *family
//! history* does not make the patient positive. A section starts at a
//! recognized header and runs until the next header or end of note.
//!
//! A header table is compiled before use: lowercased header →
//! category, plus the most words a header has. [`detect_sections`]
//! compiles the default table once per process; [`detect_sections_with`]
//! compiles the table it is given on each call.

use crate::tokenizer::lowercase;
use rustc_hash::FxHashMap;
use std::sync::OnceLock;

/// A detected section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Normalized section category (e.g. `"past_medical_history"`).
    pub category: String,
    /// Byte offset of the header start.
    pub header_start: usize,
    /// Byte offset one past the header (including the colon).
    pub header_end: usize,
    /// Byte offset one past the section body (start of next header or
    /// end of text).
    pub body_end: usize,
}

impl Section {
    /// The body text (after the header).
    pub fn body<'t>(&self, source: &'t str) -> &'t str {
        &source[self.header_end..self.body_end]
    }
}

/// Default clinical header → category mapping, after the medSpaCy
/// sectionizer's common set.
pub fn default_headers() -> Vec<(&'static str, &'static str)> {
    vec![
        ("chief complaint", "chief_complaint"),
        ("history of present illness", "history_of_present_illness"),
        ("hpi", "history_of_present_illness"),
        ("past medical history", "past_medical_history"),
        ("pmh", "past_medical_history"),
        ("family history", "family_history"),
        ("fh", "family_history"),
        ("social history", "social_history"),
        ("medications", "medications"),
        ("allergies", "allergies"),
        ("review of systems", "review_of_systems"),
        ("ros", "review_of_systems"),
        ("physical exam", "physical_exam"),
        ("vital signs", "vital_signs"),
        ("labs", "labs"),
        ("laboratory data", "labs"),
        ("imaging", "imaging"),
        ("assessment", "assessment_plan"),
        ("assessment and plan", "assessment_plan"),
        ("assessment/plan", "assessment_plan"),
        ("plan", "assessment_plan"),
        ("impression", "assessment_plan"),
        ("diagnosis", "diagnosis"),
        ("discharge instructions", "discharge_instructions"),
        ("follow up", "follow_up"),
        ("followup", "follow_up"),
    ]
}

/// Detects sections using the default header table, compiled on the
/// first call and kept for the life of the process.
pub fn detect_sections(text: &str) -> Vec<Section> {
    static DEFAULT: OnceLock<Headers> = OnceLock::new();
    DEFAULT
        .get_or_init(|| Headers::new(&default_headers()))
        .detect(text)
}

/// Detects sections with a custom header table. Headers match at line
/// starts, case-insensitively, and must be followed by `:`.
pub fn detect_sections_with(text: &str, headers: &[(&str, &str)]) -> Vec<Section> {
    Headers::new(headers).detect(text)
}

/// A header table compiled for lookup.
struct Headers {
    /// Lowercased header → category.
    by_lower: FxHashMap<String, String>,
    /// The most words any header has.
    max_words: usize,
}

impl Headers {
    fn new(headers: &[(&str, &str)]) -> Headers {
        Headers {
            by_lower: headers
                .iter()
                .map(|(h, c)| (h.to_lowercase(), c.to_string()))
                .collect(),
            max_words: headers
                .iter()
                .map(|(h, _)| h.split_whitespace().count())
                .max()
                .unwrap_or(1),
        }
    }

    fn detect(&self, text: &str) -> Vec<Section> {
        let mut sections: Vec<Section> = Vec::new();
        let mut buf = String::new();
        let mut line_start = 0usize;
        for line in text.split_inclusive('\n') {
            let trimmed = line.trim_start();
            let start = line_start + (line.len() - trimmed.len());
            line_start += line.len();
            let Some(colon) = trimmed.find(':') else {
                continue;
            };
            let candidate = &trimmed[..colon];
            if candidate.split_whitespace().count() > self.max_words {
                continue;
            }
            let Some(category) = self.by_lower.get(lowercase(candidate.trim(), &mut buf)) else {
                continue;
            };
            // A section's body runs to the next header.
            if let Some(previous) = sections.last_mut() {
                previous.body_end = start;
            }
            sections.push(Section {
                category: category.clone(),
                header_start: start,
                header_end: start + colon + 1,
                body_end: text.len(),
            });
        }
        sections
    }
}

/// The category of the section containing byte offset `pos`, if any.
pub fn section_at(sections: &[Section], pos: usize) -> Option<&Section> {
    sections
        .iter()
        .find(|s| s.header_start <= pos && pos < s.body_end)
}

#[cfg(test)]
mod tests {
    use super::*;

    const NOTE: &str = "Chief Complaint: cough and fever\n\
                        History of Present Illness: Patient reports cough.\n\
                        Family History: Mother had covid-19.\n\
                        Assessment/Plan: test for covid-19.\n";

    #[test]
    fn detects_headers_in_order() {
        let sections = detect_sections(NOTE);
        let cats: Vec<&str> = sections.iter().map(|s| s.category.as_str()).collect();
        assert_eq!(
            cats,
            vec![
                "chief_complaint",
                "history_of_present_illness",
                "family_history",
                "assessment_plan"
            ]
        );
    }

    #[test]
    fn bodies_span_to_next_header() {
        let sections = detect_sections(NOTE);
        assert!(sections[0].body(NOTE).contains("cough and fever"));
        assert!(!sections[0].body(NOTE).contains("History of Present"));
        assert!(sections[3].body(NOTE).contains("test for covid-19"));
    }

    #[test]
    fn case_insensitive_headers() {
        let text = "FAMILY HISTORY: none\n";
        let sections = detect_sections(text);
        assert_eq!(sections[0].category, "family_history");
    }

    #[test]
    fn section_lookup_by_position() {
        let sections = detect_sections(NOTE);
        let fam_pos = NOTE.find("Mother").unwrap();
        assert_eq!(
            section_at(&sections, fam_pos).unwrap().category,
            "family_history"
        );
        // Position before any header.
        assert_eq!(
            section_at(&sections, 0).unwrap().category,
            "chief_complaint"
        );
    }

    #[test]
    fn long_lines_with_colons_are_not_headers() {
        let text = "The ratio was 3:1 in this cohort of notes\n";
        assert!(detect_sections(text).is_empty());
    }

    #[test]
    fn abbreviated_headers() {
        let text = "PMH: diabetes\nROS: negative\n";
        let sections = detect_sections(text);
        assert_eq!(sections[0].category, "past_medical_history");
        assert_eq!(sections[1].category, "review_of_systems");
    }

    #[test]
    fn custom_header_table() {
        let text = "Findings: all clear\n";
        let sections = detect_sections_with(text, &[("findings", "findings")]);
        assert_eq!(sections[0].category, "findings");
    }
}
