//! Registering IE functions over the wire.
//!
//! A remote client cannot ship a host closure (pillar 3 of the paper is
//! an *embedding* API), so `/register` accepts the next best thing: a
//! named extractor from a catalog of declaratively-specifiable IE
//! function shapes. Today that catalog is regular spanners — a
//! precompiled pattern applied to one text argument, emitting spans or
//! strings — which covers the paper's `rgx` family with the pattern
//! baked in at registration time (so requests pay no per-call compile
//! and no argument row carries the pattern).

use crate::error::ApiError;
use spannerlib_regex::Regex;
use spannerlog_engine::builtins::fixed_rgx;
use spannerlog_engine::Session;

/// Declarative description of a catalog IE function, as carried by a
/// `/register` body of the form
/// `{"ie": {"name": …, "pattern": …, "output": "spans"|"strings"}}`.
#[derive(Debug, Clone)]
pub struct IeSpec {
    /// Name the function is registered (and called in rules) under.
    pub name: String,
    /// The regular expression, compiled once at registration.
    pub pattern: String,
    /// `false`: rows of spans (positioned in the argument's document);
    /// `true`: rows of matched strings.
    pub strings: bool,
}

/// Compiles `spec` and registers it on `session` as the engine's `rgx`
/// (`rgx_string` for strings) with the pattern fixed: one input
/// argument (str or span); one output column per explicit capture
/// group, or the whole match when the pattern has none; a match that
/// leaves a group undefined yields no row.
pub fn register_ie(session: &mut Session, spec: &IeSpec) -> Result<(), ApiError> {
    let regex = Regex::new(&spec.pattern)
        .map_err(|e| ApiError::bad_request(format!("bad pattern {:?}: {e}", spec.pattern)))?;
    session.register_ie(&spec.name, fixed_rgx(regex, spec.strings));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registered_spanner_extracts_spans_and_strings() {
        let mut session = Session::new();
        register_ie(
            &mut session,
            &IeSpec {
                name: "word".into(),
                pattern: "[a-z]+".into(),
                strings: false,
            },
        )
        .unwrap();
        register_ie(
            &mut session,
            &IeSpec {
                name: "pair".into(),
                pattern: "([a-z]+)=([0-9]+)".into(),
                strings: true,
            },
        )
        .unwrap();
        session
            .run(
                "new Doc(str)\nDoc(\"ab cd\") Doc(\"k=12\")\n\
                 W(s) <- Doc(d), word(d) -> (s)\n\
                 P(k, v) <- Doc(d), pair(d) -> (k, v)",
            )
            .unwrap();
        let w = session.export("?W(s)").unwrap();
        assert_eq!(w.num_rows(), 3, "ab, cd, and the k of k=12");
        let p: Vec<(String, String)> = session.export_typed("?P(k, v)").unwrap();
        assert_eq!(p, vec![("k".to_string(), "12".to_string())]);
    }

    #[test]
    fn bad_patterns_are_rejected_at_registration() {
        let err = register_ie(
            &mut Session::new(),
            &IeSpec {
                name: "broken".into(),
                pattern: "(unclosed".into(),
                strings: false,
            },
        )
        .unwrap_err();
        assert_eq!(err.status, 400);
    }
}
