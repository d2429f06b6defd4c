//! The structured profile must round-trip through a real JSON parser:
//! every line `EvalProfile::to_json_lines` emits is a standalone JSON
//! object carrying the schema version, and the serving attribution
//! fields (`eval_seq`, `request_ids`) survive the trip.

use spannerlib_core::Value;
use spannerlib_serve::Json;
use spannerlog_engine::{Session, TraceLevel};

#[test]
fn profile_json_lines_round_trip_through_the_json_parser() {
    let mut session = Session::builder().tracing(TraceLevel::Summary).build();
    session.run("new Doc(str)").unwrap();
    session
        .add_fact("Doc", [Value::str("Alice met Bob in Paris")])
        .unwrap();
    session
        .run(r#"Name(d, s) <- Doc(d), rgx("[A-Z][a-z]+", d) -> (s)"#)
        .unwrap();
    session.run("?Name(d, s)").unwrap();

    let profile = session.profile().expect("Summary tracing yields a profile");
    let rendered = profile.to_json_lines();
    let lines: Vec<&str> = rendered.lines().collect();
    assert!(!lines.is_empty());

    let mut parsed = Vec::new();
    for line in &lines {
        let json = Json::parse(line)
            .unwrap_or_else(|e| panic!("profile line is not valid JSON ({e}): {line}"));
        assert_eq!(
            json.get("schema").and_then(Json::as_i64),
            Some(3),
            "every record carries the schema version: {line}"
        );
        parsed.push(json);
    }

    // The head record is the profile itself, with serving attribution.
    let head = &parsed[0];
    assert_eq!(head.get("type").unwrap().as_str(), Some("profile"));
    assert_eq!(
        head.get("eval_seq").and_then(Json::as_i64),
        Some(profile.eval_seq as i64)
    );
    let ids = head.get("request_ids").unwrap().as_array().unwrap();
    assert_eq!(ids.len(), profile.request_ids.len());

    // Rule records follow and name the traced rule.
    let rule_heads: Vec<&str> = parsed[1..]
        .iter()
        .filter(|j| j.get("type").and_then(Json::as_str) == Some("rule"))
        .filter_map(|j| j.get("head").and_then(Json::as_str))
        .collect();
    assert!(rule_heads.contains(&"Name"), "{rule_heads:?}");
}
