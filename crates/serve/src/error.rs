//! The wire error shape and the engine-error → HTTP mapping.

use crate::json::Json;
use spannerlog_engine::EngineError;

/// Culprit-rule attribution for evaluation-limit overruns and IE
/// panics: which rule blew the budget or made the call, where it lives
/// in the program source.
#[derive(Debug, Clone)]
pub struct ErrorCulprit {
    /// Head predicate of the culprit rule.
    pub rule: String,
    /// 1-based source line of the culprit rule.
    pub line: usize,
    /// Source text of the culprit rule.
    pub source: String,
}

/// A structured API error: an HTTP status plus the JSON body spannerd
/// returns for it. Evaluation-limit overruns carry the culprit rule
/// (head, line, and source text) so a client can see *which rule* blew
/// the budget without reading server logs.
#[derive(Debug, Clone)]
pub struct ApiError {
    /// HTTP status code.
    pub status: u16,
    /// Stable machine-readable kind (`"deadline"`, `"limit"`, …).
    pub kind: &'static str,
    /// Human-readable message.
    pub message: String,
    /// Culprit attribution, when one exists — boxed so the handlers'
    /// `Result<Response, ApiError>` returns stay register-sized.
    pub culprit: Option<Box<ErrorCulprit>>,
    /// The serving request id the error is answering, when request
    /// handling assigned one (echoed in the body so structured 503/429
    /// errors correlate with the access log).
    pub request_id: Option<String>,
}

impl ApiError {
    /// A plain error with no culprit rule.
    pub fn new(status: u16, kind: &'static str, message: impl Into<String>) -> ApiError {
        ApiError {
            status,
            kind,
            message: message.into(),
            culprit: None,
            request_id: None,
        }
    }

    /// 400 with kind `"bad_request"`.
    pub fn bad_request(message: impl Into<String>) -> ApiError {
        ApiError::new(400, "bad_request", message)
    }

    /// 503 for a request whose deadline expired before (or while)
    /// evaluation could serve it.
    pub fn deadline(message: impl Into<String>) -> ApiError {
        ApiError::new(503, "deadline", message)
    }

    /// Maps an engine failure to its HTTP shape:
    ///
    /// * wall-clock limit → 503 `deadline` (the request ran out of
    ///   time; retrying later, or with a larger budget, may succeed),
    /// * row/round limits → 429 `limit` (the query is too expensive as
    ///   admitted; retrying unchanged cannot succeed),
    /// * an IE function that panicked → 500 `ie_panic`, naming the rule
    ///   that called it, if one rule did (the session is back in service;
    ///   its next evaluation runs in full),
    /// * everything else (parse errors, unknown relations, unsafe
    ///   rules, …) → 400 `bad_request`.
    pub fn from_engine(err: &EngineError) -> ApiError {
        let (status, kind, culprit) = match err {
            EngineError::LimitExceeded {
                resource, culprit, ..
            } if *resource == "eval wall-clock millis" => (503, "deadline", Some(culprit)),
            EngineError::LimitExceeded { culprit, .. } => (429, "limit", Some(culprit)),
            EngineError::IePanicked { rule, .. } => (500, "ie_panic", Some(rule)),
            _ => (400, "bad_request", None),
        };
        let mut api = ApiError::new(status, kind, err.to_string());
        api.culprit = culprit.filter(|c| c.is_known()).map(|c| {
            let (rule, line, source) = (c.head.clone(), c.line, c.source.clone());
            Box::new(ErrorCulprit { rule, line, source })
        });
        api
    }

    /// Renders the JSON body:
    /// `{"error":{"status":…,"kind":…,"message":…[,"rule":…,"line":…,"source":…]}}`.
    pub fn body(&self) -> String {
        let mut members = vec![
            ("status".to_string(), Json::Int(i64::from(self.status))),
            ("kind".to_string(), Json::str(self.kind)),
            ("message".to_string(), Json::str(&self.message)),
        ];
        if let Some(culprit) = &self.culprit {
            members.push(("rule".into(), Json::str(&culprit.rule)));
            members.push(("line".into(), Json::Int(culprit.line as i64)));
            members.push(("source".into(), Json::str(&culprit.source)));
        }
        if let Some(id) = &self.request_id {
            members.push(("request_id".into(), Json::str(id)));
        }
        Json::Obj(vec![("error".into(), Json::Obj(members))]).render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spannerlog_engine::LimitCulprit;

    fn limit_err(resource: &'static str) -> EngineError {
        EngineError::LimitExceeded {
            resource,
            limit: 7,
            culprit: Box::new(LimitCulprit {
                head: "Blow".into(),
                source: "Blow(x) <- Blow(y), add(y, 1) -> (x)".into(),
                line: 3,
            }),
        }
    }

    #[test]
    fn wall_clock_limits_are_503_and_row_limits_429() {
        let deadline = ApiError::from_engine(&limit_err("eval wall-clock millis"));
        assert_eq!((deadline.status, deadline.kind), (503, "deadline"));
        let rows = ApiError::from_engine(&limit_err("materialized rows"));
        assert_eq!((rows.status, rows.kind), (429, "limit"));
        let culprit = rows.culprit.as_deref().expect("culprit attribution");
        assert_eq!(culprit.rule, "Blow");
        let body = rows.body();
        let parsed = Json::parse(&body).unwrap();
        let err = parsed.get("error").unwrap();
        assert_eq!(err.get("status").unwrap(), &Json::Int(429));
        assert_eq!(err.get("rule").unwrap().as_str(), Some("Blow"));
        assert_eq!(err.get("line").unwrap(), &Json::Int(3));
    }

    #[test]
    fn other_engine_errors_are_400() {
        let e = ApiError::from_engine(&EngineError::UnknownRelation("Nope".into()));
        assert_eq!((e.status, e.kind), (400, "bad_request"));
        assert!(e.culprit.is_none());
    }
}
