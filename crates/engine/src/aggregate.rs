//! Aggregation functions and conversion functions (paper §3.1).
//!
//! A rule head may contain aggregate terms:
//!
//! ```text
//! R(t, lex_concat(str(y))) <- Texts(d, t), rgx("…", t) -> (y)
//! ```
//!
//! Plain head variables become the **group-by key**; each aggregate term
//! folds the multiset of values its variable takes within a group.
//! *Conversions* (`str`, `len`) map each value before aggregation — the
//! paper's `str(y)` turns spans into the strings they cover, which is what
//! makes `lex_concat` lexicographic over text rather than positions.

use crate::error::{EngineError, Result};
use crate::ie::IeContext;
use spannerlib_core::Value;
use std::sync::Arc;

/// A value-level conversion usable inside aggregation terms.
pub trait Conversion: Send + Sync {
    /// Converts one value.
    fn convert(&self, v: &Value, ctx: &IeContext<'_>) -> Result<Value>;
}

/// An aggregation function folding a group's values into one value.
pub trait AggFunction: Send + Sync {
    /// Folds `values` (never empty, sorted) into the aggregate result.
    fn apply(&self, values: &[Value]) -> Result<Value>;
}

struct FnConversion<F>(F);

impl<F> Conversion for FnConversion<F>
where
    F: Fn(&Value, &IeContext<'_>) -> Result<Value> + Send + Sync,
{
    fn convert(&self, v: &Value, ctx: &IeContext<'_>) -> Result<Value> {
        (self.0)(v, ctx)
    }
}

struct FnAgg<F>(#[allow(dead_code)] &'static str, F);

impl<F> AggFunction for FnAgg<F>
where
    F: Fn(&[Value]) -> Result<Value> + Send + Sync,
{
    fn apply(&self, values: &[Value]) -> Result<Value> {
        (self.1)(values)
    }
}

fn agg_err(function: &str, msg: impl Into<String>) -> EngineError {
    EngineError::AggRuntime {
        function: function.to_string(),
        msg: msg.into(),
    }
}

fn numeric(function: &str, v: &Value) -> Result<f64> {
    match v {
        Value::Int(i) => Ok(*i as f64),
        Value::Float(f) => Ok(*f),
        other => Err(agg_err(
            function,
            format!("expected a numeric value, got {}", other.value_type()),
        )),
    }
}

/// The builtin aggregation functions.
pub fn builtin_aggregates() -> Vec<(String, Arc<dyn AggFunction>)> {
    let mut out: Vec<(String, Arc<dyn AggFunction>)> = Vec::new();

    out.push((
        "count".into(),
        Arc::new(FnAgg("count", |vs: &[Value]| {
            Ok(Value::Int(vs.len() as i64))
        })),
    ));

    out.push((
        "sum".into(),
        Arc::new(FnAgg("sum", |vs: &[Value]| {
            if vs.iter().all(|v| matches!(v, Value::Int(_))) {
                // Summed in 128 bits, so only a total past the 64-bit
                // range fails, not a partial sum on the way to it.
                let total: i128 = vs.iter().filter_map(Value::as_int).map(i128::from).sum();
                i64::try_from(total)
                    .map(Value::Int)
                    .map_err(|_| agg_err("sum", format!("{total} overflows a 64-bit int")))
            } else {
                let mut acc = 0.0;
                for v in vs {
                    acc += numeric("sum", v)?;
                }
                Ok(Value::Float(acc))
            }
        })),
    ));

    out.push((
        "avg".into(),
        Arc::new(FnAgg("avg", |vs: &[Value]| {
            let mut acc = 0.0;
            for v in vs {
                acc += numeric("avg", v)?;
            }
            Ok(Value::Float(acc / vs.len() as f64))
        })),
    ));

    out.push((
        "min".into(),
        Arc::new(FnAgg("min", |vs: &[Value]| {
            vs.iter()
                .min()
                .cloned()
                .ok_or_else(|| agg_err("min", "empty group"))
        })),
    ));

    out.push((
        "max".into(),
        Arc::new(FnAgg("max", |vs: &[Value]| {
            vs.iter()
                .max()
                .cloned()
                .ok_or_else(|| agg_err("max", "empty group"))
        })),
    ));

    // The paper's example aggregation: concatenate in lexicographic order.
    out.push((
        "lex_concat".into(),
        Arc::new(FnAgg("lex_concat", |vs: &[Value]| {
            let mut strings: Vec<&str> = Vec::with_capacity(vs.len());
            for v in vs {
                match v {
                    Value::Str(s) => strings.push(s),
                    other => {
                        return Err(agg_err(
                            "lex_concat",
                            format!(
                                "expected str values (wrap spans with str(…)), got {}",
                                other.value_type()
                            ),
                        ))
                    }
                }
            }
            strings.sort_unstable();
            Ok(Value::str(strings.concat()))
        })),
    ));

    // `collect`: like lex_concat but comma-separated — convenient for
    // prompt building in the LLM scenarios.
    out.push((
        "collect".into(),
        Arc::new(FnAgg("collect", |vs: &[Value]| {
            let mut strings: Vec<String> = Vec::with_capacity(vs.len());
            for v in vs {
                match v {
                    Value::Str(s) => strings.push(s.to_string()),
                    other => strings.push(other.to_string()),
                }
            }
            strings.sort_unstable();
            Ok(Value::str(strings.join(", ")))
        })),
    ));

    out
}

/// The builtin conversion functions.
pub fn builtin_conversions() -> Vec<(String, Arc<dyn Conversion>)> {
    let mut out: Vec<(String, Arc<dyn Conversion>)> = Vec::new();

    // str(x): spans resolve to their text; other values render to text.
    out.push((
        "str".into(),
        Arc::new(FnConversion(|v: &Value, ctx: &IeContext<'_>| {
            Ok(match v {
                Value::Span(s) => Value::str(ctx.span_text(s)?),
                Value::Str(s) => Value::Str(s.clone()),
                Value::Int(i) => Value::str(i.to_string()),
                Value::Float(f) => Value::str(f.to_string()),
                Value::Bool(b) => Value::str(b.to_string()),
            })
        })),
    ));

    // len(x): string length in bytes / span width.
    out.push((
        "len".into(),
        Arc::new(FnConversion(|v: &Value, _ctx: &IeContext<'_>| match v {
            Value::Str(s) => Ok(Value::Int(s.len() as i64)),
            Value::Span(s) => Ok(Value::Int(s.len() as i64)),
            other => Err(EngineError::AggRuntime {
                function: "len".into(),
                msg: format!("expected str or span, got {}", other.value_type()),
            }),
        })),
    ));

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ie::SharedDocs;

    fn agg(name: &str) -> Arc<dyn AggFunction> {
        builtin_aggregates()
            .into_iter()
            .find(|(n, _)| n == name)
            .unwrap()
            .1
    }

    fn conv(name: &str) -> Arc<dyn Conversion> {
        builtin_conversions()
            .into_iter()
            .find(|(n, _)| n == name)
            .unwrap()
            .1
    }

    #[test]
    fn count_counts() {
        let vs = vec![Value::Int(1), Value::Int(1), Value::str("x")];
        assert_eq!(agg("count").apply(&vs).unwrap(), Value::Int(3));
    }

    #[test]
    fn sum_stays_integer_for_ints() {
        assert_eq!(
            agg("sum").apply(&[Value::Int(2), Value::Int(3)]).unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            agg("sum")
                .apply(&[Value::Int(2), Value::Float(0.5)])
                .unwrap(),
            Value::Float(2.5)
        );
    }

    #[test]
    fn sum_of_ints_past_the_range_is_an_error() {
        let err = agg("sum")
            .apply(&[Value::Int(i64::MAX), Value::Int(1)])
            .unwrap_err();
        assert!(
            matches!(&err, EngineError::AggRuntime { function, .. } if function == "sum"),
            "{err}"
        );
        let low = [Value::Int(i64::MIN), Value::Int(-1)];
        assert!(agg("sum").apply(&low).is_err());
        let fits = [Value::Int(-1), Value::Int(1), Value::Int(i64::MAX)];
        assert_eq!(agg("sum").apply(&fits).unwrap(), Value::Int(i64::MAX));
        // A partial sum past the range is not an error when the total fits.
        let back = [Value::Int(i64::MIN), Value::Int(-1), Value::Int(i64::MAX)];
        assert_eq!(agg("sum").apply(&back).unwrap(), Value::Int(-2));
    }

    #[test]
    fn sum_rejects_strings() {
        assert!(agg("sum").apply(&[Value::str("x")]).is_err());
    }

    #[test]
    fn avg_of_ints() {
        assert_eq!(
            agg("avg").apply(&[Value::Int(1), Value::Int(2)]).unwrap(),
            Value::Float(1.5)
        );
    }

    #[test]
    fn min_max_use_value_order() {
        let vs = vec![Value::str("b"), Value::str("a"), Value::str("c")];
        assert_eq!(agg("min").apply(&vs).unwrap(), Value::str("a"));
        assert_eq!(agg("max").apply(&vs).unwrap(), Value::str("c"));
    }

    #[test]
    fn lex_concat_sorts_then_concatenates() {
        let vs = vec![Value::str("bb"), Value::str("a"), Value::str("c")];
        assert_eq!(agg("lex_concat").apply(&vs).unwrap(), Value::str("abbc"));
    }

    #[test]
    fn lex_concat_requires_strings() {
        assert!(agg("lex_concat").apply(&[Value::Int(1)]).is_err());
    }

    #[test]
    fn str_conversion_resolves_spans() {
        let docs = SharedDocs::default();
        let id = docs.write().intern("hello");
        let span = docs.read().span(id, 1, 4).unwrap();
        let ctx = IeContext::new("str", &docs);
        assert_eq!(
            conv("str").convert(&Value::Span(span), &ctx).unwrap(),
            Value::str("ell")
        );
        assert_eq!(
            conv("str").convert(&Value::Int(7), &ctx).unwrap(),
            Value::str("7")
        );
    }

    #[test]
    fn len_conversion() {
        let docs = SharedDocs::default();
        let id = docs.write().intern("hello");
        let span = docs.read().span(id, 0, 2).unwrap();
        let ctx = IeContext::new("len", &docs);
        assert_eq!(
            conv("len").convert(&Value::Span(span), &ctx).unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            conv("len").convert(&Value::str("abc"), &ctx).unwrap(),
            Value::Int(3)
        );
        assert!(conv("len").convert(&Value::Bool(true), &ctx).is_err());
    }
}
