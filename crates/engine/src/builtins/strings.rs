//! String-manipulation IE functions.
//!
//! The paper (§4.1) assumes "standard operations such as string
//! concatenation … and a printf-like formatting" as IE functions; this
//! module supplies them. String arguments accept spans too — a span is
//! resolved to its text first, which keeps rules free of explicit
//! conversions.

use crate::error::Result;
use crate::ie::{IeContext, IeRows};
use crate::registry::Registry;
use spannerlib_core::Value;

/// Resolves a value to text: strings pass through, spans resolve.
fn as_text(v: &Value, ctx: &IeContext<'_>) -> Result<String> {
    match v {
        Value::Str(s) => Ok(s.to_string()),
        Value::Span(s) => ctx.span_text(s),
        other => Err(ctx.error(format!("expected str or span, got {}", other.value_type()))),
    }
}

/// A function of one text argument with one output cell.
fn text_map(
    map: fn(String) -> Value,
) -> impl Fn(&[Value], &mut IeRows<'_>, &mut IeContext<'_>) -> Result<()> {
    move |args, out, ctx| out.push(&[map(as_text(&args[0], ctx)?)])
}

/// A filter on two text arguments: keeps the binding row when `holds`.
fn text_filter(
    holds: fn(&str, &str) -> bool,
) -> impl Fn(&[Value], &mut IeRows<'_>, &mut IeContext<'_>) -> Result<()> {
    move |args, out, ctx| out.keep(holds(&as_text(&args[0], ctx)?, &as_text(&args[1], ctx)?))
}

/// Installs the string builtins.
pub fn install(registry: &mut Registry) {
    // concat(a, b) -> (a ++ b)
    registry.register_per_row("concat", Some(2), |args, out, ctx| {
        let (a, b) = (as_text(&args[0], ctx)?, as_text(&args[1], ctx)?);
        out.push(&[Value::str(format!("{a}{b}"))])
    });

    // format(template, x1, …, xn) -> (filled) — `{}` placeholders.
    registry.register_per_row("format", None, |args, out, ctx| {
        let template = args
            .first()
            .and_then(Value::as_str)
            .ok_or_else(|| ctx.error("first argument must be a template string"))?;
        let mut pieces = template.split("{}");
        let mut filled = String::new();
        filled.push_str(pieces.next().unwrap_or(""));
        let mut used = 0usize;
        for (i, piece) in pieces.enumerate() {
            let arg = args.get(i + 1).ok_or_else(|| {
                ctx.error(format!(
                    "template has more placeholders than the {} argument(s)",
                    args.len() - 1
                ))
            })?;
            match arg {
                Value::Str(s) => filled.push_str(s),
                Value::Span(s) => filled.push_str(&ctx.span_text(s)?),
                Value::Int(x) => filled.push_str(&x.to_string()),
                Value::Float(x) => filled.push_str(&x.to_string()),
                Value::Bool(x) => filled.push_str(&x.to_string()),
            }
            used = i + 1;
            filled.push_str(piece);
        }
        if used != args.len() - 1 {
            return Err(ctx.error(format!(
                "template has {used} placeholder(s) but {} argument(s) were given",
                args.len() - 1
            )));
        }
        out.push(&[Value::str(filled)])
    });

    // upper/lower/trim/str_len: one in, one out.
    registry.register_closure("upper", Some(1), text_map(|s| Value::str(s.to_uppercase())));
    registry.register_closure("lower", Some(1), text_map(|s| Value::str(s.to_lowercase())));
    registry.register_closure("trim", Some(1), text_map(|s| Value::str(s.trim())));
    registry.register_closure("str_len", Some(1), text_map(|s| Value::Int(s.len() as i64)));

    // replace(s, from, to) -> (s')
    registry.register_closure("replace", Some(3), |args, out, ctx| {
        let s = as_text(&args[0], ctx)?;
        let (from, to) = (as_text(&args[1], ctx)?, as_text(&args[2], ctx)?);
        out.push(&[Value::str(s.replace(&from, &to))])
    });

    // split(delim, s) -> (part) — one row per part; empty parts skipped.
    registry.register_closure("split", Some(2), |args, out, ctx| {
        let (delim, s) = (as_text(&args[0], ctx)?, as_text(&args[1], ctx)?);
        if delim.is_empty() {
            return Err(ctx.error("delimiter must be non-empty"));
        }
        let mut parts = s.split(&delim).filter(|p| !p.is_empty());
        parts.try_for_each(|p| out.push(&[Value::str(p)]))
    });

    // as_str(x) -> (text) — explicit span→string (the paper writes
    // str(y) in aggregation; in rule bodies this is the equivalent). A
    // string passes through shared, its hash already taken.
    registry.register_closure("as_str", Some(1), |args, out, ctx| match &args[0] {
        Value::Str(_) => out.push(&args[..1]),
        other => out.push(&[Value::str(as_text(other, ctx)?)]),
    });

    // starts_with / ends_with / str_contains: boolean filters.
    registry.register_per_row(
        "starts_with",
        Some(2),
        text_filter(|s, prefix| s.starts_with(prefix)),
    );
    registry.register_per_row(
        "ends_with",
        Some(2),
        text_filter(|s, suffix| s.ends_with(suffix)),
    );
    registry.register_per_row(
        "str_contains",
        Some(2),
        text_filter(|s, needle| s.contains(needle)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ie::tests::rows_of;
    use crate::ie::SharedDocs;

    /// The rows of `name(args)`, at width 0 for a filter and 1 otherwise.
    fn call(name: &str, args: &[Value]) -> Result<Vec<Vec<Value>>> {
        let registry = Registry::new();
        let f = registry.ie(name).unwrap().clone();
        let filter = ["starts_with", "ends_with", "str_contains"].contains(&name);
        rows_of(
            &*f,
            name,
            args,
            usize::from(!filter),
            &SharedDocs::default(),
        )
    }

    fn one(name: &str, args: &[Value]) -> Value {
        call(name, args).unwrap()[0][0].clone()
    }

    #[test]
    fn concat_joins() {
        assert_eq!(
            one("concat", &[Value::str("foo"), Value::str("bar")]),
            Value::str("foobar")
        );
    }

    #[test]
    fn concat_accepts_spans() {
        let registry = Registry::new();
        let f = registry.ie("concat").unwrap().clone();
        let docs = SharedDocs::default();
        let id = docs.write().intern("hello world");
        let span = docs.read().span(id, 0, 5).unwrap();
        let args = [Value::Span(span), Value::str("!")];
        let out = rows_of(&*f, "concat", &args, 1, &docs).unwrap();
        assert_eq!(out[0][0], Value::str("hello!"));
    }

    #[test]
    fn format_fills_placeholders() {
        assert_eq!(
            one(
                "format",
                &[
                    Value::str("sum of {} and {} is {}"),
                    Value::Int(1),
                    Value::Int(2),
                    Value::Int(3)
                ]
            ),
            Value::str("sum of 1 and 2 is 3")
        );
    }

    #[test]
    fn format_arity_mismatches_error() {
        assert!(call("format", &[Value::str("{} {}"), Value::Int(1)]).is_err());
        assert!(call("format", &[Value::str("{}"), Value::Int(1), Value::Int(2)]).is_err());
    }

    #[test]
    fn case_and_trim() {
        assert_eq!(one("upper", &[Value::str("ab")]), Value::str("AB"));
        assert_eq!(one("lower", &[Value::str("AB")]), Value::str("ab"));
        assert_eq!(one("trim", &[Value::str("  x ")]), Value::str("x"));
    }

    #[test]
    fn replace_replaces_all() {
        assert_eq!(
            one(
                "replace",
                &[Value::str("a-b-c"), Value::str("-"), Value::str("+")]
            ),
            Value::str("a+b+c")
        );
    }

    #[test]
    fn split_skips_empties() {
        let rows = call("split", &[Value::str(","), Value::str("a,,b,c,")]).unwrap();
        let parts: Vec<_> = rows.iter().map(|r| r[0].clone()).collect();
        assert_eq!(
            parts,
            vec![Value::str("a"), Value::str("b"), Value::str("c")]
        );
    }

    #[test]
    fn filters_behave() {
        assert_eq!(
            call("starts_with", &[Value::str("abc"), Value::str("ab")])
                .unwrap()
                .len(),
            1
        );
        assert_eq!(
            call("ends_with", &[Value::str("abc"), Value::str("ab")])
                .unwrap()
                .len(),
            0
        );
        assert_eq!(
            call("str_contains", &[Value::str("abc"), Value::str("b")])
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn str_len_bytes() {
        assert_eq!(one("str_len", &[Value::str("héllo")]), Value::Int(6));
    }
}
