//! Span-relation IE functions.
//!
//! `contains` is the primitive the paper's §4.1 rule uses to find the
//! function enclosing the cursor:
//!
//! ```text
//! scope_of(pos, s) <- Files(name, c), AST("…", c) -> (s), contains(s, pos)
//! ```
//!
//! Boolean span predicates are zero-output IE functions (filters); they
//! can be written either as `contains(a, b) -> ()` or, because the engine
//! resolves unknown relation atoms against the IE registry, as the plain
//! atom `contains(a, b)` exactly like the paper does.

use crate::error::Result;
use crate::ie::{IeContext, IeRows};
use crate::registry::Registry;
use spannerlib_core::{Span, Value};

fn span_arg(v: &Value, ctx: &IeContext<'_>) -> Result<Span> {
    let got = || ctx.error(format!("expected a span, got {}", v.value_type()));
    v.as_span().copied().ok_or_else(got)
}

/// A filter on two spans: keeps the binding row when `holds`.
fn span_filter(
    holds: fn(&Span, &Span) -> bool,
) -> impl Fn(&[Value], &mut IeRows<'_>, &mut IeContext<'_>) -> Result<()> {
    move |args, out, ctx| out.keep(holds(&span_arg(&args[0], ctx)?, &span_arg(&args[1], ctx)?))
}

/// Installs the span builtins.
pub fn install(registry: &mut Registry) {
    // contains(outer, inner): filter — outer span contains inner span.
    let contains = span_filter(|outer, inner| outer.contains(inner));
    registry.register_per_row("contains", Some(2), contains);
    // contained_in(inner, outer): the flipped reading, matching the
    // argument order of the paper's example `contains(pos, s)` where the
    // *scope* s contains the cursor pos.
    let contained_in = span_filter(|inner, outer| outer.contains(inner));
    registry.register_per_row("contained_in", Some(2), contained_in);
    registry.register_per_row("overlaps", Some(2), span_filter(Span::overlaps));
    registry.register_per_row("precedes", Some(2), span_filter(Span::precedes));
    // same_doc(a, b): filter — both spans point into one document.
    let same_doc = span_filter(|a, b| a.doc == b.doc);
    registry.register_per_row("same_doc", Some(2), same_doc);

    // span_start/span_end/span_len: span -> int.
    registry.register_per_row("span_start", Some(1), |args, out, ctx| {
        out.push(&[Value::Int(span_arg(&args[0], ctx)?.start as i64)])
    });
    registry.register_per_row("span_end", Some(1), |args, out, ctx| {
        out.push(&[Value::Int(span_arg(&args[0], ctx)?.end as i64)])
    });
    registry.register_per_row("span_len", Some(1), |args, out, ctx| {
        out.push(&[Value::Int(span_arg(&args[0], ctx)?.len() as i64)])
    });

    // expand(span, left, right) -> (span) — widen a span, clamped to the
    // document bounds; a margin past them saturates. Useful for context
    // windows around a match.
    registry.register_closure("expand", Some(3), |args, out, ctx| {
        let s = span_arg(&args[0], ctx)?;
        let margin = |v: &Value, side: &str| {
            let msg = || ctx.error(format!("{side} margin must be an int"));
            v.as_int().ok_or_else(msg)
        };
        let (left, right) = (margin(&args[1], "left")?, margin(&args[2], "right")?);
        let text = ctx.doc_text(s.doc)?;
        let clamp = |at: i64| at.clamp(0, text.len() as i64) as usize;
        let mut start = clamp((s.start as i64).saturating_sub(left));
        let mut end = clamp((s.end as i64).saturating_add(right));
        // Snap to char boundaries.
        while start > 0 && !text.is_char_boundary(start) {
            start -= 1;
        }
        while end < text.len() && !text.is_char_boundary(end) {
            end += 1;
        }
        if start > end {
            start = end;
        }
        out.push(&[Value::Span(ctx.make_span(s.doc, start, end)?)])
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ie::tests::rows_of;
    use crate::ie::SharedDocs;

    fn setup() -> (Registry, SharedDocs) {
        (Registry::new(), SharedDocs::default())
    }

    /// The rows of `name(args)`, at width 0 for a filter and 1 otherwise.
    fn call(registry: &Registry, docs: &SharedDocs, name: &str, args: &[Value]) -> Vec<Vec<Value>> {
        let f = registry.ie(name).unwrap().clone();
        let filter = ["contains", "contained_in", "overlaps", "precedes"].contains(&name);
        rows_of(&*f, name, args, usize::from(!filter), docs).unwrap()
    }

    #[test]
    fn containment_filters() {
        let (r, docs) = setup();
        let id = docs.write().intern("0123456789");
        let outer = Value::Span(docs.read().span(id, 0, 8).unwrap());
        let inner = Value::Span(docs.read().span(id, 2, 5).unwrap());
        assert_eq!(
            call(&r, &docs, "contains", &[outer.clone(), inner.clone()]).len(),
            1
        );
        assert_eq!(
            call(&r, &docs, "contains", &[inner.clone(), outer.clone()]).len(),
            0
        );
        assert_eq!(call(&r, &docs, "contained_in", &[inner, outer]).len(), 1);
    }

    #[test]
    fn overlap_and_precede() {
        let (r, docs) = setup();
        let id = docs.write().intern("0123456789");
        let a = Value::Span(docs.read().span(id, 0, 4).unwrap());
        let b = Value::Span(docs.read().span(id, 2, 6).unwrap());
        let c = Value::Span(docs.read().span(id, 6, 9).unwrap());
        assert_eq!(
            call(&r, &docs, "overlaps", &[a.clone(), b.clone()]).len(),
            1
        );
        assert_eq!(
            call(&r, &docs, "overlaps", &[a.clone(), c.clone()]).len(),
            0
        );
        assert_eq!(call(&r, &docs, "precedes", &[a, c]).len(), 1);
    }

    #[test]
    fn accessors() {
        let (r, docs) = setup();
        let id = docs.write().intern("0123456789");
        let s = Value::Span(docs.read().span(id, 2, 7).unwrap());
        assert_eq!(
            call(&r, &docs, "span_start", std::slice::from_ref(&s))[0][0],
            Value::Int(2)
        );
        assert_eq!(
            call(&r, &docs, "span_end", std::slice::from_ref(&s))[0][0],
            Value::Int(7)
        );
        assert_eq!(call(&r, &docs, "span_len", &[s])[0][0], Value::Int(5));
    }

    #[test]
    fn expand_clamps_to_document() {
        let (r, docs) = setup();
        let id = docs.write().intern("0123456789");
        let s = Value::Span(docs.read().span(id, 4, 6).unwrap());
        let out = call(&r, &docs, "expand", &[s, Value::Int(100), Value::Int(2)]);
        let span = *out[0][0].as_span().unwrap();
        assert_eq!((span.start, span.end), (0, 8));
    }

    #[test]
    fn non_span_argument_errors() {
        let (r, docs) = setup();
        let f = r.ie("contains").unwrap().clone();
        let args = [Value::Int(1), Value::Int(2)];
        assert!(rows_of(&*f, "contains", &args, 0, &docs).is_err());
    }
}
