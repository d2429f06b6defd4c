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

use crate::error::{EngineError, Result};
use crate::ie::filter_output;
use crate::registry::Registry;
use spannerlib_core::{Span, Value};

fn span_arg(function: &str, v: &Value) -> Result<Span> {
    v.as_span().copied().ok_or_else(|| EngineError::IeRuntime {
        function: function.to_string(),
        msg: format!("expected a span, got {}", v.value_type()),
    })
}

/// Installs the span builtins.
pub fn install(registry: &mut Registry) {
    // contains(outer, inner): filter — outer span contains inner span.
    registry.register_closure_uncached("contains", Some(2), |args, _ctx| {
        let outer = span_arg("contains", &args[0])?;
        let inner = span_arg("contains", &args[1])?;
        Ok(filter_output(outer.contains(&inner)))
    });

    // contained_in(inner, outer): the flipped reading, matching the
    // argument order of the paper's example `contains(pos, s)` where the
    // *scope* s contains the cursor pos.
    registry.register_closure_uncached("contained_in", Some(2), |args, _ctx| {
        let inner = span_arg("contained_in", &args[0])?;
        let outer = span_arg("contained_in", &args[1])?;
        Ok(filter_output(outer.contains(&inner)))
    });

    registry.register_closure_uncached("overlaps", Some(2), |args, _ctx| {
        let a = span_arg("overlaps", &args[0])?;
        let b = span_arg("overlaps", &args[1])?;
        Ok(filter_output(a.overlaps(&b)))
    });

    registry.register_closure_uncached("precedes", Some(2), |args, _ctx| {
        let a = span_arg("precedes", &args[0])?;
        let b = span_arg("precedes", &args[1])?;
        Ok(filter_output(a.precedes(&b)))
    });

    // same_doc(a, b): filter — both spans point into one document.
    registry.register_closure_uncached("same_doc", Some(2), |args, _ctx| {
        let a = span_arg("same_doc", &args[0])?;
        let b = span_arg("same_doc", &args[1])?;
        Ok(filter_output(a.doc == b.doc))
    });

    // span_start/span_end/span_len: span -> int.
    registry.register_closure_uncached("span_start", Some(1), |args, _ctx| {
        let s = span_arg("span_start", &args[0])?;
        Ok(vec![vec![Value::Int(s.start as i64)]])
    });
    registry.register_closure_uncached("span_end", Some(1), |args, _ctx| {
        let s = span_arg("span_end", &args[0])?;
        Ok(vec![vec![Value::Int(s.end as i64)]])
    });
    registry.register_closure_uncached("span_len", Some(1), |args, _ctx| {
        let s = span_arg("span_len", &args[0])?;
        Ok(vec![vec![Value::Int(s.len() as i64)]])
    });

    // expand(span, left, right) -> (span) — widen a span, clamped to the
    // document bounds. Useful for context windows around a match.
    registry.register_closure("expand", Some(3), |args, ctx| {
        let s = span_arg("expand", &args[0])?;
        let left = args[1].as_int().ok_or_else(|| EngineError::IeRuntime {
            function: "expand".into(),
            msg: "left margin must be an int".into(),
        })?;
        let right = args[2].as_int().ok_or_else(|| EngineError::IeRuntime {
            function: "expand".into(),
            msg: "right margin must be an int".into(),
        })?;
        let doc_len = ctx.doc_text(s.doc)?.len();
        let mut start = (s.start as i64 - left).max(0) as usize;
        let mut end = ((s.end as i64 + right).max(0) as usize).min(doc_len);
        // Snap to char boundaries.
        let text = ctx.doc_text(s.doc)?;
        while start > 0 && !text.is_char_boundary(start) {
            start -= 1;
        }
        while end < text.len() && !text.is_char_boundary(end) {
            end += 1;
        }
        if start > end {
            start = end;
        }
        Ok(vec![vec![Value::Span(ctx.make_span(s.doc, start, end)?)]])
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ie::{IeContext, IeOutput, SharedDocs};

    fn setup() -> (Registry, SharedDocs) {
        (Registry::new(), SharedDocs::default())
    }

    fn call(registry: &Registry, docs: &SharedDocs, name: &str, args: &[Value]) -> IeOutput {
        let f = registry.ie(name).unwrap().clone();
        let mut ctx = IeContext::new(docs);
        f.call(args, 1, &mut ctx).unwrap()
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
        let mut ctx = IeContext::new(&docs);
        assert!(f
            .call(&[Value::Int(1), Value::Int(2)], 0, &mut ctx)
            .is_err());
    }
}
