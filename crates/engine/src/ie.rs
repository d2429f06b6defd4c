//! The IE-function framework — pillar 3 of the paper (§3.3).
//!
//! An IE function is a **stateless** mapping from an input tuple to a
//! relation of output tuples. Anything implementing [`IeFunction`] — in
//! particular, any plain closure registered through
//! [`crate::Session::register`] — can be called from Spannerlog rules as
//! an IE atom `f(inputs) -> (outputs)`, turning host code into a callback
//! of the declarative layer.
//!
//! A call writes its output tuples, one [`IeRows::push`] each, straight
//! into the rows of the step that asked it — the paper's Python IE
//! functions *yield* tuples, and so do these. The sink refuses a row
//! whose width is not the calling atom's, and a refused row fails the
//! step even when the function drops the error. A *filter* (an atom
//! with no outputs) answers with [`IeRows::keep`].
//!
//! Functions receive an [`IeContext`] naming the function called and
//! giving access to the session's document store, so they can resolve
//! spans to text and mint spans over new or existing documents. How
//! calls are batched and bounded in time is the business of the rule
//! executor's IE step (`ie_join.rs`); a call two atoms share is planned
//! as a relation of the program (`share.rs`).

use crate::error::{EngineError, Result};
use parking_lot::RwLock;
use spannerlib_core::{DocId, DocumentStore, Rows, Span, Str, Value};
use std::sync::Arc;

/// The session's document store as every IE call sees it: behind a
/// read-write lock for the whole of an evaluation, on the calling thread
/// as much as on shard workers. Readers (span resolution, text lookup)
/// take the lock shared; interning new documents takes it exclusively.
/// Interning is content-addressed and therefore idempotent, so two
/// workers racing to intern the same text converge on one id.
pub type SharedDocs = RwLock<DocumentStore>;

/// Execution context handed to every IE call (and conversion). Each
/// store access locks for its own duration only, so a function may be
/// invoked concurrently on distinct argument tuples.
pub struct IeContext<'a> {
    function: &'a str,
    docs: &'a SharedDocs,
    pub(crate) deadline: Option<crate::eval::EvalDeadline>,
}

impl<'a> IeContext<'a> {
    /// The context of a call to the function registered as `function`,
    /// over the shared document store, with no deadline.
    pub fn new(function: &'a str, docs: &'a SharedDocs) -> Self {
        IeContext {
            function,
            docs,
            deadline: None,
        }
    }

    /// The name the function was called by.
    pub fn function(&self) -> &str {
        self.function
    }

    /// Whether the calling run's wall-clock budget is spent: a call that
    /// then fails fails the run on the budget (`LimitExceeded`).
    pub fn deadline_passed(&self) -> bool {
        self.deadline.is_some_and(|d| d.passed())
    }

    /// An [`EngineError::IeRuntime`] naming the function called.
    pub fn error(&self, msg: impl Into<String>) -> EngineError {
        EngineError::IeRuntime {
            function: self.function.to_string(),
            msg: msg.into(),
        }
    }

    /// Resolves a span to its substring.
    pub fn span_text(&self, span: &Span) -> Result<String> {
        Ok(self.docs.read().span_text(span)?.to_string())
    }

    /// Resolves a document id to its full text.
    pub fn doc_text(&self, id: DocId) -> Result<Arc<str>> {
        Ok(self.docs.read().resolve(id)?.clone())
    }

    /// Interns a text, returning its document id (idempotent).
    pub fn intern(&mut self, text: &str) -> DocId {
        self.docs.write().intern(text)
    }

    /// Creates a checked span over an interned document.
    pub fn make_span(&self, doc: DocId, start: usize, end: usize) -> Result<Span> {
        Ok(self.docs.read().span(doc, start, end)?)
    }

    /// Resolves a `str`-or-`span` value to a [`TextArg`] — the common
    /// entry point for text-consuming IE functions like `rgx`. The text
    /// is available immediately (zero-copy for string arguments, which
    /// share their text); the backing *document* is minted
    /// lazily by [`TextArg::doc_base`], so functions whose output
    /// contains no spans over the text (`rgx_string`, filters, scalar
    /// extractors) never inflate the document store.
    pub fn text_arg(&self, v: &Value) -> Result<TextArg> {
        match v {
            Value::Str(s) => Ok(TextArg {
                text: Arc::clone(s.as_arc()),
                origin: Err(s.clone()),
            }),
            Value::Span(span) => Ok(TextArg {
                text: Arc::from(self.docs.read().span_text(span)?),
                origin: Ok((span.doc, span.start_usize())),
            }),
            other => Err(self.error(format!("expected str or span, got {}", other.value_type()))),
        }
    }
}

/// A text-typed IE argument resolved by [`IeContext::text_arg`].
///
/// Spans produced over the text need a `(document, base offset)` pair;
/// for a *span* argument that pair is the argument's own document, while
/// for a *string* argument a document only exists once the text is
/// interned. `TextArg` defers that interning to the first
/// [`TextArg::doc_base`] call, so scalar-only extractions keep the
/// document store untouched.
pub struct TextArg {
    text: Arc<str>,
    /// `(doc, base)`, or the string argument until it is interned.
    origin: std::result::Result<(DocId, usize), Str>,
}

impl TextArg {
    /// The argument's text content.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// A shared handle on the text (cheap clone; sidesteps borrowing
    /// `self` while iterating matches and minting spans).
    pub fn shared_text(&self) -> Arc<str> {
        self.text.clone()
    }

    /// The document and base offset for spans over this text. The first
    /// call on a string argument finds the text by the hash its string
    /// carries — under the read lock when the store holds it already, as
    /// after an earlier call on the same string — or interns it (sharing
    /// the string); span arguments and subsequent calls are free.
    pub fn doc_base(&mut self, ctx: &mut IeContext<'_>) -> (DocId, usize) {
        let string = match &self.origin {
            Ok(origin) => return *origin,
            Err(string) => string,
        };
        let held = ctx.docs.read().lookup_str(string);
        let doc = held.unwrap_or_else(|| ctx.docs.write().intern_str(string));
        self.origin = Ok((doc, 0));
        (doc, 0)
    }
}

/// Where an IE call writes its answer: the rows of the step that asked
/// it, each of the calling atom's width.
pub struct IeRows<'a> {
    function: &'a str,
    rows: &'a mut Rows,
    /// The width of the first row refused, if any.
    refused: Option<usize>,
}

impl<'a> IeRows<'a> {
    /// A sink for `function`'s rows, appending to `rows`, whose width is
    /// the calling atom's output arity.
    pub fn new(function: &'a str, rows: &'a mut Rows) -> Self {
        IeRows {
            function,
            rows,
            refused: None,
        }
    }

    /// The width every row must have: the calling atom's output arity.
    pub fn width(&self) -> usize {
        self.rows.width()
    }

    /// Writes one output row. A row of the wrong width is refused
    /// ([`IeRows::check`]).
    pub fn push(&mut self, row: &[Value]) -> Result<()> {
        self.check(row.len())?;
        self.rows.push(row);
        Ok(())
    }

    /// A filter's answer: one empty row — the binding row kept — when
    /// `keep` holds, none otherwise.
    pub fn keep(&mut self, keep: bool) -> Result<()> {
        match keep {
            true => self.push(&[]),
            false => Ok(()),
        }
    }

    /// Refuses `width` unless it is [`IeRows::width`], with
    /// [`EngineError::IeOutputArity`]. A refusal fails the call at
    /// [`IeRows::finish`] whatever the function returns. A function
    /// whose width is known before any row (`rgx`: its pattern's groups)
    /// checks it up front, so a mis-sized atom fails without a match.
    pub fn check(&mut self, width: usize) -> Result<()> {
        if width == self.width() {
            return Ok(());
        }
        self.refused.get_or_insert(width);
        Err(self.arity_error(width))
    }

    /// The call's outcome: the first refusal if a row was refused, else
    /// what the function returned.
    pub fn finish(self, called: Result<()>) -> Result<()> {
        match self.refused {
            Some(width) => Err(self.arity_error(width)),
            None => called,
        }
    }

    fn arity_error(&self, actual: usize) -> EngineError {
        EngineError::IeOutputArity {
            function: self.function.to_string(),
            expected: self.width(),
            actual,
        }
    }
}

/// A registered IE function: a pure function of its arguments, whose
/// rows the engine shares within a run and keeps across maintained runs.
///
/// `call` may run concurrently on distinct argument tuples — shard
/// workers share one function object, hence `Send + Sync`. It reaches
/// the document store only through its [`IeContext`], which takes the
/// store's lock per access: the discipline is the same on the calling
/// thread of a `parallelism(0)` session as on a many-core host.
pub trait IeFunction: Send + Sync {
    /// Number of inputs, or `None` for variadic functions (e.g. `format`).
    fn input_arity(&self) -> Option<usize>;

    /// Invokes the function on one input tuple, writing its output rows
    /// to `out`, whose [`IeRows::width`] is the calling atom's output
    /// arity.
    fn call(&self, args: &[Value], out: &mut IeRows<'_>, ctx: &mut IeContext<'_>) -> Result<()>;
}

/// Adapter turning a closure into an [`IeFunction`].
pub struct ClosureIe<F> {
    arity: Option<usize>,
    f: F,
}

impl<F> ClosureIe<F>
where
    F: Fn(&[Value], &mut IeRows<'_>, &mut IeContext<'_>) -> Result<()> + Send + Sync,
{
    /// Wraps `f` with a fixed (or variadic, `None`) input arity.
    pub fn new(arity: Option<usize>, f: F) -> Self {
        ClosureIe { arity, f }
    }
}

impl<F> IeFunction for ClosureIe<F>
where
    F: Fn(&[Value], &mut IeRows<'_>, &mut IeContext<'_>) -> Result<()> + Send + Sync,
{
    fn input_arity(&self) -> Option<usize> {
        self.arity
    }

    fn call(&self, args: &[Value], out: &mut IeRows<'_>, ctx: &mut IeContext<'_>) -> Result<()> {
        (self.f)(args, out, ctx)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The rows `f`, registered as `name`, writes for `args` at `width`.
    pub(crate) fn rows_of(
        f: &dyn IeFunction,
        name: &str,
        args: &[Value],
        width: usize,
        docs: &SharedDocs,
    ) -> Result<Vec<Vec<Value>>> {
        let mut rows = Rows::new(width);
        let mut out = IeRows::new(name, &mut rows);
        let called = f.call(args, &mut out, &mut IeContext::new(name, docs));
        out.finish(called)?;
        Ok(rows.iter().map(<[Value]>::to_vec).collect())
    }

    #[test]
    fn context_interns_and_resolves() {
        let docs = SharedDocs::default();
        let mut ctx = IeContext::new("f", &docs);
        let id = ctx.intern("hello world");
        let span = ctx.make_span(id, 0, 5).unwrap();
        assert_eq!(ctx.span_text(&span).unwrap(), "hello");
        assert_eq!(ctx.doc_text(id).unwrap().as_ref(), "hello world");
    }

    #[test]
    fn text_arg_interns_strings_at_doc_base() {
        let docs = SharedDocs::default();
        let mut ctx = IeContext::new("f", &docs);
        let mut arg = ctx.text_arg(&Value::str("abc")).unwrap();
        let (doc, base) = arg.doc_base(&mut ctx);
        assert_eq!((arg.text(), base), ("abc", 0));
        assert_eq!(docs.read().text(doc), "abc");
    }

    #[test]
    fn text_arg_offsets_spans() {
        let docs = SharedDocs::default();
        let id = docs.write().intern("xxabcxx");
        let span = docs.read().span(id, 2, 5).unwrap();
        let mut ctx = IeContext::new("f", &docs);
        let mut arg = ctx.text_arg(&Value::Span(span)).unwrap();
        assert_eq!(arg.text(), "abc");
        assert_eq!(arg.doc_base(&mut ctx), (id, 2));
    }

    #[test]
    fn text_arg_rejects_ints() {
        let docs = SharedDocs::default();
        let ctx = IeContext::new("rgx_string", &docs);
        let err = ctx.text_arg(&Value::Int(3)).err();
        assert!(
            matches!(err, Some(EngineError::IeRuntime { function, .. }) if function == "rgx_string")
        );
    }

    #[test]
    fn lazy_text_arg_does_not_intern_until_doc_base() {
        let docs = SharedDocs::default();
        let mut ctx = IeContext::new("f", &docs);
        let mut arg = ctx.text_arg(&Value::str("scalar only")).unwrap();
        assert_eq!(arg.text(), "scalar only");
        assert!(
            docs.read().is_empty(),
            "no span requested, nothing interned"
        );

        let mut arg2 = ctx.text_arg(&Value::str("scalar only")).unwrap();
        let (doc, base) = arg2.doc_base(&mut ctx);
        assert_eq!(base, 0);
        assert_eq!(docs.read().text(doc), "scalar only");
        assert_eq!(docs.read().len(), 1);
        // Redundant: arg was dropped uninterned; doc_base is idempotent.
        let _ = arg.doc_base(&mut ctx);
        assert_eq!(docs.read().len(), 1);
    }

    #[test]
    fn repeated_doc_base_adds_no_document() {
        let docs = SharedDocs::default();
        let mut ctx = IeContext::new("f", &docs);
        let text = Value::str("one text, many calls");
        let mut doc_base = |v: &Value| ctx.text_arg(v).unwrap().doc_base(&mut ctx);
        let first = doc_base(&text);
        assert_eq!(doc_base(&text), first);
        // An equal string made apart finds the same document.
        assert_eq!(doc_base(&Value::str("one text, many calls")), first);
        assert_eq!((docs.read().len(), docs.read().slots()), (1, 1));
    }

    #[test]
    fn lazy_text_arg_keeps_span_origin() {
        let docs = SharedDocs::default();
        let id = docs.write().intern("xxabcxx");
        let span = docs.read().span(id, 2, 5).unwrap();
        let mut ctx = IeContext::new("f", &docs);
        let mut arg = ctx.text_arg(&Value::Span(span)).unwrap();
        assert_eq!(arg.text(), "abc");
        let (doc, base) = arg.doc_base(&mut ctx);
        assert_eq!((doc, base), (id, 2));
        assert_eq!(
            docs.read().len(),
            1,
            "span arguments never intern a new doc"
        );
    }

    #[test]
    fn closure_adapter() {
        let f = ClosureIe::new(
            Some(1),
            |args: &[Value], out: &mut IeRows<'_>, _: &mut IeContext<'_>| {
                (0..args[0].as_int().unwrap()).try_for_each(|i| out.push(&[Value::Int(i)]))
            },
        );
        let docs = SharedDocs::default();
        let out = rows_of(&f, "f", &[Value::Int(3)], 1, &docs).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(f.input_arity(), Some(1));
    }

    #[test]
    fn keep_writes_one_empty_row_or_none() {
        let docs = SharedDocs::default();
        let filter = ClosureIe::new(
            Some(1),
            |args: &[Value], out: &mut IeRows<'_>, _: &mut IeContext<'_>| {
                out.keep(args[0] == Value::Bool(true))
            },
        );
        let keep = |b| rows_of(&filter, "f", &[Value::Bool(b)], 0, &docs).unwrap();
        assert_eq!(keep(true), vec![Vec::<Value>::new()]);
        assert!(keep(false).is_empty());
    }
}
