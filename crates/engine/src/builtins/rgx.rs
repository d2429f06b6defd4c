//! The `rgx` family — the canonical IE functions of document spanners.
//!
//! * `rgx(pattern, text) -> (span, …)` — one output span per capture
//!   group, one row per **leftmost-first non-overlapping** match (Python
//!   `re` semantics; reproduces the paper's §2 worked example). With zero
//!   capture groups the whole match is returned as a single span.
//! * `rgx_string(pattern, text) -> (str, …)` — same scan, strings instead
//!   of spans.
//! * `rgx_all(pattern, text) -> (span, …)` — the formal all-matches
//!   spanner semantics ⟦γ⟧(d): every accepting run of every substring.
//!   A call that would enumerate more than [`RGX_ALL_MAX_MATCHES`]
//!   matches fails instead, and so does one that runs past the run's
//!   deadline ([`IeContext::deadline_passed`]).
//! * `rgx_is_match(pattern, text) -> ()` — boolean filter.
//!
//! A match that leaves a capture group undefined — an optional group, or
//! one branch of an alternation — yields no row: an `rgx` atom reads the
//! functional part of the spanner, the matches that define every variable
//! it names (Maturana et al.'s schemaless spanners). `rgx` and
//! `rgx_string` count those matches per thread ([`unassigned_matches`]),
//! and evaluation charges each call's count to its run's profile.
//!
//! `text` may be a string (spans refer to its interned document) or a
//! span (output spans stay positioned in the *original* document, which
//! is what lets rules compose extractions, e.g. matching inside an AST
//! node's span).
//!
//! [`fixed_rgx`] builds the same function over one text argument with
//! its pattern compiled in (`spannerd`'s `/register` catalog). The
//! builtins cache compiled patterns per function instance, keyed by
//! pattern text — rules typically call `rgx` with a constant pattern over
//! many documents. The cache is bounded ([`PATTERN_CACHE_CAP`]): a rule that
//! binds its pattern from data recompiles what was evicted instead of
//! growing the registry.

use crate::error::Result;
use crate::ie::{IeContext, IeFunction, IeRows};
use crate::registry::Registry;
use parking_lot::Mutex;
use rustc_hash::FxHashMap;
use spannerlib_core::{Span, Value};
use spannerlib_regex::{Regex, RegexError};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    static UNASSIGNED: Cell<u64> = const { Cell::new(0) };
}

/// How many `rgx` / `rgx_string` matches the calling thread has dropped
/// for leaving a capture group undefined. Monotonic: diff two readings
/// taken on one thread to count the calls between them.
pub(crate) fn unassigned_matches() -> u64 {
    UNASSIGNED.get()
}

/// Which semantics and output representation a `RgxFunction` uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Leftmost-first scan, span outputs.
    FindSpans,
    /// Leftmost-first scan, string outputs.
    FindStrings,
    /// All-matches spanner semantics, span outputs.
    AllSpans,
    /// Boolean filter.
    IsMatch,
}

/// Most compiled patterns one function instance keeps. A rule that
/// binds the pattern from data (`P(p), Docs(d, t), rgx(p, t) -> (s)`)
/// sees as many patterns as `P` has rows, and every resident `Regex`
/// owns its DFA caches, so the cache must not grow with the data.
const PATTERN_CACHE_CAP: usize = 256;

/// Most matches one `rgx_all` call enumerates; a call with more fails.
/// The all-matches relation of a formula grows with a power of the text
/// length (`x{a*}y{a*}` over `aⁿ` has C(n + 3, 3) rows), and a row of
/// two variables costs about 200 bytes while the call holds it (its
/// dedupe-set entry, its groups, its place in the sorted list), so this
/// caps one call near 50 MB before any row cap or deadline of the run
/// can look at it.
const RGX_ALL_MAX_MATCHES: usize = 1 << 18;

/// Shared regex IE implementation parameterized by [`Mode`].
struct RgxFunction {
    mode: Mode,
    /// The pattern a [`fixed_rgx`] function was built with; `None` for
    /// the builtins, whose first argument is the pattern.
    fixed: Option<Arc<Regex>>,
    cache: Mutex<FxHashMap<String, Arc<Regex>>>,
}

/// `rgx(pattern, text)` — or, when `strings`, `rgx_string` — as a
/// function of the text alone, with `regex` as the pattern: a call
/// compiles nothing, and a shared call's relation keys on the text only.
pub fn fixed_rgx(regex: Regex, strings: bool) -> Arc<dyn IeFunction> {
    Arc::new(RgxFunction {
        fixed: Some(Arc::new(regex)),
        ..RgxFunction::new(if strings {
            Mode::FindStrings
        } else {
            Mode::FindSpans
        })
    })
}

impl RgxFunction {
    fn new(mode: Mode) -> Self {
        RgxFunction {
            mode,
            fixed: None,
            cache: Mutex::new(FxHashMap::default()),
        }
    }

    fn compiled(&self, pattern: &str) -> std::result::Result<Arc<Regex>, RegexError> {
        if let Some(re) = self.cache.lock().get(pattern) {
            return Ok(re.clone());
        }
        let re = Arc::new(Regex::new(pattern)?);
        let mut cache = self.cache.lock();
        if cache.len() >= PATTERN_CACHE_CAP {
            // Any victim will do: an evicted pattern that comes back is
            // compiled again, nothing else changes.
            if let Some(victim) = cache.keys().next().cloned() {
                cache.remove(&victim);
            }
        }
        cache.insert(pattern.to_string(), re.clone());
        Ok(re)
    }
}

impl IeFunction for RgxFunction {
    fn input_arity(&self) -> Option<usize> {
        Some(if self.fixed.is_some() { 1 } else { 2 })
    }

    fn call(&self, args: &[Value], out: &mut IeRows<'_>, ctx: &mut IeContext<'_>) -> Result<()> {
        let (re, text) = match &self.fixed {
            Some(re) => (Arc::clone(re), &args[0]),
            None => {
                let got = || format!("pattern must be a string, got {}", args[0].value_type());
                let pattern = args[0].as_str().ok_or_else(|| ctx.error(got()))?;
                let bad = |e| ctx.error(format!("bad pattern {pattern:?}: {e}"));
                (self.compiled(pattern).map_err(bad)?, &args[1])
            }
        };
        // Lazy text resolution: string arguments are only interned when
        // a span row actually needs a document (span modes, first
        // match) — `rgx_string`/`rgx_is_match` and matchless scans
        // leave the doc store untouched.
        let mut arg = ctx.text_arg(text)?;
        let text = arg.shared_text();

        if self.mode == Mode::IsMatch {
            return out.keep(re.is_match(&text));
        }
        // One column per group (or one for a group-free pattern): an
        // atom of another width fails whether or not the text matches.
        out.check(re.group_count().max(1))?;
        // `rgx_all` enumerates before any row, asking the run's deadline.
        let (limit, stop) = (RGX_ALL_MAX_MATCHES + 1, || ctx.deadline_passed());
        let all = match self.mode {
            Mode::AllSpans => re.all_matches_bounded(&text, limit, &stop),
            _ => Some(Vec::new()),
        };
        let all = all.ok_or_else(|| ctx.error("stopped at the evaluation deadline"))?;

        let strings = self.mode == Mode::FindStrings;
        let mut cells = Vec::with_capacity(out.width());
        // Whether the match gave a row.
        let mut row = |groups: &[Option<(usize, usize)>], whole| {
            // A group the match leaves undefined, no row.
            if groups.contains(&None) {
                return Ok(false);
            }
            // Only a span row needs the text's document.
            let origin = (!strings).then(|| arg.doc_base(ctx));
            let cell = |(s, e): (usize, usize)| match origin {
                Some((doc, base)) => Value::Span(Span::new(doc, base + s, base + e)),
                None => Value::str(&text[s..e]),
            };
            cells.clear();
            // Zero-group patterns export the whole match as one column.
            match groups.is_empty() {
                true => cells.push(cell(whole)),
                false => cells.extend(groups.iter().flatten().copied().map(cell)),
            }
            out.push(&cells).map(|()| true)
        };
        match self.mode {
            Mode::FindSpans | Mode::FindStrings => {
                let (mut unassigned, mut groups) = (0, Vec::new());
                let mut matches = re.captures_iter(&text);
                // `groups[0]` is the whole match, then the explicit groups.
                while matches.next_into(&mut groups) {
                    let whole = groups[0].expect("group 0 present");
                    unassigned += u64::from(!row(&groups[1..], whole)?);
                }
                UNASSIGNED.set(UNASSIGNED.get() + unassigned);
            }
            Mode::AllSpans => {
                if all.len() > RGX_ALL_MAX_MATCHES {
                    let msg = format!("more than {RGX_ALL_MAX_MATCHES} matches");
                    return Err(ctx.error(msg));
                }
                for m in all {
                    row(&m.groups, (m.start, m.end))?;
                }
            }
            Mode::IsMatch => unreachable!("handled above"),
        }
        Ok(())
    }
}

/// Installs the rgx family.
pub fn install(registry: &mut Registry) {
    registry.register_ie("rgx", Arc::new(RgxFunction::new(Mode::FindSpans)));
    registry.register_ie("rgx_string", Arc::new(RgxFunction::new(Mode::FindStrings)));
    registry.register_ie("rgx_all", Arc::new(RgxFunction::new(Mode::AllSpans)));
    registry.register_ie("rgx_is_match", Arc::new(RgxFunction::new(Mode::IsMatch)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::EngineError;
    use crate::ie::tests::rows_of;
    use crate::ie::SharedDocs;

    fn call(name: &str, args: &[Value], width: usize, docs: &SharedDocs) -> Vec<Vec<Value>> {
        try_call(name, args, width, docs).unwrap()
    }

    fn try_call(
        name: &str,
        args: &[Value],
        width: usize,
        docs: &SharedDocs,
    ) -> Result<Vec<Vec<Value>>> {
        let f = Registry::new().ie(name).unwrap().clone();
        rows_of(&*f, name, args, width, docs)
    }

    #[test]
    fn paper_example_via_ie_function() {
        let docs = SharedDocs::default();
        let rows = call(
            "rgx",
            &[Value::str("x{a+}c+y{b+}"), Value::str("acb aacccbbb")],
            2,
            &docs,
        );
        let doc = docs.read().lookup("acb aacccbbb").unwrap();
        assert_eq!(
            rows,
            vec![
                vec![
                    Value::Span(Span::new(doc, 0, 1)),
                    Value::Span(Span::new(doc, 2, 3))
                ],
                vec![
                    Value::Span(Span::new(doc, 4, 6)),
                    Value::Span(Span::new(doc, 9, 12))
                ],
            ]
        );
    }

    #[test]
    fn rgx_string_returns_text() {
        let docs = SharedDocs::default();
        let rows = call(
            "rgx_string",
            &[Value::str("x{a+}c+y{b+}"), Value::str("acb aacccbbb")],
            2,
            &docs,
        );
        assert_eq!(
            rows,
            vec![
                vec![Value::str("a"), Value::str("b")],
                vec![Value::str("aa"), Value::str("bbb")],
            ]
        );
    }

    #[test]
    fn group_free_pattern_yields_whole_match() {
        let docs = SharedDocs::default();
        let rows = call("rgx", &[Value::str("b+"), Value::str("abba")], 1, &docs);
        let doc = docs.read().lookup("abba").unwrap();
        assert_eq!(rows, vec![vec![Value::Span(Span::new(doc, 1, 3))]]);
    }

    #[test]
    fn span_input_offsets_results_into_original_doc() {
        let docs = SharedDocs::default();
        let id = docs.write().intern("zzz abba zzz");
        let scope = docs.read().span(id, 4, 9).unwrap(); // "abba "
        let rows = call("rgx", &[Value::str("b+"), Value::Span(scope)], 1, &docs);
        assert_eq!(rows, vec![vec![Value::Span(Span::new(id, 5, 7))]]);
    }

    #[test]
    fn all_matches_mode_is_superset() {
        let docs = SharedDocs::default();
        let find = call("rgx", &[Value::str("a+"), Value::str("aaa")], 1, &docs);
        let all = call("rgx_all", &[Value::str("a+"), Value::str("aaa")], 1, &docs);
        assert_eq!(find.len(), 1);
        assert_eq!(all.len(), 6);
        for row in &find {
            assert!(all.contains(row));
        }
    }

    #[test]
    fn rgx_all_past_its_match_bound_fails_naming_it() {
        // `x{a*}y{a*}` over `aⁿ` has C(n + 3, 3) matches: 1 771 for
        // n = 20; 302 621 for n = 120, over the bound.
        let docs = SharedDocs::default();
        let args = |n| [Value::str("x{a*}y{a*}"), Value::str("a".repeat(n))];
        assert_eq!(call("rgx_all", &args(20), 2, &docs).len(), 1_771);
        match try_call("rgx_all", &args(120), 2, &docs) {
            Err(EngineError::IeRuntime { function, msg }) => {
                assert_eq!(function, "rgx_all");
                assert!(msg.contains(&RGX_ALL_MAX_MATCHES.to_string()), "{msg}");
            }
            other => panic!("expected IeRuntime, got {other:?}"),
        }
    }

    #[test]
    fn is_match_filters() {
        let docs = SharedDocs::default();
        assert_eq!(
            call(
                "rgx_is_match",
                &[Value::str("b+"), Value::str("abc")],
                0,
                &docs
            )
            .len(),
            1
        );
        assert_eq!(
            call(
                "rgx_is_match",
                &[Value::str("z"), Value::str("abc")],
                0,
                &docs
            )
            .len(),
            0
        );
    }

    #[test]
    fn wrong_output_arity_is_an_error() {
        let docs = SharedDocs::default();
        for text in ["ab", "no match"] {
            let args = [Value::str("x{a}y{b}"), Value::str(text)];
            let err = try_call("rgx", &args, 1, &docs).unwrap_err();
            assert!(matches!(
                err,
                EngineError::IeOutputArity {
                    expected: 1,
                    actual: 2,
                    ..
                }
            ));
        }
    }

    #[test]
    fn bad_pattern_reports() {
        let docs = SharedDocs::default();
        let err = try_call("rgx", &[Value::str("a("), Value::str("x")], 1, &docs).unwrap_err();
        assert!(matches!(err, EngineError::IeRuntime { .. }));
    }

    #[test]
    fn scalar_only_modes_do_not_intern_string_arguments() {
        let docs = SharedDocs::default();
        call(
            "rgx_string",
            &[Value::str("(a+)"), Value::str("aa scalar outputs")],
            1,
            &docs,
        );
        call(
            "rgx_is_match",
            &[Value::str("a+"), Value::str("aa filter only")],
            0,
            &docs,
        );
        // Span mode with zero matches: still nothing to point a span at.
        call(
            "rgx",
            &[Value::str("zzz"), Value::str("no match here")],
            1,
            &docs,
        );
        assert!(
            docs.read().is_empty(),
            "no span was produced, nothing interned"
        );

        // Span mode with matches interns exactly the one argument.
        call("rgx", &[Value::str("a+"), Value::str("aa")], 1, &docs);
        assert_eq!(docs.read().len(), 1);
        assert!(docs.read().lookup("aa").is_some());
    }

    #[test]
    fn pattern_cache_reuses_compilation() {
        let f = RgxFunction::new(Mode::FindSpans);
        let a = f.compiled("a+").unwrap();
        let b = f.compiled("a+").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn every_mode_over_a_span_of_multibyte_text() {
        let docs = SharedDocs::default();
        let text = "日本 née ann@é.com — bob@work.com; 😀 eve@x.com";
        let id = docs.write().intern(text);
        let from = text.find("ann").unwrap();
        let to = text.find("; ").unwrap();
        let scope = Value::Span(docs.read().span(id, from, to).unwrap());
        let pattern = Value::str(r"(\w+)@(\w+)\.com");

        // Offsets land in the original document, past the multi-byte prefix.
        let bob = text.find("bob").unwrap();
        let rows = call("rgx", &[pattern.clone(), scope.clone()], 2, &docs);
        assert_eq!(
            rows,
            vec![vec![
                Value::Span(Span::new(id, bob, bob + 3)),
                Value::Span(Span::new(id, bob + 4, bob + 8)),
            ]]
        );
        let rows = call("rgx_string", &[pattern.clone(), scope.clone()], 2, &docs);
        assert_eq!(rows, vec![vec![Value::str("bob"), Value::str("work")]]);
        assert_eq!(
            call("rgx_is_match", &[pattern.clone(), scope], 0, &docs).len(),
            1
        );

        // A class-led pattern without groups, across 2-, 3- and 4-byte
        // characters of the whole document (`\w` is ASCII: `ann@é` is out).
        let rows = call(
            "rgx",
            &[Value::str(r"[^ ]+@\w+"), Value::str(text)],
            1,
            &docs,
        );
        let eve = text.find("eve").unwrap();
        assert_eq!(
            rows,
            vec![
                vec![Value::Span(Span::new(id, bob, bob + 8))],
                vec![Value::Span(Span::new(id, eve, eve + 5))],
            ]
        );
        let before = text.find(" née").unwrap();
        let head = Value::Span(docs.read().span(id, 0, before).unwrap());
        assert!(call("rgx_is_match", &[pattern, head], 0, &docs).is_empty());
    }

    #[test]
    fn a_group_that_does_not_participate_yields_no_row() {
        let docs = SharedDocs::default();
        let text = Value::str("ab xa");
        let (both, optional) = (Value::str("(a)|(b)"), Value::str("(a)(b)?"));
        for name in ["rgx", "rgx_string", "rgx_all"] {
            let rows = call(name, &[both.clone(), text.clone()], 2, &docs);
            assert!(rows.is_empty(), "{name}: {rows:?}");
        }
        assert!(docs.read().is_empty(), "no row, no document");
        for name in ["rgx", "rgx_all"] {
            let rows = call(name, &[optional.clone(), text.clone()], 2, &docs);
            let doc = docs.read().lookup("ab xa").unwrap();
            let ab = [(0, 1), (1, 2)].map(|(s, e)| Value::Span(Span::new(doc, s, e)));
            assert_eq!(rows, vec![ab.to_vec()], "{name}");
        }
        let rows = call("rgx_string", &[optional, text], 2, &docs);
        assert_eq!(rows, vec![vec![Value::str("a"), Value::str("b")]]);
    }

    #[test]
    fn a_fixed_pattern_takes_the_text_alone() {
        let docs = SharedDocs::default();
        let pair = || Regex::new("([a-z]+)=([0-9]+)").unwrap();
        let strings = fixed_rgx(pair(), true);
        assert_eq!(strings.input_arity(), Some(1));
        let text = [Value::str("k=1 v")];
        let rows = rows_of(&*strings, "kv", &text, 2, &docs).unwrap();
        assert_eq!(rows, vec![vec![Value::str("k"), Value::str("1")]]);
        let rows = rows_of(&*fixed_rgx(pair(), false), "kv", &text, 2, &docs).unwrap();
        let doc = docs.read().lookup("k=1 v").unwrap();
        let spans = [(0, 1), (2, 3)].map(|(s, e)| Value::Span(Span::new(doc, s, e)));
        assert_eq!(rows, vec![spans.to_vec()]);
    }

    #[test]
    fn pattern_cache_is_bounded() {
        let f = RgxFunction::new(Mode::FindStrings);
        let docs = SharedDocs::default();
        for i in 0..10 * PATTERN_CACHE_CAP {
            // Patterns bound from data: each one distinct, each one right.
            let pattern = format!("k{i}=(\\d+)");
            let text = format!("k{i}=7 k{}=8 k{i}=9", i + 1);
            let args = [Value::str(pattern), Value::str(text)];
            let rows = rows_of(&f, "rgx_string", &args, 1, &docs).unwrap();
            assert_eq!(rows, vec![vec![Value::str("7")], vec![Value::str("9")]]);
            assert!(f.cache.lock().len() <= PATTERN_CACHE_CAP);
        }
        assert_eq!(f.cache.lock().len(), PATTERN_CACHE_CAP);
        // A resident pattern is still served from the cache.
        let resident = f.cache.lock().keys().next().cloned().unwrap();
        let a = f.compiled(&resident).unwrap();
        let b = f.compiled(&resident).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }
}
