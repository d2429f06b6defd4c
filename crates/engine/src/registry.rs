//! Registries for IE functions, aggregation functions, and conversions.
//!
//! Every IE function is a pure function of its arguments. Which ones an
//! IE step calls once per binding row — the constant-time builtins, not
//! worth a group or a relation — is the registry's own record
//! (`Registry::per_row`), and no host registration enters it.

use crate::aggregate::{builtin_aggregates, builtin_conversions, AggFunction, Conversion};
use crate::builtins::install_builtins;
use crate::error::{EngineError, Result};
use crate::ie::{ClosureIe, IeContext, IeFunction, IeRows};
use rustc_hash::{FxHashMap, FxHashSet};
use spannerlib_core::Value;
use std::sync::Arc;

/// The session-wide registry of callable host functionality.
pub struct Registry {
    ie: FxHashMap<String, Arc<dyn IeFunction>>,
    /// The constant-time builtins, called once per binding row: a row
    /// of a relation, or a group of rows by argument vector, costs more
    /// than the call. A host registration of the name leaves the set.
    per_row: FxHashSet<String>,
    aggregates: FxHashMap<String, Arc<dyn AggFunction>>,
    conversions: FxHashMap<String, Arc<dyn Conversion>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A registry pre-populated with the builtin IE functions (`rgx`
    /// family, string/span/arithmetic helpers) and builtin aggregations
    /// (`count`, `sum`, `min`, `max`, `avg`, `lex_concat`).
    pub fn new() -> Self {
        let mut r = Registry {
            ie: FxHashMap::default(),
            per_row: FxHashSet::default(),
            aggregates: FxHashMap::default(),
            conversions: FxHashMap::default(),
        };
        install_builtins(&mut r);
        for (name, agg) in builtin_aggregates() {
            r.aggregates.insert(name, agg);
        }
        for (name, conv) in builtin_conversions() {
            r.conversions.insert(name, conv);
        }
        r
    }

    /// Registers (or replaces) an IE function object — grouped by
    /// argument vector, also under a builtin's name.
    pub fn register_ie(&mut self, name: &str, f: Arc<dyn IeFunction>) {
        self.per_row.remove(name);
        self.ie.insert(name.to_string(), f);
    }

    /// Registers a constant-time builtin, which an IE step calls once
    /// per binding row: never grouped by argument vector, and never
    /// planned as the relation of a shared call.
    pub(crate) fn register_per_row<F>(&mut self, name: &str, arity: Option<usize>, f: F)
    where
        F: Fn(&[Value], &mut IeRows<'_>, &mut IeContext<'_>) -> Result<()> + Send + Sync + 'static,
    {
        self.register_closure(name, arity, f);
        self.per_row.insert(name.to_string());
    }

    /// Whether `name` is a builtin [`Registry::register_per_row`] put in.
    pub(crate) fn per_row(&self, name: &str) -> bool {
        self.per_row.contains(name)
    }

    /// Registers a closure as an IE function — the `session.register(foo,
    /// …)` of the paper's §3.3. `arity` is the input arity (`None` =
    /// variadic).
    pub fn register_closure<F>(&mut self, name: &str, arity: Option<usize>, f: F)
    where
        F: Fn(&[Value], &mut IeRows<'_>, &mut IeContext<'_>) -> Result<()> + Send + Sync + 'static,
    {
        self.register_ie(name, Arc::new(ClosureIe::new(arity, f)));
    }

    /// Looks up an IE function.
    pub fn ie(&self, name: &str) -> Result<&Arc<dyn IeFunction>> {
        self.ie
            .get(name)
            .ok_or_else(|| EngineError::UnknownIeFunction(name.to_string()))
    }

    /// Whether an IE function named `name` exists.
    pub fn has_ie(&self, name: &str) -> bool {
        self.ie.contains_key(name)
    }

    /// Registers (or replaces) an aggregation function.
    pub fn register_aggregate(&mut self, name: &str, f: Arc<dyn AggFunction>) {
        self.aggregates.insert(name.to_string(), f);
    }

    /// Looks up an aggregation function.
    pub fn aggregate(&self, name: &str) -> Result<&Arc<dyn AggFunction>> {
        self.aggregates
            .get(name)
            .ok_or_else(|| EngineError::UnknownAggregate(name.to_string()))
    }

    /// Registers (or replaces) a conversion function usable inside
    /// aggregation terms.
    pub fn register_conversion(&mut self, name: &str, f: Arc<dyn Conversion>) {
        self.conversions.insert(name.to_string(), f);
    }

    /// Looks up a conversion function.
    pub fn conversion(&self, name: &str) -> Result<&Arc<dyn Conversion>> {
        self.conversions
            .get(name)
            .ok_or_else(|| EngineError::UnknownConversion(name.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ie::tests::rows_of;
    use crate::ie::SharedDocs;

    #[test]
    fn builtins_present() {
        let r = Registry::new();
        for f in [
            "rgx",
            "rgx_string",
            "rgx_all",
            "concat",
            "contains",
            "format",
        ] {
            assert!(r.has_ie(f), "missing builtin {f}");
        }
        for a in ["count", "sum", "min", "max", "avg", "lex_concat"] {
            assert!(r.aggregate(a).is_ok(), "missing aggregate {a}");
        }
        assert!(r.conversion("str").is_ok());
    }

    #[test]
    fn closure_registration_and_call() {
        let mut r = Registry::new();
        r.register_closure("is_even", Some(1), |args, out, _ctx| {
            out.keep(args[0].as_int().unwrap() % 2 == 0)
        });
        let f = r.ie("is_even").unwrap().clone();
        let docs = SharedDocs::default();
        let rows = |n| rows_of(&*f, "is_even", &[Value::Int(n)], 0, &docs).unwrap();
        assert_eq!(rows(4).len(), 1);
        assert_eq!(rows(3).len(), 0);
    }

    #[test]
    fn unknown_lookups_error() {
        let r = Registry::new();
        assert!(matches!(
            r.ie("nope"),
            Err(EngineError::UnknownIeFunction(_))
        ));
        assert!(matches!(
            r.aggregate("nope"),
            Err(EngineError::UnknownAggregate(_))
        ));
    }

    #[test]
    fn user_function_can_shadow_builtin() {
        let mut r = Registry::new();
        r.register_closure("concat", Some(1), |_args, _out, _ctx| Ok(()));
        assert_eq!(r.ie("concat").unwrap().input_arity(), Some(1));
    }
}
