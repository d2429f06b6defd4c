//! Arithmetic IE functions — the numeric primitives the paper mentions as
//! a natural extension of the string/span core (§2).

use crate::error::{EngineError, Result};
use crate::registry::Registry;
use spannerlib_core::Value;

fn num(function: &str, v: &Value) -> Result<f64> {
    match v {
        Value::Int(i) => Ok(*i as f64),
        Value::Float(f) => Ok(*f),
        other => Err(EngineError::IeRuntime {
            function: function.to_string(),
            msg: format!("expected a number, got {}", other.value_type()),
        }),
    }
}

fn both_int(a: &Value, b: &Value) -> bool {
    matches!((a, b), (Value::Int(_), Value::Int(_)))
}

/// Installs the arithmetic builtins.
pub fn install(registry: &mut Registry) {
    registry.register_closure_uncached("add", Some(2), |args, _ctx| {
        Ok(vec![vec![if both_int(&args[0], &args[1]) {
            Value::Int(args[0].as_int().unwrap() + args[1].as_int().unwrap())
        } else {
            Value::Float(num("add", &args[0])? + num("add", &args[1])?)
        }]])
    });

    registry.register_closure_uncached("sub", Some(2), |args, _ctx| {
        Ok(vec![vec![if both_int(&args[0], &args[1]) {
            Value::Int(args[0].as_int().unwrap() - args[1].as_int().unwrap())
        } else {
            Value::Float(num("sub", &args[0])? - num("sub", &args[1])?)
        }]])
    });

    registry.register_closure_uncached("mul", Some(2), |args, _ctx| {
        Ok(vec![vec![if both_int(&args[0], &args[1]) {
            Value::Int(args[0].as_int().unwrap() * args[1].as_int().unwrap())
        } else {
            Value::Float(num("mul", &args[0])? * num("mul", &args[1])?)
        }]])
    });

    registry.register_closure_uncached("div", Some(2), |args, _ctx| {
        let b = num("div", &args[1])?;
        if b == 0.0 {
            return Err(EngineError::IeRuntime {
                function: "div".into(),
                msg: "division by zero".into(),
            });
        }
        Ok(vec![vec![Value::Float(num("div", &args[0])? / b)]])
    });

    // range(n) -> (0), (1), …, (n-1): a row generator, handy in tests and
    // synthetic workloads.
    registry.register_closure("range", Some(1), |args, _ctx| {
        let n = args[0].as_int().ok_or_else(|| EngineError::IeRuntime {
            function: "range".into(),
            msg: "expected an int".into(),
        })?;
        Ok((0..n.max(0)).map(|i| vec![Value::Int(i)]).collect())
    });

    // to_int(s) -> (n): parse a string/span as an integer; no rows when
    // unparseable (a filtering parse, convenient in pipelines).
    registry.register_closure("to_int", Some(1), |args, ctx| {
        let text = match &args[0] {
            Value::Str(s) => s.to_string(),
            Value::Span(s) => ctx.span_text(s)?,
            Value::Int(i) => return Ok(vec![vec![Value::Int(*i)]]),
            other => {
                return Err(EngineError::IeRuntime {
                    function: "to_int".into(),
                    msg: format!("expected str/span/int, got {}", other.value_type()),
                })
            }
        };
        Ok(match text.trim().parse::<i64>() {
            Ok(n) => vec![vec![Value::Int(n)]],
            Err(_) => vec![],
        })
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ie::{IeContext, IeOutput, SharedDocs};

    fn call(name: &str, args: &[Value]) -> Result<IeOutput> {
        let registry = Registry::new();
        let f = registry.ie(name).unwrap().clone();
        let docs = SharedDocs::default();
        let mut ctx = IeContext::new(&docs);
        f.call(args, 1, &mut ctx)
    }

    #[test]
    fn int_arithmetic_stays_int() {
        assert_eq!(
            call("add", &[Value::Int(2), Value::Int(3)]).unwrap()[0][0],
            Value::Int(5)
        );
        assert_eq!(
            call("mul", &[Value::Int(2), Value::Int(3)]).unwrap()[0][0],
            Value::Int(6)
        );
    }

    #[test]
    fn mixed_arithmetic_promotes() {
        assert_eq!(
            call("add", &[Value::Int(2), Value::Float(0.5)]).unwrap()[0][0],
            Value::Float(2.5)
        );
    }

    #[test]
    fn division_by_zero_errors() {
        assert!(call("div", &[Value::Int(1), Value::Int(0)]).is_err());
        assert_eq!(
            call("div", &[Value::Int(7), Value::Int(2)]).unwrap()[0][0],
            Value::Float(3.5)
        );
    }

    #[test]
    fn range_generates_rows() {
        assert_eq!(call("range", &[Value::Int(3)]).unwrap().len(), 3);
        assert_eq!(call("range", &[Value::Int(-1)]).unwrap().len(), 0);
    }

    #[test]
    fn to_int_parses_or_filters() {
        assert_eq!(
            call("to_int", &[Value::str(" 42 ")]).unwrap(),
            vec![vec![Value::Int(42)]]
        );
        assert!(call("to_int", &[Value::str("nope")]).unwrap().is_empty());
    }
}
