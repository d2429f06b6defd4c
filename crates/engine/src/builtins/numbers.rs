//! Arithmetic IE functions — the numeric primitives the paper mentions as
//! a natural extension of the string/span core (§2).

use crate::error::Result;
use crate::ie::{IeContext, IeRows};
use crate::registry::Registry;
use spannerlib_core::Value;

fn num(v: &Value, ctx: &IeContext<'_>) -> Result<f64> {
    match v {
        Value::Int(i) => Ok(*i as f64),
        Value::Float(f) => Ok(*f),
        other => Err(ctx.error(format!("expected a number, got {}", other.value_type()))),
    }
}

/// An arithmetic builtin over two numbers: `int` on two ints, where an
/// overflow fails the call rather than wrap, and `float` otherwise.
fn arithmetic(
    int: fn(i64, i64) -> Option<i64>,
    float: fn(f64, f64) -> f64,
) -> impl Fn(&[Value], &mut IeRows<'_>, &mut IeContext<'_>) -> Result<()> {
    move |args, out, ctx| {
        let value = match (&args[0], &args[1]) {
            (&Value::Int(a), &Value::Int(b)) => Value::Int(
                int(a, b).ok_or_else(|| ctx.error(format!("{a} and {b} overflow a 64-bit int")))?,
            ),
            (a, b) => Value::Float(float(num(a, ctx)?, num(b, ctx)?)),
        };
        out.push(&[value])
    }
}

/// Installs the arithmetic builtins.
pub fn install(registry: &mut Registry) {
    let add = arithmetic(i64::checked_add, |a, b| a + b);
    registry.register_per_row("add", Some(2), add);
    let sub = arithmetic(i64::checked_sub, |a, b| a - b);
    registry.register_per_row("sub", Some(2), sub);
    let mul = arithmetic(i64::checked_mul, |a, b| a * b);
    registry.register_per_row("mul", Some(2), mul);

    registry.register_per_row("div", Some(2), |args, out, ctx| {
        let b = num(&args[1], ctx)?;
        if b == 0.0 {
            return Err(ctx.error("division by zero"));
        }
        out.push(&[Value::Float(num(&args[0], ctx)? / b)])
    });

    // range(n) -> (0), (1), …, (n-1): a row generator, handy in tests and
    // synthetic workloads.
    registry.register_closure("range", Some(1), |args, out, ctx| {
        let n = args[0]
            .as_int()
            .ok_or_else(|| ctx.error("expected an int"))?;
        (0..n.max(0)).try_for_each(|i| out.push(&[Value::Int(i)]))
    });

    // to_int(s) -> (n): parse a string/span as an integer; no rows when
    // unparseable (a filtering parse, convenient in pipelines).
    registry.register_closure("to_int", Some(1), |args, out, ctx| {
        let text = match &args[0] {
            Value::Str(s) => s.to_string(),
            Value::Span(s) => ctx.span_text(s)?,
            Value::Int(i) => return out.push(&[Value::Int(*i)]),
            other => {
                let got = other.value_type();
                return Err(ctx.error(format!("expected str/span/int, got {got}")));
            }
        };
        match text.trim().parse::<i64>() {
            Ok(n) => out.push(&[Value::Int(n)]),
            Err(_) => Ok(()),
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ie::tests::rows_of;
    use crate::ie::SharedDocs;

    fn call(name: &str, args: &[Value]) -> Result<Vec<Vec<Value>>> {
        let registry = Registry::new();
        let f = registry.ie(name).unwrap().clone();
        rows_of(&*f, name, args, 1, &SharedDocs::default())
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
