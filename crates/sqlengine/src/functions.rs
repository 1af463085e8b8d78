//! Scalar function registry: built-ins plus stored (user-defined) functions.
//!
//! The paper (§3.2, §4.1) requires stored functions at the server for row
//! conditions that plain SQL predicates cannot express — set overlap for
//! structure options, interval overlap for effectivities, and PDM-computed
//! "transient attributes". The PDM layer registers those here; SQL sees them
//! as ordinary function calls.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::value::Value;

/// A scalar function: slice of argument values in, one value out.
pub type ScalarFn = Arc<dyn Fn(&[Value]) -> Result<Value> + Send + Sync>;

/// Case-insensitive registry of scalar functions.
#[derive(Clone, Default)]
pub struct FunctionRegistry {
    funcs: HashMap<String, ScalarFn>,
}

impl fmt::Debug for FunctionRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names: Vec<&str> = self.funcs.keys().map(String::as_str).collect();
        names.sort_unstable();
        f.debug_struct("FunctionRegistry")
            .field("functions", &names)
            .finish()
    }
}

impl FunctionRegistry {
    /// Registry preloaded with the standard built-ins.
    pub fn with_builtins() -> Self {
        let mut reg = FunctionRegistry::default();
        reg.register("abs", |args| {
            expect_args("abs", args, 1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(i.abs())),
                Value::Float(f) => Ok(Value::Float(f.abs())),
                other => Err(Error::Eval(format!("abs() expects a number, got {other}"))),
            }
        });
        reg.register("upper", |args| {
            expect_args("upper", args, 1)?;
            text_map(&args[0], "upper", |s| s.to_uppercase())
        });
        reg.register("lower", |args| {
            expect_args("lower", args, 1)?;
            text_map(&args[0], "lower", |s| s.to_lowercase())
        });
        reg.register("length", |args| {
            expect_args("length", args, 1)?;
            match &args[0] {
                Value::Null => Ok(Value::Null),
                Value::Text(s) => Ok(Value::Int(s.chars().count() as i64)),
                other => Err(Error::Eval(format!("length() expects text, got {other}"))),
            }
        });
        reg.register("coalesce", |args| {
            if args.is_empty() {
                return Err(Error::Eval("coalesce() requires arguments".into()));
            }
            Ok(args
                .iter()
                .find(|v| !v.is_null())
                .cloned()
                .unwrap_or(Value::Null))
        });
        reg.register("nullif", |args| {
            expect_args("nullif", args, 2)?;
            match args[0].sql_eq(&args[1]) {
                Some(true) => Ok(Value::Null),
                _ => Ok(args[0].clone()),
            }
        });
        reg
    }

    /// Register (or replace) a function under a case-insensitive name.
    pub fn register(
        &mut self,
        name: &str,
        f: impl Fn(&[Value]) -> Result<Value> + Send + Sync + 'static,
    ) {
        self.funcs.insert(name.to_ascii_lowercase(), Arc::new(f));
    }

    pub fn get(&self, name: &str) -> Option<&ScalarFn> {
        self.funcs.get(&*crate::catalog::lower(name))
    }

    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    pub fn call(&self, name: &str, args: &[Value]) -> Result<Value> {
        let f = self
            .get(name)
            .ok_or_else(|| Error::Bind(format!("unknown function '{name}'")))?;
        f(args)
    }
}

fn expect_args(name: &str, args: &[Value], n: usize) -> Result<()> {
    if args.len() == n {
        Ok(())
    } else {
        Err(Error::Eval(format!(
            "{name}() expects {n} argument(s), got {}",
            args.len()
        )))
    }
}

fn text_map(v: &Value, name: &str, f: impl Fn(&str) -> String) -> Result<Value> {
    match v {
        Value::Null => Ok(Value::Null),
        Value::Text(s) => Ok(Value::Text(f(s))),
        other => Err(Error::Eval(format!("{name}() expects text, got {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_work() {
        let reg = FunctionRegistry::with_builtins();
        assert_eq!(reg.call("ABS", &[Value::Int(-3)]).unwrap(), Value::Int(3));
        assert_eq!(
            reg.call("upper", &[Value::Text("abc".into())]).unwrap(),
            Value::Text("ABC".into())
        );
        assert_eq!(
            reg.call("length", &[Value::Text("Müller".into())]).unwrap(),
            Value::Int(6)
        );
    }

    #[test]
    fn coalesce_picks_first_non_null() {
        let reg = FunctionRegistry::with_builtins();
        assert_eq!(
            reg.call("coalesce", &[Value::Null, Value::Int(2), Value::Int(3)])
                .unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            reg.call("coalesce", &[Value::Null, Value::Null]).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn nullif_semantics() {
        let reg = FunctionRegistry::with_builtins();
        assert_eq!(
            reg.call("nullif", &[Value::Int(1), Value::Int(1)]).unwrap(),
            Value::Null
        );
        assert_eq!(
            reg.call("nullif", &[Value::Int(1), Value::Int(2)]).unwrap(),
            Value::Int(1)
        );
    }

    #[test]
    fn null_propagation() {
        let reg = FunctionRegistry::with_builtins();
        assert_eq!(reg.call("abs", &[Value::Null]).unwrap(), Value::Null);
        assert_eq!(reg.call("upper", &[Value::Null]).unwrap(), Value::Null);
    }

    #[test]
    fn user_function_registration_and_shadowing() {
        let mut reg = FunctionRegistry::with_builtins();
        reg.register("overlaps_interval", |args| {
            expect_args("overlaps_interval", args, 4)?;
            match (&args[0], &args[1], &args[2], &args[3]) {
                (Value::Int(a0), Value::Int(a1), Value::Int(b0), Value::Int(b1)) => {
                    Ok(Value::Bool(a0 <= b1 && b0 <= a1))
                }
                _ => Ok(Value::Null),
            }
        });
        assert_eq!(
            reg.call(
                "OVERLAPS_INTERVAL",
                &[Value::Int(1), Value::Int(5), Value::Int(4), Value::Int(9)]
            )
            .unwrap(),
            Value::Bool(true)
        );
        // replace an existing name
        reg.register("abs", |_| Ok(Value::Int(42)));
        assert_eq!(reg.call("abs", &[Value::Int(-3)]).unwrap(), Value::Int(42));
    }

    #[test]
    fn unknown_function_is_bind_error() {
        let reg = FunctionRegistry::with_builtins();
        assert!(matches!(reg.call("nope", &[]), Err(Error::Bind(_))));
    }

    #[test]
    fn wrong_arity_is_eval_error() {
        let reg = FunctionRegistry::with_builtins();
        assert!(matches!(
            reg.call("abs", &[Value::Int(1), Value::Int(2)]),
            Err(Error::Eval(_))
        ));
    }
}
