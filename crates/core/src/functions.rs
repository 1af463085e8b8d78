//! PDM stored functions (§3.2, §4.1): predicates plain SQL cannot express —
//! interval overlap for effectivities, set overlap for structure options,
//! and a transient-attribute example. Registered both at the database server
//! (so early evaluation can call them in WHERE clauses) and in the client's
//! registry (so late evaluation applies identical semantics after transfer).

use pdm_sql::functions::FunctionRegistry;
use pdm_sql::{Database, Error, Value};

/// Register the PDM function set into a registry.
pub fn register_into(reg: &mut FunctionRegistry) {
    // overlaps_interval(a_from, a_to, b_from, b_to) — closed-interval
    // overlap, the effectivity check of §3.1 example 3.
    reg.register("overlaps_interval", |args| {
        if args.len() != 4 {
            return Err(Error::Eval(
                "overlaps_interval() expects 4 arguments".into(),
            ));
        }
        let nums: Option<Vec<i64>> = args
            .iter()
            .map(|v| match v {
                Value::Int(i) => Some(*i),
                _ => None,
            })
            .collect();
        match nums {
            Some(n) => Ok(Value::Bool(n[0] <= n[3] && n[2] <= n[1])),
            None => Ok(Value::Null),
        }
    });

    // set_overlaps(a, b) — comma-separated option sets share an element;
    // the structure-option check ("relation.strc_opt overlaps
    // user_strc_opt").
    reg.register("set_overlaps", |args| {
        if args.len() != 2 {
            return Err(Error::Eval("set_overlaps() expects 2 arguments".into()));
        }
        match (&args[0], &args[1]) {
            (Value::Text(a), Value::Text(b)) => {
                let left: std::collections::HashSet<&str> = a
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .collect();
                let found = b
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .any(|s| left.contains(s));
                Ok(Value::Bool(found))
            }
            _ => Ok(Value::Null),
        }
    });

    // effective_name(name, obid) — a transient attribute computed by the
    // PDM system (§4.1): a display identifier derived from stored columns.
    reg.register("effective_name", |args| {
        if args.len() != 2 {
            return Err(Error::Eval("effective_name() expects 2 arguments".into()));
        }
        match (&args[0], &args[1]) {
            (Value::Text(name), Value::Int(obid)) => Ok(Value::Text(format!("{name}#{obid}"))),
            _ => Ok(Value::Null),
        }
    });
}

/// Install the PDM functions at a database server.
pub fn register_pdm_functions(db: &mut Database) {
    register_into(db.catalog.functions_mut());
}

/// A fresh client-side registry with builtins plus the PDM functions.
pub fn client_registry() -> FunctionRegistry {
    let mut reg = FunctionRegistry::with_builtins();
    register_into(&mut reg);
    reg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> FunctionRegistry {
        client_registry()
    }

    #[test]
    fn interval_overlap_cases() {
        let r = reg();
        let call = |a: i64, b: i64, c: i64, d: i64| {
            r.call(
                "overlaps_interval",
                &[Value::Int(a), Value::Int(b), Value::Int(c), Value::Int(d)],
            )
            .unwrap()
        };
        assert_eq!(call(1, 3, 4, 10), Value::Bool(false)); // link 1001 vs 4..10
        assert_eq!(call(4, 10, 1, 10), Value::Bool(true));
        assert_eq!(call(5, 5, 5, 5), Value::Bool(true)); // touching point
        assert_eq!(call(1, 4, 4, 10), Value::Bool(true)); // closed boundary
    }

    #[test]
    fn interval_overlap_null_on_non_ints() {
        let r = reg();
        assert_eq!(
            r.call(
                "overlaps_interval",
                &[Value::Null, Value::Int(1), Value::Int(1), Value::Int(2)]
            )
            .unwrap(),
            Value::Null
        );
    }

    #[test]
    fn set_overlap_cases() {
        let r = reg();
        let call = |a: &str, b: &str| {
            r.call("set_overlaps", &[Value::from(a), Value::from(b)])
                .unwrap()
        };
        assert_eq!(call("OPTA,OPTB", "OPTB,OPTC"), Value::Bool(true));
        assert_eq!(call("OPTA", "OPTB"), Value::Bool(false));
        assert_eq!(call("", "OPTA"), Value::Bool(false));
        assert_eq!(call("OPTA, OPTB", "optb,OPTB"), Value::Bool(true)); // trims spaces
    }

    #[test]
    fn transient_attribute() {
        let r = reg();
        assert_eq!(
            r.call("effective_name", &[Value::from("Wing"), Value::Int(42)])
                .unwrap(),
            Value::Text("Wing#42".into())
        );
    }

    #[test]
    fn registered_at_server_usable_in_sql() {
        let mut db = Database::new();
        register_pdm_functions(&mut db);
        db.execute("CREATE TABLE l (eff_from INTEGER, eff_to INTEGER)")
            .unwrap();
        db.execute("INSERT INTO l VALUES (1, 3), (4, 10)").unwrap();
        let rs = db
            .query("SELECT COUNT(*) AS n FROM l WHERE OVERLAPS_INTERVAL(eff_from, eff_to, 5, 6) = TRUE")
            .unwrap();
        assert_eq!(rs.rows[0].get(0), &Value::Int(1));
    }
}
