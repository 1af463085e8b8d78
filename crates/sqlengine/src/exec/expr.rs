//! Evaluation of compiled expressions with SQL three-valued logic.
//!
//! Boolean "unknown" is represented as `Value::Null`; `WHERE` keeps a row
//! only when the predicate evaluates to `Bool(true)`. A column, a literal or
//! a bound value evaluates to a *borrow* of the stored value, so predicates
//! and join keys compare without copying; a value is cloned only when the
//! caller keeps it (`into_owned`: a projected item, a hash key, an aggregate
//! state).

use std::borrow::Cow;

use crate::ast::BinOp;
use crate::error::{Error, Result};
use crate::exec::plan::{Op, PExpr};
use crate::exec::{subquery, Cx, Frame};
use crate::value::Value;

fn owned<'v>(v: Value) -> Result<Cow<'v, Value>> {
    Ok(Cow::Owned(v))
}

fn bool3<'v>(b: Option<bool>) -> Result<Cow<'v, Value>> {
    owned(b.map_or(Value::Null, Value::Bool))
}

impl PExpr {
    /// Does the predicate hold (is it TRUE, not FALSE or unknown) for `f`?
    pub(crate) fn holds(&self, cx: Cx<'_>, f: &Frame<'_, '_>) -> Result<bool> {
        Ok(self.eval(cx, f)?.is_true())
    }

    /// Evaluate for the row in `f`.
    pub(crate) fn eval<'v>(&'v self, cx: Cx<'v>, f: &Frame<'_, 'v>) -> Result<Cow<'v, Value>> {
        let (op, args) = match self {
            PExpr::Const(c) => return Ok(Cow::Borrowed(c.get(cx.rt.params))),
            PExpr::Column {
                depth,
                binding,
                ordinal,
            } => {
                let mut frame = f;
                for _ in 0..*depth {
                    frame = frame.outer.expect("scope depth fixed at compile time");
                }
                return Ok(Cow::Borrowed(&frame.row[*binding][*ordinal]));
            }
            PExpr::Agg(slot) => return owned(f.aggs[*slot].clone()),
            PExpr::Fail(e) => return Err(e.clone()),
            PExpr::Op { op, args } => (op, args.as_slice()),
        };
        let arg = |i: usize| args[i].eval(cx, f);
        match op {
            Op::Binary(op) => eval_binary(cx, f, &args[0], *op, &args[1]),
            Op::Not => match &*arg(0)? {
                Value::Null => owned(Value::Null),
                Value::Bool(b) => owned(Value::Bool(!b)),
                other => Err(Error::Eval(format!("NOT applied to non-boolean {other}"))),
            },
            Op::Negate => match &*arg(0)? {
                Value::Null => owned(Value::Null),
                Value::Int(i) => owned(Value::Int(-i)),
                Value::Float(x) => owned(Value::Float(-x)),
                other => Err(Error::Eval(format!("unary minus on non-number {other}"))),
            },
            Op::IsNull { negated } => owned(Value::Bool(arg(0)?.is_null() != *negated)),
            Op::Cast(dtype) => arg(0)?.cast(*dtype).map(Cow::Owned),
            Op::InList { negated } => {
                let needle = arg(0)?;
                let mut saw_null = needle.is_null();
                let mut found = false;
                for item in &args[1..] {
                    match needle.sql_eq(&*item.eval(cx, f)?) {
                        Some(true) => {
                            found = true;
                            break;
                        }
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                owned(three_valued_in(found, saw_null, *negated))
            }
            Op::InSubquery { sub, negated } => {
                let needle = arg(0)?;
                let (found, saw_null) = subquery::in_subquery(cx, f, sub, &needle)?;
                let saw_null = saw_null || needle.is_null();
                owned(three_valued_in(found, saw_null, *negated))
            }
            Op::Exists { sub, negated } => {
                owned(Value::Bool(subquery::exists(cx, f, sub)? != *negated))
            }
            Op::Scalar(sub) => subquery::scalar(cx, f, sub).map(Cow::Owned),
            Op::Between { negated } => {
                let (v, lo, hi) = (arg(0)?, arg(1)?, arg(2)?);
                let ge = v.sql_cmp(&lo).map(|o| o != std::cmp::Ordering::Less);
                let le = v.sql_cmp(&hi).map(|o| o != std::cmp::Ordering::Greater);
                bool3(and3(ge, le).map(|b| b != *negated))
            }
            Op::Like { negated } => match (&*arg(0)?, &*arg(1)?) {
                (Value::Null, _) | (_, Value::Null) => owned(Value::Null),
                (Value::Text(s), Value::Text(pat)) => {
                    owned(Value::Bool(like_match(s, pat) != *negated))
                }
                (a, b) => Err(Error::Eval(format!(
                    "LIKE expects text operands, got {a} LIKE {b}"
                ))),
            },
            Op::Call { name, func } => {
                let mut values = Vec::with_capacity(args.len());
                for a in args {
                    values.push(a.eval(cx, f)?.into_owned());
                }
                let func = func
                    .as_ref()
                    .ok_or_else(|| Error::Bind(format!("unknown function '{name}'")))?;
                func(&values).map(Cow::Owned)
            }
            Op::Case => {
                let mut branches = args.chunks_exact(2);
                for branch in &mut branches {
                    if branch[0].holds(cx, f)? {
                        return branch[1].eval(cx, f);
                    }
                }
                match branches.remainder() {
                    [otherwise] => otherwise.eval(cx, f),
                    _ => owned(Value::Null),
                }
            }
        }
    }
}

fn eval_binary<'v>(
    cx: Cx<'v>,
    f: &Frame<'_, 'v>,
    left: &'v PExpr,
    op: BinOp,
    right: &'v PExpr,
) -> Result<Cow<'v, Value>> {
    // AND/OR get short-circuit three-valued treatment.
    if op == BinOp::And || op == BinOp::Or {
        let decides = op == BinOp::Or;
        let l = to_bool3(&*left.eval(cx, f)?)?;
        if l == Some(decides) {
            return owned(Value::Bool(decides));
        }
        let r = to_bool3(&*right.eval(cx, f)?)?;
        return bool3(if decides { or3(l, r) } else { and3(l, r) });
    }

    let l = left.eval(cx, f)?;
    let r = right.eval(cx, f)?;
    match op {
        BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
            if l.is_null() || r.is_null() {
                return owned(Value::Null);
            }
            let ord = l.sql_cmp(&r).ok_or_else(|| {
                Error::Eval(format!("cannot compare {l} with {r} (type mismatch)"))
            })?;
            owned(Value::Bool(match op {
                BinOp::Eq => ord.is_eq(),
                BinOp::NotEq => ord.is_ne(),
                BinOp::Lt => ord.is_lt(),
                BinOp::LtEq => ord.is_le(),
                BinOp::Gt => ord.is_gt(),
                _ => ord.is_ge(),
            }))
        }
        BinOp::Plus | BinOp::Minus | BinOp::Mul | BinOp::Div | BinOp::Mod => {
            eval_arithmetic(op, &l, &r).map(Cow::Owned)
        }
        BinOp::Concat => owned(match (&*l, &*r) {
            (Value::Null, _) | (_, Value::Null) => Value::Null,
            (a, b) => Value::Text(format!("{}{}", text_of(a), text_of(b))),
        }),
        BinOp::And | BinOp::Or => unreachable!("handled above"),
    }
}

/// SQL LIKE matching: `%` matches any sequence, `_` any single character.
/// Case-sensitive, no escape character (the paper's queries don't need one).
///
/// Two pointers and the last `%`: on a mismatch only that `%` takes one
/// character more, because whatever an earlier `%` could swallow instead,
/// the last one can too. O(|s| · |pattern|), and nothing is allocated.
pub fn like_match(s: &str, pattern: &str) -> bool {
    let (mut s, mut p) = (s.chars(), pattern.chars());
    // After the last `%` read: the pattern behind it, and the text from
    // where it stopped swallowing.
    let mut star = None;
    loop {
        let (mut s_next, mut p_next) = (s.clone(), p.clone());
        let step = match p_next.next() {
            Some('%') => {
                star = Some((p_next.clone(), s.clone()));
                p = p_next;
                continue;
            }
            Some(c) => s_next.next().is_some_and(|sc| c == '_' || c == sc),
            None if s_next.next().is_none() => return true,
            None => false,
        };
        if step {
            (s, p) = (s_next, p_next);
            continue;
        }
        let Some((after_star, swallowed)) = &mut star else {
            return false;
        };
        if swallowed.next().is_none() {
            return false;
        }
        (s, p) = (swallowed.clone(), after_star.clone());
    }
}

fn text_of(v: &Value) -> Cow<'_, str> {
    match v {
        Value::Text(s) => Cow::Borrowed(s),
        other => Cow::Owned(other.to_string()),
    }
}

fn eval_arithmetic(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => {
            let a = *a;
            let b = *b;
            match op {
                BinOp::Plus => Ok(Value::Int(a.wrapping_add(b))),
                BinOp::Minus => Ok(Value::Int(a.wrapping_sub(b))),
                BinOp::Mul => Ok(Value::Int(a.wrapping_mul(b))),
                BinOp::Div => {
                    if b == 0 {
                        Err(Error::Eval("division by zero".into()))
                    } else {
                        Ok(Value::Int(a / b))
                    }
                }
                BinOp::Mod => {
                    if b == 0 {
                        Err(Error::Eval("modulo by zero".into()))
                    } else {
                        Ok(Value::Int(a % b))
                    }
                }
                _ => unreachable!(),
            }
        }
        _ => {
            let a = num_of(l)?;
            let b = num_of(r)?;
            match op {
                BinOp::Plus => Ok(Value::Float(a + b)),
                BinOp::Minus => Ok(Value::Float(a - b)),
                BinOp::Mul => Ok(Value::Float(a * b)),
                BinOp::Div => {
                    if b == 0.0 {
                        Err(Error::Eval("division by zero".into()))
                    } else {
                        Ok(Value::Float(a / b))
                    }
                }
                BinOp::Mod => Ok(Value::Float(a % b)),
                _ => unreachable!(),
            }
        }
    }
}

fn num_of(v: &Value) -> Result<f64> {
    match v {
        Value::Int(i) => Ok(*i as f64),
        Value::Float(f) => Ok(*f),
        other => Err(Error::Eval(format!("expected a number, got {other}"))),
    }
}

fn to_bool3(v: &Value) -> Result<Option<bool>> {
    match v {
        Value::Bool(b) => Ok(Some(*b)),
        Value::Null => Ok(None),
        other => Err(Error::Eval(format!("expected a boolean, got {other}"))),
    }
}

fn and3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

fn or3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

/// Three-valued result of `[NOT] IN`: found → match; otherwise unknown if a
/// NULL was involved.
fn three_valued_in(found: bool, saw_null: bool, negated: bool) -> Value {
    if found {
        Value::Bool(!negated)
    } else if saw_null {
        Value::Null
    } else {
        Value::Bool(negated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::exec::plan::Compiler;
    use crate::exec::ExecConfig;
    use crate::parser::parse_expr;
    use crate::schema::{Column, Schema};
    use crate::storage::Table;
    use crate::value::DataType;

    /// Compile `sql` against a one-row table `t` with the given columns and
    /// evaluate it for that row.
    fn eval(sql: &str, cols: &[(&str, Value)]) -> Result<Value> {
        let catalog = Catalog::new();
        let config = ExecConfig::default();
        let schema = Schema::new(
            cols.iter()
                .map(|(n, v)| Column::new(*n, v.data_type().unwrap_or(DataType::Int)))
                .collect(),
        );
        let table = Table::new("t", schema);
        let row: Vec<Value> = cols.iter().map(|(_, v)| v.clone()).collect();
        let e = parse_expr(sql)?;
        let mut compiler = Compiler::new(&catalog, &config);
        compiler.bind_table(&table);
        let compiled = compiler.expr(&e)?;
        let disabled = pdm_obs::Recorder::disabled();
        let rt = compiler.rt(&disabled);
        let value = compiled
            .eval(rt.cx(), &Frame::of(&[row.as_slice()], None))?
            .into_owned();
        Ok(value)
    }

    #[test]
    fn comparisons() {
        assert_eq!(eval("1 < 2", &[]).unwrap(), Value::Bool(true));
        assert_eq!(eval("'a' <> 'b'", &[]).unwrap(), Value::Bool(true));
        assert_eq!(eval("2 >= 2.0", &[]).unwrap(), Value::Bool(true));
    }

    #[test]
    fn null_comparison_is_unknown() {
        assert_eq!(eval("NULL = 1", &[]).unwrap(), Value::Null);
        assert_eq!(eval("NULL <> NULL", &[]).unwrap(), Value::Null);
    }

    #[test]
    fn type_mismatch_comparison_errors() {
        assert!(eval("'a' = 1", &[]).is_err());
    }

    #[test]
    fn three_valued_and_or() {
        assert_eq!(eval("FALSE AND NULL", &[]).unwrap(), Value::Bool(false));
        assert_eq!(eval("TRUE AND NULL", &[]).unwrap(), Value::Null);
        assert_eq!(eval("TRUE OR NULL", &[]).unwrap(), Value::Bool(true));
        assert_eq!(eval("FALSE OR NULL", &[]).unwrap(), Value::Null);
        assert_eq!(eval("NOT NULL", &[]).unwrap(), Value::Null);
    }

    #[test]
    fn short_circuit_avoids_rhs_errors() {
        // RHS would be a type error, but LHS decides.
        assert_eq!(
            eval("FALSE AND ('a' = 1)", &[]).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(eval("TRUE OR ('a' = 1)", &[]).unwrap(), Value::Bool(true));
    }

    #[test]
    fn arithmetic() {
        assert_eq!(eval("1 + 2 * 3", &[]).unwrap(), Value::Int(7));
        assert_eq!(eval("7 / 2", &[]).unwrap(), Value::Int(3));
        assert_eq!(eval("7.0 / 2", &[]).unwrap(), Value::Float(3.5));
        assert_eq!(eval("7 % 4", &[]).unwrap(), Value::Int(3));
        assert!(eval("1 / 0", &[]).is_err());
        assert_eq!(eval("1 + NULL", &[]).unwrap(), Value::Null);
    }

    #[test]
    fn concat() {
        assert_eq!(
            eval("'a' || 'b' || 1", &[]).unwrap(),
            Value::Text("ab1".into())
        );
        assert_eq!(eval("'a' || NULL", &[]).unwrap(), Value::Null);
    }

    #[test]
    fn in_list_three_valued() {
        assert_eq!(eval("2 IN (1, 2)", &[]).unwrap(), Value::Bool(true));
        assert_eq!(eval("3 IN (1, 2)", &[]).unwrap(), Value::Bool(false));
        assert_eq!(eval("3 IN (1, NULL)", &[]).unwrap(), Value::Null);
        assert_eq!(eval("3 NOT IN (1, NULL)", &[]).unwrap(), Value::Null);
        assert_eq!(eval("1 NOT IN (1, NULL)", &[]).unwrap(), Value::Bool(false));
    }

    #[test]
    fn between_and_is_null() {
        assert_eq!(eval("5 BETWEEN 1 AND 10", &[]).unwrap(), Value::Bool(true));
        assert_eq!(
            eval("5 NOT BETWEEN 1 AND 4", &[]).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(eval("NULL BETWEEN 1 AND 4", &[]).unwrap(), Value::Null);
        assert_eq!(eval("NULL IS NULL", &[]).unwrap(), Value::Bool(true));
        assert_eq!(eval("1 IS NOT NULL", &[]).unwrap(), Value::Bool(true));
    }

    #[test]
    fn column_lookup() {
        let cols = [("make_or_buy", Value::Text("make".into()))];
        assert_eq!(
            eval("make_or_buy <> 'buy'", &cols).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval("t.make_or_buy = 'make'", &cols).unwrap(),
            Value::Bool(true)
        );
        assert!(eval("nosuch", &cols).is_err());
    }

    #[test]
    fn case_expression() {
        assert_eq!(
            eval("CASE WHEN 1 = 1 THEN 'yes' ELSE 'no' END", &[]).unwrap(),
            Value::Text("yes".into())
        );
        assert_eq!(
            eval("CASE WHEN 1 = 2 THEN 'yes' END", &[]).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn cast_in_expression() {
        assert_eq!(
            eval("CAST ('12' AS integer) + 1", &[]).unwrap(),
            Value::Int(13)
        );
    }

    #[test]
    fn functions_via_registry() {
        assert_eq!(eval("ABS(-3)", &[]).unwrap(), Value::Int(3));
        assert_eq!(
            eval("COALESCE(NULL, 'x')", &[]).unwrap(),
            Value::Text("x".into())
        );
    }

    /// The recursive matcher `like_match` replaced: exponential in the
    /// number of `%`, kept as the oracle of its semantics.
    fn like_oracle(s: &str, pattern: &str) -> bool {
        fn rec(s: &[char], p: &[char]) -> bool {
            match p.first() {
                None => s.is_empty(),
                Some('%') => (0..=s.len()).any(|k| rec(&s[k..], &p[1..])),
                Some('_') => !s.is_empty() && rec(&s[1..], &p[1..]),
                Some(c) => s.first() == Some(c) && rec(&s[1..], &p[1..]),
            }
        }
        let s: Vec<char> = s.chars().collect();
        let p: Vec<char> = pattern.chars().collect();
        rec(&s, &p)
    }

    #[test]
    fn like_agrees_with_the_recursive_matcher() {
        let mut prng = pdm_prng::Prng::seed_from_u64(0x11CE);
        let draw = |prng: &mut pdm_prng::Prng, alphabet: &[char], max: usize| -> String {
            let len = prng.usize_inclusive(0, max);
            (0..len)
                .map(|_| alphabet[prng.index(alphabet.len())])
                .collect()
        };
        let (mut matched, cases) = (0, 20_000);
        for _ in 0..cases {
            let s = draw(&mut prng, &['a', 'b', 'é'], 8);
            let p = draw(&mut prng, &['a', 'b', 'é', '%', '_'], 6);
            let want = like_oracle(&s, &p);
            assert_eq!(like_match(&s, &p), want, "{s:?} LIKE {p:?}");
            matched += usize::from(want);
        }
        // Both outcomes are well represented.
        assert!(
            matched > cases / 10 && matched < cases * 9 / 10,
            "{matched}"
        );
    }

    #[test]
    fn like_is_not_exponential_in_the_percent_signs() {
        let s = "a".repeat(256);
        let pattern = "%a".repeat(12) + "%b";
        let started = std::time::Instant::now();
        assert!(!like_match(&s, &pattern));
        assert!(like_match(&s, &("%a".repeat(12) + "%")));
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
    }

    #[test]
    fn aggregate_outside_group_context_errors() {
        let err = eval("COUNT(*)", &[]).unwrap_err();
        assert!(err.to_string().contains("GROUP BY"));
    }
}
