//! GROUP BY / aggregate evaluation.
//!
//! Aggregates are computed per group into the slots the plan gave them, then
//! projection/HAVING expressions are evaluated with those values in the
//! frame. Plain column references inside a grouped projection resolve
//! against the group's first row, which is exact for group-by columns and
//! permissive (first-value) otherwise.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;

use crate::error::{Error, Result};
use crate::exec::plan::{Agg, AggArg, Group, SelectPlan};
use crate::exec::{Cx, Frame};
use crate::row::Row;
use crate::value::Value;

/// Evaluate a SELECT that needs grouping/aggregation over its filtered,
/// joined rows (`n` references each).
pub(crate) fn run_group<'v>(
    cx: Cx<'v>,
    sel: &'v SelectPlan,
    group: &'v Group,
    rows: &[&'v [Value]],
    n: usize,
    outer: Option<&Frame<'_, 'v>>,
) -> Result<Vec<Row>> {
    let frame_of = |i: usize| Frame::of(&rows[i * n..(i + 1) * n], outer);
    // Group the row positions, in order of first appearance.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    if group.keys.is_empty() {
        // A global aggregate over zero rows still yields one group.
        groups.push((0..rows.len() / n).collect());
    } else {
        let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
        for i in 0..rows.len() / n {
            let frame = frame_of(i);
            let mut key = Vec::with_capacity(group.keys.len());
            for g in &group.keys {
                key.push(g.eval(cx, &frame)?.into_owned());
            }
            let next = groups.len();
            let at = *index.entry(key).or_insert(next);
            if at == next {
                groups.push(Vec::new());
            }
            groups[at].push(i);
        }
    }

    // What plain columns read when a global aggregate has no row at all.
    let null_rows: Vec<&[Value]> = sel.factors.iter().map(|f| &*f.nulls).collect();
    let mut out = Vec::with_capacity(groups.len());
    for members in &groups {
        let mut aggs = Vec::with_capacity(group.aggs.len());
        for agg in &group.aggs {
            aggs.push(compute(cx, agg, members.iter().map(|&i| frame_of(i)))?);
        }
        let rep: &[&[Value]] = match members.first() {
            Some(&i) => &rows[i * n..(i + 1) * n],
            None => &null_rows,
        };
        let frame = Frame {
            row: rep,
            outer,
            aggs: &aggs,
        };
        if let Some(h) = &group.having {
            if !h.holds(cx, &frame)? {
                continue;
            }
        }
        let mut values = Vec::with_capacity(sel.items.len());
        for e in &sel.items {
            values.push(e.eval(cx, &frame)?.into_owned());
        }
        out.push(Row::new(values));
    }
    Ok(out)
}

/// Compute one aggregate over a group's rows. The argument is evaluated for
/// every row (NULLs skipped, SQL semantics); only the running state is kept.
fn compute<'f, 'v: 'f>(
    cx: Cx<'v>,
    agg: &'v Agg,
    rows: impl ExactSizeIterator<Item = Frame<'f, 'v>>,
) -> Result<Value> {
    let arg = match &agg.arg {
        AggArg::Star => return Ok(Value::Int(rows.len() as i64)),
        AggArg::Expr(arg) => arg,
    };
    let mut count = 0usize;
    let mut best: Option<Cow<'v, Value>> = None;
    let (mut all_int, mut sum, mut isum) = (true, 0.0f64, 0i64);
    // A non-numeric operand fails SUM/AVG only after every row's argument
    // was evaluated (an evaluation error in a later row comes first).
    let mut non_numeric = None;
    for frame in rows {
        let v = arg.eval(cx, &frame)?;
        if v.is_null() {
            continue;
        }
        count += 1;
        match agg.func.as_str() {
            "min" | "max" => {
                let wanted = if agg.func == "min" {
                    Ordering::Less
                } else {
                    Ordering::Greater
                };
                if best.as_ref().is_none_or(|b| v.total_cmp(b) == wanted) {
                    best = Some(v);
                }
            }
            "sum" | "avg" => match &*v {
                Value::Int(i) => {
                    sum += *i as f64;
                    isum = isum.wrapping_add(*i);
                }
                Value::Float(x) => {
                    all_int = false;
                    sum += *x;
                }
                other if non_numeric.is_none() => {
                    non_numeric = Some(Error::Eval(format!(
                        "{}() over non-numeric value {other}",
                        agg.func.to_uppercase()
                    )));
                }
                _ => {}
            },
            _ => {}
        }
    }
    if let Some(e) = non_numeric {
        return Err(e);
    }
    Ok(match agg.func.as_str() {
        "count" => Value::Int(count as i64),
        "min" | "max" => best.map_or(Value::Null, Cow::into_owned),
        _ if count == 0 => Value::Null,
        "sum" if all_int => Value::Int(isum),
        "sum" => Value::Float(sum),
        _ => Value::Float(sum / count as f64),
    })
}
