//! Subquery evaluation: EXISTS, IN, scalar — with the two optimizations the
//! paper's approach leans on:
//!
//! * **Uncorrelated subqueries are evaluated once per query**, not once per
//!   row. §5.3.1 notes the ∀rows translation re-uses `rec_table` in the
//!   outer and inner clause "but an intelligent query optimizer will
//!   recognize that the inner clause needs to be evaluated only once, as it
//!   is an uncorrelated sub-query". Whether a subquery is correlated is a
//!   fact of its plan (it holds a column of a scope outside itself); its
//!   result lives in the plan's cache slot, which starts empty whenever the
//!   relations it may read change — per evaluation of an enclosing WITH
//!   query, per round of an enclosing recursion.
//!
//! * **Correlated EXISTS with equality correlation decorrelates into a
//!   hashed semi-join** built once and probed per row — this keeps the
//!   ∃structure conditions (§5.3.2) linear instead of quadratic.

use std::collections::HashSet;
use std::rc::Rc;

use crate::error::{Error, Result};
use crate::exec::plan::{PExpr, SelectPlan, SetPlan, SubPlan};
use crate::exec::{join, run_query, Cx, Frame};
use crate::row::Row;
use crate::value::Value;

/// What a subquery's cache slot holds.
#[derive(Clone)]
pub(crate) enum Cached {
    Exists(bool),
    Scalar(Value),
    /// `IN` set plus whether it contained NULL (three-valued logic).
    InSet(Rc<(HashSet<Value>, bool)>),
    /// A correlated EXISTS met its first row: the key set of its semi-join,
    /// or `None` when it does not decorrelate and runs per row.
    Semi(Option<Rc<HashSet<Vec<Value>>>>),
}

/// Run the subquery for the row in `f`.
fn run(cx: Cx<'_>, f: &Frame<'_, '_>, sub: &SubPlan) -> Result<Vec<Row>> {
    let span = cx.rt.obs.span(pdm_obs::kinds::SUBQUERY, "eval");
    cx.rt.stats.borrow_mut().subquery_evals += 1;
    let rows = run_query(cx, &sub.query, Some(f))?;
    span.set_rows(0, rows.len() as u64);
    span.set_detail(if sub.correlated {
        "correlated"
    } else {
        "uncorrelated"
    });
    Ok(rows)
}

/// `EXISTS (query)` for the row in `f`.
pub(crate) fn exists(cx: Cx<'_>, f: &Frame<'_, '_>, sub: &SubPlan) -> Result<bool> {
    let rt = cx.rt;
    match rt.cached(sub.slot) {
        Some(Cached::Exists(b)) => {
            rt.stats.borrow_mut().subquery_cache_hits += 1;
            Ok(b)
        }
        Some(Cached::Semi(Some(keys))) => {
            rt.stats.borrow_mut().subquery_cache_hits += 1;
            probe_semijoin(cx, f, sub, &keys)
        }
        Some(Cached::Semi(None)) => Ok(!run(cx, f, sub)?.is_empty()),
        _ => {
            // First encounter: evaluate for this row; a correlated EXISTS in
            // the decorrelatable shape then builds its key set for the rows
            // to come.
            let found = !run(cx, f, sub)?.is_empty();
            if sub.correlated {
                let keys = match &sub.semi {
                    Some(pairs) => {
                        let keys = build_semijoin(cx, sub, pairs)?;
                        rt.stats.borrow_mut().decorrelated_semijoins += 1;
                        Some(Rc::new(keys))
                    }
                    None => None,
                };
                rt.cache(sub.slot, Cached::Semi(keys));
            } else if sub.cache {
                rt.cache(sub.slot, Cached::Exists(found));
            }
            Ok(found)
        }
    }
}

/// `needle IN (query)`. Returns `(found, saw_null_in_set)`.
pub(crate) fn in_subquery(
    cx: Cx<'_>,
    f: &Frame<'_, '_>,
    sub: &SubPlan,
    needle: &Value,
) -> Result<(bool, bool)> {
    if let Some(Cached::InSet(set)) = cx.rt.cached(sub.slot) {
        cx.rt.stats.borrow_mut().subquery_cache_hits += 1;
        return Ok((set.0.contains(needle), set.1));
    }
    let rows = run(cx, f, sub)?;
    let mut set = HashSet::with_capacity(rows.len());
    let mut saw_null = false;
    for v in rows.into_iter().flat_map(Row::into_values) {
        if v.is_null() {
            saw_null = true;
        } else {
            set.insert(v);
        }
    }
    let found = set.contains(needle);
    if sub.cache && !sub.correlated {
        cx.rt
            .cache(sub.slot, Cached::InSet(Rc::new((set, saw_null))));
    }
    Ok((found, saw_null))
}

/// `(SELECT single-value)`; NULL on zero rows, error on more than one row.
pub(crate) fn scalar(cx: Cx<'_>, f: &Frame<'_, '_>, sub: &SubPlan) -> Result<Value> {
    if let Some(Cached::Scalar(v)) = cx.rt.cached(sub.slot) {
        cx.rt.stats.borrow_mut().subquery_cache_hits += 1;
        return Ok(v);
    }
    let mut rows = run(cx, f, sub)?;
    let value = match rows.len() {
        0 => Value::Null,
        1 => rows.swap_remove(0).into_values().swap_remove(0),
        n => return Err(Error::Eval(format!("scalar subquery returned {n} rows"))),
    };
    if sub.cache && !sub.correlated {
        cx.rt.cache(sub.slot, Cached::Scalar(value.clone()));
    }
    Ok(value)
}

// ---------------------------------------------------------------------------
// Semi-join decorrelation
// ---------------------------------------------------------------------------

fn inner_select(sub: &SubPlan) -> &SelectPlan {
    match &sub.query.body {
        SetPlan::Select(sel) => sel,
        SetPlan::Op { .. } => unreachable!("only a single SELECT decorrelates"),
    }
}

/// The two operands of correlated conjunct `at`: (inner side, outer side).
fn pair(sel: &SelectPlan, (at, inner_left): (usize, bool)) -> (&PExpr, &PExpr) {
    match &sel.residual[at].expr {
        PExpr::Op { args, .. } if inner_left => (&args[0], &args[1]),
        PExpr::Op { args, .. } => (&args[1], &args[0]),
        _ => unreachable!("a decorrelated conjunct is an equality"),
    }
}

/// Run the inner SELECT once without its `inner = outer` conjuncts and hash
/// the tuples of inner values those conjuncts compare against. NULL inner
/// keys never match.
fn build_semijoin(
    cx: Cx<'_>,
    sub: &SubPlan,
    pairs: &[(usize, bool)],
) -> Result<HashSet<Vec<Value>>> {
    let sel = inner_select(sub);
    let local: Vec<&PExpr> = (0..sel.residual.len())
        .filter(|i| pairs.iter().all(|(at, _)| at != i))
        .map(|i| &sel.residual[i].expr)
        .collect();
    let n = sel.factors.len();
    let mut rows = join::run_from(cx, sel, &[], None)?;
    crate::exec::filter(cx, &mut rows, n, &local, None)?;
    let mut keys = HashSet::with_capacity(rows.len() / n.max(1));
    'rows: for row in rows.chunks(n.max(1)) {
        let frame = Frame::of(row, None);
        let mut key = Vec::with_capacity(pairs.len());
        for p in pairs {
            let v = pair(sel, *p).0.eval(cx, &frame)?;
            if v.is_null() {
                continue 'rows;
            }
            key.push(v.into_owned());
        }
        keys.insert(key);
    }
    Ok(keys)
}

/// Probe for the current outer row. NULL outer values never match (equality
/// with NULL is unknown, so EXISTS is false).
fn probe_semijoin(
    cx: Cx<'_>,
    f: &Frame<'_, '_>,
    sub: &SubPlan,
    keys: &HashSet<Vec<Value>>,
) -> Result<bool> {
    let sel = inner_select(sub);
    // The outer operands were compiled one scope in: give them an (unread)
    // inner row to step out of.
    let frame = Frame::of(&[], Some(f));
    let pairs = sub.semi.as_deref().unwrap_or_default();
    let mut key = Vec::with_capacity(pairs.len());
    for p in pairs {
        let v = pair(sel, *p).1.eval(cx, &frame)?;
        if v.is_null() {
            return Ok(false);
        }
        key.push(v.into_owned());
    }
    Ok(keys.contains(&key))
}
