//! Semi-naive evaluation of `WITH RECURSIVE` common table expressions.
//!
//! The CTE body must be a UNION (or UNION ALL) chain; terms that reference
//! the CTE in their FROM clause are recursive, the rest seed the iteration.
//! Each round binds the CTE name to the *delta* of the previous round
//! (semi-naive), so a β-ary tree of depth δ finishes in δ joins instead of
//! δ² — this is what makes the paper's one-query multi-level expand cheap on
//! the server side. The terms were compiled once ([`super::plan`]); a round
//! only runs them. The delta is a range of the accumulated total, and UNION
//! de-duplication remembers positions in that total (`Seen`), so a row is
//! stored once and hashed once.

use crate::ast::{SetExpr, SetOp, TableFactor};
use crate::error::{Error, Result};
use crate::exec::plan::{CteBody, CtePlan};
use crate::exec::setops::Seen;
use crate::exec::{run_set, CteEnv, Cx};
use crate::row::Row;

/// Does `body` reference `name` as a table anywhere in its FROM clauses
/// (including derived tables and set-operation branches)?
pub(crate) fn body_references(body: &SetExpr, name: &str) -> bool {
    match body {
        SetExpr::Select(sel) => sel.from.iter().any(|twj| {
            std::iter::once(&twj.base)
                .chain(twj.joins.iter().map(|j| &j.factor))
                .any(|f| match f {
                    TableFactor::Table { name: n, .. } => n.eq_ignore_ascii_case(name),
                    TableFactor::Derived { subquery, .. } => body_references(&subquery.body, name),
                })
        }),
        SetExpr::SetOp { left, right, .. } => {
            body_references(left, name) || body_references(right, name)
        }
    }
}

/// Inspect the UNION chain: `true` if every set operation is UNION ALL.
/// Mixing UNION and UNION ALL in one recursive body is rejected.
pub(crate) fn union_chain_is_all(body: &SetExpr) -> Result<bool> {
    fn walk(body: &SetExpr, saw_all: &mut bool, saw_distinct: &mut bool) {
        if let SetExpr::SetOp {
            op,
            all,
            left,
            right,
        } = body
        {
            if *op == SetOp::Union {
                *(if *all {
                    &mut *saw_all
                } else {
                    &mut *saw_distinct
                }) = true;
            }
            walk(left, saw_all, saw_distinct);
            walk(right, saw_all, saw_distinct);
        }
    }
    let (mut saw_all, mut saw_distinct) = (false, false);
    walk(body, &mut saw_all, &mut saw_distinct);
    match (saw_all, saw_distinct) {
        (true, true) => Err(Error::Bind(
            "recursive CTE mixes UNION and UNION ALL".into(),
        )),
        (all, _) => Ok(all),
    }
}

/// Evaluate one recursive CTE into its materialised rows. `cx` holds the
/// CTEs bound before it.
pub(crate) fn run_recursive(cx: Cx<'_>, cte: &CtePlan) -> Result<Vec<Row>> {
    let CteBody::Recursive {
        terms,
        dedup,
        limit,
        slots,
    } = &cte.body
    else {
        unreachable!("called for recursive CTEs")
    };
    let mut total: Vec<Row> = Vec::new();
    let mut seen = Seen::default();
    let mut absorb = |total: &mut Vec<Row>, rows: Vec<Row>| {
        for row in rows {
            if !dedup || seen.is_new(total, &row) {
                total.push(row);
            }
        }
    };
    for (seed, _) in terms.iter().filter(|(_, recursive)| !recursive) {
        let rows = run_set(cx, seed, None)?;
        absorb(&mut total, rows);
    }

    let obs = cx.rt.obs;
    let rec_span = obs.span(pdm_obs::kinds::RECURSION, cte.name.as_str());
    let mut iterations = 0usize;
    // The previous round's delta is `total[delta_start..]`.
    let mut delta_start = 0;
    while delta_start < total.len() {
        iterations += 1;
        if iterations > *limit {
            return Err(Error::RecursionLimit(*limit));
        }
        let label = if obs.is_enabled() {
            format!("round{iterations}")
        } else {
            String::new()
        };
        let round_span = obs.span(pdm_obs::kinds::RECURSION_ROUND, label);
        let delta_end = total.len();
        // Results cached against the previous delta would be stale.
        cx.rt.reset_slots(slots.clone());
        for (term, _) in terms.iter().filter(|(_, recursive)| *recursive) {
            let rows = {
                let delta = CteEnv {
                    id: cte.id,
                    rows: &total[delta_start..delta_end],
                    parent: cx.ctes,
                };
                let ctes = Some(&delta);
                run_set(Cx { ctes, ..cx }, term, None)?
            };
            let width = term.schema().len();
            if width != cte.width {
                return Err(Error::Bind(format!(
                    "recursive term of CTE '{}' produces {width} columns, expected {}",
                    cte.name, cte.width
                )));
            }
            absorb(&mut total, rows);
        }
        round_span.set_rows(
            (delta_end - delta_start) as u64,
            (total.len() - delta_end) as u64,
        );
        delta_start = delta_end;
    }

    cx.rt.stats.borrow_mut().recursion_iterations += iterations;
    rec_span.set_rows(0, total.len() as u64);
    if obs.is_enabled() {
        rec_span.set_detail(format!("{iterations} rounds"));
    }
    Ok(total)
}
