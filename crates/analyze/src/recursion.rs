//! Recursive-CTE safety lints (the §5.2 multi-level-expand shape).
//!
//! The generator emits `WITH RECURSIVE rtbl AS (seed UNION rtbl⋈link⋈assy
//! UNION rtbl⋈link⋈comp) SELECT ...`; these checks verify any recursive
//! query still has that safe shape: linear recursion with a seed term, no
//! aggregation/DISTINCT/self-referencing subqueries inside recursive terms,
//! and recursive terms that actually descend a link table.

use pdm_sql::ast::{Expr, Query, Select, SetExpr, SetOp, TableFactor};

use crate::diag::{Check, Report};

/// Run the recursion lints over every recursive CTE of `query`.
pub fn check_recursion(query: &Query, report: &mut Report) {
    let Some(with) = &query.with else { return };
    if !with.recursive {
        return;
    }
    for cte in &with.ctes {
        check_cte(&cte.name, &cte.query, report);
    }
}

fn check_cte(name: &str, body: &Query, report: &mut Report) {
    let loc = |term: usize| format!("term #{term} of CTE '{name}'");

    // The terms of the recursion are the UNION operands of the CTE body.
    // Walk the set-op tree first for operator-level lints.
    check_setops(name, &body.body, report);

    let terms = body.body.flatten_setop(SetOp::Union);
    let mut seeds = 0usize;
    for (i, term) in terms.iter().enumerate() {
        let mut from_refs = 0usize;
        for_each_select(term, &mut |sel| {
            from_refs += count_from_refs(sel, name);
        });
        if from_refs == 0 {
            seeds += 1;
            continue;
        }
        if from_refs > 1 {
            report.emit_at(
                Check::NonLinearRecursion,
                format!("recursive term references '{name}' {from_refs} times (linear recursion allows one)"),
                loc(i),
            );
        }
        for_each_select(term, &mut |sel| {
            if sel.distinct {
                report.emit_at(
                    Check::RecursiveDistinct,
                    format!("SELECT DISTINCT inside a recursive term of '{name}'"),
                    loc(i),
                );
            }
            if has_aggregation(sel) {
                report.emit_at(
                    Check::RecursiveAggregate,
                    format!("aggregation inside a recursive term of '{name}'"),
                    loc(i),
                );
            }
            if subqueries_reference(sel, name) {
                report.emit_at(
                    Check::RecursiveSubqueryRef,
                    format!("subquery inside a recursive term references '{name}'"),
                    loc(i),
                );
            }
            // Descent: besides the recursion table itself, the term must
            // join at least one other relation, or the recursion can only
            // reproduce rows it already has.
            if count_from_refs(sel, name) > 0 && count_other_factors(sel, name) == 0 {
                report.emit_at(
                    Check::RecursiveNoDescent,
                    format!(
                        "recursive term reads only '{name}' itself — it never descends a link table"
                    ),
                    loc(i),
                );
            }
        });
    }
    // A body whose top operator is not UNION is one term: its fault is the
    // operator (flagged above), not a missing seed — as the engine reports.
    let union = !matches!(&body.body, SetExpr::SetOp { op, .. } if *op != SetOp::Union);
    if seeds == 0 && union {
        report.emit_at(
            Check::NoSeedTerm,
            format!("every term of recursive CTE '{name}' references the CTE — no base case"),
            format!("CTE '{name}'"),
        );
    }
}

/// Operator-level lints: recursion terms must be combined with UNION;
/// UNION ALL recursion is flagged as a termination hazard on DAGs.
fn check_setops(name: &str, body: &SetExpr, report: &mut Report) {
    if let SetExpr::SetOp {
        op,
        all,
        left,
        right,
    } = body
    {
        let involves_recursion = contains_cte_ref(left, name) || contains_cte_ref(right, name);
        if involves_recursion && *op != SetOp::Union {
            report.emit_at(
                Check::NonUnionRecursion,
                format!("recursive terms of '{name}' combined with {}", op_name(*op)),
                format!("CTE '{name}'"),
            );
        }
        if involves_recursion && *op == SetOp::Union && *all {
            report.emit_at(
                Check::UnionAllRecursion,
                format!(
                    "UNION ALL recursion over '{name}': shared subtrees (DAGs) revisit nodes unboundedly"
                ),
                format!("CTE '{name}'"),
            );
        }
        check_setops(name, left, report);
        check_setops(name, right, report);
    }
}

fn op_name(op: SetOp) -> &'static str {
    match op {
        SetOp::Union => "UNION",
        SetOp::Intersect => "INTERSECT",
        SetOp::Except => "EXCEPT",
    }
}

fn for_each_select<'a>(body: &'a SetExpr, f: &mut impl FnMut(&'a Select)) {
    match body {
        SetExpr::Select(sel) => f(sel),
        SetExpr::SetOp { left, right, .. } => {
            for_each_select(left, f);
            for_each_select(right, f);
        }
    }
}

/// Number of direct FROM-clause references to `cte` in one SELECT.
fn count_from_refs(sel: &Select, cte: &str) -> usize {
    sel.from
        .iter()
        .flat_map(|twj| std::iter::once(&twj.base).chain(twj.joins.iter().map(|j| &j.factor)))
        .filter(|factor| match factor {
            TableFactor::Table { name, .. } => name.eq_ignore_ascii_case(cte),
            TableFactor::Derived { .. } => false,
        })
        .count()
}

/// Number of FROM factors that are *not* the recursion table.
fn count_other_factors(sel: &Select, cte: &str) -> usize {
    sel.from
        .iter()
        .flat_map(|twj| std::iter::once(&twj.base).chain(twj.joins.iter().map(|j| &j.factor)))
        .filter(|factor| match factor {
            TableFactor::Table { name, .. } => !name.eq_ignore_ascii_case(cte),
            TableFactor::Derived { .. } => true,
        })
        .count()
}

fn has_aggregation(sel: &Select) -> bool {
    if !sel.group_by.is_empty() || sel.having.is_some() {
        return true;
    }
    sel.projection.iter().any(|item| match item {
        pdm_sql::ast::SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
        _ => false,
    }) || sel
        .where_clause
        .as_ref()
        .is_some_and(Expr::contains_aggregate)
}

/// True if any subquery nested in the SELECT's expressions references `cte`.
fn subqueries_reference(sel: &Select, cte: &str) -> bool {
    let exprs = sel
        .projection
        .iter()
        .filter_map(|item| match item {
            pdm_sql::ast::SelectItem::Expr { expr, .. } => Some(expr),
            _ => None,
        })
        .chain(sel.where_clause.iter())
        .chain(sel.having.iter())
        .chain(sel.group_by.iter())
        .chain(
            sel.from
                .iter()
                .flat_map(|twj| twj.joins.iter().filter_map(|j| j.on.as_ref())),
        );
    exprs.into_iter().any(|e| expr_subquery_refs(e, cte))
}

fn expr_subquery_refs(expr: &Expr, cte: &str) -> bool {
    match expr {
        Expr::InSubquery { expr, query, .. } => {
            expr_subquery_refs(expr, cte) || query_references(query, cte)
        }
        Expr::Exists { query, .. } | Expr::ScalarSubquery(query) => query_references(query, cte),
        Expr::BinaryOp { left, right, .. } => {
            expr_subquery_refs(left, cte) || expr_subquery_refs(right, cte)
        }
        Expr::Not(e) | Expr::Negate(e) | Expr::Cast { expr: e, .. } => expr_subquery_refs(e, cte),
        Expr::IsNull { expr, .. } => expr_subquery_refs(expr, cte),
        Expr::InList { expr, list, .. } => {
            expr_subquery_refs(expr, cte) || list.iter().any(|e| expr_subquery_refs(e, cte))
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            expr_subquery_refs(expr, cte)
                || expr_subquery_refs(low, cte)
                || expr_subquery_refs(high, cte)
        }
        Expr::Like { expr, pattern, .. } => {
            expr_subquery_refs(expr, cte) || expr_subquery_refs(pattern, cte)
        }
        Expr::Function { args, .. } => args.iter().any(|e| expr_subquery_refs(e, cte)),
        Expr::Case {
            branches,
            else_expr,
        } => {
            branches
                .iter()
                .any(|(c, r)| expr_subquery_refs(c, cte) || expr_subquery_refs(r, cte))
                || else_expr
                    .as_ref()
                    .is_some_and(|e| expr_subquery_refs(e, cte))
        }
        Expr::Column { .. } | Expr::Literal(_) | Expr::Param(_) => false,
    }
}

/// True if any SELECT in the query tree (including nested subqueries)
/// references `cte` in its FROM clause.
fn query_references(query: &Query, cte: &str) -> bool {
    contains_cte_ref(&query.body, cte)
}

fn contains_cte_ref(body: &SetExpr, cte: &str) -> bool {
    let mut found = false;
    for_each_select(body, &mut |sel| {
        if count_from_refs(sel, cte) > 0 || subqueries_reference(sel, cte) {
            found = true;
        }
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_sql::parser::parse_query;

    fn run(sql: &str) -> Report {
        let q = parse_query(sql).expect("parse");
        let mut report = Report::new();
        check_recursion(&q, &mut report);
        report
    }

    const SAFE: &str = "WITH RECURSIVE rtbl (obid) AS (\
         SELECT obid FROM assy WHERE obid = 1 \
         UNION SELECT assy.obid FROM rtbl JOIN link ON rtbl.obid = link.left \
         JOIN assy ON link.right = assy.obid) SELECT obid FROM rtbl";

    #[test]
    fn safe_shape_is_clean() {
        assert!(run(SAFE).is_clean());
    }

    #[test]
    fn missing_seed_flagged() {
        let r = run("WITH RECURSIVE rtbl (obid) AS (\
             SELECT link.right FROM rtbl JOIN link ON rtbl.obid = link.left) \
             SELECT obid FROM rtbl");
        assert!(r.flags(Check::NoSeedTerm));
    }

    #[test]
    fn nonlinear_recursion_flagged() {
        let r = run("WITH RECURSIVE rtbl (obid) AS (\
             SELECT obid FROM assy UNION \
             SELECT a.obid FROM rtbl AS a JOIN rtbl AS b ON a.obid = b.obid) \
             SELECT obid FROM rtbl");
        assert!(r.flags(Check::NonLinearRecursion));
    }

    #[test]
    fn aggregate_and_distinct_in_recursive_term_flagged() {
        let r = run("WITH RECURSIVE rtbl (n) AS (\
             SELECT obid FROM assy UNION \
             SELECT DISTINCT MAX(link.right) FROM rtbl JOIN link ON rtbl.n = link.left) \
             SELECT n FROM rtbl");
        assert!(r.flags(Check::RecursiveAggregate));
        assert!(r.flags(Check::RecursiveDistinct));
    }

    #[test]
    fn subquery_over_cte_flagged() {
        let r = run("WITH RECURSIVE rtbl (obid) AS (\
             SELECT obid FROM assy UNION \
             SELECT link.right FROM rtbl JOIN link ON rtbl.obid = link.left \
             WHERE link.right NOT IN (SELECT obid FROM rtbl)) \
             SELECT obid FROM rtbl");
        assert!(r.flags(Check::RecursiveSubqueryRef));
    }

    #[test]
    fn no_descent_flagged() {
        let r = run("WITH RECURSIVE rtbl (obid) AS (\
             SELECT obid FROM assy UNION SELECT obid FROM rtbl) \
             SELECT obid FROM rtbl");
        assert!(r.flags(Check::RecursiveNoDescent));
    }

    #[test]
    fn union_all_recursion_warns() {
        let r = run("WITH RECURSIVE rtbl (obid) AS (\
             SELECT obid FROM assy UNION ALL \
             SELECT link.right FROM rtbl JOIN link ON rtbl.obid = link.left) \
             SELECT obid FROM rtbl");
        assert!(r.flags(Check::UnionAllRecursion));
        assert!(!r.has_errors());
    }

    #[test]
    fn intersect_recursion_flagged() {
        let r = run("WITH RECURSIVE rtbl (obid) AS (\
             SELECT obid FROM assy INTERSECT \
             SELECT link.right FROM rtbl JOIN link ON rtbl.obid = link.left) \
             SELECT obid FROM rtbl");
        assert!(r.flags(Check::NonUnionRecursion));
    }

    #[test]
    fn generator_mle_query_is_clean() {
        // The real §5.2 generator output must pass all recursion lints.
        let q = pdm_core::query::recursive::mle_query(1);
        let mut report = Report::new();
        check_recursion(&q, &mut report);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn non_recursive_query_skipped() {
        assert!(run("SELECT obid FROM assy").is_clean());
    }
}
