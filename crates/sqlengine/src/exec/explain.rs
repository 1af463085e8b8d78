//! EXPLAIN: a rendering of the compiled plan — which filters were pushed
//! into scans, which joins probe an index or build a hash table, how
//! subqueries are treated. The executor runs exactly the plan rendered here
//! ([`super::plan`]); EXPLAIN has no analysis of its own to drift.

use std::fmt::{self, Display, Formatter};

use crate::ast::{JoinKind, Query, SetOp};
use crate::catalog::Catalog;
use crate::error::Result;
use crate::exec::plan::{
    compile_for_explain, Conjunct, CteBody, Factor, Join, Op, PExpr, Plan, QueryPlan, SelectPlan,
    SetPlan, Source,
};
use crate::exec::ExecConfig;
use crate::storage::Table;

/// Render the plan of `query` as indented text, without running it.
pub fn explain_query(catalog: &Catalog, config: &ExecConfig, query: &Query) -> Result<String> {
    let plan = compile_for_explain(catalog, config, query)?;
    let tables = plan.tables.iter().map(|name| catalog.table(name));
    let tables = tables.collect::<Result<_>>()?;
    Ok(Explained {
        plan: &plan,
        tables,
    }
    .to_string())
}

/// A plan with its base tables, which name what it scans and probes.
struct Explained<'p> {
    plan: &'p Plan,
    tables: Vec<&'p Table>,
}

impl Display for Explained<'_> {
    fn fmt(&self, out: &mut Formatter<'_>) -> fmt::Result {
        query(out, &self.tables, &self.plan.query, 0)
    }
}

fn pad(out: &mut Formatter<'_>, depth: usize) -> fmt::Result {
    write!(out, "{:1$}", "", depth * 2)
}

fn query(out: &mut Formatter<'_>, t: &[&Table], q: &QueryPlan, depth: usize) -> fmt::Result {
    for cte in &q.ctes {
        pad(out, depth)?;
        match &cte.body {
            CteBody::Plain(plan) => {
                writeln!(out, "CTE {} [materialized once]", cte.name)?;
                set_expr(out, t, &plan.body, depth + 1)?;
            }
            CteBody::Recursive {
                terms,
                dedup,
                limit,
                ..
            } => {
                writeln!(
                    out,
                    "RecursiveCTE {} [semi-naive, {} union terms, limit {limit}]",
                    cte.name,
                    terms.len()
                )?;
                // The terms of the left-deep UNION chain, as it was written.
                let op = set_op_label(SetOp::Union, !dedup);
                for level in 1..terms.len() {
                    pad(out, depth + level)?;
                    writeln!(out, "{op}")?;
                }
                for (i, (term, _)) in terms.iter().enumerate() {
                    set_expr(out, t, term, depth + terms.len() - i.max(1) + 1)?;
                }
            }
        }
    }
    set_expr(out, t, &q.body, depth)?;
    if q.sort.is_some() {
        pad(out, depth)?;
        writeln!(out, "Sort [{} key(s)]", q.order_by)?;
    }
    if let Some(n) = q.limit {
        pad(out, depth)?;
        writeln!(out, "Limit {n}")?;
    }
    Ok(())
}

fn set_op_label(op: SetOp, all: bool) -> &'static str {
    match (op, all) {
        (SetOp::Union, true) => "UnionAll [concatenate]",
        (SetOp::Union, false) => "Union [hash dedup]",
        (SetOp::Intersect, _) => "Intersect [hash]",
        (SetOp::Except, _) => "Except [hash]",
    }
}

fn set_expr(out: &mut Formatter<'_>, t: &[&Table], body: &SetPlan, depth: usize) -> fmt::Result {
    match body {
        SetPlan::Select(sel) => select(out, t, sel, depth),
        SetPlan::Op {
            op,
            all,
            left,
            right,
        } => {
            pad(out, depth)?;
            writeln!(out, "{}", set_op_label(*op, *all))?;
            set_expr(out, t, left, depth + 1)?;
            set_expr(out, t, right, depth + 1)
        }
    }
}

/// ` AND `-joined conjunct texts.
struct Conjuncts<'p>(&'p [Conjunct]);

impl Display for Conjuncts<'_> {
    fn fmt(&self, out: &mut Formatter<'_>) -> fmt::Result {
        for (i, c) in self.0.iter().enumerate() {
            let sep = if i > 0 { " AND " } else { "" };
            write!(out, "{sep}{}", c.text)?;
            // An uncorrelated subquery's result is kept for the statement.
            if let PExpr::Op {
                op: Op::Exists { sub, .. } | Op::InSubquery { sub, .. },
                ..
            } = &c.expr
            {
                if sub.cache {
                    write!(out, " {{subquery: cached if uncorrelated}}")?;
                }
            }
        }
        Ok(())
    }
}

fn select(out: &mut Formatter<'_>, t: &[&Table], sel: &SelectPlan, depth: usize) -> fmt::Result {
    pad(out, depth)?;
    let distinct = if sel.distinct { " [distinct]" } else { "" };
    let grouped = match &sel.group {
        Some(g) if g.keys.is_empty() => " [aggregate]",
        Some(_) => " [group by]",
        None => "",
    };
    writeln!(out, "Select{distinct}{grouped}")?;
    for f in &sel.factors {
        pad(out, depth + 1)?;
        factor(out, t, f)?;
        if !f.filters.is_empty() {
            write!(out, " filter[{}]", Conjuncts(&f.filters))?;
        }
        writeln!(out)?;
    }
    if !sel.residual.is_empty() {
        pad(out, depth + 1)?;
        writeln!(out, "Filter [{}]", Conjuncts(&sel.residual))?;
    }
    Ok(())
}

/// One FROM binding: its access path and, past the first of a FROM item,
/// how it joins.
fn factor(out: &mut Formatter<'_>, t: &[&Table], f: &Factor) -> fmt::Result {
    let (name, kind) = match &f.source {
        Source::Table(slot) => (t[*slot].name.as_str(), "table"),
        Source::Cte { name, .. } => (name.as_str(), "cte"),
        Source::Sub {
            view: Some(name), ..
        } => (name.as_str(), "view"),
        Source::Sub { view: None, .. } => return write!(out, "DerivedTable {}", f.binding),
    };
    let name = name.to_ascii_lowercase();
    let column = |col: usize| match &f.source {
        Source::Table(slot) => t[*slot].schema.column(col).name.as_str(),
        _ => unreachable!("only base tables are indexed"),
    };
    let join = match f.kind {
        JoinKind::Inner => "Inner",
        JoinKind::Left => "Left",
    };
    match (&f.join, &f.probe) {
        (Join::Index { col, .. }, _) => {
            let col = column(*col);
            write!(out, "{join} IndexJoin {name} [probe index on {col}]")
        }
        (_, Some((col, _))) if f.new_item => {
            write!(out, "IndexScan {name} [index on {}]", column(*col))
        }
        _ if f.new_item => write!(out, "Scan {name} [{kind}]"),
        (method, probe) => {
            let method = match method {
                Join::Scanned { keys, .. } if !keys.is_empty() => "HashJoin",
                _ if f.on => "NestedLoopJoin",
                _ => "CrossJoin",
            };
            match probe {
                Some((col, _)) => write!(out, "{join} {method} {name} [index on {}]", column(*col)),
                None => write!(out, "{join} {method} {name} [{kind} scan]"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use crate::Database;

    fn db() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE link (obid INTEGER, left INTEGER, right INTEGER)")
            .unwrap();
        db.execute("CREATE TABLE assy (obid INTEGER, name VARCHAR, dec VARCHAR)")
            .unwrap();
        db.execute("CREATE INDEX ON link (left)").unwrap();
        db.execute("CREATE INDEX ON assy (obid)").unwrap();
        db
    }

    #[test]
    fn navigational_expand_plan_uses_indexes() {
        let db = db();
        let q = parse_query(
            "SELECT assy.name FROM link JOIN assy ON link.right = assy.obid \
             WHERE link.left = 42",
        )
        .unwrap();
        let plan = explain_query(&db.catalog, &db.config, &q).unwrap();
        assert!(plan.contains("IndexScan link [index on left]"), "{plan}");
        assert!(
            plan.contains("IndexJoin assy [probe index on obid]"),
            "{plan}"
        );
        // An IN list of literals over an indexed column is probed as well.
        let q = parse_query("SELECT name FROM assy WHERE obid IN (1, 2)").unwrap();
        let plan = explain_query(&db.catalog, &db.config, &q).unwrap();
        assert!(plan.contains("IndexScan assy [index on obid]"), "{plan}");
    }

    #[test]
    fn recursive_cte_plan_reports_semi_naive() {
        let db = db();
        let q = parse_query(
            "WITH RECURSIVE rtbl (obid) AS (SELECT obid FROM assy WHERE obid = 1 \
             UNION SELECT link.right FROM rtbl JOIN link ON rtbl.obid = link.left) \
             SELECT obid FROM rtbl ORDER BY 1",
        )
        .unwrap();
        let plan = explain_query(&db.catalog, &db.config, &q).unwrap();
        assert!(
            plan.contains("RecursiveCTE rtbl [semi-naive, 2 union terms"),
            "{plan}"
        );
        assert!(plan.contains("Sort"), "{plan}");
    }

    #[test]
    fn pushdown_disabled_falls_back_to_scan() {
        let mut db = db();
        db.config.index_pushdown = false;
        let q = parse_query("SELECT * FROM link WHERE left = 1").unwrap();
        let plan = explain_query(&db.catalog, &db.config, &q).unwrap();
        assert!(plan.contains("Scan link [table]"), "{plan}");
        assert!(plan.contains("Filter"), "{plan}");
    }

    #[test]
    fn hash_join_without_index() {
        let mut db = Database::new();
        db.execute("CREATE TABLE a (x INTEGER)").unwrap();
        db.execute("CREATE TABLE b (y INTEGER)").unwrap();
        let q = parse_query("SELECT * FROM a JOIN b ON a.x = b.y").unwrap();
        let plan = explain_query(&db.catalog, &db.config, &q).unwrap();
        assert!(plan.contains("HashJoin b"), "{plan}");
        let q = parse_query("SELECT * FROM a JOIN b ON a.x < b.y").unwrap();
        let plan = explain_query(&db.catalog, &db.config, &q).unwrap();
        assert!(plan.contains("NestedLoopJoin b"), "{plan}");
    }

    #[test]
    fn union_and_aggregate_annotations() {
        let db = db();
        let q =
            parse_query("SELECT COUNT(*) FROM assy GROUP BY dec UNION ALL SELECT obid FROM link")
                .unwrap();
        let plan = explain_query(&db.catalog, &db.config, &q).unwrap();
        assert!(plan.contains("UnionAll"), "{plan}");
        assert!(plan.contains("[group by]"), "{plan}");
    }
}
