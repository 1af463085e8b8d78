//! EXPLAIN: a static preview of the executor's decisions — which filters
//! push into scans, which joins use an index or a hash table, how
//! subqueries will be treated. Produced without executing the query, by
//! replaying the same analysis the executor performs, so the output is the
//! plan the executor will actually follow.

use std::fmt::Write;

use crate::ast::{BinOp, Expr, JoinKind, Query, Select, SetExpr, TableFactor};
use crate::catalog::Catalog;
use crate::error::Result;
use crate::exec::join::{classify_side, conjunct_target, probe_literals, Side};
use crate::exec::{recursion, split_conjuncts, Bindings, ExecConfig};
use crate::schema::Schema;

/// Render the plan of `query` as indented text.
pub fn explain_query(catalog: &Catalog, config: &ExecConfig, query: &Query) -> Result<String> {
    let mut out = String::new();
    explain_into(catalog, config, query, 0, &mut out)?;
    Ok(out)
}

fn pad(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn explain_into(
    catalog: &Catalog,
    config: &ExecConfig,
    query: &Query,
    depth: usize,
    out: &mut String,
) -> Result<()> {
    if let Some(with) = &query.with {
        for cte in &with.ctes {
            let recursive = with.recursive && recursion::references_cte(&cte.query, &cte.name);
            pad(out, depth);
            if recursive {
                let terms = cte.query.body.flatten_setop(crate::ast::SetOp::Union).len();
                let _ = writeln!(
                    out,
                    "RecursiveCTE {} [semi-naive, {} union terms, limit {}]",
                    cte.name, terms, config.recursion_limit
                );
            } else {
                let _ = writeln!(out, "CTE {} [materialized once]", cte.name);
            }
            explain_body(catalog, config, &cte.query.body, depth + 1, out)?;
        }
    }
    explain_body(catalog, config, &query.body, depth, out)?;
    if !query.order_by.is_empty() {
        pad(out, depth);
        let _ = writeln!(out, "Sort [{} key(s)]", query.order_by.len());
    }
    if let Some(n) = query.limit {
        pad(out, depth);
        let _ = writeln!(out, "Limit {n}");
    }
    Ok(())
}

fn explain_body(
    catalog: &Catalog,
    config: &ExecConfig,
    body: &SetExpr,
    depth: usize,
    out: &mut String,
) -> Result<()> {
    match body {
        SetExpr::Select(sel) => explain_select(catalog, config, sel, depth, out),
        SetExpr::SetOp {
            op,
            all,
            left,
            right,
        } => {
            pad(out, depth);
            let name = match op {
                crate::ast::SetOp::Union => {
                    if *all {
                        "UnionAll [concatenate]"
                    } else {
                        "Union [hash dedup]"
                    }
                }
                crate::ast::SetOp::Intersect => "Intersect [hash]",
                crate::ast::SetOp::Except => "Except [hash]",
            };
            let _ = writeln!(out, "{name}");
            explain_body(catalog, config, left, depth + 1, out)?;
            explain_body(catalog, config, right, depth + 1, out)
        }
    }
}

/// Schema of a named factor as the planner can know it statically (base
/// table or view output; CTEs and derived tables are reported opaquely).
fn static_schema(catalog: &Catalog, name: &str) -> Option<Schema> {
    if catalog.has_table(name) {
        return catalog.table(name).ok().map(|t| t.schema.clone());
    }
    None
}

fn explain_select(
    catalog: &Catalog,
    config: &ExecConfig,
    sel: &Select,
    depth: usize,
    out: &mut String,
) -> Result<()> {
    let has_aggregate = !sel.group_by.is_empty()
        || sel.having.is_some()
        || sel.projection.iter().any(|item| match item {
            crate::ast::SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            _ => false,
        });

    pad(out, depth);
    let _ = writeln!(
        out,
        "Select{}{}",
        if sel.distinct { " [distinct]" } else { "" },
        if has_aggregate {
            if sel.group_by.is_empty() {
                " [aggregate]"
            } else {
                " [group by]"
            }
        } else {
            ""
        }
    );

    // Replay pushdown analysis.
    let conjuncts = sel
        .where_clause
        .as_ref()
        .map(split_conjuncts)
        .unwrap_or_default();
    let mut binding_schemas: Vec<(String, Schema)> = Vec::new();
    for twj in &sel.from {
        for factor in std::iter::once(&twj.base).chain(twj.joins.iter().map(|j| &j.factor)) {
            if let TableFactor::Table { name, alias } = factor {
                if let Some(schema) = static_schema(catalog, name) {
                    binding_schemas.push((
                        alias.as_deref().unwrap_or(name).to_ascii_lowercase(),
                        schema,
                    ));
                }
            }
        }
    }
    let mut pushed: Vec<(String, &Expr)> = Vec::new();
    let mut residual: Vec<&Expr> = Vec::new();
    for c in &conjuncts {
        match conjunct_target(c, &binding_schemas).filter(|_| config.index_pushdown) {
            Some(b) => pushed.push((b, c)),
            None => residual.push(c),
        }
    }

    // Factors.
    let mut left_bindings = Bindings::new();
    for twj in &sel.from {
        for (i, (factor, kind, on)) in std::iter::once((&twj.base, JoinKind::Inner, &None))
            .chain(twj.joins.iter().map(|j| (&j.factor, j.kind, &j.on)))
            .enumerate()
        {
            let binding = factor_binding(factor);
            let schema = match factor {
                TableFactor::Table { name, .. } => static_schema(catalog, name),
                TableFactor::Derived { .. } => None,
            };
            pad(out, depth + 1);
            let filters: Vec<String> = pushed
                .iter()
                .filter(|(b, _)| *b == binding)
                .map(|(_, e)| e.to_string())
                .collect();

            match factor {
                TableFactor::Derived { .. } => {
                    let _ = writeln!(out, "DerivedTable {binding}");
                }
                TableFactor::Table { name, .. } => {
                    let lower = name.to_ascii_lowercase();
                    let source_kind = if catalog.has_table(&lower) {
                        "table"
                    } else if catalog.has_view(&lower) {
                        "view"
                    } else {
                        "cte"
                    };

                    // Determine access path.
                    let is_join = i > 0;
                    let mut described = false;
                    if is_join && config.index_pushdown && source_kind == "table" {
                        if let (Some(on), Some(schema)) = (on.as_ref(), schema.as_ref()) {
                            if let Some(col) =
                                index_join_column(catalog, &left_bindings, &lower, schema, on)
                            {
                                let _ = writeln!(
                                    out,
                                    "{} IndexJoin {lower} [probe index on {col}]{}",
                                    join_kw(kind),
                                    filter_suffix(&filters)
                                );
                                described = true;
                            }
                        }
                    }
                    if !described && is_join {
                        let strategy = on
                            .as_ref()
                            .map(|e| {
                                if has_equi_pair(&left_bindings, &lower, schema.as_ref(), e) {
                                    "HashJoin"
                                } else {
                                    "NestedLoopJoin"
                                }
                            })
                            .unwrap_or("CrossJoin");
                        let _ = writeln!(
                            out,
                            "{} {strategy} {lower} [{source_kind} scan]{}",
                            join_kw(kind),
                            filter_suffix(&filters)
                        );
                        described = true;
                    }
                    if !described {
                        // base factor scan
                        let indexed = schema.as_ref().and_then(|s| {
                            conjuncts.iter().find_map(|c| {
                                probe_literals(c, &lower, s).and_then(|(idx, _)| {
                                    let t = catalog.table(&lower).ok()?;
                                    if t.has_index(idx) && config.index_pushdown {
                                        Some(s.column(idx).name.clone())
                                    } else {
                                        None
                                    }
                                })
                            })
                        });
                        match indexed {
                            Some(col) => {
                                let _ = writeln!(
                                    out,
                                    "IndexScan {lower} [index on {col}]{}",
                                    filter_suffix(&filters)
                                );
                            }
                            None => {
                                let _ = writeln!(
                                    out,
                                    "Scan {lower} [{source_kind}]{}",
                                    filter_suffix(&filters)
                                );
                            }
                        }
                    }
                }
            }
            if let Some(schema) = schema {
                left_bindings.push(&binding, schema);
            } else {
                left_bindings.push(&binding, Schema::empty());
            }
        }
    }

    // Residual filter + subquery notes.
    if !residual.is_empty() {
        pad(out, depth + 1);
        let notes: Vec<String> = residual
            .iter()
            .map(|e| format!("{e}{}", subquery_note(config, e)))
            .collect();
        let _ = writeln!(out, "Filter [{}]", notes.join(" AND "));
    }
    Ok(())
}

fn factor_binding(f: &TableFactor) -> String {
    f.binding_name().to_ascii_lowercase()
}

fn join_kw(kind: JoinKind) -> &'static str {
    match kind {
        JoinKind::Inner => "Inner",
        JoinKind::Left => "Left",
    }
}

fn filter_suffix(filters: &[String]) -> String {
    if filters.is_empty() {
        String::new()
    } else {
        format!(" filter[{}]", filters.join(" AND "))
    }
}

/// Would the executor's index nested-loop join fire for this ON clause?
fn index_join_column(
    catalog: &Catalog,
    left: &Bindings,
    table: &str,
    schema: &Schema,
    on: &Expr,
) -> Option<String> {
    let right = Bindings::single(table, schema.clone());
    let t = catalog.table(table).ok()?;
    for c in split_conjuncts(on) {
        if let Expr::BinaryOp {
            left: a,
            op: BinOp::Eq,
            right: b,
        } = &c
        {
            for (lhs, rhs) in [(a, b), (b, a)] {
                if classify_side(lhs, left, &right) == Side::Left {
                    if let Expr::Column { name, .. } = rhs.as_ref() {
                        if let Some(idx) = schema.index_of(name) {
                            if t.has_index(idx) {
                                return Some(schema.column(idx).name.clone());
                            }
                        }
                    }
                }
            }
        }
    }
    None
}

/// Would the hash join find at least one usable equi pair?
fn has_equi_pair(left: &Bindings, table: &str, schema: Option<&Schema>, on: &Expr) -> bool {
    let Some(schema) = schema else { return false };
    let right = Bindings::single(table, schema.clone());
    split_conjuncts(on).iter().any(|c| {
        if let Expr::BinaryOp {
            left: a,
            op: BinOp::Eq,
            right: b,
        } = c
        {
            let sa = classify_side(a, left, &right);
            let sb = classify_side(b, left, &right);
            matches!(
                (sa, sb),
                (Side::Left, Side::Right) | (Side::Right, Side::Left)
            )
        } else {
            false
        }
    })
}

fn subquery_note(config: &ExecConfig, e: &Expr) -> &'static str {
    match e {
        Expr::Exists { .. } if config.subquery_cache => " {subquery: cached if uncorrelated}",
        Expr::InSubquery { .. } if config.subquery_cache => " {subquery: cached if uncorrelated}",
        _ => "",
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
