//! Name/scope resolution and structural well-formedness.
//!
//! Walks a [`Query`] without executing it and verifies that every table
//! reference resolves (schema, CTEs in scope, aliases), every column
//! reference binds unambiguously — including correlation into outer scopes
//! from EXISTS / IN / scalar subqueries — and that the query's structure is
//! internally consistent (CTE and set-operation arities, ORDER BY ordinals,
//! no aggregates in WHERE).

use std::collections::HashMap;

use pdm_sql::ast::{
    is_aggregate_name, Expr, OrderItem, Query, Select, SetExpr, TableFactor, TableWithJoins,
};

use crate::diag::{Check, Report};
use crate::schema::SchemaInfo;

/// One name visible in a FROM scope: its binding name and, when known, its
/// column names. `None` columns means the relation is opaque (a view, a
/// derived table with wildcard projection, or an unknown table, which is
/// reported) and accepts any column.
struct Binding {
    name: String,
    columns: Option<Vec<String>>,
}

/// The bindings of one SELECT block.
struct Scope {
    bindings: Vec<Binding>,
}

/// CTEs visible at some point of the walk: name → columns (if declared or
/// derivable).
type CteMap = HashMap<String, Option<Vec<String>>>;

/// Run resolution over a whole query, appending findings to `report`.
pub fn check_query(query: &Query, schema: &SchemaInfo, report: &mut Report) {
    let mut r = Resolver { schema, report };
    r.query(query, &CteMap::new(), &mut Vec::new());
}

struct Resolver<'a, 'r> {
    schema: &'a SchemaInfo,
    report: &'r mut Report,
}

impl Resolver<'_, '_> {
    fn query(&mut self, query: &Query, outer_ctes: &CteMap, scopes: &mut Vec<Scope>) {
        let mut ctes = outer_ctes.clone();
        if let Some(with) = &query.with {
            for cte in &with.ctes {
                let body_arity = setexpr_arity(&cte.query.body);
                let declared = if cte.columns.is_empty() {
                    None
                } else {
                    Some(
                        cte.columns
                            .iter()
                            .map(|c| c.to_ascii_lowercase())
                            .collect::<Vec<_>>(),
                    )
                };
                if let (Some(cols), Some(arity)) = (&declared, body_arity) {
                    if cols.len() != arity {
                        self.report.emit_at(
                            Check::CteArityMismatch,
                            format!(
                                "CTE '{}' declares {} column(s) but its body projects {}",
                                cte.name,
                                cols.len(),
                                arity
                            ),
                            format!("CTE '{}'", cte.name),
                        );
                    }
                }
                let columns = declared.or_else(|| setexpr_column_names(&cte.query.body));
                // A recursive CTE is visible inside its own body; a plain CTE
                // only in subsequent CTEs and the outer body.
                if with.recursive {
                    ctes.insert(cte.name.to_ascii_lowercase(), columns.clone());
                    self.query(&cte.query, &ctes, scopes);
                } else {
                    self.query(&cte.query, &ctes, scopes);
                    ctes.insert(cte.name.to_ascii_lowercase(), columns);
                }
            }
        }
        self.setexpr(&query.body, &ctes, scopes);
        self.order_by(&query.order_by, &query.body, &ctes, scopes);
    }

    fn setexpr(&mut self, body: &SetExpr, ctes: &CteMap, scopes: &mut Vec<Scope>) {
        if let SetExpr::SetOp { left, right, .. } = body {
            if let (Some(l), Some(r)) = (setexpr_arity(left), setexpr_arity(right)) {
                if l != r {
                    self.report.emit(
                        Check::SetOpArityMismatch,
                        format!("set operation combines a {l}-column side with a {r}-column side"),
                    );
                }
            }
        }
        match body {
            SetExpr::Select(sel) => self.select(sel, ctes, scopes),
            SetExpr::SetOp { left, right, .. } => {
                self.setexpr(left, ctes, scopes);
                self.setexpr(right, ctes, scopes);
            }
        }
    }

    fn select(&mut self, sel: &Select, ctes: &CteMap, scopes: &mut Vec<Scope>) {
        // Build this block's scope from the FROM clause. Join ON conditions
        // are checked after the full scope exists (SQL scopes ON clauses to
        // the whole FROM in this engine's semantics).
        let mut scope = Scope {
            bindings: Vec::new(),
        };
        for twj in &sel.from {
            self.add_factor(&twj.base, ctes, scopes, &mut scope);
            for j in &twj.joins {
                self.add_factor(&j.factor, ctes, scopes, &mut scope);
            }
        }
        scopes.push(scope);

        for twj in &sel.from {
            self.join_conditions(twj, ctes, scopes);
        }
        for item in &sel.projection {
            if let pdm_sql::ast::SelectItem::Expr { expr, .. } = item {
                self.expr(expr, ctes, scopes);
            }
        }
        if let Some(w) = &sel.where_clause {
            if w.contains_aggregate() {
                self.report.emit(
                    Check::AggregateInWhere,
                    format!("aggregate call in WHERE clause: {w}"),
                );
            }
            self.expr(w, ctes, scopes);
        }
        for g in &sel.group_by {
            self.expr(g, ctes, scopes);
        }
        if let Some(h) = &sel.having {
            self.expr(h, ctes, scopes);
        }

        scopes.pop();
    }

    fn join_conditions(&mut self, twj: &TableWithJoins, ctes: &CteMap, scopes: &mut Vec<Scope>) {
        for j in &twj.joins {
            if let Some(on) = &j.on {
                self.expr(on, ctes, scopes);
            }
        }
    }

    /// Resolve one FROM factor into a binding, flagging unknown tables.
    fn add_factor(
        &mut self,
        factor: &TableFactor,
        ctes: &CteMap,
        scopes: &mut Vec<Scope>,
        scope: &mut Scope,
    ) {
        match factor {
            TableFactor::Table { name, alias } => {
                let key = name.to_ascii_lowercase();
                let columns = if let Some(cols) = ctes.get(&key) {
                    cols.clone()
                } else if let Some(cols) = self.schema.table_columns(&key) {
                    Some(cols.clone())
                } else if self.schema.has_view(&key) {
                    // Views resolve but are opaque to the analyzer, like
                    // they are to the query modificator (§5.5 caveat).
                    None
                } else {
                    self.report.emit(
                        Check::UnknownTable,
                        format!("unknown table '{name}' in FROM clause"),
                    );
                    None
                };
                scope.bindings.push(Binding {
                    name: alias.as_deref().unwrap_or(name).to_ascii_lowercase(),
                    columns,
                });
            }
            TableFactor::Derived { subquery, alias } => {
                self.query(subquery, ctes, scopes);
                scope.bindings.push(Binding {
                    name: alias.to_ascii_lowercase(),
                    columns: setexpr_column_names(&subquery.body),
                });
            }
        }
    }

    fn order_by(
        &mut self,
        order_by: &[OrderItem],
        body: &SetExpr,
        ctes: &CteMap,
        scopes: &mut Vec<Scope>,
    ) {
        if order_by.is_empty() {
            return;
        }
        let arity = setexpr_arity(body);
        // ORDER BY expressions bind against the first SELECT's scope.
        let first = first_select(body);
        for item in order_by {
            if let Expr::Literal(pdm_sql::Value::Int(n)) = &item.expr {
                if let Some(arity) = arity {
                    if *n < 1 || *n > arity as i64 {
                        self.report.emit(
                            Check::OrderByOutOfRange,
                            format!("ORDER BY ordinal {n} outside 1..={arity} (projection arity)"),
                        );
                    }
                }
            } else if let Some(sel) = first {
                // Re-enter the SELECT's scope to resolve column references.
                let mut scope = Scope {
                    bindings: Vec::new(),
                };
                for twj in &sel.from {
                    self.add_factor_silent(&twj.base, ctes, &mut scope);
                    for j in &twj.joins {
                        self.add_factor_silent(&j.factor, ctes, &mut scope);
                    }
                }
                scopes.push(scope);
                self.expr(&item.expr, ctes, scopes);
                scopes.pop();
            }
        }
    }

    /// Like [`Self::add_factor`] but without re-emitting unknown-table
    /// diagnostics (the SELECT walk already reported them).
    fn add_factor_silent(&mut self, factor: &TableFactor, ctes: &CteMap, scope: &mut Scope) {
        match factor {
            TableFactor::Table { name, alias } => {
                let key = name.to_ascii_lowercase();
                let columns = ctes
                    .get(&key)
                    .cloned()
                    .unwrap_or_else(|| self.schema.table_columns(&key).cloned());
                scope.bindings.push(Binding {
                    name: alias.as_deref().unwrap_or(name).to_ascii_lowercase(),
                    columns,
                });
            }
            TableFactor::Derived { subquery, alias } => {
                scope.bindings.push(Binding {
                    name: alias.to_ascii_lowercase(),
                    columns: setexpr_column_names(&subquery.body),
                });
            }
        }
    }

    /// Resolve an expression: columns against the scope stack (innermost
    /// scope last in `scopes`; correlation reaches outward), functions
    /// against the registry, subqueries recursively with this scope pushed.
    fn expr(&mut self, expr: &Expr, ctes: &CteMap, scopes: &mut Vec<Scope>) {
        match expr {
            Expr::Column { qualifier, name } => self.column(qualifier.as_deref(), name, scopes),
            Expr::Literal(_) | Expr::Param(_) => {}
            Expr::BinaryOp { left, right, .. } => {
                self.expr(left, ctes, scopes);
                self.expr(right, ctes, scopes);
            }
            Expr::Not(e) | Expr::Negate(e) | Expr::Cast { expr: e, .. } => {
                self.expr(e, ctes, scopes)
            }
            Expr::IsNull { expr, .. } => self.expr(expr, ctes, scopes),
            Expr::InList { expr, list, .. } => {
                self.expr(expr, ctes, scopes);
                for e in list {
                    self.expr(e, ctes, scopes);
                }
            }
            Expr::InSubquery { expr, query, .. } => {
                self.expr(expr, ctes, scopes);
                self.query(query, ctes, scopes);
            }
            Expr::Exists { query, .. } | Expr::ScalarSubquery(query) => {
                self.query(query, ctes, scopes);
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                self.expr(expr, ctes, scopes);
                self.expr(low, ctes, scopes);
                self.expr(high, ctes, scopes);
            }
            Expr::Like { expr, pattern, .. } => {
                self.expr(expr, ctes, scopes);
                self.expr(pattern, ctes, scopes);
            }
            Expr::Function { name, args, .. } => {
                if !is_aggregate_name(&name.to_ascii_lowercase()) && !self.schema.has_function(name)
                {
                    self.report.emit(
                        Check::UnknownFunction,
                        format!("call to unknown function '{name}'"),
                    );
                }
                for a in args {
                    self.expr(a, ctes, scopes);
                }
            }
            Expr::Case {
                branches,
                else_expr,
            } => {
                for (c, r) in branches {
                    self.expr(c, ctes, scopes);
                    self.expr(r, ctes, scopes);
                }
                if let Some(e) = else_expr {
                    self.expr(e, ctes, scopes);
                }
            }
        }
    }

    fn column(&mut self, qualifier: Option<&str>, name: &str, scopes: &[Scope]) {
        let lname = name.to_ascii_lowercase();
        match qualifier {
            Some(q) => {
                let lq = q.to_ascii_lowercase();
                // Innermost scope owning the qualifier wins (correlation).
                for scope in scopes.iter().rev() {
                    if let Some(b) = scope.bindings.iter().find(|b| b.name == lq) {
                        if let Some(cols) = &b.columns {
                            if !cols.contains(&lname) {
                                self.report.emit(
                                    Check::UnknownColumn,
                                    format!("column '{name}' not found in '{q}'"),
                                );
                            }
                        }
                        return;
                    }
                }
                self.report.emit(
                    Check::UnknownColumn,
                    format!("qualifier '{q}' does not name a table in scope (in '{q}.{name}')"),
                );
            }
            None => {
                let mut any_opaque = false;
                for scope in scopes.iter().rev() {
                    let mut hits = 0usize;
                    for b in &scope.bindings {
                        match &b.columns {
                            Some(cols) if cols.contains(&lname) => hits += 1,
                            None => any_opaque = true,
                            _ => {}
                        }
                    }
                    if hits > 1 {
                        self.report.emit(
                            Check::AmbiguousColumn,
                            format!("column '{name}' is ambiguous ({hits} candidate bindings)"),
                        );
                        return;
                    }
                    if hits == 1 {
                        return;
                    }
                }
                if !any_opaque {
                    self.report.emit(
                        Check::UnknownColumn,
                        format!("column '{name}' not found in any table in scope"),
                    );
                }
            }
        }
    }
}

/// Projection arity of a set expression (its first SELECT), `None` if a
/// wildcard makes it schema-dependent.
pub fn setexpr_arity(body: &SetExpr) -> Option<usize> {
    let sel = first_select(body)?;
    let mut n = 0usize;
    for item in &sel.projection {
        match item {
            pdm_sql::ast::SelectItem::Expr { .. } => n += 1,
            _ => return None,
        }
    }
    Some(n)
}

/// Output column names of a set expression, `None` if not derivable.
pub fn setexpr_column_names(body: &SetExpr) -> Option<Vec<String>> {
    let sel = first_select(body)?;
    let mut names = Vec::with_capacity(sel.projection.len());
    for item in &sel.projection {
        match item {
            pdm_sql::ast::SelectItem::Expr { expr, alias } => {
                let n = match (alias, expr) {
                    (Some(a), _) => a.clone(),
                    (None, Expr::Column { name, .. }) => name.clone(),
                    // Unnamed computed column: still occupies a slot.
                    (None, _) => String::from("?column?"),
                };
                names.push(n.to_ascii_lowercase());
            }
            _ => return None,
        }
    }
    Some(names)
}

fn first_select(body: &SetExpr) -> Option<&Select> {
    match body {
        SetExpr::Select(sel) => Some(sel),
        SetExpr::SetOp { left, .. } => first_select(left),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_sql::parser::parse_query;

    fn run(sql: &str) -> Report {
        let q = parse_query(sql).expect("parse");
        let mut report = Report::new();
        check_query(&q, &SchemaInfo::paper(), &mut report);
        report
    }

    #[test]
    fn clean_join_resolves() {
        let r = run(
            "SELECT assy.name FROM link JOIN assy ON link.right = assy.obid \
             WHERE link.left = 1",
        );
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn unknown_table_flagged() {
        let r = run("SELECT 1 FROM nonesuch");
        assert!(r.flags(Check::UnknownTable));
    }

    #[test]
    fn unknown_column_flagged() {
        let r = run("SELECT assy.nonexistent FROM assy");
        assert!(r.flags(Check::UnknownColumn));
    }

    #[test]
    fn ambiguous_unqualified_column() {
        let r = run("SELECT obid FROM assy, comp");
        assert!(r.flags(Check::AmbiguousColumn));
    }

    #[test]
    fn correlated_exists_resolves_outer_binding() {
        let r = run(
            "SELECT comp.name FROM comp WHERE EXISTS (SELECT * FROM specified_by AS s \
             JOIN spec ON s.right = spec.obid WHERE s.left = comp.obid)",
        );
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn cte_projection_visible() {
        let r = run(
            "WITH RECURSIVE rtbl (a, b) AS (SELECT obid, name FROM assy UNION \
             SELECT comp.obid, comp.name FROM rtbl JOIN link ON rtbl.a = link.left \
             JOIN comp ON link.right = comp.obid) SELECT a, b FROM rtbl",
        );
        assert!(r.is_clean(), "{r}");
        let bad =
            run("WITH RECURSIVE rtbl (a) AS (SELECT obid FROM assy) SELECT missing FROM rtbl");
        assert!(bad.flags(Check::UnknownColumn));
    }

    #[test]
    fn cte_arity_mismatch_flagged() {
        let r = run(
            "WITH RECURSIVE rtbl (a, b, c) AS (SELECT obid, name FROM assy) SELECT a FROM rtbl",
        );
        assert!(r.flags(Check::CteArityMismatch));
    }

    #[test]
    fn setop_arity_mismatch_flagged() {
        let r = run("SELECT obid, name FROM assy UNION SELECT obid FROM comp");
        assert!(r.flags(Check::SetOpArityMismatch));
    }

    #[test]
    fn aggregate_in_where_flagged() {
        let r = run("SELECT obid FROM assy WHERE COUNT(*) > 1");
        assert!(r.flags(Check::AggregateInWhere));
    }

    #[test]
    fn order_by_ordinal_bounds() {
        assert!(run("SELECT obid FROM assy ORDER BY 2").flags(Check::OrderByOutOfRange));
        assert!(run("SELECT obid FROM assy ORDER BY 1").is_clean());
    }

    #[test]
    fn unknown_function_is_warning() {
        let r = run("SELECT MYSTERY(obid) FROM assy");
        assert!(r.flags(Check::UnknownFunction));
        assert!(!r.has_errors());
    }
}
