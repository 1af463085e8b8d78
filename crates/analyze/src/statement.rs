//! Statement-level checks for the SQL the durability layer logs and crash
//! recovery re-executes.
//!
//! Recovery replays whole *statements* (the checkout-flag UPDATEs, the
//! stale-grant sweep, and whatever DML the workload committed), not just
//! SELECT queries — so the corpus audit must cover the statement shapes
//! too. The expression-level work (column/function resolution, aggregate
//! misuse) is delegated to the query resolver by wrapping the statement's
//! expressions in a synthetic single-table SELECT; on top of that come the
//! DML-specific checks: target-table existence, assignment/INSERT column
//! membership, INSERT arity, and statement-level print→parse drift (a
//! statement that does not round-trip would be logged as SQL the recovery
//! replay cannot parse back).

use pdm_sql::ast::{Expr, Query, Select, SelectItem, SetExpr, Statement, TableWithJoins};

use crate::diag::{Check, Report};
use crate::resolve;
use crate::schema::SchemaInfo;

/// Run every statement-level check. Query statements get the full query
/// analysis; DML gets target/column/arity checks plus expression
/// resolution in the target table's scope.
pub fn check_statement(stmt: &Statement, schema: &SchemaInfo, report: &mut Report) {
    match stmt {
        Statement::Query(q) => {
            resolve::check_query(q, schema, report);
            crate::recursion::check_recursion(q, report);
        }
        Statement::Insert {
            table,
            columns,
            rows,
        } => {
            if require_table("INSERT", table, schema, report) {
                let table_cols = schema.table_columns(&table.to_lowercase()).cloned();
                if let (Some(cols), Some(tc)) = (columns, &table_cols) {
                    for c in cols {
                        if !tc.contains(&c.to_lowercase()) {
                            report.emit(
                                Check::UnknownColumn,
                                format!("INSERT column '{c}' is not in table '{table}'"),
                            );
                        }
                    }
                }
                let expected = columns
                    .as_ref()
                    .map(|c| c.len())
                    .or_else(|| table_cols.as_ref().map(|c| c.len()));
                for (i, row) in rows.iter().enumerate() {
                    if let Some(n) = expected {
                        if row.len() != n {
                            report.emit(
                                Check::DmlArityMismatch,
                                format!(
                                    "INSERT row {i} has {} value(s), expected {n} for '{table}'",
                                    row.len()
                                ),
                            );
                        }
                    }
                }
                scope_check(
                    table,
                    rows.iter().flatten().cloned().collect(),
                    None,
                    schema,
                    report,
                );
            }
        }
        Statement::Update {
            table,
            assignments,
            predicate,
        } => {
            if require_table("UPDATE", table, schema, report) {
                if let Some(tc) = schema.table_columns(&table.to_lowercase()) {
                    for (col, _) in assignments {
                        if !tc.contains(&col.to_lowercase()) {
                            report.emit(
                                Check::UnknownColumn,
                                format!("UPDATE assigns unknown column '{col}' in '{table}'"),
                            );
                        }
                    }
                }
                scope_check(
                    table,
                    assignments.iter().map(|(_, e)| e.clone()).collect(),
                    predicate.clone(),
                    schema,
                    report,
                );
            }
        }
        Statement::Delete { table, predicate } => {
            if require_table("DELETE", table, schema, report) {
                scope_check(table, Vec::new(), predicate.clone(), schema, report);
            }
        }
        Statement::CreateIndex { table, column } => {
            if require_table("CREATE INDEX", table, schema, report) {
                if let Some(tc) = schema.table_columns(&table.to_lowercase()) {
                    if !tc.contains(&column.to_lowercase()) {
                        report.emit(
                            Check::UnknownColumn,
                            format!("CREATE INDEX on unknown column '{column}' of '{table}'"),
                        );
                    }
                }
            }
        }
        Statement::CreateView { query, .. } => {
            resolve::check_query(query, schema, report);
            crate::recursion::check_recursion(query, report);
        }
        // Definitions introduce names rather than referencing them.
        Statement::CreateTable { .. } | Statement::DropTable { .. } => {}
    }
    check_statement_drift(stmt, report);
}

/// The target of a DML statement must be a base table or a view. Returns
/// whether expression checks make sense.
fn require_table(verb: &str, table: &str, schema: &SchemaInfo, report: &mut Report) -> bool {
    let t = table.to_lowercase();
    if schema.has_table(&t) || schema.has_view(&t) {
        return true;
    }
    report.emit(
        Check::UnknownTable,
        format!("{verb} targets unknown table '{table}'"),
    );
    false
}

/// Resolve a statement's expressions by wrapping them in a synthetic
/// `SELECT <exprs> FROM <table> WHERE <predicate>` and reusing the query
/// resolver — so column references, function calls, subqueries, and
/// aggregate misuse in DML get exactly the SELECT-side treatment.
fn scope_check(
    table: &str,
    exprs: Vec<Expr>,
    predicate: Option<Expr>,
    schema: &SchemaInfo,
    report: &mut Report,
) {
    let mut sel = Select::new();
    sel.projection = if exprs.is_empty() {
        vec![SelectItem::Wildcard]
    } else {
        exprs.into_iter().map(SelectItem::expr).collect()
    };
    sel.from.push(TableWithJoins::table(table));
    sel.where_clause = predicate;
    let q = Query {
        with: None,
        body: SetExpr::Select(Box::new(sel)),
        order_by: Vec::new(),
        limit: None,
    };
    resolve::check_query(&q, schema, report);
}

/// A statement the WAL will log must survive print → parse: recovery
/// replays the *rendered* SQL, so drift here corrupts the replay, not just
/// a report.
fn check_statement_drift(stmt: &Statement, report: &mut Report) {
    let sql = stmt.to_string();
    match pdm_sql::parser::parse_statement(&sql) {
        Ok(reparsed) => {
            if reparsed != *stmt {
                report.emit(
                    Check::PrintParseDrift,
                    "rendered statement re-parses to a different AST".to_string(),
                );
            }
        }
        Err(e) => report.emit(
            Check::PrintParseDrift,
            format!("rendered statement does not re-parse: {e}"),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_sql::parser::parse_statement;

    fn check(sql: &str) -> Report {
        let stmt = parse_statement(sql).expect("test statement must parse");
        let mut report = Report::new();
        check_statement(&stmt, &SchemaInfo::paper(), &mut report);
        report
    }

    #[test]
    fn recovery_path_shapes_are_clean() {
        for sql in [
            "UPDATE assy SET checkedout = TRUE WHERE obid IN (1, 2, 3)",
            "UPDATE comp SET checkedout = FALSE WHERE obid IN (10, 11)",
            "INSERT INTO spec VALUES ('spec', 900001, 'chaos')",
            "DELETE FROM spec WHERE obid = 900001",
        ] {
            let r = check(sql);
            assert!(r.is_clean(), "{sql}: {r}");
        }
    }

    #[test]
    fn unknown_target_table_is_flagged() {
        let r = check("UPDATE nowhere SET x = 1");
        assert!(r.flags(Check::UnknownTable), "{r}");
    }

    #[test]
    fn unknown_assignment_column_is_flagged() {
        let r = check("UPDATE assy SET no_such_col = 1 WHERE obid = 1");
        assert!(r.flags(Check::UnknownColumn), "{r}");
    }

    #[test]
    fn unknown_predicate_column_is_flagged() {
        let r = check("DELETE FROM comp WHERE ghost = 4");
        assert!(r.flags(Check::UnknownColumn), "{r}");
    }

    #[test]
    fn insert_arity_mismatch_is_flagged() {
        // spec has 3 columns; 2 values.
        let r = check("INSERT INTO spec VALUES ('spec', 1)");
        assert!(r.flags(Check::DmlArityMismatch), "{r}");
    }

    #[test]
    fn insert_unknown_column_list_is_flagged() {
        let r = check("INSERT INTO spec (type, missing) VALUES ('spec', 1)");
        assert!(r.flags(Check::UnknownColumn), "{r}");
    }

    #[test]
    fn aggregate_in_dml_predicate_is_flagged() {
        let r = check("DELETE FROM spec WHERE COUNT(obid) > 1");
        assert!(r.flags(Check::AggregateInWhere), "{r}");
    }
}
