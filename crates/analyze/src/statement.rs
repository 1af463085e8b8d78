//! Statement-level checks for the SQL the durability layer logs and crash
//! recovery re-executes.
//!
//! Recovery replays whole *statements* (the checkout-flag UPDATEs, the
//! stale-grant sweep, and whatever DML the workload committed), not just
//! SELECT queries — so the corpus audit must cover the statement shapes
//! too. A query (or a view's) binds through the engine's compiler, as
//! [`Analyzer::analyze`](crate::Analyzer::analyze) does; any other statement
//! runs on a copy of the schema's database, so its target, columns, INSERT
//! arity and expressions meet exactly the checks the engine applies. On top
//! comes statement-level print→parse drift (a statement that does not
//! round-trip would be logged as SQL the recovery replay cannot parse back).

use pdm_sql::ast::{Query, Statement};

use crate::diag::{Check, Report};
use crate::schema::SchemaInfo;

/// Run every statement-level check: a query's shape and binding, any other
/// statement's execution on a copy of the schema, and drift.
pub fn check_statement(stmt: &Statement, schema: &SchemaInfo, report: &mut Report) {
    match stmt {
        Statement::Query(query) | Statement::CreateView { query, .. } => {
            check_query(query, schema, report);
        }
        other => {
            if let Err(e) = schema.database().clone().execute_ast(other) {
                report.emit_engine_error(&e);
            }
        }
    }
    check_statement_drift(stmt, report);
}

/// The recursive-CTE shape checks, then the engine's binder: the query
/// compiles against the schema's database, and its first bind error is a
/// diagnostic.
pub(crate) fn check_query(query: &Query, schema: &SchemaInfo, report: &mut Report) {
    crate::recursion::check_recursion(query, report);
    let db = schema.database();
    if let Err(e) = pdm_sql::exec::explain::explain_query(&db.catalog, &db.config, query) {
        report.emit_engine_error(&e);
    }
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
