#![cfg_attr(test, allow(clippy::unwrap_used))]

//! # pdm-sql — in-memory relational engine with SQL:1999 recursion
//!
//! The database substrate for the reproduction of *"Tuning an SQL-Based PDM
//! System in a Worldwide Client/Server Environment"* (Müller, Dadam,
//! Enderle, Feltes — ICDE 2001). The paper's techniques need a server that
//! speaks the SQL:1999 surface its queries use: `WITH RECURSIVE`, `UNION`,
//! joins, `EXISTS`/`NOT EXISTS`/`IN` subqueries, scalar aggregate
//! subqueries, `CAST`, stored functions, views, and `UPDATE`. This crate
//! provides exactly that, plus the one optimizer property the paper calls
//! out (§5.3.1): uncorrelated subqueries are evaluated once per query.
//!
//! ```
//! use pdm_sql::Database;
//!
//! let mut db = Database::new();
//! db.execute("CREATE TABLE assy (obid INTEGER NOT NULL, name VARCHAR, dec VARCHAR)").unwrap();
//! db.execute("INSERT INTO assy VALUES (1, 'Assy1', '+'), (2, 'Assy2', '-')").unwrap();
//! let rs = db.query("SELECT name FROM assy WHERE dec = '+'").unwrap();
//! assert_eq!(rs.len(), 1);
//! ```

pub mod ast;
pub mod catalog;
pub mod error;
pub mod exec;
pub mod functions;
pub mod lexer;
pub mod parser;
pub mod persist;
pub mod ring;
pub mod row;
pub mod schema;
pub mod shared;
pub mod storage;
pub mod template;
pub mod update;
pub mod value;

pub use ast::{Expr, Query, Select, Statement};
pub use catalog::Catalog;
pub use error::{Error, Result};
pub use exec::{ExecConfig, ExecStats};
pub use row::{ResultSet, Row};
pub use schema::{Column, Schema};
pub use shared::{SharedDatabase, Snapshot};
pub use update::DmlOutcome;
pub use value::{DataType, Value};

/// Result of [`Database::execute`].
#[derive(Debug, Clone, PartialEq)]
pub enum ExecOutcome {
    /// The statement was a query.
    Rows(ResultSet),
    /// The statement was DML/DDL.
    Dml(DmlOutcome),
}

impl ExecOutcome {
    /// Unwrap a query result; panics on DML outcomes (test convenience).
    pub fn rows(self) -> ResultSet {
        match self {
            ExecOutcome::Rows(rs) => rs,
            ExecOutcome::Dml(d) => panic!("expected rows, got {d:?}"),
        }
    }
}

/// Where every query entry point of [`Database`] and [`Snapshot`] meets the
/// executor: one `engine.query` span around one `run` — a compile and run
/// ([`exec::execute`]) or a template's ([`template::Template::run`]). A
/// disabled recorder records nothing, so the rows and counters are the same
/// with and without one.
pub(crate) fn evaluate(
    obs: &pdm_obs::Recorder,
    run: impl FnOnce() -> Result<(ResultSet, ExecStats)>,
) -> Result<(ResultSet, ExecStats)> {
    let span = obs.span(pdm_obs::kinds::ENGINE_QUERY, "eval");
    let (rs, stats) = run()?;
    span.set_rows(0, rs.len() as u64);
    Ok((rs, stats))
}

/// An in-memory SQL database: catalog + executor configuration.
///
/// Cloning is cheap (tables are `Arc`ed copy-on-write, see [`Catalog`]);
/// for genuinely concurrent access wrap it in a [`SharedDatabase`].
#[derive(Debug, Default, Clone)]
pub struct Database {
    pub catalog: Catalog,
    pub config: ExecConfig,
}

impl Database {
    pub fn new() -> Self {
        Database::default()
    }

    /// Execute any single SQL statement.
    pub fn execute(&mut self, sql: &str) -> Result<ExecOutcome> {
        let stmt = parser::parse_statement(sql)?;
        match stmt {
            Statement::Query(q) => Ok(ExecOutcome::Rows(self.query_ast(&q)?)),
            other => Ok(ExecOutcome::Dml(update::execute_statement(
                &mut self.catalog,
                &self.config,
                &other,
            )?)),
        }
    }

    /// Run a query given as SQL text.
    pub fn query(&self, sql: &str) -> Result<ResultSet> {
        let q = parser::parse_query(sql)?;
        self.query_ast(&q)
    }

    /// Run a query given as SQL text, returning execution statistics too.
    pub fn query_with_stats(&self, sql: &str) -> Result<(ResultSet, ExecStats)> {
        let q = parser::parse_query(sql)?;
        self.query_ast_with_stats(&q)
    }

    /// Render the executor's plan for a query without running it (the
    /// decisions EXPLAIN would show: index scans/joins, pushdowns, hash vs
    /// nested-loop joins, recursion strategy, subquery caching).
    pub fn explain(&self, sql: &str) -> Result<String> {
        let q = parser::parse_query(sql)?;
        exec::explain::explain_query(&self.catalog, &self.config, &q)
    }

    /// Run an already-parsed query.
    pub fn query_ast(&self, query: &Query) -> Result<ResultSet> {
        Ok(self.query_ast_with_stats(query)?.0)
    }

    /// Run an already-parsed query, returning execution statistics.
    pub fn query_ast_with_stats(&self, query: &Query) -> Result<(ResultSet, ExecStats)> {
        let disabled = pdm_obs::Recorder::disabled();
        evaluate(&disabled, || {
            exec::execute(&self.catalog, &self.config, query, &[], &disabled)
        })
    }

    /// Execute a parsed DML/DDL statement.
    pub fn execute_ast(&mut self, stmt: &Statement) -> Result<ExecOutcome> {
        match stmt {
            Statement::Query(q) => Ok(ExecOutcome::Rows(self.query_ast(q)?)),
            other => Ok(ExecOutcome::Dml(update::execute_statement(
                &mut self.catalog,
                &self.config,
                other,
            )?)),
        }
    }

    /// Register a stored (user-defined) scalar function.
    pub fn register_function(
        &mut self,
        name: &str,
        f: impl Fn(&[Value]) -> Result<Value> + Send + Sync + 'static,
    ) {
        self.catalog.functions_mut().register(name, f);
    }

    /// Programmatic bulk load (used by the workload generator): insert rows
    /// without going through the SQL parser.
    pub fn insert_rows(&mut self, table: &str, rows: Vec<Row>) -> Result<usize> {
        let t = self.catalog.table_mut(table)?;
        let n = rows.len();
        for row in rows {
            t.insert(row)?;
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_with_fixture() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (a INTEGER NOT NULL, b VARCHAR)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, NULL)")
            .unwrap();
        db
    }

    #[test]
    fn execute_query_and_dml() {
        let mut db = db_with_fixture();
        let out = db.execute("SELECT a FROM t WHERE b IS NOT NULL").unwrap();
        assert_eq!(out.rows().len(), 2);
        let out = db.execute("UPDATE t SET b = 'z' WHERE a = 3").unwrap();
        assert_eq!(out, ExecOutcome::Dml(DmlOutcome::Updated(1)));
        let out = db.execute("DELETE FROM t WHERE a = 1").unwrap();
        assert_eq!(out, ExecOutcome::Dml(DmlOutcome::Deleted(1)));
        assert_eq!(db.query("SELECT * FROM t").unwrap().len(), 2);
    }

    #[test]
    fn update_expression_references_row() {
        let mut db = db_with_fixture();
        db.execute("UPDATE t SET a = a + 10").unwrap();
        let rs = db.query("SELECT a FROM t ORDER BY 1").unwrap();
        assert_eq!(
            rs.column_values("a").unwrap(),
            vec![Value::Int(11), Value::Int(12), Value::Int(13)]
        );
    }

    #[test]
    fn insert_with_column_list_fills_nulls() {
        let mut db = db_with_fixture();
        db.execute("INSERT INTO t (a) VALUES (9)").unwrap();
        let rs = db.query("SELECT b FROM t WHERE a = 9").unwrap();
        assert!(rs.rows[0].get(0).is_null());
    }

    #[test]
    fn insert_not_null_violation_via_column_list() {
        let mut db = db_with_fixture();
        let err = db
            .execute("INSERT INTO t (b) VALUES ('only-b')")
            .unwrap_err();
        assert!(matches!(err, Error::Schema(_)));
    }

    #[test]
    fn register_function_visible_to_sql() {
        let mut db = db_with_fixture();
        db.register_function("double_it", |args| match &args[0] {
            Value::Int(i) => Ok(Value::Int(i * 2)),
            _ => Ok(Value::Null),
        });
        let rs = db.query("SELECT DOUBLE_IT(a) FROM t WHERE a = 2").unwrap();
        assert_eq!(rs.rows[0].get(0), &Value::Int(4));
    }

    #[test]
    fn create_index_statement() {
        let mut db = db_with_fixture();
        let out = db.execute("CREATE INDEX ON t (a)").unwrap();
        assert_eq!(out, ExecOutcome::Dml(DmlOutcome::IndexCreated));
        let (_, stats) = db.query_with_stats("SELECT * FROM t WHERE a = 2").unwrap();
        assert_eq!(stats.index_probes, 1);
    }

    #[test]
    fn views_resolve_in_from() {
        let mut db = db_with_fixture();
        db.execute("CREATE VIEW v AS SELECT a FROM t WHERE b IS NOT NULL")
            .unwrap();
        let rs = db.query("SELECT * FROM v ORDER BY 1").unwrap();
        assert_eq!(rs.len(), 2);
    }
}
