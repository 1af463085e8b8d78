//! DML execution: INSERT, UPDATE, DELETE.
//!
//! UPDATE matters to the reproduction beyond completeness: the paper's §6
//! check-out discussion hinges on the fact that setting the `checkedout`
//! flag is a *separate* statement — and therefore a separate WAN round trip
//! — that recursive querying cannot absorb.

use std::cell::RefCell;

use crate::ast::{Expr, Statement};
use crate::catalog::Catalog;
use crate::error::{Error, Result};
use crate::exec::join::index_candidates;
use crate::exec::{
    expr::eval_expr, split_conjuncts, Bindings, Env, ExecConfig, ExecContext, ExecStats,
};
use crate::row::Row;
use crate::storage::Table;
use crate::value::Value;

/// Outcome of a non-query statement.
#[derive(Debug, Clone, PartialEq)]
pub enum DmlOutcome {
    Inserted(usize),
    Updated(usize),
    Deleted(usize),
    TableCreated,
    ViewCreated,
    IndexCreated,
    TableDropped,
}

/// Execute a DML/DDL statement against the catalog.
pub fn execute_statement(
    catalog: &mut Catalog,
    config: &ExecConfig,
    stmt: &Statement,
) -> Result<DmlOutcome> {
    match stmt {
        Statement::Query(_) => Err(Error::Eval(
            "queries go through Database::query, not execute_statement".into(),
        )),
        Statement::Insert {
            table,
            columns,
            rows,
        } => insert(catalog, config, table, columns.as_deref(), rows),
        Statement::Update {
            table,
            assignments,
            predicate,
        } => update(catalog, config, table, assignments, predicate.as_ref()),
        Statement::Delete { table, predicate } => {
            delete(catalog, config, table, predicate.as_ref())
        }
        Statement::CreateTable { name, columns } => {
            let schema = crate::schema::Schema::new(
                columns
                    .iter()
                    .map(|c| {
                        let col = crate::schema::Column::new(c.name.clone(), c.dtype);
                        if c.nullable {
                            col
                        } else {
                            col.not_null()
                        }
                    })
                    .collect(),
            );
            catalog.create_table(name, schema)?;
            Ok(DmlOutcome::TableCreated)
        }
        Statement::CreateView { name, query } => {
            catalog.create_view(name, query.clone())?;
            Ok(DmlOutcome::ViewCreated)
        }
        Statement::CreateIndex { table, column } => {
            catalog.table_mut(table)?.create_index(column)?;
            Ok(DmlOutcome::IndexCreated)
        }
        Statement::DropTable { name } => {
            catalog.drop_table(name)?;
            Ok(DmlOutcome::TableDropped)
        }
    }
}

/// Evaluate an expression with no row context (INSERT values).
fn eval_const(catalog: &Catalog, config: &ExecConfig, e: &Expr) -> Result<Value> {
    let stats = RefCell::new(ExecStats::default());
    let ctx = ExecContext::new(catalog, config, &stats);
    let bindings = Bindings::new();
    let row: Vec<Value> = Vec::new();
    let env = Env::new(&bindings, &row);
    eval_expr(&ctx, &env, e)
}

fn insert(
    catalog: &mut Catalog,
    config: &ExecConfig,
    table: &str,
    columns: Option<&[String]>,
    rows: &[Vec<Expr>],
) -> Result<DmlOutcome> {
    // Evaluate first (immutable borrow), then write.
    let schema = catalog.table(table)?.schema.clone();
    let positions: Vec<usize> = match columns {
        None => (0..schema.len()).collect(),
        Some(cols) => {
            let mut seen = std::collections::HashSet::new();
            let mut positions = Vec::with_capacity(cols.len());
            for c in cols {
                if !seen.insert(c.to_ascii_lowercase()) {
                    return Err(Error::Schema(format!("duplicate column '{c}' in INSERT")));
                }
                positions.push(schema.require(c)?);
            }
            positions
        }
    };

    let mut materialized = Vec::with_capacity(rows.len());
    for exprs in rows {
        if exprs.len() != positions.len() {
            return Err(Error::Schema(format!(
                "INSERT expects {} values per row, got {}",
                positions.len(),
                exprs.len()
            )));
        }
        let mut row = vec![Value::Null; schema.len()];
        for (pos, e) in positions.iter().zip(exprs) {
            row[*pos] = eval_const(catalog, config, e)?;
        }
        materialized.push(Row(row));
    }

    let t = catalog.table_mut(table)?;
    let n = materialized.len();
    for row in materialized {
        t.insert(row)?;
    }
    Ok(DmlOutcome::Inserted(n))
}

/// Ids of the rows of `table` that satisfy `predicate`, ascending. Visits
/// only the index candidates when a conjunct of the predicate names them
/// (see [`index_candidates`]); the whole predicate decides on each visited
/// row either way.
fn matching_rows(
    ctx: &ExecContext<'_>,
    table: &Table,
    bindings: &Bindings,
    predicate: Option<&Expr>,
) -> Result<Vec<usize>> {
    let Some(p) = predicate else {
        return Ok((0..table.len()).collect());
    };
    let candidates: Box<dyn Iterator<Item = usize>> =
        match index_candidates(ctx, table, &table.name, &split_conjuncts(p)) {
            Some(row_ids) => Box::new(row_ids.into_iter()),
            None => Box::new(0..table.len()),
        };
    let mut matched = Vec::new();
    for rid in candidates {
        if eval_expr(ctx, &Env::new(bindings, table.row(rid)), p)?.is_true() {
            matched.push(rid);
        }
    }
    Ok(matched)
}

fn update(
    catalog: &mut Catalog,
    config: &ExecConfig,
    table: &str,
    assignments: &[(String, Expr)],
    predicate: Option<&Expr>,
) -> Result<DmlOutcome> {
    let stats = RefCell::new(ExecStats::default());
    let mut updates: Vec<(usize, Vec<(usize, Value)>)> = Vec::new();
    {
        let ctx = ExecContext::new(catalog, config, &stats);
        let t = catalog.table(table)?;
        let bindings = Bindings::single(&t.name, t.schema.clone());
        let cols: Vec<usize> = assignments
            .iter()
            .map(|(c, _)| t.schema.require(c))
            .collect::<Result<_>>()?;
        for rid in matching_rows(&ctx, t, &bindings, predicate)? {
            let env = Env::new(&bindings, t.row(rid));
            let mut vals = Vec::with_capacity(cols.len());
            for (col_idx, (_, e)) in cols.iter().zip(assignments) {
                vals.push((*col_idx, eval_expr(&ctx, &env, e)?));
            }
            updates.push((rid, vals));
        }
    }
    let n = catalog.table_mut(table)?.apply_updates(&updates)?;
    Ok(DmlOutcome::Updated(n))
}

fn delete(
    catalog: &mut Catalog,
    config: &ExecConfig,
    table: &str,
    predicate: Option<&Expr>,
) -> Result<DmlOutcome> {
    let stats = RefCell::new(ExecStats::default());
    let doomed = {
        let ctx = ExecContext::new(catalog, config, &stats);
        let t = catalog.table(table)?;
        let bindings = Bindings::single(&t.name, t.schema.clone());
        matching_rows(&ctx, t, &bindings, predicate)?
    };
    let n = catalog.table_mut(table)?.delete_rows(&doomed);
    Ok(DmlOutcome::Deleted(n))
}
