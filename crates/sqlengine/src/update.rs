//! DML execution: INSERT, UPDATE, DELETE.
//!
//! UPDATE matters to the reproduction beyond completeness: the paper's §6
//! check-out discussion hinges on the fact that setting the `checkedout`
//! flag is a *separate* statement — and therefore a separate WAN round trip
//! — that recursive querying cannot absorb.

use crate::ast::{Expr, Statement};
use crate::catalog::Catalog;
use crate::error::{Error, Result};
use crate::exec::join::index_candidates;
use crate::exec::plan::Compiler;
use crate::exec::{ExecConfig, Frame};
use crate::row::Row;
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
        } => {
            let updates = matching_rows(catalog, config, table, predicate.as_ref(), assignments)?;
            let n = catalog.table_mut(table)?.apply_updates(&updates)?;
            Ok(DmlOutcome::Updated(n))
        }
        Statement::Delete { table, predicate } => {
            let doomed: Vec<usize> =
                matching_rows(catalog, config, table, predicate.as_ref(), &[])?
                    .into_iter()
                    .map(|(rid, _)| rid)
                    .collect();
            Ok(DmlOutcome::Deleted(
                catalog.table_mut(table)?.delete_rows(&doomed),
            ))
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
            catalog.create_index(table, column)?;
            Ok(DmlOutcome::IndexCreated)
        }
        Statement::DropTable { name } => {
            catalog.drop_table(name)?;
            Ok(DmlOutcome::TableDropped)
        }
    }
}

/// Evaluate expressions with no row context (INSERT values), in order.
fn eval_consts(catalog: &Catalog, config: &ExecConfig, exprs: &[Expr]) -> Result<Vec<Value>> {
    let mut compiler = Compiler::new(catalog, config);
    let compiled: Vec<_> = exprs
        .iter()
        .map(|e| compiler.expr(e))
        .collect::<Result<_>>()?;
    let disabled = pdm_obs::Recorder::disabled();
    let rt = compiler.rt(&disabled);
    let frame = Frame::of(&[], None);
    compiled
        .iter()
        .map(|e| Ok(e.eval(rt.cx(), &frame)?.into_owned()))
        .collect()
}

fn insert(
    catalog: &mut Catalog,
    config: &ExecConfig,
    table: &str,
    columns: Option<&[String]>,
    rows: &[Vec<Expr>],
) -> Result<DmlOutcome> {
    // Evaluate first (immutable borrow), then write.
    let schema = &catalog.table(table)?.schema;
    let positions: Vec<usize> = match columns {
        None => (0..schema.len()).collect(),
        Some(cols) => {
            let mut positions = Vec::with_capacity(cols.len());
            for (i, c) in cols.iter().enumerate() {
                if cols[..i].iter().any(|d| d.eq_ignore_ascii_case(c)) {
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
        for (pos, v) in positions.iter().zip(eval_consts(catalog, config, exprs)?) {
            row[*pos] = v;
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

/// A row id and the `(column, value)` assignments to write there.
type RowUpdate = (usize, Vec<(usize, Value)>);

/// The rows of `table` that satisfy `predicate`, ascending, each with the
/// values `assignments` take on it (UPDATE; none for DELETE). Predicate and
/// assignments are compiled once against the table's row. Only the index
/// candidates are visited when a conjunct of the predicate names them (see
/// [`index_probe`]); the whole predicate decides on each visited row either
/// way.
fn matching_rows(
    catalog: &Catalog,
    config: &ExecConfig,
    table: &str,
    predicate: Option<&Expr>,
    assignments: &[(String, Expr)],
) -> Result<Vec<RowUpdate>> {
    let t = catalog.table(table)?;
    let mut compiler = Compiler::new(catalog, config);
    compiler.bind_table(t);
    let cols: Vec<usize> = assignments
        .iter()
        .map(|(c, _)| t.schema.require(c))
        .collect::<Result<_>>()?;
    let predicate = predicate.map(|p| compiler.expr(p)).transpose()?;
    // The index is chosen from the conjuncts; the row is judged by the
    // predicate as written (its AND is three-valued and type-checked).
    let parts = predicate.iter().flat_map(|p| p.conjuncts());
    let probe = compiler.index_probe(t, 0, parts);
    let values = assignments
        .iter()
        .map(|(_, e)| compiler.expr(e))
        .collect::<Result<Vec<_>>>()?;

    let disabled = pdm_obs::Recorder::disabled();
    let rt = compiler.rt(&disabled);
    let candidates = match &probe {
        Some((col, keys)) => index_candidates(t, *col, keys, &[]),
        None => (0..t.len()).collect(),
    };
    let mut matched = Vec::new();
    for &rid in candidates.iter() {
        let row = [t.row(rid)];
        let frame = Frame::of(&row, None);
        if let Some(p) = &predicate {
            if !p.holds(rt.cx(), &frame)? {
                continue;
            }
        }
        let mut vals = Vec::with_capacity(cols.len());
        for (col, e) in cols.iter().zip(&values) {
            vals.push((*col, e.eval(rt.cx(), &frame)?.into_owned()));
        }
        matched.push((rid, vals));
    }
    Ok(matched)
}
