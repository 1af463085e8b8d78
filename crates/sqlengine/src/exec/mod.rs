//! Query executor.
//!
//! Evaluation is AST-walking over materialized row vectors — no byte-code,
//! no iterators-of-batches. That is a deliberate scope decision: the paper
//! ignores local execution cost ("transmission costs are the dominating
//! limitation factor", §6), so the executor optimizes only what changes
//! *row counts and correctness*: hash equi-joins, index pushdown,
//! semi-naive recursion, and once-only evaluation of uncorrelated
//! subqueries (the "intelligent query optimizer" the paper relies on in
//! §5.3.1).

pub mod aggregate;
pub mod explain;
pub mod expr;
pub mod join;
pub mod recursion;
pub mod setops;
pub mod subquery;

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;

use crate::ast::{Expr, OrderItem, Query, Select, SelectItem, SetExpr, TableFactor, With};
use crate::catalog::Catalog;
use crate::error::{Error, Result};
use crate::row::{ResultSet, Row};
use crate::schema::{Column, Schema};
use crate::value::{DataType, Value};

/// Tunables for execution; the ablation benches flip these.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Evaluate uncorrelated subqueries once per query instead of once per
    /// row (§5.3.1's optimizer assumption).
    pub subquery_cache: bool,
    /// Rewrite correlated `EXISTS` with equality correlation into a hashed
    /// semi-join evaluated once.
    pub semijoin_decorrelation: bool,
    /// Use hash indexes to find the rows of `col = literal` and
    /// `col IN (literals)` filters on base tables — in SELECT scans, UPDATE
    /// and DELETE alike.
    pub index_pushdown: bool,
    /// Iteration bound for recursive CTEs (cycle guard).
    pub recursion_limit: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            subquery_cache: true,
            semijoin_decorrelation: true,
            index_pushdown: true,
            recursion_limit: 10_000,
        }
    }
}

/// Counters describing what one query execution did. Exposed so tests and
/// the ablation benches can assert *how* a query ran, not just its result.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Subquery evaluations actually performed.
    pub subquery_evals: usize,
    /// Subquery evaluations avoided by the uncorrelated-result cache.
    pub subquery_cache_hits: usize,
    /// Correlated EXISTS rewrites into hashed semi-joins.
    pub decorrelated_semijoins: usize,
    /// Iterations across all recursive CTE evaluations.
    pub recursion_iterations: usize,
    /// Hash index look-ups made for base-table filters and index joins
    /// (an IN list counts one per item).
    pub index_probes: usize,
    /// Rows materialized out of base-table scans (after pushdown).
    pub rows_scanned: usize,
}

/// A single-binding materialized relation (CTE result, view result, derived
/// table, ...).
#[derive(Debug, Clone)]
pub struct RelRows {
    pub schema: Schema,
    pub rows: Vec<Vec<Value>>,
}

impl RelRows {
    pub fn from_result_set(rs: ResultSet) -> Self {
        RelRows {
            schema: rs.schema,
            rows: rs.rows.into_iter().map(|r| r.0).collect(),
        }
    }

    pub fn to_result_set(&self) -> ResultSet {
        ResultSet::new(
            self.schema.clone(),
            self.rows.iter().map(|r| Row(r.clone())).collect(),
        )
    }
}

/// Describes the flattened layout of a join intermediate: which binding
/// (table alias) starts at which offset, with which schema.
#[derive(Debug, Clone, Default)]
pub struct Bindings {
    entries: Vec<BindingEntry>,
    width: usize,
}

#[derive(Debug, Clone)]
pub struct BindingEntry {
    pub name: String,
    pub schema: Schema,
    pub offset: usize,
}

impl Bindings {
    pub fn new() -> Self {
        Bindings::default()
    }

    pub fn single(name: &str, schema: Schema) -> Self {
        let mut b = Bindings::new();
        b.push(name, schema);
        b
    }

    pub fn push(&mut self, name: &str, schema: Schema) -> usize {
        let offset = self.width;
        self.width += schema.len();
        self.entries.push(BindingEntry {
            name: name.to_ascii_lowercase(),
            schema,
            offset,
        });
        offset
    }

    pub fn entries(&self) -> &[BindingEntry] {
        &self.entries
    }

    pub fn width(&self) -> usize {
        self.width
    }

    pub fn entry(&self, name: &str) -> Option<&BindingEntry> {
        let lower = name.to_ascii_lowercase();
        self.entries.iter().find(|e| e.name == lower)
    }

    /// Resolve a column reference to a flat offset.
    /// `Ok(None)` means "not found here" (caller may try an outer scope);
    /// ambiguity is an error.
    pub fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<Option<usize>> {
        match qualifier {
            Some(q) => match self.entry(q) {
                Some(e) => Ok(e.schema.index_of(name).map(|i| e.offset + i)),
                None => Ok(None),
            },
            None => {
                let mut found = None;
                for e in &self.entries {
                    if let Some(i) = e.schema.index_of(name) {
                        if found.is_some() {
                            return Err(Error::Bind(format!("ambiguous column '{name}'")));
                        }
                        found = Some(e.offset + i);
                    }
                }
                Ok(found)
            }
        }
    }
}

/// A join intermediate: bindings + flattened rows.
#[derive(Debug, Clone)]
pub struct Relation {
    pub bindings: Bindings,
    pub rows: Vec<Vec<Value>>,
}

impl Relation {
    pub fn empty(bindings: Bindings) -> Self {
        Relation {
            bindings,
            rows: Vec::new(),
        }
    }
}

/// Evaluation environment for one row, chaining to outer query scopes for
/// correlated subqueries. `aggs` carries precomputed aggregate values when
/// evaluating projections/HAVING of a grouped query.
pub struct Env<'a> {
    pub bindings: &'a Bindings,
    pub row: &'a [Value],
    pub outer: Option<&'a Env<'a>>,
    pub aggs: Option<&'a HashMap<String, Value>>,
}

impl<'a> Env<'a> {
    pub fn new(bindings: &'a Bindings, row: &'a [Value]) -> Self {
        Env {
            bindings,
            row,
            outer: None,
            aggs: None,
        }
    }

    pub fn with_outer(
        bindings: &'a Bindings,
        row: &'a [Value],
        outer: Option<&'a Env<'a>>,
    ) -> Self {
        Env {
            bindings,
            row,
            outer,
            aggs: None,
        }
    }
}

/// Cached artifacts for subquery evaluation, keyed by the AST node address
/// (stable for the lifetime of one query execution).
#[derive(Default)]
pub struct SubqueryCache {
    /// Uncorrelated EXISTS/scalar/IN results.
    pub uncorrelated: HashMap<usize, CachedSubquery>,
    /// Decorrelated EXISTS semi-join key sets.
    pub semijoin: HashMap<usize, Arc<subquery::SemiJoinSet>>,
    /// Subqueries proven correlated (don't retry caching).
    pub known_correlated: std::collections::HashSet<usize>,
}

/// One cached uncorrelated subquery result.
#[derive(Clone)]
pub enum CachedSubquery {
    Exists(bool),
    Scalar(Value),
    /// `IN` set plus whether it contained NULL (three-valued logic).
    InSet(Arc<(std::collections::HashSet<Value>, bool)>),
}

/// Everything the executor threads through evaluation. Layered: WITH
/// clauses and recursion create children that add CTE bindings and a fresh
/// subquery cache.
pub struct ExecContext<'a> {
    pub catalog: &'a Catalog,
    pub config: &'a ExecConfig,
    pub stats: &'a RefCell<ExecStats>,
    /// Observability recorder for per-operator spans. Disabled by default
    /// (a free no-op handle), so profiling off changes nothing.
    pub obs: pdm_obs::Recorder,
    ctes: HashMap<String, Arc<RelRows>>,
    parent: Option<&'a ExecContext<'a>>,
    cache: RefCell<SubqueryCache>,
    /// Set when a column resolves in an outer scope during subquery
    /// evaluation — the runtime correlation detector.
    pub outer_access: Cell<bool>,
    /// View-expansion depth guard.
    depth: Cell<usize>,
}

impl<'a> ExecContext<'a> {
    pub fn new(
        catalog: &'a Catalog,
        config: &'a ExecConfig,
        stats: &'a RefCell<ExecStats>,
    ) -> Self {
        ExecContext {
            catalog,
            config,
            stats,
            obs: pdm_obs::Recorder::disabled(),
            ctes: HashMap::new(),
            parent: None,
            cache: RefCell::new(SubqueryCache::default()),
            outer_access: Cell::new(false),
            depth: Cell::new(0),
        }
    }

    /// Like [`ExecContext::new`] with an observability recorder attached:
    /// operators (scans, joins, recursion rounds, subqueries) emit spans
    /// into it as they run.
    pub fn with_recorder(
        catalog: &'a Catalog,
        config: &'a ExecConfig,
        stats: &'a RefCell<ExecStats>,
        obs: pdm_obs::Recorder,
    ) -> Self {
        let mut ctx = ExecContext::new(catalog, config, stats);
        ctx.obs = obs;
        ctx
    }

    /// Child layer: sees the parent's CTEs, adds its own, gets a fresh
    /// subquery cache (CTE bindings may differ, so cached results from the
    /// parent layer could be stale).
    pub fn child(&'a self) -> ExecContext<'a> {
        ExecContext {
            catalog: self.catalog,
            config: self.config,
            stats: self.stats,
            obs: self.obs.clone(),
            ctes: HashMap::new(),
            parent: Some(self),
            cache: RefCell::new(SubqueryCache::default()),
            outer_access: Cell::new(false),
            depth: Cell::new(self.depth.get()),
        }
    }

    pub fn bind_cte(&mut self, name: &str, rel: Arc<RelRows>) {
        self.ctes.insert(name.to_ascii_lowercase(), rel);
    }

    pub fn lookup_cte(&self, name: &str) -> Option<Arc<RelRows>> {
        let lower = name.to_ascii_lowercase();
        let mut ctx = Some(self);
        while let Some(c) = ctx {
            if let Some(rel) = c.ctes.get(&lower) {
                return Some(Arc::clone(rel));
            }
            ctx = c.parent;
        }
        None
    }

    pub fn cache(&self) -> &RefCell<SubqueryCache> {
        &self.cache
    }

    fn enter_view(&self) -> Result<()> {
        let d = self.depth.get();
        if d > 32 {
            return Err(Error::Eval(
                "view expansion too deep (cyclic views?)".into(),
            ));
        }
        self.depth.set(d + 1);
        Ok(())
    }

    fn exit_view(&self) {
        self.depth.set(self.depth.get() - 1);
    }
}

// ---------------------------------------------------------------------------
// Query evaluation
// ---------------------------------------------------------------------------

/// Evaluate a full query in `ctx`, with `outer` available for correlated
/// column references.
pub fn eval_query(
    ctx: &ExecContext<'_>,
    query: &Query,
    outer: Option<&Env<'_>>,
) -> Result<ResultSet> {
    let mut child;
    let ctx = if let Some(with) = &query.with {
        child = ctx.child();
        bind_with(&mut child, with, outer)?;
        &child
    } else {
        ctx
    };

    let mut result = match &query.body {
        // A plain SELECT may ORDER BY source columns that are not in the
        // projection; hidden sort columns handle that.
        SetExpr::Select(sel) if !query.order_by.is_empty() => {
            eval_select_ordered(ctx, sel, &query.order_by, outer)?
        }
        body => {
            let mut r = eval_set_expr(ctx, body, outer)?;
            if !query.order_by.is_empty() {
                // Set operations sort by output columns/ordinals only
                // (standard SQL).
                apply_order_by(&mut r, &query.order_by)?;
            }
            r
        }
    };

    if let Some(n) = query.limit {
        result.rows.truncate(n as usize);
    }
    Ok(result)
}

/// Evaluate a single SELECT with ORDER BY support for source columns: order
/// expressions that are neither ordinals nor output columns are appended as
/// hidden projection items, used for sorting, then stripped.
fn eval_select_ordered(
    ctx: &ExecContext<'_>,
    sel: &Select,
    order_by: &[OrderItem],
    outer: Option<&Env<'_>>,
) -> Result<ResultSet> {
    let needs_aggregate = !sel.group_by.is_empty()
        || sel.having.is_some()
        || sel.projection.iter().any(|item| match item {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            _ => false,
        });

    // Aggregate selects (and DISTINCT, where hidden columns would change
    // dedup semantics) sort on output columns/ordinals only.
    if needs_aggregate || sel.distinct {
        let mut result = eval_select(ctx, sel, outer)?;
        apply_order_by(&mut result, order_by)?;
        return Ok(result);
    }

    // Extend the projection with hidden sort expressions where needed.
    let mut extended = sel.clone();
    let visible_names: Vec<String> = {
        // Output names of the explicit (non-wildcard) items; wildcard names
        // resolve per row source, so leave those to the column probe below.
        extended
            .projection
            .iter()
            .filter_map(|item| match item {
                SelectItem::Expr { expr, alias } => Some(
                    alias
                        .clone()
                        .unwrap_or_else(|| default_name(expr, 0))
                        .to_ascii_lowercase(),
                ),
                _ => None,
            })
            .collect()
    };

    enum Key {
        Ordinal(usize),
        OutputName(String),
        Hidden(usize), // index among hidden items, resolved after projection
    }
    let mut keys: Vec<(Key, bool)> = Vec::new();
    let mut hidden: Vec<Expr> = Vec::new();
    for item in order_by {
        let key = match &item.expr {
            Expr::Literal(Value::Int(n)) => Key::Ordinal((*n - 1).max(0) as usize),
            Expr::Column {
                qualifier: None,
                name,
            } if visible_names.contains(&name.to_ascii_lowercase()) => {
                Key::OutputName(name.to_ascii_lowercase())
            }
            other => {
                hidden.push(other.clone());
                Key::Hidden(hidden.len() - 1)
            }
        };
        keys.push((key, item.desc));
    }
    let hidden_count = hidden.len();
    for (i, e) in hidden.into_iter().enumerate() {
        extended
            .projection
            .push(SelectItem::aliased(e, format!("__ord{i}")));
    }

    let mut result = eval_select(ctx, &extended, outer)?;
    let visible_cols = result.schema.len() - hidden_count;

    // Resolve keys to column indexes in the extended result.
    let mut key_idx: Vec<(usize, bool)> = Vec::with_capacity(keys.len());
    for (key, desc) in keys {
        let idx = match key {
            Key::Ordinal(i) => {
                if i >= visible_cols {
                    return Err(Error::Bind(format!(
                        "ORDER BY ordinal {} out of range 1..={visible_cols}",
                        i + 1
                    )));
                }
                i
            }
            Key::OutputName(name) => result.schema.require(&name)?,
            Key::Hidden(i) => visible_cols + i,
        };
        key_idx.push((idx, desc));
    }

    result.rows.sort_by(|a, b| {
        for &(idx, desc) in &key_idx {
            let ord = a.get(idx).total_cmp(b.get(idx));
            let ord = if desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });

    // Strip the hidden columns.
    if hidden_count > 0 {
        let schema = Schema::new(result.schema.columns()[..visible_cols].to_vec());
        for row in &mut result.rows {
            row.0.truncate(visible_cols);
        }
        result.schema = schema;
    }
    Ok(result)
}

/// Evaluate all CTEs of a WITH clause into the (child) context.
fn bind_with(ctx: &mut ExecContext<'_>, with: &With, outer: Option<&Env<'_>>) -> Result<()> {
    for cte in &with.ctes {
        let is_recursive = with.recursive && recursion::references_cte(&cte.query, &cte.name);
        let rel = if is_recursive {
            recursion::eval_recursive_cte(ctx, cte)?
        } else {
            let rs = eval_query(ctx, &cte.query, outer)?;
            recursion::rename_columns(RelRows::from_result_set(rs), &cte.columns, &cte.name)?
        };
        ctx.bind_cte(&cte.name, Arc::new(rel));
    }
    Ok(())
}

pub fn eval_set_expr(
    ctx: &ExecContext<'_>,
    body: &SetExpr,
    outer: Option<&Env<'_>>,
) -> Result<ResultSet> {
    match body {
        SetExpr::Select(sel) => eval_select(ctx, sel, outer),
        SetExpr::SetOp {
            op,
            all,
            left,
            right,
        } => {
            let l = eval_set_expr(ctx, left, outer)?;
            let r = eval_set_expr(ctx, right, outer)?;
            setops::apply(*op, *all, l, r)
        }
    }
}

/// Evaluate one SELECT block.
pub fn eval_select(
    ctx: &ExecContext<'_>,
    sel: &Select,
    outer: Option<&Env<'_>>,
) -> Result<ResultSet> {
    // 1. FROM: build the joined relation (with WHERE-conjunct pushdown into
    //    base-table scans when safe).
    let where_conjuncts = sel
        .where_clause
        .as_ref()
        .map(split_conjuncts)
        .unwrap_or_default();

    let (relation, residual) = join::build_from(ctx, sel, &where_conjuncts, outer)?;

    // Constant-FROM select (SELECT 1): single empty row.
    let rows: Vec<Vec<Value>> = if sel.from.is_empty() {
        vec![Vec::new()]
    } else {
        relation.rows
    };
    let bindings = relation.bindings;

    // 2. WHERE: residual conjuncts not already pushed into scans.
    let filter_span = if residual.is_empty() {
        None
    } else {
        Some(ctx.obs.span(pdm_obs::kinds::FILTER, "where"))
    };
    let rows_in = rows.len() as u64;
    let mut filtered = Vec::with_capacity(rows.len());
    for row in rows {
        let env = Env::with_outer(&bindings, &row, outer);
        let mut keep = true;
        for conj in &residual {
            if !expr::eval_expr(ctx, &env, conj)?.is_true() {
                keep = false;
                break;
            }
        }
        if keep {
            filtered.push(row);
        }
    }
    if let Some(span) = filter_span {
        span.set_rows(rows_in, filtered.len() as u64);
    }

    // 3. Aggregation or plain projection.
    let needs_aggregate = !sel.group_by.is_empty()
        || sel.having.is_some()
        || sel.projection.iter().any(|item| match item {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            _ => false,
        });

    let mut result = if needs_aggregate {
        aggregate::eval_aggregate_select(ctx, sel, &bindings, filtered, outer)?
    } else {
        project(ctx, sel, &bindings, &filtered, outer)?
    };

    // 4. DISTINCT.
    if sel.distinct {
        let mut seen = std::collections::HashSet::new();
        result.rows.retain(|r| seen.insert(r.clone()));
    }

    Ok(result)
}

/// Split an expression into its top-level AND conjuncts.
pub fn split_conjuncts(e: &Expr) -> Vec<Expr> {
    match e {
        Expr::BinaryOp {
            left,
            op: crate::ast::BinOp::And,
            right,
        } => {
            let mut parts = split_conjuncts(left);
            parts.extend(split_conjuncts(right));
            parts
        }
        other => vec![other.clone()],
    }
}

/// Expand the projection list against `bindings` into (expr, name) pairs.
pub(crate) fn expand_projection(sel: &Select, bindings: &Bindings) -> Result<Vec<(Expr, String)>> {
    let mut items = Vec::new();
    for item in &sel.projection {
        match item {
            SelectItem::Wildcard => {
                for e in bindings.entries() {
                    for c in e.schema.columns() {
                        items.push((
                            Expr::Column {
                                qualifier: Some(e.name.clone()),
                                name: c.name.clone(),
                            },
                            c.name.clone(),
                        ));
                    }
                }
            }
            SelectItem::QualifiedWildcard(q) => {
                let e = bindings
                    .entry(q)
                    .ok_or_else(|| Error::Bind(format!("unknown table alias '{q}' in {q}.*")))?;
                for c in e.schema.columns() {
                    items.push((
                        Expr::Column {
                            qualifier: Some(e.name.clone()),
                            name: c.name.clone(),
                        },
                        c.name.clone(),
                    ));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = alias
                    .clone()
                    .unwrap_or_else(|| default_name(expr, items.len()));
                items.push((expr.clone(), name.to_ascii_lowercase()));
            }
        }
    }
    Ok(items)
}

fn default_name(expr: &Expr, ordinal: usize) -> String {
    match expr {
        Expr::Column { name, .. } => name.clone(),
        Expr::Function { name, .. } => name.clone(),
        _ => format!("col{}", ordinal + 1),
    }
}

/// Best-effort output type inference (used for result-schema metadata; the
/// executor itself is dynamically typed).
fn infer_type(expr: &Expr, bindings: &Bindings) -> DataType {
    match expr {
        Expr::Column { qualifier, name } => {
            if let Ok(Some(_)) = bindings.resolve(qualifier.as_deref(), name) {
                for e in bindings.entries() {
                    if let Some(i) = match qualifier {
                        Some(q) if e.name == q.to_ascii_lowercase() => e.schema.index_of(name),
                        Some(_) => None,
                        None => e.schema.index_of(name),
                    } {
                        return e.schema.column(i).dtype;
                    }
                }
            }
            DataType::Text
        }
        Expr::Literal(v) => v.data_type().unwrap_or(DataType::Int),
        Expr::Cast { dtype, .. } => *dtype,
        Expr::Function { name, .. } if name == "count" => DataType::Int,
        Expr::BinaryOp { op, left, .. } => match op {
            crate::ast::BinOp::And
            | crate::ast::BinOp::Or
            | crate::ast::BinOp::Eq
            | crate::ast::BinOp::NotEq
            | crate::ast::BinOp::Lt
            | crate::ast::BinOp::LtEq
            | crate::ast::BinOp::Gt
            | crate::ast::BinOp::GtEq => DataType::Bool,
            crate::ast::BinOp::Concat => DataType::Text,
            _ => infer_type(left, bindings),
        },
        Expr::Not(_) | Expr::IsNull { .. } | Expr::Exists { .. } | Expr::Between { .. } => {
            DataType::Bool
        }
        Expr::InList { .. } | Expr::InSubquery { .. } => DataType::Bool,
        Expr::Negate(e) => infer_type(e, bindings),
        _ => DataType::Text,
    }
}

/// Plain (non-aggregate) projection.
fn project(
    ctx: &ExecContext<'_>,
    sel: &Select,
    bindings: &Bindings,
    rows: &[Vec<Value>],
    outer: Option<&Env<'_>>,
) -> Result<ResultSet> {
    let items = expand_projection(sel, bindings)?;
    let schema = Schema::new(
        items
            .iter()
            .map(|(e, n)| Column::new(n.clone(), infer_type(e, bindings)))
            .collect(),
    );
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        let env = Env::with_outer(bindings, row, outer);
        let mut values = Vec::with_capacity(items.len());
        for (e, _) in &items {
            values.push(expr::eval_expr(ctx, &env, e)?);
        }
        out.push(Row(values));
    }
    Ok(ResultSet::new(schema, out))
}

/// ORDER BY: ordinals (`ORDER BY 1,2`) or output-column names.
fn apply_order_by(result: &mut ResultSet, order_by: &[OrderItem]) -> Result<()> {
    let mut keys = Vec::with_capacity(order_by.len());
    for item in order_by {
        let idx = match &item.expr {
            Expr::Literal(Value::Int(n)) => {
                let n = *n;
                if n < 1 || n as usize > result.schema.len() {
                    return Err(Error::Bind(format!(
                        "ORDER BY ordinal {n} out of range 1..={}",
                        result.schema.len()
                    )));
                }
                (n - 1) as usize
            }
            Expr::Column {
                qualifier: None,
                name,
            } => result.schema.require(name)?,
            other => {
                return Err(Error::Bind(format!(
                    "ORDER BY supports ordinals and output columns, got {other}"
                )))
            }
        };
        keys.push((idx, item.desc));
    }
    result.rows.sort_by(|a, b| {
        for &(idx, desc) in &keys {
            let ord = a.get(idx).total_cmp(b.get(idx));
            let ord = if desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(())
}

/// Resolve a table factor into a named source for the join builder.
pub enum FactorSource {
    /// Borrow a base table from the catalog (rows accessed by reference).
    Table(String),
    /// Materialized rows (CTE, view, derived table).
    Rows(Arc<RelRows>),
}

pub fn factor_source(
    ctx: &ExecContext<'_>,
    factor: &TableFactor,
    outer: Option<&Env<'_>>,
) -> Result<(String, FactorSource)> {
    match factor {
        TableFactor::Table { name, alias } => {
            let binding = alias.as_deref().unwrap_or(name).to_ascii_lowercase();
            if let Some(rel) = ctx.lookup_cte(name) {
                return Ok((binding, FactorSource::Rows(rel)));
            }
            if ctx.catalog.has_table(name) {
                return Ok((binding, FactorSource::Table(name.to_ascii_lowercase())));
            }
            if let Some(view) = ctx.catalog.view(name) {
                ctx.enter_view()?;
                let query = view.query.clone();
                let rs = eval_query(ctx, &query, None);
                ctx.exit_view();
                return Ok((
                    binding,
                    FactorSource::Rows(Arc::new(RelRows::from_result_set(rs?))),
                ));
            }
            Err(Error::Bind(format!("unknown table '{name}'")))
        }
        TableFactor::Derived { subquery, alias } => {
            let rs = eval_query(ctx, subquery, outer)?;
            Ok((
                alias.to_ascii_lowercase(),
                FactorSource::Rows(Arc::new(RelRows::from_result_set(rs))),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bindings_resolution() {
        let mut b = Bindings::new();
        b.push(
            "assy",
            Schema::new(vec![
                Column::new("obid", DataType::Int),
                Column::new("name", DataType::Text),
            ]),
        );
        b.push(
            "link",
            Schema::new(vec![
                Column::new("obid", DataType::Int),
                Column::new("left", DataType::Int),
            ]),
        );
        assert_eq!(b.width(), 4);
        assert_eq!(b.resolve(Some("assy"), "obid").unwrap(), Some(0));
        assert_eq!(b.resolve(Some("link"), "left").unwrap(), Some(3));
        assert_eq!(b.resolve(None, "name").unwrap(), Some(1));
        assert_eq!(b.resolve(None, "missing").unwrap(), None);
        assert!(b.resolve(None, "obid").is_err()); // ambiguous
        assert_eq!(b.resolve(Some("nope"), "x").unwrap(), None);
    }

    #[test]
    fn split_conjuncts_flattens_ands() {
        let e = crate::parser::parse_expr("a = 1 AND b = 2 AND (c = 3 OR d = 4)").unwrap();
        let parts = split_conjuncts(&e);
        assert_eq!(parts.len(), 3);
    }

    #[test]
    fn default_names() {
        assert_eq!(default_name(&Expr::col("x"), 0), "x");
        assert_eq!(
            default_name(
                &Expr::Function {
                    name: "count".into(),
                    args: vec![],
                    star: true
                },
                0
            ),
            "count"
        );
        assert_eq!(default_name(&Expr::lit(1i64), 2), "col3");
    }
}
