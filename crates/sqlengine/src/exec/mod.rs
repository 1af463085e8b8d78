//! Query executor: compile, then run.
//!
//! A statement is compiled once ([`plan`]) into a resolved physical plan —
//! every column a position, every SELECT block's conjunct split, push-down
//! targets, index probes, join methods, projection and aggregate slots fixed —
//! and the operators in this module only *run* that plan, with the values
//! its template's `$n` are bound to and its base tables looked up in the
//! catalog of the run (`Plan::run`). Between a scan and a projection a row
//! is a handful of references into the snapshot's shared rows ([`join`]); a
//! `Value` is cloned only where SQL materialises one — and not even there
//! by a *sharing* block: a SELECT of the statement's own body (a set
//! operation's branches included) over one base table that projects only
//! its columns and constants, ungrouped, with no hidden ORDER BY column.
//! Its result row is the stored row's `Arc` read through the block's layout
//! ([`crate::row`]), as the Query action's two blocks and the root fetch
//! are. Joins, CTE bodies, views, derived tables, subqueries and computed
//! projections copy, so every row a FROM clause binds is a `&[Value]`.
//! EXPLAIN renders the same plan ([`explain`]), so it cannot drift from
//! what runs.
//!
//! This replaced an AST walker that resolved names per row and copied rows
//! at every operator boundary. The paper may ignore local execution cost
//! ("transmission costs are the dominating limitation factor", §6); this
//! repository's first aim holds the server to the same cost decomposition
//! as the WAN, and after the hit path was fixed every workload but one
//! spent its server time here. The *decisions* are unchanged — hash
//! equi-joins, index pushdown, semi-naive recursion, once-only evaluation
//! of uncorrelated subqueries (the "intelligent query optimizer" the paper
//! relies on in §5.3.1): the executor still optimizes what changes row
//! counts, it just no longer re-derives it per call, per round and per row.
//! Evaluation stays row-at-a-time over materialized operator outputs — no
//! byte-code, no iterators-of-batches — but a leaf is not interpreted: a
//! column or a constant is an *operand* (`PExpr::operand`), read in
//! place where the plan put it: `PExpr::eval` returns it as a borrow before
//! it interprets anything, so a projected column is cloned once, into the
//! result. A comparison of two operands decides in place (`holds`: no
//! `Value` is built for its truth, through the truth table `eval` also
//! uses), and a cast of a literal was folded into the literal when the
//! statement compiled (a cast that fails stays an operator, to fail only
//! where a row reaches it).

pub mod aggregate;
pub mod explain;
pub mod expr;
pub mod join;
pub mod plan;
pub mod recursion;
pub mod setops;
pub mod subquery;

use std::cell::RefCell;
use std::ops::Range;
use std::sync::Arc;

use crate::ast::{Query, SetOp};
use crate::catalog::Catalog;
use crate::error::Result;
use crate::row::{ResultSet, Row, Slot};
use crate::storage::{SharedRow, Table};
use crate::value::Value;

use join::Admitted;
use plan::{CteBody, CtePlan, PExpr, Plan, QueryPlan, SelectPlan, SetPlan, Source};
use subquery::Cached;

/// Tunables for execution; the ablation benches flip these. They are read
/// when a statement is compiled ([`plan`]); the run only follows the plan.
#[derive(Debug, Clone, PartialEq)]
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
    /// Times a subquery plan was run: once per cache scope for an
    /// uncorrelated one, once (before its key set is built) for a
    /// decorrelated EXISTS, once per outer row otherwise.
    pub subquery_evals: usize,
    /// Evaluations of a subquery expression answered without running its
    /// plan: from its cache slot, or by probing its semi-join key set.
    pub subquery_cache_hits: usize,
    /// Semi-join key sets built for correlated EXISTS subqueries.
    pub decorrelated_semijoins: usize,
    /// Rounds across all recursive CTE evaluations (the last, empty one of
    /// each included).
    pub recursion_iterations: usize,
    /// Hash index look-ups: one per literal of a scan's index probe (an IN
    /// list counts one per item), one per non-NULL left key of an index
    /// nested-loop join.
    pub index_probes: usize,
    /// Rows a scan handed on after its pushed-down filters, plus the rows
    /// an index nested-loop join produced.
    pub rows_scanned: usize,
    /// UNIONs whose de-duplication hashed one column of each row, not the
    /// whole row (`setops::Seen`): the paper's Query runs one.
    pub keyed_dedups: usize,
}

/// What one statement's run shares: counters, the span recorder, the
/// subquery cache slots the plan numbered, the values its `$n` read and the
/// base tables its slots name.
pub(crate) struct Rt<'r> {
    pub stats: RefCell<ExecStats>,
    /// Observability recorder for per-operator spans. Disabled by default
    /// (a free no-op handle), so profiling off changes nothing.
    pub obs: &'r pdm_obs::Recorder,
    cache: RefCell<Vec<Option<Cached>>>,
    /// What [`plan::Const::Param`] reads.
    pub params: &'r [Value],
    /// [`Source::Table`] slot → table.
    pub tables: Vec<&'r Table>,
}

impl<'r> Rt<'r> {
    pub fn new(
        obs: &'r pdm_obs::Recorder,
        slots: usize,
        params: &'r [Value],
        tables: Vec<&'r Table>,
    ) -> Self {
        Rt {
            stats: RefCell::default(),
            obs,
            cache: RefCell::new(vec![None; slots]),
            params,
            tables,
        }
    }

    /// The context a statement starts in: no CTE bound.
    pub fn cx(&self) -> Cx<'_> {
        Cx {
            rt: self,
            ctes: None,
        }
    }

    fn cached(&self, slot: usize) -> Option<Cached> {
        self.cache.borrow()[slot].clone()
    }

    fn cache(&self, slot: usize, value: Cached) {
        self.cache.borrow_mut()[slot] = Some(value);
    }

    /// Forget the results cached for `slots`: the relations those
    /// subqueries may read are about to change.
    fn reset_slots(&self, slots: Range<usize>) {
        if !slots.is_empty() {
            self.cache.borrow_mut()[slots].fill(None);
        }
    }
}

/// The materialised CTEs in scope, innermost first (a recursion round binds
/// the CTE's name to the previous round's delta this way).
pub(crate) struct CteEnv<'c> {
    pub id: usize,
    pub rows: &'c [Row],
    pub parent: Option<&'c CteEnv<'c>>,
}

/// What every operator and expression receives.
#[derive(Clone, Copy)]
pub(crate) struct Cx<'c> {
    pub rt: &'c Rt<'c>,
    pub ctes: Option<&'c CteEnv<'c>>,
}

impl<'c> Cx<'c> {
    /// Rows of the CTE the plan numbered `id`.
    fn cte(self, id: usize) -> &'c [Row] {
        let mut env = self.ctes;
        while let Some(e) = env {
            if e.id == id {
                return e.rows;
            }
            env = e.parent;
        }
        unreachable!("a CTE is evaluated before anything that reads it")
    }
}

/// One row under evaluation: a reference per FROM binding of the SELECT, the
/// enclosing queries' rows for correlated references (`PExpr::Column::depth`
/// steps out), and the group's aggregate values when there is a group.
pub(crate) struct Frame<'f, 'v> {
    pub row: &'f [&'v [Value]],
    pub outer: Option<&'f Frame<'f, 'v>>,
    pub aggs: &'f [Value],
}

impl<'f, 'v> Frame<'f, 'v> {
    /// A row outside any group.
    pub fn of(row: &'f [&'v [Value]], outer: Option<&'f Frame<'f, 'v>>) -> Self {
        let aggs = &[];
        Frame { row, outer, aggs }
    }
}

// ---------------------------------------------------------------------------
// Query evaluation
// ---------------------------------------------------------------------------

/// Compile `query` with its `$n` bound to `params` ([`plan::compile`]) and
/// run it; operators emit spans into `obs` as they run.
pub fn execute(
    catalog: &Catalog,
    config: &ExecConfig,
    query: &Query,
    params: &[Value],
    obs: &pdm_obs::Recorder,
) -> Result<(ResultSet, ExecStats)> {
    plan::compile(catalog, config, query, params)?.run(catalog, params, obs)
}

impl Plan {
    /// Run the plan on `catalog`, which must have the
    /// [`shape`](Catalog::shape) it was compiled on, with its `$n` bound to
    /// `params`. The result shares the plan's schema.
    pub(crate) fn run(
        &self,
        catalog: &Catalog,
        params: &[Value],
        obs: &pdm_obs::Recorder,
    ) -> Result<(ResultSet, ExecStats)> {
        let tables = self.tables.iter().map(|name| catalog.table(name));
        let rt = Rt::new(obs, self.slots, params, tables.collect::<Result<_>>()?);
        let rows = run_query(rt.cx(), &self.query, None)?;
        let schema = Arc::clone(&self.query.schema);
        Ok((ResultSet::new(schema, rows), rt.stats.into_inner()))
    }
}

/// Run a query with `outer` available for correlated column references.
pub(crate) fn run_query(
    cx: Cx<'_>,
    q: &QueryPlan,
    outer: Option<&Frame<'_, '_>>,
) -> Result<Vec<Row>> {
    if !q.ctes.is_empty() {
        cx.rt.reset_slots(q.slots.clone());
    }
    run_with(cx, &q.ctes, q, outer)
}

/// Materialise the CTEs of a WITH clause one after the other, each visible
/// to the next, then run the body under all of them.
fn run_with(
    cx: Cx<'_>,
    ctes: &[CtePlan],
    q: &QueryPlan,
    outer: Option<&Frame<'_, '_>>,
) -> Result<Vec<Row>> {
    let Some((cte, rest)) = ctes.split_first() else {
        return run_body(cx, q, outer);
    };
    let rows = match &cte.body {
        CteBody::Plain(query) => run_query(cx, query, outer)?,
        CteBody::Recursive { .. } => recursion::run_recursive(cx, cte)?,
    };
    let bound = CteEnv {
        id: cte.id,
        rows: &rows,
        parent: cx.ctes,
    };
    let ctes = Some(&bound);
    run_with(Cx { ctes, ..cx }, rest, q, outer)
}

fn run_body(cx: Cx<'_>, q: &QueryPlan, outer: Option<&Frame<'_, '_>>) -> Result<Vec<Row>> {
    let mut rows = run_set(cx, &q.body, outer)?;
    if let Some(keys) = &q.sort {
        rows.sort_by(|a, b| {
            keys.iter()
                .map(|&(idx, desc)| {
                    let ord = a.get(idx).total_cmp(b.get(idx));
                    if desc {
                        ord.reverse()
                    } else {
                        ord
                    }
                })
                .find(|ord| ord.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        // Strip hidden sort columns.
        let visible = q.schema.len();
        if visible < q.body.schema().len() {
            rows.iter_mut().for_each(|row| row.truncate(visible));
        }
    }
    if let Some(n) = q.limit {
        rows.truncate(n as usize);
    }
    Ok(rows)
}

pub(crate) fn run_set(
    cx: Cx<'_>,
    body: &SetPlan,
    outer: Option<&Frame<'_, '_>>,
) -> Result<Vec<Row>> {
    match body {
        SetPlan::Select(sel) => run_select(cx, sel, outer),
        SetPlan::Op {
            op,
            all,
            left,
            right,
        } => {
            let l = run_set(cx, left, outer)?;
            let r = run_set(cx, right, outer)?;
            let key = match (op, all) {
                (SetOp::Union, false) => unique_key(cx, left, right),
                _ => None,
            };
            cx.rt.stats.borrow_mut().keyed_dedups += usize::from(key.is_some());
            Ok(setops::apply(*op, *all, key, l, r))
        }
    }
}

/// The output ordinal a UNION of two sharing blocks ([`SelectPlan::layout`])
/// de-duplicates by: the first at which each block reads a column its
/// table, in the snapshot this statement runs on, holds unique
/// ([`Table::holds_unique`]). `None` (hash the whole row) for any other
/// operand, and when no ordinal qualifies. The reading only bounds the
/// dedup's probe chains ([`setops::Seen`]): the rows kept do not depend
/// on it.
fn unique_key(cx: Cx<'_>, left: &SetPlan, right: &SetPlan) -> Option<usize> {
    let (SetPlan::Select(l), SetPlan::Select(r)) = (left, right) else {
        return None;
    };
    let unique = |sel: &SelectPlan, slot: &Slot| match (&sel.factors[0].source, slot) {
        (Source::Table(table), Slot::Column(column)) => cx.rt.tables[*table].holds_unique(*column),
        _ => false,
    };
    let (l_layout, r_layout) = (l.layout.as_ref()?, r.layout.as_ref()?);
    (l_layout.iter().zip(r_layout)).position(|(a, b)| unique(l, a) && unique(r, b))
}

/// Evaluate one SELECT block.
fn run_select(cx: Cx<'_>, sel: &SelectPlan, outer: Option<&Frame<'_, '_>>) -> Result<Vec<Row>> {
    let mut out = match &sel.layout {
        Some(layout) => run_shared(cx, sel, layout, outer)?,
        None => run_owned(cx, sel, outer)?,
    };
    if sel.distinct {
        out = setops::distinct(out.into_iter(), setops::Seen::default());
    }
    Ok(out)
}

/// FROM, WHERE and the projection of a block that copies what it projects.
fn run_owned(cx: Cx<'_>, sel: &SelectPlan, outer: Option<&Frame<'_, '_>>) -> Result<Vec<Row>> {
    // 1. FROM. Views and derived tables are materialised first, in order; a
    //    view never sees the enclosing query's rows. A constant select
    //    (`SELECT 1`) has one row of one empty binding.
    let mut mats: Vec<Vec<Row>> = Vec::with_capacity(sel.subs);
    for f in &sel.factors {
        if let Source::Sub { plan, view, .. } = &f.source {
            mats.push(run_query(cx, plan, outer.filter(|_| view.is_none()))?);
        }
    }
    let (n, mut rows) = match sel.factors.len() {
        0 => (1, vec![&[][..]]),
        n => (n, join::run_from(cx, sel, &mats, outer)?),
    };

    // 2. WHERE: the conjuncts no scan took.
    filter(cx, &mut rows, n, &residual(sel), outer)?;

    // 3. Aggregation or plain projection: the one place a SELECT copies
    //    values, into its result.
    match &sel.group {
        Some(group) => aggregate::run_group(cx, sel, group, &rows, n, outer),
        None => {
            let mut out = Vec::with_capacity(rows.len() / n);
            for row in rows.chunks(n) {
                let frame = Frame::of(row, outer);
                let mut values = Vec::with_capacity(sel.items.len());
                for e in &sel.items {
                    values.push(e.eval(cx, &frame)?.into_owned());
                }
                out.push(Row::new(values));
            }
            Ok(out)
        }
    }
}

/// FROM, WHERE and the projection of a sharing block
/// ([`SelectPlan::layout`]): each row it admits is handed on as the stored
/// row, read through a layout this run builds once (so concurrent runs of
/// one kept plan count no shared reference).
fn run_shared(
    cx: Cx<'_>,
    sel: &SelectPlan,
    layout: &[Slot],
    outer: Option<&Frame<'_, '_>>,
) -> Result<Vec<Row>> {
    let mut rows = join::scan_stored(cx, sel, outer)?;
    filter(cx, &mut rows, 1, &residual(sel), outer)?;
    let layout: Arc<[Slot]> = layout.into();
    let share = |stored: &SharedRow| Row::shared(Arc::clone(stored), Arc::clone(&layout));
    Ok(rows.into_iter().map(share).collect())
}

/// The WHERE conjuncts of `sel` no scan took.
fn residual(sel: &SelectPlan) -> Vec<&PExpr> {
    sel.residual.iter().map(|c| &c.expr).collect()
}

/// Keep the joined rows (`n` references each) on which every conjunct holds.
pub(crate) fn filter<'v, A: Admitted<'v>>(
    cx: Cx<'v>,
    rows: &mut Vec<A>,
    n: usize,
    conjuncts: &[&'v PExpr],
    outer: Option<&Frame<'_, 'v>>,
) -> Result<()> {
    if conjuncts.is_empty() {
        return Ok(());
    }
    let span = cx.rt.obs.span(pdm_obs::kinds::FILTER, "where");
    let rows_in = rows.len() / n;
    let mut kept = 0;
    let mut bound: Vec<&'v [Value]> = vec![&[]; n];
    'rows: for i in 0..rows_in {
        for (b, row) in bound.iter_mut().zip(&rows[i * n..(i + 1) * n]) {
            *b = row.values();
        }
        let frame = Frame::of(&bound, outer);
        for c in conjuncts {
            if !c.holds(cx, &frame)? {
                continue 'rows;
            }
        }
        rows.copy_within(i * n..(i + 1) * n, kept * n);
        kept += 1;
    }
    rows.truncate(kept * n);
    span.set_rows(rows_in as u64, kept as u64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::plan::{conjuncts, PExpr};
    use super::*;
    use crate::parser::parse_expr;
    use crate::Database;

    /// Compile `sql` in the scope of `SELECT … FROM assy, link`.
    fn resolve(sql: &str) -> Result<(usize, usize)> {
        let mut db = Database::new();
        db.execute("CREATE TABLE assy (obid INTEGER, name VARCHAR)")?;
        db.execute("CREATE TABLE link (obid INTEGER, left INTEGER)")?;
        let q = crate::parser::parse_query(&format!("SELECT {sql} FROM assy, link"))?;
        let plan = plan::compile(&db.catalog, &db.config, &q, &[])?;
        let SetPlan::Select(sel) = &plan.query.body else {
            unreachable!()
        };
        match sel.items[0] {
            PExpr::Column {
                depth: 0,
                binding,
                ordinal,
            } => Ok((binding, ordinal)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn bindings_resolution() {
        assert_eq!(resolve("assy.obid").unwrap(), (0, 0));
        assert_eq!(resolve("link.left").unwrap(), (1, 1));
        assert_eq!(resolve("LINK.Left").unwrap(), (1, 1));
        assert_eq!(resolve("name").unwrap(), (0, 1));
        let unknown = resolve("missing").unwrap_err().to_string();
        assert!(unknown.contains("unknown column 'missing'"), "{unknown}");
        let ambiguous = resolve("obid").unwrap_err().to_string();
        assert!(ambiguous.contains("ambiguous column 'obid'"), "{ambiguous}");
        let qualified = resolve("nope.x").unwrap_err().to_string();
        assert!(qualified.contains("unknown column 'nope.x'"), "{qualified}");
    }

    #[test]
    fn split_conjuncts_flattens_ands() {
        let e = parse_expr("a = 1 AND b = 2 AND (c = 3 OR d = 4)").unwrap();
        assert_eq!(conjuncts(&e).len(), 3);
    }

    #[test]
    fn default_names() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (x VARCHAR)").unwrap();
        let rs = db
            .query("SELECT x, UPPER(x), 1, x AS \"Y\" FROM t")
            .unwrap();
        assert_eq!(rs.schema.names(), ["x", "upper", "col3", "y"]);
    }

    #[test]
    fn a_plan_names_its_tables_and_is_bound_where_a_decision_read_a_value() {
        let mut db = Database::new();
        for ddl in [
            "CREATE TABLE t (a INTEGER, f DOUBLE, c VARCHAR)",
            "CREATE TABLE u (a INTEGER)",
            "CREATE INDEX ON t (a)",
            "CREATE INDEX ON t (f)",
        ] {
            db.execute(ddl).unwrap();
        }
        let plan = |template: &str| {
            let q = crate::parser::parse_template(template).unwrap();
            let values = [Value::Int(1), Value::Int(2)];
            let plan = plan::compile(&db.catalog, &db.config, &q, &values).unwrap();
            (plan.is_bound(), plan.tables().join(","))
        };
        // Values compared, probed on an INTEGER index, listed, aggregated
        // over without being named: any values.
        assert_eq!(
            plan(
                "SELECT u.a FROM u JOIN t ON t.a = u.a WHERE t.a = $1 \
                 UNION SELECT COUNT(*) FROM t WHERE a IN ($1, $2) AND c < 'x' GROUP BY c"
            ),
            (false, "u,t".into())
        );
        for reads_a_value in [
            "SELECT a FROM t ORDER BY $1",
            "SELECT a FROM t UNION SELECT a FROM u ORDER BY $1",
            "SELECT $1 FROM t",
            "SELECT SUM(a + $1) FROM t",
            "SELECT c FROM t WHERE f = $1",
        ] {
            assert!(plan(reads_a_value).0, "{reads_a_value}");
        }
    }
}
