//! FROM-clause evaluation: scans with pushed-down filters and index probes,
//! index nested-loop joins, hash equi-joins with nested-loop fallback, LEFT
//! joins, and cross products — each as the plan fixed it.
//!
//! A joined row is one *reference* per FROM binding: a `&[Value]` into the
//! snapshot's shared rows, or into a CTE / view / derived relation its
//! operator keeps alive. `n` joined bindings are `n` consecutive references
//! in one flat vector; nothing is copied and no flattened row is built. A
//! candidate row is placed into a scratch frame, its filters are tested
//! there, and only a row that passes is appended (as pointers). The scan of
//! a sharing block (`scan_stored`) appends the stored row's `Arc` instead,
//! which its projection clones into the result.

use std::borrow::Cow;
use std::collections::HashMap;

use crate::ast::JoinKind;
use crate::error::Result;
use crate::exec::plan::{Const, Factor, Join, PExpr, SelectPlan, Source};
use crate::exec::{Cx, Frame};
use crate::row::Row;
use crate::storage::{SharedRow, Table};
use crate::value::Value;

/// What a scan appends for a row it admits: a reference to it, as a FROM
/// binding (`&[Value]`) or, for a sharing block, as the stored row.
pub(crate) trait Admitted<'v>: Copy {
    fn stored(row: &'v SharedRow) -> Self;
    fn materialized(row: &'v Row) -> Self;
    fn values(self) -> &'v [Value];
}

impl<'v> Admitted<'v> for &'v [Value] {
    fn stored(row: &'v SharedRow) -> Self {
        row
    }
    fn materialized(row: &'v Row) -> Self {
        row.as_slice()
    }
    fn values(self) -> &'v [Value] {
        self
    }
}

impl<'v> Admitted<'v> for &'v SharedRow {
    fn stored(row: &'v SharedRow) -> Self {
        row
    }
    fn materialized(_: &'v Row) -> Self {
        unreachable!("a sharing block scans a base table")
    }
    fn values(self) -> &'v [Value] {
        self
    }
}

/// Where a factor's rows are read from.
#[derive(Clone, Copy)]
enum Rows<'v> {
    Table(&'v Table),
    Materialized(&'v [Row]),
}

/// Build the joined rows of a SELECT's FROM clause: `factors.len()`
/// references per row. `mats` are the SELECT's materialised views and
/// derived tables.
pub(crate) fn run_from<'v>(
    cx: Cx<'v>,
    sel: &'v SelectPlan,
    mats: &'v [Vec<Row>],
    outer: Option<&Frame<'_, 'v>>,
) -> Result<Vec<&'v [Value]>> {
    let mut scratch: Vec<&'v [Value]> = vec![&[]; sel.factors.len()];
    let mut acc: Vec<&'v [Value]> = Vec::new();
    for (k, f) in sel.factors.iter().enumerate() {
        let rows = match &f.source {
            Source::Table(slot) => Rows::Table(cx.rt.tables[*slot]),
            Source::Cte { id, .. } => Rows::Materialized(cx.cte(*id)),
            Source::Sub { slot, .. } => Rows::Materialized(&mats[*slot]),
        };
        let mut op = Operator {
            cx,
            f,
            k,
            scratch: &mut scratch,
            outer,
        };
        acc = match (&f.join, rows) {
            (Join::First, _) => op.scan(rows)?,
            (Join::Index { key, col, residual }, Rows::Table(t)) => {
                op.index_join(&acc, t, key, *col, residual)?
            }
            _ => {
                let right = op.scan(rows)?;
                op.join(&acc, &right)?
            }
        };
    }
    Ok(acc)
}

/// The admitted stored rows of a sharing block, whose one factor is a base
/// table ([`SelectPlan::layout`]): the same scan, filters and probe as
/// [`run_from`]'s.
pub(crate) fn scan_stored<'v>(
    cx: Cx<'v>,
    sel: &'v SelectPlan,
    outer: Option<&Frame<'_, 'v>>,
) -> Result<Vec<&'v SharedRow>> {
    let [f @ Factor {
        source: Source::Table(slot),
        ..
    }] = sel.factors.as_slice()
    else {
        unreachable!("a sharing block has one factor, a base table")
    };
    let mut scratch: [&'v [Value]; 1] = [&[]];
    let mut op = Operator {
        cx,
        f,
        k: 0,
        scratch: &mut scratch,
        outer,
    };
    op.scan(Rows::Table(cx.rt.tables[*slot]))
}

/// Ascending ids of the rows of `table` whose indexed column `col` equals
/// one of `keys` (with `params` bound) — the candidates of an index probe;
/// the caller still evaluates its predicate on each. One look-up per key.
pub(crate) fn index_candidates<'t>(
    table: &'t Table,
    col: usize,
    keys: &[Const],
    params: &[Value],
) -> Cow<'t, [usize]> {
    let lookup = |k: &Const| table.index_lookup(col, k.get(params)).unwrap_or(&[]);
    if let [one] = keys {
        return Cow::Borrowed(lookup(one));
    }
    let mut ids: Vec<usize> = keys.iter().flat_map(lookup).copied().collect();
    ids.sort_unstable();
    ids.dedup();
    Cow::Owned(ids)
}

/// The state one factor's scan and join share: `scratch` holds the row being
/// assembled (bindings `..k` from the left side, `k` the candidate).
struct Operator<'o, 'f, 'v> {
    cx: Cx<'v>,
    f: &'v Factor,
    k: usize,
    scratch: &'o mut [&'v [Value]],
    outer: Option<&'o Frame<'f, 'v>>,
}

impl<'v> Operator<'_, '_, 'v> {
    /// Place `row` as binding `k` and test `checks` on the assembled row.
    fn admits<'c>(
        &mut self,
        row: &'v [Value],
        checks: impl IntoIterator<Item = &'c PExpr>,
    ) -> Result<bool>
    where
        'v: 'c,
    {
        self.scratch[self.k] = row;
        let frame = Frame::of(self.scratch, self.outer);
        for c in checks {
            if !c.holds(self.cx, &frame)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The factor's rows that pass its pushed-down filters, visiting only
    /// the index candidates when the plan names a probe.
    fn scan<A: Admitted<'v>>(&mut self, rows: Rows<'v>) -> Result<Vec<A>> {
        let f = self.f;
        let span = self.cx.rt.obs.span(pdm_obs::kinds::SCAN, &*f.binding);
        let filters = || f.filters.iter().map(|c| &c.expr);
        let mut out = Vec::new();
        let detail = match (rows, &f.probe) {
            (Rows::Table(t), Some((col, keys))) => {
                self.cx.rt.stats.borrow_mut().index_probes += keys.len();
                let candidates = index_candidates(t, *col, keys, self.cx.rt.params);
                out.reserve_exact(candidates.len());
                let rows = t.rows();
                for &rid in candidates.iter() {
                    let row = rows.get(rid).expect("an index names stored rows");
                    if self.admits(row, filters())? {
                        out.push(A::stored(row));
                    }
                }
                "index probe"
            }
            (Rows::Table(t), None) => {
                for row in t.rows() {
                    if self.admits(row, filters())? {
                        out.push(A::stored(row));
                    }
                }
                "full scan"
            }
            (Rows::Materialized(rows), _) => {
                for row in rows {
                    if self.admits(row.as_slice(), filters())? {
                        out.push(A::materialized(row));
                    }
                }
                "rows"
            }
        };
        self.cx.rt.stats.borrow_mut().rows_scanned += out.len();
        span.set_rows(0, out.len() as u64);
        span.set_detail(detail);
        Ok(out)
    }

    fn pad(&mut self, out: &mut Vec<&'v [Value]>) {
        self.scratch[self.k] = &self.f.nulls;
        out.extend_from_slice(&self.scratch[..=self.k]);
    }

    /// Index nested-loop join: probe the table's index on `col` with `key`
    /// of each left row instead of materialising the table. Residual ON
    /// conjuncts and the pushed-down filters are tested on each candidate.
    fn index_join(
        &mut self,
        left: &[&'v [Value]],
        table: &'v Table,
        key: &'v PExpr,
        col: usize,
        residual: &'v [PExpr],
    ) -> Result<Vec<&'v [Value]>> {
        let (f, k) = (self.f, self.k);
        let span = self.cx.rt.obs.span(pdm_obs::kinds::JOIN, &*f.binding);
        span.set_detail("index nested-loop");
        // Room for one match per left row: what a join on a key finds.
        let mut out = Vec::with_capacity(left.len() / k * (k + 1));
        let mut probes = 0;
        for lrow in left.chunks(k) {
            self.scratch[..k].copy_from_slice(lrow);
            let frame = Frame::of(self.scratch, self.outer);
            let key = key.eval(self.cx, &frame)?;
            let mut matched = false;
            if !key.is_null() {
                probes += 1;
                for &rid in table.index_lookup(col, &key).unwrap_or(&[]) {
                    let checks = residual.iter().chain(f.filters.iter().map(|c| &c.expr));
                    if self.admits(table.row(rid), checks)? {
                        matched = true;
                        out.extend_from_slice(&self.scratch[..=k]);
                    }
                }
            }
            if !matched && f.kind == JoinKind::Left {
                self.pad(&mut out);
            }
        }
        let mut stats = self.cx.rt.stats.borrow_mut();
        stats.index_probes += probes;
        stats.rows_scanned += out.len() / (k + 1);
        span.set_rows((left.len() / k) as u64, (out.len() / (k + 1)) as u64);
        Ok(out)
    }

    /// Join the accumulated rows with the factor's scanned rows: hash the
    /// scanned side on the plan's key pairs, or loop when it found none.
    fn join(&mut self, left: &[&'v [Value]], right: &[&'v [Value]]) -> Result<Vec<&'v [Value]>> {
        let (f, k) = (self.f, self.k);
        let Join::Scanned { keys, residual } = &f.join else {
            unreachable!("the other methods do not scan")
        };
        let span = self.cx.rt.obs.span(pdm_obs::kinds::JOIN, &*f.binding);
        span.set_detail(if keys.is_empty() {
            "nested loop"
        } else {
            "hash join"
        });
        // Positions in `right` by key (NULL keys never join) — or, without
        // keys, every position for every left row.
        let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
        let mut every = Vec::new();
        if keys.is_empty() {
            every.extend(0..right.len());
        } else {
            for (i, row) in right.iter().enumerate() {
                self.scratch[k] = row;
                if let Some(key) = self.key(keys.iter().map(|(_, r)| r))? {
                    table.entry(key).or_default().push(i);
                }
            }
        }
        let mut out = Vec::new();
        for lrow in left.chunks(k) {
            self.scratch[..k].copy_from_slice(lrow);
            let matches = if keys.is_empty() {
                Some(&every)
            } else {
                let key = self.key(keys.iter().map(|(l, _)| l))?;
                key.and_then(|key| table.get(&key))
            };
            let mut matched = false;
            for &i in matches.into_iter().flatten() {
                if self.admits(right[i], residual)? {
                    matched = true;
                    out.extend_from_slice(&self.scratch[..=k]);
                }
            }
            if !matched && f.kind == JoinKind::Left {
                self.pad(&mut out);
            }
        }
        span.set_rows(
            (left.len() / k + right.len()) as u64,
            (out.len() / (k + 1)) as u64,
        );
        Ok(out)
    }

    /// A computed hash key over the assembled row; `None` if any part is NULL.
    fn key<'c>(&self, exprs: impl Iterator<Item = &'c PExpr>) -> Result<Option<Vec<Value>>>
    where
        'v: 'c,
    {
        let frame = Frame::of(self.scratch, self.outer);
        let mut key = Vec::new();
        for e in exprs {
            let v = e.eval(self.cx, &frame)?;
            if v.is_null() {
                return Ok(None);
            }
            key.push(v.into_owned());
        }
        Ok(Some(key))
    }
}

#[cfg(test)]
mod tests {
    use crate::exec::plan::{compile, Join, Op, PExpr, Refs, SelectPlan, SetPlan};
    use crate::parser::parse_query;
    use crate::value::Value;
    use crate::Database;

    fn db() -> Database {
        let mut db = Database::new();
        for ddl in [
            "CREATE TABLE link (obid INTEGER, left INTEGER, right INTEGER)",
            "CREATE TABLE assy (obid INTEGER, dec INTEGER)",
            "CREATE TABLE rtbl (id INTEGER)",
        ] {
            db.execute(ddl).unwrap();
        }
        db
    }

    /// Compile `sql` (one SELECT) and hand its plan to `check`.
    fn with_select<T>(sql: &str, check: impl FnOnce(&SelectPlan) -> T) -> crate::Result<T> {
        with_select_in(&db(), sql, check)
    }

    fn with_select_in<T>(
        db: &Database,
        sql: &str,
        check: impl FnOnce(&SelectPlan) -> T,
    ) -> crate::Result<T> {
        let query = parse_query(sql)?;
        let plan = compile(&db.catalog, &db.config, &query, &[])?;
        match &plan.query.body {
            SetPlan::Select(sel) => Ok(check(sel)),
            SetPlan::Op { .. } => unreachable!(),
        }
    }

    #[test]
    fn conjunct_target_single_binding() {
        // Where the conjunct lands: (filters on link, filters on assy, residual).
        let target = |conjunct: &str| {
            let sql = format!("SELECT 1 FROM link, assy WHERE {conjunct}");
            with_select(&sql, |sel| {
                let pushed = |k: usize| sel.factors[k].filters.len();
                (pushed(0), pushed(1), sel.residual.len())
            })
        };
        assert_eq!(target("link.left = 1").unwrap(), (1, 0, 0));
        // unqualified but unique
        assert_eq!(target("dec = 1").unwrap(), (0, 1, 0));
        // ambiguous unqualified: now a compile-time error, not a residual
        assert!(target("obid = 1").is_err());
        // spans bindings
        assert_eq!(target("link.left = assy.obid").unwrap(), (0, 0, 1));
        // subquery poisons
        let poisoned = target("link.left IN (SELECT id FROM rtbl)");
        assert_eq!(poisoned.unwrap(), (0, 0, 1));
    }

    #[test]
    fn equality_literal_both_orders() {
        let mut indexed = db();
        indexed.execute("CREATE INDEX ON link (left)").unwrap();
        let probe = |conjunct: &str| {
            let sql = format!("SELECT 1 FROM link WHERE {conjunct}");
            with_select_in(&indexed, &sql, |sel| {
                let probe = sel.factors[0].probe.as_ref();
                probe.map(|(c, keys)| (*c, keys.iter().map(|k| k.get(&[]).clone()).collect()))
            })
        };
        let ints = |vs: &[i64]| Some((1, vs.iter().map(|v| Value::Int(*v)).collect::<Vec<_>>()));
        assert_eq!(probe("left = 42").unwrap(), ints(&[42]));
        assert_eq!(probe("42 = left").unwrap(), ints(&[42]));
        assert_eq!(probe("LINK.left = 42").unwrap(), ints(&[42]));
        assert_eq!(probe("left IN (3, 1, 3)").unwrap(), ints(&[3, 1, 3]));
        for not_a_probe in [
            "left > 42",
            "left = obid",
            "left NOT IN (1, 2)",
            "left IN (1, obid)",
            "left + 1 IN (1, 2)",
            "left = -0.0",
            "left IN (1, 0.0)",
        ] {
            assert_eq!(probe(not_a_probe).unwrap(), None, "{not_a_probe}");
        }
        assert!(probe("other.left = 42").is_err());
    }

    #[test]
    fn classify_sides() {
        // Whether `expr` reads (the left side, the joined factor), as the
        // join that adds `link` (binding 1) to `rtbl` inside a subquery of
        // `outer_thing` sees it. Neither: no join key.
        let side = |expr: &str| {
            let sql = format!(
                "SELECT 1 FROM assy AS outer_thing WHERE EXISTS \
                 (SELECT 1 FROM rtbl JOIN link ON {expr} = 0)"
            );
            with_select(&sql, |sel| match &sel.residual[0].expr {
                PExpr::Op {
                    op: Op::Exists { sub, .. },
                    ..
                } => match &sub.query.body {
                    SetPlan::Select(inner) => match &inner.factors[1].join {
                        Join::Scanned { residual, .. } => match &residual[0] {
                            PExpr::Op { args, .. } => {
                                let refs = Refs::of(&args[0]);
                                (refs.left_of(1), refs.only(1))
                            }
                            _ => unreachable!(),
                        },
                        _ => unreachable!("`expr = 0` is no join key"),
                    },
                    SetPlan::Op { .. } => unreachable!(),
                },
                _ => unreachable!(),
            })
            .unwrap()
        };
        assert_eq!(side("rtbl.id"), (true, false));
        assert_eq!(side("link.left"), (false, true));
        assert_eq!(side("rtbl.id + link.left"), (false, false));
        assert_eq!(side("outer_thing.obid"), (false, false));
    }
}
