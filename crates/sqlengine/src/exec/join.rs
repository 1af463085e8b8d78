//! FROM-clause evaluation: scans with predicate/index pushdown, hash
//! equi-joins with nested-loop fallback, LEFT joins, and cross products.

use std::collections::HashMap;

use crate::ast::{BinOp, Expr, JoinKind, Select};
use crate::error::Result;
use crate::exec::{
    expr::eval_expr, factor_source, Bindings, Env, ExecContext, FactorSource, Relation,
};
use crate::schema::Schema;
use crate::storage::Table;
use crate::value::{DataType, Value};

/// Build the joined relation for a SELECT's FROM clause.
///
/// `where_conjuncts` are the top-level AND parts of the WHERE clause; any
/// conjunct that references exactly one base binding (and contains no
/// subquery) is pushed into that binding's scan. Returns the relation plus
/// the conjuncts that still need post-join evaluation.
pub fn build_from(
    ctx: &ExecContext<'_>,
    sel: &Select,
    where_conjuncts: &[Expr],
    outer: Option<&Env<'_>>,
) -> Result<(Relation, Vec<Expr>)> {
    if sel.from.is_empty() {
        return Ok((Relation::empty(Bindings::new()), where_conjuncts.to_vec()));
    }

    // Resolve all factor sources up front so pushdown analysis knows every
    // binding's schema.
    struct ResolvedFactor {
        binding: String,
        schema: Schema,
        source: FactorSource,
        kind: JoinKind,
        on: Option<Expr>,
        /// Start of a new FROM item (cross-joined against what came before).
        new_item: bool,
    }

    let mut factors: Vec<ResolvedFactor> = Vec::new();
    for twj in &sel.from {
        let (binding, source) = factor_source(ctx, &twj.base, outer)?;
        factors.push(ResolvedFactor {
            schema: source_schema(ctx, &source)?,
            binding,
            source,
            kind: JoinKind::Inner,
            on: None,
            new_item: true,
        });
        for j in &twj.joins {
            let (binding, source) = factor_source(ctx, &j.factor, outer)?;
            factors.push(ResolvedFactor {
                schema: source_schema(ctx, &source)?,
                binding,
                source,
                kind: j.kind,
                on: j.on.clone(),
                new_item: false,
            });
        }
    }

    // Pushdown: assign each WHERE conjunct to the single binding it touches,
    // if any. Conjuncts on the nullable side of a LEFT JOIN must stay
    // post-join (filtering before null-padding changes semantics).
    let binding_schemas: Vec<(String, Schema)> = factors
        .iter()
        .map(|f| (f.binding.clone(), f.schema.clone()))
        .collect();
    let mut pushed: HashMap<String, Vec<Expr>> = HashMap::new();
    let mut residual: Vec<Expr> = Vec::new();
    for conj in where_conjuncts {
        let target = if ctx.config.index_pushdown {
            conjunct_target(conj, &binding_schemas)
        } else {
            None
        };
        match target {
            Some(b)
                if factors
                    .iter()
                    .any(|f| f.binding == b && f.kind == JoinKind::Inner) =>
            {
                pushed.entry(b).or_default().push(conj.clone());
            }
            _ => residual.push(conj.clone()),
        }
    }

    // Fold factors left to right.
    let mut relation: Option<Relation> = None;
    for f in factors {
        let filters = pushed.remove(&f.binding).unwrap_or_default();
        relation = Some(match relation {
            None => Relation {
                bindings: Bindings::single(&f.binding, f.schema.clone()),
                rows: scan_source(ctx, &f.binding, &f.schema, &f.source, &filters)?,
            },
            Some(left) => {
                let on = if f.new_item { None } else { f.on.clone() };
                // Prefer an index nested-loop join when the new factor is a
                // base table with a hash index on its join column — this is
                // what keeps per-node navigational queries and semi-naive
                // recursion from rescanning the link table.
                if let Some(joined) = try_index_join(
                    ctx,
                    &left,
                    &f.binding,
                    &f.schema,
                    &f.source,
                    f.kind,
                    on.as_ref(),
                    &filters,
                    outer,
                )? {
                    joined
                } else {
                    let rows = scan_source(ctx, &f.binding, &f.schema, &f.source, &filters)?;
                    join_step(
                        ctx,
                        left,
                        &f.binding,
                        f.schema,
                        rows,
                        f.kind,
                        on.as_ref(),
                        outer,
                    )?
                }
            }
        });
    }

    Ok((relation.expect("nonempty FROM"), residual))
}

/// Schema a factor source will produce.
fn source_schema(ctx: &ExecContext<'_>, source: &FactorSource) -> Result<Schema> {
    match source {
        FactorSource::Table(name) => Ok(ctx.catalog.table(name)?.schema.clone()),
        FactorSource::Rows(rel) => Ok(rel.schema.clone()),
    }
}

/// Materialize a factor's rows, applying pushed-down filters during the scan
/// and visiting only the index candidates when a filter names them.
fn scan_source(
    ctx: &ExecContext<'_>,
    binding: &str,
    schema: &Schema,
    source: &FactorSource,
    filters: &[Expr],
) -> Result<Vec<Vec<Value>>> {
    let bindings = Bindings::single(binding, schema.clone());
    let span = ctx.obs.span(pdm_obs::kinds::SCAN, binding);
    let mut out = Vec::new();
    let mut keep_row = |row: &[Value]| -> Result<()> {
        let env = Env::new(&bindings, row);
        for f in filters {
            if !eval_expr(ctx, &env, f)?.is_true() {
                return Ok(());
            }
        }
        out.push(row.to_vec());
        Ok(())
    };

    let detail = match source {
        FactorSource::Table(name) => {
            let table = ctx.catalog.table(name)?;
            match index_candidates(ctx, table, binding, filters) {
                Some(row_ids) => {
                    for rid in row_ids {
                        keep_row(table.row(rid))?;
                    }
                    "index probe"
                }
                None => {
                    for row in table.rows() {
                        keep_row(row)?;
                    }
                    "full scan"
                }
            }
        }
        FactorSource::Rows(rel) => {
            for row in &rel.rows {
                keep_row(row)?;
            }
            "rows"
        }
    };
    ctx.stats.borrow_mut().rows_scanned += out.len();
    span.set_rows(0, out.len() as u64);
    span.set_detail(detail);
    Ok(out)
}

/// If `e` is `col = literal` (either order) or `col IN (literals)` over a
/// column of `binding`, and a hash index on that column would find exactly
/// the rows SQL `=` matches, return the column position and the literals.
pub(crate) fn probe_literals<'e>(
    e: &'e Expr,
    binding: &str,
    schema: &Schema,
) -> Option<(usize, Vec<&'e Value>)> {
    let as_col = |x: &Expr| -> Option<usize> {
        match x {
            Expr::Column { qualifier, name }
                if qualifier
                    .as_deref()
                    .is_none_or(|q| q.eq_ignore_ascii_case(binding)) =>
            {
                schema.index_of(name)
            }
            _ => None,
        }
    };
    let as_lit = |x: &'e Expr| -> Option<&'e Value> {
        match x {
            Expr::Literal(v) => Some(v),
            _ => None,
        }
    };
    let (col, literals) = match e {
        Expr::BinaryOp {
            left,
            op: BinOp::Eq,
            right,
        } => [(left, right), (right, left)]
            .into_iter()
            .find_map(|(c, v)| Some((as_col(c)?, vec![as_lit(v)?])))?,
        Expr::InList {
            expr,
            list,
            negated: false,
        } => (
            as_col(expr)?,
            list.iter().map(as_lit).collect::<Option<_>>()?,
        ),
        _ => return None,
    };
    // Index keys compare by `Value::total_cmp`, which — unlike SQL `=` —
    // tells `-0.0` from `0.0`: a zero that may meet a FLOAT is not probed.
    let float_column = schema.column(col).dtype == DataType::Float;
    let exact = |v: &&Value| match v {
        Value::Float(f) => *f != 0.0,
        Value::Int(0) => !float_column,
        _ => true,
    };
    literals.iter().all(exact).then_some((col, literals))
}

/// The one index-driven access path, shared by SELECT scans, UPDATE and
/// DELETE: if one of `conjuncts` is `col = literal` or `col IN (literals)`
/// over an indexed column of `table`, the ascending ids of the rows that
/// can satisfy it. The caller still evaluates its whole predicate on each
/// candidate. `None` — no such conjunct, or `index_pushdown` off — means
/// scan the table.
pub(crate) fn index_candidates(
    ctx: &ExecContext<'_>,
    table: &Table,
    binding: &str,
    conjuncts: &[Expr],
) -> Option<Vec<usize>> {
    if !ctx.config.index_pushdown {
        return None;
    }
    let (col, literals) = conjuncts.iter().find_map(|c| {
        probe_literals(c, binding, &table.schema).filter(|(col, _)| table.has_index(*col))
    })?;
    let mut row_ids = Vec::new();
    for v in &literals {
        row_ids.extend_from_slice(table.index_lookup(col, v)?);
    }
    if literals.len() > 1 {
        row_ids.sort_unstable();
        row_ids.dedup();
    }
    ctx.stats.borrow_mut().index_probes += literals.len();
    Some(row_ids)
}

/// Which binding(s) a conjunct's columns reference. `None` means it cannot
/// be attributed to exactly one binding (multiple bindings, unresolvable
/// columns, or it contains a subquery).
pub(crate) fn conjunct_target(e: &Expr, bindings: &[(String, Schema)]) -> Option<String> {
    let mut target: Option<String> = None;
    let mut ok = true;
    visit_columns(e, &mut |qualifier, name, has_subquery| {
        if has_subquery {
            ok = false;
            return;
        }
        let mut owners = bindings.iter().filter(|(b, s)| match qualifier {
            Some(q) => b == &q.to_ascii_lowercase() && s.index_of(name).is_some(),
            None => s.index_of(name).is_some(),
        });
        match (owners.next(), owners.next()) {
            (Some((b, _)), None) => match &target {
                Some(t) if t != b => ok = false,
                _ => target = Some(b.clone()),
            },
            _ => ok = false,
        }
    });
    if ok {
        target
    } else {
        None
    }
}

/// Walk an expression, reporting each column reference; subqueries are
/// reported via the `has_subquery` flag (they poison pushdown).
fn visit_columns(e: &Expr, f: &mut impl FnMut(Option<&str>, &str, bool)) {
    match e {
        Expr::Column { qualifier, name } => f(qualifier.as_deref(), name, false),
        Expr::Literal(_) => {}
        Expr::BinaryOp { left, right, .. } => {
            visit_columns(left, f);
            visit_columns(right, f);
        }
        Expr::Not(x) | Expr::Negate(x) | Expr::Cast { expr: x, .. } => visit_columns(x, f),
        Expr::IsNull { expr, .. } => visit_columns(expr, f),
        Expr::InList { expr, list, .. } => {
            visit_columns(expr, f);
            for x in list {
                visit_columns(x, f);
            }
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            visit_columns(expr, f);
            visit_columns(low, f);
            visit_columns(high, f);
        }
        Expr::Like { expr, pattern, .. } => {
            visit_columns(expr, f);
            visit_columns(pattern, f);
        }
        Expr::Function { args, .. } => {
            for a in args {
                visit_columns(a, f);
            }
        }
        Expr::Case {
            branches,
            else_expr,
        } => {
            for (c, r) in branches {
                visit_columns(c, f);
                visit_columns(r, f);
            }
            if let Some(x) = else_expr {
                visit_columns(x, f);
            }
        }
        Expr::InSubquery { expr, .. } => {
            visit_columns(expr, f);
            f(None, "", true);
        }
        Expr::Exists { .. } | Expr::ScalarSubquery(_) => f(None, "", true),
    }
}

/// Which side of a join an expression's columns come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    Left,
    Right,
    Neither,
    Mixed,
}

pub(crate) fn classify_side(e: &Expr, left: &Bindings, right: &Bindings) -> Side {
    let mut side = Side::Neither;
    let mut poisoned = false;
    visit_columns(e, &mut |qualifier, name, has_subquery| {
        if has_subquery {
            poisoned = true;
            return;
        }
        let in_left = matches!(left.resolve(qualifier, name), Ok(Some(_)));
        let in_right = matches!(right.resolve(qualifier, name), Ok(Some(_)));
        let this = match (in_left, in_right) {
            (true, false) => Side::Left,
            (false, true) => Side::Right,
            (true, true) => Side::Mixed, // ambiguous — don't hash on it
            (false, false) => Side::Mixed, // outer reference
        };
        side = match (side, this) {
            (Side::Neither, s) => s,
            (s, t) if s == t => s,
            _ => Side::Mixed,
        };
    });
    if poisoned {
        Side::Mixed
    } else {
        side
    }
}

/// Index nested-loop join: when joining against a base table on an equality
/// whose table-side key is an indexed plain column, probe the index per left
/// row instead of materializing the whole table. Returns `None` when the
/// pattern does not apply (caller falls back to scan + hash join).
#[allow(clippy::too_many_arguments)]
fn try_index_join(
    ctx: &ExecContext<'_>,
    left: &Relation,
    binding: &str,
    schema: &Schema,
    source: &FactorSource,
    kind: JoinKind,
    on: Option<&Expr>,
    filters: &[Expr],
    outer: Option<&Env<'_>>,
) -> Result<Option<Relation>> {
    if !ctx.config.index_pushdown {
        return Ok(None);
    }
    let FactorSource::Table(table_name) = source else {
        return Ok(None);
    };
    let table = ctx.catalog.table(table_name)?;
    let Some(on) = on else { return Ok(None) };

    let right_bindings = Bindings::single(binding, schema.clone());
    let conjuncts = super::split_conjuncts(on);

    // Find one equi conjunct `left-expr = right-indexed-column`.
    let mut probe: Option<(Expr, usize)> = None; // (left expr, right col idx)
    let mut residual: Vec<Expr> = Vec::new();
    for c in conjuncts {
        if probe.is_none() {
            if let Expr::BinaryOp {
                left: a,
                op: BinOp::Eq,
                right: b,
            } = &c
            {
                let candidates = [(a, b), (b, a)];
                let mut matched = false;
                for (lhs, rhs) in candidates {
                    if classify_side(lhs, &left.bindings, &right_bindings) == Side::Left {
                        if let Expr::Column { name, .. } = rhs.as_ref() {
                            if let Some(idx) = schema.index_of(name) {
                                if table.has_index(idx) {
                                    probe = Some(((**lhs).clone(), idx));
                                    matched = true;
                                    break;
                                }
                            }
                        }
                    }
                }
                if matched {
                    continue;
                }
            }
        }
        residual.push(c);
    }
    let Some((left_key, col_idx)) = probe else {
        return Ok(None);
    };

    let span = ctx.obs.span(pdm_obs::kinds::JOIN, binding);
    span.set_detail("index nested-loop");

    let mut combined = left.bindings.clone();
    combined.push(binding, schema.clone());
    let width = combined.width();

    // Residual ON conjuncts plus pushed-down scan filters are evaluated on
    // each candidate row; filters reference only the right binding, which
    // the combined env resolves fine.
    let mut checks: Vec<&Expr> = residual.iter().collect();
    checks.extend(filters.iter());

    let mut out_rows: Vec<Vec<Value>> = Vec::new();
    for lrow in &left.rows {
        let lenv = Env::with_outer(&left.bindings, lrow, outer);
        let key = eval_expr(ctx, &lenv, &left_key)?;
        let mut matched = false;
        if !key.is_null() {
            ctx.stats.borrow_mut().index_probes += 1;
            if let Some(row_ids) = table.index_lookup(col_idx, &key) {
                for &rid in row_ids {
                    let mut row = lrow.clone();
                    row.extend_from_slice(table.row(rid));
                    let env = Env::with_outer(&combined, &row, outer);
                    let mut keep = true;
                    for c in &checks {
                        if !eval_expr(ctx, &env, c)?.is_true() {
                            keep = false;
                            break;
                        }
                    }
                    if keep {
                        matched = true;
                        out_rows.push(row);
                    }
                }
            }
        }
        if !matched && kind == JoinKind::Left {
            out_rows.push(null_padded(lrow, width));
        }
    }
    ctx.stats.borrow_mut().rows_scanned += out_rows.len();
    span.set_rows(left.rows.len() as u64, out_rows.len() as u64);

    Ok(Some(Relation {
        bindings: combined,
        rows: out_rows,
    }))
}

/// Join an accumulated relation with a new (already scanned) factor.
#[allow(clippy::too_many_arguments)]
fn join_step(
    ctx: &ExecContext<'_>,
    left: Relation,
    binding: &str,
    schema: Schema,
    right_rows: Vec<Vec<Value>>,
    kind: JoinKind,
    on: Option<&Expr>,
    outer: Option<&Env<'_>>,
) -> Result<Relation> {
    let right_bindings = Bindings::single(binding, schema.clone());
    let mut combined = left.bindings.clone();
    combined.push(binding, schema);

    // Split ON into equi-join keys and residual conjuncts.
    let conjuncts: Vec<Expr> = on.map(super::split_conjuncts).unwrap_or_default();
    let mut keys: Vec<(Expr, Expr)> = Vec::new(); // (left-side, right-side)
    let mut residual: Vec<Expr> = Vec::new();
    for c in conjuncts {
        if let Expr::BinaryOp {
            left: a,
            op: BinOp::Eq,
            right: b,
        } = &c
        {
            let sa = classify_side(a, &left.bindings, &right_bindings);
            let sb = classify_side(b, &left.bindings, &right_bindings);
            match (sa, sb) {
                (Side::Left, Side::Right) => {
                    keys.push(((**a).clone(), (**b).clone()));
                    continue;
                }
                (Side::Right, Side::Left) => {
                    keys.push(((**b).clone(), (**a).clone()));
                    continue;
                }
                _ => {}
            }
        }
        residual.push(c);
    }

    let span = ctx.obs.span(pdm_obs::kinds::JOIN, binding);
    span.set_detail(if keys.is_empty() {
        "nested loop"
    } else {
        "hash join"
    });
    let rows_in = (left.rows.len() + right_rows.len()) as u64;

    let mut out_rows: Vec<Vec<Value>> = Vec::new();

    if !keys.is_empty() {
        // Hash join: build on the right side.
        let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
        'rows: for (i, row) in right_rows.iter().enumerate() {
            let env = Env::new(&right_bindings, row);
            let mut key = Vec::with_capacity(keys.len());
            for (_, rexpr) in &keys {
                let v = eval_expr(ctx, &env, rexpr)?;
                if v.is_null() {
                    continue 'rows; // NULL keys never join
                }
                key.push(v);
            }
            table.entry(key).or_default().push(i);
        }

        for lrow in &left.rows {
            let lenv = Env::with_outer(&left.bindings, lrow, outer);
            let mut key = Vec::with_capacity(keys.len());
            let mut null_key = false;
            for (lexpr, _) in &keys {
                let v = eval_expr(ctx, &lenv, lexpr)?;
                if v.is_null() {
                    null_key = true;
                    break;
                }
                key.push(v);
            }
            let matches: &[usize] = if null_key {
                &[]
            } else {
                table.get(&key).map(Vec::as_slice).unwrap_or(&[])
            };
            let mut matched = false;
            for &ri in matches {
                let mut row = lrow.clone();
                row.extend(right_rows[ri].iter().cloned());
                if eval_residual(ctx, &combined, &row, &residual, outer)? {
                    matched = true;
                    out_rows.push(row);
                }
            }
            if !matched && kind == JoinKind::Left {
                out_rows.push(null_padded(lrow, combined.width()));
            }
        }
    } else {
        // Nested loop (cross product filtered by ON).
        for lrow in &left.rows {
            let mut matched = false;
            for rrow in &right_rows {
                let mut row = lrow.clone();
                row.extend(rrow.iter().cloned());
                if eval_residual(ctx, &combined, &row, &residual, outer)? {
                    matched = true;
                    out_rows.push(row);
                }
            }
            if !matched && kind == JoinKind::Left {
                out_rows.push(null_padded(lrow, combined.width()));
            }
        }
    }

    span.set_rows(rows_in, out_rows.len() as u64);

    Ok(Relation {
        bindings: combined,
        rows: out_rows,
    })
}

fn eval_residual(
    ctx: &ExecContext<'_>,
    bindings: &Bindings,
    row: &[Value],
    residual: &[Expr],
    outer: Option<&Env<'_>>,
) -> Result<bool> {
    let env = Env::with_outer(bindings, row, outer);
    for c in residual {
        if !eval_expr(ctx, &env, c)?.is_true() {
            return Ok(false);
        }
    }
    Ok(true)
}

fn null_padded(lrow: &[Value], width: usize) -> Vec<Value> {
    let mut row = lrow.to_vec();
    row.resize(width, Value::Null);
    row
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;
    use crate::schema::Column;
    use crate::value::DataType;

    fn schema(cols: &[&str]) -> Schema {
        Schema::new(
            cols.iter()
                .map(|c| Column::new(*c, DataType::Int))
                .collect(),
        )
    }

    #[test]
    fn conjunct_target_single_binding() {
        let bindings = vec![
            ("link".to_string(), schema(&["obid", "left", "right"])),
            ("assy".to_string(), schema(&["obid", "dec"])),
        ];
        let e = parse_expr("link.left = 1").unwrap();
        assert_eq!(conjunct_target(&e, &bindings), Some("link".into()));
        // unqualified but unique
        let e = parse_expr("dec = 1").unwrap();
        assert_eq!(conjunct_target(&e, &bindings), Some("assy".into()));
        // ambiguous unqualified
        let e = parse_expr("obid = 1").unwrap();
        assert_eq!(conjunct_target(&e, &bindings), None);
        // spans bindings
        let e = parse_expr("link.left = assy.obid").unwrap();
        assert_eq!(conjunct_target(&e, &bindings), None);
        // subquery poisons
        let e = parse_expr("link.left IN (SELECT obid FROM rtbl)").unwrap();
        assert_eq!(conjunct_target(&e, &bindings), None);
    }

    #[test]
    fn equality_literal_both_orders() {
        let s = schema(&["obid", "left"]);
        let probe = |sql: &str| {
            let e = parse_expr(sql).unwrap();
            probe_literals(&e, "link", &s).map(|(c, vs)| (c, vs.into_iter().cloned().collect()))
        };
        let ints = |vs: &[i64]| vs.iter().map(|v| Value::Int(*v)).collect::<Vec<_>>();
        assert_eq!(probe("left = 42"), Some((1, ints(&[42]))));
        assert_eq!(probe("42 = left"), Some((1, ints(&[42]))));
        assert_eq!(probe("LINK.left = 42"), Some((1, ints(&[42]))));
        assert_eq!(probe("left IN (3, 1, 3)"), Some((1, ints(&[3, 1, 3]))));
        for not_a_probe in [
            "left > 42",
            "left = obid",
            "other.left = 42",
            "left NOT IN (1, 2)",
            "left IN (1, obid)",
            "left + 1 IN (1, 2)",
            "left = -0.0",
            "left IN (1, 0.0)",
        ] {
            assert_eq!(probe(not_a_probe), None, "{not_a_probe}");
        }
    }

    #[test]
    fn classify_sides() {
        let left = Bindings::single("rtbl", schema(&["obid"]));
        let right = Bindings::single("link", schema(&["left", "right"]));
        let e = parse_expr("rtbl.obid").unwrap();
        assert_eq!(classify_side(&e, &left, &right), Side::Left);
        let e = parse_expr("link.left").unwrap();
        assert_eq!(classify_side(&e, &left, &right), Side::Right);
        let e = parse_expr("rtbl.obid + link.left").unwrap();
        assert_eq!(classify_side(&e, &left, &right), Side::Mixed);
        let e = parse_expr("outer_thing.x").unwrap();
        assert_eq!(classify_side(&e, &left, &right), Side::Mixed);
    }
}
