#![allow(dead_code)] // each suite uses its part

//! The statement texts a session ships, for the front-end suites
//! (`parse_golden.rs`, `front_end_allocs.rs`): generator → §5.5 modificator
//! → printer, which `crates/core/tests/prepared_sql.rs` pins as byte for
//! byte what `Session::statement` sends. And [`bind_query`], what the
//! template suites compare a template's query to a parse with, and
//! [`query_with_stats`], how the suites read a query's `ExecStats`.

use std::collections::HashSet;

use pdm_obs::Recorder;
use pdm_sql::ast::{Expr, Query, SelectItem, SetExpr, TableFactor};
use pdm_sql::parser::parse_query;
use pdm_sql::{Database, ExecStats, ResultSet, Value};

use pdm_core::query::modificator::Modificator;
use pdm_core::query::prepared::Shape;
use pdm_core::query::{navigational, recursive};
use pdm_core::rules::condition::{CmpOp, Condition, RowPredicate};
use pdm_core::rules::{ActionKind, Rule};
use pdm_core::RuleTable;

/// The nine statements a session's actions come down to: every
/// [`Shape`] through the physical structure with the action its call site
/// names, plus the two view-dependent retrievals through a second view.
pub const NINE_SHAPES: [(&str, Shape, ActionKind, &str); 9] = [
    ("expand", Shape::Expand, ActionKind::Expand, "link"),
    ("expand_many", Shape::ExpandMany, ActionKind::Expand, "link"),
    ("query_all", Shape::QueryAll, ActionKind::Query, "link"),
    ("fetch_node", Shape::FetchNode, ActionKind::Access, "link"),
    (
        "mle",
        Shape::Mle {
            include_root: false,
        },
        ActionKind::MultiLevelExpand,
        "link",
    ),
    (
        "mle_with_root",
        Shape::Mle { include_root: true },
        ActionKind::MultiLevelExpand,
        "link",
    ),
    (
        "mle_physical",
        Shape::MlePhysical,
        ActionKind::CheckOut,
        "link",
    ),
    ("expand_flink", Shape::Expand, ActionKind::Expand, "flink"),
    (
        "mle_flink",
        Shape::Mle {
            include_root: false,
        },
        ActionKind::MultiLevelExpand,
        "flink",
    ),
];

/// `pdm_core::rules::paper_rules` (all four condition classes) plus a
/// check-out ∀rows rule, so that the check-out's statement is modified too.
pub fn paper_rules() -> RuleTable {
    let mut t = pdm_core::rules::paper_rules();
    t.add(Rule::for_all_users(
        ActionKind::CheckOut,
        "assy",
        Condition::ForAllRows {
            object_type: None,
            predicate: RowPredicate::compare("checkedout", CmpOp::Eq, false),
        },
    ));
    t
}

/// The text of one statement: `shape` for `ids` through `view`, with the
/// rules of `action` embedded the way an early-evaluating session embeds
/// them.
pub fn shape_text(
    shape: Shape,
    action: ActionKind,
    ids: &[i64],
    view: &str,
    rules: &RuleTable,
) -> String {
    let id = ids[0];
    let mut q = match shape {
        Shape::Expand => navigational::expand_query_in(id, view),
        Shape::ExpandMany => navigational::expand_many_query(ids, view),
        Shape::QueryAll => navigational::query_all_query(id),
        Shape::FetchNode => navigational::fetch_node_query(id),
        Shape::Mle { include_root } => recursive::mle_query_in(id, view, include_root),
        Shape::MlePhysical => recursive::mle_query(id),
    };
    let views = HashSet::new();
    let m = Modificator::new(rules, "scott", action, &views);
    match shape {
        Shape::Expand | Shape::ExpandMany | Shape::QueryAll => {
            m.modify_navigational(&mut q).unwrap();
        }
        Shape::Mle { .. } | Shape::MlePhysical => {
            m.modify_recursive(&mut q).unwrap();
        }
        Shape::FetchNode => {}
    }
    q.to_string()
}

/// `(label, text)` of the nine shapes under `rules`; the batched expand
/// takes `ids` whole, every other shape its first id.
pub fn nine_shape_texts(rules: &RuleTable, ids: &[i64]) -> Vec<(&'static str, String)> {
    NINE_SHAPES
        .iter()
        .map(|&(label, shape, action, view)| (label, shape_text(shape, action, ids, view, rules)))
        .collect()
}

/// `sql` parsed and run on `db` with its execution counters; a parse error
/// is returned like an execution error.
pub fn query_with_stats(db: &Database, sql: &str) -> pdm_sql::Result<(ResultSet, ExecStats)> {
    db.query_ast_profiled(&parse_query(sql)?, &Recorder::disabled())
}

/// Replace every `$n` of `q` by the literal `values[n - 1]`.
pub fn bind_query(q: &mut Query, values: &[Value]) {
    for cte in q.with.iter_mut().flat_map(|w| &mut w.ctes) {
        bind_query(&mut cte.query, values);
    }
    bind_set(&mut q.body, values);
    for item in &mut q.order_by {
        bind_expr(&mut item.expr, values);
    }
}

fn bind_set(body: &mut SetExpr, values: &[Value]) {
    match body {
        SetExpr::Select(sel) => {
            for item in &mut sel.projection {
                if let SelectItem::Expr { expr, .. } = item {
                    bind_expr(expr, values);
                }
            }
            for twj in &mut sel.from {
                bind_factor(&mut twj.base, values);
                for join in &mut twj.joins {
                    bind_factor(&mut join.factor, values);
                    join.on.iter_mut().for_each(|e| bind_expr(e, values));
                }
            }
            let clauses = sel.where_clause.iter_mut().chain(&mut sel.having);
            clauses
                .chain(&mut sel.group_by)
                .for_each(|e| bind_expr(e, values));
        }
        SetExpr::SetOp { left, right, .. } => {
            bind_set(left, values);
            bind_set(right, values);
        }
    }
}

fn bind_factor(factor: &mut TableFactor, values: &[Value]) {
    if let TableFactor::Derived { subquery, .. } = factor {
        bind_query(subquery, values);
    }
}

fn bind_expr(e: &mut Expr, values: &[Value]) {
    let each = |es: &mut [&mut Expr]| es.iter_mut().for_each(|e| bind_expr(e, values));
    match e {
        Expr::Param(i) => {
            let value = values[*i].clone();
            *e = Expr::Literal(value);
        }
        Expr::Column { .. } | Expr::Literal(_) => {}
        Expr::BinaryOp { left, right, .. } => each(&mut [left, right]),
        Expr::Not(x) | Expr::Negate(x) => bind_expr(x, values),
        Expr::Cast { expr, .. } | Expr::IsNull { expr, .. } => bind_expr(expr, values),
        Expr::InList { expr, list, .. } => {
            bind_expr(expr, values);
            list.iter_mut().for_each(|e| bind_expr(e, values));
        }
        Expr::InSubquery { expr, query, .. } => {
            bind_expr(expr, values);
            bind_query(query, values);
        }
        Expr::Exists { query, .. } | Expr::ScalarSubquery(query) => bind_query(query, values),
        Expr::Between {
            expr, low, high, ..
        } => each(&mut [expr, low, high]),
        Expr::Like { expr, pattern, .. } => each(&mut [expr, pattern]),
        Expr::Function { args, .. } => args.iter_mut().for_each(|e| bind_expr(e, values)),
        Expr::Case {
            branches,
            else_expr,
        } => {
            for (cond, result) in branches {
                each(&mut [cond, result]);
            }
            else_expr.iter_mut().for_each(|e| bind_expr(e, values));
        }
    }
}
