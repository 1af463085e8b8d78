#![allow(clippy::unwrap_used)]

//! Query-level print→parse round-trip property: for any generated [`Query`]
//! AST, `parse_query(q.to_string()) == q`.
//!
//! The expression-level round-trip lives in `proptest_engine.rs`; this file
//! exercises the *structural* SQL surface the PDM generators and the query
//! modificator emit: set operations, joins, derived tables, (recursive)
//! CTEs, DISTINCT, GROUP BY / HAVING, ORDER BY ordinals, and LIMIT. The
//! modificator edits ASTs that are later rendered, shipped, and re-parsed
//! server-side, so any asymmetry here silently corrupts rule predicates in
//! transit. The server reads a cache miss through its template instead of a
//! parse (`pdm_sql::template`): the second property pins that this path,
//! too, gives the text's canonical key and, bound, the query itself.

mod common;

use common::bind_query;
use pdm_prng::check::cases;
use pdm_prng::Prng;

use pdm_sql::ast::{
    BinOp, Cte, Expr, Join, JoinKind, OrderItem, Query, Select, SelectItem, SetExpr, SetOp,
    TableFactor, TableWithJoins, With,
};
use pdm_sql::parser::parse_query;
use pdm_sql::template::Templates;
use pdm_sql::Value;

/// Every parser-reserved word, plus tokens that are contextual keywords in
/// some positions — generated identifiers must avoid all of them for the
/// rendered SQL to tokenize back the same way.
const AVOID: &[&str] = &[
    "select",
    "distinct",
    "from",
    "where",
    "group",
    "having",
    "order",
    "limit",
    "union",
    "intersect",
    "except",
    "join",
    "left",
    "inner",
    "on",
    "as",
    "and",
    "or",
    "not",
    "in",
    "exists",
    "between",
    "is",
    "null",
    "true",
    "false",
    "cast",
    "case",
    "when",
    "then",
    "else",
    "end",
    "set",
    "values",
    "desc",
    "asc",
    "by",
    "with",
    "recursive",
    "insert",
    "into",
    "like",
    "update",
    "delete",
    "create",
    "table",
    "view",
    "index",
    "drop",
    "all",
];

fn arb_ident(rng: &mut Prng) -> String {
    loop {
        let s = rng.ident(1, 6);
        if !AVOID.contains(&s.as_str()) {
            return s;
        }
    }
}

fn arb_literal(rng: &mut Prng) -> Expr {
    match rng.index(4) {
        0 => Expr::Literal(Value::Int(rng.i64_inclusive(-10_000, 10_000))),
        1 => {
            let len = rng.usize_inclusive(0, 5);
            let s: String = (0..len)
                .map(|_| (b'a' + rng.index(26) as u8) as char)
                .collect();
            Expr::Literal(Value::Text(s))
        }
        2 => Expr::Literal(Value::Bool(rng.bool())),
        _ => Expr::Literal(Value::Null),
    }
}

fn arb_column(rng: &mut Prng) -> Expr {
    Expr::Column {
        qualifier: rng.bool().then(|| arb_ident(rng)),
        name: arb_ident(rng),
    }
}

/// Scalar expressions restricted to comparison/boolean structure — the
/// shapes rule translation produces.
fn arb_expr(rng: &mut Prng, depth: u32) -> Expr {
    if depth == 0 || rng.index(3) == 0 {
        return if rng.bool() {
            arb_literal(rng)
        } else {
            arb_column(rng)
        };
    }
    const OPS: &[BinOp] = &[
        BinOp::Eq,
        BinOp::NotEq,
        BinOp::Lt,
        BinOp::LtEq,
        BinOp::Gt,
        BinOp::GtEq,
        BinOp::And,
        BinOp::Or,
    ];
    match rng.index(3) {
        0 => Expr::BinaryOp {
            left: Box::new(arb_expr(rng, depth - 1)),
            op: OPS[rng.index(OPS.len())],
            right: Box::new(arb_expr(rng, depth - 1)),
        },
        1 => Expr::Not(Box::new(arb_expr(rng, depth - 1))),
        _ => Expr::IsNull {
            expr: Box::new(arb_expr(rng, depth - 1)),
            negated: rng.bool(),
        },
    }
}

fn arb_factor(rng: &mut Prng, depth: u32) -> TableFactor {
    if depth > 0 && rng.index(4) == 0 {
        TableFactor::Derived {
            subquery: Box::new(arb_query(rng, depth - 1, false)),
            alias: arb_ident(rng),
        }
    } else {
        TableFactor::Table {
            name: arb_ident(rng),
            alias: rng.bool().then(|| arb_ident(rng)),
        }
    }
}

fn arb_select(rng: &mut Prng, depth: u32) -> Select {
    let mut sel = Select::new();
    sel.distinct = rng.index(4) == 0;

    if rng.index(8) == 0 {
        sel.projection = vec![SelectItem::Wildcard];
    } else {
        let n = rng.usize_inclusive(1, 3);
        sel.projection = (0..n)
            .map(|_| {
                let e = arb_expr(rng, 1);
                if rng.bool() {
                    SelectItem::aliased(e, arb_ident(rng))
                } else {
                    SelectItem::expr(e)
                }
            })
            .collect();
    }

    let mut twj = TableWithJoins {
        base: arb_factor(rng, depth),
        joins: Vec::new(),
    };
    for _ in 0..rng.usize_inclusive(0, 2) {
        twj.joins.push(Join {
            kind: if rng.bool() {
                JoinKind::Inner
            } else {
                JoinKind::Left
            },
            factor: arb_factor(rng, 0),
            on: Some(arb_expr(rng, 1)),
        });
    }
    sel.from.push(twj);

    if rng.bool() {
        sel.where_clause = Some(arb_expr(rng, 2));
    }
    if rng.index(4) == 0 {
        let n = rng.usize_inclusive(1, 2);
        sel.group_by = (0..n).map(|_| arb_column(rng)).collect();
        if rng.bool() {
            sel.having = Some(arb_expr(rng, 1));
        }
    }
    sel
}

fn arb_setexpr(rng: &mut Prng, depth: u32) -> SetExpr {
    if depth > 0 && rng.index(3) == 0 {
        let op = match rng.index(3) {
            0 => SetOp::Union,
            1 => SetOp::Intersect,
            _ => SetOp::Except,
        };
        SetExpr::SetOp {
            op,
            all: op == SetOp::Union && rng.bool(),
            left: Box::new(arb_setexpr(rng, depth - 1)),
            right: Box::new(arb_setexpr(rng, depth - 1)),
        }
    } else {
        SetExpr::Select(Box::new(arb_select(rng, depth)))
    }
}

fn arb_query(rng: &mut Prng, depth: u32, allow_with: bool) -> Query {
    let with = (allow_with && rng.index(3) == 0).then(|| {
        let n_cols = rng.usize_inclusive(0, 3);
        With {
            recursive: rng.bool(),
            ctes: vec![Cte {
                name: arb_ident(rng),
                columns: (0..n_cols).map(|_| arb_ident(rng)).collect(),
                query: arb_query(rng, depth.saturating_sub(1), false),
            }],
        }
    });
    let order_by = if rng.index(4) == 0 {
        (0..rng.usize_inclusive(1, 2))
            .map(|_| OrderItem {
                expr: Expr::Literal(Value::Int(rng.i64_inclusive(1, 3))),
                desc: rng.bool(),
            })
            .collect()
    } else {
        Vec::new()
    };
    Query {
        with,
        body: arb_setexpr(rng, depth),
        order_by,
        limit: (rng.index(4) == 0).then(|| rng.i64_inclusive(0, 1000) as u64),
    }
}

#[test]
fn query_round_trips_through_parser() {
    cases("query_round_trip", 384, 0x51, |rng| {
        let q = arb_query(rng, 2, true);
        let sql = q.to_string();
        let reparsed =
            parse_query(&sql).unwrap_or_else(|err| panic!("'{sql}' failed to parse: {err}"));
        assert_eq!(q, reparsed, "round-trip mismatch for: {sql}");
    });
}

/// The server's miss path over the same queries: the print of `q`, split
/// into its template and integers, keyed and bound through [`Templates`],
/// has the print of `q` as its key and binds back to `q` itself.
#[test]
fn template_splits_and_binds_back_to_the_query() {
    let templates = Templates::default();
    cases("template_round_trip", 384, 0x52, |rng| {
        let q = arb_query(rng, 2, true);
        let sql = q.to_string();
        let resolved = templates
            .resolve(&sql)
            .unwrap_or_else(|err| panic!("'{sql}' failed to resolve: {err}"));
        assert_eq!(&*resolved.key, sql, "spliced key");
        let mut bound = resolved.template.query().clone();
        bind_query(&mut bound, &resolved.values);
        assert_eq!(q, bound, "bound template mismatch for: {sql}");
    });
}
