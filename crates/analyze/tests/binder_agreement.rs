//! The analyzer and the engine bind one dialect with one binder: over random
//! well-formed queries on the Figure-2 schema, and the same queries with one
//! mutation each (a table, a column, a function, an aggregate's placement
//! or argument count, a set operation's arity, an ORDER BY ordinal, a CTE's
//! or a recursive term's width, an IN or scalar subquery's width),
//! compiling a query (`explain_query`, no row read) fails
//! exactly when the analyzer flags a resolution check. And a query that
//! compiles never meets a bind error when it runs on a populated tree: the
//! binder leaves nothing for the rows to find.

#![allow(clippy::unwrap_used)]

use pdm_analyze::{Analyzer, Check};
use pdm_prng::check::cases;
use pdm_prng::Prng;
use pdm_sql::exec::explain::explain_query;
use pdm_sql::{Database, Error};
use pdm_workload::TreeSpec;

const CASES: u64 = 256;

/// The checks name resolution reports.
const RESOLUTION: [Check; 8] = [
    Check::UnknownTable,
    Check::UnknownColumn,
    Check::AmbiguousColumn,
    Check::UnknownFunction,
    Check::CteArityMismatch,
    Check::SetOpArityMismatch,
    Check::AggregateInWhere,
    Check::OrderByOutOfRange,
];

/// Tables of the paper schema with the columns a block may project.
const TABLES: [(&str, &[&str]); 5] = [
    (
        "assy",
        &["type", "obid", "name", "dec", "make_or_buy", "strc_opt"],
    ),
    ("comp", &["type", "obid", "name", "strc_opt", "payload"]),
    ("link", &["obid", "left", "right", "eff_from", "eff_to"]),
    ("spec", &["type", "obid", "name"]),
    ("specified_by", &["obid", "left", "right"]),
];

const SET_OPS: [&str; 4] = ["UNION", "UNION ALL", "INTERSECT", "EXCEPT"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mutation {
    Table,
    Column,
    Function,
    Aggregate,
    /// `SUM(*)` or `COUNT(c, c)` for a grouped body's `COUNT(*)`.
    AggregateArity,
    SetOpArity,
    OrderBy,
    CteWidth,
    RecursiveWidth,
    /// A two-column IN or scalar subquery in a block's WHERE.
    SubqueryWidth,
}

const MUTATIONS: [Mutation; 10] = [
    Mutation::Table,
    Mutation::Column,
    Mutation::Function,
    Mutation::Aggregate,
    Mutation::AggregateArity,
    Mutation::SetOpArity,
    Mutation::OrderBy,
    Mutation::CteWidth,
    Mutation::RecursiveWidth,
    Mutation::SubqueryWidth,
];

/// One SELECT block over one table: its projected columns, the lower bound
/// of its `coalesce(obid, 0)` filter, and the extras it carries.
struct Block {
    table: &'static str,
    columns: Vec<&'static str>,
    bound: i64,
    /// Reached through `link JOIN table ON link.right = table.obid`.
    joined: bool,
    /// A correlated `EXISTS` over the link table.
    exists: bool,
}

enum Body {
    Select(Block),
    /// `SELECT c, COUNT(*) … GROUP BY c`, with a HAVING or not.
    Grouped(Block, bool),
    SetOp(Block, &'static str, Block),
}

enum Shape {
    Plain(Body),
    /// `WITH c (c1, …) AS (body) SELECT c1, … FROM c`.
    Cte(Body),
    /// The §5.2 descent from the roots a block selects.
    Recursive(Block),
}

struct Spec {
    shape: Shape,
    /// ORDER BY ordinal, within the output.
    order_by: Option<usize>,
}

fn block(rng: &mut Prng, width: usize) -> Block {
    let (table, columns) = TABLES[rng.index(TABLES.len())];
    let columns = (0..width)
        .map(|_| columns[rng.index(columns.len())])
        .collect();
    Block {
        table,
        columns,
        bound: rng.i64_inclusive(0, 20),
        joined: matches!(table, "assy" | "comp") && rng.bool(),
        exists: rng.index(4) == 0,
    }
}

fn body(rng: &mut Prng) -> Body {
    let width = rng.usize_inclusive(1, 3);
    match rng.index(3) {
        0 => Body::Select(block(rng, width)),
        1 => Body::Grouped(block(rng, 1), rng.bool()),
        _ => {
            let left = block(rng, width);
            let op = SET_OPS[rng.index(SET_OPS.len())];
            Body::SetOp(left, op, block(rng, width))
        }
    }
}

fn spec(rng: &mut Prng) -> Spec {
    let shape = match rng.index(4) {
        0 | 1 => Shape::Plain(body(rng)),
        2 => Shape::Cte(body(rng)),
        _ => {
            let mut seed = block(rng, 1);
            (seed.table, seed.columns) = ("assy", vec!["obid"]);
            Shape::Recursive(seed)
        }
    };
    let mut spec = Spec {
        shape,
        order_by: None,
    };
    if rng.bool() {
        spec.order_by = Some(rng.usize_inclusive(1, spec.width()));
    }
    spec
}

impl Body {
    fn width(&self) -> usize {
        match self {
            Body::Select(b) | Body::SetOp(b, _, _) => b.columns.len(),
            Body::Grouped(..) => 2,
        }
    }

    fn render(&self, m: Option<Mutation>) -> String {
        match self {
            Body::Select(b) => b.render(m, ""),
            Body::Grouped(b, having) => {
                let c = format!("{}.{}", b.table, b.columns[0]);
                let count = match m {
                    Some(Mutation::AggregateArity) if b.bound % 2 == 0 => ", SUM(*)".to_string(),
                    Some(Mutation::AggregateArity) => format!(", COUNT({c}, {c})"),
                    _ => ", COUNT(*)".to_string(),
                };
                let mut sql = b.render(m, &count);
                sql.push_str(&format!(" GROUP BY {c}"));
                if *having {
                    sql.push_str(" HAVING COUNT(*) > 0");
                }
                sql
            }
            Body::SetOp(left, op, right) => {
                let extra = if m == Some(Mutation::SetOpArity) {
                    ", 1"
                } else {
                    ""
                };
                format!("{} {op} {}", left.render(m, ""), right.render(None, extra))
            }
        }
    }
}

impl Block {
    /// The block, with `extra` appended to its projection and the mutations
    /// that concern one block applied.
    fn render(&self, m: Option<Mutation>, extra: &str) -> String {
        let t = self.table;
        let mut items: Vec<String> = self.columns.iter().map(|c| format!("{t}.{c}")).collect();
        if m == Some(Mutation::Column) {
            items[0] = format!("{t}.ghost");
        }
        let from = if m == Some(Mutation::Table) {
            "nonesuch"
        } else {
            t
        };
        let from = if self.joined {
            format!("link JOIN {from} ON link.right = {t}.obid")
        } else {
            from.to_string()
        };
        let call = match m {
            Some(Mutation::Function) => "frobnicate",
            Some(Mutation::Aggregate) => "MAX",
            _ => "coalesce",
        };
        let mut sql = format!(
            "SELECT {}{extra} FROM {from} WHERE {call}({t}.obid, 0) >= {}",
            items.join(", "),
            self.bound
        );
        if self.exists {
            sql.push_str(&format!(
                " AND EXISTS (SELECT 1 FROM link AS l WHERE l.right = {t}.obid)"
            ));
        }
        if m == Some(Mutation::SubqueryWidth) {
            let pair = "SELECT l.left, l.right FROM link AS l";
            sql.push_str(&match self.bound % 2 {
                0 => format!(" AND {t}.obid IN ({pair})"),
                _ => format!(" AND {t}.obid <> ({pair} WHERE l.obid = 0)"),
            });
        }
        sql
    }
}

impl Spec {
    fn width(&self) -> usize {
        match &self.shape {
            Shape::Plain(b) | Shape::Cte(b) => b.width(),
            Shape::Recursive(_) => 1,
        }
    }

    /// Whether the mutation has a place in this query.
    fn admits(&self, m: Mutation) -> bool {
        match m {
            Mutation::SetOpArity => matches!(
                &self.shape,
                Shape::Plain(Body::SetOp(..)) | Shape::Cte(Body::SetOp(..))
            ),
            Mutation::AggregateArity => matches!(
                &self.shape,
                Shape::Plain(Body::Grouped(..)) | Shape::Cte(Body::Grouped(..))
            ),
            Mutation::CteWidth => !matches!(self.shape, Shape::Plain(_)),
            Mutation::RecursiveWidth => matches!(self.shape, Shape::Recursive(_)),
            _ => true,
        }
    }

    fn render(&self, m: Option<Mutation>) -> String {
        let width = self.width();
        let mut names: Vec<String> = (1..=width).map(|i| format!("c{i}")).collect();
        let outer = names.join(", ");
        if m == Some(Mutation::CteWidth) {
            names.push("extra".into());
        }
        let mut sql = match &self.shape {
            Shape::Plain(body) => body.render(m),
            Shape::Cte(body) => format!(
                "WITH c ({}) AS ({}) SELECT {outer} FROM c",
                names.join(", "),
                body.render(m)
            ),
            Shape::Recursive(seed) => {
                let extra = if m == Some(Mutation::RecursiveWidth) {
                    ", 1"
                } else {
                    ""
                };
                format!(
                    "WITH RECURSIVE r ({}) AS ({} UNION SELECT link.right{extra} FROM r \
                     JOIN link ON r.c1 = link.left) SELECT {outer} FROM r",
                    names.join(", "),
                    seed.render(m, "")
                )
            }
        };
        let order_by = match m {
            Some(Mutation::OrderBy) => Some(width + 1),
            _ => self.order_by,
        };
        if let Some(k) = order_by {
            sql.push_str(&format!(" ORDER BY {k}"));
        }
        sql
    }
}

fn paper_database() -> Database {
    let mut db = Database::new();
    pdm_workload::create_schema(&mut db).unwrap();
    pdm_core::functions::register_pdm_functions(&mut db);
    db
}

#[test]
fn the_analyzer_flags_resolution_exactly_when_compile_fails() {
    let empty = paper_database();
    let (mut tree, _) =
        pdm_workload::build_database(&TreeSpec::new(3, 3, 1.0).with_node_size(64)).unwrap();
    pdm_core::functions::register_pdm_functions(&mut tree);
    let analyzer = Analyzer::paper();
    let mut mutated = [0usize; MUTATIONS.len()];
    cases("binder_agreement", CASES, 0xB1D5, |rng| {
        let spec = spec(rng);
        let variants = std::iter::once(None).chain(
            MUTATIONS
                .iter()
                .filter(|m| spec.admits(**m))
                .map(|m| Some(*m)),
        );
        for m in variants {
            let sql = spec.render(m);
            let query = pdm_sql::parser::parse_query(&sql).unwrap();
            let compiled = explain_query(&empty.catalog, &empty.config, &query);
            let report = analyzer.analyze(&query);
            let flagged = RESOLUTION.iter().any(|c| report.flags(*c));
            assert_eq!(
                compiled.is_err(),
                flagged,
                "{sql}\ncompile: {compiled:?}\nanalyzer: {report}"
            );
            // The binder defines the surface: each mutation is outside it,
            // each well-formed query inside.
            assert_eq!(compiled.is_err(), m.is_some(), "{sql}: {compiled:?}");
            if compiled.is_ok() {
                let run = tree.query(&sql);
                assert!(
                    !matches!(run, Err(Error::Bind(_))),
                    "{sql} compiles but fails to bind on a populated tree: {run:?}"
                );
            }
            if let Some(m) = m {
                mutated[MUTATIONS.iter().position(|x| *x == m).unwrap()] += 1;
            }
        }
    });
    for (m, n) in MUTATIONS.iter().zip(mutated) {
        assert!(n >= 20, "{m:?} was drawn {n} times");
    }
}
