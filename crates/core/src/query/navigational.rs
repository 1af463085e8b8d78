//! Navigational SQL generation: the per-node queries of the baseline PDM
//! access pattern (§1: "the navigational traversal of the product tree is
//! translated nearly one-to-one into single, isolated SQL queries").

use pdm_sql::ast::{
    Expr, Join, JoinKind, Query, Select, SetExpr, SetOp, TableFactor, TableWithJoins,
};

use super::{bare_node_projection, T_ASSY, T_COMP};
use crate::product::ObjectId;

/// Children-of-one-node SELECT for one node kind via a structure view.
fn expand_select(node_table: &str, link_table: &str, parent: ObjectId) -> Select {
    let mut sel = Select::new();
    sel.projection = super::linked_node_projection_in(node_table, link_table);
    let mut twj = TableWithJoins::table(link_table);
    twj.joins.push(Join {
        kind: JoinKind::Inner,
        factor: TableFactor::Table {
            name: node_table.to_string(),
            alias: None,
        },
        on: Some(Expr::eq(
            Expr::qcol(link_table, "right"),
            Expr::qcol(node_table, "obid"),
        )),
    });
    sel.from.push(twj);
    sel.and_where(Expr::eq(Expr::qcol(link_table, "left"), Expr::lit(parent)));
    sel
}

/// The single-level expand query: ONE SQL statement fetching all direct
/// children (assemblies and components, homogenized) of `parent` through
/// the `link_table` structure view ([`T_LINK`](super::T_LINK), or a second
/// link table over the same objects — §1 footnote 1). This is the unit the
/// navigational strategies issue once per touched node.
pub fn expand_query_in(parent: ObjectId, link_table: &str) -> Query {
    Query {
        with: None,
        body: SetExpr::SetOp {
            op: SetOp::Union,
            all: false,
            left: Box::new(SetExpr::Select(Box::new(expand_select(
                T_ASSY, link_table, parent,
            )))),
            right: Box::new(SetExpr::Select(Box::new(expand_select(
                T_COMP, link_table, parent,
            )))),
        },
        order_by: Vec::new(),
        limit: None,
    }
}

/// Batched single-level expand: children of *all* `parents` in ONE query
/// (`WHERE link.left IN (...)`). This is the IN-list batching middle ground
/// between per-node navigation and full recursion: one round trip per tree
/// *level* instead of per node. The request grows with the frontier, so
/// deep levels may need multi-packet requests (the §5.4 q_r effect).
pub fn expand_many_query(parents: &[ObjectId], link_table: &str) -> Query {
    let in_list = |sel: &mut Select| {
        let list = parents.iter().map(|p| Expr::lit(*p)).collect();
        sel.where_clause = None;
        sel.and_where(Expr::InList {
            expr: Box::new(Expr::qcol(link_table, "left")),
            list,
            negated: false,
        });
    };
    let mut assy = expand_select(T_ASSY, link_table, 0);
    in_list(&mut assy);
    let mut comp = expand_select(T_COMP, link_table, 0);
    in_list(&mut comp);
    Query {
        with: None,
        body: SetExpr::SetOp {
            op: SetOp::Union,
            all: false,
            left: Box::new(SetExpr::Select(Box::new(assy))),
            right: Box::new(SetExpr::Select(Box::new(comp))),
        },
        order_by: Vec::new(),
        limit: None,
    }
}

/// The set-oriented Query action: all nodes of the product, no structure
/// information, one SQL statement (§2: "a 'query' is assumed to retrieve
/// all nodes of a tree (without the structure information)"). The root is
/// excluded — it is already at the client (footnote 4).
pub fn query_all_query(root: ObjectId) -> Query {
    let mut assy = Select::new();
    assy.projection = bare_node_projection(T_ASSY);
    assy.from.push(TableWithJoins::table(T_ASSY));
    assy.and_where(Expr::binary(
        Expr::qcol(T_ASSY, "obid"),
        pdm_sql::ast::BinOp::NotEq,
        Expr::lit(root),
    ));

    let mut comp = Select::new();
    comp.projection = bare_node_projection(T_COMP);
    comp.from.push(TableWithJoins::table(T_COMP));

    Query {
        with: None,
        body: SetExpr::SetOp {
            op: SetOp::Union,
            all: false,
            left: Box::new(SetExpr::Select(Box::new(assy))),
            right: Box::new(SetExpr::Select(Box::new(comp))),
        },
        order_by: Vec::new(),
        limit: None,
    }
}

/// Fetch one object's full homogenized row by id (used to prime the client
/// cache with the root object).
pub fn fetch_node_query(obid: ObjectId) -> Query {
    let mut assy = Select::new();
    assy.projection = bare_node_projection(T_ASSY);
    assy.from.push(TableWithJoins::table(T_ASSY));
    assy.and_where(Expr::eq(Expr::qcol(T_ASSY, "obid"), Expr::lit(obid)));

    let mut comp = Select::new();
    comp.projection = bare_node_projection(T_COMP);
    comp.from.push(TableWithJoins::table(T_COMP));
    comp.and_where(Expr::eq(Expr::qcol(T_COMP, "obid"), Expr::lit(obid)));

    Query {
        with: None,
        body: SetExpr::SetOp {
            op: SetOp::Union,
            all: false,
            left: Box::new(SetExpr::Select(Box::new(assy))),
            right: Box::new(SetExpr::Select(Box::new(comp))),
        },
        order_by: Vec::new(),
        limit: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_sql::parser::parse_query;

    #[test]
    fn expand_query_renders_and_reparses() {
        let q = expand_query_in(42, crate::query::T_LINK);
        let sql = q.to_string();
        assert!(sql.contains("WHERE link.left = 42"));
        assert!(sql.contains("JOIN assy ON link.right = assy.obid"));
        assert!(sql.contains("UNION"));
        let q2 = parse_query(&sql).unwrap();
        assert_eq!(q, q2);
    }

    #[test]
    fn query_all_excludes_root() {
        let sql = query_all_query(1).to_string();
        assert!(sql.contains("assy.obid <> 1"));
        assert!(sql.contains("CAST (NULL AS integer) AS \"parent\""));
        parse_query(&sql).unwrap();
    }

    #[test]
    fn expand_many_uses_in_list() {
        let q = expand_many_query(&[1, 2, 3], "link");
        let sql = q.to_string();
        assert!(sql.contains("link.left IN (1, 2, 3)"));
        let q2 = parse_query(&sql).unwrap();
        assert_eq!(q, q2);
    }

    #[test]
    fn fetch_node_targets_both_tables() {
        let sql = fetch_node_query(7).to_string();
        assert!(sql.contains("assy.obid = 7"));
        assert!(sql.contains("comp.obid = 7"));
        parse_query(&sql).unwrap();
    }
}
