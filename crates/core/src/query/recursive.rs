//! Recursive SQL generation (§5.2): one `WITH RECURSIVE` query that
//! collects an entire (visible) object tree — the paper's Approach 2.

use pdm_sql::ast::{
    Cte, Expr, Join, JoinKind, Query, Select, SelectItem, SetExpr, SetOp, TableFactor,
    TableWithJoins, With,
};

use super::{bare_node_projection, CTE_NAME, T_ASSY, T_COMP, T_LINK};
use crate::product::ObjectId;

/// One recursive term: `rtbl ⋈ link ⋈ node_table`, projecting the
/// homogenized columns.
fn recursive_term(node_table: &str, link_table: &str) -> Select {
    let mut sel = Select::new();
    sel.projection = super::linked_node_projection_in(node_table, link_table);
    let mut twj = TableWithJoins::table(CTE_NAME);
    twj.joins.push(Join {
        kind: JoinKind::Inner,
        factor: TableFactor::Table {
            name: link_table.to_string(),
            alias: None,
        },
        on: Some(Expr::eq(
            Expr::qcol(CTE_NAME, "obid"),
            Expr::qcol(link_table, "left"),
        )),
    });
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
    sel
}

/// The seed term: the root assembly with NULL link columns (§5.2's first
/// branch).
fn seed_term(root: ObjectId) -> Select {
    let mut sel = Select::new();
    sel.projection = bare_node_projection(T_ASSY);
    sel.from.push(TableWithJoins::table(T_ASSY));
    sel.and_where(Expr::eq(Expr::qcol(T_ASSY, "obid"), Expr::lit(root)));
    sel
}

/// Build the multi-level-expand recursive query for the subtree rooted at
/// `root`:
///
/// ```text
/// WITH RECURSIVE rtbl (type, obid, name, dec, parent, link_id, eff_from,
///                      eff_to, strc_opt, payload) AS
///   ( seed(root)  UNION  rtbl⋈link⋈assy  UNION  rtbl⋈link⋈comp )
/// SELECT ... FROM rtbl WHERE obid <> root
/// ```
///
/// The final SELECT drops the root row (already at the client, footnote 4);
/// rule predicates are spliced in afterwards by the
/// [modificator](super::modificator).
pub fn mle_query(root: ObjectId) -> Query {
    mle_query_with_root(root, false)
}

/// Like [`mle_query`], but optionally *including* the root's own row in the
/// result. Federated expansion needs this: when the traversal continues at a
/// remote site, the remote subtree root's data has not been transferred by
/// any parent-side join, so the remote query must ship it (and the client
/// re-parents it onto the mount's parent).
pub fn mle_query_with_root(root: ObjectId, include_root: bool) -> Query {
    mle_query_in(root, T_LINK, include_root)
}

/// Recursive MLE through an alternative structure view's link table.
pub fn mle_query_in(root: ObjectId, link_table: &str, include_root: bool) -> Query {
    let cte_body = Query {
        with: None,
        body: SetExpr::SetOp {
            op: SetOp::Union,
            all: false,
            left: Box::new(SetExpr::SetOp {
                op: SetOp::Union,
                all: false,
                left: Box::new(SetExpr::Select(Box::new(seed_term(root)))),
                right: Box::new(SetExpr::Select(Box::new(recursive_term(
                    T_ASSY, link_table,
                )))),
            }),
            right: Box::new(SetExpr::Select(Box::new(recursive_term(
                T_COMP, link_table,
            )))),
        },
        order_by: Vec::new(),
        limit: None,
    };

    let mut final_select = Select::new();
    final_select.projection = super::RESULT_COLUMNS
        .iter()
        .map(|c| SelectItem::expr(Expr::col(*c)))
        .collect();
    final_select.from.push(TableWithJoins::table(CTE_NAME));
    if !include_root {
        final_select.and_where(Expr::binary(
            Expr::col("obid"),
            pdm_sql::ast::BinOp::NotEq,
            Expr::lit(root),
        ));
    }

    Query {
        with: Some(With {
            recursive: true,
            ctes: vec![Cte {
                name: CTE_NAME.to_string(),
                columns: super::RESULT_COLUMNS
                    .iter()
                    .map(|c| c.to_string())
                    .collect(),
                query: cte_body,
            }],
        }),
        body: SetExpr::Select(Box::new(final_select)),
        order_by: Vec::new(),
        limit: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_sql::parser::parse_query;

    #[test]
    fn mle_query_renders_and_reparses() {
        let q = mle_query(1);
        let sql = q.to_string();
        assert!(sql.starts_with("WITH RECURSIVE rtbl"));
        assert!(sql.contains("FROM rtbl JOIN link ON rtbl.obid = link.left"));
        assert!(sql.contains("JOIN comp ON link.right = comp.obid"));
        assert!(sql.contains("WHERE obid <> 1"));
        let q2 = parse_query(&sql).unwrap();
        assert_eq!(q, q2);
    }

    #[test]
    fn cte_declares_result_columns() {
        let q = mle_query(1);
        let with = q.with.as_ref().unwrap();
        assert!(with.recursive);
        assert_eq!(
            with.ctes[0].columns.len(),
            super::super::RESULT_COLUMNS.len()
        );
    }

    #[test]
    fn body_is_three_term_union() {
        let q = mle_query(5);
        let with = q.with.unwrap();
        let terms = with.ctes[0].query.body.flatten_setop(SetOp::Union);
        assert_eq!(terms.len(), 3);
    }
}
