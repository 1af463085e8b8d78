//! SQL generation for PDM actions.
//!
//! All retrieval queries produce one **homogenized result type** (§5.2's
//! unification: one column set covering every object type plus a type
//! discriminator). Unlike the paper's illustrative query — which returns
//! link objects as separate rows — our result carries the incoming link's
//! attributes inline on each node row (`parent`, `link_id`, effectivity,
//! structure option). The information content is identical, the row count
//! equals the transferred-node count of the cost model, and every row
//! occupies the configured node size on the wire.
//!
//! [`navigational`] and [`recursive`] build a statement's AST for an object
//! id, the [`modificator`] splices the user's rules into it, and every
//! finished AST passes the [`audit`] hook. A session does not run that
//! pipeline per statement: [`prepared`] runs it once per statement *shape*
//! and splices ids into the printed text, which is all that differs between
//! the hundreds of statements of a navigational expand.

pub mod audit;
pub mod modificator;
pub mod navigational;
pub mod prepared;
pub mod recursive;

use pdm_sql::ast::{Expr, SelectItem};
use pdm_sql::{DataType, Value};

/// Name of the recursion CTE in generated multi-level-expand queries.
pub const CTE_NAME: &str = "rtbl";

/// Column names of the homogenized result type, in order.
pub const RESULT_COLUMNS: [&str; 11] = [
    "type",
    "obid",
    "name",
    "dec",
    "parent",
    "link_id",
    "eff_from",
    "eff_to",
    "strc_opt",
    "checkedout",
    "payload",
];

/// Table names of the flattened Figure-2 schema.
pub const T_ASSY: &str = "assy";
pub const T_COMP: &str = "comp";
pub const T_LINK: &str = "link";

/// Projection of one node-kind joined with its incoming link, homogenized
/// to [`RESULT_COLUMNS`]. `node_table` is `assy` or `comp`; components have
/// no `dec` attribute and get `''` like the paper's example.
/// Homogenized node⋈link projection against a structure view's link table
/// (parallel hierarchical views, §1 footnote 1; the physical structure is
/// [`T_LINK`]).
pub(crate) fn linked_node_projection_in(node_table: &str, link_table: &str) -> Vec<SelectItem> {
    let dec: Expr = if node_table == T_ASSY {
        Expr::qcol(T_ASSY, "dec")
    } else {
        Expr::lit("")
    };
    vec![
        SelectItem::expr(Expr::qcol(node_table, "type")),
        SelectItem::expr(Expr::qcol(node_table, "obid")),
        SelectItem::expr(Expr::qcol(node_table, "name")),
        SelectItem::aliased(dec, "dec"),
        SelectItem::aliased(Expr::qcol(link_table, "left"), "parent"),
        SelectItem::aliased(Expr::qcol(link_table, "obid"), "link_id"),
        SelectItem::expr(Expr::qcol(link_table, "eff_from")),
        SelectItem::expr(Expr::qcol(link_table, "eff_to")),
        SelectItem::expr(Expr::qcol(link_table, "strc_opt")),
        SelectItem::expr(Expr::qcol(node_table, "checkedout")),
        SelectItem::expr(Expr::qcol(node_table, "payload")),
    ]
}

/// Projection of a node row *without* link context (the root seed and the
/// set-oriented Query action): link columns are NULL-cast per §5.2, and the
/// `strc_opt` column carries the node's own option.
pub(crate) fn bare_node_projection(node_table: &str) -> Vec<SelectItem> {
    let null_int = || Expr::Cast {
        expr: Box::new(Expr::Literal(Value::Null)),
        dtype: DataType::Int,
    };
    let dec: Expr = if node_table == T_ASSY {
        Expr::qcol(T_ASSY, "dec")
    } else {
        Expr::lit("")
    };
    vec![
        SelectItem::expr(Expr::qcol(node_table, "type")),
        SelectItem::expr(Expr::qcol(node_table, "obid")),
        SelectItem::expr(Expr::qcol(node_table, "name")),
        SelectItem::aliased(dec, "dec"),
        SelectItem::aliased(null_int(), "parent"),
        SelectItem::aliased(null_int(), "link_id"),
        SelectItem::aliased(null_int(), "eff_from"),
        SelectItem::aliased(null_int(), "eff_to"),
        SelectItem::expr(Expr::qcol(node_table, "strc_opt")),
        SelectItem::expr(Expr::qcol(node_table, "checkedout")),
        SelectItem::expr(Expr::qcol(node_table, "payload")),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projections_have_result_arity() {
        assert_eq!(
            linked_node_projection_in(T_ASSY, T_LINK).len(),
            RESULT_COLUMNS.len()
        );
        assert_eq!(
            linked_node_projection_in(T_COMP, T_LINK).len(),
            RESULT_COLUMNS.len()
        );
        assert_eq!(bare_node_projection(T_ASSY).len(), RESULT_COLUMNS.len());
    }

    #[test]
    fn component_dec_is_empty_string() {
        let items = linked_node_projection_in(T_COMP, T_LINK);
        let SelectItem::Expr { expr, alias } = &items[3] else {
            panic!()
        };
        assert_eq!(alias.as_deref(), Some("dec"));
        assert_eq!(expr, &Expr::lit(""));
    }
}
