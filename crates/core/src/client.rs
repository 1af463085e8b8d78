//! Client-side machinery: the strategy switch, result rows into product
//! nodes, and late (post-transfer) rule evaluation.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use pdm_sql::functions::FunctionRegistry;
use pdm_sql::{ResultSet, Row, Schema, Value};

use crate::product::{ObjectId, ProductNode};
use crate::rules::classify::ConditionClass;
use crate::rules::condition::Condition;
use crate::rules::table::RuleTable;
use crate::rules::{ActionKind, Rule};

/// The three client strategies the paper compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Navigational access; rules evaluated at the client after transfer
    /// (the unoptimized baseline of Table 2).
    LateEval,
    /// Navigational access; row conditions compiled into each query
    /// (Approach 1, Table 3).
    EarlyEval,
    /// Tree retrievals compiled into one recursive query with rules
    /// embedded (Approach 2, Table 4).
    Recursive,
}

impl Strategy {
    pub const ALL: [Strategy; 3] = [Strategy::LateEval, Strategy::EarlyEval, Strategy::Recursive];

    pub fn label(&self) -> &'static str {
        match self {
            Strategy::LateEval => "late eval",
            Strategy::EarlyEval => "early eval",
            Strategy::Recursive => "recursion",
        }
    }

    /// Does this strategy evaluate row conditions at the server?
    pub fn early_rules(&self) -> bool {
        !matches!(self, Strategy::LateEval)
    }
}

/// Build an attribute map from one result row (column name → value).
pub fn row_attrs(rs: &ResultSet, row: &Row) -> HashMap<String, Value> {
    rs.schema
        .columns()
        .iter()
        .zip(row)
        .map(|(c, v)| (c.name.clone(), v.clone()))
        .collect()
}

/// How the rows of one result schema become [`ProductNode`]s: the column
/// names resolved to positions once, so a row is assembled without hashing
/// a name.
///
/// A node's attribute map equals [`row_attrs`]' (the last column of a
/// repeated name wins); its `obid` is the `obid` column when that is an
/// integer and 0 otherwise, its `type_name` and `name` the `type` and
/// `name` columns when they are text and "" otherwise, and its parent the
/// caller's when given, else the `parent` column when that is an integer.
/// A row is as wide as its schema, as every `ResultSet` row is.
#[derive(Debug, Clone, Default)]
pub struct NodeShape {
    names: Vec<String>,
    /// Each column name → `Value::Int(its position)`.
    positions: HashMap<String, Value>,
    obid: Option<usize>,
    type_name: Option<usize>,
    name: Option<usize>,
    parent: Option<usize>,
}

impl NodeShape {
    pub fn new(schema: &Schema) -> Self {
        let names: Vec<String> = schema.columns().iter().map(|c| c.name.clone()).collect();
        let positions = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), Value::Int(i as i64)))
            .collect();
        let last = |column: &str| names.iter().rposition(|n| n == column);
        NodeShape {
            obid: last("obid"),
            type_name: last("type"),
            name: last("name"),
            parent: last("parent"),
            positions,
            names,
        }
    }

    /// The column names this shape was resolved from.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Whether `schema`'s column names are this shape's, in order.
    pub fn fits(&self, schema: &Schema) -> bool {
        let columns = schema.columns();
        self.names.len() == columns.len()
            && self.names.iter().zip(columns).all(|(n, c)| *n == c.name)
    }

    /// Keep this shape for `schema` if it [fits](NodeShape::fits); rebuild
    /// it otherwise. Returns whether it was rebuilt.
    pub fn refit(&mut self, schema: &Schema) -> bool {
        let rebuild = !self.fits(schema);
        if rebuild {
            *self = NodeShape::new(schema);
        }
        rebuild
    }

    /// The row's `obid` column, when it has one and it is an integer.
    pub fn obid(&self, row: &Row) -> Option<ObjectId> {
        int_at(row, self.obid)
    }

    /// The row's `parent` column, when it has one and it is an integer.
    pub(crate) fn parent(&self, row: &Row) -> Option<ObjectId> {
        int_at(row, self.parent)
    }

    /// The row's `type` column, when it has one and it is text; "" else.
    pub(crate) fn type_name<'r>(&self, row: &'r Row) -> &'r str {
        text_at(row, self.type_name)
    }

    /// The node one row of this shape's result describes, under `parent`
    /// when given.
    pub fn node(&self, row: &Row, parent: Option<ObjectId>) -> ProductNode {
        ProductNode {
            obid: self.obid(row).unwrap_or_default(),
            parent: parent.or_else(|| self.parent(row)),
            type_name: self.type_name(row).to_owned(),
            name: text_at(row, self.name).to_owned(),
            attrs: self.attrs(row),
        }
    }

    /// The attribute map of one row of this shape's result (what
    /// [`row_attrs`] builds, without hashing a name).
    pub fn attrs(&self, row: &Row) -> HashMap<String, Value> {
        let mut attrs = self.positions.clone();
        // lint:allow(unordered-iter): each entry is overwritten from the
        // position it carries, so the order the entries are visited in
        // cannot reach the map's contents.
        for value in attrs.values_mut() {
            if let Value::Int(i) = *value {
                *value = row.try_get(i as usize).cloned().unwrap_or(Value::Null);
            }
        }
        attrs
    }
}

/// The nodes of one retrieval, kept as the server's shared result: the rows
/// a node is read from, the shape that reads them, the parent every node
/// hangs under (when the statement had one) and which rows survived the
/// late filter. A node is built — its attribute map filled — only when it
/// is asked for ([`NodeRows::iter`], [`NodeRows::get`]); [`NodeRows::obids`]
/// reads the ids by position and builds none.
///
/// Two `NodeRows` are equal when they describe the same nodes in the same
/// order: the same column names, the same parent and the same kept rows,
/// whichever server's result they share. They print as their nodes.
#[derive(Clone)]
pub struct NodeRows {
    rows: Arc<ResultSet>,
    shape: Arc<NodeShape>,
    parent: Option<ObjectId>,
    /// Positions of the kept rows, ascending; `None` keeps every row.
    kept: Option<Vec<u32>>,
}

impl NodeRows {
    /// Every row of `rows`, read through `shape` under `parent`. The shape
    /// must be one that [fits](NodeShape::fits) the rows' schema.
    pub(crate) fn new(
        rows: Arc<ResultSet>,
        shape: Arc<NodeShape>,
        parent: Option<ObjectId>,
    ) -> Self {
        NodeRows {
            rows,
            shape,
            parent,
            kept: None,
        }
    }

    /// Only the rows at `kept` (ascending positions into the result).
    pub(crate) fn keeping(self, kept: Vec<u32>) -> Self {
        NodeRows {
            kept: Some(kept),
            ..self
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.kept.as_ref().map_or(self.rows.len(), Vec::len)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The server's result the nodes are read from, including any rows the
    /// late filter dropped.
    pub fn rows(&self) -> &Arc<ResultSet> {
        &self.rows
    }

    /// The shape the rows are read through.
    pub(crate) fn shape(&self) -> &Arc<NodeShape> {
        &self.shape
    }

    /// The parent every node hangs under, when the statement had one.
    pub(crate) fn parent(&self) -> Option<ObjectId> {
        self.parent
    }

    /// The `i`-th node.
    pub fn get(&self, i: usize) -> Option<ProductNode> {
        self.kept_rows()
            .nth(i)
            .map(|(_, row)| self.shape.node(row, self.parent))
    }

    /// The nodes in order, each built as it is reached.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = ProductNode> + '_ {
        self.kept_rows()
            .map(|(_, row)| self.shape.node(row, self.parent))
    }

    /// The nodes' ids in order (an `obid` that is not an integer reads 0,
    /// as in the node).
    pub fn obids(&self) -> impl ExactSizeIterator<Item = ObjectId> + '_ {
        self.kept_rows()
            .map(|(_, row)| self.shape.obid(row).unwrap_or_default())
    }

    /// The kept rows in order, each with its position in the result.
    pub(crate) fn kept_rows(&self) -> KeptRows<'_> {
        match &self.kept {
            None => KeptRows::All(self.rows.rows.iter().enumerate()),
            Some(kept) => KeptRows::At {
                rows: &self.rows.rows,
                kept: kept.iter(),
            },
        }
    }
}

/// The rows a [`NodeRows`] keeps, in order, each with its position in the
/// result. Every kept position is a row of the result (the late filter
/// records them while walking it), so the count of positions left is the
/// count of rows left.
pub(crate) enum KeptRows<'a> {
    All(std::iter::Enumerate<std::slice::Iter<'a, Row>>),
    At {
        rows: &'a [Row],
        kept: std::slice::Iter<'a, u32>,
    },
}

impl<'a> Iterator for KeptRows<'a> {
    type Item = (usize, &'a Row);

    fn next(&mut self) -> Option<(usize, &'a Row)> {
        match self {
            KeptRows::All(rows) => rows.next(),
            KeptRows::At { rows, kept } => kept.next().and_then(|&at| row_at(rows, at)),
        }
    }

    fn nth(&mut self, n: usize) -> Option<(usize, &'a Row)> {
        match self {
            KeptRows::All(rows) => rows.nth(n),
            KeptRows::At { rows, kept } => kept.nth(n).and_then(|&at| row_at(rows, at)),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            KeptRows::All(rows) => rows.size_hint(),
            KeptRows::At { kept, .. } => kept.size_hint(),
        }
    }
}

impl ExactSizeIterator for KeptRows<'_> {}

/// Row `at` of `rows`, with its position.
fn row_at(rows: &[Row], at: u32) -> Option<(usize, &Row)> {
    let at = at as usize;
    rows.get(at).map(|row| (at, row))
}

impl fmt::Debug for NodeRows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for NodeRows {
    fn eq(&self, other: &Self) -> bool {
        self.shape.names() == other.shape.names()
            && self.parent == other.parent
            && self.len() == other.len()
            && self
                .kept_rows()
                .zip(other.kept_rows())
                .all(|((_, a), (_, b))| a == b)
    }
}

/// The integer at position `at` of `row`, if there is one.
fn int_at(row: &Row, at: Option<usize>) -> Option<ObjectId> {
    match at.and_then(|i| row.try_get(i)) {
        Some(Value::Int(i)) => Some(*i),
        _ => None,
    }
}

/// The text at position `at` of `row`, or "" when there is none.
fn text_at(row: &Row, at: Option<usize>) -> &str {
    match at.and_then(|i| row.try_get(i)) {
        Some(Value::Text(t)) => t,
        _ => "",
    }
}

/// Per-object-type groups of relevant row-condition rules. Types with no
/// relevant rules yield no group (absent rules mean unrestricted access,
/// matching what early evaluation injects into SQL).
pub fn permission_groups<'a>(
    rules: &'a RuleTable,
    user: &str,
    action: ActionKind,
    tables: &[&str],
) -> Vec<Vec<&'a Rule>> {
    tables
        .iter()
        .map(|t| rules.relevant_for_type(user, action, ConditionClass::Row, t))
        .filter(|g| !g.is_empty())
        .collect()
}

/// Late rule evaluation for one transferred row: within each type group the
/// rule conditions are OR-ed (any permitting rule suffices), and all groups
/// must permit — exactly the predicate early evaluation would have put in
/// the WHERE clause (§4.1).
pub fn permitted(
    attrs: &HashMap<String, Value>,
    groups: &[Vec<&Rule>],
    funcs: &FunctionRegistry,
) -> bool {
    groups.iter().all(|group| {
        group.iter().any(|rule| match &rule.condition {
            Condition::Row(pred) => pred.eval(attrs, funcs),
            // Tree conditions cannot be decided per row; they never appear
            // in these groups (permission_groups filters to Row class).
            _ => false,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::client_registry;
    use crate::rules::condition::{CmpOp, RowPredicate};
    use crate::rules::UserPattern;

    fn rules() -> RuleTable {
        let mut t = RuleTable::new();
        t.add(Rule::for_all_users(
            ActionKind::Access,
            "link",
            Condition::Row(RowPredicate::compare("strc_opt", CmpOp::Eq, "OPTA")),
        ));
        t.add(Rule::new(
            UserPattern::Named("scott".into()),
            ActionKind::Access,
            "assy",
            Condition::Row(RowPredicate::compare("dec", CmpOp::Eq, "+")),
        ));
        t.add(Rule::new(
            UserPattern::Named("scott".into()),
            ActionKind::Access,
            "assy",
            Condition::Row(RowPredicate::compare("name", CmpOp::Eq, "special")),
        ));
        t
    }

    fn attrs(pairs: &[(&str, &str)]) -> HashMap<String, Value> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), Value::from(*v)))
            .collect()
    }

    #[test]
    fn groups_skip_ruleless_types() {
        let r = rules();
        let groups = permission_groups(&r, "scott", ActionKind::Expand, &["link", "assy", "comp"]);
        assert_eq!(groups.len(), 2); // comp has no rules
        let groups = permission_groups(&r, "tiger", ActionKind::Expand, &["link", "assy"]);
        assert_eq!(groups.len(), 1); // assy rules are scott-only
    }

    #[test]
    fn permitted_requires_all_groups() {
        let r = rules();
        let funcs = client_registry();
        let groups = permission_groups(&r, "scott", ActionKind::Expand, &["link", "assy"]);
        // visible link + decomposable assy → permitted
        assert!(permitted(
            &attrs(&[("strc_opt", "OPTA"), ("dec", "+")]),
            &groups,
            &funcs
        ));
        // invisible link → denied even though assy rule passes
        assert!(!permitted(
            &attrs(&[("strc_opt", "NONE"), ("dec", "+")]),
            &groups,
            &funcs
        ));
        // OR within the assy group: name = 'special' rescues dec = '-'
        assert!(permitted(
            &attrs(&[("strc_opt", "OPTA"), ("dec", "-"), ("name", "special")]),
            &groups,
            &funcs
        ));
    }

    #[test]
    fn no_groups_means_everything_permitted() {
        let funcs = client_registry();
        assert!(permitted(&attrs(&[]), &[], &funcs));
    }

    /// One node result as a server ships it: two assemblies and a
    /// component under object 1.
    fn shipped() -> Arc<ResultSet> {
        use pdm_sql::{Column, DataType};
        let schema = Schema::new(
            ["type", "obid", "name", "parent"]
                .into_iter()
                .map(|n| Column::new(n, DataType::Text))
                .collect(),
        );
        let row = |t: &str, obid: i64, name: &str| {
            Row::new(vec![t.into(), Value::Int(obid), name.into(), Value::Int(1)])
        };
        let rows = vec![
            row("assy", 2, "a"),
            row("comp", 3, "c"),
            row("assy", 4, "b"),
        ];
        Arc::new(ResultSet::new(schema, rows))
    }

    fn node_rows(rows: Arc<ResultSet>, kept: Option<Vec<u32>>) -> NodeRows {
        let shape = Arc::new(NodeShape::new(&rows.schema));
        let all = NodeRows::new(rows, shape, None);
        match kept {
            None => all,
            Some(kept) => all.keeping(kept),
        }
    }

    #[test]
    fn node_rows_compare_by_content() {
        // Equal answers from two servers: two results, one node sequence.
        let (a, b) = (shipped(), shipped());
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(node_rows(a.clone(), None), node_rows(b.clone(), None));
        assert_eq!(
            node_rows(a.clone(), Some(vec![0, 2])),
            node_rows(b.clone(), Some(vec![0, 2]))
        );
        // Keeping every row is the same sequence as keeping all of them.
        assert_eq!(
            node_rows(a.clone(), None),
            node_rows(b.clone(), Some(vec![0, 1, 2]))
        );
        // A different kept set is a different answer, on one result or two.
        assert_ne!(
            node_rows(a.clone(), Some(vec![0, 2])),
            node_rows(a.clone(), Some(vec![0, 1]))
        );
        assert_ne!(
            node_rows(a.clone(), Some(vec![0, 2])),
            node_rows(b.clone(), Some(vec![0]))
        );
        assert_ne!(node_rows(a.clone(), None), node_rows(b, Some(vec![])));
        // So is the same rows under another parent.
        let shape = Arc::new(NodeShape::new(&a.schema));
        assert_ne!(
            NodeRows::new(a.clone(), Arc::clone(&shape), Some(7)),
            NodeRows::new(a, shape, None)
        );
    }

    #[test]
    fn node_rows_read_their_kept_rows_in_order() {
        let rows = node_rows(shipped(), Some(vec![0, 2]));
        assert_eq!(rows.len(), 2);
        assert!(!rows.is_empty());
        assert_eq!(rows.obids().collect::<Vec<_>>(), vec![2, 4]);
        let at: Vec<usize> = rows.kept_rows().map(|(at, _)| at).collect();
        assert_eq!(at, [0, 2]);
        let names: Vec<String> = rows.iter().map(|n| n.name).collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(rows.iter().len(), 2);
        assert_eq!(rows.get(1).map(|n| (n.obid, n.parent)), Some((4, Some(1))));
        assert_eq!(rows.get(2), None);
        assert_eq!(rows.rows().len(), 3, "the dropped row is still shipped");
        assert!(node_rows(shipped(), Some(vec![])).is_empty());
    }

    #[test]
    fn strategy_labels_and_flags() {
        assert_eq!(Strategy::LateEval.label(), "late eval");
        assert!(!Strategy::LateEval.early_rules());
        assert!(Strategy::EarlyEval.early_rules());
        assert!(Strategy::Recursive.early_rules());
    }
}
