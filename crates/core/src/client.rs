//! Client-side machinery: the strategy switch, result rows into product
//! nodes, and late (post-transfer) rule evaluation.

use std::collections::HashMap;

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
        .zip(row.values())
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

    /// Keep this shape for `schema` if its column names are this shape's,
    /// in order; rebuild it otherwise. Returns whether it was rebuilt.
    pub fn refit(&mut self, schema: &Schema) -> bool {
        let columns = schema.columns();
        let same = self.names.len() == columns.len()
            && self.names.iter().zip(columns).all(|(n, c)| *n == c.name);
        if !same {
            *self = NodeShape::new(schema);
        }
        !same
    }

    /// The row's `obid` column, when it has one and it is an integer.
    pub fn obid(&self, row: &Row) -> Option<ObjectId> {
        int_at(row, self.obid)
    }

    /// The node one row of this shape's result describes, under `parent`
    /// when given.
    pub fn node(&self, row: &Row, parent: Option<ObjectId>) -> ProductNode {
        let mut attrs = self.positions.clone();
        // lint:allow(unordered-iter): each entry is overwritten from the
        // position it carries, so the order the entries are visited in
        // cannot reach the map's contents.
        for value in attrs.values_mut() {
            if let Value::Int(i) = *value {
                *value = row.values().get(i as usize).cloned().unwrap_or(Value::Null);
            }
        }
        let text = |at: Option<usize>| match at.and_then(|i| row.values().get(i)) {
            Some(Value::Text(t)) => t.clone(),
            _ => String::new(),
        };
        ProductNode {
            obid: self.obid(row).unwrap_or_default(),
            parent: parent.or_else(|| int_at(row, self.parent)),
            type_name: text(self.type_name),
            name: text(self.name),
            attrs,
        }
    }
}

/// The integer at position `at` of `row`, if there is one.
fn int_at(row: &Row, at: Option<usize>) -> Option<ObjectId> {
    match at.and_then(|i| row.values().get(i)) {
        Some(Value::Int(i)) => Some(*i),
        _ => None,
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

    #[test]
    fn strategy_labels_and_flags() {
        assert_eq!(Strategy::LateEval.label(), "late eval");
        assert!(!Strategy::LateEval.early_rules());
        assert!(Strategy::EarlyEval.early_rules());
        assert!(Strategy::Recursive.early_rules());
    }
}
