//! Rules: the paper's 4-tuples (user, action, object type, condition).
//!
//! §3.1: "A user is permitted to perform an action on an instance of an
//! object type, if the condition is met." The system is negative-biased —
//! rules only *permit* (footnote 6) — so an object is accessible when at
//! least one relevant rule's condition holds; relevant rules are OR-ed
//! (§5.5 steps 2/5/9/13).

pub mod classify;
pub mod condition;
pub mod table;
pub mod translate;

use condition::{AggFunc, CmpOp, Condition, RowPredicate};
use table::RuleTable;

/// SQL LIKE semantics shared with the server (`%` any sequence, `_` one
/// character) — client-side late evaluation must match the engine exactly.
pub use pdm_sql::exec::expr::like_match;

/// Who a rule applies to: a specific user or everyone (`*` in the paper's
/// examples).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UserPattern {
    Any,
    Named(String),
}

impl UserPattern {
    pub fn matches(&self, user: &str) -> bool {
        match self {
            UserPattern::Any => true,
            UserPattern::Named(n) => n == user,
        }
    }
}

/// PDM actions rules can govern. `Access` covers plain traversal/read of an
/// object or relation (the action structure options and effectivities are
/// formulated with, §3.1 example 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActionKind {
    Access,
    Query,
    Expand,
    MultiLevelExpand,
    CheckOut,
    CheckIn,
}

impl ActionKind {
    /// Rules governing `Access` apply to every retrieving action — the
    /// §5.5 step-11 lookup fetches row conditions "according to the current
    /// user, referring to any object type t occurring in the query, and
    /// action = access".
    pub fn implied_by(&self, rule_action: ActionKind) -> bool {
        rule_action == *self || rule_action == ActionKind::Access
    }
}

/// One access rule: the paper's 4-tuple, plus the SQL translation that is
/// produced once at definition time and stored alongside (§5.5: "Translated
/// conditions are stored — together with the four components defining the
/// rule — in an appropriate data structure ... at each client").
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    pub user: UserPattern,
    pub action: ActionKind,
    /// The object type the rule guards — a *table name* in the flattened
    /// representation ("assy", "comp", "link"), since that is what the
    /// query modificator matches FROM clauses against.
    pub object_type: String,
    pub condition: Condition,
    /// SQL text of the translated condition (cached at definition time;
    /// regenerated via [`translate`] when the rule is built).
    pub translated_sql: String,
}

impl Rule {
    /// Build a rule, translating its condition to SQL immediately.
    pub fn new(
        user: UserPattern,
        action: ActionKind,
        object_type: impl Into<String>,
        condition: Condition,
    ) -> Self {
        let object_type = object_type.into().to_ascii_lowercase();
        let translated_sql = translate::condition_to_sql_text(&condition, &object_type);
        Rule {
            user,
            action,
            object_type,
            condition,
            translated_sql,
        }
    }

    /// Convenience: a rule for every user.
    pub fn for_all_users(
        action: ActionKind,
        object_type: impl Into<String>,
        condition: Condition,
    ) -> Self {
        Rule::new(UserPattern::Any, action, object_type, condition)
    }
}

/// The γ-visibility rule set every reproduction session uses: the user
/// sees only `strc_opt = 'OPTA'` rows of the three structure-bearing tables
/// (structure-option access rules on relations and objects, §3.1 example 3).
pub fn visibility_rules() -> RuleTable {
    let mut t = RuleTable::new();
    for object_type in ["link", "assy", "comp"] {
        t.add(Rule::for_all_users(
            ActionKind::Access,
            object_type,
            Condition::Row(RowPredicate::compare("strc_opt", CmpOp::Eq, "OPTA")),
        ));
    }
    t
}

/// The full §5.5 rule set: [`visibility_rules`] plus a ∀rows release-flag
/// rule, a tree-size aggregate bound and an ∃structure specification rule
/// on the multi-level expand — one rule of every condition class, so steps
/// A through D of the modification algorithm all inject.
pub fn paper_rules() -> RuleTable {
    let mut t = visibility_rules();
    t.add(Rule::for_all_users(
        ActionKind::MultiLevelExpand,
        "assy",
        Condition::ForAllRows {
            object_type: Some("assy".into()),
            predicate: RowPredicate::compare("dec", CmpOp::Eq, "+"),
        },
    ));
    t.add(Rule::for_all_users(
        ActionKind::MultiLevelExpand,
        "assy",
        Condition::TreeAggregate {
            func: AggFunc::Count,
            attr: None,
            object_type: Some("assy".into()),
            op: CmpOp::LtEq,
            value: 10_000.0,
        },
    ));
    t.add(Rule::for_all_users(
        ActionKind::MultiLevelExpand,
        "comp",
        Condition::ExistsStructure {
            object_table: "comp".into(),
            relation_table: "specified_by".into(),
            related_table: "spec".into(),
        },
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::condition::{CmpOp, Condition, RowPredicate};
    use super::*;

    #[test]
    fn user_pattern_matching() {
        assert!(UserPattern::Any.matches("scott"));
        assert!(UserPattern::Named("scott".into()).matches("scott"));
        assert!(!UserPattern::Named("scott".into()).matches("tiger"));
    }

    #[test]
    fn access_implies_all_retrievals() {
        assert!(ActionKind::MultiLevelExpand.implied_by(ActionKind::Access));
        assert!(ActionKind::Query.implied_by(ActionKind::Access));
        assert!(ActionKind::CheckOut.implied_by(ActionKind::CheckOut));
        assert!(!ActionKind::CheckOut.implied_by(ActionKind::Query));
    }

    #[test]
    fn rule_translates_at_definition_time() {
        // The paper's example 1: Scott may multi-level-expand assemblies
        // that are not bought from a supplier.
        let rule = Rule::new(
            UserPattern::Named("scott".into()),
            ActionKind::MultiLevelExpand,
            "assy",
            Condition::Row(RowPredicate::compare("make_or_buy", CmpOp::NotEq, "buy")),
        );
        assert_eq!(rule.translated_sql, "assy.make_or_buy <> 'buy'");
    }

    #[test]
    fn object_type_lowercased() {
        let rule = Rule::for_all_users(
            ActionKind::Access,
            "ASSY",
            Condition::Row(RowPredicate::compare("dec", CmpOp::Eq, "+")),
        );
        assert_eq!(rule.object_type, "assy");
    }
}
