//! The query modificator (§5.5): splices translated rule predicates into
//! generated queries — steps A (∀rows), B (tree-aggregate), C (∃structure),
//! D (row conditions) for recursive queries, and the §4.1 row-condition-only
//! variant for navigational queries.
//!
//! Reproduces the paper's closing caveat: "Another problem arises if the
//! recursive query (or a part of it) is hidden in a view. As the query
//! structure is not visible to the query modificator, the proposed
//! modifications cannot be performed." — modifying a query that references
//! a view yields [`ModError::HiddenInView`].

use std::collections::HashSet;
use std::fmt;

use pdm_sql::ast::{Expr, Query, Select, SetExpr, TableFactor};

use crate::rules::classify::ConditionClass;
use crate::rules::condition::Condition;
use crate::rules::table::RuleTable;
use crate::rules::translate::{condition_expr, row_predicate_expr};
use crate::rules::ActionKind;

/// Why a query could not be modified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModError {
    /// The query references a view — its structure is hidden from the
    /// modificator (§5.5 remark).
    HiddenInView(String),
    /// Tree-condition injection was requested on a query without a
    /// recursive CTE to evaluate it against.
    NoRecursiveCte,
}

impl fmt::Display for ModError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModError::HiddenInView(v) => write!(
                f,
                "query references view '{v}'; its structure is hidden from the query modificator"
            ),
            ModError::NoRecursiveCte => {
                write!(f, "tree conditions require a recursive CTE in the query")
            }
        }
    }
}

impl std::error::Error for ModError {}

/// The query modificator: bound to a rule table, a user, and the action
/// being performed.
pub struct Modificator<'a> {
    pub rules: &'a RuleTable,
    pub user: &'a str,
    pub action: ActionKind,
    /// Names the client knows to be views at the server; any reference to
    /// one aborts modification.
    pub view_names: &'a HashSet<String>,
}

impl<'a> Modificator<'a> {
    pub fn new(
        rules: &'a RuleTable,
        user: &'a str,
        action: ActionKind,
        view_names: &'a HashSet<String>,
    ) -> Self {
        Modificator {
            rules,
            user,
            action,
            view_names,
        }
    }

    /// §4.1: modify a navigational (non-recursive) query — row conditions
    /// only. Tree conditions cannot be evaluated within a navigational
    /// query and are skipped (the session layer handles them after
    /// retrieval where the action demands it).
    pub fn modify_navigational(&self, query: &mut Query) -> Result<(), ModError> {
        self.check_views(query)?;
        self.inject_row_conditions(&mut query.body);
        Ok(())
    }

    /// §5.5 steps A–D: modify a recursive tree-retrieval query.
    pub fn modify_recursive(&self, query: &mut Query) -> Result<(), ModError> {
        self.check_views(query)?;
        let cte_name = query
            .with
            .as_ref()
            .and_then(|w| if w.recursive { w.ctes.first() } else { None })
            .map(|c| c.name.clone())
            .ok_or(ModError::NoRecursiveCte)?;

        // Steps A + B: ∀rows and tree-aggregate conditions go into the
        // WHERE clauses of all SELECTs *outside* the recursive part.
        let forall: Vec<Expr> = self
            .rules
            .relevant_of_class(self.user, self.action, ConditionClass::ForAllRows)
            .iter()
            .map(|r| condition_expr(&r.condition, &r.object_type, &cte_name))
            .collect();
        let aggregate: Vec<Expr> = self
            .rules
            .relevant_of_class(self.user, self.action, ConditionClass::TreeAggregate)
            .iter()
            .map(|r| condition_expr(&r.condition, &r.object_type, &cte_name))
            .collect();

        for pred in [forall, aggregate]
            .into_iter()
            .filter_map(Expr::disjunction)
        {
            for_each_select(&mut query.body, &mut |sel| sel.and_where(pred.clone()));
        }
        // Step D (outside part): row conditions on tables referenced by the
        // outer SELECTs (usually only the CTE itself, so typically a no-op).
        self.inject_row_conditions(&mut query.body);

        // Steps C + D inside the recursive part.
        if let Some(with) = &mut query.with {
            for cte in &mut with.ctes {
                self.inject_exists_structure(&mut cte.query.body);
                self.inject_row_conditions(&mut cte.query.body);
            }
        }

        Ok(())
    }

    /// Step D: for every SELECT, AND in the per-type disjunction of row
    /// conditions for each referenced table that has relevant rules.
    fn inject_row_conditions(&self, body: &mut SetExpr) {
        for_each_select(body, &mut |sel| {
            let bindings = select_bindings(sel);
            for (table, binding) in &bindings {
                let rules = self.rules.relevant_for_type(
                    self.user,
                    self.action,
                    ConditionClass::Row,
                    table,
                );
                let preds: Vec<Expr> = rules
                    .iter()
                    .filter_map(|r| match &r.condition {
                        Condition::Row(p) => Some(row_predicate_expr(p, binding)),
                        _ => None,
                    })
                    .collect();
                if let Some(pred) = Expr::disjunction(preds) {
                    sel.and_where(pred);
                }
            }
        });
    }

    /// Step C: ∃structure conditions, grouped by tested object type, go
    /// into the WHERE of SELECTs whose FROM references that type's table.
    fn inject_exists_structure(&self, body: &mut SetExpr) {
        let rules =
            self.rules
                .relevant_of_class(self.user, self.action, ConditionClass::ExistsStructure);
        if rules.is_empty() {
            return;
        }
        for_each_select(body, &mut |sel| {
            let bindings = select_bindings(sel);
            for (table, binding) in &bindings {
                let preds: Vec<Expr> = rules
                    .iter()
                    .filter_map(|r| match &r.condition {
                        Condition::ExistsStructure {
                            object_table,
                            relation_table,
                            related_table,
                        } if object_table == table => {
                            Some(crate::rules::translate::exists_structure_expr(
                                binding,
                                relation_table,
                                related_table,
                            ))
                        }
                        _ => None,
                    })
                    .collect();
                if let Some(pred) = Expr::disjunction(preds) {
                    sel.and_where(pred);
                }
            }
        });
    }

    /// §5.5 caveat: refuse to modify a query referencing a view.
    fn check_views(&self, query: &Query) -> Result<(), ModError> {
        let mut cte_names: HashSet<String> = HashSet::new();
        if let Some(with) = &query.with {
            for cte in &with.ctes {
                cte_names.insert(cte.name.to_ascii_lowercase());
            }
        }
        let mut hidden = None;
        let mut visit_body = |body: &SetExpr| {
            for_each_select_ref(body, &mut |sel| {
                for twj in &sel.from {
                    for factor in
                        std::iter::once(&twj.base).chain(twj.joins.iter().map(|j| &j.factor))
                    {
                        if let TableFactor::Table { name, .. } = factor {
                            let lower = name.to_ascii_lowercase();
                            if !cte_names.contains(&lower) && self.view_names.contains(&lower) {
                                hidden.get_or_insert(lower);
                            }
                        }
                    }
                }
            });
        };
        if let Some(with) = &query.with {
            for cte in &with.ctes {
                visit_body(&cte.query.body);
            }
        }
        visit_body(&query.body);
        match hidden {
            Some(v) => Err(ModError::HiddenInView(v)),
            None => Ok(()),
        }
    }
}

/// (table name, binding name) pairs of a SELECT's FROM clause — the lookup
/// key the modificator (and the analyzer's placement re-derivation) use to
/// match rules against blocks. Both are lowercased.
pub fn select_bindings(sel: &Select) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for twj in &sel.from {
        for factor in std::iter::once(&twj.base).chain(twj.joins.iter().map(|j| &j.factor)) {
            if let TableFactor::Table { name, alias } = factor {
                out.push((
                    name.to_ascii_lowercase(),
                    alias.as_deref().unwrap_or(name).to_ascii_lowercase(),
                ));
            }
        }
    }
    out
}

/// Apply `f` to every SELECT block of a set-expression tree (mutably).
fn for_each_select(body: &mut SetExpr, f: &mut impl FnMut(&mut Select)) {
    match body {
        SetExpr::Select(sel) => f(sel),
        SetExpr::SetOp { left, right, .. } => {
            for_each_select(left, f);
            for_each_select(right, f);
        }
    }
}

fn for_each_select_ref(body: &SetExpr, f: &mut impl FnMut(&Select)) {
    match body {
        SetExpr::Select(sel) => f(sel),
        SetExpr::SetOp { left, right, .. } => {
            for_each_select_ref(left, f);
            for_each_select_ref(right, f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{navigational, recursive, T_LINK};
    use crate::rules::condition::{AggFunc, CmpOp, RowPredicate};
    use crate::rules::{visibility_rules, Rule, UserPattern};
    use pdm_sql::parser::parse_query;

    #[test]
    fn navigational_injection_adds_row_conditions() {
        let rules = visibility_rules();
        let views = HashSet::new();
        let m = Modificator::new(&rules, "scott", ActionKind::MultiLevelExpand, &views);
        let mut q = navigational::expand_query_in(1, T_LINK);
        m.modify_navigational(&mut q).unwrap();
        let sql = q.to_string();
        assert!(sql.contains("link.strc_opt = 'OPTA'"));
        assert!(sql.contains("assy.strc_opt = 'OPTA'"));
        assert!(sql.contains("comp.strc_opt = 'OPTA'"));
        parse_query(&sql).unwrap();
    }

    #[test]
    fn recursive_injection_steps_a_through_d() {
        let mut rules = visibility_rules();
        rules.add(Rule::for_all_users(
            ActionKind::MultiLevelExpand,
            "assy",
            Condition::ForAllRows {
                object_type: Some("assy".into()),
                predicate: RowPredicate::compare("dec", CmpOp::Eq, "+"),
            },
        ));
        rules.add(Rule::for_all_users(
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
        rules.add(Rule::for_all_users(
            ActionKind::MultiLevelExpand,
            "comp",
            Condition::ExistsStructure {
                object_table: "comp".into(),
                relation_table: "specified_by".into(),
                related_table: "spec".into(),
            },
        ));
        let views = HashSet::new();
        let m = Modificator::new(&rules, "scott", ActionKind::MultiLevelExpand, &views);
        let mut q = recursive::mle_query(1);
        m.modify_recursive(&mut q).unwrap();

        let sql = q.to_string();
        assert!(sql.contains(
            "NOT EXISTS (SELECT * FROM rtbl WHERE type = 'assy' AND NOT rtbl.dec = '+')"
        ));
        assert!(sql.contains("(SELECT COUNT(*) FROM rtbl WHERE type = 'assy') <= 10000"));
        assert!(sql.contains("EXISTS (SELECT * FROM specified_by AS s"));
        parse_query(&sql).unwrap();
    }

    #[test]
    fn view_reference_refused() {
        let rules = visibility_rules();
        let mut views = HashSet::new();
        views.insert("assy".to_string()); // pretend assy is a view
        let m = Modificator::new(&rules, "scott", ActionKind::MultiLevelExpand, &views);
        let mut q = recursive::mle_query(1);
        let err = m.modify_recursive(&mut q).unwrap_err();
        assert_eq!(err, ModError::HiddenInView("assy".into()));
    }

    #[test]
    fn cte_name_is_not_mistaken_for_view() {
        let rules = visibility_rules();
        let mut views = HashSet::new();
        views.insert("rtbl".to_string()); // a view named like the CTE
        let m = Modificator::new(&rules, "scott", ActionKind::MultiLevelExpand, &views);
        let mut q = recursive::mle_query(1);
        // the query's rtbl references are the CTE, not the view
        assert!(m.modify_recursive(&mut q).is_ok());
    }

    #[test]
    fn non_recursive_query_rejected_for_tree_injection() {
        let rules = visibility_rules();
        let views = HashSet::new();
        let m = Modificator::new(&rules, "scott", ActionKind::MultiLevelExpand, &views);
        let mut q = navigational::expand_query_in(1, T_LINK);
        assert_eq!(
            m.modify_recursive(&mut q).unwrap_err(),
            ModError::NoRecursiveCte
        );
    }

    #[test]
    fn irrelevant_rules_not_injected() {
        let mut rules = RuleTable::new();
        rules.add(Rule::new(
            UserPattern::Named("tiger".into()), // different user
            ActionKind::Access,
            "assy",
            Condition::Row(RowPredicate::compare("dec", CmpOp::Eq, "+")),
        ));
        let views = HashSet::new();
        let m = Modificator::new(&rules, "scott", ActionKind::MultiLevelExpand, &views);
        let mut q = navigational::expand_query_in(1, T_LINK);
        m.modify_navigational(&mut q).unwrap();
        assert_eq!(q, navigational::expand_query_in(1, T_LINK));
    }

    #[test]
    fn multiple_rules_same_type_form_disjunction() {
        let mut rules = RuleTable::new();
        rules.add(Rule::for_all_users(
            ActionKind::Access,
            "assy",
            Condition::Row(RowPredicate::compare("dec", CmpOp::Eq, "+")),
        ));
        rules.add(Rule::for_all_users(
            ActionKind::Access,
            "assy",
            Condition::Row(RowPredicate::compare("name", CmpOp::NotEq, "secret")),
        ));
        let views = HashSet::new();
        let m = Modificator::new(&rules, "scott", ActionKind::Query, &views);
        let mut q = navigational::fetch_node_query(1);
        m.modify_navigational(&mut q).unwrap();
        let sql = q.to_string();
        assert!(
            sql.contains("(assy.dec = '+' OR assy.name <> 'secret')"),
            "disjunction missing in {sql}"
        );
    }
}
