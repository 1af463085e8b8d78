//! Predicate-placement verification (§4.1 / §5.5 steps A–D).
//!
//! Re-derives, from the active [`RuleTable`] alone, exactly which translated
//! rule predicates must appear in which SELECT blocks of a query — the same
//! decisions the query modificator makes — and diffs that against the
//! query's actual WHERE clauses:
//!
//! * an expected predicate absent from its block → [`Check::MissingPredicate`];
//! * a rule predicate present in a block it was not mandated for →
//!   [`Check::MisplacedPredicate`].
//!
//! The modificator keeps no account of its own: the query is the only
//! evidence, and this module alone numbers its blocks ([`BlockId`],
//! [`blocks`]). The re-derivation reuses the *same* translate functions the
//! modificator uses, so expected and injected predicates match by
//! structural [`Expr`] equality — not by string heuristics.

use std::fmt;

use pdm_sql::ast::{BinOp, Expr, Query, Select, SetExpr, TableFactor};

use pdm_core::query::modificator::select_bindings;
use pdm_core::rules::classify::ConditionClass;
use pdm_core::rules::condition::Condition;
use pdm_core::rules::table::RuleTable;
use pdm_core::rules::translate::{condition_expr, exists_structure_expr, row_predicate_expr};
use pdm_core::rules::ActionKind;

use crate::diag::{Check, Report};

/// Identity of one SELECT block within a query: the coordinate system
/// placement diagnostics are reported in.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BlockId {
    /// `select`-th SELECT (preorder) of the outer query body.
    Outer { select: usize },
    /// `select`-th SELECT (preorder) of `cte`'s body that does *not*
    /// reference the CTE itself — an initial (seed) term.
    CteSeed { cte: String, select: usize },
    /// `select`-th SELECT (preorder) of `cte`'s body that references the
    /// CTE in its FROM clause — a recursive term.
    CteRecursive { cte: String, select: usize },
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockId::Outer { select } => write!(f, "outer query select #{select}"),
            BlockId::CteSeed { cte, select } => {
                write!(f, "initial term (select #{select}) of CTE '{cte}'")
            }
            BlockId::CteRecursive { cte, select } => {
                write!(f, "recursive term (select #{select}) of CTE '{cte}'")
            }
        }
    }
}

/// One mandated injection: class, target block, and the exact predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct Expectation {
    pub class: ConditionClass,
    pub block: BlockId,
    pub predicate: Expr,
}

/// Verify predicate placement of `query` against `rules`, for the given
/// principal and action.
pub fn check_placement(
    query: &Query,
    rules: &RuleTable,
    user: &str,
    action: ActionKind,
    report: &mut Report,
) {
    let expected = expected_injections(query, rules, user, action);
    let mut filled = vec![false; expected.len()];
    let mut misplaced: Vec<(BlockId, &Expr, &Expectation)> = Vec::new();
    for (id, sel) in blocks(query) {
        if let Some(w) = &sel.where_clause {
            match_conjuncts(w, &id, &expected, &mut filled, &mut misplaced);
        }
    }

    for (exp, _) in expected.iter().zip(&filled).filter(|(_, f)| !**f) {
        report.emit_at(
            Check::MissingPredicate,
            format!(
                "{:?} predicate mandated by the rule table is missing: {}",
                exp.class, exp.predicate
            ),
            exp.block.to_string(),
        );
    }
    for (id, c, exp) in misplaced {
        report.emit_at(
            Check::MisplacedPredicate,
            format!(
                "rule predicate {} belongs in {} but was spliced here",
                c, exp.block
            ),
            id.to_string(),
        );
    }
}

/// Match the AND tree of `block`'s WHERE clause against the plan, top down.
/// A subtree equal to an unfilled expectation of `block` fills it — whole,
/// so a rule predicate that is itself a conjunction is matched as the one
/// predicate it was spliced as. A subtree equal to a rule predicate `block`
/// is not mandated to carry goes to `misplaced`. Any other AND is split
/// into its operands; anything else is the generator's own condition.
fn match_conjuncts<'q, 'e>(
    expr: &'q Expr,
    block: &BlockId,
    expected: &'e [Expectation],
    filled: &mut [bool],
    misplaced: &mut Vec<(BlockId, &'q Expr, &'e Expectation)>,
) {
    let mandated_here = |e: &Expectation| e.block == *block && e.predicate == *expr;
    if let Some(i) = (0..expected.len()).find(|&i| !filled[i] && mandated_here(&expected[i])) {
        filled[i] = true;
    } else if expected.iter().any(mandated_here) {
        // Mandated here and already present: a repeat narrows nothing.
    } else if let Some(exp) = expected.iter().find(|e| e.predicate == *expr) {
        misplaced.push((block.clone(), expr, exp));
    } else if let Expr::BinaryOp {
        op: BinOp::And,
        left,
        right,
    } = expr
    {
        match_conjuncts(left, block, expected, filled, misplaced);
        match_conjuncts(right, block, expected, filled, misplaced);
    }
}

/// Re-derive the full injection plan for `query` from the rule table —
/// mirroring `Modificator::modify_recursive` / `modify_navigational` block
/// by block (§5.5 steps A–D; §4.1 for non-recursive queries).
pub fn expected_injections(
    query: &Query,
    rules: &RuleTable,
    user: &str,
    action: ActionKind,
) -> Vec<Expectation> {
    let mut out = Vec::new();
    let cte_name = query.with.as_ref().and_then(|w| {
        if w.recursive {
            w.ctes.first().map(|c| c.name.clone())
        } else {
            None
        }
    });

    if let Some(cte_name) = &cte_name {
        // Steps A + B: tree conditions land in every SELECT outside the
        // recursive part.
        let forall: Vec<Expr> = rules
            .relevant_of_class(user, action, ConditionClass::ForAllRows)
            .iter()
            .map(|r| condition_expr(&r.condition, &r.object_type, cte_name))
            .collect();
        let aggregate: Vec<Expr> = rules
            .relevant_of_class(user, action, ConditionClass::TreeAggregate)
            .iter()
            .map(|r| condition_expr(&r.condition, &r.object_type, cte_name))
            .collect();
        if let Some(pred) = Expr::disjunction(forall) {
            for_each_outer_select(&query.body, &mut |idx, _| {
                out.push(Expectation {
                    class: ConditionClass::ForAllRows,
                    block: BlockId::Outer { select: idx },
                    predicate: pred.clone(),
                });
            });
        }
        if let Some(pred) = Expr::disjunction(aggregate) {
            for_each_outer_select(&query.body, &mut |idx, _| {
                out.push(Expectation {
                    class: ConditionClass::TreeAggregate,
                    block: BlockId::Outer { select: idx },
                    predicate: pred.clone(),
                });
            });
        }
    }

    // Step D outside the recursive part (the whole query when navigational).
    for_each_outer_select(&query.body, &mut |idx, sel| {
        expect_row_conditions(
            sel,
            BlockId::Outer { select: idx },
            rules,
            user,
            action,
            &mut out,
        );
    });

    // Steps C + D inside CTE bodies — only for recursive queries, matching
    // the modificator (navigational modification never touches a WITH).
    if cte_name.is_some() {
        if let Some(with) = &query.with {
            for cte in &with.ctes {
                for_each_outer_select(&cte.query.body, &mut |idx, sel| {
                    let block = cte_block_id(&cte.name, idx, sel);
                    expect_exists_structure(sel, block.clone(), rules, user, action, &mut out);
                    expect_row_conditions(sel, block, rules, user, action, &mut out);
                });
            }
        }
    }
    out
}

fn expect_row_conditions(
    sel: &Select,
    block: BlockId,
    rules: &RuleTable,
    user: &str,
    action: ActionKind,
    out: &mut Vec<Expectation>,
) {
    for (table, binding) in &select_bindings(sel) {
        let relevant = rules.relevant_for_type(user, action, ConditionClass::Row, table);
        let preds: Vec<Expr> = relevant
            .iter()
            .filter_map(|r| match &r.condition {
                Condition::Row(p) => Some(row_predicate_expr(p, binding)),
                _ => None,
            })
            .collect();
        if let Some(pred) = Expr::disjunction(preds) {
            out.push(Expectation {
                class: ConditionClass::Row,
                block: block.clone(),
                predicate: pred,
            });
        }
    }
}

fn expect_exists_structure(
    sel: &Select,
    block: BlockId,
    rules: &RuleTable,
    user: &str,
    action: ActionKind,
    out: &mut Vec<Expectation>,
) {
    let relevant = rules.relevant_of_class(user, action, ConditionClass::ExistsStructure);
    if relevant.is_empty() {
        return;
    }
    for (table, binding) in &select_bindings(sel) {
        let preds: Vec<Expr> = relevant
            .iter()
            .filter_map(|r| match &r.condition {
                Condition::ExistsStructure {
                    object_table,
                    relation_table,
                    related_table,
                } if object_table == table => Some(exists_structure_expr(
                    binding,
                    relation_table,
                    related_table,
                )),
                _ => None,
            })
            .collect();
        if let Some(pred) = Expr::disjunction(preds) {
            out.push(Expectation {
                class: ConditionClass::ExistsStructure,
                block: block.clone(),
                predicate: pred,
            });
        }
    }
}

/// Every SELECT block of the query, with its [`BlockId`]: the outer body's
/// blocks plus each CTE's, each numbered in preorder.
pub fn blocks(query: &Query) -> Vec<(BlockId, &Select)> {
    let mut out = Vec::new();
    for_each_outer_select(&query.body, &mut |idx, sel| {
        out.push((BlockId::Outer { select: idx }, sel));
    });
    if let Some(with) = &query.with {
        for cte in &with.ctes {
            for_each_outer_select(&cte.query.body, &mut |idx, sel| {
                out.push((cte_block_id(&cte.name, idx, sel), sel));
            });
        }
    }
    out
}

/// True if `sel`'s FROM clause references `table` directly (by name, not
/// through an alias of another table).
fn select_references_table(sel: &Select, table: &str) -> bool {
    sel.from.iter().any(|twj| {
        std::iter::once(&twj.base)
            .chain(twj.joins.iter().map(|j| &j.factor))
            .any(|factor| match factor {
                TableFactor::Table { name, .. } => name.eq_ignore_ascii_case(table),
                TableFactor::Derived { .. } => false,
            })
    })
}

fn cte_block_id(cte: &str, select: usize, sel: &Select) -> BlockId {
    if select_references_table(sel, cte) {
        BlockId::CteRecursive {
            cte: cte.to_string(),
            select,
        }
    } else {
        BlockId::CteSeed {
            cte: cte.to_string(),
            select,
        }
    }
}

/// Preorder walk over a set-expression's SELECTs with running index — the
/// coordinate system of [`BlockId`].
fn for_each_outer_select<'a>(body: &'a SetExpr, f: &mut impl FnMut(usize, &'a Select)) {
    fn go<'a>(body: &'a SetExpr, f: &mut impl FnMut(usize, &'a Select), next: &mut usize) {
        match body {
            SetExpr::Select(sel) => {
                f(*next, sel);
                *next += 1;
            }
            SetExpr::SetOp { left, right, .. } => {
                go(left, f, next);
                go(right, f, next);
            }
        }
    }
    let mut next = 0;
    go(body, f, &mut next);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_core::query::modificator::Modificator;
    use pdm_core::query::{navigational, recursive, T_LINK};
    use pdm_core::rules::{paper_rules, visibility_rules};
    use std::collections::HashSet;

    /// `query` modified by `rules` for scott's `action`, recursively or
    /// navigationally.
    fn modified(mut query: Query, rules: &RuleTable, action: ActionKind) -> Query {
        let views = HashSet::new();
        let m = Modificator::new(rules, "scott", action, &views);
        if query.with.is_some() {
            m.modify_recursive(&mut query).expect("modify");
        } else {
            m.modify_navigational(&mut query).expect("modify");
        }
        query
    }

    fn placement_report(q: &Query, rules: &RuleTable, action: ActionKind) -> Report {
        let mut out = Report::new();
        check_placement(q, rules, "scott", action, &mut out);
        out
    }

    /// The blocks `class` is mandated for, in plan order.
    fn blocks_of(plan: &[Expectation], class: ConditionClass) -> Vec<&BlockId> {
        plan.iter()
            .filter(|e| e.class == class)
            .map(|e| &e.block)
            .collect()
    }

    #[test]
    fn modified_query_verifies_clean() {
        let action = ActionKind::MultiLevelExpand;
        let q = modified(recursive::mle_query(1), &paper_rules(), action);
        let r = placement_report(&q, &paper_rules(), action);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn unmodified_query_has_missing_predicates() {
        let q = recursive::mle_query(1);
        let r = placement_report(&q, &paper_rules(), ActionKind::MultiLevelExpand);
        assert!(r.flags(Check::MissingPredicate));
    }

    #[test]
    fn navigational_modification_verifies_clean() {
        let action = ActionKind::MultiLevelExpand;
        let q = modified(
            navigational::expand_query_in(7, T_LINK),
            &paper_rules(),
            action,
        );
        let r = placement_report(&q, &paper_rules(), action);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn expected_plan_matches_paper_block_structure() {
        let q = recursive::mle_query(1);
        let rules = paper_rules();
        let plan = expected_injections(&q, &rules, "scott", ActionKind::MultiLevelExpand);
        // 1 forall + 1 aggregate on the single outer SELECT, 1 ∃structure in
        // the comp recursive term, 5 row-condition sites (seed, 2×assy term,
        // 2×comp term).
        assert_eq!(plan.len(), 8);
        assert!(plan
            .iter()
            .any(|e| e.class == ConditionClass::ExistsStructure
                && e.block
                    == BlockId::CteRecursive {
                        cte: "rtbl".into(),
                        select: 2
                    }));
    }

    #[test]
    fn navigational_injection_adds_row_conditions() {
        let rules = visibility_rules();
        let action = ActionKind::MultiLevelExpand;
        let q = modified(navigational::expand_query_in(1, T_LINK), &rules, action);
        let plan = expected_injections(&q, &rules, "scott", action);
        // 2 SELECTs × (link rule + node rule) = 4 injections, all row
        // conditions.
        assert_eq!(plan.len(), 4);
        assert_eq!(
            blocks_of(&plan, ConditionClass::Row),
            [
                &BlockId::Outer { select: 0 },
                &BlockId::Outer { select: 0 },
                &BlockId::Outer { select: 1 },
                &BlockId::Outer { select: 1 },
            ]
        );
        let r = placement_report(&q, &rules, action);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn recursive_injection_steps_a_through_d() {
        let rules = paper_rules();
        let action = ActionKind::MultiLevelExpand;
        let q = modified(recursive::mle_query(1), &rules, action);
        let plan = expected_injections(&q, &rules, "scott", action);
        let rtbl = |select| (String::from("rtbl"), select);
        let seed = |(cte, select)| BlockId::CteSeed { cte, select };
        let rec = |(cte, select)| BlockId::CteRecursive { cte, select };

        // A/B: one outer SELECT gets both tree predicates.
        assert_eq!(
            blocks_of(&plan, ConditionClass::ForAllRows),
            [&BlockId::Outer { select: 0 }]
        );
        assert_eq!(
            blocks_of(&plan, ConditionClass::TreeAggregate),
            [&BlockId::Outer { select: 0 }]
        );
        // C: the comp recursive term gets the ∃structure predicate.
        assert_eq!(
            blocks_of(&plan, ConditionClass::ExistsStructure),
            [&rec(rtbl(2))]
        );
        // D: seed (assy) + assy term (link+assy) + comp term (link+comp)
        // = 1 + 2 + 2 row-condition injections.
        assert_eq!(
            blocks_of(&plan, ConditionClass::Row),
            [
                &seed(rtbl(0)),
                &rec(rtbl(1)),
                &rec(rtbl(1)),
                &rec(rtbl(2)),
                &rec(rtbl(2)),
            ]
        );
        assert_eq!(plan.len(), 8);
        // Every mandated predicate sits in its block of the modified query,
        // and no rule predicate sits anywhere else.
        let r = placement_report(&q, &rules, action);
        assert!(r.is_clean(), "{r}");
    }
}
