//! Predicate-placement verification (§4.1 / §5.5 steps A–D).
//!
//! Re-derives, from the active [`RuleTable`] alone, exactly which translated
//! rule predicates must appear in which SELECT blocks of a query — the same
//! decisions the query modificator makes — and diffs that against the
//! query's actual WHERE clauses:
//!
//! * an expected predicate absent from its block → [`Check::MissingPredicate`];
//! * a rule predicate present in a block it was not mandated for →
//!   [`Check::MisplacedPredicate`];
//! * a [`ModReport`] whose recorded sites disagree with the re-derivation →
//!   [`Check::ReportMismatch`].
//!
//! The re-derivation reuses the *same* translate functions the modificator
//! uses, so expected and injected predicates match by structural [`Expr`]
//! equality — not by string heuristics.

use pdm_sql::ast::{BinOp, Expr, Query, Select, SetExpr};

use pdm_core::query::modificator::{select_bindings, select_references_table, BlockId, ModReport};
use pdm_core::rules::classify::ConditionClass;
use pdm_core::rules::condition::Condition;
use pdm_core::rules::table::RuleTable;
use pdm_core::rules::translate::{condition_expr, exists_structure_expr, row_predicate_expr};
use pdm_core::rules::ActionKind;

use crate::diag::{Check, Report};

/// One mandated injection: class, target block, and the exact predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct Expectation {
    pub class: ConditionClass,
    pub block: BlockId,
    pub predicate: Expr,
}

/// Verify predicate placement of `query` against `rules`, for the given
/// principal and action. `mod_report` — when the caller has the modificator's
/// own account — is cross-checked against the re-derivation.
pub fn check_placement(
    query: &Query,
    rules: &RuleTable,
    user: &str,
    action: ActionKind,
    mod_report: Option<&ModReport>,
    report: &mut Report,
) {
    let expected = expected_injections(query, rules, user, action);

    // Actual conjuncts per block, consumed as expectations match.
    let mut actual: Vec<(BlockId, Vec<Expr>)> = blocks(query)
        .into_iter()
        .map(|(id, sel)| {
            let conj = sel
                .where_clause
                .as_ref()
                .map(|w| conjuncts(w).into_iter().cloned().collect())
                .unwrap_or_default();
            (id, conj)
        })
        .collect();

    let mut missing: Vec<&Expectation> = Vec::new();
    for exp in &expected {
        let found = actual
            .iter_mut()
            .find(|(id, _)| *id == exp.block)
            .and_then(|(_, conj)| {
                let pos = conj.iter().position(|c| *c == exp.predicate)?;
                conj.remove(pos);
                Some(())
            });
        if found.is_none() {
            missing.push(exp);
        }
    }
    for exp in missing {
        report.emit_at(
            Check::MissingPredicate,
            format!(
                "{:?} predicate mandated by the rule table is missing: {}",
                exp.class, exp.predicate
            ),
            exp.block.to_string(),
        );
    }

    // Any leftover conjunct that *is* a rule-predicate instance sits in a
    // block the rule table did not mandate it for.
    for (id, conj) in &actual {
        for c in conj {
            if let Some(exp) = expected.iter().find(|e| e.predicate == *c) {
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
    }

    if let Some(mr) = mod_report {
        check_report(mr, &expected, report);
    }
}

/// Cross-check the modificator's recorded sites against the re-derivation.
fn check_report(mr: &ModReport, expected: &[Expectation], report: &mut Report) {
    let mut want: Vec<(ConditionClass, &BlockId, String)> = expected
        .iter()
        .map(|e| (e.class, &e.block, e.predicate.to_string()))
        .collect();
    for site in &mr.sites {
        let key = (site.class, &site.block, site.predicate.clone());
        if let Some(pos) = want.iter().position(|w| *w == key) {
            want.remove(pos);
        } else {
            report.emit_at(
                Check::ReportMismatch,
                format!(
                    "ModReport records a {:?} injection the rule table does not mandate: {}",
                    site.class, site.predicate
                ),
                site.block.to_string(),
            );
        }
    }
    for (class, block, pred) in want {
        report.emit_at(
            Check::ReportMismatch,
            format!("ModReport is missing a mandated {class:?} injection: {pred}"),
            block.to_string(),
        );
    }
    let counter_total =
        mr.row_injections + mr.forall_injections + mr.aggregate_injections + mr.exists_injections;
    if counter_total != mr.sites.len() {
        report.emit(
            Check::ReportMismatch,
            format!(
                "ModReport counters total {counter_total} but {} sites are recorded",
                mr.sites.len()
            ),
        );
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
/// blocks plus each CTE's, in the modificator's preorder numbering.
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

/// Split an expression into its top-level AND conjuncts.
pub fn conjuncts(expr: &Expr) -> Vec<&Expr> {
    match expr {
        Expr::BinaryOp {
            op: BinOp::And,
            left,
            right,
        } => {
            let mut out = conjuncts(left);
            out.extend(conjuncts(right));
            out
        }
        other => vec![other],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_core::query::modificator::Modificator;
    use pdm_core::query::{navigational, recursive};
    use pdm_core::rules::paper_rules;
    use std::collections::HashSet;

    fn modified_mle() -> (Query, ModReport) {
        let rules = paper_rules();
        let views = HashSet::new();
        let m = Modificator::new(&rules, "scott", ActionKind::MultiLevelExpand, &views);
        let mut q = recursive::mle_query(1);
        let report = m.modify_recursive(&mut q).expect("modify");
        (q, report)
    }

    fn placement_report(q: &Query, mr: Option<&ModReport>) -> Report {
        let rules = paper_rules();
        let mut out = Report::new();
        check_placement(
            q,
            &rules,
            "scott",
            ActionKind::MultiLevelExpand,
            mr,
            &mut out,
        );
        out
    }

    #[test]
    fn modified_query_verifies_clean() {
        let (q, mr) = modified_mle();
        let r = placement_report(&q, Some(&mr));
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn unmodified_query_has_missing_predicates() {
        let q = recursive::mle_query(1);
        let r = placement_report(&q, None);
        assert!(r.flags(Check::MissingPredicate));
    }

    #[test]
    fn navigational_modification_verifies_clean() {
        let rules = paper_rules();
        let views = HashSet::new();
        let m = Modificator::new(&rules, "scott", ActionKind::MultiLevelExpand, &views);
        let mut q = navigational::expand_query(7);
        let mr = m.modify_navigational(&mut q).expect("modify");
        let mut out = Report::new();
        check_placement(
            &q,
            &rules,
            "scott",
            ActionKind::MultiLevelExpand,
            Some(&mr),
            &mut out,
        );
        assert!(out.is_clean(), "{out}");
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
}
