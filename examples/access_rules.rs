#![allow(clippy::unwrap_used)]

//! Tour of the rule taxonomy (§3) and its SQL translations (§5.3): define
//! one rule of each condition class, show the SQL the translator produces,
//! and watch the query modificator splice them into a recursive
//! multi-level-expand query.
//!
//! ```sh
//! cargo run --example access_rules
//! ```

use std::collections::HashSet;

use pdm_analyze::placement::expected_injections;
use pdm_repro::core::query::modificator::Modificator;
use pdm_repro::core::query::recursive;
use pdm_repro::core::rules::classify::{classify, ConditionClass};
use pdm_repro::core::rules::condition::{AggFunc, CmpOp, Condition, FnArg, RowPredicate};
use pdm_repro::core::rules::{ActionKind, Rule, UserPattern};
use pdm_repro::core::RuleTable;
use pdm_repro::sql::Value;

fn main() {
    let mut rules = RuleTable::new();

    // 1. Row condition — the paper's example 1: Scott may expand assemblies
    //    that are not bought from a supplier.
    rules.add(Rule::new(
        UserPattern::Named("scott".into()),
        ActionKind::MultiLevelExpand,
        "assy",
        Condition::Row(RowPredicate::compare("make_or_buy", CmpOp::NotEq, "buy")),
    ));

    // 2. Row condition on a relation, with a stored function — structure
    //    options and effectivities (example 3): the link's option set must
    //    overlap the user's and its effectivity must cover unit 5.
    rules.add(Rule::for_all_users(
        ActionKind::Access,
        "link",
        Condition::Row(
            RowPredicate::StoredFn {
                name: "set_overlaps".into(),
                args: vec![
                    FnArg::Attr("strc_opt".into()),
                    FnArg::Const(Value::from("OPTA,OPTB")),
                ],
            }
            .and(RowPredicate::StoredFn {
                name: "overlaps_interval".into(),
                args: vec![
                    FnArg::Attr("eff_from".into()),
                    FnArg::Attr("eff_to".into()),
                    FnArg::Const(Value::Int(5)),
                    FnArg::Const(Value::Int(5)),
                ],
            }),
        ),
    ));

    // 3. ∀rows condition — the paper's example 2 (check-out): every node in
    //    the subtree must be checked in.
    rules.add(Rule::for_all_users(
        ActionKind::CheckOut,
        "assy",
        Condition::ForAllRows {
            object_type: None,
            predicate: RowPredicate::compare("checkedout", CmpOp::Eq, false),
        },
    ));

    // 4. ∃structure condition — §5.3.2: components are visible only if
    //    specified by at least one document.
    rules.add(Rule::for_all_users(
        ActionKind::MultiLevelExpand,
        "comp",
        Condition::ExistsStructure {
            object_table: "comp".into(),
            relation_table: "specified_by".into(),
            related_table: "spec".into(),
        },
    ));

    // 5. Tree-aggregate condition — §5.3.3: trees with more than ten
    //    assemblies may not be retrieved.
    rules.add(Rule::for_all_users(
        ActionKind::MultiLevelExpand,
        "assy",
        Condition::TreeAggregate {
            func: AggFunc::Count,
            attr: None,
            object_type: Some("assy".into()),
            op: CmpOp::LtEq,
            value: 10.0,
        },
    ));

    println!("rule table ({} rules):\n", rules.len());
    for (i, rule) in rules.iter().enumerate() {
        let class = classify(&rule.condition);
        println!(
            "rule {}: user={:?} action={:?} type={} class={:?}",
            i + 1,
            rule.user,
            rule.action,
            rule.object_type,
            class
        );
        println!("  translated: {}\n", rule.translated_sql);
    }

    // Modify the recursive MLE query for Scott's multi-level expand.
    let views = HashSet::new();
    let modificator = Modificator::new(&rules, "scott", ActionKind::MultiLevelExpand, &views);
    let mut query = recursive::mle_query(1);
    modificator
        .modify_recursive(&mut query)
        .expect("modification succeeds");
    // The plan the analyzer re-derives from the rule table, and checks the
    // modified query against block by block.
    let plan = expected_injections(&query, &rules, "scott", ActionKind::MultiLevelExpand);
    let injections = |class| plan.iter().filter(|e| e.class == class).count();
    println!(
        "query modification (§5.5): {} row, {} ∀rows, {} ∃structure, {} aggregate injections",
        injections(ConditionClass::Row),
        injections(ConditionClass::ForAllRows),
        injections(ConditionClass::ExistsStructure),
        injections(ConditionClass::TreeAggregate)
    );
    println!("\nmodified recursive query:\n{query}");
}
