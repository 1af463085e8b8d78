#![allow(clippy::unwrap_used)]

//! End-to-end rule semantics across the full stack: rule table → condition
//! translation → query modification → recursive SQL → engine → reassembled
//! tree. Exercises all four condition classes of Figure 1 on generated
//! product structures.

use pdm_core::rules::condition::{AggFunc, CmpOp, Condition, RowPredicate};
use pdm_core::rules::{visibility_rules, ActionKind, Rule, UserPattern};
use pdm_core::{RuleTable, Session, SessionConfig, Strategy};
use pdm_net::LinkProfile;
use pdm_workload::{build_database, TreeSpec};

fn session_with(spec: &TreeSpec, rules: RuleTable, strategy: Strategy) -> Session {
    let (db, _) = build_database(spec).unwrap();
    Session::new(
        db,
        SessionConfig::new("scott", strategy, LinkProfile::wan_512()),
        rules,
    )
}

#[test]
fn forall_rows_all_or_nothing() {
    // Rule: every assembly in the retrieved tree must be decomposable.
    let mut rules = visibility_rules();
    rules.add(Rule::for_all_users(
        ActionKind::MultiLevelExpand,
        "assy",
        Condition::ForAllRows {
            object_type: Some("assy".into()),
            predicate: RowPredicate::compare("dec", CmpOp::Eq, "+"),
        },
    ));

    // All assemblies decomposable → full tree comes back.
    let spec = TreeSpec::new(3, 3, 1.0).with_node_size(256);
    let mut s = session_with(&spec, rules.clone(), Strategy::Recursive);
    let out = s.multi_level_expand(1).unwrap();
    assert_eq!(out.tree.len(), 1 + 3 + 9 + 27);

    // One non-decomposable assembly → EMPTY result (all-or-nothing, §5.3.1).
    let spec = TreeSpec::new(3, 3, 1.0)
        .with_node_size(256)
        .with_decomposable_fraction(0.5);
    let mut s = session_with(&spec, rules, Strategy::Recursive);
    let out = s.multi_level_expand(1).unwrap();
    assert_eq!(out.tree.len(), 1, "only the locally-cached root remains");
}

#[test]
fn exists_structure_filters_unspecified_components() {
    // Rule: components are visible only if they have a specification.
    let mut rules = visibility_rules();
    rules.add(Rule::for_all_users(
        ActionKind::MultiLevelExpand,
        "comp",
        Condition::ExistsStructure {
            object_table: "comp".into(),
            relation_table: "specified_by".into(),
            related_table: "spec".into(),
        },
    ));

    let spec = TreeSpec::new(2, 4, 1.0)
        .with_node_size(256)
        .with_specified_fraction(0.5)
        .with_attribute_seed(7);
    let (db, data) = build_database(&spec).unwrap();
    let mut s = Session::new(
        db,
        SessionConfig::new("scott", Strategy::Recursive, LinkProfile::wan_512()),
        rules,
    );
    let out = s.multi_level_expand(1).unwrap();

    let specified: std::collections::HashSet<i64> =
        data.specified_by.iter().map(|(c, _)| *c).collect();
    let comps_in_tree: Vec<i64> = out
        .tree
        .nodes()
        .filter(|n| n.is_component())
        .map(|n| n.obid)
        .collect();
    assert!(!comps_in_tree.is_empty());
    assert!(comps_in_tree.iter().all(|c| specified.contains(c)));
    // assemblies unaffected
    assert_eq!(out.tree.count_of_type("assy"), 1 + 4);
    // and some components were indeed filtered out
    assert!(comps_in_tree.len() < 16);
}

#[test]
fn tree_aggregate_bounds_assembly_count() {
    let mut permissive = visibility_rules();
    permissive.add(Rule::for_all_users(
        ActionKind::MultiLevelExpand,
        "assy",
        Condition::TreeAggregate {
            func: AggFunc::Count,
            attr: None,
            object_type: Some("assy".into()),
            op: CmpOp::LtEq,
            value: 1000.0,
        },
    ));
    let spec = TreeSpec::new(3, 3, 1.0).with_node_size(256);
    let mut s = session_with(&spec, permissive, Strategy::Recursive);
    assert_eq!(s.multi_level_expand(1).unwrap().tree.len(), 40);

    // Tight bound: the tree has 13 assemblies, a ≤10 rule empties it.
    let mut strict = visibility_rules();
    strict.add(Rule::for_all_users(
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
    let mut s = session_with(&spec, strict, Strategy::Recursive);
    assert_eq!(s.multi_level_expand(1).unwrap().tree.len(), 1);
}

#[test]
fn row_condition_user_specific() {
    // The paper's example 1: Scott may only expand assemblies not bought
    // from a supplier. Tiger has no such restriction. Note the rule-table
    // semantics (§5.5 step 13): qualifying conditions for the same type are
    // OR-ed, so the restriction must be the *only* assy rule — an
    // always-true visibility rule on assy would permit everything.
    let mut rules = RuleTable::new();
    rules.add(Rule::for_all_users(
        ActionKind::Access,
        "link",
        Condition::Row(RowPredicate::compare("strc_opt", CmpOp::Eq, "OPTA")),
    ));
    rules.add(Rule::new(
        UserPattern::Named("scott".into()),
        ActionKind::Access,
        "assy",
        Condition::Row(RowPredicate::compare("make_or_buy", CmpOp::NotEq, "buy")),
    ));

    let spec = TreeSpec::new(3, 3, 1.0)
        .with_node_size(256)
        .with_make_fraction(0.6)
        .with_attribute_seed(11);
    let (db, data) = build_database(&spec).unwrap();

    let mut scott = Session::new(
        db,
        SessionConfig::new("scott", Strategy::Recursive, LinkProfile::wan_512()),
        rules.clone(),
    );
    let scott_tree = scott.multi_level_expand(1).unwrap().tree;

    let (db, _) = build_database(&spec).unwrap();
    let mut tiger = Session::new(
        db,
        SessionConfig::new("tiger", Strategy::Recursive, LinkProfile::wan_512()),
        rules,
    );
    let tiger_tree = tiger.multi_level_expand(1).unwrap().tree;

    // Tiger sees everything; Scott's tree prunes bought assemblies (and
    // transitively their subtrees).
    assert_eq!(tiger_tree.len(), 40);
    assert!(scott_tree.len() < tiger_tree.len());
    let bought: std::collections::HashSet<i64> = data
        .nodes
        .iter()
        .filter(|n| n.kind == pdm_workload::NodeKind::Assembly && !n.make && n.level > 0)
        .map(|n| n.obid)
        .collect();
    assert!(scott_tree.nodes().all(|n| !bought.contains(&n.obid)));
}

#[test]
fn effectivity_rule_with_stored_function() {
    // §3.1 example 3 as a stored-function row condition on the relation:
    // links must be effective for the user-selected unit range [4, 6].
    use pdm_core::rules::condition::FnArg;
    // One conjunctive traversal rule on the relation: the link must carry
    // the user's structure option AND be effective for units [4, 6]
    // (separate rules would be OR-ed per §5.5 and permit too much).
    let mut rules = RuleTable::new();
    rules.add(Rule::for_all_users(
        ActionKind::Access,
        "link",
        Condition::Row(RowPredicate::compare("strc_opt", CmpOp::Eq, "OPTA").and(
            RowPredicate::StoredFn {
                name: "overlaps_interval".into(),
                args: vec![
                    FnArg::Attr("eff_from".into()),
                    FnArg::Attr("eff_to".into()),
                    FnArg::Const(pdm_sql::Value::Int(4)),
                    FnArg::Const(pdm_sql::Value::Int(6)),
                ],
            },
        )),
    ));

    let spec = TreeSpec::new(2, 4, 1.0)
        .with_node_size(256)
        .with_expired_effectivity_fraction(0.5)
        .with_attribute_seed(3);
    let (db, data) = build_database(&spec).unwrap();
    let expired_targets: std::collections::HashSet<i64> = data
        .links
        .iter()
        .filter(|l| l.eff_to < 4)
        .map(|l| l.right)
        .collect();
    assert!(!expired_targets.is_empty());

    // Early evaluation: the stored function runs at the server.
    let mut s = Session::new(
        db,
        SessionConfig::new("scott", Strategy::EarlyEval, LinkProfile::wan_512()),
        rules.clone(),
    );
    let tree = s.multi_level_expand(1).unwrap().tree;
    assert!(tree.nodes().all(|n| !expired_targets.contains(&n.obid)));

    // Late evaluation: the same function runs at the client — same tree.
    let (db, _) = build_database(&spec).unwrap();
    let mut s_late = Session::new(
        db,
        SessionConfig::new("scott", Strategy::LateEval, LinkProfile::wan_512()),
        rules,
    );
    let tree_late = s_late.multi_level_expand(1).unwrap().tree;
    assert_eq!(
        tree.node_ids().collect::<Vec<_>>(),
        tree_late.node_ids().collect::<Vec<_>>()
    );
}

#[test]
fn view_hides_structure_from_modificator() {
    // §5.5 caveat: once the server wraps `assy` access in a view and the
    // client builds queries against it, modification must fail loudly.
    let rules = visibility_rules();
    let spec = TreeSpec::new(2, 2, 1.0).with_node_size(128);
    let (db, _) = build_database(&spec).unwrap();
    let s = Session::new(
        db,
        SessionConfig::new("scott", Strategy::Recursive, LinkProfile::wan_512()),
        rules.clone(),
    );
    // Rename the real table away and install a view in its place, then
    // re-open the session so it learns the server's view set.
    s.server()
        .execute_deadline_obs(
            "CREATE VIEW assy_view AS SELECT * FROM assy",
            None,
            &pdm_core::Recorder::disabled(),
        )
        .unwrap();
    let views = s.server().view_names();
    assert!(views.contains("assy_view"));

    use pdm_core::query::modificator::{ModError, Modificator};
    use pdm_sql::parser::parse_query;
    let m = Modificator::new(&rules, "scott", ActionKind::MultiLevelExpand, &views);
    let mut q = parse_query(
        "WITH RECURSIVE rtbl (obid) AS (SELECT obid FROM assy_view WHERE obid = 1 \
         UNION SELECT link.right FROM rtbl JOIN link ON rtbl.obid = link.left) \
         SELECT obid FROM rtbl",
    )
    .unwrap();
    assert_eq!(
        m.modify_recursive(&mut q).unwrap_err(),
        ModError::HiddenInView("assy_view".into())
    );
}

#[test]
fn late_and_early_agree_under_every_rule_mix() {
    // Attribute-rule soup: visibility + decomposability row rules; late and
    // early must agree exactly on the returned tree.
    let mut rules = visibility_rules();
    rules.add(Rule::for_all_users(
        ActionKind::Access,
        "assy",
        Condition::Row(RowPredicate::compare("dec", CmpOp::Eq, "+")),
    ));
    let spec = TreeSpec::new(4, 3, 0.7)
        .with_node_size(256)
        .with_decomposable_fraction(0.8)
        .with_visibility(pdm_workload::VisibilityMode::Random { seed: 99 })
        .with_attribute_seed(5);

    let mut late = session_with(&spec, rules.clone(), Strategy::LateEval);
    let mut early = session_with(&spec, rules.clone(), Strategy::EarlyEval);
    let mut rec = session_with(&spec, rules, Strategy::Recursive);

    let l = late.multi_level_expand(1).unwrap();
    let e = early.multi_level_expand(1).unwrap();
    let r = rec.multi_level_expand(1).unwrap();
    let ids = |o: &pdm_core::ExpandOutcome| o.tree.node_ids().collect::<Vec<_>>();
    assert_eq!(ids(&l), ids(&e));
    assert_eq!(ids(&l), ids(&r));
}
