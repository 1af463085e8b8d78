//! Placement coverage over random rule tables: for every statement shape a
//! session modifies, the query modificator puts each rule predicate exactly
//! where the analyzer's re-derivation of §5.5 steps A–D says it belongs —
//! no `MissingPredicate`, no `MisplacedPredicate`.
//!
//! Rule tables mix all four condition classes (row, ∀rows, tree-aggregate,
//! ∃structure) over `assy`, `comp` and `link`, with random user patterns
//! and actions. Row-predicate constants are drawn from a pool that holds the
//! statements' own object ids, so a rule predicate can coincide with a
//! conjunct the generator wrote itself.

#![allow(clippy::unwrap_used)]

use std::collections::HashSet;

use pdm_analyze::placement::{check_placement, expected_injections};
use pdm_analyze::Report;
use pdm_core::query::modificator::Modificator;
use pdm_core::query::{navigational, recursive, T_LINK};
use pdm_core::rules::classify::ConditionClass;
use pdm_core::rules::condition::{AggFunc, CmpOp, Condition, FnArg, RowPredicate};
use pdm_core::rules::table::RuleTable;
use pdm_core::rules::{ActionKind, Rule, UserPattern};
use pdm_prng::check::cases;
use pdm_prng::Prng;
use pdm_sql::{Query, Value};

const CASES: u64 = 256;
const TABLES: [&str; 3] = ["assy", "comp", "link"];
const USERS: [&str; 2] = ["scott", "tiger"];
const ACTIONS: [ActionKind; 6] = [
    ActionKind::Access,
    ActionKind::Query,
    ActionKind::Expand,
    ActionKind::MultiLevelExpand,
    ActionKind::CheckOut,
    ActionKind::CheckIn,
];
const CLASSES: [ConditionClass; 4] = [
    ConditionClass::Row,
    ConditionClass::ForAllRows,
    ConditionClass::TreeAggregate,
    ConditionClass::ExistsStructure,
];
/// An alternative structure view's link table: rules on `link` do not
/// apply to it.
const ALT_LINK: &str = "alt_link";

fn pick<T: Copy>(rng: &mut Prng, items: &[T]) -> T {
    items[rng.index(items.len())]
}

fn cmp_op(rng: &mut Prng) -> CmpOp {
    pick(
        rng,
        &[
            CmpOp::Eq,
            CmpOp::NotEq,
            CmpOp::Lt,
            CmpOp::LtEq,
            CmpOp::Gt,
            CmpOp::GtEq,
        ],
    )
}

/// A constant for `attr`: ids from `ids` (the statements' own) for the
/// integer columns, a small text pool otherwise.
fn constant(rng: &mut Prng, attr: &str, ids: &[i64]) -> Value {
    match attr {
        "obid" | "left" | "right" | "eff_from" | "eff_to" => Value::Int(pick(rng, ids)),
        "checkedout" => Value::Bool(rng.bool()),
        _ => Value::from(pick(rng, &["OPTA", "OPTB", "+", "buy", "secret"])),
    }
}

fn attrs_of(table: &str) -> &'static [&'static str] {
    match table {
        "assy" => &[
            "obid",
            "name",
            "dec",
            "make_or_buy",
            "strc_opt",
            "checkedout",
        ],
        "comp" => &["obid", "name", "strc_opt", "checkedout"],
        _ => &["obid", "left", "right", "eff_from", "eff_to", "strc_opt"],
    }
}

fn row_predicate(rng: &mut Prng, table: &str, ids: &[i64], depth: u32) -> RowPredicate {
    let attrs = attrs_of(table);
    let leaf = depth == 0 || rng.index(3) > 0;
    if leaf {
        let attr = pick(rng, attrs);
        return match rng.index(6) {
            0 => RowPredicate::CompareAttrs {
                left: attr.to_string(),
                op: cmp_op(rng),
                right: pick(rng, attrs).to_string(),
            },
            1 => RowPredicate::StoredFn {
                name: "set_overlaps".into(),
                args: vec![
                    FnArg::Attr("strc_opt".into()),
                    FnArg::Const(Value::from("OPTA,OPTB")),
                ],
            },
            2 => RowPredicate::Like {
                attr: "name".into(),
                pattern: pick(rng, &["A%", "%x_"]).to_string(),
                negated: rng.bool(),
            },
            _ => RowPredicate::Compare {
                attr: attr.to_string(),
                op: cmp_op(rng),
                value: constant(rng, attr, ids),
            },
        };
    }
    let a = row_predicate(rng, table, ids, depth - 1);
    match rng.index(3) {
        0 => a.and(row_predicate(rng, table, ids, depth - 1)),
        1 => a.or(row_predicate(rng, table, ids, depth - 1)),
        _ => a.negate(),
    }
}

fn node_type(rng: &mut Prng) -> Option<String> {
    match rng.index(3) {
        0 => None,
        i => Some(TABLES[i - 1].to_string()),
    }
}

fn condition(rng: &mut Prng, table: &str, ids: &[i64]) -> Condition {
    match rng.index(4) {
        0 => Condition::ForAllRows {
            object_type: node_type(rng),
            predicate: row_predicate(rng, "assy", ids, 1),
        },
        1 => Condition::TreeAggregate {
            func: pick(
                rng,
                &[
                    AggFunc::Count,
                    AggFunc::Sum,
                    AggFunc::Avg,
                    AggFunc::Min,
                    AggFunc::Max,
                ],
            ),
            attr: rng.bool().then(|| "obid".to_string()),
            object_type: node_type(rng),
            op: cmp_op(rng),
            value: rng.i64_inclusive(0, 10_000) as f64,
        },
        2 => Condition::ExistsStructure {
            object_table: pick(rng, &TABLES).to_string(),
            relation_table: "specified_by".into(),
            related_table: "spec".into(),
        },
        _ => Condition::Row(row_predicate(rng, table, ids, 2)),
    }
}

fn rule_table(rng: &mut Prng, ids: &[i64]) -> RuleTable {
    let mut rules = RuleTable::new();
    for _ in 0..rng.usize_inclusive(1, 8) {
        let table = pick(rng, &TABLES);
        let user = match rng.index(3) {
            0 => UserPattern::Any,
            _ => UserPattern::Named(pick(rng, &USERS).to_string()),
        };
        let action = pick(rng, &ACTIONS);
        rules.add(Rule::new(user, action, table, condition(rng, table, ids)));
    }
    rules
}

/// Every statement shape a session rule-modifies, for `ids` through `view`,
/// with the entry point that modifies it. Expand, expand-many and query-all
/// carry the row conditions under an early strategy (§4.1); the recursive
/// retrievals, with and without the root and over the physical structure,
/// always carry their rules (§5.5). Fetch-node is never modified.
fn shapes(ids: &[i64], view: &str) -> Vec<(&'static str, Query, bool)> {
    vec![
        ("expand", navigational::expand_query_in(ids[0], view), false),
        (
            "expand-many",
            navigational::expand_many_query(ids, view),
            false,
        ),
        ("query-all", navigational::query_all_query(ids[0]), false),
        ("mle", recursive::mle_query_in(ids[0], view, false), true),
        (
            "mle-with-root",
            recursive::mle_query_in(ids[0], view, true),
            true,
        ),
        (
            "mle-physical",
            recursive::mle_query_in(ids[0], T_LINK, false),
            true,
        ),
    ]
}

#[test]
fn the_modificator_places_every_predicate_where_the_analyzer_expects_it() {
    let views = HashSet::new();
    // Cases in which each class was injected into at least one shape.
    let mut injected = [0u64; 4];
    cases("placement", CASES, 0xB10C_5EED, |rng| {
        let ids: Vec<i64> = (0..rng.usize_inclusive(1, 3))
            .map(|_| rng.i64_inclusive(1, 40))
            .collect();
        let rules = rule_table(rng, &ids);
        let user = pick(rng, &USERS);
        let view = if rng.index(4) == 0 { ALT_LINK } else { T_LINK };
        let mut seen = [false; 4];
        for (name, mut query, recursive) in shapes(&ids, view) {
            let action = pick(rng, &ACTIONS);
            let m = Modificator::new(&rules, user, action, &views);
            if recursive {
                m.modify_recursive(&mut query).unwrap();
            } else {
                m.modify_navigational(&mut query).unwrap();
            }
            let mut report = Report::new();
            check_placement(&query, &rules, user, action, &mut report);
            assert!(
                report.is_clean(),
                "{name} for {user}/{action:?}:\n{report}\nSQL: {query}"
            );
            for e in expected_injections(&query, &rules, user, action) {
                seen[CLASSES.iter().position(|c| *c == e.class).unwrap()] = true;
            }
        }
        for (count, seen) in injected.iter_mut().zip(seen) {
            *count += u64::from(seen);
        }
    });
    for (class, count) in CLASSES.iter().zip(injected) {
        assert!(
            count * 10 >= CASES,
            "{class:?} injected in only {count} of {CASES} cases"
        );
    }
}

/// `rules` applied to scott's expand of node 42, then checked.
fn checked_expand(rules: &RuleTable) -> (Query, Report) {
    let views = HashSet::new();
    let m = Modificator::new(rules, "scott", ActionKind::Expand, &views);
    let mut query = navigational::expand_query_in(42, T_LINK);
    m.modify_navigational(&mut query).unwrap();
    let mut report = Report::new();
    check_placement(&query, rules, "scott", ActionKind::Expand, &mut report);
    (query, report)
}

/// One rule whose predicate is an AND is spliced as one conjunct
/// (`link.left = 42 AND (a AND b)`) and matched whole, not as its halves.
#[test]
fn a_rule_predicate_that_is_a_conjunction_is_matched_whole() {
    let mut rules = RuleTable::new();
    rules.add(Rule::for_all_users(
        ActionKind::Access,
        "link",
        Condition::Row(
            RowPredicate::compare("strc_opt", CmpOp::Eq, "OPTA").and(RowPredicate::compare(
                "obid",
                CmpOp::GtEq,
                5i64,
            )),
        ),
    ));
    let (query, report) = checked_expand(&rules);
    assert!(report.is_clean(), "{report}\nSQL: {query}");
}

/// A rule predicate that repeats a condition the generator wrote into the
/// same block (`link.left = 42 AND link.left = 42`) is where it belongs.
#[test]
fn a_rule_predicate_equal_to_a_generator_conjunct_is_not_misplaced() {
    let mut rules = RuleTable::new();
    rules.add(Rule::for_all_users(
        ActionKind::Access,
        "link",
        Condition::Row(RowPredicate::compare("left", CmpOp::Eq, 42i64)),
    ));
    let (query, report) = checked_expand(&rules);
    assert!(
        query
            .to_string()
            .contains("link.left = 42 AND link.left = 42"),
        "{query}"
    );
    assert!(report.is_clean(), "{report}\nSQL: {query}");
}
