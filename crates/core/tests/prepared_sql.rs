#![allow(clippy::unwrap_used)]

//! Differential property test: the text a session ships — prepared once
//! per shape, the id spliced in per statement — is byte for byte what
//! running the generator, the §5.5 modificator and the printer afresh for
//! that id prints. The reference below is that fresh pipeline, written
//! against the public generators the way every generation site called them
//! before statements were prepared.
//!
//! Also pinned here: a shipped text is a fixed point of print ∘ parse (what
//! lets the server probe its result cache with the text as sent), and the
//! two setters that change what a shape generates take effect on the very
//! next statement.

use std::collections::HashSet;

use pdm_core::query::modificator::Modificator;
use pdm_core::query::prepared::Shape;
use pdm_core::query::{navigational, recursive};
use pdm_core::rules::condition::{CmpOp, Condition, RowPredicate};
use pdm_core::rules::{ActionKind, Rule};
use pdm_core::{ObjectId, PdmServer, RuleTable, Session, SessionConfig, Strategy};
use pdm_net::LinkProfile;
use pdm_prng::check::cases;
use pdm_prng::Prng;
use pdm_sql::parser::parse_query;
use pdm_workload::{build_database, TreeSpec};

const SHAPES: [Shape; 7] = [
    Shape::Expand,
    Shape::ExpandMany,
    Shape::QueryAll,
    Shape::FetchNode,
    Shape::Mle {
        include_root: false,
    },
    Shape::Mle { include_root: true },
    Shape::MlePhysical,
];

const ACTIONS: [ActionKind; 5] = [
    ActionKind::Access,
    ActionKind::Query,
    ActionKind::Expand,
    ActionKind::MultiLevelExpand,
    ActionKind::CheckOut,
];

const VIEWS: [&str; 2] = ["link", "flink"];

/// The row rule that extends a rule table to the second structure view
/// these tests navigate.
fn flink_rule() -> Rule {
    Rule::for_all_users(
        ActionKind::Access,
        "flink",
        Condition::Row(RowPredicate::compare("strc_opt", CmpOp::Eq, "OPTA")),
    )
}

/// The benchmark's rules — the user sees only OPTA links and nodes —
/// extended to the second structure view.
fn visibility_rules() -> RuleTable {
    let mut t = pdm_core::rules::visibility_rules();
    t.add(flink_rule());
    t
}

/// `pdm_core::rules::paper_rules` (all four condition classes) extended to
/// the second structure view, plus a check-out ∀rows rule and a row rule
/// whose constants read exactly like ids — a small one and one no product
/// holds — which must stay constants. Each class keeps its rules' relative
/// order, so the modified texts are those of the rules written out in full.
fn paper_rules() -> RuleTable {
    let mut t = pdm_core::rules::paper_rules();
    t.add(flink_rule());
    t.add(Rule::for_all_users(
        ActionKind::CheckOut,
        "assy",
        Condition::ForAllRows {
            object_type: None,
            predicate: RowPredicate::compare("checkedout", CmpOp::Eq, false),
        },
    ));
    t.add(Rule::for_all_users(
        ActionKind::Access,
        "comp",
        Condition::Row(RowPredicate::compare("obid", CmpOp::GtEq, 7_i64).and(
            RowPredicate::compare("obid", CmpOp::LtEq, 1_111_111_111_111_111_111_i64),
        )),
    ));
    t
}

/// Generator → modificator → printer, run afresh for `ids`.
fn reference(
    shape: Shape,
    action: ActionKind,
    ids: &[ObjectId],
    view: &str,
    strategy: Strategy,
    rules: &RuleTable,
) -> String {
    let id = ids[0];
    let mut q = match shape {
        Shape::Expand => navigational::expand_query_in(id, view),
        Shape::ExpandMany => navigational::expand_many_query(ids, view),
        Shape::QueryAll => navigational::query_all_query(id),
        Shape::FetchNode => navigational::fetch_node_query(id),
        Shape::Mle { include_root } => recursive::mle_query_in(id, view, include_root),
        Shape::MlePhysical => recursive::mle_query(id),
    };
    let views = HashSet::new();
    let m = Modificator::new(rules, "scott", action, &views);
    match shape {
        Shape::Expand | Shape::ExpandMany | Shape::QueryAll => {
            if strategy.early_rules() {
                m.modify_navigational(&mut q).unwrap();
            }
        }
        Shape::Mle { .. } | Shape::MlePhysical => {
            m.modify_recursive(&mut q).unwrap();
        }
        Shape::FetchNode => {}
    }
    q.to_string()
}

fn server() -> PdmServer {
    let (db, _) = build_database(&TreeSpec::new(2, 2, 1.0).with_node_size(64)).unwrap();
    PdmServer::new(db)
}

fn session(server: &PdmServer, strategy: Strategy, rules: &RuleTable) -> Session {
    Session::attach(
        server.clone(),
        SessionConfig::new("scott", strategy, LinkProfile::wan_256()),
        rules.clone(),
    )
}

/// Ids for one statement of `shape`: the edge values first, then random
/// ones; the batched shape gets lists of every length from 1 to 300.
fn arb_ids(shape: Shape, case: usize, rng: &mut Prng) -> Vec<ObjectId> {
    const EDGES: [ObjectId; 6] = [
        0,
        1,
        -1,
        -987_654_321,
        i64::MAX - 2,
        2_222_222_222_222_222_222,
    ];
    let one = |rng: &mut Prng| match rng.index(4) {
        0 => EDGES[rng.index(EDGES.len())],
        1 => rng.i64_inclusive(-1_000, 1_000),
        _ => rng.i64_inclusive(0, 1 << 40),
    };
    if shape == Shape::ExpandMany {
        return (0..1 + case % 300).map(|_| one(rng)).collect();
    }
    vec![EDGES.get(case).copied().unwrap_or_else(|| one(rng))]
}

/// Check every shape × action of `s` against the reference for a few ids.
fn assert_ships_the_reference(
    s: &mut Session,
    strategy: Strategy,
    view: &str,
    rules: &RuleTable,
    rounds: usize,
    rng: &mut Prng,
) {
    for case in 0..rounds {
        // Past the edge ids only the IN list still has something new to
        // show (its length), and one action per length shows it.
        let tail = case >= 12;
        let actions = if tail {
            &ACTIONS[case % ACTIONS.len()..][..1]
        } else {
            &ACTIONS[..]
        };
        for shape in SHAPES {
            if tail && shape != Shape::ExpandMany {
                continue;
            }
            for &action in actions {
                let ids = arb_ids(shape, case, rng);
                let shipped = s.statement(shape, action, &ids).unwrap();
                let fresh = reference(shape, action, &ids, view, strategy, rules);
                assert_eq!(
                    shipped, fresh,
                    "{shape:?} / {action:?} / {strategy:?} / {view} for {ids:?}"
                );
                // The fixed point the server's raw-text probe rests on.
                assert_eq!(
                    parse_query(&shipped).unwrap().to_string(),
                    shipped,
                    "print(parse(text)) moved the text of {shape:?} for {ids:?}"
                );
            }
        }
    }
}

#[test]
fn prepared_text_is_the_generated_text() {
    let server = server();
    for rules in [RuleTable::new(), visibility_rules(), paper_rules()] {
        for strategy in Strategy::ALL {
            for view in VIEWS {
                let mut s = session(&server, strategy, &rules);
                s.set_structure_view(view);
                let mut rng = Prng::seed_from_u64(0x5EED ^ view.len() as u64);
                // 300 rounds: every IN-list length from 1 to 300.
                assert_ships_the_reference(&mut s, strategy, view, &rules, 300, &mut rng);
            }
        }
    }
}

/// One session driven through a random walk of `set_strategy` and
/// `set_structure_view`: the statement after a setter is the new shape's,
/// never a leftover of the old one.
#[test]
fn setters_take_effect_on_the_next_statement() {
    let server = server();
    let rules = paper_rules();
    cases("setters_take_effect", 16, 0x17, |rng| {
        let mut strategy = Strategy::ALL[rng.index(3)];
        let mut view = VIEWS[rng.index(2)];
        let mut s = session(&server, strategy, &rules);
        s.set_structure_view(view);
        for _ in 0..12 {
            assert_ships_the_reference(&mut s, strategy, view, &rules, 2, rng);
            if rng.bool() {
                strategy = Strategy::ALL[rng.index(3)];
                s.set_strategy(strategy);
            } else {
                view = VIEWS[rng.index(2)];
                s.set_structure_view(view);
            }
        }
    });
}

/// The modificator's refusal (§5.5: a statement hidden in a view cannot be
/// modified) is reported for every statement of the shape, not just the
/// first, and a refused shape leaves nothing behind.
#[test]
fn a_refused_shape_is_refused_every_time() {
    let server = server();
    server
        .execute_deadline_obs(
            "CREATE VIEW flink AS SELECT * FROM link",
            None,
            &pdm_core::Recorder::disabled(),
        )
        .unwrap();
    let mut s = session(&server, Strategy::EarlyEval, &visibility_rules());
    s.set_structure_view("flink");
    for id in [1, 2] {
        let err = s
            .statement(Shape::Expand, ActionKind::Expand, &[id])
            .unwrap_err();
        assert!(err.to_string().contains("flink"), "{err}");
    }
    // Unmodified shapes and other views are unaffected.
    s.statement(Shape::FetchNode, ActionKind::Access, &[1])
        .unwrap();
    s.set_structure_view("link");
    assert_eq!(
        s.statement(Shape::Expand, ActionKind::Expand, &[1])
            .unwrap(),
        reference(
            Shape::Expand,
            ActionKind::Expand,
            &[1],
            "link",
            Strategy::EarlyEval,
            &visibility_rules()
        )
    );
}
