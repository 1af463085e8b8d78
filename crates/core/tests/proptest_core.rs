#![allow(clippy::unwrap_used)]

//! Property-based tests on the PDM layer. The central property is the one
//! the whole paper rests on: **the three strategies are semantically
//! equivalent** — late evaluation, early evaluation, and the recursive
//! query return the same visible tree for any product structure, rule
//! selectivity, and user — they only differ in traffic.
//!
//! Uses the in-repo `pdm_prng::check` harness (explicit generator loops)
//! instead of proptest, which the offline build cannot fetch.

use pdm_prng::check::cases;
use pdm_prng::Prng;
use std::collections::HashMap;

use pdm_core::rules::condition::{CmpOp, RowPredicate};
use pdm_core::rules::{visibility_rules, ActionKind};
use pdm_core::{Session, SessionConfig, Strategy as ClientStrategy};
use pdm_net::LinkProfile;
use pdm_sql::Value;
use pdm_workload::{build_database, TreeSpec, VisibilityMode};

fn arb_spec(rng: &mut Prng) -> TreeSpec {
    let depth = rng.u32_inclusive(2, 4);
    let branching = rng.u32_inclusive(2, 4);
    let gamma = rng.f64_range(0.2, 1.0);
    let seed = rng.u64_inclusive(0, 499);
    let vis = if rng.bool() {
        VisibilityMode::Random { seed }
    } else {
        VisibilityMode::Deterministic
    };
    TreeSpec::new(depth, branching, gamma)
        .with_node_size(128)
        .with_visibility(vis)
        .with_attribute_seed(seed)
}

/// Strategy equivalence: identical trees under all three strategies,
/// with the traffic ordering the paper predicts.
#[test]
fn strategies_agree_and_traffic_orders() {
    cases("strategies_agree_and_traffic_orders", 32, 0x21, |rng| {
        let spec = arb_spec(rng);
        let mut trees = Vec::new();
        let mut stats = Vec::new();
        for strategy in ClientStrategy::ALL {
            let (db, _) = build_database(&spec).unwrap();
            let mut s = Session::new(
                db,
                SessionConfig::new("scott", strategy, LinkProfile::wan_256()),
                visibility_rules(),
            );
            let out = s.multi_level_expand(1).unwrap();
            trees.push(out.tree.node_ids().collect::<Vec<_>>());
            stats.push(out.stats);
        }
        assert_eq!(&trees[0], &trees[1], "late vs early tree mismatch");
        assert_eq!(&trees[0], &trees[2], "late vs recursive tree mismatch");

        let (late, early, rec) = (&stats[0], &stats[1], &stats[2]);
        // early never ships more payload, never uses more queries
        assert!(early.response_payload_bytes <= late.response_payload_bytes);
        assert_eq!(early.queries, late.queries);
        // recursive is always exactly one query / two communications
        assert_eq!(rec.queries, 1);
        assert_eq!(rec.communications, 2);
        // and never slower than navigational late evaluation
        assert!(rec.response_time() <= late.response_time() + 1e-9);
    });
}

/// Client-side (late) and server-side (SQL) evaluation of a random row
/// predicate agree on every row — the property that makes late and
/// early evaluation interchangeable.
#[test]
fn predicate_eval_agrees_client_and_server() {
    cases("predicate_eval_agrees_client_and_server", 32, 0x22, |rng| {
        let n = rng.usize_inclusive(1, 19);
        let rows: Vec<(i64, i64, bool)> = (0..n)
            .map(|_| {
                (
                    rng.i64_inclusive(0, 19),
                    rng.i64_inclusive(0, 19),
                    rng.bool(),
                )
            })
            .collect();
        let bound_a = rng.i64_inclusive(0, 19);
        let bound_b = rng.i64_inclusive(0, 19);
        let flip = rng.bool();

        // Table with three attributes.
        let mut db = pdm_sql::Database::new();
        db.execute("CREATE TABLE t (a INTEGER, b INTEGER, c BOOLEAN)")
            .unwrap();
        for (a, b, c) in &rows {
            db.execute(&format!("INSERT INTO t VALUES ({a}, {b}, {c})"))
                .unwrap();
        }

        // Random predicate: (a < A AND c = flip) OR b >= B
        let pred = RowPredicate::compare("a", CmpOp::Lt, bound_a)
            .and(RowPredicate::compare("c", CmpOp::Eq, flip))
            .or(RowPredicate::compare("b", CmpOp::GtEq, bound_b));

        // Server-side: translate to SQL.
        let sql_pred = pdm_core::rules::translate::row_predicate_expr(&pred, "t");
        let rs = db
            .query(&format!("SELECT a, b, c FROM t WHERE {sql_pred}"))
            .unwrap();
        let server_count = rs.len();

        // Client-side: evaluate on attribute maps.
        let funcs = pdm_core::functions::client_registry();
        let client_count = rows
            .iter()
            .filter(|(a, b, c)| {
                let attrs: HashMap<String, Value> = [
                    ("a".to_string(), Value::Int(*a)),
                    ("b".to_string(), Value::Int(*b)),
                    ("c".to_string(), Value::Bool(*c)),
                ]
                .into_iter()
                .collect();
                pred.eval(&attrs, &funcs)
            })
            .count();

        assert_eq!(server_count, client_count);
    });
}

/// The recursive query produced by the modificator re-parses and returns
/// the same rows when executed twice (engine determinism through the
/// full rule pipeline).
#[test]
fn modified_query_is_deterministic() {
    cases("modified_query_is_deterministic", 32, 0x23, |rng| {
        use pdm_core::query::{modificator::Modificator, recursive};
        let spec = arb_spec(rng);
        let (db, _) = build_database(&spec).unwrap();
        let server = pdm_core::PdmServer::new(db);
        let rules = visibility_rules();
        let views = std::collections::HashSet::new();
        let m = Modificator::new(&rules, "scott", ActionKind::MultiLevelExpand, &views);
        let mut q = recursive::mle_query(1);
        m.modify_recursive(&mut q).unwrap();
        let sql = q.to_string();
        let a = server.query(&sql).unwrap();
        let b = server.query(&sql).unwrap();
        assert_eq!(a.len(), b.len());
        // reparse gives the same AST
        let reparsed = pdm_sql::parser::parse_query(&sql).unwrap();
        assert_eq!(q, reparsed);
    });
}

/// Traffic accounting is self-consistent: elapsed time equals the stats'
/// response time, and volume ≥ payload.
#[test]
fn traffic_accounting_consistent() {
    cases("traffic_accounting_consistent", 32, 0x24, |rng| {
        let spec = arb_spec(rng);
        let (db, _) = build_database(&spec).unwrap();
        let mut s = Session::new(
            db,
            SessionConfig::new("scott", ClientStrategy::EarlyEval, LinkProfile::wan_512()),
            visibility_rules(),
        );
        let out = s.multi_level_expand(1).unwrap();
        assert!((s.elapsed() - out.stats.response_time()).abs() < 1e-9);
        assert!(out.stats.volume_bytes >= out.stats.response_payload_bytes as f64);
        assert_eq!(out.stats.communications, 2 * out.stats.queries);
    });
}
