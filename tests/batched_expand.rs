#![allow(clippy::unwrap_used)]

//! Level-batched expansion: the IN-list middle ground between per-node
//! navigation and one recursive query. Checks semantic equivalence with the
//! other strategies and the predicted round-trip count (depth + 1 levels).

use pdm_bench::make_session;
use pdm_core::{Session, Strategy};
use pdm_net::LinkProfile;

fn session(depth: u32, branching: u32, gamma: f64, strategy: Strategy) -> Session {
    make_session(
        depth,
        branching,
        gamma,
        512,
        strategy,
        LinkProfile::wan_256(),
    )
}

#[test]
fn batched_returns_the_same_tree() {
    for gamma in [1.0, 0.6] {
        let mut reference = session(4, 5, gamma, Strategy::Recursive);
        let expected: Vec<i64> = reference
            .multi_level_expand(1)
            .unwrap()
            .tree
            .node_ids()
            .collect();
        for strategy in [Strategy::LateEval, Strategy::EarlyEval] {
            let mut s = session(4, 5, gamma, strategy);
            let out = s.multi_level_expand_batched(1).unwrap();
            let ids: Vec<i64> = out.tree.node_ids().collect();
            assert_eq!(ids, expected, "batched {strategy:?} γ={gamma}");
            assert_eq!(out.tree.reachable_from_root(), out.tree.len());
        }
    }
}

#[test]
fn batched_round_trips_equal_levels() {
    // δ=4 visible levels + the final empty-frontier probe = 5 queries.
    let mut s = session(4, 5, 0.6, Strategy::EarlyEval);
    let out = s.multi_level_expand_batched(1).unwrap();
    assert_eq!(out.stats.queries, 5);
    assert_eq!(out.stats.communications, 10);
}

#[test]
fn batched_sits_between_navigational_and_recursive() {
    let t_nav = session(4, 5, 0.6, Strategy::EarlyEval)
        .multi_level_expand(1)
        .unwrap()
        .stats
        .response_time();
    let t_batched = session(4, 5, 0.6, Strategy::EarlyEval)
        .multi_level_expand_batched(1)
        .unwrap()
        .stats
        .response_time();
    let t_rec = session(4, 5, 0.6, Strategy::Recursive)
        .multi_level_expand(1)
        .unwrap()
        .stats
        .response_time();
    assert!(
        t_rec < t_batched && t_batched < t_nav,
        "expected rec {t_rec:.2} < batched {t_batched:.2} < nav {t_nav:.2}"
    );
}

#[test]
fn large_frontiers_need_multi_packet_requests() {
    // δ=2, β=30 → level-1 frontier has 30 nodes but level-2 has 900; the
    // final IN-list request (~6 kB of ids) exceeds one 4 kB packet.
    let mut s = session(2, 30, 1.0, Strategy::EarlyEval);
    let out = s.multi_level_expand_batched(1).unwrap();
    assert!(
        out.stats.request_packets > out.stats.queries,
        "expected some multi-packet requests: {} packets for {} queries",
        out.stats.request_packets,
        out.stats.queries
    );
}

#[test]
fn batched_late_filters_client_side() {
    let mut late = session(3, 5, 0.6, Strategy::LateEval);
    let l = late.multi_level_expand_batched(1).unwrap();
    let mut early = session(3, 5, 0.6, Strategy::EarlyEval);
    let e = early.multi_level_expand_batched(1).unwrap();
    assert_eq!(
        l.tree.node_ids().collect::<Vec<_>>(),
        e.tree.node_ids().collect::<Vec<_>>()
    );
    assert!(l.stats.response_payload_bytes > e.stats.response_payload_bytes);
}

#[test]
fn session_trace_records_batched_exchanges() {
    let mut s = session(3, 3, 1.0, Strategy::EarlyEval);
    s.enable_profiling();
    let out = s.multi_level_expand_batched(1).unwrap();
    let exchanges: Vec<_> = s
        .recorder()
        .spans()
        .into_iter()
        .filter(|span| span.kind == pdm_obs::kinds::NET_EXCHANGE)
        .collect();
    let sum = |key: &str| -> f64 { exchanges.iter().filter_map(|e| e.attr(key)).sum() };
    assert_eq!(exchanges.len(), out.stats.queries);
    assert!((sum("v_s") - out.stats.response_time()).abs() < 1e-9);
    // navigational batching is still latency-heavy on a WAN
    assert!(sum("latency_s") / sum("v_s") > 0.2);
}
