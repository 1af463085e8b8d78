#![allow(clippy::unwrap_used)]

//! End-to-end resilience: the fault-injected WAN must never corrupt PDM
//! state or silently change what the user sees. Check-out stays atomic
//! under lost confirmations, retries are invisible in the returned tree,
//! recursive degradation serves the same visible tree, and federations
//! mark unreachable sites instead of failing or truncating silently.

use pdm_bench::harness::{federation, flagged_ids, roots};
use pdm_bench::session_over;
use pdm_core::{ProductTree, RetryPolicy, Session, SessionError, Strategy};
use pdm_net::{FaultPlan, LinkProfile, OutageWindow, ScriptedKind};
use pdm_prng::Prng;
use pdm_workload::TreeSpec;

fn session(strategy: Strategy, spec: &TreeSpec) -> Session {
    session_over(spec, strategy, LinkProfile::wan_256())
}

fn spec() -> TreeSpec {
    TreeSpec::new(3, 5, 0.6).with_node_size(256)
}

fn checked_out_count(s: &Session) -> usize {
    flagged_ids(s.server(), "assy").len() + flagged_ids(s.server(), "comp").len()
}

#[test]
fn checkout_stays_atomic_when_the_confirmation_is_lost() {
    // Exchange 0 is the procedure call; its response (the confirmation that
    // the flags were flipped) is scripted to vanish. The retry replays the
    // same idempotency token, so the server returns the recorded outcome
    // instead of refusing its own half-visible check-out.
    let sp = spec();
    let mut s = session(Strategy::Recursive, &sp);
    s.set_fault_plan(FaultPlan::none().with_scripted(0, ScriptedKind::LoseResponse));

    let out = s.check_out_function_shipping(1).unwrap();
    let tree = out.tree.expect("check-out must succeed after the replay");
    assert_eq!(
        out.stats.failed_attempts, 1,
        "the lost confirmation was charged"
    );

    // flags flipped exactly once: every tree node, nothing else
    assert_eq!(checked_out_count(&s), tree.len());

    // a genuinely new check-out is still refused (∀rows condition)
    let denied = s.check_out_function_shipping(1).unwrap();
    assert!(denied.tree.is_none());

    // and the tree matches a fault-free run exactly
    let mut clean = session(Strategy::Recursive, &sp);
    let clean_out = clean.check_out_function_shipping(1).unwrap();
    let mut a: Vec<i64> = tree.node_ids().collect();
    let mut b: Vec<i64> = clean_out.tree.unwrap().node_ids().collect();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b);
}

#[test]
fn lossy_link_retries_are_invisible_in_the_result() {
    let sp = spec();
    let mut clean = session(Strategy::EarlyEval, &sp);
    let reference: Vec<i64> = {
        let mut ids: Vec<i64> = clean
            .multi_level_expand(1)
            .unwrap()
            .tree
            .node_ids()
            .collect();
        ids.sort_unstable();
        ids
    };

    let mut s = session(Strategy::EarlyEval, &sp);
    s.set_fault_plan(FaultPlan::lossy(42, 0.25).with_server_error_rate(0.05));
    let out = s.multi_level_expand(1).unwrap();
    let mut ids: Vec<i64> = out.tree.node_ids().collect();
    ids.sort_unstable();
    assert_eq!(ids, reference, "retries must not change the visible tree");
    assert!(!out.degraded);

    // the pain was real, just absorbed
    let faults = out.stats.retransmits + out.stats.failed_attempts;
    assert!(faults > 0, "25% loss over 40 queries must surface faults");
    assert!(out.stats.fault_wait_time > 0.0 || out.stats.retransmits > 0);
}

#[test]
fn recursive_degrades_to_batched_and_serves_the_same_tree() {
    let sp = spec();
    let reference: Vec<i64> = {
        let mut clean = session(Strategy::Recursive, &sp);
        let mut ids: Vec<i64> = clean
            .multi_level_expand(1)
            .unwrap()
            .tree
            .node_ids()
            .collect();
        ids.sort_unstable();
        ids
    };

    let mut s = session(Strategy::Recursive, &sp);
    // Kill the first two attempts of the recursive query (exchanges 0, 1);
    // the batched fallback's level queries (exchanges 2+) go through.
    s.set_fault_plan(
        FaultPlan::none()
            .with_scripted(0, ScriptedKind::StallRequest)
            .with_scripted(1, ScriptedKind::StallRequest),
    );
    s.set_retry_policy(RetryPolicy::default_wan().with_max_attempts(2));

    let out = s.multi_level_expand(1).unwrap();
    assert!(
        out.degraded,
        "the action must be served by the fallback path"
    );
    let mut ids: Vec<i64> = out.tree.node_ids().collect();
    ids.sort_unstable();
    assert_eq!(
        ids, reference,
        "degraded service must show the same visible tree"
    );
    assert_eq!(out.stats.failed_attempts, 2);
    // level-batched: one query per level (root, 3, 9, 27 frontiers)
    assert_eq!(out.stats.queries, 4);
    assert_eq!(s.degradation().consecutive_failures(), 1);
}

#[test]
fn circuit_breaker_opens_after_repeated_recursive_failures() {
    let sp = spec();
    let mut s = session(Strategy::Recursive, &sp);
    // First action: recursive attempts at exchanges 0,1 stall → fallback
    // uses exchanges 2..=5. Second action: recursive attempts at exchanges
    // 6,7 stall → breaker trips.
    s.set_fault_plan(
        FaultPlan::none()
            .with_scripted(0, ScriptedKind::StallRequest)
            .with_scripted(1, ScriptedKind::StallRequest)
            .with_scripted(6, ScriptedKind::StallRequest)
            .with_scripted(7, ScriptedKind::StallRequest),
    );
    s.set_retry_policy(RetryPolicy::default_wan().with_max_attempts(2));

    assert!(s.multi_level_expand(1).unwrap().degraded);
    assert!(!s.degradation().is_open());
    assert!(s.multi_level_expand(1).unwrap().degraded);
    assert!(
        s.degradation().is_open(),
        "two consecutive failures trip the breaker"
    );

    // Third action: breaker open → no recursive attempt at all, straight to
    // the batched path (no scripted faults left, but none are reached
    // either: zero failed attempts this action).
    let out = s.multi_level_expand(1).unwrap();
    assert!(out.degraded);
    assert_eq!(out.stats.failed_attempts, 0);
}

#[test]
fn deadline_bounds_an_unreachable_server() {
    let sp = spec();
    let mut s = session(Strategy::Recursive, &sp);
    // 100% stall: nothing ever gets through.
    s.set_fault_plan(FaultPlan::none().with_stall_rate(1.0).with_timeout(10.0));
    s.set_retry_policy(RetryPolicy::default_wan().with_deadline(25.0));
    match s.multi_level_expand(1) {
        Err(e) => {
            assert!(e.is_link_failure(), "got {e}");
            // degradation fallback also ran into the wall; either way the
            // session gave up within the deadline plus one timeout charge
            assert!(s.elapsed() <= 25.0 + 10.0 + 1e-9, "elapsed {}", s.elapsed());
        }
        Ok(out) => panic!("must not succeed, got {} nodes", out.tree.len()),
    }
}

#[test]
fn outage_window_is_waited_out() {
    let sp = spec();
    let mut s = session(Strategy::Recursive, &sp);
    s.set_fault_plan(
        FaultPlan::none()
            .with_outage(OutageWindow::new(0.0, 5.0))
            .with_timeout(2.0),
    );
    let out = s.multi_level_expand(1).unwrap();
    assert!(!out.degraded || out.tree.len() > 1);
    assert!(out.stats.outage_hits >= 1);
    // the clock sat through the outage before the query could succeed
    assert!(s.elapsed() >= 5.0);
}

#[test]
fn classic_checkout_update_replays_are_idempotent() {
    let sp = TreeSpec::new(2, 3, 1.0).with_node_size(256);
    let mut s = session(Strategy::Recursive, &sp);
    // Lossy enough to force retries (including replayed UPDATEs after lost
    // confirmations) but survivable with the default retry budget.
    s.set_fault_plan(FaultPlan::lossy(7, 0.3).with_max_retransmits(20));
    let out = s.check_out(1).unwrap();
    let tree = out.tree.expect("check-out succeeds through the noise");
    // flags exactly once per node, no matter how many times the UPDATE ran
    assert_eq!(checked_out_count(&s), tree.len());
    // and check-in under the same noise releases everything
    let n = s.check_in(&tree).unwrap();
    assert_eq!(n, tree.len());
    assert_eq!(checked_out_count(&s), 0);
}

#[test]
fn federation_marks_unreachable_sites_as_partial() {
    let sp = TreeSpec::new(3, 4, 1.0).with_node_size(256);
    let build = |strategy| federation(&sp, vec![LinkProfile::wan_256(); 3], strategy);

    for strategy in [Strategy::Recursive, Strategy::EarlyEval] {
        let mut fed = build(strategy);
        let full = fed.multi_level_expand(1).unwrap();
        assert!(!full.partial);
        assert!(full.unreachable_sites.is_empty());

        // Site 2's link goes fully dark; the root's site stays up.
        let mut fed = build(strategy);
        fed.set_site_fault_plan(2, FaultPlan::none().with_stall_rate(1.0).with_timeout(5.0));
        fed.set_retry_policy(RetryPolicy::default_wan().with_max_attempts(2));
        let out = fed.multi_level_expand(1).unwrap();
        assert!(
            out.partial,
            "{strategy:?}: losing a site must mark the result partial"
        );
        assert_eq!(out.unreachable_sites, vec!["site2".to_string()]);
        assert!(
            out.tree.len() < full.tree.len(),
            "{strategy:?}: the dark site's subtrees are missing"
        );
        // everything still present is reachable from the root — the tree is
        // a consistent prefix, not a random subset
        assert_eq!(out.tree.reachable_from_root(), out.tree.len());
    }
}

#[test]
fn timeout_error_reports_attempts_and_elapsed() {
    let sp = spec();
    let mut s = session(Strategy::LateEval, &sp);
    s.set_fault_plan(FaultPlan::none().with_stall_rate(1.0).with_timeout(3.0));
    s.set_retry_policy(RetryPolicy::default_wan().with_max_attempts(3));
    match s.multi_level_expand(1) {
        Err(SessionError::Timeout {
            attempts,
            elapsed,
            context,
        }) => {
            assert_eq!(attempts, 3);
            assert!(
                elapsed >= 9.0,
                "three 3 s timeouts plus backoff, got {elapsed}"
            );
            // The context pins the span kind where the deadline expired: a
            // network stall, not a lock wait.
            assert_eq!(context.expired_in, "net.exchange");
        }
        other => panic!("expected Timeout, got {other:?}"),
    }
}

#[test]
fn timeout_context_carries_flight_events_when_profiling() {
    let sp = spec();
    let mut s = session(Strategy::LateEval, &sp);
    s.enable_profiling();
    s.set_fault_plan(FaultPlan::none().with_stall_rate(1.0).with_timeout(3.0));
    s.set_retry_policy(RetryPolicy::default_wan().with_max_attempts(3));
    let err = s.multi_level_expand(1).unwrap_err();
    let context = err.context().expect("timeout carries context");
    assert_eq!(context.expired_in, "net.exchange");
    assert!(
        !context.events.is_empty(),
        "profiling on: the flight ring must carry the failed exchanges"
    );
    // The dump renders the expiry site for journals.
    assert!(context
        .render()
        .contains("deadline expired in: net.exchange"));
}

/// One step of the seeded differential schedule; returns a byte-comparable
/// print of what the user saw. Granted check-outs are remembered so a later
/// step can check them back in.
fn differential_step(s: &mut Session, op: usize, root: i64, held: &mut Vec<ProductTree>) -> String {
    let ids = |tree: &ProductTree| {
        let mut ids: Vec<i64> = tree.node_ids().collect();
        ids.sort_unstable();
        format!("{ids:?}")
    };
    match op {
        0 => format!("expand {}", ids(&s.multi_level_expand(root).unwrap().tree)),
        1 => {
            let mut ids: Vec<i64> = s
                .query_all(root)
                .unwrap()
                .nodes
                .iter()
                .map(|n| n.obid)
                .collect();
            ids.sort_unstable();
            format!("query {ids:?}")
        }
        2 => match s.check_out_function_shipping(root).unwrap().tree {
            Some(tree) => {
                let print = format!("granted {}", ids(&tree));
                held.push(tree);
                print
            }
            None => "refused".into(),
        },
        3 => match held.pop() {
            Some(tree) => format!("checked in {}", s.check_in(&tree).unwrap()),
            None => "nothing held".into(),
        },
        _ => {
            let sql = format!("UPDATE assy SET payload = 'p{root}' WHERE obid = {root}");
            format!("updated {}", s.execute_update(&sql).unwrap())
        }
    }
}

/// Every session runs the one exchange routine, so a session with no fault
/// plan and one with a fault-free plan must be indistinguishable: same
/// trees, same traffic, same virtual clock to the bit, action by action.
#[test]
fn fault_free_plan_is_indistinguishable_from_no_plan() {
    let sp = spec();
    for strategy in [Strategy::LateEval, Strategy::EarlyEval, Strategy::Recursive] {
        let mut plain = session(strategy, &sp);
        let mut planned = session(strategy, &sp);
        planned.set_fault_plan(FaultPlan::none());
        assert!(plain.fault_plan().is_none() && planned.fault_plan().is_some());

        let roots = roots(plain.server());
        let mut rng = Prng::seed_from_u64(0x12_D1FF);
        let (mut held_plain, mut held_planned) = (Vec::new(), Vec::new());
        for step in 0..60 {
            let (op, root) = (rng.index(5), roots[rng.index(roots.len())]);
            let a = differential_step(&mut plain, op, root, &mut held_plain);
            let b = differential_step(&mut planned, op, root, &mut held_planned);
            assert_eq!(a, b, "{strategy:?} step {step} (op {op}, root {root})");
            assert_eq!(plain.stats(), planned.stats(), "{strategy:?} step {step}");
            assert_eq!(
                plain.elapsed().to_bits(),
                planned.elapsed().to_bits(),
                "{strategy:?} step {step}"
            );
        }
        assert_eq!(checked_out_count(&plain), checked_out_count(&planned));
    }
}
