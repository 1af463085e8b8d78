#![allow(clippy::unwrap_used)]

//! Overload-layer safety tests.
//!
//! 1. **Differential**: with no gate installed — or with a gate that never
//!    engages — a fault-free run is byte-identical to the pre-overload
//!    code path: same results, zero rejections, zero sheds.
//! 2. **Shed correctness** (property): whatever the gate sheds, the ops it
//!    *admits* return byte-identical results to an unloaded serial oracle
//!    replaying exactly the admitted subsequence. Admission control may
//!    reject work; it may never corrupt it.
//! 3. **Deadline propagation**: a write whose budget is spent is abandoned
//!    at the commit gate, on every kind of link.

use std::time::Duration;

use pdm_bench::harness::{durable_server, roots, server};
use pdm_core::rules::visibility_rules;
use pdm_core::{
    DurabilityConfig, OverloadConfig, PdmServer, Priority, ProductTree, Recorder, RetryPolicy,
    Session, SessionConfig, SessionError, SharedServerError, Strategy,
};
use pdm_net::{FaultPlan, LinkProfile};
use pdm_prng::Prng;
use pdm_wal::CrashPlan;
use pdm_workload::TreeSpec;

fn fresh() -> (PdmServer, Vec<i64>) {
    let server = server(&TreeSpec::new(2, 3, 1.0).with_node_size(128));
    let roots = roots(&server);
    (server, roots)
}

fn session(server: &PdmServer) -> Session {
    Session::attach(
        server.clone(),
        SessionConfig::new("scott", Strategy::Recursive, LinkProfile::wan_256()),
        visibility_rules(),
    )
}

/// Fingerprint a tree: stable, byte-comparable.
fn tree_print(tree: &ProductTree) -> String {
    let mut ids: Vec<_> = tree
        .nodes()
        .map(|n| (n.obid, n.type_name.clone()))
        .collect();
    ids.sort();
    format!("{ids:?}")
}

/// One op of the seeded schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Expand(i64),
    CheckOut(i64),
    CheckIn(i64),
}

fn schedule(rng: &mut Prng, roots: &[i64], len: usize) -> Vec<Op> {
    (0..len)
        .map(|_| {
            let root = roots[rng.index(roots.len())];
            match rng.index(10) {
                0..=5 => Op::Expand(root),
                6..=7 => Op::CheckOut(root),
                _ => Op::CheckIn(root),
            }
        })
        .collect()
}

/// Run one op; `Ok(Some(print))` = executed with this fingerprint,
/// `Ok(None)` = shed by admission. Granted check-out trees are remembered
/// per root so a later CheckIn can return them.
fn run_op(
    s: &mut Session,
    op: Op,
    held: &mut std::collections::HashMap<i64, ProductTree>,
) -> Result<Option<String>, SessionError> {
    let out = match op {
        Op::Expand(root) => match s.multi_level_expand(root) {
            Ok(o) => Ok(format!("expand {root}: {}", tree_print(&o.tree))),
            Err(e) => Err(e),
        },
        Op::CheckOut(root) => match s.check_out_function_shipping(root) {
            Ok(o) => match o.tree {
                Some(tree) => {
                    let print = format!("checkout {root}: granted {}", tree_print(&tree));
                    held.insert(root, tree);
                    Ok(print)
                }
                None => Ok(format!("checkout {root}: refused")),
            },
            Err(e) => Err(e),
        },
        Op::CheckIn(root) => match held.remove(&root) {
            None => Ok(format!("checkin {root}: nothing held")),
            Some(tree) => match s.check_in(&tree) {
                Ok(n) => Ok(format!("checkin {root}: {n}")),
                Err(e) => {
                    held.insert(root, tree); // still checked out
                    Err(e)
                }
            },
        },
    };
    match out {
        Ok(print) => Ok(Some(print)),
        Err(SessionError::Overloaded { .. }) => Ok(None),
        Err(e) => panic!("unexpected error in overload schedule: {e}"),
    }
}

/// Below capacity, a gated run is byte-identical to an ungated one, and
/// the gate never engages: zero rejections, zero sheds, zero abandons.
#[test]
fn below_capacity_runs_are_byte_identical_to_ungated() {
    let mut rng = Prng::seed_from_u64(0xD1FF);
    let (plain_server, roots) = fresh();
    let (gated_server, _) = fresh();
    // Generous capacity and a clock far ahead: the bucket is always full.
    let gate = gated_server
        .shared()
        .install_overload_gate(OverloadConfig::per_second(1_000_000.0));
    gate.advance_to(1.0);

    let ops = schedule(&mut rng, &roots, 120);
    let mut s_plain = session(&plain_server);
    let mut s_gated = session(&gated_server);
    let mut held_plain = std::collections::HashMap::new();
    let mut held_gated = std::collections::HashMap::new();
    for &op in &ops {
        let a = run_op(&mut s_plain, op, &mut held_plain).unwrap();
        let b = run_op(&mut s_gated, op, &mut held_gated).unwrap();
        assert!(a.is_some() && b.is_some(), "below capacity nothing sheds");
        assert_eq!(a, b, "gated and ungated outcomes must be byte-identical");
    }

    let m = gated_server.metrics().snapshot();
    assert_eq!(m.counter("admission.rejected"), 0);
    assert_eq!(m.counter("overload.shed_interactive"), 0);
    assert_eq!(m.counter("overload.shed_checkout"), 0);
    assert_eq!(m.counter("overload.shed_batch"), 0);
    assert_eq!(m.counter("overload.deadline_abandons"), 0);
    assert_eq!(m.counter("overload.lock_queue_rejections"), 0);
    assert!(m.counter("admission.admitted") > 0);
}

/// Property: under a tight gate, the admitted subsequence replayed on an
/// unloaded serial oracle produces byte-identical outcomes — shedding
/// never corrupts admitted work.
#[test]
fn admitted_ops_match_unloaded_serial_oracle() {
    pdm_prng::check::cases("overload_shed_correctness", 10, 0xACC3D, |rng| {
        let (gated_server, roots) = fresh();
        let gate = gated_server
            .shared()
            .install_overload_gate(OverloadConfig::per_second(20.0));

        // Long enough to drain the initial full bucket (burst 20) at an
        // average arrival rate of ~57/s against a 20/s refill.
        let ops = schedule(rng, &roots, 200);
        let mut s = session(&gated_server);
        let mut held = std::collections::HashMap::new();
        let mut clock = 0.0f64;
        let mut admitted: Vec<(Op, String)> = Vec::new();
        let mut sheds = 0usize;
        for &op in &ops {
            // Arrivals faster than the refill rate on average, so the
            // bucket drains and some ops shed.
            clock += rng.f64_range(0.005, 0.030);
            gate.advance_to(clock);
            match run_op(&mut s, op, &mut held).unwrap() {
                Some(print) => admitted.push((op, print)),
                None => sheds += 1,
            }
        }
        assert!(sheds > 0, "schedule must overdrive the 20/s gate");
        assert!(!admitted.is_empty());

        // Serial oracle: same initial state, no gate, replay ONLY the
        // admitted ops.
        let (oracle, _) = fresh();
        let mut o = session(&oracle);
        let mut o_held = std::collections::HashMap::new();
        for (op, expected) in &admitted {
            let got = run_op(&mut o, *op, &mut o_held).unwrap();
            assert_eq!(
                got.as_deref(),
                Some(expected.as_str()),
                "admitted op {op:?} must match the unloaded oracle"
            );
        }
    });
}

/// Concurrent misses on one cold key coalesce into a single computation:
/// exactly one leader evaluates the query, everyone else is served the
/// published result (single-flight).
#[test]
fn concurrent_cold_misses_coalesce_into_one_computation() {
    const THREADS: usize = 8;
    let (server, _) = fresh();
    // `fresh()` itself issues one cached query (the roots scan), so assert
    // on deltas from this baseline, not absolute counts.
    let base = server.metrics().snapshot();
    let shared = std::sync::Arc::clone(server.shared());
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(THREADS));
    let sql = "SELECT obid, strc_opt FROM link ORDER BY obid";
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let shared = std::sync::Arc::clone(&shared);
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                shared.query_cached(sql).unwrap()
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for r in &results {
        assert_eq!(r.rows, results[0].rows, "all callers see the same rows");
    }
    let m = server.metrics().snapshot();
    let delta = |name: &str| m.counter(name) - base.counter(name);
    assert_eq!(delta("cache.singleflight_leaders"), 1);
    assert_eq!(delta("cache.misses"), 1, "the engine ran exactly once");
    assert_eq!(delta("cache.hits"), (THREADS - 1) as u64);
}

/// The priority classes shed in documented order as the bucket drains:
/// batch first, then check-out, interactive last.
#[test]
fn batch_sheds_before_checkout_sheds_before_interactive() {
    let (server, roots) = fresh();
    let gate = server
        .shared()
        .install_overload_gate(OverloadConfig::per_second(50.0));
    gate.advance_to(1.0);

    let mut interactive = session(&server);
    let mut batch = session(&server);
    batch.set_priority_class(Priority::Batch);

    // Drain the bucket with interactive queries until batch starts
    // shedding; interactive must still be admitted at that point.
    let root = roots[0];
    let mut batch_shed = false;
    for _ in 0..60 {
        match batch.multi_level_expand(root) {
            Ok(_) => {}
            Err(SessionError::Overloaded { .. }) => {
                batch_shed = true;
                break;
            }
            Err(e) => panic!("unexpected: {e}"),
        }
    }
    assert!(batch_shed, "the bucket must drain past the batch reserve");
    interactive
        .multi_level_expand(root)
        .expect("interactive must still be admitted when batch sheds");
}

/// A write whose server-side budget is already spent is abandoned at the
/// commit gate — no new version, no WAL record — and the session surfaces
/// that as a `Timeout` pinned at `overload.abandon`. The session's deadline
/// reaches the server whether or not a fault plan is installed.
#[test]
fn spent_deadline_abandons_the_write_with_or_without_a_fault_plan() {
    let server = durable_server(
        &TreeSpec::new(2, 3, 1.0).with_node_size(128),
        CrashPlan::none(),
        DurabilityConfig::default().checkpoint_interval,
    );
    let sql = "UPDATE assy SET checkedout = FALSE WHERE obid = 1";
    let abandons = || {
        let m = server.metrics().snapshot();
        m.counter("overload.deadline_abandons")
    };
    let durable_state = || {
        let log_len = server.durability().unwrap().log_len();
        (server.database().version(), log_len)
    };
    let untouched = durable_state();

    // Server level.
    let err = server
        .execute_deadline_obs(sql, Some(Duration::ZERO), &Recorder::disabled())
        .unwrap_err();
    assert!(matches!(err, SharedServerError::DeadlineExpired { .. }));
    assert_eq!(abandons(), 1);
    assert_eq!(durable_state(), untouched);

    // Session level. The deadline is below the OS clock's resolution: the
    // client's virtual clock (0 at action start) has not reached it, the
    // server's real one has.
    for plan in [None, Some(FaultPlan::none())] {
        let faulty = plan.is_some();
        let mut s = session(&server);
        if let Some(plan) = plan {
            s.set_fault_plan(plan);
        }
        s.set_retry_policy(RetryPolicy::none().with_deadline(1e-12));
        let before = abandons();
        match s.execute_update(sql) {
            Err(SessionError::Timeout { context, .. }) => {
                assert_eq!(context.expired_in, "overload.abandon", "faulty={faulty}")
            }
            other => panic!("faulty={faulty}: expected an abandoned write, got {other:?}"),
        }
        assert_eq!(abandons(), before + 1, "faulty={faulty}");
        assert_eq!(durable_state(), untouched, "faulty={faulty}");

        // The check-out procedure sees the same spent budget.
        match s.check_out_function_shipping(1) {
            Err(SessionError::Timeout { context, .. }) => {
                assert_eq!(context.expired_in, "overload.abandon", "faulty={faulty}")
            }
            other => panic!("faulty={faulty}: expected an abandoned check-out, got {other:?}"),
        }
        assert_eq!(durable_state(), untouched, "faulty={faulty}");

        // Reads have no abandon point; a navigational expand spends the
        // deadline on its first exchange and is stopped client-side before
        // the second, identically on both links.
        s.set_strategy(Strategy::LateEval);
        match s.multi_level_expand(1) {
            Err(SessionError::Timeout {
                attempts, context, ..
            }) => {
                assert_eq!(context.expired_in, "net.exchange", "faulty={faulty}");
                assert_eq!(attempts, 0, "faulty={faulty}");
            }
            other => panic!("faulty={faulty}: expected a client-side stop, got {other:?}"),
        }
        assert_eq!(s.stats().queries, 1, "faulty={faulty}");
    }
}
