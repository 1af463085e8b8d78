#![allow(clippy::unwrap_used)]

//! Check-out lock-table edge cases (§6 semantics under real concurrency).
//!
//! * a re-entrant idempotency token under contention executes AT MOST once
//!   and every caller observes the one recorded outcome;
//! * check-in releases the lock entries, making the tree re-checkoutable;
//! * a lock wait that exceeds the session's `RetryPolicy` deadline
//!   surfaces as `SessionError::Timeout`, not a hang;
//! * a conflict with a COMPLETED check-out refuses immediately (∀rows
//!   semantics) instead of waiting;
//! * the idempotency log is bounded: only the most recent tokens replay
//!   their outcome, an older one fails closed, and checkpoints stop
//!   growing with the number of check-outs ever completed.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use pdm_bench::harness::{durable_server, flagged_ids, recover, server, session};
use pdm_core::query::recursive;
use pdm_core::{
    DurabilityConfig, PdmServer, Recorder, RetryPolicy, Session, SessionError, SharedServerError,
    Strategy, RETAINED_TOKENS,
};
use pdm_wal::CrashPlan;
use pdm_workload::TreeSpec;

fn spec() -> TreeSpec {
    TreeSpec::new(2, 3, 1.0).with_node_size(128)
}

fn fresh_server() -> PdmServer {
    server(&spec())
}

/// A durable server with the default checkpoint cadence.
fn fresh_durable_server() -> PdmServer {
    let interval = DurabilityConfig::default().checkpoint_interval;
    durable_server(&spec(), CrashPlan::none(), interval)
}

fn session_on(server: &PdmServer, user: &str) -> Session {
    session(server, user, Strategy::Recursive)
}

/// Number of flagged objects across both object tables.
fn flagged(server: &PdmServer) -> usize {
    flagged_ids(server, "assy").len() + flagged_ids(server, "comp").len()
}

/// Four threads race the SAME idempotency token (a client retry racing its
/// own original request). The procedure must execute at most once: every
/// caller gets the identical recorded outcome and the flags flip exactly
/// once.
#[test]
fn reentrant_token_executes_at_most_once() {
    let server = fresh_server();
    let sql = recursive::mle_query(1).to_string();
    let token = server.shared().next_token();
    let barrier = Arc::new(Barrier::new(4));

    let mut handles = Vec::new();
    for _ in 0..4 {
        let server = server.clone();
        let sql = sql.clone();
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            server
                .checkout_procedure_with_deadline_obs(1, &sql, token, None, &Recorder::disabled())
                .unwrap()
        }));
    }
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // One recorded outcome, observed by everyone.
    for r in &results[1..] {
        assert_eq!(
            r.rows, results[0].rows,
            "same token must yield one recorded outcome"
        );
    }
    let rows = results[0].rows.as_ref().expect("uncontended tree: success");
    // Flags flipped exactly once: subtree (rows) plus the root itself.
    assert_eq!(flagged(&server), rows.len() + 1);
    assert!(server.checkout_recorded(token));
    assert_eq!(server.shared().lock_table().holder(1), Some(token));
}

/// A sequential replay of a recorded token (the lost-confirmation retry)
/// returns the recorded outcome without re-executing or re-flipping.
#[test]
fn recorded_token_replays_without_reexecution() {
    let server = fresh_server();
    let sql = recursive::mle_query(1).to_string();
    let token = server.shared().next_token();

    let first = server
        .checkout_procedure_with_deadline_obs(1, &sql, token, None, &Recorder::disabled())
        .unwrap();
    assert!(first.rows.is_some());
    let flags_after_first = flagged(&server);
    let version_after_first = server.database().version();

    let replay = server
        .checkout_procedure_with_deadline_obs(1, &sql, token, None, &Recorder::disabled())
        .unwrap();
    assert_eq!(replay.rows, first.rows);
    assert_eq!(flagged(&server), flags_after_first, "no second flag flip");
    assert_eq!(
        server.database().version(),
        version_after_first,
        "replay must not write"
    );
}

/// Check-in clears the flags AND the lock entries: the same subtree can be
/// checked out again afterwards (by someone else).
#[test]
fn checkin_releases_lock_entries() {
    let server = fresh_server();
    let mut alice = session_on(&server, "alice");
    let mut bob = session_on(&server, "bob");

    let out = alice.check_out_function_shipping(1).unwrap();
    let tree = out.tree.expect("first check-out succeeds");
    assert!(!server.shared().lock_table().is_empty());

    // While held: bob is refused.
    assert!(bob.check_out_function_shipping(1).unwrap().tree.is_none());

    alice.check_in(&tree).unwrap();
    assert!(
        server.shared().lock_table().is_empty(),
        "check-in must release every lock entry"
    );
    assert_eq!(flagged(&server), 0);

    // Released: bob now wins.
    assert!(bob.check_out_function_shipping(1).unwrap().tree.is_some());
}

/// A session check-in retires the durable grant its function-shipping
/// check-out logged: after any number of cycles nothing is outstanding, so
/// checkpoints carry no retired grants and recovery has nothing to sweep.
#[test]
fn session_checkin_retires_durable_grants() {
    let server = fresh_durable_server();
    let mut alice = session_on(&server, "alice");

    for cycle in 0..5 {
        let out = alice.check_out_function_shipping(1).unwrap();
        let tree = out.tree.expect("check-out of a released tree succeeds");
        assert_eq!(
            server.durability().unwrap().outstanding_grants().len(),
            1,
            "cycle {cycle}: the held check-out is the one outstanding grant"
        );
        alice.check_in(&tree).unwrap();
        assert!(
            server.durability().unwrap().outstanding_grants().is_empty(),
            "cycle {cycle}: check-in left a durable grant behind"
        );
    }
    assert!(server.lock_table().is_empty());
}

/// The idempotency log keeps the outcomes of the `RETAINED_TOKENS` most
/// recent tokens — live and after recovery alike. A retry under an older
/// token is refused without executing (it may already have run); a retry
/// under a retained one still replays its rows. Because the log is
/// bounded, so is the checkpoint that carries it.
#[test]
fn old_tokens_expire_closed_and_checkpoints_stop_growing() {
    let server = fresh_durable_server();
    let mut alice = session_on(&server, "alice");
    let sql = recursive::mle_query(1).to_string();
    let retry = |server: &PdmServer, token: u64| {
        server.checkout_procedure_with_deadline_obs(1, &sql, token, None, &Recorder::disabled())
    };
    // Alice is the server's only client: her n-th check-out draws token n.
    let cycle = |alice: &mut Session| {
        let tree = alice.check_out_function_shipping(1).unwrap().tree.unwrap();
        alice.check_in(&tree).unwrap();
    };

    let completed = RETAINED_TOKENS as u64 + 5;
    for _ in 0..completed {
        cycle(&mut alice);
    }
    let durability = server.durability().unwrap();
    assert_eq!(
        durability.retained_tokens(),
        (6..=completed).collect::<Vec<_>>()
    );

    let check = |server: &PdmServer| {
        let version = server.database().version();
        for expired in [1, 5] {
            match retry(server, expired) {
                Err(SharedServerError::TokenExpired { token }) => assert_eq!(token, expired),
                other => panic!("token {expired} must fail closed, got {other:?}"),
            }
        }
        for retained in [6, completed] {
            let replay = retry(server, retained).unwrap();
            assert!(replay.rows.is_some(), "token {retained} replays its rows");
        }
        assert_eq!(server.database().version(), version, "no retry may write");
        assert_eq!(flagged(server), 0, "no retry may flip a flag");
        assert!(server.lock_table().is_empty(), "no retry may take a lock");
    };
    check(&server);
    let interval = DurabilityConfig::default().checkpoint_interval;
    check(&recover(durability.image(), interval).unwrap().0);

    // A checkpoint is cut every 64 commits = 16 cycles; once the log is
    // full, each one carries the same number of outcomes.
    for _ in completed..300 {
        cycle(&mut alice);
    }
    let at_300 = durability.checkpoint_len();
    for _ in 300..600 {
        cycle(&mut alice);
    }
    assert!(
        durability.checkpoint_len() <= at_300,
        "checkpoint grew from {at_300} to {} bytes over 300 more check-outs",
        durability.checkpoint_len()
    );
}

/// An in-flight conflict that outlives the session's RetryPolicy deadline
/// surfaces as `SessionError::Timeout` (with the wait accounted), and the
/// check-out succeeds once the stalled procedure aborts.
#[test]
fn lock_wait_past_deadline_is_session_timeout() {
    let server = fresh_server();
    let stalled_token = 0xDEAD;
    // Simulate a check-out stalled mid-procedure on another thread: the
    // root id sits in-flight, so competitors WAIT rather than refuse.
    server
        .shared()
        .lock_table()
        .acquire_in_flight(&[1], stalled_token, None)
        .unwrap();

    let mut s = session_on(&server, "scott");
    s.set_retry_policy(RetryPolicy::none().with_deadline(0.05));
    let err = s.check_out_function_shipping(1).unwrap_err();
    match err {
        SessionError::Timeout {
            elapsed, context, ..
        } => {
            assert!(elapsed >= 0.05, "the lock wait must be accounted");
            // The context distinguishes WHERE the deadline expired: in the
            // server-side lock wait, not in a network stall.
            assert_eq!(context.expired_in, "locks.wait");
        }
        other => panic!("expected Timeout, got {other:?}"),
    }
    assert_eq!(flagged(&server), 0, "a timed-out check-out changes nothing");

    // The stalled procedure aborts — the very same session succeeds now.
    server.shared().lock_table().abort(&[1], stalled_token);
    assert!(s.check_out_function_shipping(1).unwrap().tree.is_some());
}

/// Conflicts with a COMPLETED check-out refuse immediately — they must not
/// burn the waiter's deadline (refusal is resolved by check-in, not time).
#[test]
fn held_conflict_refuses_without_waiting() {
    let server = fresh_server();
    let mut alice = session_on(&server, "alice");
    alice.check_out_function_shipping(1).unwrap().tree.unwrap();

    let mut bob = session_on(&server, "bob");
    bob.set_retry_policy(RetryPolicy::none().with_deadline(30.0));
    let started = std::time::Instant::now();
    let out = bob.check_out_function_shipping(1).unwrap();
    assert!(out.tree.is_none(), "held conflict must refuse");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "refusal must not wait out the deadline"
    );
}
