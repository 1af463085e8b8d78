#![allow(clippy::unwrap_used)]

//! Deterministic concurrency stress test for the shared PDM server.
//!
//! N worker threads, each driven by its own seeded PRNG, hammer ONE
//! `Arc<SharedServer>` with a mixed workload (multi-level expands, Query
//! actions, function-shipping check-outs, check-ins). The server journals
//! every committed DML statement in commit order and every lock-table
//! decision in serialization order. Afterwards we assert the two
//! properties that make the server trustworthy:
//!
//! 1. **Serial equivalence**: replaying the logged DML order on a fresh
//!    copy of the same database reproduces the final storage state
//!    byte-for-byte.
//! 2. **Check-out exclusion**: no two overlapping check-outs of the same
//!    object both succeed — between a grant covering object X and the next
//!    release covering X, no other grant may mention X.
//!
//! The interleaving itself is whatever the OS scheduler produces; the
//! assertions hold for EVERY interleaving, which is the point.

use std::collections::HashMap;
use std::sync::{Arc, Barrier};

use pdm_bench::harness::{roots, server, session};
use pdm_core::{InFlight, LockEvent, PdmServer, ProductTree, Recorder, Session, Strategy};
use pdm_prng::Prng;
use pdm_workload::TreeSpec;

const THREADS: usize = 8;
const OPS_PER_THREAD: usize = 40;
const SEED: u64 = 0x5EED_C0DE;

fn fresh_server() -> PdmServer {
    server(&TreeSpec::new(3, 3, 1.0).with_node_size(128))
}

fn session_on(server: &PdmServer, user: &str) -> Session {
    session(server, user, Strategy::Recursive)
}

/// Dump the complete storage state relevant to the workload.
fn storage_state(server: &PdmServer) -> Vec<pdm_sql::ResultSet> {
    ["assy", "comp", "link"]
        .iter()
        .map(|t| {
            server
                .query(&format!("SELECT * FROM {t} ORDER BY obid"))
                .unwrap()
        })
        .collect()
}

#[test]
fn stress_final_state_equals_serial_replay() {
    let server = fresh_server();
    server.shared().enable_journal();
    let roots = roots(&server);
    assert!(roots.len() >= 8, "need a real tree to contend over");

    let barrier = Arc::new(Barrier::new(THREADS));
    let mut handles = Vec::new();
    for worker in 0..THREADS {
        let server = server.clone();
        let roots = roots.clone();
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut prng = Prng::seed_from_u64(SEED ^ (worker as u64).wrapping_mul(0x9E37));
            let mut session = session_on(&server, &format!("user{worker}"));
            let mut held: Vec<ProductTree> = Vec::new();
            let mut grants = 0usize;
            let mut refusals = 0usize;
            barrier.wait();
            for _ in 0..OPS_PER_THREAD {
                let root = roots[(prng.next_u64() % roots.len() as u64) as usize];
                match prng.next_u64() % 100 {
                    0..=29 => {
                        let out = session.multi_level_expand(root).unwrap();
                        assert!(!out.tree.is_empty());
                    }
                    30..=49 => {
                        session.query_all(roots[0]).unwrap();
                    }
                    50..=79 => {
                        let out = session.check_out_function_shipping(root).unwrap();
                        match out.tree {
                            Some(tree) => {
                                grants += 1;
                                held.push(tree);
                            }
                            None => refusals += 1,
                        }
                    }
                    _ => {
                        if let Some(tree) = held.pop() {
                            session.check_in(&tree).unwrap();
                        } else {
                            session.single_level_expand(root).unwrap();
                        }
                    }
                }
            }
            // Check everything still held back in so the final state is
            // reachable by the replay (and locks drain).
            for tree in held.drain(..) {
                session.check_in(&tree).unwrap();
            }
            (grants, refusals)
        }));
    }

    let mut total_grants = 0usize;
    for h in handles {
        let (g, _r) = h.join().unwrap();
        total_grants += g;
    }
    assert!(total_grants >= 1, "the workload must exercise check-outs");
    assert!(
        server.shared().lock_table().is_empty(),
        "every grant was checked back in"
    );
    // No single-flight mark, waiter or check-out token outlived its call.
    assert_eq!(server.shared().in_flight(), InFlight::default());

    // Property 2: check-out exclusion over the lock-event journal.
    let events = server.shared().take_lock_events();
    let mut held_by: HashMap<i64, u64> = HashMap::new();
    let mut seen_grant = false;
    for event in &events {
        match event {
            LockEvent::Granted { token, ids } => {
                seen_grant = true;
                for id in ids {
                    if let Some(prev) = held_by.insert(*id, *token) {
                        panic!("object {id} granted to token {token} while still held by {prev}");
                    }
                }
            }
            LockEvent::Released { ids } => {
                for id in ids {
                    held_by.remove(id);
                }
            }
            LockEvent::Refused { .. } => {}
        }
    }
    assert!(seen_grant);

    // Property 1: serial replay of the DML commit log reproduces the
    // final storage state exactly.
    let dml = server.shared().take_dml_log();
    assert!(!dml.is_empty(), "check-outs must have journaled their DML");
    let replay = fresh_server();
    for stmt in &dml {
        replay
            .execute_deadline_obs(stmt, None, &Recorder::disabled())
            .unwrap();
    }
    assert_eq!(
        storage_state(&server),
        storage_state(&replay),
        "concurrent final state diverged from serial replay"
    );
}

/// Two sessions on different threads repeatedly check out the SAME root:
/// every round exactly one wins, and the flags always agree with the lock
/// table.
#[test]
fn same_root_contention_has_exactly_one_winner() {
    let server = fresh_server();
    let barrier = Arc::new(Barrier::new(2));
    let mut handles = Vec::new();
    for worker in 0..2 {
        let server = server.clone();
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut session = session_on(&server, &format!("user{worker}"));
            let mut wins = Vec::new();
            for _round in 0..10 {
                barrier.wait();
                let out = session.check_out_function_shipping(1).unwrap();
                let won = out.tree.is_some();
                // Hold the grant until BOTH attempts completed, so the
                // round is genuinely contested; then the winner cleans up.
                barrier.wait();
                if let Some(tree) = out.tree {
                    session.check_in(&tree).unwrap();
                }
                barrier.wait();
                wins.push(won);
            }
            wins
        }));
    }
    let results: Vec<Vec<bool>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(server.shared().in_flight(), InFlight::default());
    for round in 0..10 {
        let winners = results.iter().filter(|w| w[round]).count();
        assert_eq!(
            winners, 1,
            "round {round}: exactly one of two overlapping check-outs may win"
        );
    }
}

/// The serial-replay property holds when every thread runs the SAME seeded
/// schedule twice: both runs end in the same storage state (checked via
/// their own replays), i.e. the harness itself is deterministic given a
/// serialization order.
#[test]
fn replay_of_replay_is_stable() {
    let server = fresh_server();
    server.shared().enable_journal();
    let mut session = session_on(&server, "solo");
    let mut prng = Prng::seed_from_u64(SEED);
    let roots = roots(&server);
    let mut held = Vec::new();
    for _ in 0..30 {
        let root = roots[(prng.next_u64() % roots.len() as u64) as usize];
        match prng.next_u64() % 3 {
            0 => {
                if let Some(t) = session.check_out_function_shipping(root).unwrap().tree {
                    held.push(t);
                }
            }
            1 => {
                if let Some(t) = held.pop() {
                    session.check_in(&t).unwrap();
                }
            }
            _ => {
                session.multi_level_expand(root).unwrap();
            }
        }
    }
    let dml = server.shared().take_dml_log();

    let replay1 = fresh_server();
    let replay2 = fresh_server();
    for stmt in &dml {
        replay1
            .execute_deadline_obs(stmt, None, &Recorder::disabled())
            .unwrap();
        replay2
            .execute_deadline_obs(stmt, None, &Recorder::disabled())
            .unwrap();
    }
    assert_eq!(storage_state(&replay1), storage_state(&replay2));
    assert_eq!(storage_state(&server), storage_state(&replay1));
}
