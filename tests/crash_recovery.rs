#![allow(clippy::unwrap_used)]

//! Deterministic crash-recovery harness for the durability layer (the
//! tentpole invariant of the WAL PR).
//!
//! The exhaustive sweep runs a seeded scripted workload against a durable
//! server, kills the simulated log device at EVERY write boundary under
//! every tail-fault flavor (> 200 seeded crash points), recovers from the
//! surviving bytes, and asserts:
//!
//! * the recovered state is **byte-identical** (same
//!   [`pdm_sql::persist::state_fingerprint`]) to a from-scratch serial
//!   replay of the durable commit-log prefix plus the stale-grant sweep —
//!   an independent reference that shares no code with `recover_server`'s
//!   replay loop beyond the log scanner;
//! * the recovered state also matches the crashed server's last *published*
//!   snapshot plus the sweep (the commit gate makes durable == published);
//! * **no check-out survives the dead process**: the lock table is empty
//!   and no `checkedout` flag is left `TRUE`;
//! * **completed idempotency tokens do not re-execute**: replaying a
//!   recorded token returns its recorded rows with the storage version
//!   unchanged.
//!
//! A multi-threaded chaos run, the fault-free WAL-on/WAL-off equivalence
//! check, the crashed-grant release test (satellite: waiting session's
//! retry succeeds after restart), and the corrupt-checkpoint diagnostics
//! round out the suite.

use std::collections::BTreeMap;
use std::time::Duration;

use pdm_bench::harness::{
    check_recovered, crash_image, database, durable_server, fingerprint_of, flagged_ids, recover,
    roots, scripted_workload, server, session, small_tree, NO_CHECKPOINTS,
};
use pdm_core::query::recursive;
use pdm_core::{
    recover_server, DurabilityConfig, PdmServer, Recorder, RetryPolicy, SessionError, Strategy,
};
use pdm_prng::Prng;
use pdm_sql::persist::database_fingerprint;
use pdm_wal::{CrashPlan, DurableImage, DurableStore, TailFault, WalRecord};
use pdm_workload::TreeSpec;

const WORKLOAD_SEED: u64 = 0x000C_0FFE_E001;

/// A durable server on the harness tree with only the attach-time
/// checkpoint (`NO_CHECKPOINTS`), so the from-scratch reference can rebuild
/// the checkpoint state from the deterministic generator instead of
/// decoding the checkpoint blob.
fn victim(plan: CrashPlan) -> PdmServer {
    durable_server(&small_tree(), plan, NO_CHECKPOINTS)
}

/// Independent reference: rebuild the generator's initial state, scan the
/// surviving image with the WAL layer only, replay every durable DML commit
/// serially through a plain (non-shared, non-durable) `Database`, track
/// grants minus releases, and apply the recovery sweep. Returns the
/// fingerprint plus the completed tokens seen in the log.
fn reference_replay(image: &DurableImage) -> (Vec<u8>, Vec<u64>) {
    let (_store, recovered) = DurableStore::from_image(image.clone(), CrashPlan::none()).unwrap();
    assert!(
        recovered.checkpoint.is_some(),
        "the attach-time checkpoint must always survive"
    );
    let mut db = database(&small_tree());
    let mut grants: BTreeMap<u64, (Vec<i64>, Vec<i64>)> = BTreeMap::new();
    let mut tokens = Vec::new();
    for (_seq, record) in recovered.records {
        match record {
            WalRecord::DmlCommit { sql, .. } => {
                db.execute(&sql).unwrap();
            }
            WalRecord::CheckoutGrant {
                token,
                assy_ids,
                comp_ids,
            } => {
                grants.insert(token, (assy_ids, comp_ids));
            }
            WalRecord::CheckoutRelease { ids } => {
                for (a, c) in grants.values_mut() {
                    a.retain(|id| !ids.contains(id));
                    c.retain(|id| !ids.contains(id));
                }
                grants.retain(|_, (a, c)| !a.is_empty() || !c.is_empty());
            }
            WalRecord::TokenComplete { token, .. } => tokens.push(token),
        }
    }
    // The same deterministic sweep recovery performs: sorted, deduped
    // unions, one UPDATE per non-empty table.
    let mut sweep_assy: Vec<i64> = grants.values().flat_map(|(a, _)| a.clone()).collect();
    let mut sweep_comp: Vec<i64> = grants.values().flat_map(|(_, c)| c.clone()).collect();
    sweep_assy.sort_unstable();
    sweep_assy.dedup();
    sweep_comp.sort_unstable();
    sweep_comp.dedup();
    for (table, ids) in [("assy", &sweep_assy), ("comp", &sweep_comp)] {
        if !ids.is_empty() {
            let list = ids
                .iter()
                .map(|id| id.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            db.execute(&format!(
                "UPDATE {table} SET checkedout = FALSE WHERE obid IN ({list})"
            ))
            .unwrap();
        }
    }
    (fingerprint_of(db), tokens)
}

/// Everything the acceptance criteria demand of one recovered server.
fn assert_recovery_invariants(image: DurableImage, crashed: &PdmServer, context: &str) {
    let (recovered, report) =
        recover(image.clone(), NO_CHECKPOINTS).unwrap_or_else(|e| panic!("{context}: {e}"));

    // 1. Byte-identical to the independent serial replay of the durable
    //    commit-log prefix, and every token the log completed is restored.
    let (reference_fp, tokens) = reference_replay(&image);
    assert_eq!(
        database_fingerprint(recovered.database()),
        reference_fp,
        "{context}: recovered state differs from serial replay of the durable prefix"
    );
    for token in &tokens {
        assert!(
            recovered.checkout_recorded(*token),
            "{context}: completed token {token} lost"
        );
    }

    // 2. The shared oracle: ... and to the crashed server's published state
    //    plus the sweep; no check-out held by a dead session (locks, flags,
    //    tracked grants); completed tokens replay their recorded outcome
    //    without re-executing.
    check_recovered(crashed, &recovered, &tokens).unwrap_or_else(|e| panic!("{context}: {e}"));

    // The report is internally consistent with what we checked.
    assert_eq!(
        report.checkpoint_version, 0,
        "{context}: unexpected checkpoint"
    );
}

/// Tentpole: every write boundary × every tail-fault flavor. Each crash
/// point runs the scripted workload until the device dies, recovers from
/// the surviving bytes, and checks the full invariant set. Also enforces
/// the acceptance floor of 200+ seeded crash points.
#[test]
fn exhaustive_crash_point_sweep_recovers_exactly() {
    // Fault-free run to learn the op budget of the script.
    let server = victim(CrashPlan::none());
    scripted_workload(&server, WORKLOAD_SEED, 30);
    let stats = server.shared().durability().unwrap().device_stats();
    let total_ops = stats.appends + stats.syncs;
    assert!(
        total_ops >= 67,
        "script too small for 200 crash points: {total_ops} device ops"
    );

    let mut crash_points = 0u64;
    for fault in [
        TailFault::LoseTail,
        TailFault::TornWrite,
        TailFault::PartialSector,
    ] {
        for op in 0..total_ops {
            let plan = CrashPlan::at_op(op)
                .with_fault(fault)
                .with_seed(WORKLOAD_SEED ^ op);
            let victim = victim(plan);
            scripted_workload(&victim, WORKLOAD_SEED, 30);
            assert!(
                victim.durability().unwrap().is_crashed(),
                "plan at op {op} never fired ({fault:?})"
            );
            let image = crash_image(&victim);
            assert_recovery_invariants(image, &victim, &format!("{fault:?} op {op}"));
            crash_points += 1;
        }
    }
    assert!(
        crash_points >= 200,
        "acceptance floor: only {crash_points} crash points exercised"
    );
}

/// The sweep over checkpoint chains: the same script on a server that
/// checkpoints every 4 commits, killed at every device op under every tail
/// fault, so most crash points find a full frame plus deltas in the cell.
/// Each recovery is held to the crashed server's published state plus the
/// sweep and to its durable token outcomes (`check_recovered`).
#[test]
fn exhaustive_crash_point_sweep_over_checkpoint_chains_recovers() {
    let (mut crash_points, mut over_chains) = (0u64, 0u64);
    for fault in [
        TailFault::LoseTail,
        TailFault::TornWrite,
        TailFault::PartialSector,
    ] {
        for op in 0.. {
            let plan = CrashPlan::at_op(op)
                .with_fault(fault)
                .with_seed(WORKLOAD_SEED ^ op);
            let victim = durable_server(&small_tree(), plan, 4);
            let tokens = scripted_workload(&victim, WORKLOAD_SEED, 30);
            if !victim.durability().unwrap().is_crashed() {
                break; // past the script's last device op
            }
            let image = crash_image(&victim);
            let (_, stored) = DurableStore::from_image(image.clone(), CrashPlan::none()).unwrap();
            over_chains += u64::from(!stored.deltas.is_empty());
            let context = format!("{fault:?} op {op}");
            let (recovered, _) = recover(image, 4).unwrap_or_else(|e| panic!("{context}: {e}"));
            check_recovered(&victim, &recovered, &tokens)
                .unwrap_or_else(|e| panic!("{context}: {e}"));
            crash_points += 1;
        }
    }
    assert!(crash_points >= 200, "only {crash_points} crash points");
    assert!(
        2 * over_chains > crash_points,
        "only {over_chains} of {crash_points} crash points found a delta in the cell"
    );
}

/// A multi-threaded seeded workload killed at a PRNG-chosen write boundary.
/// The interleaving is nondeterministic but the WAL serializes commits, so
/// the from-scratch reference replay still pins down the exact recovered
/// bytes.
#[test]
fn concurrent_workload_killed_at_random_boundary_recovers() {
    for round in 0u64..4 {
        let mut rng = Prng::seed_from_u64(0xBAD_C0DE ^ round);
        let crash_op = rng.u64_inclusive(5, 160);
        let plan = CrashPlan::at_op(crash_op)
            .with_fault(match rng.index(3) {
                0 => TailFault::LoseTail,
                1 => TailFault::TornWrite,
                _ => TailFault::PartialSector,
            })
            .with_seed(rng.next_u64());
        let server = victim(plan);
        let mut handles = Vec::new();
        for worker in 0..3u64 {
            let server = server.clone();
            let seed = rng.next_u64() ^ worker;
            handles.push(std::thread::spawn(move || {
                scripted_workload(&server, seed, 24);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let image = crash_image(&server);
        assert_recovery_invariants(image, &server, &format!("concurrent round {round}"));
    }
}

/// Checkpoints landing mid-encode: three threads on a server that cuts a
/// checkpoint every 4 commits, killed at a PRNG-chosen write boundary. The
/// commit that crosses the interval encodes and installs its checkpoint
/// after it releases the writer, so the other threads' commits, grants and token
/// outcomes land between cut and install, and so can the crash. Recovery
/// must still give the published state plus the sweep.
#[test]
fn concurrent_workload_with_checkpoints_mid_encode_recovers() {
    let mut past_attach = 0;
    for round in 0u64..40 {
        let mut rng = Prng::seed_from_u64(0xC0DE_CE11 ^ round);
        let crash_op = rng.u64_inclusive(5, 160);
        let plan = CrashPlan::at_op(crash_op)
            .with_fault(match rng.index(3) {
                0 => TailFault::LoseTail,
                1 => TailFault::TornWrite,
                _ => TailFault::PartialSector,
            })
            .with_seed(rng.next_u64());
        let server = durable_server(&small_tree(), plan, 4);
        let handles: Vec<_> = (0..3u64)
            .map(|worker| {
                let server = server.clone();
                let seed = rng.next_u64() ^ worker;
                std::thread::spawn(move || scripted_workload(&server, seed, 24))
            })
            .collect();
        let tokens: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let context = format!("round {round}, crash at op {crash_op}");
        let (recovered, report) =
            recover(crash_image(&server), 4).unwrap_or_else(|e| panic!("{context}: {e}"));
        check_recovered(&server, &recovered, &tokens).unwrap_or_else(|e| panic!("{context}: {e}"));
        past_attach += usize::from(report.checkpoint_version > 0);
    }
    assert!(
        past_attach > 0,
        "no round recovered from a checkpoint cut after attach"
    );
}

/// Fault-free equivalence: with no crash, the WAL must be pure overhead —
/// the durable server's final state is byte-identical to a WAL-less server
/// running the same script, and to its own recovered image.
#[test]
fn fault_free_runs_identical_with_wal_on_and_off() {
    let durable = victim(CrashPlan::none());
    scripted_workload(&durable, WORKLOAD_SEED, 30);

    let plain = server(&small_tree());
    scripted_workload(&plain, WORKLOAD_SEED, 30);

    assert_eq!(
        database_fingerprint(durable.database()),
        database_fingerprint(plain.database()),
        "WAL changed the observable state of a fault-free run"
    );
}

/// Frequent checkpoints must not change recovery semantics: crash points
/// sampled across the run recover to the published-plus-sweep state even
/// when most of the history lives in the checkpoint, not the log.
#[test]
fn recovery_with_frequent_checkpoints_matches_published_state() {
    for op in [9u64, 33, 61, 95, 131, 170] {
        let plan = CrashPlan::at_op(op)
            .with_fault(TailFault::TornWrite)
            .with_seed(op);
        let victim = durable_server(&small_tree(), plan, 4);
        scripted_workload(&victim, WORKLOAD_SEED, 30);
        // The op budget shrinks as checkpoints truncate the log; a plan
        // past the end simply never fires — `crash_image` kills at the end
        // instead. Recover with a crash-free device: the old plan must not
        // re-fire against the replacement log during the recovery sweep.
        let (recovered, _report) = recover(crash_image(&victim), 4)
            .unwrap_or_else(|e| panic!("checkpointed op {op}: {e}"));
        check_recovered(&victim, &recovered, &[])
            .unwrap_or_else(|e| panic!("checkpointed op {op}: {e}"));
    }
}

/// Satellite: a check-out granted before the crash is released on restart,
/// and a session retrying with its PR-1 `RetryPolicy` gets the tree within
/// its deadline instead of being refused by a dead session's grant.
#[test]
fn crashed_grant_is_released_and_waiting_retry_succeeds() {
    let server = victim(CrashPlan::none());
    let sql = recursive::mle_query(1).to_string();
    let token = server.shared().next_token();
    let granted = server
        .checkout_procedure_with_deadline_obs(
            1,
            &sql,
            token,
            Some(Duration::from_secs(5)),
            &Recorder::disabled(),
        )
        .unwrap();
    assert!(granted.rows.is_some(), "setup: check-out must be granted");
    assert!(!flagged_ids(&server, "assy").is_empty());
    assert!(!server.shared().lock_table().is_empty());

    // The process dies with the grant held.
    let (recovered, report) = recover(crash_image(&server), NO_CHECKPOINTS).unwrap();
    assert!(
        report.swept_tokens.contains(&token),
        "the dead session's grant was not swept"
    );
    check_recovered(&server, &recovered, &[token]).unwrap();

    // A fresh session with a retry policy checks the same tree out within
    // its deadline — the crashed holder no longer blocks it.
    let mut session = session(&recovered, "scott", Strategy::Recursive);
    session.set_retry_policy(RetryPolicy::default_wan().with_max_attempts(3));
    let out = session.check_out_function_shipping(1).unwrap();
    assert!(
        out.tree.is_some(),
        "retry after restart was refused by a stale grant"
    );
}

/// Satellite: checkpoint corruption is fatal and carries a precise
/// diagnostic (offset, expected vs found CRC) all the way up to
/// `SessionError::CorruptLog`.
#[test]
fn corrupt_checkpoint_surfaces_offset_and_checksums() {
    let server = victim(CrashPlan::none());
    scripted_workload(&server, WORKLOAD_SEED, 12);
    let mut image = server.shared().durability().unwrap().image();
    let last = image.checkpoint.len() - 1;
    image.checkpoint[last] ^= 0x40;

    let cfg = DurabilityConfig::default().with_interval(NO_CHECKPOINTS);
    let err = recover_server(image, &cfg).expect_err("corrupt checkpoint must be fatal");
    let session_err = SessionError::from(err);
    match &session_err {
        SessionError::CorruptLog {
            offset,
            expected,
            found,
        } => {
            assert_eq!(*offset, 0, "the checkpoint cell starts at offset 0");
            assert_ne!(expected, found);
        }
        other => panic!("expected CorruptLog, got {other:?}"),
    }
    let rendered = session_err.to_string();
    assert!(
        rendered.contains("corrupt durable log at offset 0")
            && rendered.contains("expected crc 0x"),
        "diagnostic lost detail: {rendered}"
    );
}

/// A damaged delta frame is as fatal as a damaged full frame: recovery
/// names the delta's offset in the cell and never falls back to the chain
/// before it, which would lose the delta's changes.
#[test]
fn corrupt_checkpoint_delta_surfaces_its_offset() {
    let server = durable_server(&small_tree(), CrashPlan::none(), 4);
    scripted_workload(&server, WORKLOAD_SEED, 12);
    let mut image = server.shared().durability().unwrap().image();
    let (_, stored) = DurableStore::from_image(image.clone(), CrashPlan::none()).unwrap();
    assert!(
        !stored.deltas.is_empty(),
        "setup: the cell must hold a delta"
    );
    let (_, full) = stored.checkpoint.unwrap();
    let delta_at = pdm_wal::log::HEADER + full.len();
    image.checkpoint[delta_at + pdm_wal::log::HEADER + 4] ^= 0x40;

    let cfg = DurabilityConfig::default().with_interval(4);
    let err = recover_server(image, &cfg).expect_err("a corrupt delta must be fatal");
    match SessionError::from(err) {
        SessionError::CorruptLog {
            offset,
            expected,
            found,
        } => {
            assert_eq!(offset, delta_at, "the delta starts after the full frame");
            assert_ne!(expected, found);
        }
        other => panic!("expected CorruptLog, got {other:?}"),
    }
}

/// Checkpoint work follows the change: k one-row UPDATEs that cross the
/// interval install a delta of exactly those k rows, a small fraction of
/// the full frame, and recovery applies it.
#[test]
fn k_one_row_updates_checkpoint_as_a_k_row_delta() {
    const K: usize = 8;
    let spec = TreeSpec::new(4, 4, 1.0).with_node_size(64);
    let server = durable_server(&spec, CrashPlan::none(), K as u64);
    for (i, id) in roots(&server).into_iter().take(K).enumerate() {
        server
            .execute_deadline_obs(
                &format!("UPDATE assy SET payload = 'pin{i}' WHERE obid = {id}"),
                None,
                &Recorder::disabled(),
            )
            .unwrap();
    }
    let durability = server.durability().unwrap();
    let frames = durability.checkpoint_frames();
    assert_eq!(frames.len(), 2, "a full frame and one delta: {frames:?}");
    assert!(
        10 * frames[1] < frames[0],
        "a {K}-row delta of {} bytes against a {}-byte full frame",
        frames[1],
        frames[0]
    );
    let (recovered, report) = recover(durability.image(), K as u64).unwrap();
    assert_eq!(report.delta_rows, [K]);
    check_recovered(&server, &recovered, &[]).unwrap();
}

/// Satellite: torn-tail damage in the LOG (as opposed to the checkpoint) is
/// a normal crash artifact — recovery tolerates it and reports what was
/// truncated.
#[test]
fn torn_log_tail_is_truncated_and_reported() {
    let server = victim(CrashPlan::none());
    scripted_workload(&server, WORKLOAD_SEED, 12);
    let mut image = server.shared().durability().unwrap().image();
    // Chop mid-record: strictly inside the last frame.
    image.log.truncate(image.log.len() - 3);

    let (recovered, report) = recover(image.clone(), NO_CHECKPOINTS).unwrap();
    assert!(
        report.tail_damage.is_some(),
        "truncated tail should be reported"
    );
    let (reference_fp, _) = reference_replay(&image);
    assert_eq!(database_fingerprint(recovered.database()), reference_fp);
}
