#![allow(clippy::unwrap_used)]

//! Property tests on the replication layer. The load-bearing property is
//! the crash-recovery equivalence the failover design rests on: **serially
//! replaying any durable-log prefix onto the epoch-base snapshot
//! reproduces the primary's state fingerprint at that sequence**, for any
//! seeded interleaving of DML, check-outs, and check-ins, under any seeded
//! ship-link fault stream.
//!
//! Uses the in-repo `pdm_prng::check` harness (explicit generator loops)
//! instead of proptest, which the offline build cannot fetch.

use pdm_bench::harness::{cluster, connect, connect_all, converge, drive_step, roots, Client};
use pdm_core::repl::RETENTION_INTERVALS;
use pdm_core::{replay_prefix, Cluster, ClusterConfig, DurabilityConfig, ProductTree};
use pdm_net::FaultPlan;
use pdm_prng::check::cases;
use pdm_prng::Prng;
use pdm_workload::{multisite_plan, TreeSpec};

fn arb_cluster(rng: &mut Prng) -> Cluster {
    arb_cluster_checkpointing(rng, DurabilityConfig::default().checkpoint_interval)
}

/// A random cluster whose primary checkpoints — and whose feed may rebase
/// — every `interval` records.
fn arb_cluster_checkpointing(rng: &mut Prng, interval: u64) -> Cluster {
    let depth = rng.u32_inclusive(2, 3);
    let branching = rng.u32_inclusive(2, 3);
    let faults = if rng.bool() {
        FaultPlan::lossy(rng.u64_inclusive(1, 1 << 40), rng.f64_range(0.0, 0.25))
            .with_stall_rate(rng.f64_range(0.0, 0.15))
    } else {
        FaultPlan::none()
    };
    let cfg = ClusterConfig::default()
        .with_replicas(rng.usize_inclusive(2, 4))
        .with_ship_faults(faults)
        .with_max_pump_rounds(256)
        .with_durability(DurabilityConfig::default().with_interval(interval));
    cluster(
        &TreeSpec::new(depth, branching, 1.0).with_node_size(64),
        cfg,
    )
}

/// Every replica that is at lag 0 right now holds the primary's exact
/// state: the same database bytes, and — replayed side vs live side of the
/// one record state machine — the same outstanding-grant tracker and the
/// same set of retained idempotency tokens.
fn assert_lag_zero_replicas_match(cluster: &Cluster) {
    let primary_fp = cluster.primary_fingerprint();
    let durability = cluster.primary().durability().unwrap();
    let primary_grants = durability.outstanding_grants();
    let primary_tokens = durability.retained_tokens();
    for s in cluster.replica_sites() {
        if cluster.lag(s) != 0 {
            continue;
        }
        let replica = cluster.replica(s).unwrap();
        assert_eq!(
            replica.fingerprint(),
            primary_fp,
            "site {s} caught up to a different state"
        );
        assert_eq!(
            replica.grants(),
            &primary_grants,
            "site {s} tracks different outstanding grants"
        );
        assert_eq!(
            replica.retained_tokens(),
            primary_tokens,
            "site {s} retains different idempotency tokens"
        );
    }
}

/// Replaying any recorded prefix of the durable log onto the epoch base
/// reproduces the primary fingerprint observed at that sequence.
#[test]
fn prefix_replay_matches_primary_at_seq() {
    cases(
        "prefix_replay_matches_primary_at_seq",
        10,
        0x5EED_0001,
        |rng| {
            let mut cluster = arb_cluster(rng);
            let roots = roots(cluster.primary());
            let mut sessions = connect_all(&cluster);
            let mut held: Vec<Option<ProductTree>> = vec![None; sessions.len()];

            // Drive a seeded interleaving of writes from every site, recording
            // the primary's fingerprint after each acknowledged write.
            let plan = multisite_plan(rng.u64_inclusive(0, 1 << 40), sessions.len(), 24, &roots);
            let mut observed: Vec<(u64, Vec<u8>)> = Vec::new();
            // Reads don't extend the log; skip them here.
            for step in plan.iter().filter(|step| step.op.is_write()) {
                let client = Client::Routed(&mut sessions[step.site], &mut cluster);
                let ran = drive_step(client, &mut held[step.site], &step.op).unwrap();
                if ran.is_none() {
                    continue;
                }
                observed.push((cluster.feed().last_seq(), cluster.primary_fingerprint()));
                assert_lag_zero_replicas_match(&cluster);
            }
            assert!(!observed.is_empty(), "plan produced no writes");

            // Any recorded cut point the feed still covers (all of them,
            // unless the base moved) replays byte-identically.
            let base = cluster.epoch_base().to_vec();
            observed.retain(|(seq, _)| *seq >= cluster.feed().base_seq());
            let (seq, fp) = &observed[rng.index(observed.len())];
            let prefix = cluster.feed().prefix_through(*seq);
            assert_eq!(
                &replay_prefix(&base, &prefix).unwrap(),
                fp,
                "prefix replay through seq {seq} diverged from primary"
            );

            // The full log replays to the primary's current state.
            let full = cluster.feed().prefix_through(cluster.feed().last_seq());
            assert_eq!(
                replay_prefix(&base, &full).unwrap(),
                cluster.primary_fingerprint(),
                "full replay diverged from primary"
            );

            // With check-outs still held, the caught-up replicas track the
            // same grants the primary logged live.
            converge(&mut cluster);
            assert_lag_zero_replicas_match(&cluster);
        },
    );
}

/// Every replica that catches up — through whatever seeded fault stream
/// its ship link inflicted — lands on the primary's exact state.
#[test]
fn caught_up_replicas_are_byte_identical() {
    cases(
        "caught_up_replicas_are_byte_identical",
        8,
        0x5EED_0002,
        |rng| {
            let mut cluster = arb_cluster(rng);
            let roots = roots(cluster.primary());
            let site = cluster.replica_sites()[0];
            let mut session = connect(&cluster, site);
            for _ in 0..10 {
                let root = roots[rng.index(roots.len())];
                let payload = rng.ident(4, 10);
                let sql = format!("UPDATE assy SET payload = '{payload}' WHERE obid = {root}");
                session.execute_dml(&mut cluster, &sql).unwrap();
            }
            // ship_once embeds the divergence check, so reaching lag 0 IS
            // the assertion — but compare explicitly anyway.
            converge(&mut cluster);
            assert_lag_zero_replicas_match(&cluster);
        },
    );
}

/// The feed's retention rule under rebases: with a checkpoint interval of
/// a few records the base moves many times in one plan, and after every
/// write the retained feed replayed onto the current epoch base is the
/// primary's state, the feed holds no more than the retention bound plus
/// the records of one action while `len()` still counts every record ever
/// published, and caught-up replicas — re-seeded laggards among them —
/// hold the primary's bytes, grants and tokens.
#[test]
fn feed_stays_bounded_across_rebases() {
    const INTERVAL: u64 = 4;
    cases("feed_stays_bounded_across_rebases", 8, 0x5EED_0003, |rng| {
        let mut cluster = arb_cluster_checkpointing(rng, INTERVAL);
        let roots = roots(cluster.primary());
        let mut sessions = connect_all(&cluster);
        let mut held: Vec<Option<ProductTree>> = vec![None; sessions.len()];

        let plan = multisite_plan(rng.u64_inclusive(0, 1 << 40), sessions.len(), 64, &roots);
        let (mut rebases, mut largest_action) = (0, 0);
        for step in &plan {
            let (base_before, head_before) = (cluster.feed().base_seq(), cluster.feed().last_seq());
            let client = Client::Routed(&mut sessions[step.site], &mut cluster);
            drive_step(client, &mut held[step.site], &step.op).unwrap();
            let feed = cluster.feed();
            rebases += usize::from(feed.base_seq() > base_before);
            largest_action = largest_action.max(feed.last_seq() - head_before);

            // Sequences run 1, 2, 3, … so the head counts every record.
            assert_eq!(feed.len() as u64, feed.last_seq());
            assert_eq!(feed.retained() as u64, feed.last_seq() - feed.base_seq());
            assert!(
                feed.retained() as u64 <= RETENTION_INTERVALS * INTERVAL + largest_action,
                "feed retains {} records",
                feed.retained()
            );
            assert_eq!(
                replay_prefix(cluster.epoch_base(), &feed.since(0)).unwrap(),
                cluster.primary_fingerprint(),
                "retained feed no longer replays onto the epoch base"
            );
            assert_lag_zero_replicas_match(&cluster);
        }
        assert!(rebases >= 3, "only {rebases} rebases in the plan");

        converge(&mut cluster);
        assert_lag_zero_replicas_match(&cluster);
    });
}
