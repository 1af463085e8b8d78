#![allow(clippy::unwrap_used)]

//! End-to-end replication suite (the tentpole invariants of the
//! replication PR).
//!
//! * **Failover sweep** — ≥100 enumerated seeded points: a scripted
//!   multi-site workload runs against a cluster with lossy ship links and
//!   the primary is killed (promotion forced) after EVERY workload step,
//!   across several fault seeds. At every point the promoted primary must
//!   be byte-identical to a serial replay of the old primary's durable-log
//!   prefix ([`pdm_core::replay_prefix`] — the crash-recovery oracle), no
//!   acknowledged commit may be lost, and no stale check-out grant may
//!   survive promotion.
//!   A second leg of the sweep checkpoints every few records, so its cuts
//!   lie beyond the first feed rebase and the report's epoch base is a
//!   moved one.
//! * **Laggard re-seed** — a site whose ship link is down past the feed's
//!   retention bound is re-bootstrapped from the moved base, converges
//!   byte-identically and keeps read-your-writes.
//! * **Read-your-writes stress** — ≥4 sites over lossy links: every
//!   un-annotated read observes the session's last acknowledged write.
//! * **Lease failover through the writer path** — an outage outliving the
//!   lease promotes, redirects writers to the new epoch, and heals the
//!   deposed primary back in as a replica once its outage ends.
//! * **Timeout taxonomy** — [`SessionError::ReplicaLagTimeout`] names
//!   `repl.wait_watermark` as the expiring span and
//!   [`SessionError::PrimaryUnavailable`] names `net.exchange`; the
//!   degradation controller's staleness rung converts repeated lag
//!   timeouts into explicitly annotated stale reads.

use pdm_bench::harness::{
    cluster, connect, connect_all, converge, drive_step, flagged_ids, roots, Client,
};
use pdm_core::repl::RETENTION_INTERVALS;
use pdm_core::{
    replay_prefix, Cluster, ClusterConfig, DurabilityConfig, ProductTree, RetryPolicy,
    RoutedSession, SessionError,
};
use pdm_net::{FaultPlan, OutageWindow};
use pdm_prng::splitmix64;
use pdm_sql::Value;
use pdm_workload::{multisite_plan, SiteStep, TreeSpec};

fn small_cluster(cfg: ClusterConfig) -> Cluster {
    cluster(&TreeSpec::new(2, 2, 1.0).with_node_size(64), cfg)
}

/// Drive the write steps of `plan`, each through its site's session.
fn drive_writes(
    cluster: &mut Cluster,
    sessions: &mut [RoutedSession],
    held: &mut [Option<ProductTree>],
    plan: &[SiteStep],
) {
    for step in plan.iter().filter(|step| step.op.is_write()) {
        let client = Client::Routed(&mut sessions[step.site], cluster);
        drive_step(client, &mut held[step.site], &step.op).unwrap();
    }
}

/// One enumerated failover point: run `cut + 1` workload steps on a
/// cluster checkpointing every `interval` records, force promotion, verify
/// the failover invariants, then keep writing in the new epoch and
/// converge every survivor. Returns whether the feed's base had moved by
/// the time of the promotion.
fn failover_point(seed: u64, cut: usize, interval: u64) -> bool {
    let faults = FaultPlan::lossy(splitmix64(seed ^ cut as u64), 0.2).with_stall_rate(0.1);
    let cfg = ClusterConfig::default()
        .with_replicas(3)
        .with_ship_faults(faults)
        .with_max_pump_rounds(512)
        .with_durability(DurabilityConfig::default().with_interval(interval));
    let mut cluster = small_cluster(cfg);
    let roots = roots(cluster.primary());
    let mut sessions = connect_all(&cluster);
    let mut held: Vec<Option<ProductTree>> = vec![None; sessions.len()];

    let plan = multisite_plan(seed, sessions.len(), cut + 1, &roots);
    drive_writes(&mut cluster, &mut sessions, &mut held, &plan);

    // Kill the primary: promote the most caught-up replica.
    let rebased = cluster.feed().base_seq() > 0;
    cluster.promote().unwrap();
    assert_eq!(cluster.failovers().len(), 1);
    let report = cluster.failovers()[0].clone();
    assert_eq!(report.old_epoch, 1);
    assert_eq!(report.new_epoch, 2);
    assert_eq!(cluster.epoch(), 2);

    // Oracle: the promoted state is the serial replay of the durable-log
    // prefix through its watermark, byte for byte.
    let oracle = replay_prefix(&report.epoch_base, &report.prefix).unwrap();
    assert_eq!(
        oracle, report.promoted_fingerprint,
        "seed {seed} cut {cut}: promoted site {} at seq {} diverged from serial replay",
        report.promoted_site, report.promoted_seq
    );
    assert!(report
        .prefix
        .iter()
        .all(|(seq, _)| *seq <= report.promoted_seq));
    assert_eq!(rebased, report.prefix.len() as u64 != report.promoted_seq);

    // No acknowledged commit of the old epoch is beyond the surviving
    // prefix — semi-synchronous ack means promotion never loses one.
    for acked in cluster.acked_writes() {
        if acked.epoch == report.old_epoch {
            assert!(
                acked.seq <= report.promoted_seq,
                "seed {seed} cut {cut}: acked seq {} lost (promoted seq {})",
                acked.seq,
                report.promoted_seq
            );
        }
    }

    // Zero stale grants: promotion sweeps exactly like crash recovery.
    let d = cluster.primary().shared().durability().unwrap();
    assert!(
        d.outstanding_grants().is_empty(),
        "seed {seed} cut {cut}: grants survived promotion"
    );
    assert!(flagged_ids(cluster.primary(), "assy").is_empty());
    assert!(flagged_ids(cluster.primary(), "comp").is_empty());

    // Writers continue against the new epoch.
    let post = multisite_plan(splitmix64(seed) ^ 0xF0, sessions.len(), 6, &roots);
    drive_writes(&mut cluster, &mut sessions, &mut held, &post);
    for s in &sessions {
        if let Some(receipt) = s.last_write() {
            assert!(receipt.epoch <= 2);
        }
    }

    // Every survivor converges onto the new primary (ship_once runs the
    // divergence digest check on the way).
    converge(&mut cluster);
    let fp = cluster.primary_fingerprint();
    for s in cluster.replica_sites() {
        assert_eq!(cluster.replica(s).unwrap().fingerprint(), fp);
    }
    rebased
}

/// ≥100 enumerated failover points: every workload cut × several fault
/// seeds, then late cuts on a cluster whose feed has rebased before the
/// primary dies.
#[test]
fn failover_sweep_matches_serial_replay_oracle() {
    let mut points = 0;
    for seed in [0xA1, 0xB2, 0xC3] {
        for cut in 0..35 {
            failover_point(seed, cut, DurabilityConfig::default().checkpoint_interval);
            points += 1;
        }
    }
    assert!(points >= 100, "sweep must cover at least 100 points");

    let mut beyond_a_rebase = 0;
    for seed in [0xA1, 0xB2, 0xC3] {
        for cut in (14..35).step_by(4) {
            beyond_a_rebase += usize::from(failover_point(seed, cut, 4));
        }
    }
    assert!(
        beyond_a_rebase >= 12,
        "only {beyond_a_rebase} failovers promoted from a moved base"
    );
}

/// A site whose ship link stays down while the feed fills to its retention
/// bound is not waited for: the base moves without it. The snapshot that
/// would re-seed it is a frame like any other and is lost on the dead link,
/// so the site leaves the topology — a generation change: its session
/// reads at the primary meanwhile, read-your-writes intact — and every ship
/// round sends a fresh one, until the link is back, the site is seeded at
/// the head and follows the primary like any other replica.
#[test]
fn laggard_past_the_retention_bound_is_reseeded() {
    const INTERVAL: u64 = 4;
    let cfg = ClusterConfig::default()
        .with_replicas(2)
        .with_durability(DurabilityConfig::default().with_interval(INTERVAL));
    let mut cluster = small_cluster(cfg);
    let root = roots(cluster.primary())[0];
    let mut near = connect(&cluster, 1);
    let mut far = connect(&cluster, 2);
    let generation = cluster.generation();
    let payload_at = |session: &RoutedSession| {
        let sql = format!("SELECT payload FROM assy WHERE obid = {root}");
        let seen = session.read_session().server().query(&sql).unwrap();
        seen.rows[0].get(0).clone()
    };

    // Every failed frame burns the link's 30 s timeout of the window: the
    // link is down for the first 40 of them, far longer than the bound.
    let bound = RETENTION_INTERVALS * INTERVAL;
    cluster.schedule_ship_outage(2, OutageWindow::new(0.0, 40.0 * 30.0));
    let mut left_at = None;
    for i in 0..bound + INTERVAL {
        let sql = format!("UPDATE assy SET payload = 'w{i}' WHERE obid = {root}");
        near.execute_dml(&mut cluster, &sql).unwrap();
        assert!(cluster.feed().retained() as u64 <= bound);
        assert_eq!(
            replay_prefix(cluster.epoch_base(), &cluster.feed().since(0)).unwrap(),
            cluster.primary_fingerprint()
        );
        if cluster.generation() > generation && left_at.is_none() {
            left_at = Some(i + 1);
        }
    }
    assert_eq!(
        left_at,
        Some(bound),
        "the laggard goes when the bound fills"
    );
    assert_eq!(cluster.feed().len() as u64, bound + INTERVAL);
    // The window charged the snapshot like any ship: no site was seeded
    // through a dead link, and the lost frames are counted.
    assert!(cluster.replica(2).is_none(), "site 2's link is still down");
    let lost = cluster.metrics().snapshot().counter("repl.ship_failures");
    assert!(
        lost >= bound + INTERVAL,
        "a frame per round, batch or snapshot"
    );

    // Read-your-writes at the site without a replica: its session has
    // re-resolved its read server to the primary.
    let sql = format!("UPDATE assy SET payload = 'mine' WHERE obid = {root}");
    far.execute_dml(&mut cluster, &sql).unwrap();
    let out = far.multi_level_expand(&mut cluster, root).unwrap();
    assert!(out.staleness.is_none());
    assert_eq!(payload_at(&far), Value::Text("mine".into()));

    // The rounds go on retrying; the first one past the window seeds the
    // site at the head, from the primary's bytes.
    let mut rounds = 0;
    while cluster.replica(2).is_none() {
        cluster.pump().unwrap();
        rounds += 1;
        assert!(rounds < 40, "site 2 was never seeded");
    }
    assert_eq!(cluster.lag(2), 0);
    assert_eq!(
        cluster.replica(2).unwrap().fingerprint(),
        cluster.primary_fingerprint()
    );

    // Back in the topology it is a replica like any other: the session
    // reads there again, behind its own writes' watermark.
    let sql = format!("UPDATE assy SET payload = 'again' WHERE obid = {root}");
    let (_, receipt) = far.execute_dml(&mut cluster, &sql).unwrap();
    let out = far.multi_level_expand(&mut cluster, root).unwrap();
    assert!(out.staleness.is_none());
    assert!(cluster.replica(2).unwrap().applied_seq() >= receipt.seq);
    assert_eq!(payload_at(&far), Value::Text("again".into()));
    cluster.pump().unwrap();
    for site in cluster.replica_sites() {
        assert_eq!(cluster.lag(site), 0);
        assert_eq!(
            cluster.replica(site).unwrap().fingerprint(),
            cluster.primary_fingerprint()
        );
    }
    assert_eq!(cluster.replica_sites(), [1, 2]);
}

/// The rebase is a round's decision, taken when every site has had its
/// ship: a replica is not behind for coming later in the pump order, so a
/// round that catches everybody up moves the base and re-seeds nobody.
#[test]
fn a_round_judges_its_replicas_after_shipping_to_all_of_them() {
    const INTERVAL: u64 = 4;
    let cfg = ClusterConfig::default()
        .with_replicas(2)
        .with_ack_replicas(0) // nothing ships until the test pumps
        .with_durability(DurabilityConfig::default().with_interval(INTERVAL));
    let mut cluster = small_cluster(cfg);
    let root = roots(cluster.primary())[0];
    let mut session = connect(&cluster, 1);
    let bound = RETENTION_INTERVALS * INTERVAL;
    for i in 0..bound {
        let sql = format!("UPDATE assy SET payload = 'w{i}' WHERE obid = {root}");
        session.execute_dml(&mut cluster, &sql).unwrap();
    }
    assert_eq!(cluster.feed().retained() as u64, bound);
    assert_eq!((cluster.lag(1), cluster.lag(2)), (bound, bound));

    let generation = cluster.generation();
    assert_eq!(cluster.pump().unwrap(), 2 * bound);
    assert_eq!(cluster.feed().retained(), 0, "the base did not move");
    assert_eq!(
        cluster.generation(),
        generation,
        "a replica the round had not reached yet was re-seeded"
    );
    let shipped = cluster.metrics().snapshot().counter("repl.records_shipped");
    assert_eq!(shipped, 2 * bound, "both sites took the incremental path");
    assert_eq!(
        replay_prefix(cluster.epoch_base(), &cluster.feed().since(0)).unwrap(),
        cluster.primary_fingerprint()
    );
}

/// A re-seed lost on the laggard's link parks the site until the NEXT
/// round: the round that decided the rebase sends the snapshot once.
#[test]
fn a_lost_reseed_waits_for_the_next_round() {
    const INTERVAL: u64 = 4;
    let cfg = ClusterConfig::default()
        .with_replicas(2)
        .with_durability(DurabilityConfig::default().with_interval(INTERVAL));
    let mut cluster = small_cluster(cfg);
    let root = roots(cluster.primary())[0];
    let mut session = connect(&cluster, 1);
    session.enable_tracing(7);
    cluster.schedule_ship_outage(2, OutageWindow::new(0.0, 1e9));
    // The frames the last write's acknowledgement sent towards site 2.
    let mut write = |cluster: &mut Cluster| -> Vec<String> {
        let sql = format!("UPDATE assy SET payload = 'w' WHERE obid = {root}");
        session.execute_dml(cluster, &sql).unwrap();
        let tree = session.last_trace().unwrap();
        let frames = tree.spans.iter().filter(|s| s.label.ends_with("site2"));
        frames.map(|s| s.label.clone()).collect()
    };

    let generation = cluster.generation();
    let mut frames = Vec::new();
    while cluster.generation() == generation {
        frames = write(&mut cluster);
        assert!(cluster.feed().len() < 64, "site 2 never left the topology");
    }
    // Its batch, lost; then the rebase and its snapshot, lost — once.
    assert_eq!(frames, ["site2", "reseed site2"]);
    assert!(cluster.replica(2).is_none());
    assert_eq!(write(&mut cluster), ["reseed site2"], "one retry a round");
}

/// Read-your-writes over 4 sites with lossy ship links: every read that
/// comes back un-annotated observes the session's last acknowledged write.
#[test]
fn read_your_writes_holds_across_four_sites() {
    let faults = FaultPlan::lossy(0xD00D, 0.3).with_stall_rate(0.15);
    let cfg = ClusterConfig::default()
        .with_replicas(4)
        .with_ship_faults(faults)
        .with_max_pump_rounds(512);
    let mut cluster = small_cluster(cfg);
    let roots = roots(cluster.primary());
    let sites = cluster.replica_sites();
    assert!(sites.len() >= 4);
    let mut sessions = connect_all(&cluster);
    let mut held: Vec<Option<ProductTree>> = vec![None; sessions.len()];

    let plan = multisite_plan(0x0512_D00D, sessions.len(), 80, &roots);
    let mut reads = 0;
    for step in &plan {
        let i = step.site;
        let client = Client::Routed(&mut sessions[i], &mut cluster);
        let ran = drive_step(client, &mut held[i], &step.op).unwrap();
        if !step.op.is_write() {
            let read = ran.expect("a read always runs");
            assert!(
                read.staleness.is_none(),
                "unbounded wait must never go stale"
            );
            reads += 1;
        }
        // The watermark invariant behind the guarantee: after an
        // un-annotated read, the site's replica is at or past the
        // session's last acknowledged write.
        if let Some(receipt) = sessions[i].last_write() {
            if receipt.epoch == cluster.epoch() {
                if let Some(replica) = cluster.replica(sites[i]) {
                    if !step.op.is_write() {
                        assert!(
                            replica.applied_seq() >= receipt.seq,
                            "site {} read below its own write: applied {} < seq {}",
                            sites[i],
                            replica.applied_seq(),
                            receipt.seq
                        );
                    }
                }
            }
        }
    }
    assert!(reads > 10, "plan exercised too few reads");

    let snap = cluster.metrics().snapshot();
    assert!(snap.counter("repl.acked_writes") > 0);
    assert!(snap.counter("repl.ship_batches") > 0);
    assert!(
        snap.counter("repl.watermark_waits") > 0,
        "no watermark wait ever ran"
    );
    assert_eq!(snap.counter("repl.stale_reads"), 0);
}

/// An outage outliving the lease promotes through the writer path: the
/// writer waits out the lease, the cluster fences the old epoch, and the
/// deposed primary heals back in as a replica when its outage ends.
#[test]
fn lease_expiry_promotes_and_heals_deposed_primary() {
    let cfg = ClusterConfig::default().with_replicas(2).with_lease(30.0);
    let mut cluster = small_cluster(cfg);
    let roots = roots(cluster.primary());
    let mut session = connect(&cluster, 1);

    // Seed some replicated history first.
    session
        .execute_dml(
            &mut cluster,
            &format!(
                "UPDATE assy SET payload = 'before' WHERE obid = {}",
                roots[0]
            ),
        )
        .unwrap();
    assert_eq!(session.last_write().unwrap().epoch, 1);

    // Outage far outliving the lease: the next write waits to lease
    // expiry, promotes, and lands in epoch 2.
    let start = cluster.clock();
    cluster.schedule_outage(OutageWindow::new(start, start + 1000.0));
    let (_, receipt) = session
        .execute_dml(
            &mut cluster,
            &format!(
                "UPDATE assy SET payload = 'after' WHERE obid = {}",
                roots[0]
            ),
        )
        .unwrap();
    assert_eq!(receipt.epoch, 2);
    assert_eq!(cluster.epoch(), 2);
    assert_eq!(cluster.failovers().len(), 1);
    let report = &cluster.failovers()[0];
    assert_eq!(
        replay_prefix(&report.epoch_base, &report.prefix).unwrap(),
        report.promoted_fingerprint
    );
    assert!(
        !cluster.replica_sites().contains(&0),
        "deposed primary must be out of the topology while down"
    );

    // Burn virtual time past the outage end; the deposed site re-bootstraps
    // from the new primary's snapshot and converges.
    while cluster.clock() < start + 1000.0 {
        session
            .execute_dml(
                &mut cluster,
                &format!("UPDATE assy SET payload = 'tick' WHERE obid = {}", roots[0]),
            )
            .unwrap();
        cluster.advance(50.0);
    }
    cluster.pump().unwrap();
    assert!(
        cluster.replica_sites().contains(&0),
        "deposed primary never healed back in"
    );
    converge(&mut cluster);
    assert_eq!(
        cluster.replica(0).unwrap().fingerprint(),
        cluster.primary_fingerprint()
    );
    assert_eq!(cluster.replica(0).unwrap().epoch(), 2);
}

/// A watermark wait that cannot make progress fails with
/// [`SessionError::ReplicaLagTimeout`] whose flight dump names
/// `repl.wait_watermark` as the expiring span.
#[test]
fn replica_lag_timeout_names_the_expiring_span() {
    // Dead ship links (every exchange stalls) + async ack so the write
    // itself succeeds.
    let cfg = ClusterConfig::default()
        .with_replicas(2)
        .with_ship_faults(FaultPlan::none().with_stall_rate(1.0).with_seed(7))
        .with_ack_replicas(0);
    let mut cluster = small_cluster(cfg);
    let roots = roots(cluster.primary());
    let mut session = connect(&cluster, 1);
    session.set_retry_policy(RetryPolicy::none().with_deadline(0.05));

    session
        .execute_dml(
            &mut cluster,
            &format!("UPDATE assy SET payload = 'w' WHERE obid = {}", roots[0]),
        )
        .unwrap();

    let err = session
        .multi_level_expand(&mut cluster, roots[0])
        .unwrap_err();
    match &err {
        SessionError::ReplicaLagTimeout {
            seq,
            applied,
            context,
            ..
        } => {
            assert!(*seq > *applied);
            assert_eq!(context.expired_in, "repl.wait_watermark");
        }
        other => panic!("expected ReplicaLagTimeout, got {other}"),
    }
    assert_eq!(err.context().unwrap().expired_in, "repl.wait_watermark");
    assert!(err.is_link_failure());
    assert!(format!("{err}").contains("repl.wait_watermark"));
    assert!(
        cluster
            .metrics()
            .snapshot()
            .counter("repl.watermark_timeouts")
            >= 1
    );
}

/// A primary outage that outlives the session's patience fails with
/// [`SessionError::PrimaryUnavailable`] whose flight dump names
/// `net.exchange` as the expiring span.
#[test]
fn primary_unavailable_names_the_expiring_span() {
    let cfg = ClusterConfig::default().with_replicas(2).with_lease(30.0);
    let mut cluster = small_cluster(cfg);
    let roots = roots(cluster.primary());
    let mut session = connect(&cluster, 1);
    session.set_retry_policy(RetryPolicy::none().with_deadline(1.0));

    // Outage shorter than the lease (no failover) but longer than the
    // session is willing to wait.
    let start = cluster.clock();
    cluster.schedule_outage(OutageWindow::new(start, start + 5.0));
    let err = session
        .execute_dml(
            &mut cluster,
            &format!("UPDATE assy SET payload = 'x' WHERE obid = {}", roots[0]),
        )
        .unwrap_err();
    match &err {
        SessionError::PrimaryUnavailable { until, context } => {
            assert!((*until - (start + 5.0)).abs() < 1e-9);
            assert_eq!(context.expired_in, "net.exchange");
        }
        other => panic!("expected PrimaryUnavailable, got {other}"),
    }
    assert!(err.is_link_failure());
    assert_eq!(cluster.epoch(), 1, "short outage must not promote");
}

/// Repeated lag timeouts open the staleness rung: reads degrade to the
/// lagging replica with an explicit annotation instead of failing, and a
/// half-open probe re-checks the watermark every cooldown.
#[test]
fn staleness_rung_serves_annotated_reads() {
    let cfg = ClusterConfig::default()
        .with_replicas(2)
        .with_ship_faults(FaultPlan::none().with_stall_rate(1.0).with_seed(9))
        .with_ack_replicas(0);
    let mut cluster = small_cluster(cfg);
    let roots = roots(cluster.primary());
    let mut session = connect(&cluster, 1);
    session.set_retry_policy(RetryPolicy::none().with_deadline(0.05));

    let (_, receipt) = session
        .execute_dml(
            &mut cluster,
            &format!("UPDATE assy SET payload = 'w' WHERE obid = {}", roots[0]),
        )
        .unwrap();

    // Default controller trips after 2 consecutive lag failures; the
    // second failure trips the rung and that same read degrades to an
    // annotated stale read instead of surfacing the error.
    let err = session
        .multi_level_expand(&mut cluster, roots[0])
        .unwrap_err();
    assert!(matches!(err, SessionError::ReplicaLagTimeout { .. }));
    assert!(!session.read_session().degradation().is_stale_open());

    let out = session.multi_level_expand(&mut cluster, roots[0]).unwrap();
    assert!(session.read_session().degradation().is_stale_open());
    let staleness = out.staleness.expect("read must carry its annotation");
    assert_eq!(staleness.required_seq, receipt.seq);
    assert!(staleness.applied_seq < staleness.required_seq);
    assert!(cluster.metrics().snapshot().counter("repl.stale_reads") >= 1);
    assert!(session.read_session().degradation().stale_reads_served() >= 1);

    // Every `cooldown` (default 8) stale reads, one probe retries the full
    // watermark wait — the link is still dead, so it fails again.
    let mut probe_failed = false;
    for _ in 0..12 {
        match session.multi_level_expand(&mut cluster, roots[0]) {
            Ok(out) => assert!(out.staleness.is_some()),
            Err(SessionError::ReplicaLagTimeout { .. }) => {
                probe_failed = true;
                break;
            }
            Err(other) => panic!("unexpected error {other}"),
        }
    }
    assert!(probe_failed, "half-open probe never ran");
}

/// What was set on the read session through `read_session_mut()` outlives
/// a topology change: the routed session re-points its two sessions at the
/// new servers, it does not rebuild them.
#[test]
fn read_session_settings_survive_a_promotion() {
    let mut cluster = small_cluster(ClusterConfig::default().with_replicas(2));
    let root = roots(cluster.primary())[0];
    let mut session = connect(&cluster, 1);
    // A read link on which every exchange stalls, and three attempts at it.
    let plan = FaultPlan::none().with_stall_rate(1.0).with_seed(5);
    let policy = RetryPolicy::default_wan().with_max_attempts(3);
    session.read_session_mut().set_fault_plan(plan.clone());
    session.read_session_mut().set_retry_policy(policy.clone());
    let attempts = |session: &mut RoutedSession, cluster: &mut Cluster| match session
        .multi_level_expand(cluster, root)
    {
        Err(SessionError::Timeout { attempts, .. }) => attempts,
        other => panic!("the stalling link served a read: {other:?}"),
    };
    assert_eq!(attempts(&mut session, &mut cluster), 3);

    // Site 1 is promoted: its session now reads at the new primary, over
    // the same stalling link, under the same policy.
    let replica = cluster.read_server(1);
    cluster.promote().unwrap();
    assert_eq!(attempts(&mut session, &mut cluster), 3);
    let reads = session.read_session();
    assert!(std::sync::Arc::ptr_eq(
        reads.server().shared(),
        cluster.primary().shared()
    ));
    assert!(!std::sync::Arc::ptr_eq(
        reads.server().shared(),
        replica.shared()
    ));
    assert_eq!(reads.fault_plan(), Some(&plan));
    assert_eq!(reads.retry_policy(), &policy);
}

/// Resident set size of this process in kB (0 where `/proc` is absent).
fn rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
        .map_or(0, |pages| pages * 4)
}

/// What a long-lived cluster keeps per write: nothing. Untraced, neither
/// inner session retains a span and the loss oracle holds one entry per
/// epoch; traced, what is retained is the last action — exactly the spans
/// its tree was assembled from. Prints the resident-set growth per write
/// (`--nocapture`; EXPERIMENTS.md quotes it run alone).
#[test]
fn routed_writes_retain_no_spans_and_one_ack_per_epoch() {
    const WRITES: u64 = 10_000;
    let mut cluster = small_cluster(ClusterConfig::default().with_replicas(2));
    let root = roots(cluster.primary())[0];
    let mut session = connect(&cluster, 1);
    let write = |cluster: &mut Cluster, session: &mut RoutedSession, i: u64| {
        let sql = format!("UPDATE assy SET payload = 'w{}' WHERE obid = {root}", i % 7);
        session.execute_dml(cluster, &sql).unwrap();
    };
    for i in 0..100 {
        write(&mut cluster, &mut session, i); // warm the allocator
    }
    let before = rss_kb();
    for i in 100..WRITES {
        write(&mut cluster, &mut session, i);
    }
    let grown = rss_kb().saturating_sub(before);
    eprintln!(
        "rss: +{grown} kB over {} routed writes = {:.1} B per write",
        WRITES - 100,
        grown as f64 * 1024.0 / (WRITES - 100) as f64
    );
    assert!(session.read_session().recorder().spans().is_empty());
    assert!(session.write_session().recorder().spans().is_empty());
    assert!(cluster.acked_writes().len() as u64 <= cluster.epoch());
    let acked = cluster.metrics().snapshot().counter("repl.acked_writes");
    assert_eq!(acked, WRITES, "the counter still counts every ack");

    session.enable_tracing(0x5EED);
    for i in 0..3 {
        write(&mut cluster, &mut session, i);
    }
    let tree = session.last_trace().unwrap();
    let retained = session.write_session().recorder().spans().len();
    assert_eq!(
        retained + 1,
        tree.spans.len(),
        "the recorder holds the last action's spans (the tree's, less its synthetic root)"
    );
}
