#![allow(clippy::unwrap_used)]

//! Cross-site causal tracing properties (DESIGN.md §15).
//!
//! Three families of guarantees:
//!
//! 1. **Structure** — every assembled tree is a single rooted tree (no
//!    orphans, no cycles), its exclusive critical-path segments are
//!    disjoint and tile the timeline, and the segment sum reconciles
//!    *bit-exactly* with the action's virtual-clock duration, under
//!    arbitrary seeded fault plans. `TraceTree::validate` checks the
//!    tiling with `to_bits` cursor equality, so `validate().unwrap()`
//!    IS the disjointness + bit-exactness assertion.
//! 2. **Byte identity off** — a session that never enables tracing is
//!    indistinguishable, to the bit, from the pre-tracing code path:
//!    same results, same traffic stats, same virtual elapsed bits.
//!    Tracing ON changes only what the volume model says it must (the
//!    16-byte context piggyback per request), never the result rows.
//! 3. **Acceptance** — a seeded 4-site replication run (primary + 3
//!    replicas) yields a tail exemplar covering client, primary, and
//!    replica spans under one trace_id, and timeout-shaped failures
//!    carry the assembled tree in their `FlightDump`.

use pdm_bench::harness::{cluster, connect};
use pdm_core::{
    attribution, Cluster, ClusterConfig, RuleTable, Session, SessionConfig, Strategy, TailSampler,
    TraceContext,
};
use pdm_net::{FaultPlan, LinkProfile};
use pdm_prng::check::cases;
use pdm_prng::Prng;
use pdm_workload::{build_database, TreeSpec, VisibilityMode};

fn arb_spec(rng: &mut Prng) -> TreeSpec {
    let depth = rng.u32_inclusive(2, 4);
    let branching = rng.u32_inclusive(2, 3);
    let gamma = rng.f64_range(0.3, 1.0);
    TreeSpec::new(depth, branching, gamma)
        .with_node_size(96)
        .with_visibility(VisibilityMode::Deterministic)
}

fn session_with(spec: &TreeSpec, strategy: Strategy, link: LinkProfile) -> Session {
    let (db, _) = build_database(spec).unwrap();
    Session::new(
        db,
        SessionConfig::new("scott", strategy, link),
        RuleTable::new(),
    )
}

/// After a traced action, the tree must validate (single root, parents
/// before children, segments tile `[0, total_v]` bit-exactly) and its
/// total must be the same bits as the channel's virtual elapsed.
fn assert_reconciled(s: &Session) {
    let elapsed = s.elapsed();
    let tree = s.last_trace().expect("traced action must leave a tree");
    tree.validate().unwrap();
    assert_eq!(
        tree.total_v.to_bits(),
        elapsed.to_bits(),
        "tree total {} != channel elapsed {}",
        tree.total_v,
        elapsed
    );
    let attr = attribution(tree);
    assert_eq!(
        attr.total_v.to_bits(),
        tree.total_v.to_bits(),
        "attribution total drifted off the tree total"
    );
}

/// Structure + bit-exact reconciliation for single-session actions under
/// random fault plans (lossy links, stalls) across all three strategies.
#[test]
fn traced_trees_validate_and_reconcile_under_faults() {
    cases(
        "traced_trees_validate_and_reconcile_under_faults",
        24,
        0x77AC_0001,
        |rng| {
            let spec = arb_spec(rng);
            let strategy = Strategy::ALL[rng.index(Strategy::ALL.len())];
            let mut s = session_with(&spec, strategy, LinkProfile::wan_256());
            s.enable_tracing(rng.u64_inclusive(1, u64::MAX >> 1));
            if rng.bool() {
                s.set_fault_plan(
                    FaultPlan::lossy(rng.u64_inclusive(1, 1 << 40), rng.f64_range(0.0, 0.2))
                        .with_stall_rate(rng.f64_range(0.0, 0.1)),
                );
            }

            let expand = s.multi_level_expand(1);
            assert_reconciled(&s);
            if let Err(e) = &expand {
                // A timeout-shaped failure must carry its causal tree.
                if let Some(dump) = e.context() {
                    let tree = dump.trace.as_ref().expect("flight dump without trace");
                    tree.validate().unwrap();
                    assert_eq!(tree.outcome, e.kind_name());
                }
            }

            let _ = s.execute_update("UPDATE assy SET payload = 'trace' WHERE obid = 1");
            assert_reconciled(&s);

            let _ = s.query_all(1);
            assert_reconciled(&s);
        },
    );
}

/// Trace ids are deterministic: the same seed yields the same tree, bit
/// for bit, across two independent runs.
#[test]
fn traced_runs_are_deterministic() {
    let spec = TreeSpec::new(3, 3, 1.0).with_node_size(128);
    let mut trees = Vec::new();
    for _ in 0..2 {
        let mut s = session_with(&spec, Strategy::Recursive, LinkProfile::wan_512());
        s.enable_tracing(0xD5EED);
        s.multi_level_expand(1).unwrap();
        let mut tree = s.last_trace().unwrap().clone();
        // Wall nanoseconds are advisory real time, never deterministic.
        for span in &mut tree.spans {
            span.wall_ns = 0;
        }
        trees.push(tree);
    }
    assert_eq!(trees[0], trees[1]);
    assert_ne!(trees[0].trace_id, 0, "trace ids are non-zero");
}

/// Byte-identity differential: with tracing disabled the whole tracing
/// machinery is invisible — profiling-only and plain sessions produce
/// identical results, identical traffic stats, and identical virtual
/// elapsed bits. With tracing enabled the results are still identical;
/// only the modeled request volume grows by the context piggyback.
#[test]
fn tracing_off_is_byte_identical() {
    cases("tracing_off_is_byte_identical", 12, 0x77AC_0002, |rng| {
        let spec = arb_spec(rng);
        let strategy = Strategy::ALL[rng.index(Strategy::ALL.len())];

        let mut plain = session_with(&spec, strategy, LinkProfile::wan_256());
        let out_plain = plain.multi_level_expand(1).unwrap();

        // Profiling on, tracing off: the pre-change zero-cost path.
        let mut profiled = session_with(&spec, strategy, LinkProfile::wan_256());
        profiled.enable_profiling();
        let out_profiled = profiled.multi_level_expand(1).unwrap();

        assert_eq!(
            out_plain.tree.node_ids().collect::<Vec<_>>(),
            out_profiled.tree.node_ids().collect::<Vec<_>>()
        );
        assert_eq!(plain.stats(), profiled.stats());
        assert_eq!(plain.elapsed().to_bits(), profiled.elapsed().to_bits());

        // Tracing on: identical results; request volume grows by exactly
        // the 16-byte wire context per request, nothing else.
        let mut traced = session_with(&spec, strategy, LinkProfile::wan_256());
        traced.enable_tracing(1);
        let out_traced = traced.multi_level_expand(1).unwrap();
        assert_eq!(
            out_plain.tree.node_ids().collect::<Vec<_>>(),
            out_traced.tree.node_ids().collect::<Vec<_>>()
        );
        assert_eq!(traced.stats().queries, plain.stats().queries);
        assert_eq!(
            traced.stats().response_payload_bytes,
            plain.stats().response_payload_bytes
        );
        assert_eq!(TraceContext::WIRE_BYTES, 16);
    });
}

fn four_site_cluster(seed: u64) -> Cluster {
    let cfg = ClusterConfig::default()
        .with_replicas(3)
        .with_ship_faults(FaultPlan::lossy(seed, 0.05))
        .with_max_pump_rounds(256);
    cluster(&TreeSpec::new(3, 3, 1.0).with_node_size(96), cfg)
}

/// The acceptance run: a seeded 4-site cluster (primary + 3 replicas)
/// produces a tail exemplar whose segments are disjoint, cover client,
/// primary, and replica spans from a single trace_id, and sum bit-exactly
/// to the action's virtual-clock duration.
#[test]
fn four_site_run_produces_covering_tail_exemplar() {
    let mut cluster = four_site_cluster(0x45EED);
    let site = cluster.replica_sites()[0];
    let mut session = connect(&cluster, site);
    session.enable_tracing(0xACE1D);

    let mut sampler = TailSampler::new(0.0, 8);
    for root in [1i64, 1, 1] {
        let sql = format!("UPDATE assy SET payload = 'trace' WHERE obid = {root}");
        session.execute_dml(&mut cluster, &sql).unwrap();
        sampler.offer(session.last_trace().unwrap().clone());
        session.multi_level_expand(&mut cluster, root).unwrap();
        sampler.offer(session.last_trace().unwrap().clone());
    }
    assert!(sampler.retained > 0, "no tail exemplars retained");

    let exemplar = sampler.slowest().unwrap();
    exemplar.validate().unwrap();
    assert_ne!(exemplar.trace_id, 0);
    // Every span in the tree is, by construction, under this trace_id;
    // the coverage claim is about sites.
    let sites = exemplar.sites();
    assert!(
        sites.iter().any(|s| s.starts_with("client")),
        "no client span in {sites:?}"
    );
    // The write path must show primary-side work; replica applies show up
    // on the acknowledged ship. Scan all retained exemplars for one that
    // covers all three tiers from a single trace.
    let covering = sampler.exemplars().iter().find(|t| {
        let s = t.sites();
        s.iter().any(|x| x.starts_with("client"))
            && s.contains(&"primary")
            && s.iter().any(|x| x.starts_with("replica"))
    });
    let covering = covering.expect("no exemplar covers client+primary+replica");
    covering.validate().unwrap();
    let attr = attribution(covering);
    assert_eq!(attr.total_v.to_bits(), covering.total_v.to_bits());
    assert!(attr.classes.iter().any(|c| c.class == "repl.ship"));
}

/// Routed traces under seeded ship faults stay single-rooted and
/// bit-exact across a mixed read/write workload, including check-outs.
#[test]
fn routed_traces_validate_under_ship_faults() {
    cases(
        "routed_traces_validate_under_ship_faults",
        6,
        0x77AC_0003,
        |rng| {
            let mut cluster = four_site_cluster(rng.u64_inclusive(1, 1 << 40));
            let site = cluster.replica_sites()[rng.index(cluster.replica_sites().len())];
            let mut session = connect(&cluster, site);
            session.enable_tracing(rng.u64_inclusive(1, u64::MAX >> 1));

            for _ in 0..6 {
                match rng.index(3) {
                    0 => {
                        let sql = "UPDATE assy SET payload = 'x' WHERE obid = 1".to_string();
                        let _ = session.execute_dml(&mut cluster, &sql);
                    }
                    1 => {
                        let _ = session.multi_level_expand(&mut cluster, 1);
                    }
                    _ => {
                        let _ = session.query_all(&mut cluster, 1);
                    }
                }
                let tree = session.last_trace().expect("routed action left no tree");
                tree.validate().unwrap();
                let attr = attribution(tree);
                assert_eq!(attr.total_v.to_bits(), tree.total_v.to_bits());
            }
        },
    );
}

/// A replica-lag timeout carries the assembled tree — including the
/// open-and-closed watermark wait group — inside its `FlightDump`.
#[test]
fn replica_lag_timeout_carries_trace_tree() {
    let (db, _) = build_database(&TreeSpec::new(3, 3, 1.0).with_node_size(96)).unwrap();
    // ack_replicas = 0: writes acknowledge without shipping, so replicas
    // lag behind and a zero-deadline watermark wait must time out.
    let cfg = ClusterConfig::default()
        .with_replicas(3)
        .with_ack_replicas(0);
    let mut cluster = Cluster::new(db, cfg).unwrap();
    let site = cluster.replica_sites()[0];
    let mut session = connect(&cluster, site);
    session.enable_tracing(0xBAD_5EED);

    session
        .execute_dml(
            &mut cluster,
            "UPDATE assy SET payload = 'lag' WHERE obid = 1",
        )
        .unwrap();

    let mut policy = session.retry_policy().clone();
    policy.deadline = 0.0;
    session.set_retry_policy(policy);

    let err = session
        .multi_level_expand(&mut cluster, 1)
        .expect_err("read-your-writes must time out against a lagging replica");
    assert_eq!(err.kind_name(), "ReplicaLagTimeout");
    let dump = err.context().expect("lag timeout without flight dump");
    let tree = dump.trace.as_ref().expect("flight dump without trace tree");
    tree.validate().unwrap();
    assert_eq!(tree.outcome, "ReplicaLagTimeout");
    assert!(tree
        .spans
        .iter()
        .any(|s| s.kind.full_name() == "repl.wait_watermark"));
}
