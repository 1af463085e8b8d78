#![allow(clippy::unwrap_used)]

//! End-to-end observability (`pdm-obs`) over the full stack.
//!
//! * a profiled function-shipping check-out on a durable server yields one
//!   span tree covering ALL instrumented subsystems — session, compile,
//!   engine, cache, locks, WAL, network;
//! * span nesting is well-formed: children live inside their parents, no
//!   orphans, nothing left open;
//! * the profile's network attributes reconcile **bit-for-bit** with the
//!   channel's `TrafficStats` (same additions in the same order), and the
//!   summed leaf virtual times reconcile with the action total;
//! * profiling off is byte-identical: same rows, same traffic;
//! * the metrics registry carries the Table-1 quantities, the cache and
//!   lock counters, and the WAL fsync histogram in one snapshot;
//! * meta: every span kind a subsystem emits is declared in `kinds::ALL`.

use pdm_bench::harness::{durable_server, server, session, NO_CHECKPOINTS};
use pdm_core::{PdmServer, Session, Strategy, Subsystem};
use pdm_obs::{kinds, SpanRecord};
use pdm_wal::CrashPlan;
use pdm_workload::TreeSpec;

fn spec() -> TreeSpec {
    TreeSpec::new(3, 3, 1.0).with_node_size(128)
}

fn plain_server() -> PdmServer {
    server(&spec())
}

/// WAL-backed server (checkpoints effectively off) so check-out exercises
/// the durability path and its WAL spans.
fn wal_server() -> PdmServer {
    durable_server(&spec(), CrashPlan::none(), NO_CHECKPOINTS)
}

fn session_on(server: &PdmServer, strategy: Strategy) -> Session {
    session(server, "scott", strategy)
}

/// Structural invariants every recorded span tree must satisfy.
fn assert_well_formed(spans: &[SpanRecord]) {
    assert!(!spans.is_empty());
    for (i, s) in spans.iter().enumerate() {
        assert!(!s.open, "span {i} ({}) left open", s.kind.full_name());
        assert!(s.v_start <= s.v_end, "span {i}: negative virtual width");
        match s.parent {
            None => assert_eq!(i, 0, "orphan span {i} ({})", s.kind.full_name()),
            Some(p) => {
                assert!(p < i, "span {i} recorded before its parent {p}");
                let parent = &spans[p];
                assert!(
                    parent.v_start <= s.v_start && s.v_end <= parent.v_end,
                    "span {i} ({}) [{}, {}] escapes parent {p} ({}) [{}, {}]",
                    s.kind.full_name(),
                    s.v_start,
                    s.v_end,
                    parent.kind.full_name(),
                    parent.v_start,
                    parent.v_end
                );
            }
        }
    }
}

/// The acceptance scenario: ONE profiled function-shipping check-out on a
/// durable server produces a span tree that covers every instrumented
/// subsystem and reconciles exactly with the channel's metering.
#[test]
fn profiled_checkout_covers_all_subsystems_and_reconciles() {
    let server = wal_server();
    let mut s = session_on(&server, Strategy::Recursive);
    s.enable_profiling();

    let out = s.check_out_function_shipping(1).unwrap();
    assert!(out.tree.is_some(), "uncontended check-out succeeds");

    let profile = s.last_profile().expect("profiling on: profile available");
    assert_well_formed(&profile.spans);

    // One action, one root.
    let root = profile.root().unwrap();
    assert_eq!(root.kind, kinds::ACTION);
    assert_eq!(root.label, "check_out_function_shipping");

    // The tree spans ALL seven instrumented subsystems.
    let subsystems = profile.subsystems();
    for sub in [
        Subsystem::Session,
        Subsystem::Compile,
        Subsystem::Engine,
        Subsystem::Cache,
        Subsystem::Locks,
        Subsystem::Wal,
        Subsystem::Network,
    ] {
        assert!(subsystems.contains(&sub), "missing subsystem {sub:?}");
    }

    // Only declared kinds are ever emitted.
    for s in &profile.spans {
        assert!(
            kinds::ALL.contains(&s.kind),
            "undeclared span kind {}",
            s.kind.full_name()
        );
    }

    // The latency/transfer split matches TrafficStats BIT-FOR-BIT: the
    // profile sums the per-exchange attributes in record order, the same
    // order the channel accumulated them.
    let latency = profile.sum_attr(Subsystem::Network, "latency_s");
    let transfer = profile.sum_attr(Subsystem::Network, "transfer_s");
    let volume = profile.sum_attr(Subsystem::Network, "volume_bytes");
    assert_eq!(latency.to_bits(), out.stats.latency_time.to_bits());
    assert_eq!(transfer.to_bits(), out.stats.transfer_time.to_bits());
    assert_eq!(volume.to_bits(), out.stats.volume_bytes.to_bits());

    // Leaf virtual times reconcile with the action total: only the network
    // advances the virtual clock, and network spans are leaves.
    let total = profile.virtual_total();
    assert!(total > 0.0, "a WAN check-out takes virtual time");
    assert!(
        (profile.leaf_virtual_sum() - total).abs() <= 1e-9 * total.max(1.0),
        "leaf sum {} vs total {total}",
        profile.leaf_virtual_sum()
    );

    // The rendered report mentions the load-bearing operators.
    let report = profile.render();
    for needle in ["locks.wait", "wal.append", "cache.probe", "net.exchange"] {
        assert!(report.contains(needle), "render missing {needle}");
    }
}

/// The metrics registry unifies Table-1 traffic, cache, lock, WAL and
/// engine counters in ONE snapshot, with no double counting of the
/// network quantities.
#[test]
fn registry_unifies_traffic_cache_locks_and_wal() {
    let server = wal_server();
    let mut s = session_on(&server, Strategy::Recursive);
    s.enable_profiling();

    let out = s.check_out_function_shipping(1).unwrap();
    assert!(out.tree.is_some());

    let snap = s.metrics().snapshot();
    // Table-1 quantities: folded ONCE per action by the single writer.
    assert_eq!(
        snap.counter("net.queries"),
        out.stats.queries as u64,
        "net.queries must equal the action's q exactly (no double fold)"
    );
    assert_eq!(
        snap.counter("net.communications"),
        out.stats.communications as u64
    );
    assert_eq!(
        snap.gauge("net.volume_bytes").to_bits(),
        out.stats.volume_bytes.to_bits()
    );
    // Cache: the procedure's retrieval query misses the cross-session
    // cache (first execution), and the root fetch adds traffic.
    assert!(snap.counter("cache.misses") >= 1);
    // Locks: the uncontended check-out acquires and promotes its grant.
    assert_eq!(snap.counter("locks.grants"), 1);
    assert_eq!(snap.counter("locks.refusals"), 0);
    // WAL: token + grant + the procedure's commit all append.
    assert!(snap.counter("wal.appends") >= 3);
    let fsync = snap
        .histograms
        .get("wal.fsync_ns")
        .expect("fsync histogram");
    assert_eq!(fsync.count, snap.counter("wal.appends"));
    // Engine work flowed into the registry too.
    assert!(snap.counter("engine.rows_scanned") > 0);

    // And the JSON snapshot carries all three sections.
    let json = snap.to_json(2);
    for key in [
        "\"counters\"",
        "\"gauges\"",
        "\"histograms\"",
        "net.queries",
    ] {
        assert!(json.contains(key), "snapshot JSON missing {key}");
    }
}

/// Profiling must not perturb results: the same action with profiling on
/// and off returns byte-identical rows and identical traffic.
#[test]
fn profiling_is_byte_identical_to_plain_run() {
    // Two identical servers so cross-session cache state cannot differ.
    let mut plain = session_on(&plain_server(), Strategy::Recursive);
    let mut profiled = session_on(&plain_server(), Strategy::Recursive);
    profiled.enable_profiling();

    let a = plain.multi_level_expand(1).unwrap();
    let b = profiled.multi_level_expand(1).unwrap();
    let nodes_a: Vec<_> = a.tree.nodes().collect();
    let nodes_b: Vec<_> = b.tree.nodes().collect();
    assert_eq!(nodes_a, nodes_b, "profiling changed expand results");
    assert_eq!(a.stats, b.stats, "profiling changed the traffic");

    let a = plain.query_all(1).unwrap();
    let b = profiled.query_all(1).unwrap();
    assert_eq!(a.nodes, b.nodes, "profiling changed query_all results");
    assert_eq!(a.stats, b.stats);

    // The profiled session actually produced a profile; the plain one not.
    assert!(profiled.last_profile().is_some());
    assert!(plain.last_profile().is_none());
}

/// Late-rule strategies surface the paper's γ through the session span
/// tree and the rows_filtered_late counters; early strategies don't pay it.
#[test]
fn late_filtering_is_visible_in_profile_and_registry() {
    let server = plain_server();
    let mut s = session_on(&server, Strategy::LateEval);
    s.enable_profiling();
    let out = s.multi_level_expand(1).unwrap();
    assert!(!out.tree.is_empty());

    let profile = s.last_profile().unwrap();
    assert!(
        profile.spans.iter().any(|sp| sp.kind == kinds::LATE_FILTER),
        "late strategy must record late_filter spans"
    );
    let snap = s.metrics().snapshot();
    let kept = snap.counter("session.rows_kept");
    assert!(kept > 0, "late filtering kept some rows");

    // Early evaluation records no late-filter spans at all.
    let mut early = session_on(&server, Strategy::EarlyEval);
    early.enable_profiling();
    early.multi_level_expand(1).unwrap();
    let profile = early.last_profile().unwrap();
    assert!(profile.spans.iter().all(|sp| sp.kind != kinds::LATE_FILTER));
}

/// Meta-test: the declared kind registry is consistent — every subsystem
/// is represented, full names are unique, and prefixes match.
#[test]
fn declared_kind_registry_is_consistent() {
    let mut names = std::collections::BTreeSet::new();
    let mut subsystems = std::collections::BTreeSet::new();
    for kind in kinds::ALL {
        assert!(
            names.insert(kind.full_name()),
            "duplicate kind {}",
            kind.full_name()
        );
        assert!(
            kind.full_name()
                .starts_with(&format!("{}.", kind.subsystem.prefix())),
            "kind {} not under its subsystem prefix",
            kind.full_name()
        );
        subsystems.insert(kind.subsystem);
    }
    assert_eq!(
        subsystems.len(),
        10,
        "every instrumented subsystem declares at least one kind"
    );
}
