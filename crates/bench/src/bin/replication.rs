#![allow(clippy::unwrap_used)]

//! Replication bench: the paper's Table-2 topology question, re-asked for
//! a worldwide deployment — **remote everything** (every action crosses
//! the WAN to the one central server, the paper's Fig. 1) versus **local
//! replica** (reads served by a WAL-shipped replica on the client's LAN,
//! writes forwarded to the primary).
//!
//! Both topologies replay the SAME seeded multi-site op plan, so the
//! per-action p50/p99 virtual seconds are directly comparable, and the
//! fault-free cluster run must leave the primary **byte-identical** to the
//! single-site engine run (replication may not change SQL semantics).
//! Also measured: the replica-lag distribution under continuous shipping
//! and the failover-time distribution over seeded promotion points, each
//! verified against the serial-replay oracle.
//!
//! Any acceptance violation writes `REPLICATION_journal.txt` with the
//! reproducing seed and dies non-zero — the CI replication job uploads
//! that file as an artifact.
//!
//! Usage: `replication [seed] [steps]` (also honors `REPL_SEED`).

use std::collections::BTreeMap;

use pdm_bench::harness::{
    action_name, cluster, connect_all, connect_direct, converge, drive_step, percentile, roots,
    server, small_tree, traced_side_pass, Client,
};
use pdm_bench::report::Report;
use pdm_core::{replay_prefix, ClusterConfig, MetricsSnapshot, ProductTree, Session};
use pdm_net::FaultPlan;
use pdm_obs::metrics::{families, Family};
use pdm_prng::splitmix64;
use pdm_sql::persist::database_fingerprint;
use pdm_workload::{multisite_plan, SiteStep};

const SITES: usize = 3;

/// Families the replication report must carry: the cluster shipped,
/// acknowledged and waited on watermarks, and timed all three.
const MANDATORY: &[Family] = &[
    families::REPL_SHIP_BATCHES,
    families::REPL_RECORDS_SHIPPED,
    families::REPL_SHIP_FAILURES,
    families::REPL_ACKED_WRITES,
    families::REPL_WATERMARK_WAITS,
    families::REPL_WATERMARK_TIMEOUTS,
    families::REPL_STALE_READS,
    families::REPL_FAILOVERS,
    families::REPL_LAG_SEQS,
    families::REPL_SHIP_US,
    families::REPL_FAILOVER_US,
    families::REPL_WATERMARK_WAIT_US,
];

#[derive(Default)]
struct Latencies(BTreeMap<&'static str, Vec<f64>>);

impl Latencies {
    fn push(&mut self, action: &'static str, seconds: f64) {
        self.0.entry(action).or_default().push(seconds);
    }

    fn summary(&self, action: &str) -> (f64, f64, usize) {
        match self.0.get(action) {
            Some(v) => {
                let mut s = v.clone();
                s.sort_by(|a, b| a.partial_cmp(b).unwrap());
                (percentile(&s, 0.50), percentile(&s, 0.99), s.len())
            }
            None => (0.0, 0.0, 0),
        }
    }

    fn json(&self) -> String {
        let mut parts = Vec::new();
        for action in ["expand", "query", "update", "checkout", "checkin"] {
            let (p50, p99, n) = self.summary(action);
            parts.push(format!(
                "\"{action}\": {{ \"p50_s\": {p50:.6}, \"p99_s\": {p99:.6}, \"n\": {n} }}"
            ));
        }
        format!("{{ {} }}", parts.join(", "))
    }

    fn read_p50(&self) -> f64 {
        let (e50, _, _) = self.summary("expand");
        let (q50, _, _) = self.summary("query");
        if e50 > 0.0 {
            e50
        } else {
            q50
        }
    }
}

/// Topology A: every session talks to the one central server over the WAN.
fn run_remote_everything(plan: &[SiteStep]) -> (Latencies, Vec<u8>) {
    let server = server(&small_tree());
    let mut sessions: Vec<Session> = (0..SITES).map(|_| connect_direct(&server)).collect();
    let mut held: Vec<Option<ProductTree>> = vec![None; SITES];
    let mut lat = Latencies::default();
    for step in plan {
        let client = Client::Direct(&mut sessions[step.site]);
        if let Some(ran) = drive_step(client, &mut held[step.site], &step.op).unwrap() {
            lat.push(action_name(&step.op), ran.elapsed);
        }
    }
    (lat, database_fingerprint(server.database()))
}

/// Topology B: reads at the site's replica, writes forwarded to the
/// primary. Returns latencies, per-step lag samples, the converged
/// primary fingerprint, and the cluster metrics.
fn run_local_replica(
    plan: &[SiteStep],
    faults: FaultPlan,
) -> (Latencies, Vec<u64>, Vec<u8>, MetricsSnapshot) {
    let cfg = ClusterConfig::default()
        .with_replicas(SITES)
        .with_ship_faults(faults)
        .with_max_pump_rounds(512);
    let mut cluster = cluster(&small_tree(), cfg);
    let sites = cluster.replica_sites();
    let mut sessions = connect_all(&cluster);
    let mut held: Vec<Option<ProductTree>> = vec![None; sessions.len()];
    let mut lat = Latencies::default();
    let mut lag_samples = Vec::new();
    for step in plan {
        let client = Client::Routed(&mut sessions[step.site], &mut cluster);
        if let Some(ran) = drive_step(client, &mut held[step.site], &step.op).unwrap() {
            lat.push(action_name(&step.op), ran.elapsed);
        }
        for site in &sites {
            lag_samples.push(cluster.lag(*site));
        }
    }
    // Converge every replica so the fingerprints can be compared.
    converge(&mut cluster);
    let metrics = cluster.metrics().snapshot();
    (lat, lag_samples, cluster.primary_fingerprint(), metrics)
}

/// Seeded failover points: run a short write workload under lossy ship
/// links, force promotion, verify the serial-replay oracle, and return the
/// promotion durations.
fn failover_distribution(seed: u64, points: usize) -> Result<Vec<f64>, String> {
    let mut durations = Vec::new();
    for k in 0..points {
        let faults = FaultPlan::lossy(splitmix64(seed ^ k as u64), 0.15).with_stall_rate(0.05);
        let cfg = ClusterConfig::default()
            .with_replicas(SITES)
            .with_ship_faults(faults)
            .with_max_pump_rounds(512);
        let mut cluster = cluster(&small_tree(), cfg);
        let roots = roots(cluster.primary());
        let mut sessions = connect_all(&cluster);
        let mut held: Vec<Option<ProductTree>> = vec![None; sessions.len()];
        let plan = multisite_plan(splitmix64(seed).wrapping_add(k as u64), SITES, 10, &roots);
        for step in plan.iter().filter(|step| step.op.is_write()) {
            let client = Client::Routed(&mut sessions[step.site], &mut cluster);
            drive_step(client, &mut held[step.site], &step.op).unwrap();
        }
        cluster.promote().map_err(|e| format!("point {k}: {e}"))?;
        let report = &cluster.failovers()[0];
        let oracle = replay_prefix(&report.epoch_base, &report.prefix)
            .map_err(|e| format!("point {k}: oracle replay failed: {e}"))?;
        if oracle != report.promoted_fingerprint {
            return Err(format!(
                "point {k}: promoted site {} at seq {} diverged from serial replay",
                report.promoted_site, report.promoted_seq
            ));
        }
        durations.push(report.duration);
    }
    Ok(durations)
}

fn die(journal: String) -> ! {
    std::fs::write("REPLICATION_journal.txt", &journal).unwrap();
    eprintln!("{journal}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = args
        .get(1)
        .cloned()
        .or_else(|| std::env::var("REPL_SEED").ok())
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE);
    let steps: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(240);

    let roots = roots(&server(&small_tree()));
    let plan = multisite_plan(seed, SITES, steps, &roots);

    let (remote, remote_fp) = run_remote_everything(&plan);
    let (local, _, local_fp, metrics) = run_local_replica(&plan, FaultPlan::none());

    // Acceptance: a fault-free replicated run is semantically invisible —
    // the primary ends byte-identical to the single-site engine.
    if remote_fp != local_fp {
        die(format!(
            "REPLICATION FAILURE seed={seed} steps={steps}\n\
             fault-free cluster primary diverged from single-site engine\n"
        ));
    }

    // A lossy-link pass for the lag distribution (fault-free shipping
    // catches every replica up at ack time, so its lag is trivially 0).
    // Convergence still lands on the same bytes: lost acks leave effects
    // applied and re-delivery is idempotent.
    let lossy = FaultPlan::lossy(splitmix64(seed ^ 0x1A6), 0.3).with_stall_rate(0.1);
    let (_, mut lag_samples, lossy_fp, _) = run_local_replica(&plan, lossy);
    if lossy_fp != remote_fp {
        die(format!(
            "REPLICATION FAILURE seed={seed} steps={steps}\n\
             lossy-link cluster converged to different bytes than single-site engine\n"
        ));
    }

    let failover_s = match failover_distribution(seed, 16) {
        Ok(d) => d,
        Err(detail) => die(format!(
            "REPLICATION FAILURE seed={seed} steps={steps}\nfailover sweep: {detail}\n"
        )),
    };

    // Acceptance: local-replica reads must beat remote-everything reads —
    // the whole point of shipping the WAL across the world.
    if local.read_p50() >= remote.read_p50() {
        die(format!(
            "REPLICATION FAILURE seed={seed} steps={steps}\n\
             local-replica read p50 {:.6}s not below remote-everything {:.6}s\n",
            local.read_p50(),
            remote.read_p50()
        ));
    }

    lag_samples.sort_unstable();
    let lag_f: Vec<f64> = lag_samples.iter().map(|l| *l as f64).collect();
    let mut fo = failover_s.clone();
    fo.sort_by(|a, b| a.partial_cmp(b).unwrap());

    println!("replication bench: seed={seed}, {steps} ops over {SITES} sites, δ=3 β=3");
    println!();
    println!(
        "{:<12}{:>18}{:>18}",
        "action", "remote p50 (s)", "replica p50 (s)"
    );
    for action in ["expand", "query", "update", "checkout", "checkin"] {
        let (r50, _, rn) = remote.summary(action);
        let (l50, _, _) = local.summary(action);
        if rn > 0 {
            println!("{action:<12}{r50:>18.4}{l50:>18.4}");
        }
    }
    println!();
    println!(
        "replica lag   p50 {} seqs, p99 {} seqs, max {} seqs",
        percentile(&lag_f, 0.5) as u64,
        percentile(&lag_f, 0.99) as u64,
        lag_samples.last().copied().unwrap_or(0)
    );
    println!(
        "failover      p50 {:.4}s, p99 {:.4}s over {} points (oracle-verified)",
        percentile(&fo, 0.5),
        percentile(&fo, 0.99),
        fo.len()
    );
    println!("fault-free byte-identity: ok");

    let traced = traced_side_pass(&plan, SITES, seed);
    let exemplar = &traced.exemplar;
    println!(
        "tail exemplar: trace_id={} action={} total_v={:.6}s spans={} sites={:?}",
        exemplar.trace_id,
        exemplar.action,
        exemplar.total_v,
        exemplar.span_count(),
        exemplar.sites()
    );
    println!();

    Report::new("replication", metrics, MANDATORY)
        .field("seed", seed)
        .field("steps", steps)
        .field("sites", SITES)
        .field("replicas", SITES)
        .field("remote_everything", remote.json())
        .field("local_replica", local.json())
        .field(
            "replica_lag_seqs",
            format!(
                "{{ \"p50\": {}, \"p99\": {}, \"max\": {}, \"n\": {} }}",
                percentile(&lag_f, 0.5) as u64,
                percentile(&lag_f, 0.99) as u64,
                lag_samples.last().copied().unwrap_or(0),
                lag_samples.len()
            ),
        )
        .field(
            "failover_s",
            format!(
                "{{ \"p50\": {:.6}, \"p99\": {:.6}, \"n\": {} }}",
                percentile(&fo, 0.5),
                percentile(&fo, 0.99),
                fo.len()
            ),
        )
        .field("fault_free_byte_identical", true)
        .attribution("remote_everything", traced.remote)
        .attribution("local_replica", traced.local)
        .tail_exemplar(traced.exemplar, &traced.sampler)
        .write();
}
