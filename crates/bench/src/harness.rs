#![allow(clippy::unwrap_used)]

//! The one copy of what the seeded bench bins and the integration suites
//! both need: builders for trees, servers, sessions and clusters; the
//! scripted crash workload with its recovery oracle; the `SiteOp` step
//! driver; the traced side pass; `percentile`.
//!
//! This is test surface, like the bins it serves: a builder that cannot
//! build panics. The oracles do not — they return `Err(what broke)`, which
//! a test `expect`s and a bin writes to its journal.

use std::sync::Arc;
use std::time::Duration;

use pdm_core::query::recursive;
use pdm_core::{
    recover_server, AttributionTable, Cluster, ClusterConfig, DurabilityConfig, Federation,
    MountPoint, PdmServer, ProductTree, Recorder, RecoveryReport, RoutedSession, RuleTable,
    Session, SessionConfig, SessionError, SharedServer, Staleness, Strategy, TailSampler,
    TraceTree,
};
use pdm_net::LinkProfile;
use pdm_prng::Prng;
use pdm_sql::persist::{database_fingerprint, state_fingerprint};
use pdm_sql::shared::Snapshot;
use pdm_sql::{Database, ResultSet, Value};
use pdm_wal::{CrashPlan, DurableImage};
use pdm_workload::{build_database, generate, partition, SiteOp, SiteStep, TreeSpec};

/// A checkpoint interval no run reaches: only the attach-time checkpoint
/// exists, so the whole history is in the log.
pub const NO_CHECKPOINTS: u64 = 1 << 40;

/// δ = 3, β = 3, everything visible, 64-byte nodes: the tree the crash and
/// replication harnesses run on.
pub fn small_tree() -> TreeSpec {
    TreeSpec::new(3, 3, 1.0).with_node_size(64)
}

pub fn database(spec: &TreeSpec) -> Database {
    build_database(spec).unwrap().0
}

/// A plain (non-durable, ungated) server over a fresh `spec` tree.
pub fn server(spec: &TreeSpec) -> PdmServer {
    PdmServer::new(database(spec))
}

/// A write-ahead-logged server over a fresh `spec` tree, checkpointing
/// every `interval` commits on a device that dies as `plan` says.
pub fn durable_server(spec: &TreeSpec, plan: CrashPlan, interval: u64) -> PdmServer {
    let cfg = DurabilityConfig::default()
        .with_interval(interval)
        .with_crash_plan(plan);
    PdmServer::from_shared(Arc::new(
        SharedServer::with_durability(database(spec), &cfg).unwrap(),
    ))
}

/// A session of `user` on `server` over the 256 kbit/s WAN, no rules.
pub fn session(server: &PdmServer, user: &str, strategy: Strategy) -> Session {
    Session::attach(
        server.clone(),
        SessionConfig::new(user, strategy, LinkProfile::wan_256()),
        RuleTable::new(),
    )
}

/// The un-replicated twin of [`connect`]: the same client straight on the
/// one central `server`.
pub fn connect_direct(server: &PdmServer) -> Session {
    Session::attach(
        server.clone(),
        SessionConfig::new("scott", Strategy::Recursive, LinkProfile::wan_512()),
        RuleTable::new(),
    )
}

/// A replicated cluster whose primary starts from a fresh `spec` tree.
pub fn cluster(spec: &TreeSpec, cfg: ClusterConfig) -> Cluster {
    Cluster::new(database(spec), cfg).unwrap()
}

/// A routed session at `site`: recursive strategy, 512 kbit/s WAN, no rules.
pub fn connect(cluster: &Cluster, site: usize) -> RoutedSession {
    RoutedSession::connect(
        cluster,
        site,
        SessionConfig::new("scott", Strategy::Recursive, LinkProfile::wan_512()),
        RuleTable::new(),
    )
}

/// One routed session per replica site, in site order.
pub fn connect_all(cluster: &Cluster) -> Vec<RoutedSession> {
    let sites = cluster.replica_sites();
    sites.iter().map(|s| connect(cluster, *s)).collect()
}

/// `spec`'s product structure partitioned over one site per link (the §7
/// outlook): user `scott`, the γ-visibility rules.
pub fn federation(spec: &TreeSpec, links: Vec<LinkProfile>, strategy: Strategy) -> Federation {
    let (dbs, info) = partition(&generate(spec), links.len()).unwrap();
    let mounts = info
        .mounts
        .iter()
        .map(|m| MountPoint {
            parent: m.parent,
            child: m.child,
            child_site: m.child_site,
            visible: m.visible,
        })
        .collect();
    let names = (0..links.len()).map(|i| format!("site{i}")).collect();
    Federation::new(
        dbs,
        links,
        names,
        info.site_of,
        mounts,
        "scott",
        strategy,
        crate::visibility_rules(),
    )
}

/// Pump the ship links until every replica is at the head.
pub fn converge(cluster: &mut Cluster) {
    for _ in 0..4096 {
        if cluster.replica_sites().iter().all(|s| cluster.lag(*s) == 0) {
            return;
        }
        cluster.pump().unwrap();
    }
    for s in cluster.replica_sites() {
        assert_eq!(cluster.lag(s), 0, "site {s} never converged");
    }
}

/// The first column of `rows` as object ids.
pub fn int_column(rows: &ResultSet) -> Vec<i64> {
    rows.rows
        .iter()
        .map(|r| match r.get(0) {
            Value::Int(i) => *i,
            other => panic!("expected an integer obid, got {other:?}"),
        })
        .collect()
}

/// All assembly ids — the candidate expand / check-out roots.
pub fn roots(server: &PdmServer) -> Vec<i64> {
    int_column(&server.query("SELECT obid FROM assy ORDER BY obid").unwrap())
}

/// Ids of `table` whose `checkedout` flag is set.
pub fn flagged_ids(server: &PdmServer, table: &str) -> Vec<i64> {
    int_column(
        &server
            .query(&format!(
                "SELECT obid FROM {table} WHERE checkedout = TRUE ORDER BY obid"
            ))
            .unwrap(),
    )
}

/// Nearest-rank percentile of an ascending slice, `q` in [0, 1]; 0.0 for
/// an empty one.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

// ---------------------------------------------------------------------------
// Crash workload and recovery oracle
// ---------------------------------------------------------------------------

/// Scripted workload: a seed-deterministic mix of attribute updates,
/// inserts/deletes, server-side check-outs, and check-ins. All PRNG draws
/// happen unconditionally, so the op *sequence* is identical whether or not
/// individual ops fail (after the device crashes, every durable write
/// errors and the rest of the script becomes no-ops on state). Returns the
/// idempotency tokens of the check-outs it issued.
pub fn scripted_workload(server: &PdmServer, seed: u64, steps: usize) -> Vec<u64> {
    let mut rng = Prng::seed_from_u64(seed);
    // Post-crash writes fail fast; the workload keeps going regardless.
    let execute = |sql: String| {
        let _ = server.execute_deadline_obs(&sql, None, &Recorder::disabled());
    };
    let roots = roots(server);
    let mut spec_obid = 900_000i64;
    let mut tokens = Vec::new();
    for _ in 0..steps {
        match rng.index(6) {
            0 => {
                let id = roots[rng.index(roots.len())];
                let payload = rng.ident(4, 12);
                execute(format!(
                    "UPDATE assy SET payload = '{payload}' WHERE obid = {id}"
                ));
            }
            1 => {
                let name = rng.ident(3, 10);
                let lo = rng.i64_inclusive(1, 40);
                execute(format!(
                    "UPDATE comp SET name = '{name}' WHERE obid >= {lo} AND obid <= {}",
                    lo + 2
                ));
            }
            2 => {
                spec_obid += 1;
                let name = rng.ident(3, 10);
                execute(format!(
                    "INSERT INTO spec VALUES ('spec', {spec_obid}, '{name}')"
                ));
            }
            3 => {
                let victim = 900_000 + rng.i64_inclusive(1, (spec_obid - 900_000).max(1));
                execute(format!("DELETE FROM spec WHERE obid = {victim}"));
            }
            4 => {
                let root = roots[rng.index(roots.len())];
                let sql = recursive::mle_query(root).to_string();
                let token = server.shared().next_token();
                tokens.push(token);
                let _ = server.checkout_procedure_with_deadline_obs(
                    root,
                    &sql,
                    token,
                    Some(Duration::from_secs(5)),
                    &Recorder::disabled(),
                );
            }
            _ => {
                // Check in whatever is currently flagged (possibly nothing).
                let assy = flagged_ids(server, "assy");
                let comp = flagged_ids(server, "comp");
                if !assy.is_empty() || !comp.is_empty() {
                    let _ = server.checkin_procedure(&assy, &comp, &Recorder::disabled());
                }
            }
        }
    }
    tokens
}

/// The state fingerprint of an owned database.
pub fn fingerprint_of(db: Database) -> Vec<u8> {
    state_fingerprint(&Snapshot {
        catalog: db.catalog,
        config: db.config,
        version: 0,
    })
}

/// What recovery must produce: the crashed server's published snapshot (the
/// commit gate syncs before publishing, so published == durable) with every
/// outstanding grant swept back to `FALSE` — sorted, deduplicated unions,
/// one UPDATE per non-empty table, as recovery does it.
pub fn published_plus_sweep(crashed: &PdmServer) -> Vec<u8> {
    let snapshot = crashed.database().snapshot();
    let mut db = Database {
        catalog: snapshot.catalog.clone(),
        config: snapshot.config.clone(),
    };
    let grants = crashed.durability().unwrap().outstanding_grants();
    let mut sweep = |table: &str, mut ids: Vec<i64>| {
        ids.sort_unstable();
        ids.dedup();
        if !ids.is_empty() {
            let list: Vec<String> = ids.iter().map(|id| id.to_string()).collect();
            db.execute(&format!(
                "UPDATE {table} SET checkedout = FALSE WHERE obid IN ({})",
                list.join(", ")
            ))
            .unwrap();
        }
    };
    sweep(
        "assy",
        grants.values().flat_map(|g| g.assy.clone()).collect(),
    );
    sweep(
        "comp",
        grants.values().flat_map(|g| g.comp.clone()).collect(),
    );
    fingerprint_of(db)
}

/// Kill the server's log device (if its crash plan has not already) and
/// return the bytes that survive.
pub fn crash_image(server: &PdmServer) -> DurableImage {
    let durability = server.durability().unwrap();
    if !durability.is_crashed() {
        durability.crash_now();
    }
    durability.image()
}

/// Recover `image` on a crash-free device checkpointing every `interval`.
pub fn recover(image: DurableImage, interval: u64) -> Result<(PdmServer, RecoveryReport), String> {
    let cfg = DurabilityConfig::default().with_interval(interval);
    let (recovered, report) =
        recover_server(image, &cfg).map_err(|e| format!("recovery failed: {e}"))?;
    Ok((PdmServer::from_shared(Arc::new(recovered)), report))
}

/// The recovery invariants of one `recovered` server against the `crashed`
/// one it was rebuilt from: its state is the published snapshot plus the
/// sweep; no check-out survives the dead process (lock table, `checkedout`
/// flags, durable grants); and each of `tokens` that completed before the
/// crash replays its recorded outcome without executing again.
pub fn check_recovered(
    crashed: &PdmServer,
    recovered: &PdmServer,
    tokens: &[u64],
) -> Result<(), String> {
    if database_fingerprint(recovered.database()) != published_plus_sweep(crashed) {
        return Err("recovered state differs from the published snapshot + sweep".into());
    }
    if !recovered.lock_table().is_empty() {
        return Err("stale lock grants survived recovery".into());
    }
    for table in ["assy", "comp"] {
        let flagged = flagged_ids(recovered, table);
        if !flagged.is_empty() {
            return Err(format!("stale checkedout flags in {table}: {flagged:?}"));
        }
    }
    let grants = recovered.durability().unwrap().outstanding_grants();
    if !grants.is_empty() {
        return Err(format!(
            "grants still tracked after the sweep: tokens {:?}",
            grants.keys().collect::<Vec<_>>()
        ));
    }
    for &token in tokens {
        if !recovered.checkout_recorded(token) {
            // Never completed before the crash; its grant (if any) was
            // swept. Nothing to replay.
            continue;
        }
        let before = recovered.database().version();
        recovered
            .checkout_procedure_with_deadline_obs(
                1,
                "unused",
                token,
                Some(Duration::from_secs(1)),
                &Recorder::disabled(),
            )
            .map_err(|e| format!("token {token} replay failed: {e}"))?;
        if recovered.database().version() != before {
            return Err(format!("token {token} replay re-executed the procedure"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Multi-site step driver and traced side pass
// ---------------------------------------------------------------------------

/// What a plan step runs against: a session on the one central server, or
/// a routed session with the cluster it is pinned to.
pub enum Client<'a> {
    Direct(&'a mut Session),
    Routed(&'a mut RoutedSession, &'a mut Cluster),
}

/// A step that ran: the virtual seconds the serving session metered for
/// it, and the staleness annotation of a degraded routed read.
pub struct Stepped {
    pub elapsed: f64,
    pub staleness: Option<Staleness>,
}

/// The report name of a step's action class.
pub fn action_name(op: &SiteOp) -> &'static str {
    match op {
        SiteOp::Expand { .. } => "expand",
        SiteOp::QueryAll { .. } => "query",
        SiteOp::Update { .. } => "update",
        SiteOp::CheckOut { .. } => "checkout",
        SiteOp::CheckIn => "checkin",
    }
}

/// Drive one plan step. `held` is the site's most recent successful
/// check-out: a check-out stores its tree there, a check-in takes it back —
/// and is skipped (`Ok(None)`) when the site holds nothing.
pub fn drive_step(
    client: Client<'_>,
    held: &mut Option<ProductTree>,
    op: &SiteOp,
) -> Result<Option<Stepped>, SessionError> {
    let update = |root: &i64, payload: &str| {
        format!("UPDATE assy SET payload = '{payload}' WHERE obid = {root}")
    };
    match client {
        Client::Direct(s) => {
            match op {
                SiteOp::Expand { root } => {
                    s.multi_level_expand(*root)?;
                }
                SiteOp::QueryAll { root } => {
                    s.query_all(*root)?;
                }
                SiteOp::Update { root, payload } => {
                    s.execute_update(&update(root, payload))?;
                }
                SiteOp::CheckOut { root } => {
                    if let Some(tree) = s.check_out_function_shipping(*root)?.tree {
                        *held = Some(tree);
                    }
                }
                SiteOp::CheckIn => match held.take() {
                    Some(tree) => {
                        s.check_in(&tree)?;
                    }
                    None => return Ok(None),
                },
            }
            Ok(Some(Stepped {
                elapsed: s.elapsed(),
                staleness: None,
            }))
        }
        Client::Routed(s, cluster) => {
            let mut staleness = None;
            match op {
                SiteOp::Expand { root } => {
                    staleness = s.multi_level_expand(cluster, *root)?.staleness
                }
                SiteOp::QueryAll { root } => staleness = s.query_all(cluster, *root)?.staleness,
                SiteOp::Update { root, payload } => {
                    s.execute_dml(cluster, &update(root, payload))?;
                }
                SiteOp::CheckOut { root } => {
                    if let Some(tree) = s.check_out(cluster, *root)?.0.tree {
                        *held = Some(tree);
                    }
                }
                SiteOp::CheckIn => match held.take() {
                    Some(tree) => {
                        s.check_in(cluster, &tree)?;
                    }
                    None => return Ok(None),
                },
            }
            let serving = if op.is_write() {
                s.write_session()
            } else {
                s.read_session()
            };
            Ok(Some(Stepped {
                elapsed: serving.elapsed(),
                staleness,
            }))
        }
    }
}

/// The attribution tables and tail exemplars of one traced side pass.
pub struct TracedPass {
    /// Topology A: every action crosses the WAN to the central server.
    pub remote: AttributionTable,
    /// Topology B: reads at the site's replica, writes forwarded.
    pub local: AttributionTable,
    pub sampler: TailSampler,
    pub exemplar: TraceTree,
}

/// Traced side-pass (DESIGN.md §15): replay a short prefix of `plan`
/// through both topologies with cross-site tracing ON, so the attribution
/// tables answer the paper's question per action class — remote everything
/// vs local replica, where did the time go. It runs on servers of its own:
/// tracing changes the modeled request volume, so the measured passes must
/// never see it. Tail exemplars are sampled from the cluster pass (primary
/// + `replicas` sites), whose trees span client, primary, and replicas.
pub fn traced_side_pass(plan: &[SiteStep], replicas: usize, seed: u64) -> TracedPass {
    let prefix = &plan[..plan.len().min(40)];

    // Topology A, traced: one WAN session against the central server.
    let mut session = connect_direct(&server(&small_tree()));
    session.enable_tracing(seed);
    let mut remote = AttributionTable::new();
    let mut held = None;
    for step in prefix {
        if drive_step(Client::Direct(&mut session), &mut held, &step.op)
            .unwrap()
            .is_some()
        {
            let tree = session.last_trace().expect("untraced remote action");
            tree.validate().expect("remote trace failed validation");
            remote.add(action_name(&step.op), tree);
        }
    }

    // Topology B, traced: one routed session per replica site, reads
    // local, writes forwarded.
    let cfg = ClusterConfig::default()
        .with_replicas(replicas)
        .with_max_pump_rounds(512);
    let mut cluster = cluster(&small_tree(), cfg);
    let mut sessions = connect_all(&cluster);
    for s in &mut sessions {
        s.enable_tracing(seed);
    }
    let mut local = AttributionTable::new();
    let mut trees: Vec<TraceTree> = Vec::new();
    let mut held: Vec<Option<ProductTree>> = vec![None; sessions.len()];
    for step in prefix {
        let i = step.site;
        let client = Client::Routed(&mut sessions[i], &mut cluster);
        if drive_step(client, &mut held[i], &step.op)
            .unwrap()
            .is_some()
        {
            let tree = sessions[i].last_trace().expect("untraced routed action");
            tree.validate().expect("routed trace failed validation");
            local.add(action_name(&step.op), tree);
            trees.push(tree.clone());
        }
    }

    // Tail threshold at the traced pass's own p90; failure outcomes (none
    // expected fault-free) would be retained regardless.
    let mut totals: Vec<f64> = trees.iter().map(|t| t.total_v).collect();
    totals.sort_by(f64::total_cmp);
    let mut sampler = TailSampler::new(totals[(totals.len() - 1) * 9 / 10], 4);
    for t in trees {
        sampler.offer(t);
    }
    // Prefer an exemplar that covers all three tiers from one trace_id.
    let exemplar = sampler
        .exemplars()
        .iter()
        .find(|t| {
            let s = t.sites();
            s.iter().any(|x| x.starts_with("client"))
                && s.contains(&"primary")
                && s.iter().any(|x| x.starts_with("replica"))
        })
        .or_else(|| sampler.slowest())
        .expect("traced side-pass retained no exemplar")
        .clone();
    TracedPass {
        remote,
        local,
        sampler,
        exemplar,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A crashed victim with grants outstanding at the crash, and the
    /// server recovered from it.
    fn crashed_and_recovered() -> (PdmServer, PdmServer, Vec<u64>) {
        let victim = durable_server(&small_tree(), CrashPlan::none(), NO_CHECKPOINTS);
        let tokens = scripted_workload(&victim, 0x000C_0FFE_E001, 30);
        let sql = recursive::mle_query(1).to_string();
        let _ = victim.checkout_procedure_with_deadline_obs(
            1,
            &sql,
            victim.shared().next_token(),
            None,
            &Recorder::disabled(),
        );
        assert!(
            !victim.durability().unwrap().outstanding_grants().is_empty(),
            "setup: the crash must find a grant to sweep"
        );
        let (recovered, report) = recover(crash_image(&victim), NO_CHECKPOINTS).unwrap();
        assert!(!report.swept_tokens.is_empty());
        (victim, recovered, tokens)
    }

    #[test]
    fn oracle_accepts_a_correct_recovery() {
        let (victim, recovered, tokens) = crashed_and_recovered();
        assert!(tokens.iter().any(|t| recovered.checkout_recorded(*t)));
        check_recovered(&victim, &recovered, &tokens).unwrap();
    }

    #[test]
    fn oracle_rejects_a_flag_that_is_set_again() {
        let (victim, recovered, tokens) = crashed_and_recovered();
        let swept = victim.durability().unwrap().outstanding_grants();
        let id = swept.values().flat_map(|g| &g.comp).next().unwrap();
        recovered
            .execute_deadline_obs(
                &format!("UPDATE comp SET checkedout = TRUE WHERE obid = {id}"),
                None,
                &Recorder::disabled(),
            )
            .unwrap();
        let err = check_recovered(&victim, &recovered, &tokens).unwrap_err();
        assert!(err.contains("published snapshot"), "{err}");
    }

    #[test]
    fn oracle_rejects_a_swept_grant_that_is_back() {
        let (victim, recovered, tokens) = crashed_and_recovered();
        let swept = victim.durability().unwrap().outstanding_grants();
        let (token, ids) = swept.iter().next().unwrap();
        recovered
            .durability()
            .unwrap()
            .log_grant(*token, &ids.assy, &ids.comp)
            .unwrap();
        let err = check_recovered(&victim, &recovered, &tokens).unwrap_err();
        assert!(err.contains("grants still tracked"), "{err}");

        // The same grant back in the lock table alone is caught too.
        let (victim, recovered, tokens) = crashed_and_recovered();
        recovered
            .lock_table()
            .acquire_in_flight(&ids.assy, *token, None)
            .unwrap();
        let err = check_recovered(&victim, &recovered, &tokens).unwrap_err();
        assert!(err.contains("stale lock grants"), "{err}");
    }

    #[test]
    fn nearest_rank_percentile() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.99), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
