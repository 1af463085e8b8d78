#![allow(clippy::unwrap_used)]

//! Chaos bench: seeded crash/recovery cycles plus a recovery-time profile.
//!
//! Two parts:
//!
//! 1. **Crash cycles** — `cycles` rounds of: run a seeded mixed workload
//!    (DML, server-side check-outs, check-ins) against a durable server
//!    whose simulated log device is scheduled to die at a PRNG-chosen
//!    write boundary under a PRNG-chosen tail fault; recover from the
//!    surviving bytes; verify the recovery invariants (state matches the
//!    crashed server's published snapshot plus the stale-grant sweep, no
//!    surviving lock grants or `checkedout` flags, completed idempotency
//!    tokens replay without re-executing). Any violation writes
//!    `CHAOS_journal.txt` with the failing seed and dies non-zero — the CI
//!    chaos job uploads that file as an artifact.
//!
//! 2. **Recovery profile** — recovery wall time and replay volume as a
//!    function of log length and checkpoint interval, written to
//!    `BENCH_recovery.json`.
//!
//! Usage: `chaos [seed] [cycles]` (also honors `CHAOS_SEED`; CI runs three
//! distinct seeds in release mode).

use std::sync::Arc;
use std::time::{Duration, Instant};

use pdm_core::query::recursive;
use pdm_core::{recover_server, DurabilityConfig, PdmServer, Recorder, SharedServer};
use pdm_prng::Prng;
use pdm_sql::persist::{database_fingerprint, state_fingerprint};
use pdm_sql::shared::Snapshot;
use pdm_sql::{Database, Value};
use pdm_wal::{CrashPlan, TailFault};
use pdm_workload::{build_database, TreeSpec};

const NO_CHECKPOINTS: u64 = 1 << 40;

fn initial_database() -> Database {
    build_database(&TreeSpec::new(3, 3, 1.0).with_node_size(64))
        .unwrap()
        .0
}

fn durable_server(plan: CrashPlan, interval: u64) -> PdmServer {
    let cfg = DurabilityConfig::default()
        .with_interval(interval)
        .with_crash_plan(plan);
    PdmServer::from_shared(Arc::new(
        SharedServer::with_durability(initial_database(), &cfg).unwrap(),
    ))
}

fn int_column(rows: &pdm_sql::ResultSet) -> Vec<i64> {
    rows.rows
        .iter()
        .filter_map(|r| match r.get(0) {
            Value::Int(i) => Some(*i),
            _ => None,
        })
        .collect()
}

fn flagged_ids(server: &PdmServer, table: &str) -> Vec<i64> {
    int_column(
        &server
            .query(&format!(
                "SELECT obid FROM {table} WHERE checkedout = TRUE ORDER BY obid"
            ))
            .unwrap(),
    )
}

/// Seed-deterministic op mix; results are ignored so the script keeps
/// running after the device dies (post-crash writes fail fast).
fn scripted_workload(server: &PdmServer, seed: u64, steps: usize) -> Vec<u64> {
    let mut rng = Prng::seed_from_u64(seed);
    // Post-crash writes fail fast; the workload keeps going regardless.
    let execute = |sql: String| {
        let _ = server.execute_deadline_obs(&sql, None, &Recorder::disabled());
    };
    let roots = int_column(&server.query("SELECT obid FROM assy ORDER BY obid").unwrap());
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

/// Expected recovered state: the crashed server's published snapshot (the
/// commit gate syncs before publishing, so published == durable) with all
/// outstanding grants swept back to `FALSE`.
fn published_plus_sweep(server: &PdmServer) -> Vec<u8> {
    let snapshot = server.database().snapshot();
    let mut db = Database {
        catalog: snapshot.catalog.clone(),
        config: snapshot.config.clone(),
    };
    let grants = server.shared().durability().unwrap().outstanding_grants();
    let mut sweep_assy: Vec<i64> = grants.values().flat_map(|g| g.assy.clone()).collect();
    let mut sweep_comp: Vec<i64> = grants.values().flat_map(|g| g.comp.clone()).collect();
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
    state_fingerprint(&Snapshot {
        catalog: db.catalog,
        config: db.config,
        version: 0,
    })
}

struct CycleFailure {
    cycle: u64,
    crash_op: u64,
    fault: TailFault,
    detail: String,
    /// Server metrics snapshot at failure time — the post-mortem context
    /// the journal carries alongside the reproducing seed.
    metrics: String,
}

fn run_cycle(seed: u64, cycle: u64) -> Result<(u64, u64, String), CycleFailure> {
    let mut rng = Prng::seed_from_u64(seed ^ cycle.wrapping_mul(0x9E37_79B9));
    let crash_op = rng.u64_inclusive(0, 90);
    let fault = match rng.index(3) {
        0 => TailFault::LoseTail,
        1 => TailFault::TornWrite,
        _ => TailFault::PartialSector,
    };

    let plan = CrashPlan::at_op(crash_op)
        .with_fault(fault)
        .with_seed(rng.next_u64());
    let victim = durable_server(plan, NO_CHECKPOINTS);
    let fail = |detail: String| CycleFailure {
        cycle,
        crash_op,
        fault,
        detail,
        metrics: victim.metrics().snapshot().to_json(0),
    };
    let tokens = scripted_workload(&victim, rng.next_u64(), 30);
    let durability = victim.shared().durability().unwrap();
    if !durability.is_crashed() {
        durability.crash_now();
    }

    let cfg = DurabilityConfig::default().with_interval(NO_CHECKPOINTS);
    let (recovered, report) = recover_server(durability.image(), &cfg)
        .map_err(|e| fail(format!("recovery failed: {e}")))?;
    let recovered = PdmServer::from_shared(Arc::new(recovered));

    if database_fingerprint(recovered.database()) != published_plus_sweep(&victim) {
        return Err(fail(
            "recovered state differs from durable prefix + sweep".into(),
        ));
    }
    if !recovered.shared().lock_table().is_empty() {
        return Err(fail("stale lock grants survived recovery".into()));
    }
    for table in ["assy", "comp"] {
        if !flagged_ids(&recovered, table).is_empty() {
            return Err(fail(format!("stale checkedout flags in {table}")));
        }
    }
    for token in tokens {
        if !recovered.checkout_recorded(token) {
            // The token never completed before the crash; its grant (if
            // any) was swept. Nothing to replay.
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
            .map_err(|e| fail(format!("token {token} replay failed: {e}")))?;
        if recovered.database().version() != before {
            return Err(fail(format!("token {token} replay re-executed")));
        }
    }
    Ok((
        report.replayed_commits,
        report.swept_tokens.len() as u64,
        victim.metrics().snapshot().to_json(2),
    ))
}

/// One recovery-time sample: `commits` UPDATE commits at checkpoint
/// `interval`, crash at the end, time `recover_server`.
fn profile_point(commits: u64, interval: u64) -> (usize, u64, f64) {
    let server = durable_server(CrashPlan::none(), interval);
    let mut rng = Prng::seed_from_u64(0x5EED ^ commits ^ interval);
    let roots = int_column(&server.query("SELECT obid FROM assy ORDER BY obid").unwrap());
    for _ in 0..commits {
        let id = roots[rng.index(roots.len())];
        let payload = rng.ident(4, 12);
        server
            .execute_deadline_obs(
                &format!("UPDATE assy SET payload = '{payload}' WHERE obid = {id}"),
                None,
                &Recorder::disabled(),
            )
            .unwrap();
    }
    let durability = server.shared().durability().unwrap();
    durability.crash_now();
    let image = durability.image();
    let log_len = image.log.len();
    let cfg = DurabilityConfig::default().with_interval(interval);
    let start = Instant::now();
    let (_server, report) = recover_server(image, &cfg).unwrap();
    let elapsed = start.elapsed().as_secs_f64() * 1e3;
    (log_len, report.replayed_commits, elapsed)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args
        .next()
        .or_else(|| std::env::var("CHAOS_SEED").ok())
        .and_then(|a| a.parse().ok())
        .unwrap_or(0xC4A05);
    let cycles: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(40);

    println!("chaos: {cycles} crash/recovery cycles, seed {seed:#x}");
    let mut replayed_total = 0u64;
    let mut swept_total = 0u64;
    // Metrics of the LAST completed cycle's victim server: one
    // representative per-cycle workload snapshot for the bench report.
    let mut cycle_metrics = String::from("{}");
    let start = Instant::now();
    for cycle in 0..cycles {
        match run_cycle(seed, cycle) {
            Ok((replayed, swept, metrics)) => {
                replayed_total += replayed;
                swept_total += swept;
                cycle_metrics = metrics;
            }
            Err(f) => {
                let journal = format!(
                    "chaos failure\nseed: {seed:#x}\ncycle: {}\ncrash_op: {}\nfault: {:?}\ndetail: {}\nrerun: cargo run --release --bin chaos -- {seed} {cycles}\nserver metrics at failure:\n{}\n",
                    f.cycle, f.crash_op, f.fault, f.detail, f.metrics
                );
                std::fs::write("CHAOS_journal.txt", &journal).unwrap();
                eprintln!("{journal}");
                std::process::exit(1);
            }
        }
    }
    let wall = start.elapsed().as_secs_f64();
    println!(
        "  {cycles} cycles ok in {wall:.2}s: {replayed_total} commits replayed, {swept_total} grants swept"
    );

    println!("recovery profile (interval, commits, log bytes, replayed, ms):");
    let mut rows = Vec::new();
    for &interval in &[8u64, 32, 128, NO_CHECKPOINTS] {
        for &commits in &[100u64, 350, 1100] {
            let (log_len, replayed, ms) = profile_point(commits, interval);
            let label = if interval == NO_CHECKPOINTS {
                "none".to_string()
            } else {
                interval.to_string()
            };
            println!("  {label:>6} {commits:>6} {log_len:>9} {replayed:>6} {ms:>8.2}");
            rows.push(format!(
                concat!(
                    "    {{ \"checkpoint_interval\": \"{}\", \"commits\": {}, ",
                    "\"log_bytes\": {}, \"replayed_commits\": {}, \"recovery_ms\": {:.3} }}"
                ),
                label, commits, log_len, replayed, ms
            ));
        }
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"recovery\",\n",
            "  \"seed\": {},\n",
            "  \"crash_cycles\": {},\n",
            "  \"cycle_wall_seconds\": {:.3},\n",
            "  \"replayed_commits\": {},\n",
            "  \"swept_grants\": {},\n",
            "  \"profile\": [\n{}\n  ],\n",
            "  \"metrics\": {}\n",
            "}}\n"
        ),
        seed,
        cycles,
        wall,
        replayed_total,
        swept_total,
        rows.join(",\n"),
        cycle_metrics.trim_end()
    );
    std::fs::write("BENCH_recovery.json", json).unwrap();
    println!("wrote BENCH_recovery.json");
}
