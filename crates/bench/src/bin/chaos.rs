#![allow(clippy::unwrap_used, clippy::disallowed_methods)]

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
//! 2. **Recovery profile** — recovery wall time (stdout only: it differs
//!    run to run) and replay volume (also written to `BENCH_recovery.json`,
//!    which a seeded run regenerates byte for byte) as a function of log
//!    length and checkpoint interval.
//!
//! Usage: `chaos [seed] [cycles]` (also honors `CHAOS_SEED`; CI runs three
//! distinct seeds in release mode).

use std::time::Instant;

use pdm_bench::harness::{
    check_recovered, crash_image, durable_server, recover, roots, scripted_workload, small_tree,
    NO_CHECKPOINTS,
};
use pdm_bench::report::Report;
use pdm_core::{MetricsSnapshot, Recorder};
use pdm_obs::metrics::{families, Family};
use pdm_prng::Prng;
use pdm_wal::{CrashPlan, TailFault};

/// Families the recovery report must carry: the victim logged commits and
/// grants, and timed its fsyncs.
const MANDATORY: &[Family] = &[
    families::WAL_APPENDS,
    families::SERVER_DML_COMMITS,
    families::LOCKS_GRANTS,
    families::WAL_FSYNC_NS,
];

struct CycleFailure {
    cycle: u64,
    crash_op: u64,
    fault: TailFault,
    detail: String,
    /// Server metrics snapshot at failure time — the post-mortem context
    /// the journal carries alongside the reproducing seed.
    metrics: String,
}

/// One crash/recovery cycle: replayed commits, swept grants, and the
/// victim's metrics.
fn run_cycle(seed: u64, cycle: u64) -> Result<(u64, u64, MetricsSnapshot), CycleFailure> {
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
    let victim = durable_server(&small_tree(), plan, NO_CHECKPOINTS);
    let fail = |detail: String| CycleFailure {
        cycle,
        crash_op,
        fault,
        detail,
        metrics: victim.metrics().snapshot().to_json(0),
    };
    let tokens = scripted_workload(&victim, rng.next_u64(), 30);
    let (recovered, report) = recover(crash_image(&victim), NO_CHECKPOINTS).map_err(fail)?;
    check_recovered(&victim, &recovered, &tokens).map_err(fail)?;
    Ok((
        report.replayed_commits,
        report.swept_tokens.len() as u64,
        victim.metrics().snapshot(),
    ))
}

/// One recovery-time sample: `commits` UPDATE commits at checkpoint
/// `interval`, crash at the end, time `recover_server`.
fn profile_point(commits: u64, interval: u64) -> (usize, u64, f64) {
    let server = durable_server(&small_tree(), CrashPlan::none(), interval);
    let mut rng = Prng::seed_from_u64(0x5EED ^ commits ^ interval);
    let roots = roots(&server);
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
    let image = crash_image(&server);
    let log_len = image.log.len();
    let start = Instant::now();
    let (_server, report) = recover(image, interval).unwrap();
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
    let mut cycle_metrics = MetricsSnapshot::default();
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
                    "\"log_bytes\": {}, \"replayed_commits\": {} }}"
                ),
                label, commits, log_len, replayed
            ));
        }
    }

    // Wall-clock figures (cycle time, recovery ms) are on stdout only: the
    // committed report regenerates byte for byte.
    Report::new("recovery", cycle_metrics, MANDATORY)
        .field("seed", seed)
        .field("crash_cycles", cycles)
        .field("replayed_commits", replayed_total)
        .field("swept_grants", swept_total)
        .field("profile", format!("[\n{}\n  ]", rows.join(",\n")))
        .write();
}
