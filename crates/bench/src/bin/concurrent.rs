#![allow(clippy::unwrap_used)]

//! Multi-client throughput bench over ONE shared server.
//!
//! N client threads each run a mixed PDM workload — multi-level expands,
//! Query actions, function-shipping check-outs with check-in, and the
//! occasional write (an epoch bump) — against a single `Arc<SharedServer>`.
//! Reported: sustained QPS, cross-session result-cache hit rate, and
//! p50/p99 per-operation latency (server-side wall clock, microseconds).
//!
//! The schedule is seeded per thread; the interleaving is whatever the
//! machine produces, so latency numbers are hardware-dependent — the
//! structural numbers (ops, grants+refusals, hit rate > 0) are not.
//!
//! Output: a summary table on stdout plus `BENCH_concurrent.json`.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use pdm_bench::visibility_rules;
use pdm_core::{
    chrome_trace_json, AttributionTable, PdmServer, Recorder, Session, SessionConfig, Strategy,
    TailSampler, TraceTree,
};
use pdm_net::LinkProfile;
use pdm_prng::Prng;
use pdm_workload::{build_database, TreeSpec};

const SEED: u64 = 0xBE7C4;

#[derive(Default)]
struct WorkerOut {
    latencies_us: Vec<u64>,
    expands: usize,
    queries: usize,
    grants: usize,
    refusals: usize,
    writes: usize,
}

/// `PDM_PROFILE=1` turns per-session span recording on (the CI obs job
/// runs the bench both ways; results must not change).
fn profiling() -> bool {
    std::env::var("PDM_PROFILE")
        .map(|v| v == "1")
        .unwrap_or(false)
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Traced side-pass (DESIGN.md §15): a single seeded session replays each
/// action class with cross-site tracing ON, feeding the per-class
/// attribution table and the tail-exemplar sampler. It runs AFTER the
/// measured phase on separate sessions — tracing changes the modeled
/// request volume, so the headline numbers above must never see it.
fn traced_side_pass(
    server: &PdmServer,
    roots: &[i64],
) -> (AttributionTable, TailSampler, Option<TraceTree>) {
    let mut session = Session::attach(
        server.clone(),
        SessionConfig::new("tracer", Strategy::Recursive, LinkProfile::wan_256()),
        visibility_rules(),
    );
    session.enable_tracing(SEED);
    let mut attr = AttributionTable::new();
    let mut trees: Vec<(&'static str, TraceTree)> = Vec::new();
    let grab = |class: &'static str, s: &Session, trees: &mut Vec<(&'static str, TraceTree)>| {
        let tree = s.last_trace().expect("traced action left no tree").clone();
        tree.validate().expect("bench trace failed validation");
        trees.push((class, tree));
    };
    for (i, root) in roots.iter().cycle().take(12).enumerate() {
        session.multi_level_expand(*root).unwrap();
        grab("expand", &session, &mut trees);
        session.query_all(roots[0]).unwrap();
        grab("query", &session, &mut trees);
        if i % 3 == 0 {
            let co = session.check_out_function_shipping(*root).unwrap();
            grab("checkout", &session, &mut trees);
            if let Some(tree) = co.tree {
                session.check_in(&tree).unwrap();
                grab("checkin", &session, &mut trees);
            }
        }
    }
    // Tail threshold: the p90 of the traced pass's own virtual latencies,
    // so only genuinely slow actions are retained in full.
    let mut totals: Vec<f64> = trees.iter().map(|(_, t)| t.total_v).collect();
    totals.sort_by(|a, b| a.total_cmp(b));
    let threshold = totals[(totals.len() - 1) * 9 / 10];
    let mut sampler = TailSampler::new(threshold, 4);
    for (class, tree) in &trees {
        attr.add(class, tree);
        sampler.offer(tree.clone());
    }
    let slowest = sampler.slowest().cloned();
    (attr, sampler, slowest)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let threads: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);
    let ops_per_thread: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(300);

    let spec = TreeSpec::new(3, 4, 0.8).with_node_size(256);
    let (db, _) = build_database(&spec).unwrap();
    let server = PdmServer::new(db);
    let roots: Vec<i64> = {
        let rs = server.query("SELECT obid FROM assy ORDER BY obid").unwrap();
        rs.rows
            .iter()
            .filter_map(|r| match r.get(0) {
                pdm_sql::Value::Int(i) => Some(*i),
                _ => None,
            })
            .collect()
    };

    let barrier = Arc::new(Barrier::new(threads + 1));
    let mut handles = Vec::new();
    for worker in 0..threads {
        let server = server.clone();
        let roots = roots.clone();
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut prng = Prng::seed_from_u64(SEED ^ (worker as u64).wrapping_mul(0x9E37));
            // Most clients run the tuned recursive strategy; every fourth
            // runs the late-eval baseline so the γ split (rows kept vs
            // filtered after transfer) shows up in the metrics snapshot.
            let strategy = if worker % 4 == 3 {
                Strategy::LateEval
            } else {
                Strategy::Recursive
            };
            let mut session = Session::attach(
                server.clone(),
                SessionConfig::new(format!("user{worker}"), strategy, LinkProfile::wan_256()),
                visibility_rules(),
            );
            if profiling() {
                session.enable_profiling();
            }
            let mut out = WorkerOut::default();
            barrier.wait();
            for _ in 0..ops_per_thread {
                let root = roots[(prng.next_u64() % roots.len() as u64) as usize];
                let kind = prng.next_u64() % 100;
                let started = Instant::now();
                match kind {
                    // Expands dominate, as in the paper's workload — and
                    // repeated expands are what the result cache serves.
                    0..=49 => {
                        session.multi_level_expand(root).unwrap();
                        out.expands += 1;
                    }
                    50..=74 => {
                        session.query_all(roots[0]).unwrap();
                        out.queries += 1;
                    }
                    75..=94 => {
                        let co = session.check_out_function_shipping(root).unwrap();
                        match co.tree {
                            Some(tree) => {
                                out.grants += 1;
                                session.check_in(&tree).unwrap();
                            }
                            None => out.refusals += 1,
                        }
                    }
                    // Occasional write: bumps the storage version, forcing
                    // the cache through a fresh epoch.
                    _ => {
                        server
                            .execute_deadline_obs(
                                &format!("UPDATE comp SET checkedout = FALSE WHERE obid = {root}"),
                                None,
                                &Recorder::disabled(),
                            )
                            .unwrap();
                        out.writes += 1;
                    }
                }
                out.latencies_us.push(started.elapsed().as_micros() as u64);
            }
            out
        }));
    }

    barrier.wait();
    let wall_start = Instant::now();
    let outs: Vec<WorkerOut> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let wall = wall_start.elapsed().as_secs_f64();

    let mut latencies: Vec<u64> = outs.iter().flat_map(|o| o.latencies_us.clone()).collect();
    latencies.sort_unstable();
    let total_ops = latencies.len();
    let qps = total_ops as f64 / wall;
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    // Cache accounting now lives in the shared metrics registry (one
    // source of truth); the hit rate is computed from its counters.
    let metrics = server.metrics().snapshot();
    let cache_hits = metrics.counter("cache.hits");
    let cache_misses = metrics.counter("cache.misses");
    let hit_rate = if cache_hits + cache_misses == 0 {
        0.0
    } else {
        cache_hits as f64 / (cache_hits + cache_misses) as f64
    };
    let grants: usize = outs.iter().map(|o| o.grants).sum();
    let refusals: usize = outs.iter().map(|o| o.refusals).sum();
    let expands: usize = outs.iter().map(|o| o.expands).sum();
    let queries: usize = outs.iter().map(|o| o.queries).sum();
    let writes: usize = outs.iter().map(|o| o.writes).sum();

    println!(
        "multi-client bench: {threads} threads x {ops_per_thread} ops, δ=3 β=4 γ=0.8, node 256B"
    );
    println!();
    println!("{:<26}{:>12}", "total ops", total_ops);
    println!("{:<26}{:>12.0}", "throughput (ops/s)", qps);
    println!("{:<26}{:>12}", "p50 latency (us)", p50);
    println!("{:<26}{:>12}", "p99 latency (us)", p99);
    println!("{:<26}{:>12.3}", "cache hit rate", hit_rate);
    println!(
        "{:<26}{:>12}",
        "cache hits/misses",
        format!("{cache_hits}/{cache_misses}")
    );
    println!(
        "{:<26}{:>12}",
        "cache invalidations",
        metrics.counter("cache.invalidations")
    );
    println!(
        "{:<26}{:>12}",
        "profiling",
        if profiling() { "on" } else { "off" }
    );
    println!("{:<26}{:>12}", "checkouts granted", grants);
    println!("{:<26}{:>12}", "checkouts refused", refusals);
    println!("{:<26}{:>12}", "epoch bumps (writes)", writes);
    println!(
        "{:<26}{:>12}",
        "final storage version",
        server.database().version()
    );

    let (attr, sampler, exemplar) = traced_side_pass(&server, &roots);
    let exemplar = exemplar.expect("traced side-pass retained no exemplar");
    std::fs::write(
        "BENCH_trace_exemplar.json",
        chrome_trace_json(std::slice::from_ref(&exemplar)),
    )
    .unwrap();
    println!(
        "tail exemplar: trace_id={} action={} total_v={:.6}s spans={} sites={:?}",
        exemplar.trace_id,
        exemplar.action,
        exemplar.total_v,
        exemplar.spans.len(),
        exemplar.sites()
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"concurrent\",\n",
            "  \"threads\": {},\n",
            "  \"ops_per_thread\": {},\n",
            "  \"profiling\": {},\n",
            "  \"total_ops\": {},\n",
            "  \"wall_seconds\": {:.4},\n",
            "  \"qps\": {:.1},\n",
            "  \"latency_us\": {{ \"p50\": {}, \"p99\": {} }},\n",
            "  \"cache\": {{ \"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4} }},\n",
            "  \"ops\": {{ \"expand\": {}, \"query\": {}, \"checkout_granted\": {}, ",
            "\"checkout_refused\": {}, \"writes\": {} }},\n",
            "  \"final_version\": {},\n",
            "  \"attribution\": {},\n",
            "  \"tail_exemplar\": {{ \"file\": \"BENCH_trace_exemplar.json\", ",
            "\"trace_id\": {}, \"action\": \"{}\", \"outcome\": \"{}\", \"total_v_s\": {:.9}, ",
            "\"spans\": {}, \"offered\": {}, \"retained\": {} }},\n",
            "  \"metrics\": {}\n",
            "}}\n"
        ),
        threads,
        ops_per_thread,
        profiling(),
        total_ops,
        wall,
        qps,
        p50,
        p99,
        cache_hits,
        cache_misses,
        hit_rate,
        expands,
        queries,
        grants,
        refusals,
        writes,
        server.database().version(),
        attr.to_json(2),
        exemplar.trace_id,
        exemplar.action,
        exemplar.outcome,
        exemplar.total_v,
        exemplar.spans.len(),
        sampler.offered,
        sampler.retained,
        metrics.to_json(2).trim_end(),
    );
    std::fs::write("BENCH_concurrent.json", json).unwrap();
    println!();
    println!("wrote BENCH_concurrent.json and BENCH_trace_exemplar.json");

    assert!(
        cache_hits > 0,
        "acceptance: the cross-session cache must serve hits under this workload"
    );
}
