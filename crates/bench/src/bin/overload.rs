#![allow(clippy::unwrap_used)]

//! Overload robustness bench: admission control under an open-loop load
//! sweep, plus the seeded retry-storm (metastability) scenario.
//!
//! A worldwide client population does not slow down because the central
//! PDM server is busy — arrivals are open-loop (Poisson, `pdm_workload::
//! OpenLoop`), so offered load λ can exceed capacity. The server installs
//! an `OverloadGate` (token bucket at `CAPACITY` ops/s with priority
//! headroom); every admitted action executes for real against the shared
//! server, while its *latency* is modeled in virtual time against a
//! deterministic single-server queue (service time `1/SERVICE_RATE`).
//! The whole simulation is single-threaded and seed-deterministic.
//!
//! Two experiments:
//!
//! 1. **Sweep** λ ∈ {0.5, 1, 2, 4}×capacity for `HORIZON` virtual
//!    seconds: goodput (completions within the SLO), shed rate, and
//!    admitted-latency percentiles per point. Under saturation the gate
//!    paces admissions at the refill rate, so admitted work stays fast —
//!    goodput flattens at capacity instead of collapsing.
//! 2. **Retry storm**: base load 0.8×capacity with a 3×capacity spike
//!    during t ∈ [10, 20). With client retry budgets (leaky bucket,
//!    retries ≤ ~10% of requests) the system converges right after the
//!    spike; with budgets off, every shed client retries until admitted
//!    and the retry backlog keeps the gate saturated long after the spike
//!    — the metastable failure mode the admission layer exists to bound.
//!
//! Output: a summary on stdout plus `BENCH_overload.json`; on acceptance
//! failure, `OVERLOAD_journal.txt` holds the per-run evidence.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use pdm_bench::harness::{percentile, roots, server};
use pdm_bench::report::Report;
use pdm_bench::visibility_rules;
use pdm_core::{
    MetricsSnapshot, OverloadConfig, PdmServer, Priority, Recorder, RetryBudget, Session,
    SessionConfig, SessionError, Strategy,
};
use pdm_net::LinkProfile;
use pdm_obs::metrics::{families, Family};
use pdm_prng::Prng;
use pdm_workload::{Arrival, ArrivalClass, ClassMix, OpenLoop, TreeSpec};

/// Admission-gate capacity (token refill rate, ops/s of virtual time).
const CAPACITY: f64 = 20.0;
/// Modeled server drain rate; capacity is set below it so admitted work
/// never queues unboundedly (the gate, not the queue, is the limiter).
const SERVICE_RATE: f64 = 25.0;
/// Virtual seconds of arrivals per sweep point.
const HORIZON: f64 = 30.0;
/// An op counts toward goodput when its end-to-end latency (arrival to
/// completion, retries included) stays within this SLO.
const SLO: f64 = 1.0;
/// Clients never retry faster than this, even on a tiny `retry_after`.
const MIN_RETRY: f64 = 0.1;
/// Admitted-latency percentiles are steady-state figures: the first few
/// seconds are excluded because the token bucket starts full, so an
/// over-capacity run begins with a one-time burst-sized queue transient.
const WARMUP: f64 = 5.0;

/// Families the overload report must carry: the admission and shedding
/// counters this bench exists for, and — its sessions drive the whole read
/// and check-out path — the WAN, cache, lock-table, engine and query totals
/// (`session.rows_*` is pinned by `tests/observability.rs`).
const MANDATORY: &[Family] = &[
    families::ADMISSION_ADMITTED,
    families::ADMISSION_REJECTED,
    families::ADMISSION_INFLIGHT,
    families::OVERLOAD_SHED_INTERACTIVE,
    families::OVERLOAD_SHED_CHECKOUT,
    families::OVERLOAD_SHED_BATCH,
    families::OVERLOAD_DEADLINE_ABANDONS,
    families::OVERLOAD_RETRY_BUDGET_DENIALS,
    families::OVERLOAD_LOCK_QUEUE_REJECTIONS,
    families::CACHE_SINGLEFLIGHT_LEADERS,
    families::CACHE_SINGLEFLIGHT_HITS,
    families::NET_QUERIES,
    families::NET_COMMUNICATIONS,
    families::NET_RETRANSMITS,
    families::NET_VOLUME_BYTES,
    families::NET_LATENCY_S,
    families::NET_TRANSFER_S,
    families::CACHE_HITS,
    families::CACHE_MISSES,
    families::CACHE_INVALIDATIONS,
    families::LOCKS_GRANTS,
    families::LOCKS_REFUSALS,
    families::LOCKS_WAIT_NS,
    families::ENGINE_ROWS_SCANNED,
    families::SERVER_QUERIES,
];

/// One simulated user action.
struct Op {
    arrival: Arrival,
    attempts: u32,
    done: bool,
    gave_up: bool,
    completed_at: f64,
}

/// Heap entry: next attempt of op `op` at virtual time `t`. Ordered by
/// time, ties broken by insertion sequence for determinism.
struct Ev {
    t: f64,
    seq: u64,
    op: usize,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.t.total_cmp(&other.t).is_eq() && self.seq == other.seq
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.t.total_cmp(&other.t).then(self.seq.cmp(&other.seq))
    }
}

struct SimOut {
    ops: Vec<Op>,
    sheds: usize,
    retries: usize,
    budget_denials: u64,
    admitted_latencies: Vec<f64>,
    server: PdmServer,
}

/// Goodput over an arrival window: ops arriving in `[lo, hi)` that
/// completed within the SLO, per second of window.
fn window_goodput(ops: &[Op], lo: f64, hi: f64) -> f64 {
    let good = ops
        .iter()
        .filter(|o| o.arrival.at >= lo && o.arrival.at < hi)
        .filter(|o| o.done && o.completed_at - o.arrival.at <= SLO)
        .count();
    good as f64 / (hi - lo)
}

/// Run one open-loop simulation: real execution through the admission
/// gate, virtual-time latency, client-side retry loop.
fn simulate(arrivals: Vec<Arrival>, budgets_on: bool, seed: u64, cutoff: f64) -> SimOut {
    let server = server(&TreeSpec::new(2, 3, 1.0).with_node_size(128));
    server
        .shared()
        .install_overload_gate(OverloadConfig::per_second(CAPACITY));

    let mk = |user: &str| {
        Session::attach(
            server.clone(),
            SessionConfig::new(user, Strategy::Recursive, LinkProfile::wan_256()),
            visibility_rules(),
        )
    };
    let mut s_inter = mk("interactive");
    let mut s_co = mk("designer");
    let mut s_batch = mk("rollup");
    s_batch.set_priority_class(Priority::Batch);
    if budgets_on {
        for s in [&mut s_inter, &mut s_co, &mut s_batch] {
            s.enable_retry_budget(RetryBudget::default_ratio());
        }
    }

    let roots = roots(&server);

    let mut jitter = Prng::seed_from_u64(seed ^ 0x0FF_10AD);
    let mut ops: Vec<Op> = arrivals
        .into_iter()
        .map(|arrival| Op {
            arrival,
            attempts: 0,
            done: false,
            gave_up: false,
            completed_at: 0.0,
        })
        .collect();

    let mut heap: BinaryHeap<Reverse<Ev>> = BinaryHeap::with_capacity(ops.len());
    let mut seq = 0u64;
    for (i, op) in ops.iter().enumerate() {
        heap.push(Reverse(Ev {
            t: op.arrival.at,
            seq,
            op: i,
        }));
        seq += 1;
    }

    let gate = server.shared().overload_gate().unwrap();
    let mut busy_until = 0.0f64;
    let mut sheds = 0usize;
    let mut retries = 0usize;
    let mut admitted_latencies = Vec::new();

    while let Some(Reverse(ev)) = heap.pop() {
        // Hard cutoff: a backlog that has not drained by now never counts
        // as goodput — this bounds the budgets-off storm run instead of
        // simulating its (much longer) tail.
        if ev.t >= cutoff {
            continue;
        }
        gate.advance_to(ev.t);
        let op = &mut ops[ev.op];
        op.attempts += 1;
        let root = roots[op.arrival.root_index % roots.len()];
        let result: Result<(), SessionError> = match op.arrival.class {
            ArrivalClass::Interactive => s_inter.multi_level_expand(root).map(|_| ()),
            ArrivalClass::Batch => s_batch.multi_level_expand(root).map(|_| ()),
            ArrivalClass::Checkout => s_co.check_out_function_shipping(root).map(|out| {
                // Check the subtree straight back in (out-of-band
                // bookkeeping) so the lock table stays empty and every
                // simulated check-out exercises the grant path.
                if let Some(tree) = out.tree {
                    let mut assy = Vec::new();
                    let mut comp = Vec::new();
                    for node in tree.nodes() {
                        match node.type_name.as_str() {
                            "assy" => assy.push(node.obid),
                            "comp" => comp.push(node.obid),
                            _ => {}
                        }
                    }
                    server
                        .checkin_procedure(&assy, &comp, &Recorder::disabled())
                        .unwrap();
                }
            }),
        };
        match result {
            Ok(()) => {
                let start = busy_until.max(ev.t);
                busy_until = start + 1.0 / SERVICE_RATE;
                op.done = true;
                op.completed_at = busy_until;
                if ev.t >= WARMUP {
                    admitted_latencies.push(busy_until - ev.t);
                }
            }
            Err(SessionError::Overloaded { retry_after }) => {
                sheds += 1;
                let session = match op.arrival.class {
                    ArrivalClass::Interactive => &mut s_inter,
                    ArrivalClass::Checkout => &mut s_co,
                    ArrivalClass::Batch => &mut s_batch,
                };
                let allowed = match session.retry_budget_mut() {
                    Some(budget) => budget.try_spend(),
                    None => true, // budgets off: retry until admitted
                };
                if allowed {
                    retries += 1;
                    let wait = retry_after.max(MIN_RETRY) + jitter.f64() * 0.05;
                    heap.push(Reverse(Ev {
                        t: ev.t + wait,
                        seq,
                        op: ev.op,
                    }));
                    seq += 1;
                } else {
                    op.gave_up = true;
                }
            }
            Err(e) => panic!("unexpected session error under overload bench: {e}"),
        }
    }

    let budget_denials = [&mut s_inter, &mut s_co, &mut s_batch]
        .into_iter()
        .filter_map(|s| s.retry_budget_mut().map(|b| b.denied()))
        .sum();
    // `overload.retry_budget_denials` is a client-population quantity; the
    // bench folds it into the server registry so one snapshot carries the
    // whole experiment.
    server
        .metrics()
        .counter(families::OVERLOAD_RETRY_BUDGET_DENIALS)
        .add(budget_denials);

    SimOut {
        ops,
        sheds,
        retries,
        budget_denials,
        admitted_latencies,
        server,
    }
}

struct SweepPoint {
    multiplier: f64,
    offered: usize,
    completed: usize,
    sheds: usize,
    retries: usize,
    gave_up: usize,
    shed_rate: f64,
    goodput: f64,
    admitted_p50: f64,
    admitted_p99: f64,
}

fn sweep_point(seed: u64, multiplier: f64) -> (SweepPoint, SimOut) {
    let lambda = multiplier * CAPACITY;
    let arrivals = OpenLoop::new(seed ^ multiplier.to_bits(), ClassMix::pdm_default(), 8)
        .arrivals_until(lambda, HORIZON);
    let offered = arrivals.len();
    let out = simulate(arrivals, true, seed, HORIZON + 30.0);
    let mut lat = out.admitted_latencies.clone();
    lat.sort_by(f64::total_cmp);
    let completed = out.ops.iter().filter(|o| o.done).count();
    let gave_up = out.ops.iter().filter(|o| o.gave_up).count();
    let point = SweepPoint {
        multiplier,
        offered,
        completed,
        sheds: out.sheds,
        retries: out.retries,
        gave_up,
        shed_rate: out.sheds as f64 / (out.sheds + completed).max(1) as f64,
        goodput: window_goodput(&out.ops, 0.0, HORIZON),
        admitted_p50: percentile(&lat, 0.50),
        admitted_p99: percentile(&lat, 0.99),
    };
    (point, out)
}

struct StormOut {
    pre_goodput: f64,
    post_goodput: f64,
    sheds: usize,
    retries: usize,
    gave_up: usize,
    budget_denials: u64,
    unresolved: usize,
}

/// Retry-storm scenario. `with_spike = false` is the control: because the
/// spike is produced by *thinning* a peak-rate Poisson stream, control and
/// storm runs draw the identical candidate sequence and accept the
/// identical arrivals outside the spike window — so comparing post-window
/// goodput between them isolates the spike's residue from sampling noise.
fn storm(seed: u64, budgets_on: bool, with_spike: bool) -> StormOut {
    let base = 0.8 * CAPACITY;
    let spike = 3.0 * CAPACITY;
    let horizon = 70.0;
    let arrivals = OpenLoop::new(seed ^ 0x5708, ClassMix::pdm_default(), 8).arrivals_with_spike(
        spike,
        horizon,
        |t| {
            if with_spike && (20.0..30.0).contains(&t) {
                spike
            } else {
                base
            }
        },
    );
    let out = simulate(arrivals, budgets_on, seed, horizon + 20.0);
    StormOut {
        pre_goodput: window_goodput(&out.ops, 2.0, 20.0),
        post_goodput: window_goodput(&out.ops, 35.0, 70.0),
        sheds: out.sheds,
        retries: out.retries,
        gave_up: out.ops.iter().filter(|o| o.gave_up).count(),
        budget_denials: out.budget_denials,
        unresolved: out.ops.iter().filter(|o| !o.done && !o.gave_up).count(),
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(193);

    println!("overload bench: capacity {CAPACITY} ops/s, service {SERVICE_RATE} ops/s, SLO {SLO}s, seed {seed}");
    println!();

    // -- experiment 1: open-loop load sweep -------------------------------
    let mut journal = String::new();
    journal.push_str(&format!("overload bench journal (seed {seed})\n"));
    let mut points = Vec::new();
    let mut sweep_metrics = MetricsSnapshot::default();
    for multiplier in [0.5, 1.0, 2.0, 4.0] {
        let (p, out) = sweep_point(seed, multiplier);
        journal.push_str(&format!(
            "sweep x{}: offered {} completed {} sheds {} retries {} gave_up {} goodput {:.2} p99 {:.3}s\n",
            p.multiplier, p.offered, p.completed, p.sheds, p.retries, p.gave_up, p.goodput, p.admitted_p99,
        ));
        println!(
            "load {:>4}x  offered {:>5}  goodput {:>6.2}/s  shed rate {:>5.3}  admitted p50/p99 {:>6.3}/{:.3}s",
            p.multiplier, p.offered, p.goodput, p.shed_rate, p.admitted_p50, p.admitted_p99
        );
        if multiplier == 2.0 {
            sweep_metrics = out.server.metrics().snapshot();
        }
        points.push(p);
    }

    // -- experiment 2: retry storm, budgets on vs off ----------------------
    let on = storm(seed, true, true);
    let off = storm(seed, false, true);
    let control_on = storm(seed, true, false);
    let control_off = storm(seed, false, false);
    for (name, s) in [
        ("budgets_on", &on),
        ("budgets_off", &off),
        ("control_on", &control_on),
        ("control_off", &control_off),
    ] {
        journal.push_str(&format!(
            "storm {name}: pre {:.2}/s post {:.2}/s sheds {} retries {} gave_up {} denials {} unresolved {}\n",
            s.pre_goodput, s.post_goodput, s.sheds, s.retries, s.gave_up, s.budget_denials, s.unresolved,
        ));
        println!(
            "storm {name:<12} pre-spike {:>6.2}/s  post-spike {:>6.2}/s  sheds {:>6}  retries {:>6}  unresolved {}",
            s.pre_goodput, s.post_goodput, s.sheds, s.retries, s.unresolved
        );
    }
    println!();

    // -- acceptance --------------------------------------------------------
    let check = |cond: bool, msg: &str, journal: &str| {
        if !cond {
            std::fs::write("OVERLOAD_journal.txt", journal).unwrap();
            panic!("acceptance failed: {msg} (journal in OVERLOAD_journal.txt)");
        }
    };
    let p1 = &points[1]; // 1x
    let p2 = &points[2]; // 2x
    let p05 = &points[0]; // 0.5x (uncontended)
    check(
        p2.goodput >= 0.8 * p1.goodput,
        &format!(
            "2x goodput {:.2} must stay >= 80% of 1x goodput {:.2}",
            p2.goodput, p1.goodput
        ),
        &journal,
    );
    check(
        p2.admitted_p99 <= 5.0 * p05.admitted_p99.max(1.0 / SERVICE_RATE),
        &format!(
            "2x admitted p99 {:.3}s must stay within 5x uncontended p99 {:.3}s",
            p2.admitted_p99, p05.admitted_p99
        ),
        &journal,
    );
    check(
        p2.sheds > 0,
        "2x load must shed (the gate must actually engage)",
        &journal,
    );
    check(
        on.post_goodput >= 0.9 * control_on.post_goodput,
        &format!(
            "with retry budgets the storm must converge: post {:.2} vs no-spike control {:.2}",
            on.post_goodput, control_on.post_goodput
        ),
        &journal,
    );
    check(
        off.post_goodput < 0.9 * control_off.post_goodput,
        &format!(
            "without budgets the storm must measurably degrade: off post {:.2} vs control {:.2}",
            off.post_goodput, control_off.post_goodput
        ),
        &journal,
    );

    // -- JSON --------------------------------------------------------------
    let sweep_json: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                concat!(
                    "    {{ \"multiplier\": {}, \"offered\": {}, \"completed\": {}, ",
                    "\"sheds\": {}, \"retries\": {}, \"gave_up\": {}, \"shed_rate\": {:.4}, ",
                    "\"goodput\": {:.3}, \"admitted_p50_s\": {:.4}, \"admitted_p99_s\": {:.4} }}"
                ),
                p.multiplier,
                p.offered,
                p.completed,
                p.sheds,
                p.retries,
                p.gave_up,
                p.shed_rate,
                p.goodput,
                p.admitted_p50,
                p.admitted_p99,
            )
        })
        .collect();
    let storm_json = |s: &StormOut| {
        format!(
            concat!(
                "{{ \"pre_goodput\": {:.3}, \"post_goodput\": {:.3}, \"sheds\": {}, ",
                "\"retries\": {}, \"gave_up\": {}, \"budget_denials\": {}, \"unresolved\": {} }}"
            ),
            s.pre_goodput,
            s.post_goodput,
            s.sheds,
            s.retries,
            s.gave_up,
            s.budget_denials,
            s.unresolved,
        )
    };
    println!("acceptance: all overload criteria hold");
    Report::new("overload", sweep_metrics, MANDATORY)
        .field("seed", seed)
        .field("capacity_ops_per_s", CAPACITY)
        .field("service_rate_ops_per_s", SERVICE_RATE)
        .field("horizon_s", HORIZON)
        .field("slo_s", SLO)
        .field("sweep", format!("[\n{}\n  ]", sweep_json.join(",\n")))
        .field(
            "storm",
            format!(
                concat!(
                    "{{\n",
                    "    \"budgets_on\": {},\n",
                    "    \"budgets_off\": {},\n",
                    "    \"control_on\": {},\n",
                    "    \"control_off\": {}\n",
                    "  }}"
                ),
                storm_json(&on),
                storm_json(&off),
                storm_json(&control_on),
                storm_json(&control_off),
            ),
        )
        .write();
}
