//! Workload definitions and the phases of one run: set-up (with warm-up),
//! the untraced measured phase, the output oracles, and — with `--trace 1`
//! — the traced layer-replay pass.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use crate::ops::{Kind, MixedInputs, Op, OpStream, Rng};
use crate::report::{self, RunResult, Values};
use crate::spans::{self, Tracer};
use crate::stats;
use crate::sut::{Client, ClusterSut, Counters, Inputs, Outcome, Retrieval, ServerSut, Tree};

/// The five workloads, in report order.
pub const WORKLOADS: [&str; 5] = ["nav_fit", "nav_spill", "mixed_1c", "mixed_2c", "repl_rw"];

/// Equal-op segments the measured phase is cut into; rates are the median
/// over them.
const SEGMENTS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Topology {
    /// `clients` closed-loop sessions (one thread each) on one server.
    Server { clients: usize },
    /// One driver thread over a primary + 2 replicas, one lane per site.
    Cluster,
}

impl Topology {
    fn lanes(self) -> usize {
        match self {
            Topology::Server { clients } => clients,
            Topology::Cluster => 2,
        }
    }
}

struct Spec {
    depth: u32,
    branching: u32,
    gamma: f64,
    topology: Topology,
    retrieval: Retrieval,
    /// Navigational workloads expand the first `.1` visible sub-assemblies
    /// of level `.0`; `None` runs the mixed stream.
    nav_roots: Option<(usize, usize)>,
    /// Warm-up actions per driver thread (part of `setup_s`).
    warmup_ops: usize,
    /// Actions each replay pass of the traced run repeats.
    replay_ops: usize,
}

fn spec(workload: &str) -> Option<Spec> {
    let nav = |roots, replay_ops| Spec {
        depth: 7,
        branching: 4,
        gamma: 0.9,
        topology: Topology::Server { clients: 1 },
        retrieval: Retrieval::Navigational,
        nav_roots: Some((3, roots)),
        warmup_ops: 120,
        replay_ops,
    };
    let mixed = |topology, warmup_ops, replay_ops| Spec {
        depth: 5,
        branching: 5,
        gamma: 0.8,
        topology,
        retrieval: Retrieval::Recursive,
        nav_roots: None,
        warmup_ops,
        replay_ops,
    };
    Some(match workload {
        "nav_fit" => nav(10, 100),
        "nav_spill" => nav(usize::MAX, 60),
        "mixed_1c" => mixed(Topology::Server { clients: 1 }, 700, 500),
        "mixed_2c" => mixed(Topology::Server { clients: 2 }, 350, 500),
        "repl_rw" => mixed(Topology::Cluster, 200, 200),
        _ => return None,
    })
}

impl Spec {
    /// The roots a navigational workload expands.
    fn roots(&self, tree: &Tree) -> Option<Vec<i64>> {
        let (level, count) = self.nav_roots?;
        let mut roots = tree.visible_assemblies().swap_remove(level);
        roots.truncate(count);
        Some(roots)
    }

    /// The seeded op stream of lane `lane` of `lanes`.
    fn stream(&self, tree: &Tree, lane: usize, lanes: usize, rng: Rng) -> OpStream {
        match self.roots(tree) {
            Some(roots) => OpStream::expands(roots, rng),
            None => OpStream::mixed(mixed_inputs(tree, lane, lanes), rng),
        }
    }
}

/// The ids a mixed stream of lane `lane` (of `lanes`) draws from. Every
/// lane expands any visible assembly; check-outs (sub-assemblies of level 2
/// and below) and updates stay inside the lane's own level-1 branches, so
/// concurrent clients never contend for the same objects and no check-out
/// is refused.
fn mixed_inputs(tree: &Tree, lane: usize, lanes: usize) -> MixedInputs {
    let assemblies = tree.visible_assemblies();
    let mine: HashSet<i64> = assemblies[1]
        .iter()
        .enumerate()
        .filter(|(i, _)| i % lanes == lane)
        .flat_map(|(_, branch)| tree.subtree(*branch))
        .collect();
    let checkout_roots = assemblies[2..]
        .iter()
        .map(|level| level.iter().copied().filter(|a| mine.contains(a)).collect())
        .collect();
    let update_targets = tree
        .visible_components()
        .into_iter()
        .filter(|c| mine.contains(c))
        .collect();
    MixedInputs {
        expand_roots: assemblies,
        checkout_roots,
        update_targets,
    }
}

/// One completed action of the measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub kind: Kind,
    /// Start and end, nanoseconds since the phase began.
    pub start_ns: u64,
    pub end_ns: u64,
    pub outcome: Outcome,
    /// What the oracle expects `outcome.nodes` to be.
    pub expected_nodes: usize,
}

impl Sample {
    fn wall_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

enum System {
    Server {
        sut: ServerSut,
        clients: Vec<Client>,
    },
    Cluster {
        sut: Box<ClusterSut>,
    },
}

/// A set-up system with its op streams: `streams[t]` are the streams driver
/// thread `t` alternates over (one per lane).
struct Rig {
    tree: Arc<Tree>,
    system: System,
    streams: Vec<Vec<OpStream>>,
}

#[derive(Clone, Copy)]
enum Budget {
    Ops(usize),
    Seconds(f64),
}

fn expected_nodes(tree: &Tree, op: &Op) -> usize {
    match op {
        Op::Expand { root } => tree.visible_below(*root),
        Op::QueryAll => tree.visible_below(tree.root()),
        Op::CheckoutCycle { root } => tree.visible_below(*root) + 1,
        Op::Update { .. } => 1,
    }
}

/// Drive one thread's streams closed-loop until the budget is spent.
fn drive_thread(
    tree: &Tree,
    streams: &mut [OpStream],
    origin: Instant,
    budget: Budget,
    mut act: impl FnMut(usize, &Op) -> Outcome,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    let now_ns = || u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX);
    loop {
        let lane = samples.len() % streams.len();
        let op = streams[lane].next().expect("op streams are endless");
        let start_ns = now_ns();
        let outcome = act(lane, &op);
        let end_ns = now_ns();
        samples.push(Sample {
            kind: op.kind(),
            start_ns,
            end_ns,
            outcome,
            expected_nodes: expected_nodes(tree, &op),
        });
        let done = match budget {
            Budget::Ops(n) => samples.len() >= n,
            Budget::Seconds(s) => end_ns as f64 >= s * 1e9,
        };
        if done {
            return samples;
        }
    }
}

/// One driver thread per client, each on its own streams, from a common
/// start.
fn drive_clients<'a>(
    tree: &Tree,
    clients: impl Iterator<Item = (&'a mut Client, &'a mut Vec<OpStream>)>,
    budget: Budget,
) -> Vec<Vec<Sample>> {
    let origin = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .map(|(client, streams)| {
                scope.spawn(move || {
                    drive_thread(tree, streams, origin, budget, |_, op| client.act(op))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("driver thread panicked"))
            .collect()
    })
}

impl Rig {
    fn build(spec: &Spec, seed: u64) -> Result<Rig, String> {
        let tree = Arc::new(Tree::generate(spec.depth, spec.branching, spec.gamma));
        let rng = Rng::new(seed);
        let lanes = spec.topology.lanes();
        let streams =
            (0..lanes).map(|lane| spec.stream(&tree, lane, lanes, rng.fork(lane as u64 + 1)));
        let (system, streams) = match spec.topology {
            Topology::Server { clients } => {
                let sut = ServerSut::build(&tree)?;
                let clients = (0..clients)
                    .map(|i| sut.client(&format!("user{i}"), spec.retrieval))
                    .collect();
                (
                    System::Server { sut, clients },
                    streams.map(|s| vec![s]).collect(),
                )
            }
            Topology::Cluster => {
                let sut = Box::new(ClusterSut::build(&tree)?);
                assert_eq!(sut.lanes(), lanes);
                (System::Cluster { sut }, vec![streams.collect()])
            }
        };
        Ok(Rig {
            tree,
            system,
            streams,
        })
    }

    /// Run every driver thread until `budget` (per thread) is spent.
    fn drive(&mut self, budget: Budget) -> Vec<Vec<Sample>> {
        let tree = &*self.tree;
        match &mut self.system {
            System::Cluster { sut } => {
                let origin = Instant::now();
                vec![drive_thread(
                    tree,
                    &mut self.streams[0],
                    origin,
                    budget,
                    |lane, op| sut.act(lane, op),
                )]
            }
            System::Server { clients, .. } => {
                drive_clients(tree, clients.iter_mut().zip(&mut self.streams), budget)
            }
        }
    }

    /// Run one action on the first client (or on lane `lane` of the cluster).
    fn act(&mut self, lane: usize, op: &Op) -> Outcome {
        match &mut self.system {
            System::Server { clients, .. } => clients[0].act(op),
            System::Cluster { sut } => sut.act(lane, op),
        }
    }

    /// Sizes a reader needs to place the workload against the result cache.
    fn describe(&self, spec: &Spec) -> String {
        let tree = &self.tree;
        let levels: Vec<usize> = tree.visible_assemblies().iter().map(Vec::len).collect();
        let mut text = format!(
            "tree: {} objects, {} visible below the root, visible assemblies per level {levels:?}",
            tree.objects(),
            tree.visible_below(tree.root()),
        );
        if let Some(roots) = spec.roots(tree) {
            // per action: the root fetch, then one statement per visible
            // object in and below the root
            let keys: usize = roots.iter().map(|r| 2 + tree.visible_below(*r)).sum();
            text += &format!("; {} roots, {keys} distinct cache keys", roots.len());
        }
        text
    }

    fn counters(&self) -> Counters {
        match &self.system {
            System::Server { sut, .. } => sut.counters(),
            System::Cluster { sut } => sut.counters(),
        }
    }

    /// The end-of-phase oracles on the system's state.
    fn verify(&mut self, spec: &Spec) -> Result<(), String> {
        match &mut self.system {
            System::Cluster { sut } => sut.verify_converged(),
            System::Server { sut, .. } => {
                sut.verify_quiescent()?;
                // Navigational workloads: a Recursive-strategy expand of
                // every root returns the tree the navigational expands were
                // checked against.
                let mut oracle = sut.client("oracle", Retrieval::Recursive);
                for root in spec.roots(&self.tree).unwrap_or_default() {
                    let (got, want) = (
                        oracle.act(&Op::Expand { root }),
                        self.tree.visible_below(root),
                    );
                    if got.failed || got.nodes != want {
                        return Err(format!(
                            "recursive expand of {root} returned {} objects, the product data says {want}",
                            got.nodes
                        ));
                    }
                }
                Ok(())
            }
        }
    }
}

/// A per-thread reading, robust against a disturbed stretch of the run: the
/// median over the thread's equal-op segments of `f`, or `f` of the whole
/// thread when a segment is too short for it.
fn per_thread(threads: &[Vec<Sample>], f: &dyn Fn(&[Sample]) -> Option<f64>) -> Vec<f64> {
    threads
        .iter()
        .filter_map(|t| stats::segment_median(t, SEGMENTS, f).or_else(|| f(t)))
        .collect()
}

fn walls(samples: &[Sample], keep: impl Fn(Kind) -> bool) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| keep(s.kind))
        .map(Sample::wall_us)
        .collect()
}

/// The action-level metrics of a measured phase, by name; returns
/// `(attempted, failed)`. A reading the phase has too few samples for is 0.
fn summarize(threads: &[Vec<Sample>], values: &mut Values) -> (usize, usize) {
    let all: Vec<Sample> = threads.iter().flatten().copied().collect();
    let n = all.len() as f64;
    let failed = all.iter().filter(|s| s.outcome.failed).count();
    let mean = |f: &dyn Fn(&Sample) -> f64| all.iter().map(f).sum::<f64>() / n;
    values.insert("resp_v_s.mean", mean(&|s| s.outcome.virt_s));
    values.insert("wan_kb_per_action", mean(&|s| s.outcome.wan_bytes) / 1e3);
    values.insert(
        "wan_roundtrips_per_action",
        mean(&|s| s.outcome.round_trips as f64),
    );
    values.insert("failed_frac", failed as f64 / n);

    // Throughput adds up over the client threads.
    let rates = per_thread(threads, &|seg| {
        let span_ns = seg[seg.len() - 1].end_ns - seg[0].start_ns;
        Some(seg.len() as f64 / (span_ns as f64 / 1e9))
    });
    values.insert("ops_per_s", rates.iter().sum());

    // Means are taken over the whole phase: a segment of the slower
    // workloads holds one or two of the largest actions, and whether the
    // median segment is one with or without them would move its mean.
    let mean_wall = |keep: &dyn Fn(Kind) -> bool| stats::mean(&walls(&all, keep)).unwrap_or(0.0);
    values.insert("expand_wall_us.mean", mean_wall(&|k| k == Kind::Expand));
    values.insert("read_wall_us.mean", mean_wall(&|k| !k.is_write()));

    // Percentiles of expands: per thread the median over segments, then the
    // threads' mean. Percentiles of everything: over the whole phase.
    for (name, q) in [("expand_wall_us.p50", 0.5), ("expand_wall_us.p90", 0.9)] {
        let per = per_thread(threads, &|seg| {
            stats::percentile(&walls(seg, |k| k == Kind::Expand), q)
        });
        values.insert(name, stats::mean(&per).unwrap_or(0.0));
    }
    let whole =
        |keep: &dyn Fn(Kind) -> bool, q| stats::percentile(&walls(&all, keep), q).unwrap_or(0.0);
    values.insert("wall_us.p50", whole(&|_| true, 0.5));
    values.insert("wall_us.p99", whole(&|_| true, 0.99));
    values.insert("write_wall_us.p50", whole(&Kind::is_write, 0.5));
    (all.len(), failed)
}

/// Which metric sets a run produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sets {
    /// `--trace 0`: the end-to-end metrics; set-up is done three times.
    EndToEnd,
    /// `--trace 1`: the per-layer metrics, from an untraced measured phase
    /// followed by the traced layer-replay pass.
    PerLayer,
    /// Both, for `run --all`.
    Both,
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub sets: Sets,
    /// 1/20 of every op count and of the measured time; all oracles on.
    pub smoke: bool,
}

/// Times set-up is repeated when `setup_s` is reported (the median counts).
const SETUPS: usize = 3;

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn check_samples(what: &str, threads: &[Vec<Sample>], notes: &mut Vec<String>) {
    let wrong = threads
        .iter()
        .flatten()
        .filter(|s| !s.outcome.failed && s.outcome.nodes != s.expected_nodes)
        .count();
    if wrong > 0 {
        notes.push(format!(
            "oracle: {wrong} {what} actions returned a tree of the wrong size"
        ));
    }
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let spec = spec(&args.workload).ok_or_else(|| {
        format!(
            "unknown workload '{}' (known: {WORKLOADS:?})",
            args.workload
        )
    })?;
    let scale = if args.smoke { 20 } else { 1 };
    let mut notes = Vec::new();

    // Set-up: generate the tree, build the server or cluster, attach the
    // sessions, run the warm-up pass. Repeated on a fresh system each time.
    let setups = if args.sets == Sets::PerLayer {
        1
    } else {
        SETUPS
    };
    let mut setup_s = Vec::new();
    let mut rig = None;
    for _ in 0..setups {
        drop(rig.take());
        let t0 = Instant::now();
        let mut fresh = Rig::build(&spec, args.seed)?;
        let warmup = fresh.drive(Budget::Ops((spec.warmup_ops / scale).max(4)));
        setup_s.push(t0.elapsed().as_secs_f64());
        check_samples("warm-up", &warmup, &mut notes);
        rig = Some(fresh);
    }
    let mut rig = rig.expect("at least one set-up");
    notes.push(rig.describe(&spec));

    // Measured phase: bench tracing, journaling and session profiling off.
    let before = rig.counters();
    let threads = rig.drive(Budget::Seconds(args.seconds / scale as f64));
    let after = rig.counters();
    let mut values = Values::new();
    values.insert("peak_rss_mb", peak_rss_mb()?);
    values.insert("setup_s", stats::median(&setup_s).unwrap_or(0.0));
    let (attempted, failed) = summarize(&threads, &mut values);
    check_samples("measured", &threads, &mut notes);
    if let Err(problem) = rig.verify(&spec) {
        notes.push(format!("oracle: {problem}"));
    }

    let mut metrics = Vec::new();
    if args.sets != Sets::PerLayer {
        metrics.extend(report::collect(report::END_TO_END, &values)?);
    }
    if args.sets != Sets::EndToEnd {
        from_counters(&mut values, attempted as f64, &before, &after);
        let lag = match &mut rig.system {
            System::Cluster { sut } => sut.take_lag_samples(),
            System::Server { .. } => Vec::new(),
        };
        values.insert(
            "core.repl.lag_records.p99",
            stats::percentile(&lag, 0.99).unwrap_or(0.0),
        );
        traced_passes(&mut rig, &spec, args, scale, &mut values, &mut notes)?;
        metrics.extend(report::collect(report::PER_LAYER, &values)?);
    }
    Ok(RunResult {
        correct: !notes.iter().any(|n| n.starts_with("oracle:")),
        attempted,
        failed,
        metrics,
        notes,
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer readings that are counts of the measured phase: registry
/// counters before and after it, per action or per commit.
fn from_counters(values: &mut Values, actions: f64, before: &Counters, after: &Counters) {
    let read = |c: &Counters, name: &str| c.get(name).copied().unwrap_or(0.0);
    let delta = |name: &str| read(after, name) - read(before, name);
    let commits = delta("server.dml_commits");
    values.insert(
        "sql.index_probes_per_action",
        ratio(delta("engine.index_probes"), actions),
    );
    let (hits, misses) = (delta("cache.hits"), delta("cache.misses"));
    values.insert("core.cache.hit_rate", ratio(hits, hits + misses));
    values.insert(
        "core.cache.invalidations_per_commit",
        ratio(delta("cache.invalidations"), commits),
    );
    values.insert("core.cache.evicted_entries", delta("cache.invalidations"));
    values.insert(
        "core.locks.wait_ms.p99",
        read(after, "locks.wait_ns.p99") / 1e6,
    );
    values.insert("core.locks.refusals", delta("locks.refusals"));
    values.insert(
        "wal.appends_per_action",
        ratio(delta("wal.appends"), actions),
    );
    values.insert("core.overload.rejections", delta("admission.rejected"));
    values.insert(
        "net.exchanges_per_action",
        ratio(delta("net.queries"), actions),
    );
    // Replication: `repl.ship_us` holds every ship's virtual time, for
    // acknowledgements and watermark waits alike; the waits are known
    // separately, the rest is acknowledgement.
    let waits = delta("repl.watermark_wait_us.sum");
    values.insert(
        "core.repl.watermark_wait_v_s",
        ratio(waits, delta("repl.watermark_waits")) / 1e6,
    );
    values.insert(
        "core.repl.ack_wait_v_s",
        ratio(
            (delta("repl.ship_us.sum") - waits).max(0.0),
            delta("repl.acked_writes"),
        ) / 1e6,
    );
    // Every record ships whole, so on fault-free links the byte ratio is
    // the record ratio: how often a logged record crossed a ship link.
    values.insert(
        "core.repl.shipped_bytes_per_logged_byte",
        ratio(delta("repl.records_shipped"), delta("bench.feed.records")),
    );
}

/// Spans the trace file holds at most (totals cover every span).
const TRACE_FILE_SPANS: usize = 20_000;

/// The traced layer-replay pass and the readings taken around it. The same
/// ops run four times on the measured system: through the real session
/// API, through the mirror with spans off, through the mirror with spans
/// on, and through the real API with session profiling on.
fn traced_passes(
    rig: &mut Rig,
    spec: &Spec,
    args: &Args,
    scale: usize,
    values: &mut Values,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let tree = Arc::clone(&rig.tree);
    let count = (spec.replay_ops / scale).max(4);
    let lanes = rig.streams[0].len();
    let ops: Vec<(usize, Op)> = (0..count)
        .map(|i| {
            (
                i % lanes,
                rig.streams[0][i % lanes].next().expect("endless"),
            )
        })
        .collect();
    // Wall seconds of one pass over `ops`; every result is checked.
    let pass = |act: &mut dyn FnMut(usize, &Op) -> Result<usize, String>| {
        let t0 = Instant::now();
        for (lane, op) in &ops {
            let nodes = act(*lane, op)?;
            if nodes != expected_nodes(&tree, op) {
                return Err(format!("replayed {op:?} returned {nodes} objects"));
            }
        }
        Ok::<f64, String>(t0.elapsed().as_secs_f64())
    };
    let real = |out: Outcome| match out.failed {
        true => Err("a replayed action failed".to_string()),
        false => Ok(out.nodes),
    };

    let real_s = pass(&mut |lane, op| real(rig.act(lane, op)))?;
    let mut off = Tracer::new(false);
    let mut tracer = Tracer::new(true);
    let (plain_s, traced_s, inputs, readings, shipped);
    match &mut rig.system {
        System::Server { sut, .. } => {
            let journal = sut.journal_begin();
            let mut mirror = sut.mirror(spec.retrieval);
            plain_s = pass(&mut |_, op| mirror.act(op, &mut off))?;
            mirror.take_inputs();
            traced_s = pass(&mut |_, op| mirror.act(op, &mut tracer))?;
            inputs = mirror.take_inputs();
            readings = sut.layer_timings(&inputs)?;
            shipped = 0.0;
            if let Err(problem) = sut.journal_verify(journal) {
                notes.push(format!("oracle: {problem}"));
            }
        }
        System::Cluster { sut } => {
            sut.take_lag_samples();
            let mut mirrors: Vec<_> = (0..lanes).map(|lane| sut.mirror(lane)).collect();
            plain_s = pass(&mut |lane, op| sut.act_mirrored(&mut mirrors[lane], op, &mut off))?;
            for m in &mut mirrors {
                m.take_inputs();
            }
            let shipped_before = sut.counters()["repl.records_shipped"];
            traced_s = pass(&mut |lane, op| sut.act_mirrored(&mut mirrors[lane], op, &mut tracer))?;
            shipped = sut.counters()["repl.records_shipped"] - shipped_before;
            let mut all = Inputs::default();
            for m in &mut mirrors {
                all.absorb(m.take_inputs());
            }
            inputs = all;
            readings = sut.layer_timings(&inputs)?;
        }
    }
    values.extend(readings);
    if let Err(problem) = rig.verify(spec) {
        notes.push(format!("oracle (after the traced pass): {problem}"));
    }

    // Readings straight from the spans.
    let spans = tracer.spans();
    let durations_us = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    };
    let mean_us = |name: &str| stats::mean(&durations_us(name)).unwrap_or(0.0);
    let total_us = |name: &str| durations_us(name).iter().sum::<f64>();
    values.insert("core.rules.lookup_us", mean_us("core.rules.lookup"));
    values.insert("core.modify_us.nav", mean_us("core.modify.nav"));
    values.insert("core.modify_us.mle", mean_us("core.modify.mle"));
    values.insert(
        "core.session.assemble_us_per_node",
        ratio(
            total_us("core.session.assemble"),
            inputs.assembled_nodes() as f64,
        ),
    );
    values.insert(
        "core.checkout.cycle_us",
        stats::median(&durations_us("action.checkout_cycle")).unwrap_or(0.0),
    );
    values.insert(
        "core.repl.ship_us_per_record",
        ratio(
            total_us("core.repl.acknowledge") + total_us("core.repl.wait_watermark"),
            shipped,
        ),
    );

    // Reconciliation: the layers' self times against the real actions.
    let self_s: f64 = spans::self_times(spans).iter().sum::<u64>() as f64 / 1e9;
    values.insert(
        "bench.replay_residual_frac",
        (self_s - real_s).abs() / real_s,
    );
    values.insert("bench.trace_overhead_frac", (traced_s - plain_s) / plain_s);

    values.insert(
        "core.shared.scaling_2c",
        scaling_probe(rig, spec, args.seed, count)?,
    );

    // `Session::enable_profiling` on, against the same ops with it off.
    match &mut rig.system {
        System::Server { clients, .. } => clients[0].enable_profiling(),
        System::Cluster { sut } => sut.enable_profiling(),
    }
    let profiled_s = pass(&mut |lane, op| real(rig.act(lane, op)))?;
    values.insert(
        "obs.profiling_overhead_frac",
        (profiled_s - real_s) / real_s,
    );

    write_trace(&args.workload, &tracer, notes)
}

/// Throughput of two clients over that of one, `ops` actions per client, on
/// this workload's own op streams and this server (0 on the cluster, which
/// one thread drives).
fn scaling_probe(rig: &Rig, spec: &Spec, seed: u64, ops: usize) -> Result<f64, String> {
    let System::Server { sut, .. } = &rig.system else {
        return Ok(0.0);
    };
    let tree = &*rig.tree;
    let mut lanes: Vec<(Client, Vec<OpStream>)> = (0..2)
        .map(|lane| {
            let rng = Rng::new(seed).fork(100 + lane as u64);
            (
                sut.client(&format!("scale{lane}"), spec.retrieval),
                vec![spec.stream(tree, lane, 2, rng)],
            )
        })
        .collect();
    let mut rate = |clients: usize| -> Result<f64, String> {
        let pairs = lanes.iter_mut().take(clients).map(|(c, s)| (c, s));
        let threads = drive_clients(tree, pairs, Budget::Ops(ops));
        if threads.iter().flatten().any(|s| s.outcome.failed) {
            return Err("an action of the scaling probe failed".into());
        }
        Ok(threads
            .iter()
            .map(|t| t.len() as f64 / (t[t.len() - 1].end_ns as f64 / 1e9))
            .sum())
    };
    let one = rate(1)?;
    Ok(rate(2)? / one)
}

fn write_trace(workload: &str, tracer: &Tracer, notes: &mut Vec<String>) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace_{workload}.json"));
    let spans = tracer.spans();
    let kept = &spans[..spans.len().min(TRACE_FILE_SPANS)];
    let by_name: Vec<String> = spans::self_time_by_name(spans)
        .iter()
        .map(|(name, ns)| format!("    {}: {ns}", crate::json::quote(name)))
        .collect();
    let text = format!(
        "{{\n  \"workload\": {},\n  \"spans_recorded\": {},\n  \"spans_in_file\": {},\n  \
         \"self_ns_by_name\": {{\n{}\n  }},\n  \"spans\": {}\n}}\n",
        crate::json::quote(workload),
        spans.len(),
        kept.len(),
        by_name.join(",\n"),
        spans::to_json(kept)
    );
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    notes.push(format!(
        "trace: {} spans recorded, {} written to {}",
        spans.len(),
        kept.len(),
        path.display()
    ));
    Ok(())
}
