#![allow(clippy::unwrap_used)]

//! EXPLAIN ANALYZE for the paper's flagship action: a profiled recursive
//! multi-level expand over the Figure-2 schema, reconciled against the
//! closed-form response-time model (eq. (5)).
//!
//! Three independent accountings of the SAME action must agree:
//!
//! 1. the span tree's virtual total (what the profiler says),
//! 2. the channel's `TrafficStats` (what the WAN simulator metered),
//! 3. the model's `Breakdown` (what eq. (5) predicts from δ, β, γ).
//!
//! ```sh
//! cargo run --release --example profile_expand
//! cargo run --release --example profile_expand -- --trace-out expand_trace.json
//! ```
//!
//! With `--trace-out <path>`, the expand also runs with cross-site
//! tracing on and the assembled causal tree is written as Chrome Trace
//! Event Format JSON — load it in `chrome://tracing` or Perfetto.

use pdm_repro::core::rules::visibility_rules;
use pdm_repro::core::{chrome_trace_json, Session, SessionConfig, Strategy, Subsystem, TraceTree};
use pdm_repro::model::response::response;
use pdm_repro::model::{Action, KaryTree, Strategy as ModelStrategy};
use pdm_repro::net::LinkProfile;
use pdm_repro::workload::{build_database, TreeSpec};

const NODE: usize = 512;
const DEPTH: u32 = 4;
const BRANCH: u32 = 5;
const GAMMA: f64 = 0.6;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let trace_out = args
        .iter()
        .position(|a| a == "--trace-out")
        .map(|i| args.get(i + 1).expect("--trace-out needs a path").clone());

    let spec = TreeSpec::new(DEPTH, BRANCH, GAMMA).with_node_size(NODE);
    let (db, _) = build_database(&spec).unwrap();
    let mut session = Session::new(
        db,
        SessionConfig::new("scott", Strategy::Recursive, LinkProfile::wan_256()),
        visibility_rules(),
    );
    session.enable_profiling();

    let out = session.multi_level_expand(1).unwrap();
    let tree = session.last_trace().unwrap();

    println!(
        "profiled multi-level expand: δ={DEPTH} β={BRANCH} γ={GAMMA}, node {NODE}B, WAN 256 kbit/s"
    );
    println!(
        "{} nodes retrieved in {} query\n",
        out.tree.len(),
        out.stats.queries
    );
    // Wall-free render: the example's output must be byte-identical
    // across runs (repo-wide determinism invariant for binaries).
    print!("{}", tree.render());

    // Accounting 1 vs 2: the profiler against the channel's metering.
    let latency = net_sum(tree, "latency_s");
    let transfer = net_sum(tree, "transfer_s");
    println!("\nprofiler vs channel (bit-exact):");
    println!(
        "  latency   {latency:.6}s == {:.6}s  ({})",
        out.stats.latency_time,
        if latency.to_bits() == out.stats.latency_time.to_bits() {
            "ok"
        } else {
            "MISMATCH"
        }
    );
    println!(
        "  transfer  {transfer:.6}s == {:.6}s  ({})",
        out.stats.transfer_time,
        if transfer.to_bits() == out.stats.transfer_time.to_bits() {
            "ok"
        } else {
            "MISMATCH"
        }
    );
    println!(
        "  total     {:.6}s virtual (segments tile it: {})",
        tree.total_v,
        if tree.validate().is_ok() && tree.total_v.to_bits() == session.elapsed().to_bits() {
            "ok"
        } else {
            "MISMATCH"
        }
    );

    // Accounting 3: eq. (5) from the idealized tree profile.
    let m = response(
        &KaryTree::new(DEPTH, BRANCH, GAMMA),
        Action::MultiLevelExpand,
        ModelStrategy::Recursive,
        &LinkProfile::wan_256(),
        NODE,
        0,
    );
    let measured = out.stats.response_time();
    let rel = 100.0 * (measured - m.total()).abs() / m.total();
    println!(
        "\neq. (5) model: T = {:.3}s, measured {measured:.3}s (Δ {rel:.2}%)",
        m.total()
    );
    assert!(
        rel < 1.0,
        "profiled MLE must reconcile with eq. (5) within 1%"
    );

    // Traced rerun, only on request: tracing adds the 16-byte context to
    // every request, so the reconciled numbers above never see it.
    if let Some(path) = trace_out {
        session.enable_tracing(0x7AACE);
        session.multi_level_expand(1).unwrap();
        let tree = session.last_trace().unwrap();
        tree.validate().unwrap();
        std::fs::write(&path, chrome_trace_json(std::slice::from_ref(tree))).unwrap();
        println!(
            "\nwrote {path}: trace_id={} spans={} total_v={:.6}s (chrome://tracing loadable)",
            tree.trace_id,
            tree.span_count(),
            tree.total_v
        );
    }
}

/// Running sum of attribute `key` over the tree's network spans, in record
/// order — the order the channel accumulated its `TrafficStats`, so the
/// float additions reassociate identically and the totals match
/// bit-for-bit.
fn net_sum(tree: &TraceTree, key: &str) -> f64 {
    let net = tree
        .spans
        .iter()
        .filter(|s| s.kind.subsystem() == Subsystem::Network);
    net.filter_map(|s| s.attr(key)).fold(0.0, |sum, v| sum + v)
}
