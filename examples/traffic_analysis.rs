#![allow(clippy::unwrap_used)]

//! Where do the seconds go? Profile a multi-level expand, read the
//! `net.exchange` span of every WAN exchange and break the delay down — the diagnostic view that motivated the
//! paper's suspicion ("the problem is caused by the large number of isolated
//! queries ... resulting in many messages", §1).
//!
//! ```sh
//! cargo run --example traffic_analysis
//! ```

use pdm_bench::harness::percentile;
use pdm_repro::core::rules::visibility_rules;
use pdm_repro::core::{Session, SessionConfig, Strategy};
use pdm_repro::net::LinkProfile;
use pdm_repro::obs::{kinds, SpanRecord};
use pdm_repro::workload::{build_database, TreeSpec};

/// Cost of one exchange in virtual seconds (latency + transfer — the
/// amount the channel advanced its clock by).
fn cost(exchange: &SpanRecord) -> f64 {
    exchange.attr("v_s").unwrap_or(0.0)
}

fn main() {
    let spec = TreeSpec::new(4, 4, 0.75).with_node_size(512);

    for strategy in Strategy::ALL {
        let (db, _) = build_database(&spec).expect("workload builds");
        let mut session = Session::new(
            db,
            SessionConfig::new("scott", strategy, LinkProfile::wan_256()),
            visibility_rules(),
        );
        session.enable_profiling();
        let out = session.multi_level_expand(1).expect("expand succeeds");
        let exchanges: Vec<SpanRecord> = session
            .recorder()
            .spans()
            .into_iter()
            .filter(|s| s.kind == kinds::NET_EXCHANGE)
            .collect();
        let total: f64 = exchanges.iter().map(cost).sum();
        let latency: f64 = exchanges.iter().filter_map(|e| e.attr("latency_s")).sum();
        let mut costs: Vec<f64> = exchanges.iter().map(cost).collect();
        costs.sort_by(f64::total_cmp);

        println!("=== {} ===", strategy.label());
        println!(
            "exchanges: {:>5}   total: {:>8.2}s   latency share: {:>5.1}%",
            exchanges.len(),
            total,
            100.0 * latency / total
        );
        println!(
            "per-exchange cost: p50 {:>6.3}s   p99 {:>6.3}s   max {:>6.3}s",
            percentile(&costs, 0.50),
            percentile(&costs, 0.99),
            percentile(&costs, 1.0),
        );
        if let Some(slowest) = exchanges.iter().max_by(|a, b| cost(a).total_cmp(&cost(b))) {
            println!(
                "slowest exchange: {} B request → {} B response ({:.3}s at t={:.2}s)",
                slowest.attr("request_bytes").unwrap_or(0.0),
                slowest.attr("response_bytes").unwrap_or(0.0),
                cost(slowest),
                slowest.v_start
            );
        }
        println!("tree: {} nodes\n", out.tree.len());
    }

    println!(
        "Navigational traces are thousands of cheap exchanges whose cost is\n\
         almost pure latency; the recursive trace is a single exchange whose\n\
         cost is almost pure transfer. That flip is the whole paper."
    );
}
