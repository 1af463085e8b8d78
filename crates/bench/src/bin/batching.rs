#![allow(clippy::unwrap_used)]

//! Four access paths for a multi-level expand, measured end-to-end:
//! per-node navigation (late/early), level-batched IN-list navigation, and
//! the paper's recursive query. Batching removes most round trips without
//! SQL:1999 — but still pays one per level, which recursion collapses too.

use pdm_bench::session_over;
use pdm_core::Strategy;
use pdm_net::LinkProfile;
use pdm_workload::TreeSpec;

fn main() {
    println!("multi-level expand access paths, γ=0.6, node=512B, 256 kbit/s / 150 ms");
    println!(
        "{:<12}{:>10}{:>14}{:>12}{:>14}{:>12}",
        "tree", "visible", "path", "queries", "volume MB", "T (s)"
    );
    for (depth, branching) in [(4u32, 5u32), (5, 5), (6, 5)] {
        let spec = TreeSpec::new(depth, branching, 0.6).with_node_size(512);
        let visible = 3u64.pow(depth + 1) / 2; // γβ = 3

        let session = |strategy| session_over(&spec, strategy, LinkProfile::wan_256());
        let nav = session(Strategy::LateEval)
            .multi_level_expand(1)
            .expect("expand")
            .stats;
        let batched = session(Strategy::EarlyEval)
            .multi_level_expand_batched(1)
            .expect("expand")
            .stats;
        let rec = session(Strategy::Recursive)
            .multi_level_expand(1)
            .expect("expand")
            .stats;

        for (name, st) in [
            ("per-node", &nav),
            ("batched", &batched),
            ("recursive", &rec),
        ] {
            println!(
                "{:<12}{:>10}{:>14}{:>12}{:>14.2}{:>12.2}",
                format!("δ{depth}β{branching}"),
                visible,
                name,
                st.queries,
                st.volume_bytes / (1024.0 * 1024.0),
                st.response_time()
            );
        }
        println!();
    }
    println!(
        "Batching (available in SQL-92 via IN-lists) already removes the bulk\n\
         of the latency; recursion removes the remaining per-level trips and\n\
         the client-side join bookkeeping. The paper's choice of recursion\n\
         also keeps the request size constant — batched requests grow with\n\
         the frontier and spill into multiple packets."
    );
}
