#![allow(clippy::unwrap_used)]

//! Multi-server sweep (§7 outlook): how the recursive strategy degrades as
//! the product structure is distributed over more sites — one round trip
//! per visited partition instead of one total — and how far that still is
//! from navigational access.

use pdm_bench::harness::federation;
use pdm_core::{Federation, Strategy};
use pdm_net::LinkProfile;
use pdm_workload::TreeSpec;

fn build(spec: &TreeSpec, n_sites: usize, strategy: Strategy) -> Federation {
    federation(spec, vec![LinkProfile::wan_256(); n_sites], strategy)
}

fn main() {
    // δ=5, β=6, γ=0.8: ~9,330 objects, 6 level-1 subtrees to distribute.
    let spec = TreeSpec::new(5, 6, 0.8).with_node_size(512);
    println!(
        "federated MLE sweep: δ=5, β=6, γ=0.8 ({} objects), all sites 256 kbit/s / 150 ms",
        spec.assembly_count() + spec.component_count()
    );
    println!(
        "{:>7}{:>10}{:>14}{:>14}{:>16}{:>16}",
        "sites", "visited", "rec queries", "rec T", "navigational T", "rec saving%"
    );
    for n_sites in [1usize, 2, 3, 4, 6] {
        let mut rec = build(&spec, n_sites, Strategy::Recursive);
        let out = rec.multi_level_expand(1).expect("expand");
        let t_rec = out.response_time();

        let mut nav = build(&spec, n_sites, Strategy::LateEval);
        let t_nav = nav.multi_level_expand(1).expect("expand").response_time();

        println!(
            "{:>7}{:>10}{:>14}{:>14.2}{:>16.2}{:>15.2}%",
            n_sites,
            out.sites_visited,
            out.total_queries(),
            t_rec,
            t_nav,
            100.0 * (t_nav - t_rec) / t_nav
        );
    }
    println!();
    println!(
        "Distribution costs the recursive client one extra round trip (plus\n\
         the remote partition's payload) per crossed mount — the saving slips\n\
         by fractions of a percent, not orders of magnitude. The paper's\n\
         outlook concern is real but mild for subtree-grain placement."
    );
}
