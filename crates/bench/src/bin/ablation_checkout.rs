#![allow(clippy::unwrap_used)]

//! Ablation: the §6 check-out problem. Check-out cannot be one query — the
//! retrieval is recursive, but the flag UPDATE is a separate WAN
//! communication. The paper's sketched remedy is function shipping (install
//! the action at the server). This binary compares the two, per tree size
//! and link.

use pdm_bench::make_session;
use pdm_core::{Session, Strategy};
use pdm_net::LinkProfile;

fn fresh_session(depth: u32, branching: u32, link: LinkProfile) -> Session {
    make_session(depth, branching, 1.0, 512, Strategy::Recursive, link)
}

fn main() {
    println!("check-out: classic (retrieval + separate UPDATEs) vs function shipping");
    println!(
        "{:<10}{:>8}{:>14}{:>12}{:>14}{:>12}{:>10}",
        "tree", "nodes", "classic c", "classic T", "shipped c", "shipped T", "saving"
    );
    for (depth, branching) in [(2u32, 3u32), (3, 3), (4, 3), (3, 5)] {
        let link = LinkProfile::wan_256();

        let mut classic = fresh_session(depth, branching, link);
        let out = classic.check_out(1).unwrap();
        let classic_stats = out.stats.clone();
        let nodes = out.tree.as_ref().map(|t| t.len()).unwrap_or(0);

        let mut shipped = fresh_session(depth, branching, link);
        let out2 = shipped.check_out_function_shipping(1).unwrap();
        let shipped_stats = out2.stats.clone();
        assert_eq!(out2.tree.map(|t| t.len()), Some(nodes));

        let saving = 100.0 * (classic_stats.response_time() - shipped_stats.response_time())
            / classic_stats.response_time();
        println!(
            "{:<10}{:>8}{:>14}{:>12.2}{:>14}{:>12.2}{:>9.1}%",
            format!("δ{depth}β{branching}"),
            nodes,
            classic_stats.communications,
            classic_stats.response_time(),
            shipped_stats.communications,
            shipped_stats.response_time(),
            saving
        );
    }
    println!();
    println!(
        "Function shipping folds retrieval, ∀rows verification, and the flag\n\
         updates into one round trip; classic check-out pays at least two\n\
         extra UPDATE communications plus the retrieval."
    );
}
