#![allow(clippy::unwrap_used)]

//! Multi-server federation end-to-end (the paper's §7 outlook): the same
//! product structure split over several sites must yield the same visible
//! tree as a single server, with the recursive strategy paying one round
//! trip per *visited partition* instead of one total.

use pdm_bench::{harness, session_over};
use pdm_core::{Federation, RetryPolicy, Strategy};
use pdm_net::{FaultPlan, LinkProfile, TrafficStats};
use pdm_obs::metrics::families;
use pdm_workload::{generate, partition, TreeSpec};

fn federation(spec: &TreeSpec, n_sites: usize, strategy: Strategy) -> Federation {
    harness::federation(spec, vec![LinkProfile::wan_256(); n_sites], strategy)
}

fn single_server_tree(spec: &TreeSpec) -> Vec<i64> {
    let mut s = session_over(spec, Strategy::Recursive, LinkProfile::wan_256());
    s.multi_level_expand(1).unwrap().tree.node_ids().collect()
}

#[test]
fn federated_tree_equals_single_server_tree() {
    for n_sites in [1usize, 2, 3, 4] {
        for gamma in [1.0, 0.6] {
            let spec = TreeSpec::new(3, 4, gamma).with_node_size(256);
            let reference = single_server_tree(&spec);
            for strategy in Strategy::ALL {
                let mut fed = federation(&spec, n_sites, strategy);
                let out = fed.multi_level_expand(1).unwrap();
                let mut ids: Vec<i64> = out.tree.node_ids().collect();
                ids.sort_unstable();
                let mut expected = reference.clone();
                expected.sort_unstable();
                assert_eq!(
                    ids, expected,
                    "{strategy:?} over {n_sites} sites, γ={gamma}"
                );
                assert_eq!(out.tree.reachable_from_root(), out.tree.len());
            }
        }
    }
}

#[test]
fn recursive_federation_pays_one_query_per_visited_site() {
    // γ=1: every level-1 subtree is reached, so every site is visited.
    let spec = TreeSpec::new(3, 4, 1.0).with_node_size(256);
    for n_sites in [1usize, 2, 4] {
        let mut fed = federation(&spec, n_sites, Strategy::Recursive);
        let out = fed.multi_level_expand(1).unwrap();
        assert_eq!(out.sites_visited, n_sites);
        // one recursive query per visited partition — the level-1 subtrees
        // each live wholesale on one site, so partitions = 1 (root's site
        // partition) + (subtrees not on site 0 reached via mounts)
        let data = generate(&spec);
        let (_, info) = partition(&data, n_sites).unwrap();
        let expected_queries = 1 + info.mounts.len();
        assert_eq!(out.total_queries(), expected_queries);
    }
}

#[test]
fn invisible_mounts_prune_remote_subtrees() {
    // γ=0: no branch visible → only the root partition query runs, no
    // remote site is contacted.
    let spec = TreeSpec::new(3, 4, 0.0).with_node_size(256);
    let mut fed = federation(&spec, 4, Strategy::Recursive);
    let out = fed.multi_level_expand(1).unwrap();
    assert_eq!(out.tree.len(), 1);
    assert_eq!(out.sites_visited, 1);
    assert_eq!(out.total_queries(), 1);
}

#[test]
fn federated_recursive_still_beats_navigational() {
    let spec = TreeSpec::new(4, 4, 0.75).with_node_size(256);
    let mut nav = federation(&spec, 3, Strategy::LateEval);
    let t_nav = nav.multi_level_expand(1).unwrap().response_time();
    let mut rec = federation(&spec, 3, Strategy::Recursive);
    let out = rec.multi_level_expand(1).unwrap();
    let t_rec = out.response_time();
    assert!(
        t_rec < t_nav / 5.0,
        "federated recursion {t_rec:.2}s vs navigational {t_nav:.2}s"
    );
}

#[test]
fn heterogeneous_links_charge_per_site() {
    // Site 0 on a LAN, site 1 across the ocean: the slow site dominates.
    let spec = TreeSpec::new(3, 2, 1.0).with_node_size(256);
    let links = vec![LinkProfile::lan(), LinkProfile::wan_256()];
    let mut fed = harness::federation(&spec, links, Strategy::Recursive);
    let out = fed.multi_level_expand(1).unwrap();
    assert!(out.per_site[1].response_time() > 10.0 * out.per_site[0].response_time());
}

#[test]
fn directory_miss_is_reported() {
    let spec = TreeSpec::new(2, 2, 1.0).with_node_size(128);
    let mut fed = federation(&spec, 2, Strategy::Recursive);
    assert!(fed.multi_level_expand(999_999).is_err());
}

#[test]
fn navigational_federation_visits_remote_sites_for_mount_children() {
    let spec = TreeSpec::new(2, 3, 1.0).with_node_size(128);
    let mut fed = federation(&spec, 3, Strategy::EarlyEval);
    let out = fed.multi_level_expand(1).unwrap();
    // full tree retrieved
    assert_eq!(out.tree.len(), 1 + 3 + 9);
    assert_eq!(out.sites_visited, 3);
}

/// A federated expand is one metering segment per site: every site's
/// traffic reaches that site's registry exactly once, whether the site
/// answered, went dark, or failed the whole expand.
#[test]
fn every_site_folds_its_traffic_once_per_expand() {
    let spec = TreeSpec::new(3, 4, 1.0).with_node_size(256);
    let dark = || FaultPlan::none().with_stall_rate(1.0).with_timeout(5.0);
    for strategy in [Strategy::Recursive, Strategy::EarlyEval] {
        // (site whose link is dark, whether the expand still succeeds)
        for (dark_site, succeeds) in [(None, true), (Some(2), true), (Some(0), false)] {
            let mut fed = federation(&spec, 3, strategy);
            if let Some(site) = dark_site {
                fed.set_site_fault_plan(site, dark());
                fed.set_retry_policy(RetryPolicy::default_wan().with_max_attempts(2));
            }
            let mut totals = vec![TrafficStats::default(); 3];
            for expand in 1..=2 {
                assert_eq!(fed.multi_level_expand(1).is_ok(), succeeds);
                for (site, total) in fed.sites().iter().zip(&mut totals) {
                    total.absorb(site.stats());
                    let snap = site.metrics().snapshot();
                    let at = format!(
                        "{strategy:?}, dark {dark_site:?}, expand {expand}, {}",
                        site.name
                    );
                    assert_eq!(
                        snap.counter(families::NET_QUERIES),
                        total.queries as u64,
                        "{at}"
                    );
                    assert_eq!(
                        snap.gauge(families::NET_VOLUME_BYTES).to_bits(),
                        total.volume_bytes.to_bits(),
                        "{at}"
                    );
                    assert_eq!(
                        snap.counter(families::NET_FAILED_ATTEMPTS),
                        total.failed_attempts as u64,
                        "{at}"
                    );
                }
            }
            // Not vacuous: traffic reached the link, and a dark site's
            // failed attempts are among what was folded.
            assert!(totals
                .iter()
                .any(|t| t.queries > 0 || t.failed_attempts > 0));
            if let Some(site) = dark_site {
                assert!(
                    totals[site].failed_attempts > 0,
                    "{strategy:?}: site {site}"
                );
            }
        }
    }
}
