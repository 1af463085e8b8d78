#![allow(clippy::unwrap_used)]

//! Cross-validation: the closed-form response-time model (pdm-model, i.e.
//! the paper's equations) against the *measured* behaviour of real SQL
//! traffic through the engine and the WAN simulator (pdm-core + pdm-net).
//!
//! Exact agreement is asserted for the quantities the paper's argument
//! rests on — query counts, communication counts, latency time — and tight
//! tolerances for data volume (the simulation ships real rows whose sizes
//! deviate from the 512-byte average only through per-layout overhead
//! differences).

use pdm_bench::{make_session, visibility_rules};
use pdm_core::{Session, SessionConfig, Strategy};
use pdm_model::response::response;
use pdm_model::{Action, KaryTree, Strategy as ModelStrategy};
use pdm_net::LinkProfile;
use pdm_workload::{build_database, TreeSpec};

const NODE: usize = 512;

fn session(depth: u32, branching: u32, gamma: f64, strategy: Strategy) -> Session {
    make_session(
        depth,
        branching,
        gamma,
        NODE,
        strategy,
        LinkProfile::wan_256(),
    )
}

fn rel_close(measured: f64, predicted: f64, tol: f64, what: &str) {
    let rel = (measured - predicted).abs() / predicted.abs().max(1e-9);
    assert!(
        rel < tol,
        "{what}: measured {measured} vs predicted {predicted} (rel err {rel:.3})"
    );
}

/// β=5, γ=0.6 → γβ=3 exactly: deterministic visibility realizes the model's
/// expected counts, so the comparison is exact on counts.
const D: u32 = 4;
const B: u32 = 5;
const G: f64 = 0.6;

fn model_tree() -> KaryTree {
    KaryTree::new(D, B, G)
}

#[test]
fn navigational_late_mle_matches_model() {
    let mut s = session(D, B, G, Strategy::LateEval);
    let out = s.multi_level_expand(1).unwrap();
    let m = response(
        &model_tree(),
        Action::MultiLevelExpand,
        ModelStrategy::LateEval,
        &LinkProfile::wan_256(),
        NODE,
        0,
    );

    // Exact: queries, communications, latency.
    assert_eq!(out.stats.queries as f64, m.queries);
    assert_eq!(out.stats.communications as f64, m.communications);
    rel_close(out.stats.latency_time, m.latency_time, 1e-9, "latency");

    // Exact: transmitted nodes (every row is padded to 512 B).
    let measured_nodes = out.stats.response_payload_bytes as f64 / NODE as f64;
    rel_close(measured_nodes, m.transmitted_nodes, 1e-9, "n_t");

    // Volume and time within 1% (request texts are smaller than the model's
    // full first packet only via the half-packet correction convention).
    rel_close(out.stats.volume_bytes, m.volume_bytes, 0.01, "vol");
    rel_close(out.stats.response_time(), m.total(), 0.01, "T");
}

#[test]
fn navigational_early_mle_matches_model() {
    let mut s = session(D, B, G, Strategy::EarlyEval);
    let out = s.multi_level_expand(1).unwrap();
    let m = response(
        &model_tree(),
        Action::MultiLevelExpand,
        ModelStrategy::EarlyEval,
        &LinkProfile::wan_256(),
        NODE,
        0,
    );
    assert_eq!(out.stats.queries as f64, m.queries);
    let measured_nodes = out.stats.response_payload_bytes as f64 / NODE as f64;
    rel_close(measured_nodes, m.transmitted_nodes, 1e-9, "n_t early");
    rel_close(out.stats.response_time(), m.total(), 0.01, "T early");
}

#[test]
fn recursive_mle_matches_model() {
    let mut s = session(D, B, G, Strategy::Recursive);
    let out = s.multi_level_expand(1).unwrap();
    let m = response(
        &model_tree(),
        Action::MultiLevelExpand,
        ModelStrategy::Recursive,
        &LinkProfile::wan_256(),
        NODE,
        0,
    );
    assert_eq!(out.stats.queries, 1);
    assert_eq!(out.stats.communications as f64, m.communications);
    rel_close(out.stats.latency_time, m.latency_time, 1e-9, "latency rec");
    let measured_nodes = out.stats.response_payload_bytes as f64 / NODE as f64;
    rel_close(measured_nodes, m.transmitted_nodes, 1e-9, "n_t rec");
    rel_close(out.stats.response_time(), m.total(), 0.01, "T rec");
}

#[test]
fn query_action_matches_model_within_tolerance() {
    // Query rows use the bare projection (NULL link columns), so they are
    // ~7% lighter than the 512-byte average; counts stay exact.
    for (strategy, model_strategy) in [
        (Strategy::LateEval, ModelStrategy::LateEval),
        (Strategy::EarlyEval, ModelStrategy::EarlyEval),
    ] {
        let mut s = session(D, B, G, strategy);
        let out = s.query_all(1).unwrap();
        let m = response(
            &model_tree(),
            Action::Query,
            model_strategy,
            &LinkProfile::wan_256(),
            NODE,
            0,
        );
        assert_eq!(out.stats.queries as f64, m.queries, "{strategy:?} q");
        rel_close(
            out.stats.response_payload_bytes as f64 / NODE as f64,
            m.transmitted_nodes,
            0.08,
            "query n_t",
        );
        rel_close(out.stats.response_time(), m.total(), 0.08, "query T");
    }
}

#[test]
fn single_level_expand_matches_model() {
    for (strategy, model_strategy) in [
        (Strategy::LateEval, ModelStrategy::LateEval),
        (Strategy::EarlyEval, ModelStrategy::EarlyEval),
    ] {
        let mut s = session(D, B, G, strategy);
        let out = s.single_level_expand(1).unwrap();
        let m = response(
            &model_tree(),
            Action::Expand,
            model_strategy,
            &LinkProfile::wan_256(),
            NODE,
            0,
        );
        assert_eq!(out.stats.queries as f64, m.queries);
        rel_close(
            out.stats.response_payload_bytes as f64 / NODE as f64,
            m.transmitted_nodes,
            1e-9,
            "expand n_t",
        );
        rel_close(out.stats.response_time(), m.total(), 0.01, "expand T");
    }
}

#[test]
fn savings_shape_holds_in_simulation() {
    // The paper's qualitative claims, measured end-to-end:
    // early-eval MLE saves only a few percent; recursive MLE saves > 95%.
    let mut late = session(5, B, G, Strategy::LateEval);
    let mut early = session(5, B, G, Strategy::EarlyEval);
    let mut rec = session(5, B, G, Strategy::Recursive);

    let t_late = late.multi_level_expand(1).unwrap().stats.response_time();
    let t_early = early.multi_level_expand(1).unwrap().stats.response_time();
    let t_rec = rec.multi_level_expand(1).unwrap().stats.response_time();

    let early_saving = 100.0 * (t_late - t_early) / t_late;
    let rec_saving = 100.0 * (t_late - t_rec) / t_late;
    assert!(
        (0.5..15.0).contains(&early_saving),
        "early-eval MLE saving should be marginal, got {early_saving:.2}%"
    );
    assert!(
        rec_saving > 90.0,
        "recursive MLE saving should dominate, got {rec_saving:.2}%"
    );

    // And for the Query action early evaluation is the big win (>90%).
    let mut late = session(5, B, G, Strategy::LateEval);
    let mut early = session(5, B, G, Strategy::EarlyEval);
    let q_late = late.query_all(1).unwrap().stats.response_time();
    let q_early = early.query_all(1).unwrap().stats.response_time();
    let q_saving = 100.0 * (q_late - q_early) / q_late;
    assert!(q_saving > 85.0, "query saving {q_saving:.2}%");
}

#[test]
fn random_visibility_tracks_model_in_expectation() {
    use pdm_workload::VisibilityMode;
    // With random γ the measured counts should track expectations loosely.
    let spec = TreeSpec::new(5, 4, 0.6)
        .with_node_size(NODE)
        .with_visibility(VisibilityMode::Random { seed: 2065 });
    let (db, data) = build_database(&spec).unwrap();
    let mut s = Session::new(
        db,
        SessionConfig::new("scott", Strategy::Recursive, LinkProfile::wan_256()),
        visibility_rules(),
    );
    let out = s.multi_level_expand(1).unwrap();
    // Simulation returns exactly the realized visible set.
    assert_eq!(out.tree.len() as u64, 1 + data.visible_nodes());
    // Which is within sampling noise of the model's expectation.
    let expected: f64 = KaryTree::new(5, 4, 0.6).visible_nodes();
    let got = data.visible_nodes() as f64;
    assert!(
        (got - expected).abs() / expected < 0.5,
        "sampled {got} vs expected {expected}"
    );
}
