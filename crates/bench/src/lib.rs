#![cfg_attr(test, allow(clippy::unwrap_used, clippy::disallowed_methods))]

//! Shared harness for the table/figure regeneration binaries: builds
//! paper-scenario sessions and measures actions under each strategy.
//! [`harness`] holds what the seeded robustness bins and the integration
//! suites share, [`report`] writes and checks the `BENCH_*.json` files.

pub mod harness;
pub mod report;

pub use pdm_core::rules::visibility_rules;
use pdm_core::{Session, SessionConfig, Strategy};
use pdm_net::{LinkProfile, TrafficStats};
use pdm_workload::{build_database, TreeSpec, VisibilityMode};

/// The paper's three user actions, simulation-side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimAction {
    Query,
    Expand,
    MultiLevelExpand,
}

impl SimAction {
    pub const ALL: [SimAction; 3] = [
        SimAction::Query,
        SimAction::Expand,
        SimAction::MultiLevelExpand,
    ];

    pub fn label(&self) -> &'static str {
        match self {
            SimAction::Query => "Query",
            SimAction::Expand => "Exp",
            SimAction::MultiLevelExpand => "MLE",
        }
    }

    pub fn to_model(&self) -> pdm_model::Action {
        match self {
            SimAction::Query => pdm_model::Action::Query,
            SimAction::Expand => pdm_model::Action::Expand,
            SimAction::MultiLevelExpand => pdm_model::Action::MultiLevelExpand,
        }
    }
}

/// Map simulation strategy to model strategy.
pub fn to_model_strategy(s: Strategy) -> pdm_model::Strategy {
    match s {
        Strategy::LateEval => pdm_model::Strategy::LateEval,
        Strategy::EarlyEval => pdm_model::Strategy::EarlyEval,
        Strategy::Recursive => pdm_model::Strategy::Recursive,
    }
}

/// The reproduction session: user `scott`, the γ-visibility rules, a
/// server of its own over a freshly generated `spec` tree.
pub fn session_over(spec: &TreeSpec, strategy: Strategy, link: LinkProfile) -> Session {
    let (db, _) = build_database(spec).expect("benchmark database build cannot fail");
    Session::new(
        db,
        SessionConfig::new("scott", strategy, link),
        visibility_rules(),
    )
}

/// [`session_over`] a complete tree with deterministic visibility.
pub fn make_session(
    depth: u32,
    branching: u32,
    gamma: f64,
    node_size: usize,
    strategy: Strategy,
    link: LinkProfile,
) -> Session {
    let spec = TreeSpec::new(depth, branching, gamma)
        .with_node_size(node_size)
        .with_visibility(VisibilityMode::Deterministic);
    session_over(&spec, strategy, link)
}

/// Run one action and return its traffic stats.
pub fn run_action(session: &mut Session, action: SimAction) -> TrafficStats {
    match action {
        SimAction::Query => session.query_all(1).expect("benchmark action failed").stats,
        SimAction::Expand => {
            session
                .single_level_expand(1)
                .expect("benchmark action failed")
                .stats
        }
        SimAction::MultiLevelExpand => {
            session
                .multi_level_expand(1)
                .expect("benchmark action failed")
                .stats
        }
    }
}

/// A simulated reproduction of one paper table: the same grid as
/// `pdm_model::tables`, but *measured* by running real SQL through the
/// engine and the WAN simulator instead of evaluating formulas.
pub struct PaperSim {
    /// (δ, β) tree shapes.
    pub trees: Vec<(u32, u32)>,
    pub gamma: f64,
    pub node_size: usize,
    pub links: Vec<LinkProfile>,
}

impl PaperSim {
    /// The paper's full grid (Tables 2–4). The largest tree has 97,655
    /// nodes; use a release build.
    pub fn paper() -> Self {
        PaperSim {
            trees: vec![(3, 9), (9, 3), (7, 5)],
            gamma: 0.6,
            node_size: 512,
            links: LinkProfile::paper_wans().to_vec(),
        }
    }

    /// A scaled-down grid for quick (debug-build) runs; shapes keep the
    /// deep-vs-wide contrast.
    pub fn small() -> Self {
        PaperSim {
            trees: vec![(3, 4), (5, 3), (4, 5)],
            gamma: 0.6,
            node_size: 512,
            links: LinkProfile::paper_wans().to_vec(),
        }
    }

    /// Run `actions` under `strategy` over the whole grid and render a
    /// paper-style table. Every cell also reports the analytic prediction
    /// and the relative error; `with_savings` adds measured savings against
    /// a late-evaluation run on the same data.
    pub fn render(&self, strategy: Strategy, actions: &[SimAction], with_savings: bool) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "simulated grid: γ={}, node={}B; measured vs model, times in s",
            self.gamma, self.node_size
        );
        let _ = write!(out, "{:<26}", "");
        for (d, b) in &self.trees {
            for a in actions {
                let _ = write!(out, "{:>16}", format!("δ{d}β{b} {}", a.label()));
            }
        }
        let _ = writeln!(out);

        // One session per tree, reused across links/actions/strategies;
        // keep the realized tree profile so the model predicts exactly what
        // the generated (integer-count) tree should measure.
        let mut sessions: Vec<(Session, pdm_model::response::TreeProfile)> = self
            .trees
            .iter()
            .map(|&(d, b)| {
                let spec = TreeSpec::new(d, b, self.gamma)
                    .with_node_size(self.node_size)
                    .with_visibility(VisibilityMode::Deterministic);
                let (db, data) =
                    build_database(&spec).expect("benchmark database build cannot fail");
                let session = Session::new(
                    db,
                    SessionConfig::new("scott", strategy, self.links[0]),
                    visibility_rules(),
                );
                (session, realized_profile(&data))
            })
            .collect();

        for link in &self.links {
            let mut measured_row: Vec<f64> = Vec::new();
            let mut predicted_row: Vec<f64> = Vec::new();
            let mut savings_row: Vec<Option<f64>> = Vec::new();

            for (session, profile) in sessions.iter_mut() {
                session.set_link(*link);
                for a in actions {
                    session.set_strategy(strategy);
                    let stats = run_action(session, *a);
                    let measured = stats.response_time();
                    let predicted = pdm_model::response::response_from_profile(
                        profile,
                        a.to_model(),
                        to_model_strategy(strategy),
                        link,
                        self.node_size,
                        0,
                    )
                    .total();
                    measured_row.push(measured);
                    predicted_row.push(predicted);
                    if with_savings && strategy != Strategy::LateEval {
                        session.set_strategy(Strategy::LateEval);
                        let base = run_action(session, *a).response_time();
                        savings_row.push(Some(100.0 * (base - measured) / base));
                    } else {
                        savings_row.push(None);
                    }
                }
            }

            let head = format!("T_Lat={:.2} dtr={:.0}", link.latency, link.dtr_kbit);
            let _ = write!(out, "{:<26}", format!("{head} measured"));
            for v in &measured_row {
                let _ = write!(out, "{:>16.2}", v);
            }
            let _ = writeln!(out);
            let _ = write!(out, "{:<26}", "          model");
            for v in &predicted_row {
                let _ = write!(out, "{:>16.2}", v);
            }
            let _ = writeln!(out);
            let _ = write!(out, "{:<26}", "          rel err %");
            for (m, p) in measured_row.iter().zip(&predicted_row) {
                let _ = write!(out, "{:>16.2}", rel_err_pct(*m, *p));
            }
            let _ = writeln!(out);
            if savings_row.iter().any(Option::is_some) {
                let _ = write!(out, "{:<26}", "          saving in %");
                for s in &savings_row {
                    match s {
                        Some(v) => {
                            let _ = write!(out, "{:>16.2}", v);
                        }
                        None => {
                            let _ = write!(out, "{:>16}", "-");
                        }
                    }
                }
                let _ = writeln!(out);
            }
        }
        out
    }
}

/// Relative error in percent.
pub fn rel_err_pct(measured: f64, predicted: f64) -> f64 {
    100.0 * (measured - predicted).abs() / predicted.abs().max(1e-12)
}

/// Measure the nine bars of a Figure 4/5-style chart (3 strategies × 3
/// actions) by running real SQL over the simulated link, and render them in
/// the same ASCII style as the analytic figures.
pub fn simulate_figure(
    title: &str,
    depth: u32,
    branching: u32,
    gamma: f64,
    node_size: usize,
    link: LinkProfile,
) -> String {
    use std::fmt::Write;
    let mut session = make_session(depth, branching, gamma, node_size, Strategy::LateEval, link);
    let mut bars: Vec<(Strategy, SimAction, f64)> = Vec::new();
    for strategy in Strategy::ALL {
        session.set_strategy(strategy);
        for action in SimAction::ALL {
            let t = run_action(&mut session, action).response_time();
            bars.push((strategy, action, t));
        }
    }
    let max = bars.iter().map(|b| b.2).fold(f64::NEG_INFINITY, f64::max);
    let mut out = String::new();
    let _ = writeln!(out, "{title} (measured end-to-end)");
    for strategy in Strategy::ALL {
        let _ = writeln!(out, "  [{}]", strategy.label());
        for (s, a, t) in &bars {
            if *s == strategy {
                let width = ((t / max) * 50.0).round() as usize;
                let _ = writeln!(
                    out,
                    "    {:<6} {:>9.2}s |{}",
                    a.label(),
                    t,
                    "#".repeat(width.max(1))
                );
            }
        }
    }
    out
}

/// Build the realized [`TreeProfile`](pdm_model::response::TreeProfile) of a
/// generated product structure — the integer counts the simulation will
/// actually transfer.
pub fn realized_profile(data: &pdm_workload::ProductData) -> pdm_model::response::TreeProfile {
    pdm_model::response::TreeProfile {
        root_children: data.root_children as f64,
        total_nodes: data.total_nodes() as f64,
        visible_nodes: data.visible_nodes() as f64,
        expanded_children: data.expanded_children as f64,
        visible_level1: data.visible_per_level.first().copied().unwrap_or(0) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_smoke() {
        let mut s = make_session(2, 3, 1.0, 256, Strategy::Recursive, LinkProfile::wan_512());
        let stats = run_action(&mut s, SimAction::MultiLevelExpand);
        assert_eq!(stats.queries, 1);
        let stats = run_action(&mut s, SimAction::Expand);
        assert_eq!(stats.queries, 1);
        let stats = run_action(&mut s, SimAction::Query);
        assert_eq!(stats.queries, 1);
    }

    #[test]
    fn strategy_mapping_total() {
        for s in Strategy::ALL {
            let _ = to_model_strategy(s);
        }
        for a in SimAction::ALL {
            let _ = a.to_model();
            assert!(!a.label().is_empty());
        }
    }
}
