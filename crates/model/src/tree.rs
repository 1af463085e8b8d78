//! Complete β-ary tree mathematics: node counts per level, visibility.

/// A complete β-ary product tree of depth δ: all internal nodes have β
/// children, all leaves sit at depth δ. A branch is visible to the user with
/// probability γ, independently per branch, so the *expected* number of
/// visible nodes at level *i* is `(γβ)^i`. Level 0 is the root, which the
/// client already holds (paper footnote 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KaryTree {
    /// Depth δ (levels 1..=δ below the root).
    pub depth: u32,
    /// Branching factor β.
    pub branching: u32,
    /// Per-branch visibility probability γ ∈ [0, 1].
    pub gamma: f64,
}

impl KaryTree {
    pub fn new(depth: u32, branching: u32, gamma: f64) -> Self {
        assert!(depth >= 1, "tree depth must be at least 1");
        assert!(branching >= 1, "branching factor must be at least 1");
        assert!((0.0..=1.0).contains(&gamma), "gamma must be in [0, 1]");
        KaryTree {
            depth,
            branching,
            gamma,
        }
    }

    /// Σ_{i=a}^{b} r^i — geometric series over levels, stable for r = 1.
    fn geometric(r: f64, a: u32, b: u32) -> f64 {
        if b < a {
            return 0.0;
        }
        if (r - 1.0).abs() < 1e-12 {
            return (b - a + 1) as f64;
        }
        (r.powi(b as i32 + 1) - r.powi(a as i32)) / (r - 1.0)
    }

    /// Effective visible branching γβ.
    pub fn visible_branching(&self) -> f64 {
        self.gamma * self.branching as f64
    }

    /// All nodes below the root: Σ_{i=1}^{δ} β^i.
    pub fn total_nodes(&self) -> f64 {
        Self::geometric(self.branching as f64, 1, self.depth)
    }

    /// Visible nodes below the root (the paper's n_v): Σ_{i=1}^{δ} (γβ)^i.
    pub fn visible_nodes(&self) -> f64 {
        Self::geometric(self.visible_branching(), 1, self.depth)
    }

    /// Visible nodes at levels 0..=δ — the number of queries a navigational
    /// multi-level expand issues (root expansion plus one query per visible
    /// node, leaves included).
    pub fn mle_queries(&self) -> f64 {
        Self::geometric(self.visible_branching(), 0, self.depth)
    }

    /// Nodes transmitted by a navigational MLE under LATE rule evaluation:
    /// every expansion of a visible node at levels 0..δ-1 ships all β
    /// children (the server does not filter), so β · Σ_{i=0}^{δ-1} (γβ)^i.
    pub fn mle_transmitted_late(&self) -> f64 {
        self.branching as f64 * Self::geometric(self.visible_branching(), 0, self.depth - 1)
    }

    /// Nodes transmitted by a navigational MLE under EARLY rule evaluation:
    /// only visible children ship, γβ · Σ_{i=0}^{δ-1} (γβ)^i = n_v.
    pub fn mle_transmitted_early(&self) -> f64 {
        self.visible_nodes()
    }

    /// Exact number of nodes at level `i` ignoring visibility.
    pub fn nodes_at_level(&self, level: u32) -> u64 {
        (self.branching as u64).pow(level)
    }

    /// Total node count below the root as an exact integer.
    pub fn total_nodes_exact(&self) -> u64 {
        (1..=self.depth).map(|i| self.nodes_at_level(i)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6 * b.abs().max(1.0), "{a} vs {b}");
    }

    #[test]
    fn paper_scenario_node_counts() {
        // δ=3, β=9: 9 + 81 + 729 = 819
        close(KaryTree::new(3, 9, 0.6).total_nodes(), 819.0);
        // δ=9, β=3: (3^10 - 3)/2 = 29523
        close(KaryTree::new(9, 3, 0.6).total_nodes(), 29523.0);
        // δ=7, β=5: (5^8 - 5)/4 = 97655
        close(KaryTree::new(7, 5, 0.6).total_nodes(), 97655.0);
    }

    #[test]
    fn exact_matches_float_counts() {
        for (d, b) in [(3u32, 9u32), (9, 3), (7, 5), (1, 1), (4, 2)] {
            let t = KaryTree::new(d, b, 0.5);
            close(t.total_nodes(), t.total_nodes_exact() as f64);
        }
    }

    #[test]
    fn visible_nodes_with_gamma() {
        // δ=3, β=9, γ=0.6: 5.4 + 29.16 + 157.464 = 192.024
        close(KaryTree::new(3, 9, 0.6).visible_nodes(), 192.024);
    }

    #[test]
    fn mle_queries_include_root_and_leaves() {
        // δ=7, β=5, γ=0.6 → γβ=3: Σ_{i=0}^{7} 3^i = 3280 (reproduces the
        // 984.00 s latency figure: 2·3280·0.15).
        close(KaryTree::new(7, 5, 0.6).mle_queries(), 3280.0);
        // δ=9, β=3, γ=0.6 → γβ=1.8: Σ_{i=0}^{9} 1.8^i
        let q = KaryTree::new(9, 3, 0.6).mle_queries();
        close(2.0 * q * 0.15, 133.52 * (2.0 * q * 0.15 / 133.52));
        assert!((2.0 * q * 0.15 - 133.52).abs() < 0.01);
    }

    #[test]
    fn mle_transmitted_late_counts_all_children_of_visible_nodes() {
        // δ=7, β=5, γ=0.6: 5 · Σ_{i=0}^{6} 3^i = 5 · 1093 = 5465
        close(KaryTree::new(7, 5, 0.6).mle_transmitted_late(), 5465.0);
    }

    #[test]
    fn gamma_one_makes_visible_equal_total() {
        let t = KaryTree::new(4, 3, 1.0);
        close(t.visible_nodes(), t.total_nodes());
        close(t.mle_transmitted_late(), t.mle_transmitted_early());
    }

    #[test]
    fn gamma_zero_means_only_root_expansion() {
        let t = KaryTree::new(4, 3, 0.0);
        close(t.visible_nodes(), 0.0);
        close(t.mle_queries(), 1.0); // the root expand still happens
        close(t.mle_transmitted_late(), 3.0); // root's children still ship
    }

    #[test]
    fn unary_tree_geometric_stability() {
        // β=1, γ=1 → r=1: sums must count levels, not divide by zero.
        let t = KaryTree::new(5, 1, 1.0);
        close(t.total_nodes(), 5.0);
        close(t.visible_nodes(), 5.0);
        close(t.mle_queries(), 6.0);
    }

    #[test]
    #[should_panic]
    fn gamma_out_of_range_panics() {
        KaryTree::new(3, 3, 1.5);
    }
}
