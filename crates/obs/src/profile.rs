//! Query profiles: an `EXPLAIN ANALYZE`-style view over one action's span
//! tree. Built from a [`Recorder`] snapshot after the action completes;
//! purely a read-out, so building it never perturbs results.

use std::collections::BTreeSet;

use crate::span::{Recorder, SpanRecord, Subsystem};

/// The span tree of one completed session action.
#[derive(Debug, Clone, Default)]
pub struct QueryProfile {
    pub spans: Vec<SpanRecord>,
}

impl QueryProfile {
    /// Snapshot the recorder's current action. `None` when profiling is
    /// off or no action has run.
    pub fn from_recorder(rec: &Recorder) -> Option<QueryProfile> {
        if !rec.is_enabled() {
            return None;
        }
        let spans = rec.spans();
        if spans.is_empty() {
            return None;
        }
        Some(QueryProfile { spans })
    }

    /// The root (action) span, if the tree has one.
    pub fn root(&self) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.parent.is_none())
    }

    /// Total virtual seconds of the action (root span width).
    pub fn virtual_total(&self) -> f64 {
        self.root().map(|r| r.v_duration()).unwrap_or(0.0)
    }

    /// Distinct subsystems that emitted at least one span.
    pub fn subsystems(&self) -> BTreeSet<Subsystem> {
        self.spans.iter().map(|s| s.kind.subsystem).collect()
    }

    /// Sum of attribute `key` over spans of `subsystem`, in record order —
    /// the same order the channel accumulated its `TrafficStats`, so the
    /// float additions reassociate identically and the totals match
    /// bit-for-bit.
    pub fn sum_attr(&self, subsystem: Subsystem, key: &str) -> f64 {
        let mut total = 0.0;
        for s in &self.spans {
            if s.kind.subsystem == subsystem {
                if let Some(v) = s.attr(key) {
                    total += v;
                }
            }
        }
        total
    }

    /// Sum of virtual durations over leaf spans (spans with no children).
    /// Only the network advances the virtual clock, so this reconciles
    /// with [`QueryProfile::virtual_total`].
    pub fn leaf_virtual_sum(&self) -> f64 {
        let mut has_child = vec![false; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                if let Some(slot) = has_child.get_mut(p) {
                    *slot = true;
                }
            }
        }
        self.spans
            .iter()
            .filter(|s| has_child.get(s.id) != Some(&true))
            .map(|s| s.v_duration())
            .sum()
    }

    /// Indented per-operator report: kind, label, rows in→out, virtual
    /// seconds, advisory wall microseconds, detail.
    pub fn render(&self) -> String {
        self.render_with(true)
    }

    /// [`QueryProfile::render`] without the wall-clock column — every
    /// remaining field is deterministic, so the report is byte-identical
    /// across runs (the repo-wide invariant for binary output).
    pub fn render_virtual(&self) -> String {
        self.render_with(false)
    }

    fn render_with(&self, wall: bool) -> String {
        let mut out = String::new();
        let roots: Vec<usize> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.id)
            .collect();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                if let Some(slot) = children.get_mut(p) {
                    slot.push(s.id);
                }
            }
        }
        for root in roots {
            self.render_span(root, &children, 0, wall, &mut out);
        }
        out
    }

    fn render_span(
        &self,
        id: usize,
        children: &[Vec<usize>],
        depth: usize,
        wall: bool,
        out: &mut String,
    ) {
        let Some(s) = self.spans.get(id) else { return };
        let indent = "  ".repeat(depth);
        out.push_str(&format!(
            "{indent}{kind} {label}",
            kind = s.kind.full_name(),
            label = s.label
        ));
        if s.rows_in != 0 || s.rows_out != 0 {
            out.push_str(&format!("  rows {}→{}", s.rows_in, s.rows_out));
        }
        out.push_str(&format!("  v={:.6}s", s.v_duration()));
        if wall {
            out.push_str(&format!(" wall={}µs", s.wall_ns() / 1_000));
        }
        if !s.detail.is_empty() {
            out.push_str(&format!("  [{}]", s.detail));
        }
        for (k, v) in &s.attrs {
            out.push_str(&format!("  {k}={v:.9}"));
        }
        out.push('\n');
        // lint:allow(unchecked-index): children is sized to spans.len()
        // and id is a dense span id.
        for &c in &children[id] {
            self.render_span(c, children, depth + 1, wall, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{kinds, Recorder};

    #[test]
    fn profile_from_disabled_is_none() {
        assert!(QueryProfile::from_recorder(&Recorder::disabled()).is_none());
    }

    #[test]
    fn tree_render_and_totals() {
        let rec = Recorder::new();
        rec.begin_action();
        let root = rec.span(kinds::ACTION, "expand");
        {
            let probe = rec.span(kinds::CACHE_PROBE, "probe");
            probe.set_detail("miss");
        }
        rec.record_wide(
            kinds::NET_EXCHANGE,
            "q1",
            0.5,
            &[("latency_s", 0.2), ("transfer_s", 0.3)],
        );
        drop(root);

        let p = QueryProfile::from_recorder(&rec).expect("profile");
        assert_eq!(p.spans.len(), 3);
        assert!((p.virtual_total() - 0.5).abs() < 1e-12);
        assert!((p.sum_attr(Subsystem::Network, "latency_s") - 0.2).abs() < 1e-12);
        assert!((p.leaf_virtual_sum() - 0.5).abs() < 1e-12);
        let text = p.render();
        assert!(text.contains("session.action expand"));
        assert!(text.contains("  cache.probe probe"));
        assert!(text.contains("net.exchange q1"));
        assert!(text.contains("[miss]"));
    }
}
