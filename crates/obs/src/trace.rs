//! Cross-site causal tracing (DESIGN.md §15).
//!
//! A [`TraceContext`] rides inside every metered exchange and replication
//! frame while tracing is on (and costs exactly [`TraceContext::WIRE_BYTES`]
//! request bytes per exchange; zero when off), so the spans recorded at the
//! client, the primary, and every replica can be reassembled into ONE causal
//! tree per action — the [`TraceTree`].
//!
//! **Bit-exactness contract.** Virtual time advances only by exact amounts
//! (`MeteredChannel`'s `now += d`, a ship link's transfer), and every
//! virtually-wide span records its `d` as the `v_s` attribute. The
//! recorder's timeline is the running sum of those `d` in record order
//! (see [`crate::span`]), so a tree copies the recorder's positions, and
//! the tree total, the attribution total and the channel's own `elapsed()`
//! are the *same additions in the same order* — equal to the last bit,
//! never "close enough". Interval subtraction (`v_end - v_start`) is NOT
//! the reconciliation basis: IEEE addition does not telescope.
//!
//! Structural spans (action roots, engine operators, lock waits, WAL
//! appends) have `v_excl == 0.0`: adding them to the running sum is exact
//! (`x + 0.0 == x`), and they surface in the attribution table with counts
//! and advisory wall time so "where did the time go" has an honest answer —
//! in this simulator all *virtual* time is network/replication time.

use std::collections::BTreeMap;

use crate::json;
use crate::span::{kinds, SpanKind, SpanRecord};

/// The context piggybacked on every exchange while tracing is on: which
/// action (trace) this exchange belongs to and which span caused it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    pub trace_id: u64,
    pub parent_span: u64,
}

impl TraceContext {
    /// Wire cost of a propagated context: two fixed u64s. Added to the
    /// request byte count of every exchange when tracing is on; when
    /// tracing is off nothing is added and the volume model is untouched.
    pub const WIRE_BYTES: usize = 16;

    pub fn new(trace_id: u64, parent_span: u64) -> Self {
        TraceContext {
            trace_id,
            parent_span,
        }
    }
}

/// Ids are masked to 48 bits so they survive a round-trip through the
/// `f64` span-attribute channel losslessly (52-bit mantissa).
pub const TRACE_ID_BITS: u32 = 48;
const TRACE_ID_MASK: u64 = (1 << TRACE_ID_BITS) - 1;

/// Deterministic trace-id source: a splitmix64 counter stream seeded from
/// the workload seed, masked to [`TRACE_ID_BITS`]. Two sessions seeded
/// differently produce disjoint id streams with overwhelming probability;
/// the same seed replays the same ids.
#[derive(Debug, Clone)]
pub struct TraceIdGen {
    state: u64,
}

impl TraceIdGen {
    pub fn new(seed: u64) -> Self {
        TraceIdGen { state: seed }
    }

    /// Next non-zero 48-bit trace id.
    pub fn next_id(&mut self) -> u64 {
        loop {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let id = pdm_prng::splitmix64(self.state) & TRACE_ID_MASK;
            if id != 0 {
                return id;
            }
        }
    }
}

/// One node of an assembled cross-site trace tree.
///
/// `v_excl` is the span's *exclusive* virtual duration — the exact amount
/// it advanced the virtual clock (0.0 for structural spans). `v_start` /
/// `v_end` are the recorder's positions on the action timeline, copied:
/// the running sum of the `v_excl` recorded before the span opened, and
/// before it closed.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// Tree-unique span id ([`ROOT_GID`], or a fixed base + the recorder's
    /// span index).
    pub gid: u64,
    /// Parent gid; `None` only for the root.
    pub parent: Option<u64>,
    /// Which process recorded it: `client`, `primary`, `replica2`, …
    pub site: String,
    pub kind: SpanKind,
    pub label: String,
    pub v_start: f64,
    pub v_end: f64,
    /// Exact exclusive virtual seconds (the clock-advance amount).
    pub v_excl: f64,
    /// Advisory wall nanoseconds (never reconciled).
    pub wall_ns: u64,
    pub attrs: Vec<(&'static str, f64)>,
    pub detail: String,
}

/// One causal tree for one action, spanning every site it touched.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceTree {
    pub trace_id: u64,
    /// Action label (root span label), e.g. `multi_level_expand`.
    pub action: String,
    /// `"ok"` or the failure variant name (`Timeout`, `Overloaded`, …).
    pub outcome: String,
    /// Record order == timeline order for wide spans.
    pub spans: Vec<TraceSpan>,
    /// Running sum of `v_excl` in record order — the action's
    /// virtual-clock duration.
    pub total_v: f64,
}

impl TraceTree {
    /// The tree of one action: a synthetic zero-width root owned by `site`,
    /// then the action's recorder spans in record order with their
    /// positions copied. A span belongs to the site it names, `site` when
    /// it names none. The root closes over the timeline, `total_v`, the
    /// running sum of the spans' `v_s` in record order.
    pub fn assemble(
        trace_id: u64,
        action: impl Into<String>,
        site: &str,
        outcome: impl Into<String>,
        spans: &[SpanRecord],
    ) -> TraceTree {
        let action = action.into();
        let total_v = spans
            .iter()
            .fold(0.0f64, |sum, r| sum + r.attr("v_s").unwrap_or(0.0));
        let root = TraceSpan {
            gid: ROOT_GID,
            parent: None,
            site: site.to_string(),
            kind: kinds::ACTION,
            label: action.clone(),
            v_start: 0.0,
            v_end: total_v,
            v_excl: 0.0,
            wall_ns: 0,
            attrs: vec![("trace_id", trace_id as f64)],
            detail: String::new(),
        };
        let gid = |id: usize| BLOCK_BASE + id as u64;
        let copies = spans.iter().map(|r| TraceSpan {
            gid: gid(r.id),
            parent: Some(r.parent.map_or(ROOT_GID, gid)),
            site: if r.site.is_empty() { site } else { &r.site }.to_string(),
            kind: r.kind,
            label: r.label.clone(),
            v_start: r.v_start,
            v_end: r.v_end,
            v_excl: r.attr("v_s").unwrap_or(0.0),
            wall_ns: r.wall_ns(),
            attrs: r.attrs.clone(),
            detail: r.detail.clone(),
        });
        TraceTree {
            trace_id,
            action,
            outcome: outcome.into(),
            spans: std::iter::once(root).chain(copies).collect(),
            total_v,
        }
    }

    pub fn root(&self) -> Option<&TraceSpan> {
        self.spans.iter().find(|s| s.parent.is_none())
    }

    /// Wide (virtual-clock-advancing) spans in record order: the exclusive
    /// segments the critical path is made of.
    pub fn segments(&self) -> impl Iterator<Item = &TraceSpan> {
        self.spans.iter().filter(|s| s.v_excl != 0.0)
    }

    /// Sites represented in the tree, first-seen order.
    pub fn sites(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for s in &self.spans {
            if !out.contains(&s.site.as_str()) {
                out.push(&s.site);
            }
        }
        out
    }

    fn span_by_gid(&self, gid: u64) -> Option<&TraceSpan> {
        self.spans.iter().find(|s| s.gid == gid)
    }

    /// Structural validation: exactly one root, every parent recorded
    /// before its child (which rules out cycles and orphans), and the
    /// exclusive segments tile `[0, total_v]` with *bit-exact* cursor
    /// equality — segment k+1 starts at the bits where segment k ended.
    pub fn validate(&self) -> Result<(), String> {
        if self.spans.is_empty() {
            return Err("empty tree".into());
        }
        let mut roots = 0usize;
        let mut seen: Vec<u64> = Vec::with_capacity(self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            if seen.contains(&s.gid) {
                return Err(format!("duplicate gid {} at span {i}", s.gid));
            }
            match s.parent {
                None => roots += 1,
                Some(p) => {
                    if !seen.contains(&p) {
                        return Err(format!(
                            "span {i} ({}) parent {p} not recorded before it",
                            s.kind.full_name()
                        ));
                    }
                }
            }
            seen.push(s.gid);
        }
        if roots != 1 {
            return Err(format!("{roots} roots, want exactly 1"));
        }
        // Exclusive segments tile the timeline: consecutive cursor values
        // agree to the bit, and their running sum IS total_v.
        let mut cursor = 0.0f64;
        for s in self.segments() {
            if s.v_start.to_bits() != cursor.to_bits() {
                return Err(format!(
                    "segment {} ({}) starts at {} but cursor is {cursor}",
                    s.gid,
                    s.kind.full_name(),
                    s.v_start
                ));
            }
            cursor += s.v_excl;
            if s.v_end.to_bits() != cursor.to_bits() {
                return Err(format!("segment {} end drifted off the cursor", s.gid));
            }
        }
        if cursor.to_bits() != self.total_v.to_bits() {
            return Err(format!(
                "segment sum {cursor} != recorded total {}",
                self.total_v
            ));
        }
        Ok(())
    }
}

/// `ROOT_GID` is public: it is the `parent_span` a fresh [`TraceContext`]
/// points at (everything a traced action causes hangs off the root).
/// Recorder spans are numbered from `BLOCK_BASE` in record order.
pub const ROOT_GID: u64 = 1;
const BLOCK_BASE: u64 = 1_000_000;

/// One row of the per-action attribution table.
#[derive(Debug, Clone, PartialEq)]
pub struct AttribClass {
    /// `net.exchange`, `repl.wait_watermark`, `locks.wait`, …
    pub class: String,
    /// Exact virtual seconds attributed (0.0 for zero-width classes).
    pub v_s: f64,
    pub count: u64,
    /// Advisory wall nanoseconds.
    pub wall_ns: u64,
}

/// The critical-path attribution of one tree: every span except the root
/// is binned into a class; `total_v` is the one-pass in-order running sum
/// of exclusive segment durations and reconciles bit-exactly with
/// [`TraceTree::total_v`] (and, for a single-session action, with the
/// channel's `elapsed()`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Attribution {
    pub total_v: f64,
    pub classes: Vec<AttribClass>,
}

impl Attribution {
    pub fn class(&self, name: &str) -> Option<&AttribClass> {
        self.classes.iter().find(|c| c.class == name)
    }
}

/// Segment class: virtual time spent shipping under an open watermark
/// wait is attributed to the wait, not to generic shipping — that is the
/// "replica lag" bucket the paper's eq. (2)–(5) decomposition lacks.
fn class_of(tree: &TraceTree, span: &TraceSpan) -> String {
    let mut cur = span.parent;
    let mut hops = 0;
    while let Some(pgid) = cur {
        if hops > tree.spans.len() {
            break; // defensive: validate() catches cycles separately
        }
        hops += 1;
        match tree.span_by_gid(pgid) {
            Some(p) if p.kind == kinds::REPL_WAIT_WATERMARK => {
                return kinds::REPL_WAIT_WATERMARK.full_name()
            }
            Some(p) => cur = p.parent,
            None => break,
        }
    }
    span.kind.full_name()
}

/// Extract the attribution table from an assembled tree.
pub fn attribution(tree: &TraceTree) -> Attribution {
    let mut total = 0.0f64;
    let mut bins: BTreeMap<String, (f64, u64, u64)> = BTreeMap::new();
    for span in &tree.spans {
        // Single in-order pass: structural spans add exactly 0.0.
        total += span.v_excl;
        if span.parent.is_none() {
            continue; // the root is the thing being attributed
        }
        let class = class_of(tree, span);
        let e = bins.entry(class).or_insert((0.0, 0, 0));
        e.0 += span.v_excl;
        e.1 += 1;
        e.2 += span.wall_ns;
    }
    Attribution {
        total_v: total,
        classes: bins
            .into_iter()
            .map(|(class, (v_s, count, wall_ns))| AttribClass {
                class,
                v_s,
                count,
                wall_ns,
            })
            .collect(),
    }
}

/// Retains full trace trees only for tail actions: total virtual latency
/// at or above `threshold`, or any non-`"ok"` outcome (`Timeout`,
/// `Overloaded`, `ReplicaLagTimeout`, …). Keeps at most `cap` trees,
/// evicting the fastest kept one when full.
#[derive(Debug, Clone, Default)]
pub struct TailSampler {
    threshold: f64,
    cap: usize,
    kept: Vec<TraceTree>,
    pub offered: u64,
    pub retained: u64,
}

impl TailSampler {
    pub fn new(threshold: f64, cap: usize) -> Self {
        TailSampler {
            threshold,
            cap: cap.max(1),
            kept: Vec::new(),
            offered: 0,
            retained: 0,
        }
    }

    /// Offer a finished tree; returns whether it was retained.
    pub fn offer(&mut self, tree: TraceTree) -> bool {
        self.offered += 1;
        let tail = tree.outcome != "ok" || tree.total_v >= self.threshold;
        if !tail {
            return false;
        }
        self.retained += 1;
        if self.kept.len() < self.cap {
            self.kept.push(tree);
            return true;
        }
        // Evict the fastest kept ok-tree; failure trees are never evicted
        // in favour of a merely-slow one.
        let victim = self
            .kept
            .iter_mut()
            .filter(|t| t.outcome == "ok")
            .min_by(|a, b| a.total_v.total_cmp(&b.total_v));
        match victim {
            Some(slot) if tree.outcome != "ok" || tree.total_v > slot.total_v => {
                *slot = tree;
                true
            }
            _ => false,
        }
    }

    pub fn exemplars(&self) -> &[TraceTree] {
        &self.kept
    }

    /// The slowest retained tree — the exemplar benches export.
    pub fn slowest(&self) -> Option<&TraceTree> {
        self.kept
            .iter()
            .max_by(|a, b| a.total_v.total_cmp(&b.total_v))
    }
}

/// Export trees in Chrome Trace Event Format (the JSON object form), one
/// process per site — loadable in `chrome://tracing` / Perfetto.
/// Timestamps are virtual microseconds.
pub fn chrome_trace_json(trees: &[TraceTree]) -> String {
    let mut sites: Vec<&str> = Vec::new();
    for t in trees {
        for s in t.sites() {
            if !sites.contains(&s) {
                sites.push(s);
            }
        }
    }
    let mut events: Vec<String> = Vec::new();
    for (i, site) in sites.iter().enumerate() {
        events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
            i + 1,
            json::escape(site)
        ));
    }
    for t in trees {
        for s in &t.spans {
            let pid = sites.iter().position(|x| *x == s.site).unwrap_or(0) + 1;
            let name = if s.label.is_empty() {
                s.kind.full_name()
            } else {
                format!("{} {}", s.kind.full_name(), s.label)
            };
            let mut args = vec![
                format!("\"trace_id\":{}", t.trace_id),
                format!("\"gid\":{}", s.gid),
                format!("\"v_excl_s\":{}", json::number(s.v_excl)),
            ];
            if let Some(p) = s.parent {
                args.push(format!("\"parent\":{p}"));
            }
            for (k, v) in &s.attrs {
                args.push(format!("\"{}\":{}", json::escape(k), json::number(*v)));
            }
            if !s.detail.is_empty() {
                args.push(format!("\"detail\":\"{}\"", json::escape(&s.detail)));
            }
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":1,\"args\":{{{}}}}}",
                json::escape(&name),
                s.kind.subsystem.prefix(),
                json::number(s.v_start * 1e6),
                json::number((s.v_end - s.v_start) * 1e6),
                args.join(",")
            ));
        }
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    )
}

/// Per-class accumulator row: (actions, total_v, class -> (v_s, count)).
type AttribRow = (u64, f64, BTreeMap<String, (f64, u64)>);

/// Accumulates attributions per action class across a bench run and
/// renders the `attribution` section of a `BENCH_*.json` report.
#[derive(Debug, Clone, Default)]
pub struct AttributionTable {
    rows: BTreeMap<String, AttribRow>,
}

impl AttributionTable {
    pub fn new() -> Self {
        AttributionTable::default()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Fold one tree's attribution into the `action_class` row.
    pub fn add(&mut self, action_class: &str, tree: &TraceTree) {
        let a = attribution(tree);
        let row = self
            .rows
            .entry(action_class.to_string())
            .or_insert_with(|| (0, 0.0, BTreeMap::new()));
        row.0 += 1;
        row.1 += a.total_v;
        for c in &a.classes {
            let e = row.2.entry(c.class.clone()).or_insert((0.0, 0));
            e.0 += c.v_s;
            e.1 += c.count;
        }
    }

    /// Per action class: its name, the number of actions folded in, their
    /// total virtual seconds, and the sum of the class segments — the two
    /// figures the report contract requires to agree.
    pub fn totals(&self) -> impl Iterator<Item = (&str, u64, f64, f64)> {
        self.rows.iter().map(|(action, (n, total, classes))| {
            let segments = classes.values().map(|(v_s, _)| v_s).sum();
            (action.as_str(), *n, *total, segments)
        })
    }

    /// JSON object: action class → {actions, total_v_s, classes{...}}.
    pub fn to_json(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let pad2 = " ".repeat(indent + 2);
        let pad3 = " ".repeat(indent + 4);
        let mut rows: Vec<String> = Vec::new();
        for (action, (n, total, classes)) in &self.rows {
            let mut cls: Vec<String> = Vec::new();
            for (name, (v, count)) in classes {
                cls.push(format!(
                    "{pad3}\"{}\": {{\"v_s\": {}, \"count\": {}}}",
                    json::escape(name),
                    json::number(*v),
                    count
                ));
            }
            rows.push(format!(
                "{pad2}\"{}\": {{\n{pad3}\"actions\": {n},\n{pad3}\"total_v_s\": {},\n{pad3}\"classes\": {{\n{}\n{pad3}}}\n{pad2}}}",
                json::escape(action),
                json::number(*total),
                cls.join(",\n")
            ));
        }
        format!("{{\n{}\n{pad}}}", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Recorder, SpanGuard};

    #[test]
    fn id_gen_is_deterministic_masked_and_nonzero() {
        let mut a = TraceIdGen::new(42);
        let mut b = TraceIdGen::new(42);
        let mut c = TraceIdGen::new(43);
        let ids_a: Vec<u64> = (0..64).map(|_| a.next_id()).collect();
        let ids_b: Vec<u64> = (0..64).map(|_| b.next_id()).collect();
        assert_eq!(ids_a, ids_b, "same seed, same ids");
        assert_ne!(ids_a[0], c.next_id(), "different seed diverges");
        for id in &ids_a {
            assert!(*id != 0 && *id <= TRACE_ID_MASK);
            // Round-trips through the f64 attribute channel losslessly.
            assert_eq!(*id as f64 as u64, *id);
        }
    }

    /// A span `v_s` wide, recorded the way a coordinator records one.
    fn wide(rec: &Recorder, site: &str, kind: SpanKind, label: &str, v_s: f64) -> SpanGuard {
        let span = rec.span_at(site, kind, label);
        span.advance(v_s);
        span
    }

    /// The tree of what `rec` holds, for an action of `site`.
    fn assemble(rec: &Recorder, trace_id: u64, action: &str, site: &str) -> TraceTree {
        TraceTree::assemble(trace_id, action, site, "ok", &rec.spans())
    }

    #[test]
    fn assembler_tiles_segments_bit_exactly() {
        let rec = Recorder::new();
        // Awkward magnitudes on purpose: telescoping subtraction would
        // NOT reproduce these sums bit-exactly.
        let durations = [0.1, 1e-9, 0.3, 7e-12, 0.25];
        let mut expect = 0.0f64;
        for (i, d) in durations.iter().enumerate() {
            drop(wide(&rec, "", kinds::NET_EXCHANGE, &format!("q{i}"), *d));
            expect += *d;
        }
        let tree = assemble(&rec, 7, "expand", "client");
        tree.validate().unwrap();
        assert_eq!(tree.total_v.to_bits(), expect.to_bits());
        assert_eq!(tree.segments().count(), durations.len());
        let a = attribution(&tree);
        assert_eq!(a.total_v.to_bits(), tree.total_v.to_bits());
        assert_eq!(a.class("net.exchange").unwrap().count, 5);
    }

    #[test]
    fn watermark_group_reclasses_child_shipping() {
        let rec = Recorder::new();
        let wait = rec.span_at("primary", kinds::REPL_WAIT_WATERMARK, "seq4");
        drop(wide(&rec, "primary", kinds::REPL_SHIP, "site1", 0.02));
        drop(wide(&rec, "primary", kinds::REPL_SHIP, "site2", 0.03));
        drop(wait);
        drop(wide(&rec, "", kinds::NET_EXCHANGE, "q1", 0.5));
        let tree = assemble(&rec, 9, "query_all", "client3");
        tree.validate().unwrap();
        assert_eq!(tree.sites(), ["client3", "primary"]);
        let a = attribution(&tree);
        let wm = a.class("repl.wait_watermark").unwrap();
        assert_eq!(wm.count, 3, "the wait + two child ships");
        assert!((wm.v_s - 0.05).abs() < 1e-12);
        assert!(a.class("repl.ship").is_none(), "reclassed under the wait");
        assert_eq!(a.class("net.exchange").unwrap().v_s, 0.5);
        assert_eq!(a.total_v.to_bits(), tree.total_v.to_bits());
    }

    #[test]
    fn validate_rejects_orphans_and_sum_drift() {
        let mut tree = mini_tree(0.25, "ok");
        tree.validate().unwrap();
        let good = tree.clone();
        // Orphan: parent gid that does not exist.
        tree.spans[1].parent = Some(99);
        assert!(tree.validate().is_err());
        // Sum drift: total not the running sum.
        let mut tree2 = good.clone();
        tree2.total_v += 1e-16_f64.max(f64::EPSILON);
        assert!(tree2.validate().is_err());
        // Second root.
        let mut tree3 = good;
        tree3.spans[1].parent = None;
        assert!(tree3.validate().is_err());
    }

    fn mini_tree(total: f64, outcome: &str) -> TraceTree {
        let rec = Recorder::new();
        drop(wide(&rec, "", kinds::NET_EXCHANGE, "q", total));
        TraceTree::assemble(5, "a", "client", outcome, &rec.spans())
    }

    #[test]
    fn sampler_keeps_tail_and_failures_only() {
        let mut s = TailSampler::new(1.0, 2);
        assert!(!s.offer(mini_tree(0.5, "ok")), "below threshold");
        assert!(s.offer(mini_tree(1.5, "ok")));
        assert!(s.offer(mini_tree(0.1, "Timeout")), "failures always kept");
        assert!(s.offer(mini_tree(2.0, "ok")), "evicts the fastest ok tree");
        assert_eq!(s.exemplars().len(), 2);
        assert!(
            s.exemplars().iter().any(|t| t.outcome == "Timeout"),
            "failure tree never evicted for a slow ok tree"
        );
        assert_eq!(s.slowest().unwrap().total_v, 2.0);
        assert_eq!(s.offered, 4);
        assert_eq!(s.retained, 3);
    }

    #[test]
    fn chrome_export_is_wellformed_and_site_partitioned() {
        let rec = Recorder::new();
        let ship = wide(&rec, "primary", kinds::REPL_SHIP, "site1", 0.04);
        drop(rec.span_at("replica1", kinds::REPL_APPLY, "3 records"));
        drop(ship);
        drop(wide(&rec, "", kinds::NET_EXCHANGE, "q1", 0.2));
        let tree = assemble(&rec, 11, "checkout", "client2");
        let json = chrome_trace_json(std::slice::from_ref(&tree));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("process_name"));
        for site in ["client2", "primary", "replica1"] {
            assert!(json.contains(site), "missing site {site}");
        }
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains(&format!("\"trace_id\":{}", tree.trace_id)));
        // Balanced braces/brackets — cheap well-formedness proxy given no
        // string in the fixture contains braces.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn attribution_table_accumulates_per_action_class() {
        let mut t = AttributionTable::new();
        t.add("expand", &mini_tree(0.5, "ok"));
        t.add("expand", &mini_tree(0.25, "ok"));
        t.add("update", &mini_tree(0.125, "ok"));
        let json = t.to_json(2);
        assert!(json.contains("\"expand\""));
        assert!(json.contains("\"actions\": 2"));
        assert!(json.contains("\"net.exchange\""));
        assert!(json.contains("\"total_v_s\": 0.75"));
    }
}
