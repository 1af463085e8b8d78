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
use crate::span::{kinds, SpanRecord};

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

/// One causal tree for one action, spanning every site it touched: the
/// recorder's spans as recorded, under a synthetic root that is computed
/// where it is printed or needed, never stored.
///
/// The root is the action itself: a zero-width `session.action` span of
/// `site` over `[0, total_v]`, carrying the trace id. A recorded span's
/// `parent` is its parent's index in `spans`, `None` for a child of the
/// root; its exclusive virtual seconds are its `v_s` attribute
/// ([`SpanRecord::v_excl`]), and its positions are the recorder's: the
/// running sum of the `v_s` recorded before it opened, and before it
/// closed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceTree {
    /// The action's trace id; 0 for an action that was profiled, not
    /// traced.
    pub trace_id: u64,
    /// Action label (root span label), e.g. `multi_level_expand`.
    pub action: String,
    /// The owner's site: the root's, and every span's that names none.
    pub site: String,
    /// `"ok"` or the failure variant name (`Timeout`, `Overloaded`, …).
    pub outcome: String,
    /// Record order == timeline order for wide spans.
    pub spans: Vec<SpanRecord>,
    /// Running sum of `v_excl` in record order — the action's
    /// virtual-clock duration.
    pub total_v: f64,
}

impl TraceTree {
    /// The tree of one action of the owner at `site`: the recorder's spans
    /// in record order, taken as they are. The root closes over the
    /// timeline, `total_v`, the running sum of the spans' `v_s` in record
    /// order.
    pub fn assemble(
        trace_id: u64,
        action: impl Into<String>,
        site: impl Into<String>,
        outcome: impl Into<String>,
        spans: Vec<SpanRecord>,
    ) -> TraceTree {
        let total_v = spans.iter().fold(0.0f64, |sum, r| sum + r.v_excl());
        TraceTree {
            trace_id,
            action: action.into(),
            site: site.into(),
            outcome: outcome.into(),
            spans,
            total_v,
        }
    }

    /// Spans in the tree, the synthetic root included.
    pub fn span_count(&self) -> usize {
        self.spans.len() + 1
    }

    /// The synthetic root, computed on each call: the action at the
    /// owner's site, zero-width itself, over `[0, total_v]`, carrying the
    /// trace id. It is not in `spans` (its `id` means nothing); the
    /// recorded spans without a parent hang off it.
    pub fn root(&self) -> SpanRecord {
        SpanRecord {
            id: 0,
            parent: None,
            kind: kinds::ACTION,
            label: self.action.clone(),
            site: self.site.clone(),
            v_start: 0.0,
            v_end: self.total_v,
            wall_start_ns: 0,
            wall_end_ns: 0,
            rows_in: 0,
            rows_out: 0,
            detail: String::new(),
            attrs: vec![("trace_id", self.trace_id as f64)],
            open: false,
        }
    }

    /// The site `span` ran at: the one it names, the owner's otherwise.
    pub fn site_of<'a>(&'a self, span: &'a SpanRecord) -> &'a str {
        if span.site.is_empty() {
            &self.site
        } else {
            &span.site
        }
    }

    /// Wide (virtual-clock-advancing) spans in record order: the exclusive
    /// segments the critical path is made of.
    pub fn segments(&self) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter().filter(|s| s.v_excl() != 0.0)
    }

    /// Sites represented in the tree, first-seen order (the root's first).
    pub fn sites(&self) -> Vec<&str> {
        let mut out: Vec<&str> = vec![&self.site];
        for s in &self.spans {
            let site = self.site_of(s);
            if !out.contains(&site) {
                out.push(site);
            }
        }
        out
    }

    /// Structural validation: every span carries its own index and hangs
    /// off the root or a span recorded before it (which rules out cycles,
    /// orphans and a second root), and the exclusive segments tile
    /// `[0, total_v]` with *bit-exact* cursor equality — segment k+1 starts
    /// at the bits where segment k ended.
    pub fn validate(&self) -> Result<(), String> {
        for (i, s) in self.spans.iter().enumerate() {
            if s.id != i {
                return Err(format!("span {i} carries id {}", s.id));
            }
            if let Some(p) = s.parent.filter(|&p| p >= i) {
                return Err(format!(
                    "span {i} ({}) parent {p} not recorded before it",
                    s.kind.full_name()
                ));
            }
        }
        // Exclusive segments tile the timeline: consecutive cursor values
        // agree to the bit, and their running sum IS total_v.
        let mut cursor = 0.0f64;
        for s in self.segments() {
            if s.v_start.to_bits() != cursor.to_bits() {
                return Err(format!(
                    "segment {} ({}) starts at {} but cursor is {cursor}",
                    s.id,
                    s.kind.full_name(),
                    s.v_start
                ));
            }
            cursor += s.v_excl();
            if s.v_end.to_bits() != cursor.to_bits() {
                return Err(format!("segment {} end drifted off the cursor", s.id));
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

    /// Indented per-operator report of the recorded spans: kind, label,
    /// rows in→out, virtual seconds, detail and attributes. Every field is
    /// deterministic (no wall clock), so the report is byte-identical
    /// across runs.
    pub fn render(&self) -> String {
        let mut children: Vec<Vec<&SpanRecord>> = vec![Vec::new(); self.spans.len()];
        let mut top: Vec<&SpanRecord> = Vec::new();
        for s in &self.spans {
            match s.parent.and_then(|p| children.get_mut(p)) {
                Some(siblings) => siblings.push(s),
                None => top.push(s),
            }
        }
        let mut out = String::new();
        for s in top {
            render_span(s, &children, 0, &mut out);
        }
        out
    }
}

fn render_span(s: &SpanRecord, children: &[Vec<&SpanRecord>], depth: usize, out: &mut String) {
    let indent = "  ".repeat(depth);
    out.push_str(&format!("{indent}{} {}", s.kind.full_name(), s.label));
    if s.rows_in != 0 || s.rows_out != 0 {
        out.push_str(&format!("  rows {}→{}", s.rows_in, s.rows_out));
    }
    out.push_str(&format!("  v={:.6}s", s.v_duration()));
    if !s.detail.is_empty() {
        out.push_str(&format!("  [{}]", s.detail));
    }
    for (k, v) in &s.attrs {
        out.push_str(&format!("  {k}={v:.9}"));
    }
    out.push('\n');
    for c in children.get(s.id).into_iter().flatten() {
        render_span(c, children, depth + 1, out);
    }
}

/// The root's global id. `ROOT_GID` is public: it is the `parent_span` a
/// fresh [`TraceContext`] points at (everything a traced action causes
/// hangs off the root). The export numbers recorded spans from
/// `BLOCK_BASE` in record order.
pub const ROOT_GID: u64 = 1;
const BLOCK_BASE: u64 = 1_000_000;

/// The exported global id of the recorded span at `index`.
fn gid(index: usize) -> u64 {
    BLOCK_BASE + index as u64
}

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
fn class_of(tree: &TraceTree, span: &SpanRecord) -> String {
    let mut cur = span.parent;
    // A valid tree's parents precede their children; the bound ends the
    // walk on an invalid one (validate() reports it).
    for _ in 0..tree.spans.len() {
        let Some(parent) = cur.and_then(|p| tree.spans.get(p)) else {
            break;
        };
        if parent.kind == kinds::REPL_WAIT_WATERMARK {
            return kinds::REPL_WAIT_WATERMARK.full_name();
        }
        cur = parent.parent;
    }
    span.kind.full_name()
}

/// Extract the attribution table from an assembled tree: every recorded
/// span is binned (the root is the thing being attributed).
pub fn attribution(tree: &TraceTree) -> Attribution {
    let mut total = 0.0f64;
    let mut bins: BTreeMap<String, (f64, u64, u64)> = BTreeMap::new();
    for span in &tree.spans {
        // Single in-order pass: structural spans add exactly 0.0.
        let v_excl = span.v_excl();
        total += v_excl;
        let e = bins.entry(class_of(tree, span)).or_insert((0.0, 0, 0));
        e.0 += v_excl;
        e.1 += 1;
        e.2 += span.wall_ns();
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
/// Timestamps are virtual microseconds; each tree's root is exported as
/// gid [`ROOT_GID`], its recorded spans as `BLOCK_BASE` + their index.
pub fn chrome_trace_json(trees: &[TraceTree]) -> String {
    let mut sites: Vec<&str> = Vec::new();
    for t in trees {
        for s in t.sites() {
            if !sites.contains(&s) {
                sites.push(s);
            }
        }
    }
    let pid = |site: &str| sites.iter().position(|x| *x == site).unwrap_or(0) + 1;
    let mut events: Vec<String> = Vec::new();
    for (i, site) in sites.iter().enumerate() {
        events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
            i + 1,
            json::escape(site)
        ));
    }
    for t in trees {
        events.push(chrome_event(
            t.trace_id,
            ROOT_GID,
            None,
            pid(&t.site),
            &t.root(),
        ));
        for s in &t.spans {
            let parent = Some(s.parent.map_or(ROOT_GID, gid));
            events.push(chrome_event(
                t.trace_id,
                gid(s.id),
                parent,
                pid(t.site_of(s)),
                s,
            ));
        }
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    )
}

/// The complete (`"ph":"X"`) event of span `s` of trace `trace_id`,
/// exported as `gid` under `parent`, in process `pid`.
fn chrome_event(
    trace_id: u64,
    gid: u64,
    parent: Option<u64>,
    pid: usize,
    s: &SpanRecord,
) -> String {
    let name = if s.label.is_empty() {
        s.kind.full_name()
    } else {
        format!("{} {}", s.kind.full_name(), s.label)
    };
    let mut args = vec![
        format!("\"trace_id\":{trace_id}"),
        format!("\"gid\":{gid}"),
        format!("\"v_excl_s\":{}", json::number(s.v_excl())),
    ];
    if let Some(p) = parent {
        args.push(format!("\"parent\":{p}"));
    }
    for (k, v) in &s.attrs {
        args.push(format!("\"{}\":{}", json::escape(k), json::number(*v)));
    }
    if !s.detail.is_empty() {
        args.push(format!("\"detail\":\"{}\"", json::escape(&s.detail)));
    }
    format!(
        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":1,\"args\":{{{}}}}}",
        json::escape(&name),
        s.kind.subsystem().prefix(),
        json::number(s.v_start * 1e6),
        json::number((s.v_end - s.v_start) * 1e6),
        args.join(",")
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

    /// Fold one tree into the `action_class` row: its recorded total, and
    /// its attribution's classes.
    pub fn add(&mut self, action_class: &str, tree: &TraceTree) {
        let a = attribution(tree);
        let row = self
            .rows
            .entry(action_class.to_string())
            .or_insert_with(|| (0, 0.0, BTreeMap::new()));
        row.0 += 1;
        row.1 += tree.total_v;
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
    use crate::span::{Recorder, SpanGuard, SpanKind, Subsystem};

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
        TraceTree::assemble(trace_id, action, site, "ok", rec.spans())
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
        // Orphan: a parent that was never recorded.
        tree.spans[0].parent = Some(99);
        assert!(tree.validate().is_err());
        // Sum drift: total not the running sum.
        let mut tree2 = good.clone();
        tree2.total_v += 1e-16_f64.max(f64::EPSILON);
        assert!(tree2.validate().is_err());
        // Cycle: a span that is its own parent.
        let mut tree3 = good.clone();
        tree3.spans[0].parent = Some(0);
        assert!(tree3.validate().is_err());
        // A span renumbered off its record index.
        let mut tree4 = good;
        tree4.spans[0].id = 1;
        assert!(tree4.validate().is_err());
    }

    fn mini_tree(total: f64, outcome: &str) -> TraceTree {
        let rec = Recorder::new();
        drop(wide(&rec, "", kinds::NET_EXCHANGE, "q", total));
        TraceTree::assemble(5, "a", "client", outcome, rec.spans())
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

        let tree = assemble(&rec, 0, "expand", "client");
        tree.validate().unwrap();
        assert_eq!((tree.spans.len(), tree.span_count()), (3, 4));
        assert_eq!(tree.total_v, 0.5);
        let net = |key| {
            let net = tree
                .spans
                .iter()
                .filter(|s| s.kind.subsystem() == Subsystem::Network);
            net.filter_map(|s| s.attr(key)).fold(0.0, |sum, v| sum + v)
        };
        assert_eq!((net("latency_s"), net("transfer_s")), (0.2, 0.3));
        let text = tree.render();
        assert!(text.starts_with("session.action expand  v=0.500000s\n"));
        assert!(text.contains("\n  cache.probe probe  v=0.000000s  [miss]\n"));
        assert!(text.contains("\n  net.exchange q1  v=0.500000s  latency_s=0.200000000"));
        assert!(!text.contains("wall"), "the render is deterministic");
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
