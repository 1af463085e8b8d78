//! Hierarchical spans over a per-action recorder.
//!
//! A [`Recorder`] is a cheap-clone handle: `Recorder::disabled()` carries no
//! allocation and every operation on it is a no-op `Option` check, which is
//! what makes "profiling off" free. An enabled recorder is the whole
//! observation context of the action in flight: its [`SpanRecord`]s, the
//! action's [`TraceContext`] while it is traced, and a flight ring that
//! persists across actions (see [`crate::flight`]).
//!
//! **Ownership.** Whoever starts an action owns its recorder (a session, for
//! a routed action the routed session) and hands it down to everything that
//! works on the action's behalf — the channel, the server, the replication
//! coordinator. Nothing downstream keeps a recorder of its own: work done
//! for no action (a background ship round) is handed a disabled one.
//!
//! **Clock model.** Each span records a virtual interval (netsim
//! `VirtualClock` seconds — the deterministic timeline) and a wall
//! interval (nanoseconds since the recorder's epoch — advisory). The
//! channel resets its virtual clock at every metering reset; the recorder
//! keeps the action timeline monotonic across those resets by rebasing
//! (`meter_reset` sets `vbase = vnow`), so `child ⊆ parent` holds on both
//! clocks for every span of an action.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::flight::{FlightEvent, FLIGHT_CAPACITY};
use crate::trace::TraceContext;

/// The instrumented layers of the stack. One span kind belongs to exactly
/// one subsystem; [`Subsystem::prefix`] is the metric/span naming prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Subsystem {
    /// Client session: actions, late (client-side) filtering.
    Session,
    /// Rule lookup, §5.5 query modification, SQL parsing.
    Compile,
    /// SQL engine operators: scans, joins, recursion, subqueries.
    Engine,
    /// Cross-session query-result cache.
    Cache,
    /// Check-out lock table.
    Locks,
    /// Write-ahead log appends and fsyncs.
    Wal,
    /// Simulated WAN exchanges, faults, and backoff waits.
    Network,
    /// Multi-site replication: WAL shipping, replica replay, watermark
    /// waits, failover promotion.
    Repl,
    /// Admission control: the per-server token-bucket gate deciding
    /// whether an arriving action may run at all.
    Admission,
    /// Overload protection: sheds, deadline abandons, retry-budget
    /// denials — everything that happens when offered load exceeds
    /// capacity.
    Overload,
}

impl Subsystem {
    pub const ALL: [Subsystem; 10] = [
        Subsystem::Session,
        Subsystem::Compile,
        Subsystem::Engine,
        Subsystem::Cache,
        Subsystem::Locks,
        Subsystem::Wal,
        Subsystem::Network,
        Subsystem::Repl,
        Subsystem::Admission,
        Subsystem::Overload,
    ];

    /// The naming prefix used in span full names (`net.exchange`) and
    /// metric names (`net.retransmits`).
    pub fn prefix(&self) -> &'static str {
        match self {
            Subsystem::Session => "session",
            Subsystem::Compile => "compile",
            Subsystem::Engine => "engine",
            Subsystem::Cache => "cache",
            Subsystem::Locks => "locks",
            Subsystem::Wal => "wal",
            Subsystem::Network => "net",
            Subsystem::Repl => "repl",
            Subsystem::Admission => "admission",
            Subsystem::Overload => "overload",
        }
    }
}

/// A span kind: subsystem plus a stable short name. All kinds used by the
/// stack are declared in [`kinds`]; the meta-test in `tests/observability.rs`
/// checks emitted spans against this registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanKind {
    pub subsystem: Subsystem,
    pub name: &'static str,
}

impl SpanKind {
    pub const fn new(subsystem: Subsystem, name: &'static str) -> Self {
        SpanKind { subsystem, name }
    }

    /// `"net.exchange"`-style dotted name.
    pub fn full_name(&self) -> String {
        format!("{}.{}", self.subsystem.prefix(), self.name)
    }
}

/// The declared span taxonomy (DESIGN.md §11). Every instrumentation site
/// in the stack uses one of these constants; the meta-test asserts the
/// converse — every emitted span kind appears here, and every subsystem
/// declares at least one kind.
pub mod kinds {
    use super::{SpanKind, Subsystem};

    pub const ACTION: SpanKind = SpanKind::new(Subsystem::Session, "action");
    pub const LATE_FILTER: SpanKind = SpanKind::new(Subsystem::Session, "late_filter");

    pub const RULE_LOOKUP: SpanKind = SpanKind::new(Subsystem::Compile, "rule_lookup");
    pub const QUERY_MODIFY: SpanKind = SpanKind::new(Subsystem::Compile, "modify");
    pub const PARSE: SpanKind = SpanKind::new(Subsystem::Compile, "parse");

    pub const ENGINE_QUERY: SpanKind = SpanKind::new(Subsystem::Engine, "query");
    pub const SCAN: SpanKind = SpanKind::new(Subsystem::Engine, "scan");
    pub const JOIN: SpanKind = SpanKind::new(Subsystem::Engine, "join");
    pub const FILTER: SpanKind = SpanKind::new(Subsystem::Engine, "filter");
    pub const RECURSION: SpanKind = SpanKind::new(Subsystem::Engine, "recursion");
    pub const RECURSION_ROUND: SpanKind = SpanKind::new(Subsystem::Engine, "recursion_round");
    pub const SUBQUERY: SpanKind = SpanKind::new(Subsystem::Engine, "subquery");

    pub const CACHE_PROBE: SpanKind = SpanKind::new(Subsystem::Cache, "probe");

    pub const LOCK_WAIT: SpanKind = SpanKind::new(Subsystem::Locks, "wait");

    pub const WAL_APPEND: SpanKind = SpanKind::new(Subsystem::Wal, "append");
    pub const WAL_FSYNC: SpanKind = SpanKind::new(Subsystem::Wal, "fsync");

    pub const NET_EXCHANGE: SpanKind = SpanKind::new(Subsystem::Network, "exchange");
    pub const NET_FAULT: SpanKind = SpanKind::new(Subsystem::Network, "fault");
    pub const NET_BACKOFF: SpanKind = SpanKind::new(Subsystem::Network, "backoff");

    pub const REPL_SHIP: SpanKind = SpanKind::new(Subsystem::Repl, "ship");
    pub const REPL_APPLY: SpanKind = SpanKind::new(Subsystem::Repl, "apply");
    pub const REPL_WAIT_WATERMARK: SpanKind = SpanKind::new(Subsystem::Repl, "wait_watermark");
    pub const REPL_PROMOTE: SpanKind = SpanKind::new(Subsystem::Repl, "promote");

    pub const ADMIT: SpanKind = SpanKind::new(Subsystem::Admission, "admit");

    pub const OVERLOAD_SHED: SpanKind = SpanKind::new(Subsystem::Overload, "shed");
    pub const OVERLOAD_ABANDON: SpanKind = SpanKind::new(Subsystem::Overload, "abandon");

    /// All declared kinds, the registry the meta-test walks.
    pub const ALL: &[SpanKind] = &[
        ACTION,
        LATE_FILTER,
        RULE_LOOKUP,
        QUERY_MODIFY,
        PARSE,
        ENGINE_QUERY,
        SCAN,
        JOIN,
        FILTER,
        RECURSION,
        RECURSION_ROUND,
        SUBQUERY,
        CACHE_PROBE,
        LOCK_WAIT,
        WAL_APPEND,
        WAL_FSYNC,
        NET_EXCHANGE,
        NET_FAULT,
        NET_BACKOFF,
        REPL_SHIP,
        REPL_APPLY,
        REPL_WAIT_WATERMARK,
        REPL_PROMOTE,
        ADMIT,
        OVERLOAD_SHED,
        OVERLOAD_ABANDON,
    ];
}

/// One recorded span. `v_*` are virtual-clock seconds on the action
/// timeline; `wall_*` are nanoseconds since the recorder's epoch
/// (advisory). `attrs` carries kind-specific numeric attributes — for
/// `net.exchange` the exact `latency_s`/`transfer_s` split so profiles
/// reconcile bit-for-bit against `TrafficStats`.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub id: usize,
    pub parent: Option<usize>,
    pub kind: SpanKind,
    pub label: String,
    /// Where the span ran when that is not the recorder owner's site
    /// (`primary`, `replica2`, …); empty for the owner's own spans.
    pub site: String,
    pub v_start: f64,
    pub v_end: f64,
    pub wall_start_ns: u64,
    pub wall_end_ns: u64,
    pub rows_in: u64,
    pub rows_out: u64,
    pub detail: String,
    pub attrs: Vec<(&'static str, f64)>,
    /// Still open (guard not yet dropped) — only visible when spans are
    /// read mid-action.
    pub open: bool,
}

impl SpanRecord {
    pub fn v_duration(&self) -> f64 {
        self.v_end - self.v_start
    }

    pub fn wall_ns(&self) -> u64 {
        self.wall_end_ns.saturating_sub(self.wall_start_ns)
    }

    pub fn attr(&self, key: &str) -> Option<f64> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }
}

#[derive(Debug, Default)]
struct RecState {
    spans: Vec<SpanRecord>,
    stack: Vec<usize>,
    /// Current position on the action's virtual timeline.
    vnow: f64,
    /// Rebase offset: the channel's virtual clock restarts at 0 on every
    /// metering reset; `vbase + clock_time` keeps the action timeline
    /// monotonic across resets.
    vbase: f64,
    /// The context of the traced action in flight.
    ctx: Option<TraceContext>,
    flight: VecDeque<FlightEvent>,
}

#[derive(Debug)]
struct RecorderInner {
    epoch: Instant,
    state: Mutex<RecState>,
}

/// Per-action observation context. Cloning shares the underlying state;
/// `Recorder::disabled()` (also `Default`) is a free no-op handle.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<RecorderInner>>,
}

fn lock_state(inner: &RecorderInner) -> MutexGuard<'_, RecState> {
    match inner.state.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl Recorder {
    /// An enabled recorder with an empty timeline.
    pub fn new() -> Self {
        Recorder {
            inner: Some(Arc::new(RecorderInner {
                // lint:allow(wall-clock): the wall interval of a span is
                // advisory by design (DESIGN.md §11); the virtual clock is
                // the sole measured-time authority.
                epoch: Instant::now(),
                state: Mutex::new(RecState::default()),
            })),
        }
    }

    /// The no-op handle used when profiling is off.
    pub fn disabled() -> Self {
        Recorder::default()
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn wall_ns(inner: &RecorderInner) -> u64 {
        inner.epoch.elapsed().as_nanos() as u64
    }

    /// Start a fresh action timeline: drop the previous action's spans and
    /// context and rewind the virtual timeline to 0. The flight ring
    /// persists across actions (that is its point).
    pub fn begin_action(&self) {
        if let Some(inner) = &self.inner {
            let mut st = lock_state(inner);
            st.spans.clear();
            st.stack.clear();
            st.vnow = 0.0;
            st.vbase = 0.0;
            st.ctx = None;
        }
    }

    /// Set (or clear) the context of the action in flight. Its owner does,
    /// once; everything the recorder is handed to reads it from here.
    pub fn set_context(&self, ctx: Option<TraceContext>) {
        if let Some(inner) = &self.inner {
            lock_state(inner).ctx = ctx;
        }
    }

    /// The context of the traced action in flight, if there is one.
    pub fn context(&self) -> Option<TraceContext> {
        self.inner.as_ref().and_then(|inner| lock_state(inner).ctx)
    }

    /// Bytes the action's context adds to a frame sent on its behalf:
    /// [`TraceContext::WIRE_BYTES`] while it is traced, nothing otherwise —
    /// the volume model sees the piggyback on client exchanges, ship batches
    /// and seed snapshots alike.
    pub fn wire_bytes(&self) -> usize {
        match self.context() {
            Some(_) => TraceContext::WIRE_BYTES,
            None => 0,
        }
    }

    /// The channel's virtual clock is about to restart at 0 (metering
    /// reset); rebase so action-relative virtual time stays monotonic.
    pub fn meter_reset(&self) {
        if let Some(inner) = &self.inner {
            let mut st = lock_state(inner);
            st.vbase = st.vnow;
        }
    }

    /// Current position on the action's virtual timeline.
    pub fn virtual_now(&self) -> f64 {
        match &self.inner {
            Some(inner) => lock_state(inner).vnow,
            None => 0.0,
        }
    }

    /// Open a span as a child of the innermost open span. Closed when the
    /// returned guard drops.
    #[must_use]
    pub fn span(&self, kind: SpanKind, label: impl Into<String>) -> SpanGuard {
        self.span_at("", kind, label)
    }

    /// [`Recorder::span`] for work done on the action's behalf at another
    /// site (`primary`, `replica2`, …).
    #[must_use]
    pub fn span_at(
        &self,
        site: impl Into<String>,
        kind: SpanKind,
        label: impl Into<String>,
    ) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard {
                rec: Recorder::disabled(),
                idx: None,
            };
        };
        let wall = Self::wall_ns(inner);
        let mut st = lock_state(inner);
        let id = st.spans.len();
        let parent = st.stack.last().copied();
        let vnow = st.vnow;
        st.spans.push(SpanRecord {
            id,
            parent,
            kind,
            label: label.into(),
            site: site.into(),
            v_start: vnow,
            v_end: vnow,
            wall_start_ns: wall,
            wall_end_ns: wall,
            rows_in: 0,
            rows_out: 0,
            detail: String::new(),
            attrs: Vec::new(),
            open: true,
        });
        st.stack.push(id);
        drop(st);
        SpanGuard {
            rec: self.clone(),
            idx: Some(id),
        }
    }

    /// Record an already-delimited span on the **channel's** virtual clock
    /// (`clock_start..clock_end` are channel seconds; the recorder adds its
    /// rebase offset). Used by netsim, which knows the exact virtual extent
    /// of an exchange only after costing it. Advances `vnow` to the span
    /// end, and logs a flight event.
    #[allow(clippy::too_many_arguments)]
    pub fn record_closed(
        &self,
        kind: SpanKind,
        label: impl Into<String>,
        clock_start: f64,
        clock_end: f64,
        attrs: &[(&'static str, f64)],
        detail: impl Into<String>,
    ) {
        let Some(inner) = &self.inner else { return };
        let wall = Self::wall_ns(inner);
        let label = label.into();
        let detail = detail.into();
        let mut st = lock_state(inner);
        let v_start = st.vbase + clock_start;
        let v_end = st.vbase + clock_end;
        st.vnow = st.vnow.max(v_end);
        let id = st.spans.len();
        let parent = st.stack.last().copied();
        st.spans.push(SpanRecord {
            id,
            parent,
            kind,
            label: label.clone(),
            site: String::new(),
            v_start,
            v_end,
            wall_start_ns: wall,
            wall_end_ns: wall,
            rows_in: 0,
            rows_out: 0,
            detail,
            attrs: attrs.to_vec(),
            open: false,
        });
        push_flight(
            &mut st.flight,
            FlightEvent {
                vtime: v_end,
                kind,
                label,
            },
        );
    }

    /// Log a flight-ring event without creating a span.
    pub fn event(&self, kind: SpanKind, label: impl Into<String>) {
        let Some(inner) = &self.inner else { return };
        let mut st = lock_state(inner);
        let vtime = st.vnow;
        push_flight(
            &mut st.flight,
            FlightEvent {
                vtime,
                kind,
                label: label.into(),
            },
        );
    }

    /// Snapshot of the current action's spans (closed and still-open).
    pub fn spans(&self) -> Vec<SpanRecord> {
        match &self.inner {
            Some(inner) => lock_state(inner).spans.clone(),
            None => Vec::new(),
        }
    }

    /// Snapshot of the flight ring, oldest first.
    pub fn flight(&self) -> Vec<FlightEvent> {
        match &self.inner {
            Some(inner) => lock_state(inner).flight.iter().cloned().collect(),
            None => Vec::new(),
        }
    }

    fn close_span(&self, idx: usize) {
        let Some(inner) = &self.inner else { return };
        let wall = Self::wall_ns(inner);
        let mut st = lock_state(inner);
        // Guards drop LIFO, so idx is normally the stack top; be defensive
        // anyway so a mis-nested guard cannot corrupt the stack.
        if let Some(pos) = st.stack.iter().rposition(|&i| i == idx) {
            st.stack.remove(pos);
        }
        let vnow = st.vnow;
        if let Some(span) = st.spans.get_mut(idx) {
            span.v_end = vnow;
            span.wall_end_ns = wall;
            span.open = false;
            let ev = FlightEvent {
                vtime: vnow,
                kind: span.kind,
                label: span.label.clone(),
            };
            push_flight(&mut st.flight, ev);
        }
    }

    fn with_span(&self, idx: usize, f: impl FnOnce(&mut SpanRecord)) {
        if let Some(inner) = &self.inner {
            let mut st = lock_state(inner);
            if let Some(span) = st.spans.get_mut(idx) {
                f(span);
            }
        }
    }
}

fn push_flight(ring: &mut VecDeque<FlightEvent>, ev: FlightEvent) {
    if ring.len() == FLIGHT_CAPACITY {
        ring.pop_front();
    }
    ring.push_back(ev);
}

/// RAII guard for an open span; closes it (stamping end times) on drop.
#[derive(Debug)]
pub struct SpanGuard {
    rec: Recorder,
    idx: Option<usize>,
}

impl SpanGuard {
    pub fn set_rows(&self, rows_in: u64, rows_out: u64) {
        if let Some(idx) = self.idx {
            self.rec.with_span(idx, |s| {
                s.rows_in = rows_in;
                s.rows_out = rows_out;
            });
        }
    }

    pub fn set_detail(&self, detail: impl Into<String>) {
        if let Some(idx) = self.idx {
            let detail = detail.into();
            self.rec.with_span(idx, |s| s.detail = detail);
        }
    }

    pub fn add_attr(&self, key: &'static str, value: f64) {
        if let Some(idx) = self.idx {
            self.rec.with_span(idx, |s| s.attrs.push((key, value)));
        }
    }

    /// The work this span stands for advanced the action's virtual time by
    /// exactly `v_s` seconds on a clock the recorder is not attached to (a
    /// ship link, the coordinator's): move the timeline on by `v_s` and
    /// record it as the span's exact `v_s` attribute.
    pub fn advance(&self, v_s: f64) {
        if let (Some(idx), Some(inner)) = (self.idx, &self.rec.inner) {
            let mut st = lock_state(inner);
            st.vnow += v_s;
            if let Some(span) = st.spans.get_mut(idx) {
                span.attrs.push(("v_s", v_s));
            }
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(idx) = self.idx {
            self.rec.close_span(idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        let g = rec.span(kinds::ACTION, "noop");
        g.set_rows(1, 2);
        drop(g);
        rec.record_closed(kinds::NET_EXCHANGE, "x", 0.0, 1.0, &[], "");
        assert!(rec.spans().is_empty());
        assert!(rec.flight().is_empty());
        assert!(!rec.is_enabled());
    }

    #[test]
    fn nesting_and_rebasing() {
        let rec = Recorder::new();
        rec.begin_action();
        let root = rec.span(kinds::ACTION, "a");
        rec.record_closed(
            kinds::NET_EXCHANGE,
            "x1",
            0.0,
            2.0,
            &[("latency_s", 0.5)],
            "",
        );
        // Metering reset: channel clock restarts, timeline must not rewind.
        rec.meter_reset();
        rec.record_closed(kinds::NET_EXCHANGE, "x2", 0.0, 3.0, &[], "");
        drop(root);

        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        let root = &spans[0];
        assert_eq!(root.parent, None);
        assert!((root.v_end - 5.0).abs() < 1e-12);
        let x2 = &spans[2];
        assert_eq!(x2.parent, Some(0));
        assert!((x2.v_start - 2.0).abs() < 1e-12);
        assert!((x2.v_end - 5.0).abs() < 1e-12);
        // child ⊆ parent on the virtual clock.
        for s in &spans[1..] {
            assert!(s.v_start >= root.v_start && s.v_end <= root.v_end);
        }
        assert_eq!(spans[1].attr("latency_s"), Some(0.5));
    }

    #[test]
    fn a_span_of_another_site_advances_the_timeline_by_its_exact_width() {
        let rec = Recorder::new();
        rec.begin_action();
        let ship = rec.span_at("primary", kinds::REPL_SHIP, "site1");
        ship.advance(0.25);
        drop(rec.span_at("replica1", kinds::REPL_APPLY, "1 records"));
        drop(ship);
        let spans = rec.spans();
        assert_eq!(spans[0].site, "primary");
        assert_eq!((spans[0].v_start, spans[0].v_end), (0.0, 0.25));
        assert_eq!(spans[0].attr("v_s"), Some(0.25));
        // The apply ran after the transfer, under the ship.
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[1].v_start, spans[1].v_end), (0.25, 0.25));
        assert_eq!(rec.virtual_now(), 0.25);
    }

    #[test]
    fn the_context_lives_with_the_action() {
        let rec = Recorder::new();
        assert_eq!((rec.context(), rec.wire_bytes()), (None, 0));
        let ctx = TraceContext::new(7, 1);
        rec.set_context(Some(ctx));
        assert_eq!(rec.clone().context(), Some(ctx), "clones share it");
        assert_eq!(rec.wire_bytes(), TraceContext::WIRE_BYTES);
        rec.begin_action();
        assert_eq!(rec.context(), None, "a new action starts untraced");
        let off = Recorder::disabled();
        off.set_context(Some(ctx));
        assert_eq!((off.context(), off.wire_bytes()), (None, 0));
    }

    #[test]
    fn begin_action_clears_spans_keeps_flight() {
        let rec = Recorder::new();
        rec.begin_action();
        drop(rec.span(kinds::PARSE, "p"));
        assert_eq!(rec.spans().len(), 1);
        assert_eq!(rec.flight().len(), 1);
        rec.begin_action();
        assert!(rec.spans().is_empty());
        assert_eq!(rec.flight().len(), 1);
    }

    #[test]
    fn flight_ring_is_bounded() {
        let rec = Recorder::new();
        for i in 0..(FLIGHT_CAPACITY + 10) {
            rec.event(kinds::NET_FAULT, format!("e{i}"));
        }
        let fl = rec.flight();
        assert_eq!(fl.len(), FLIGHT_CAPACITY);
        assert_eq!(fl[0].label, "e10");
    }

    #[test]
    fn declared_kinds_cover_every_subsystem() {
        for sub in Subsystem::ALL {
            assert!(
                kinds::ALL.iter().any(|k| k.subsystem == sub),
                "subsystem {sub:?} declares no span kinds"
            );
        }
    }
}
