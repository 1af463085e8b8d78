#![cfg_attr(test, allow(clippy::unwrap_used, clippy::disallowed_methods))]
//! `pdm-obs`: deterministic observability for the PDM reproduction (no
//! dependencies outside the workspace).
//!
//! The paper's whole argument (eqs. (1)–(6)) is a decomposition of response
//! time into round-trips, latency, and volume; this crate extends that
//! decomposition to the server side so every subsystem can answer "where
//! did the seconds go". Four pieces:
//!
//! * [`span`] — hierarchical spans over a per-session [`Recorder`]. Every
//!   span carries **two** clocks: the netsim virtual clock (primary — the
//!   deterministic timeline the paper's equations live on) and the wall
//!   clock (advisory — real CPU time, never used in assertions). Only the
//!   network advances the virtual clock, so server-side spans have zero
//!   virtual width and network spans partition the virtual timeline.
//! * [`metrics`] — named counters, gauges, and log-linear histograms
//!   (p50/p95/p99/max, exact merge across threads) in a [`MetricsRegistry`]
//!   snapshotted to JSON.
//! * [`flight`] — a bounded ring of recent events per session, dumped into
//!   `SessionError` context and chaos-bench journals.
//! * [`lock`] — [`lock::Lock`] and [`lock::RwLock`], the workspace's only
//!   locks: each is built with a named, levelled [`lock::LockId`], and
//!   debug builds check acquisition order where it happens.
//! * [`trace`] — the [`TraceTree`] every profiled action leaves: its
//!   recorded spans under one root, with an `EXPLAIN ANALYZE`-style render,
//!   bit-exact critical-path attribution, tail-exemplar sampling and
//!   Chrome-trace export; and cross-site causal tracing, a [`TraceContext`]
//!   propagated through every exchange and replication frame so the spans
//!   of every site an action touched land in its one tree.
//!
//! Determinism rules (also DESIGN.md §11): virtual-clock first, wall clock
//! advisory; a disabled recorder is a no-op handle so profiling off is
//! byte-identical; metric updates are atomics only and never branch on
//! observed values.

pub mod flight;
pub mod json;
pub mod lock;
pub mod metrics;
pub mod span;
pub mod trace;

pub use flight::{FlightDump, FlightEvent};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use span::{kinds, Recorder, SpanGuard, SpanKind, SpanRecord, Subsystem};
pub use trace::{
    attribution, chrome_trace_json, Attribution, AttributionTable, TailSampler, TraceContext,
    TraceIdGen, TraceTree, ROOT_GID,
};
