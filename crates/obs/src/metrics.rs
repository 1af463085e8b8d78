//! Metrics registry: named counters, gauges, and log-linear histograms.
//!
//! All handles are cheap-clone `Arc`s over atomics, so hot paths update
//! them lock-free and snapshots can be taken concurrently. Histograms use
//! a log-linear bucket layout (16 sub-buckets per power of two, exact below
//! 16), giving ≤ 1/16 relative quantile error and **exact** merges —
//! merging two histograms is bucket-count addition, so merge(a, b) is
//! indistinguishable from having recorded the combined stream.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::json;
use crate::lock::{Lock, LockId};

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

/// Monotonic u64 counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn new() -> Self {
        Counter::default()
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

/// An f64 gauge (stored as bits in an `AtomicU64`). `add` accumulates via
/// compare-exchange, which keeps concurrent accumulation lossless.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl Gauge {
    pub fn new() -> Self {
        Gauge::default()
    }

    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn add(&self, delta: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

// ---------------------------------------------------------------------------
// Log-linear histogram
// ---------------------------------------------------------------------------

/// Values below this are bucketed exactly (bucket index == value).
const LINEAR_CUTOFF: u64 = 16;
/// Sub-buckets per power-of-two row above the linear region.
const SUBS: usize = 16;
/// Rows cover msb 4..=63.
const ROWS: usize = 60;
/// Total bucket count: 16 linear + 60 rows × 16 sub-buckets.
const NUM_BUCKETS: usize = LINEAR_CUTOFF as usize + ROWS * SUBS;

fn bucket_index(v: u64) -> usize {
    if v < LINEAR_CUTOFF {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as usize; // >= 4
        let sub = ((v >> (msb - 4)) & 0xF) as usize;
        LINEAR_CUTOFF as usize + (msb - 4) * SUBS + sub
    }
}

/// Inclusive lower bound of bucket `idx` — the reported quantile
/// representative. For `idx >= 16` the bucket width is `lower / 16`
/// rounded down, so `lower <= v <= lower + lower/16 - 1` for every value
/// `v` in the bucket.
fn bucket_lower(idx: usize) -> u64 {
    if idx < LINEAR_CUTOFF as usize {
        idx as u64
    } else {
        let row = (idx - LINEAR_CUTOFF as usize) / SUBS;
        let sub = ((idx - LINEAR_CUTOFF as usize) % SUBS) as u64;
        let msb = row + 4;
        (1u64 << msb) + (sub << (msb - 4))
    }
}

#[derive(Debug)]
struct HistInner {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// Mergeable log-linear histogram of u64 samples.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistInner>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistInner {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram::default()
    }

    pub fn record(&self, v: u64) {
        let inner = &self.0;
        // lint:allow(unchecked-index): bucket_index returns < BUCKETS by
        // construction (tested in bucket_layout_is_monotone_and_tight).
        inner.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(v, Ordering::Relaxed);
        inner.min.fetch_min(v, Ordering::Relaxed);
        inner.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Run `f` and record the wall time it took, in nanoseconds — for the
    /// advisory histograms of real-OS blocking (a device sync, a condvar
    /// wait), which never feed the deterministic timeline.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        #[expect(
            clippy::disallowed_methods,
            reason = "what is timed blocks a real OS thread; the virtual clock has no \
                      reading for it (DESIGN.md §11)"
        )]
        let t0 = Instant::now();
        let out = f();
        self.record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        out
    }

    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Fold `other`'s samples into `self`. Exact: bucket counts add, so the
    /// merged histogram equals one built from the combined stream.
    pub fn merge(&self, other: &Histogram) {
        for (dst, src) in self.0.buckets.iter().zip(other.0.buckets.iter()) {
            let n = src.load(Ordering::Relaxed);
            if n > 0 {
                dst.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.0
            .count
            .fetch_add(other.0.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.0
            .sum
            .fetch_add(other.0.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.0
            .min
            .fetch_min(other.0.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.0
            .max
            .fetch_max(other.0.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Nearest-rank quantile, reported as the containing bucket's lower
    /// bound: `estimate <= true value <= estimate + estimate/16` (exact
    /// below 16). `q` in [0, 1]; returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (idx, b) in self.0.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_lower(idx);
            }
        }
        self.0.max.load(Ordering::Relaxed)
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        HistogramSnapshot {
            count,
            sum: self.0.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.0.min.load(Ordering::Relaxed)
            },
            max: self.0.max.load(Ordering::Relaxed),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

/// Point-in-time summary of a histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Metric registry keyed by [`Family`]. `counter`/`gauge`/`histogram`
/// get-or-create, so every subsystem can hold hot handles while late
/// readers look up by family.
///
/// ```
/// use pdm_obs::metrics::families;
/// let registry = pdm_obs::MetricsRegistry::new();
/// registry.counter(families::CACHE_HITS).inc();
/// assert_eq!(registry.snapshot().counter(families::CACHE_HITS), 1);
/// ```
///
/// A name that is not a declared family does not compile:
///
/// ```compile_fail,E0308
/// let registry = pdm_obs::MetricsRegistry::new();
/// registry.counter("cache.hitz").inc();
/// ```
#[derive(Debug)]
pub struct MetricsRegistry {
    counters: Lock<BTreeMap<Family, Counter>>,
    gauges: Lock<BTreeMap<Family, Gauge>>,
    histograms: Lock<BTreeMap<Family, Histogram>>,
}

// Leaves at one level: nothing holds one map while it takes another.
static COUNTERS: LockId = LockId::new("obs.metrics.counters", 120);
static GAUGES: LockId = LockId::new("obs.metrics.gauges", 120);
static HISTOGRAMS: LockId = LockId::new("obs.metrics.histograms", 120);

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            counters: Lock::new(&COUNTERS, BTreeMap::new()),
            gauges: Lock::new(&GAUGES, BTreeMap::new()),
            histograms: Lock::new(&HISTOGRAMS, BTreeMap::new()),
        }
    }
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    pub fn counter(&self, family: Family) -> Counter {
        self.counters.lock().entry(family).or_default().clone()
    }

    pub fn gauge(&self, family: Family) -> Gauge {
        self.gauges.lock().entry(family).or_default().clone()
    }

    pub fn histogram(&self, family: Family) -> Histogram {
        self.histograms.lock().entry(family).or_default().clone()
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        // One map at a time: no guard outlives its statement.
        let counters = (self.counters.lock().iter())
            .map(|(k, v)| (k.name().to_string(), v.get()))
            .collect();
        let gauges = (self.gauges.lock().iter())
            .map(|(k, v)| (k.name().to_string(), v.get()))
            .collect();
        let histograms = (self.histograms.lock().iter())
            .map(|(k, v)| (k.name().to_string(), v.snapshot()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// Point-in-time copy of every registered metric, JSON-exportable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    pub fn counter(&self, family: Family) -> u64 {
        self.counters.get(family.name()).copied().unwrap_or(0)
    }

    pub fn gauge(&self, family: Family) -> f64 {
        self.gauges.get(family.name()).copied().unwrap_or(0.0)
    }

    /// JSON object, sorted keys (BTreeMap order), indented by `indent`
    /// spaces at the top level for embedding in bench reports.
    ///
    /// A histogram whose name ends `_ns` holds wall-clock samples — the one
    /// part of a seeded run's snapshot that differs between two runs — and
    /// prints its `count` only, so a committed report regenerates byte for
    /// byte; the full summary stays in [`MetricsSnapshot::histograms`].
    pub fn to_json(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let inner = " ".repeat(indent + 2);
        let item = " ".repeat(indent + 4);
        let mut out = String::from("{\n");

        out.push_str(&format!("{inner}\"counters\": {{\n"));
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("{item}\"{}\": {v}", json::escape(k)))
            .collect();
        out.push_str(&counters.join(",\n"));
        out.push_str(&format!("\n{inner}}},\n"));

        out.push_str(&format!("{inner}\"gauges\": {{\n"));
        let gauges: Vec<String> = self
            .gauges
            .iter()
            .map(|(k, v)| format!("{item}\"{}\": {}", json::escape(k), json::number(*v)))
            .collect();
        out.push_str(&gauges.join(",\n"));
        out.push_str(&format!("\n{inner}}},\n"));

        out.push_str(&format!("{inner}\"histograms\": {{\n"));
        let hists: Vec<String> = self
            .histograms
            .iter()
            .map(|(k, h)| {
                if k.ends_with("_ns") {
                    return format!(
                        "{item}\"{}\": {{ \"count\": {} }}",
                        json::escape(k),
                        h.count
                    );
                }
                format!(
                    concat!(
                        "{item}\"{name}\": {{ \"count\": {count}, \"sum\": {sum}, ",
                        "\"min\": {min}, \"max\": {max}, ",
                        "\"p50\": {p50}, \"p95\": {p95}, \"p99\": {p99} }}"
                    ),
                    item = item,
                    name = json::escape(k),
                    count = h.count,
                    sum = h.sum,
                    min = h.min,
                    max = h.max,
                    p50 = h.p50,
                    p95 = h.p95,
                    p99 = h.p99,
                )
            })
            .collect();
        out.push_str(&hists.join(",\n"));
        out.push_str(&format!("\n{inner}}}\n"));

        out.push_str(&format!("{pad}}}"));
        out
    }
}

// ---------------------------------------------------------------------------
// Closed metric-family registry
// ---------------------------------------------------------------------------

/// A metric family: a dotted `prefix.name` declared in [`families`]. Its
/// constructor is private to this module, so the registry is closed by the
/// type — a registration site can only name a declared family, and a typo
/// is a compile error rather than a silently forked family.
///
/// ```compile_fail,E0624
/// let _ = pdm_obs::metrics::Family::new("cache.hitz");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Family {
    name: &'static str,
}

impl Family {
    const fn new(name: &'static str) -> Self {
        Family { name }
    }

    /// The family's name as it appears in a [`MetricsSnapshot`]
    /// (`"cache.hits"`).
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// Declares each family once: a constant, and its entry in `ALL`.
macro_rules! declare_families {
    ($($konst:ident = $name:literal,)*) => {
        $(pub const $konst: Family = Family::new($name);)*

        /// Every declared metric family, in declaration order.
        pub const ALL: &[Family] = &[$($konst),*];
    };
}

/// The closed registry of metric families, grouped by subsystem prefix.
/// The bench report writer (`pdm_bench::report`) checks the families its
/// bin declares mandatory are present in the snapshot before it writes a
/// report.
pub mod families {
    use super::Family;

    declare_families! {
        // server totals
        SERVER_QUERIES = "server.queries",
        SERVER_DML_COMMITS = "server.dml_commits",
        // cross-session query-result cache
        CACHE_HITS = "cache.hits",
        CACHE_MISSES = "cache.misses",
        CACHE_INVALIDATIONS = "cache.invalidations",
        // check-out lock table
        LOCKS_GRANTS = "locks.grants",
        LOCKS_REFUSALS = "locks.refusals",
        LOCKS_WAIT_NS = "locks.wait_ns",
        // write-ahead log
        WAL_APPENDS = "wal.appends",
        WAL_FSYNC_NS = "wal.fsync_ns",
        // engine operator counters
        ENGINE_ROWS_SCANNED = "engine.rows_scanned",
        ENGINE_SUBQUERY_EVALS = "engine.subquery_evals",
        ENGINE_SUBQUERY_CACHE_HITS = "engine.subquery_cache_hits",
        ENGINE_RECURSION_ITERATIONS = "engine.recursion_iterations",
        ENGINE_INDEX_PROBES = "engine.index_probes",
        // session-side late filtering
        SESSION_ROWS_KEPT = "session.rows_kept",
        SESSION_ROWS_FILTERED_LATE = "session.rows_filtered_late",
        // simulated WAN
        NET_QUERIES = "net.queries",
        NET_COMMUNICATIONS = "net.communications",
        NET_REQUEST_PACKETS = "net.request_packets",
        NET_RESPONSE_PAYLOAD_BYTES = "net.response_payload_bytes",
        NET_VOLUME_BYTES = "net.volume_bytes",
        NET_LATENCY_S = "net.latency_s",
        NET_TRANSFER_S = "net.transfer_s",
        NET_FAULT_WAIT_S = "net.fault_wait_s",
        NET_RESPONSE_TIME_S = "net.response_time_s",
        NET_RETRANSMITS = "net.retransmits",
        NET_FAILED_ATTEMPTS = "net.failed_attempts",
        NET_TIMEOUTS = "net.timeouts",
        NET_SERVER_ERRORS = "net.server_errors",
        NET_OUTAGE_HITS = "net.outage_hits",
        // multi-site replication
        REPL_SHIP_BATCHES = "repl.ship_batches",
        REPL_RECORDS_SHIPPED = "repl.records_shipped",
        REPL_SHIP_FAILURES = "repl.ship_failures",
        REPL_ACKED_WRITES = "repl.acked_writes",
        REPL_WATERMARK_WAITS = "repl.watermark_waits",
        REPL_WATERMARK_TIMEOUTS = "repl.watermark_timeouts",
        REPL_STALE_READS = "repl.stale_reads",
        REPL_FAILOVERS = "repl.failovers",
        REPL_LAG_SEQS = "repl.lag_seqs",
        REPL_SHIP_US = "repl.ship_us",
        REPL_FAILOVER_US = "repl.failover_us",
        REPL_WATERMARK_WAIT_US = "repl.watermark_wait_us",
        // admission control (token-bucket gate, see pdm-core overload)
        ADMISSION_ADMITTED = "admission.admitted",
        ADMISSION_REJECTED = "admission.rejected",
        ADMISSION_INFLIGHT = "admission.inflight",
        // overload protection: sheds by class, deadline abandons,
        // retry-budget denials, bounded-queue rejections
        OVERLOAD_SHED_INTERACTIVE = "overload.shed_interactive",
        OVERLOAD_SHED_CHECKOUT = "overload.shed_checkout",
        OVERLOAD_SHED_BATCH = "overload.shed_batch",
        OVERLOAD_DEADLINE_ABANDONS = "overload.deadline_abandons",
        OVERLOAD_RETRY_BUDGET_DENIALS = "overload.retry_budget_denials",
        OVERLOAD_LOCK_QUEUE_REJECTIONS = "overload.lock_queue_rejections",
        // cross-session cache single-flight (dogpile protection)
        CACHE_SINGLEFLIGHT_LEADERS = "cache.singleflight_leaders",
        CACHE_SINGLEFLIGHT_HITS = "cache.singleflight_hits",
        // client retry budget accounting folded with the WAN metering
        NET_BUDGET_DENIED_RETRIES = "net.budget_denied_retries",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_registry_is_closed_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for family in families::ALL {
            let name = family.name();
            assert!(seen.insert(name), "duplicate family {name}");
            let (prefix, rest) = name.split_once('.').expect("families are prefix.name");
            assert!(
                prefix == "server"
                    || crate::span::Subsystem::ALL
                        .iter()
                        .any(|s| s.prefix() == prefix),
                "family {name} uses undeclared subsystem prefix {prefix}"
            );
            assert!(
                !rest.is_empty()
                    && rest
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "family {name} is not snake_case"
            );
        }
    }

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter(families::CACHE_HITS);
        c.add(3);
        reg.counter(families::CACHE_HITS).inc();
        assert_eq!(reg.counter(families::CACHE_HITS).get(), 4);

        let g = reg.gauge(families::NET_LATENCY_S);
        g.add(0.5);
        g.add(0.25);
        assert!((reg.gauge(families::NET_LATENCY_S).get() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn time_records_one_sample_and_hands_the_result_through() {
        let h = Histogram::new();
        assert_eq!(h.time(|| 7), 7);
        assert_eq!(h.time(|| "x"), "x");
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn bucket_layout_is_monotone_and_tight() {
        let mut prev = 0usize;
        for v in [0u64, 1, 15, 16, 17, 31, 32, 100, 1023, 1024, u64::MAX] {
            let idx = bucket_index(v);
            assert!(idx >= prev, "index regressed at {v}");
            prev = idx;
            let lower = bucket_lower(idx);
            assert!(lower <= v, "lower {lower} > value {v}");
            if v >= LINEAR_CUTOFF {
                assert!(v - lower <= lower / 16, "bucket too wide at {v}");
            } else {
                assert_eq!(lower, v);
            }
        }
        assert!(bucket_index(u64::MAX) < NUM_BUCKETS);
    }

    #[test]
    fn quantiles_exact_in_linear_region() {
        let h = Histogram::new();
        for v in 0..10u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 4);
        assert_eq!(h.quantile(1.0), 9);
        assert_eq!(h.snapshot().min, 0);
        assert_eq!(h.snapshot().max, 9);
        assert_eq!(h.snapshot().sum, 45);
    }

    #[test]
    fn merge_equals_combined() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for v in [1u64, 5, 100, 1000, 12345] {
            a.record(v);
            all.record(v);
        }
        for v in [2u64, 7, 99, 54321] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.snapshot(), all.snapshot());
    }

    #[test]
    fn snapshot_json_is_parseable_shape() {
        let reg = MetricsRegistry::new();
        reg.counter(families::CACHE_HITS).inc();
        reg.gauge(families::NET_LATENCY_S).set(1.5);
        reg.histogram(families::REPL_SHIP_US).record(42);
        let json = reg.snapshot().to_json(0);
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"cache.hits\": 1"));
        assert!(json.contains("\"p99\""));
    }

    #[test]
    fn wall_clock_histograms_print_their_count_only() {
        let reg = MetricsRegistry::new();
        reg.histogram(families::WAL_FSYNC_NS).record(1234);
        reg.histogram(families::REPL_SHIP_US).record(1234);
        let json = reg.snapshot().to_json(0);
        assert!(json.contains("\"wal.fsync_ns\": { \"count\": 1 }"));
        assert!(json.contains("\"repl.ship_us\": { \"count\": 1, \"sum\": 1234,"));
    }
}
