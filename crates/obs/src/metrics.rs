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
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::json;

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
        // lint:allow(wall-clock): what is timed blocks a real OS thread;
        // the virtual clock has no reading for it (DESIGN.md §11).
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

/// Named metric registry. `counter`/`gauge`/`histogram` get-or-create, so
/// every subsystem can hold hot handles while late readers look up by name.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    pub fn counter(&self, name: &str) -> Counter {
        lock(&self.counters)
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    pub fn gauge(&self, name: &str) -> Gauge {
        lock(&self.gauges)
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    pub fn histogram(&self, name: &str) -> Histogram {
        lock(&self.histograms)
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: lock(&self.counters)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: lock(&self.gauges)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: lock(&self.histograms)
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
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
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
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

/// The closed registry of metric families. Every `counter`/`gauge`/
/// `histogram` name constructed anywhere in the stack must be a member —
/// `pdm-lint`'s `metric-family-unknown` check parses this list straight out
/// of the source and flags any registration site that names a family not
/// declared here, so a typo'd metric name can never silently fork a family.
/// The bench report writer (`pdm_bench::report`) asserts the converse
/// subset before it writes a report: the families its bin declares
/// mandatory are members and are present in the snapshot.
pub mod families {
    /// Every declared metric family, grouped by subsystem prefix.
    pub const ALL: &[&str] = &[
        // server totals
        "server.queries",
        "server.dml_commits",
        // cross-session query-result cache
        "cache.hits",
        "cache.misses",
        "cache.invalidations",
        // check-out lock table
        "locks.grants",
        "locks.refusals",
        "locks.wait_ns",
        // write-ahead log
        "wal.appends",
        "wal.fsync_ns",
        // engine operator counters
        "engine.rows_scanned",
        "engine.subquery_evals",
        "engine.subquery_cache_hits",
        "engine.recursion_iterations",
        "engine.index_probes",
        // session-side late filtering
        "session.rows_kept",
        "session.rows_filtered_late",
        // simulated WAN
        "net.queries",
        "net.communications",
        "net.request_packets",
        "net.response_payload_bytes",
        "net.volume_bytes",
        "net.latency_s",
        "net.transfer_s",
        "net.fault_wait_s",
        "net.response_time_s",
        "net.retransmits",
        "net.failed_attempts",
        "net.timeouts",
        "net.server_errors",
        "net.outage_hits",
        // multi-site replication
        "repl.ship_batches",
        "repl.records_shipped",
        "repl.ship_failures",
        "repl.acked_writes",
        "repl.watermark_waits",
        "repl.watermark_timeouts",
        "repl.stale_reads",
        "repl.failovers",
        "repl.lag_seqs",
        "repl.ship_us",
        "repl.failover_us",
        "repl.watermark_wait_us",
        // admission control (token-bucket gate, see pdm-core overload)
        "admission.admitted",
        "admission.rejected",
        "admission.inflight",
        // overload protection: sheds by class, deadline abandons,
        // retry-budget denials, bounded-queue rejections
        "overload.shed_interactive",
        "overload.shed_checkout",
        "overload.shed_batch",
        "overload.deadline_abandons",
        "overload.retry_budget_denials",
        "overload.lock_queue_rejections",
        // cross-session cache single-flight (dogpile protection)
        "cache.singleflight_leaders",
        "cache.singleflight_hits",
        // client retry budget accounting folded with the WAN metering
        "net.budget_denied_retries",
    ];

    /// Whether `name` is a declared family.
    pub fn is_known(name: &str) -> bool {
        ALL.contains(&name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_registry_is_closed_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for name in families::ALL {
            assert!(seen.insert(*name), "duplicate family {name}");
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
            assert!(families::is_known(name));
        }
        assert!(!families::is_known("server.typo"));
    }

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("cache.hits");
        c.add(3);
        reg.counter("cache.hits").inc();
        assert_eq!(reg.counter("cache.hits").get(), 4);

        let g = reg.gauge("net.latency_s");
        g.add(0.5);
        g.add(0.25);
        assert!((reg.gauge("net.latency_s").get() - 0.75).abs() < 1e-12);
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
        reg.counter("a").inc();
        reg.gauge("b").set(1.5);
        reg.histogram("c").record(42);
        let json = reg.snapshot().to_json(0);
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"a\": 1"));
        assert!(json.contains("\"p99\""));
    }

    #[test]
    fn wall_clock_histograms_print_their_count_only() {
        let reg = MetricsRegistry::new();
        reg.histogram("wal.fsync_ns").record(1234);
        reg.histogram("repl.ship_us").record(1234);
        let json = reg.snapshot().to_json(0);
        assert!(json.contains("\"wal.fsync_ns\": { \"count\": 1 }"));
        assert!(json.contains("\"repl.ship_us\": { \"count\": 1, \"sum\": 1234,"));
    }
}
