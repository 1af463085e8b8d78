//! Server-side overload protection: admission control, priority classes,
//! and client retry budgets.
//!
//! The paper's setting — one central PDM server, many worldwide clients —
//! has a classic failure mode the paper never had to face at its scale:
//! when offered load exceeds capacity, unbounded queuing plus per-client
//! retries form a *metastable* feedback loop (every timeout creates a
//! retry, retries raise the load, higher load creates more timeouts) from
//! which the system does not recover even after the original spike ends.
//! The defense is layered:
//!
//! * **Admission control** ([`OverloadGate`]): a token bucket refilled at
//!   the server's configured capacity plus a concurrency limit. An action
//!   that cannot be served *now* is rejected *fast* with a `retry_after`
//!   hint instead of joining an unbounded queue — rejecting is O(1),
//!   serving a doomed request is not.
//! * **Priority classes** ([`Priority`]): as the bucket drains, batch
//!   work is shed first, then check-outs, and interactive expands/queries
//!   last, by reserving a fraction of the bucket for the higher classes
//!   (a drained bucket sheds batch at < 50 % headroom, check-out at
//!   < 15 %, interactive only when empty).
//! * **Retry budgets** ([`RetryBudget`]): clients may retry only out of a
//!   leaky bucket earned at ~10 % of their request rate, so under a
//!   server brown-out the aggregate offered load converges *down* to
//!   ~1.1× the fresh-request rate instead of amplifying without bound.
//!
//! Deadline propagation — abandoning doomed work at the next blocking
//! point — lives at the blocking points themselves (lock queue, write
//! gate, cache single-flight, watermark waits); see DESIGN.md §14.
//!
//! The gate runs on the same **virtual clock** the WAN simulation uses:
//! the driver advances it explicitly via [`OverloadGate::advance_to`], so
//! every admission decision is a deterministic function of the arrival
//! schedule — the overload bench replays bit-identically across runs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use pdm_obs::{Counter, Gauge, MetricsRegistry};

use crate::shared::lock_unpoisoned;

/// Priority class of one server action. Ordering is shed order: lower
/// classes are rejected while higher classes still get tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Background/batch work (rollups, sweeps): shed first.
    Batch,
    /// Check-out / check-in: shed when the bucket drops below 15 %.
    Checkout,
    /// Interactive expand/query: shed only when the bucket is empty.
    Interactive,
}

impl Priority {
    /// Fraction of the bucket this class must leave untouched — the
    /// reserved headroom for the classes above it.
    fn reserve_fraction(self) -> f64 {
        match self {
            Priority::Interactive => 0.0,
            Priority::Checkout => 0.15,
            Priority::Batch => 0.5,
        }
    }

    /// Stable label (metrics detail, bench JSON).
    pub fn label(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Checkout => "checkout",
            Priority::Batch => "batch",
        }
    }
}

/// Configuration of an [`OverloadGate`].
#[derive(Debug, Clone, Copy)]
pub struct OverloadConfig {
    /// Token refill rate — the server's engineered capacity in admitted
    /// operations per (virtual) second.
    pub capacity_ops_per_s: f64,
    /// Bucket size in tokens (burst tolerance). A bucket of `burst`
    /// admits that many back-to-back arrivals before the refill rate
    /// becomes the limit.
    pub burst: f64,
    /// Hard cap on concurrently admitted operations (permits in flight).
    pub max_inflight: u64,
}

impl OverloadConfig {
    /// A gate for a server engineered to `capacity` admitted ops/s with
    /// one second of burst tolerance and a generous concurrency cap.
    pub fn per_second(capacity: f64) -> Self {
        OverloadConfig {
            capacity_ops_per_s: capacity,
            burst: capacity.max(1.0),
            max_inflight: (capacity.ceil() as u64).max(4) * 4,
        }
    }

    pub fn with_burst(mut self, burst: f64) -> Self {
        self.burst = burst;
        self
    }

    pub fn with_max_inflight(mut self, n: u64) -> Self {
        self.max_inflight = n;
        self
    }
}

/// Why the gate refused an admission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rejection {
    /// Hint: earliest (virtual) delay in seconds after which a retry of
    /// the same class could be admitted, assuming no competing arrivals.
    pub retry_after: f64,
}

#[derive(Debug)]
struct Bucket {
    tokens: f64,
    /// Virtual time of the last refill.
    refilled_at: f64,
}

#[derive(Debug)]
struct GateMetrics {
    admitted: Counter,
    rejected: Counter,
    inflight: Gauge,
    shed_interactive: Counter,
    shed_checkout: Counter,
    shed_batch: Counter,
}

/// The admission gate. One per server; sessions consult it at dispatch.
///
/// Time is virtual: the bench/driver advances it with
/// [`OverloadGate::advance_to`] (monotonic max), which keeps every
/// decision deterministic. A gate whose clock never advances degenerates
/// to a pure burst + concurrency limit.
#[derive(Debug)]
pub struct OverloadGate {
    cfg: OverloadConfig,
    bucket: Mutex<Bucket>,
    /// Virtual now, as f64 bits; writers take the max so time is monotone.
    now_bits: AtomicU64,
    inflight: AtomicU64,
    m: GateMetrics,
}

impl OverloadGate {
    /// Build a gate registering its `admission.*`/`overload.*` metric
    /// families in `registry` (normally the server's own registry).
    pub fn new(cfg: OverloadConfig, registry: &MetricsRegistry) -> Arc<Self> {
        Arc::new(OverloadGate {
            cfg,
            bucket: Mutex::new(Bucket {
                tokens: cfg.burst,
                refilled_at: 0.0,
            }),
            now_bits: AtomicU64::new(0f64.to_bits()),
            inflight: AtomicU64::new(0),
            m: GateMetrics {
                admitted: registry.counter("admission.admitted"),
                rejected: registry.counter("admission.rejected"),
                inflight: registry.gauge("admission.inflight"),
                shed_interactive: registry.counter("overload.shed_interactive"),
                shed_checkout: registry.counter("overload.shed_checkout"),
                shed_batch: registry.counter("overload.shed_batch"),
            },
        })
    }

    /// The gate's configuration.
    pub fn config(&self) -> OverloadConfig {
        self.cfg
    }

    /// Advance the gate's virtual clock to `now` seconds (monotonic: the
    /// clock never goes backwards, concurrent advances take the max).
    pub fn advance_to(&self, now: f64) {
        let mut cur = self.now_bits.load(Ordering::Acquire);
        while f64::from_bits(cur) < now {
            match self.now_bits.compare_exchange_weak(
                cur,
                now.to_bits(),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// The gate's current virtual time.
    pub fn now(&self) -> f64 {
        f64::from_bits(self.now_bits.load(Ordering::Acquire))
    }

    /// Number of permits currently in flight.
    pub fn in_flight(&self) -> u64 {
        self.inflight.load(Ordering::Acquire)
    }

    /// Admit one operation of class `prio`, or reject fast with a
    /// `retry_after` hint. An admission consumes one token and holds one
    /// concurrency slot until the returned [`Permit`] drops.
    pub fn admit(self: &Arc<Self>, prio: Priority) -> Result<Permit, Rejection> {
        let now = self.now();
        let rate = self.cfg.capacity_ops_per_s;
        {
            let mut b = lock_unpoisoned(&self.bucket);
            if now > b.refilled_at {
                b.tokens = (b.tokens + (now - b.refilled_at) * rate).min(self.cfg.burst);
                b.refilled_at = now;
            }
            let reserve = prio.reserve_fraction() * self.cfg.burst;
            let needed = 1.0 + reserve;
            if b.tokens < needed {
                let deficit = needed - b.tokens;
                drop(b);
                return Err(self.reject(prio, if rate > 0.0 { deficit / rate } else { 1.0 }));
            }
            if self.inflight.load(Ordering::Acquire) >= self.cfg.max_inflight {
                drop(b);
                return Err(self.reject(prio, if rate > 0.0 { 1.0 / rate } else { 1.0 }));
            }
            b.tokens -= 1.0;
        }
        self.inflight.fetch_add(1, Ordering::AcqRel);
        self.m.admitted.inc();
        self.m.inflight.set(self.in_flight() as f64);
        Ok(Permit {
            gate: Arc::clone(self),
        })
    }

    fn reject(&self, prio: Priority, retry_after: f64) -> Rejection {
        self.m.rejected.inc();
        match prio {
            Priority::Interactive => self.m.shed_interactive.inc(),
            Priority::Checkout => self.m.shed_checkout.inc(),
            Priority::Batch => self.m.shed_batch.inc(),
        }
        Rejection {
            retry_after: retry_after.max(1e-9),
        }
    }
}

/// RAII admission permit: holding it is holding one concurrency slot.
#[derive(Debug)]
pub struct Permit {
    gate: Arc<OverloadGate>,
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.gate.inflight.fetch_sub(1, Ordering::AcqRel);
        self.gate.m.inflight.set(self.gate.in_flight() as f64);
    }
}

// ---------------------------------------------------------------------------
// Client-side retry budget
// ---------------------------------------------------------------------------

/// A per-session leaky-bucket retry budget: each fresh request earns
/// `earn_per_request` tokens (capped at `capacity`), each retry spends
/// one. With the default ratio a long-running session's retries converge
/// to ≤ ~10 % of its requests — the property that keeps aggregate offered
/// load from amplifying during a brown-out.
#[derive(Debug, Clone)]
pub struct RetryBudget {
    tokens: f64,
    capacity: f64,
    earn_per_request: f64,
    denied: u64,
}

impl RetryBudget {
    pub fn new(capacity: f64, earn_per_request: f64) -> Self {
        RetryBudget {
            // Start full so a cold session can still ride out one fault
            // burst; steady-state behaviour is set by the earn ratio.
            tokens: capacity,
            capacity,
            earn_per_request,
            denied: 0,
        }
    }

    /// The default ~10 % budget: 10 tokens of burst, 0.1 earned per
    /// request.
    pub fn default_ratio() -> Self {
        RetryBudget::new(10.0, 0.1)
    }

    /// Credit one fresh (non-retry) request.
    pub fn on_request(&mut self) {
        self.tokens = (self.tokens + self.earn_per_request).min(self.capacity);
    }

    /// Try to spend one retry token. `false` means the budget is
    /// exhausted and the caller must surface the underlying failure
    /// instead of retrying.
    pub fn try_spend(&mut self) -> bool {
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            self.denied += 1;
            false
        }
    }

    /// Remaining tokens (diagnostics).
    pub fn tokens(&self) -> f64 {
        self.tokens
    }

    /// Retries denied so far.
    pub fn denied(&self) -> u64 {
        self.denied
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(capacity: f64) -> Arc<OverloadGate> {
        OverloadGate::new(
            OverloadConfig::per_second(capacity),
            &MetricsRegistry::new(),
        )
    }

    #[test]
    fn bucket_admits_burst_then_refills_at_rate() {
        let g = gate(10.0); // burst 10
        let mut permits = Vec::new();
        for _ in 0..10 {
            permits.push(g.admit(Priority::Interactive).expect("burst admits"));
        }
        let r = g.admit(Priority::Interactive).unwrap_err();
        assert!(r.retry_after > 0.0);
        // Advance past the deficit: exactly one more token has refilled.
        g.advance_to(0.1);
        let late = g.admit(Priority::Interactive).expect("one token refilled");
        assert!(g.admit(Priority::Interactive).is_err());
        drop(permits);
        assert_eq!(g.in_flight(), 1);
        drop(late);
        assert_eq!(g.in_flight(), 0);
    }

    #[test]
    fn priorities_shed_in_order_as_bucket_drains() {
        let g = gate(100.0); // burst 100
        let mut held = Vec::new();
        // Drain to just above the 50 % batch reserve.
        for _ in 0..49 {
            held.push(g.admit(Priority::Interactive).unwrap());
        }
        // 51 tokens left: batch needs 1 + 50, admitted once then shed.
        held.push(g.admit(Priority::Batch).unwrap());
        assert!(g.admit(Priority::Batch).is_err());
        // Check-out still fine (needs 1 + 15).
        held.push(g.admit(Priority::Checkout).unwrap());
        // Drain below the check-out reserve.
        for _ in 0..34 {
            held.push(g.admit(Priority::Interactive).unwrap());
        }
        assert!(g.admit(Priority::Checkout).is_err());
        assert!(g.admit(Priority::Interactive).is_ok());
    }

    #[test]
    fn concurrency_cap_rejects_when_saturated() {
        let g = OverloadGate::new(
            OverloadConfig::per_second(1000.0).with_max_inflight(2),
            &MetricsRegistry::new(),
        );
        let a = g.admit(Priority::Interactive).unwrap();
        let _b = g.admit(Priority::Interactive).unwrap();
        assert!(g.admit(Priority::Interactive).is_err());
        drop(a);
        assert!(g.admit(Priority::Interactive).is_ok());
    }

    #[test]
    fn clock_is_monotonic() {
        let g = gate(1.0);
        g.advance_to(5.0);
        g.advance_to(3.0);
        assert_eq!(g.now(), 5.0);
    }

    #[test]
    fn retry_budget_converges_to_ratio() {
        let mut b = RetryBudget::default_ratio();
        // Burn the initial burst.
        let mut spent = 0u64;
        while b.try_spend() {
            spent += 1;
        }
        assert_eq!(spent, 10);
        // Steady state: 1000 requests earn ~100 retries.
        let mut granted = 0u64;
        for _ in 0..1000 {
            b.on_request();
            if b.try_spend() {
                granted += 1;
            }
        }
        assert!(
            (90..=110).contains(&granted),
            "retries should track ~10% of requests, got {granted}"
        );
        assert!(b.denied() > 0);
    }
}
