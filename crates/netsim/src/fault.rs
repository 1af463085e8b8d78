//! Deterministic fault injection for the simulated WAN link.
//!
//! The paper's testbed (client in Germany, server in Brazil) ran over real
//! intercontinental links, where packet loss, stalls, and outages are facts
//! of life the tuning strategies must survive. This module models those
//! faults *reproducibly*: a [`FaultPlan`] is a pure function of its seed and
//! the exchange index, so a sweep over loss rates is exactly repeatable and
//! a reported failure replays from one integer.
//!
//! Faults are layered on the paper's cost accounting without disturbing it:
//! a fault-free plan (`FaultPlan::none()`) reproduces the reliable channel's
//! numbers byte for byte, and the fault charges land in a separate
//! `fault_wait_time` stats component so eq. (4)/(6) identities on latency
//! and transfer still hold for the successful traffic.

use pdm_prng::{splitmix64, Prng};
use std::fmt;

/// Default virtual-time budget burned by one failed attempt (seconds) —
/// the client's request timeout.
pub const DEFAULT_TIMEOUT: f64 = 30.0;

/// Default retransmit cap per packet before the attempt is abandoned.
pub const DEFAULT_MAX_RETRANSMITS: u32 = 6;

/// A scheduled link-outage window in virtual time. Attempts started inside
/// `[start, end)` fail immediately with [`LinkError::Outage`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutageWindow {
    pub start: f64,
    pub end: f64,
}

impl OutageWindow {
    pub fn new(start: f64, end: f64) -> Self {
        assert!(start.is_finite() && end.is_finite() && start < end);
        OutageWindow { start, end }
    }

    pub fn contains(&self, t: f64) -> bool {
        t >= self.start && t < self.end
    }
}

/// A fault pinned to one specific exchange attempt (0-based index counted
/// across the channel's lifetime). Scripted faults make integration tests
/// precise: "lose exactly the response of exchange 7".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScriptedFault {
    pub exchange: u64,
    pub kind: ScriptedKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScriptedKind {
    /// The request never reaches the server; the client times out.
    StallRequest,
    /// The server refuses the request with a transient error.
    ServerError,
    /// The server processes the request but the response is lost — the only
    /// fault where server-side effects have already happened.
    LoseResponse,
}

/// A seeded, reproducible plan of link faults consulted by the channel on
/// every exchange attempt. All probabilities are per-draw in `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-exchange fault draws.
    pub seed: u64,
    /// Per-request-packet loss probability (each loss charges one
    /// retransmit: packet volume plus a 2·T_Lat wait).
    pub request_loss_rate: f64,
    /// Per-response-packet loss probability (same retransmit accounting).
    pub response_loss_rate: f64,
    /// Probability that the connection stalls before the request is
    /// delivered (client burns the timeout; server never saw the request).
    pub stall_rate: f64,
    /// Probability of a transient server-side refusal (deadlock victim,
    /// connection reset during parse — request delivered, no effects).
    pub server_error_rate: f64,
    /// Virtual seconds one failed attempt burns before the client gives up.
    pub timeout: f64,
    /// Retransmits allowed per packet before the attempt is abandoned.
    pub max_retransmits: u32,
    /// Scheduled outage windows in virtual time.
    pub outages: Vec<OutageWindow>,
    /// Exchange-indexed faults for deterministic tests.
    pub scripted: Vec<ScriptedFault>,
}

impl FaultPlan {
    /// The all-zero plan: every exchange succeeds with the reliable
    /// channel's exact accounting.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            request_loss_rate: 0.0,
            response_loss_rate: 0.0,
            stall_rate: 0.0,
            server_error_rate: 0.0,
            timeout: DEFAULT_TIMEOUT,
            max_retransmits: DEFAULT_MAX_RETRANSMITS,
            outages: Vec::new(),
            scripted: Vec::new(),
        }
    }

    /// A symmetric lossy link: `loss` applies per packet in both directions.
    pub fn lossy(seed: u64, loss: f64) -> Self {
        assert!((0.0..=1.0).contains(&loss));
        FaultPlan {
            seed,
            request_loss_rate: loss,
            response_loss_rate: loss,
            ..FaultPlan::none()
        }
    }

    pub fn with_stall_rate(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        self.stall_rate = p;
        self
    }

    pub fn with_server_error_rate(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        self.server_error_rate = p;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_timeout(mut self, seconds: f64) -> Self {
        assert!(seconds.is_finite() && seconds >= 0.0);
        self.timeout = seconds;
        self
    }

    pub fn with_max_retransmits(mut self, n: u32) -> Self {
        self.max_retransmits = n;
        self
    }

    pub fn with_outage(mut self, window: OutageWindow) -> Self {
        self.outages.push(window);
        self
    }

    pub fn with_scripted(mut self, exchange: u64, kind: ScriptedKind) -> Self {
        self.scripted.push(ScriptedFault { exchange, kind });
        self
    }

    /// Derive a per-site variant of this plan: same rates and windows, but
    /// a site-mixed seed so every replication ship link draws its own
    /// independent (still deterministic) fault stream.
    pub fn for_site(mut self, site: u64) -> Self {
        self.seed = splitmix64(self.seed ^ site.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        self
    }

    /// True when the plan can never produce a fault — the channel then
    /// skips fault drawing entirely.
    pub fn is_none(&self) -> bool {
        self.request_loss_rate == 0.0
            && self.response_loss_rate == 0.0
            && self.stall_rate == 0.0
            && self.server_error_rate == 0.0
            && self.outages.is_empty()
            && self.scripted.is_empty()
    }

    /// The deterministic fault-draw generator for one exchange attempt.
    pub fn rng_for(&self, exchange: u64) -> Prng {
        Prng::seed_from_u64(splitmix64(self.seed ^ splitmix64(exchange.wrapping_add(1))))
    }

    /// The scripted fault pinned to this exchange, if any.
    pub fn scripted_for(&self, exchange: u64) -> Option<ScriptedKind> {
        self.scripted
            .iter()
            .find(|s| s.exchange == exchange)
            .map(|s| s.kind)
    }

    /// The outage window covering virtual time `t`, if any.
    pub fn outage_at(&self, t: f64) -> Option<OutageWindow> {
        self.outages.iter().copied().find(|w| w.contains(t))
    }
}

/// Why an exchange attempt failed. `waited` is the virtual time the failed
/// attempt burned (already charged to the channel's clock and to the stats'
/// `fault_wait_time`), so callers can reason about budget spent so far.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkError {
    /// The link is down; `until` is the end of the outage window, so a
    /// retry policy can sleep past it instead of hammering a dead link.
    Outage { waited: f64, until: f64 },
    /// The request never made it (stall, or a packet exceeded its
    /// retransmit cap). The server saw nothing; no effects happened.
    RequestTimeout { waited: f64 },
    /// The server refused the request with a transient error. No effects.
    ServerError { waited: f64 },
    /// The server processed the request but the response was lost. Effects
    /// HAVE happened server-side — the caller must not blindly replay
    /// non-idempotent work.
    ResponseLost { waited: f64 },
}

impl LinkError {
    /// Virtual seconds this failed attempt burned.
    pub fn waited(&self) -> f64 {
        match self {
            LinkError::Outage { waited, .. }
            | LinkError::RequestTimeout { waited }
            | LinkError::ServerError { waited }
            | LinkError::ResponseLost { waited } => *waited,
        }
    }

    /// True when the request provably never reached the server, so any
    /// request (idempotent or not) is safe to replay.
    pub fn request_not_delivered(&self) -> bool {
        !matches!(self, LinkError::ResponseLost { .. })
    }
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::Outage { waited, until } => {
                write!(f, "link outage until t={until:.2}s (waited {waited:.2}s)")
            }
            LinkError::RequestTimeout { waited } => {
                write!(f, "request timed out after {waited:.2}s")
            }
            LinkError::ServerError { waited } => {
                write!(f, "transient server error after {waited:.2}s")
            }
            LinkError::ResponseLost { waited } => {
                write!(
                    f,
                    "response lost after {waited:.2}s (server effects applied)"
                )
            }
        }
    }
}

impl std::error::Error for LinkError {}

/// Why a failed attempt was charged to the channel's clock (the label of
/// its `net.fault` span).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEventKind {
    /// The attempt was abandoned: request never delivered.
    RequestTimeout,
    /// The attempt hit a scheduled outage window.
    Outage,
    /// The server refused the request.
    ServerError,
    /// The response was lost after server-side processing.
    ResponseLost,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_none() {
        assert!(FaultPlan::none().is_none());
        assert!(!FaultPlan::lossy(1, 0.1).is_none());
        assert!(!FaultPlan::none()
            .with_scripted(0, ScriptedKind::ServerError)
            .is_none());
        assert!(!FaultPlan::none()
            .with_outage(OutageWindow::new(1.0, 2.0))
            .is_none());
    }

    #[test]
    fn rng_is_deterministic_per_exchange() {
        let plan = FaultPlan::lossy(42, 0.5);
        let a: Vec<u64> = (0..4).map(|i| plan.rng_for(i).next_u64()).collect();
        let b: Vec<u64> = (0..4).map(|i| plan.rng_for(i).next_u64()).collect();
        assert_eq!(a, b);
        // distinct exchanges draw from distinct streams
        assert_ne!(a[0], a[1]);
    }

    #[test]
    fn outage_lookup() {
        let plan = FaultPlan::none().with_outage(OutageWindow::new(10.0, 20.0));
        assert_eq!(plan.outage_at(9.99), None);
        assert_eq!(plan.outage_at(10.0), Some(OutageWindow::new(10.0, 20.0)));
        assert_eq!(plan.outage_at(19.99), Some(OutageWindow::new(10.0, 20.0)));
        assert_eq!(plan.outage_at(20.0), None);
    }

    #[test]
    fn scripted_lookup() {
        let plan = FaultPlan::none()
            .with_scripted(3, ScriptedKind::LoseResponse)
            .with_scripted(5, ScriptedKind::ServerError);
        assert_eq!(plan.scripted_for(3), Some(ScriptedKind::LoseResponse));
        assert_eq!(plan.scripted_for(4), None);
        assert_eq!(plan.scripted_for(5), Some(ScriptedKind::ServerError));
    }

    #[test]
    fn link_error_accessors() {
        let e = LinkError::ResponseLost { waited: 30.0 };
        assert_eq!(e.waited(), 30.0);
        assert!(!e.request_not_delivered());
        let t = LinkError::RequestTimeout { waited: 30.0 };
        assert!(t.request_not_delivered());
        assert!(t.to_string().contains("timed out"));
    }
}
