//! Client-side resilience: retry with capped exponential backoff and
//! deterministic jitter, plus a circuit breaker that degrades the recursive
//! strategy to level-batched navigation when the single big query keeps
//! dying on a faulty link.
//!
//! The paper tunes for a *reliable* WAN; a worldwide deployment also has to
//! survive an unreliable one. The policy objects here are deliberately pure
//! data + arithmetic on the virtual clock — no wall time, no global RNG —
//! so every simulated failure scenario replays exactly.
//!
//! `exchange` is the one place a request crosses the WAN: queries,
//! updates, the function-shipping check-out and federated site queries all
//! run through it, so deadline, retry and error-mapping rules exist once.

use std::time::Duration;

use pdm_net::{LinkError, MeteredChannel};
use pdm_obs::FlightDump;
use pdm_prng::splitmix64;

use crate::overload::RetryBudget;
use crate::session::{SessionError, SessionResult};
use crate::shared::SharedServerError;

/// Retry budget for one metered exchange: how many attempts, how long to
/// back off between them, and a per-action deadline on the virtual clock.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts including the first (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry, in virtual seconds; doubles per
    /// retry (capped exponential).
    pub base_backoff: f64,
    /// Backoff cap in virtual seconds.
    pub max_backoff: f64,
    /// Seed of the deterministic jitter stream.
    pub jitter_seed: u64,
    /// Per-action deadline on the virtual clock, in seconds; an attempt
    /// whose backoff would cross it fails instead. `f64::INFINITY` = none.
    pub deadline: f64,
}

impl RetryPolicy {
    /// No retries: first failure is final. The default for sessions without
    /// an installed fault plan.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: 0.0,
            max_backoff: 0.0,
            jitter_seed: 0,
            deadline: f64::INFINITY,
        }
    }

    /// A sensible WAN default: 4 attempts, 1 s → 2 s → 4 s backoff (±50%
    /// jitter), no deadline.
    pub fn default_wan() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: 1.0,
            max_backoff: 30.0,
            jitter_seed: 0x9E3779B97F4A7C15,
            deadline: f64::INFINITY,
        }
    }

    pub fn with_max_attempts(mut self, n: u32) -> Self {
        assert!(n >= 1);
        self.max_attempts = n;
        self
    }

    pub fn with_deadline(mut self, seconds: f64) -> Self {
        assert!(seconds > 0.0);
        self.deadline = seconds;
        self
    }

    pub fn with_jitter_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// Backoff before retry `retry` (1-based), salted so concurrent
    /// exchanges draw different jitter. Equal-jitter scheme: half the
    /// capped exponential is guaranteed, half is jittered.
    pub fn backoff(&self, retry: u32, salt: u64) -> f64 {
        if self.base_backoff <= 0.0 {
            return 0.0;
        }
        let exp = self.base_backoff * 2f64.powi(retry.saturating_sub(1).min(62) as i32);
        let capped = exp.min(self.max_backoff);
        let bits = splitmix64(self.jitter_seed ^ splitmix64(salt.wrapping_add(retry as u64)));
        let unit = (bits >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        capped * (0.5 + 0.5 * unit)
    }

    /// The per-action deadline as the real-time bound the server applies at
    /// its blocking points (`None` when the policy has no deadline).
    fn server_deadline(&self) -> Option<Duration> {
        self.deadline
            .is_finite()
            .then(|| Duration::from_secs_f64(self.deadline))
    }
}

/// One client/server exchange, the unit the paper's cost model counts
/// (eqs. (1)–(6): `2·T_Lat + vol/dtr` each): gate on the action deadline,
/// ship the request, let `serve` do the server-side work, ship its response.
///
/// `serve` is always handed the policy's deadline, so no caller can run
/// server work unbounded on a session that carries one; it returns the
/// value plus its response wire size. A server error is final. A link
/// failure backs off and retries per `retry` (and only out of `budget`,
/// when one is installed) — a lost response re-runs `serve`, so the work
/// must be replay-safe (reads, constant-flag updates, token-keyed
/// check-outs). With no fault plan on `channel` the two phases account
/// bit-identically to [`MeteredChannel::round_trip`], and under
/// [`RetryPolicy::none`] the loop body runs exactly once.
pub(crate) fn exchange<T>(
    channel: &mut MeteredChannel,
    retry: &RetryPolicy,
    mut budget: Option<&mut RetryBudget>,
    request_bytes: usize,
    mut serve: impl FnMut(Option<Duration>) -> Result<(T, usize), SharedServerError>,
) -> SessionResult<T> {
    let timeout = |channel: &MeteredChannel, attempts: u32| SessionError::Timeout {
        attempts,
        elapsed: channel.elapsed(),
        context: FlightDump::at("net.exchange").with_events(channel.obs()),
    };
    let server_deadline = retry.server_deadline();
    let mut attempt = 1u32;
    loop {
        // The deadline is a hard gate on *starting* attempts: once the
        // virtual clock (reset at action start) has crossed it — possibly
        // spent by earlier exchanges of the same action — no further
        // timeout budget may be burned and the server is not bothered.
        if channel.elapsed() >= retry.deadline {
            return Err(timeout(channel, attempt.saturating_sub(1)));
        }
        let failure = match channel.try_send_request(request_bytes) {
            Ok(pending) => {
                let (value, response_bytes) = serve(server_deadline)
                    .map_err(|e| SessionError::from_shared(e, channel.elapsed(), channel.obs()))?;
                match channel.try_receive_response(pending, response_bytes) {
                    Ok(_) => return Ok(value),
                    // The server did the work but the response was lost.
                    Err(e) => e,
                }
            }
            // The request never reached the server — nothing happened.
            Err(e) => e,
        };
        let give_up = |channel: &MeteredChannel| {
            SessionError::from_link(failure, attempt, channel.elapsed(), channel.obs())
        };
        if attempt >= retry.max_attempts {
            return Err(give_up(channel));
        }
        // A retry may only proceed out of the leaky bucket. An exhausted
        // budget surfaces the underlying failure immediately — under a
        // brown-out this is what keeps aggregate offered load converging
        // instead of amplifying (DESIGN.md §14).
        if let Some(budget) = budget.as_deref_mut() {
            if !budget.try_spend() {
                channel.note_budget_denied();
                return Err(give_up(channel));
            }
        }
        let mut wait = retry.backoff(attempt, channel.exchanges_attempted());
        if let LinkError::Outage { until, .. } = failure {
            // no point probing again before the scheduled window ends
            wait = wait.max(until - channel.elapsed());
        }
        if channel.elapsed() + wait > retry.deadline {
            return Err(timeout(channel, attempt));
        }
        channel.wait(wait);
        attempt += 1;
    }
}

/// Circuit breaker for strategy degradation, with two independent rungs:
///
/// 1. **Strategy rung** — after `failure_threshold` consecutive
///    recursive-query failures the breaker trips and the session falls
///    back to level-batched navigational expansion; after `cooldown`
///    degraded actions it half-opens and lets one recursive probe through.
/// 2. **Staleness rung** — after `failure_threshold` consecutive
///    read-your-writes watermark timeouts against a lagging replica, the
///    breaker stops failing reads outright and serves them from the stale
///    replica with an explicit staleness annotation; after `cooldown`
///    stale reads it half-opens and lets one watermark wait through.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationController {
    failure_threshold: u32,
    cooldown: u32,
    consecutive_failures: u32,
    tripped: bool,
    skipped: u32,
    lag_failures: u32,
    lag_tripped: bool,
    lag_skipped: u32,
    stale_reads_served: u64,
}

impl Default for DegradationController {
    fn default() -> Self {
        DegradationController::new(2, 8)
    }
}

impl DegradationController {
    pub fn new(failure_threshold: u32, cooldown: u32) -> Self {
        assert!(failure_threshold >= 1);
        DegradationController {
            failure_threshold,
            cooldown,
            consecutive_failures: 0,
            tripped: false,
            skipped: 0,
            lag_failures: 0,
            lag_tripped: false,
            lag_skipped: 0,
            stale_reads_served: 0,
        }
    }

    /// Whether the breaker is currently open (degraded mode).
    pub fn is_open(&self) -> bool {
        self.tripped
    }

    /// Consecutive failures observed so far.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    /// Decide whether the next action should skip the fragile path.
    /// Mutates the half-open bookkeeping: while tripped, every `cooldown`
    /// calls one probe is allowed through (returns `false`).
    pub fn should_degrade(&mut self) -> bool {
        if !self.tripped {
            return false;
        }
        if self.skipped >= self.cooldown {
            self.skipped = 0; // half-open: allow one probe
            false
        } else {
            self.skipped += 1;
            true
        }
    }

    /// The fragile path completed: close the breaker.
    pub fn record_success(&mut self) {
        self.consecutive_failures = 0;
        self.tripped = false;
        self.skipped = 0;
    }

    /// The fragile path failed (after its own retries).
    pub fn record_failure(&mut self) {
        self.consecutive_failures += 1;
        if self.consecutive_failures >= self.failure_threshold {
            self.tripped = true;
            self.skipped = 0;
        }
    }

    /// Manually close the breaker.
    pub fn reset(&mut self) {
        self.record_success();
    }

    // -- staleness rung -----------------------------------------------------

    /// Whether the staleness rung is open: reads are currently served from
    /// the lagging replica (annotated) instead of failing on the watermark.
    pub fn is_stale_open(&self) -> bool {
        self.lag_tripped
    }

    /// Decide whether the next read should be served stale instead of
    /// failing. Mutates the half-open bookkeeping: while tripped, every
    /// `cooldown` stale reads one full watermark wait is allowed through
    /// (returns `false`). Counts the stale reads it grants.
    pub fn should_read_stale(&mut self) -> bool {
        if !self.lag_tripped {
            return false;
        }
        if self.lag_skipped >= self.cooldown {
            self.lag_skipped = 0; // half-open: allow one watermark probe
            false
        } else {
            self.lag_skipped += 1;
            self.stale_reads_served += 1;
            true
        }
    }

    /// A watermark wait completed in time: close the staleness rung.
    pub fn record_lag_success(&mut self) {
        self.lag_failures = 0;
        self.lag_tripped = false;
        self.lag_skipped = 0;
    }

    /// A watermark wait timed out (after its own retries). Unlike the
    /// strategy rung, the wait always runs before the stale decision, so
    /// failures keep arriving while tripped — only a FRESH trip resets the
    /// half-open counter, or the cooldown probe could never come due.
    pub fn record_lag_failure(&mut self) {
        self.lag_failures += 1;
        if self.lag_failures >= self.failure_threshold && !self.lag_tripped {
            self.lag_tripped = true;
            self.lag_skipped = 0;
        }
    }

    /// Stale reads served while the staleness rung was open.
    pub fn stale_reads_served(&self) -> u64 {
        self.stale_reads_served
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy::default_wan();
        let b1 = p.backoff(1, 0);
        let b5 = p.backoff(5, 0);
        let b20 = p.backoff(20, 0);
        // equal-jitter keeps every draw within [cap/2, cap]
        assert!((0.5..=1.0).contains(&b1), "b1 = {b1}");
        assert!((8.0..=16.0).contains(&b5), "b5 = {b5}");
        assert!((15.0..=30.0).contains(&b20), "b20 = {b20}");
    }

    #[test]
    fn backoff_is_deterministic_and_salted() {
        let p = RetryPolicy::default_wan();
        assert_eq!(p.backoff(2, 7), p.backoff(2, 7));
        assert_ne!(p.backoff(2, 7), p.backoff(2, 8));
        assert_ne!(p.backoff(2, 7), p.clone().with_jitter_seed(1).backoff(2, 7));
    }

    #[test]
    fn none_policy_never_backs_off() {
        let p = RetryPolicy::none();
        assert_eq!(p.max_attempts, 1);
        assert_eq!(p.backoff(1, 0), 0.0);
    }

    #[test]
    fn breaker_trips_after_threshold_and_half_opens() {
        let mut b = DegradationController::new(2, 3);
        assert!(!b.should_degrade());
        b.record_failure();
        assert!(!b.is_open());
        b.record_failure();
        assert!(b.is_open());
        // degraded for `cooldown` actions…
        assert!(b.should_degrade());
        assert!(b.should_degrade());
        assert!(b.should_degrade());
        // …then one probe is allowed through
        assert!(!b.should_degrade());
        // a successful probe closes the breaker
        b.record_success();
        assert!(!b.is_open());
        assert!(!b.should_degrade());
    }

    #[test]
    fn staleness_rung_trips_and_half_opens_independently() {
        let mut b = DegradationController::new(2, 3);
        // lag failures do not touch the strategy rung
        b.record_lag_failure();
        assert!(!b.is_stale_open());
        assert!(!b.should_read_stale());
        b.record_lag_failure();
        assert!(b.is_stale_open());
        assert!(!b.is_open(), "lag rung must not trip the strategy rung");
        // stale reads are granted and counted for `cooldown` reads…
        assert!(b.should_read_stale());
        assert!(b.should_read_stale());
        assert!(b.should_read_stale());
        assert_eq!(b.stale_reads_served(), 3);
        // …then one watermark probe is allowed through
        assert!(!b.should_read_stale());
        assert_eq!(b.stale_reads_served(), 3);
        // a caught-up probe closes the rung
        b.record_lag_success();
        assert!(!b.is_stale_open());
        assert!(!b.should_read_stale());
        // the counter is cumulative across trips
        b.record_lag_failure();
        b.record_lag_failure();
        assert!(b.should_read_stale());
        assert_eq!(b.stale_reads_served(), 4);
    }

    #[test]
    fn strategy_rung_does_not_trip_staleness_rung() {
        let mut b = DegradationController::new(1, 2);
        b.record_failure();
        assert!(b.is_open());
        assert!(!b.is_stale_open());
        assert!(!b.should_read_stale());
        b.record_lag_success();
        assert!(b.is_open(), "lag success must not close the strategy rung");
    }

    #[test]
    fn success_resets_failure_streak() {
        let mut b = DegradationController::new(3, 1);
        b.record_failure();
        b.record_failure();
        b.record_success();
        b.record_failure();
        b.record_failure();
        assert!(!b.is_open());
        b.record_failure();
        assert!(b.is_open());
    }
}
