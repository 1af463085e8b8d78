//! Traffic accounting: the observable quantities of Table 1 (`q`, `c`,
//! `vol`, `T`) measured from actual message exchanges.

use std::fmt;

use pdm_obs::metrics::families;

/// Accumulated traffic counters for a measured user action.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrafficStats {
    /// Number of requests sent (the paper's `q`).
    pub queries: usize,
    /// Number of WAN communications — requests plus responses (`c`).
    pub communications: usize,
    /// Request packets sent (≥ `queries`; large recursive queries span
    /// several packets).
    pub request_packets: usize,
    /// Raw response payload bytes (result rows on the wire).
    pub response_payload_bytes: usize,
    /// Chargeable data volume in bytes per the paper's eq. (3)/(5):
    /// request packets at full packet size, response payload, plus the
    /// half-filled-last-packet correction.
    pub volume_bytes: f64,
    /// Response-time share caused by latency (`c · T_Lat`).
    pub latency_time: f64,
    /// Response-time share caused by serialization (`vol / dtr`).
    pub transfer_time: f64,
    /// Packets retransmitted after loss (their volume and latency are
    /// already folded into `volume_bytes` / `latency_time`).
    pub retransmits: usize,
    /// Exchange attempts that failed outright (timeout, outage, server
    /// error, lost response).
    pub failed_attempts: usize,
    /// Failed attempts where the client gave up waiting (stalls, packets
    /// past the retransmit cap, lost responses).
    pub timeouts: usize,
    /// Failed attempts refused by the server with a transient error.
    pub server_errors: usize,
    /// Failed attempts that hit a scheduled outage window.
    pub outage_hits: usize,
    /// Virtual time burned by failed attempts — kept apart from
    /// `latency_time`/`transfer_time` so the paper's eq. (4)/(6) identities
    /// still hold for the successful traffic.
    pub fault_wait_time: f64,
    /// Retries the client's leaky-bucket retry budget refused: the
    /// underlying failure was surfaced immediately instead of amplifying
    /// offered load (see `pdm_core::overload::RetryBudget`).
    pub budget_denied_retries: usize,
}

impl TrafficStats {
    pub fn new() -> Self {
        TrafficStats::default()
    }

    /// Total response time contribution (the paper's `T`, plus any time
    /// burned waiting out failed attempts on a faulty link).
    pub fn response_time(&self) -> f64 {
        self.latency_time + self.transfer_time + self.fault_wait_time
    }

    /// Fold another measurement into this one (e.g. per-query stats into a
    /// per-action total).
    pub fn absorb(&mut self, other: &TrafficStats) {
        self.queries += other.queries;
        self.communications += other.communications;
        self.request_packets += other.request_packets;
        self.response_payload_bytes += other.response_payload_bytes;
        self.volume_bytes += other.volume_bytes;
        self.latency_time += other.latency_time;
        self.transfer_time += other.transfer_time;
        self.retransmits += other.retransmits;
        self.failed_attempts += other.failed_attempts;
        self.timeouts += other.timeouts;
        self.server_errors += other.server_errors;
        self.outage_hits += other.outage_hits;
        self.fault_wait_time += other.fault_wait_time;
        self.budget_denied_retries += other.budget_denied_retries;
    }
}

/// Fold one action's [`TrafficStats`] into a metrics registry — the single
/// adapter unifying Table-1 quantities (`q`, `c`, `vol`, `T`) with the
/// server-side metrics in one JSON snapshot.
///
/// **No double counting:** this function is the only writer of the `net.*`
/// metric family (including `net.retransmits`). Callers invoke it exactly
/// once per metering-reset segment (the session does so when an action
/// completes), so registry totals equal the sum of per-action stats.
pub fn record_traffic(registry: &pdm_obs::MetricsRegistry, stats: &TrafficStats) {
    registry
        .counter(families::NET_QUERIES)
        .add(stats.queries as u64);
    registry
        .counter(families::NET_COMMUNICATIONS)
        .add(stats.communications as u64);
    registry
        .counter(families::NET_REQUEST_PACKETS)
        .add(stats.request_packets as u64);
    registry
        .counter(families::NET_RESPONSE_PAYLOAD_BYTES)
        .add(stats.response_payload_bytes as u64);
    registry
        .gauge(families::NET_VOLUME_BYTES)
        .add(stats.volume_bytes);
    registry
        .gauge(families::NET_LATENCY_S)
        .add(stats.latency_time);
    registry
        .gauge(families::NET_TRANSFER_S)
        .add(stats.transfer_time);
    registry
        .gauge(families::NET_FAULT_WAIT_S)
        .add(stats.fault_wait_time);
    registry
        .gauge(families::NET_RESPONSE_TIME_S)
        .add(stats.response_time());
    registry
        .counter(families::NET_RETRANSMITS)
        .add(stats.retransmits as u64);
    registry
        .counter(families::NET_FAILED_ATTEMPTS)
        .add(stats.failed_attempts as u64);
    registry
        .counter(families::NET_TIMEOUTS)
        .add(stats.timeouts as u64);
    registry
        .counter(families::NET_SERVER_ERRORS)
        .add(stats.server_errors as u64);
    registry
        .counter(families::NET_OUTAGE_HITS)
        .add(stats.outage_hits as u64);
    registry
        .counter(families::NET_BUDGET_DENIED_RETRIES)
        .add(stats.budget_denied_retries as u64);
}

impl fmt::Display for TrafficStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "q={} c={} vol={:.0}B T={:.2}s (latency {:.2}s + transfer {:.2}s)",
            self.queries,
            self.communications,
            self.volume_bytes,
            self.response_time(),
            self.latency_time,
            self.transfer_time
        )?;
        if self.failed_attempts > 0 || self.retransmits > 0 {
            write!(
                f,
                " faults: {} failed, {} retransmits, {:.2}s waited",
                self.failed_attempts, self.retransmits, self.fault_wait_time
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_time_is_sum_of_parts() {
        let s = TrafficStats {
            latency_time: 0.3,
            transfer_time: 12.98,
            ..Default::default()
        };
        assert!((s.response_time() - 13.28).abs() < 1e-12);
    }

    #[test]
    fn absorb_accumulates_all_fields() {
        let mut a = TrafficStats {
            queries: 1,
            communications: 2,
            request_packets: 1,
            response_payload_bytes: 100,
            volume_bytes: 4196.0,
            latency_time: 0.3,
            transfer_time: 0.1,
            retransmits: 1,
            failed_attempts: 2,
            timeouts: 1,
            server_errors: 1,
            outage_hits: 0,
            fault_wait_time: 30.0,
            budget_denied_retries: 1,
        };
        let b = a.clone();
        a.absorb(&b);
        assert_eq!(a.queries, 2);
        assert_eq!(a.communications, 4);
        assert_eq!(a.response_payload_bytes, 200);
        assert!((a.volume_bytes - 8392.0).abs() < 1e-9);
        assert_eq!(a.retransmits, 2);
        assert_eq!(a.failed_attempts, 4);
        assert_eq!(a.timeouts, 2);
        assert_eq!(a.server_errors, 2);
        assert!((a.fault_wait_time - 60.0).abs() < 1e-12);
        assert_eq!(a.budget_denied_retries, 2);
    }

    #[test]
    fn display_is_readable() {
        let s = TrafficStats {
            queries: 3,
            communications: 6,
            volume_bytes: 1000.0,
            latency_time: 0.9,
            transfer_time: 0.1,
            ..Default::default()
        };
        let text = s.to_string();
        assert!(text.contains("q=3"));
        assert!(text.contains("c=6"));
    }
}
