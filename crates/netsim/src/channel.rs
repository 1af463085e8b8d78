//! The metered request/response channel between PDM client and database
//! server. Every exchange advances the virtual clock and updates traffic
//! counters exactly per the paper's cost formulas.

use pdm_obs::{kinds, Recorder};

use crate::clock::VirtualClock;
use crate::fault::{FaultEventKind, FaultPlan, LinkError, ScriptedKind};
use crate::link::LinkProfile;
use crate::stats::TrafficStats;

/// Cost breakdown of one request/response exchange.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundTrip {
    /// Packets the request occupied.
    pub request_packets: usize,
    /// Chargeable bytes of the exchange.
    pub volume_bytes: f64,
    /// Latency share (2 · T_Lat).
    pub latency_time: f64,
    /// Serialization share (volume / dtr).
    pub transfer_time: f64,
}

impl RoundTrip {
    pub fn total_time(&self) -> f64 {
        self.latency_time + self.transfer_time
    }
}

/// A simulated client/server link that meters every exchange.
///
/// The charge for one round trip with a request of `r` bytes and a response
/// payload of `p` bytes is (paper eq. (2)–(4), generalized to multi-packet
/// requests as in eq. (5)):
///
/// ```text
/// q_pkts = ⌈r / size_p⌉  (min 1)
/// vol    = q_pkts·size_p + p + q_pkts·size_p/2     [half-full last packet]
/// T      = 2·T_Lat + vol/dtr
/// ```
#[derive(Debug, Clone)]
pub struct MeteredChannel {
    link: LinkProfile,
    clock: VirtualClock,
    stats: TrafficStats,
    /// The recorder of the action this channel works for (disabled by
    /// default — a free no-op handle): every exchange, fault charge and
    /// backoff wait is a virtually-wide span on it, handed the exact amount
    /// it added to the clock. While it carries a
    /// [`pdm_obs::TraceContext`] each request also grows by its
    /// `WIRE_BYTES` (entering the volume model through the
    /// packet count) and every wide span carries the trace/parent ids;
    /// without one nothing is added — the tracing-off path is
    /// byte-identical to the untraced channel.
    obs: Recorder,
    faults: Option<FaultPlan>,
    /// Attempt counter across the channel's lifetime; indexes fault draws
    /// and scripted faults. Survives `reset()` so a scripted fault plan
    /// keeps addressing absolute attempt numbers.
    exchange_index: u64,
}

/// A request that has been delivered to the server but whose response has
/// not been exchanged yet — the intermediate state of the two-phase fallible
/// exchange ([`MeteredChannel::try_send_request`] /
/// [`MeteredChannel::try_receive_response`]). Carries the retransmit charges
/// accumulated while getting the request through a lossy link.
#[derive(Debug, Clone, Copy)]
pub struct PendingRequest {
    request_bytes: usize,
    request_packets: usize,
    exchange: u64,
    extra_volume: f64,
    extra_latency: f64,
    retransmits: usize,
}

impl PendingRequest {
    /// Packets the request occupied (before retransmits).
    pub fn request_packets(&self) -> usize {
        self.request_packets
    }

    /// Retransmits spent delivering the request.
    pub fn retransmits(&self) -> usize {
        self.retransmits
    }
}

impl MeteredChannel {
    pub fn new(link: LinkProfile) -> Self {
        MeteredChannel {
            link,
            clock: VirtualClock::new(),
            stats: TrafficStats::new(),
            obs: Recorder::disabled(),
            faults: None,
            exchange_index: 0,
        }
    }

    /// Request bytes actually put on the wire: the caller's payload plus
    /// the trace-context piggyback while the action is traced.
    fn wire_request_bytes(&self, request_bytes: usize) -> usize {
        request_bytes + self.obs.wire_bytes()
    }

    /// A channel with a fault plan installed from the start.
    pub fn with_faults(link: LinkProfile, plan: FaultPlan) -> Self {
        let mut ch = MeteredChannel::new(link);
        ch.set_fault_plan(plan);
        ch
    }

    /// Install (or replace) the fault plan consulted by the `try_*`
    /// exchange methods. A [`FaultPlan::none()`] plan behaves exactly like
    /// the reliable channel.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Attach the recorder of the action this channel works for: every
    /// exchange, fault charge, and backoff wait is emitted as a span on its
    /// virtual timeline. Attaching a disabled recorder (the default) costs
    /// nothing.
    pub fn attach_obs(&mut self, obs: Recorder) {
        self.obs = obs;
    }

    /// The attached observability recorder.
    pub fn obs(&self) -> &Recorder {
        &self.obs
    }

    pub fn link(&self) -> &LinkProfile {
        &self.link
    }

    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Record that a retry was refused by the client's leaky-bucket retry
    /// budget (the failure was surfaced instead of re-offered to the
    /// server). Counted into `net.budget_denied_retries`.
    pub fn note_budget_denied(&mut self) {
        self.stats.budget_denied_retries += 1;
    }

    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Elapsed virtual time in seconds.
    pub fn elapsed(&self) -> f64 {
        self.clock.now()
    }

    /// Clear counters and clock before measuring a new user action. The
    /// recorder's timeline is not the clock's: it keeps running.
    pub fn reset(&mut self) {
        self.clock.reset();
        self.stats = TrafficStats::new();
    }

    /// Perform one metered request/response exchange on the reliable path
    /// (no faults drawn, even when a plan is installed).
    pub fn round_trip(&mut self, request_bytes: usize, response_payload_bytes: usize) -> RoundTrip {
        let request_bytes = self.wire_request_bytes(request_bytes);
        let request_packets = self.link.packets_for(request_bytes);
        self.exchange_index += 1;
        self.finish_exchange(
            request_bytes,
            request_packets,
            response_payload_bytes,
            0.0,
            0.0,
            0,
        )
    }

    /// Shared success-path accounting. With zero extras this is the exact
    /// computation the reliable channel has always performed (adding 0.0 is
    /// an identity in IEEE arithmetic), so a fault-free plan reproduces the
    /// reliable numbers byte for byte.
    fn finish_exchange(
        &mut self,
        request_bytes: usize,
        request_packets: usize,
        response_payload_bytes: usize,
        extra_volume: f64,
        extra_latency: f64,
        retransmits: usize,
    ) -> RoundTrip {
        let request_volume = (request_packets * self.link.packet_size) as f64;
        let correction = request_packets as f64 * self.link.packet_size as f64 / 2.0;
        let volume = request_volume + response_payload_bytes as f64 + correction + extra_volume;

        let latency_time = 2.0 * self.link.latency + extra_latency;
        let transfer_time = self.link.transfer_time(volume);

        self.stats.queries += 1;
        self.stats.communications += 2;
        self.stats.request_packets += request_packets;
        self.stats.response_payload_bytes += response_payload_bytes;
        self.stats.volume_bytes += volume;
        self.stats.latency_time += latency_time;
        self.stats.transfer_time += transfer_time;
        self.stats.retransmits += retransmits;

        // The exact clock-advance amount is computed ONCE and shared by the
        // clock and the span's `v_s` attribute: summing `v_s` over the wide
        // spans in record order reproduces `elapsed()` bit-for-bit (same
        // additions, same order — interval subtraction would not).
        let advance = latency_time + transfer_time;
        self.clock.advance(advance);

        let cost = RoundTrip {
            request_packets,
            volume_bytes: volume,
            latency_time,
            transfer_time,
        };
        // Exact per-exchange latency/transfer split: profiles summing these
        // attributes in record order reproduce the TrafficStats totals
        // bit-for-bit (same additions, same order).
        if self.obs.is_enabled() {
            self.obs.record_wide(
                kinds::NET_EXCHANGE,
                format!("q{}", self.stats.queries),
                advance,
                &[
                    ("latency_s", latency_time),
                    ("transfer_s", transfer_time),
                    ("volume_bytes", volume),
                    ("request_bytes", request_bytes as f64),
                    ("response_bytes", response_payload_bytes as f64),
                    ("retransmits", retransmits as f64),
                ],
            );
        }
        cost
    }

    /// Charge a failed attempt: the client burns `waited` virtual seconds
    /// of timeout budget, recorded separately from the successful traffic's
    /// latency/transfer shares.
    fn charge_failure(&mut self, exchange: u64, waited: f64, kind: FaultEventKind) {
        self.stats.failed_attempts += 1;
        self.stats.fault_wait_time += waited;
        match kind {
            FaultEventKind::RequestTimeout => self.stats.timeouts += 1,
            FaultEventKind::Outage => self.stats.outage_hits += 1,
            FaultEventKind::ServerError => self.stats.server_errors += 1,
            FaultEventKind::ResponseLost => self.stats.timeouts += 1,
        }
        self.clock.advance(waited);
        if self.obs.is_enabled() {
            self.obs.record_wide(
                kinds::NET_FAULT,
                format!("{kind:?} x{exchange}"),
                waited,
                &[("wait_s", waited)],
            );
        }
    }

    /// Phase 1 of a fallible exchange: deliver the request to the server.
    ///
    /// On success the returned [`PendingRequest`] carries any retransmit
    /// charges; the caller performs the server-side work and completes the
    /// exchange with [`try_receive_response`](Self::try_receive_response).
    /// On failure the timeout budget has been charged to the clock and to
    /// `fault_wait_time`, and — except for [`LinkError::ResponseLost`],
    /// which phase 1 never returns — the server has seen nothing.
    pub fn try_send_request(&mut self, request_bytes: usize) -> Result<PendingRequest, LinkError> {
        pdm_obs::lock::crossing("net.send_request");
        let request_bytes = self.wire_request_bytes(request_bytes);
        let exchange = self.exchange_index;
        self.exchange_index += 1;
        let request_packets = self.link.packets_for(request_bytes);

        let plan = match &self.faults {
            Some(plan) if !plan.is_none() => plan.clone(),
            _ => {
                return Ok(PendingRequest {
                    request_bytes,
                    request_packets,
                    exchange,
                    extra_volume: 0.0,
                    extra_latency: 0.0,
                    retransmits: 0,
                })
            }
        };

        // Scheduled outage?
        if let Some(window) = plan.outage_at(self.clock.now()) {
            let waited = plan.timeout.min(window.end - self.clock.now());
            self.charge_failure(exchange, waited, FaultEventKind::Outage);
            return Err(LinkError::Outage {
                waited,
                until: window.end,
            });
        }

        // Scripted fault pinned to this attempt?
        match plan.scripted_for(exchange) {
            Some(ScriptedKind::StallRequest) => {
                self.charge_failure(exchange, plan.timeout, FaultEventKind::RequestTimeout);
                return Err(LinkError::RequestTimeout {
                    waited: plan.timeout,
                });
            }
            Some(ScriptedKind::ServerError) => {
                self.charge_failure(exchange, plan.timeout, FaultEventKind::ServerError);
                return Err(LinkError::ServerError {
                    waited: plan.timeout,
                });
            }
            Some(ScriptedKind::LoseResponse) | None => {}
        }

        let mut rng = plan.rng_for(exchange);

        // Connection stall before delivery.
        if plan.stall_rate > 0.0 && rng.f64() < plan.stall_rate {
            self.charge_failure(exchange, plan.timeout, FaultEventKind::RequestTimeout);
            return Err(LinkError::RequestTimeout {
                waited: plan.timeout,
            });
        }

        // Per-packet loss with TCP-like retransmit accounting: every lost
        // packet is re-sent, re-charging its volume and one round of
        // latency; a packet exceeding the cap abandons the attempt.
        let mut extra_volume = 0.0;
        let mut extra_latency = 0.0;
        let mut retransmits = 0usize;
        for _packet in 0..request_packets {
            let mut tries = 0u32;
            while plan.request_loss_rate > 0.0 && rng.f64() < plan.request_loss_rate {
                tries += 1;
                if tries > plan.max_retransmits {
                    self.charge_failure(exchange, plan.timeout, FaultEventKind::RequestTimeout);
                    return Err(LinkError::RequestTimeout {
                        waited: plan.timeout,
                    });
                }
                extra_volume += self.link.packet_size as f64;
                extra_latency += 2.0 * self.link.latency;
                retransmits += 1;
            }
        }

        // Transient server refusal (request delivered, no effects).
        if plan.server_error_rate > 0.0 && rng.f64() < plan.server_error_rate {
            self.charge_failure(exchange, plan.timeout, FaultEventKind::ServerError);
            return Err(LinkError::ServerError {
                waited: plan.timeout,
            });
        }

        Ok(PendingRequest {
            request_bytes,
            request_packets,
            exchange,
            extra_volume,
            extra_latency,
            retransmits,
        })
    }

    /// Phase 2 of a fallible exchange: ship the response back. On success
    /// the whole exchange is accounted exactly like a reliable round trip
    /// plus the accumulated retransmit charges. On
    /// [`LinkError::ResponseLost`] the server-side work HAS happened — the
    /// caller must treat replays with care (idempotency tokens, reads only).
    pub fn try_receive_response(
        &mut self,
        pending: PendingRequest,
        response_payload_bytes: usize,
    ) -> Result<RoundTrip, LinkError> {
        pdm_obs::lock::crossing("net.receive_response");
        let PendingRequest {
            request_bytes,
            request_packets,
            exchange,
            mut extra_volume,
            mut extra_latency,
            mut retransmits,
        } = pending;

        if let Some(plan) = self.faults.as_ref().filter(|p| !p.is_none()).cloned() {
            if plan.scripted_for(exchange) == Some(ScriptedKind::LoseResponse) {
                self.charge_failure(exchange, plan.timeout, FaultEventKind::ResponseLost);
                return Err(LinkError::ResponseLost {
                    waited: plan.timeout,
                });
            }
            if plan.response_loss_rate > 0.0 {
                // Response-direction packet loss; draws come from a stream
                // disjoint from phase 1 (offset by the exchange count) so
                // adding response faults never perturbs request draws.
                let mut rng = plan.rng_for(exchange ^ u64::MAX);
                let response_packets = self.link.packets_for(response_payload_bytes.max(1));
                for _packet in 0..response_packets {
                    let mut tries = 0u32;
                    while rng.f64() < plan.response_loss_rate {
                        tries += 1;
                        if tries > plan.max_retransmits {
                            self.charge_failure(
                                exchange,
                                plan.timeout,
                                FaultEventKind::ResponseLost,
                            );
                            return Err(LinkError::ResponseLost {
                                waited: plan.timeout,
                            });
                        }
                        extra_volume += self.link.packet_size as f64;
                        extra_latency += 2.0 * self.link.latency;
                        retransmits += 1;
                    }
                }
            }
        }

        Ok(self.finish_exchange(
            request_bytes,
            request_packets,
            response_payload_bytes,
            extra_volume,
            extra_latency,
            retransmits,
        ))
    }

    /// Burn `seconds` of virtual time without traffic — retry backoff,
    /// waiting out an outage window. Charged to `fault_wait_time` so the
    /// eq. (4)/(6) identities keep holding for the successful traffic.
    pub fn wait(&mut self, seconds: f64) {
        if seconds <= 0.0 {
            return;
        }
        self.stats.fault_wait_time += seconds;
        self.clock.advance(seconds);
        self.obs.record_wide(
            kinds::NET_BACKOFF,
            "backoff",
            seconds,
            &[("wait_s", seconds)],
        );
    }

    /// Exchange attempts started over the channel's lifetime (successful or
    /// not). Useful as a deterministic salt for retry jitter.
    pub fn exchanges_attempted(&self) -> u64 {
        self.exchange_index
    }

    /// One fallible exchange where the response size is known up front —
    /// the common read path. Equivalent to `try_send_request` followed by
    /// `try_receive_response`.
    pub fn try_round_trip(
        &mut self,
        request_bytes: usize,
        response_payload_bytes: usize,
    ) -> Result<RoundTrip, LinkError> {
        let pending = self.try_send_request(request_bytes)?;
        self.try_receive_response(pending, response_payload_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_obs::TraceContext;

    #[test]
    fn single_packet_round_trip_costs_match_paper_formula() {
        let mut ch = MeteredChannel::new(LinkProfile::wan_256());
        // One navigational query (1 packet) returning 9 nodes of 512 B —
        // the paper's single-level expand at β=9.
        let rt = ch.round_trip(200, 9 * 512);
        assert_eq!(rt.request_packets, 1);
        // vol = 4096 + 4608 + 2048 = 10752 B → 0.328125 s at 256 kbit/s
        assert!((rt.volume_bytes - 10752.0).abs() < 1e-9);
        assert!((rt.transfer_time - 0.328125).abs() < 1e-9);
        assert!((rt.latency_time - 0.30).abs() < 1e-12);
        assert!((ch.elapsed() - rt.total_time()).abs() < 1e-12);
    }

    #[test]
    fn multi_packet_request_charges_qr_packets() {
        let mut ch = MeteredChannel::new(LinkProfile::wan_256());
        // A 10 kB recursive query needs 3 packets.
        let rt = ch.round_trip(10_000, 0);
        assert_eq!(rt.request_packets, 3);
        // vol = 3·4096 + 0 + 3·2048 = 18432
        assert!((rt.volume_bytes - 18432.0).abs() < 1e-9);
    }

    #[test]
    fn stats_accumulate_across_round_trips() {
        let mut ch = MeteredChannel::new(LinkProfile::wan_512());
        for _ in 0..5 {
            ch.round_trip(100, 512);
        }
        let s = ch.stats();
        assert_eq!(s.queries, 5);
        assert_eq!(s.communications, 10);
        assert_eq!(s.request_packets, 5);
        assert_eq!(s.response_payload_bytes, 5 * 512);
        assert!((s.latency_time - 5.0 * 0.30).abs() < 1e-12);
        assert!((ch.elapsed() - s.response_time()).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_everything() {
        let mut ch = MeteredChannel::new(LinkProfile::wan_512());
        ch.round_trip(100, 100);
        ch.reset();
        assert_eq!(ch.elapsed(), 0.0);
        assert_eq!(ch.stats().queries, 0);
    }

    #[test]
    fn fault_free_plan_reproduces_reliable_numbers_exactly() {
        use crate::fault::FaultPlan;
        let mut reliable = MeteredChannel::new(LinkProfile::wan_256());
        let mut faulty = MeteredChannel::with_faults(LinkProfile::wan_256(), FaultPlan::none());
        for (req, resp) in [(200usize, 9 * 512usize), (10_000, 0), (150, 4096)] {
            let a = reliable.round_trip(req, resp);
            let b = faulty.try_round_trip(req, resp).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(reliable.stats(), faulty.stats());
        assert_eq!(reliable.elapsed().to_bits(), faulty.elapsed().to_bits());
    }

    #[test]
    fn trace_context_pads_requests_and_v_s_sums_to_elapsed() {
        let mut plain = MeteredChannel::new(LinkProfile::wan_256());
        let mut traced = MeteredChannel::new(LinkProfile::wan_256());
        traced.attach_obs(Recorder::new());
        traced.obs().set_context(Some(TraceContext::new(0xBEEF, 1)));

        // Small request: the 16 B piggyback stays inside the same packet,
        // so every charged number is bit-identical to the untraced run.
        plain.round_trip(200, 4096);
        traced.round_trip(200, 4096);
        assert_eq!(
            plain.stats().volume_bytes.to_bits(),
            traced.stats().volume_bytes.to_bits()
        );

        // Request exactly at the packet boundary: the piggyback tips one
        // more packet — the volume model sees the context.
        let size = plain.link().packet_size;
        plain.round_trip(size, 0);
        traced.round_trip(size, 0);
        assert_eq!(
            plain.stats().request_packets + 1,
            traced.stats().request_packets
        );

        // Summing the exact `v_s` attributes over wide spans in record
        // order reproduces the channel clock bit-for-bit.
        traced.wait(0.25);
        let sum = traced
            .obs()
            .spans()
            .iter()
            .filter_map(|s| s.attr("v_s"))
            .fold(0.0f64, |a, v| a + v);
        assert_eq!(sum.to_bits(), traced.elapsed().to_bits());
        // Every wide span carries the propagated ids.
        for s in traced.obs().spans() {
            assert_eq!(s.attr("trace_id"), Some(0xBEEF_u64 as f64));
            assert_eq!(s.attr("parent_span"), Some(1.0));
        }
    }

    #[test]
    fn lost_request_packets_recharge_volume_and_latency() {
        use crate::fault::FaultPlan;
        // High loss with a generous cap: exchanges succeed but pay for
        // retransmits.
        let plan = FaultPlan::lossy(7, 0.4).with_max_retransmits(1000);
        let mut ch = MeteredChannel::with_faults(LinkProfile::wan_256(), plan);
        let mut total_retransmits = 0usize;
        for _ in 0..50 {
            let rt = ch.try_round_trip(10_000, 2048).unwrap();
            assert!(rt.volume_bytes >= 18432.0 + 2048.0);
            total_retransmits = ch.stats().retransmits;
        }
        assert!(total_retransmits > 0, "40% loss must cause retransmits");
        let base_latency = 2.0 * 0.15 * 50.0;
        assert!(ch.stats().latency_time > base_latency);
        assert_eq!(ch.stats().failed_attempts, 0);
    }

    #[test]
    fn retransmit_cap_fails_the_attempt_with_timeout_charge() {
        use crate::fault::{FaultPlan, LinkError};
        let plan = FaultPlan::lossy(3, 1.0)
            .with_max_retransmits(2)
            .with_timeout(30.0);
        let mut ch = MeteredChannel::with_faults(LinkProfile::wan_256(), plan);
        let err = ch.try_round_trip(100, 100).unwrap_err();
        assert!(matches!(err, LinkError::RequestTimeout { .. }));
        assert!((err.waited() - 30.0).abs() < 1e-12);
        assert!((ch.elapsed() - 30.0).abs() < 1e-12);
        assert_eq!(ch.stats().queries, 0);
        assert_eq!(ch.stats().failed_attempts, 1);
        assert!((ch.stats().fault_wait_time - 30.0).abs() < 1e-12);
    }

    #[test]
    fn scripted_response_loss_hits_exactly_the_requested_exchange() {
        use crate::fault::{FaultPlan, LinkError, ScriptedKind};
        let plan = FaultPlan::none().with_scripted(1, ScriptedKind::LoseResponse);
        let mut ch = MeteredChannel::with_faults(LinkProfile::wan_256(), plan);
        ch.try_round_trip(100, 100).unwrap(); // exchange 0
        let err = ch.try_round_trip(100, 100).unwrap_err(); // exchange 1
        assert!(matches!(err, LinkError::ResponseLost { .. }));
        assert!(!err.request_not_delivered());
        ch.try_round_trip(100, 100).unwrap(); // exchange 2
        assert_eq!(ch.stats().queries, 2);
        assert_eq!(ch.stats().failed_attempts, 1);
    }

    #[test]
    fn outage_window_fails_attempts_until_it_passes() {
        use crate::fault::{FaultPlan, LinkError, OutageWindow};
        let plan = FaultPlan::none()
            .with_outage(OutageWindow::new(0.0, 10.0))
            .with_timeout(4.0);
        let mut ch = MeteredChannel::with_faults(LinkProfile::wan_256(), plan);
        // Attempts burn min(timeout, remaining outage) until the window ends.
        let e1 = ch.try_round_trip(100, 0).unwrap_err();
        match e1 {
            LinkError::Outage { until, .. } => assert_eq!(until, 10.0),
            other => panic!("unexpected {other:?}"),
        }
        ch.try_round_trip(100, 0).unwrap_err();
        let e3 = ch.try_round_trip(100, 0).unwrap_err();
        // 4 + 4 = 8s elapsed; third failure burns the remaining 2s.
        assert!((e3.waited() - 2.0).abs() < 1e-12);
        assert!((ch.elapsed() - 10.0).abs() < 1e-12);
        ch.try_round_trip(100, 0).unwrap();
        assert_eq!(ch.stats().outage_hits, 3);
    }

    #[test]
    fn same_seed_same_faults() {
        use crate::fault::FaultPlan;
        let run = |seed: u64| {
            let plan = FaultPlan::lossy(seed, 0.3).with_server_error_rate(0.1);
            let mut ch = MeteredChannel::with_faults(LinkProfile::wan_512(), plan);
            let mut log = Vec::new();
            for _ in 0..30 {
                log.push(ch.try_round_trip(500, 1024).map_err(|e| format!("{e}")));
            }
            (log, ch.stats().clone(), ch.elapsed())
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11).0, run(12).0);
    }

    #[test]
    fn two_phase_exchange_matches_glued_round_trip() {
        use crate::fault::FaultPlan;
        let plan = FaultPlan::lossy(5, 0.2);
        let mut a = MeteredChannel::with_faults(LinkProfile::wan_256(), plan.clone());
        let mut b = MeteredChannel::with_faults(LinkProfile::wan_256(), plan);
        for _ in 0..20 {
            let ra = a.try_round_trip(300, 700);
            let rb = b
                .try_send_request(300)
                .and_then(|p| b.try_receive_response(p, 700));
            assert_eq!(ra, rb);
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn latency_dominates_small_navigational_queries_on_wan() {
        // The paper's core observation: for chatty navigational access the
        // per-query latency dwarfs the payload transfer.
        let mut ch = MeteredChannel::new(LinkProfile::wan_256());
        let rt = ch.round_trip(150, 512);
        assert!(rt.latency_time > rt.transfer_time);
    }
}
