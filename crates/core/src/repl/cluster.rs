//! The replication coordinator: one primary, N replicas, deterministic
//! shipping, semi-synchronous acknowledgement, and lease-based failover.
//!
//! # Acknowledgement and failover safety
//!
//! A write is *acknowledged* only after it is durable on the primary AND
//! applied by at least `ack_replicas` replicas. Promotion picks the
//! replica with the highest watermark; because replay is strictly
//! sequential, that watermark is at least the sequence of every
//! acknowledged write — **no acknowledged commit is ever lost** to a
//! failover. Unacknowledged commits beyond the promoted watermark are
//! discarded (the client never got its ack), exactly as a crash discards
//! an unpublished commit.
//!
//! # Lease and fencing
//!
//! The primary holds a lease of `lease` virtual seconds. A writer that
//! finds the primary inside an outage window waits the outage out if it
//! ends before the lease expires; otherwise it waits to lease expiry and
//! the coordinator promotes. Promotion bumps the epoch; ship batches carry
//! their epoch and replicas reject stale ones ([`super::ReplError::Fenced`]),
//! so the deposed primary cannot re-assert itself — when its outage ends
//! it heals by re-bootstrapping from the new primary's snapshot.
//!
//! # Promotion = crash recovery
//!
//! The promoted replica's state is, by construction, the serial replay of
//! a prefix of the old primary's durable log — the same oracle as crash
//! recovery. Promotion therefore finishes exactly like recovery does:
//! outstanding check-out grants are swept back to `FALSE` through the new
//! primary's durable write path (every session at the old primary is
//! presumed lost), and [`FailoverReport`] retains the epoch base and the
//! replayed prefix so tests can verify byte-identity independently.
//!
//! # Continuous divergence check
//!
//! Every ship that leaves a replica fully caught up compares the replica's
//! state digest (8 of the ack's bytes) with the primary's and fails with
//! [`super::ReplError::Diverged`] when they differ. Both sides compute
//! [`pdm_sql::persist::database_digest`], which combines per-table digests
//! the storage layer maintains as rows are written — the check costs the
//! table headers, so it stays on every caught-up ship.
//!
//! # Observation
//!
//! The cluster keeps no instrument of its own. Whatever works on an
//! action's behalf — a watermark wait, the availability gate, the
//! acknowledgement pump, and the ships, promotion and seeds those set off —
//! is handed the action's recorder and records its one span there, at the
//! site it ran at (`primary`, `replica<n>`), advancing the action's
//! timeline by the exact virtual seconds it took. A ship frame or seed
//! snapshot sent for a traced action carries the action's context
//! ([`Recorder::wire_bytes`]). Background work ([`Cluster::pump`]) runs
//! with a disabled recorder and records nothing; the `repl.*` metrics count
//! every event either way.
//!
//! # Rebase
//!
//! The feed retains the records above its base and `epoch_base` is the
//! primary's snapshot at that base (see [`super::feed`] for the rule) —
//! the snapshot itself, shared with the storage that published it, and
//! encoded only when something replays or seeds from it. A ship round that
//! caught some replica up looks, once every site has had its turn, whether
//! every replica is at the feed's head with at least a checkpoint interval
//! of records retained, and then moves the base to the head: nothing is
//! shipped, the records are dropped. When a replica lags past the
//! retention bound the base moves without it and the replica is re-seeded
//! from the new base like a healed site; a re-seed lost on the link is
//! retried by the next round.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use pdm_net::{FaultPlan, LinkError, LinkProfile, MeteredChannel, OutageWindow};
use pdm_obs::{kinds, Counter, FlightDump, Gauge, Histogram, MetricsRegistry, Recorder};
use pdm_sql::persist::{database_digest, database_fingerprint, encode_snapshot};
use pdm_sql::{Database, SharedDatabase, Snapshot};
use pdm_wal::DurableStore;

use super::feed::{Shipped, RETENTION_INTERVALS};
use super::replica::{ReplicaSite, ACK_BYTES};
use super::{ReplError, ReplicationFeed};
use crate::durability::{Durability, DurabilityConfig};
use crate::product::ObjectId;
use crate::replay::{become_primary, database_from_snapshot, ReplayState};
use crate::resilience::RetryPolicy;
use crate::server::PdmServer;
use crate::session::{SessionError, SessionResult};
use crate::shared::SharedServer;

/// Tuning knobs for a replicated cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of replica sites (sites 1..=N; the primary is site 0).
    pub replicas: usize,
    /// Link profile of every primary→replica ship link.
    pub ship_link: LinkProfile,
    /// Fault plan template for the ship links; each site derives its own
    /// seeded stream via [`FaultPlan::for_site`].
    pub ship_faults: FaultPlan,
    /// Primary lease in virtual seconds: an outage outliving it triggers
    /// failover promotion.
    pub lease: f64,
    /// Replicas that must apply a write before it is acknowledged
    /// (semi-synchronous; clamped to the replica count).
    pub ack_replicas: usize,
    /// Ship rounds a single wait (ack or watermark) may pump before it
    /// gives up — the backstop against a dead ship link with an infinite
    /// deadline.
    pub max_pump_rounds: u32,
    /// Durability configuration of the primary (and of promoted primaries).
    pub durability: DurabilityConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            replicas: 3,
            ship_link: LinkProfile::wan_512(),
            ship_faults: FaultPlan::none(),
            lease: 30.0,
            ack_replicas: 1,
            max_pump_rounds: 64,
            durability: DurabilityConfig::default(),
        }
    }
}

impl ClusterConfig {
    pub fn with_replicas(mut self, n: usize) -> Self {
        assert!(n >= 1, "a cluster needs at least one replica");
        self.replicas = n;
        self
    }

    pub fn with_ship_link(mut self, link: LinkProfile) -> Self {
        self.ship_link = link;
        self
    }

    pub fn with_ship_faults(mut self, plan: FaultPlan) -> Self {
        self.ship_faults = plan;
        self
    }

    pub fn with_lease(mut self, seconds: f64) -> Self {
        assert!(seconds > 0.0);
        self.lease = seconds;
        self
    }

    pub fn with_ack_replicas(mut self, n: usize) -> Self {
        self.ack_replicas = n;
        self
    }

    pub fn with_max_pump_rounds(mut self, n: u32) -> Self {
        assert!(n >= 1);
        self.max_pump_rounds = n;
        self
    }

    pub fn with_durability(mut self, cfg: DurabilityConfig) -> Self {
        self.durability = cfg;
        self
    }
}

/// Receipt for an acknowledged write: what a session must remember to get
/// read-your-writes from a replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteReceipt {
    pub epoch: u64,
    /// Highest durable sequence at acknowledgement time.
    pub seq: u64,
    /// Storage version the write published.
    pub version: u64,
}

/// The highest acknowledged write of one epoch, retained by the cluster as
/// the loss oracle: a failover must carry it — and with it, replay being
/// sequential, every acknowledged write below it — into the new epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckedWrite {
    pub epoch: u64,
    pub seq: u64,
    pub version: u64,
}

/// What one failover promotion did — self-contained, so tests can verify
/// the promoted state against serial replay without touching the cluster.
#[derive(Debug, Clone)]
pub struct FailoverReport {
    pub old_epoch: u64,
    pub new_epoch: u64,
    pub promoted_site: usize,
    /// The promoted replica's watermark (the surviving log prefix).
    pub promoted_seq: u64,
    /// Records shipped to catch lagging replicas up to the prefix.
    pub catchup_records: u64,
    /// Stale grants swept by promotion (tokens and the id unions).
    pub swept_tokens: Vec<u64>,
    pub swept_assy: Vec<ObjectId>,
    pub swept_comp: Vec<ObjectId>,
    /// Virtual time the promotion started and how long it took.
    pub started_at: f64,
    pub duration: f64,
    /// State fingerprint of the promoted replica BEFORE the sweep — the
    /// value serial replay of `prefix` onto `epoch_base` must reproduce.
    pub promoted_fingerprint: Vec<u8>,
    /// Encoded snapshot of the old epoch's state at its feed's base.
    pub epoch_base: Vec<u8>,
    /// The old epoch's durable log above that base, through `promoted_seq`.
    pub prefix: Vec<Shipped>,
}

/// A snapshot and, once something asks for them, its bytes. The feed's base
/// is kept this way, so a rebase nobody seeds or replays from encodes
/// nothing, and a seed encodes the primary's state once.
#[derive(Debug)]
struct Base {
    snapshot: Arc<Snapshot>,
    bytes: OnceLock<Vec<u8>>,
}

impl Base {
    /// `db`'s state as of now.
    fn of(db: &SharedDatabase) -> Self {
        Base {
            snapshot: db.snapshot(),
            bytes: OnceLock::new(),
        }
    }

    fn bytes(&self) -> &[u8] {
        self.bytes.get_or_init(|| encode_snapshot(&self.snapshot))
    }
}

/// Pre-resolved handles for the `repl.*` metric families (resolved at
/// cluster assembly so every family exists in a snapshot even before it
/// first fires).
#[derive(Debug)]
struct ReplMetrics {
    ship_batches: Counter,
    records_shipped: Counter,
    ship_failures: Counter,
    acked_writes: Counter,
    watermark_waits: Counter,
    watermark_timeouts: Counter,
    stale_reads: Counter,
    failovers: Counter,
    lag_seqs: Gauge,
    ship_us: Histogram,
    failover_us: Histogram,
    watermark_wait_us: Histogram,
}

impl ReplMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        ReplMetrics {
            ship_batches: registry.counter("repl.ship_batches"),
            records_shipped: registry.counter("repl.records_shipped"),
            ship_failures: registry.counter("repl.ship_failures"),
            acked_writes: registry.counter("repl.acked_writes"),
            watermark_waits: registry.counter("repl.watermark_waits"),
            watermark_timeouts: registry.counter("repl.watermark_timeouts"),
            stale_reads: registry.counter("repl.stale_reads"),
            failovers: registry.counter("repl.failovers"),
            lag_seqs: registry.gauge("repl.lag_seqs"),
            ship_us: registry.histogram("repl.ship_us"),
            failover_us: registry.histogram("repl.failover_us"),
            watermark_wait_us: registry.histogram("repl.watermark_wait_us"),
        }
    }
}

/// The replicated cluster. See the module docs.
#[derive(Debug)]
pub struct Cluster {
    cfg: ClusterConfig,
    epoch: u64,
    /// Topology generation: bumped on promotion and on heal, so routed
    /// sessions know to re-resolve their server handles.
    generation: u64,
    primary: PdmServer,
    /// Site index currently acting as primary (0 at birth; the promoted
    /// replica's site after a failover).
    primary_site: usize,
    feed: Arc<ReplicationFeed>,
    replicas: BTreeMap<usize, ReplicaSite>,
    /// The cluster's virtual clock: ship-link time plus session time folded
    /// in via [`Cluster::advance`].
    clock: f64,
    /// Scheduled primary-site outage windows on the cluster clock.
    outages: Vec<OutageWindow>,
    /// One entry per epoch that acknowledged a write: its highest.
    acked: Vec<AckedWrite>,
    metrics: Arc<MetricsRegistry>,
    m: ReplMetrics,
    failovers: Vec<FailoverReport>,
    /// A deposed primary site waiting for its outage to end before it
    /// re-bootstraps as a replica: `(site, heal_at)`.
    pending_heal: Option<(usize, f64)>,
    /// Sites whose seed snapshot was lost on their ship link, with that
    /// link and why they were being seeded: out of the topology until a
    /// ship round reaches them again and sends a fresh one.
    unseeded: BTreeMap<usize, (MeteredChannel, &'static str)>,
    /// The primary's snapshot at the feed's base sequence.
    epoch_base: Base,
}

impl Cluster {
    /// Publish a populated database as the primary of a replicated cluster
    /// and seed every replica from its initial snapshot.
    pub fn new(db: Database, cfg: ClusterConfig) -> pdm_sql::Result<Cluster> {
        let epoch = 1;
        let shared = SharedServer::with_durability(db, &cfg.durability)?;
        let feed = Arc::new(ReplicationFeed::new(epoch));
        if let Some(d) = shared.durability() {
            d.attach_feed(Arc::clone(&feed));
        }
        let primary = PdmServer::from_shared(Arc::new(shared));
        let epoch_base = Base::of(primary.database());
        let mut replicas = BTreeMap::new();
        for site in 1..=cfg.replicas {
            let plan = cfg.ship_faults.clone().for_site(site as u64);
            let replica = ReplicaSite::bootstrap(
                site,
                epoch_base.bytes(),
                epoch,
                0,
                ReplayState::default(),
                MeteredChannel::with_faults(cfg.ship_link, plan),
            )
            .map_err(|e| pdm_sql::Error::Eval(format!("replica bootstrap: {e}")))?;
            replicas.insert(site, replica);
        }
        let metrics = Arc::new(MetricsRegistry::new());
        let m = ReplMetrics::new(&metrics);
        Ok(Cluster {
            cfg,
            epoch,
            generation: 0,
            primary,
            primary_site: 0,
            feed,
            replicas,
            clock: 0.0,
            outages: Vec::new(),
            acked: Vec::new(),
            metrics,
            m,
            failovers: Vec::new(),
            pending_heal: None,
            unseeded: BTreeMap::new(),
            epoch_base,
        })
    }

    // -- accessors ---------------------------------------------------------

    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The cluster's virtual clock.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Fold externally burned virtual time (a session's metered action)
    /// into the cluster clock.
    pub fn advance(&mut self, seconds: f64) {
        debug_assert!(seconds >= 0.0);
        self.clock += seconds;
    }

    pub fn primary(&self) -> &PdmServer {
        &self.primary
    }

    pub fn primary_site(&self) -> usize {
        self.primary_site
    }

    pub fn replica(&self, site: usize) -> Option<&ReplicaSite> {
        self.replicas.get(&site)
    }

    pub fn replica_sites(&self) -> Vec<usize> {
        self.replicas.keys().copied().collect()
    }

    pub fn feed(&self) -> &Arc<ReplicationFeed> {
        &self.feed
    }

    /// The primary's encoded snapshot at the feed's base sequence — the
    /// state [`super::replay_prefix`] replays the retained feed onto.
    pub fn epoch_base(&self) -> &[u8] {
        self.epoch_base.bytes()
    }

    /// Cluster-level metrics (`repl.*` families).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    pub fn failovers(&self) -> &[FailoverReport] {
        &self.failovers
    }

    /// The highest acknowledged write of every epoch that acknowledged one,
    /// oldest epoch first.
    pub fn acked_writes(&self) -> &[AckedWrite] {
        &self.acked
    }

    /// Schedule a primary-site outage window on the cluster clock.
    pub fn schedule_outage(&mut self, window: OutageWindow) {
        self.outages.push(window);
    }

    /// Schedule an outage window on one site's ship link, on that link's
    /// own clock (test/admin hook; `ship_faults` gives every link the same
    /// windows).
    pub fn schedule_ship_outage(&mut self, site: usize, window: OutageWindow) {
        if let Some(replica) = self.replicas.get_mut(&site) {
            let channel = replica.channel_mut();
            let plan = channel
                .fault_plan()
                .cloned()
                .unwrap_or_else(FaultPlan::none);
            channel.set_fault_plan(plan.with_outage(window));
        }
    }

    /// The server a site's reads should run against: the local replica, or
    /// the primary when the site IS the primary (or is still healing).
    pub fn read_server(&self, site: usize) -> PdmServer {
        if site == self.primary_site {
            return self.primary.clone();
        }
        match self.replicas.get(&site) {
            Some(r) => r.server().clone(),
            None => self.primary.clone(),
        }
    }

    /// The server writes must be forwarded to.
    pub fn write_server(&self) -> PdmServer {
        self.primary.clone()
    }

    /// How many sequences site trails the primary by.
    pub fn lag(&self, site: usize) -> u64 {
        match self.replicas.get(&site) {
            Some(r) => self.feed.last_seq().saturating_sub(r.applied_seq()),
            None => 0,
        }
    }

    pub(crate) fn note_stale_read(&self) {
        self.m.stale_reads.inc();
    }

    // -- shipping ----------------------------------------------------------

    /// Ship the outstanding suffix to one replica over its fault-injected
    /// link, on behalf of the action `obs` records (a disabled recorder for
    /// none). Link failures are counted and absorbed (shipping is
    /// idempotent and retried next round); consistency violations
    /// propagate. A site still waiting for its seed snapshot is sent that
    /// instead. A round of one: a ship that leaves the site at the feed's
    /// head judges the rebase, with every other site at its true state.
    /// Returns the number of records the replica acknowledged.
    pub fn ship_once(&mut self, site: usize, obs: &Recorder) -> Result<u64, ReplError> {
        self.ship_round(&[site], obs)
    }

    /// Ship to `sites` in order, then decide the rebase — once, and only if
    /// some ship left its site at the feed's head: no replica is judged
    /// behind for coming later in the round, and a site the rebase fails to
    /// re-seed waits for the next round.
    fn ship_round(&mut self, sites: &[usize], obs: &Recorder) -> Result<u64, ReplError> {
        let (mut total, mut caught_up) = (0, false);
        for site in sites {
            let (applied, at_head) = self.ship(*site, obs)?;
            total += applied;
            caught_up |= at_head;
        }
        if caught_up {
            self.rebase_if_due(obs);
        }
        Ok(total)
    }

    /// One ship, short of the rebase decision: the records acknowledged,
    /// and whether they brought the site to the feed's head.
    fn ship(&mut self, site: usize, obs: &Recorder) -> Result<(u64, bool), ReplError> {
        self.maybe_heal(obs);
        if let Some((channel, why)) = self.unseeded.remove(&site) {
            let base = Base::of(self.primary.database());
            self.seed_replica(site, &base, channel, why, obs);
            return Ok((0, false));
        }
        let epoch = self.epoch;
        let last = self.feed.last_seq();
        let Some(replica) = self.replicas.get_mut(&site) else {
            return Ok((0, false)); // the site is the primary or still healing
        };
        let (batch, bytes) = self.feed.batch(replica.applied_seq(), last);
        if batch.is_empty() {
            self.m.lag_seqs.set(0.0);
            return Ok((0, false));
        }
        let before = replica.elapsed();
        let result = replica.receive_ship(epoch, &batch, bytes + obs.wire_bytes());
        let delta = replica.elapsed() - before;
        self.clock += delta;
        match result {
            Ok((applied, advance)) => {
                self.m.ship_batches.inc();
                self.m.records_shipped.add(applied);
                self.m.ship_us.record((delta * 1e6) as u64);
                self.m
                    .lag_seqs
                    .set(last.saturating_sub(replica.applied_seq()) as f64);
                if obs.is_enabled() {
                    // The primary-side ship with the EXACT advance, and the
                    // replica-side apply as its zero-width child.
                    let ship = obs.span_at("primary", kinds::REPL_SHIP, format!("site{site}"));
                    ship.add_attr("records", applied as f64);
                    ship.add_attr("bytes", bytes as f64);
                    ship.advance(advance);
                    let apply = obs.span_at(
                        format!("replica{site}"),
                        kinds::REPL_APPLY,
                        format!("{applied} records"),
                    );
                    apply.add_attr("records", applied as f64);
                }
                // A fully caught-up replica must be byte-equivalent to the
                // primary — the continuous divergence check.
                let at_head = replica.applied_seq() == last;
                if at_head && replica.digest() != database_digest(self.primary.database()) {
                    return Err(ReplError::Diverged { site, seq: last });
                }
                Ok((applied, at_head))
            }
            Err(ReplError::Link(e)) => {
                self.m.ship_failures.inc();
                record_lost_frame(obs, format_args!("site{site}"), bytes, &e);
                Ok((0, false))
            }
            Err(fatal) => Err(fatal),
        }
    }

    /// Move the feed's base to its head when the retention rule says so
    /// (module docs): every replica has applied everything and a checkpoint
    /// interval of records is retained, or [`RETENTION_INTERVALS`] of them
    /// are and the replicas still behind are re-seeded from the new base.
    /// Either way every replica ends at or above the base.
    fn rebase_if_due(&mut self, obs: &Recorder) {
        let retained = self.feed.retained() as u64;
        let interval = self.cfg.durability.checkpoint_interval;
        if retained < interval {
            return;
        }
        let last = self.feed.last_seq();
        let behind: Vec<usize> = self
            .replicas
            .iter()
            .filter(|(_, r)| r.applied_seq() < last)
            .map(|(site, _)| *site)
            .collect();
        if !behind.is_empty() && retained < interval.saturating_mul(RETENTION_INTERVALS) {
            return;
        }
        let base = Base::of(self.primary.database());
        self.feed.rebase();
        for site in behind {
            if let Some(laggard) = self.replicas.remove(&site) {
                if !self.seed_replica(site, &base, laggard.into_channel(), "reseed", obs) {
                    self.generation += 1; // the site has left the topology
                }
            }
        }
        self.epoch_base = base;
    }

    /// One background ship round across every site — for no action, so
    /// nothing is recorded.
    pub fn pump(&mut self) -> Result<u64, ReplError> {
        self.pump_for(&Recorder::disabled())
    }

    /// One ship round across every replica, and every site waiting for its
    /// seed, on behalf of the action `obs` records.
    fn pump_for(&mut self, obs: &Recorder) -> Result<u64, ReplError> {
        let sites: Vec<usize> = self
            .replicas
            .keys()
            .chain(self.unseeded.keys())
            .copied()
            .collect();
        self.ship_round(&sites, obs)
    }

    // -- write acknowledgement --------------------------------------------

    /// Semi-synchronously acknowledge the primary's latest durable state:
    /// pump the ship links until `ack_replicas` replicas have applied it,
    /// then issue the receipt a session needs for read-your-writes.
    pub fn acknowledge_write(&mut self, obs: &Recorder) -> SessionResult<WriteReceipt> {
        let seq = self.feed.last_seq();
        let version = self.primary.database().version();
        let epoch = self.epoch;
        let need = self.cfg.ack_replicas.min(self.replicas.len());
        let start = self.clock;
        let mut rounds = 0u32;
        loop {
            let caught = self
                .replicas
                .values()
                .filter(|r| r.applied_seq() >= seq)
                .count();
            if caught >= need {
                break;
            }
            if rounds >= self.cfg.max_pump_rounds {
                return Err(SessionError::Timeout {
                    attempts: rounds,
                    elapsed: self.clock - start,
                    context: FlightDump::at("repl.ship").with_events(obs),
                });
            }
            rounds += 1;
            self.pump_for(obs)
                .map_err(|e| SessionError::RecoveryFailed {
                    detail: format!("replication: {e}"),
                })?;
        }
        // Sequences only grow within an epoch: the latest ack is its highest.
        let acked = AckedWrite {
            epoch,
            seq,
            version,
        };
        match self.acked.last_mut() {
            Some(last) if last.epoch == epoch => *last = acked,
            _ => self.acked.push(acked),
        }
        self.m.acked_writes.inc();
        Ok(WriteReceipt {
            epoch,
            seq,
            version,
        })
    }

    // -- read-your-writes --------------------------------------------------

    /// Block (pumping the ship link) until `site`'s watermark reaches the
    /// receipt's sequence, bounded by the session's retry deadline. A
    /// receipt from an older epoch needs no wait: acknowledged writes are,
    /// by the promotion invariant, part of the new epoch's baseline.
    ///
    /// Deadline propagation (overload robustness): this wait is already
    /// bounded by `policy.deadline` — the same per-action deadline the
    /// lock-queue, WAL-commit, and single-flight waits observe — plus the
    /// `max_pump_rounds` backstop, so a saturated ship link cannot pin a
    /// reader for unbounded virtual time.
    pub fn wait_watermark(
        &mut self,
        site: usize,
        receipt: &WriteReceipt,
        policy: &RetryPolicy,
        obs: &Recorder,
    ) -> SessionResult<u64> {
        self.maybe_heal(obs);
        if receipt.epoch < self.epoch {
            return Ok(0);
        }
        if site == self.primary_site || !self.replicas.contains_key(&site) {
            return Ok(0); // reads run at the primary: trivially fresh
        }
        let start = self.clock;
        // Ships pumped while this span is open are its children, so their
        // time attributes to repl.wait_watermark (the class a reader
        // actually experiences) rather than repl.ship.
        let _wait = obs.is_enabled().then(|| {
            obs.span_at(
                "primary",
                kinds::REPL_WAIT_WATERMARK,
                format!("site{site} seq{}", receipt.seq),
            )
        });
        let mut rounds = 0u32;
        loop {
            let Some(applied) = self.replicas.get(&site).map(ReplicaSite::applied_seq) else {
                return Ok(0);
            };
            let waited = self.clock - start;
            if applied >= receipt.seq {
                self.m.watermark_waits.inc();
                self.m.watermark_wait_us.record((waited * 1e6) as u64);
                return Ok(applied);
            }
            if waited >= policy.deadline || rounds >= self.cfg.max_pump_rounds {
                self.m.watermark_timeouts.inc();
                obs.event(kinds::REPL_WAIT_WATERMARK, format!("site{site} deadline"));
                return Err(SessionError::ReplicaLagTimeout {
                    seq: receipt.seq,
                    applied,
                    elapsed: waited,
                    context: FlightDump::at("repl.wait_watermark").with_events(obs),
                });
            }
            rounds += 1;
            self.ship_once(site, obs)
                .map_err(|e| SessionError::RecoveryFailed {
                    detail: format!("replication: {e}"),
                })?;
        }
    }

    // -- failover ----------------------------------------------------------

    /// Gate a write on primary availability. Inside an outage window the
    /// writer waits the outage out when it ends before the lease expires;
    /// otherwise it waits to lease expiry and the coordinator promotes the
    /// most caught-up replica. Waits exceeding `max_wait` fail with
    /// [`SessionError::PrimaryUnavailable`].
    pub fn ensure_primary(&mut self, max_wait: f64, obs: &Recorder) -> SessionResult<()> {
        self.maybe_heal(obs);
        let Some(w) = self
            .outages
            .iter()
            .copied()
            .find(|w| w.contains(self.clock))
        else {
            return Ok(());
        };
        let lease_expires = w.start + self.cfg.lease;
        if w.end <= lease_expires {
            // Outage shorter than the lease: wait it out.
            let wait = w.end - self.clock;
            if wait > max_wait {
                return Err(SessionError::PrimaryUnavailable {
                    until: w.end,
                    context: FlightDump::at("net.exchange").with_events(obs),
                });
            }
            self.clock = w.end;
            record_wait(obs, "outage wait", wait);
            self.maybe_heal(obs);
            Ok(())
        } else {
            let wait = (lease_expires - self.clock).max(0.0);
            if wait > max_wait {
                return Err(SessionError::PrimaryUnavailable {
                    until: lease_expires,
                    context: FlightDump::at("net.exchange").with_events(obs),
                });
            }
            self.clock = self.clock.max(lease_expires);
            record_wait(obs, "lease wait", wait);
            self.outages.retain(|o| *o != w);
            self.promote_inner(Some(w.end), obs)
                .map_err(|e| SessionError::RecoveryFailed {
                    detail: format!("failover promotion: {e}"),
                })?;
            Ok(())
        }
    }

    /// Promote the most caught-up replica to primary (test/admin hook; the
    /// deposed primary is abandoned rather than healed).
    pub fn promote(&mut self) -> Result<(), ReplError> {
        self.promote_inner(None, &Recorder::disabled())
    }

    fn promote_inner(&mut self, heal_at: Option<f64>, obs: &Recorder) -> Result<(), ReplError> {
        let started = self.clock;
        let old_epoch = self.epoch;
        let new_epoch = old_epoch
            .checked_add(1)
            .ok_or_else(|| ReplError::Bootstrap("epoch counter exhausted".into()))?;

        // Deterministic choice: highest watermark, ties to the lowest site.
        let promoted_site = self
            .replicas
            .iter()
            .max_by(|(sa, ra), (sb, rb)| ra.applied_seq().cmp(&rb.applied_seq()).then(sb.cmp(sa)))
            .map(|(s, _)| *s)
            .ok_or_else(|| ReplError::Bootstrap("no replica to promote".into()))?;
        let promoted_seq = match self.replicas.get(&promoted_site) {
            Some(r) => r.applied_seq(),
            None => 0,
        };

        // Catch every lagging replica up to the promoted prefix, shipping
        // from the promoted site over a clean coordinator link (the old
        // primary — and its faulty links — are out of the picture).
        let mut coord = MeteredChannel::new(self.cfg.ship_link);
        let mut catchup_records = 0u64;
        let lagging: Vec<usize> = self
            .replicas
            .iter()
            .filter(|(s, r)| **s != promoted_site && r.applied_seq() < promoted_seq)
            .map(|(s, _)| *s)
            .collect();
        for site in lagging {
            let Some(replica) = self.replicas.get_mut(&site) else {
                continue;
            };
            let (batch, bytes) = self.feed.batch(replica.applied_seq(), promoted_seq);
            if batch.is_empty() {
                continue;
            }
            coord.round_trip(bytes, ACK_BYTES);
            catchup_records += replica.apply_batch(old_epoch, &batch)?;
        }

        // The promoted replica's pre-sweep state is the new epoch's base.
        let promoted = self
            .replicas
            .remove(&promoted_site)
            .ok_or_else(|| ReplError::Bootstrap("promoted replica vanished".into()))?;
        let promoted_fingerprint = promoted.fingerprint();
        let prefix = self.feed.prefix_through(promoted_seq);
        let base = Base::of(promoted.server().database());
        coord.round_trip(64, 32); // epoch-bump coordination round

        // Rebuild the promoted state as a durable primary — fresh store with
        // the epoch base as its first checkpoint, new feed, trackers carried
        // over — and finish exactly as crash recovery does.
        let db = database_from_snapshot(base.bytes())
            .map_err(|e| ReplError::Bootstrap(e.to_string()))?;
        let durability = Durability::resume(
            DurableStore::new(self.cfg.durability.crash_plan),
            promoted.into_state(),
            self.cfg.durability.checkpoint_interval,
        );
        durability
            .checkpoint(&db.snapshot())
            .map_err(|e| ReplError::Bootstrap(format!("promotion checkpoint: {e}")))?;
        let feed = Arc::new(ReplicationFeed::new(new_epoch));
        durability.attach_feed(Arc::clone(&feed));
        let (shared, sweep) = become_primary(db, durability)
            .map_err(|e| ReplError::Bootstrap(format!("failover sweep: {e}")))?;
        let new_primary = PdmServer::from_shared(Arc::new(shared));

        // Install the new topology and fence the survivors onto the new
        // epoch. They are all caught up to the promoted prefix, i.e. their
        // state equals the new epoch base; the new feed's sequences restart
        // at 1, so their watermarks reset to 0.
        let old_primary_site = self.primary_site;
        self.primary = new_primary;
        self.primary_site = promoted_site;
        self.feed = feed;
        self.epoch = new_epoch;
        let old_base = std::mem::replace(&mut self.epoch_base, base);
        self.generation += 1;
        for replica in self.replicas.values_mut() {
            replica.set_epoch(new_epoch);
            replica.reset_applied(0);
        }
        self.pending_heal = heal_at.map(|t| (old_primary_site, t));

        let duration = coord.elapsed();
        self.clock += duration;
        self.m.failovers.inc();
        self.m.failover_us.record((duration * 1e6) as u64);
        if obs.is_enabled() {
            let span = obs.span_at("primary", kinds::REPL_PROMOTE, format!("epoch{new_epoch}"));
            span.add_attr("promoted_site", promoted_site as f64);
            span.add_attr("promoted_seq", promoted_seq as f64);
            span.add_attr("catchup_records", catchup_records as f64);
            span.advance(duration);
        }
        self.failovers.push(FailoverReport {
            old_epoch,
            new_epoch,
            promoted_site,
            promoted_seq,
            catchup_records,
            swept_tokens: sweep.tokens,
            swept_assy: sweep.assy,
            swept_comp: sweep.comp,
            started_at: started,
            duration,
            promoted_fingerprint,
            epoch_base: old_base.bytes().to_vec(),
            prefix,
        });
        Ok(())
    }

    /// Heal a deposed primary whose outage has ended: re-bootstrap it from
    /// the current primary's snapshot as an ordinary replica.
    fn maybe_heal(&mut self, obs: &Recorder) {
        let Some((site, at)) = self.pending_heal else {
            return;
        };
        if self.clock < at {
            return;
        }
        self.pending_heal = None;
        // A fresh fault stream for the healed link (epoch-mixed so it does
        // not replay the pre-failover faults).
        let plan = self
            .cfg
            .ship_faults
            .clone()
            .for_site(site as u64 + 1000 * self.epoch);
        let channel = MeteredChannel::with_faults(self.cfg.ship_link, plan);
        let base = Base::of(self.primary.database());
        self.seed_replica(site, &base, channel, "heal", obs);
    }

    /// Seed `site` as a replica from `base`, the primary's
    /// current state at the feed's head — a healed ex-primary, or a laggard
    /// the feed no longer retains records for (`why` names which in traces
    /// and events): send the snapshot over `channel`, a fallible exchange
    /// like any ship; bootstrap with the primary's trackers, install the
    /// site and bump the generation so routed sessions re-resolve their
    /// read server. A snapshot lost on the link leaves the site out of the
    /// topology (its readers are served by the primary) until the next ship
    /// round sends a fresh one. Returns whether the site is installed.
    fn seed_replica(
        &mut self,
        site: usize,
        base: &Base,
        mut channel: MeteredChannel,
        why: &'static str,
        obs: &Recorder,
    ) -> bool {
        let bytes = base.bytes().len() + 64;
        let before = channel.elapsed();
        let sent = channel.try_round_trip(bytes + obs.wire_bytes(), ACK_BYTES);
        self.clock += channel.elapsed() - before;
        let rt = match sent {
            Ok(rt) => rt,
            Err(e) => {
                self.m.ship_failures.inc();
                record_lost_frame(obs, format_args!("{why} site{site}"), bytes, &e);
                self.unseeded.insert(site, (channel, why));
                return false;
            }
        };
        if obs.is_enabled() {
            let span = obs.span_at("primary", kinds::REPL_SHIP, format!("{why} site{site}"));
            span.add_attr("bytes", bytes as f64);
            span.advance(rt.total_time());
        }
        let state = self
            .primary
            .durability()
            .map(Durability::replay_state)
            .unwrap_or_default();
        let base_seq = self.feed.last_seq();
        match ReplicaSite::bootstrap(site, base.bytes(), self.epoch, base_seq, state, channel) {
            Ok(replica) => {
                self.replicas.insert(site, replica);
                self.generation += 1;
                obs.event(kinds::REPL_APPLY, format!("site{site} {why}: seeded"));
                true
            }
            Err(e) => {
                // A site that cannot decode the primary snapshot is lost;
                // leave it out of the topology.
                obs.event(kinds::REPL_APPLY, format!("site{site} {why} failed: {e}"));
                false
            }
        }
    }

    /// State fingerprint of the current primary.
    pub fn primary_fingerprint(&self) -> Vec<u8> {
        database_fingerprint(self.primary.database())
    }
}

/// A wait at the availability gate, as a span of the action `obs` records.
fn record_wait(obs: &Recorder, label: &'static str, wait: f64) {
    let span = obs.span_at("primary", kinds::NET_BACKOFF, label);
    span.add_attr("wait_s", wait);
    span.advance(wait);
}

/// A frame lost on a ship link — a batch, a seed snapshot — as a span of
/// the action `obs` records: the timeout it burned is the time it took.
fn record_lost_frame(obs: &Recorder, label: fmt::Arguments<'_>, bytes: usize, e: &LinkError) {
    if obs.is_enabled() {
        let span = obs.span_at("primary", kinds::REPL_SHIP, label.to_string());
        span.add_attr("bytes", bytes as f64);
        span.advance(e.waited());
        span.set_detail(e.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::table::RuleTable;
    use crate::session::SessionConfig;
    use crate::{RoutedSession, Strategy};
    use pdm_sql::persist::decode_snapshot;
    use pdm_sql::storage::Table;
    use pdm_sql::Value;
    use pdm_workload::{build_database, TreeSpec};

    const INTERVAL: u64 = 4;

    /// Two replicas, writes acknowledged without shipping, so a test
    /// decides exactly when a site is shipped to.
    fn quiet_cluster() -> (Cluster, RoutedSession) {
        let (db, _) = build_database(&TreeSpec::new(2, 2, 1.0).with_node_size(64)).unwrap();
        let cfg = ClusterConfig::default()
            .with_replicas(2)
            .with_ack_replicas(0)
            .with_durability(DurabilityConfig::default().with_interval(INTERVAL));
        let cluster = Cluster::new(db, cfg).unwrap();
        let session = RoutedSession::connect(
            &cluster,
            1,
            SessionConfig::new("scott", Strategy::Recursive, LinkProfile::wan_512()),
            RuleTable::new(),
        );
        (cluster, session)
    }

    fn write(cluster: &mut Cluster, session: &mut RoutedSession, payload: &str) {
        let assy = cluster.primary.query("SELECT MIN(obid) FROM assy").unwrap();
        let root = assy.rows[0].get(0).clone();
        let sql = format!("UPDATE assy SET payload = '{payload}' WHERE obid = {root}");
        assert_eq!(session.execute_dml(cluster, &sql).unwrap().0, 1);
    }

    /// Swap caught-up site 1 for a replica seeded from the primary's own
    /// snapshot after `tamper` rewrote its `comp` table: same version, same
    /// watermark, same trackers — only rows differ.
    fn corrupt_site_1(cluster: &mut Cluster, tamper: fn(&mut Table)) {
        cluster.pump().unwrap();
        assert_eq!(cluster.lag(1), 0);
        let honest = encode_snapshot(&cluster.primary.database().snapshot());
        let mut snapshot = decode_snapshot(&honest).unwrap();
        tamper(snapshot.catalog.table_mut("comp").unwrap());
        let watermark = cluster.feed.last_seq();
        let state = cluster.primary.durability().unwrap().replay_state();
        let replica = ReplicaSite::bootstrap(
            1,
            &encode_snapshot(&snapshot),
            cluster.epoch,
            watermark,
            state,
            MeteredChannel::new(cluster.cfg.ship_link),
        )
        .unwrap();
        assert_eq!(replica.version(), cluster.primary.database().version());
        cluster.replicas.insert(1, replica);
    }

    fn flip_one_value(comp: &mut Table) {
        let payload = comp.schema.require("payload").unwrap();
        comp.apply_updates(&[(0, vec![(payload, Value::Text("flipped".into()))])])
            .unwrap();
    }

    fn swap_two_rows(comp: &mut Table) {
        let assign = |row: &[Value]| row.iter().cloned().enumerate().collect::<Vec<_>>();
        let (first, second) = (assign(comp.row(0)), assign(comp.row(1)));
        assert_ne!(first, second);
        comp.apply_updates(&[(0, second), (1, first)]).unwrap();
    }

    /// The next ship that leaves the corrupted site caught up must refuse.
    fn assert_next_ship_diverges(cluster: &mut Cluster, session: &mut RoutedSession) {
        write(cluster, session, "after");
        let seq = cluster.feed.last_seq();
        match cluster.ship_once(1, &Recorder::disabled()) {
            Err(ReplError::Diverged { site: 1, seq: at }) => assert_eq!(at, seq),
            other => panic!("corruption went unnoticed: {other:?}"),
        }
        // The honest site is unaffected.
        cluster.ship_once(2, &Recorder::disabled()).unwrap();
        assert_eq!(cluster.lag(2), 0);
    }

    #[test]
    fn a_flipped_value_diverges_on_the_next_caught_up_ship() {
        let (mut cluster, mut session) = quiet_cluster();
        write(&mut cluster, &mut session, "before");
        corrupt_site_1(&mut cluster, flip_one_value);
        assert_next_ship_diverges(&mut cluster, &mut session);
    }

    #[test]
    fn swapped_rows_diverge_on_the_next_caught_up_ship() {
        let (mut cluster, mut session) = quiet_cluster();
        write(&mut cluster, &mut session, "before");
        corrupt_site_1(&mut cluster, swap_two_rows);
        assert_next_ship_diverges(&mut cluster, &mut session);
    }

    #[test]
    fn the_check_survives_a_rebase() {
        let (mut cluster, mut session) = quiet_cluster();
        for i in 0..2 * INTERVAL {
            write(&mut cluster, &mut session, &format!("w{i}"));
            cluster.pump().unwrap();
        }
        assert!(cluster.feed.base_seq() > 0, "no rebase happened");
        assert!((cluster.feed.retained() as u64) < INTERVAL);
        corrupt_site_1(&mut cluster, flip_one_value);
        assert_next_ship_diverges(&mut cluster, &mut session);
    }
}
