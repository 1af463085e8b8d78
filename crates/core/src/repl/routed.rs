//! A site-routed client session over a replicated cluster.
//!
//! A [`RoutedSession`] holds TWO metered sessions: a `read` session over a
//! LAN link to its nearest replica (the whole point of replication — the
//! paper's Table 2 "remote everything" latencies collapse when reads stay
//! local) and a `write` session over the configured WAN link to the
//! primary.
//!
//! **Read-your-writes contract**: the session remembers the
//! [`WriteReceipt`] of its last acknowledged write. Before any read it
//! waits (pumping the ship link) until the local replica's watermark
//! reaches that sequence, bounded by the session's [`RetryPolicy`]
//! deadline. A receipt from an older epoch needs no wait — promotion
//! guarantees acknowledged writes are part of the new epoch's baseline.
//! When the wait times out repeatedly, the session's
//! [`DegradationController`] staleness rung opens and reads are served
//! from the lagging replica with an explicit [`Staleness`] annotation
//! instead of failing the action outright.
//!
//! **One recorder per action**: a routed action's observation context is
//! owned here, not by whichever inner session happens to run its body. With
//! tracing on, the two sessions share one recorder; the routed session
//! opens the action on it *before* the cluster's pre-work (watermark wait,
//! availability gate) and closes it after the acknowledgement, handing it
//! to every cluster call in between — so the cluster's spans, the client's
//! and the replicas' land in one recorder in occurrence order and assemble
//! into one tree the way a direct session's do. The recorder outlives the
//! inner sessions, which a topology change rebuilds mid-action.

use pdm_net::LinkProfile;
use pdm_obs::TraceTree;

use super::{Cluster, WriteReceipt};
use crate::checkout::CheckoutOutcome;
use crate::product::{ObjectId, ProductTree};
use crate::resilience::RetryPolicy;
use crate::rules::table::RuleTable;
use crate::session::{
    ExpandOutcome, QueryOutcome, Session, SessionConfig, SessionError, SessionResult, Tracing,
};

/// Explicit staleness annotation on a degraded read: the replica served it
/// from a state behind the session's own last write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Staleness {
    /// The sequence read-your-writes required.
    pub required_seq: u64,
    /// The replica's watermark when the read was served.
    pub applied_seq: u64,
}

/// A read outcome plus its freshness: `staleness: None` means the
/// read-your-writes guarantee held.
#[derive(Debug)]
pub struct RoutedRead<T> {
    pub value: T,
    pub staleness: Option<Staleness>,
}

/// A client session pinned to one site of a replicated cluster. See the
/// module docs.
pub struct RoutedSession {
    site: usize,
    read: Session,
    write: Session,
    generation: u64,
    epoch: u64,
    last_write: Option<WriteReceipt>,
    policy: RetryPolicy,
    /// Cross-site tracing, `None` unless [`RoutedSession::enable_tracing`]
    /// turns it on: whether an action is traced is decided here, once, when
    /// the action opens.
    tracing: Option<Tracing>,
}

impl RoutedSession {
    /// Attach a session at `site`: reads go to the site's replica over a
    /// LAN profile, writes to the primary over `config.link`.
    pub fn connect(
        cluster: &Cluster,
        site: usize,
        config: SessionConfig,
        rules: RuleTable,
    ) -> Self {
        let read_cfg = SessionConfig {
            link: LinkProfile::lan(),
            ..config.clone()
        };
        let read = Session::attach(cluster.read_server(site), read_cfg, rules.clone());
        let write = Session::attach(cluster.write_server(), config, rules);
        RoutedSession {
            site,
            read,
            write,
            generation: cluster.generation(),
            epoch: cluster.epoch(),
            last_write: None,
            policy: RetryPolicy::default_wan(),
            tracing: None,
        }
    }

    /// Turn on cross-site causal tracing for every action of this routed
    /// session (implies profiling: both underlying sessions record into one
    /// shared recorder). Each action draws one trace id; the client exchange
    /// spans, the primary's ship / watermark / promotion spans, and the
    /// replica-side applies all assemble into one [`TraceTree`] readable
    /// via [`RoutedSession::last_trace`].
    pub fn enable_tracing(&mut self, seed: u64) {
        self.write.enable_profiling();
        self.read.attach_recorder(self.write.recorder().clone());
        self.tracing = Some(Tracing::new(seed, format!("client{}", self.site)));
    }

    /// The causal tree of the most recent traced action.
    pub fn last_trace(&self) -> Option<&TraceTree> {
        self.tracing.as_ref().and_then(Tracing::last_tree)
    }

    pub fn site(&self) -> usize {
        self.site
    }

    /// Receipt of this session's last acknowledged write, if any.
    pub fn last_write(&self) -> Option<WriteReceipt> {
        self.last_write
    }

    pub fn retry_policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Bound watermark waits and primary-outage waits by this policy's
    /// deadline.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.policy = policy;
    }

    /// The local read session (stats, degradation state, recorder).
    pub fn read_session(&self) -> &Session {
        &self.read
    }

    pub fn read_session_mut(&mut self) -> &mut Session {
        &mut self.read
    }

    /// The primary-bound write session.
    pub fn write_session(&self) -> &Session {
        &self.write
    }

    /// Re-resolve server handles after a topology change (promotion, heal
    /// or re-seed). Both sessions are re-pointed, not rebuilt: whatever was
    /// set on them — a lag breaker tripped against the old topology
    /// half-opens normally, a fault plan keeps injecting, a retry policy
    /// keeps bounding — stays in force, and a resync in the middle of an
    /// action goes on recording into the action it is part of.
    fn resync(&mut self, cluster: &Cluster) {
        if self.generation == cluster.generation() && self.epoch == cluster.epoch() {
            return;
        }
        self.generation = cluster.generation();
        self.epoch = cluster.epoch();
        self.read.rebind(cluster.read_server(self.site));
        self.write.rebind(cluster.write_server());
    }

    /// Enforce read-your-writes before a read, degrading to an annotated
    /// stale read when the staleness rung is open.
    fn sync_reads(&mut self, cluster: &mut Cluster) -> SessionResult<Option<Staleness>> {
        let Some(receipt) = self.last_write else {
            return Ok(None);
        };
        if receipt.epoch < cluster.epoch() {
            return Ok(None); // acked write survived into the promoted baseline
        }
        match cluster.wait_watermark(self.site, &receipt, &self.policy, self.read.recorder()) {
            Ok(_) => {
                self.read.degradation_mut().record_lag_success();
                Ok(None)
            }
            Err(SessionError::ReplicaLagTimeout {
                seq,
                applied,
                elapsed,
                context,
            }) => {
                self.read.degradation_mut().record_lag_failure();
                if self.read.degradation_mut().should_read_stale() {
                    cluster.note_stale_read();
                    Ok(Some(Staleness {
                        required_seq: seq,
                        applied_seq: applied,
                    }))
                } else {
                    Err(SessionError::ReplicaLagTimeout {
                        seq,
                        applied,
                        elapsed,
                        context,
                    })
                }
            }
            Err(e) => Err(e),
        }
    }

    /// Run `body` as one routed action named `name`. Traced, this is where
    /// the action is opened on the shared recorder and where its tree is
    /// assembled from it: the inner session that runs the action proper
    /// finds the context there and joins in (see [`Session::action`]).
    fn action<T>(
        &mut self,
        name: &'static str,
        body: impl FnOnce(&mut Self) -> SessionResult<T>,
    ) -> SessionResult<T> {
        if let Some(t) = &mut self.tracing {
            t.open(self.write.recorder());
        }
        let result = body(self);
        match &mut self.tracing {
            Some(t) => t.close(self.write.recorder(), name, result),
            None => result,
        }
    }

    /// Run one read action on the local session, folding its metered time
    /// into the cluster clock.
    fn read_action<T>(
        &mut self,
        cluster: &mut Cluster,
        name: &'static str,
        action: impl FnOnce(&mut Session) -> SessionResult<T>,
    ) -> SessionResult<RoutedRead<T>> {
        self.resync(cluster);
        self.action(name, |this| {
            let staleness = this.sync_reads(cluster)?;
            let result = action(&mut this.read);
            // Session metering resets per action, so post-action elapsed IS
            // the action's virtual time.
            cluster.advance(this.read.elapsed());
            Ok(RoutedRead {
                value: result?,
                staleness,
            })
        })
    }

    /// Run one write action against the primary, gated on availability
    /// (which may trigger failover promotion), then acknowledge it.
    fn write_action<T>(
        &mut self,
        cluster: &mut Cluster,
        name: &'static str,
        action: impl FnOnce(&mut Session) -> SessionResult<T>,
    ) -> SessionResult<(T, WriteReceipt)> {
        self.resync(cluster);
        self.action(name, |this| {
            cluster.ensure_primary(this.policy.deadline, this.write.recorder())?;
            this.resync(cluster); // the primary may have moved
            let result = action(&mut this.write);
            cluster.advance(this.write.elapsed());
            let value = result?;
            let receipt = cluster.acknowledge_write(this.write.recorder())?;
            this.last_write = Some(receipt);
            Ok((value, receipt))
        })
    }

    // -- reads -------------------------------------------------------------

    /// Multi-level expand against the local replica (read-your-writes
    /// enforced).
    pub fn multi_level_expand(
        &mut self,
        cluster: &mut Cluster,
        root: ObjectId,
    ) -> SessionResult<RoutedRead<ExpandOutcome>> {
        self.read_action(cluster, "multi_level_expand", |s| {
            s.multi_level_expand(root)
        })
    }

    /// Recursive single-query retrieval against the local replica.
    pub fn query_all(
        &mut self,
        cluster: &mut Cluster,
        root: ObjectId,
    ) -> SessionResult<RoutedRead<QueryOutcome>> {
        self.read_action(cluster, "query_all", |s| s.query_all(root))
    }

    // -- writes ------------------------------------------------------------

    /// Forward one DML statement to the primary and acknowledge it.
    pub fn execute_dml(
        &mut self,
        cluster: &mut Cluster,
        sql: &str,
    ) -> SessionResult<(usize, WriteReceipt)> {
        let sql = sql.to_string();
        self.write_action(cluster, "execute_dml", move |s| s.execute_update(&sql))
    }

    /// Function-shipping check-out at the primary.
    pub fn check_out(
        &mut self,
        cluster: &mut Cluster,
        root: ObjectId,
    ) -> SessionResult<(CheckoutOutcome, WriteReceipt)> {
        self.write_action(cluster, "check_out", |s| {
            s.check_out_function_shipping(root)
        })
    }

    /// Check-in at the primary.
    pub fn check_in(
        &mut self,
        cluster: &mut Cluster,
        tree: &ProductTree,
    ) -> SessionResult<(usize, WriteReceipt)> {
        self.write_action(cluster, "check_in", |s| s.check_in(tree))
    }
}
