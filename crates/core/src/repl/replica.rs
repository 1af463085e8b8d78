//! A replica site: a full PDM server continuously rebuilt from the
//! primary's shipped WAL records.
//!
//! A replica is bootstrapped from an epoch-base snapshot and then applies
//! ship batches in sequence order through the same state machine as crash
//! recovery (`crate::replay`). The `applied_seq` watermark is the
//! replica's position in the primary's logical log; read-your-writes waits
//! compare against it.
//!
//! Shipping is idempotent — a batch may be re-delivered after a lost ack,
//! and records at or below the watermark are skipped — and fenced: a batch
//! from a stale epoch is rejected so a deposed primary cannot roll back a
//! promoted cluster.

use std::collections::BTreeMap;
use std::sync::Arc;

use pdm_net::MeteredChannel;
use pdm_sql::persist::{database_digest, database_fingerprint};

use super::feed::Shipped;
use super::ReplError;
use crate::durability::GrantIds;
use crate::replay::{database_from_snapshot, ReplayState};
use crate::server::PdmServer;
use crate::shared::SharedServer;

/// Bytes in a ship acknowledgement (epoch + applied seq + state digest).
pub(crate) const ACK_BYTES: usize = 24;

/// One replica site. See the module docs.
#[derive(Debug)]
pub struct ReplicaSite {
    site: usize,
    server: PdmServer,
    channel: MeteredChannel,
    epoch: u64,
    applied_seq: u64,
    /// Grant and token trackers replayed from shipped records; what this
    /// site would sweep and restore if it were promoted.
    state: ReplayState,
}

impl ReplicaSite {
    /// Seed a site from a snapshot image at watermark `base_seq` of
    /// `epoch`, with the trackers current at that point, shipping over
    /// `channel`.
    pub(crate) fn bootstrap(
        site: usize,
        snapshot_bytes: &[u8],
        epoch: u64,
        base_seq: u64,
        state: ReplayState,
        channel: MeteredChannel,
    ) -> Result<ReplicaSite, ReplError> {
        let db = database_from_snapshot(snapshot_bytes)
            .map_err(|e| ReplError::Bootstrap(e.to_string()))?;
        let shared = SharedServer::assemble(db, None, &state);
        Ok(ReplicaSite {
            site,
            server: PdmServer::from_shared(Arc::new(shared)),
            channel,
            epoch,
            applied_seq: base_seq,
            state,
        })
    }

    /// Apply a ship batch: fence stale epochs, skip already-applied
    /// records (idempotent re-delivery), replay the rest in order.
    /// Returns the number of records newly applied.
    pub fn apply_batch(&mut self, epoch: u64, records: &[Shipped]) -> Result<u64, ReplError> {
        if epoch != self.epoch {
            return Err(ReplError::Fenced {
                expected: self.epoch,
                got: epoch,
            });
        }
        let mut applied = 0u64;
        for (seq, record) in records {
            if *seq <= self.applied_seq {
                continue;
            }
            self.state
                .apply(Some(self.server.database()), *seq, record)?;
            self.applied_seq = *seq;
            applied += 1;
        }
        Ok(applied)
    }

    /// One metered ship exchange: deliver `request_bytes` of batch over the
    /// fault-injected link, apply, and return the ack. A lost ack
    /// ([`pdm_net::LinkError::ResponseLost`]) leaves the records applied —
    /// the watermark has advanced and re-delivery is skipped — mirroring
    /// "server effects happened" semantics everywhere else in the stack.
    ///
    /// Returns `(applied, advance)` where `advance` is the **exact**
    /// virtual-clock seconds this exchange advanced the replica's channel
    /// (the same two-term sum the channel added to its own clock, so trace
    /// segments built from it reconcile bit-for-bit; a telescoped
    /// `elapsed()` difference would not).
    pub(crate) fn receive_ship(
        &mut self,
        epoch: u64,
        records: &[Shipped],
        request_bytes: usize,
    ) -> Result<(u64, f64), ReplError> {
        let pending = self
            .channel
            .try_send_request(request_bytes)
            .map_err(ReplError::Link)?;
        let applied = self.apply_batch(epoch, records)?;
        let rt = self
            .channel
            .try_receive_response(pending, ACK_BYTES)
            .map_err(ReplError::Link)?;
        Ok((applied, rt.total_time()))
    }

    pub fn site(&self) -> usize {
        self.site
    }

    /// The replica's watermark: highest applied primary sequence.
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq
    }

    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Storage version of the replica's state.
    pub fn version(&self) -> u64 {
        self.server.database().version()
    }

    /// The replica's server (attach read sessions to a clone of this).
    pub fn server(&self) -> &PdmServer {
        &self.server
    }

    /// Virtual seconds this site's ship link has consumed.
    pub fn elapsed(&self) -> f64 {
        self.channel.elapsed()
    }

    pub(crate) fn channel_mut(&mut self) -> &mut MeteredChannel {
        &mut self.channel
    }

    /// Full state fingerprint (catalog image) for cross-site comparison.
    pub fn fingerprint(&self) -> Vec<u8> {
        database_fingerprint(self.server.database())
    }

    /// Compact digest of the state the fingerprint images — rides in ship
    /// acks. The same function the primary runs on its own state.
    pub fn digest(&self) -> u64 {
        database_digest(self.server.database())
    }

    /// Outstanding grants tracked from shipped records.
    pub fn grants(&self) -> &BTreeMap<u64, GrantIds> {
        &self.state.grants
    }

    /// The tokens whose outcomes this site retains, ascending — equal to
    /// the primary's at equal watermark.
    pub fn retained_tokens(&self) -> Vec<u64> {
        self.state.tokens.tokens()
    }

    /// Give up the site, keeping its trackers (promotion).
    pub(crate) fn into_state(self) -> ReplayState {
        self.state
    }

    /// Give up the site, keeping its ship link (re-seeding a laggard).
    pub(crate) fn into_channel(self) -> MeteredChannel {
        self.channel
    }

    /// Fence this site onto a new epoch (after a promotion it observed).
    pub(crate) fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Reset the watermark (the new epoch's sequences restart at 1).
    pub(crate) fn reset_applied(&mut self, seq: u64) {
        self.applied_seq = seq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_net::LinkProfile;
    use pdm_sql::persist::encode_snapshot;
    use pdm_sql::SharedDatabase;
    use pdm_wal::WalRecord;
    use pdm_workload::{build_database, TreeSpec};

    fn seeded_replica() -> (ReplicaSite, Vec<u8>) {
        let (db, _) = build_database(&TreeSpec::new(2, 2, 1.0).with_node_size(64)).unwrap();
        let shared = SharedDatabase::new(db);
        let bytes = encode_snapshot(&shared.snapshot());
        let replica = ReplicaSite::bootstrap(
            1,
            &bytes,
            2,
            0,
            ReplayState::default(),
            MeteredChannel::new(LinkProfile::lan()),
        )
        .unwrap();
        (replica, bytes)
    }

    #[test]
    fn stale_epoch_batches_are_fenced() {
        let (mut replica, _) = seeded_replica();
        let batch = vec![(
            1u64,
            Arc::new(WalRecord::DmlCommit {
                version: 1,
                sql: "UPDATE assy SET payload = 'x' WHERE obid = 1".into(),
            }),
        )];
        match replica.apply_batch(1, &batch) {
            Err(ReplError::Fenced {
                expected: 2,
                got: 1,
            }) => {}
            other => panic!("stale epoch must be fenced, got {other:?}"),
        }
        assert_eq!(replica.applied_seq(), 0, "fenced batch must not apply");
    }

    #[test]
    fn redelivered_batches_apply_once() {
        let (mut replica, bytes) = seeded_replica();
        // Learn the version the statement produces on a twin of the base.
        let twin = database_from_snapshot(&bytes).expect("snapshot round-trips");
        let stmt = pdm_sql::parser::parse_statement("UPDATE assy SET payload = 'x' WHERE obid = 1")
            .unwrap();
        let (_, version) = twin.execute_ast(&stmt).unwrap();
        let batch = vec![(
            1u64,
            Arc::new(WalRecord::DmlCommit {
                version,
                sql: "UPDATE assy SET payload = 'x' WHERE obid = 1".into(),
            }),
        )];
        assert_eq!(replica.apply_batch(2, &batch).unwrap(), 1);
        // Re-delivery after a lost ack skips everything at or below the
        // watermark — replay is idempotent, versions don't double-advance.
        assert_eq!(replica.apply_batch(2, &batch).unwrap(), 0);
        assert_eq!(replica.applied_seq(), 1);
        assert_eq!(replica.version(), version);
    }
}
