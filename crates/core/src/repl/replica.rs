//! A replica site: a full PDM server continuously rebuilt from the
//! primary's shipped WAL records.
//!
//! A replica is bootstrapped from an epoch-base snapshot and then applies
//! ship batches in sequence order, using the same replay rules as crash
//! recovery ([`crate::durability::recover_server`]): DML commits re-execute
//! with a version-chain check, grant/release/token records maintain the aux
//! trackers. The `applied_seq` watermark is the replica's position in the
//! primary's logical log; read-your-writes waits compare against it.
//!
//! Shipping is idempotent — a batch may be re-delivered after a lost ack,
//! and records at or below the watermark are skipped — and fenced: a batch
//! from a stale epoch is rejected so a deposed primary cannot roll back a
//! promoted cluster.

use std::collections::BTreeMap;
use std::sync::Arc;

use pdm_net::{FaultPlan, LinkProfile, MeteredChannel};
use pdm_sql::persist::{database_fingerprint, decode_snapshot, fingerprint_digest};
use pdm_sql::{ResultSet, SharedDatabase};
use pdm_wal::WalRecord;

use super::ReplError;
use crate::durability::GrantIds;
use crate::server::PdmServer;
use crate::shared::SharedServer;

/// Bytes of framing overhead charged per shipped record (seq + length +
/// checksum), mirroring the WAL's on-device framing.
pub(crate) const RECORD_FRAME_BYTES: usize = 12;

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
    grants: BTreeMap<u64, GrantIds>,
    tokens: BTreeMap<u64, Option<ResultSet>>,
}

impl ReplicaSite {
    /// Seed a site from a snapshot image at watermark `base_seq` of
    /// `epoch`, with the grant/token trackers current at that point.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn bootstrap(
        site: usize,
        snapshot_bytes: &[u8],
        epoch: u64,
        base_seq: u64,
        grants: BTreeMap<u64, GrantIds>,
        tokens: BTreeMap<u64, Option<ResultSet>>,
        link: LinkProfile,
        plan: FaultPlan,
    ) -> Result<ReplicaSite, ReplError> {
        let mut snapshot =
            decode_snapshot(snapshot_bytes).map_err(|e| ReplError::Bootstrap(e.to_string()))?;
        // Decoded snapshots carry builtin functions only; restore the PDM
        // stored functions before any replayed SQL can call them.
        crate::functions::register_into(&mut snapshot.catalog.functions);
        let db = SharedDatabase::from_snapshot(snapshot);
        let next_token = tokens
            .keys()
            .chain(grants.keys())
            .max()
            .map(|t| t.saturating_add(1))
            .unwrap_or(1)
            .max(1);
        let shared = SharedServer::assemble(db, None, tokens.clone(), next_token);
        Ok(ReplicaSite {
            site,
            server: PdmServer::from_shared(Arc::new(shared)),
            channel: MeteredChannel::with_faults(link, plan),
            epoch,
            applied_seq: base_seq,
            grants,
            tokens,
        })
    }

    /// Apply a ship batch: fence stale epochs, skip already-applied
    /// records (idempotent re-delivery), replay the rest in order.
    /// Returns the number of records newly applied.
    pub fn apply_batch(
        &mut self,
        epoch: u64,
        records: &[(u64, WalRecord)],
    ) -> Result<u64, ReplError> {
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
            self.apply_one(*seq, record)?;
            self.applied_seq = *seq;
            applied += 1;
        }
        Ok(applied)
    }

    fn apply_one(&mut self, seq: u64, record: &WalRecord) -> Result<(), ReplError> {
        match record {
            WalRecord::DmlCommit { version, sql } => {
                let stmt =
                    pdm_sql::parser::parse_statement(sql).map_err(|e| ReplError::Replay {
                        seq,
                        detail: format!("{sql}: {e}"),
                    })?;
                let (_, produced) =
                    self.server
                        .database()
                        .execute_ast(&stmt)
                        .map_err(|e| ReplError::Replay {
                            seq,
                            detail: format!("{sql}: {e}"),
                        })?;
                if produced != *version {
                    return Err(ReplError::VersionChain {
                        seq,
                        logged: *version,
                        produced,
                    });
                }
            }
            WalRecord::CheckoutGrant {
                token,
                assy_ids,
                comp_ids,
            } => {
                self.grants.insert(
                    *token,
                    GrantIds {
                        assy: assy_ids.clone(),
                        comp: comp_ids.clone(),
                    },
                );
            }
            WalRecord::CheckoutRelease { ids } => {
                for grant in self.grants.values_mut() {
                    grant.remove(ids);
                }
                self.grants.retain(|_, g| !g.is_empty());
            }
            WalRecord::TokenComplete { token, rows } => {
                self.tokens.insert(*token, rows.clone());
            }
        }
        Ok(())
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
        records: &[(u64, WalRecord)],
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

    /// Compact digest of the fingerprint — rides in ship acks.
    pub fn digest(&self) -> u64 {
        fingerprint_digest(&self.fingerprint())
    }

    /// Outstanding grants tracked from shipped records.
    pub fn grants(&self) -> &BTreeMap<u64, GrantIds> {
        &self.grants
    }

    pub(crate) fn grants_clone(&self) -> BTreeMap<u64, GrantIds> {
        self.grants.clone()
    }

    pub(crate) fn tokens_clone(&self) -> BTreeMap<u64, Option<ResultSet>> {
        self.tokens.clone()
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
    use pdm_net::FaultPlan;
    use pdm_sql::persist::encode_snapshot;
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
            BTreeMap::new(),
            BTreeMap::new(),
            LinkProfile::lan(),
            FaultPlan::none(),
        )
        .unwrap();
        (replica, bytes)
    }

    #[test]
    fn stale_epoch_batches_are_fenced() {
        let (mut replica, _) = seeded_replica();
        let batch = vec![(
            1u64,
            WalRecord::DmlCommit {
                version: 1,
                sql: "UPDATE assy SET payload = 'x' WHERE obid = 1".into(),
            },
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
        let twin =
            SharedDatabase::from_snapshot(decode_snapshot(&bytes).expect("snapshot round-trips"));
        let stmt = pdm_sql::parser::parse_statement("UPDATE assy SET payload = 'x' WHERE obid = 1")
            .unwrap();
        let (_, version) = twin.execute_ast(&stmt).unwrap();
        let batch = vec![(
            1u64,
            WalRecord::DmlCommit {
                version,
                sql: "UPDATE assy SET payload = 'x' WHERE obid = 1".into(),
            },
        )];
        assert_eq!(replica.apply_batch(2, &batch).unwrap(), 1);
        // Re-delivery after a lost ack skips everything at or below the
        // watermark — replay is idempotent, versions don't double-advance.
        assert_eq!(replica.apply_batch(2, &batch).unwrap(), 0);
        assert_eq!(replica.applied_seq(), 1);
        assert_eq!(replica.version(), version);
    }
}
