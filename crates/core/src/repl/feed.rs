//! The replication feed: the primary's logical commit log, retained for
//! shipping.
//!
//! The durable store truncates its physical log at every checkpoint;
//! replicas replay the *logical* history, so [`crate::Durability`]
//! republishes every committed record here (under the store lock, so feed
//! order IS commit order).
//!
//! **The one retention rule:** the feed holds exactly the records above
//! its `base_seq`, and the cluster keeps the primary's snapshot at
//! `base_seq` beside it ([`super::Cluster::epoch_base`] encodes it). Serial replay of
//! the retained records onto that base therefore reproduces the primary's
//! state at any time — the failover oracle — and a replica at or above
//! `base_seq` can always be shipped what it lacks. The cluster moves the
//! base forward ([`ReplicationFeed::rebase`]) once every replica has
//! applied everything, so memory follows replica lag, not history; a
//! replica that would hold the base back for more than
//! [`RETENTION_INTERVALS`] checkpoint intervals is re-seeded from the new
//! base instead.

use std::sync::Arc;

use pdm_obs::lock::{Lock, LockId};
use pdm_wal::WalRecord;

/// How many checkpoint intervals of records the feed retains for a lagging
/// replica before the cluster stops waiting for it: at
/// `RETENTION_INTERVALS × checkpoint_interval` retained records the base
/// moves anyway and every replica still behind is re-bootstrapped from it.
/// Four keeps a replica that misses a few hundred records (seconds of
/// outage) on the cheap incremental path and bounds the feed at a few
/// hundred records however long a link stays down.
pub const RETENTION_INTERVALS: u64 = 4;

/// Bytes of framing overhead charged per shipped record (seq + length +
/// checksum), mirroring the WAL's on-device framing.
const RECORD_FRAME_BYTES: usize = 12;

/// One feed record as batches carry it: its sequence and the record,
/// shared with the feed and with every other batch it is cut into.
pub type Shipped = (u64, Arc<WalRecord>);

#[derive(Debug)]
struct Retained {
    seq: u64,
    record: Arc<WalRecord>,
    /// Size on the ship link, fixed at publish.
    wire_bytes: usize,
}

#[derive(Debug, Default)]
struct FeedState {
    /// The records above `base_seq`, in commit order. Sequences are the
    /// durable store's (monotonic across checkpoints), so a replica
    /// watermark is directly comparable to `last_seq`.
    records: Vec<Retained>,
    base_seq: u64,
    last_seq: u64,
    published: usize,
}

/// One epoch's shippable commit history. See the module docs.
#[derive(Debug)]
pub struct ReplicationFeed {
    epoch: u64,
    state: Lock<FeedState>,
}

/// Published to under the durability store's lock.
static FEED: LockId = LockId::new("core.repl.feed", 100);

impl ReplicationFeed {
    pub fn new(epoch: u64) -> Self {
        ReplicationFeed {
            epoch,
            state: Lock::new(&FEED, FeedState::default()),
        }
    }

    /// The epoch this feed belongs to. Ship batches carry it; replicas
    /// fence batches from a stale epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Append one durably committed record whose WAL payload took
    /// `payload_bytes`. Called by the durability layer under the store
    /// lock, so sequences arrive strictly increasing.
    pub fn publish(&self, seq: u64, record: WalRecord, payload_bytes: usize) {
        let mut st = self.state.lock();
        debug_assert!(seq > st.last_seq, "feed sequence must be monotonic");
        st.records.push(Retained {
            seq,
            record: Arc::new(record),
            wire_bytes: payload_bytes + RECORD_FRAME_BYTES,
        });
        st.last_seq = st.last_seq.max(seq);
        st.published += 1;
    }

    /// Highest published sequence (0 = nothing published this epoch).
    pub fn last_seq(&self) -> u64 {
        self.state.lock().last_seq
    }

    /// The sequence the retained records start above.
    pub fn base_seq(&self) -> u64 {
        self.state.lock().base_seq
    }

    /// The retained records with `after < seq <= through`, in order, and
    /// their size on the ship link (empty when `through <= after`).
    /// Sequences are strictly increasing, so binary searches find both cuts.
    pub(crate) fn batch(&self, after: u64, through: u64) -> (Vec<Shipped>, usize) {
        let st = self.state.lock();
        let from = st.records.partition_point(|r| r.seq <= after);
        let to = st.records.partition_point(|r| r.seq <= through);
        let cut = st.records.get(from..to).unwrap_or_default();
        (
            cut.iter().map(|r| (r.seq, Arc::clone(&r.record))).collect(),
            cut.iter().map(|r| r.wire_bytes).sum(),
        )
    }

    /// All retained records with sequence strictly greater than `seq`, in
    /// order — the ship batch for a replica whose watermark is `seq`.
    pub fn since(&self, seq: u64) -> Vec<Shipped> {
        self.batch(seq, u64::MAX).0
    }

    /// The retained records with sequence `<= seq`, in order — with the
    /// epoch base, the serial replay oracle for a promotion at watermark
    /// `seq`.
    pub fn prefix_through(&self, seq: u64) -> Vec<Shipped> {
        self.batch(0, seq).0
    }

    /// Move the base to `last_seq`, dropping every retained record. The
    /// caller replaces its epoch-base snapshot in the same step.
    pub(crate) fn rebase(&self) {
        let mut st = self.state.lock();
        st.records.clear();
        st.base_seq = st.last_seq;
    }

    /// Number of records published this epoch (never decreases).
    pub fn len(&self) -> usize {
        self.state.lock().published
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of records held in memory: those above [`Self::base_seq`].
    pub fn retained(&self) -> usize {
        self.state.lock().records.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(v: u64) -> WalRecord {
        WalRecord::DmlCommit {
            version: v,
            sql: format!("UPDATE assy SET checkedout = FALSE WHERE obid = {v}"),
        }
    }

    fn seqs(batch: &[Shipped]) -> Vec<u64> {
        batch.iter().map(|(s, _)| *s).collect()
    }

    fn feed_of_five() -> (ReplicationFeed, usize) {
        let feed = ReplicationFeed::new(1);
        let payload = rec(1).encode().len();
        for seq in 1..=5 {
            feed.publish(seq, rec(seq), payload);
        }
        (feed, payload)
    }

    #[test]
    fn publish_and_slice() {
        let empty = ReplicationFeed::new(1);
        assert_eq!(empty.epoch(), 1);
        assert_eq!(empty.last_seq(), 0);
        assert!(empty.is_empty());
        let (feed, payload) = feed_of_five();
        assert_eq!(feed.last_seq(), 5);
        assert_eq!((feed.len(), feed.retained()), (5, 5));
        assert_eq!(seqs(&feed.since(2)), [3, 4, 5]);
        assert!(feed.since(5).is_empty());
        assert_eq!(seqs(&feed.prefix_through(3)), [1, 2, 3]);
        assert!(feed.prefix_through(0).is_empty());

        // A batch knows its wire size without re-encoding its records.
        let (batch, bytes) = feed.batch(1, 4);
        assert_eq!(seqs(&batch), [2, 3, 4]);
        assert_eq!(bytes, 3 * (payload + RECORD_FRAME_BYTES));
        assert_eq!(feed.batch(4, 2), (Vec::new(), 0));
    }

    #[test]
    fn rebase_drops_the_records_and_keeps_the_count() {
        let (feed, payload) = feed_of_five();
        feed.rebase();
        assert_eq!((feed.base_seq(), feed.last_seq()), (5, 5));
        assert_eq!((feed.len(), feed.retained()), (5, 0));
        feed.publish(6, rec(6), payload);
        assert_eq!(seqs(&feed.since(0)), [6]);
        assert_eq!(seqs(&feed.prefix_through(6)), [6]);
        assert_eq!((feed.len(), feed.retained()), (6, 1));
    }
}
