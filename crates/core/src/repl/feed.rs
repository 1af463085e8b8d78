//! The replication feed: the primary's logical commit log, retained for
//! shipping.
//!
//! The durable store truncates its physical log at every checkpoint; a
//! replica that bootstrapped from the epoch-base snapshot needs the *whole*
//! logical history of the epoch, so [`crate::Durability`] republishes every
//! committed record here (under the store lock, so feed order IS commit
//! order) and the feed never truncates on its own. An epoch's feed is also
//! the failover oracle: serial replay of any prefix onto the epoch base
//! must reproduce the primary's state at that sequence.

use std::sync::Mutex;

use pdm_wal::WalRecord;

use crate::shared::lock_unpoisoned;

#[derive(Debug, Default)]
struct FeedState {
    /// `(seq, record)` in commit order. Sequences are the durable store's
    /// (monotonic across checkpoints), so a replica watermark is directly
    /// comparable to `last_seq`.
    records: Vec<(u64, WalRecord)>,
    last_seq: u64,
}

/// One epoch's shippable commit history. See the module docs.
#[derive(Debug)]
pub struct ReplicationFeed {
    epoch: u64,
    state: Mutex<FeedState>,
}

impl ReplicationFeed {
    pub fn new(epoch: u64) -> Self {
        ReplicationFeed {
            epoch,
            state: Mutex::new(FeedState::default()),
        }
    }

    /// The epoch this feed belongs to. Ship batches carry it; replicas
    /// fence batches from a stale epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Append one durably committed record. Called by the durability layer
    /// under the store lock, so sequences arrive strictly increasing.
    pub fn publish(&self, seq: u64, record: WalRecord) {
        let mut st = lock_unpoisoned(&self.state);
        debug_assert!(seq > st.last_seq, "feed sequence must be monotonic");
        st.records.push((seq, record));
        st.last_seq = st.last_seq.max(seq);
    }

    /// Highest published sequence (0 = nothing published this epoch).
    pub fn last_seq(&self) -> u64 {
        lock_unpoisoned(&self.state).last_seq
    }

    /// All records with sequence strictly greater than `seq`, in order —
    /// the ship batch for a replica whose watermark is `seq`.
    pub fn since(&self, seq: u64) -> Vec<(u64, WalRecord)> {
        let st = lock_unpoisoned(&self.state);
        let (_, after) = st.records.split_at(Self::through(&st.records, seq));
        after.to_vec()
    }

    /// The prefix of records with sequence `<= seq`, in order — the serial
    /// replay oracle for a promotion at watermark `seq`.
    pub fn prefix_through(&self, seq: u64) -> Vec<(u64, WalRecord)> {
        let st = lock_unpoisoned(&self.state);
        let (through, _) = st.records.split_at(Self::through(&st.records, seq));
        through.to_vec()
    }

    /// Number of records with sequence `<= seq` (sequences are strictly
    /// increasing, so a binary search finds the cut without walking the
    /// never-truncated history).
    fn through(records: &[(u64, WalRecord)], seq: u64) -> usize {
        records.partition_point(|(s, _)| *s <= seq)
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.state).records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

    #[test]
    fn publish_and_slice() {
        let feed = ReplicationFeed::new(1);
        assert_eq!(feed.epoch(), 1);
        assert_eq!(feed.last_seq(), 0);
        assert!(feed.is_empty());
        for seq in 1..=5 {
            feed.publish(seq, rec(seq));
        }
        assert_eq!(feed.last_seq(), 5);
        assert_eq!(feed.len(), 5);
        let batch = feed.since(2);
        assert_eq!(
            batch.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
        assert!(feed.since(5).is_empty());
        let prefix = feed.prefix_through(3);
        assert_eq!(
            prefix.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(feed.prefix_through(0).len(), 0);
    }
}
