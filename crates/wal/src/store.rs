//! The durable store: one log device plus one checkpoint cell.
//!
//! A [`DurableStore`] is what the server holds while running; a
//! [`DurableImage`] is what survives a crash — the bytes a recovery scan
//! reads. The split models "the process died, the disk did not": the
//! harness crashes a store, takes its image, and re-opens a fresh store
//! from it with [`DurableStore::from_image`].
//!
//! ## Checkpoints
//!
//! A checkpoint is a single framed blob (same frame as a log record, so it
//! gets the same checksum protection) whose sequence number is the last log
//! sequence it covers. Installing one overwrites the checkpoint cell and
//! truncates the log — the write-temp-then-rename idiom of real systems,
//! modeled as atomic here (the crash planner schedules faults on *log*
//! operations, where the interesting torn states live; a torn checkpoint is
//! still exercised explicitly by corruption tests). Recovery therefore is:
//! load checkpoint, replay the (short) log suffix with `seq >` the
//! checkpoint's sequence.

use crate::device::{CrashPlan, DeviceStats, SimDevice};
use crate::log::{self, LogDamage, LogScan};
use crate::record::WalRecord;
use crate::WalError;

/// The bytes that survive a crash: checkpoint cell + log device image.
#[derive(Debug, Clone, PartialEq)]
pub struct DurableImage {
    pub checkpoint: Vec<u8>,
    pub log: Vec<u8>,
}

/// Everything recovery learns from a surviving image.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredStore {
    /// `(covered_seq, payload)` from the checkpoint cell, if one was ever
    /// installed.
    pub checkpoint: Option<(u64, Vec<u8>)>,
    /// Decoded log records with `seq` beyond the checkpoint, in order.
    pub records: Vec<(u64, WalRecord)>,
    /// Tail damage that was truncated away (the normal signature of a crash
    /// mid-append), kept for the recovery report.
    pub damage: Option<LogDamage>,
}

/// Write side of the WAL: assigns sequence numbers, frames records, and
/// manages the checkpoint cell.
#[derive(Debug, Clone)]
pub struct DurableStore {
    log: SimDevice,
    checkpoint: Vec<u8>,
    next_seq: u64,
}

impl DurableStore {
    /// Fresh, empty store.
    pub fn new(plan: CrashPlan) -> Self {
        DurableStore {
            log: SimDevice::new(plan),
            checkpoint: Vec::new(),
            next_seq: 1,
        }
    }

    /// Re-open a store from a surviving image, scanning and validating it.
    /// The log is truncated back to its valid record prefix (tail damage is
    /// reported, not fatal); sequence numbering continues after the highest
    /// surviving sequence. A damaged *checkpoint* is fatal — it was written
    /// atomically, so damage there is real corruption, not a crash artifact.
    pub fn from_image(
        image: DurableImage,
        plan: CrashPlan,
    ) -> Result<(Self, RecoveredStore), WalError> {
        // Checkpoint cell: empty, or exactly one intact frame.
        let checkpoint = if image.checkpoint.is_empty() {
            None
        } else {
            let scan = log::scan(&image.checkpoint);
            if let Some(d) = scan.damage {
                return Err(WalError::Damage(d));
            }
            if scan.records.len() != 1 {
                return Err(WalError::Decode {
                    offset: 0,
                    detail: format!(
                        "checkpoint cell holds {} frames, expected 1",
                        scan.records.len()
                    ),
                });
            }
            let (seq, payload) = scan.records.into_iter().next().unwrap_or_default();
            Some((seq, payload))
        };

        let LogScan {
            records,
            valid_len,
            damage,
        } = log::scan(&image.log);

        let base_seq = checkpoint.as_ref().map(|(s, _)| *s).unwrap_or(0);
        let mut decoded = Vec::with_capacity(records.len());
        let mut max_seq = base_seq;
        let mut prev = None;
        for (seq, payload) in records {
            if let Some(p) = prev {
                if seq <= p {
                    return Err(WalError::Decode {
                        offset: 0,
                        detail: format!("non-monotonic sequence {seq} after {p}"),
                    });
                }
            }
            prev = Some(seq);
            max_seq = max_seq.max(seq);
            if seq <= base_seq {
                continue; // already folded into the checkpoint
            }
            decoded.push((seq, WalRecord::decode(&payload)?));
        }

        let store = DurableStore {
            // lint:allow(unchecked-index): valid_len was produced by the
            // frame scanner and is ≤ image.log.len() by construction.
            log: SimDevice::with_contents(image.log[..valid_len].to_vec()).with_plan(plan),
            checkpoint: image.checkpoint,
            next_seq: max_seq.saturating_add(1),
        };
        Ok((
            store,
            RecoveredStore {
                checkpoint,
                records: decoded,
                damage,
            },
        ))
    }

    /// Append a record to the log (not yet durable), encoding it straight
    /// into its frame. Returns its sequence and its payload length in bytes.
    pub fn append(&mut self, rec: &WalRecord) -> Result<(u64, usize), WalError> {
        let seq = self.next_seq;
        let frame = log::frame_with(seq, |out| rec.encode_into(out));
        self.log.append(&frame)?;
        self.next_seq = self.next_seq.saturating_add(1);
        Ok((seq, frame.len() - log::HEADER))
    }

    /// Durability barrier on the log.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.log.sync()
    }

    /// Append + sync: the record is durable when this returns (same result
    /// as [`DurableStore::append`]).
    pub fn commit(&mut self, rec: &WalRecord) -> Result<(u64, usize), WalError> {
        let appended = self.append(rec)?;
        self.sync()?;
        Ok(appended)
    }

    /// Install a checkpoint covering everything up to and including the
    /// last assigned sequence, then truncate the log. `write_payload`
    /// appends the payload straight into the checkpoint cell's frame.
    /// Atomic (see module docs); refuses on a crashed device so a dead
    /// server cannot checkpoint.
    pub fn install_checkpoint(
        &mut self,
        write_payload: impl FnOnce(&mut Vec<u8>),
    ) -> Result<u64, WalError> {
        if self.log.is_crashed() {
            return Err(WalError::DeviceCrashed);
        }
        let covered = self.next_seq.saturating_sub(1);
        self.checkpoint = log::frame_with(covered, write_payload);
        self.log = SimDevice::with_contents(Vec::new()).with_plan_of(&self.log);
        Ok(covered)
    }

    /// The bytes that would survive if the process died right now.
    pub fn image(&self) -> DurableImage {
        DurableImage {
            checkpoint: self.checkpoint.clone(),
            log: self.log.surviving().to_vec(),
        }
    }

    /// Kill the device at the current boundary (applies the plan's tail
    /// fault to any unsynced bytes).
    pub fn crash_now(&mut self) {
        self.log.crash_now();
    }

    pub fn is_crashed(&self) -> bool {
        self.log.is_crashed()
    }

    /// Bytes currently in the log (excluding the checkpoint cell).
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// Bytes in the checkpoint cell.
    pub fn checkpoint_len(&self) -> usize {
        self.checkpoint.len()
    }

    /// Sequence the next append will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    pub fn device_stats(&self) -> DeviceStats {
        self.log.stats()
    }
}

impl SimDevice {
    /// Builder helper: keep contents, adopt a crash plan.
    fn with_plan(mut self, plan: CrashPlan) -> Self {
        self.set_plan(plan);
        self
    }

    /// Builder helper: keep contents, adopt another device's plan and op
    /// counter so a scheduled crash still lands after a checkpoint swap.
    fn with_plan_of(mut self, other: &SimDevice) -> Self {
        self.adopt_schedule(other);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::TailFault;

    fn rec(version: u64) -> WalRecord {
        WalRecord::DmlCommit {
            version,
            sql: format!("INSERT INTO t VALUES ({version})"),
        }
    }

    #[test]
    fn commit_then_recover_round_trip() {
        let mut store = DurableStore::new(CrashPlan::none());
        for v in 1..=5 {
            store.commit(&rec(v)).unwrap();
        }
        let (reopened, recovered) =
            DurableStore::from_image(store.image(), CrashPlan::none()).unwrap();
        assert_eq!(recovered.checkpoint, None);
        assert_eq!(recovered.damage, None);
        assert_eq!(recovered.records.len(), 5);
        assert_eq!(recovered.records[0], (1, rec(1)));
        assert_eq!(recovered.records[4], (5, rec(5)));
        assert_eq!(reopened.next_seq(), 6);
    }

    #[test]
    fn checkpoint_truncates_log_and_skips_covered_records() {
        let mut store = DurableStore::new(CrashPlan::none());
        for v in 1..=3 {
            store.commit(&rec(v)).unwrap();
        }
        let covered = store
            .install_checkpoint(|out| out.extend_from_slice(b"snapshot-at-3"))
            .unwrap();
        assert_eq!(covered, 3);
        assert_eq!(store.log_len(), 0);
        for v in 4..=5 {
            store.commit(&rec(v)).unwrap();
        }
        let (_, recovered) = DurableStore::from_image(store.image(), CrashPlan::none()).unwrap();
        assert_eq!(recovered.checkpoint, Some((3, b"snapshot-at-3".to_vec())));
        let seqs: Vec<u64> = recovered.records.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![4, 5]);
    }

    #[test]
    fn unsynced_tail_is_lost_and_reported() {
        // ops: append(0) sync(1) append(2) — crash on the op-3 sync.
        let mut store = DurableStore::new(CrashPlan::at_op(3).with_fault(TailFault::TornWrite));
        store.commit(&rec(1)).unwrap();
        store.append(&rec(2)).unwrap();
        assert_eq!(store.sync(), Err(WalError::DeviceCrashed));
        let (_, recovered) = DurableStore::from_image(store.image(), CrashPlan::none()).unwrap();
        // Record 1 was synced; record 2 was torn: either wholly gone (clean
        // frame-boundary cut, no damage) or reported as tail damage.
        assert_eq!(recovered.records.len(), 1);
        assert_eq!(recovered.records[0], (1, rec(1)));
    }

    #[test]
    fn crash_before_first_sync_loses_everything_cleanly() {
        let mut store = DurableStore::new(CrashPlan::at_op(1));
        store.append(&rec(1)).unwrap();
        assert!(store.sync().is_err());
        let (reopened, recovered) =
            DurableStore::from_image(store.image(), CrashPlan::none()).unwrap();
        assert!(recovered.records.is_empty());
        assert_eq!(recovered.damage, None);
        assert_eq!(reopened.next_seq(), 1);
    }

    #[test]
    fn corrupt_checkpoint_is_fatal_with_diagnostics() {
        let mut store = DurableStore::new(CrashPlan::none());
        store.commit(&rec(1)).unwrap();
        store
            .install_checkpoint(|out| out.extend_from_slice(b"good checkpoint payload"))
            .unwrap();
        let mut image = store.image();
        let mid = image.checkpoint.len() - 2;
        image.checkpoint[mid] ^= 0x40;
        match DurableStore::from_image(image, CrashPlan::none()) {
            Err(WalError::Damage(LogDamage::ChecksumMismatch {
                offset,
                expected,
                found,
            })) => {
                assert_eq!(offset, 0);
                assert_ne!(expected, found);
            }
            other => panic!("expected checksum damage, got {other:?}"),
        }
    }

    #[test]
    fn sequence_numbering_continues_after_reopen() {
        let mut store = DurableStore::new(CrashPlan::none());
        store.commit(&rec(1)).unwrap();
        store.commit(&rec(2)).unwrap();
        let (mut reopened, _) = DurableStore::from_image(store.image(), CrashPlan::none()).unwrap();
        let (seq, len) = reopened.commit(&rec(3)).unwrap();
        assert_eq!(len, rec(3).encode().len());
        assert_eq!(seq, 3);
    }

    #[test]
    fn scheduled_crash_survives_checkpoint_swap() {
        // The crash op counter keeps ticking across install_checkpoint, so a
        // chaos schedule targeting op N still fires if N lands after a
        // checkpoint.
        let mut store = DurableStore::new(CrashPlan::at_op(5));
        store.commit(&rec(1)).unwrap(); // ops 0,1
        store
            .install_checkpoint(|out| out.extend_from_slice(b"cp"))
            .unwrap();
        store.commit(&rec(2)).unwrap(); // ops 2,3
        store.append(&rec(3)).unwrap(); // op 4
        assert_eq!(store.sync(), Err(WalError::DeviceCrashed)); // op 5
        let (_, recovered) = DurableStore::from_image(store.image(), CrashPlan::none()).unwrap();
        assert_eq!(recovered.checkpoint, Some((1, b"cp".to_vec())));
        assert_eq!(recovered.records.len(), 1);
    }
}
