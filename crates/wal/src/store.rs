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
//! The checkpoint cell is a chain of frames (same frame as a log record, so
//! each gets the same checksum protection): one **full** frame, then zero
//! or more **delta** frames. A frame's sequence number is the last log
//! sequence it covers; a delta's payload starts with the sequence of the
//! frame before it (its link), so the chain says which cut each delta was
//! taken against. What a payload holds is the caller's business; the store
//! only knows that a delta applies on top of the frames before it. A
//! checkpoint is made in three steps, so that the long one holds no lock:
//!
//! 1. [`DurableStore::cut_point`] names the cut: the last sequence it
//!    covers, the log bytes that hold the records up to it, and the chain
//!    it would extend.
//! 2. [`LogCut::frame`] encodes and checksums a full frame for that cut, or
//!    [`LogCut::delta`] a delta frame. Neither touches the store, so
//!    records keep being appended meanwhile.
//! 3. [`DurableStore::install_at_cut`] installs the frame — a full frame
//!    replaces the chain, a delta is appended to it — and drops only the
//!    covered log prefix: the records appended after the cut stay in the
//!    log.
//!
//! A delta is refused when the chain's deltas together would reach half
//! the full frame: the cell stays under 1.5 full frames, and that bounds
//! what recovery reads. The caller then writes a full frame, which starts
//! a new chain.
//!
//! Each install is the write-temp-then-rename idiom of real systems,
//! modeled as atomic here (the crash planner schedules faults on *log*
//! operations, where the interesting torn states live; a torn checkpoint is
//! still exercised explicitly by corruption tests). A crash between cut and
//! install leaves the old chain and the whole log, which still recover.
//! Recovery therefore is: load the chain, replay the (short) log suffix
//! with `seq >` the chain's last sequence. Damage to any frame of the chain
//! is fatal: the cell was written atomically, so damage there is
//! corruption, and a chain missing a delta would recover a state that
//! never was.

use crate::device::{CrashPlan, DeviceStats, SimDevice};
use crate::log::{self, LogDamage, LogScan};
use crate::record::WalRecord;
use crate::WalError;

/// The bytes that survive a crash: checkpoint cell + log device image.
#[derive(Debug, Clone, PartialEq)]
pub struct DurableImage {
    /// The checkpoint chain's frames, back to back: the full frame, then
    /// the deltas.
    pub checkpoint: Vec<u8>,
    pub log: Vec<u8>,
}

/// Everything recovery learns from a surviving image.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredStore {
    /// `(covered_seq, payload)` of the chain's full frame, if a checkpoint
    /// was ever installed.
    pub checkpoint: Option<(u64, Vec<u8>)>,
    /// `(covered_seq, payload)` of each delta frame after it, in chain
    /// order (the link stripped): each applies on top of the frames before
    /// it.
    pub deltas: Vec<(u64, Vec<u8>)>,
    /// Decoded log records with `seq` beyond the chain, in order.
    pub records: Vec<(u64, WalRecord)>,
    /// Tail damage that was truncated away (the normal signature of a crash
    /// mid-append), kept for the recovery report.
    pub damage: Option<LogDamage>,
}

/// Bytes of a delta frame's link: the sequence of the frame before it.
const LINK: usize = 8;

/// The checkpoint chain as it stood at a cut: what a delta cut there would
/// extend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ChainShape {
    /// Bytes of the full frame (0: no chain).
    full: usize,
    /// Bytes of the delta frames after it.
    deltas: usize,
    /// The sequence the chain's last frame covers.
    tip: u64,
}

/// Where a checkpoint is cut: the last sequence it covers, the length of
/// the log prefix that holds the records up to it, and the chain it would
/// extend. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogCut {
    covered: u64,
    log_len: usize,
    /// The store's install count at the cut: a cut is installed at most
    /// once, and only over the log and chain it was cut from.
    installs: u64,
    chain: ChainShape,
}

impl LogCut {
    /// The last log sequence the checkpoint covers.
    pub fn covered(&self) -> u64 {
        self.covered
    }

    /// Encode a full frame for this cut: `write_payload` appends the payload
    /// straight into the frame, which is then checksummed. This is a
    /// checkpoint's long step, and it needs no access to the store.
    pub fn frame(self, write_payload: impl FnOnce(&mut Vec<u8>)) -> CheckpointFrame {
        CheckpointFrame {
            cut: self,
            bytes: log::frame_with(self.covered, write_payload),
            delta: false,
        }
    }

    /// Encode a delta frame for this cut, to apply on top of the chain as
    /// it stood at the cut. `write_payload` is handed the most bytes the
    /// payload may take and returns `false` if it gives up. `None` when
    /// there is no chain, when the writer gives up, or when the chain's
    /// deltas together would reach half its full frame (module docs): the
    /// caller writes a full frame instead. Nothing is checksummed unless
    /// the delta is kept.
    pub fn delta(
        self,
        write_payload: impl FnOnce(&mut Vec<u8>, usize) -> bool,
    ) -> Option<CheckpointFrame> {
        let ChainShape { full, deltas, tip } = self.chain;
        let room = (full / 2).checked_sub(deltas + log::HEADER + LINK)?;
        let mut bytes = vec![0u8; log::HEADER];
        bytes.extend_from_slice(&tip.to_le_bytes());
        if !write_payload(&mut bytes, room) || 2 * (deltas + bytes.len()) >= full {
            return None;
        }
        log::seal(self.covered, &mut bytes);
        Some(CheckpointFrame {
            cut: self,
            bytes,
            delta: true,
        })
    }
}

/// An encoded checkpoint frame, full or delta, with the cut it was encoded
/// at.
#[derive(Debug)]
pub struct CheckpointFrame {
    cut: LogCut,
    bytes: Vec<u8>,
    delta: bool,
}

/// Write side of the WAL: assigns sequence numbers, frames records, and
/// manages the checkpoint chain.
#[derive(Debug, Clone)]
pub struct DurableStore {
    log: SimDevice,
    /// The checkpoint chain: the full frame, then the deltas (empty before
    /// the first install).
    chain: Vec<Vec<u8>>,
    /// The sequence the chain's last frame covers.
    tip: u64,
    next_seq: u64,
    /// Checkpoints installed since the store was opened.
    installs: u64,
}

/// A checkpoint cell read back: see [`read_chain`].
#[derive(Default)]
struct Chain {
    full: Option<(u64, Vec<u8>)>,
    deltas: Vec<(u64, Vec<u8>)>,
    /// Each frame's bytes, header included.
    frames: Vec<Vec<u8>>,
}

/// The chain of a checkpoint cell, validated: every frame's checksum, and
/// each delta's link to the frame before it.
fn read_chain(cell: &[u8]) -> Result<Chain, WalError> {
    let scan = log::scan(cell);
    if let Some(d) = scan.damage {
        return Err(WalError::Damage(d));
    }
    let mut chain = Chain::default();
    let mut offset = 0;
    for (seq, payload) in scan.records {
        let end = offset + log::HEADER + payload.len();
        chain
            .frames
            .push(cell.get(offset..end).unwrap_or_default().to_vec());
        let Some((tip, _)) = chain.deltas.last().or(chain.full.as_ref()) else {
            chain.full = Some((seq, payload));
            offset = end;
            continue;
        };
        let link = payload
            .get(..LINK)
            .map(|b| u64::from_le_bytes(b.try_into().expect("LINK bytes")));
        if link != Some(*tip) || seq < *tip {
            return Err(WalError::Decode {
                offset,
                detail: format!(
                    "checkpoint delta at seq {seq} links to {link:?}; the chain before it ends at seq {tip}"
                ),
            });
        }
        chain
            .deltas
            .push((seq, payload.get(LINK..).unwrap_or_default().to_vec()));
        offset = end;
    }
    Ok(chain)
}

impl DurableStore {
    /// Fresh, empty store.
    pub fn new(plan: CrashPlan) -> Self {
        DurableStore {
            log: SimDevice::new(plan),
            chain: Vec::new(),
            tip: 0,
            next_seq: 1,
            installs: 0,
        }
    }

    /// Re-open a store from a surviving image, scanning and validating it.
    /// The log is truncated back to its valid record prefix (tail damage is
    /// reported, not fatal); sequence numbering continues after the highest
    /// surviving sequence. Damage anywhere in the *checkpoint chain*, or a
    /// delta that does not link to the frame before it, is fatal — the
    /// cell was written atomically, so that is corruption, not a crash
    /// artifact.
    pub fn from_image(
        image: DurableImage,
        plan: CrashPlan,
    ) -> Result<(Self, RecoveredStore), WalError> {
        let Chain {
            full: checkpoint,
            deltas,
            frames: chain,
        } = read_chain(&image.checkpoint)?;

        let LogScan {
            records,
            valid_len,
            damage,
        } = log::scan(&image.log);

        let base_seq = deltas.last().or(checkpoint.as_ref()).map_or(0, |(s, _)| *s);
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

        let mut log = image.log;
        log.truncate(valid_len);
        let store = DurableStore {
            log: SimDevice::with_contents(log).with_plan(plan),
            chain,
            tip: base_seq,
            next_seq: max_seq.saturating_add(1),
            installs: 0,
        };
        Ok((
            store,
            RecoveredStore {
                checkpoint,
                deltas,
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

    /// The cut of a checkpoint taken now: it covers every record appended
    /// so far. Take it where those records are synced (the caller's commit
    /// path appends and syncs under the lock it takes this under).
    pub fn cut_point(&self) -> LogCut {
        let mut frames = self.chain.iter().map(Vec::len);
        let full = frames.next().unwrap_or(0);
        LogCut {
            covered: self.next_seq.saturating_sub(1),
            log_len: self.log.len(),
            installs: self.installs,
            chain: ChainShape {
                full,
                deltas: frames.sum(),
                tip: self.tip,
            },
        }
    }

    /// Install `frame` and drop the log prefix its cut covers; records
    /// appended after the cut stay in the log. A full frame replaces the
    /// chain, a delta is appended to it. Atomic (see module docs). Refused
    /// on a crashed device, so a dead server cannot checkpoint, and for a
    /// cut that is not of this log and chain as they stand
    /// ([`WalError::StaleCut`]); either way the old chain and the whole log
    /// stay. Returns the replaced frames (none for a delta), so the caller
    /// can free them outside its own lock.
    pub fn install_at_cut(&mut self, frame: CheckpointFrame) -> Result<Vec<Vec<u8>>, WalError> {
        if self.log.is_crashed() {
            return Err(WalError::DeviceCrashed);
        }
        let cut = frame.cut;
        if cut.installs != self.installs || cut.log_len > self.log.synced_len() {
            return Err(WalError::StaleCut);
        }
        self.log.drop_prefix(cut.log_len);
        self.installs = self.installs.saturating_add(1);
        self.tip = cut.covered;
        if frame.delta {
            self.chain.push(frame.bytes);
            Ok(Vec::new())
        } else {
            Ok(std::mem::replace(&mut self.chain, vec![frame.bytes]))
        }
    }

    /// The bytes that would survive if the process died right now.
    pub fn image(&self) -> DurableImage {
        DurableImage {
            checkpoint: self.chain.concat(),
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
        self.chain.iter().map(Vec::len).sum()
    }

    /// Bytes of each frame of the checkpoint chain: the full frame, then
    /// the deltas.
    pub fn checkpoint_frames(&self) -> Vec<usize> {
        self.chain.iter().map(Vec::len).collect()
    }

    /// Sequence the next append will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The log device's counters since the last checkpoint install.
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

    /// Checkpoint everything logged so far with `payload` as the cell.
    fn checkpoint_now(store: &mut DurableStore, payload: &[u8]) -> u64 {
        let cut = store.cut_point();
        store
            .install_at_cut(cut.frame(|out| out.extend_from_slice(payload)))
            .unwrap();
        cut.covered()
    }

    fn seqs(recovered: &RecoveredStore) -> Vec<u64> {
        recovered.records.iter().map(|(s, _)| *s).collect()
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
        let covered = checkpoint_now(&mut store, b"snapshot-at-3");
        assert_eq!(covered, 3);
        assert_eq!(store.log_len(), 0);
        for v in 4..=5 {
            store.commit(&rec(v)).unwrap();
        }
        let (_, recovered) = DurableStore::from_image(store.image(), CrashPlan::none()).unwrap();
        assert_eq!(recovered.checkpoint, Some((3, b"snapshot-at-3".to_vec())));
        assert_eq!(seqs(&recovered), vec![4, 5]);
    }

    #[test]
    fn install_keeps_the_records_appended_after_the_cut() {
        let mut store = DurableStore::new(CrashPlan::none());
        for v in 1..=3 {
            store.commit(&rec(v)).unwrap();
        }
        let cut = store.cut_point();
        let at_cut = store.log_len();
        let frame = cut.frame(|out| out.extend_from_slice(b"snapshot-at-3"));
        for v in 4..=5 {
            store.commit(&rec(v)).unwrap();
        }
        let before = store.log_len();
        let replaced = store.install_at_cut(frame).unwrap();
        assert!(replaced.is_empty(), "a fresh store has no cell to replace");
        assert_eq!(store.log_len(), before - at_cut, "only the cut prefix goes");
        let (reopened, recovered) =
            DurableStore::from_image(store.image(), CrashPlan::none()).unwrap();
        assert_eq!(recovered.checkpoint, Some((3, b"snapshot-at-3".to_vec())));
        assert_eq!(seqs(&recovered), vec![4, 5]);
        assert_eq!(recovered.records[1], (5, rec(5)));
        assert_eq!(reopened.next_seq(), 6);
    }

    #[test]
    fn install_is_refused_on_a_crashed_device_and_for_a_stale_cut() {
        let mut store = DurableStore::new(CrashPlan::none());
        store.commit(&rec(1)).unwrap();
        checkpoint_now(&mut store, b"cp-1");
        store.commit(&rec(2)).unwrap();

        // Another install since the cut: the cut's prefix is gone.
        let stale = store.cut_point();
        store.commit(&rec(3)).unwrap();
        checkpoint_now(&mut store, b"cp-3");
        let frame = stale.frame(|out| out.extend_from_slice(b"cp-2"));
        assert_eq!(store.install_at_cut(frame), Err(WalError::StaleCut));

        // A crash between cut and install: the old cell and the whole log
        // stay, and recover.
        store.commit(&rec(4)).unwrap();
        let cut = store.cut_point();
        store.commit(&rec(5)).unwrap();
        store.crash_now();
        let frame = cut.frame(|out| out.extend_from_slice(b"cp-4"));
        assert_eq!(store.install_at_cut(frame), Err(WalError::DeviceCrashed));
        let (_, recovered) = DurableStore::from_image(store.image(), CrashPlan::none()).unwrap();
        assert_eq!(recovered.checkpoint, Some((3, b"cp-3".to_vec())));
        assert_eq!(seqs(&recovered), vec![4, 5]);
    }

    /// Install a delta of everything logged so far with `payload`.
    fn delta_now(store: &mut DurableStore, payload: &[u8]) -> Option<u64> {
        let cut = store.cut_point();
        let frame = cut.delta(|out, room| {
            out.extend_from_slice(payload);
            payload.len() <= room
        })?;
        assert!(store.install_at_cut(frame).unwrap().is_empty());
        Some(cut.covered())
    }

    #[test]
    fn deltas_chain_onto_the_full_frame_and_recover_in_order() {
        let mut store = DurableStore::new(CrashPlan::none());
        assert_eq!(delta_now(&mut store, b"d"), None, "no chain to extend");
        store.commit(&rec(1)).unwrap();
        checkpoint_now(&mut store, &[0xF; 256]);
        store.commit(&rec(2)).unwrap();
        assert_eq!(delta_now(&mut store, b"delta-2"), Some(2));
        store.commit(&rec(3)).unwrap();
        assert_eq!(delta_now(&mut store, b"delta-3"), Some(3));
        store.commit(&rec(4)).unwrap();
        assert_eq!(store.log_len(), log::frame(4, &rec(4).encode()).len());
        let frames = store.checkpoint_frames();
        assert_eq!(frames.len(), 3);
        assert_eq!(store.checkpoint_len(), frames.iter().sum::<usize>());

        let (reopened, recovered) =
            DurableStore::from_image(store.image(), CrashPlan::none()).unwrap();
        assert_eq!(recovered.checkpoint, Some((1, vec![0xF; 256])));
        assert_eq!(
            recovered.deltas,
            vec![(2, b"delta-2".to_vec()), (3, b"delta-3".to_vec())]
        );
        assert_eq!(seqs(&recovered), vec![4]);
        assert_eq!(reopened.checkpoint_frames(), frames);
        assert_eq!(reopened.next_seq(), 5);
    }

    #[test]
    fn deltas_stop_at_half_the_full_frame_and_a_full_frame_restarts_the_chain() {
        let mut store = DurableStore::new(CrashPlan::none());
        checkpoint_now(&mut store, &[0xF; 400]);
        let full = store.checkpoint_len();
        let mut deltas = 0;
        while delta_now(&mut store, &[0xD; 40]).is_some() {
            deltas += 1;
        }
        assert!(
            deltas >= 2,
            "{deltas} deltas of 40 bytes under a 400-byte frame"
        );
        let in_deltas = store.checkpoint_len() - full;
        assert!(
            2 * in_deltas < full,
            "{in_deltas} delta bytes reach half of {full}"
        );
        // A writer told it has no room gives up.
        assert!(store
            .cut_point()
            .delta(|out, room| {
                out.extend_from_slice(&[0xD; 40]);
                room >= 40
            })
            .is_none());
        let replaced = store
            .install_at_cut(
                store
                    .cut_point()
                    .frame(|out| out.extend_from_slice(b"full")),
            )
            .unwrap();
        assert_eq!(replaced.len(), 1 + deltas);
        assert_eq!(store.checkpoint_frames().len(), 1);
        let (_, recovered) = DurableStore::from_image(store.image(), CrashPlan::none()).unwrap();
        assert_eq!(recovered.checkpoint, Some((0, b"full".to_vec())));
        assert!(recovered.deltas.is_empty());
    }

    #[test]
    fn damage_anywhere_in_the_chain_is_fatal() {
        let mut store = DurableStore::new(CrashPlan::none());
        checkpoint_now(&mut store, &[0xF; 64]);
        store.commit(&rec(1)).unwrap();
        delta_now(&mut store, b"delta-1").unwrap();
        let full = store.checkpoint_frames()[0];

        let mut image = store.image();
        let last = image.checkpoint.len() - 1;
        image.checkpoint[last] ^= 0x40;
        match DurableStore::from_image(image, CrashPlan::none()) {
            Err(WalError::Damage(LogDamage::ChecksumMismatch { offset, .. })) => {
                assert_eq!(offset, full, "the delta frame starts after the full frame")
            }
            other => panic!("expected checksum damage in the delta, got {other:?}"),
        }

        // A delta that does not link to the frame before it.
        let mut image = store.image();
        image.checkpoint.truncate(full);
        image
            .checkpoint
            .extend_from_slice(&log::frame(1, &7u64.to_le_bytes()));
        match DurableStore::from_image(image, CrashPlan::none()) {
            Err(WalError::Decode { offset, detail }) => {
                assert_eq!(offset, full);
                assert!(detail.contains("links to Some(7)"), "{detail}");
            }
            other => panic!("expected a broken link, got {other:?}"),
        }
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
        checkpoint_now(&mut store, b"good checkpoint payload");
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
        // The crash op counter keeps ticking across a checkpoint install, so
        // a chaos schedule targeting op N still fires if N lands after a
        // checkpoint.
        let mut store = DurableStore::new(CrashPlan::at_op(5));
        store.commit(&rec(1)).unwrap(); // ops 0,1
        checkpoint_now(&mut store, b"cp");
        store.commit(&rec(2)).unwrap(); // ops 2,3
        store.append(&rec(3)).unwrap(); // op 4
        assert_eq!(store.sync(), Err(WalError::DeviceCrashed)); // op 5
        let (_, recovered) = DurableStore::from_image(store.image(), CrashPlan::none()).unwrap();
        assert_eq!(recovered.checkpoint, Some((1, b"cp".to_vec())));
        assert_eq!(recovered.records.len(), 1);
    }
}
