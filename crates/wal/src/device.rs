//! A simulated append-only storage device with fsync barriers and seeded
//! crash faults.
//!
//! The device models the durability contract of a real disk as the WAL
//! needs it: bytes become durable only at a sync barrier; a crash may do
//! anything to the unsynced tail — drop it, tear the final write at an
//! arbitrary byte, or persist whole sectors plus a garbage partial sector.
//! Which of those happens, and where the tear lands, is a pure function of
//! the [`CrashPlan`] seed, mirroring the `FaultPlan` discipline of
//! `pdm-net`: every crash scenario replays from one integer.

use pdm_prng::{splitmix64, Prng};

use crate::WalError;

/// Simulated sector size: a partial-sector crash persists the tail up to
/// this boundary and garbles (part of) the next sector.
pub const SECTOR: usize = 512;

/// What happens to the unsynced tail when the device crashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailFault {
    /// The whole unsynced tail is lost (the classic lost-write crash).
    LoseTail,
    /// A seed-chosen byte prefix of the tail survives — the final record is
    /// torn mid-frame.
    TornWrite,
    /// Whole sectors of the tail survive; the sector being written at crash
    /// time persists with seed-chosen garbage contents (detected by the
    /// record checksum, never trusted).
    PartialSector,
}

/// A seeded, reproducible crash schedule. `crash_at_op` counts device
/// operations (appends and syncs, zero-based); when the counter reaches it
/// the operation fails, the device marks itself crashed, and `fault` is
/// applied to the unsynced tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    pub seed: u64,
    pub crash_at_op: Option<u64>,
    pub fault: TailFault,
}

impl CrashPlan {
    /// Never crash.
    pub fn none() -> Self {
        CrashPlan {
            seed: 0,
            crash_at_op: None,
            fault: TailFault::LoseTail,
        }
    }

    /// Crash at device operation `op` (0-based across appends and syncs).
    pub fn at_op(op: u64) -> Self {
        CrashPlan {
            seed: 0,
            crash_at_op: Some(op),
            fault: TailFault::LoseTail,
        }
    }

    pub fn with_fault(mut self, fault: TailFault) -> Self {
        self.fault = fault;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn is_none(&self) -> bool {
        self.crash_at_op.is_none()
    }

    /// Deterministic generator for the fault's free choices (tear offset,
    /// garbage bytes), keyed on the op index so distinct crash points make
    /// independent draws.
    pub fn rng_for(&self, op: u64) -> Prng {
        Prng::seed_from_u64(splitmix64(self.seed ^ splitmix64(op.wrapping_add(1))))
    }
}

/// Operation counters, exposed for the benchmark harness (syncs are the
/// expensive operation a checkpoint policy trades against recovery time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    pub appends: u64,
    pub syncs: u64,
    pub bytes_written: u64,
}

/// The simulated device. Append-only byte store with a durable prefix
/// (`synced_len`) advanced by [`SimDevice::sync`].
#[derive(Debug, Clone)]
pub struct SimDevice {
    data: Vec<u8>,
    synced_len: usize,
    ops: u64,
    stats: DeviceStats,
    plan: CrashPlan,
    crashed: bool,
}

impl SimDevice {
    pub fn new(plan: CrashPlan) -> Self {
        SimDevice {
            data: Vec::new(),
            synced_len: 0,
            ops: 0,
            stats: DeviceStats::default(),
            plan,
            crashed: false,
        }
    }

    /// Re-open a device from bytes that survived a crash: everything is
    /// durable, and no further crash is scheduled.
    pub fn with_contents(bytes: Vec<u8>) -> Self {
        let len = bytes.len();
        SimDevice {
            data: bytes,
            synced_len: len,
            ops: 0,
            stats: DeviceStats::default(),
            plan: CrashPlan::none(),
            crashed: false,
        }
    }

    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    pub fn stats(&self) -> DeviceStats {
        self.stats
    }

    /// Replace the crash schedule (used when re-opening a recovered image
    /// under a fresh chaos plan).
    pub fn set_plan(&mut self, plan: CrashPlan) {
        self.plan = plan;
    }

    /// Bytes that survive any crash from here on.
    pub(crate) fn synced_len(&self) -> usize {
        self.synced_len
    }

    /// Drop the first `len` bytes, which the caller has checked are durable
    /// (a checkpoint covers them). The bytes after them stay, and the crash
    /// plan and operation counter carry on, so a scheduled crash still lands
    /// after a checkpoint. The [`DeviceStats`] restart: they count the
    /// operations since the last checkpoint.
    pub(crate) fn drop_prefix(&mut self, len: usize) {
        self.data.drain(..len);
        self.synced_len = self.synced_len.saturating_sub(len);
        self.stats = DeviceStats::default();
    }

    /// Total bytes currently on the device (durable prefix + unsynced tail,
    /// or the post-fault image after a crash).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Bytes a recovery scan would read. Before a crash this is the full
    /// content; after a crash it is the faulted image.
    pub fn surviving(&self) -> &[u8] {
        &self.data
    }

    fn step(&mut self) -> Result<(), WalError> {
        if self.crashed {
            return Err(WalError::DeviceCrashed);
        }
        let op = self.ops;
        self.ops += 1;
        if self.plan.crash_at_op == Some(op) {
            self.crash(op);
            return Err(WalError::DeviceCrashed);
        }
        Ok(())
    }

    /// Append bytes to the unsynced tail. Fails (leaving the device crashed,
    /// with the tail fault applied) if this operation hits the crash point.
    pub fn append(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        // Model the crash as striking mid-write: the bytes of this append
        // are part of the unsynced tail the fault mangles.
        if !self.crashed && self.plan.crash_at_op == Some(self.ops) {
            self.data.extend_from_slice(bytes);
        }
        self.step()?;
        self.data.extend_from_slice(bytes);
        self.stats.appends += 1;
        self.stats.bytes_written += bytes.len() as u64;
        Ok(())
    }

    /// Durability barrier: everything appended so far survives any later
    /// crash. Fails if this operation hits the crash point (the tail is
    /// then mangled *without* having become durable).
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.step()?;
        self.synced_len = self.data.len();
        self.stats.syncs += 1;
        Ok(())
    }

    /// Force a crash now (used by the harness to kill the device at a
    /// boundary the plan did not schedule).
    pub fn crash_now(&mut self) {
        if !self.crashed {
            let op = self.ops;
            self.crash(op);
        }
    }

    fn crash(&mut self, op: u64) {
        self.crashed = true;
        let tail_len = self.data.len() - self.synced_len;
        if tail_len == 0 {
            return;
        }
        let mut rng = self.plan.rng_for(op);
        match self.plan.fault {
            TailFault::LoseTail => {
                self.data.truncate(self.synced_len);
            }
            TailFault::TornWrite => {
                // Any strict prefix of the tail may survive.
                let keep = rng.index(tail_len);
                self.data.truncate(self.synced_len + keep);
            }
            TailFault::PartialSector => {
                // Sectors fully contained in the durable-or-written image
                // persist; the in-flight sector persists with garbage.
                let end = self.data.len();
                let boundary = (end / SECTOR) * SECTOR;
                let keep = boundary.max(self.synced_len);
                let torn = end - keep;
                self.data.truncate(keep);
                if torn > 0 {
                    let garbage = rng.usize_inclusive(1, torn);
                    for _ in 0..garbage {
                        self.data.push(rng.next_u64() as u8);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synced_prefix_survives_any_fault() {
        for fault in [
            TailFault::LoseTail,
            TailFault::TornWrite,
            TailFault::PartialSector,
        ] {
            // ops: append(0) sync(1) append(2) crash-at-3
            let mut dev = SimDevice::new(CrashPlan::at_op(3).with_fault(fault).with_seed(9));
            dev.append(b"durable!").unwrap();
            dev.sync().unwrap();
            dev.append(b"doomed tail bytes").unwrap();
            assert_eq!(dev.sync(), Err(WalError::DeviceCrashed));
            assert!(dev.is_crashed());
            assert!(dev.surviving().starts_with(b"durable!"), "{fault:?}");
            // Everything fails after the crash.
            assert_eq!(dev.append(b"x"), Err(WalError::DeviceCrashed));
        }
    }

    #[test]
    fn lose_tail_drops_exactly_the_unsynced_bytes() {
        let mut dev = SimDevice::new(CrashPlan::at_op(3));
        dev.append(b"keep").unwrap();
        dev.sync().unwrap();
        dev.append(b"drop").unwrap();
        let _ = dev.sync();
        assert_eq!(dev.surviving(), b"keep");
    }

    #[test]
    fn torn_write_keeps_a_strict_prefix_of_the_tail() {
        for seed in 0..50 {
            let mut dev = SimDevice::new(
                CrashPlan::at_op(2)
                    .with_fault(TailFault::TornWrite)
                    .with_seed(seed),
            );
            dev.append(b"base").unwrap();
            dev.sync().unwrap();
            let _ = dev.append(b"0123456789");
            let surviving = dev.surviving();
            assert!(surviving.len() < 4 + 10, "tail fully survived");
            assert!(surviving.starts_with(b"base") || surviving.len() < 4);
            assert!(b"base0123456789".starts_with(surviving));
        }
    }

    #[test]
    fn crash_during_append_can_tear_that_append() {
        // Crash at op 0: the very first append is struck mid-write.
        let mut dev = SimDevice::new(
            CrashPlan::at_op(0)
                .with_fault(TailFault::TornWrite)
                .with_seed(4),
        );
        assert_eq!(dev.append(b"abcdef"), Err(WalError::DeviceCrashed));
        assert!(b"abcdef".starts_with(dev.surviving()));
    }

    #[test]
    fn partial_sector_keeps_whole_sectors_and_garbles_the_rest() {
        let mut dev = SimDevice::new(
            CrashPlan::at_op(2)
                .with_fault(TailFault::PartialSector)
                .with_seed(7),
        );
        let big = vec![0xAAu8; SECTOR + 100];
        dev.append(&big).unwrap();
        dev.sync().unwrap();
        let tail = vec![0xBBu8; SECTOR + 40];
        let _ = dev.append(&tail);
        let surviving = dev.surviving();
        // The first full sector of the tail survived intact.
        let synced = SECTOR + 100;
        let full_sectors_end = ((synced + tail.len()) / SECTOR) * SECTOR;
        assert!(surviving.len() >= full_sectors_end);
        assert!(surviving[synced..full_sectors_end]
            .iter()
            .all(|&b| b == 0xBB));
        // Whatever follows is garbage, not the written 0xBB pattern (with
        // this seed; garbage *could* coincide, the checksum is the real
        // defense).
        assert!(surviving[full_sectors_end..].iter().any(|&b| b != 0xBB));
    }

    #[test]
    fn crash_is_deterministic_per_seed() {
        let image = |seed: u64| {
            let mut dev = SimDevice::new(
                CrashPlan::at_op(1)
                    .with_fault(TailFault::TornWrite)
                    .with_seed(seed),
            );
            dev.append(b"0123456789abcdef").unwrap();
            let _ = dev.sync();
            dev.surviving().to_vec()
        };
        assert_eq!(image(5), image(5));
    }

    #[test]
    fn stats_count_operations() {
        let mut dev = SimDevice::new(CrashPlan::none());
        dev.append(b"abc").unwrap();
        dev.append(b"de").unwrap();
        dev.sync().unwrap();
        let s = dev.stats();
        assert_eq!(s.appends, 2);
        assert_eq!(s.syncs, 1);
        assert_eq!(s.bytes_written, 5);
    }

    #[test]
    fn reopened_device_is_fully_durable() {
        let dev = SimDevice::with_contents(b"restored".to_vec());
        assert!(!dev.is_crashed());
        assert_eq!(dev.surviving(), b"restored");
        assert_eq!(dev.len(), 8);
    }
}
