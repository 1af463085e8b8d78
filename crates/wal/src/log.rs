//! Log framing: length-prefixed, checksummed records over a byte device.
//
// lint:allow-file(unchecked-index): framing code — every slice read is
// preceded by an explicit remaining-length guard; a panic here would mean
// the guard logic itself is wrong, which the torn-tail tests cover.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! +------+---------+---------+---------+----------------+
//! | 0xA5 | len u32 | seq u64 | crc u32 | payload (len)  |
//! +------+---------+---------+---------+----------------+
//! ```
//!
//! `crc` is CRC-32 over `seq_le || payload`. The scanner walks frames from
//! offset 0 and stops at the first sign of damage — a bad magic byte, an
//! implausible length, a truncated frame, or a checksum mismatch — and
//! reports it with its byte offset. Everything before the damage is a valid
//! record prefix; a torn or corrupted tail can only ever cost the records
//! at the very end, never reorder or corrupt earlier ones undetected.

use std::fmt;

use crate::codec::crc32_pair;
use crate::device::SimDevice;
use crate::WalError;

/// First byte of every frame; makes "log truncated mid-frame followed by
/// garbage" overwhelmingly likely to be caught by framing alone, before the
/// checksum even runs.
pub const MAGIC: u8 = 0xA5;

/// Fixed frame header size: magic + len + seq + crc.
pub const HEADER: usize = 1 + 4 + 8 + 4;

/// Upper bound on a record payload; lengths beyond this are treated as
/// damage (a torn length field would otherwise ask for gigabytes).
pub const MAX_RECORD: u32 = 1 << 26;

/// Structural damage found while scanning a log, with enough context to
/// print a useful diagnostic (offset, expected vs found checksum).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogDamage {
    /// Fewer than `HEADER` bytes remained at `offset`.
    TruncatedHeader { offset: usize, have: usize },
    /// The header promised `need` payload bytes; only `have` remained.
    TruncatedRecord {
        offset: usize,
        need: usize,
        have: usize,
    },
    /// The frame at `offset` does not start with [`MAGIC`].
    BadMagic { offset: usize, found: u8 },
    /// The length field is beyond [`MAX_RECORD`].
    OversizedRecord { offset: usize, len: u32 },
    /// The frame checksum does not match its contents.
    ChecksumMismatch {
        offset: usize,
        expected: u32,
        found: u32,
    },
}

impl LogDamage {
    /// Byte offset of the damaged frame — also the length of the valid
    /// prefix that precedes it.
    pub fn offset(&self) -> usize {
        match self {
            LogDamage::TruncatedHeader { offset, .. }
            | LogDamage::TruncatedRecord { offset, .. }
            | LogDamage::BadMagic { offset, .. }
            | LogDamage::OversizedRecord { offset, .. }
            | LogDamage::ChecksumMismatch { offset, .. } => *offset,
        }
    }
}

impl fmt::Display for LogDamage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogDamage::TruncatedHeader { offset, have } => {
                write!(f, "truncated header at offset {offset}: {have} bytes remain")
            }
            LogDamage::TruncatedRecord { offset, need, have } => write!(
                f,
                "truncated record at offset {offset}: need {need} payload bytes, {have} remain"
            ),
            LogDamage::BadMagic { offset, found } => {
                write!(f, "bad magic {found:#04x} at offset {offset}")
            }
            LogDamage::OversizedRecord { offset, len } => {
                write!(f, "implausible record length {len} at offset {offset}")
            }
            LogDamage::ChecksumMismatch {
                offset,
                expected,
                found,
            } => write!(
                f,
                "checksum mismatch at offset {offset}: expected {expected:#010x}, found {found:#010x}"
            ),
        }
    }
}

/// Result of scanning a byte image: the valid record prefix, the number of
/// bytes it spans, and the damage (if any) that ended the scan.
#[derive(Debug, Clone, PartialEq)]
pub struct LogScan {
    /// `(seq, payload)` for every intact record, in log order.
    pub records: Vec<(u64, Vec<u8>)>,
    /// Bytes covered by the intact records; truncating the image to this
    /// length yields a fully valid log.
    pub valid_len: usize,
    /// What ended the scan early, if anything.
    pub damage: Option<LogDamage>,
}

/// Encode one frame.
pub fn frame(seq: u64, payload: &[u8]) -> Vec<u8> {
    frame_with(seq, |out| out.extend_from_slice(payload))
}

/// Encode one frame whose payload `write_payload` appends straight into
/// the frame's buffer, written once, in place. The header is filled in
/// afterwards.
pub fn frame_with(seq: u64, write_payload: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = vec![0u8; HEADER];
    write_payload(&mut out);
    seal(seq, &mut out);
    out
}

/// Fill in the header of a frame whose payload follows `HEADER` zeroed
/// bytes in `out`: magic, length, `seq` and the checksum.
pub(crate) fn seal(seq: u64, out: &mut [u8]) {
    let len = (out.len() - HEADER) as u32;
    let seq_bytes = seq.to_le_bytes();
    let crc = crc32_pair(&seq_bytes, &out[HEADER..]);
    out[0] = MAGIC;
    out[1..5].copy_from_slice(&len.to_le_bytes());
    out[5..13].copy_from_slice(&seq_bytes);
    out[13..HEADER].copy_from_slice(&crc.to_le_bytes());
}

/// Append one framed record to the device (no sync — the caller decides
/// where the durability barriers go).
pub fn append_record(dev: &mut SimDevice, seq: u64, payload: &[u8]) -> Result<(), WalError> {
    dev.append(&frame(seq, payload))
}

/// Walk `bytes` frame by frame, stopping at the first damage.
pub fn scan(bytes: &[u8]) -> LogScan {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let damage = loop {
        if pos == bytes.len() {
            break None;
        }
        let remaining = bytes.len() - pos;
        if remaining < HEADER {
            break Some(LogDamage::TruncatedHeader {
                offset: pos,
                have: remaining,
            });
        }
        if bytes[pos] != MAGIC {
            break Some(LogDamage::BadMagic {
                offset: pos,
                found: bytes[pos],
            });
        }
        let len = u32::from_le_bytes([
            bytes[pos + 1],
            bytes[pos + 2],
            bytes[pos + 3],
            bytes[pos + 4],
        ]);
        if len > MAX_RECORD {
            break Some(LogDamage::OversizedRecord { offset: pos, len });
        }
        let mut seq_bytes = [0u8; 8];
        seq_bytes.copy_from_slice(&bytes[pos + 5..pos + 13]);
        let seq = u64::from_le_bytes(seq_bytes);
        let found = u32::from_le_bytes([
            bytes[pos + 13],
            bytes[pos + 14],
            bytes[pos + 15],
            bytes[pos + 16],
        ]);
        let need = len as usize;
        if remaining - HEADER < need {
            break Some(LogDamage::TruncatedRecord {
                offset: pos,
                need,
                have: remaining - HEADER,
            });
        }
        let payload = &bytes[pos + HEADER..pos + HEADER + need];
        let expected = crc32_pair(&seq_bytes, payload);
        if expected != found {
            break Some(LogDamage::ChecksumMismatch {
                offset: pos,
                expected,
                found,
            });
        }
        records.push((seq, payload.to_vec()));
        pos += HEADER + need;
    };
    LogScan {
        records,
        valid_len: pos,
        damage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::CrashPlan;

    fn sample_log() -> Vec<u8> {
        let mut dev = SimDevice::new(CrashPlan::none());
        append_record(&mut dev, 1, b"first").unwrap();
        append_record(&mut dev, 2, b"").unwrap();
        append_record(&mut dev, 3, b"third record payload").unwrap();
        dev.sync().unwrap();
        dev.surviving().to_vec()
    }

    #[test]
    fn round_trip() {
        let scan = scan(&sample_log());
        assert_eq!(scan.damage, None);
        assert_eq!(
            scan.records,
            vec![
                (1, b"first".to_vec()),
                (2, Vec::new()),
                (3, b"third record payload".to_vec()),
            ]
        );
        assert_eq!(scan.valid_len, sample_log().len());
    }

    #[test]
    fn any_truncation_yields_a_valid_prefix() {
        let full = sample_log();
        let complete = scan(&full).records;
        for cut in 0..full.len() {
            let s = scan(&full[..cut]);
            assert!(
                complete.starts_with(&s.records),
                "cut at {cut} produced a non-prefix"
            );
            if cut != full.len() {
                // Shorter image either ends exactly on a frame boundary
                // (fewer whole records, no damage) or reports damage.
                let whole: usize = s.valid_len;
                assert!(whole <= cut);
            }
        }
    }

    #[test]
    fn bit_flip_is_detected_or_leaves_valid_prefix() {
        let full = sample_log();
        let complete = scan(&full).records;
        for bit in 0..full.len() * 8 {
            let mut img = full.clone();
            img[bit / 8] ^= 1 << (bit % 8);
            let s = scan(&img);
            // Either the damage is reported, or (flip in a later frame) the
            // surviving records are a clean prefix of the originals.
            assert!(
                s.damage.is_some() || s.records == complete,
                "bit {bit}: undetected corruption"
            );
            assert!(
                complete.starts_with(&s.records),
                "bit {bit}: corrupted record accepted"
            );
        }
    }

    #[test]
    fn checksum_mismatch_reports_expected_and_found() {
        let mut img = sample_log();
        let last = img.len() - 1;
        img[last] ^= 0xFF; // corrupt final payload byte
        let s = scan(&img);
        match s.damage {
            Some(LogDamage::ChecksumMismatch {
                expected, found, ..
            }) => assert_ne!(expected, found),
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
        assert_eq!(s.records.len(), 2);
    }

    #[test]
    fn damage_offset_equals_valid_prefix_len() {
        let full = sample_log();
        let cut = full.len() - 3;
        let s = scan(&full[..cut]);
        let d = s.damage.expect("must report damage");
        assert_eq!(d.offset(), s.valid_len);
    }

    #[test]
    fn oversized_length_is_damage_not_allocation() {
        let mut img = vec![MAGIC];
        img.extend_from_slice(&u32::MAX.to_le_bytes());
        img.extend_from_slice(&[0u8; 12]);
        let s = scan(&img);
        assert!(matches!(
            s.damage,
            Some(LogDamage::OversizedRecord { offset: 0, .. })
        ));
    }
}
