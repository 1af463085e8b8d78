//! CRC-32 (IEEE 802.3 polynomial), hand-rolled because the workspace is
//! offline and cannot pull a checksum crate. The tables are computed at
//! compile time. A checkpoint frame is megabytes long and is checksummed on
//! the thread whose commit crossed the checkpoint interval (after it
//! releases the writer, but that client waits for it), so the loop is slice-by-8:
//! eight bytes and eight independent table look-ups per step instead of one
//! dependent look-up per byte.
//
// lint:allow-file(unchecked-index): table lookups are indexed by a byte
// (or a byte-derived value masked to 8 bits) into a 256-entry table —
// in-bounds by construction.

/// Reflected polynomial of CRC-32/ISO-HDLC (the zlib/PNG/Ethernet CRC).
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Fold `bytes` into a running (pre-inverted) CRC register.
fn update(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][c[4] as usize]
            ^ TABLES[2][c[5] as usize]
            ^ TABLES[1][c[6] as usize]
            ^ TABLES[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// CRC-32 of `bytes` (init `0xFFFF_FFFF`, final xor `0xFFFF_FFFF`).
pub fn crc32(bytes: &[u8]) -> u32 {
    update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// CRC-32 over two concatenated slices without materializing the
/// concatenation (the log checksums `seq || payload`).
pub fn crc32_pair(a: &[u8], b: &[u8]) -> u32 {
    update(update(0xFFFF_FFFF, a), b) ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdm_prng::Prng;

    /// The byte-at-a-time loop the slice-by-8 one must agree with.
    fn reference(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // The canonical CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn pair_matches_concatenation() {
        let a = b"hello ";
        let b = b"world";
        assert_eq!(crc32_pair(a, b), crc32(b"hello world"));
        assert_eq!(crc32_pair(b"", b"xyz"), crc32(b"xyz"));
    }

    #[test]
    fn slice_by_8_matches_the_bytewise_reference() {
        let mut rng = Prng::seed_from_u64(0xC4C3_2001);
        for round in 0..100 {
            // Every length 0..64 once (all chunk/remainder shapes), then
            // random lengths up to 4 KiB.
            let len = if round < 64 {
                round
            } else {
                rng.usize_inclusive(0, 4096)
            };
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let expected = reference(&bytes);
            assert_eq!(crc32(&bytes), expected, "len {len}");
            for split in 0..=len {
                assert_eq!(
                    crc32_pair(&bytes[..split], &bytes[split..]),
                    expected,
                    "len {len} split {split}"
                );
            }
        }
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let base = b"the quick brown fox".to_vec();
        let c0 = crc32(&base);
        for i in 0..base.len() * 8 {
            let mut flipped = base.clone();
            flipped[i / 8] ^= 1 << (i % 8);
            assert_ne!(crc32(&flipped), c0, "bit {i} undetected");
        }
    }
}
