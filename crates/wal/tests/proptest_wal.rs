//! Property tests for the WAL record codec and log framing (seeded corpora
//! through `pdm_prng::check`, the offline proptest replacement).
//!
//! The central durability property: for ANY byte-level truncation or ANY
//! single-bit flip of a log image, scanning either (a) cleanly reports the
//! damage, or (b) yields a log whose records are a *prefix* of the original
//! sequence — never a corrupted, reordered, or invented record.

#![allow(clippy::unwrap_used)]

use std::sync::Arc;

use pdm_prng::check::cases;
use pdm_prng::Prng;
use pdm_sql::Database;
use pdm_wal::{log, CrashPlan, SimDevice, WalRecord};

fn arbitrary_record(rng: &mut Prng) -> WalRecord {
    fn ids(rng: &mut Prng) -> Vec<i64> {
        (0..rng.index(6))
            .map(|_| rng.i64_inclusive(1, 5000))
            .collect()
    }
    match rng.index(5) {
        0 => WalRecord::DmlCommit {
            version: rng.u64_inclusive(1, 1 << 40),
            sql: format!(
                "UPDATE {} SET checkedout = {} WHERE obid IN ({})",
                if rng.bool() { "assy" } else { "comp" },
                if rng.bool() { "TRUE" } else { "FALSE" },
                rng.i64_inclusive(1, 9999)
            ),
        },
        1 => WalRecord::CheckoutGrant {
            token: rng.u64_inclusive(1, 1 << 32),
            assy_ids: ids(rng),
            comp_ids: ids(rng),
        },
        2 => WalRecord::CheckoutRelease { ids: ids(rng) },
        3 => WalRecord::TokenComplete {
            token: rng.u64_inclusive(1, 1 << 32),
            rows: None,
        },
        _ => {
            // A token outcome carrying real rows exercises the nested
            // result-set codec.
            let mut db = Database::new();
            db.execute("CREATE TABLE t (a INTEGER NOT NULL, b VARCHAR, c DOUBLE)")
                .unwrap();
            let n = rng.index(4) + 1;
            for i in 0..n {
                db.execute(&format!(
                    "INSERT INTO t VALUES ({}, '{}', {})",
                    i,
                    rng.ident(1, 8),
                    rng.f64_range(-10.0, 10.0)
                ))
                .unwrap();
            }
            WalRecord::TokenComplete {
                token: rng.u64_inclusive(1, 1 << 32),
                rows: Some(Arc::new(db.query("SELECT * FROM t ORDER BY a").unwrap())),
            }
        }
    }
}

#[test]
fn record_encode_decode_round_trip() {
    cases("wal_record_round_trip", 128, 0x0DEC_AF01, |rng| {
        let rec = arbitrary_record(rng);
        let bytes = rec.encode();
        assert_eq!(WalRecord::decode(&bytes).unwrap(), rec);
    });
}

fn build_log(rng: &mut Prng) -> (Vec<u8>, Vec<(u64, WalRecord)>) {
    let mut dev = SimDevice::new(CrashPlan::none());
    let n = rng.index(6) + 1;
    let mut originals = Vec::with_capacity(n);
    for seq in 1..=n as u64 {
        let rec = arbitrary_record(rng);
        log::append_record(&mut dev, seq, &rec.encode()).unwrap();
        originals.push((seq, rec));
    }
    dev.sync().unwrap();
    (dev.surviving().to_vec(), originals)
}

fn decoded_prefix(image: &[u8]) -> Vec<(u64, WalRecord)> {
    let scan = log::scan(image);
    scan.records
        .into_iter()
        .map(|(seq, payload)| {
            let rec = WalRecord::decode(&payload)
                .expect("a checksum-valid record must decode (corruption leaked through)");
            (seq, rec)
        })
        .collect()
}

#[test]
fn any_truncation_detected_or_valid_shorter_prefix() {
    cases("wal_truncation_prefix", 48, 0x0DEC_AF02, |rng| {
        let (image, originals) = build_log(rng);
        // Every truncation point, not a sample: the image is small enough.
        for cut in 0..=image.len() {
            let scan = log::scan(&image[..cut]);
            let survived = decoded_prefix(&image[..cut]);
            assert!(
                originals.starts_with(&survived),
                "cut {cut}: survived records are not a prefix"
            );
            if survived.len() < originals.len() && cut < image.len() {
                // Lost records must be accounted for: either the cut landed
                // exactly on a frame boundary (clean shorter log) or the
                // scan reported damage.
                assert!(
                    scan.damage.is_some() || scan.valid_len == cut,
                    "cut {cut}: silent record loss"
                );
            }
        }
    });
}

#[test]
fn any_single_bit_flip_detected_or_valid_shorter_prefix() {
    cases("wal_bit_flip_prefix", 24, 0x0DEC_AF03, |rng| {
        let (image, originals) = build_log(rng);
        // Sample bit positions (exhaustive is O(bits × records) and the
        // truncation test already covers structure); always include the
        // first and last byte.
        let mut positions: Vec<usize> = (0..48).map(|_| rng.index(image.len() * 8)).collect();
        positions.push(0);
        positions.push(image.len() * 8 - 1);
        for bit in positions {
            let mut flipped = image.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let scan = log::scan(&flipped);
            let survived = decoded_prefix(&flipped);
            assert!(
                scan.damage.is_some() || survived == originals,
                "bit {bit}: corruption neither detected nor harmless"
            );
            assert!(
                originals.starts_with(&survived),
                "bit {bit}: a corrupted record was accepted"
            );
        }
    });
}

#[test]
fn torn_device_crashes_always_leave_a_recoverable_prefix() {
    use pdm_wal::{DurableStore, TailFault};
    cases("wal_torn_crash_prefix", 64, 0x0DEC_AF04, |rng| {
        let fault = match rng.index(3) {
            0 => TailFault::LoseTail,
            1 => TailFault::TornWrite,
            _ => TailFault::PartialSector,
        };
        let n_records = rng.index(8) + 1;
        // Each record costs two device ops (append + sync); crash anywhere
        // inside the run.
        let crash_op = rng.u64_inclusive(0, (n_records as u64) * 2 - 1);
        let plan = CrashPlan::at_op(crash_op)
            .with_fault(fault)
            .with_seed(rng.next_u64());
        let mut store = DurableStore::new(plan);
        let mut durable: Vec<(u64, WalRecord)> = Vec::new();
        for i in 1..=n_records as u64 {
            let rec = arbitrary_record(rng);
            if store.commit(&rec).is_ok() {
                durable.push((i, rec));
            } else {
                break;
            }
        }
        let (_, recovered) = DurableStore::from_image(store.image(), CrashPlan::none()).unwrap();
        // Exactly the synced records survive — fsync is a hard barrier, and
        // the torn tail never invents or corrupts a record.
        assert_eq!(recovered.records, durable, "fault {fault:?} op {crash_op}");
    });
}
