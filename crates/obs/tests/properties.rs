//! Property tests for the observability primitives: histogram quantile
//! error bounds and exact merges over random streams, and span-nesting
//! invariants over randomly generated span trees.

#![allow(clippy::unwrap_used, clippy::disallowed_methods)]

use pdm_obs::{kinds, Histogram, Recorder, SpanRecord};
use pdm_prng::Prng;

/// True nearest-rank quantile over the raw samples (the reference the
/// histogram estimate is checked against).
fn true_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[test]
fn quantile_error_bound_holds_on_random_streams() {
    let mut rng = Prng::seed_from_u64(0xB0B0_0B5E);
    for trial in 0..200 {
        let h = Histogram::new();
        let n = rng.usize_inclusive(1, 400);
        let mut samples = Vec::with_capacity(n);
        for _ in 0..n {
            // Mix magnitudes: exact linear region, mid-range, and huge.
            let v = match rng.index(3) {
                0 => rng.u64_inclusive(0, 15),
                1 => rng.u64_inclusive(16, 1 << 20),
                _ => rng.u64_inclusive(1 << 20, 1 << 50),
            };
            h.record(v);
            samples.push(v);
        }
        samples.sort_unstable();
        for q in [0.01, 0.25, 0.50, 0.75, 0.95, 0.99, 1.0] {
            let est = h.quantile(q);
            let truth = true_quantile(&samples, q);
            assert!(
                est <= truth,
                "trial {trial} q={q}: estimate {est} above true {truth}"
            );
            // Log-linear layout: bucket width is lower/16 above the linear
            // cutoff, zero below it.
            assert!(
                truth <= est + est / 16,
                "trial {trial} q={q}: true {truth} beyond bound of estimate {est}"
            );
            if truth < 16 {
                assert_eq!(est, truth, "linear region must be exact");
            }
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, n as u64);
        assert_eq!(snap.min, samples[0]);
        assert_eq!(snap.max, *samples.last().unwrap());
        assert_eq!(snap.sum, samples.iter().copied().sum::<u64>());
    }
}

#[test]
fn merge_is_exact_and_commutative_on_random_streams() {
    let mut rng = Prng::seed_from_u64(0x5EED_CAFE);
    for _ in 0..100 {
        let a = Histogram::new();
        let b = Histogram::new();
        let ab = Histogram::new();
        let ba = Histogram::new();
        let combined = Histogram::new();
        for _ in 0..rng.usize_inclusive(0, 200) {
            let magnitude = rng.u64_inclusive(0, 40);
            let v = rng.u64_inclusive(0, 1 << magnitude);
            a.record(v);
            combined.record(v);
        }
        for _ in 0..rng.usize_inclusive(0, 200) {
            let magnitude = rng.u64_inclusive(0, 40);
            let v = rng.u64_inclusive(0, 1 << magnitude);
            b.record(v);
            combined.record(v);
        }
        ab.merge(&a);
        ab.merge(&b);
        ba.merge(&b);
        ba.merge(&a);
        // Exact: merging equals having recorded the combined stream, in
        // either order.
        assert_eq!(ab.snapshot(), combined.snapshot());
        assert_eq!(ba.snapshot(), combined.snapshot());
    }
}

/// Build a random span tree on `rec`, interleaving zero-width server spans,
/// time-advancing network records, and nested children. Returns the number
/// of spans opened.
fn grow_random_tree(rec: &Recorder, rng: &mut Prng, depth: usize) -> usize {
    let mut opened = 0;
    let branches = rng.usize_inclusive(1, 3);
    for _ in 0..branches {
        let guard = rec.span(kinds::ENGINE_QUERY, format!("d{depth}"));
        opened += 1;
        // Random interior activity: network exchanges advance virtual time,
        // server-side work does not.
        for _ in 0..rng.index(3) {
            let v_s = rng.f64_range(0.001, 0.5);
            rec.record_wide(kinds::NET_EXCHANGE, "x", v_s, &[("latency_s", v_s)]);
        }
        if depth < 3 && rng.bool() {
            opened += grow_random_tree(rec, rng, depth + 1);
        }
        drop(guard);
    }
    opened
}

#[test]
fn span_nesting_invariants_hold_on_random_trees() {
    let mut rng = Prng::seed_from_u64(0xDECA_FBAD);
    for _ in 0..50 {
        let rec = Recorder::new();
        rec.begin_action();
        let root = rec.span(kinds::ACTION, "action");
        let opened = grow_random_tree(&rec, &mut rng, 0);
        drop(root);

        let spans = rec.spans();
        assert!(spans.len() > opened);
        check_invariants(&spans);
    }
}

fn check_invariants(spans: &[SpanRecord]) {
    // Wide spans tile the timeline: each starts at the bits where the
    // running sum of the earlier `v_s` stands.
    let mut sum = 0.0f64;
    for s in spans.iter().filter(|s| s.attr("v_s").is_some()) {
        assert_eq!(s.v_start.to_bits(), sum.to_bits());
        sum += s.attr("v_s").unwrap();
        assert_eq!(s.v_end.to_bits(), sum.to_bits());
    }
    assert_eq!(
        spans[0].v_end.to_bits(),
        sum.to_bits(),
        "the root closes at the sum"
    );
    for (i, s) in spans.iter().enumerate() {
        assert!(!s.open, "span {i} ({}) left open", s.kind.full_name());
        assert!(s.v_start <= s.v_end, "span {i}: negative virtual duration");
        assert!(s.wall_start_ns <= s.wall_end_ns);
        match s.parent {
            None => {
                // Exactly one root: the action span, recorded first.
                assert_eq!(i, 0, "orphan span {i} ({})", s.kind.full_name());
            }
            Some(p) => {
                // Parents are recorded before their children, and a child's
                // virtual interval is contained in its parent's.
                assert!(p < i, "span {i} points forward to parent {p}");
                let parent = &spans[p];
                assert!(
                    parent.v_start <= s.v_start && s.v_end <= parent.v_end,
                    "span {i} [{}, {}] escapes parent {p} [{}, {}]",
                    s.v_start,
                    s.v_end,
                    parent.v_start,
                    parent.v_end
                );
            }
        }
    }
}

/// Flight-ring stress: writer threads hammer one shared recorder with
/// events and closed spans while another thread concurrently resets the
/// action timeline (`begin_action`). The ring must stay bounded, never
/// panic or deadlock, and survive with the most recent events intact.
#[test]
fn flight_ring_survives_concurrent_resets() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let rec = Recorder::new();
    let stop = Arc::new(AtomicBool::new(false));

    let writers: Vec<_> = (0..4)
        .map(|w| {
            let rec = rec.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    rec.event(kinds::NET_FAULT, format!("w{w} e{i}"));
                    rec.record_wide(kinds::NET_EXCHANGE, format!("w{w} q{i}"), 1.0, &[]);
                    i += 1;
                }
                i
            })
        })
        .collect();

    let resetter = {
        let rec = rec.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut n = 0u32;
            while !stop.load(Ordering::Relaxed) {
                rec.begin_action();
                // Touch read paths under contention too.
                let _ = rec.flight().len();
                let _ = rec.spans().len();
                n += 1;
            }
            n
        })
    };

    std::thread::sleep(std::time::Duration::from_millis(120));
    stop.store(true, Ordering::Relaxed);
    let written: u64 = writers.into_iter().map(|w| w.join().unwrap()).sum();
    let resets = resetter.join().unwrap();
    assert!(written > 0 && resets > 0, "both sides made progress");

    // Ring stayed bounded and is still functional after the storm.
    let flight = rec.flight();
    assert!(flight.len() <= pdm_obs::flight::FLIGHT_CAPACITY);
    rec.event(kinds::NET_BACKOFF, "post-storm");
    let flight = rec.flight();
    assert_eq!(flight.last().unwrap().label, "post-storm");
    assert!(flight.len() <= pdm_obs::flight::FLIGHT_CAPACITY);
}
