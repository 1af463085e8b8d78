#![allow(clippy::unwrap_used, clippy::disallowed_methods)]

//! Lock-queue fairness regression tests: the ticketed FIFO queue must
//! grant same-object contenders in strict arrival order (no starvation by
//! lucky condvar wakeup), and the bounded queue must reject — not enqueue —
//! waiters past the configured depth.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use pdm_core::{Acquire, LockTable, SharedServerError};

/// Eight threads contend for the same object while a holder pins it
/// in-flight. Arrival order is made deterministic by spawning each waiter
/// only after the previous one is observably queued (`queue_depth`), then
/// the holder releases and each grantee immediately releases in turn.
/// The grant order must equal the arrival order, byte for byte.
#[test]
fn same_object_waiters_are_granted_in_strict_arrival_order() {
    const WAITERS: usize = 8;
    let table = Arc::new(LockTable::default());
    let ids = vec![1i64];

    // Holder takes the object in-flight; everyone else must queue.
    assert_eq!(
        table.acquire_in_flight(&ids, 0, None).unwrap(),
        Acquire::Granted
    );

    let order = Arc::new(Mutex::new(Vec::new()));
    let mut handles = Vec::new();
    for waiter in 1..=WAITERS {
        let t = Arc::clone(&table);
        let ids = ids.clone();
        let order = Arc::clone(&order);
        handles.push(std::thread::spawn(move || {
            match t
                .acquire_in_flight(&ids, waiter as u64, Some(Duration::from_secs(30)))
                .unwrap()
            {
                Acquire::Granted => {
                    order.lock().unwrap().push(waiter);
                    t.abort(&ids, waiter as u64);
                }
                Acquire::Busy => panic!("waiter {waiter} saw Busy; nothing is held"),
            }
        }));
        // Don't start the next arrival until this one is queued — this
        // pins the arrival order the FIFO must honor.
        while table.queue_depth() < waiter {
            std::thread::yield_now();
        }
    }

    table.abort(&ids, 0);
    for h in handles {
        h.join().unwrap();
    }
    let got = order.lock().unwrap().clone();
    assert_eq!(
        got,
        (1..=WAITERS).collect::<Vec<_>>(),
        "grants must follow arrival order"
    );
    assert!(table.is_empty());
    assert_eq!(table.queue_depth(), 0);
}

/// Disjoint id sets must NOT head-of-line block behind a queued conflicting
/// ticket: a waiter on {2} queued behind a waiter on {1} is granted
/// immediately once object 2 itself is free.
#[test]
fn disjoint_tickets_do_not_head_of_line_block() {
    let table = Arc::new(LockTable::default());
    // Hold object 1 in flight; a waiter on {1} queues.
    assert_eq!(
        table.acquire_in_flight(&[1], 10, None).unwrap(),
        Acquire::Granted
    );
    let t1 = {
        let table = Arc::clone(&table);
        std::thread::spawn(move || {
            table
                .acquire_in_flight(&[1], 11, Some(Duration::from_secs(30)))
                .unwrap()
        })
    };
    while table.queue_depth() < 1 {
        std::thread::yield_now();
    }
    // Object 2 is free and no queued ticket mentions it: granted at once,
    // despite a non-empty queue.
    assert_eq!(
        table.acquire_in_flight(&[2], 12, None).unwrap(),
        Acquire::Granted
    );
    table.abort(&[1], 10);
    assert_eq!(t1.join().unwrap(), Acquire::Granted);
    table.abort(&[1], 11);
    table.abort(&[2], 12);
    assert!(table.is_empty());
}

/// A bounded queue rejects the (bound+1)-th waiter with `QueueFull` instead
/// of queuing unboundedly — the lock table's contribution to overload
/// fail-fast.
#[test]
fn bounded_queue_rejects_past_depth() {
    let table = Arc::new(LockTable::default());
    table.set_queue_bound(2);
    assert_eq!(
        table.acquire_in_flight(&[1], 0, None).unwrap(),
        Acquire::Granted
    );

    let queued = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();
    for waiter in 1..=2u64 {
        let t = Arc::clone(&table);
        let queued = Arc::clone(&queued);
        handles.push(std::thread::spawn(move || {
            queued.fetch_add(1, Ordering::SeqCst);
            let got = t
                .acquire_in_flight(&[1], waiter, Some(Duration::from_secs(30)))
                .unwrap();
            assert_eq!(got, Acquire::Granted);
            t.abort(&[1], waiter);
        }));
        while table.queue_depth() < waiter as usize {
            std::thread::yield_now();
        }
    }

    // Queue is at its bound: the next waiter is rejected, fast.
    match table.acquire_in_flight(&[1], 99, Some(Duration::from_secs(30))) {
        Err(SharedServerError::QueueFull { depth }) => assert_eq!(depth, 2),
        other => panic!("expected QueueFull, got {other:?}"),
    }
    assert_eq!(table.queue_rejections(), 1);

    table.abort(&[1], 0);
    for h in handles {
        h.join().unwrap();
    }
    assert!(table.is_empty());
}

/// A waiter whose deadline expires leaves the queue (and frees its slot)
/// instead of lingering as a ghost ticket that blocks later arrivals.
#[test]
fn expired_waiter_leaves_the_queue() {
    let table = Arc::new(LockTable::default());
    assert_eq!(
        table.acquire_in_flight(&[1], 0, None).unwrap(),
        Acquire::Granted
    );
    let err = table
        .acquire_in_flight(&[1], 1, Some(Duration::from_millis(30)))
        .unwrap_err();
    assert!(matches!(err, SharedServerError::LockTimeout { .. }));
    assert_eq!(table.queue_depth(), 0, "expired ticket must be removed");
    // Its departure must not wedge anyone: a fresh waiter still proceeds
    // once the holder leaves.
    table.abort(&[1], 0);
    assert_eq!(
        table.acquire_in_flight(&[1], 2, None).unwrap(),
        Acquire::Granted
    );
}
