#![allow(clippy::unwrap_used)]

//! `pdm_obs::lock`: each order rule with a breaking case and its passing
//! twin. The order and crossing checks exist in debug builds only (and in
//! a release build with debug assertions on); poison recovery holds in
//! every build.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use pdm_obs::lock::{crossing, Lock, LockId, RwLock};

static FLOOR: LockId = LockId::new("test.floor", 0);
static OUTER: LockId = LockId::new("test.outer", 10);
static INNER: LockId = LockId::new("test.inner", 20);
static SHARED: LockId = LockId::new("test.shared", 30);
static DEVICE: LockId =
    LockId::new("test.device", 40).across_io("the test's stand-in for a commit");

/// The message of a panic payload.
#[cfg(debug_assertions)]
fn message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => payload
            .downcast::<&str>()
            .map_or_else(|_| String::new(), |s| (*s).to_string()),
    }
}

#[cfg(debug_assertions)]
fn panic_of(f: impl FnOnce()) -> String {
    message(catch_unwind(AssertUnwindSafe(f)).expect_err("the acquisition must panic"))
}

/// This thread holds nothing: the lowest level is free to take.
fn holds_nothing() -> bool {
    let floor = Lock::new(&FLOOR, ());
    catch_unwind(AssertUnwindSafe(|| drop(floor.lock()))).is_ok()
}

#[test]
#[cfg(debug_assertions)]
fn taking_a_lower_level_while_holding_a_higher_one_panics_naming_both() {
    let (outer, inner) = (Lock::new(&OUTER, 1), Lock::new(&INNER, 2));
    let msg = panic_of(|| {
        let _inner = inner.lock();
        let _outer = outer.lock();
    });
    assert!(
        msg.contains("test.outer") && msg.contains("test.inner"),
        "{msg}"
    );
    assert!(holds_nothing(), "the unwound guard left its class held");
}

#[test]
fn taking_levels_in_ascending_order_passes() {
    let (outer, inner) = (Lock::new(&OUTER, 1), Lock::new(&INNER, 2));
    let a = outer.lock();
    let b = inner.lock();
    assert_eq!(*a + *b, 3);
}

#[test]
#[cfg(debug_assertions)]
fn a_class_taken_again_while_held_panics_instead_of_hanging() {
    // Two locks of one class, and one lock twice (which would block on
    // itself forever): both panic before blocking.
    let (a, b) = (Lock::new(&OUTER, 1), Lock::new(&OUTER, 2));
    let msg = panic_of(|| {
        let _a = a.lock();
        let _b = b.lock();
    });
    assert!(msg.contains("test.outer") && msg.contains("again"), "{msg}");
    let msg = panic_of(|| {
        let _a = a.lock();
        let _again = a.lock();
    });
    assert!(msg.contains("again"), "{msg}");
    let shared = RwLock::new(&SHARED, 0);
    let msg = panic_of(|| {
        let _read = shared.read();
        let _write = shared.write();
    });
    assert!(msg.contains("test.shared"), "{msg}");
    assert!(holds_nothing());
}

#[test]
fn a_class_taken_again_after_its_guard_dropped_passes() {
    let a = Lock::new(&OUTER, 1);
    drop(a.lock());
    *a.lock() += 1;
    let shared = RwLock::new(&SHARED, 0);
    drop(shared.read());
    *shared.write() += 1;
    assert_eq!((*a.lock(), *shared.read()), (2, 1));
}

#[test]
#[cfg(debug_assertions)]
fn crossing_while_holding_an_undeclared_lock_panics() {
    let (inner, device) = (Lock::new(&INNER, ()), Lock::new(&DEVICE, ()));
    let msg = panic_of(|| {
        let _inner = inner.lock();
        let _device = device.lock();
        crossing("test.fsync");
    });
    assert!(
        msg.contains("test.fsync") && msg.contains("test.inner"),
        "{msg}"
    );
    assert!(holds_nothing());
}

#[test]
fn crossing_while_holding_only_declared_locks_passes() {
    crossing("test.exchange");
    let device = Lock::new(&DEVICE, ());
    let _device = device.lock();
    crossing("test.fsync");
}

#[test]
fn guards_dropped_out_of_order_leave_nothing_held() {
    let (outer, inner, shared) = (
        Lock::new(&OUTER, ()),
        Lock::new(&INNER, ()),
        RwLock::new(&SHARED, ()),
    );
    let a = outer.lock();
    let b = inner.lock();
    let c = shared.read();
    drop(a);
    drop(c);
    drop(b);
    assert!(holds_nothing());
}

#[test]
fn guards_dropped_while_unwinding_leave_nothing_held() {
    let (outer, inner, shared) = (
        Lock::new(&OUTER, ()),
        Lock::new(&INNER, ()),
        RwLock::new(&SHARED, ()),
    );
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        let _a = outer.lock();
        let _b = inner.lock();
        let _c = shared.write();
        panic!("a holder panics");
    }));
    assert!(unwound.is_err());
    assert!(holds_nothing());
}

#[test]
fn a_poisoned_lock_is_recovered() {
    let lock = Arc::new(Lock::new(&OUTER, 7));
    let rw = Arc::new(RwLock::new(&SHARED, 8));
    let (l, r) = (Arc::clone(&lock), Arc::clone(&rw));
    let holder = std::thread::spawn(move || {
        let _g = l.lock();
        let _w = r.write();
        panic!("a holder panics");
    });
    assert!(holder.join().is_err());
    *lock.lock() += 1;
    *rw.write() += 1;
    assert_eq!((*lock.lock(), *rw.read()), (8, 9));
}
