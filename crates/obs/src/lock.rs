//! Named, levelled locks: every lock in the workspace is a [`Lock`] or an
//! [`RwLock`] built with a `static` [`LockId`] naming its class and level.
//!
//! A thread takes a lock only above every level it already holds. Debug
//! builds keep each thread's held classes, and an acquisition that breaks
//! the rule panics *before it blocks*, naming both classes: an order
//! inversion and a class taken again while held (a `std::sync`
//! self-deadlock) fail on the first run that takes the path, not on the
//! interleaving that deadlocks. A lock held across I/O by design says so,
//! with its reason ([`LockId::across_io`]); [`crossing`] marks where a call
//! leaves the process and asserts that every held lock declares it.
//!
//! Release builds compile both checks out: [`Lock::lock`],
//! [`RwLock::read`] and [`RwLock::write`] are the `std::sync` call with
//! poison recovered (every critical section here leaves its data
//! consistent if its holder panics), and [`crossing`] is empty.
//!
//! ```
//! use pdm_obs::lock::{Lock, LockId};
//!
//! static OUTER: LockId = LockId::new("doc.outer", 10);
//! static INNER: LockId = LockId::new("doc.inner", 20);
//!
//! let (outer, inner) = (Lock::new(&OUTER, 1), Lock::new(&INNER, 2));
//! assert_eq!(*outer.lock() + *inner.lock(), 3); // 20 above 10: in order
//! ```

use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, MutexGuard, PoisonError, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

/// A lock class: its name, its level in the acquisition order, and — for a
/// lock held across I/O by design — why.
#[derive(Debug)]
pub struct LockId {
    pub name: &'static str,
    pub level: u32,
    /// `Some(reason)`: guards of this class may be held at a [`crossing`].
    pub io: Option<&'static str>,
}

impl LockId {
    /// A lock class that is never held across I/O.
    pub const fn new(name: &'static str, level: u32) -> LockId {
        LockId {
            name,
            level,
            io: None,
        }
    }

    /// This class, held across I/O by design for `reason`.
    pub const fn across_io(self, reason: &'static str) -> LockId {
        LockId {
            io: Some(reason),
            ..self
        }
    }
}

/// Where a call leaves the process (`boundary`: a network exchange, an
/// fsync). In debug builds, panics if this thread holds a lock whose
/// [`LockId`] does not declare I/O.
#[inline]
pub fn crossing(boundary: &str) {
    #[cfg(debug_assertions)]
    held::crossing(boundary);
    #[cfg(not(debug_assertions))]
    let _ = boundary;
}

/// A mutex of class `id`.
#[derive(Debug)]
pub struct Lock<T> {
    id: &'static LockId,
    inner: std::sync::Mutex<T>,
}

impl<T> Lock<T> {
    #[expect(
        clippy::disallowed_methods,
        reason = "the one place a mutex is built: it gets its class here"
    )]
    pub const fn new(id: &'static LockId, value: T) -> Lock<T> {
        Lock {
            id,
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Block until the lock is this thread's; a poisoned lock is recovered.
    /// Panics in debug builds, before blocking, if this thread holds a lock
    /// at or above this one's level.
    pub fn lock(&self) -> LockGuard<'_, T> {
        let held = Held::enter(self.id);
        LockGuard {
            guard: self.inner.lock().unwrap_or_else(PoisonError::into_inner),
            _held: held,
        }
    }
}

/// A reader-writer lock of class `id`. A read and a write are the same
/// class: a thread holding either takes neither again.
#[derive(Debug)]
pub struct RwLock<T> {
    id: &'static LockId,
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    #[expect(
        clippy::disallowed_methods,
        reason = "the one place a reader-writer lock is built: it gets its class here"
    )]
    pub const fn new(id: &'static LockId, value: T) -> RwLock<T> {
        RwLock {
            id,
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Shared access, as [`Lock::lock`] takes exclusive access.
    pub fn read(&self) -> ReadGuard<'_, T> {
        let held = Held::enter(self.id);
        ReadGuard {
            guard: self.inner.read().unwrap_or_else(PoisonError::into_inner),
            _held: held,
        }
    }

    /// Exclusive access, as [`Lock::lock`].
    pub fn write(&self) -> WriteGuard<'_, T> {
        let held = Held::enter(self.id);
        WriteGuard {
            guard: self.inner.write().unwrap_or_else(PoisonError::into_inner),
            _held: held,
        }
    }
}

/// A held [`Lock`]. The mutex is released before the class leaves the
/// thread's held list (fields drop in order).
pub struct LockGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    _held: Held,
}

impl<'a, T> LockGuard<'a, T> {
    /// Release the lock and wait on `cv` for at most `timeout`, then take
    /// it back (poison recovered). The class stays on the held list: the
    /// thread takes nothing while it waits.
    pub fn wait_timeout(self, cv: &Condvar, timeout: Duration) -> LockGuard<'a, T> {
        let LockGuard { guard, _held } = self;
        let guard = match cv.wait_timeout(guard, timeout) {
            Ok((guard, _)) => guard,
            Err(poisoned) => poisoned.into_inner().0,
        };
        LockGuard { guard, _held }
    }
}

/// A shared hold on an [`RwLock`].
pub struct ReadGuard<'a, T> {
    guard: RwLockReadGuard<'a, T>,
    _held: Held,
}

/// An exclusive hold on an [`RwLock`].
pub struct WriteGuard<'a, T> {
    guard: RwLockWriteGuard<'a, T>,
    _held: Held,
}

macro_rules! deref_guard {
    ($guard:ident) => {
        impl<T> Deref for $guard<'_, T> {
            type Target = T;
            fn deref(&self) -> &T {
                &self.guard
            }
        }
    };
}

deref_guard!(LockGuard);
deref_guard!(ReadGuard);
deref_guard!(WriteGuard);

impl<T> DerefMut for LockGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> DerefMut for WriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(not(debug_assertions))]
struct Held;

#[cfg(not(debug_assertions))]
impl Held {
    #[inline(always)]
    fn enter(_: &'static LockId) -> Held {
        Held
    }
}

#[cfg(debug_assertions)]
use held::Held;

/// The classes this thread holds, in acquisition order (debug builds).
#[cfg(debug_assertions)]
mod held {
    use std::cell::RefCell;

    use super::LockId;

    thread_local! {
        static HELD: RefCell<Vec<&'static LockId>> = const { RefCell::new(Vec::new()) };
    }

    /// One class on this thread's held list, taken off when dropped.
    pub(super) struct Held(&'static LockId);

    impl Held {
        /// Check `id` against every class held, then hold it.
        pub(super) fn enter(id: &'static LockId) -> Held {
            HELD.with(|held| {
                let mut held = held.borrow_mut();
                if let Some(&top) = held.iter().find(|h| h.level >= id.level) {
                    let (name, level) = (top.name, top.level);
                    drop(held);
                    if std::ptr::eq(top, id) {
                        panic!(
                            "lock `{name}` (level {level}) taken again while this thread \
                             holds it: a self-deadlock"
                        );
                    }
                    panic!(
                        "lock order: `{}` (level {}) taken while holding `{name}` \
                         (level {level}); take a lock only above every level held",
                        id.name, id.level
                    );
                }
                held.push(id);
            });
            Held(id)
        }
    }

    impl Drop for Held {
        fn drop(&mut self) {
            // Guards may drop in any order; a class is on the list once.
            // A drop must not panic: a list gone or borrowed is left alone.
            let _ = HELD.try_with(|held| {
                let Ok(mut held) = held.try_borrow_mut() else {
                    return;
                };
                if let Some(at) = held.iter().rposition(|h| std::ptr::eq(*h, self.0)) {
                    held.remove(at);
                }
            });
        }
    }

    pub(super) fn crossing(boundary: &str) {
        let undeclared = HELD.with(|held| held.borrow().iter().find(|h| h.io.is_none()).copied());
        if let Some(lock) = undeclared {
            panic!(
                "`{boundary}` crossed while holding `{}`, whose LockId does not declare I/O",
                lock.name
            );
        }
    }
}
