//! Shim synchronization types: drop-in stand-ins for `std::sync::atomic::*`
//! and for a `Mutex`/`Condvar` whose `lock()` returns the guard directly,
//! which production crates use directly.
//!
//! In a normal build/run every operation takes a one-branch fast path (a
//! `const`-initialised thread-local flag check) and delegates to the real
//! `std` primitive — semantics and performance are unchanged.  A poisoned
//! `std` lock is recovered transparently: a panic while holding the shim
//! `Mutex` leaves it lockable, with the value the holder left behind.
//! Inside a [`crate::model::Model::check`] execution the flag is set, and the
//! same operations instead *declare* themselves to the model scheduler and
//! park until the explored schedule grants them, which is what lets the
//! checker enumerate interleavings deterministically.
//!
//! Model-mode semantic notes:
//!
//! * `Condvar::wait` never wakes spuriously in the model — that is the
//!   *adversarial* choice for missed-wakeup detection, because a spurious
//!   wake can only mask a lost notification.  `wait_timeout` may time out at
//!   any schedule point (a scheduler choice), bounded per thread by
//!   [`crate::model::Model::max_timeouts`].
//! * Atomic orderings are honoured by the TSO mode only for plain stores
//!   (buffered unless `SeqCst`); loads, RMWs and lock edges act on visible
//!   memory.  See the `model` module docs for what this can and cannot
//!   refute.

use crate::model::{current_handle, Handle, Loc, LocKind, Op, Rmw};
pub use std::sync::atomic::Ordering;
use std::sync::PoisonError;

/// Result of a timed condvar wait.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// True if the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

macro_rules! shim_atomic {
    ($(#[$meta:meta])* $name:ident, $std:ident, $ty:ty) => {
        $(#[$meta])*
        pub struct $name {
            inner: std::sync::atomic::$std,
        }

        impl $name {
            /// Creates a new atomic with the given initial value.
            pub const fn new(v: $ty) -> Self {
                Self {
                    inner: std::sync::atomic::$std::new(v),
                }
            }

            fn loc(&self, h: &Handle) -> Loc {
                h.exec.loc(
                    self as *const _ as usize,
                    LocKind::Atomic,
                    self.inner.load(Ordering::SeqCst) as usize,
                )
            }

            /// Atomic load.
            pub fn load(&self, ord: Ordering) -> $ty {
                match current_handle() {
                    None => self.inner.load(ord),
                    Some(h) => {
                        let l = self.loc(&h);
                        h.exec.declare(&h, Op::Load(l, ord)).0 as $ty
                    }
                }
            }

            /// Atomic store.
            pub fn store(&self, v: $ty, ord: Ordering) {
                match current_handle() {
                    None => self.inner.store(v, ord),
                    Some(h) => {
                        let l = self.loc(&h);
                        h.exec.declare(&h, Op::Store(l, v as usize, ord));
                    }
                }
            }

            /// Atomic swap; returns the previous value.
            pub fn swap(&self, v: $ty, ord: Ordering) -> $ty {
                match current_handle() {
                    None => self.inner.swap(v, ord),
                    Some(h) => {
                        let l = self.loc(&h);
                        h.exec.declare(&h, Op::Rmw(l, Rmw::Swap(v as usize), ord)).0 as $ty
                    }
                }
            }

            /// Atomic fetch-add (wrapping); returns the previous value.
            pub fn fetch_add(&self, v: $ty, ord: Ordering) -> $ty {
                match current_handle() {
                    None => self.inner.fetch_add(v, ord),
                    Some(h) => {
                        let l = self.loc(&h);
                        h.exec.declare(&h, Op::Rmw(l, Rmw::Add(v as usize), ord)).0 as $ty
                    }
                }
            }

            /// Atomic fetch-sub (wrapping); returns the previous value.
            pub fn fetch_sub(&self, v: $ty, ord: Ordering) -> $ty {
                match current_handle() {
                    None => self.inner.fetch_sub(v, ord),
                    Some(h) => {
                        let l = self.loc(&h);
                        h.exec.declare(&h, Op::Rmw(l, Rmw::Sub(v as usize), ord)).0 as $ty
                    }
                }
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self::new(0 as $ty)
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_tuple(stringify!($name))
                    .field(&self.load(Ordering::SeqCst))
                    .finish()
            }
        }
    };
}

shim_atomic!(
    /// Shim for `std::sync::atomic::AtomicUsize`; see the module docs.
    AtomicUsize,
    AtomicUsize,
    usize
);
shim_atomic!(
    /// Shim for `std::sync::atomic::AtomicU64`; see the module docs.
    /// Model-mode values are stored as `usize` (64-bit platforms).
    AtomicU64,
    AtomicU64,
    u64
);

/// Shim for `std::sync::atomic::AtomicBool`; see the module docs.
pub struct AtomicBool {
    inner: std::sync::atomic::AtomicBool,
}

impl AtomicBool {
    /// Creates a new atomic bool.
    pub const fn new(v: bool) -> Self {
        Self {
            inner: std::sync::atomic::AtomicBool::new(v),
        }
    }

    fn loc(&self, h: &Handle) -> Loc {
        h.exec.loc(
            self as *const _ as usize,
            LocKind::Atomic,
            self.inner.load(Ordering::SeqCst) as usize,
        )
    }

    /// Atomic load.
    pub fn load(&self, ord: Ordering) -> bool {
        match current_handle() {
            None => self.inner.load(ord),
            Some(h) => {
                let l = self.loc(&h);
                h.exec.declare(&h, Op::Load(l, ord)).0 != 0
            }
        }
    }

    /// Atomic store.
    pub fn store(&self, v: bool, ord: Ordering) {
        match current_handle() {
            None => self.inner.store(v, ord),
            Some(h) => {
                let l = self.loc(&h);
                h.exec.declare(&h, Op::Store(l, v as usize, ord));
            }
        }
    }

    /// Atomic swap; returns the previous value.
    pub fn swap(&self, v: bool, ord: Ordering) -> bool {
        match current_handle() {
            None => self.inner.swap(v, ord),
            Some(h) => {
                let l = self.loc(&h);
                h.exec.declare(&h, Op::Rmw(l, Rmw::Swap(v as usize), ord)).0 != 0
            }
        }
    }
}

impl Default for AtomicBool {
    fn default() -> Self {
        Self::new(false)
    }
}

impl std::fmt::Debug for AtomicBool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("AtomicBool")
            .field(&self.load(Ordering::SeqCst))
            .finish()
    }
}

/// Shim mutex: `lock()` returns a guard directly (no poison `Result`; a
/// poisoned lock is recovered); under the model the lock/unlock edges are
/// scheduling points arbitrated by the checker.
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::Mutex::new(value),
        }
    }

    fn loc(&self, h: &Handle) -> Loc {
        h.exec
            .loc(self as *const Mutex<T> as usize, LocKind::Mutex, 0)
    }

    /// Acquires the mutex, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match current_handle() {
            None => MutexGuard {
                lock: self,
                inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
            },
            Some(h) => {
                let l = self.loc(&h);
                h.exec.declare(&h, Op::MutexLock(l));
                MutexGuard {
                    lock: self,
                    inner: Some(self.granted()),
                }
            }
        }
    }

    /// The inner lock of a mutex the scheduler has granted this model
    /// thread.  Every other model thread physically releases before
    /// declaring its unlock, so the inner lock is free.
    fn granted(&self) -> std::sync::MutexGuard<'_, T> {
        match self.inner.try_lock() {
            Ok(inner) => inner,
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => {
                panic!("model granted a physically held mutex")
            }
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

/// Guard for [`Mutex`]; releasing it is a scheduling point under the model.
pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds the lock")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard holds the lock")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Physically release first, then tell the scheduler: the next model
        // thread is only granted the lock after our unlock is applied, so it
        // always finds the inner mutex free.
        let held = self.inner.take().is_some();
        if !held {
            return;
        }
        if std::thread::panicking() {
            // Unwinding (assertion failure or model teardown): skip the
            // scheduling point — declaring here could double-panic.
            return;
        }
        if let Some(h) = current_handle() {
            let l = self.lock.loc(&h);
            h.exec.declare(&h, Op::MutexUnlock(l));
        }
    }
}

/// Shim condition variable whose waits take `&mut MutexGuard`; under the
/// model, waits and notifies are scheduler transitions with no spurious
/// wake-ups (see module docs).
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Self {
            inner: std::sync::Condvar::new(),
        }
    }

    fn loc(&self, h: &Handle) -> Loc {
        h.exec
            .loc(self as *const Condvar as usize, LocKind::Condvar, 0)
    }

    /// Blocks until notified, releasing `guard`'s mutex while waiting.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        self.wait_inner(guard, false);
    }

    /// Blocks until notified or (in real runs) `timeout` elapses.  Under the
    /// model the timeout is a scheduler choice, not a clock.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: std::time::Duration,
    ) -> WaitTimeoutResult {
        match current_handle() {
            None => {
                let inner = guard.inner.take().expect("guard holds the lock");
                let (inner, r) = self
                    .inner
                    .wait_timeout(inner, timeout)
                    .unwrap_or_else(PoisonError::into_inner);
                guard.inner = Some(inner);
                WaitTimeoutResult {
                    timed_out: r.timed_out(),
                }
            }
            Some(_) => WaitTimeoutResult {
                timed_out: self.wait_inner(guard, true),
            },
        }
    }

    fn wait_inner<T>(&self, guard: &mut MutexGuard<'_, T>, timed: bool) -> bool {
        match current_handle() {
            None => {
                let inner = guard.inner.take().expect("guard holds the lock");
                let inner = self
                    .inner
                    .wait(inner)
                    .unwrap_or_else(PoisonError::into_inner);
                guard.inner = Some(inner);
                false
            }
            Some(h) => {
                let cv = self.loc(&h);
                let mutex = guard.lock.loc(&h);
                // Physically release before declaring: the scheduler performs
                // the model release-and-enqueue atomically, and only grants
                // the mutex onward after that.
                drop(guard.inner.take());
                let (_, timed_out) = h.exec.declare(&h, Op::CvWait { cv, mutex, timed });
                // Granted = the model mutex was reassigned to us after a
                // notify or timeout; the physical lock is free (see above).
                guard.inner = Some(guard.lock.granted());
                timed_out
            }
        }
    }

    /// Wakes one waiter (FIFO under the model).
    pub fn notify_one(&self) {
        match current_handle() {
            None => {
                self.inner.notify_one();
            }
            Some(h) => {
                let cv = self.loc(&h);
                h.exec.declare(&h, Op::CvNotify { cv, all: false });
            }
        }
    }

    /// Wakes all current waiters.
    pub fn notify_all(&self) {
        match current_handle() {
            None => {
                self.inner.notify_all();
            }
            Some(h) => {
                let cv = self.loc(&h);
                h.exec.declare(&h, Op::CvNotify { cv, all: true });
            }
        }
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Condvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}
