//! Missed-wakeup-free park/notify primitives (Dekker handshakes).
//!
//! Two pieces, shared by the registry's wake-up channels and exported so the
//! model-checking harness (`crates/check/tests/model_registry.rs`) can
//! exercise the *real* protocol code under the `wsm-sync` scheduler:
//!
//! * [`Latch`] — a one-shot "this job has completed" flag.  It is
//!   deliberately *just* an atomic: the blocking machinery for threads that
//!   wait on a latch lives in a [`WakeGate`] that outlives every job, never
//!   in the job itself.  This is what makes the stack-allocated job protocol
//!   sound — see the safety discussion in `crate::job`.
//! * [`WakeGate`] — the parking side.  Waiters register under the gate
//!   mutex, re-check their condition, then park; notifiers publish their
//!   event *first*, then read the waiter count and take the mutex before
//!   notifying.  The mutex serialises registration/re-check against
//!   bump/notify, so a notification cannot fall between a waiter's re-check
//!   and its park (the missed-wakeup race).
//!
//! The counter/event pair on *opposite sides* of the handshake (`parked` vs
//! the latch flag or the pending-work counter) is a store-buffering (Dekker)
//! pattern: each side stores to one location and loads the other, and both
//! must not miss.  That is exactly the shape TSO store buffers break for
//! anything weaker than `SeqCst`, which is why the atomics here stay
//! `SeqCst` — the scheduler's TSO mode refutes the Release/Acquire variant
//! (see `wsm_check::fixtures::relaxed_dekker_harness` and
//! `docs/ORDERINGS.md`).

use std::time::Duration;
use wsm_sync::{AtomicBool, AtomicUsize, Condvar, Mutex, Ordering};

/// A one-shot "this job has completed" flag.
///
/// All accesses use `SeqCst`: the client-wakeup handshake relies on a total
/// order between `set` / `probe` and the waiter-count atomics (a
/// Dekker-style pattern that weaker orderings do not guarantee — refuted
/// under the model's TSO mode).
#[derive(Debug, Default)]
pub struct Latch {
    set: AtomicBool,
}

impl Latch {
    /// Creates an unset latch.
    pub fn new() -> Latch {
        Latch {
            set: AtomicBool::new(false),
        }
    }

    /// True once [`Latch::set`] has been called.
    pub fn probe(&self) -> bool {
        self.set.load(Ordering::SeqCst)
    }

    /// Marks the latch as set.
    ///
    /// For a latch embedded in a stack job this must be the executor's
    /// **last** access to the job's memory: as soon as the store is visible,
    /// the owner may pop the stack frame that contains the job.
    pub fn set(&self) {
        self.set.store(true, Ordering::SeqCst);
    }
}

/// A park/notify gate with a Dekker waiter-count fast path.
///
/// Protocol (model-checked in `crates/check/tests/model_registry.rs`):
///
/// * **Waiter**: take the mutex, increment `parked`, re-check the condition,
///   park on the condvar (releasing the mutex atomically), decrement on the
///   way out.
/// * **Notifier**: publish the event (latch store, queue push + counter
///   bump, terminate flag) *before* calling [`WakeGate::notify`]; `notify`
///   reads `parked` and, if nonzero, takes the mutex and broadcasts.
///
/// Because the waiter's registration and re-check happen under the mutex,
/// any notifier that misses the waiter in `parked` must have read it before
/// the registration — in which case the waiter's subsequent re-check sees
/// the already-published event and never parks.
#[derive(Debug, Default)]
pub struct WakeGate {
    mutex: Mutex<()>,
    cv: Condvar,
    parked: AtomicUsize,
}

impl WakeGate {
    /// Creates a gate with no waiters.
    pub const fn new() -> WakeGate {
        WakeGate {
            mutex: Mutex::new(()),
            cv: Condvar::new(),
            parked: AtomicUsize::new(0),
        }
    }

    /// Parks the calling thread until `done()` returns true.  `done` is
    /// evaluated under the gate mutex, so it must not block on this gate.
    pub fn wait_until(&self, mut done: impl FnMut() -> bool) {
        if done() {
            return;
        }
        let mut guard = self.mutex.lock();
        self.parked.fetch_add(1, Ordering::SeqCst);
        while !done() {
            self.cv.wait(&mut guard);
        }
        self.parked.fetch_sub(1, Ordering::SeqCst);
    }

    /// Parks for at most `timeout` if `idle()` holds after registration.
    ///
    /// One bounded nap, not a loop: the caller re-evaluates the world and
    /// comes back.  The timeout is a liveness backstop for conditions whose
    /// notifiers are only best-effort; correctness never depends on it.
    pub fn wait_brief(&self, mut idle: impl FnMut() -> bool, timeout: Duration) {
        let mut guard = self.mutex.lock();
        self.parked.fetch_add(1, Ordering::SeqCst);
        if idle() {
            let _ = self.cv.wait_for(&mut guard, timeout);
        }
        self.parked.fetch_sub(1, Ordering::SeqCst);
    }

    /// Wakes every parked waiter if there are any.  Publish the event the
    /// waiters re-check *before* calling this.
    pub fn notify(&self) {
        if self.parked.load(Ordering::SeqCst) > 0 {
            // Taking the mutex serialises with the waiter's registration /
            // re-check, so the notification cannot be lost.
            let _guard = self.mutex.lock();
            self.cv.notify_all();
        }
    }

    /// Number of currently parked waiters (racy; diagnostics only).
    pub fn parked(&self) -> usize {
        // ord: Relaxed — diagnostics-only reading of the Dekker counter; the
        // handshake itself always reads it with SeqCst in notify.
        self.parked.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn latch_set_then_probe() {
        let l = Latch::new();
        assert!(!l.probe());
        l.set();
        assert!(l.probe());
    }

    #[test]
    fn wait_until_returns_once_condition_set() {
        let gate = Arc::new(WakeGate::new());
        let latch = Arc::new(Latch::new());
        let waiter = {
            let (gate, latch) = (Arc::clone(&gate), Arc::clone(&latch));
            std::thread::spawn(move || gate.wait_until(|| latch.probe()))
        };
        // Publish the event, then notify — the handshake order.
        latch.set();
        gate.notify();
        waiter.join().unwrap();
        assert_eq!(gate.parked(), 0);
    }

    #[test]
    fn wait_until_already_done_never_parks() {
        let gate = WakeGate::new();
        gate.wait_until(|| true);
        assert_eq!(gate.parked(), 0);
    }

    #[test]
    fn wait_brief_times_out_without_notify() {
        let gate = WakeGate::new();
        // Nobody will ever notify: must come back via the timeout.
        gate.wait_brief(|| true, Duration::from_millis(5));
        assert_eq!(gate.parked(), 0);
    }

    #[test]
    fn notify_without_waiters_is_cheap_noop() {
        let gate = WakeGate::new();
        gate.notify();
        assert_eq!(gate.parked(), 0);
    }
}
