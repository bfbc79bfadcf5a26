//! Activation interface (paper Definition 36).
//!
//! An activation interface guards a process `P` with a readiness condition
//! `C`.  `Activate()` runs `P` iff no other activation is currently running it
//! and `C` holds; `P` returns whether it wants to be re-activated immediately.
//! The paper uses this to drive the M2 interface and every final-slab segment:
//! whichever thread makes a segment ready simply activates it, and at most one
//! run of the segment is in flight at a time.

use crate::trylock::NonBlockingLock;

/// An activation interface around a guarded process.
///
/// The condition and the process are supplied per call (as closures over the
/// caller's state) rather than stored, which keeps the interface free of
/// lifetimes/`dyn` plumbing while preserving the protocol of Definition 36:
///
/// ```text
/// Activate():
///   if TryLock(active):
///     reactivate := false
///     if C(): reactivate := P()
///     Unlock(active)
///     if reactivate: Activate()
/// ```
///
/// As in the paper, any actor that makes `C` become true must call
/// [`Activation::activate`] afterwards; the interface itself does not poll.
#[derive(Debug, Default)]
pub struct Activation {
    active: NonBlockingLock,
}

impl Activation {
    /// Creates an idle activation interface.
    pub const fn new() -> Self {
        Activation {
            active: NonBlockingLock::new(),
        }
    }

    /// Attempts to run the guarded process.
    ///
    /// * `ready` is the readiness condition `C`.
    /// * `process` is the process `P`; it returns `true` to request immediate
    ///   reactivation (the paper's `reactivate` flag).
    ///
    /// Returns the number of times `process` actually ran during this call
    /// (0 if the interface was already active or not ready).
    pub fn activate<C, P>(&self, mut ready: C, mut process: P) -> usize
    where
        C: FnMut() -> bool,
        P: FnMut() -> bool,
    {
        let mut runs = 0;
        // The recursion of Definition 36 is turned into a loop: each iteration
        // is one `Activate()` call.
        loop {
            if !self.active.try_lock() {
                return runs;
            }
            let mut reactivate = false;
            if ready() {
                reactivate = process();
                runs += 1;
            }
            self.active.unlock();
            if !reactivate {
                return runs;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn runs_only_when_ready() {
        let a = Activation::new();
        let mut ran = 0;
        assert_eq!(a.activate(|| false, || panic!("must not run")), 0);
        assert_eq!(
            a.activate(
                || true,
                || {
                    ran += 1;
                    false
                }
            ),
            1
        );
        assert_eq!(ran, 1);
    }

    #[test]
    fn reactivation_loops_until_declined() {
        let a = Activation::new();
        let remaining = std::cell::Cell::new(5);
        let runs = a.activate(
            || remaining.get() > 0,
            || {
                remaining.set(remaining.get() - 1);
                true // always ask to be reactivated; readiness stops us
            },
        );
        assert_eq!(runs, 5);
        assert_eq!(remaining.get(), 0);
    }

    #[test]
    fn at_most_one_concurrent_run() {
        let a = Arc::new(Activation::new());
        let inside = Arc::new(AtomicBool::new(false));
        let runs = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let a = Arc::clone(&a);
                let inside = Arc::clone(&inside);
                let runs = Arc::clone(&runs);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        a.activate(
                            || true,
                            || {
                                assert!(
                                    !inside.swap(true, Ordering::SeqCst),
                                    "two concurrent runs of the guarded process"
                                );
                                // Simulate a little work.
                                std::hint::spin_loop();
                                runs.fetch_add(1, Ordering::Relaxed);
                                inside.store(false, Ordering::SeqCst);
                                false
                            },
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(runs.load(Ordering::Relaxed) >= 1);
    }
}
