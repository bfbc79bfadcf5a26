//! Non-blocking lock (paper Definition 35).
//!
//! `TryLock(x)` is a single test-and-set; `Unlock(x)` is a store.  Acquisition
//! attempts never block: they either succeed immediately or fail.

use wsm_sync::{AtomicBool, Ordering};

/// A non-blocking (test-and-set) lock.
///
/// Mirrors Definition 35 of the paper: `try_lock` is `¬TestAndSet(x)` and
/// `unlock` sets the bit back to `false`.  The lock is not reentrant.
#[derive(Debug, Default)]
pub struct NonBlockingLock {
    held: AtomicBool,
}

impl NonBlockingLock {
    /// Creates an unlocked lock.
    pub const fn new() -> Self {
        NonBlockingLock {
            held: AtomicBool::new(false),
        }
    }

    /// Attempts to acquire the lock; returns `true` on success.
    ///
    /// Uses acquire ordering so that the critical section observes everything
    /// written before the previous `unlock`.
    #[inline]
    pub fn try_lock(&self) -> bool {
        // ord: Acquire — pairs with the Release in unlock so the critical
        // section observes everything written before the previous unlock
        // (model: tests/model_doorbell.rs, combiner mutual exclusion).
        !self.held.swap(true, Ordering::Acquire)
    }

    /// Releases the lock.  Calling this without holding the lock is a logic
    /// error but is memory-safe; it simply marks the lock free.
    #[inline]
    pub fn unlock(&self) {
        // ord: Release — publishes the critical section to the next
        // Acquire swap in try_lock (model: tests/model_doorbell.rs).
        self.held.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn try_lock_succeeds_once() {
        let l = NonBlockingLock::new();
        assert!(l.try_lock());
        assert!(!l.try_lock());
        l.unlock();
        assert!(l.try_lock());
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        // Many threads increment a counter only while holding the try-lock;
        // with a retry loop the final count equals the number of successful
        // critical sections and no increment is lost.
        let lock = Arc::new(NonBlockingLock::new());
        let counter = Arc::new(AtomicU64::new(0));
        let mut unprotected = 0u64;
        let unprotected_ptr = &mut unprotected as *mut u64 as usize;
        let _ = unprotected_ptr; // not used; kept simple and safe below.

        let threads = 8;
        let iters = 2000;
        let shared = Arc::new(std::sync::Mutex::new(0u64)); // reference model
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let counter = Arc::clone(&counter);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    for _ in 0..iters {
                        loop {
                            if lock.try_lock() {
                                // Critical section.
                                let mut g = shared.try_lock().expect(
                                    "another thread inside the critical section: mutual exclusion violated",
                                );
                                *g += 1;
                                drop(g);
                                counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                lock.unlock();
                                break;
                            }
                            std::hint::spin_loop();
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            counter.load(std::sync::atomic::Ordering::Relaxed),
            threads * iters
        );
        assert_eq!(*shared.lock().unwrap(), threads * iters);
    }
}
