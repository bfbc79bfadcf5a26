//! Caller-context tracking: is the current thread an async service task,
//! and which buffer shard should its deposits use ([`caller_hint`])?
//!
//! The blocking wait of [`crate::ConcurrentMap`] parks on the map's
//! doorbell: it assumes the calling thread is an ordinary OS thread that can
//! afford to sleep.  A *service task* — a future polled by the `wsm-svc` executor —
//! must never park the executor worker it happens to be running on: with a
//! single worker the park is a deadlock (the parked worker is the only
//! thread that could poll the task whose combine would ring the doorbell),
//! and with several it silently removes a worker from the executor for the
//! whole wait.
//!
//! The executor therefore brackets every poll with [`ServiceTaskGuard`], and
//! the blocking paths consult [`in_service_task`]:
//!
//! * `ConcurrentMap::call`/`call_batch`/`wait_batch` wait in the
//!   never-parking bounded-backoff loop instead of parking;
//! * `ShardedMap::run_batch` has no rule of its own: it waits only through
//!   `wait_batch`, and not parking suffices, because an activation is never
//!   held across a suspension point — a task that loses a combiner election
//!   is waiting on a thread that is running, and one whose operations are
//!   still buffered wins the election itself.
//!
//! The flag is a plain thread-local — it needs no atomicity (a thread only
//! consults its own flag) and it nests (a service task that itself polls a
//! nested future stays "in service").

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// Depth of service-task polls on this thread (0 = ordinary thread).
    static SERVICE_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Distinct-per-thread submitter hint for a parallel buffer's `shard`
/// argument (`ConcurrentMap::call` and friends), for front-ends whose
/// callers do not name one.
///
/// The hint only picks which lock-free ring a deposit lands in; it affects
/// contention, never correctness, so a process-wide counter handed out once
/// per thread is all that's needed.
pub fn caller_hint() -> usize {
    static NEXT_HINT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static HINT: Cell<Option<usize>> = const { Cell::new(None) };
    }
    HINT.with(|hint| match hint.get() {
        Some(h) => h,
        None => {
            // ord: Relaxed — the counter only hands out distinct ring hints;
            // nothing is published through it and no other memory access
            // depends on its order.
            let h = NEXT_HINT.fetch_add(1, Ordering::Relaxed);
            hint.set(Some(h));
            h
        }
    })
}

/// True while the current thread is polling an async service task (an
/// executor worker inside a poll, including `block_on` on a caller thread).
pub fn in_service_task() -> bool {
    SERVICE_DEPTH.with(|d| d.get() > 0)
}

/// RAII marker: the current thread is polling a service task until the guard
/// drops.  Nests safely.
#[must_use = "the context flag clears when the guard drops"]
pub struct ServiceTaskGuard(());

impl Default for ServiceTaskGuard {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceTaskGuard {
    /// Marks the current thread as a service task context.
    pub fn new() -> Self {
        SERVICE_DEPTH.with(|d| d.set(d.get() + 1));
        ServiceTaskGuard(())
    }
}

impl Drop for ServiceTaskGuard {
    fn drop(&mut self) {
        SERVICE_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_is_scoped_and_nests() {
        assert!(!in_service_task());
        {
            let _outer = ServiceTaskGuard::new();
            assert!(in_service_task());
            {
                let _inner = ServiceTaskGuard::new();
                assert!(in_service_task());
            }
            assert!(in_service_task());
        }
        assert!(!in_service_task());
    }

    #[test]
    fn flag_is_per_thread() {
        let _guard = ServiceTaskGuard::new();
        assert!(in_service_task());
        std::thread::spawn(|| assert!(!in_service_task()))
            .join()
            .unwrap();
    }
}
