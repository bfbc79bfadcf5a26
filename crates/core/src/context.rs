//! Caller context: which buffer shard a thread's deposits use
//! ([`caller_hint`]) when its front-end does not name one.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Distinct-per-thread submitter hint for a parallel buffer's `shard`
/// argument (`ConcurrentMap::call` and friends), for front-ends whose
/// callers do not name one.
///
/// The hint picks which buffer shard a deposit lands in and, modulo the
/// shard count, the caller's home shard of a family of maps
/// ([`crate::ConcurrentMap::call_routed`], [`crate::ConcurrentMap::pump_routed`]):
/// the shard it elects and waits on first.  It affects contention and cache
/// locality, never correctness, so a process-wide counter handed out once
/// per thread is all that's needed.
pub fn caller_hint() -> usize {
    static NEXT_HINT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static HINT: Cell<Option<usize>> = const { Cell::new(None) };
    }
    HINT.with(|hint| match hint.get() {
        Some(h) => h,
        None => {
            // ord: Relaxed — the counter only hands out distinct shard hints;
            // nothing is published through it and no other memory access
            // depends on its order.
            let h = NEXT_HINT.fetch_add(1, Ordering::Relaxed);
            hint.set(Some(h));
            h
        }
    })
}
