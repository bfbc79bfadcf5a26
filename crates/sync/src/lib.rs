//! # wsm-sync — the workspace's concurrency leaf crate
//!
//! Every concurrent crate of the workspace takes its `Mutex`, `Condvar`,
//! atomics and threads from here, and this crate depends on nothing else in
//! the workspace:
//!
//! * **Shim types** (`AtomicBool`, `AtomicUsize`, `AtomicU64`, `Mutex`,
//!   `Condvar`, and [`thread`]): in a normal build every operation takes a
//!   one-branch fast path to the `std` primitive (the `Mutex`/`Condvar`
//!   recover from poison, so `lock()` returns the guard directly).  Inside
//!   [`Model::check`] the same operations declare themselves to the
//!   scheduler instead.
//! * **The scheduler** ([`model`]): loom/CHESS-style stateless exploration
//!   of thread interleavings — DFS with CHESS preemption bounding, sleep-set
//!   pruning, an optional TSO store-buffer mode, and replayable failing
//!   schedules.  The protocol harnesses, the seeded-bug fixtures and the
//!   `wsm-lint` analyzer live in `wsm-check`, which depends on this crate;
//!   no serving crate links them.
//! * **The knob parser** ([`env`](mod@env)): one parser for every `WSM_*`
//!   environment variable, warning once on an invalid value.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod env;
pub mod model;
mod sync;
pub mod thread;

pub use model::{Failure, Model, Report};
pub use sync::{
    AtomicBool, AtomicU64, AtomicUsize, Condvar, Mutex, MutexGuard, Ordering, WaitTimeoutResult,
};

/// The shim's real-mode path (outside [`Model::check`]), which serving code
/// takes on every call.
#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn lock_roundtrip_and_into_inner() {
        let m = Mutex::new(5);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 6);
        assert_eq!(m.into_inner(), 6);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (lock, cv) = &*pair2;
            let mut guard = lock.lock();
            while !*guard {
                cv.wait(&mut guard);
            }
        });
        {
            let (lock, cv) = &*pair;
            *lock.lock() = true;
            cv.notify_all();
        }
        t.join().unwrap();
    }

    #[test]
    fn wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let r = cv.wait_for(&mut g, Duration::from_millis(10));
        assert!(r.timed_out());
    }

    #[test]
    fn a_panicking_holder_leaves_the_mutex_lockable() {
        let m = Arc::new(Mutex::new(1));
        let holder = {
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                let mut g = m.lock();
                *g = 2;
                panic!("holder panics with the lock held");
            })
        };
        assert!(holder.join().is_err());
        // The std mutex underneath is poisoned; the shim recovers the guard
        // and keeps the value the holder wrote.
        assert_eq!(*m.lock(), 2);
        *m.lock() = 3;
        let m = Arc::try_unwrap(m).expect("holder thread is gone");
        assert_eq!(m.into_inner(), 3);
    }
}
