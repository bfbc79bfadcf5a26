//! # wsm-sync — the combiner's locking primitives (paper Appendix A.4)
//!
//! The QRMW pointer machine model of the paper cannot support constant-time
//! random-access blocking locks, so the paper builds its coordination out of
//! non-blocking primitives (Definitions 35 and 36).  This crate keeps the two
//! that a serving path uses:
//!
//! * a **non-blocking lock** ([`NonBlockingLock`], `TryLock`/`Unlock` on a
//!   test-and-set bit), and
//! * an **activation interface** ([`Activation`]) built on it: `Activate()`
//!   starts a guarded process iff it is not already running and its
//!   readiness condition holds, and the process may request its own
//!   reactivation.
//!
//! `wsm_core::ConcurrentMap` is the one user: the [`Activation`] of its
//! parallel buffer elects the combiner that flushes the buffer and runs the
//! batch.  The buffer's shards themselves are plain mutex-guarded vectors in
//! `wsm_core::buffer`.  M2 does not use these primitives — it drives its
//! pipeline stages with an explicit queue inside one batch.
//!
//! The implementations run on real atomics rather than on the idealised
//! QRMW machine; the behavioural contract (mutual exclusion, at-most-one
//! concurrent run of an activated process) is preserved, which is what the
//! correctness arguments of the paper rely on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod trylock;

pub use activation::Activation;
pub use trylock::{NonBlockingLock, TryLockGuard};
