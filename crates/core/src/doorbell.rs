//! Generation-counting park/notify doorbell for the combiner hand-off.
//!
//! A [`Doorbell`] is a generation-counting condvar: waiters record the
//! generation they observed and sleep until it moves past it.  Ringing after
//! every combiner activation makes lost wake-ups impossible: any activation
//! that could have consumed a waiter's operation (or raced with its
//! activation attempt) finishes with a ring that happens after the waiter
//! captured its generation.
//!
//! The generation itself is an atomic so the caller-side fast path
//! ([`Doorbell::current`]) is a plain load; the mutex exists only to pair
//! sleeps with rings (the ring bumps the generation *under the mutex*, which
//! is what makes a concurrent [`Doorbell::wait_past`] either see the new
//! generation or get the notification).  The mutex also guards the count of
//! parked waiters, so a ring with nobody asleep — every ring of a combine
//! whose waiters only spin or poll — skips the condvar's futex call.
//!
//! The protocol is model-checked end to end in
//! `crates/check/tests/model_doorbell.rs` (no missed wake-up, single
//! combiner), and two intentionally broken variants are seeded fixtures that
//! `crates/check/tests/seeded_bugs.rs` must catch: one bumps the generation *outside* the gate mutex
//! — the doorbell's original bug (`wsm_check::fixtures::BuggyDoorbell`) —
//! and one reads the sleeper count outside it
//! (`wsm_check::fixtures::UngatedCountDoorbell`).  The orderings below are
//! the weakest the model accepts; see `docs/ORDERINGS.md`.

use wsm_sync::{AtomicU64, Condvar, Mutex, Ordering};

/// A generation-counting condvar (see the module docs for the protocol).
#[derive(Default)]
pub struct Doorbell {
    generation: AtomicU64,
    /// The gate, holding the number of waiters parked on `cv`.
    gate: Mutex<usize>,
    cv: Condvar,
}

impl Doorbell {
    /// Creates a doorbell at generation zero.
    pub const fn new() -> Self {
        Doorbell {
            generation: AtomicU64::new(0),
            gate: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    /// The current generation.  Capture this *before* attempting the
    /// activation whose completion the subsequent [`Doorbell::wait_past`]
    /// should bound.
    pub fn current(&self) -> u64 {
        // ord: Relaxed — the generation is a wake-up *counter*, not a data
        // publication: waiters re-check real state (their result slot, the
        // activation) after every wake, and the sleep/ring pairing that
        // prevents lost wake-ups is carried entirely by the gate mutex in
        // ring/wait_past (model: tests/model_doorbell.rs).
        self.generation.load(Ordering::Relaxed)
    }

    /// Bumps the generation (under the gate mutex) and wakes every parked
    /// waiter, if there is one.
    ///
    /// The bump MUST happen while the gate is held: a waiter inside
    /// [`Doorbell::wait_past`] holds the gate from its re-check of
    /// [`Doorbell::current`] until it is parked on the condvar, so a ring
    /// either happens before the re-check (the waiter sees the new
    /// generation and returns) or after the park (the notification wakes
    /// it).  Bumping outside the gate re-introduces the missed-wakeup
    /// window fixed in PR 2 — kept alive as the `BuggyDoorbell` fixture.
    /// The sleeper count is read under the same gate, in the same critical
    /// section as the bump: a waiter counts itself before it releases the
    /// gate to park, so a ring that reads zero precedes every park that
    /// could miss it.  Reading the count before taking the gate loses that
    /// wake-up — the `UngatedCountDoorbell` fixture.
    pub fn ring(&self) {
        let sleepers = self.gate.lock();
        // ord: Relaxed — the gate mutex acquired above synchronizes this
        // RMW with every waiter's re-check; no payload rides on the counter
        // (model: tests/model_doorbell.rs).
        self.generation.fetch_add(1, Ordering::Relaxed);
        let wake = *sleepers > 0;
        drop(sleepers);
        if wake {
            self.cv.notify_all();
        }
    }

    /// Parks until the generation moves past `seen`.
    pub fn wait_past(&self, seen: u64) {
        let mut sleepers = self.gate.lock();
        while self.current() == seen {
            *sleepers += 1;
            self.cv.wait(&mut sleepers);
            *sleepers -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn ring_advances_generation() {
        let d = Doorbell::new();
        let g = d.current();
        d.ring();
        assert_eq!(d.current(), g + 1);
    }

    #[test]
    fn wait_past_returns_after_ring() {
        let d = Arc::new(Doorbell::new());
        let seen = d.current();
        let waiter = {
            let d = Arc::clone(&d);
            std::thread::spawn(move || d.wait_past(seen))
        };
        // The ring is pairwise-safe no matter when the waiter parks.
        d.ring();
        waiter.join().unwrap();
        assert!(d.current() > seen);
    }

    #[test]
    fn wait_past_old_generation_returns_immediately() {
        let d = Doorbell::new();
        d.ring();
        d.ring();
        // Generation already moved past 0: must not block.
        d.wait_past(0);
    }
}
