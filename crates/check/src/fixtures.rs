//! Intentionally buggy protocol variants used as the checker's regression
//! teeth: the self-tests assert a failing schedule is found and replayable.

use std::sync::Arc;
use wsm_sync::{AtomicU64, AtomicUsize, Condvar, Mutex, Ordering};

/// The PR 2 missed-wakeup doorbell bug, resurrected: `ring` bumps the
/// generation *without* holding the gate mutex.  A waiter can then check the
/// generation, decide to sleep, and lose the notification that fires between
/// its check and its wait — the exact lost-wakeup the gate lock prevents.
pub struct BuggyDoorbell {
    generation: AtomicU64,
    gate: Mutex<()>,
    cv: Condvar,
}

impl BuggyDoorbell {
    /// Creates a doorbell at generation 0.
    pub fn new() -> Self {
        BuggyDoorbell {
            generation: AtomicU64::new(0),
            gate: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Current generation.
    pub fn current(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// BUG: increments and notifies without taking the gate, so the bump is
    /// not ordered against a concurrent waiter's check-then-sleep.
    pub fn ring(&self) -> u64 {
        let next = self.generation.fetch_add(1, Ordering::AcqRel) + 1;
        self.cv.notify_all();
        next
    }

    /// Blocks until the generation passes `seen` (untimed: a lost wakeup is
    /// a permanent sleep, which the model reports as a deadlock).
    pub fn wait_past(&self, seen: u64) {
        let mut gate = self.gate.lock();
        while self.current() == seen {
            self.cv.wait(&mut gate);
        }
    }
}

impl Default for BuggyDoorbell {
    fn default() -> Self {
        Self::new()
    }
}

/// Model harness for [`BuggyDoorbell`]: one waiter, one ringer.  Correct
/// doorbells guarantee the waiter eventually observes the ring; the buggy
/// one admits a schedule where the notify fires between the waiter's
/// generation check and its `cv.wait`, deadlocking the waiter.
pub fn buggy_doorbell_harness() {
    let bell = Arc::new(BuggyDoorbell::new());
    let seen = bell.current();
    let ringer = {
        let bell = Arc::clone(&bell);
        wsm_sync::thread::spawn_named("ringer".to_string(), move || {
            bell.ring();
        })
    };
    bell.wait_past(seen);
    ringer.join().unwrap();
}

/// A sleeper-counting doorbell whose `ring` reads the count *before* taking
/// the gate, to skip the notify when nobody is parked.  A waiter can then
/// re-check the generation, count itself and park between that read and the
/// bump, and the ring — having read zero — never notifies it.
pub struct UngatedCountDoorbell {
    generation: AtomicU64,
    sleepers: AtomicUsize,
    gate: Mutex<()>,
    cv: Condvar,
}

impl UngatedCountDoorbell {
    /// Creates a doorbell at generation 0 with no sleepers.
    pub fn new() -> Self {
        UngatedCountDoorbell {
            generation: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            gate: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Current generation.
    pub fn current(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// BUG: reads the sleeper count outside the gate, so a waiter that
    /// parks between the read and the bump is never notified.
    pub fn ring(&self) {
        let wake = self.sleepers.load(Ordering::Acquire) > 0;
        let gate = self.gate.lock();
        self.generation.fetch_add(1, Ordering::AcqRel);
        drop(gate);
        if wake {
            self.cv.notify_all();
        }
    }

    /// Blocks until the generation passes `seen`, counted as a sleeper while
    /// parked (untimed: a lost wakeup is a permanent sleep, which the model
    /// reports as a deadlock).
    pub fn wait_past(&self, seen: u64) {
        let mut gate = self.gate.lock();
        while self.current() == seen {
            self.sleepers.fetch_add(1, Ordering::AcqRel);
            self.cv.wait(&mut gate);
            self.sleepers.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

impl Default for UngatedCountDoorbell {
    fn default() -> Self {
        Self::new()
    }
}

/// Model harness for [`UngatedCountDoorbell`]: one waiter, one ringer, as in
/// [`buggy_doorbell_harness`].  The model must find the schedule in which
/// the ringer reads no sleepers, the waiter parks, and the ring bumps the
/// generation without a notify.
pub fn ungated_count_doorbell_harness() {
    let bell = Arc::new(UngatedCountDoorbell::new());
    let seen = bell.current();
    let ringer = {
        let bell = Arc::clone(&bell);
        wsm_sync::thread::spawn_named("ringer".to_string(), move || {
            bell.ring();
        })
    };
    bell.wait_past(seen);
    ringer.join().unwrap();
}

/// A broken MPSC slot claim: the CAS that makes claiming atomic is replaced
/// by a load-then-store (the classic lost-update race).  Two producers can
/// both observe the same tail and claim the same slot.
pub struct RacyClaim {
    tail: AtomicUsize,
    /// Number of times each of the two slots was claimed.
    claims: [AtomicUsize; 2],
}

impl RacyClaim {
    /// Creates a two-slot ring with no claims.
    pub fn new() -> Self {
        RacyClaim {
            tail: AtomicUsize::new(0),
            claims: [AtomicUsize::new(0), AtomicUsize::new(0)],
        }
    }

    /// BUG: claim = load + store instead of compare-exchange.
    pub fn claim(&self) -> usize {
        let t = self.tail.load(Ordering::Acquire);
        self.tail.store(t + 1, Ordering::Release);
        self.claims[t % 2].fetch_add(1, Ordering::AcqRel);
        t
    }
}

impl Default for RacyClaim {
    fn default() -> Self {
        Self::new()
    }
}

/// Model harness for [`RacyClaim`]: two producers claim once each; the
/// assertion that they claimed distinct slots fails on the interleaving
/// where both load the same tail.
pub fn racy_claim_harness() {
    let ring = Arc::new(RacyClaim::new());
    let other = {
        let ring = Arc::clone(&ring);
        wsm_sync::thread::spawn_named("producer".to_string(), move || ring.claim())
    };
    let a = ring.claim();
    let b = other.join().unwrap();
    assert_ne!(a, b, "two producers claimed the same slot");
}

/// A Dekker-style store/load handshake with the publisher's store weakened
/// from `SeqCst` to `Release`: a self-test of the checker's TSO store-buffer
/// mode, which must find the schedule this breaks.  Under TSO the `Release`
/// store may sit in the store buffer while the same thread's subsequent load
/// runs, so both sides can read 0 and *neither* wakes the other.
pub struct RelaxedDekker {
    /// "Latch is set" flag (publisher writes, waiter reads).
    flag: AtomicUsize,
    /// "A waiter is registered" flag (waiter writes, publisher reads).
    waiter: AtomicUsize,
}

impl RelaxedDekker {
    /// Creates the handshake with both sides idle.
    pub fn new() -> Self {
        RelaxedDekker {
            flag: AtomicUsize::new(0),
            waiter: AtomicUsize::new(0),
        }
    }
}

impl Default for RelaxedDekker {
    fn default() -> Self {
        Self::new()
    }
}

/// Model harness for [`RelaxedDekker`] (run under [`wsm_sync::Model`] with
/// `tso = true`): publisher stores `flag` (Release — BUG, must be SeqCst)
/// then loads `waiter`; waiter stores `waiter` (Release — same bug) then
/// loads `flag`.  The protocol requires at least one side to see the other;
/// the store-buffer interleaving where both loads run before either buffered
/// store drains violates that.
pub fn relaxed_dekker_harness() {
    let hs = Arc::new(RelaxedDekker::new());
    let waiter = {
        let hs = Arc::clone(&hs);
        wsm_sync::thread::spawn_named("waiter".to_string(), move || {
            hs.waiter.store(1, Ordering::Release);
            hs.flag.load(Ordering::Acquire)
        })
    };
    hs.flag.store(1, Ordering::Release);
    let saw_waiter = hs.waiter.load(Ordering::Acquire);
    let saw_flag = waiter.join().unwrap();
    assert!(
        saw_waiter == 1 || saw_flag == 1,
        "handshake lost on both sides: publisher missed the waiter AND the \
         waiter missed the flag (missed-wakeup under TSO)"
    );
}

/// A correct (SeqCst) version of the same handshake, proving the checker
/// does NOT flag the properly ordered protocol under TSO.
pub fn seqcst_dekker_harness() {
    let hs = Arc::new(RelaxedDekker::new());
    let waiter = {
        let hs = Arc::clone(&hs);
        wsm_sync::thread::spawn_named("waiter".to_string(), move || {
            hs.waiter.store(1, Ordering::SeqCst);
            hs.flag.load(Ordering::SeqCst)
        })
    };
    hs.flag.store(1, Ordering::SeqCst);
    let saw_waiter = hs.waiter.load(Ordering::SeqCst);
    let saw_flag = waiter.join().unwrap();
    assert!(
        saw_waiter == 1 || saw_flag == 1,
        "SeqCst handshake must never lose both sides"
    );
}
