//! Model-checks the slot-free result hand-off: `wsm_core::handoff::ResultCell`
//! and the `WSM_HANDOFF=cell` waiter loop of `ConcurrentMap` (and of the
//! `wsm_shard` router, whose per-shard `wait_batch` runs the same loop).
//!
//! The harness mirrors the cell-mode `ConcurrentMap::call` loop exactly:
//! deposit the op with its own sequence-stamped cell, then alternate between
//! attempting the combiner activation and probing the cell — never parking
//! on the doorbell.  Invariants over every interleaving in the bound:
//!
//! * **single combiner** — the activation still admits one combiner at a
//!   time (entry counter);
//! * **exactly-once delivery** — every caller's `try_take` yields its result
//!   exactly once, for every caller, under pure spinning;
//! * **no torn hand-off** — a stamp observed `FILLED` (Acquire) implies the
//!   payload written before the `Release` store is present: `try_take` after
//!   a positive `is_filled` can never see `None`.  Checked under sequential
//!   consistency *and* under the TSO store-buffer mode, where a broken
//!   stamp ordering (e.g. Relaxed) would surface as a stamp-before-payload
//!   reordering.
//!
//! Livelock safety: the loop's yields are load-bearing — the checker's
//! CHESS-style yield fairness makes each yield mean "everyone runnable runs
//! first", so a protocol that could spin forever without the combiner making
//! progress would show up as a fairness violation, as in `model_doorbell.rs`.
//!
//! The second half of the file covers the **waker hand-off**
//! (`WSM_HANDOFF=waker`, the `wsm-svc` async path): an awaiting task
//! registers a [`std::task::Waker`] with `ResultCell::set_waker`, re-probes
//! (mandatory — a fill racing the registration has already taken, or never
//! saw, the waker), and then *parks* until woken.  The park is modelled as a
//! spin on the waker's flag: a protocol that could lose the wake would leave
//! the task spinning with nobody left to set the flag, which the checker's
//! yield fairness reports as livelock.  Invariant: **no lost wake** — in
//! every interleaving (including TSO store-buffer mode), either the re-probe
//! observes `FILLED`, or `fill`'s waker take happens after the registration
//! and the wake arrives.
//!
//! Orderings covered here are catalogued in `docs/ORDERINGS.md` (wsm-core,
//! `handoff.rs`).

use std::sync::Arc;
use std::task::Waker;
use wsm_check::sync::{AtomicUsize, Ordering};
use wsm_check::{thread, Model};
use wsm_core::buffer::ParallelBuffer;
use wsm_core::handoff::ResultCell;

/// Test waker: raises a (model-checked) flag the parked "task" spins on.
struct FlagWaker(Arc<AtomicUsize>);

impl std::task::Wake for FlagWaker {
    fn wake(self: Arc<Self>) {
        self.0.store(1, Ordering::SeqCst);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.0.store(1, Ordering::SeqCst);
    }
}

struct Pending {
    value: usize,
    slot: Arc<ResultCell<usize>>,
}

struct Front {
    buffer: ParallelBuffer<Pending>,
    /// Threads currently inside `combine` — must never exceed 1.
    in_combine: AtomicUsize,
    /// Keeps every cell alive for the whole model iteration.  The checker's
    /// shim atomics key their model state by heap address and register it
    /// lazily (`const fn new` cannot touch the registry), so a cell freshly
    /// allocated at a *recycled* address would inherit the dropped cell's
    /// stale stamp state — a model artifact, not a protocol behaviour (a real
    /// `AtomicUsize::new(0)` reinitialises the memory).  Pinning the Arcs
    /// here makes every cell's address unique within one explored schedule.
    /// Never contended: the model scheduler runs exactly one thread at a
    /// time, so a plain std mutex adds no schedule points.
    keep: std::sync::Mutex<Vec<Arc<ResultCell<usize>>>>,
}

impl Front {
    fn new(shards: usize) -> Front {
        Front {
            // Tiny ring so wrap-around is reachable in a few steps.
            buffer: ParallelBuffer::with_ring_capacity(shards, 2),
            in_combine: AtomicUsize::new(0),
            keep: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// Mirror of `ConcurrentMap::combine` in cell mode: flush everything and
    /// fill each caller's cell (payload first, then the Release stamp —
    /// that is `ResultCell::fill`).
    fn combine(&self) -> usize {
        let entered = self.in_combine.fetch_add(1, Ordering::SeqCst);
        assert_eq!(entered, 0, "two combiners active at once");
        let (pending, _cost) = self.buffer.flush();
        let drained = pending.len();
        for p in pending {
            p.slot.fill(p.value + 1);
        }
        self.in_combine.fetch_sub(1, Ordering::SeqCst);
        drained
    }

    /// One non-blocking combiner-election attempt (`ConcurrentMap::pump`).
    fn pump(&self) {
        self.buffer.activate(
            || true,
            || {
                let drained = self.combine();
                let more = !self.buffer.is_empty();
                if more && drained == 0 {
                    thread::yield_now();
                }
                more
            },
        );
    }

    /// Mirror of the `wsm-svc` `BatchCall::poll` protocol for one op:
    /// harvest → register waker → re-probe → pump → harvest → park (spin on
    /// the waker flag) when the buffer is drained, self-wake (yield + retry)
    /// when ops are still buffered.  A lost wake would strand the park loop
    /// and trip the checker's yield fairness.
    fn call_async(&self, shard: usize, value: usize) -> usize {
        let slot = Arc::new(ResultCell::new());
        self.keep.lock().unwrap().push(Arc::clone(&slot));
        let woken = Arc::new(AtomicUsize::new(0));
        let waker = Waker::from(Arc::new(FlagWaker(Arc::clone(&woken))));
        self.buffer.push(
            shard,
            Pending {
                value,
                slot: Arc::clone(&slot),
            },
        );
        loop {
            if let Some(v) = slot.try_take() {
                return v;
            }
            slot.set_waker(&waker);
            // Mandatory re-probe: a fill that raced the registration has
            // already taken (or never saw) the waker.
            if let Some(v) = slot.try_take() {
                return v;
            }
            self.pump();
            if let Some(v) = slot.try_take() {
                return v;
            }
            if self.buffer.is_empty() {
                // Our op is in an in-flight batch: park until `fill` wakes
                // us.  If the wake could be lost, this spin never ends.
                while woken.swap(0, Ordering::SeqCst) == 0 {
                    thread::yield_now();
                }
            } else {
                // Self-wake path: ops still buffered, retry the election.
                thread::yield_now();
            }
        }
    }

    /// Mirror of the cell-mode `ConcurrentMap::call` loop: attempt the
    /// activation, probe the own cell, yield, repeat — no doorbell, no park.
    /// A waiter whose op is still buffered eventually wins the activation
    /// itself, so progress never depends on being woken.
    fn call(&self, shard: usize, value: usize) -> usize {
        let slot = Arc::new(ResultCell::new());
        self.keep.lock().unwrap().push(Arc::clone(&slot));
        self.buffer.push(
            shard,
            Pending {
                value,
                slot: Arc::clone(&slot),
            },
        );
        loop {
            self.buffer.activate(
                || true,
                || {
                    let drained = self.combine();
                    let more = !self.buffer.is_empty();
                    if more && drained == 0 {
                        thread::yield_now();
                    }
                    more
                },
            );
            // The no-torn-hand-off invariant: a visible stamp means the
            // payload is already there.
            if slot.is_filled() {
                let r = slot.try_take();
                assert!(r.is_some(), "FILLED stamp with absent payload");
                return r.expect("checked above");
            }
            thread::yield_now();
        }
    }
}

/// Two callers, two operations each, sharing the election: full cell-mode
/// protocol with exactly-once delivery and no parking anywhere.
#[test]
fn cell_handoff_exactly_once_no_parks() {
    let r = Model::with_bound(3)
        .check(|| {
            let front = Arc::new(Front::new(2));
            let t = {
                let front = Arc::clone(&front);
                thread::spawn(move || {
                    assert_eq!(front.call(1, 10), 11);
                    assert_eq!(front.call(1, 12), 13);
                })
            };
            assert_eq!(front.call(0, 20), 21);
            assert_eq!(front.call(0, 22), 23);
            t.join().unwrap();
            assert!(front.buffer.is_empty());
        })
        .assert_pass(1_000);
    println!(
        "cell hand-off bound 3: {} schedules + {} pruned = {} considered, {} bound hits",
        r.schedules,
        r.pruned,
        r.considered(),
        r.bound_hits
    );
    assert!(
        r.considered() >= 10_000,
        "expected >= 10k distinct schedules, considered {}",
        r.considered()
    );
}

/// Three callers on one buffer shard: maximal election contention, every
/// caller both spins on its own cell and races the same activation.
#[test]
fn cell_handoff_three_callers_single_combiner() {
    let r = Model::with_bound(3)
        .check(|| {
            let front = Arc::new(Front::new(1));
            let spawned: Vec<_> = (0..2)
                .map(|i| {
                    let front = Arc::clone(&front);
                    thread::spawn(move || {
                        assert_eq!(front.call(0, 10 * (i + 1)), 10 * (i + 1) + 1);
                    })
                })
                .collect();
            assert_eq!(front.call(0, 30), 31);
            for t in spawned {
                t.join().unwrap();
            }
        })
        .assert_pass(1_000);
    println!(
        "cell hand-off 3 callers bound 3: {} schedules + {} pruned = {} considered",
        r.schedules,
        r.pruned,
        r.considered()
    );
    assert!(
        r.considered() >= 10_000,
        "expected >= 10k distinct schedules, considered {}",
        r.considered()
    );
}

/// The bare fill/take pair, exhaustively and with no preemption bound: the
/// Release stamp publishes the payload, so a spinning taker always receives
/// the value exactly once.
#[test]
fn cell_bare_pair_exhaustive_unbounded() {
    let r = Model::unbounded()
        .check(|| {
            let cell = Arc::new(ResultCell::new());
            let filler = {
                let cell = Arc::clone(&cell);
                thread::spawn(move || cell.fill(42usize))
            };
            loop {
                if cell.is_filled() {
                    assert_eq!(cell.try_take(), Some(42), "torn hand-off");
                    break;
                }
                thread::yield_now();
            }
            assert_eq!(cell.try_take(), None, "delivered twice");
            filler.join().unwrap();
        })
        .assert_pass(2);
    println!(
        "cell bare pair unbounded: {} schedules, {} pruned",
        r.schedules, r.pruned
    );
}

/// The same bare pair under the TSO store-buffer semantics: the payload
/// store and the Release stamp may both sit in the filler's store buffer,
/// but must drain in order — an Acquire load seeing the stamp implies the
/// payload already hit memory.  (Weakening the stamp to a plain buffered
/// store with the payload behind it is exactly the bug this would catch.)
#[test]
fn cell_bare_pair_tso_store_buffer() {
    let r = Model::tso_with_bound(2)
        .check(|| {
            let cell = Arc::new(ResultCell::new());
            let filler = {
                let cell = Arc::clone(&cell);
                thread::spawn(move || cell.fill(7usize))
            };
            loop {
                if cell.is_filled() {
                    assert_eq!(cell.try_take(), Some(7), "torn hand-off under TSO");
                    break;
                }
                thread::yield_now();
            }
            filler.join().unwrap();
        })
        .assert_pass(2);
    println!(
        "cell bare pair TSO bound 2: {} schedules, {} pruned",
        r.schedules, r.pruned
    );
}

/// The waker registration race, bare: one filler, one awaiting task running
/// the register → re-probe → park protocol.  Every interleaving of
/// `set_waker`'s (store waker, re-probe) against `fill`'s (payload, Release
/// stamp, take waker, wake) must deliver exactly once — a lost wake strands
/// the park loop and trips yield fairness.
#[test]
fn waker_registration_never_loses_a_wake() {
    let r = Model::with_bound(3)
        .check(|| {
            let cell = Arc::new(ResultCell::new());
            let woken = Arc::new(AtomicUsize::new(0));
            let waker = Waker::from(Arc::new(FlagWaker(Arc::clone(&woken))));
            let filler = {
                let cell = Arc::clone(&cell);
                thread::spawn(move || cell.fill(42usize))
            };
            let got = loop {
                if let Some(v) = cell.try_take() {
                    break v;
                }
                cell.set_waker(&waker);
                if let Some(v) = cell.try_take() {
                    break v;
                }
                // Park: the fill MUST wake us from here.
                while woken.swap(0, Ordering::SeqCst) == 0 {
                    thread::yield_now();
                }
            };
            assert_eq!(got, 42);
            assert_eq!(cell.try_take(), None, "delivered twice");
            filler.join().unwrap();
        })
        .assert_pass(2);
    println!(
        "waker bare pair bound 3: {} schedules + {} pruned = {} considered",
        r.schedules,
        r.pruned,
        r.considered()
    );
}

/// The same bare registration race under TSO store-buffer semantics: the
/// payload and stamp stores may sit in the filler's store buffer, but the
/// waker mutex on both sides orders registration against the take, so the
/// wake (or the re-probed stamp) still cannot be lost.
#[test]
fn waker_registration_tso_store_buffer() {
    let r = Model::tso_with_bound(2)
        .check(|| {
            let cell = Arc::new(ResultCell::new());
            let woken = Arc::new(AtomicUsize::new(0));
            let waker = Waker::from(Arc::new(FlagWaker(Arc::clone(&woken))));
            let filler = {
                let cell = Arc::clone(&cell);
                thread::spawn(move || cell.fill(9usize))
            };
            let got = loop {
                if let Some(v) = cell.try_take() {
                    break v;
                }
                cell.set_waker(&waker);
                if let Some(v) = cell.try_take() {
                    break v;
                }
                while woken.swap(0, Ordering::SeqCst) == 0 {
                    thread::yield_now();
                }
            };
            assert_eq!(got, 9, "torn waker hand-off under TSO");
            filler.join().unwrap();
        })
        .assert_pass(2);
    println!(
        "waker bare pair TSO bound 2: {} schedules + {} pruned = {} considered",
        r.schedules,
        r.pruned,
        r.considered()
    );
}

/// The full async front protocol under election contention: two tasks share
/// the combiner election, each parking on its waker whenever its op is in an
/// in-flight batch.  Exactly-once delivery, single combiner, no lost wake —
/// across at least 10k explored schedules.
#[test]
fn waker_front_exactly_once_under_election() {
    let r = Model::with_bound(3)
        .check(|| {
            let front = Arc::new(Front::new(2));
            let t = {
                let front = Arc::clone(&front);
                thread::spawn(move || {
                    assert_eq!(front.call_async(1, 10), 11);
                })
            };
            assert_eq!(front.call_async(0, 20), 21);
            assert_eq!(front.call_async(0, 22), 23);
            t.join().unwrap();
            assert!(front.buffer.is_empty());
        })
        .assert_pass(1_000);
    println!(
        "waker front bound 3: {} schedules + {} pruned = {} considered, {} bound hits",
        r.schedules,
        r.pruned,
        r.considered(),
        r.bound_hits
    );
    assert!(
        r.considered() >= 10_000,
        "expected >= 10k distinct schedules, considered {}",
        r.considered()
    );
}
