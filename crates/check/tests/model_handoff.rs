//! Model-checks the never-parking result hand-off: `wsm_core::handoff::ResultCell`
//! under the poll loop of `wsm_svc::BatchCall` — harvest, pump, harvest,
//! self-wake — the one waiter that never parks.  Every blocking caller
//! parks on the doorbell instead (`model_doorbell.rs`).
//!
//! The harness mirrors that loop: deposit the op with its own
//! sequence-stamped cell (`submit`), then alternate between one combiner
//! election attempt (`pump`) and a probe of the cell (the harvest), with a
//! yield standing in for the self-wake and the re-poll that follows it.
//! Nothing ever parks on the doorbell.
//!
//! Invariants over every interleaving in the bound:
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
//! Orderings covered here are catalogued in `docs/ORDERINGS.md` (wsm-core,
//! `handoff.rs`).

use std::sync::Arc;
use wsm_core::buffer::ParallelBuffer;
use wsm_core::handoff::ResultCell;
use wsm_sync::{thread, Model};
use wsm_sync::{AtomicUsize, Ordering};

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
            buffer: ParallelBuffer::new(shards),
            in_combine: AtomicUsize::new(0),
            keep: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// Mirror of `ConcurrentMap::combine`: flush everything and
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

    /// Mirror of a `BatchCall`'s polls: attempt the activation (`pump`),
    /// probe the own cell (harvest), yield (self-wake and re-poll), repeat —
    /// no doorbell, no park.  A waiter whose op is still buffered eventually
    /// wins the activation itself, so progress never depends on being woken.
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

/// Two callers, two operations each, sharing the election: the full
/// never-park protocol with exactly-once delivery and no parking anywhere.
#[test]
fn never_park_exactly_once() {
    let r = Model::with_bound(4)
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
        "never-park bound 4: {} schedules + {} pruned = {} considered, {} bound hits",
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
fn never_park_three_callers_single_combiner() {
    let r = Model::with_bound(4)
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
        "never-park 3 callers bound 4: {} schedules + {} pruned = {} considered",
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
fn never_park_bare_pair_exhaustive_unbounded() {
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
        "never-park bare pair unbounded: {} schedules, {} pruned",
        r.schedules, r.pruned
    );
}

/// The same bare pair under the TSO store-buffer semantics: the payload
/// store and the Release stamp may both sit in the filler's store buffer,
/// but must drain in order — an Acquire load seeing the stamp implies the
/// payload already hit memory.  (Weakening the stamp to a plain buffered
/// store with the payload behind it is exactly the bug this would catch.)
#[test]
fn never_park_bare_pair_tso_store_buffer() {
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
        "never-park bare pair TSO bound 2: {} schedules, {} pruned",
        r.schedules, r.pruned
    );
}
