//! Model-checks the real combiner hand-off: `wsm_core::doorbell::Doorbell` +
//! `wsm_core::activation::Activation` + `wsm_core::buffer::ParallelBuffer`.
//!
//! The harness mirrors `ConcurrentMap::call`'s loop exactly (capture the
//! doorbell generation, attempt the activation, combine, ring after release,
//! park with `wait_past`), but with the batched map replaced by delivering
//! each flushed operation's result into its caller's slot.  Two invariants
//! over every interleaving in the bound:
//!
//! * **single combiner** — the activation interface admits at most one
//!   thread into `combine` at a time (asserted with an entry counter);
//! * **no missed wake-up** — every caller's park is bounded by a ring that
//!   happens after its generation capture; the waits are *untimed*, so a
//!   lost wake-up shows up as a model deadlock.
//!
//! The PR 2 regression (generation bumped outside the gate mutex) is kept
//! alive as `wsm_check::fixtures::buggy_doorbell_harness`, which the
//! seeded-bug suite proves the checker reports as exactly that deadlock.
//!
//! Coverage counts use [`wsm_sync::Report::considered`]: schedules executed
//! plus sleep-set-pruned branches (distinct schedules proven redundant).

use std::sync::Arc;
use wsm_core::buffer::ParallelBuffer;
use wsm_core::doorbell::Doorbell;
use wsm_sync::{thread, Model};
use wsm_sync::{AtomicUsize, Mutex, Ordering};

struct Pending {
    value: usize,
    slot: Arc<Mutex<Option<usize>>>,
}

struct Front {
    buffer: ParallelBuffer<Pending>,
    doorbell: Doorbell,
    /// Threads currently inside `combine` — must never exceed 1.
    in_combine: AtomicUsize,
}

impl Front {
    fn new(shards: usize) -> Front {
        Front {
            buffer: ParallelBuffer::new(shards),
            doorbell: Doorbell::new(),
            in_combine: AtomicUsize::new(0),
        }
    }

    /// Mirror of `ConcurrentMap::combine`: flush everything buffered and
    /// deliver each operation's "result" to its caller's slot.  Returns the
    /// number of operations drained, as the production combine does.
    fn combine(&self) -> usize {
        let entered = self.in_combine.fetch_add(1, Ordering::SeqCst);
        assert_eq!(entered, 0, "two combiners active at once");
        let (pending, _cost) = self.buffer.flush();
        let drained = pending.len();
        for p in pending {
            *p.slot.lock() = Some(p.value + 1);
        }
        self.in_combine.fetch_sub(1, Ordering::SeqCst);
        drained
    }

    /// Mirror of `ConcurrentMap::call`, including both of its yields: the
    /// fruitless-combine yield inside the activation (a producer is
    /// mid-publish; donate the CPU) and the spin-yield at the bottom of the
    /// retry loop.  The yields are load-bearing under the model: without
    /// them the demonic scheduler can starve a mid-publish producer while
    /// the combiner respins forever — a livelock the real scheduler's
    /// fairness forbids.  The checker's CHESS-style yield fairness makes
    /// each yield mean exactly "everyone runnable gets a turn first", as
    /// the OS does.  The doorbell park is untimed: if the ring protocol
    /// ever loses a wake-up, the model reports a deadlock.
    fn call(&self, shard: usize, value: usize) -> usize {
        let slot = Arc::new(Mutex::new(None));
        self.buffer.push(
            shard,
            Pending {
                value,
                slot: Arc::clone(&slot),
            },
        );
        loop {
            let seen = self.doorbell.current();
            let runs = self.buffer.activate(
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
            if runs > 0 {
                self.doorbell.ring();
            }
            if let Some(r) = slot.lock().take() {
                return r;
            }
            self.doorbell.wait_past(seen);
            thread::yield_now();
        }
    }
}

/// Two callers, two operations each: the full election/combine/ring/park
/// protocol with results delivered exactly once, including back-to-back
/// calls where the second call races the previous cycle's hand-off.
#[test]
fn doorbell_combiner_no_missed_wakeup() {
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
        "doorbell bound 4: {} schedules + {} pruned = {} considered, {} bound hits",
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

/// Three callers sharing one buffer shard maximises election contention:
/// every caller races the same activation try-lock and the same doorbell.
#[test]
fn doorbell_three_callers_single_combiner() {
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
        "doorbell 3 callers bound 3: {} schedules + {} pruned = {} considered",
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

/// The bare doorbell pair protocol, exhaustively (no preemption bound): a
/// waiter that captures-then-parks can never sleep through the ring.
#[test]
fn doorbell_bare_pair_exhaustive_unbounded() {
    let r = Model::unbounded()
        .check(|| {
            let bell = Arc::new(Doorbell::new());
            let flag = Arc::new(AtomicUsize::new(0));
            let waiter = {
                let (bell, flag) = (Arc::clone(&bell), Arc::clone(&flag));
                thread::spawn(move || loop {
                    let seen = bell.current();
                    if flag.load(Ordering::SeqCst) == 1 {
                        return;
                    }
                    bell.wait_past(seen);
                })
            };
            flag.store(1, Ordering::SeqCst);
            bell.ring();
            waiter.join().unwrap();
        })
        .assert_pass(4);
    println!(
        "doorbell bare pair unbounded: {} schedules, {} pruned",
        r.schedules, r.pruned
    );
}
