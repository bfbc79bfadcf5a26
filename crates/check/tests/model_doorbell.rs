//! Model-checks the real combiner hand-off: `wsm_core::doorbell::Doorbell` +
//! `wsm_core::activation::Activation` + `wsm_core::buffer::ParallelBuffer`.
//!
//! The harness mirrors `ConcurrentMap::call`'s loop exactly (capture the
//! doorbell generation, attempt the activation, combine, ring after release,
//! park with `wait_past`), but with the batched map replaced by delivering
//! each flushed operation's result into its caller's slot.  Its pair call
//! mirrors `ConcurrentMap::call_routed` on one map: a run of operations
//! deposited under one lock and counted before its unlock.  Two invariants
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

    /// Mirror of `ConcurrentMap::call`: push one value, then run the
    /// waiting loop until its slot is filled.
    fn call(&self, shard: usize, value: usize) -> usize {
        let slot = Arc::new(Mutex::new(None));
        self.buffer.push(
            shard,
            Pending {
                value,
                slot: Arc::clone(&slot),
            },
        );
        self.wait_for(|| slot.lock().take())
    }

    /// Mirror of `ConcurrentMap::submit_batch` for one value: deposit it
    /// with `slot` as its cell and return without driving the election.
    fn submit(&self, shard: usize, value: usize, slot: &Arc<Mutex<Option<usize>>>) {
        self.buffer.push(
            shard,
            Pending {
                value,
                slot: Arc::clone(slot),
            },
        );
    }

    /// Mirror of `ConcurrentMap::call_routed` on one map: both values go in
    /// through one open deposit (one lock, counted before its unlock), then
    /// the waiting loop runs until the last value's slot is filled, and the
    /// first's is taken after it.
    fn call_pair(&self, shard: usize, values: [usize; 2]) -> [usize; 2] {
        let slots = values.map(|_| Arc::new(Mutex::new(None)));
        {
            let mut deposit = self.buffer.deposit(shard);
            for (value, slot) in values.into_iter().zip(&slots) {
                deposit.push(Pending {
                    value,
                    slot: Arc::clone(slot),
                });
            }
        }
        self.wait_for(|| {
            let last = slots[1].lock().take()?;
            Some([
                slots[0].lock().take().expect("filled by the same combine"),
                last,
            ])
        })
    }

    /// Mirror of `ConcurrentMap`'s waiting loop, including both of its
    /// yields: the fruitless-combine yield inside the activation (a producer
    /// is mid-publish; donate the CPU) and the spin-yield at the bottom of
    /// the retry loop.  The yields are load-bearing under the model: without
    /// them the demonic scheduler can starve a mid-publish producer while
    /// the combiner respins forever — a livelock the real scheduler's
    /// fairness forbids.  The checker's CHESS-style yield fairness makes
    /// each yield mean exactly "everyone runnable gets a turn first", as
    /// the OS does.  The doorbell park is untimed: if the ring protocol
    /// ever loses a wake-up, the model reports a deadlock.
    fn wait_for<T>(&self, mut take: impl FnMut() -> Option<T>) -> T {
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
            if let Some(r) = take() {
                return r;
            }
            self.doorbell.wait_past(seen);
            thread::yield_now();
        }
    }
}

/// Two callers deposit a pair each through one open `Deposit`, on the two
/// shards of the buffer, while a third pushes one value beside them: each
/// deposit races the others' locks and counts and the flush, every caller
/// gets its results exactly once, and no park misses its ring.
#[test]
fn deposit_pairs_no_missed_wakeup() {
    let r = Model::with_bound(3)
        .check(|| {
            let front = Arc::new(Front::new(2));
            let spawned: Vec<_> = (0..2)
                .map(|i| {
                    let front = Arc::clone(&front);
                    thread::spawn(move || {
                        let v = 10 * (i + 1);
                        assert_eq!(front.call_pair(i, [v, v + 2]), [v + 1, v + 3]);
                    })
                })
                .collect();
            assert_eq!(front.call(0, 30), 31);
            for t in spawned {
                t.join().unwrap();
            }
            assert!(front.buffer.is_empty());
        })
        .assert_pass(1_000);
    println!(
        "deposit pairs + 1 push bound 3: {} schedules + {} pruned = {} considered",
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

/// A held async call beside parking blocking calls.  One thread deposits
/// as `submit` does, marks the deposit made, and exits without ever driving
/// the election: a task suspended after its deposit.  The other makes a
/// blocking call that races the whole deposit, then a second one once the
/// deposit is marked.  Nothing holds the activation across the held call,
/// so each blocking call either wins the election itself or waits on a
/// combiner that is running, and never parks on a bell that no one will
/// ring (the parks are untimed: a lost ring is a model deadlock).  The
/// second call's combine drains the held operation if the first did not,
/// so both callers' cells are filled and the buffer ends empty.  The space
/// is small enough to explore without a preemption bound.
#[test]
fn held_async_call_beside_parking_call() {
    let r = Model::unbounded()
        .check(|| {
            let front = Arc::new(Front::new(2));
            let held = Arc::new(Mutex::new(None));
            let deposited = Arc::new(AtomicUsize::new(0));
            let depositor = {
                let (front, held) = (Arc::clone(&front), Arc::clone(&held));
                let deposited = Arc::clone(&deposited);
                thread::spawn(move || {
                    front.submit(1, 10, &held);
                    deposited.store(1, Ordering::SeqCst);
                })
            };
            assert_eq!(front.call(0, 20), 21);
            while deposited.load(Ordering::SeqCst) == 0 {
                thread::yield_now();
            }
            assert_eq!(front.call(0, 22), 23);
            depositor.join().unwrap();
            assert_eq!(held.lock().take(), Some(11), "held call's cell unfilled");
            assert!(front.buffer.is_empty());
        })
        .assert_pass(10);
    println!(
        "held async call + blocking calls unbounded: {} schedules + {} pruned = {} considered",
        r.schedules,
        r.pruned,
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
