//! Thread-safe front-end: implicit batching for ordinary multithreaded code.
//!
//! In the paper, a dynamic-multithreading program simply calls the map as a
//! black box; the runtime system routes each call through the map's parallel
//! buffer, forms batches on the fly and schedules the batched data structure
//! (Section 1 "Implicit batching", Appendix A.1).  [`ConcurrentMap`] plays
//! that role for real OS threads: callers deposit their operation in the
//! parallel buffer and one of them becomes the *combiner* through the buffer's
//! activation interface (Definition 36), flushes the buffer, runs the whole
//! batch through the underlying batched map (M1 or M2) and distributes the
//! results.  This is exactly the flat-combining / work-stealing realisation
//! the paper sketches in Section 8.
//!
//! The combiner runs the batch itself, on its own thread: whoever wins the
//! activation runs the batch, as in the paper's implicit batching.  No pool
//! hop sits between the election and `run_batch` — the batched map's only
//! internal fork (PESort's, above 2 048 keys) reaches the work-stealing pool
//! by itself.
//!
//! Waiting callers park on a single generation-counting [`Doorbell`]; the
//! combiner rings it once per activation (after distributing a whole batch
//! of results), so there is no fixed-timeout polling.  A caller re-attempts
//! the activation on every wake-up, which also closes the classic
//! flat-combining hand-off race (a combiner observing an empty buffer and
//! exiting just as a new operation lands): the ring that follows every
//! activation guarantees somebody re-checks.  Alternatively,
//! `WSM_HANDOFF=cell` (or [`ConcurrentMap::with_handoff`]) selects the
//! *slot-free* hand-off: a waiter spins on its own sequence-stamped
//! [`crate::handoff::ResultCell`] with yields escalating into a bounded
//! exponential backoff, and never parks — removing the park/wake futex round
//! trip entirely — see [`Handoff`] and experiment E16's A/B rows.
//! `WSM_HANDOFF=waker` is the third, *await-able* hand-off for async callers:
//! [`ConcurrentMap::submit_batch`] deposits operations without waiting at
//! all, and the combiner's `fill` wakes the task [`Waker`](std::task::Waker)
//! registered on each cell (the `wsm-svc` front-end and experiment E21's
//! latency rows).
//!
//! One usage rule follows from PESort's fork: do not call the map from
//! *inside* a work-stealing pool task (`wsm_pool::join`/`scope` closures) —
//! map calls block on the doorbell, and a blocked worker cannot help execute
//! the fork of a batch above 2 048 keys that another caller is combining.
//! Ordinary OS threads (as in the tests, examples and benches) are the
//! intended callers, matching the paper's model of `p` processors calling
//! the map.  `wsm-shard`'s `ShardedMap::run_batch` puts no thread between
//! those callers and the shards: the calling thread deposits its sub-batches
//! with [`ConcurrentMap::submit_batch`], makes one election pass over the
//! shards, then waits shard by shard in [`ConcurrentMap::wait_batch`], on
//! that shard's own doorbell.

use crate::buffer::ParallelBuffer;
use crate::doorbell::Doorbell;
use crate::handoff::ResultCell;
use crate::ops::{BatchedMap, OpId, OpResult, Operation, TaggedOp};
use std::sync::Arc;
use wsm_check::sync::Mutex;

struct Pending<K, V> {
    op: Operation<K, V>,
    slot: Arc<ResultCell<OpResult<V>>>,
}

/// How a waiting caller learns that its result has been deposited.
///
/// Either way the result itself travels through the caller's own
/// sequence-stamped [`ResultCell`]; the mode only selects what the caller
/// does when the cell is still empty after its spin window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Handoff {
    /// Park on the map's shared generation-counting [`Doorbell`] (the
    /// default).  One futex word serves every waiter; the combiner rings it
    /// once per activation.
    Doorbell,
    /// Never park: keep spinning on the caller's own result cell,
    /// re-attempting the combiner activation between spin windows, with
    /// yields escalating into a bounded exponential backoff (so a long wait
    /// stops burning a core — see [`Backoff`]).  Removes the park/wake futex
    /// round trip from the hand-off — a good trade when combine cycles are
    /// short (small batches) or cores outnumber runnable threads.  Selected
    /// per process with `WSM_HANDOFF=cell`.
    Cell,
    /// Await instead of waiting: completed operations wake the
    /// [`Waker`](std::task::Waker) an async caller registered on its result
    /// cell, so no thread blocks anywhere in the hand-off.  This is the mode
    /// the `wsm-svc` async front-end uses via
    /// [`ConcurrentMap::submit_batch`] + [`ConcurrentMap::pump`]; a
    /// *blocking* call on a waker-mode map waits like [`Handoff::Cell`]
    /// (there is no task to wake).  Selected per process with
    /// `WSM_HANDOFF=waker`.
    Waker,
}

/// The process-wide hand-off mode: `WSM_HANDOFF=cell`, `waker` or (default)
/// `doorbell`.  Any other value warns once and keeps the default.
fn handoff_from_env() -> Handoff {
    crate::env::parse_with(
        "WSM_HANDOFF",
        "cell|doorbell|waker",
        Handoff::Doorbell,
        |raw| match raw {
            "cell" => Some(Handoff::Cell),
            "doorbell" => Some(Handoff::Doorbell),
            "waker" => Some(Handoff::Waker),
            _ => None,
        },
    )
}

/// How many yield-and-recheck rounds a waiting caller performs before parking
/// on the doorbell.  A combiner cycle for a small batch completes in a few
/// microseconds — comparable to a futex sleep/wake round trip — so a few
/// yields usually deliver the result without a park; large values only burn
/// sched_yield calls.
const SPIN_WAIT: u32 = 4;

/// Longest single backoff sleep of a never-parking waiter, in microseconds.
/// The cap keeps the hand-off latency bounded (a result deposited while the
/// waiter sleeps is harvested at most this much later) while a long wait —
/// e.g. a huge batch combining ahead of us — costs sleeps instead of a
/// pegged core.
pub const BACKOFF_CAP_US: u64 = 256;

/// Bounded exponential backoff for the never-parking wait loops (cell and
/// waker hand-offs, and the doorbell path when parking is forbidden because
/// the caller is a service task — see [`crate::context`]).
///
/// The first few pauses are plain yields (a small-batch combine finishes in
/// microseconds, and the yield donates the CPU to the combiner on
/// oversubscribed machines); after that each pause sleeps, doubling from
/// 1µs up to [`BACKOFF_CAP_US`].  The pre-backoff spin burned yields
/// forever — under a cooperative executor or on a single busy core that
/// pegs a CPU for the whole wait, which is the blocking-hand-off bug class
/// this bound fixes (the waiting loops stay correct without any pause at
/// all; the backoff only shapes *where* the waiting time goes).
struct Backoff {
    /// Completed pause rounds.
    round: u32,
}

impl Backoff {
    /// Pauses 0..YIELD_ROUNDS are yields; later ones sleep.
    const YIELD_ROUNDS: u32 = 4;

    fn new() -> Self {
        Backoff { round: 0 }
    }

    /// One wait step: yield while young, then sleep with doubling duration
    /// up to the cap.
    fn pause(&mut self) {
        if self.round < Self::YIELD_ROUNDS {
            std::thread::yield_now();
        } else {
            let exp = (self.round - Self::YIELD_ROUNDS).min(63);
            let us = (1u64 << exp.min(8)).min(BACKOFF_CAP_US);
            // lint: allow(thread_sleep) — bounded backoff, not
            // synchronization: the surrounding loop re-probes the result
            // cell and re-attempts the combiner election on every
            // iteration, so correctness never depends on this sleep; it
            // only stops a long never-parking wait from pegging a core.
            std::thread::sleep(std::time::Duration::from_micros(us));
        }
        self.round = self.round.saturating_add(1);
    }
}

/// Reusable combiner-side buffers.  Only the thread holding the buffer's
/// activation touches these, so the mutex is uncontended by construction —
/// it exists to keep the map `Sync` without `unsafe`.
struct CombineScratch<K, V> {
    pending: Vec<Pending<K, V>>,
    slots: Vec<Arc<ResultCell<OpResult<V>>>>,
}

/// A commit-point observer: called by the combiner with each batch, under
/// the inner-map lock, immediately *before* the batch is applied (and
/// therefore before any caller receives a result).  `wsm-wal` hooks its
/// write-ahead log here.
pub type CommitHook<K, V> = Box<dyn Fn(&[TaggedOp<K, V>]) + Send + Sync>;

/// A concurrent map front-end that implicitly batches calls from many threads
/// into an underlying [`BatchedMap`] (M1 or M2).
///
/// Blocking semantics match the paper's model: a call blocks until the answer
/// is returned by the batch that contained it.
pub struct ConcurrentMap<K, V, M> {
    buffer: ParallelBuffer<Pending<K, V>>,
    inner: Mutex<M>,
    scratch: Mutex<CombineScratch<K, V>>,
    doorbell: Doorbell,
    /// How waiting callers learn their result arrived.
    handoff: Handoff,
    /// Commit-point observer (see [`CommitHook`]); `None` for ordinary maps.
    commit_hook: Option<CommitHook<K, V>>,
}

impl<K, V, M> ConcurrentMap<K, V, M>
where
    K: Ord + Clone + Send,
    V: Clone + Send,
    M: BatchedMap<K, V> + Send,
{
    /// Wraps a batched map, sharding the parallel buffer for `shards`
    /// submitting threads.  Each batch executes on the thread that wins the
    /// combiner election.
    pub fn new(inner: M, shards: usize) -> Self {
        ConcurrentMap {
            buffer: ParallelBuffer::new(shards),
            inner: Mutex::new(inner),
            scratch: Mutex::new(CombineScratch {
                pending: Vec::new(),
                slots: Vec::new(),
            }),
            doorbell: Doorbell::default(),
            handoff: handoff_from_env(),
            commit_hook: None,
        }
    }

    /// Always `usize::MAX`: every batch runs on the combiner thread, whatever
    /// its size.  Kept only because the benchmark's run metadata still
    /// records it; it goes with the next change to the benchmark.
    pub fn inline_threshold(&self) -> usize {
        usize::MAX
    }

    /// Overrides the waiter hand-off mode for this map (the default comes
    /// from `WSM_HANDOFF`): [`Handoff::Cell`] waiters never park on the
    /// doorbell, they spin on their own sequence-stamped result cell.
    #[must_use]
    pub fn with_handoff(mut self, handoff: Handoff) -> Self {
        self.handoff = handoff;
        self
    }

    /// The current waiter hand-off mode.
    pub fn handoff(&self) -> Handoff {
        self.handoff
    }

    /// Installs a commit-point observer: `hook` runs on the combiner thread
    /// with each batch, *under the inner-map lock and before the batch is
    /// applied* — so no caller can observe a result whose batch the hook has
    /// not yet seen, and an observer that itself takes the inner lock (via
    /// [`ConcurrentMap::with_inner`], as the `wsm-wal` checkpointer does)
    /// always sees hook-side effects exactly consistent with applied state.
    /// The hook must not call back into this map.
    #[must_use]
    pub fn with_commit_hook(
        mut self,
        hook: impl Fn(&[TaggedOp<K, V>]) + Send + Sync + 'static,
    ) -> Self {
        self.commit_hook = Some(Box::new(hook));
        self
    }

    /// Runs `f` with exclusive access to the underlying batched map.  The
    /// same lock serializes the combiner's batch application (and its commit
    /// hook), so everything `f` observes is consistent with a batch
    /// boundary.  Do not call back into this map from `f`.
    pub fn with_inner<R>(&self, f: impl FnOnce(&mut M) -> R) -> R {
        f(&mut self.inner.lock())
    }

    /// Consumes the wrapper, returning the underlying batched map.
    pub fn into_inner(self) -> M {
        self.inner.into_inner()
    }

    /// Current number of items (takes the combiner lock briefly).
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True if the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total effective work charged by the underlying batched map.
    pub fn effective_work(&self) -> u64 {
        self.inner.lock().effective_work()
    }

    /// Number of background maintenance runs the underlying map has executed
    /// (0 for maps without a maintenance cascade — see
    /// [`BatchedMap::maintenance_runs`]).
    pub fn maintenance_runs(&self) -> u64 {
        self.inner.lock().maintenance_runs()
    }

    /// Searches for a key.  `shard` should identify the calling thread (any
    /// stable small integer); it only affects contention, not correctness.
    pub fn search(&self, shard: usize, key: K) -> Option<V> {
        match self.call(shard, Operation::Search(key)) {
            OpResult::Search(v) => v,
            other => unreachable!("search returned {other:?}", other = kind(&other)),
        }
    }

    /// Inserts a key/value pair, returning the previous value if any.
    pub fn insert(&self, shard: usize, key: K, val: V) -> Option<V> {
        match self.call(shard, Operation::Insert(key, val)) {
            OpResult::Insert(v) => v,
            other => unreachable!("insert returned {other:?}", other = kind(&other)),
        }
    }

    /// Deletes a key, returning its value if it was present.
    pub fn delete(&self, shard: usize, key: K) -> Option<V> {
        match self.call(shard, Operation::Delete(key)) {
            OpResult::Delete(v) => v,
            other => unreachable!("delete returned {other:?}", other = kind(&other)),
        }
    }

    /// True when the current caller must never park on the doorbell: the
    /// map's hand-off is slot-free ([`Handoff::Cell`]) or await-able
    /// ([`Handoff::Waker`] — a *blocking* call has no task to wake, so it
    /// waits cell-style), or the calling thread is polling an async service
    /// task ([`crate::context::in_service_task`]).  In the latter case a
    /// park could deadlock the executor — the parked worker may be the only
    /// thread that would ever poll the task whose combine rings the bell —
    /// so the doorbell path degrades, panic- and deadlock-free, to the
    /// bounded-backoff wait instead of parking.
    fn never_park(&self) -> bool {
        matches!(self.handoff, Handoff::Cell | Handoff::Waker) || crate::context::in_service_task()
    }

    /// Drives combining until `done` reports that the caller's results have
    /// arrived; `done` is the caller's probe of its own result cell(s) and is
    /// called again after every step of the wait.
    ///
    /// The loop is deadlock-free by a pairing argument: a caller parks only
    /// after (a) capturing the doorbell generation, then (b) attempting the
    /// activation itself.  If the attempt lost, some other thread held the
    /// activation at that moment, and that holder's activation finishes with
    /// a [`Doorbell::ring`] *after* releasing — i.e. after our capture — so
    /// our park is bounded by it.  If the attempt won, we combined until the
    /// buffer was empty and our own results were delivered (possibly by an
    /// earlier combiner).
    fn wait(&self, mut done: impl FnMut() -> bool) {
        let never_park = self.never_park();
        let mut backoff = Backoff::new();
        loop {
            let seen = self.doorbell.current();
            self.drive();
            if done() {
                return;
            }
            // Another thread holds the combiner role.  Spin briefly before
            // pausing: with small batches the combiner's whole cycle is
            // shorter than a futex sleep/wake round trip, so most results
            // arrive within a few yields.  The yield also donates the CPU to
            // the combiner on oversubscribed machines.
            if never_park {
                // Slot-free hand-off: never park.  Spin on our own
                // sequence-stamped cells, then loop back to re-attempt the
                // activation (if our op is still buffered, we will
                // eventually win the election and combine it ourselves).
                // The pauses escalate into the bounded backoff, so a long
                // wait costs capped sleeps rather than a pegged core.
                for _ in 0..SPIN_WAIT {
                    std::thread::yield_now();
                    if done() {
                        return;
                    }
                }
                backoff.pause();
            } else {
                let mut delivered = false;
                for _ in 0..SPIN_WAIT {
                    std::thread::yield_now();
                    if done() {
                        return;
                    }
                    if self.doorbell.current() != seen {
                        // A hand-off happened; re-attempt the activation
                        // rather than parking on a generation that
                        // already passed.
                        delivered = true;
                        break;
                    }
                }
                if !delivered {
                    // Park until the next hand-off, then re-check /
                    // re-attempt.
                    self.doorbell.wait_past(seen);
                }
            }
        }
    }

    /// Deposits one call and drives combining until its result is available
    /// (the private `wait` holds the waiting protocol).
    pub fn call(&self, shard: usize, op: Operation<K, V>) -> OpResult<V> {
        let slot = Arc::new(ResultCell::new());
        self.buffer.push(
            shard,
            Pending {
                op,
                slot: Arc::clone(&slot),
            },
        );
        let mut result = None;
        self.wait(|| {
            result = slot.try_take();
            result.is_some()
        });
        result.expect("wait returns once the cell was taken")
    }

    /// Deposits a whole sub-batch of operations (sharing one buffer shard)
    /// and drives combining until every result is available, returning them
    /// in operation order: one publication-ring pass and one waiting loop
    /// for the entire sub-batch instead of a blocking round trip per
    /// operation.
    pub fn call_batch(&self, shard: usize, ops: Vec<Operation<K, V>>) -> Vec<OpResult<V>> {
        self.wait_batch(&self.submit_batch(shard, ops))
    }

    /// Drives combining until every cell of an earlier
    /// [`ConcurrentMap::submit_batch`] on this map has been filled, and
    /// returns the results in cell order.  This is the blocking half of
    /// [`ConcurrentMap::call_batch`]; `wsm-shard` calls it per shard after
    /// depositing all of a caller's sub-batches.
    ///
    /// The deposited operations need not execute in a single combine — a
    /// concurrent combiner may drain a prefix of the publication while the
    /// rest is still in flight — so the probe harvests cells incrementally
    /// until all have been filled.
    pub fn wait_batch(&self, cells: &[Arc<ResultCell<OpResult<V>>>]) -> Vec<OpResult<V>> {
        if cells.is_empty() {
            return Vec::new();
        }
        let mut results: Vec<Option<OpResult<V>>> = cells.iter().map(|_| None).collect();
        let mut remaining = cells.len();
        self.wait(|| {
            for (cell, out) in cells.iter().zip(results.iter_mut()) {
                if out.is_none() {
                    if let Some(r) = cell.try_take() {
                        *out = Some(r);
                        remaining -= 1;
                    }
                }
            }
            remaining == 0
        });
        results
            .into_iter()
            .map(|r| r.expect("wait returns once every cell was taken"))
            .collect()
    }

    /// Deposits a sub-batch of operations *without waiting*, returning each
    /// operation's sequence-stamped result cell in operation order.  This is
    /// the async entry point: an `await`-able caller (the `wsm-svc`
    /// front-end) registers its task waker on each still-empty cell
    /// ([`ResultCell::set_waker`]) and is woken by the combiner's fill —
    /// [`Handoff::Waker`] — instead of blocking here.
    ///
    /// The deposit alone does not guarantee execution: some context must
    /// drive the combiner election.  Callers either follow up with
    /// [`ConcurrentMap::pump`] (a non-blocking election attempt — the async
    /// future does this on every poll) or rely on a concurrent combiner,
    /// whose activation keeps re-running while the buffer is non-empty.
    pub fn submit_batch(
        &self,
        shard: usize,
        ops: Vec<Operation<K, V>>,
    ) -> Vec<Arc<ResultCell<OpResult<V>>>> {
        let cells: Vec<Arc<ResultCell<OpResult<V>>>> = (0..ops.len())
            .map(|_| Arc::new(ResultCell::new()))
            .collect();
        let items: Vec<Pending<K, V>> = ops
            .into_iter()
            .zip(&cells)
            .map(|(op, cell)| Pending {
                op,
                slot: Arc::clone(cell),
            })
            .collect();
        if !items.is_empty() {
            self.buffer.push_batch(shard, items);
        }
        cells
    }

    /// One non-blocking combiner election attempt: if the activation is free
    /// and work is buffered, the calling thread combines it (filling — and
    /// in waker mode waking — the affected cells); if another thread holds
    /// the activation, returns immediately.  Never parks and never waits.
    /// This is how async callers donate their poll time to the combiner —
    /// flat combining's "whoever shows up does the work" — without any
    /// thread blocking.
    pub fn pump(&self) {
        self.drive();
    }

    /// True while any deposited operation is still in the publication
    /// buffer (i.e. not yet flushed into a combiner's batch).  An async
    /// caller whose cells are empty while this is `false` knows its
    /// operations are in some in-flight batch whose fill will wake it, so it
    /// can safely suspend; while `true` it must keep pumping (or yield and
    /// re-poll) because the combiner election may be unheld.
    pub fn buffered(&self) -> bool {
        !self.buffer.is_empty()
    }

    /// One pass of the combiner election: attempt the activation (combining
    /// everything buffered while we hold it) and ring the doorbell after
    /// releasing it.
    fn drive(&self) {
        // Try to become the combiner; whoever wins processes everything
        // currently buffered (and re-runs while more arrives).  The
        // readiness condition is `true` so that *holding* the activation
        // always implies at least one run — and therefore a ring below —
        // even if the buffer momentarily looks empty.
        let runs = self.buffer.activate(
            || true,
            || {
                let drained = self.combine();
                let more = !self.buffer.is_empty();
                if more && drained == 0 {
                    // The buffer claims an item the flush could not see:
                    // a producer is mid-publish (counted, seq stamp not
                    // yet released).  Donate the CPU so its store lands
                    // instead of respinning the activation hot; under
                    // the model checker this yield is also what lets the
                    // fair scheduler run the producer (found as a
                    // starvation livelock by tests/model_doorbell.rs).
                    wsm_check::thread::yield_now();
                }
                more
            },
        );
        if runs > 0 {
            // Ring once more *after releasing* the activation: anyone
            // whose activation attempt we beat re-checks against a
            // released interface, which closes the hand-off race.  In cell
            // mode nobody parks, so the ring is a cheap uncontended bump
            // that keeps mixed-mode callers (and `len` observers) correct.
            self.doorbell.ring();
        }
    }

    /// Flushes the buffer and runs the accumulated batch through the
    /// underlying map on this (the combiner's) thread, delivering each result
    /// to its caller.  Returns the number of operations the flush actually
    /// drained.
    fn combine(&self) -> usize {
        // Uncontended by construction: only the activation holder combines.
        let mut scratch = self.scratch.lock();
        let CombineScratch { pending, slots } = &mut *scratch;
        // Clear rather than assert empty: if a previous combine unwound out
        // of `run_batch`, stale slots must not poison every later combine
        // (that batch's callers are lost either way).
        pending.clear();
        slots.clear();
        let _cost = self.buffer.flush_into(pending);
        let drained = pending.len();
        if pending.is_empty() {
            return 0;
        }
        let batch: Vec<TaggedOp<K, V>> = pending
            .drain(..)
            .enumerate()
            .map(|(i, p)| {
                slots.push(p.slot);
                TaggedOp {
                    id: i as OpId,
                    op: p.op,
                }
            })
            .collect();
        let mut inner = self.inner.lock();
        // Commit point: the WAL (or any other observer) must see the batch
        // before it mutates the map — and under the same lock, so a
        // checkpointer holding `inner` can never observe applied state the
        // hook has not logged.  If the hook panics (e.g. the log device
        // died), the batch is neither logged nor applied.
        if let Some(hook) = &self.commit_hook {
            hook(&batch);
        }
        let (results, _cost) = inner.run_batch(batch);
        drop(inner);
        for (id, result) in results {
            slots[id as usize].fill(result);
        }
        slots.clear();
        drained
    }
}

fn kind<V>(r: &OpResult<V>) -> &'static str {
    match r {
        OpResult::Search(_) => "Search",
        OpResult::Insert(_) => "Insert",
        OpResult::Delete(_) => "Delete",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::m1::M1;
    use crate::m2::M2;
    use std::sync::Arc;

    #[test]
    fn single_threaded_roundtrip() {
        let map = ConcurrentMap::new(M1::<u64, u64>::new(4), 4);
        assert_eq!(map.insert(0, 1, 10), None);
        assert_eq!(map.insert(0, 1, 11), Some(10));
        assert_eq!(map.search(0, 1), Some(11));
        assert_eq!(map.search(0, 2), None);
        assert_eq!(map.delete(0, 1), Some(11));
        assert_eq!(map.search(0, 1), None);
        assert_eq!(map.len(), 0);
    }

    #[test]
    fn inline_path_under_contention() {
        let map = Arc::new(ConcurrentMap::new(M1::<u64, u64>::new(8), 8));
        let threads = 8u64;
        let per = 1_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let map = Arc::clone(&map);
                std::thread::spawn(move || {
                    for i in 0..per {
                        let key = t * per + i;
                        assert_eq!(map.insert(t as usize, key, key + 1), None);
                        assert_eq!(map.search(t as usize, key), Some(key + 1));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(map.len(), (threads * per) as usize);
    }

    #[test]
    fn many_threads_insert_disjoint_ranges() {
        let map = Arc::new(ConcurrentMap::new(M1::<u64, u64>::new(8), 8));
        let threads = 8u64;
        let per = 2_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let map = Arc::clone(&map);
                std::thread::spawn(move || {
                    for i in 0..per {
                        let key = t * per + i;
                        assert_eq!(map.insert(t as usize, key, key * 2), None);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(map.len(), (threads * per) as usize);
        // Spot check values from a different thread.
        for key in (0..threads * per).step_by(997) {
            assert_eq!(map.search(0, key), Some(key * 2));
        }
    }

    #[test]
    fn concurrent_mixed_workload_on_m2_is_consistent() {
        // Threads operate on disjoint key ranges so per-key sequential
        // semantics are checkable despite arbitrary interleaving.
        let map = Arc::new(ConcurrentMap::new(M2::<u64, u64>::new(4), 4));
        let threads = 4u64;
        let per = 1_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let map = Arc::clone(&map);
                std::thread::spawn(move || {
                    let base = t * 1_000_000;
                    for i in 0..per {
                        let key = base + i;
                        assert_eq!(map.insert(t as usize, key, i), None);
                        assert_eq!(map.search(t as usize, key), Some(i));
                        if i % 3 == 0 {
                            assert_eq!(map.delete(t as usize, key), Some(i));
                            assert_eq!(map.search(t as usize, key), None);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let expected_per_thread = per - per.div_ceil(3);
        assert_eq!(map.len(), (threads * expected_per_thread) as usize);
    }

    #[test]
    fn call_batch_returns_results_in_operation_order() {
        let map = ConcurrentMap::new(M1::<u64, u64>::new(4), 4);
        assert!(map.call_batch(0, Vec::new()).is_empty());
        let ops: Vec<Operation<u64, u64>> = (0..100)
            .map(|k| Operation::Insert(k, k * 2))
            .chain((0..100).map(Operation::Search))
            .chain([Operation::Delete(7), Operation::Search(7)])
            .collect();
        let results = map.call_batch(0, ops);
        assert_eq!(results.len(), 202);
        for k in 0..100u64 {
            assert_eq!(results[k as usize], OpResult::Insert(None));
            assert_eq!(results[100 + k as usize], OpResult::Search(Some(k * 2)));
        }
        assert_eq!(results[200], OpResult::Delete(Some(14)));
        assert_eq!(results[201], OpResult::Search(None));
        assert_eq!(map.len(), 99);
    }

    #[test]
    fn call_batch_under_contention_from_many_threads() {
        for handoff in [Handoff::Doorbell, Handoff::Cell] {
            let map = Arc::new(ConcurrentMap::new(M1::<u64, u64>::new(8), 8).with_handoff(handoff));
            let threads = 6u64;
            let per = 400u64;
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let map = Arc::clone(&map);
                    std::thread::spawn(move || {
                        let base = t * 1_000_000;
                        for chunk in 0..4 {
                            let ops: Vec<Operation<u64, u64>> = (0..per / 4)
                                .map(|i| {
                                    let k = base + chunk * (per / 4) + i;
                                    Operation::Insert(k, k + 1)
                                })
                                .collect();
                            let keys: Vec<u64> = ops.iter().map(|o| *o.key()).collect();
                            for r in map.call_batch(t as usize, ops) {
                                assert_eq!(r, OpResult::Insert(None));
                            }
                            let results = map.call_batch(
                                t as usize,
                                keys.iter().copied().map(Operation::Search).collect(),
                            );
                            for (k, r) in keys.iter().zip(results) {
                                assert_eq!(r, OpResult::Search(Some(k + 1)));
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(map.len(), (threads * per) as usize);
        }
    }

    #[test]
    fn cell_handoff_point_ops_under_contention() {
        let map =
            Arc::new(ConcurrentMap::new(M1::<u64, u64>::new(8), 8).with_handoff(Handoff::Cell));
        assert_eq!(map.handoff(), Handoff::Cell);
        let threads = 8u64;
        let per = 500u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let map = Arc::clone(&map);
                std::thread::spawn(move || {
                    for i in 0..per {
                        let key = t * per + i;
                        assert_eq!(map.insert(t as usize, key, key + 1), None);
                        assert_eq!(map.search(t as usize, key), Some(key + 1));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(map.len(), (threads * per) as usize);
    }

    #[test]
    fn maintenance_runs_visible_through_front_end() {
        let map = ConcurrentMap::new(M2::<u64, u64>::new(4), 4);
        for k in 0..4_000u64 {
            map.insert(0, k, k);
        }
        // Deletions punch holes into the cascade, which the dedicated
        // maintenance runs refill.  M1 has no cascade.
        for k in 0..2_000u64 {
            map.delete(0, k * 2);
        }
        assert!(map.maintenance_runs() > 0);
        let m1 = ConcurrentMap::new(M1::<u64, u64>::new(4), 4);
        m1.insert(0, 1, 1);
        assert_eq!(m1.maintenance_runs(), 0);
    }

    #[test]
    fn combiner_batches_many_callers() {
        // With many threads hammering a single hot key, the per-operation
        // effective work must stay bounded by a constant that does not depend
        // on the map size: after the first access the key sits at the front of
        // the working-set structure, and duplicates that land in the same
        // batch combine.  (How much combining happens depends on thread
        // timing, so the constant below only assumes front-of-structure
        // accesses plus per-batch overhead, not any particular batch size.)
        let n = 1u64 << 12;
        let mut inner = M1::<u64, u64>::new(8);
        inner.run_ops((0..n).map(|i| Operation::Insert(i, i)).collect());
        let warm_work = inner.effective_work();
        let map = Arc::new(ConcurrentMap::new(inner, 8));
        let threads = 8;
        let per = 500u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let map = Arc::clone(&map);
                std::thread::spawn(move || {
                    for _ in 0..per {
                        assert_eq!(map.search(t, n / 2), Some(n / 2));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total_ops = threads as u64 * per;
        let work = map.effective_work() - warm_work;
        assert!(
            work < total_ops * 60,
            "hot-key hammering must have size-independent per-op cost: {work} work for {total_ops} ops"
        );
    }
}
