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
//! activation runs the batch, as in the paper's implicit batching.  No
//! thread hop sits between the election and `run_batch`; the batched map's
//! only internal fork (PESort's, above 2 048 keys) is a scoped-thread
//! `join` under `wsm-pool`'s fork budget, taken by the combiner itself.
//!
//! Waiting callers park on a single generation-counting [`Doorbell`]; the
//! combiner rings it once per activation (after distributing a whole batch
//! of results), so there is no fixed-timeout polling.  A caller re-attempts
//! the activation on every wake-up, which also closes the classic
//! flat-combining hand-off race (a combiner observing an empty buffer and
//! exiting just as a new operation lands): the ring that follows every
//! activation guarantees somebody re-checks.  Each result travels through
//! the caller's own sequence-stamped [`crate::handoff::ResultCell`], which
//! the caller probes between steps of its wait.
//!
//! Every blocking caller waits this one way, whether it runs on an OS
//! thread, inside an executor task or under `block_on`.  Parking is safe
//! there too, because an activation is never held across a suspension
//! point: a caller that loses the election waits on a thread that is
//! running, and that thread rings the doorbell when it releases.  Async
//! callers that do not wait at all deposit with
//! [`ConcurrentMap::submit_batch`] and drive the election with
//! [`ConcurrentMap::pump`] from their polls (the `wsm-svc` front-end).
//!
//! Every request is deposited by one routine, over one map or a family of
//! them ([`ConcurrentMap::submit_routed`]): it creates the request's result
//! cells once, in operation order, and moves each operation straight into
//! its map's [`ParallelBuffer`] under one buffer-shard lock per map it
//! touches, taken in map order, with no staging vector in between.
//!
//! Ordinary OS threads (as in the tests, examples and benches) are the
//! intended callers, matching the paper's model of `p` processors calling
//! the map.  `wsm-shard`'s `ShardedMap::run_batch` puts no thread between
//! those callers and the shards: the calling thread deposits its batch with
//! [`ConcurrentMap::call_routed`], makes one election pass over the shards,
//! then waits shard by shard, on that shard's own doorbell.  Both passes
//! start at the caller's home shard ([`crate::caller_hint`] modulo the shard
//! count), so two callers that arrive together each combine their own shard
//! and its buffers stay in one core's cache.

use crate::buffer::{Deposit, ParallelBuffer};
use crate::context::caller_hint;
use crate::doorbell::Doorbell;
use crate::handoff::ResultCell;
use crate::ops::{BatchedMap, OpId, OpResult, Operation, TaggedOp};
use std::sync::Arc;
use wsm_sync::Mutex;

struct Pending<K, V> {
    op: Operation<K, V>,
    slot: Arc<ResultCell<OpResult<V>>>,
}

/// A request's result cells, in operation order.
type Cells<V> = Vec<Arc<ResultCell<OpResult<V>>>>;

/// One map's share of a request: the open deposit into that map's buffer
/// while [`ConcurrentMap::deposit`] runs, and the index of the request's last
/// operation routed there.
struct Lane<'a, K, V> {
    open: Option<Deposit<'a, Pending<K, V>>>,
    last: Option<usize>,
}

/// How a waiting caller learns that its result has been deposited.  There
/// is one way: a blocking caller parks on the map's generation-counting
/// [`Doorbell`], which the combiner rings once per activation.  The type
/// stays only because the benchmark's run metadata and its service-backend
/// wrappers still name it; it goes with the next change to the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Handoff {
    /// Park on the map's shared doorbell.
    Doorbell,
}

/// How many yield-and-recheck rounds a waiting caller performs before parking
/// on the doorbell.  A combiner cycle for a small batch completes in a few
/// microseconds — comparable to a futex sleep/wake round trip — so a few
/// yields usually deliver the result without a park; large values only burn
/// sched_yield calls.
const SPIN_WAIT: u32 = 4;

/// Reusable combiner-side buffers: the flushed deposits, their result
/// cells, the batch handed to the map and the results it hands back, so a
/// warmed combine allocates nothing of its own.  Only the thread holding the
/// buffer's activation touches these, so the mutex is uncontended by
/// construction — it exists to keep the map `Sync` without `unsafe`.
struct CombineScratch<K, V> {
    pending: Vec<Pending<K, V>>,
    slots: Vec<Arc<ResultCell<OpResult<V>>>>,
    batch: Vec<TaggedOp<K, V>>,
    results: Vec<(OpId, OpResult<V>)>,
    /// The [`caller_hint`] of the thread that ran the last combine.
    last_combiner: Option<usize>,
    /// Combines that ran on another thread than the combine before them.
    handovers: u64,
}

/// The indices `0..len`, starting at the caller's home `shard % len` and
/// going round-robin: the order in which a caller elects and waits on a
/// family of maps.  Two callers with different homes each start on their
/// own map, so a map's combines, and the buffers they fill, stay on one
/// thread.
fn home_first(len: usize, shard: usize) -> impl Iterator<Item = usize> {
    let home = shard % len.max(1);
    (home..len).chain(0..home)
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
                batch: Vec::new(),
                results: Vec::new(),
                last_combiner: None,
                handovers: 0,
            }),
            doorbell: Doorbell::default(),
            commit_hook: None,
        }
    }

    /// Always `usize::MAX`: every batch runs on the combiner thread, whatever
    /// its size.  Kept only because the benchmark's run metadata still
    /// records it; it goes with the next change to the benchmark.
    pub fn inline_threshold(&self) -> usize {
        usize::MAX
    }

    /// Always [`Handoff::Doorbell`], the one hand-off.  Kept only because
    /// the benchmark's run metadata still records it; it goes with the next
    /// change to the benchmark.
    pub fn handoff(&self) -> Handoff {
        Handoff::Doorbell
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

    /// How many combines ran on another thread than the combine before them
    /// (threads told apart by [`caller_hint`]).  Each one moves the map's
    /// buffers and tree into another core's cache.  Takes the combiner's
    /// scratch lock briefly.
    pub fn combiner_handovers(&self) -> u64 {
        self.scratch.lock().handovers
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

    /// Drives combining until `done` reports that the caller's results have
    /// arrived; `done` is the caller's probe of its own result cell(s) and is
    /// called before the first step and again after every step of the wait.
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
        if done() {
            return;
        }
        loop {
            let seen = self.doorbell.current();
            self.drive();
            if done() {
                return;
            }
            // Another thread holds the combiner role.  Spin briefly before
            // parking: with small batches the combiner's whole cycle is
            // shorter than a futex sleep/wake round trip, so most results
            // arrive within a few yields.  The yield also donates the CPU to
            // the combiner on oversubscribed machines.
            let mut delivered = false;
            for _ in 0..SPIN_WAIT {
                std::thread::yield_now();
                if done() {
                    return;
                }
                if self.doorbell.current() != seen {
                    // A hand-off happened; re-attempt the activation rather
                    // than parking on a generation that already passed.
                    delivered = true;
                    break;
                }
            }
            if !delivered {
                // Park until the next hand-off, then re-check / re-attempt.
                self.doorbell.wait_past(seen);
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
    /// in operation order: one buffer deposit and one waiting loop for the
    /// entire sub-batch instead of a blocking round trip per operation.
    pub fn call_batch(&self, shard: usize, ops: Vec<Operation<K, V>>) -> Vec<OpResult<V>> {
        Self::call_routed(std::slice::from_ref(self), shard, ops, |_| 0)
    }

    /// Deposits a sub-batch of operations *without waiting*, returning each
    /// operation's sequence-stamped result cell in operation order.  This is
    /// the async entry point: an `await`-able caller (the `wsm-svc`
    /// front-end) probes its cells from its polls instead of blocking here.
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
        Self::submit_routed(std::slice::from_ref(self), shard, ops, |_| 0)
    }

    /// [`ConcurrentMap::submit_batch`] over a family of maps: operation `i`
    /// goes to `maps[route(key)]`, and `cells[i]` is its result cell.  This
    /// is `wsm-shard`'s async deposit.
    pub fn submit_routed(
        maps: &[Self],
        shard: usize,
        ops: Vec<Operation<K, V>>,
        route: impl Fn(&K) -> usize,
    ) -> Vec<Arc<ResultCell<OpResult<V>>>> {
        Self::deposit(maps, shard, ops, route).0
    }

    /// [`ConcurrentMap::call_batch`] over a family of maps, routed as in
    /// [`ConcurrentMap::submit_routed`]; results come back in operation
    /// order.  After the deposit the caller makes one election attempt on
    /// every map with buffered work ([`ConcurrentMap::pump_routed`]), so no
    /// map's share waits behind another map's combiner, and then waits map
    /// by map until each map it touched has filled the last operation routed
    /// to it.  Both passes start at the caller's home map, `shard %
    /// maps.len()`, and go round-robin, so callers with different homes
    /// each combine their own map first.
    pub fn call_routed(
        maps: &[Self],
        shard: usize,
        ops: Vec<Operation<K, V>>,
        route: impl Fn(&K) -> usize,
    ) -> Vec<OpResult<V>> {
        let (cells, lanes) = Self::deposit(maps, shard, ops, route);
        Self::pump_routed(maps, shard);
        for i in home_first(maps.len(), shard) {
            if let Some(last) = lanes[i].last {
                maps[i].wait(|| cells[last].is_filled());
            }
        }
        // A map's operations of this request were published together, so one
        // combine runs them all: once it has filled the last, a cell still
        // empty here is one its fill loop has not reached yet.
        cells
            .iter()
            .map(|cell| loop {
                if let Some(result) = cell.try_take() {
                    break result;
                }
                wsm_sync::thread::yield_now();
            })
            .collect()
    }

    /// The deposit routine of every request: creates the result cells once,
    /// in operation order, opens a deposit into the buffer of every map the
    /// request touches, in map order, and moves each operation straight into
    /// the buffer of `maps[route(key)]`.  Each map receives its operations in
    /// request order and publishes them together when its deposit closes.
    ///
    /// It routes every operation twice: once to learn which maps the request
    /// touches, and again to push.  Opening every touched map before the
    /// first push, in map order, means two depositors never wait on each
    /// other in a cycle, and no map publishes part of a request before the
    /// rest of it is in.  A map the request does not touch is not locked, so
    /// its buffer stays in the cache of the core that combines it.
    fn deposit<'a>(
        maps: &'a [Self],
        shard: usize,
        ops: Vec<Operation<K, V>>,
        route: impl Fn(&K) -> usize,
    ) -> (Cells<V>, Vec<Lane<'a, K, V>>) {
        let cells: Cells<V> = (0..ops.len())
            .map(|_| Arc::new(ResultCell::new()))
            .collect();
        let mut lanes: Vec<Lane<'a, K, V>> = maps
            .iter()
            .map(|_| Lane {
                open: None,
                last: None,
            })
            .collect();
        for (i, op) in ops.iter().enumerate() {
            lanes[route(op.key())].last = Some(i);
        }
        for (map, lane) in maps.iter().zip(&mut lanes) {
            if lane.last.is_some() {
                lane.open = Some(map.buffer.deposit(shard));
            }
        }
        for (op, cell) in ops.into_iter().zip(&cells) {
            if let Some(open) = &mut lanes[route(op.key())].open {
                open.push(Pending {
                    op,
                    slot: Arc::clone(cell),
                });
            }
        }
        for lane in &mut lanes {
            lane.open = None;
        }
        (cells, lanes)
    }

    /// One non-blocking combiner election attempt: if the activation is free
    /// and work is buffered, the calling thread combines it (filling the
    /// affected cells); if another thread holds
    /// the activation, returns immediately.  Never parks and never waits.
    /// This is how async callers donate their poll time to the combiner —
    /// flat combining's "whoever shows up does the work" — without any
    /// thread blocking.
    pub fn pump(&self) {
        self.drive();
    }

    /// [`ConcurrentMap::pump`] on every map of a family with buffered work,
    /// starting at the caller's home map, `maps[shard % maps.len()]`, and
    /// going round-robin.  When callers with different homes arrive
    /// together, each combines its own map first, so a map's buffers and
    /// tree stay in the cache of one core.  This is `wsm-shard`'s pump.
    pub fn pump_routed(maps: &[Self], shard: usize) {
        for i in home_first(maps.len(), shard) {
            if maps[i].buffered() {
                maps[i].drive();
            }
        }
    }

    /// True while any deposited operation is still in the parallel buffer
    /// (i.e. not yet flushed into a combiner's batch).  `wsm-shard`
    /// pumps only the shards for which this holds.
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
                    // a producer is mid-deposit (counted, not yet pushed
                    // under its shard's lock).  Donate the CPU so its push
                    // lands instead of respinning the activation hot; under
                    // the model checker this yield is also what lets the
                    // fair scheduler run the producer (found as a
                    // starvation livelock by tests/model_doorbell.rs).
                    wsm_sync::thread::yield_now();
                }
                more
            },
        );
        if runs > 0 {
            // Ring once more *after releasing* the activation: anyone
            // whose activation attempt we beat re-checks against a
            // released interface, which closes the hand-off race.
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
        let CombineScratch {
            pending,
            slots,
            batch,
            results,
            last_combiner,
            handovers,
        } = &mut *scratch;
        // Clear rather than assert empty: if a previous combine unwound out
        // of `run_batch`, stale slots must not poison every later combine
        // (that batch's callers are lost either way).
        pending.clear();
        slots.clear();
        batch.clear();
        results.clear();
        let _cost = self.buffer.flush_into(pending);
        let drained = pending.len();
        if pending.is_empty() {
            return 0;
        }
        let me = caller_hint();
        if last_combiner.is_some_and(|last| last != me) {
            *handovers += 1;
        }
        *last_combiner = Some(me);
        batch.extend(pending.drain(..).enumerate().map(|(i, p)| {
            slots.push(p.slot);
            TaggedOp {
                id: i as OpId,
                op: p.op,
            }
        }));
        let mut inner = self.inner.lock();
        // Commit point: the WAL (or any other observer) must see the batch
        // before it mutates the map — and under the same lock, so a
        // checkpointer holding `inner` can never observe applied state the
        // hook has not logged.  If the hook panics (e.g. the log device
        // died), the batch is neither logged nor applied.
        if let Some(hook) = &self.commit_hook {
            hook(batch);
        }
        let _cost = inner.run_batch(batch, results);
        drop(inner);
        for (id, result) in results.drain(..) {
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
        let map = Arc::new(ConcurrentMap::new(M1::<u64, u64>::new(8), 8));
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
