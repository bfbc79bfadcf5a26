//! # wsm-shard — sharded `ConcurrentMap` front-end
//!
//! A single [`ConcurrentMap`] funnels every operation through one flat
//! combiner, so past a handful of threads the combiner — not the batched map
//! underneath — becomes the bottleneck.  [`ShardedMap`] scales past that
//! point by partitioning the keyspace across `S` *independent* shards, each a
//! full `ConcurrentMap` with its own combiner, publication rings and recency
//! clock, behind a thin router:
//!
//! ```text
//!             caller batch [op, op, op, …]
//!                          │ split by Partitioner::shard_of
//!             ┌────────────┼────────────┐
//!             ▼            ▼            ▼
//!        shard 0       shard 1   …  shard S-1        (each: ParallelBuffer →
//!      call_batch     call_batch    call_batch        combiner → M1/M2)
//!             │            │            │
//!             └────────────┼────────────┘
//!                          ▼ stitch by route map
//!             results in caller order
//! ```
//!
//! Per-key operation order is preserved: the partitioner is a pure function
//! of the key, so every operation on a key flows through exactly one shard,
//! and within a caller's batch the shard's group resolution applies same-key
//! operations in sub-batch order.  Cross-key (cross-shard) operations carry
//! no ordering obligation — each shard is independently linearizable, which
//! is exactly the per-key guarantee the property suite checks.
//!
//! ## Dispatch discipline (deadlock freedom)
//!
//! Routing a batch to several busy shards means making several *blocking*
//! [`ConcurrentMap::call_batch`] calls.  Running those on the global
//! work-stealing pool could deadlock: every worker could end up parked
//! waiting on some shard's doorbell while the batch job that would ring it
//! sits unclaimed in the injector.  The router therefore owns a **dedicated**
//! pool, used for nothing but dispatch.  A router worker that wins a shard's
//! combiner election executes the batch *inline on itself* (`wsm_pool::run`
//! is inline on any pool worker, and un-stolen `join` halves run on the
//! caller), so its progress never depends on another — possibly blocked —
//! router worker.  When only one shard has work (or `S == 1`) the router
//! pool is bypassed and the call runs inline on the caller.
//!
//! **Service-task callers never run sub-batches inline.**  The
//! inline-on-caller shortcut assumes the caller is an ordinary OS thread
//! that may block in `call_batch`'s waiting loop.  A caller that is an
//! *async service task* (an executor worker polling a `wsm-svc` future —
//! [`wsm_core::in_service_task`]) must not: the combiner election it would
//! wait on can depend on other tasks of the same executor being polled, and
//! with a single executor worker that wait is a deadlock.  When the caller
//! context is a service task, [`ShardedMap::run_batch`] therefore routes
//! *every* sub-batch — including a single busy shard, and including `S == 1`
//! (whose router pool is created lazily on first need) — through the
//! dedicated router pool: the blocking election runs on a router worker
//! that is allowed to block, and the service task's wait shrinks to a
//! bounded join on work actually in progress.  (The genuinely non-blocking
//! surface for async callers is [`ShardedMap::submit_batch`] +
//! [`ShardedMap::pump`], which never waits at all — `run_batch` from a
//! service task is the degraded-but-safe path.)
//!
//! ## Knobs
//!
//! * `WSM_SHARDS` — default shard count for [`ShardedMap::new`] (default 1).
//! * `WSM_HANDOFF` — waiter hand-off inside each shard (`doorbell` | `cell`
//!   | `waker`), see [`Handoff`]; [`ShardedMap::with_handoff`] overrides per
//!   map.
//! * [`Partitioner`] — pluggable placement: [`HashPartitioner`] (default,
//!   multiplicative hashing) or [`RangePartitioner`] for ordered workloads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod partition;

pub use partition::{HashPartitioner, Partitioner, RangePartitioner};

use std::sync::{Arc, Mutex, OnceLock};

use wsm_core::{caller_hint, BatchedMap, ConcurrentMap, Handoff, OpResult, Operation, ResultCell};

/// Submitter-ring count for each shard's parallel buffer (the same default a
/// standalone front-end would pick for a handful of threads).
const BUFFER_SHARDS: usize = 8;

/// Router dispatch job: `(shard index, take-once slot with its sub-batch)`.
type DispatchJob<K, V> = (usize, Mutex<Option<Vec<Operation<K, V>>>>);

/// Shard count from `WSM_SHARDS`, default 1 (unsharded).  `WSM_SHARDS=0` or
/// garbage warns once on stderr instead of silently running unsharded.
fn shards_from_env() -> usize {
    wsm_core::env::parse("WSM_SHARDS", "a shard count >= 1", 1, |&s| s >= 1)
}

/// Point-in-time counters for one shard, for occupancy / load-balance
/// reporting (experiment E19 aggregates these into per-shard `W/W_L` rows).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardStats {
    /// Index of the shard these counters describe.
    pub shard: usize,
    /// Items currently stored in the shard.
    pub len: usize,
    /// Total effective work charged by the shard's batched map.
    pub effective_work: u64,
    /// Background maintenance runs executed by the shard's map (0 for maps
    /// without a maintenance cascade).
    pub maintenance_runs: u64,
}

/// A hash- or range-partitioned family of [`ConcurrentMap`] shards behind a
/// batch router.  See the [crate docs](crate) for the architecture and the
/// dispatch discipline.
pub struct ShardedMap<K, V, M, P = HashPartitioner> {
    shards: Vec<ConcurrentMap<K, V, M>>,
    partitioner: P,
    /// Dedicated dispatch pool.  Built eagerly for multi-shard maps (whose
    /// `run_batch` fan-out always needs it) and lazily for `S == 1` maps,
    /// which only need one if a service-task caller ever shows up (see the
    /// dispatch discipline in the crate docs).
    router: OnceLock<wsm_pool::ThreadPool>,
}

impl<K, V, M> ShardedMap<K, V, M, HashPartitioner>
where
    K: Ord + Clone + Send + std::hash::Hash,
    V: Clone + Send,
    M: BatchedMap<K, V> + Send,
{
    /// Builds a sharded map with the shard count taken from `WSM_SHARDS`
    /// (default 1).  `make(i)` constructs the batched map for shard `i`.
    pub fn new(make: impl FnMut(usize) -> M) -> Self {
        Self::with_shards(shards_from_env(), make)
    }

    /// Builds a sharded map with exactly `shards` shards (at least one).
    /// `make(i)` constructs the batched map for shard `i`.
    pub fn with_shards(shards: usize, mut make: impl FnMut(usize) -> M) -> Self {
        let shards = shards.max(1);
        let router = OnceLock::new();
        if shards > 1 {
            let _ = router.set(wsm_pool::ThreadPool::new(shards));
        }
        ShardedMap {
            shards: (0..shards)
                .map(|i| ConcurrentMap::new(make(i), BUFFER_SHARDS))
                .collect(),
            partitioner: HashPartitioner,
            router,
        }
    }
}

impl<K, V, M, P> ShardedMap<K, V, M, P>
where
    K: Ord + Clone + Send,
    V: Clone + Send,
    M: BatchedMap<K, V> + Send,
    P: Partitioner<K>,
{
    /// Swaps in a different partitioner (e.g. [`RangePartitioner`] for
    /// ordered workloads).  Must be done before the map holds data routed by
    /// the old partitioner — keys do not migrate.
    #[must_use]
    pub fn with_partitioner<Q: Partitioner<K>>(self, partitioner: Q) -> ShardedMap<K, V, M, Q> {
        ShardedMap {
            shards: self.shards,
            partitioner,
            router: self.router,
        }
    }

    /// Overrides the waiter hand-off mode of every shard (the default comes
    /// from `WSM_HANDOFF`; see [`Handoff`]).
    #[must_use]
    pub fn with_handoff(mut self, handoff: Handoff) -> Self {
        self.shards = self
            .shards
            .into_iter()
            .map(|shard| shard.with_handoff(handoff))
            .collect();
        self
    }

    /// Overrides the inline-batch threshold of every shard (see
    /// [`ConcurrentMap::with_inline_threshold`]).
    #[must_use]
    pub fn with_inline_threshold(mut self, threshold: usize) -> Self {
        self.shards = self
            .shards
            .into_iter()
            .map(|shard| shard.with_inline_threshold(threshold))
            .collect();
        self
    }

    /// Rebuilds each shard's front-end through `f` (builder style).  This is
    /// how `wsm-wal` installs per-shard commit hooks: each shard's combiner
    /// is its own serialization point, so durability wraps the shard's
    /// [`ConcurrentMap`] itself rather than the router.  Must run before the
    /// map is shared — rebuilding discards nothing, but in-flight callers
    /// would race the swap.
    #[must_use]
    pub fn configure_shards(
        mut self,
        mut f: impl FnMut(usize, ConcurrentMap<K, V, M>) -> ConcurrentMap<K, V, M>,
    ) -> Self {
        self.shards = self
            .shards
            .into_iter()
            .enumerate()
            .map(|(i, shard)| f(i, shard))
            .collect();
        self
    }

    /// Runs `f` with exclusive access to one shard's underlying batched map,
    /// serialized against that shard's combiner (see
    /// [`ConcurrentMap::with_inner`]) — the `wsm-wal` checkpointer snapshots
    /// a shard here.  Panics if `shard` is out of range.
    pub fn with_shard_inner<R>(&self, shard: usize, f: impl FnOnce(&mut M) -> R) -> R {
        self.shards[shard].with_inner(f)
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The waiter hand-off mode of the shards (uniform across the map —
    /// [`ShardedMap::with_handoff`] sets all shards at once).
    pub fn handoff(&self) -> Handoff {
        self.shards[0].handoff()
    }

    /// The shard that owns `key` under this map's partitioner.
    pub fn shard_of(&self, key: &K) -> usize {
        self.partitioner.shard_of(key, self.shards.len())
    }

    /// Total number of items across all shards (takes each shard's combiner
    /// lock briefly).
    pub fn len(&self) -> usize {
        self.shards.iter().map(ConcurrentMap::len).sum()
    }

    /// True if every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total effective work charged across all shards.
    pub fn effective_work(&self) -> u64 {
        self.shards.iter().map(ConcurrentMap::effective_work).sum()
    }

    /// Total background maintenance runs across all shards.
    pub fn maintenance_runs(&self) -> u64 {
        self.shards
            .iter()
            .map(ConcurrentMap::maintenance_runs)
            .sum()
    }

    /// Per-shard occupancy and cost counters, in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .enumerate()
            .map(|(shard, map)| ShardStats {
                shard,
                len: map.len(),
                effective_work: map.effective_work(),
                maintenance_runs: map.maintenance_runs(),
            })
            .collect()
    }

    /// Searches for a key on its owning shard.
    pub fn get(&self, key: K) -> Option<V> {
        let shard = self.shard_of(&key);
        self.shards[shard].search(caller_hint(), key)
    }

    /// Inserts a key/value pair on the key's owning shard, returning the
    /// previous value if any.
    pub fn insert(&self, key: K, val: V) -> Option<V> {
        let shard = self.shard_of(&key);
        self.shards[shard].insert(caller_hint(), key, val)
    }

    /// Removes a key from its owning shard, returning its value if present.
    pub fn remove(&self, key: K) -> Option<V> {
        let shard = self.shard_of(&key);
        self.shards[shard].delete(caller_hint(), key)
    }

    /// The dedicated router pool, created on first need for `S == 1` maps
    /// (multi-shard maps build it eagerly in the constructor).
    fn router(&self) -> &wsm_pool::ThreadPool {
        self.router
            .get_or_init(|| wsm_pool::ThreadPool::new(self.shards.len()))
    }

    /// Runs a batch of operations, returning results in operation order.
    ///
    /// The batch is split by the partitioner into per-shard sub-batches;
    /// each sub-batch is one [`ConcurrentMap::call_batch`] on its shard.
    /// With one busy shard the call runs inline on the caller; with several,
    /// sub-batches dispatch concurrently on the router pool (see the crate
    /// docs for why that pool is dedicated).  Exception: when the caller is
    /// an async service task ([`wsm_core::in_service_task`]), *every*
    /// sub-batch — even a lone one — dispatches through the router pool, so
    /// the blocking combiner election never runs on an executor worker.
    /// Per-key order within the batch is preserved — same-key operations
    /// stay in one sub-batch, in order.
    pub fn run_batch(&self, ops: Vec<Operation<K, V>>) -> Vec<OpResult<V>> {
        let s = self.shards.len();
        if ops.is_empty() {
            return Vec::new();
        }
        // Service tasks must not run a blocking call_batch inline (see the
        // crate docs' dispatch discipline): push it onto the router pool.
        let inline_allowed = !wsm_core::in_service_task();
        if s == 1 && inline_allowed {
            return self.shards[0].call_batch(caller_hint(), ops);
        }

        // Split: route[i] = (shard, position within that shard's sub-batch).
        let mut per_shard: Vec<Vec<Operation<K, V>>> = (0..s).map(|_| Vec::new()).collect();
        let mut route = Vec::with_capacity(ops.len());
        for op in ops {
            let shard = self.partitioner.shard_of(op.key(), s);
            route.push((shard, per_shard[shard].len()));
            per_shard[shard].push(op);
        }

        let busy: Vec<usize> = (0..s).filter(|&i| !per_shard[i].is_empty()).collect();
        let hint = caller_hint();
        let mut shard_results: Vec<Vec<Option<OpResult<V>>>> = (0..s).map(|_| Vec::new()).collect();

        if busy.len() == 1 && inline_allowed {
            // One busy shard: no fan-out to pay for, run on the caller.
            let shard = busy[0];
            let results =
                self.shards[shard].call_batch(hint, std::mem::take(&mut per_shard[shard]));
            shard_results[shard] = results.into_iter().map(Some).collect();
        } else {
            // Fan out on the dedicated router pool.  Jobs hand their
            // sub-batch over through a take-once slot so nothing is cloned.
            let jobs: Vec<DispatchJob<K, V>> = busy
                .iter()
                .map(|&i| (i, Mutex::new(Some(std::mem::take(&mut per_shard[i])))))
                .collect();
            let results: Vec<(usize, Vec<OpResult<V>>)> = self.router().install(|| {
                wsm_pool::par_map(&jobs, |(shard, slot)| {
                    let ops = slot
                        .lock()
                        .expect("job slot mutex")
                        .take()
                        .expect("each dispatch job runs exactly once");
                    (*shard, self.shards[*shard].call_batch(hint, ops))
                })
            });
            for (shard, result) in results {
                shard_results[shard] = result.into_iter().map(Some).collect();
            }
        }

        // Stitch back into caller order.
        route
            .into_iter()
            .map(|(shard, idx)| {
                shard_results[shard][idx]
                    .take()
                    .expect("every routed slot is filled exactly once")
            })
            .collect()
    }

    /// Deposits a batch without waiting: the async submission surface.
    ///
    /// The batch is split by the partitioner exactly as in
    /// [`ShardedMap::run_batch`], each sub-batch is deposited into its
    /// shard's parallel buffer via [`ConcurrentMap::submit_batch`], and the
    /// returned cells are stitched back into caller order — `cells[i]` is
    /// operation `i`'s result cell.  Nothing blocks and no combiner runs;
    /// pair with [`ShardedMap::pump`] and the cells' waker registration
    /// ([`ResultCell::set_waker`]) to drive completion (this is what
    /// `wsm-svc` does).
    pub fn submit_batch(&self, ops: Vec<Operation<K, V>>) -> Vec<Arc<ResultCell<OpResult<V>>>> {
        let s = self.shards.len();
        let hint = caller_hint();
        if s == 1 {
            return self.shards[0].submit_batch(hint, ops);
        }
        let mut per_shard: Vec<Vec<Operation<K, V>>> = (0..s).map(|_| Vec::new()).collect();
        let mut route = Vec::with_capacity(ops.len());
        for op in ops {
            let shard = self.partitioner.shard_of(op.key(), s);
            route.push((shard, per_shard[shard].len()));
            per_shard[shard].push(op);
        }
        let mut shard_cells: Vec<Vec<Arc<ResultCell<OpResult<V>>>>> =
            (0..s).map(|_| Vec::new()).collect();
        for (i, sub) in per_shard.into_iter().enumerate() {
            if !sub.is_empty() {
                shard_cells[i] = self.shards[i].submit_batch(hint, sub);
            }
        }
        route
            .into_iter()
            .map(|(shard, idx)| Arc::clone(&shard_cells[shard][idx]))
            .collect()
    }

    /// Makes one non-blocking combiner-election attempt on every shard with
    /// buffered work (see [`ConcurrentMap::pump`]).  The caller may become a
    /// combiner and execute batches inline; it never waits for one.
    pub fn pump(&self) {
        for shard in &self.shards {
            if shard.buffered() {
                shard.pump();
            }
        }
    }

    /// True if any shard's parallel buffer holds operations not yet claimed
    /// by a combiner (see [`ConcurrentMap::buffered`]).
    pub fn buffered(&self) -> bool {
        self.shards.iter().any(ConcurrentMap::buffered)
    }

    /// Batch search: one result per key, in input order.
    pub fn get_batch(&self, keys: Vec<K>) -> Vec<Option<V>> {
        let results = self.run_batch(keys.into_iter().map(Operation::Search).collect());
        results.into_iter().map(OpResult::into_value).collect()
    }

    /// Batch insert: the previous value per pair, in input order.
    pub fn insert_batch(&self, pairs: Vec<(K, V)>) -> Vec<Option<V>> {
        let results = self.run_batch(
            pairs
                .into_iter()
                .map(|(k, v)| Operation::Insert(k, v))
                .collect(),
        );
        results.into_iter().map(OpResult::into_value).collect()
    }

    /// Batch remove: the removed value per key, in input order.
    pub fn remove_batch(&self, keys: Vec<K>) -> Vec<Option<V>> {
        let results = self.run_batch(keys.into_iter().map(Operation::Delete).collect());
        results.into_iter().map(OpResult::into_value).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use wsm_core::{M1, M2};

    fn sharded(shards: usize) -> ShardedMap<u64, u64, M1<u64, u64>> {
        ShardedMap::with_shards(shards, |_| M1::new(4))
    }

    #[test]
    fn single_shard_roundtrip() {
        let map = sharded(1);
        assert_eq!(map.insert(7, 70), None);
        assert_eq!(map.insert(7, 71), Some(70));
        assert_eq!(map.get(7), Some(71));
        assert_eq!(map.remove(7), Some(71));
        assert_eq!(map.get(7), None);
        assert!(map.is_empty());
    }

    #[test]
    fn point_ops_match_oracle_across_shard_counts() {
        for shards in [1usize, 2, 3, 4] {
            let map = sharded(shards);
            let mut oracle = BTreeMap::new();
            for i in 0u64..500 {
                let key = (i * 37) % 101;
                match i % 3 {
                    0 => assert_eq!(
                        map.insert(key, i),
                        oracle.insert(key, i),
                        "S={shards} i={i}"
                    ),
                    1 => assert_eq!(map.get(key), oracle.get(&key).copied(), "S={shards} i={i}"),
                    _ => assert_eq!(map.remove(key), oracle.remove(&key), "S={shards} i={i}"),
                }
            }
            assert_eq!(map.len(), oracle.len());
        }
    }

    #[test]
    fn batches_stitch_results_into_caller_order() {
        for shards in [1usize, 2, 4] {
            let map = sharded(shards);
            let keys: Vec<u64> = (0..256).collect();
            let prev = map.insert_batch(keys.iter().map(|&k| (k, k * 10)).collect());
            assert!(prev.iter().all(Option::is_none));

            // Mixed batch whose result order must exactly track input order.
            let ops: Vec<Operation<u64, u64>> = (0..256u64)
                .map(|k| match k % 3 {
                    0 => Operation::Search(k),
                    1 => Operation::Insert(k, k + 1),
                    _ => Operation::Delete(k),
                })
                .collect();
            let results = map.run_batch(ops);
            for (k, r) in (0..256u64).zip(&results) {
                match k % 3 {
                    0 => assert_eq!(r, &OpResult::Search(Some(k * 10)), "S={shards} k={k}"),
                    1 => assert_eq!(r, &OpResult::Insert(Some(k * 10)), "S={shards} k={k}"),
                    _ => assert_eq!(r, &OpResult::Delete(Some(k * 10)), "S={shards} k={k}"),
                }
            }

            let got = map.get_batch(keys.clone());
            for (k, v) in keys.iter().zip(got) {
                match k % 3 {
                    1 => assert_eq!(v, Some(k + 1)),
                    0 => assert_eq!(v, Some(k * 10)),
                    _ => assert_eq!(v, None),
                }
            }
        }
    }

    #[test]
    fn same_key_order_preserved_within_a_batch() {
        let map = sharded(4);
        let ops = vec![
            Operation::Insert(5, 1),
            Operation::Insert(5, 2),
            Operation::Search(5),
            Operation::Delete(5),
            Operation::Search(5),
        ];
        let results = map.run_batch(ops);
        assert_eq!(
            results,
            vec![
                OpResult::Insert(None),
                OpResult::Insert(Some(1)),
                OpResult::Search(Some(2)),
                OpResult::Delete(Some(2)),
                OpResult::Search(None),
            ]
        );
    }

    #[test]
    fn range_partitioner_places_keys_by_block() {
        let map = ShardedMap::with_shards(4, |_| M1::<u64, u64>::new(4))
            .with_partitioner(RangePartitioner::<u64>::even(400, 4));
        assert_eq!(map.shard_of(&0), 0);
        assert_eq!(map.shard_of(&150), 1);
        assert_eq!(map.shard_of(&250), 2);
        assert_eq!(map.shard_of(&399), 3);

        let keys: Vec<u64> = (0..400).collect();
        map.insert_batch(keys.iter().map(|&k| (k, k)).collect());
        let stats = map.shard_stats();
        assert_eq!(stats.len(), 4);
        for s in &stats {
            assert_eq!(s.len, 100, "uneven range placement: {stats:?}");
        }
        assert_eq!(map.get_batch(keys), (0..400).map(Some).collect::<Vec<_>>());
    }

    #[test]
    fn shard_stats_aggregate_m2_maintenance() {
        let map = ShardedMap::with_shards(2, |_| M2::<u64, u64>::new(2));
        map.insert_batch((0..2000u64).map(|k| (k, k)).collect());
        map.remove_batch((0..1000u64).map(|k| k * 2).collect());
        let stats = map.shard_stats();
        assert_eq!(stats.iter().map(|s| s.len).sum::<usize>(), map.len());
        assert_eq!(
            stats.iter().map(|s| s.maintenance_runs).sum::<u64>(),
            map.maintenance_runs()
        );
        assert!(
            map.maintenance_runs() > 0,
            "deletion holes must trigger maintenance"
        );
        assert!(map.effective_work() > 0);
    }

    #[test]
    fn concurrent_batches_from_os_threads() {
        for handoff in [Handoff::Doorbell, Handoff::Cell] {
            let map = sharded(4).with_handoff(handoff);
            let threads = 6;
            let per_thread = 300u64;
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let map = &map;
                    scope.spawn(move || {
                        let base = t * per_thread;
                        let keys: Vec<u64> = (base..base + per_thread).collect();
                        let prev = map.insert_batch(keys.iter().map(|&k| (k, k + 1)).collect());
                        assert!(prev.iter().all(Option::is_none));
                        let got = map.get_batch(keys.clone());
                        for (k, v) in keys.iter().zip(got) {
                            assert_eq!(v, Some(k + 1));
                        }
                    });
                }
            });
            assert_eq!(map.len(), (threads * per_thread) as usize);
        }
    }

    #[test]
    fn submit_then_pump_fills_cells_in_caller_order() {
        for shards in [1usize, 4] {
            let map = sharded(shards).with_handoff(Handoff::Waker);
            map.insert_batch((0..64u64).map(|k| (k, k * 2)).collect());
            let ops: Vec<Operation<u64, u64>> = (0..64u64)
                .map(|k| {
                    if k % 2 == 0 {
                        Operation::Search(k)
                    } else {
                        Operation::Delete(k)
                    }
                })
                .collect();
            let cells = map.submit_batch(ops);
            assert_eq!(cells.len(), 64);
            assert!(map.buffered(), "deposit must not run the combiner");
            while cells.iter().any(|c| !c.is_filled()) {
                map.pump();
            }
            for (k, cell) in (0..64u64).zip(&cells) {
                let expect = if k % 2 == 0 {
                    OpResult::Search(Some(k * 2))
                } else {
                    OpResult::Delete(Some(k * 2))
                };
                assert_eq!(cell.try_take(), Some(expect), "S={shards} k={k}");
            }
        }
    }

    #[test]
    fn service_task_batches_route_through_router_pool() {
        // A service-task caller must get correct results through the router
        // dispatch path for every shard count — including S == 1, whose
        // router pool is created lazily by this very call.
        for shards in [1usize, 2, 4] {
            let map = sharded(shards);
            let _guard = wsm_core::ServiceTaskGuard::new();
            let prev = map.insert_batch((0..128u64).map(|k| (k, k + 7)).collect());
            assert!(prev.iter().all(Option::is_none));
            let got = map.get_batch((0..128u64).collect());
            for (k, v) in (0..128u64).zip(got) {
                assert_eq!(v, Some(k + 7), "S={shards} k={k}");
            }
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let map = sharded(4);
        assert!(map.run_batch(Vec::new()).is_empty());
        assert!(map.get_batch(Vec::new()).is_empty());
    }
}
