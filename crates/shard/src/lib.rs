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
//!             ▼            ▼            ▼         1. deposit: submit_batch into each
//!        shard 0       shard 1   …  shard S-1        shard's ParallelBuffer
//!        buffer →      buffer →      buffer →     2. pump: one combiner-election
//!        combiner      combiner      combiner        attempt per buffered shard
//!             │            │            │         3. wait: wait_batch, shard by
//!             └────────────┼────────────┘            shard, on its own doorbell
//!                          ▼ stitch by route map
//!             results in caller order
//! ```
//!
//! The router has no threads: the callers are the processors.
//! [`ShardedMap::run_batch`] deposits every sub-batch, makes one election
//! pass ([`ShardedMap::pump`]) — after which each touched shard has either
//! been combined by this caller or is held by an active combiner, whose
//! activation re-runs while its buffer is non-empty — and then blocks in
//! [`ConcurrentMap::wait_batch`] shard by shard.  Async callers (`wsm-svc`)
//! stop after the deposit: [`ShardedMap::submit_batch`] returns the result
//! cells and the caller pumps from its polls.  Sub-batches of different
//! callers meet in whichever combiner is active on their shard.
//!
//! A `run_batch` from an async service task takes the same road; the one rule
//! it needs is the shards' own, that a service task never parks (see
//! [`wsm_core::context`]).  An activation is never held across a suspension
//! point, so a task that loses an election is waiting on a thread that is
//! running, and one whose operations are still buffered wins it itself.
//!
//! Per-key operation order is preserved: the partitioner is a pure function
//! of the key, so every operation on a key flows through exactly one shard,
//! and within a caller's batch the shard's group resolution applies same-key
//! operations in sub-batch order.  Cross-key (cross-shard) operations carry
//! no ordering obligation — each shard is independently linearizable, which
//! is exactly the per-key guarantee the property suite checks.
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

use std::sync::Arc;

use wsm_core::{caller_hint, BatchedMap, ConcurrentMap, Handoff, OpResult, Operation, ResultCell};

/// Submitter-ring count for each shard's parallel buffer (the same default a
/// standalone front-end would pick for a handful of threads).
const BUFFER_SHARDS: usize = 8;

/// One sub-batch's result cells ([`ConcurrentMap::submit_batch`]).
type Cells<V> = Vec<Arc<ResultCell<OpResult<V>>>>;

/// Undoes a split: `route[i]` names the shard operation `i` went to, and a
/// shard's sub-batch keeps caller order, so operation `i`'s item is the next
/// one its shard has not handed out yet.
fn stitch<T>(route: &[usize], per_shard: Vec<Vec<T>>) -> Vec<T> {
    let mut per_shard: Vec<_> = per_shard.into_iter().map(Vec::into_iter).collect();
    route
        .iter()
        .map(|&shard| {
            per_shard[shard]
                .next()
                .expect("every routed operation has exactly one item")
        })
        .collect()
}

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
/// batch router.  See the [crate docs](crate) for the architecture.
pub struct ShardedMap<K, V, M, P = HashPartitioner> {
    shards: Vec<ConcurrentMap<K, V, M>>,
    partitioner: P,
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
        ShardedMap {
            shards: (0..shards.max(1))
                .map(|i| ConcurrentMap::new(make(i), BUFFER_SHARDS))
                .collect(),
            partitioner: HashPartitioner,
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

    /// Splits `ops` by the partitioner and deposits each sub-batch into its
    /// shard's parallel buffer ([`ConcurrentMap::submit_batch`]).  Returns
    /// the result cells per shard and the route map for [`stitch`].
    fn deposit(&self, ops: Vec<Operation<K, V>>) -> (Vec<Cells<V>>, Vec<usize>) {
        let s = self.shards.len();
        let hint = caller_hint();
        if s == 1 {
            let route = vec![0; ops.len()];
            return (vec![self.shards[0].submit_batch(hint, ops)], route);
        }
        let mut per_shard: Vec<Vec<Operation<K, V>>> = (0..s).map(|_| Vec::new()).collect();
        let mut route = Vec::with_capacity(ops.len());
        for op in ops {
            let shard = self.shard_of(op.key());
            route.push(shard);
            per_shard[shard].push(op);
        }
        let cells = self
            .shards
            .iter()
            .zip(per_shard)
            .map(|(shard, sub)| shard.submit_batch(hint, sub))
            .collect();
        (cells, route)
    }

    /// Runs a batch of operations, returning results in operation order.
    ///
    /// The calling thread deposits the batch as [`ShardedMap::submit_batch`]
    /// does, makes one election pass over the shards ([`ShardedMap::pump`])
    /// and then waits for each shard's results in turn
    /// ([`ConcurrentMap::wait_batch`]); see the crate docs.  Per-key order
    /// within the batch is preserved — same-key operations stay in one
    /// sub-batch, in order.
    pub fn run_batch(&self, ops: Vec<Operation<K, V>>) -> Vec<OpResult<V>> {
        let (cells, route) = self.deposit(ops);
        self.pump();
        let results = self
            .shards
            .iter()
            .zip(&cells)
            .map(|(shard, cells)| shard.wait_batch(cells))
            .collect();
        stitch(&route, results)
    }

    /// Deposits a batch without waiting: the async submission surface.
    ///
    /// The batch is split by the partitioner into per-shard sub-batches,
    /// each sub-batch is deposited into its shard's parallel buffer via
    /// [`ConcurrentMap::submit_batch`], and the returned cells are stitched
    /// back into caller order — `cells[i]` is operation `i`'s result cell.
    /// Nothing blocks and no combiner runs; pair with [`ShardedMap::pump`]
    /// and the cells' waker registration ([`ResultCell::set_waker`]) to drive
    /// completion (this is what `wsm-svc` does).
    pub fn submit_batch(&self, ops: Vec<Operation<K, V>>) -> Vec<Arc<ResultCell<OpResult<V>>>> {
        let (cells, route) = self.deposit(ops);
        stitch(&route, cells)
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

    /// 256 keys from `base`: results must track input order exactly.
    fn check_stitch_order(map: &ShardedMap<u64, u64, M1<u64, u64>>, base: u64) {
        let keys: Vec<u64> = (base..base + 256).collect();
        let prev = map.insert_batch(keys.iter().map(|&k| (k, k * 10)).collect());
        assert!(prev.iter().all(Option::is_none));

        let ops: Vec<Operation<u64, u64>> = keys
            .iter()
            .map(|&k| match k % 3 {
                0 => Operation::Search(k),
                1 => Operation::Insert(k, k + 1),
                _ => Operation::Delete(k),
            })
            .collect();
        let results = map.run_batch(ops);
        for (&k, r) in keys.iter().zip(&results) {
            match k % 3 {
                0 => assert_eq!(r, &OpResult::Search(Some(k * 10)), "k={k}"),
                1 => assert_eq!(r, &OpResult::Insert(Some(k * 10)), "k={k}"),
                _ => assert_eq!(r, &OpResult::Delete(Some(k * 10)), "k={k}"),
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

    /// Same-key operations inside one batch apply in batch order.
    fn check_same_key_order(map: &ShardedMap<u64, u64, M1<u64, u64>>, key: u64) {
        let ops = vec![
            Operation::Insert(key, 1),
            Operation::Insert(key, 2),
            Operation::Search(key),
            Operation::Delete(key),
            Operation::Search(key),
        ];
        assert_eq!(
            map.run_batch(ops),
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
    fn batches_stitch_results_into_caller_order() {
        for shards in [1usize, 2, 4] {
            check_stitch_order(&sharded(shards), 0);
        }
    }

    #[test]
    fn same_key_order_preserved_within_a_batch() {
        check_same_key_order(&sharded(4), 5);
    }

    #[test]
    fn order_checks_hold_when_callers_share_combiners() {
        // Six OS threads on disjoint key ranges: sub-batches of different
        // callers meet in one shard combiner, and each caller must still get
        // its own results back in its own order.
        let map = sharded(4);
        let start = std::sync::Barrier::new(6);
        std::thread::scope(|scope| {
            for t in 0..6u64 {
                let (map, start) = (&map, &start);
                scope.spawn(move || {
                    start.wait();
                    for round in 0..20 {
                        let base = (t * 20 + round) * 1_000;
                        check_stitch_order(map, base);
                        check_same_key_order(map, base + 500);
                    }
                });
            }
        });
    }

    #[test]
    fn lone_caller_combines_every_sub_batch_itself() {
        // No thread stands between a caller and the shards: with one caller,
        // every shard's combiner (where the commit hook runs) is that caller.
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let map = sharded(4).configure_shards(|_, shard| {
            let seen = Arc::clone(&seen);
            shard.with_commit_hook(move |_| {
                seen.lock().unwrap().push(std::thread::current().id());
            })
        });
        for round in 0..8u64 {
            let keys: Vec<u64> = (round * 256..(round + 1) * 256).collect();
            let shards_hit: std::collections::BTreeSet<usize> =
                keys.iter().map(|k| map.shard_of(k)).collect();
            assert_eq!(shards_hit.len(), 4, "the batch must touch every shard");
            map.insert_batch(keys.iter().map(|&k| (k, k)).collect());
            assert_eq!(
                map.get_batch(keys.clone()),
                keys.iter().map(|&k| Some(k)).collect::<Vec<_>>()
            );
        }
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 4 * 16, "every shard combines every batch");
        let me = std::thread::current().id();
        assert!(
            seen.iter().all(|&id| id == me),
            "a sub-batch was combined on another thread"
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
    fn service_task_callers_get_correct_results() {
        // A service-task caller takes the same deposit → pump → wait road as
        // an OS thread (only its wait never parks), at every shard count.
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
