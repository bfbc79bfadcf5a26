//! # wsm-shard — sharded `ConcurrentMap` front-end
//!
//! A single [`ConcurrentMap`] funnels every operation through one flat
//! combiner, so past a handful of threads the combiner — not the batched map
//! underneath — becomes the bottleneck.  [`ShardedMap`] scales past that
//! point by partitioning the keyspace across `S` *independent* shards, each a
//! full `ConcurrentMap` with its own combiner, parallel buffer and recency
//! clock, behind a thin router:
//!
//! ```text
//!             caller batch [op, op, op, …]   → result cells, created once,
//!                          │                    in caller order
//!                          │ each op, in order, to ShardedMap::shard_of(key)
//!             ┌────────────┼────────────┐
//!             ▼            ▼            ▼         1. deposit: one buffer lock
//!        shard 0       shard 1   …  shard S-1        per touched shard, taken
//!        buffer →      buffer →      buffer →        in shard order
//!        combiner      combiner      combiner     2. pump: one combiner-election
//!             │            │            │            attempt per buffered shard,
//!             │            │            │            home shard first
//!             └────────────┼────────────┘         3. wait: shard by shard, home
//!                          ▼ fill cells              first, on each shard's
//!             results in caller order                own doorbell
//! ```
//!
//! The router has no threads: the callers are the processors.  Both roads
//! share one deposit routine, [`ConcurrentMap::submit_routed`]: it creates
//! the request's result cells in caller order and moves each operation
//! straight into its shard's parallel buffer, so `cells[i]` is operation
//! `i`'s cell and nothing has to be put back in order afterwards.
//! [`ShardedMap::run_batch`] ([`ConcurrentMap::call_routed`]) then makes one
//! election pass ([`ShardedMap::pump`]) — after which each touched shard has either
//! been combined by this caller or is held by an active combiner, whose
//! activation re-runs while its buffer is non-empty — and blocks shard by
//! shard until each has filled the last operation routed to it.
//!
//! Each calling thread has a home shard, [`caller_hint`]` % S`, and both the
//! election pass and the wait start there and go round-robin.  Two callers
//! that arrive together each combine their own shard first, so a shard's
//! segments, buffers and combine scratch stay in one core's cache instead of
//! moving whenever the callers race for shard 0.  Every buffered shard still
//! gets its election attempt, and the deposit still locks in shard order, so
//! the home shard changes where work runs, never what it returns
//! ([`ShardStats::combiner_handovers`] counts the moves that remain).  Async
//! callers (`wsm-svc`) stop after the deposit: [`ShardedMap::submit_batch`]
//! returns the result cells and the caller pumps from its polls.  Operations
//! of different callers meet in whichever combiner is active on their shard.
//!
//! A `run_batch` from inside an executor task takes the same road and parks
//! the same way.  An activation is never held across a suspension point, so
//! a task that loses an election is waiting on a thread that is running,
//! which rings the shard's doorbell when it releases; one whose operations
//! are still buffered wins the election itself.
//!
//! Per-key operation order is preserved: placement is a pure function of the
//! key (a multiplicative hash of it), so every operation on a key flows
//! through exactly one shard, in batch order, and the shard's group
//! resolution applies same-key operations in that order.  Cross-key
//! (cross-shard) operations carry no ordering obligation — each shard is
//! independently linearizable, which is exactly the per-key guarantee the
//! property suite checks.
//!
//! ## Knobs
//!
//! * The shard count — [`ShardedMap::with_shards`] takes it explicitly.
//!   That is the only one: keys are always placed by hashing
//!   ([`ShardedMap::shard_of`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod partition;

use std::hash::Hash;
use std::sync::Arc;

use wsm_core::{caller_hint, BatchedMap, ConcurrentMap, OpResult, Operation, ResultCell};

/// Submitter shard count for each shard's parallel buffer (the same default a
/// standalone front-end would pick for a handful of threads).
const BUFFER_SHARDS: usize = 8;

/// Point-in-time counters for one shard, for occupancy / load-balance
/// reporting (the `web_cache` example prints them per shard).
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
    /// Combines of the shard that ran on another thread than the shard's
    /// combine before them (see [`ConcurrentMap::combiner_handovers`]).
    pub combiner_handovers: u64,
}

/// A hash-partitioned family of [`ConcurrentMap`] shards behind a batch
/// router.  See the [crate docs](crate) for the architecture.
pub struct ShardedMap<K, V, M> {
    shards: Vec<ConcurrentMap<K, V, M>>,
}

impl<K, V, M> ShardedMap<K, V, M>
where
    K: Ord + Clone + Send + Hash,
    V: Clone + Send,
    M: BatchedMap<K, V> + Send,
{
    /// Builds a sharded map with exactly `shards` shards (at least one).
    /// `make(i)` constructs the batched map for shard `i`.
    pub fn with_shards(shards: usize, mut make: impl FnMut(usize) -> M) -> Self {
        ShardedMap {
            shards: (0..shards.max(1))
                .map(|i| ConcurrentMap::new(make(i), BUFFER_SHARDS))
                .collect(),
        }
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

    /// The shard that owns `key`: a multiplicative hash of the key onto
    /// `0..shards`, uniform for any shard count.
    pub fn shard_of(&self, key: &K) -> usize {
        partition::hash_shard(key, self.shards.len())
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
                combiner_handovers: map.combiner_handovers(),
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

    /// Runs a batch of operations, returning results in operation order.
    ///
    /// The calling thread deposits the batch as [`ShardedMap::submit_batch`]
    /// does, makes one election pass over the shards ([`ShardedMap::pump`])
    /// and then waits shard by shard, starting at its home shard
    /// ([`ConcurrentMap::call_routed`]); see the crate docs.  Per-key order
    /// within the batch is preserved — same-key operations go to one shard,
    /// in order.
    pub fn run_batch(&self, ops: Vec<Operation<K, V>>) -> Vec<OpResult<V>> {
        ConcurrentMap::call_routed(&self.shards, caller_hint(), ops, |key| self.shard_of(key))
    }

    /// Deposits a batch without waiting: the async submission surface.
    ///
    /// Each operation moves straight into its owning shard's parallel
    /// buffer ([`ConcurrentMap::submit_routed`]), and `cells[i]` is
    /// operation `i`'s result cell.  Nothing blocks and no combiner runs;
    /// pair with [`ShardedMap::pump`] and probes of the cells
    /// ([`ResultCell::try_take`]) to drive completion (this is what
    /// `wsm-svc` does).
    pub fn submit_batch(&self, ops: Vec<Operation<K, V>>) -> Vec<Arc<ResultCell<OpResult<V>>>> {
        ConcurrentMap::submit_routed(&self.shards, caller_hint(), ops, |key| self.shard_of(key))
    }

    /// Makes one non-blocking combiner-election attempt on every shard with
    /// buffered work (see [`ConcurrentMap::pump`]), starting at the calling
    /// thread's home shard, [`caller_hint`]` % S`, and going round-robin
    /// ([`ConcurrentMap::pump_routed`]).  The caller may become a combiner
    /// and execute batches inline; it never waits for one.
    pub fn pump(&self) {
        ConcurrentMap::pump_routed(&self.shards, caller_hint());
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

    /// One request whose operations alternate between a key's shard and
    /// the others, and return to that key four times: it must read as if run
    /// alone and in order, through both the blocking and the async road.
    #[test]
    fn a_request_alternating_shards_returns_sequential_results() {
        use Operation::{Delete, Insert, Search};
        for shards in [1usize, 2, 4] {
            for submit in [false, true] {
                let map = sharded(shards);
                let k = 7u64;
                let others: Vec<u64> = (100u64..)
                    .filter(|o| shards == 1 || map.shard_of(o) != map.shard_of(&k))
                    .take(3)
                    .collect();
                map.insert_batch(others.iter().map(|&o| (o, o)).collect());
                let [a, b, c] = others[..] else {
                    unreachable!("three keys taken")
                };
                let ops = vec![
                    Insert(k, 1),
                    Search(a),
                    Search(k),
                    Insert(b, 11),
                    Delete(k),
                    Delete(c),
                    Search(k),
                    Search(b),
                ];
                let got = if submit {
                    let cells = map.submit_batch(ops);
                    while map.buffered() {
                        map.pump();
                    }
                    cells.iter().map(|cell| cell.try_take().unwrap()).collect()
                } else {
                    map.run_batch(ops)
                };
                assert_eq!(
                    got,
                    vec![
                        OpResult::Insert(None),
                        OpResult::Search(Some(a)),
                        OpResult::Search(Some(1)),
                        OpResult::Insert(Some(b)),
                        OpResult::Delete(Some(1)),
                        OpResult::Delete(Some(c)),
                        OpResult::Search(None),
                        OpResult::Search(Some(11)),
                    ],
                    "S={shards} submit={submit}"
                );
            }
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
        let map = sharded(4);
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

    #[test]
    fn submit_then_pump_fills_cells_in_caller_order() {
        for shards in [1usize, 4] {
            let map = sharded(shards);
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

    /// An M1 that appends its shard's index to a log shared by the family
    /// each time it runs a batch: the log is the order of the combines.
    struct Recording {
        shard: usize,
        log: Arc<std::sync::Mutex<Vec<usize>>>,
        inner: M1<u64, u64>,
    }

    impl BatchedMap<u64, u64> for Recording {
        fn run_batch(
            &mut self,
            batch: &mut Vec<wsm_core::TaggedOp<u64, u64>>,
            results: &mut Vec<(wsm_core::OpId, OpResult<u64>)>,
        ) -> wsm_model::Cost {
            self.log.lock().unwrap().push(self.shard);
            self.inner.run_batch(batch, results)
        }

        fn len(&self) -> usize {
            self.inner.len()
        }

        fn effective_work(&self) -> u64 {
            self.inner.effective_work()
        }

        fn effective_span(&self) -> u64 {
            self.inner.effective_span()
        }
    }

    type RecordingMap = ShardedMap<u64, u64, Recording>;

    /// Runs `check(map, log, h)` on fresh threads, each with a fresh map of
    /// `shards` recording shards, until it has run for every home shard
    /// `h = caller_hint() % shards`.
    fn on_every_home(
        shards: usize,
        check: impl Fn(&RecordingMap, &std::sync::Mutex<Vec<usize>>, usize) + Sync,
    ) {
        let mut homes = vec![false; shards];
        for _ in 0..1_000 {
            if homes.iter().all(|&seen| seen) {
                return;
            }
            let home = std::thread::scope(|scope| {
                scope
                    .spawn(|| {
                        let home = caller_hint() % shards;
                        if !homes[home] {
                            let log = Arc::new(std::sync::Mutex::new(Vec::new()));
                            let map = ShardedMap::with_shards(shards, |shard| Recording {
                                shard,
                                log: Arc::clone(&log),
                                inner: M1::new(4),
                            });
                            check(&map, &log, home);
                        }
                        home
                    })
                    .join()
                    .unwrap()
            });
            homes[home] = true;
        }
        panic!("1 000 threads did not cover every home shard: {homes:?}");
    }

    /// Deposits searches for 64 keys, which reach every shard, without
    /// combining them.
    fn buffer_in_every_shard(map: &RecordingMap) -> Vec<Arc<ResultCell<OpResult<u64>>>> {
        let keys: Vec<u64> = (0..64).collect();
        let shards_hit: std::collections::BTreeSet<usize> =
            keys.iter().map(|k| map.shard_of(k)).collect();
        assert_eq!(shards_hit.len(), map.shards(), "64 keys reach every shard");
        map.submit_batch(keys.into_iter().map(Operation::Search).collect())
    }

    /// The shards in the order a caller with home `home` visits them.
    fn home_order(home: usize, shards: usize) -> Vec<usize> {
        (home..shards).chain(0..home).collect()
    }

    #[test]
    fn pump_combines_the_home_shard_first() {
        for shards in [2usize, 4] {
            on_every_home(shards, |map, log, home| {
                let cells = buffer_in_every_shard(map);
                map.pump();
                assert_eq!(*log.lock().unwrap(), home_order(home, shards), "S={shards}");
                assert!(cells.iter().all(|cell| cell.is_filled()));
            });
        }
    }

    #[test]
    fn run_batch_combines_the_home_shard_first() {
        for shards in [2usize, 4] {
            on_every_home(shards, |map, log, home| {
                let cells = buffer_in_every_shard(map);
                let got = map.run_batch(vec![Operation::Insert(7, 70), Operation::Search(7)]);
                assert_eq!(
                    got,
                    vec![OpResult::Insert(None), OpResult::Search(Some(70))]
                );
                assert_eq!(*log.lock().unwrap(), home_order(home, shards), "S={shards}");
                assert!(cells.iter().all(|cell| cell.is_filled()));
            });
        }
    }

    #[test]
    fn a_combine_on_another_thread_counts_one_handover() {
        let map = sharded(1);
        let handovers = || map.shard_stats()[0].combiner_handovers;
        map.insert(1, 10);
        assert_eq!(map.get(1), Some(10));
        assert_eq!(handovers(), 0, "one thread's combines hand nothing over");
        std::thread::scope(|scope| {
            scope.spawn(|| assert_eq!(map.get(1), Some(10)));
        });
        assert_eq!(handovers(), 1, "a second thread's combine is one handover");
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let map = sharded(4);
        assert!(map.run_batch(Vec::new()).is_empty());
        assert!(map.get_batch(Vec::new()).is_empty());
    }
}
