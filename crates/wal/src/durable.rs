//! The durable front-end: [`DurableShardedMap`], one log per shard (at one
//! shard, one combiner and one log).
//!
//! It wraps [`ShardedMap`] unchanged and adds exactly two behaviors:
//!
//! * every committed batch is appended to a [`Wal`] *before* it is applied,
//!   via each shard's [`ConcurrentMap`](wsm_core::ConcurrentMap) commit hook
//!   (under the inner-map lock, so no caller ever observes a result whose
//!   batch is not in the log), and
//! * every `checkpoint_every` logged batches the map's segments are written
//!   as an atomic checkpoint and the log is truncated.
//!
//! IO failure policy is **fail-stop**: an `append` error panics the combiner
//! rather than apply an unlogged batch, and a checkpoint error panics rather
//! than let the log silently stop shrinking.  A durability layer that keeps
//! answering after its log device died is lying to its callers.

use std::fs;
use std::io;
use std::path::Path;
use std::sync::Arc;

use wsm_core::{BatchedMap, OpId, OpResult, Operation, TaggedOp, M1, M2};
use wsm_shard::{HashPartitioner, ShardedMap};

use crate::codec::Codec;
use crate::log::{Recovered, RecoveryReport, SyncPolicy, Wal, WalStats};

/// A batched map whose whole semantic state can round-trip through a
/// checkpoint image: the per-segment item lists in recency order.
///
/// Both working-set structures qualify because a batch boundary leaves them
/// with *no* transient state — M2's filter/feed/staged buffers drain to empty
/// before `run_batch` returns (pinned by its property tests) — so the
/// segments alone are the map.
pub trait DurableState<K, V>: BatchedMap<K, V> {
    /// The per-segment items, most recent first within each segment.
    fn snapshot_segments(&self) -> Vec<Vec<(K, V)>>;
    /// Rebuilds a *fresh* map from a snapshot image (panics if `self` has
    /// ever been used).
    fn restore_segments(&mut self, segments: Vec<Vec<(K, V)>>);
    /// Asserts the structure's own invariants; recovery calls this after
    /// restore + replay, so a bad image or bad tail fails loudly at open
    /// rather than corrupting silently at first use.
    fn check_recovered(&self);
}

impl<K, V> DurableState<K, V> for M1<K, V>
where
    K: Ord + Clone + Send + Sync + std::fmt::Debug,
    V: Clone,
{
    fn snapshot_segments(&self) -> Vec<Vec<(K, V)>> {
        M1::snapshot_segments(self)
    }
    fn restore_segments(&mut self, segments: Vec<Vec<(K, V)>>) {
        M1::restore_segments(self, segments);
    }
    fn check_recovered(&self) {
        self.check_invariants();
    }
}

impl<K, V> DurableState<K, V> for M2<K, V>
where
    K: Ord + Clone + Send + Sync + std::fmt::Debug,
    V: Clone,
{
    fn snapshot_segments(&self) -> Vec<Vec<(K, V)>> {
        M2::snapshot_segments(self)
    }
    fn restore_segments(&mut self, segments: Vec<Vec<(K, V)>>) {
        M2::restore_segments(self, segments);
    }
    fn check_recovered(&self) {
        self.check_invariants();
    }
}

/// Durability knobs, defaulted from the environment: `WSM_WAL_SYNC`
/// (`always` | `batch` | `off`) and `WSM_WAL_CHECKPOINT_EVERY` (logged
/// batches between checkpoints, default 1024, must be at least 1 — garbage
/// warns once and keeps the default).
#[derive(Clone, Copy, Debug)]
pub struct DurableOptions {
    /// When appended records reach the disk (see [`SyncPolicy`]).
    pub sync: SyncPolicy,
    /// Checkpoint (and truncate the log) every this many logged batches.
    pub checkpoint_every: u64,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            sync: SyncPolicy::from_env(),
            checkpoint_every: wsm_core::env::parse(
                "WSM_WAL_CHECKPOINT_EVERY",
                "a batch count >= 1",
                1024,
                |&n: &u64| n >= 1,
            ),
        }
    }
}

/// Replays one logged batch through the ordinary batch path (results are
/// discarded — their callers are long gone).
fn replay<K, V, M: BatchedMap<K, V>>(map: &mut M, ops: Vec<Operation<K, V>>) {
    let batch: Vec<TaggedOp<K, V>> = ops
        .into_iter()
        .enumerate()
        .map(|(i, op)| TaggedOp { id: i as OpId, op })
        .collect();
    let _ = map.run_batch(batch);
}

/// Recovers one serialization point: restore the checkpoint image into a
/// fresh map, replay the log tail, assert invariants.
fn recover_into<K, V, M>(map: &mut M, recovered: Recovered<K, V>) -> RecoveryReport
where
    M: DurableState<K, V>,
{
    if let Some(segments) = recovered.segments {
        map.restore_segments(segments);
    }
    for ops in recovered.tail {
        replay(map, ops);
    }
    map.check_recovered();
    recovered.report
}

/// The periodic checkpoint, run with the map's inner lock held (inside
/// `with_inner` / `with_shard_inner`): checkpoints `map` into `wal` only if
/// `every` batches were logged since the last checkpoint.  Appends and
/// checkpoints both happen under that lock, so the count read here is exact —
/// of several callers whose operations rode one combined batch and who all
/// saw the threshold crossed from outside the lock, only the first to get in
/// still finds it crossed.
fn checkpoint_if_due<K, V, M>(wal: &Wal<K, V>, every: u64, map: &M)
where
    K: Codec,
    V: Codec,
    M: DurableState<K, V>,
{
    if wal.since_checkpoint() >= every {
        wal.checkpoint(&map.snapshot_segments())
            .expect("WAL checkpoint failed; refusing to let the log grow unbounded");
    }
}

/// A [`ShardedMap`] with one [`Wal`] per shard (under `dir/shard-<i>/`).
///
/// Each shard's combiner is its own serialization point, so per-shard logs
/// need no cross-shard ordering: the partitioner routes every operation on a
/// key through exactly one shard, and per-key durability is per-shard
/// durability.  Cross-shard batches are *not* atomic under a crash — some
/// shards' sub-batches may be durable while others are not — matching the
/// map's live semantics, where cross-key operations carry no ordering
/// obligation.
///
/// ```no_run
/// use wsm_core::M1;
/// use wsm_wal::{DurableOptions, DurableShardedMap};
///
/// let (dir, opts) = ("wal-dir".as_ref(), DurableOptions::default());
/// let map = DurableShardedMap::open_with(dir, 1, opts, |_| M1::<u64, u64>::new(8)).unwrap();
/// map.insert(1, 10);
/// drop(map); // or crash —
/// let map = DurableShardedMap::open_with(dir, 1, opts, |_| M1::<u64, u64>::new(8)).unwrap();
/// assert_eq!(map.get(1), Some(10));
/// ```
pub struct DurableShardedMap<K, V, M> {
    map: ShardedMap<K, V, M, HashPartitioner>,
    wals: Vec<Arc<Wal<K, V>>>,
    checkpoint_every: u64,
    recovery: Vec<RecoveryReport>,
}

impl<K, V, M> DurableShardedMap<K, V, M>
where
    K: Codec + Ord + Clone + Send + Sync + std::hash::Hash + 'static,
    V: Codec + Clone + Send + 'static,
    M: DurableState<K, V> + Send,
{
    /// Opens (creating if needed) a durable sharded map in `dir` with
    /// `shards` shards (at least one) and options from the environment.
    /// `make(i)` constructs the *empty* batched map for shard `i`.
    pub fn open(dir: &Path, shards: usize, make: impl FnMut(usize) -> M) -> io::Result<Self> {
        Self::open_with(dir, shards, DurableOptions::default(), make)
    }

    /// Opens with explicit [`DurableOptions`].  Each shard recovers
    /// independently from its own `dir/shard-<i>/` WAL: it loads the newest
    /// valid checkpoint, replays the log tail (truncating a torn final
    /// record) and asserts the structure's invariants; then the commit hooks
    /// are installed so every later batch is logged before it is applied.
    ///
    /// The shard count must match across opens, because keys do not migrate.
    /// If `dir` already holds shard directories other than exactly
    /// `shard-0..shard-{shards-1}`, this returns
    /// [`io::ErrorKind::InvalidInput`] and creates or replays nothing.
    pub fn open_with(
        dir: &Path,
        shards: usize,
        opts: DurableOptions,
        mut make: impl FnMut(usize) -> M,
    ) -> io::Result<Self> {
        let shards = shards.max(1);
        check_shard_count(dir, shards)?;
        let mut wals = Vec::with_capacity(shards);
        let mut recovery = Vec::with_capacity(shards);
        let mut recovered: Vec<Option<M>> = Vec::with_capacity(shards);
        for i in 0..shards {
            let (wal, found) = Wal::open(&dir.join(format!("shard-{i}")), opts.sync)?;
            let mut inner = make(i);
            recovery.push(recover_into(&mut inner, found));
            wals.push(Arc::new(wal));
            recovered.push(Some(inner));
        }
        let map = ShardedMap::with_shards(shards, |i| {
            recovered[i]
                .take()
                .expect("each shard is built exactly once")
        })
        .configure_shards(|i, shard| {
            let wal = Arc::clone(&wals[i]);
            shard.with_commit_hook(move |batch| {
                wal.append(batch)
                    .expect("WAL append failed; refusing to apply an unlogged batch");
            })
        });
        Ok(DurableShardedMap {
            map,
            wals,
            checkpoint_every: opts.checkpoint_every.max(1),
            recovery,
        })
    }

    /// Per-shard recovery reports, in shard order.
    pub fn recovery(&self) -> &[RecoveryReport] {
        &self.recovery
    }

    /// Per-shard WAL counters, in shard order.
    pub fn wal_stats(&self) -> Vec<WalStats> {
        self.wals.iter().map(|w| w.stats()).collect()
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.map.shards()
    }

    /// Total items across all shards.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Searches for a key on its owning shard (never logged).
    pub fn get(&self, key: K) -> Option<V> {
        self.map.get(key)
    }

    /// Inserts a key/value pair on the key's owning shard; the batch carrying
    /// it is on that shard's log before this returns.
    pub fn insert(&self, key: K, val: V) -> Option<V> {
        let prev = self.map.insert(key, val);
        self.maybe_checkpoint();
        prev
    }

    /// Removes a key from its owning shard.
    pub fn remove(&self, key: K) -> Option<V> {
        let prev = self.map.remove(key);
        self.maybe_checkpoint();
        prev
    }

    /// Runs a batch of operations through the sharded map, returning results
    /// in operation order.  Durability is per shard: under a crash, each shard's
    /// durable prefix is a prefix of *its* sub-batches.
    pub fn run_batch(&self, ops: Vec<Operation<K, V>>) -> Vec<OpResult<V>> {
        let results = self.map.run_batch(ops);
        self.maybe_checkpoint();
        results
    }

    /// Batch insert: the previous value per pair, in input order.
    pub fn insert_batch(&self, pairs: Vec<(K, V)>) -> Vec<Option<V>> {
        let results = self.map.insert_batch(pairs);
        self.maybe_checkpoint();
        results
    }

    /// Batch search: one result per key, in input order.
    pub fn get_batch(&self, keys: Vec<K>) -> Vec<Option<V>> {
        self.map.get_batch(keys)
    }

    /// Batch remove: the removed value per key, in input order.
    pub fn remove_batch(&self, keys: Vec<K>) -> Vec<Option<V>> {
        let results = self.map.remove_batch(keys);
        self.maybe_checkpoint();
        results
    }

    /// Checkpoints one shard now: snapshots its segments under the shard's
    /// inner-map lock (serialized against its combiner and commit hook, so
    /// the image is exactly the logged prefix) and truncates its log.
    /// Returns the checkpoint sequence.
    pub fn checkpoint_shard(&self, shard: usize) -> io::Result<u64> {
        self.map.with_shard_inner(shard, |m| {
            self.wals[shard].checkpoint(&m.snapshot_segments())
        })
    }

    /// Checkpoints every shard, returning the per-shard sequences.
    pub fn checkpoint_all(&self) -> io::Result<Vec<u64>> {
        (0..self.shards())
            .map(|i| self.checkpoint_shard(i))
            .collect()
    }

    /// Pushes any user-space-buffered records to the OS on every shard.
    pub fn flush(&self) -> io::Result<()> {
        self.wals.iter().try_for_each(|w| w.flush())
    }

    fn maybe_checkpoint(&self) {
        for (i, wal) in self.wals.iter().enumerate() {
            // The unlocked read only keeps the common case off the inner lock.
            if wal.since_checkpoint() >= self.checkpoint_every {
                self.map.with_shard_inner(i, |m| {
                    checkpoint_if_due(wal, self.checkpoint_every, m);
                });
            }
        }
    }
}

/// Refuses a `dir` whose logs were written at another shard count: keys are
/// routed by the partitioner over the shard count, so a reopen at another
/// count would look keys up in the wrong shard's log.  A `dir` with no
/// `shard-*` directory yet takes any count.
fn check_shard_count(dir: &Path, shards: usize) -> io::Result<()> {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    let mut found = Vec::new();
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("shard-") && entry.file_type()?.is_dir() {
            found.push(name);
        }
    }
    let mut expected: Vec<String> = (0..shards).map(|i| format!("shard-{i}")).collect();
    found.sort();
    expected.sort();
    if found.is_empty() || found == expected {
        return Ok(());
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidInput,
        format!(
            "{} holds {} shard directories but {shards} shards were requested; \
             reopen a durable map at the shard count it was created with",
            dir.display(),
            found.len()
        ),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// A fresh per-test directory (tests run in parallel in one process, so
    /// the tag must be unique per test).
    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wsm-wal-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn opts(sync: SyncPolicy, checkpoint_every: u64) -> DurableOptions {
        DurableOptions {
            sync,
            checkpoint_every,
        }
    }

    /// The single-shard M1 map: one combiner, one log.
    fn open_m1(dir: &Path, o: DurableOptions) -> DurableShardedMap<u64, u64, M1<u64, u64>> {
        DurableShardedMap::open_with(dir, 1, o, |_| M1::new(4)).unwrap()
    }

    #[test]
    fn reopen_recovers_every_mutation_m1() {
        let dir = fresh_dir("reopen-m1");
        let o = opts(SyncPolicy::Batch, u64::MAX);
        {
            let map = open_m1(&dir, o);
            assert_eq!(map.recovery(), [RecoveryReport::default()]);
            for k in 0..300u64 {
                assert_eq!(map.insert(k, k * 2), None);
            }
            for k in 0..100u64 {
                assert_eq!(map.remove(k * 3), Some(k * 6));
            }
            let stats = map.wal_stats()[0];
            assert_eq!(stats.ops_logged, 400);
            assert_eq!(stats.checkpoints, 0);
        }
        let map = open_m1(&dir, o);
        let report = map.recovery()[0];
        assert_eq!(report.checkpoint_seq, 0);
        assert_eq!(report.replayed_ops, 400);
        assert!(!report.truncated_torn_tail);
        for k in 0..300u64 {
            let expect = (k % 3 != 0).then_some(k * 2);
            assert_eq!(map.get(k), expect, "k={k}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn periodic_checkpoints_truncate_the_log_m2() {
        let dir = fresh_dir("ckpt-m2");
        let o = opts(SyncPolicy::Always, 4);
        let open = || DurableShardedMap::open_with(&dir, 1, o, |_| M2::<u64, u64>::new(4)).unwrap();
        {
            let map = open();
            for k in 0..200u64 {
                map.insert(k, k + 1);
            }
            let stats = map.wal_stats()[0];
            assert!(stats.checkpoints > 0, "checkpoint_every=4 must checkpoint");
            assert!(stats.since_checkpoint < stats.batches_logged);
            assert!(
                stats.syncs >= stats.batches_logged,
                "Always syncs per batch"
            );
        }
        let map = open();
        let report = map.recovery()[0];
        assert!(report.checkpoint_seq > 0, "reopen must use the checkpoint");
        assert_eq!(
            report.checkpoint_items + report.replayed_ops,
            200,
            "checkpoint + tail must cover every mutation: {report:?}"
        );
        for k in 0..200u64 {
            assert_eq!(map.get(k), Some(k + 1), "k={k}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn off_policy_needs_flush_or_drop() {
        let dir = fresh_dir("off-flush");
        let o = opts(SyncPolicy::Off, u64::MAX);
        {
            let map = open_m1(&dir, o);
            for k in 0..50u64 {
                map.insert(k, k);
            }
            // Drop flushes the user-space buffer (a crash here could lose
            // the un-flushed suffix — that's the policy's contract).
        }
        let map = open_m1(&dir, o);
        assert_eq!(map.len(), 50);
        assert_eq!(map.recovery()[0].replayed_ops, 50);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batches_and_searches_round_trip() {
        let dir = fresh_dir("batch");
        let o = opts(SyncPolicy::Batch, u64::MAX);
        {
            let map = open_m1(&dir, o);
            let ops: Vec<Operation<u64, u64>> = (0..64u64)
                .map(|k| Operation::Insert(k, k))
                .chain((0..64u64).map(Operation::Search))
                .collect();
            let results = map.run_batch(ops);
            assert_eq!(results.len(), 128);
            // Search-only traffic appends nothing.
            let logged_before = map.wal_stats()[0].ops_logged;
            map.run_batch((0..64u64).map(Operation::Search).collect());
            assert_eq!(map.wal_stats()[0].ops_logged, logged_before);
        }
        let map = open_m1(&dir, o);
        assert_eq!(map.len(), 64);
        assert_eq!(map.recovery()[0].replayed_ops, 64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_map_recovers_each_shard_independently() {
        let dir = fresh_dir("sharded");
        let o = opts(SyncPolicy::Batch, 8);
        {
            let map = DurableShardedMap::open_with(&dir, 4, o, |_| M1::<u64, u64>::new(4)).unwrap();
            assert_eq!(map.shards(), 4);
            let prev = map.insert_batch((0..500u64).map(|k| (k, k + 7)).collect());
            assert!(prev.iter().all(Option::is_none));
            map.remove_batch((0..100u64).map(|k| k * 5).collect());
            let stats = map.wal_stats();
            assert_eq!(stats.len(), 4);
            assert!(
                stats.iter().all(|s| s.batches_logged > 0),
                "every shard must have logged: {stats:?}"
            );
        }
        let map = DurableShardedMap::open_with(&dir, 4, o, |_| M1::<u64, u64>::new(4)).unwrap();
        assert_eq!(map.len(), 400);
        let total_recovered: u64 = map
            .recovery()
            .iter()
            .map(|r| r.checkpoint_items + r.replayed_ops)
            .sum();
        assert!(
            total_recovered >= 400,
            "recovery covers state: {total_recovered}"
        );
        for k in 0..500u64 {
            let expect = (k % 5 != 0).then_some(k + 7);
            assert_eq!(map.get(k), expect, "k={k}");
        }
        // Manual checkpoint of every shard resets the tails.
        map.checkpoint_all().unwrap();
        assert!(map.wal_stats().iter().all(|s| s.since_checkpoint == 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_at_another_shard_count_is_refused() {
        let dir = fresh_dir("shard-count");
        let o = opts(SyncPolicy::Batch, u64::MAX);
        let open = |shards| DurableShardedMap::open_with(&dir, shards, o, |_| M1::new(4));
        open(4)
            .unwrap()
            .insert_batch((0..500u64).map(|k| (k, k)).collect());
        for shards in [2, 8] {
            match open(shards) {
                Ok(map) => panic!("reopened at S={shards} holding {} keys", map.len()),
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::InvalidInput, "{e}");
                    let msg = e.to_string();
                    assert!(msg.contains("holds 4 shard directories"), "{msg}");
                    assert!(
                        msg.contains(&format!("{shards} shards were requested")),
                        "{msg}"
                    );
                }
            }
        }
        assert!(
            !dir.join("shard-4").exists(),
            "a refused open creates nothing"
        );
        let map = open(4).unwrap();
        assert_eq!(map.len(), 500);
        for k in 0..500u64 {
            assert_eq!(map.get(k), Some(k), "k={k}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn double_open_is_idempotent() {
        let dir = fresh_dir("double");
        let o = opts(SyncPolicy::Batch, 4);
        {
            let map = open_m1(&dir, o);
            for k in 0..50u64 {
                map.insert(k, k);
            }
        }
        let first = {
            let map = open_m1(&dir, o);
            (map.recovery().to_vec(), map.len())
        };
        let map = open_m1(&dir, o);
        assert_eq!(
            (map.recovery().to_vec(), map.len()),
            first,
            "reopen must be a no-op"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
