//! Crash-injection property suite for the `wsm-wal` durability layer.
//!
//! A crash can land at any byte: these properties simulate one at *every*
//! WAL boundary by manipulating the on-disk files a healthy run left behind —
//! truncating the log at an arbitrary offset (a torn final append, or a kill
//! between appends when the cut lands on a record boundary), flipping an
//! arbitrary byte (media corruption), abandoning a checkpoint `.tmp`
//! (killed mid-checkpoint-write), and restoring a stale log next to a
//! renamed checkpoint (killed between the checkpoint rename and the log
//! truncation).  After each injected crash the reopened map must equal a
//! `BTreeMap` oracle of exactly the durable prefix of batches — never a
//! partially applied batch, never bytes past the damage — and opening twice
//! must be idempotent.
//!
//! One property is about a healthy run instead: the periodic checkpoint fires
//! once per `checkpoint_every` logged batches however many callers see the
//! threshold crossed at the same moment.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use wsm_core::{Operation, M1};
use wsm_wal::{DurableOptions, DurableShardedMap, RecoveryReport, SyncPolicy};

type Map = DurableShardedMap<u64, u64, M1<u64, u64>>;

/// A unique directory per proptest case (cases run concurrently across test
/// threads and the same property reuses the process id).
fn fresh_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("wsm-wal-prop-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Opens the single-shard map: one combiner, one log under `dir/shard-0`.
fn open(dir: &Path, sync: SyncPolicy) -> Map {
    let opts = DurableOptions {
        sync,
        checkpoint_every: u64::MAX,
    };
    DurableShardedMap::open_with(dir, 1, opts, |_| M1::new(4)).expect("open WAL dir")
}

/// What recovery found in the single shard.
fn recovery(map: &Map) -> RecoveryReport {
    map.recovery()[0]
}

/// Decodes generated `(is_insert, key)` pairs into mutation-only batches with
/// globally unique insert values (so the oracle distinguishes every write).
fn materialize(raw: &[Vec<(bool, u8)>]) -> Vec<Vec<Operation<u64, u64>>> {
    let mut unique = 0u64;
    raw.iter()
        .map(|batch| {
            batch
                .iter()
                .map(|&(is_insert, key)| {
                    if is_insert {
                        unique += 1;
                        Operation::Insert(u64::from(key), unique)
                    } else {
                        Operation::Delete(u64::from(key))
                    }
                })
                .collect()
        })
        .collect()
}

/// Runs the batches through a durable map (one `run_batch` per batch — a
/// single-threaded submitter yields exactly one combine, hence one WAL record
/// per batch) and returns the oracle state after each record prefix:
/// `oracle_after[r]` is the expected contents once the first `r` records are
/// durable.  `oracle_after[0]` is empty, `oracle_after.last()` is the full run.
fn run_and_oracle(
    dir: &Path,
    sync: SyncPolicy,
    batches: &[Vec<Operation<u64, u64>>],
) -> Vec<BTreeMap<u64, u64>> {
    let map = open(dir, sync);
    let mut oracle = BTreeMap::new();
    let mut oracle_after = vec![oracle.clone()];
    for batch in batches {
        map.run_batch(batch.clone());
        for op in batch {
            match op {
                Operation::Insert(k, v) => {
                    oracle.insert(*k, *v);
                }
                Operation::Delete(k) => {
                    oracle.remove(k);
                }
                Operation::Search(_) => {}
            }
        }
        oracle_after.push(oracle.clone());
    }
    oracle_after
}

/// Walks the log's framing, returning the end offset of each complete record.
fn record_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut boundaries = Vec::new();
    let mut offset = 0usize;
    while offset + 8 <= bytes.len() {
        let len =
            u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes")) as usize;
        if offset + 8 + len > bytes.len() {
            break;
        }
        offset += 8 + len;
        boundaries.push(offset);
    }
    boundaries
}

fn log_file(dir: &Path) -> PathBuf {
    dir.join("shard-0").join("wal.log")
}

/// Asserts the reopened map holds exactly the oracle's contents (the key
/// domain is `u8`, so probing every key is exhaustive).
fn assert_state(map: &Map, oracle: &BTreeMap<u64, u64>) {
    assert_eq!(map.len(), oracle.len(), "recovered size diverges");
    for k in 0u64..256 {
        assert_eq!(map.get(k), oracle.get(&k).copied(), "key {k}");
    }
}

/// Mutation-only batches: 1–5 batches of 1–9 ops over an 8-bit keyspace.
fn batches_strategy() -> impl Strategy<Value = Vec<Vec<(bool, u8)>>> {
    prop::collection::vec(
        prop::collection::vec((any::<bool>(), any::<u8>()), 1..9),
        1..5,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Kill at *every* append boundary and inside every record: truncating
    /// the log at an arbitrary byte must recover exactly the batches whose
    /// records survive whole — a cut on a record boundary is a kill between
    /// appends (nothing torn), a cut inside a record is a torn final append
    /// (detected, truncated, never replayed).  A second open sees the
    /// repaired log and must be a no-op.
    #[test]
    fn truncating_anywhere_recovers_exactly_the_durable_prefix(
        raw in batches_strategy(),
        cut_permille in 0usize..1001,
    ) {
        let dir = fresh_dir("cut");
        let batches = materialize(&raw);
        let oracle_after = run_and_oracle(&dir, SyncPolicy::Batch, &batches);

        let bytes = std::fs::read(log_file(&dir)).expect("read log");
        prop_assert_eq!(record_boundaries(&bytes).len(), batches.len());
        let cut = bytes.len() * cut_permille / 1000;
        std::fs::write(log_file(&dir), &bytes[..cut]).expect("truncate log");

        let boundaries = record_boundaries(&bytes[..cut]);
        let durable = boundaries.len();
        let clean_end = boundaries.last().copied().unwrap_or(0);

        let map = open(&dir, SyncPolicy::Batch);
        let report = recovery(&map);
        prop_assert_eq!(report.replayed_batches, durable as u64);
        prop_assert_eq!(report.truncated_torn_tail, cut != clean_end,
            "torn flag wrong for cut {} (clean prefix ends at {})", cut, clean_end);
        assert_state(&map, &oracle_after[durable]);
        drop(map);

        // The first open repaired the file: exactly the clean prefix remains.
        let repaired = std::fs::read(log_file(&dir)).expect("read repaired log");
        prop_assert_eq!(repaired.len(), clean_end);

        let map = open(&dir, SyncPolicy::Batch);
        prop_assert_eq!(recovery(&map).replayed_batches, durable as u64);
        prop_assert!(!recovery(&map).truncated_torn_tail);
        assert_state(&map, &oracle_after[durable]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Flip any byte of the log: the record containing it must fail its
    /// checksum (or framing), everything before it must replay, and nothing
    /// at or past the damage may ever be applied.
    #[test]
    fn corrupting_any_byte_never_replays_the_damaged_suffix(
        raw in batches_strategy(),
        pos_permille in 0usize..1000,
        flip in 0u8..255,
    ) {
        let dir = fresh_dir("flip");
        let batches = materialize(&raw);
        let oracle_after = run_and_oracle(&dir, SyncPolicy::Batch, &batches);

        let mut bytes = std::fs::read(log_file(&dir)).expect("read log");
        let pos = (bytes.len() - 1) * pos_permille / 1000;
        bytes[pos] ^= flip.wrapping_add(1); // a guaranteed-nonzero XOR mask
        std::fs::write(log_file(&dir), &bytes).expect("corrupt log");

        // The record containing `pos` is the first whose end exceeds it.
        let damaged = record_boundaries(&bytes)
            .iter()
            .filter(|&&end| end <= pos)
            .count();

        let map = open(&dir, SyncPolicy::Batch);
        let report = recovery(&map);
        prop_assert_eq!(report.replayed_batches, damaged as u64);
        prop_assert!(report.truncated_torn_tail, "damage at byte {} must truncate", pos);
        assert_state(&map, &oracle_after[damaged]);
        drop(map);

        let map = open(&dir, SyncPolicy::Batch);
        prop_assert!(!recovery(&map).truncated_torn_tail, "second open must be clean");
        assert_state(&map, &oracle_after[damaged]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Kill mid-checkpoint, before the rename: the abandoned `.tmp` is not
    /// durable state — recovery must ignore it (whatever it contains), delete
    /// it, and replay the full log.
    #[test]
    fn abandoned_checkpoint_tmp_is_ignored_and_removed(
        raw in batches_strategy(),
        garbage in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let dir = fresh_dir("tmp");
        let batches = materialize(&raw);
        let oracle_after = run_and_oracle(&dir, SyncPolicy::Batch, &batches);

        let tmp = dir.join("shard-0").join("checkpoint-9.tmp");
        std::fs::write(&tmp, &garbage).expect("plant stray tmp");

        let map = open(&dir, SyncPolicy::Batch);
        let report = recovery(&map);
        prop_assert_eq!(report.checkpoint_seq, 0, "a .tmp must never seed state");
        prop_assert_eq!(report.replayed_batches, batches.len() as u64);
        assert_state(&map, oracle_after.last().expect("non-empty"));
        prop_assert!(!tmp.exists(), "recovery must clear abandoned tmp files");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Kill between the checkpoint rename and the log truncation: recovery
    /// sees a durable checkpoint *and* a log full of records it already
    /// covers — those must be skipped by sequence, not replayed on top of
    /// the image (which would double-apply deletes-then-reinserts).
    #[test]
    fn checkpoint_renamed_but_log_not_truncated_skips_stale_records(
        raw in batches_strategy(),
    ) {
        let dir = fresh_dir("stale");
        let batches = materialize(&raw);
        let oracle_after = run_and_oracle(&dir, SyncPolicy::Batch, &batches);
        let full = oracle_after.last().expect("non-empty");

        let pre_checkpoint_log = std::fs::read(log_file(&dir)).expect("read log");
        {
            let map = open(&dir, SyncPolicy::Batch);
            map.checkpoint_all().expect("checkpoint");
        }
        // Simulate the crash: the checkpoint rename landed, the truncation
        // did not.
        std::fs::write(log_file(&dir), &pre_checkpoint_log).expect("restore stale log");

        let map = open(&dir, SyncPolicy::Batch);
        let report = recovery(&map);
        prop_assert!(report.checkpoint_seq > 0, "the renamed checkpoint must win");
        prop_assert_eq!(report.skipped_stale_records, batches.len() as u64);
        prop_assert_eq!(report.replayed_batches, 0);
        assert_state(&map, full);
        drop(map);

        let map = open(&dir, SyncPolicy::Batch);
        assert_state(&map, full);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Kill a `sync=off` process without flushing: whatever reached the OS is
    /// some *prefix* of the appended records — recovery must land exactly on
    /// one of the oracle's prefix states, never a mix.
    #[test]
    fn sync_off_crash_recovers_some_batch_prefix(
        raw in batches_strategy(),
    ) {
        let dir = fresh_dir("off");
        let batches = materialize(&raw);
        let mut oracle = BTreeMap::new();
        let mut oracle_after = vec![oracle.clone()];
        {
            let map = open(&dir, SyncPolicy::Off);
            for batch in &batches {
                map.run_batch(batch.clone());
                for op in batch {
                    match op {
                        Operation::Insert(k, v) => { oracle.insert(*k, *v); }
                        Operation::Delete(k) => { oracle.remove(k); }
                        Operation::Search(_) => {}
                    }
                }
                oracle_after.push(oracle.clone());
            }
            // Crash: never flush, never run Drop.
            std::mem::forget(map);
        }

        let map = open(&dir, SyncPolicy::Batch);
        let durable = recovery(&map).replayed_batches as usize;
        prop_assert!(durable <= batches.len());
        assert_state(&map, &oracle_after[durable]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Callers whose operations rode one combined batch all see the checkpoint
/// threshold crossed when they return; only one of them may checkpoint.  Two
/// threads hammer a two-shard map with a short interval: per shard, the
/// checkpoints taken must fit into the batches logged, the reopened map must
/// hold exactly what the threads wrote, and an explicit `checkpoint_all`
/// stays unconditional.
#[test]
fn periodic_checkpoints_fire_once_per_interval_under_concurrent_callers() {
    const THREADS: u64 = 2;
    const BATCHES: u64 = 4_000;
    const BATCH: u64 = 64;
    const EVERY: u64 = 64;
    let dir = fresh_dir("ckpt-once");
    let opts = DurableOptions {
        sync: SyncPolicy::Batch,
        checkpoint_every: EVERY,
    };
    let open =
        || DurableShardedMap::open_with(&dir, 2, opts, |_| M1::<u64, u64>::new(4)).expect("open");

    let map = open();
    let start = std::sync::Barrier::new(THREADS as usize);
    let models: Vec<BTreeMap<u64, u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (map, start) = (&map, &start);
                scope.spawn(move || {
                    // Thread `t` owns keys `THREADS * k + t`, and rewrites
                    // them as it cycles so the checkpoints stay small.
                    let mut model = BTreeMap::new();
                    start.wait();
                    for i in 0..BATCHES {
                        let ops: Vec<Operation<u64, u64>> = (0..BATCH)
                            .map(|j| {
                                let n = i * BATCH + j;
                                Operation::Insert(THREADS * (n % 1_000) + t, n)
                            })
                            .collect();
                        for op in &ops {
                            if let Operation::Insert(k, v) = op {
                                model.insert(*k, *v);
                            }
                        }
                        map.run_batch(ops);
                    }
                    model
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("writer thread"))
            .collect()
    });

    let stats = map.wal_stats();
    for (shard, s) in stats.iter().enumerate() {
        assert!(s.checkpoints > 0, "shard {shard} never checkpointed: {s:?}");
        assert!(
            s.checkpoints * EVERY <= s.batches_logged,
            "shard {shard} checkpointed more than once per {EVERY} batches: {s:?}"
        );
    }
    for round in 1..=2 {
        map.checkpoint_all().expect("explicit checkpoint");
        for (before, after) in stats.iter().zip(map.wal_stats()) {
            assert_eq!(after.checkpoints, before.checkpoints + round);
        }
    }
    drop(map);

    let map = open();
    let expect: BTreeMap<u64, u64> = models.into_iter().flatten().collect();
    assert_eq!(map.len(), expect.len());
    let got = map.get_batch(expect.keys().copied().collect());
    for ((k, v), got) in expect.iter().zip(got) {
        assert_eq!(got, Some(*v), "key {k}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
