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
//! A checkpoint runs in steps — rotate the log under the map's lock, then
//! write the `.tmp` file, rename it, and delete what it covers — while
//! appends go on behind it; one property kills it after each step.  A
//! directory written before logs were rotated (`tests/data/wal-parent-format`,
//! a `wal.log` and a checkpoint) must recover too.
//!
//! One property is about a healthy run instead: the periodic checkpoint fires
//! once per `checkpoint_every` logged batches however many callers see the
//! threshold crossed at the same moment.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use wsm_core::{BatchedMap, OpId, Operation, TaggedOp, M1};
use wsm_wal::{DurableOptions, DurableShardedMap, RecoveryReport, SyncPolicy, Wal};

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

/// Applies one batch to the oracle.
fn apply(oracle: &mut BTreeMap<u64, u64>, batch: &[Operation<u64, u64>]) {
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
}

/// Every file of a WAL directory, by name.
fn read_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("list WAL dir")
        .map(|entry| {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().expect("file name").to_string_lossy();
            (name.into_owned(), std::fs::read(&path).expect("read file"))
        })
        .collect()
}

/// Makes `files` the whole contents of `dir`.
fn write_files(dir: &Path, files: &BTreeMap<String, Vec<u8>>) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create WAL dir");
    for (name, bytes) in files {
        std::fs::write(dir.join(name), bytes).expect("write file");
    }
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

    /// Kill a checkpoint after each of its steps — after the log rotation,
    /// after the `.tmp` write, after the rename, and partway through the
    /// deletions (`kept` picks which of the older checkpoint and the rotated
    /// logs survive) — with batches appended behind the rotation, and
    /// sometimes an earlier checkpoint whose files the deletions remove.
    /// The reopened map holds every acknowledged batch, and a second open
    /// reports the same recovery and changes no file.
    #[test]
    fn killing_a_checkpoint_after_any_step_keeps_every_acknowledged_batch(
        raw in prop::collection::vec(
            prop::collection::vec((any::<bool>(), any::<u8>()), 1..9),
            2..9,
        ),
        earlier in 0usize..9,
        rotate_at in 0usize..9,
        step in 0usize..4,
        kept in any::<u8>(),
    ) {
        let dir = fresh_dir("steps");
        let shard = dir.join("shard-0");
        let batches = materialize(&raw);
        let rotate_at = rotate_at.min(batches.len());
        let (wal, _) = Wal::<u64, u64>::open(&shard, SyncPolicy::Batch).expect("open WAL");
        let mut map = M1::<u64, u64>::new(4);
        let mut oracle = BTreeMap::new();
        let mut earlier_seq = 0;
        let mut pending = None;
        for i in 0..=batches.len() {
            if i == earlier && earlier < rotate_at {
                let mut checkpoint = wal.checkpoint();
                earlier_seq = checkpoint.rotate().expect("rotate");
                checkpoint.write(&map.snapshot_segments()).expect("write");
            }
            if i == rotate_at {
                let mut checkpoint = wal.checkpoint();
                let seq = checkpoint.rotate().expect("rotate");
                pending = Some((checkpoint, seq, map.snapshot_segments()));
            }
            let Some(batch) = batches.get(i) else { break };
            // What the commit hook does: log the batch, then apply it.
            let mut tagged: Vec<TaggedOp<u64, u64>> = batch
                .iter()
                .enumerate()
                .map(|(id, op)| TaggedOp { id: id as OpId, op: op.clone() })
                .collect();
            wal.append(&tagged).expect("append");
            map.run_batch(&mut tagged, &mut Vec::new());
            apply(&mut oracle, batch);
        }
        let (checkpoint, seq, image) = pending.expect("rotate_at <= batches.len()");
        let rotated = read_files(&shard);
        checkpoint.write(&image).expect("write");
        let done = read_files(&shard);
        drop(wal);

        let ckpt = format!("checkpoint-{seq}.ckpt");
        let mut files = rotated.clone();
        match step {
            0 => {}
            1 => {
                files.insert(format!("checkpoint-{seq}.tmp"), done[&ckpt].clone());
            }
            _ => {
                files.insert(ckpt.clone(), done[&ckpt].clone());
                let deleted = rotated.keys().filter(|name| !done.contains_key(*name));
                for (bit, name) in deleted.enumerate() {
                    if step == 3 && kept >> (bit % 8) & 1 == 0 {
                        files.remove(name);
                    }
                }
            }
        }
        write_files(&shard, &files);

        let map = open(&dir, SyncPolicy::Batch);
        let first = recovery(&map);
        prop_assert_eq!(first.checkpoint_seq, if step >= 2 { seq } else { earlier_seq });
        prop_assert!(!first.truncated_torn_tail);
        assert_state(&map, &oracle);
        drop(map);
        let normalized = read_files(&shard);
        prop_assert!(!normalized.contains_key(&format!("checkpoint-{seq}.tmp")));

        let map = open(&dir, SyncPolicy::Batch);
        prop_assert_eq!(recovery(&map), first);
        assert_state(&map, &oracle);
        drop(map);
        prop_assert_eq!(read_files(&shard), normalized, "a second open changes no file");
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

/// The batches the fixture under `tests/data/wal-parent-format` holds: a WAL
/// that truncated its single log at each checkpoint wrote them through a
/// one-shard `DurableShardedMap` (`checkpoint_every` off), with a
/// `checkpoint_all` after batch 11.
fn parent_fixture_batches() -> Vec<Vec<Operation<u64, u64>>> {
    (0..20u64)
        .map(|b| {
            (0..6u64)
                .map(|j| {
                    let k = (b * 37 + j * 11) % 256;
                    if (b + j) % 4 == 3 {
                        Operation::Delete(k)
                    } else {
                        Operation::Insert(k, b * 100 + j)
                    }
                })
                .collect()
        })
        .collect()
}

/// A directory from before logs were rotated — `wal.log` and
/// `checkpoint-12.ckpt`, written by that code — opens to the same contents,
/// twice, and then takes writes and rotating checkpoints like any other.
#[test]
fn a_directory_written_before_logs_rotated_recovers() {
    let dir = fresh_dir("parent-format");
    let fixture =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/wal-parent-format/shard-0");
    write_files(&dir.join("shard-0"), &read_files(&fixture));
    let mut oracle = BTreeMap::new();
    let mut checkpointed = 0;
    for (b, batch) in parent_fixture_batches().iter().enumerate() {
        apply(&mut oracle, batch);
        if b == 11 {
            checkpointed = oracle.len() as u64;
        }
    }

    let expect = RecoveryReport {
        checkpoint_seq: 12,
        checkpoint_items: checkpointed,
        replayed_batches: 8,
        replayed_ops: 48,
        skipped_stale_records: 0,
        truncated_torn_tail: false,
    };
    for _ in 0..2 {
        let map = open(&dir, SyncPolicy::Batch);
        assert_eq!(recovery(&map), expect);
        assert_state(&map, &oracle);
    }

    let map = open(&dir, SyncPolicy::Batch);
    let more: Vec<Operation<u64, u64>> = (0..16u64)
        .map(|k| Operation::Insert(k, 9_000 + k))
        .collect();
    map.run_batch(more.clone());
    apply(&mut oracle, &more);
    map.checkpoint_all().expect("checkpoint");
    drop(map);
    let map = open(&dir, SyncPolicy::Batch);
    assert_eq!(recovery(&map).checkpoint_seq, 21);
    assert_state(&map, &oracle);
    let left: Vec<String> = read_files(&dir.join("shard-0")).into_keys().collect();
    assert_eq!(left, ["checkpoint-21.ckpt", "wal.log"]);
    let _ = std::fs::remove_dir_all(&dir);
}
