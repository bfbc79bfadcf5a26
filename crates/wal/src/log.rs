//! The on-disk write-ahead log: record framing, the append path, log
//! rotation, checkpoint files and the recovery scan.
//!
//! # File layout
//!
//! A WAL directory holds the active log, the logs a checkpoint rotated aside
//! and has not deleted yet, and the newest checkpoint:
//!
//! * `wal.log` — the active log, a sequence of *records*, each
//!   `[len: u32][crc: u32][payload]` with `crc = crc32(payload)`.  A record's
//!   payload is the batch image `(seq: u64, ops: Vec<Operation>)`: `seq`
//!   numbers appended records from 1 and the ops are the batch's *mutations*
//!   in batch order (searches change only recency, which the next checkpoint
//!   re-captures exactly; logging them would put every read on the write
//!   path).
//! * `wal-<seq>.log` — a log rotated aside when a checkpoint covering
//!   sequence `seq` began: the same records, none with a sequence above
//!   `seq`.  Rotated logs sort by name in the order of their records, and all
//!   of them precede `wal.log`'s.  One exists only while a checkpoint is being
//!   written, or after a crash interrupted one.
//! * `checkpoint-<seq>.ckpt` — a single framed record whose payload is
//!   `(seq, segments)` where `segments` is the
//!   [`snapshot_segments`](crate::DurableState::snapshot_segments) image: it
//!   covers every log record with sequence `<= seq`.  Written as
//!   `checkpoint-<seq>.tmp` + fsync + rename, so a crash mid-checkpoint
//!   leaves either the old state or the new file, never half of one.
//!
//! The bytes of records and checkpoints do not depend on rotation: a
//! directory holding only `wal.log` and a checkpoint (what a checkpoint that
//! truncates a single log leaves) is a valid directory.
//!
//! # Checkpoint protocol
//!
//! [`Wal::checkpoint`] takes the log's checkpoint turn, so one checkpoint runs
//! per log at a time.  [`Checkpoint::rotate`] runs under the map's inner lock,
//! beside the snapshot: it renames `wal.log` to `wal-<seq>.log` and opens a
//! fresh `wal.log` for later appends.  [`Checkpoint::write`] runs after the
//! lock is released: it encodes the image, writes the `.tmp` file, fsyncs,
//! renames, fsyncs the directory, and only then deletes the older checkpoint
//! and the rotated logs.
//!
//! # Recovery contract
//!
//! [`Wal::open`] loads the newest checkpoint that decodes cleanly (a corrupt
//! one is skipped — the logs behind it still replay) and deletes the rotated
//! logs it covers (a crash interrupted their deletion).  It then scans the
//! other rotated logs in order and the active log last: records covered by
//! the checkpoint are skipped, consecutive records beyond it are returned for
//! replay, and the first torn or corrupt record — short header, short
//! payload, checksum mismatch, undecodable bytes, or a sequence gap —
//! *truncates its file at that offset* and empties every log after it;
//! nothing at or past a bad record is ever replayed.  Opening twice in a row
//! is therefore idempotent: the first open already normalized the files.

use crate::codec::{decode_exact, Codec};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, TryLockError};
use std::time::Instant;
use wsm_core::{Operation, TaggedOp};

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) slice-by-8
/// tables, built at compile time: `CRC_TABLES[0]` is the bytewise table, and
/// `CRC_TABLES[k][b]` advances the CRC of byte `b` over `k` more zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// The CRC-32 checksum guarding every record payload.  Slice-by-8: eight
/// independent table lookups per 8 input bytes, where a bytewise table
/// chains eight dependent ones.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = u32::MAX;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let x = u64::from_le_bytes(word.try_into().expect("8 bytes")) ^ u64::from(crc);
        let b = x.to_le_bytes();
        crc = t[7][b[0] as usize]
            ^ t[6][b[1] as usize]
            ^ t[5][b[2] as usize]
            ^ t[4][b[3] as usize]
            ^ t[3][b[4] as usize]
            ^ t[2][b[5] as usize]
            ^ t[1][b[6] as usize]
            ^ t[0][b[7] as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// When appended records reach the operating system / the disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `write` + `fdatasync` per batch *before* any caller receives a
    /// result: committed means on disk.  Survives power loss.
    Always,
    /// `write` per batch, no fsync: committed means handed to the OS.
    /// Survives a process kill, not power loss.  The default.
    Batch,
    /// Records accumulate in a user-space buffer flushed when it fills and
    /// on [`Wal::flush`] / drop: fastest, survives only a graceful close.
    Off,
}

impl SyncPolicy {
    /// Reads `WSM_WAL_SYNC=always|batch|off` (default [`SyncPolicy::Batch`];
    /// invalid values warn once on stderr via the central knob parser).
    pub fn from_env() -> SyncPolicy {
        wsm_sync::env::parse_with(
            "WSM_WAL_SYNC",
            "always|batch|off",
            SyncPolicy::Batch,
            |raw| match raw {
                "always" => Some(SyncPolicy::Always),
                "batch" => Some(SyncPolicy::Batch),
                "off" => Some(SyncPolicy::Off),
                _ => None,
            },
        )
    }
}

/// User-space buffer threshold for [`SyncPolicy::Off`].
const OFF_FLUSH_BYTES: usize = 64 * 1024;

/// The active log file inside a WAL directory.
pub fn log_path(dir: &Path) -> PathBuf {
    dir.join("wal.log")
}

/// The log a checkpoint covering sequence `seq` rotated aside.
fn rotated_log_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq}.log"))
}

/// The checkpoint file covering log records with sequence `<= seq`.
pub fn checkpoint_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("checkpoint-{seq}.ckpt"))
}

/// All files `<prefix><seq><suffix>` in `dir`, unordered.
fn list_numbered(dir: &Path, prefix: &str, suffix: &str) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some(seq) = name
            .strip_prefix(prefix)
            .and_then(|rest| rest.strip_suffix(suffix))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            out.push((seq, path));
        }
    }
    Ok(out)
}

/// All `checkpoint-<seq>.ckpt` files in `dir`, unordered.
pub fn list_checkpoints(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    list_numbered(dir, "checkpoint-", ".ckpt")
}

/// All rotated `wal-<seq>.log` files in `dir`, unordered.
fn list_rotated_logs(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    list_numbered(dir, "wal-", ".log")
}

/// Appends one record to `out`: reserves the 8 header bytes, lets `payload`
/// encode straight after them, then patches in the length and the CRC.
/// Returns the record's length, header included.
fn frame_into(out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) -> u64 {
    let start = out.len();
    out.extend_from_slice(&[0; 8]);
    payload(out);
    let len = u32::try_from(out.len() - start - 8).expect("a record holds under 4 GiB");
    let crc = crc32(&out[start + 8..]);
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
    u64::from(len) + 8
}

/// Hands `buf` to the log file and empties it, also when the write fails:
/// the caller fails stop, and no later flush may write the record again.
fn write_out(file: &mut File, buf: &mut Vec<u8>) -> io::Result<()> {
    let written = file.write_all(buf);
    buf.clear();
    written
}

/// Makes renames and new files in `dir` durable (best-effort: not every
/// filesystem supports fsync on a directory handle).
fn sync_dir(dir: &Path) {
    let _ = File::open(dir).and_then(|d| d.sync_all());
}

/// Cuts the log at `path` to its first `len` bytes, durably.
fn truncate_log(path: &Path, len: u64) -> io::Result<()> {
    let file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)?;
    file.set_len(len)?;
    file.sync_all()
}

/// One decoded record plus the byte offset it starts at.
struct ScannedRecord<K, V> {
    seq: u64,
    ops: Vec<Operation<K, V>>,
    start: u64,
}

/// Walks the raw log bytes, stopping at the first record that is short,
/// fails its checksum or does not decode.  `valid_len` is where the clean
/// prefix ends.
struct LogScan<K, V> {
    records: Vec<ScannedRecord<K, V>>,
    valid_len: u64,
    torn: bool,
}

fn scan_log<K: Codec, V: Codec>(bytes: &[u8]) -> LogScan<K, V> {
    let mut records = Vec::new();
    let mut offset = 0usize;
    let mut torn = false;
    while offset < bytes.len() {
        let rest = &bytes[offset..];
        let Some(header) = rest.get(..8) else {
            torn = true;
            break;
        };
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
        let Some(payload) = rest.get(8..8 + len) else {
            torn = true;
            break;
        };
        if crc32(payload) != crc {
            torn = true;
            break;
        }
        let Some((seq, ops)) = decode_exact::<(u64, Vec<Operation<K, V>>)>(payload) else {
            torn = true;
            break;
        };
        records.push(ScannedRecord {
            seq,
            ops,
            start: offset as u64,
        });
        offset += 8 + len;
    }
    LogScan {
        records,
        valid_len: offset as u64,
        torn,
    }
}

/// What [`Wal::open`] found and did; surfaced through
/// [`DurableShardedMap::recovery`](crate::DurableShardedMap::recovery), one
/// per shard.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sequence of the checkpoint that seeded the state (0 = none).
    pub checkpoint_seq: u64,
    /// Items restored from the checkpoint image.
    pub checkpoint_items: u64,
    /// Log-tail batches replayed on top of the checkpoint.
    pub replayed_batches: u64,
    /// Mutations inside those replayed batches.
    pub replayed_ops: u64,
    /// Records skipped because the checkpoint already covered them: the
    /// active log still held them (a rotation was skipped, or a single log
    /// was not truncated after its checkpoint).  Rotated logs the checkpoint
    /// covers are deleted unread.
    pub skipped_stale_records: u64,
    /// Whether a torn/corrupt tail (or sequence gap) was cut off the logs.
    pub truncated_torn_tail: bool,
}

/// Everything recovered from a WAL directory: the checkpoint image (if any)
/// and the log-tail batches to replay on top of it, in order.
pub struct Recovered<K, V> {
    /// Newest valid checkpoint's segment image.
    pub segments: Option<Vec<Vec<(K, V)>>>,
    /// Batches past the checkpoint, each a list of mutations in batch order.
    pub tail: Vec<Vec<Operation<K, V>>>,
    /// What happened during the scan.
    pub report: RecoveryReport,
}

/// Point-in-time counters for one WAL.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Batches appended (batches with no mutations append nothing).
    pub batches_logged: u64,
    /// Mutations inside those batches.
    pub ops_logged: u64,
    /// Framed bytes handed to the log (including headers).
    pub bytes_appended: u64,
    /// `fdatasync` calls on the log ([`SyncPolicy::Always`] only).
    pub syncs: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Batches appended since the last checkpoint's rotation.
    pub since_checkpoint: u64,
    /// Wall time of those checkpoints, summed, in ns: from
    /// [`Wal::checkpoint`] to the last deletion.
    pub checkpoint_ns: u64,
    /// The part of `checkpoint_ns` under the map's inner lock, in ns: from
    /// [`Checkpoint::rotate`] to [`Checkpoint::write`], which is the
    /// rotation plus the snapshot.
    pub checkpoint_locked_ns: u64,
}

struct LogState {
    /// The active log, `wal.log`.
    file: File,
    /// The record being framed; under [`SyncPolicy::Off`], every record not
    /// yet handed to the operating system.
    buf: Vec<u8>,
    next_seq: u64,
    /// The highest `seq` a rotated log `wal-<seq>.log` in the directory was
    /// named after.  A rotation to a name at or below it is skipped, so
    /// rotated names never repeat and their order is the records' order.
    rotated_through: u64,
    /// What [`Wal::stats`] reports.
    stats: WalStats,
}

/// An open write-ahead log for one serialization point (one combiner).
///
/// `append` is called from the [`ConcurrentMap`](wsm_core::ConcurrentMap)
/// commit hook, under the map's inner lock.  A checkpoint takes the log's
/// checkpoint turn first, then the inner lock for [`Checkpoint::rotate`] and
/// the snapshot, and writes the image after releasing it: the lock order is
/// turn → inner → log state, never reversed, and the checkpoint's `seq` is
/// exactly consistent with the snapshotted state.
pub struct Wal<K, V> {
    dir: PathBuf,
    policy: SyncPolicy,
    state: Mutex<LogState>,
    /// The checkpoint turn, held from [`Wal::checkpoint`] to the end of
    /// [`Checkpoint::write`].  It keeps the length of the last image, so the
    /// next is encoded into one allocation of about its size: a buffer grown
    /// by doubling churns the heap, and the next snapshot, taken under the
    /// inner lock, then runs on cold memory.
    turn: Mutex<usize>,
    /// `stats.since_checkpoint`, readable without the state mutex.
    since_checkpoint: AtomicU64,
    _shape: PhantomData<fn(K, V)>,
}

impl<K: Codec, V: Codec> Wal<K, V> {
    /// Opens (creating if needed) the WAL in `dir`, recovering whatever a
    /// previous process left: newest valid checkpoint, clean log chain, torn
    /// records truncated.  Returns the log ready for appending plus the
    /// recovered state for the caller to rebuild its map from.
    pub fn open(dir: &Path, policy: SyncPolicy) -> io::Result<(Self, Recovered<K, V>)> {
        fs::create_dir_all(dir)?;
        let mut report = RecoveryReport::default();

        // Newest checkpoint that decodes cleanly wins; corrupt ones are
        // skipped so the logs (which are only deleted after a checkpoint is
        // durable) still replay under an older or absent image.
        let mut checkpoints = list_checkpoints(dir)?;
        checkpoints.sort_by_key(|&(seq, _)| std::cmp::Reverse(seq));
        let mut segments = None;
        for (seq, path) in &checkpoints {
            if let Some(image) = load_checkpoint::<K, V>(path, *seq) {
                report.checkpoint_seq = *seq;
                report.checkpoint_items = image.iter().map(|s| s.len() as u64).sum();
                segments = Some(image);
                break;
            }
        }
        // Interrupted checkpoint writes leave `.tmp` files; they were never
        // part of durable state, so clear them.
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "tmp") {
                let _ = fs::remove_file(path);
            }
        }

        // The chain: rotated logs in name order, then the active log.  The
        // rotated logs the checkpoint covers are what an interrupted
        // checkpoint had not deleted yet.
        let mut rotated = list_rotated_logs(dir)?;
        rotated.sort_unstable_by_key(|&(seq, _)| seq);
        let rotated_through = rotated.last().map_or(0, |&(seq, _)| seq);
        let mut chain = Vec::with_capacity(rotated.len() + 1);
        for (seq, path) in rotated {
            if seq <= report.checkpoint_seq {
                let _ = fs::remove_file(path);
            } else {
                chain.push(path);
            }
        }
        let log = log_path(dir);
        chain.push(log.clone());

        let mut tail = Vec::new();
        let mut last_seq = report.checkpoint_seq;
        let mut cut = None;
        for (i, path) in chain.iter().enumerate() {
            let bytes = match fs::read(path) {
                Ok(bytes) => bytes,
                Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
                Err(e) => return Err(e),
            };
            let scan = scan_log::<K, V>(&bytes);
            let mut cut_at = scan.torn.then_some(scan.valid_len);
            for record in scan.records {
                if record.seq <= report.checkpoint_seq {
                    report.skipped_stale_records += 1;
                } else if record.seq == last_seq + 1 {
                    report.replayed_ops += record.ops.len() as u64;
                    tail.push(record.ops);
                    last_seq = record.seq;
                } else {
                    // A sequence gap means the files are not the clean
                    // suffix of any run this WAL wrote; trust nothing from
                    // here on.
                    cut_at = Some(record.start);
                    break;
                }
            }
            if let Some(at) = cut_at {
                cut = Some((i, at));
                break;
            }
        }
        report.replayed_batches = tail.len() as u64;
        if let Some((i, at)) = cut {
            report.truncated_torn_tail = true;
            truncate_log(&chain[i], at)?;
            for later in &chain[i + 1..] {
                if *later == log {
                    truncate_log(later, 0)?;
                } else {
                    fs::remove_file(later)?;
                }
            }
        }

        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&log)?;
        file.seek(SeekFrom::End(0))?;

        let wal = Wal {
            dir: dir.to_path_buf(),
            policy,
            state: Mutex::new(LogState {
                file,
                buf: Vec::new(),
                next_seq: last_seq + 1,
                rotated_through,
                stats: WalStats::default(),
            }),
            turn: Mutex::new(0),
            since_checkpoint: AtomicU64::new(0),
            _shape: PhantomData,
        };
        Ok((
            wal,
            Recovered {
                segments,
                tail,
                report,
            },
        ))
    }

    fn lock_state(&self) -> MutexGuard<'_, LogState> {
        // A poisoned lock means an append panicked mid-write; the file may
        // hold a torn record, which is exactly what recovery handles — keep
        // going rather than poisoning every later append.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Appends one committed batch's mutations as a single record, honoring
    /// the sync policy.  Batches with no mutations append nothing (searches
    /// change only recency, which the next checkpoint captures).  Returns
    /// whether a record was written.
    ///
    /// The mutations are encoded straight into the log's one buffer, behind
    /// a header patched in afterwards, and the buffer is written once.
    pub fn append(&self, batch: &[TaggedOp<K, V>]) -> io::Result<bool> {
        let is_mutation = |t: &&TaggedOp<K, V>| !matches!(t.op, Operation::Search(_));
        let mutations = batch.iter().filter(is_mutation).count() as u64;
        if mutations == 0 {
            return Ok(false);
        }
        let mut guard = self.lock_state();
        let state = &mut *guard;
        let seq = state.next_seq;
        let bytes = frame_into(&mut state.buf, |payload| {
            seq.encode(payload);
            mutations.encode(payload);
            for tagged in batch.iter().filter(is_mutation) {
                tagged.op.encode(payload);
            }
        });
        match self.policy {
            SyncPolicy::Always => {
                write_out(&mut state.file, &mut state.buf)?;
                state.file.sync_data()?;
                state.stats.syncs += 1;
            }
            SyncPolicy::Batch => write_out(&mut state.file, &mut state.buf)?,
            SyncPolicy::Off => {
                if state.buf.len() >= OFF_FLUSH_BYTES {
                    write_out(&mut state.file, &mut state.buf)?;
                }
            }
        }
        state.next_seq += 1;
        let stats = &mut state.stats;
        stats.batches_logged += 1;
        stats.ops_logged += mutations;
        stats.bytes_appended += bytes;
        stats.since_checkpoint += 1;
        // ord: Relaxed — a mirror of the count above for the unlocked
        // pre-check; the state mutex orders every write to it.
        self.since_checkpoint
            .store(stats.since_checkpoint, Ordering::Relaxed);
        Ok(true)
    }

    /// Begins a checkpoint, waiting while another checkpoint of this log
    /// runs.  Take it *before* the map's inner lock; the returned
    /// [`Checkpoint`] rotates the log under that lock, beside the snapshot,
    /// and writes the image after the lock is released, so the caller need
    /// not hold the lock for the write and the shard waits only for the
    /// rotation and the snapshot.
    pub fn checkpoint(&self) -> Checkpoint<'_, K, V> {
        Checkpoint::new(self, self.turn.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// As [`checkpoint`](Self::checkpoint), but `None` while another
    /// checkpoint of this log runs.
    pub fn try_checkpoint(&self) -> Option<Checkpoint<'_, K, V>> {
        let turn = match self.turn.try_lock() {
            Ok(turn) => turn,
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        Some(Checkpoint::new(self, turn))
    }

    /// Batches appended since the last checkpoint's rotation (drives the
    /// checkpoint-every-N policy).
    pub fn since_checkpoint(&self) -> u64 {
        // ord: Relaxed — the durable maps append (commit hook) and rotate
        // under the map's inner lock, so a read under that lock is exact by
        // the mutex's own ordering; a read outside it is a pre-check that
        // the periodic checkpoint repeats under the lock.
        self.since_checkpoint.load(Ordering::Relaxed)
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> WalStats {
        self.lock_state().stats
    }

    /// Hands any user-space-buffered records ([`SyncPolicy::Off`]) to the
    /// operating system.  Called on drop; call explicitly for a graceful
    /// close whose durability you want to observe.
    pub fn flush(&self) -> io::Result<()> {
        let mut guard = self.lock_state();
        let state = &mut *guard;
        write_out(&mut state.file, &mut state.buf)
    }
}

impl<K, V> Drop for Wal<K, V> {
    fn drop(&mut self) {
        let state = self.state.get_mut().unwrap_or_else(|e| e.into_inner());
        let _ = write_out(&mut state.file, &mut state.buf);
    }
}

/// One checkpoint of a [`Wal`], from its turn to its last deletion.
///
/// While it lives, every other checkpoint of the log waits
/// ([`Wal::checkpoint`]) or stays away ([`Wal::try_checkpoint`]).  Its two
/// steps run on either side of the map's inner lock:
/// [`rotate`](Self::rotate) under it, beside the snapshot, and
/// [`write`](Self::write) after it is released.
pub struct Checkpoint<'a, K, V> {
    wal: &'a Wal<K, V>,
    /// The turn, holding the length of the log's last image.
    last_len: MutexGuard<'a, usize>,
    began: Instant,
    /// The sequence the image covers, and when the rotation began.
    rotated: Option<(u64, Instant)>,
}

impl<'a, K: Codec, V: Codec> Checkpoint<'a, K, V> {
    fn new(wal: &'a Wal<K, V>, last_len: MutexGuard<'a, usize>) -> Self {
        Checkpoint {
            wal,
            last_len,
            began: Instant::now(),
            rotated: None,
        }
    }

    /// Ends the active log at the last appended record and returns that
    /// record's sequence, which the image must cover exactly.  Call it under
    /// the map's inner lock — the lock the commit hook appends under — and
    /// take the snapshot under the same hold.
    ///
    /// `wal.log` is renamed `wal-<seq>.log` and a fresh `wal.log` takes later
    /// appends: a rename and a file creation, no write to the disk.  Under
    /// [`SyncPolicy::Off`] the staged records go to the renamed log first;
    /// under [`SyncPolicy::Always`] the directory is fsynced, so no later
    /// acknowledged record can lose its file to a crash.  The rename is
    /// skipped when `wal-<seq>.log` would not sort after every rotated log
    /// already named (nothing was appended since the last rotation, or
    /// recovery cut a rotated log short): the active log then keeps records
    /// the checkpoint covers, which recovery skips by sequence.
    pub fn rotate(&mut self) -> io::Result<u64> {
        let began = Instant::now();
        let wal = self.wal;
        let mut guard = wal.lock_state();
        let state = &mut *guard;
        let seq = state.next_seq - 1;
        if seq > state.rotated_through {
            write_out(&mut state.file, &mut state.buf)?;
            fs::rename(log_path(&wal.dir), rotated_log_path(&wal.dir, seq))?;
            state.file = File::create(log_path(&wal.dir))?;
            state.rotated_through = seq;
            if wal.policy == SyncPolicy::Always {
                sync_dir(&wal.dir);
            }
        }
        state.stats.since_checkpoint = 0;
        // ord: Relaxed — as in `append`: the state mutex orders the writes.
        wal.since_checkpoint.store(0, Ordering::Relaxed);
        self.rotated = Some((seq, began));
        Ok(seq)
    }

    /// Writes `segments` — the image taken beside [`rotate`](Self::rotate),
    /// exactly the state the records up to its sequence produced — as
    /// `checkpoint-<seq>.ckpt`, then deletes what it covers, and returns the
    /// sequence.  Call it after releasing the map's inner lock: appends go on
    /// meanwhile.
    ///
    /// Crash-safe at every step: the image is encoded into one buffer and
    /// lands in a `.tmp` file that is fsynced before an atomic rename and a
    /// directory fsync; only then are the older checkpoint and the rotated
    /// logs (all named at or below `seq`) deleted.  A crash anywhere leaves
    /// the old checkpoint with the logs that complete it, or the new
    /// checkpoint with leftovers that recovery deletes or skips by sequence.
    ///
    /// # Panics
    ///
    /// If [`rotate`](Self::rotate) did not run first.
    pub fn write(mut self, segments: &[Vec<(K, V)>]) -> io::Result<u64> {
        let (seq, rotated) = self.rotated.expect("Checkpoint::write runs after rotate");
        let locked_ns = rotated.elapsed().as_nanos() as u64;
        let dir = &self.wal.dir;
        let mut image = Vec::with_capacity(*self.last_len);
        frame_into(&mut image, |payload| {
            seq.encode(payload);
            (segments.len() as u64).encode(payload);
            for segment in segments {
                segment.encode(payload);
            }
        });
        *self.last_len = image.len();
        let tmp = dir.join(format!("checkpoint-{seq}.tmp"));
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&image)?;
            f.sync_data()?;
        }
        fs::rename(&tmp, checkpoint_path(dir, seq))?;
        sync_dir(dir);
        for (old_seq, path) in list_checkpoints(dir)? {
            if old_seq != seq {
                let _ = fs::remove_file(path);
            }
        }
        for (through, path) in list_rotated_logs(dir)? {
            if through <= seq {
                let _ = fs::remove_file(path);
            }
        }
        let mut state = self.wal.lock_state();
        state.stats.checkpoints += 1;
        state.stats.checkpoint_ns += self.began.elapsed().as_nanos() as u64;
        state.stats.checkpoint_locked_ns += locked_ns;
        Ok(seq)
    }
}

/// Decodes one checkpoint file; `None` if it is torn, corrupt, or its
/// embedded sequence disagrees with its filename.
fn load_checkpoint<K: Codec, V: Codec>(path: &Path, expect_seq: u64) -> Option<Vec<Vec<(K, V)>>> {
    let bytes = fs::read(path).ok()?;
    let header = bytes.get(..8)?;
    let len = u32::from_le_bytes(header[..4].try_into().ok()?) as usize;
    let crc = u32::from_le_bytes(header[4..].try_into().ok()?);
    let payload = bytes.get(8..8 + len)?;
    if bytes.len() != 8 + len || crc32(payload) != crc {
        return None;
    }
    let (seq, segments) = decode_exact::<(u64, Vec<Vec<(K, V)>>)>(payload)?;
    (seq == expect_seq).then_some(segments)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise CRC-32 that `crc32` must equal: one dependent table
    /// lookup per byte.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(u32::MAX, |c, &b| {
            CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8)
        })
    }

    /// One framed log record `(seq, ops)`.
    fn record(seq: u64, ops: &[Operation<u64, u64>]) -> Vec<u8> {
        let mut bytes = Vec::new();
        frame_into(&mut bytes, |payload| (seq, ops.to_vec()).encode(payload));
        bytes
    }

    /// A one-insert batch as the commit hook hands it over.
    fn insert(k: u64) -> Vec<TaggedOp<u64, u64>> {
        vec![TaggedOp {
            id: 0,
            op: Operation::Insert(k, k),
        }]
    }

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wsm-wal-log-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn open(dir: &Path) -> (Wal<u64, u64>, Recovered<u64, u64>) {
        Wal::open(dir, SyncPolicy::Batch).expect("open WAL")
    }

    /// The keys of the recovered tail's inserts, in replay order.
    fn tail_keys(recovered: &Recovered<u64, u64>) -> Vec<u64> {
        recovered
            .tail
            .iter()
            .flatten()
            .map(|op| match op {
                Operation::Insert(k, _) => *k,
                other => panic!("only inserts were logged, found {other:?}"),
            })
            .collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_equals_the_bytewise_reference_at_every_length_and_offset() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..4 {
            let buffer: Vec<u8> = (0..138)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect();
            for offset in 0..8 {
                for len in 0..=130 {
                    let bytes = &buffer[offset..offset + len];
                    assert_eq!(
                        crc32(bytes),
                        crc32_bytewise(bytes),
                        "offset {offset} len {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn scan_accepts_clean_records_and_stops_at_garbage() {
        let mut bytes = Vec::new();
        for seq in 1u64..=3 {
            bytes.extend_from_slice(&record(seq, &[Operation::Insert(seq, seq * 10)]));
        }
        let clean_len = bytes.len() as u64;
        bytes.extend_from_slice(&[0xAB; 5]); // torn header
        let scan = scan_log::<u64, u64>(&bytes);
        assert!(scan.torn);
        assert_eq!(scan.valid_len, clean_len);
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.records[2].seq, 3);
        assert!(scan.records[2].start < clean_len);
    }

    #[test]
    fn scan_rejects_checksum_mismatch() {
        let mut bytes = record(1, &[Operation::Delete(4)]);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        let scan = scan_log::<u64, u64>(&bytes);
        assert!(scan.torn);
        assert_eq!(scan.valid_len, 0);
        assert!(scan.records.is_empty());
    }

    #[test]
    fn an_append_writes_the_bytes_of_one_framed_record() {
        let dir = fresh_dir("append-bytes");
        let (wal, _) = open(&dir);
        let batch = vec![
            TaggedOp {
                id: 0,
                op: Operation::Insert(7, 70),
            },
            TaggedOp {
                id: 1,
                op: Operation::Search(7),
            },
            TaggedOp {
                id: 2,
                op: Operation::Delete(9),
            },
        ];
        assert!(wal.append(&batch).unwrap());
        let expect = record(1, &[Operation::Insert(7, 70), Operation::Delete(9)]);
        assert_eq!(fs::read(log_path(&dir)).unwrap(), expect);
        assert_eq!(wal.stats().bytes_appended, expect.len() as u64);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_checkpoint_rotates_the_log_and_deletes_what_it_covers() {
        let dir = fresh_dir("rotate");
        let (wal, _) = open(&dir);
        for k in 1..=3 {
            wal.append(&insert(k)).unwrap();
        }
        let mut checkpoint = wal.checkpoint();
        assert_eq!(checkpoint.rotate().unwrap(), 3);
        assert_eq!(fs::metadata(log_path(&dir)).unwrap().len(), 0);
        assert_eq!(
            fs::read(rotated_log_path(&dir, 3)).unwrap().len(),
            3 * record(1, &[Operation::Insert(1, 1)]).len()
        );
        assert!(
            wal.try_checkpoint().is_none(),
            "one checkpoint per log at a time"
        );
        // Appends go on while the image is written.
        wal.append(&insert(4)).unwrap();
        assert_eq!(wal.since_checkpoint(), 1);
        let image = vec![vec![(3, 3), (2, 2), (1, 1)]];
        assert_eq!(checkpoint.write(&image).unwrap(), 3);
        assert!(!rotated_log_path(&dir, 3).exists());
        assert!(checkpoint_path(&dir, 3).exists());
        let stats = wal.stats();
        assert_eq!((stats.checkpoints, stats.since_checkpoint), (1, 1));
        assert!(
            stats.checkpoint_locked_ns <= stats.checkpoint_ns,
            "{stats:?}"
        );
        drop(wal);

        let (_, recovered) = open(&dir);
        assert_eq!(recovered.report.checkpoint_seq, 3);
        assert_eq!(recovered.segments, Some(image));
        assert_eq!(tail_keys(&recovered), [4]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_rotation_never_renames_over_a_rotated_log() {
        let dir = fresh_dir("no-reuse");
        let (wal, _) = open(&dir);
        for k in 1..=2 {
            wal.append(&insert(k)).unwrap();
        }
        // A checkpoint that rotates and never writes (its process died).
        assert_eq!(wal.checkpoint().rotate().unwrap(), 2);
        let rotated = fs::read(rotated_log_path(&dir, 2)).unwrap();
        // Nothing appended since: the next rotation leaves the log alone.
        let mut checkpoint = wal.checkpoint();
        assert_eq!(checkpoint.rotate().unwrap(), 2);
        assert_eq!(fs::read(rotated_log_path(&dir, 2)).unwrap(), rotated);
        drop(checkpoint);
        wal.append(&insert(3)).unwrap();
        drop(wal);

        let (wal, recovered) = open(&dir);
        assert_eq!(tail_keys(&recovered), [1, 2, 3]);
        let mut checkpoint = wal.checkpoint();
        assert_eq!(checkpoint.rotate().unwrap(), 3);
        checkpoint.write(&[vec![(1, 1), (2, 2), (3, 3)]]).unwrap();
        let logs = list_rotated_logs(&dir).unwrap();
        assert!(logs.is_empty(), "the checkpoint covers {logs:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_cut_in_a_rotated_log_empties_every_later_log() {
        let dir = fresh_dir("cut-chain");
        let (wal, _) = open(&dir);
        for k in 1..=5 {
            wal.append(&insert(k)).unwrap();
            if k % 2 == 0 {
                wal.checkpoint().rotate().unwrap();
            }
        }
        drop(wal);
        // Records 1–2 in wal-2.log, 3–4 in wal-4.log, 5 in wal.log; tear
        // record 2.
        let first = rotated_log_path(&dir, 2);
        let mut bytes = fs::read(&first).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&first, &bytes).unwrap();

        let (wal, recovered) = open(&dir);
        assert!(recovered.report.truncated_torn_tail);
        assert_eq!(tail_keys(&recovered), [1]);
        assert_eq!(fs::read(&first).unwrap().len(), bytes.len() / 2);
        assert!(!rotated_log_path(&dir, 4).exists());
        assert_eq!(fs::metadata(log_path(&dir)).unwrap().len(), 0);

        // Sequences 2–4 again: a rotation at 3 would not sort after the
        // wal-4.log this open saw, so it is skipped; one at 5 is not.
        for k in 2..=3 {
            wal.append(&insert(k)).unwrap();
        }
        assert_eq!(wal.checkpoint().rotate().unwrap(), 3);
        assert_eq!(list_rotated_logs(&dir).unwrap().len(), 1);
        for k in 4..=5 {
            wal.append(&insert(k)).unwrap();
        }
        assert_eq!(wal.checkpoint().rotate().unwrap(), 5);
        wal.append(&insert(6)).unwrap();
        drop(wal);
        let (_, recovered) = open(&dir);
        assert!(!recovered.report.truncated_torn_tail, "the repair holds");
        assert_eq!(tail_keys(&recovered), [1, 2, 3, 4, 5, 6]);
        let _ = fs::remove_dir_all(&dir);
    }
}
