//! The on-disk write-ahead log: record framing, the append path, checkpoint
//! files and the recovery scan.
//!
//! # File layout
//!
//! A WAL directory holds one append-only log plus at most one checkpoint:
//!
//! * `wal.log` — a sequence of *records*, each `[len: u32][crc: u32][payload]`
//!   with `crc = crc32(payload)`.  A record's payload is the batch image
//!   `(seq: u64, ops: Vec<Operation>)`: `seq` numbers appended records from 1
//!   and the ops are the batch's *mutations* in batch order (searches change
//!   only recency, which the next checkpoint re-captures exactly; logging
//!   them would put every read on the write path).
//! * `checkpoint-<seq>.ckpt` — a single framed record whose payload is
//!   `(seq, segments)` where `segments` is the
//!   [`snapshot_segments`](crate::DurableState::snapshot_segments) image: it
//!   covers every log record with sequence `<= seq`.  Written as
//!   `checkpoint-<seq>.tmp` + fsync + rename, so a crash mid-checkpoint
//!   leaves either the old state or the new file, never half of one.
//!
//! # Recovery contract
//!
//! [`Wal::open`] loads the newest checkpoint that decodes cleanly (a corrupt
//! one is skipped — the log behind it still replays), then scans the log:
//! records covered by the checkpoint are skipped (a crash may land between
//! the checkpoint rename and the log truncation), consecutive records beyond
//! it are returned for replay, and the first torn or corrupt record — short
//! header, short payload, checksum mismatch, undecodable bytes, or a
//! sequence gap — *truncates the file at that offset*; nothing at or past a
//! bad record is ever replayed.  Opening twice in a row is therefore
//! idempotent: the first open already normalized the files.

use crate::codec::{decode_exact, Codec};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use wsm_core::{Operation, TaggedOp};

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) lookup table,
/// built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
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
        table[i] = c;
        i += 1;
    }
    table
};

/// The CRC-32 checksum guarding every record payload.
pub fn crc32(bytes: &[u8]) -> u32 {
    !bytes.iter().fold(u32::MAX, |c, &b| {
        CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8)
    })
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

/// The log file inside a WAL directory.
pub fn log_path(dir: &Path) -> PathBuf {
    dir.join("wal.log")
}

/// The checkpoint file covering log records with sequence `<= seq`.
pub fn checkpoint_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("checkpoint-{seq}.ckpt"))
}

/// All `checkpoint-<seq>.ckpt` files in `dir`, unordered.
pub fn list_checkpoints(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some(seq) = name
            .strip_prefix("checkpoint-")
            .and_then(|rest| rest.strip_suffix(".ckpt"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            out.push((seq, path));
        }
    }
    Ok(out)
}

/// Frames a payload as `[len][crc][payload]`.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    (payload.len() as u32).encode(&mut out);
    crc32(payload).encode(&mut out);
    out.extend_from_slice(payload);
    out
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
    /// Records skipped because the checkpoint already covered them (a crash
    /// landed between the checkpoint rename and the log truncation).
    pub skipped_stale_records: u64,
    /// Whether a torn/corrupt tail (or sequence gap) was cut off the log.
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

/// Point-in-time counters for one WAL (cheap atomic reads).
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
    /// Batches appended since the last checkpoint.
    pub since_checkpoint: u64,
}

struct LogState {
    file: File,
    /// User-space staging for [`SyncPolicy::Off`]; empty otherwise.
    buf: Vec<u8>,
    next_seq: u64,
}

/// An open write-ahead log for one serialization point (one combiner).
///
/// `append` is called from the [`ConcurrentMap`](wsm_core::ConcurrentMap)
/// commit hook — under the map's inner lock — and `checkpoint` from
/// [`with_inner`](wsm_core::ConcurrentMap::with_inner), so the lock order is
/// always inner-then-WAL and the checkpoint's `seq` is exactly consistent
/// with applied state.
pub struct Wal<K, V> {
    dir: PathBuf,
    policy: SyncPolicy,
    state: Mutex<LogState>,
    batches_logged: AtomicU64,
    ops_logged: AtomicU64,
    bytes_appended: AtomicU64,
    syncs: AtomicU64,
    checkpoints: AtomicU64,
    since_checkpoint: AtomicU64,
    _shape: PhantomData<fn(K, V)>,
}

impl<K: Codec, V: Codec> Wal<K, V> {
    /// Opens (creating if needed) the WAL in `dir`, recovering whatever a
    /// previous process left: newest valid checkpoint, clean log tail, torn
    /// records truncated.  Returns the log ready for appending plus the
    /// recovered state for the caller to rebuild its map from.
    pub fn open(dir: &Path, policy: SyncPolicy) -> io::Result<(Self, Recovered<K, V>)> {
        fs::create_dir_all(dir)?;
        let mut report = RecoveryReport::default();

        // Newest checkpoint that decodes cleanly wins; corrupt ones are
        // skipped so the log (which is only truncated after a checkpoint is
        // durable) still replays under an older or absent image.
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

        let log = log_path(dir);
        let bytes = match fs::read(&log) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let scan = scan_log::<K, V>(&bytes);
        let mut truncate_at = if scan.torn {
            Some(scan.valid_len)
        } else {
            None
        };
        let mut tail = Vec::new();
        let mut last_seq = report.checkpoint_seq;
        for record in scan.records {
            if record.seq <= report.checkpoint_seq {
                report.skipped_stale_records += 1;
            } else if record.seq == last_seq + 1 {
                report.replayed_ops += record.ops.len() as u64;
                tail.push(record.ops);
                last_seq = record.seq;
            } else {
                // A sequence gap means the file is not the clean suffix of
                // any run this WAL wrote; trust nothing from here on.
                truncate_at = Some(record.start);
                break;
            }
        }
        report.replayed_batches = tail.len() as u64;

        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&log)?;
        if let Some(valid_len) = truncate_at {
            report.truncated_torn_tail = true;
            file.set_len(valid_len)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::End(0))?;

        let wal = Wal {
            dir: dir.to_path_buf(),
            policy,
            state: Mutex::new(LogState {
                file,
                buf: Vec::new(),
                next_seq: last_seq + 1,
            }),
            batches_logged: AtomicU64::new(0),
            ops_logged: AtomicU64::new(0),
            bytes_appended: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
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

    fn lock_state(&self) -> std::sync::MutexGuard<'_, LogState> {
        // A poisoned lock means an append panicked mid-write; the file may
        // hold a torn record, which is exactly what recovery handles — keep
        // going rather than poisoning every later append.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Appends one committed batch's mutations as a single record, honoring
    /// the sync policy.  Batches with no mutations append nothing (searches
    /// change only recency, which the next checkpoint captures).  Returns
    /// whether a record was written.
    pub fn append(&self, batch: &[TaggedOp<K, V>]) -> io::Result<bool> {
        let mutations: Vec<&Operation<K, V>> = batch
            .iter()
            .map(|t| &t.op)
            .filter(|op| !matches!(op, Operation::Search(_)))
            .collect();
        if mutations.is_empty() {
            return Ok(false);
        }
        let mut state = self.lock_state();
        let mut payload = Vec::new();
        state.next_seq.encode(&mut payload);
        (mutations.len() as u64).encode(&mut payload);
        for op in &mutations {
            op.encode(&mut payload);
        }
        let framed = frame(&payload);
        match self.policy {
            SyncPolicy::Always => {
                state.file.write_all(&framed)?;
                state.file.sync_data()?;
                // ord: Relaxed — monotonic stats counter, read only for
                // reporting; the state mutex orders the file writes.
                self.syncs.fetch_add(1, Ordering::Relaxed);
            }
            SyncPolicy::Batch => state.file.write_all(&framed)?,
            SyncPolicy::Off => {
                state.buf.extend_from_slice(&framed);
                if state.buf.len() >= OFF_FLUSH_BYTES {
                    let buf = std::mem::take(&mut state.buf);
                    state.file.write_all(&buf)?;
                }
            }
        }
        state.next_seq += 1;
        drop(state);
        // The four updates below are monotonic stats counters, read only for
        // reporting and the checkpoint-interval check; the state mutex (held
        // by every writer) orders the log itself.
        self.batches_logged.fetch_add(1, Ordering::Relaxed); // ord: Relaxed — stats
        self.ops_logged // ord: Relaxed — stats
            .fetch_add(mutations.len() as u64, Ordering::Relaxed);
        self.bytes_appended // ord: Relaxed — stats
            .fetch_add(framed.len() as u64, Ordering::Relaxed);
        self.since_checkpoint.fetch_add(1, Ordering::Relaxed); // ord: Relaxed — stats
        Ok(true)
    }

    /// Writes a checkpoint covering every record appended so far and
    /// truncates the log.  The caller must hold the map's inner lock (via
    /// [`with_inner`](wsm_core::ConcurrentMap::with_inner)) so `segments` is
    /// exactly the state the appended records produced.
    ///
    /// Crash-safe at every step: the image lands in a `.tmp` file that is
    /// fsynced before an atomic rename, older checkpoints are removed only
    /// after the new one is durable, and the log is truncated last — a crash
    /// anywhere leaves either the old (checkpoint, log) pair, the new
    /// checkpoint with a stale log (whose covered records recovery skips by
    /// sequence), or the fully new pair.
    pub fn checkpoint(&self, segments: &[Vec<(K, V)>]) -> io::Result<u64> {
        let mut state = self.lock_state();
        let seq = state.next_seq - 1;
        let mut payload = Vec::new();
        seq.encode(&mut payload);
        (segments.len() as u64).encode(&mut payload);
        for segment in segments {
            segment.encode(&mut payload);
        }
        let framed = frame(&payload);
        let tmp = self.dir.join(format!("checkpoint-{seq}.tmp"));
        let final_path = checkpoint_path(&self.dir, seq);
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&framed)?;
            f.sync_data()?;
        }
        fs::rename(&tmp, &final_path)?;
        // Make the rename itself durable (best-effort: not every filesystem
        // supports fsync on a directory handle).
        let _ = File::open(&self.dir).and_then(|d| d.sync_all());
        for (old_seq, path) in list_checkpoints(&self.dir)? {
            if old_seq != seq {
                let _ = fs::remove_file(path);
            }
        }
        state.buf.clear();
        state.file.set_len(0)?;
        state.file.seek(SeekFrom::Start(0))?;
        state.file.sync_all()?;
        drop(state);
        // ord: Relaxed — stats counters; the state mutex orders the files.
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.since_checkpoint.store(0, Ordering::Relaxed); // ord: Relaxed — stats
        Ok(seq)
    }

    /// Batches appended since the last checkpoint (drives the
    /// checkpoint-every-N policy).
    pub fn since_checkpoint(&self) -> u64 {
        // ord: Relaxed — the durable maps append (commit hook) and
        // checkpoint under the map's inner lock, so a read under that lock
        // is exact by the mutex's own ordering; a read outside it is a
        // pre-check that the periodic checkpoint repeats under the lock.
        self.since_checkpoint.load(Ordering::Relaxed)
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> WalStats {
        // ord: Relaxed — independent monotonic counters for reporting; a
        // torn snapshot across them is acceptable.
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        WalStats {
            batches_logged: load(&self.batches_logged),
            ops_logged: load(&self.ops_logged),
            bytes_appended: load(&self.bytes_appended),
            syncs: load(&self.syncs),
            checkpoints: load(&self.checkpoints),
            since_checkpoint: load(&self.since_checkpoint),
        }
    }

    /// Hands any user-space-buffered records ([`SyncPolicy::Off`]) to the
    /// operating system.  Called on drop; call explicitly for a graceful
    /// close whose durability you want to observe.
    pub fn flush(&self) -> io::Result<()> {
        let mut state = self.lock_state();
        if !state.buf.is_empty() {
            let buf = std::mem::take(&mut state.buf);
            state.file.write_all(&buf)?;
        }
        Ok(())
    }
}

impl<K, V> Drop for Wal<K, V> {
    fn drop(&mut self) {
        let state = self.state.get_mut().unwrap_or_else(|e| e.into_inner());
        if !state.buf.is_empty() {
            let buf = std::mem::take(&mut state.buf);
            let _ = state.file.write_all(&buf);
        }
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
    fn scan_accepts_clean_records_and_stops_at_garbage() {
        let mut bytes = Vec::new();
        for seq in 1u64..=3 {
            let mut payload = Vec::new();
            seq.encode(&mut payload);
            vec![Operation::<u64, u64>::Insert(seq, seq * 10)].encode(&mut payload);
            bytes.extend_from_slice(&frame(&payload));
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
        let mut payload = Vec::new();
        1u64.encode(&mut payload);
        vec![Operation::<u64, u64>::Delete(4)].encode(&mut payload);
        let mut bytes = frame(&payload);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        let scan = scan_log::<u64, u64>(&bytes);
        assert!(scan.torn);
        assert_eq!(scan.valid_len, 0);
        assert!(scan.records.is_empty());
    }
}
