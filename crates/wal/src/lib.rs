//! # wsm-wal — durable batches: WAL + checkpoint/resume for the concurrent map
//!
//! ROADMAP item 3: a production map that loses everything on restart isn't
//! one.  This crate bolts durability onto the existing architecture at its
//! natural seam — the *combiner commit point*.  Every
//! [`ConcurrentMap`](wsm_core::ConcurrentMap) batch is applied by exactly one
//! combiner under the inner-map lock, so a commit hook at that point sees a
//! totally ordered stream of batches per map.  Each shard of a
//! [`ShardedMap`](wsm_shard::ShardedMap) has its own combiner, hence its own
//! serialization point, so [`DurableShardedMap`] gives every shard its own
//! log — per-key durability needs no cross-shard ordering.  One shard is the
//! single-combiner, single-log case.
//!
//! Three pieces:
//!
//! * **The log** ([`log`]): length-prefixed, CRC-32-checksummed records, one
//!   per committed batch, appended *before* the batch mutates the map or any
//!   caller sees a result.  `WSM_WAL_SYNC=always|batch|off` picks the fsync
//!   policy ([`SyncPolicy`]).
//! * **Checkpoints**: every N batches ([`DurableOptions::checkpoint_every`])
//!   the map's segments — arena-backed `RecencyMap`s, snapshottable as plain
//!   item lists in recency order since the PR 5 slab refactor — are written as an
//!   atomic tmp+fsync+rename checkpoint file, and the logs it covers are
//!   deleted.  The shard is held only to rotate its log and take the
//!   snapshot; the write runs after its lock is released.
//! * **Replay-on-open** ([`DurableShardedMap::open`]): per shard, load the
//!   newest valid checkpoint, replay the log records past it — rotated logs
//!   a checkpoint has not deleted yet, then the active log — through the ordinary
//!   [`BatchedMap`](wsm_core::BatchedMap) batch path, detect and cleanly
//!   truncate a torn final record, then assert the structure's own
//!   `check_invariants` — recovery is "replay until the invariants hold",
//!   the self-stabilizing framing of the related-work SSSP kernels.
//!
//! What is durable: the key→value map and, between checkpoints, the
//! mutation order.  Search-only batches append nothing — searches change
//! only recency order, which every checkpoint re-captures exactly; putting
//! each read on the write path would make the log the whole workload.
//! The `web_cache` example's `WSM_DURABLE_DIR` demo measures the per-insert
//! overhead of the log under `WSM_WAL_SYNC` against a WAL-free baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod durable;
pub mod log;

pub use codec::Codec;
pub use durable::{DurableOptions, DurableShardedMap, DurableState};
pub use log::{Checkpoint, RecoveryReport, SyncPolicy, Wal, WalStats};
