//! # wsm-core — the parallel working-set maps M1 and M2
//!
//! This crate is the primary contribution of the reproduced paper:
//!
//! * [`M1`] — the *simple* batched parallel working-set map (Section 6).
//!   Operations arrive through a parallel buffer, are cut into bounded-size
//!   batches, entropy-sorted so duplicate accesses combine into
//!   group-operations, and then passed through the segment cascade
//!   `S[0] → S[1] → …`.  Theorems 12/13: effective work `O(W_L + e_L log p)`
//!   and effective span `O(N/p + d((log p)² + log n))`.
//! * [`M2`] — the *pipelined* parallel working-set map (Section 7).  The first
//!   `m = ⌈log log 2p²⌉ + 1` segments form the first slab (processed like M1);
//!   the remaining segments form the final slab, a pipeline of segments
//!   separated by buffers and guarded by neighbour-locks and front-locks, fed
//!   through a *filter* that guarantees all in-flight final-slab operations
//!   are on distinct items.  Theorems 22/25: effective work `O(W_L + e_L log
//!   p)` and effective span `O(W_L/p + d(log p)² + s_L)` under a weak-priority
//!   scheduler.
//! * `cascade` (crate-private, `src/cascade.rs`) — the segment cascade both
//!   maps own: sort + combine, the per-segment pass of Section 6.1 step 3
//!   (= Section 7.1 step 3 for M2's first slab), boundary balancing and every
//!   metered segment operation, written once.
//! * `feed` (crate-private, `src/feed.rs`) — the feed buffer both maps take
//!   their cut batches from (Section 6.1): one FIFO queue in which a bunch
//!   is a run of `p²` consecutive entries that still carries the paper's
//!   bunch charge.  [`BatchedMap::run_batch`] (or `run_ops`) is the one way
//!   in, and it drains everything it was given.
//! * [`buffer::ParallelBuffer`] — the implicit-batching parallel buffer
//!   (Appendix A.1, Theorem 26).  Its combiner is elected by an
//!   [`activation::Activation`] (Definition 36) built on a
//!   [`trylock::NonBlockingLock`] (Definition 35): the paper's coordination
//!   primitives of Appendix A.4, which it builds from non-blocking
//!   test-and-set because the QRMW machine has no constant-time blocking
//!   lock.
//! * [`concurrent::ConcurrentMap`] — a thread-safe front-end that lets an
//!   ordinary multithreaded program call `search`/`insert`/`delete` and have
//!   the calls implicitly batched into M1 or M2 (the role the runtime system
//!   plays in the paper's model, realised as flat combining per Section 8's
//!   practical-scheduler discussion).
//!
//! M1 and M2 add every charge (effective work/span in the QRMW model, paired
//! with its Appendix A.2 bound) to one [`wsm_model::Charge`] ledger per map;
//! the experiment harness in `wsm-bench` compares those against the
//! working-set bound `W_L`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod buffer;
mod cascade;
pub mod concurrent;
pub mod context;
pub mod doorbell;
mod feed;
pub mod handoff;
pub mod m1;
pub mod m2;
pub mod ops;
pub mod trylock;

pub use buffer::ParallelBuffer;
pub use concurrent::{CommitHook, ConcurrentMap, Handoff};
pub use context::caller_hint;
pub use handoff::ResultCell;
pub use m1::M1;
pub use m2::M2;
pub use ops::{BatchedMap, GroupOp, OpId, OpResult, Operation, TaggedOp};
