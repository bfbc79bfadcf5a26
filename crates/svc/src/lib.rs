//! # wsm-svc — async service front-end for the working-set maps
//!
//! Turns the flat-combining [`ConcurrentMap`] / [`ShardedMap`] into an
//! *await-able* key-value service: [`WsMapService::batch_search`],
//! [`WsMapService::batch_insert`] and [`WsMapService::batch_remove`] return
//! futures, so thousands of in-flight client requests can share a handful of
//! executor workers instead of pinning one parked OS thread each.
//!
//! ```text
//!   client tasks ──┐ submit (non-blocking deposit into ParallelBuffer)
//!   client tasks ──┼──────────────► per-op ResultCell(+ waker)
//!   client tasks ──┘                      ▲
//!          poll: pump() — one combiner    │ fill() wakes the task
//!          election attempt; the polling  │ whose op completed
//!          task may BECOME the combiner ──┘
//! ```
//!
//! This is the batching-service pattern (cf. the findex `BufferedMemory`
//! layer): the [`wsm_core::ParallelBuffer`] already plays the accumulator
//! role, so the async layer only needs (a) a non-blocking deposit
//! ([`ServiceBackend::submit`]), (b) a non-blocking combiner election
//! attempt ([`BackendDriver::pump`]), and (c) a completion signal — the
//! result cell's waker hand-off ([`wsm_core::ResultCell::set_waker`]).
//!
//! ## The poll protocol
//!
//! [`BatchCall::poll`] is where flat combining meets async:
//!
//! 1. **Harvest** every cell that filled since the last poll; all filled →
//!    `Ready`.
//! 2. In `WSM_HANDOFF=waker` mode, **register** the task's waker on each
//!    unfilled cell, then **re-probe** (mandatory: a fill racing the
//!    registration has already taken — or never saw — the waker; only the
//!    re-probe observes its stamp).
//! 3. **Pump**: one non-blocking combiner-election attempt.  The polling
//!    task may win and execute the batch inline — the async task *is* a
//!    flat-combining participant, not just a waiter.
//! 4. Still unfilled: in waker mode, return `Pending` *without* a self-wake
//!    if the backend's buffer is empty (the ops sit in an in-flight batch
//!    whose `fill` will wake us — parking the task is free); self-wake if
//!    ops are still buffered (another election attempt is needed and nobody
//!    is obliged to make it).  In `doorbell`/`cell` modes there is no wake
//!    signal for tasks, so the future always self-wakes — cooperative
//!    busy-polling whose cost experiment E21 measures against waker mode.
//!
//! ## Knobs
//!
//! * `WSM_SVC_WORKERS` — executor worker threads ([`Executor::from_env`],
//!   default 2).
//! * `WSM_HANDOFF=waker` — selects the waker hand-off on the *backend map*
//!   (see [`Handoff`]); the service works in all three modes, waker mode is
//!   the one that parks idle tasks for free.
//!
//! Blocking `ConcurrentMap`/`ShardedMap` calls issued from inside a service
//! task degrade safely rather than deadlocking: their waits never park (see
//! `wsm_core::context`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;

pub use exec::{
    block_on, oneshot, Canceled, Executor, JoinHandle, Receiver, Sender, Sleep, TimerHandle,
};

use std::future::Future;
use std::marker::PhantomData;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};

use wsm_core::{caller_hint, BatchedMap, ConcurrentMap, Handoff, OpResult, Operation, ResultCell};
use wsm_shard::{Partitioner, ShardedMap};

/// The key/value-independent half of a service backend: what a pending
/// [`BatchCall`] needs to drive completion after its ops are deposited.
pub trait BackendDriver: Send + Sync {
    /// One non-blocking combiner-election attempt (the caller may become a
    /// combiner and execute batches inline; it never waits for one).
    fn pump(&self);
    /// True while deposited operations sit unclaimed in a publication
    /// buffer.  A future whose cells are empty while this is `false` knows
    /// its ops are in an in-flight batch and a `fill` is coming.
    fn buffered(&self) -> bool;
    /// The backend's waiter hand-off mode (decides whether futures park on
    /// cell wakers or cooperatively self-wake — see the crate docs).
    fn handoff(&self) -> Handoff;
}

/// A map the service can submit operation batches to without blocking.
pub trait ServiceBackend<K, V>: BackendDriver {
    /// Deposits `ops` and returns their result cells in operation order.
    /// Must not block and must not run a combiner.
    fn submit(&self, ops: Vec<Operation<K, V>>) -> Vec<Arc<ResultCell<OpResult<V>>>>;
}

impl<K, V, M> BackendDriver for ConcurrentMap<K, V, M>
where
    K: Ord + Clone + Send,
    V: Clone + Send,
    M: BatchedMap<K, V> + Send,
{
    fn pump(&self) {
        ConcurrentMap::pump(self);
    }

    fn buffered(&self) -> bool {
        ConcurrentMap::buffered(self)
    }

    fn handoff(&self) -> Handoff {
        ConcurrentMap::handoff(self)
    }
}

impl<K, V, M> ServiceBackend<K, V> for ConcurrentMap<K, V, M>
where
    K: Ord + Clone + Send,
    V: Clone + Send,
    M: BatchedMap<K, V> + Send,
{
    fn submit(&self, ops: Vec<Operation<K, V>>) -> Vec<Arc<ResultCell<OpResult<V>>>> {
        self.submit_batch(caller_hint(), ops)
    }
}

impl<K, V, M, P> BackendDriver for ShardedMap<K, V, M, P>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
    M: BatchedMap<K, V> + Send,
    P: Partitioner<K> + Send + Sync,
{
    fn pump(&self) {
        ShardedMap::pump(self);
    }

    fn buffered(&self) -> bool {
        ShardedMap::buffered(self)
    }

    fn handoff(&self) -> Handoff {
        ShardedMap::handoff(self)
    }
}

impl<K, V, M, P> ServiceBackend<K, V> for ShardedMap<K, V, M, P>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
    M: BatchedMap<K, V> + Send,
    P: Partitioner<K> + Send + Sync,
{
    fn submit(&self, ops: Vec<Operation<K, V>>) -> Vec<Arc<ResultCell<OpResult<V>>>> {
        self.submit_batch(ops)
    }
}

/// The async service front-end over a [`ServiceBackend`] map.  Cheap to
/// clone (shares the backend); see the [crate docs](crate) for the
/// architecture.
pub struct WsMapService<K, V, B> {
    backend: Arc<B>,
    _kv: PhantomData<fn(K) -> V>,
}

impl<K, V, B> Clone for WsMapService<K, V, B> {
    fn clone(&self) -> Self {
        WsMapService {
            backend: Arc::clone(&self.backend),
            _kv: PhantomData,
        }
    }
}

impl<K, V, B> WsMapService<K, V, B>
where
    B: ServiceBackend<K, V>,
{
    /// Wraps a backend map in the service front-end.
    pub fn new(backend: B) -> Self {
        Self::from_arc(Arc::new(backend))
    }

    /// Wraps an already-shared backend (e.g. one the synchronous side of the
    /// program keeps using directly).
    pub fn from_arc(backend: Arc<B>) -> Self {
        WsMapService {
            backend,
            _kv: PhantomData,
        }
    }

    /// The shared backend map.
    pub fn backend(&self) -> &Arc<B> {
        &self.backend
    }

    /// Submits a batch of raw operations, returning a future that resolves
    /// to their results in operation order.  The deposit happens *now*
    /// (before the first poll) and never blocks; the returned [`BatchCall`]
    /// drives completion.
    pub fn call_batch(&self, ops: Vec<Operation<K, V>>) -> BatchCall<V, B> {
        let cells = self.backend.submit(ops);
        let remaining = cells.len();
        BatchCall {
            backend: Arc::clone(&self.backend),
            results: (0..cells.len()).map(|_| None).collect(),
            cells,
            remaining,
        }
    }

    /// Batch search: one result per key, in input order.
    pub async fn batch_search(&self, keys: Vec<K>) -> Vec<Option<V>> {
        let call = self.call_batch(keys.into_iter().map(Operation::Search).collect());
        call.await.into_iter().map(OpResult::into_value).collect()
    }

    /// Batch insert: the previous value per pair, in input order.
    pub async fn batch_insert(&self, pairs: Vec<(K, V)>) -> Vec<Option<V>> {
        let call = self.call_batch(
            pairs
                .into_iter()
                .map(|(k, v)| Operation::Insert(k, v))
                .collect(),
        );
        call.await.into_iter().map(OpResult::into_value).collect()
    }

    /// Batch remove: the removed value per key, in input order.
    pub async fn batch_remove(&self, keys: Vec<K>) -> Vec<Option<V>> {
        let call = self.call_batch(keys.into_iter().map(Operation::Delete).collect());
        call.await.into_iter().map(OpResult::into_value).collect()
    }
}

/// Future of one submitted batch: resolves to the per-op results in
/// submission order.  See the crate docs for the poll protocol.
///
/// # Panics
///
/// Polling again after `Ready` panics (the results were moved out).
pub struct BatchCall<V, B> {
    backend: Arc<B>,
    cells: Vec<Arc<ResultCell<OpResult<V>>>>,
    results: Vec<Option<OpResult<V>>>,
    remaining: usize,
}

// No self-references: the future is movable between polls whatever `V` is.
impl<V, B> Unpin for BatchCall<V, B> {}

impl<V, B> BatchCall<V, B> {
    /// Moves every filled cell's payload into `results`; true when all are
    /// in.
    fn harvest(&mut self) -> bool {
        if self.remaining > 0 {
            for (slot, cell) in self.results.iter_mut().zip(&self.cells) {
                if slot.is_none() {
                    if let Some(result) = cell.try_take() {
                        *slot = Some(result);
                        self.remaining -= 1;
                    }
                }
            }
        }
        self.remaining == 0
    }

    fn finish(&mut self) -> Vec<OpResult<V>> {
        self.results
            .drain(..)
            .map(|slot| slot.expect("BatchCall polled after completion"))
            .collect()
    }
}

impl<V, B: BackendDriver> Future for BatchCall<V, B> {
    type Output = Vec<OpResult<V>>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        if this.harvest() {
            return Poll::Ready(this.finish());
        }
        let waker_mode = this.backend.handoff() == Handoff::Waker;
        if waker_mode {
            for (slot, cell) in this.results.iter().zip(&this.cells) {
                if slot.is_none() {
                    cell.set_waker(cx.waker());
                }
            }
            // Mandatory re-probe: a fill that raced the registrations above
            // has already taken (or never saw) the waker.
            if this.harvest() {
                return Poll::Ready(this.finish());
            }
        }
        // One election attempt — this task may become the combiner.
        this.backend.pump();
        if this.harvest() {
            return Poll::Ready(this.finish());
        }
        // Waker mode parks for free unless ops are still buffered (then
        // another election attempt is needed and nobody else is obliged to
        // make it).  The other modes have no wake signal for tasks: always
        // self-wake and re-poll cooperatively.
        if !waker_mode || this.backend.buffered() {
            cx.waker().wake_by_ref();
        }
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsm_core::M1;

    fn service(handoff: Handoff) -> WsMapService<u64, u64, ConcurrentMap<u64, u64, M1<u64, u64>>> {
        WsMapService::new(ConcurrentMap::new(M1::new(4), 8).with_handoff(handoff))
    }

    #[test]
    fn batch_roundtrip_in_every_handoff_mode() {
        for handoff in [Handoff::Doorbell, Handoff::Cell, Handoff::Waker] {
            let svc = service(handoff);
            let prev = block_on(svc.batch_insert((0..128u64).map(|k| (k, k * 3)).collect()));
            assert!(prev.iter().all(Option::is_none), "{handoff:?}");
            let got = block_on(svc.batch_search((0..128u64).collect()));
            for (k, v) in (0..128u64).zip(got) {
                assert_eq!(v, Some(k * 3), "{handoff:?} k={k}");
            }
            let removed = block_on(svc.batch_remove((0..64u64).collect()));
            assert!(removed.iter().all(Option::is_some), "{handoff:?}");
            let left = block_on(svc.batch_search((0..128u64).collect()));
            assert_eq!(left.iter().filter(|v| v.is_some()).count(), 64);
        }
    }

    #[test]
    fn empty_batch_resolves_immediately() {
        let svc = service(Handoff::Waker);
        assert!(block_on(svc.batch_search(Vec::new())).is_empty());
    }

    /// One call deposits more ops than a publication ring holds (1024
    /// cells, the rest spills to the shard's overflow list); the second half
    /// overwrites the first, so any reordering across the ring/overflow
    /// boundary shows in the previous values.
    fn overwrites_in_one_batch_see_submission_order<B: ServiceBackend<u64, u64>>(backend: B) {
        let svc = WsMapService::new(backend);
        let half = 3 * 1024u64;
        let ops: Vec<Operation<u64, u64>> = (0..2 * half)
            .map(|i| Operation::Insert(i % half, i))
            .collect();
        let prev = block_on(svc.call_batch(ops));
        for (i, p) in (0..2 * half).zip(prev) {
            assert_eq!(p.into_value(), i.checked_sub(half), "op {i}");
        }
        let got = block_on(svc.batch_search((0..half).collect()));
        assert!((0..half).zip(got).all(|(k, v)| v == Some(k + half)));
    }

    #[test]
    fn call_batch_preserves_submission_order_across_the_ring_overflow_boundary() {
        overwrites_in_one_batch_see_submission_order(
            ConcurrentMap::new(M1::<u64, u64>::new(4), 8).with_handoff(Handoff::Waker),
        );
        // ~1536 ops per shard: every shard's ring overflows too.
        overwrites_in_one_batch_see_submission_order(
            ShardedMap::with_shards(4, |_| M1::<u64, u64>::new(4)).with_handoff(Handoff::Waker),
        );
    }

    #[test]
    fn concurrent_client_tasks_on_executor() {
        for handoff in [Handoff::Doorbell, Handoff::Cell, Handoff::Waker] {
            let exec = Executor::new(2);
            let svc = WsMapService::new(
                ShardedMap::with_shards(4, |_| M1::<u64, u64>::new(4)).with_handoff(handoff),
            );
            let handles: Vec<_> = (0..8u64)
                .map(|t| {
                    let svc = svc.clone();
                    exec.spawn(async move {
                        let base = t * 1000;
                        let keys: Vec<u64> = (base..base + 100).collect();
                        let prev = svc
                            .batch_insert(keys.iter().map(|&k| (k, k + 1)).collect())
                            .await;
                        assert!(prev.iter().all(Option::is_none));
                        let got = svc.batch_search(keys.clone()).await;
                        keys.iter().zip(got).all(|(k, v)| v == Some(k + 1))
                    })
                })
                .collect();
            for handle in handles {
                assert!(block_on(handle), "{handoff:?}");
            }
        }
    }
}
