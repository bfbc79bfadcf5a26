//! # wsm-svc — async service front-end for the working-set maps
//!
//! Turns the flat-combining [`ConcurrentMap`] / [`ShardedMap`] into an
//! *await-able* key-value service: [`WsMapService::batch_search`],
//! [`WsMapService::batch_insert`] and [`WsMapService::batch_remove`] return
//! futures, so thousands of in-flight client requests can share a handful of
//! executor workers instead of pinning one parked OS thread each.
//!
//! ```text
//!   client tasks ──┐ submit (non-blocking deposit, each op straight
//!                  │  into its shard's ParallelBuffer)
//!   client tasks ──┼──────────────► per-op ResultCell
//!   client tasks ──┘                      ▲
//!          poll: pump() — one combiner    │ fill() stamps the cell;
//!          election attempt; the polling  │ the next poll harvests it
//!          task may BECOME the combiner ──┘
//! ```
//!
//! This is the batching-service pattern (cf. the findex `BufferedMemory`
//! layer): the [`wsm_core::ParallelBuffer`] already plays the accumulator
//! role, so the async layer only needs (a) a non-blocking deposit
//! ([`ServiceBackend::submit`]), (b) a non-blocking combiner election
//! attempt ([`BackendDriver::pump`]), and (c) a completion signal — the
//! result cell's stamp ([`wsm_core::ResultCell::is_filled`]).
//!
//! ## The poll protocol
//!
//! [`BatchCall::poll`] is where flat combining meets async:
//!
//! 1. **Harvest**: take results in submission order, up to the first
//!    unfilled cell, into the one vector the future returns; all taken →
//!    `Ready`.
//! 2. **Pump**: one non-blocking combiner-election attempt.  The polling
//!    task may win and execute the batch inline — the async task *is* a
//!    flat-combining participant, not just a waiter.
//! 3. **Harvest** again; all filled → `Ready`.
//! 4. Still unfilled: **self-wake** and return `Pending`.  No fill wakes a
//!    task, so the future re-polls cooperatively until its results are in;
//!    the `server` example measures the latency that leaves.
//!
//! The service reads no environment knob: the caller sizes its
//! [`Executor`] with [`Executor::new`].
//!
//! A blocking `ConcurrentMap`/`ShardedMap` call issued from inside a
//! service task waits as it does on any thread: it parks on the map's
//! doorbell, holding its worker for the wait.  It cannot deadlock, even on
//! a single worker, because an activation is never held across a
//! suspension point: the combiner it waits on is a running thread, which
//! rings the doorbell when it releases.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;

pub use exec::{block_on, Executor, JoinHandle, Sleep, TimerHandle};

use std::future::Future;
use std::marker::PhantomData;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};

use wsm_core::{caller_hint, BatchedMap, ConcurrentMap, Handoff, OpResult, Operation, ResultCell};
use wsm_shard::ShardedMap;

/// The key/value-independent half of a service backend: what a pending
/// [`BatchCall`] needs to drive completion after its ops are deposited.
pub trait BackendDriver: Send + Sync {
    /// One non-blocking combiner-election attempt (the caller may become a
    /// combiner and execute batches inline; it never waits for one).
    fn pump(&self);
    /// True while deposited operations sit unclaimed in a publication
    /// buffer.  No [`BatchCall`] reads it; it stays because the benchmark's
    /// backend wrappers still forward it, and goes with the next change to
    /// the benchmark.
    fn buffered(&self) -> bool;
    /// Always [`Handoff::Doorbell`], the one hand-off.  Kept only because
    /// the benchmark's backend wrappers still implement it; it goes with the
    /// next change to the benchmark.
    fn handoff(&self) -> Handoff {
        Handoff::Doorbell
    }
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

impl<K, V, M> BackendDriver for ShardedMap<K, V, M>
where
    K: Ord + Clone + Send + Sync + std::hash::Hash,
    V: Clone + Send + Sync,
    M: BatchedMap<K, V> + Send,
{
    fn pump(&self) {
        ShardedMap::pump(self);
    }

    fn buffered(&self) -> bool {
        ShardedMap::buffered(self)
    }
}

impl<K, V, M> ServiceBackend<K, V> for ShardedMap<K, V, M>
where
    K: Ord + Clone + Send + Sync + std::hash::Hash,
    V: Clone + Send + Sync,
    M: BatchedMap<K, V> + Send,
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
        BatchCall {
            backend: Arc::clone(&self.backend),
            results: Vec::with_capacity(cells.len()),
            cells,
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
/// Polling again after `Ready` never resolves: the results were moved out.
pub struct BatchCall<V, B> {
    backend: Arc<B>,
    cells: Vec<Arc<ResultCell<OpResult<V>>>>,
    /// The results of `cells[..results.len()]`, taken in order.
    results: Vec<OpResult<V>>,
}

// No self-references: the future is movable between polls whatever `V` is.
impl<V, B> Unpin for BatchCall<V, B> {}

impl<V, B> BatchCall<V, B> {
    /// Takes results in submission order up to the first unfilled cell;
    /// true when all are in.
    fn harvest(&mut self) -> bool {
        while let Some(result) = self
            .cells
            .get(self.results.len())
            .and_then(|cell| cell.try_take())
        {
            self.results.push(result);
        }
        self.results.len() == self.cells.len()
    }
}

impl<V, B: BackendDriver> Future for BatchCall<V, B> {
    type Output = Vec<OpResult<V>>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        if this.harvest() {
            return Poll::Ready(std::mem::take(&mut this.results));
        }
        // One election attempt — this task may become the combiner.
        this.backend.pump();
        if this.harvest() {
            return Poll::Ready(std::mem::take(&mut this.results));
        }
        // No fill wakes a task: re-poll cooperatively.
        cx.waker().wake_by_ref();
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsm_core::M1;

    fn service() -> WsMapService<u64, u64, ConcurrentMap<u64, u64, M1<u64, u64>>> {
        WsMapService::new(ConcurrentMap::new(M1::new(4), 8))
    }

    #[test]
    fn batch_roundtrip() {
        let svc = service();
        let prev = block_on(svc.batch_insert((0..128u64).map(|k| (k, k * 3)).collect()));
        assert!(prev.iter().all(Option::is_none));
        let got = block_on(svc.batch_search((0..128u64).collect()));
        for (k, v) in (0..128u64).zip(got) {
            assert_eq!(v, Some(k * 3), "k={k}");
        }
        let removed = block_on(svc.batch_remove((0..64u64).collect()));
        assert!(removed.iter().all(Option::is_some));
        let left = block_on(svc.batch_search((0..128u64).collect()));
        assert_eq!(left.iter().filter(|v| v.is_some()).count(), 64);
    }

    #[test]
    fn empty_batch_resolves_immediately() {
        let svc = service();
        assert!(block_on(svc.batch_search(Vec::new())).is_empty());
    }

    /// One call deposits thousands of ops into one buffer shard; the second
    /// half overwrites the first, so any reordering in the deposit, the flush
    /// or the shard split shows in the previous values.
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
    fn call_batch_preserves_submission_order_in_a_long_batch() {
        overwrites_in_one_batch_see_submission_order(ConcurrentMap::new(M1::<u64, u64>::new(4), 8));
        // ~1536 ops per shard.
        overwrites_in_one_batch_see_submission_order(ShardedMap::with_shards(4, |_| {
            M1::<u64, u64>::new(4)
        }));
    }

    #[test]
    fn concurrent_client_tasks_on_executor() {
        let exec = Executor::new(2);
        let svc = WsMapService::new(ShardedMap::with_shards(4, |_| M1::<u64, u64>::new(4)));
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
            assert!(block_on(handle));
        }
    }
}
