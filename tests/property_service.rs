//! Property suite for the async service front-end (`wsm_svc::WsMapService`).
//!
//! Three layers of evidence, over both working-set maps (M1, M2), shard
//! counts S ∈ {1, 4}, and all three waiter hand-off modes
//! ([`wsm_core::Handoff`]):
//!
//! * **Sequential differential** — one `block_on` client awaiting batches in
//!   order must match a `BTreeMap` oracle result-for-result: the async plumbing
//!   (deposit → pump → waker/self-wake → harvest) adds no reorderings when
//!   there is no concurrency to blame.
//! * **Disjoint-range differential** — concurrent client tasks on an
//!   executor, each owning a private key range.  Each client's completion
//!   order *is* its program order, so every client must match its own
//!   sequential oracle exactly, however its batches interleaved with others
//!   in the combiner.
//! * **Linearizability** — concurrent client tasks on an overlapping
//!   keyspace.  Each awaited batch is one invoke/return interval on the
//!   witness clock, and the Wing–Gong checker (shared with the blocking
//!   suite — `tests/common/linearize.rs`) must find a linearization of each
//!   shard's projected history.
//!
//! A fourth, deterministic sweep covers *blocking* `ShardedMap::run_batch`
//! calls issued from service tasks: on a single-worker executor, beside
//! sibling tasks that hold deposited-but-unawaited service calls, every call
//! must complete (wall-clock guard) and match its oracle.
//!
//! Batches through the service share their interval soundly for the same
//! reason as the blocking `run_batch` suite: per-key order within a batch is
//! preserved by the shard's group resolution, and distinct keys commute in
//! the oracle.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::Duration;
use wsm_core::{BatchedMap, Handoff, M1, M2};
use wsm_shard::ShardedMap;
use wsm_svc::{block_on, Executor, WsMapService};

#[path = "common/linearize.rs"]
mod linearize;

use linearize::{linearizable, project_onto, Done, Op};

/// All three waiter hand-off modes — every suite below runs under each.
const HANDOFFS: [Handoff; 3] = [Handoff::Doorbell, Handoff::Cell, Handoff::Waker];

/// Builds per-task op lists from generated `(kind, key)` pairs; insert
/// values are globally unique so the oracle can distinguish every write.
fn decode_history(raw: &[Vec<(u8, u8)>]) -> Vec<Vec<Op>> {
    raw.iter()
        .enumerate()
        .map(|(t, ops)| {
            ops.iter()
                .enumerate()
                .map(|(i, &(kind, key))| {
                    let key = u64::from(key);
                    match kind {
                        0 => Op::Search(key),
                        1 => Op::Insert(key, (t as u64) * 1000 + i as u64 + 1),
                        _ => Op::Delete(key),
                    }
                })
                .collect()
        })
        .collect()
}

fn to_operation(op: Op) -> wsm_core::Operation<u64, u64> {
    match op {
        Op::Search(k) => wsm_core::Operation::Search(k),
        Op::Insert(k, v) => wsm_core::Operation::Insert(k, v),
        Op::Delete(k) => wsm_core::Operation::Delete(k),
    }
}

fn to_operations(batch: &[Op]) -> Vec<wsm_core::Operation<u64, u64>> {
    batch.iter().map(|&op| to_operation(op)).collect()
}

/// What a sequential `BTreeMap` oracle says each op returns, in order.
fn oracle_results(ops: &[Op]) -> Vec<Option<u64>> {
    let mut model = BTreeMap::new();
    ops.iter()
        .map(|&op| match op {
            Op::Search(k) => model.get(&k).copied(),
            Op::Insert(k, v) => model.insert(k, v),
            Op::Delete(k) => model.remove(&k),
        })
        .collect()
}

type Backend<M> = ShardedMap<u64, u64, M, wsm_shard::HashPartitioner>;

fn service<M>(
    make: impl FnMut(usize) -> M,
    shards: usize,
    handoff: Handoff,
) -> (Arc<Backend<M>>, WsMapService<u64, u64, Backend<M>>)
where
    M: BatchedMap<u64, u64> + Send,
{
    let map = Arc::new(ShardedMap::with_shards(shards, make).with_handoff(handoff));
    (Arc::clone(&map), WsMapService::from_arc(map))
}

/// One client awaiting its batches in order, recording witness intervals.
/// The whole awaited batch shares one interval — the client invoked its ops
/// together and observed all results together.
async fn run_client<M>(
    svc: WsMapService<u64, u64, Backend<M>>,
    ops: Vec<Op>,
    chunk: usize,
    clock: Arc<AtomicU64>,
) -> Vec<Done>
where
    M: BatchedMap<u64, u64> + Send,
{
    let mut dones = Vec::with_capacity(ops.len());
    for batch in ops.chunks(chunk.max(1)) {
        let invoke = clock.fetch_add(1, Ordering::SeqCst);
        let call = svc.call_batch(to_operations(batch));
        let results = call.await;
        let ret = clock.fetch_add(1, Ordering::SeqCst);
        for (&op, result) in batch.iter().zip(results) {
            dones.push(Done {
                op,
                result: result.value().copied(),
                invoke,
                ret,
            });
        }
    }
    dones
}

/// Runs per-client histories as concurrent executor tasks; returns each
/// client's completed history (client order preserved).
fn run_async_history<M>(
    make: impl FnMut(usize) -> M,
    shards: usize,
    handoff: Handoff,
    per_client: &[Vec<Op>],
    chunk: usize,
) -> (Arc<Backend<M>>, Vec<Vec<Done>>)
where
    M: BatchedMap<u64, u64> + Send + 'static,
{
    let (map, svc) = service(make, shards, handoff);
    let exec = Executor::new(2);
    let clock = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = per_client
        .iter()
        .map(|ops| {
            let svc = svc.clone();
            let ops = ops.clone();
            let clock = Arc::clone(&clock);
            exec.spawn(run_client(svc, ops, chunk, clock))
        })
        .collect();
    let histories = handles.into_iter().map(block_on).collect();
    (map, histories)
}

/// Sequential differential for one map type across S ∈ {1, 4} and all
/// hand-off modes.
fn check_sequential<M>(mut make: impl FnMut(usize) -> M, ops: &[Op], chunk: usize)
where
    M: BatchedMap<u64, u64> + Send + 'static,
{
    let expected = oracle_results(ops);
    for shards in [1usize, 4] {
        for handoff in HANDOFFS {
            let (_, histories) =
                run_async_history(&mut make, shards, handoff, &[ops.to_vec()], chunk);
            let got: Vec<Option<u64>> = histories[0].iter().map(|d| d.result).collect();
            assert_eq!(
                got, expected,
                "sequential async differential diverged (S={shards}, {handoff:?})"
            );
        }
    }
}

/// Disjoint-range differential: each concurrent client must match its own
/// sequential oracle exactly.
fn check_disjoint<M>(mut make: impl FnMut(usize) -> M, per_client: &[Vec<Op>], chunk: usize)
where
    M: BatchedMap<u64, u64> + Send + 'static,
{
    for shards in [1usize, 4] {
        for handoff in HANDOFFS {
            let (_, histories) = run_async_history(&mut make, shards, handoff, per_client, chunk);
            for (client, (ops, history)) in per_client.iter().zip(&histories).enumerate() {
                let got: Vec<Option<u64>> = history.iter().map(|d| d.result).collect();
                assert_eq!(
                    got,
                    oracle_results(ops),
                    "disjoint-range client {client} diverged (S={shards}, {handoff:?})"
                );
            }
        }
    }
}

/// Linearizability of overlapping async histories, checked per shard.
fn check_linearizable<M>(mut make: impl FnMut(usize) -> M, per_client: &[Vec<Op>], chunk: usize)
where
    M: BatchedMap<u64, u64> + Send + 'static,
{
    for shards in [1usize, 4] {
        for handoff in HANDOFFS {
            let (map, histories) = run_async_history(&mut make, shards, handoff, per_client, chunk);
            for shard in 0..shards {
                let projected = project_onto(&histories, |k| map.shard_of(&k) == shard);
                assert!(
                    linearizable(&projected),
                    "shard {shard}/{shards} of async history not linearizable \
                     ({handoff:?}): {projected:#?}"
                );
            }
        }
    }
}

/// Offsets every key into a per-client private range (clients stay disjoint
/// however the generator overlapped them).
fn make_disjoint(per_client: &[Vec<Op>]) -> Vec<Vec<Op>> {
    per_client
        .iter()
        .enumerate()
        .map(|(t, ops)| {
            let base = 100 * t as u64;
            ops.iter()
                .map(|&op| match op {
                    Op::Search(k) => Op::Search(base + k),
                    Op::Insert(k, v) => Op::Insert(base + k, v),
                    Op::Delete(k) => Op::Delete(base + k),
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// One client, batches awaited in order: async results ≡ BTreeMap, over
    /// M1 and M2, S ∈ {1, 4}, all three hand-off modes.
    #[test]
    fn sequential_async_batches_match_oracle(
        raw in prop::collection::vec((0u8..3, 0u8..8), 1..24),
        chunk in 1usize..6,
    ) {
        let ops = decode_history(std::slice::from_ref(&raw)).remove(0);
        check_sequential(|_| M1::<u64, u64>::new(4), &ops, chunk);
        check_sequential(|_| M2::<u64, u64>::new(4), &ops, chunk);
    }

    /// Concurrent clients on disjoint ranges: each client's completion order
    /// must equal its program order against its own oracle.
    #[test]
    fn disjoint_concurrent_async_clients_match_oracle(
        raw in prop::collection::vec(
            prop::collection::vec((0u8..3, 0u8..6), 1..10),
            2..5,
        ),
        chunk in 1usize..5,
    ) {
        let per_client = make_disjoint(&decode_history(&raw));
        check_disjoint(|_| M1::<u64, u64>::new(4), &per_client, chunk);
        check_disjoint(|_| M2::<u64, u64>::new(4), &per_client, chunk);
    }

    /// Concurrent clients on an overlapping keyspace: every shard's
    /// projected async history must linearize (Wing–Gong, shared checker).
    #[test]
    fn overlapping_async_histories_linearize(
        raw in prop::collection::vec(
            prop::collection::vec((0u8..3, 0u8..4), 1..7),
            2..4,
        ),
        chunk in 1usize..4,
    ) {
        let per_client = decode_history(&raw);
        check_linearizable(|_| M1::<u64, u64>::new(4), &per_client, chunk);
        check_linearizable(|_| M2::<u64, u64>::new(4), &per_client, chunk);
    }
}

/// Deterministic smoke: the full service surface (`batch_insert` /
/// `batch_search` / `batch_remove`) against the oracle in waker mode.
#[test]
fn service_surface_matches_oracle_waker_mode() {
    let (_, svc) = service(|_| M1::<u64, u64>::new(4), 4, Handoff::Waker);
    let prev = block_on(svc.batch_insert((0..100u64).map(|k| (k, k * 2)).collect()));
    assert!(prev.iter().all(Option::is_none));
    let got = block_on(svc.batch_search((0..100u64).collect()));
    assert!(got
        .iter()
        .enumerate()
        .all(|(k, v)| *v == Some(k as u64 * 2)));
    let removed = block_on(svc.batch_remove((0..50u64).collect()));
    assert!(removed.iter().all(Option::is_some));
    let rest = block_on(svc.batch_search((0..100u64).collect()));
    assert_eq!(rest.iter().filter(|v| v.is_some()).count(), 50);
}

/// Resolves on its second poll, waking itself in between: the task goes to
/// the back of the run queue and the worker polls its other tasks.
struct YieldNow(bool);

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.0 {
            return Poll::Ready(());
        }
        self.0 = true;
        cx.waker().wake_by_ref();
        Poll::Pending
    }
}

fn values(results: Vec<wsm_core::OpResult<u64>>) -> impl Iterator<Item = Option<u64>> {
    results.into_iter().map(wsm_core::OpResult::into_value)
}

/// A service client that deposits each batch and then *leaves the future
/// un-awaited* across a yield, so its operations sit in the shard buffers
/// while the worker polls the sibling tasks.
async fn holding_client<M>(
    svc: WsMapService<u64, u64, Backend<M>>,
    ops: Vec<Op>,
    chunk: usize,
) -> Vec<Option<u64>>
where
    M: BatchedMap<u64, u64> + Send,
{
    let mut got = Vec::with_capacity(ops.len());
    for batch in ops.chunks(chunk) {
        let call = svc.call_batch(to_operations(batch));
        YieldNow(false).await;
        got.extend(values(call.await));
    }
    got
}

/// A task that makes *blocking* `run_batch` calls from inside its poll.
async fn blocking_client<M>(map: Arc<Backend<M>>, ops: Vec<Op>, chunk: usize) -> Vec<Option<u64>>
where
    M: BatchedMap<u64, u64> + Send,
{
    let mut got = Vec::with_capacity(ops.len());
    for batch in ops.chunks(chunk) {
        got.extend(values(map.run_batch(to_operations(batch))));
        YieldNow(false).await;
    }
    got
}

/// Runs `f` on a thread of its own and fails the test if it has not returned
/// within `limit` — a blocked executor worker must fail, not hang the suite.
fn within<T: Send + 'static>(
    limit: Duration,
    what: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(limit) {
        Ok(value) => {
            runner.join().expect("runner thread");
            value
        }
        Err(RecvTimeoutError::Timeout) => panic!("{what}: no completion within {limit:?}"),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(runner.join().expect_err("runner dropped its sender"))
        }
    }
}

/// One configuration of the sweep: on a single executor worker, two tasks
/// issue blocking `run_batch` calls while two siblings hold un-awaited
/// service calls over the same map, and an OS thread adds blocking calls of
/// its own so the worker also loses elections to a running thread.  Clients
/// own disjoint key ranges, so each must match its sequential oracle.
fn check_blocking_calls_from_service_tasks<M>(make: fn(usize) -> M, shards: usize, handoff: Handoff)
where
    M: BatchedMap<u64, u64> + Send + 'static,
{
    let raw: Vec<Vec<(u8, u8)>> = (0..5u32)
        .map(|t| {
            (0..60u32)
                .map(|i| (((i * 7 + t) % 3) as u8, ((i * 5 + t) % 16) as u8))
                .collect()
        })
        .collect();
    let per_client = make_disjoint(&decode_history(&raw));
    let what = format!("S={shards}, {handoff:?}");
    let histories = within(Duration::from_secs(60), &what, {
        let per_client = per_client.clone();
        move || {
            let (map, svc) = service(make, shards, handoff);
            let exec = Executor::new(1);
            let chunk = 6;
            std::thread::scope(|scope| {
                let (os_map, os_ops) = (Arc::clone(&map), per_client[4].clone());
                let os_thread = scope.spawn(move || {
                    os_ops
                        .chunks(chunk)
                        .flat_map(|batch| values(os_map.run_batch(to_operations(batch))))
                        .collect::<Vec<_>>()
                });
                // Holders and blockers alternate in the worker's run queue.
                let handles: Vec<_> = per_client[..4]
                    .iter()
                    .enumerate()
                    .map(|(client, ops)| match client % 2 {
                        0 => exec.spawn(holding_client(svc.clone(), ops.clone(), chunk)),
                        _ => exec.spawn(blocking_client(Arc::clone(&map), ops.clone(), chunk)),
                    })
                    .collect();
                let mut histories: Vec<_> = handles.into_iter().map(block_on).collect();
                histories.push(os_thread.join().expect("os caller"));
                histories
            })
        }
    });
    for (client, (ops, got)) in per_client.iter().zip(&histories).enumerate() {
        assert_eq!(
            got,
            &oracle_results(ops),
            "client {client} diverged ({what})"
        );
    }
}

/// Blocking `ShardedMap::run_batch` from tasks of a single-worker executor,
/// beside held service calls: S ∈ {1, 2, 4} × all hand-off modes × M1, M2.
#[test]
fn blocking_run_batch_from_single_worker_tasks_completes() {
    for shards in [1usize, 2, 4] {
        for handoff in HANDOFFS {
            check_blocking_calls_from_service_tasks(|_| M1::<u64, u64>::new(4), shards, handoff);
            check_blocking_calls_from_service_tasks(|_| M2::<u64, u64>::new(4), shards, handoff);
        }
    }
}
