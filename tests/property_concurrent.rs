//! Linearizability property suite for [`wsm_core::ConcurrentMap`], plus
//! interleaving stress for the lock-free MPSC publication shards.
//!
//! Random multi-threaded op histories (1–4 worker threads, a tiny overlapping
//! keyspace so operations genuinely race) are executed against the map while
//! every operation records an *invoke* and a *return* ticket from one global
//! atomic witness clock.  A Wing–Gong style checker (shared with the async
//! suite — see `tests/common/linearize.rs`) then searches for a
//! linearization: a total order of the completed operations that (a) respects
//! real time (if `a` returned before `b` was invoked, `a` comes first) and
//! (b) replays correctly against a sequential `BTreeMap` oracle.  The search
//! walks one-op-per-thread frontiers with memoization on (frontier, oracle
//! state), which keeps it polynomial for these history sizes.
//!
//! The sharded front-end (`wsm_shard::ShardedMap`) is checked *per shard*:
//! the partitioner is a pure function of the key, so every operation on a key
//! flows through exactly one shard, and the front-end's guarantee is that
//! each shard's slice of the history is linearizable.  Each random
//! multi-threaded history is projected onto every shard's key set (keeping
//! per-thread order and the recorded witness intervals) and each projection
//! is checked with the same Wing–Gong search — under both waiter hand-off
//! modes ([`wsm_core::Handoff`]), and through both the single-op and the
//! batched (`run_batch`) surface.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use wsm_core::{BatchedMap, ConcurrentMap, Handoff, M1, M2};
use wsm_shard::{Partitioner, ShardedMap};
use wsm_sync::MpscShard;

#[path = "common/linearize.rs"]
mod linearize;

use linearize::{linearizable, linearizable_from, project_onto, Done, Op};

/// Builds per-thread op lists from generated `(kind, key)` pairs; insert
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

/// Runs every thread's ops against the map, recording witness tickets.
fn execute<M>(map: ConcurrentMap<u64, u64, M>, per_thread: &[Vec<Op>]) -> Vec<Vec<Done>>
where
    M: BatchedMap<u64, u64> + Send,
{
    let map = &map;
    let clock = AtomicU64::new(0);
    let clock = &clock;
    std::thread::scope(|s| {
        let handles: Vec<_> = per_thread
            .iter()
            .enumerate()
            .map(|(t, ops)| {
                s.spawn(move || {
                    ops.iter()
                        .map(|&op| {
                            let invoke = clock.fetch_add(1, Ordering::SeqCst);
                            let result = match op {
                                Op::Search(k) => map.search(t, k),
                                Op::Insert(k, v) => map.insert(t, k, v),
                                Op::Delete(k) => map.delete(t, k),
                            };
                            let ret = clock.fetch_add(1, Ordering::SeqCst);
                            Done {
                                op,
                                result,
                                invoke,
                                ret,
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// Runs every thread's ops against a sharded map through its single-op API,
/// recording witness tickets.
fn execute_sharded<M, P>(map: &ShardedMap<u64, u64, M, P>, per_thread: &[Vec<Op>]) -> Vec<Vec<Done>>
where
    M: BatchedMap<u64, u64> + Send,
    P: Partitioner<u64>,
{
    let clock = AtomicU64::new(0);
    let clock = &clock;
    std::thread::scope(|s| {
        let handles: Vec<_> = per_thread
            .iter()
            .map(|ops| {
                s.spawn(move || {
                    ops.iter()
                        .map(|&op| {
                            let invoke = clock.fetch_add(1, Ordering::SeqCst);
                            let result = match op {
                                Op::Search(k) => map.get(k),
                                Op::Insert(k, v) => map.insert(k, v),
                                Op::Delete(k) => map.remove(k),
                            };
                            let ret = clock.fetch_add(1, Ordering::SeqCst);
                            Done {
                                op,
                                result,
                                invoke,
                                ret,
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// Like [`execute_sharded`], but each thread submits its ops in
/// `chunk`-sized batches through `run_batch`.  All ops of a batch share the
/// batch's invoke/return interval — which is exactly their real interval:
/// the caller invoked them together and observed all results together.
/// Per-thread Done order stays program order; within a batch that is sound
/// because the shard applies same-key ops in sub-batch order and distinct
/// keys commute in the oracle.
fn execute_sharded_batched<M, P>(
    map: &ShardedMap<u64, u64, M, P>,
    per_thread: &[Vec<Op>],
    chunk: usize,
) -> Vec<Vec<Done>>
where
    M: BatchedMap<u64, u64> + Send,
    P: Partitioner<u64>,
{
    let clock = AtomicU64::new(0);
    let clock = &clock;
    std::thread::scope(|s| {
        let handles: Vec<_> = per_thread
            .iter()
            .map(|ops| {
                s.spawn(move || {
                    let mut dones = Vec::with_capacity(ops.len());
                    for batch in ops.chunks(chunk.max(1)) {
                        let invoke = clock.fetch_add(1, Ordering::SeqCst);
                        let results = map.run_batch(
                            batch
                                .iter()
                                .map(|&op| match op {
                                    Op::Search(k) => wsm_core::Operation::Search(k),
                                    Op::Insert(k, v) => wsm_core::Operation::Insert(k, v),
                                    Op::Delete(k) => wsm_core::Operation::Delete(k),
                                })
                                .collect(),
                        );
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
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// Executes a history against `ShardedMap` (both hand-off modes, single-op
/// and batched surfaces) and asserts each shard's projected history
/// linearizes.
fn check_sharded(per_thread: &[Vec<Op>], shards: usize) {
    for handoff in [Handoff::Doorbell, Handoff::Cell] {
        let map = ShardedMap::with_shards(shards, |_| M1::<u64, u64>::new(4)).with_handoff(handoff);
        let histories = execute_sharded(&map, per_thread);
        for shard in 0..map.shards() {
            let projected = project_onto(&histories, |k| map.shard_of(&k) == shard);
            assert!(
                linearizable(&projected),
                "shard {shard}/{shards} not linearizable ({handoff:?}, point ops): \
                 {projected:#?}"
            );
        }

        let map = ShardedMap::with_shards(shards, |_| M1::<u64, u64>::new(4)).with_handoff(handoff);
        let histories = execute_sharded_batched(&map, per_thread, 3);
        for shard in 0..map.shards() {
            let projected = project_onto(&histories, |k| map.shard_of(&k) == shard);
            assert!(
                linearizable(&projected),
                "shard {shard}/{shards} not linearizable ({handoff:?}, batched): \
                 {projected:#?}"
            );
        }
    }
}

/// Preloads an M1-backed map sequentially, executes the history, and
/// asserts a linearization exists from the preloaded state.
fn check_preloaded_m1(per_thread: &[Vec<Op>], preload: &BTreeMap<u64, u64>) {
    let mut inner = M1::<u64, u64>::new(4);
    inner.run_ops(
        preload
            .iter()
            .map(|(&k, &v)| wsm_core::Operation::Insert(k, v))
            .collect(),
    );
    let map = ConcurrentMap::new(inner, per_thread.len().max(1));
    let histories = execute(map, per_thread);
    assert!(
        linearizable_from(&histories, preload.clone()),
        "no linearization over preloaded M1: {histories:#?}"
    );
}

/// [`check_preloaded_m1`] for the pipelined M2.
fn check_preloaded_m2(per_thread: &[Vec<Op>], preload: &BTreeMap<u64, u64>) {
    let mut inner = M2::<u64, u64>::new(4);
    inner.run_ops(
        preload
            .iter()
            .map(|(&k, &v)| wsm_core::Operation::Insert(k, v))
            .collect(),
    );
    let map = ConcurrentMap::new(inner, per_thread.len().max(1));
    let histories = execute(map, per_thread);
    assert!(
        linearizable_from(&histories, preload.clone()),
        "no linearization over preloaded M2: {histories:#?}"
    );
}

/// Executes the history on an M1-backed map and asserts a linearization
/// exists.
fn check_m1(per_thread: &[Vec<Op>]) {
    let map = ConcurrentMap::new(M1::<u64, u64>::new(4), per_thread.len().max(1));
    let histories = execute(map, per_thread);
    assert!(linearizable(&histories), "no linearization: {histories:#?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random histories on M1.
    #[test]
    fn concurrent_m1_histories_linearize(
        raw in prop::collection::vec(
            prop::collection::vec((0u8..3, 0u8..3), 1..7),
            1..5,
        )
    ) {
        check_m1(&decode_history(&raw));
    }

    /// Random histories on the pipelined M2.
    #[test]
    fn concurrent_m2_histories_linearize(
        raw in prop::collection::vec(
            prop::collection::vec((0u8..3, 0u8..3), 1..6),
            1..4,
        )
    ) {
        let per_thread = decode_history(&raw);
        let map = ConcurrentMap::new(M2::<u64, u64>::new(4), per_thread.len().max(1));
        let histories = execute(map, &per_thread);
        prop_assert!(linearizable(&histories), "no linearization: {histories:#?}");
    }

    /// Working-set-order reads over a preloaded cascade: threads hammer a
    /// tiny hot set (plus occasional cold keys), so every batch exercises the
    /// recency-list move-to-front and promotion-transfer paths of the fused
    /// `RecencyMap` — the arena splice code, not just tree lookups.  Checked
    /// on M1 and M2.
    #[test]
    fn working_set_order_reads_linearize(
        raw in prop::collection::vec(
            prop::collection::vec((0u8..4, 0u8..8), 1..6),
            1..4,
        )
    ) {
        // Decode with a read-heavy skew: selector 0-2 → search, 3 → insert.
        // Key 0-5 hit the preloaded hot range, 6-7 map to cold keys deep in
        // the cascade.
        let per_thread: Vec<Vec<Op>> = raw
            .iter()
            .enumerate()
            .map(|(t, ops)| {
                ops.iter()
                    .enumerate()
                    .map(|(i, &(kind, key))| {
                        let key = if key < 6 { u64::from(key) } else { 50 + u64::from(key) };
                        if kind < 3 {
                            Op::Search(key)
                        } else {
                            Op::Insert(key, (t as u64) * 1000 + i as u64 + 1)
                        }
                    })
                    .collect()
            })
            .collect();
        let preload: BTreeMap<u64, u64> = (0..64u64).map(|k| (k, k)).collect();
        check_preloaded_m1(&per_thread, &preload);
        check_preloaded_m2(&per_thread, &preload);
    }

    /// Eviction-shaped mixes over a preloaded cascade: deletes of resident
    /// keys force hole-refill transfers (take_front off deeper segments) and
    /// fresh inserts force overflow transfers (take_back), so the
    /// inter-segment splices of the fused map run under real concurrency.
    #[test]
    fn eviction_shaped_mixes_linearize(
        raw in prop::collection::vec(
            prop::collection::vec((0u8..4, 0u8..16), 1..6),
            1..4,
        )
    ) {
        // Selector 0 → search, 1-2 → delete (eviction pressure), 3 → fresh
        // insert far above the preloaded keyspace.
        let per_thread: Vec<Vec<Op>> = raw
            .iter()
            .enumerate()
            .map(|(t, ops)| {
                ops.iter()
                    .enumerate()
                    .map(|(i, &(kind, key))| match kind {
                        0 => Op::Search(u64::from(key) * 4),
                        1 | 2 => Op::Delete(u64::from(key) * 4),
                        _ => Op::Insert(
                            1000 + (t as u64) * 100 + i as u64,
                            (t as u64) * 1000 + i as u64 + 1,
                        ),
                    })
                    .collect()
            })
            .collect();
        let preload: BTreeMap<u64, u64> = (0..64u64).map(|k| (k, k)).collect();
        check_preloaded_m1(&per_thread, &preload);
        check_preloaded_m2(&per_thread, &preload);
    }

    /// Random histories on the sharded front-end: every shard's projected
    /// history must linearize, under both hand-off modes and through both
    /// the single-op and the batched surface.
    #[test]
    fn sharded_histories_linearize_per_shard(
        raw in prop::collection::vec(
            prop::collection::vec((0u8..3, 0u8..5), 1..7),
            1..5,
        ),
        shards in 2usize..5,
    ) {
        let per_thread = decode_history(&raw);
        check_sharded(&per_thread, shards);
    }

    /// The degenerate S=1 sharded map is exactly one `ConcurrentMap` behind
    /// the router: the whole (unprojected) history must linearize.
    #[test]
    fn single_shard_router_histories_linearize(
        raw in prop::collection::vec(
            prop::collection::vec((0u8..3, 0u8..3), 1..6),
            1..4,
        )
    ) {
        let per_thread = decode_history(&raw);
        let map = ShardedMap::with_shards(1, |_| M1::<u64, u64>::new(4));
        let histories = execute_sharded_batched(&map, &per_thread, 2);
        prop_assert!(linearizable(&histories), "S=1 router: {histories:#?}");
    }

    /// MPSC shard stress: pool-scheduled producers with seeded yield
    /// schedules race an OS-thread combiner; nothing may be lost or
    /// duplicated.
    #[test]
    fn mpsc_shard_no_loss_under_pool_schedules(
        seed in any::<u64>(),
        producers in 1usize..5,
        per_producer in 64u64..512,
    ) {
        let shard: Arc<MpscShard<u64>> = Arc::new(MpscShard::with_capacity(8));
        let done = Arc::new(AtomicBool::new(false));
        let collected = Arc::new(Mutex::new(Vec::new()));
        let drainer = {
            let shard = Arc::clone(&shard);
            let done = Arc::clone(&done);
            let collected = Arc::clone(&collected);
            std::thread::spawn(move || {
                let mut out = Vec::new();
                while !done.load(Ordering::Acquire) {
                    shard.drain_into(&mut out);
                    std::thread::yield_now();
                }
                shard.drain_into(&mut out);
                *collected.lock().unwrap() = out;
            })
        };
        // Producers run as pool tasks: the seeded schedule perturbs the
        // interleaving between the work-stealing workers and the drainer.
        wsm_pool::with_threads(producers, || {
            wsm_pool::scope(|s| {
                for p in 0..producers as u64 {
                    let shard = &shard;
                    s.spawn(move |_| {
                        let mut schedule = seed.wrapping_add(p.wrapping_mul(0x9E3779B97F4A7C15)) | 1;
                        for i in 0..per_producer {
                            shard.publish(p * per_producer + i);
                            schedule = schedule
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            if schedule & 6 == 0 {
                                std::thread::yield_now();
                            }
                        }
                    });
                }
            });
        });
        done.store(true, Ordering::Release);
        drainer.join().unwrap();
        let out = collected.lock().unwrap();
        let expected = producers as u64 * per_producer;
        prop_assert_eq!(out.len() as u64, expected, "lost publications");
        let distinct: std::collections::BTreeSet<u64> = out.iter().copied().collect();
        prop_assert_eq!(distinct.len() as u64, expected, "duplicated publications");
    }
}

/// The checker itself must reject impossible histories: a search that
/// returns a value nobody ever inserted, and a real-time violation.
#[test]
fn checker_rejects_impossible_histories() {
    // Value from nowhere.
    let h = vec![vec![Done {
        op: Op::Search(1),
        result: Some(99),
        invoke: 0,
        ret: 1,
    }]];
    assert!(!linearizable(&h));

    // Real-time violation: the insert returned before the search began, yet
    // the search missed it (and no other op could explain the miss).
    let h = vec![
        vec![Done {
            op: Op::Insert(1, 7),
            result: None,
            invoke: 0,
            ret: 1,
        }],
        vec![Done {
            op: Op::Search(1),
            result: None,
            invoke: 2,
            ret: 3,
        }],
    ];
    assert!(!linearizable(&h));

    // The same pair with overlapping intervals IS linearizable.
    let h = vec![
        vec![Done {
            op: Op::Insert(1, 7),
            result: None,
            invoke: 0,
            ret: 3,
        }],
        vec![Done {
            op: Op::Search(1),
            result: None,
            invoke: 1,
            ret: 2,
        }],
    ];
    assert!(linearizable(&h));
}

/// A projected single-threaded sharded history must match the oracle exactly
/// on every shard (the degenerate 1-worker case of the sharded suite).
#[test]
fn single_threaded_sharded_history_matches_oracle() {
    let ops = vec![vec![
        Op::Insert(1, 10),
        Op::Insert(2, 20),
        Op::Search(1),
        Op::Delete(2),
        Op::Insert(1, 11),
        Op::Search(2),
        Op::Delete(1),
    ]];
    let map = ShardedMap::with_shards(3, |_| M1::<u64, u64>::new(4));
    let histories = execute_sharded(&map, &ops);
    let results: Vec<Option<u64>> = histories[0].iter().map(|d| d.result).collect();
    assert_eq!(
        results,
        vec![None, None, Some(10), Some(20), Some(10), None, Some(11)]
    );
    for shard in 0..map.shards() {
        let projected = project_onto(&histories, |k| map.shard_of(&k) == shard);
        assert!(linearizable(&projected), "shard {shard}");
    }
}

/// Deterministic single-threaded histories must match the oracle exactly
/// (the degenerate 1-worker case of the suite).
#[test]
fn single_threaded_history_matches_oracle() {
    let ops = vec![vec![
        Op::Insert(1, 10),
        Op::Search(1),
        Op::Insert(1, 20),
        Op::Delete(1),
        Op::Search(1),
        Op::Delete(2),
    ]];
    let map = ConcurrentMap::new(M1::<u64, u64>::new(4), 1);
    let histories = execute(map, &ops);
    let results: Vec<Option<u64>> = histories[0].iter().map(|d| d.result).collect();
    assert_eq!(
        results,
        vec![None, Some(10), Some(10), Some(20), None, None]
    );
    assert!(linearizable(&histories));
}
