//! The layer ladder and the fixed probes of a traced run.
//!
//! One serial caller replays the first requests of caller 0 through the
//! stack at every depth, each time on a freshly preloaded instance, timing
//! only the call into the layer.  A layer's self time is its depth minus the
//! depth below.  Every depth is replayed on every workload — also the ones
//! its timed path skips — so each workload reports the same metric names.
//! With nothing else contending, self time bounds what speeding that layer
//! up can save; counts (`*.nodes_per_op`, `*.work_per_op`, `*.work_over_wl`)
//! repeat exactly for a seed.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use wsm_core::{ConcurrentMap, OpId, Operation, ParallelBuffer, TaggedOp, M1, M2};
use wsm_model::{access_ranks, log_cost, MapOpKind};
use wsm_sort::{pesort_group_into, GroupedBatch, SortScratch};
use wsm_svc::{block_on, Executor, WsMapService};
use wsm_twothree::RecencyMap;
use wsm_wal::{SyncPolicy, Wal};
use wsm_workloads::{Pattern, WorkloadSpec};

use crate::report::Metrics;
use crate::run::{build_durable, build_sharded, open_durable, preload_batches, Engine, ScratchDir};
use crate::spec::{Sizing, Stream, Workload, CALLERS, SHARDS};

type Request = Vec<Operation<u64, u64>>;

/// Replays `requests` through `call`, timing only the calls; returns the
/// total in ns.
fn replay<R>(requests: &[Request], mut call: impl FnMut(Request) -> R) -> f64 {
    let mut total = Duration::ZERO;
    for ops in requests {
        let ops = ops.clone();
        let began = Instant::now();
        let results = call(ops);
        total += began.elapsed();
        black_box(results);
    }
    total.as_nanos() as f64
}

fn inserts(pairs: Vec<(u64, u64)>) -> Request {
    pairs
        .into_iter()
        .map(|(k, v)| Operation::Insert(k, v))
        .collect()
}

/// Depth `twothree`: the requests' keys as sorted, distinct batches against
/// one recency map holding every key.  Returns `(ns, nodes touched)`.
fn twothree_depth(keys: u64, requests: &[Request]) -> (f64, u64) {
    let mut tree = RecencyMap::<u64, u64>::new();
    for batch in preload_batches(keys) {
        tree.insert_batch(batch);
    }
    let mut total = Duration::ZERO;
    let mut nodes = 0;
    for ops in requests {
        let (mut gets, mut puts, mut dels) = (Vec::new(), Vec::new(), Vec::new());
        for op in ops {
            match op {
                Operation::Search(k) => gets.push(*k),
                Operation::Insert(k, v) => puts.push((*k, *v)),
                Operation::Delete(k) => dels.push(*k),
            }
        }
        gets.sort_unstable();
        gets.dedup();
        puts.sort_unstable_by_key(|p| p.0);
        puts.dedup_by_key(|p| p.0);
        dels.sort_unstable();
        dels.dedup();
        let began = Instant::now();
        let ((), touched) = wsm_twothree::cost::metered(|| {
            if !gets.is_empty() {
                black_box(tree.get_batch(&gets));
            }
            if !puts.is_empty() {
                black_box(tree.insert_batch(puts));
            }
            if !dels.is_empty() {
                black_box(tree.remove_batch(&dels));
            }
        });
        total += began.elapsed();
        nodes += touched;
    }
    (total.as_nanos() as f64, nodes)
}

/// Depth `sort`: the entropy sort-and-group M1/M2 apply to every cut batch,
/// on each request's keys.
fn sort_depth(requests: &[Request]) -> f64 {
    let mut scratch = SortScratch::default();
    let mut grouped = GroupedBatch::default();
    let mut total = Duration::ZERO;
    for ops in requests {
        let keys: Vec<u64> = ops.iter().map(|op| *op.key()).collect();
        let began = Instant::now();
        black_box(pesort_group_into(&keys, &mut scratch, &mut grouped));
        total += began.elapsed();
    }
    total.as_nanos() as f64
}

/// What replaying the requests through one bare engine cost.
struct EngineDepth {
    ns: f64,
    work: u64,
    maintenance_runs: u64,
}

fn engine_depth<G: Engine>(keys: u64, requests: &[Request]) -> EngineDepth {
    let mut map = G::make();
    for batch in preload_batches(keys) {
        map.run_ops(inserts(batch));
    }
    let (work, runs) = (map.effective_work(), map.maintenance_runs());
    let ns = replay(requests, |ops| map.run_ops(ops));
    EngineDepth {
        ns,
        work: map.effective_work() - work,
        maintenance_runs: map.maintenance_runs() - runs,
    }
}

/// The working-set bound `W_L` of the replayed operations, given that the
/// preload (one insert per key, in key order) came first.
fn working_set_bound_of(keys: u64, requests: &[Request]) -> u64 {
    let mut sequence: Vec<MapOpKind<u64>> = (0..keys).map(MapOpKind::Insert).collect();
    sequence.extend(requests.iter().flatten().map(|op| match op {
        Operation::Search(k) => MapOpKind::Search(*k),
        Operation::Insert(k, _) => MapOpKind::Insert(*k),
        Operation::Delete(k) => MapOpKind::Delete(*k),
    }));
    access_ranks(&sequence)[keys as usize..]
        .iter()
        .map(|rank| log_cost(*rank))
        .sum()
}

/// Depth `wal`, and the WAL's own operations timed directly.
fn wal_depth<E: Engine>(
    metrics: &mut Metrics,
    keys: u64,
    requests: &[Request],
    ops: f64,
    out_dir: &Path,
) -> f64 {
    let dir = ScratchDir::create(out_dir, "ladder-wal");
    let map = build_durable::<E>(dir.path(), keys);
    let logged = |map: &wsm_wal::DurableShardedMap<u64, u64, E>| -> u64 {
        map.wal_stats().iter().map(|s| s.bytes_appended).sum()
    };
    let bytes_before = logged(&map);
    let ns = replay(requests, |ops| map.run_batch(ops));
    metrics.set(
        "wal.log_bytes_per_op",
        (logged(&map) - bytes_before) as f64 / ops,
    );

    let began = Instant::now();
    map.checkpoint_all().expect("ladder checkpoint");
    metrics.set("wal.checkpoint_ms", began.elapsed().as_secs_f64() * 1e3);
    metrics.set(
        "wal.checkpoints",
        map.wal_stats().iter().map(|s| s.checkpoints).sum::<u64>() as f64,
    );
    let checkpoint_bytes: u64 = (0..SHARDS)
        .filter_map(|shard| {
            let newest = wsm_wal::log::list_checkpoints(&dir.path().join(format!("shard-{shard}")))
                .ok()?
                .into_iter()
                .max_by_key(|(seq, _)| *seq)?;
            Some(std::fs::metadata(newest.1).ok()?.len())
        })
        .sum();
    metrics.set(
        "wal.checkpoint_bytes_per_item",
        checkpoint_bytes as f64 / map.len() as f64,
    );
    drop(map);
    let began = Instant::now();
    let reopened = open_durable::<E>(dir.path());
    metrics.set("wal.open_ms", began.elapsed().as_secs_f64() * 1e3);
    drop(reopened);

    // `Wal::append` alone, on the batches the commit hook would hand it.
    let dir = ScratchDir::create(out_dir, "ladder-append");
    let (wal, _) = Wal::<u64, u64>::open(dir.path(), SyncPolicy::from_env())
        .expect("open the append probe's WAL");
    let mut total = Duration::ZERO;
    for ops in requests {
        let batch: Vec<TaggedOp<u64, u64>> = ops
            .iter()
            .enumerate()
            .map(|(i, op)| TaggedOp {
                id: i as OpId,
                op: op.clone(),
            })
            .collect();
        let began = Instant::now();
        black_box(wal.append(&batch).expect("append probe"));
        total += began.elapsed();
    }
    metrics.set(
        "wal.append_ns_per_batch",
        total.as_nanos() as f64 / requests.len() as f64,
    );
    ns
}

/// Pass (b): every ladder metric of `workload`, whose timed path runs `E`.
pub fn ladder<E: Engine>(
    workload: &'static Workload,
    sizing: &Sizing,
    stream: &Stream,
    out_dir: &Path,
) -> Metrics {
    let keys = sizing.keys(workload);
    let requests: Vec<Request> = (0..sizing.ladder_len(workload) as u64)
        .map(|r| stream.request(r))
        .collect();
    let ops = requests.iter().map(Vec::len).sum::<usize>() as f64;
    let mut metrics = Metrics::default();

    let (ns, nodes) = twothree_depth(keys, &requests);
    metrics.set("twothree.ns_per_op", ns / ops);
    metrics.set("twothree.nodes_per_op", nodes as f64 / ops);
    metrics.set("sort.ns_per_op", sort_depth(&requests) / ops);

    let wl = working_set_bound_of(keys, &requests) as f64;
    let m1 = engine_depth::<M1<u64, u64>>(keys, &requests);
    metrics.set("core.m1.ns_per_op", m1.ns / ops);
    metrics.set("core.m1.work_per_op", m1.work as f64 / ops);
    metrics.set("core.m1.work_over_wl", m1.work as f64 / wl);
    let m2 = engine_depth::<M2<u64, u64>>(keys, &requests);
    metrics.set("core.m2.ns_per_op", m2.ns / ops);
    metrics.set("core.m2.work_per_op", m2.work as f64 / ops);
    metrics.set("core.m2.work_over_wl", m2.work as f64 / wl);
    metrics.set(
        "core.m2.maintenance_runs_per_kop",
        m2.maintenance_runs as f64 / ops * 1e3,
    );
    let engine_ns = metrics
        .get(&format!("{}.ns_per_op", E::LAYER))
        .expect("both engines were replayed");

    let concurrent_ns = {
        let map = ConcurrentMap::new(E::make(), 8);
        for batch in preload_batches(keys) {
            map.call_batch(0, inserts(batch));
        }
        replay(&requests, |ops| map.call_batch(0, ops)) / ops
    };
    metrics.set("core.concurrent.ns_per_op", concurrent_ns);
    metrics.set("core.concurrent.self_ns_per_op", concurrent_ns - engine_ns);

    let shard_ns = {
        let map = build_sharded::<E>(keys);
        replay(&requests, |ops| map.run_batch(ops)) / ops
    };
    metrics.set("shard.ns_per_op", shard_ns);
    metrics.set("shard.self_ns_per_op", shard_ns - concurrent_ns);

    let svc_ns = {
        let svc = WsMapService::new(build_sharded::<E>(keys));
        replay(&requests, |ops| block_on(svc.call_batch(ops))) / ops
    };
    metrics.set("svc.ns_per_op", svc_ns);
    metrics.set("svc.self_ns_per_op", svc_ns - shard_ns);

    let wal_ns = wal_depth::<E>(&mut metrics, keys, &requests, ops, out_dir) / ops;
    metrics.set("wal.ns_per_op", wal_ns);
    metrics.set("wal.self_ns_per_op", wal_ns - shard_ns);
    metrics
}

/// Mean ns of `body` over `iters` runs.
fn mean_ns(iters: usize, mut body: impl FnMut(usize)) -> f64 {
    let began = Instant::now();
    for i in 0..iters {
        body(i);
    }
    began.elapsed().as_nanos() as f64 / iters as f64
}

/// Pass (c): primitives of the layers, run once, the same on every workload.
pub fn probes(sizing: &Sizing, seed: u64) -> Metrics {
    let iters = sizing.probe_iters.max(1);
    let mut metrics = Metrics::default();

    // Both pool probes run on a pool worker, where the maps' batches run.
    metrics.set(
        "pool.join_ns",
        wsm_pool::run(|| {
            mean_ns(iters, |i| {
                black_box(wsm_pool::join(|| black_box(i), || black_box(i + 1)));
            })
        }),
    );
    let items: Vec<u64> = (0..1024).collect();
    metrics.set(
        "pool.par_map_ns_per_item",
        wsm_pool::run(|| {
            mean_ns(iters.div_ceil(10), |_| {
                black_box(wsm_pool::par_map(&items, |x| x.wrapping_mul(3)));
            })
        }) / items.len() as f64,
    );

    let buffer = ParallelBuffer::<u64>::new(8);
    let mut drained = Vec::new();
    metrics.set(
        "core.buffer.push_flush_ns_per_item",
        mean_ns(iters, |i| {
            buffer.push_batch(i, (0..64).collect());
            drained.clear();
            buffer.flush_into(&mut drained);
            black_box(&drained);
        }) / 64.0,
    );

    let exec = Executor::new(CALLERS);
    metrics.set(
        "svc.exec.spawn_join_ns",
        mean_ns(iters, |i| {
            black_box(block_on(exec.spawn(async move { i })));
        }),
    );
    let timer = exec.timer();
    let sleeps = (iters / 40).clamp(5, 50);
    metrics.set(
        "svc.exec.timer_late_us",
        block_on(exec.spawn(async move {
            let mut late = Duration::ZERO;
            for _ in 0..sleeps {
                let deadline = Instant::now() + Duration::from_millis(1);
                timer.sleep_until(deadline).await;
                late += Instant::now().saturating_duration_since(deadline);
            }
            late.as_secs_f64() * 1e6 / sleeps as f64
        })),
    );
    drop(exec);

    // A plain AVL tree on a Zipf stream: how fast this machine is today.
    let keys = (1u64 << 16) >> sizing.keys_shrink;
    let accesses =
        WorkloadSpec::read_only(keys, sizing.pool_ops.min(1 << 17), Pattern::Zipf(1.1), seed)
            .access_phase();
    let mut avl = wsm_seq::AvlMap::new();
    for k in 0..keys {
        avl.insert_item(k, k);
    }
    metrics.set(
        "seq.avl.ns_per_op",
        mean_ns(accesses.len(), |i| {
            black_box(avl.access(accesses[i].key()));
        }),
    );
    metrics
}
