//! A miniature key-value "server" built on the async service front-end.
//!
//! Run with `cargo run --example server --release`.  `WSM_SVC_CLIENTS`
//! concurrent client tasks (default 8) each fire `WSM_SVC_REQUESTS`
//! batched lookups (default 500) of `WSM_SVC_BATCH` keys (default 16)
//! against one [`wsm_svc::WsMapService`], pacing themselves at
//! `WSM_SVC_QPS` requests per second per client (default 500).  The clients
//! are cooperative futures on the service's own [`wsm_svc::Executor`]
//! (two worker threads) — no OS thread per connection.
//!
//! The backend is a [`wsm_shard::ShardedMap`] (`WSM_SHARDS`, default 4).
//! The run ends with a latency summary — p50/p99/p999 over every request —
//! mirroring what experiment E21 (`harness e21`) records as a committed
//! artifact.
//!
//! A fraction of requests (1 in 8) are writes: each client refreshes its
//! hottest keys through `batch_insert`, so the combiner sees mixed batches.

use std::sync::Arc;
use std::time::{Duration, Instant};
use wsm_core::M1;
use wsm_shard::ShardedMap;
use wsm_svc::{block_on, Executor, WsMapService};
use wsm_workloads::{Pattern, WorkloadSpec};

const KEYSPACE: u64 = 1 << 14;

/// Concurrent client tasks: `WSM_SVC_CLIENTS` or 8.
fn clients() -> usize {
    wsm_sync::env::parse("WSM_SVC_CLIENTS", "a client count >= 1", 8, |&n: &usize| {
        n > 0
    })
}

/// Paced requests per client: `WSM_SVC_REQUESTS` or 500.
fn requests() -> usize {
    wsm_sync::env::parse(
        "WSM_SVC_REQUESTS",
        "a request count >= 1",
        500,
        |&n: &usize| n > 0,
    )
}

/// Keys per batched request: `WSM_SVC_BATCH` or 16.
fn batch() -> usize {
    wsm_sync::env::parse("WSM_SVC_BATCH", "a batch size >= 1", 16, |&n: &usize| n > 0)
}

/// Target requests/second per client: `WSM_SVC_QPS` or 500.
fn qps() -> u64 {
    wsm_sync::env::parse("WSM_SVC_QPS", "a rate >= 1", 500, |&n: &u64| n > 0)
}

/// Keyspace shards: `WSM_SHARDS` or 4.
fn shards() -> usize {
    wsm_sync::env::parse("WSM_SHARDS", "a shard count >= 1", 4, |&n: &usize| n > 0)
}

fn main() {
    let (clients, requests, batch, qps, shards) = (clients(), requests(), batch(), qps(), shards());
    let interval = Duration::from_micros(1_000_000 / qps);

    let map = Arc::new(ShardedMap::with_shards(shards, |_| M1::<u64, u64>::new(4)));
    let preload: Vec<(u64, u64)> = (0..KEYSPACE).map(|k| (k, k)).collect();
    for chunk in preload.chunks(512) {
        map.insert_batch(chunk.to_vec());
    }
    let svc = WsMapService::from_arc(map);
    let exec = Executor::new(2);
    let timer = exec.timer();

    println!(
        "server: {clients} clients x {requests} req x {batch} keys @ {qps} req/s each, \
         S={shards}"
    );

    let wall = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let svc = svc.clone();
            let timer = timer.clone();
            let keys: Vec<u64> =
                WorkloadSpec::read_only(KEYSPACE, requests * batch, Pattern::Zipf(1.1), c as u64)
                    .access_phase()
                    .iter()
                    .map(|op| *op.key())
                    .collect();
            exec.spawn(async move {
                let mut latencies = Vec::with_capacity(requests);
                let base = Instant::now();
                for r in 0..requests {
                    timer.sleep_until(base + interval * r as u32).await;
                    let window = keys[r * batch..(r + 1) * batch].to_vec();
                    let issued = Instant::now();
                    if r % 8 == 7 {
                        let _ = svc
                            .batch_insert(window.into_iter().map(|k| (k, k + 1)).collect())
                            .await;
                    } else {
                        let _ = svc.batch_search(window).await;
                    }
                    latencies.push(issued.elapsed().as_nanos() as u64);
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<u64> = handles.into_iter().flat_map(block_on).collect();
    let elapsed = wall.elapsed();

    latencies.sort_unstable();
    let pct = |p: f64| {
        let idx = ((latencies.len() as f64 - 1.0) * p).round() as usize;
        latencies[idx] as f64 / 1_000.0
    };
    let total_ops = (clients * requests * batch) as f64;
    println!(
        "served {} requests ({} ops) in {:.2?}: p50 {:.1} us, p99 {:.1} us, \
         p999 {:.1} us, achieved {:.0} kops/s",
        latencies.len(),
        total_ops,
        elapsed,
        pct(0.50),
        pct(0.99),
        pct(0.999),
        total_ops / elapsed.as_secs_f64() / 1_000.0,
    );
}
