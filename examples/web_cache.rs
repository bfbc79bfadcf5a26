//! Web-cache style workload: a skewed (Zipfian) stream of page lookups with a
//! small fraction of updates, served concurrently by many worker threads.
//!
//! Run with `cargo run --example web_cache --release`.  The number of
//! request-serving OS threads defaults to 4 and can be overridden with
//! `WSM_WORKERS=n`; whichever serving thread wins the map's combiner election
//! runs the batch on its own thread.  Experiment E16 (`harness e16`) tracks
//! this workload's map-vs-AVL gap as a regression.
//!
//! With `WSM_SHARDS=n` (n > 1) the cache is served by a
//! [`wsm_shard::ShardedMap`] instead: the keyspace is hash-partitioned
//! across `n` independent working-set maps, each with its own combiner, so
//! request-serving threads no longer all contend on a single election.  The
//! per-shard request/work split is reported at the end.  Experiment E19
//! (`harness e19`) measures the same unsharded-vs-sharded gap.
//!
//! This is the motivating scenario for working-set structures: most requests
//! hit a small set of hot pages, so a distribution-sensitive map does `O(log
//! r)` work per request instead of `O(log n)`.  The example compares the
//! implicitly-batched working-set map against a coarse-locked AVL tree on the
//! same request stream and reports wall-clock time and effective work.
//!
//! With `WSM_DURABLE_DIR=path` the run finishes with a durability demo: a
//! burst of inserts is served through a WAL-backed one-shard
//! [`wsm_wal::DurableShardedMap`] (one combiner, one log) in that directory,
//! the process "crashes" (the map is leaked so no destructor runs), and the
//! directory is reopened to show the recovery report and that every logged
//! page survived.  `WSM_WAL_SYNC` / `WSM_WAL_CHECKPOINT_EVERY` tune the
//! demo's WAL exactly as they would a real deployment.

use std::sync::Arc;
use std::time::{Duration, Instant};
use wsm_core::{BatchedMap, ConcurrentMap, Operation, M1};
use wsm_seq::{AvlMap, InstrumentedMap};
use wsm_shard::ShardedMap;
use wsm_workloads::{Pattern, WorkloadSpec};

const PAGES: u64 = 1 << 14;
const REQUESTS_PER_WORKER: usize = 20_000;

/// Request-serving OS threads: `WSM_WORKERS` or 4.
fn workers() -> usize {
    wsm_sync::env::parse("WSM_WORKERS", "a worker count >= 1", 4, |&n: &usize| n > 0)
}

/// Keyspace shards: `WSM_SHARDS` or 1 (single combiner, the default).
fn shards() -> usize {
    wsm_sync::env::parse("WSM_SHARDS", "a shard count >= 1", 1, |&n: &usize| n > 0)
}

fn request_stream(worker: u64) -> Vec<u64> {
    WorkloadSpec::read_only(PAGES, REQUESTS_PER_WORKER, Pattern::Zipf(1.1), worker)
        .access_phase()
        .iter()
        .map(|op| *op.key())
        .collect()
}

/// Serves the request streams from one `ConcurrentMap` (single combiner).
fn serve_single(workers: usize) -> (Duration, u64, u64) {
    let mut inner = M1::<u64, u64>::new(workers.max(2));
    inner.run_ops((0..PAGES).map(|p| Operation::Insert(p, p)).collect());
    let warm_work = inner.effective_work();
    let cache = Arc::new(ConcurrentMap::new(inner, workers));

    let start = Instant::now();
    let handles: Vec<_> = (0..workers)
        .map(|w| {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                let mut hits = 0u64;
                for page in request_stream(w as u64) {
                    if cache.search(w, page).is_some() {
                        hits += 1;
                    }
                    // Occasionally refresh a page (update its value).
                    if page % 97 == 0 {
                        cache.insert(w, page, page + 1);
                    }
                }
                hits
            })
        })
        .collect();
    let hits: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    (start.elapsed(), cache.effective_work() - warm_work, hits)
}

/// Serves the same streams from a hash-partitioned `ShardedMap`: every shard
/// is its own working-set map with its own combiner, so hot-page traffic on
/// different shards never contends on one election.
fn serve_sharded(shards: usize, workers: usize) -> (Duration, u64, u64) {
    let cache = Arc::new(ShardedMap::with_shards(shards, |_| {
        M1::<u64, u64>::new(workers.max(2))
    }));
    for block in (0..PAGES).collect::<Vec<_>>().chunks(1024) {
        cache.insert_batch(block.iter().map(|&p| (p, p)).collect());
    }
    let warm: Vec<_> = cache.shard_stats();

    let start = Instant::now();
    let handles: Vec<_> = (0..workers)
        .map(|w| {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                let mut hits = 0u64;
                for page in request_stream(w as u64) {
                    if cache.get(page).is_some() {
                        hits += 1;
                    }
                    if page % 97 == 0 {
                        cache.insert(page, page + 1);
                    }
                }
                hits
            })
        })
        .collect();
    let hits: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let elapsed = start.elapsed();

    let stats = cache.shard_stats();
    for (s, w0) in stats.iter().zip(&warm) {
        println!(
            "  shard {}: {} pages, {} effective work",
            s.shard,
            s.len,
            s.effective_work - w0.effective_work
        );
    }
    let work: u64 = stats
        .iter()
        .zip(&warm)
        .map(|(s, w0)| s.effective_work - w0.effective_work)
        .sum();
    (elapsed, work, hits)
}

/// `WSM_DURABLE_DIR` demo: log a burst of inserts through a WAL-backed map,
/// "crash" without running a single destructor, then reopen the directory and
/// prove nothing durable was lost.
fn durable_demo(dir: &str, workers: usize) {
    use wsm_wal::DurableShardedMap;

    const BURST: u64 = 1024;
    let path = std::path::Path::new(dir);
    let _ = std::fs::remove_dir_all(path);
    let make = move |_| M1::<u64, u64>::new(workers.max(2));

    println!("\ndurability demo (WSM_DURABLE_DIR={dir}):");
    let cache = DurableShardedMap::open(path, 1, make).expect("open durable cache");
    for page in 0..BURST {
        cache.insert(page, page);
    }
    cache.flush().expect("flush WAL");
    let stats = cache.wal_stats()[0];
    println!(
        "  logged {} batches / {} ops ({} bytes appended, {} fsyncs, {} checkpoints)",
        stats.batches_logged,
        stats.ops_logged,
        stats.bytes_appended,
        stats.syncs,
        stats.checkpoints
    );

    // Simulated kill -9: leak the map so neither the combiner nor the WAL
    // runs any shutdown path.  Everything the reopen sees went through the
    // commit hook before the "crash".
    std::mem::forget(cache);

    let cache = DurableShardedMap::open(path, 1, make).expect("reopen durable cache");
    let rec = cache.recovery()[0];
    println!(
        "  reopened: checkpoint seq {} ({} items), replayed {} batches / {} ops{}",
        rec.checkpoint_seq,
        rec.checkpoint_items,
        rec.replayed_batches,
        rec.replayed_ops,
        if rec.truncated_torn_tail {
            ", truncated a torn tail"
        } else {
            ""
        }
    );
    let survived = (0..BURST).filter(|&p| cache.get(p) == Some(p)).count() as u64;
    println!("  {survived}/{BURST} pages survived the crash");
    assert_eq!(survived, BURST, "logged inserts must survive reopen");
}

fn main() {
    let workers = workers();
    let shards = shards();
    // --- implicitly batched working-set map ---------------------------------
    let (wsm_elapsed, wsm_work, hits) = if shards > 1 {
        println!("serving from {shards} hash-partitioned shards (WSM_SHARDS={shards})");
        serve_sharded(shards, workers)
    } else {
        serve_single(workers)
    };
    let total_requests = (workers * REQUESTS_PER_WORKER) as u64;

    println!("working-set cache: {total_requests} requests, {hits} hits");
    println!(
        "  wall time {:?}, effective work {wsm_work} ({:.2} per request)",
        wsm_elapsed,
        wsm_work as f64 / total_requests as f64
    );

    // --- coarse-locked AVL baseline ------------------------------------------
    let mut avl = AvlMap::new();
    for p in 0..PAGES {
        avl.insert_item(p, p);
    }
    let avl = Arc::new(parking_lot_mutex::Mutex::new(avl));
    let start = Instant::now();
    let handles: Vec<_> = (0..workers)
        .map(|w| {
            let avl = Arc::clone(&avl);
            std::thread::spawn(move || {
                let mut work = 0u64;
                for page in request_stream(w as u64) {
                    let (_, c) = avl.lock().unwrap_or_else(|e| e.into_inner()).search(&page);
                    work += c.work;
                }
                work
            })
        })
        .collect();
    let avl_work: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let avl_elapsed = start.elapsed();
    println!("coarse-locked AVL: wall time {avl_elapsed:?}, effective work {avl_work} ({:.2} per request)",
        avl_work as f64 / total_requests as f64);
    println!(
        "working-set map does {:.1}x less comparison work per request on this Zipfian stream",
        avl_work as f64 / wsm_work.max(1) as f64
    );

    // --- optional durability demo --------------------------------------------
    if let Ok(dir) = std::env::var("WSM_DURABLE_DIR") {
        if !dir.is_empty() {
            durable_demo(&dir, workers);
        }
    }
}

/// Tiny shim so the example only depends on std (std::sync::Mutex with a
/// poison-forgiving lock), keeping the example focused on the library API.
mod parking_lot_mutex {
    pub use std::sync::Mutex;
}
