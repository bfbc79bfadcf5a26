//! Quickstart: using the parallel working-set maps.
//!
//! Run with `cargo run --example quickstart`.
//!
//! The example shows the three ways of using the library:
//! 1. the batched API of M1/M2 (operations arrive in batches, the map reports
//!    its effective work/span in the paper's cost model),
//! 2. the implicit-batching concurrent front-end used from plain threads, and
//! 3. comparing measured work against the working-set bound `W_L`.

use std::sync::Arc;
use wsm_core::{BatchedMap, ConcurrentMap, Operation, M1, M2};
use wsm_model::{working_set_bound, MapOpKind};

fn main() {
    // ---------------------------------------------------------------
    // 1. Batched usage: build a map for p = 8 processors and run batches.
    // ---------------------------------------------------------------
    let mut m1: M1<u64, String> = M1::new(8);
    let results = m1.run_ops(vec![
        Operation::Insert(10, "ten".to_string()),
        Operation::Insert(20, "twenty".to_string()),
        Operation::Search(10),
        Operation::Delete(20),
        Operation::Search(20),
    ]);
    println!("M1 results: {results:?}");
    println!(
        "M1 size={} effective work={} effective span={}",
        m1.size(),
        m1.effective_work(),
        m1.effective_span()
    );

    // M2 has the same interface but pipelines its final slab; built with
    // `with_latency_records`, per-operation latencies are available after
    // processing.
    let mut m2: M2<u64, u64> = M2::new(8).with_latency_records();
    m2.run_ops((0..10_000).map(|i| Operation::Insert(i, i)).collect());
    m2.run_ops(vec![Operation::Search(1), Operation::Search(9_999)]);
    let lat: Vec<u64> = m2
        .latencies()
        .iter()
        .rev()
        .take(2)
        .map(|l| l.latency())
        .collect();
    println!("M2 latest per-op pipeline latencies (virtual steps): {lat:?}");

    // ---------------------------------------------------------------
    // 2. Concurrent usage: implicit batching from ordinary threads.
    // ---------------------------------------------------------------
    let map = Arc::new(ConcurrentMap::new(M1::<u64, u64>::new(4), 4));
    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            let map = Arc::clone(&map);
            std::thread::spawn(move || {
                for i in 0..1_000 {
                    map.insert(t as usize, t * 1_000 + i, i);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    println!(
        "concurrent map holds {} items after 4 threads x 1000 inserts",
        map.len()
    );

    // ---------------------------------------------------------------
    // 3. The working-set bound: skewed accesses are provably cheap.
    // ---------------------------------------------------------------
    let mut ops: Vec<MapOpKind<u64>> = (0..4_096).map(MapOpKind::Insert).collect();
    ops.extend((0..16_384).map(|i| MapOpKind::Search(i % 8))); // hot set of 8 keys
    let wl = working_set_bound(&ops);
    let mut m1: M1<u64, u64> = M1::new(8);
    for chunk in ops.chunks(64) {
        let batch = chunk
            .iter()
            .map(|k| match k {
                MapOpKind::Search(k) => Operation::Search(*k),
                MapOpKind::Insert(k) => Operation::Insert(*k, *k),
                MapOpKind::Delete(k) => Operation::Delete(*k),
            })
            .collect();
        m1.run_ops(batch);
    }
    println!(
        "hot-set workload: W_L = {wl}, M1 effective work = {} (ratio {:.2})",
        m1.effective_work(),
        m1.effective_work() as f64 / wl as f64
    );
}
