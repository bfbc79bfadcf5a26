//! Substrate benchmark: the tree's sorted-batch operations — the bulk build
//! and the one-pass sweep every segment operation runs — against
//! `std::collections::BTreeMap` on the same batches.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::BTreeMap;
use std::time::Duration;
use wsm_twothree::Tree23;

fn bench_twothree(c: &mut Criterion) {
    let mut group = c.benchmark_group("twothree");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for n in [1usize << 12, 1 << 15] {
        let items: Vec<(u64, u64)> = (0..n as u64).map(|i| (i * 2, i)).collect();
        let probe: Vec<u64> = (0..n as u64).collect();
        group.bench_with_input(BenchmarkId::new("batch_insert", n), &items, |b, items| {
            b.iter(|| {
                let mut t: Tree23<u64, u64> = Tree23::new();
                t.batch_insert(items.clone());
                t
            })
        });
        group.bench_with_input(
            BenchmarkId::new("btreemap_insert", n),
            &items,
            |b, items| {
                b.iter(|| {
                    let mut t: BTreeMap<u64, u64> = BTreeMap::new();
                    for (k, v) in items.clone() {
                        t.insert(k, v);
                    }
                    t
                })
            },
        );
        let tree: Tree23<u64, u64> = items.iter().cloned().collect();
        group.bench_with_input(BenchmarkId::new("batch_get", n), &probe, |b, probe| {
            b.iter(|| tree.batch_get(probe))
        });
        // The sweep proper: a batch interleaved with (insert) or thinning
        // (remove) a populated tree, so every leaf parent is touched.
        let odd: Vec<(u64, u64)> = (0..n as u64).map(|i| (i * 2 + 1, i)).collect();
        group.bench_with_input(BenchmarkId::new("batch_insert_sweep", n), &odd, |b, odd| {
            b.iter(|| {
                let mut t = tree.clone();
                t.batch_insert(odd.clone());
                t
            })
        });
        let every_other: Vec<u64> = (0..n as u64).step_by(2).map(|i| i * 2).collect();
        group.bench_with_input(
            BenchmarkId::new("batch_remove", n),
            &every_other,
            |b, keys| {
                b.iter(|| {
                    let mut t = tree.clone();
                    t.batch_remove(keys);
                    t
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_twothree);
criterion_main!(benches);
