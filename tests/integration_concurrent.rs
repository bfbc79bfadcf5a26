//! Integration tests for the concurrent (implicitly batched) front-end: many
//! OS threads hammer the same map and per-key sequential consistency is
//! checked.

use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use wsm_core::{BatchedMap, ConcurrentMap, OpId, OpResult, Operation, TaggedOp, M1, M2};
use wsm_model::Cost;
use wsm_shard::ShardedMap;

#[test]
fn concurrent_m1_per_key_history_is_sequential() {
    // Each thread owns a disjoint key range and performs a deterministic
    // sequence on it; every intermediate result must match the sequential
    // expectation even though batches interleave keys from all threads.
    let map = Arc::new(ConcurrentMap::new(M1::<u64, u64>::new(8), 8));
    let threads = 8u64;
    let keys_per_thread = 300u64;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let map = Arc::clone(&map);
            std::thread::spawn(move || {
                let base = t * 10_000;
                for k in 0..keys_per_thread {
                    let key = base + k;
                    assert_eq!(map.search(t as usize, key), None);
                    assert_eq!(map.insert(t as usize, key, 1), None);
                    assert_eq!(map.insert(t as usize, key, 2), Some(1));
                    assert_eq!(map.search(t as usize, key), Some(2));
                    if k % 3 == 0 {
                        assert_eq!(map.delete(t as usize, key), Some(2));
                        assert_eq!(map.search(t as usize, key), None);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let kept = keys_per_thread - keys_per_thread.div_ceil(3);
    assert_eq!(map.len(), (threads * kept) as usize);
    // The inner M1 is still structurally sound.
    let inner = Arc::try_unwrap(map).ok().expect("sole owner").into_inner();
    inner.check_invariants();
}

#[test]
fn concurrent_m2_shared_hot_keys_count_correctly() {
    // All threads increment shared counters via read-modify-write; the total
    // number of successful increments must equal the number of attempts even
    // though the counter keys are hot and heavily batched.
    let map = Arc::new(ConcurrentMap::new(M2::<u64, u64>::new(4), 4));
    for k in 0..8u64 {
        map.insert(0, k, 0);
    }
    let threads = 4usize;
    let per = 300u64;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let map = Arc::clone(&map);
            std::thread::spawn(move || {
                // Each thread owns two counters, so updates to a key are not
                // racy even though reads interleave globally.
                let mine = [2 * t as u64, 2 * t as u64 + 1];
                for i in 0..per {
                    let key = mine[(i % 2) as usize];
                    let cur = map.search(t, key).expect("counter exists");
                    map.insert(t, key, cur + 1);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let total: u64 = (0..8u64).map(|k| map.search(0, k).unwrap()).sum();
    assert_eq!(total, threads as u64 * per);
}

#[test]
fn concurrent_map_survives_bursty_contention() {
    // Alternating bursts of inserts and deletes from many threads on an
    // overlapping key range; the final size is checked against a recount.
    let map = Arc::new(ConcurrentMap::new(M1::<u64, u64>::new(8), 8));
    let threads = 6usize;
    let range = 2_000u64;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let map = Arc::clone(&map);
            std::thread::spawn(move || {
                for i in 0..range {
                    // Every thread inserts every key, so the last writer wins;
                    // deletes target a fixed stripe.
                    map.insert(t, i, t as u64);
                    if i % 5 == 0 {
                        map.delete(t, i);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // Keys divisible by 5 may or may not survive (insert/delete races between
    // threads are linearized arbitrarily); all others must be present.
    for key in 0..range {
        let present = map.search(0, key).is_some();
        if key % 5 != 0 {
            assert!(present, "key {key} must be present");
        }
    }
}

/// An M1 that records which thread ran each of its batches.
struct ThreadRecording {
    inner: M1<u64, u64>,
    ran_on: Arc<Mutex<Vec<ThreadId>>>,
}

impl BatchedMap<u64, u64> for ThreadRecording {
    fn run_batch(&mut self, batch: Vec<TaggedOp<u64, u64>>) -> (Vec<(OpId, OpResult<u64>)>, Cost) {
        self.ran_on
            .lock()
            .unwrap()
            .push(std::thread::current().id());
        self.inner.run_batch(batch)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn effective_work(&self) -> u64 {
        self.inner.effective_work()
    }

    fn effective_span(&self) -> u64 {
        self.inner.effective_span()
    }
}

/// Asserts that batches ran, and all on the calling thread.
fn assert_ran_here(ran_on: &Mutex<Vec<ThreadId>>, surface: &str) {
    let ran_on = ran_on.lock().unwrap();
    assert!(!ran_on.is_empty(), "{surface}: no batch ran");
    let me = std::thread::current().id();
    assert!(
        ran_on.iter().all(|&id| id == me),
        "{surface}: a batch ran off the calling thread: {ran_on:?}"
    );
}

#[test]
fn large_batches_run_on_the_calling_thread() {
    // Whoever wins the combiner election runs the batch itself, whatever its
    // size: a lone caller's large batches never leave its thread.
    let ran_on = Arc::new(Mutex::new(Vec::new()));
    let recording = || ThreadRecording {
        inner: M1::new(4),
        ran_on: Arc::clone(&ran_on),
    };

    let map = ConcurrentMap::new(recording(), 4);
    let results = map.call_batch(0, (0..256u64).map(|k| Operation::Insert(k, k)).collect());
    assert!(results.iter().all(|r| *r == OpResult::Insert(None)));
    assert_ran_here(&ran_on, "ConcurrentMap::call_batch of 256 ops");

    ran_on.lock().unwrap().clear();
    let sharded = ShardedMap::with_shards(2, |_| recording());
    let results = sharded.run_batch((0..512u64).map(|k| Operation::Insert(k, k)).collect());
    assert!(results.iter().all(|r| *r == OpResult::Insert(None)));
    assert_eq!(sharded.len(), 512);
    assert_ran_here(&ran_on, "ShardedMap::run_batch of 512 ops at S=2");
}
