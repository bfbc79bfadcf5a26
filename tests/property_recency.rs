//! Oracle-differential property suite for the arena-fused [`RecencyMap`].
//!
//! The fused map (one key-ordered `Tree23` over an arena + intrusive recency
//! list) is the building block under M0, M1 and M2 simultaneously, so it gets
//! its own differential harness: every generated op stream is executed
//! against both the fused map and a trivially-correct reference model (a
//! `BTreeMap` for key order plus a `VecDeque` for recency order), with key
//! order, recency order, lookups and `check_invariants` (tree structure,
//! arena free-list accounting, list link integrity) asserted after **every**
//! step.  Failures shrink through the PR 3 minimizing engine, so a broken
//! splice prints a minimal op stream, not a 400-op transcript.
//!
//! The op surface covers everything the segment cascades use:
//! `insert_front`/`insert_back`, `insert_batch` (fused upsert),
//! `remove`/`remove_batch`, `get`/`get_batch`/`recency_rank`,
//! `push_front_batch`/`push_back_batch`, `take_front(k)`/`take_back(k)` and
//! `items_in_recency_order` — plus a two-map transfer test that pins
//! relative-order preservation across inter-segment moves.

use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};
use wsm_twothree::RecencyMap;

/// The trivially-correct reference: recency order as an explicit deque
/// (front = most recent), key order recovered by sorting.
#[derive(Default)]
struct Model {
    order: VecDeque<(u16, u32)>,
}

impl Model {
    fn position(&self, key: u16) -> Option<usize> {
        self.order.iter().position(|&(k, _)| k == key)
    }

    fn get(&self, key: u16) -> Option<u32> {
        self.order.iter().find(|&&(k, _)| k == key).map(|&(_, v)| v)
    }

    fn insert_front(&mut self, key: u16, val: u32) -> Option<u32> {
        let old = self
            .position(key)
            .map(|p| self.order.remove(p).expect("position exists").1);
        self.order.push_front((key, val));
        old
    }

    fn insert_back(&mut self, key: u16, val: u32) -> Option<u32> {
        let old = self
            .position(key)
            .map(|p| self.order.remove(p).expect("position exists").1);
        self.order.push_back((key, val));
        old
    }

    fn remove(&mut self, key: u16) -> Option<u32> {
        self.position(key)
            .map(|p| self.order.remove(p).expect("position exists").1)
    }

    fn take_front(&mut self, k: usize) -> Vec<(u16, u32)> {
        let k = k.min(self.order.len());
        self.order.drain(..k).collect()
    }

    /// Most recent of the taken suffix first, like the fused map.
    fn take_back(&mut self, k: usize) -> Vec<(u16, u32)> {
        let k = k.min(self.order.len());
        let at = self.order.len() - k;
        self.order.split_off(at).into()
    }

    fn push_front_batch(&mut self, items: &[(u16, u32)]) {
        for &item in items.iter().rev() {
            self.order.push_front(item);
        }
    }

    fn push_back_batch(&mut self, items: &[(u16, u32)]) {
        for &item in items {
            self.order.push_back(item);
        }
    }

    fn keys_sorted(&self) -> Vec<u16> {
        let m: BTreeMap<u16, u32> = self.order.iter().copied().collect();
        m.into_keys().collect()
    }

    fn items(&self) -> Vec<(u16, u32)> {
        self.order.iter().copied().collect()
    }
}

/// Checks every observable of the fused map against the model.
fn assert_agree(map: &RecencyMap<u16, u32>, model: &Model) {
    map.check_invariants();
    assert_eq!(map.len(), model.order.len(), "length diverged");
    assert_eq!(map.keys_sorted(), model.keys_sorted(), "key order diverged");
    assert_eq!(
        map.items_in_recency_order(),
        model.items(),
        "recency order diverged"
    );
    assert_eq!(
        map.peek_front().map(|(k, v)| (*k, *v)),
        model.items().first().copied(),
        "peek_front diverged"
    );
    assert_eq!(
        map.peek_back().map(|(k, v)| (*k, *v)),
        model.items().last().copied(),
        "peek_back diverged"
    );
}

/// One generated operation, decoded from `(op selector, key, count)`.
fn apply(
    map: &mut RecencyMap<u16, u32>,
    model: &mut Model,
    other: &mut (RecencyMap<u16, u32>, Model),
    op: u8,
    key: u16,
    count: u8,
    val: &mut u32,
) {
    *val += 1;
    let key = key % 48; // small keyspace so re-inserts and hits are common
    let count = count as usize % 9;
    match op % 10 {
        0 => {
            assert_eq!(
                map.insert_front(key, *val),
                model.insert_front(key, *val),
                "insert_front previous value diverged"
            );
        }
        1 => {
            assert_eq!(
                map.insert_back(key, *val),
                model.insert_back(key, *val),
                "insert_back previous value diverged"
            );
        }
        2 => {
            assert_eq!(map.remove(&key), model.remove(key), "remove diverged");
        }
        3 => {
            // Sorted distinct removal batch around the key (hits and misses).
            let keys: Vec<u16> = (0..=count as u16).map(|d| key.saturating_add(d)).collect();
            let mut keys = keys;
            keys.dedup();
            let removed = map.remove_batch(&keys);
            let expected: Vec<Option<u32>> = keys.iter().map(|&k| model.remove(k)).collect();
            assert_eq!(removed, expected, "remove_batch diverged");
        }
        4 => {
            // take_front(k) — results must come back in recency order.
            assert_eq!(
                map.take_front(count),
                model.take_front(count),
                "take_front diverged"
            );
        }
        5 => {
            // take_back(k) — most recent of the suffix first.
            assert_eq!(
                map.take_back(count),
                model.take_back(count),
                "take_back diverged"
            );
        }
        6 => {
            // Batch upsert at the front (replaces present keys in place).
            let items: Vec<(u16, u32)> = (0..=count as u16)
                .filter_map(|d| {
                    key.checked_add(d * 3)
                        .map(|k| (k % 48, *val + u32::from(d)))
                })
                .collect();
            let mut seen = std::collections::BTreeSet::new();
            let items: Vec<(u16, u32)> =
                items.into_iter().filter(|(k, _)| seen.insert(*k)).collect();
            let expected: Vec<Option<u32>> = {
                // The model inserts front-most last so items[0] ends frontmost;
                // previous values must be captured in item order first.
                let prevs: Vec<Option<u32>> = items.iter().map(|&(k, _)| model.remove(k)).collect();
                for &(k, v) in items.iter().rev() {
                    model.order.push_front((k, v));
                }
                prevs
            };
            assert_eq!(
                map.insert_batch(items),
                expected,
                "insert_batch previous values diverged"
            );
        }
        7 => {
            // Inter-segment transfer: take_back(k) from this map, push_front
            // into the other — the segment-overflow cascade.  Relative
            // recency order must be preserved end to end.
            let moved = map.take_back(count);
            let expected = model.take_back(count);
            assert_eq!(moved, expected, "transfer take side diverged");
            // Drop keys already present in the destination (the real
            // cascades move between disjoint segments; the model's keyspace
            // is shared, so filter to keep the push precondition).
            let moved: Vec<(u16, u32)> = moved
                .into_iter()
                .filter(|(k, _)| other.0.get(k).is_none())
                .collect();
            other.1.push_front_batch(&moved);
            other.0.push_front_batch(moved);
        }
        8 => {
            // Inter-segment transfer in the other direction, onto the back.
            let moved = map.take_front(count);
            let expected = model.take_front(count);
            assert_eq!(moved, expected, "transfer take_front side diverged");
            let moved: Vec<(u16, u32)> = moved
                .into_iter()
                .filter(|(k, _)| other.0.get(k).is_none())
                .collect();
            other.1.push_back_batch(&moved);
            other.0.push_back_batch(moved);
        }
        _ => {
            // Read-only probes: get / get_batch / recency_rank agree.
            assert_eq!(map.get(&key).copied(), model.get(key), "get diverged");
            let keys: Vec<u16> = (0..4u16).map(|d| key.saturating_add(d)).collect();
            let got: Vec<Option<u32>> = map
                .get_batch(&keys)
                .into_iter()
                .map(|v| v.copied())
                .collect();
            let expected: Vec<Option<u32>> = keys.iter().map(|&k| model.get(k)).collect();
            assert_eq!(got, expected, "get_batch diverged");
            assert_eq!(
                map.recency_rank(&key),
                model.position(key),
                "recency_rank diverged"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The main differential drive: a generated op stream over two maps
    /// (ops apply to the first; transfer ops move items into the second),
    /// with full-surface agreement asserted after every step.
    #[test]
    fn fused_map_matches_deque_model(
        ops in prop::collection::vec((any::<u8>(), any::<u16>(), any::<u8>()), 1..60),
        fan in prop::sample::select(vec![2usize, 3, 8, 16, 64]),
    ) {
        let mut map: RecencyMap<u16, u32> = RecencyMap::with_fanout(fan);
        let mut model = Model::default();
        let mut other = (RecencyMap::with_fanout(fan), Model::default());
        let mut val = 0u32;
        for (op, key, count) in ops {
            apply(&mut map, &mut model, &mut other, op, key, count, &mut val);
            assert_agree(&map, &model);
            assert_agree(&other.0, &other.1);
        }
    }

    /// Relative-order preservation across inter-segment moves, isolated: no
    /// matter how a map was built, taking any suffix and pushing it onto
    /// another map preserves the relative recency order of both parts.
    #[test]
    fn transfers_preserve_relative_recency_order(
        keys in prop::collection::vec(any::<u16>(), 1..80),
        k in 1usize..20,
        to_front in any::<bool>(),
        fan in prop::sample::select(vec![2usize, 3, 8, 16, 64]),
    ) {
        let mut a: RecencyMap<u16, u32> = RecencyMap::with_fanout(fan);
        let mut a_model = Model::default();
        for (i, &key) in keys.iter().enumerate() {
            let key = key % 64;
            a.insert_front(key, i as u32);
            a_model.insert_front(key, i as u32);
        }
        let mut b: RecencyMap<u16, u32> = RecencyMap::with_fanout(fan);
        let mut b_model = Model::default();
        // Pre-populate the destination with disjoint keys (offset past the
        // source keyspace).
        for i in 0..8u16 {
            b.insert_back(100 + i, u32::from(i));
            b_model.insert_back(100 + i, u32::from(i));
        }
        let moved = a.take_back(k);
        prop_assert_eq!(&moved, &a_model.take_back(k));
        if to_front {
            b_model.push_front_batch(&moved);
            b.push_front_batch(moved);
        } else {
            b_model.push_back_batch(&moved);
            b.push_back_batch(moved);
        }
        assert_agree(&a, &a_model);
        assert_agree(&b, &b_model);
    }

    /// Move-to-front via re-insertion is exactly the model's LRU behaviour,
    /// and eviction via take_back pops least-recently-used first.
    #[test]
    fn lru_eviction_shape(
        accesses in prop::collection::vec(any::<u16>(), 1..120),
        evict in 1usize..16,
        fan in prop::sample::select(vec![2usize, 3, 8, 16, 64]),
    ) {
        let mut map: RecencyMap<u16, u32> = RecencyMap::with_fanout(fan);
        let mut model = Model::default();
        for (i, &key) in accesses.iter().enumerate() {
            let key = key % 32;
            assert_eq!(map.insert_front(key, i as u32), model.insert_front(key, i as u32));
        }
        assert_agree(&map, &model);
        let evicted = map.take_back(evict);
        prop_assert_eq!(&evicted, &model.take_back(evict));
        assert_agree(&map, &model);
    }
}

/// Deterministic shape pin: the exact cascade hand-off M1/M2 rely on (take
/// from the back of one segment, push to the front of the next, preserving
/// relative order even when the batch is split across several hops).
#[test]
fn multi_hop_cascade_preserves_order() {
    for fan in [2usize, 8, 16] {
        multi_hop_cascade_at(fan);
    }
}

fn multi_hop_cascade_at(fan: usize) {
    let mut segs: Vec<RecencyMap<u64, u64>> =
        (0..3).map(|_| RecencyMap::with_fanout(fan)).collect();
    for i in 0..12u64 {
        segs[0].insert_back(i, i);
    }
    // Hop 8 items to segment 1, then 4 of those onward to segment 2.
    let moved = segs[0].take_back(8);
    segs[1].push_front_batch(moved);
    let moved = segs[1].take_back(4);
    segs[2].push_front_batch(moved);
    let order = |s: &RecencyMap<u64, u64>| -> Vec<u64> {
        s.items_in_recency_order()
            .into_iter()
            .map(|x| x.0)
            .collect()
    };
    assert_eq!(order(&segs[0]), vec![0, 1, 2, 3]);
    assert_eq!(order(&segs[1]), vec![4, 5, 6, 7]);
    assert_eq!(order(&segs[2]), vec![8, 9, 10, 11]);
    for s in &segs {
        s.check_invariants();
    }
}
