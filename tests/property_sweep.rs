//! Oracle-differential suite for the sorted-batch sweep (`wsm_twothree::batch`).
//!
//! Every batch size takes the same one-pass sweep, so the suite drives it
//! across the sizes where a second code path used to start (31/32/33), up to
//! 512-key batches that force multi-way splits, whole-subtree removals and
//! several levels of root growth and collapse — against a `BTreeMap` model,
//! with `check_invariants` (occupancy bounds, routing keys, cached
//! height/size, slab accounting) after **every** step, at B ∈ {2, 3, 8, 16, 64}.
//! The same shapes then go through the `RecencyMap` batch surface the segment
//! cascades use, and a deterministic count test pins that the per-key node
//! count only falls as the batch grows.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use wsm_twothree::cost::metered;
use wsm_twothree::{RecencyMap, Tree23};

const FANOUTS: [usize; 5] = [2, 3, 8, 16, 64];

fn insert_checked(
    tree: &mut Tree23<u32, u32>,
    model: &mut BTreeMap<u32, u32>,
    items: &[(u32, u32)],
) {
    let replaced = tree.batch_insert(items.to_vec());
    let expected: Vec<Option<u32>> = items.iter().map(|&(k, v)| model.insert(k, v)).collect();
    assert_eq!(replaced, expected, "batch_insert previous values diverged");
    assert_agree(tree, model);
}

fn remove_checked(tree: &mut Tree23<u32, u32>, model: &mut BTreeMap<u32, u32>, keys: &[u32]) {
    let removed = tree.batch_remove(keys);
    let expected: Vec<Option<(u32, u32)>> = keys
        .iter()
        .map(|k| model.remove(k).map(|v| (*k, v)))
        .collect();
    assert_eq!(removed, expected, "batch_remove diverged");
    assert_agree(tree, model);
}

fn get_checked(tree: &Tree23<u32, u32>, model: &BTreeMap<u32, u32>, keys: &[u32]) {
    let got: Vec<Option<u32>> = tree
        .batch_get(keys)
        .into_iter()
        .map(|v| v.copied())
        .collect();
    let expected: Vec<Option<u32>> = keys.iter().map(|k| model.get(k).copied()).collect();
    assert_eq!(got, expected, "batch_get diverged");
}

fn assert_agree(tree: &Tree23<u32, u32>, model: &BTreeMap<u32, u32>) {
    tree.check_invariants();
    assert_eq!(tree.len(), model.len(), "length diverged");
    let mut items = Vec::with_capacity(tree.len());
    tree.for_each(|k, v| items.push((*k, *v)));
    assert!(
        items
            .iter()
            .copied()
            .eq(model.iter().map(|(k, v)| (*k, *v))),
        "content diverged"
    );
}

fn pairs(keys: impl IntoIterator<Item = u32>, salt: u32) -> Vec<(u32, u32)> {
    keys.into_iter()
        .map(|k| (k, k.wrapping_mul(31) ^ salt))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sweep_matches_btreemap(
        steps in prop::collection::vec(
            (prop::collection::btree_set(0u32..1500, 1..513), 0u8..5),
            1..10,
        ),
        fan in prop::sample::select(FANOUTS.to_vec()),
    ) {
        let mut model = BTreeMap::new();
        let mut tree = Tree23::with_fanout(fan);
        for (salt, (keys, op)) in steps.into_iter().enumerate() {
            let keys: Vec<u32> = keys.into_iter().collect();
            match op {
                0 | 1 => insert_checked(&mut tree, &mut model, &pairs(keys, salt as u32)),
                2 | 3 => remove_checked(&mut tree, &mut model, &keys),
                _ => get_checked(&tree, &model, &keys),
            }
        }
    }

    /// Dense removals over a dense tree: most steps delete whole subtrees,
    /// chain several levels of underflow repair and shrink the root.
    #[test]
    fn sweep_survives_wholesale_removals(
        n in 1u32..1200,
        cuts in prop::collection::vec((0u32..1200, 1u32..600, 1u32..4), 1..8),
        fan in prop::sample::select(FANOUTS.to_vec()),
    ) {
        let mut model = BTreeMap::new();
        let mut tree = Tree23::with_fanout(fan);
        insert_checked(&mut tree, &mut model, &pairs(0..n, 7));
        for (start, len, stride) in cuts {
            let keys: Vec<u32> = (start..start + len).step_by(stride as usize).collect();
            get_checked(&tree, &model, &keys);
            remove_checked(&mut tree, &mut model, &keys);
        }
    }
}

#[test]
fn batch_sizes_around_the_old_point_loop_threshold() {
    for fan in FANOUTS {
        for b in [31u32, 32, 33] {
            let mut model = BTreeMap::new();
            let mut tree = Tree23::with_fanout(fan);
            insert_checked(&mut tree, &mut model, &pairs((0..2000).map(|i| i * 3), 1));
            // Spread keys, half of them hits.
            let keys: Vec<u32> = (0..b).map(|i| i * 180 + (i % 2)).collect();
            get_checked(&tree, &model, &keys);
            insert_checked(&mut tree, &mut model, &pairs(keys.iter().copied(), 2));
            remove_checked(&mut tree, &mut model, &keys);
        }
    }
}

#[test]
fn all_miss_batches_change_nothing() {
    for fan in FANOUTS {
        let mut model = BTreeMap::new();
        let mut tree = Tree23::with_fanout(fan);
        insert_checked(&mut tree, &mut model, &pairs((0..600).map(|i| i * 2), 3));
        // Misses between items, below the minimum and above the maximum.
        let misses: Vec<u32> = (0..700).map(|i| i * 2 + 1).collect();
        get_checked(&tree, &model, &misses);
        let (_, touched_by_misses) = metered(|| remove_checked(&mut tree, &mut model, &misses));
        assert!(touched_by_misses > 0);
        let above: Vec<u32> = (5000..5100).collect();
        remove_checked(&mut tree, &mut model, &above);
        assert_eq!(tree.len(), 600);
    }
}

#[test]
fn a_batch_that_empties_the_tree() {
    for fan in FANOUTS {
        for n in [1u32, 2, 3, 17, 512, 1000] {
            let mut model = BTreeMap::new();
            let mut tree = Tree23::with_fanout(fan);
            insert_checked(&mut tree, &mut model, &pairs(0..n, 4));
            // A superset of the content, so the sweep also carries misses.
            let keys: Vec<u32> = (0..n + 5).collect();
            remove_checked(&mut tree, &mut model, &keys);
            assert!(tree.is_empty());
            assert_eq!(tree.height(), 0);
            // The emptied tree is reusable.
            insert_checked(&mut tree, &mut model, &pairs(0..n, 5));
        }
    }
}

#[test]
fn a_batch_that_removes_a_whole_internal_child() {
    for fan in FANOUTS {
        // 4096 keys make three levels up to B = 32; wider nodes need more.
        let s = if fan * fan < 4096 { 1 } else { 4 };
        let mut model = BTreeMap::new();
        let mut tree = Tree23::with_fanout(fan);
        insert_checked(&mut tree, &mut model, &pairs(0..4096 * s, 6));
        assert!(tree.height() >= 3);
        // A contiguous run wide enough to cover entire height-2 subtrees in
        // the middle of the tree, plus one straggler on either side.
        let mut keys: Vec<u32> = vec![10];
        keys.extend(1000 * s..2600 * s);
        keys.push(4000 * s);
        remove_checked(&mut tree, &mut model, &keys);
        // And one from each end, so the first and last child go.
        let keys: Vec<u32> = (0..700 * s).chain(3500 * s..4096 * s).collect();
        remove_checked(&mut tree, &mut model, &keys);
    }
}

#[test]
fn more_than_a_nodes_worth_of_leaves_under_one_leaf_parent() {
    for fan in FANOUTS {
        let mut model = BTreeMap::new();
        let mut tree = Tree23::with_fanout(fan);
        // Sparse base: neighbouring keys are 1000 apart, so every key of the
        // second batch routes to the same leaf parent.
        insert_checked(&mut tree, &mut model, &pairs((0..200).map(|i| i * 1000), 7));
        let height = tree.height();
        insert_checked(
            &mut tree,
            &mut model,
            &pairs(50_001..50_001 + 5 * fan as u32 + 7, 8),
        );
        assert!(tree.height() >= height);
        // The same below the minimum and above the maximum key.
        insert_checked(&mut tree, &mut model, &pairs(500_000..500_300, 9));
        remove_checked(&mut tree, &mut model, &[0]);
        insert_checked(&mut tree, &mut model, &pairs(0..300, 10));
    }
}

#[test]
fn the_root_grows_and_shrinks_two_levels_in_one_batch() {
    for fan in FANOUTS {
        let mut model = BTreeMap::new();
        let mut tree = Tree23::with_fanout(fan);
        insert_checked(&mut tree, &mut model, &pairs([10, 20, 30], 11));
        assert_eq!(tree.height(), 1);
        // max_children^3 leaves need at least three internal levels.
        let wide = (fan.max(3) as u32).pow(3) + 40;
        let grow: Vec<u32> = (100..100 + wide).collect();
        insert_checked(&mut tree, &mut model, &pairs(grow.iter().copied(), 12));
        assert!(tree.height() >= 3, "fan {fan}: height {}", tree.height());
        // One batch takes it back to a single leaf parent.
        remove_checked(&mut tree, &mut model, &grow);
        assert_eq!(tree.height(), 1);
        // From a single leaf and from empty.
        remove_checked(&mut tree, &mut model, &[10, 20]);
        assert_eq!(tree.height(), 0);
        insert_checked(&mut tree, &mut model, &pairs(grow.iter().copied(), 13));
        let all: Vec<u32> = model.keys().copied().collect();
        remove_checked(&mut tree, &mut model, &all);
        insert_checked(&mut tree, &mut model, &pairs(grow.iter().copied(), 14));
        assert!(tree.height() >= 3);
    }
}

#[test]
fn nodes_touched_per_key_never_rise_with_the_batch_size() {
    // The exact counter, on a fixed tree: a b-key removal must not cost more
    // per key than a smaller one — in particular not on the far side of 32,
    // where batches used to switch to a split/join recursion.
    for fan in FANOUTS {
        let base: Tree23<u32, u32> =
            Tree23::from_sorted_with_fanout((0..1 << 12).map(|i| (i, i)).collect(), fan);
        let mut previous: Option<(u64, u64)> = None;
        for b in [8u64, 16, 32, 33, 64, 128] {
            let keys: Vec<u32> = (0..b).map(|i| (i * (1 << 12) / b) as u32).collect();
            let mut tree = base.clone();
            let (removed, touched) = metered(|| tree.batch_remove(&keys));
            assert!(removed.iter().all(Option::is_some));
            tree.check_invariants();
            if let Some((prev_b, prev_touched)) = previous {
                // touched / b <= prev_touched / prev_b, in integers.
                assert!(
                    touched * prev_b <= prev_touched * b,
                    "fan {fan}: {touched} nodes for {b} keys is more per key than \
                     {prev_touched} for {prev_b}"
                );
            }
            previous = Some((b, touched));
        }
    }
}

// ---------------------------------------------------------------------------
// The locate walk
// ---------------------------------------------------------------------------

/// Tree sizes on either side of the smallest tree `RecencyMap` runs the
/// locate walk on (2^13 items).
const WALK_SIZES: [u32; 2] = [300, 10_000];

/// The walk must hand over exactly the cells `batch_get` finds, in key order.
fn locate_checked(tree: &mut Tree23<u32, u32>, keys: &[u32]) -> usize {
    let mut located = Vec::new();
    tree.locate_batch(keys, |v| located.push(*v));
    let found: Vec<u32> = tree
        .batch_get(keys)
        .into_iter()
        .flatten()
        .copied()
        .collect();
    assert_eq!(located, found, "locate walk diverged from batch_get");
    located.len()
}

/// Odd keys `1, 3, …, 2n - 1`, so every even key is a miss.
fn odd_tree(n: u32, fan: usize) -> Tree23<u32, u32> {
    Tree23::from_sorted_with_fanout(pairs((0..n).map(|i| 2 * i + 1), 15), fan)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn locate_walk_reports_the_cells_batch_get_finds(
        keys in prop::collection::btree_set(0u32..24_000, 0..300),
        n in prop::sample::select(WALK_SIZES.to_vec()),
        fan in prop::sample::select(FANOUTS.to_vec()),
    ) {
        let keys: Vec<u32> = keys.into_iter().collect();
        locate_checked(&mut odd_tree(n, fan), &keys);
    }
}

#[test]
fn locate_walk_edge_cases() {
    for fan in FANOUTS {
        let spread: Vec<u32> = (0..400).map(|i| i * 29).collect();
        assert_eq!(locate_checked(&mut Tree23::with_fanout(fan), &spread), 0);
        assert_eq!(locate_checked(&mut odd_tree(1, fan), &[0, 1, 2]), 1);
        assert_eq!(locate_checked(&mut odd_tree(1, fan), &[0, 2]), 0);
        for n in WALK_SIZES {
            let mut tree = odd_tree(n, fan);
            // Every key above the root's maximum, then a batch that runs past
            // it.
            let above: Vec<u32> = (2 * n..2 * n + 40).collect();
            assert_eq!(locate_checked(&mut tree, &above), 0);
            let across: Vec<u32> = (2 * n - 40..2 * n + 40).collect();
            assert_eq!(locate_checked(&mut tree, &across), 20);
            // All misses, between items from the bottom to the top.
            let misses: Vec<u32> = (0..n).step_by(7).map(|i| 2 * i).collect();
            assert_eq!(locate_checked(&mut tree, &misses), 0);
            // Every item.
            let all: Vec<u32> = (0..n).map(|i| 2 * i + 1).collect();
            assert_eq!(locate_checked(&mut tree, &all), n as usize);
            assert_eq!(locate_checked(&mut tree, &[]), 0);
            tree.check_invariants();
        }
    }
}

// ---------------------------------------------------------------------------
// The same shapes through the RecencyMap batch surface
// ---------------------------------------------------------------------------

/// Reference model: recency order as a deque (front = most recent).
#[derive(Default)]
struct Model {
    order: VecDeque<(u32, u32)>,
}

impl Model {
    fn remove(&mut self, key: u32) -> Option<u32> {
        let at = self.order.iter().position(|(k, _)| *k == key)?;
        self.order.remove(at).map(|(_, v)| v)
    }

    fn contains(&self, key: u32) -> bool {
        self.order.iter().any(|(k, _)| *k == key)
    }
}

fn assert_map_agrees(map: &RecencyMap<u32, u32>, model: &Model) {
    map.check_invariants();
    let items: Vec<(u32, u32)> = model.order.iter().copied().collect();
    assert_eq!(
        map.items_in_recency_order(),
        items,
        "recency order diverged"
    );
    let keys: BTreeSet<u32> = items.iter().map(|(k, _)| *k).collect();
    assert_eq!(
        map.keys_sorted(),
        keys.into_iter().collect::<Vec<_>>(),
        "key order diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn recency_map_batches_match_the_deque_model(
        steps in prop::collection::vec(
            (prop::collection::btree_set(0u32..1200, 1..513), 0u8..6, any::<u16>()),
            1..10,
        ),
        fan in prop::sample::select(FANOUTS.to_vec()),
    ) {
        let mut map: RecencyMap<u32, u32> = RecencyMap::with_fanout(fan);
        let mut model = Model::default();
        for (salt, (keys, op, count)) in steps.into_iter().enumerate() {
            let salt = salt as u32;
            // Recency order within a batch is the (scrambled) item order.
            let mut keys: Vec<u32> = keys.into_iter().collect();
            keys.sort_unstable_by_key(|k| k.wrapping_mul(2_654_435_761));
            let count = count as usize % 520;
            match op {
                0 => {
                    let mut sorted = keys.clone();
                    sorted.sort_unstable();
                    let removed = map.remove_batch(&sorted);
                    let expected: Vec<Option<u32>> =
                        sorted.iter().map(|&k| model.remove(k)).collect();
                    prop_assert_eq!(removed, expected);
                }
                1 => {
                    let fresh: Vec<(u32, u32)> =
                        pairs(keys.into_iter().filter(|&k| !model.contains(k)), salt);
                    for &item in fresh.iter().rev() {
                        model.order.push_front(item);
                    }
                    map.push_front_batch(fresh);
                }
                2 => {
                    let fresh: Vec<(u32, u32)> =
                        pairs(keys.into_iter().filter(|&k| !model.contains(k)), salt);
                    model.order.extend(fresh.iter().copied());
                    map.push_back_batch(fresh);
                }
                3 => {
                    let items = pairs(keys, salt);
                    let expected: Vec<Option<u32>> =
                        items.iter().map(|&(k, _)| model.remove(k)).collect();
                    for &item in items.iter().rev() {
                        model.order.push_front(item);
                    }
                    prop_assert_eq!(map.insert_batch(items), expected);
                }
                4 => {
                    let k = count.min(model.order.len());
                    let expected: Vec<(u32, u32)> = model.order.drain(..k).collect();
                    prop_assert_eq!(map.take_front(count), expected);
                }
                _ => {
                    let at = model.order.len() - count.min(model.order.len());
                    let expected: Vec<(u32, u32)> = model.order.drain(at..).collect();
                    prop_assert_eq!(map.take_back(count), expected);
                }
            }
            assert_map_agrees(&map, &model);
        }
    }
}

/// The batch operations the locate walk runs ahead of, on maps past its
/// gate (2^13 items, 16 keys), with batches on both sides of the key bound.
#[test]
fn recency_map_batches_past_the_locate_gate_match_the_deque_model() {
    for fan in FANOUTS {
        let mut map: RecencyMap<u32, u32> = RecencyMap::with_fanout(fan);
        let mut model = Model::default();
        // Even keys, in scrambled recency order.
        let mut keys: Vec<u32> = (0..10_000).map(|i| 2 * i).collect();
        keys.sort_unstable_by_key(|k| k.wrapping_mul(2_654_435_761));
        let base = pairs(keys, 16);
        model.order.extend(base.iter().copied());
        map.push_back_batch(base);
        assert_map_agrees(&map, &model);
        for (round, b) in [8u32, 16, 64, 300].into_iter().enumerate() {
            let salt = round as u32;
            // Hits and misses spread over the whole key range.
            let keys: Vec<u32> = (0..b).map(|i| i * (24_000 / b) + salt).collect();
            let expected: Vec<Option<u32>> = keys.iter().map(|&k| model.remove(k)).collect();
            assert_eq!(map.remove_batch(&keys), expected);
            assert_map_agrees(&map, &model);
            // Push the removed keys back at the front, the misses with them.
            let fresh = pairs(keys.iter().rev().copied(), salt);
            for &item in fresh.iter().rev() {
                model.order.push_front(item);
            }
            map.push_front_batch(fresh);
            assert_map_agrees(&map, &model);
            // A transfer's shapes: off the back, on at the front; off the
            // front, on at the back.
            let at = model.order.len() - b as usize;
            let expected: Vec<(u32, u32)> = model.order.drain(at..).collect();
            let taken = map.take_back(b as usize);
            assert_eq!(taken, expected);
            for &item in taken.iter().rev() {
                model.order.push_front(item);
            }
            map.push_front_batch(taken);
            assert_map_agrees(&map, &model);
            let expected: Vec<(u32, u32)> = model.order.drain(..b as usize).collect();
            let taken = map.take_front(b as usize);
            assert_eq!(taken, expected);
            model.order.extend(taken.iter().copied());
            map.push_back_batch(taken);
            assert_map_agrees(&map, &model);
        }
    }
}
