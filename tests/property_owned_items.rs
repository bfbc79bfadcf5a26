//! Oracle-differential suite for keys and values that own heap memory.
//!
//! Every other suite uses integer keys and values, which a layout can copy,
//! drop twice or leave behind in a vacant cell without any test noticing.
//! Here `Tree23<String, Vec<u8>>` and `RecencyMap<String, String>` run
//! through insert, remove, take and push batches at B ∈ {2, 16} against a
//! `BTreeMap` / recency-order model, with the invariant checks after every
//! step, so a value cloned into the wrong cell, dropped early or stranded
//! in a freed node shows up as a wrong or missing item.
//!
//! A right answer does not show that nothing is *kept*, so a second group
//! of tests runs keys and values of a type that counts its live instances
//! and its clones, per id, at B ∈ {2, 16, 64}: every key and value a
//! removal, a take from either end or a drain removes is dropped by the
//! time the call returns (bar the instances it hands to the caller), a
//! point removal clones no key it removes, and a node that outgrows its
//! region moves its cells into the spill buffer instead of cloning them.
//! A batch sweep may copy a key it removes further on as a routing key for
//! a moment — when a repair makes it the maximum of a node not yet swept —
//! and the live counts show that copy gone before the sweep returns.

use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use wsm_twothree::{End, RecencyMap, Tree23};

fn key(k: u16) -> String {
    format!("key-{k:05}")
}

fn bytes(k: u16, salt: u8) -> Vec<u8> {
    vec![salt; 1 + usize::from(k % 7)]
}

/// Sorted, distinct keys decoded from raw draws.
fn sorted_keys(raw: &[u16]) -> Vec<String> {
    let set: BTreeSet<u16> = raw.iter().copied().collect();
    set.into_iter().map(key).collect()
}

fn assert_tree_agrees(tree: &Tree23<String, Vec<u8>>, model: &BTreeMap<String, Vec<u8>>) {
    tree.check_invariants();
    assert_eq!(tree.len(), model.len(), "length diverged");
    let mut items = Vec::new();
    tree.for_each(|k, v| items.push((k.clone(), v.clone())));
    let expected: Vec<(String, Vec<u8>)> = model.clone().into_iter().collect();
    assert_eq!(items, expected, "contents diverged");
}

/// Most recent first, as `RecencyMap::items_in_recency_order`.
#[derive(Default)]
struct RecencyModel {
    order: VecDeque<(String, String)>,
}

impl RecencyModel {
    fn position(&self, key: &str) -> Option<usize> {
        self.order.iter().position(|(k, _)| k == key)
    }

    fn remove(&mut self, key: &str) -> Option<String> {
        let at = self.position(key)?;
        self.order.remove(at).map(|(_, v)| v)
    }

    fn take_front(&mut self, k: usize) -> Vec<(String, String)> {
        let k = k.min(self.order.len());
        self.order.drain(..k).collect()
    }

    fn take_back(&mut self, k: usize) -> Vec<(String, String)> {
        let at = self.order.len() - k.min(self.order.len());
        self.order.split_off(at).into()
    }
}

fn assert_map_agrees(map: &RecencyMap<String, String>, model: &RecencyModel) {
    map.check_invariants();
    assert_eq!(map.len(), model.order.len(), "length diverged");
    let items: Vec<(String, String)> = model.order.iter().cloned().collect();
    assert_eq!(
        map.items_in_recency_order(),
        items,
        "recency order diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Batches of owned keys and values through every tree surface: sweeps
    /// large enough to split and merge nodes (and to outgrow a node in one
    /// merge), point operations, and lookups.
    #[test]
    fn owned_tree_matches_btreemap(
        fan in prop::sample::select(vec![2usize, 16]),
        steps in prop::collection::vec(
            (0u8..4, prop::collection::vec(0u16..600, 0..120)),
            1..24,
        ),
    ) {
        let mut tree: Tree23<String, Vec<u8>> = Tree23::with_fanout(fan);
        let mut model: BTreeMap<String, Vec<u8>> = BTreeMap::new();
        for (salt, (op, raw)) in steps.into_iter().enumerate() {
            let salt = salt as u8;
            let keys = sorted_keys(&raw);
            match op {
                0 => {
                    let items: Vec<(String, Vec<u8>)> = raw
                        .iter()
                        .copied()
                        .collect::<BTreeSet<u16>>()
                        .into_iter()
                        .map(|k| (key(k), bytes(k, salt)))
                        .collect();
                    let expected: Vec<Option<Vec<u8>>> =
                        items.iter().map(|(k, v)| model.insert(k.clone(), v.clone())).collect();
                    prop_assert_eq!(tree.batch_insert(items), expected);
                }
                1 => {
                    let expected: Vec<Option<(String, Vec<u8>)>> =
                        keys.iter().map(|k| model.remove(k).map(|v| (k.clone(), v))).collect();
                    prop_assert_eq!(tree.batch_remove(&keys), expected);
                }
                2 => {
                    for (i, k) in raw.iter().enumerate() {
                        if i % 2 == 0 {
                            let v = bytes(*k, salt);
                            prop_assert_eq!(tree.insert(key(*k), v.clone()), model.insert(key(*k), v));
                        } else {
                            prop_assert_eq!(tree.remove(&key(*k)), model.remove(&key(*k)));
                        }
                    }
                }
                _ => {
                    let found: Vec<Option<Vec<u8>>> =
                        tree.batch_get(&keys).into_iter().map(|v| v.cloned()).collect();
                    let expected: Vec<Option<Vec<u8>>> =
                        keys.iter().map(|k| model.get(k).cloned()).collect();
                    prop_assert_eq!(found, expected);
                }
            }
            assert_tree_agrees(&tree, &model);
        }
        let drained = tree.into_sorted_vec();
        prop_assert_eq!(drained, model.into_iter().collect::<Vec<_>>());
    }

    /// The segment surface of the cascades — upserts, removals, takes from
    /// either end and pushes of what was taken — with owned keys and values.
    #[test]
    fn owned_recency_map_matches_model(
        fan in prop::sample::select(vec![2usize, 16]),
        steps in prop::collection::vec(
            (0u8..5, prop::collection::vec(0u16..400, 0..100), 0usize..120),
            1..24,
        ),
    ) {
        let mut map: RecencyMap<String, String> = RecencyMap::with_fanout(fan);
        let mut model = RecencyModel::default();
        for (step, (op, raw, count)) in steps.into_iter().enumerate() {
            match op {
                0 => {
                    let items: Vec<(String, String)> = raw
                        .iter()
                        .copied()
                        .collect::<BTreeSet<u16>>()
                        .into_iter()
                        .map(|k| (key(k), format!("v{step}-{k}")))
                        .collect();
                    let expected: Vec<Option<String>> =
                        items.iter().map(|(k, _)| model.remove(k)).collect();
                    for item in items.iter().rev() {
                        model.order.push_front(item.clone());
                    }
                    prop_assert_eq!(map.insert_batch(items), expected);
                }
                1 => {
                    let keys = sorted_keys(&raw);
                    let expected: Vec<Option<String>> = keys.iter().map(|k| model.remove(k)).collect();
                    prop_assert_eq!(map.remove_batch(&keys), expected);
                }
                2 => {
                    let taken = map.take_front(count);
                    prop_assert_eq!(&taken, &model.take_front(count));
                    // Back in at the other end, in the same order.
                    for item in &taken {
                        model.order.push_back(item.clone());
                    }
                    map.push_back_batch(taken);
                }
                3 => {
                    let taken = map.take_back(count);
                    prop_assert_eq!(&taken, &model.take_back(count));
                    for item in taken.iter().rev() {
                        model.order.push_front(item.clone());
                    }
                    map.push_front_batch(taken);
                }
                _ => {
                    // Taken for good: the items leave with their heap data.
                    let taken = map.take_back(count);
                    prop_assert_eq!(taken, model.take_back(count));
                }
            }
            assert_map_agrees(&map, &model);
        }
    }
}

/// Ids of the counted keys are `0..COUNTED`, of the counted values
/// `COUNTED..2 * COUNTED`.
const COUNTED: u32 = 1 << 10;

/// Id of a default instance, which is not counted: what a vacant cell or a
/// free slot holds.
const UNCOUNTED: u32 = u32::MAX;

thread_local! {
    /// Per id: live instances, and clones made.
    static LEDGER: RefCell<Vec<(i64, u64)>> = RefCell::new(vec![(0, 0); 2 * COUNTED as usize]);
}

fn ledger(id: u32, f: impl FnOnce(&mut (i64, u64))) {
    if id != UNCOUNTED {
        LEDGER.with(|l| f(&mut l.borrow_mut()[id as usize]));
    }
}

fn live(id: u32) -> i64 {
    LEDGER.with(|l| l.borrow()[id as usize].0)
}

fn clones(id: u32) -> u64 {
    LEDGER.with(|l| l.borrow()[id as usize].1)
}

/// A key or value that owns nothing but keeps books on itself.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Counted(u32);

impl Counted {
    fn new(id: u32) -> Self {
        ledger(id, |(n, _)| *n += 1);
        Counted(id)
    }
}

impl Default for Counted {
    fn default() -> Self {
        Counted(UNCOUNTED)
    }
}

impl Clone for Counted {
    fn clone(&self) -> Self {
        ledger(self.0, |(n, c)| {
            *n += 1;
            *c += 1;
        });
        Counted(self.0)
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        ledger(self.0, |(n, _)| *n -= 1);
    }
}

fn counted_item(k: u32) -> (Counted, Counted) {
    (Counted::new(k), Counted::new(COUNTED + k))
}

fn counted_keys(ids: &[u32]) -> Vec<Counted> {
    ids.iter().map(|&k| Counted::new(k)).collect()
}

/// Asserts that `ids` have `keys` live key instances and `vals` live value
/// instances each.
fn assert_held(what: &str, ids: &[u32], keys: i64, vals: i64) {
    for &k in ids {
        assert_eq!(live(k), keys, "{what}: live instances of key {k}");
        assert_eq!(
            live(COUNTED + k),
            vals,
            "{what}: live instances of value {k}"
        );
    }
}

/// Removes `k` by a point removal, which must return its value, clone
/// neither it nor its value, and keep no instance of either.
fn assert_point_removal<T>(what: &str, k: u32, remove: impl FnOnce(&Counted) -> Option<T>) {
    let before = (clones(k), clones(COUNTED + k));
    let probe = Counted::new(k);
    assert!(remove(&probe).is_some(), "{what}: key {k} present");
    drop(probe);
    assert_eq!(
        (clones(k), clones(COUNTED + k)),
        before,
        "{what}: item {k} cloned"
    );
    assert_held(what, &[k], 0, 0);
}

/// The counted ids `0..n` in a scrambled order.
fn scrambled(n: u32) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..n).collect();
    let mut x = 0x9E37_79B9u32;
    for i in (1..ids.len()).rev() {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        ids.swap(i, x as usize % (i + 1));
    }
    ids
}

const COUNTED_FANOUTS: [usize; 3] = [2, 16, 64];

#[test]
fn recency_map_removals_keep_nothing_of_what_they_remove() {
    for fan in COUNTED_FANOUTS {
        let mut map: RecencyMap<Counted, Counted> = RecencyMap::with_fanout(fan);
        let ids = scrambled(COUNTED);
        map.push_back_batch(ids.iter().map(|&k| counted_item(k)).collect());
        map.check_invariants();

        for &k in &ids[..16] {
            assert_point_removal("RecencyMap::remove", k, |probe| map.remove(probe));
        }

        // Batch removal: the probes are the caller's, the values returned.
        let mut batch: Vec<u32> = ids[16..400].iter().copied().step_by(3).collect();
        batch.sort_unstable();
        let probes = counted_keys(&batch);
        let vals = map.remove_batch(&probes);
        assert!(
            vals.iter().all(Option::is_some),
            "fan {fan}: every key present"
        );
        assert_held("remove_batch", &batch, 1, 1);
        drop((probes, vals));
        map.check_invariants();

        // Takes from either end: the items handed out, and nothing else.
        for end in [End::Front, End::Back] {
            let mut out = Vec::new();
            let taken: Vec<u32> = {
                let mut probe = map.items_in_recency_order();
                if end == End::Back {
                    probe.reverse();
                }
                probe.into_iter().take(100).map(|(k, _)| k.0).collect()
            };
            map.take_into(end, 100, &mut out);
            assert_eq!(out.len(), 100);
            assert_held("take_into", &taken, 1, 1);
            out.clear();
            map.check_invariants();
        }

        // A drain to empty keeps no instance of anything.
        let rest: Vec<u32> = map.keys_sorted().iter().map(|k| k.0).collect();
        let drained = map.take_back(map.len());
        assert_held("drain", &rest, 1, 1);
        drop(drained);
        assert!(map.is_empty());
        map.check_invariants();
        for k in 0..COUNTED {
            assert_eq!(
                (live(k), live(COUNTED + k)),
                (0, 0),
                "fan {fan}: item {k} kept"
            );
        }
    }
}

#[test]
fn tree_removals_keep_nothing_of_what_they_remove() {
    for fan in COUNTED_FANOUTS {
        let items: Vec<(Counted, Counted)> = (0..COUNTED).map(counted_item).collect();
        let mut tree = Tree23::from_sorted_with_fanout(items, fan);

        // Dense batches, so many height-1 nodes lose several cells at once.
        let ids = scrambled(COUNTED);
        for chunk in ids.chunks(COUNTED as usize / 4) {
            let mut batch = chunk.to_vec();
            batch.sort_unstable();
            let probes = counted_keys(&batch);
            let removed = tree.batch_remove(&probes);
            // The caller's probe and the item handed out.
            assert_held("batch_remove", &batch, 2, 1);
            assert!(removed.iter().all(Option::is_some));
            drop((probes, removed));
            tree.check_invariants();
        }
        assert!(tree.is_empty());
        for k in 0..COUNTED {
            assert_eq!(
                (live(k), live(COUNTED + k)),
                (0, 0),
                "fan {fan}: item {k} kept"
            );
        }

        // Point removals, down to an empty tree.
        let items: Vec<(Counted, Counted)> = (0..256).map(counted_item).collect();
        let mut tree = Tree23::from_sorted_with_fanout(items, fan);
        for k in scrambled(256) {
            assert_point_removal("Tree23::remove", k, |probe| tree.remove(probe));
        }
        tree.check_invariants();
        for k in 0..256 {
            assert_eq!(
                (live(k), live(COUNTED + k)),
                (0, 0),
                "fan {fan}: item {k} kept"
            );
        }
    }
}

#[test]
fn a_spilling_node_moves_its_cells() {
    for fan in COUNTED_FANOUTS {
        // A tree of one full height-1 node (`max(3, B)` cells, even ids),
        // then a sweep of as many keys between them (odd ids): the node
        // merges past its region into the spill buffer, and its parent-to-be
        // cuts it into two.  Only the routing keys of the three nodes that
        // result are copies.
        let full = fan.max(3) as u32;
        let items: Vec<(Counted, Counted)> = (0..full).map(|k| counted_item(2 * k)).collect();
        let mut tree = Tree23::from_sorted_with_fanout(items, fan);
        let all_clones = || (0..2 * full).map(clones).sum::<u64>();
        let before = all_clones();
        let fresh: Vec<(Counted, Counted)> = (0..full).map(|k| counted_item(2 * k + 1)).collect();
        tree.batch_insert(fresh);
        tree.check_invariants();
        let cloned = all_clones() - before;
        assert!(
            cloned <= 3,
            "fan {fan}: the spill cloned {cloned} keys for three routing keys"
        );
        for k in 0..2 * full {
            assert_eq!(live(COUNTED + k), 1, "fan {fan}: value {k}");
        }
    }
}
