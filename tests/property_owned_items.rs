//! Oracle-differential suite for keys and values that own heap memory.
//!
//! Every other suite uses integer keys and values, which a layout can copy,
//! drop twice or leave behind in a vacant cell without any test noticing.
//! Here `Tree23<String, Vec<u8>>` and `RecencyMap<String, String>` run
//! through insert, remove, take and push batches at B ∈ {2, 16} against a
//! `BTreeMap` / recency-order model, with the invariant checks after every
//! step, so a value cloned into the wrong cell, dropped early or stranded
//! in a freed node shows up as a wrong or missing item.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use wsm_twothree::{RecencyMap, Tree23};

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
