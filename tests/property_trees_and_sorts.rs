//! Property-based tests for the substrates: the batched fanout-B tree (swept
//! over B in {2, 8, 16}, B = 2 being the paper's 2-3 shape) against a
//! `BTreeMap` model, the recency map's ordering laws, and the entropy sorts'
//! correctness, stability and bound-tracking.

use proptest::prelude::*;
use std::collections::BTreeMap;
use wsm_model::insert_working_set_bound;
use wsm_sort::{esort, pesort, pesort_group};
use wsm_twothree::{RecencyMap, Tree23};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn tree23_batch_ops_match_btreemap(
        batches in prop::collection::vec(
            (prop::collection::btree_set(any::<u16>(), 1..60), any::<bool>()),
            1..12,
        ),
        fan in prop::sample::select(vec![2usize, 8, 16]),
    ) {
        let mut model: BTreeMap<u16, u16> = BTreeMap::new();
        let mut tree: Tree23<u16, u16> = Tree23::with_fanout(fan);
        for (keys, is_insert) in batches {
            let keys: Vec<u16> = keys.into_iter().collect();
            if is_insert {
                let items: Vec<(u16, u16)> = keys.iter().map(|&k| (k, k.wrapping_mul(3))).collect();
                let replaced = tree.batch_insert(items.clone());
                for ((k, v), r) in items.into_iter().zip(replaced) {
                    prop_assert_eq!(r, model.insert(k, v));
                }
            } else {
                let removed = tree.batch_remove(&keys);
                for (k, r) in keys.iter().zip(removed) {
                    prop_assert_eq!(r.map(|(_, v)| v), model.remove(k));
                }
            }
            tree.check_invariants();
            prop_assert_eq!(tree.len(), model.len());
        }
        for (k, v) in &model {
            prop_assert_eq!(tree.get(k), Some(v));
        }
    }

    #[test]
    fn recency_map_pop_order_is_lru(
        keys in prop::collection::vec(any::<u16>(), 1..100),
    ) {
        // Insert each key at the front in sequence (re-inserting moves it to
        // the front); popping from the back must yield least-recently-used
        // keys first.
        let mut map: RecencyMap<u16, ()> = RecencyMap::new();
        for &k in &keys {
            map.remove(&k);
            map.insert_front(k, ());
        }
        // Expected LRU order: last occurrence position, ascending.
        let mut last_pos: BTreeMap<u16, usize> = BTreeMap::new();
        for (i, &k) in keys.iter().enumerate() {
            last_pos.insert(k, i);
        }
        let mut expected: Vec<(usize, u16)> = last_pos.into_iter().map(|(k, i)| (i, k)).collect();
        expected.sort();
        let expected_lru: Vec<u16> = expected.into_iter().map(|(_, k)| k).collect();
        let popped: Vec<u16> = map.take_back(expected_lru.len()).into_iter().map(|(k, _)| k).collect();
        // pop_back returns most-recent-first of the popped suffix, so reverse.
        let popped_lru: Vec<u16> = popped.into_iter().rev().collect();
        prop_assert_eq!(popped_lru, expected_lru);
    }

    #[test]
    fn sorts_agree_with_std_and_group_correctly(
        items in prop::collection::vec(0u16..64, 0..400),
    ) {
        let mut expected = items.clone();
        expected.sort();
        let (e, _) = esort(&items);
        let (p, _) = pesort(items.clone());
        prop_assert_eq!(&e, &expected);
        prop_assert_eq!(&p, &expected);

        let (groups, _) = pesort_group(&items);
        // Groups are in ascending key order and positions are increasing.
        prop_assert!(groups.windows(2).all(|w| w[0].0 < w[1].0));
        let mut total = 0;
        for (key, positions) in &groups {
            prop_assert!(positions.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(positions.iter().all(|&i| items[i] == *key));
            total += positions.len();
        }
        prop_assert_eq!(total, items.len());
    }

    #[test]
    fn esort_work_is_within_constant_factor_of_iwl(
        items in prop::collection::vec(0u16..32, 50..500),
    ) {
        let (_, cost) = esort(&items);
        let iw = insert_working_set_bound(&items).max(1);
        prop_assert!(
            cost.work < 60 * iw,
            "ESort work {} vs IW_L {}", cost.work, iw
        );
    }
}
