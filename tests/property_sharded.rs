//! Oracle-differential property suite for [`wsm_shard::ShardedMap`].
//!
//! Single-threaded differential testing over the full batch-op surface:
//! random sequences of mixed `run_batch` batches (plus the
//! `get_batch`/`insert_batch`/`remove_batch` conveniences and the point-op
//! API) are applied to a `ShardedMap` at `S ∈ {1, 2, 4}` and to a plain
//! `BTreeMap` oracle, asserting every returned result — and the final
//! contents — match exactly.  Because the submitter is single-threaded, the
//! sharded map must behave *identically* to the oracle: routing each
//! operation into its shard's buffer and handing its result back through its
//! own cell may not reorder, drop or duplicate anything.  (Concurrent
//! histories are covered per shard in `property_concurrent.rs`.)

use proptest::prelude::*;
use std::collections::BTreeMap;
use wsm_core::{OpResult, Operation, M1, M2};
use wsm_shard::ShardedMap;

/// Decodes `(kind, key)` pairs into operations with globally unique insert
/// values, so the oracle distinguishes every write.
fn decode_batch(raw: &[(u8, u8)], unique: &mut u64) -> Vec<Operation<u64, u64>> {
    raw.iter()
        .map(|&(kind, key)| {
            let key = u64::from(key);
            match kind {
                0 | 1 => Operation::Search(key),
                2 | 3 => {
                    *unique += 1;
                    Operation::Insert(key, *unique)
                }
                _ => Operation::Delete(key),
            }
        })
        .collect()
}

/// What the oracle says a batch must return, applying ops in input order.
fn oracle_batch(model: &mut BTreeMap<u64, u64>, ops: &[Operation<u64, u64>]) -> Vec<OpResult<u64>> {
    ops.iter()
        .map(|op| match op {
            Operation::Search(k) => OpResult::Search(model.get(k).copied()),
            Operation::Insert(k, v) => OpResult::Insert(model.insert(*k, *v)),
            Operation::Delete(k) => OpResult::Delete(model.remove(k)),
        })
        .collect()
}

/// Drains `map` and `model` into sorted pairs for the final-contents check.
fn final_contents<M>(map: &ShardedMap<u64, u64, M>, keys: u64) -> Vec<(u64, u64)>
where
    M: wsm_core::BatchedMap<u64, u64> + Send,
{
    let found = map.get_batch((0..keys).collect());
    (0..keys)
        .zip(found)
        .filter_map(|(k, v)| v.map(|v| (k, v)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `ShardedMap` over M1 ≡ `BTreeMap` for every batch, at S ∈ {1, 2, 4}.
    #[test]
    fn sharded_m1_batches_match_btreemap(
        batches in prop::collection::vec(
            prop::collection::vec((0u8..5, 0u8..24), 0..24),
            1..8,
        )
    ) {
        for shards in [1usize, 2, 4] {
            let map = ShardedMap::with_shards(shards, |_| M1::<u64, u64>::new(4));
            let mut model = BTreeMap::new();
            let mut unique = 0u64;
            for raw in &batches {
                let ops = decode_batch(raw, &mut unique);
                let expected = oracle_batch(&mut model, &ops);
                prop_assert_eq!(map.run_batch(ops), expected, "S={}", shards);
            }
            prop_assert_eq!(map.len(), model.len(), "S={}", shards);
            let model_pairs: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
            prop_assert_eq!(final_contents(&map, 24), model_pairs, "S={}", shards);
        }
    }

    /// The convenience wrappers (`insert_batch` / `get_batch` /
    /// `remove_batch`) and the point-op API agree with the oracle too, over
    /// M2.
    #[test]
    fn sharded_m2_surface_matches_btreemap(
        rounds in prop::collection::vec(
            (prop::collection::vec(0u8..24, 1..16), 0u8..3),
            1..6,
        )
    ) {
        for shards in [1usize, 2, 4] {
            let map = ShardedMap::with_shards(shards, |_| M2::<u64, u64>::new(2));
            let mut model = BTreeMap::new();
            let mut unique = 0u64;
            for (keys, surface) in &rounds {
                let keys: Vec<u64> = keys.iter().map(|&k| u64::from(k)).collect();
                match surface {
                    0 => {
                        let pairs: Vec<(u64, u64)> = keys
                            .iter()
                            .map(|&k| {
                                unique += 1;
                                (k, unique)
                            })
                            .collect();
                        let expected: Vec<Option<u64>> =
                            pairs.iter().map(|&(k, v)| model.insert(k, v)).collect();
                        prop_assert_eq!(map.insert_batch(pairs), expected, "S={}", shards);
                    }
                    1 => {
                        let expected: Vec<Option<u64>> =
                            keys.iter().map(|k| model.get(k).copied()).collect();
                        prop_assert_eq!(map.get_batch(keys), expected, "S={}", shards);
                    }
                    _ => {
                        let expected: Vec<Option<u64>> =
                            keys.iter().map(|k| model.remove(k)).collect();
                        prop_assert_eq!(map.remove_batch(keys), expected, "S={}", shards);
                    }
                }
            }
            // Point-op surface over the surviving contents.
            for k in 0..24u64 {
                prop_assert_eq!(map.get(k), model.get(&k).copied(), "S={}", shards);
            }
            prop_assert_eq!(map.len(), model.len(), "S={}", shards);
        }
    }
}

/// Routing invariant, directly: whatever batch shape comes in, each key's
/// results must be those of the shard that owns it — searching right after a
/// mixed batch observes exactly the batch's per-key net effect.
#[test]
fn mixed_batch_net_effect_is_observable() {
    let map = ShardedMap::with_shards(4, |_| M1::<u64, u64>::new(4));
    let results = map.run_batch(vec![
        Operation::Insert(3, 30),
        Operation::Insert(9, 90),
        Operation::Delete(3),
        Operation::Insert(3, 31),
        Operation::Search(9),
        Operation::Delete(14),
    ]);
    assert_eq!(
        results,
        vec![
            OpResult::Insert(None),
            OpResult::Insert(None),
            OpResult::Delete(Some(30)),
            OpResult::Insert(None),
            OpResult::Search(Some(90)),
            OpResult::Delete(None),
        ]
    );
    assert_eq!(
        map.get_batch(vec![3, 9, 14]),
        vec![Some(31), Some(90), None]
    );
}
