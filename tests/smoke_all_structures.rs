//! Workspace smoke test: every public map structure in the workspace agrees
//! with `std::collections::BTreeMap` on the same randomized operation
//! sequence.
//!
//! This is the fast cross-structure oracle future refactors run first: it
//! covers the sequential structures (`M0`, `IaconoMap`, `SplayMap`, `AvlMap`),
//! the raw 2-3 tree (`Tree23`), and the batched parallel maps (`M1`, `M2`)
//! driven through `run_batch`, all on one deterministic pseudo-random mixed
//! workload of searches, inserts and deletes over a small key space (so that
//! hits, misses, replacements and re-inserts all occur).

use std::collections::BTreeMap;
use wsm_core::{BatchedMap, OpId, OpResult, Operation, TaggedOp, M1, M2};
use wsm_seq::{AvlMap, IaconoMap, InstrumentedMap, SplayMap, M0};
use wsm_twothree::Tree23;

#[derive(Clone, Copy, Debug)]
enum Op {
    Search(u64),
    Insert(u64, u64),
    Delete(u64),
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn random_ops(n: usize, key_space: u64, seed: u64) -> Vec<Op> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            let key = xorshift(&mut state) % key_space;
            match xorshift(&mut state) % 4 {
                0 | 1 => Op::Search(key),
                2 => Op::Insert(key, xorshift(&mut state)),
                _ => Op::Delete(key),
            }
        })
        .collect()
}

/// Applies one op to the model and returns the expected affected value.
fn model_step(model: &mut BTreeMap<u64, u64>, op: Op) -> Option<u64> {
    match op {
        Op::Search(k) => model.get(&k).copied(),
        Op::Insert(k, v) => model.insert(k, v),
        Op::Delete(k) => model.remove(&k),
    }
}

fn check_sequential<M: InstrumentedMap<u64, u64>>(name: &str, map: &mut M, ops: &[Op]) {
    let mut model = BTreeMap::new();
    for (i, &op) in ops.iter().enumerate() {
        let expected = model_step(&mut model, op);
        let (got, _) = match op {
            Op::Search(k) => map.search(&k),
            Op::Insert(k, v) => map.insert(k, v),
            Op::Delete(k) => map.remove(&k),
        };
        assert_eq!(
            got, expected,
            "{name}: op {i} ({op:?}) disagrees with BTreeMap"
        );
        assert_eq!(map.len(), model.len(), "{name}: size diverged at op {i}");
    }
}

#[test]
fn sequential_structures_agree_with_btreemap() {
    let ops = random_ops(3_000, 96, 0xFEED);
    check_sequential("M0", &mut M0::new(), &ops);
    check_sequential("IaconoMap", &mut IaconoMap::new(), &ops);
    check_sequential("SplayMap", &mut SplayMap::new(), &ops);
    check_sequential("AvlMap", &mut AvlMap::new(), &ops);
}

#[test]
fn tree23_agrees_with_btreemap() {
    // Tree23 is not an InstrumentedMap; drive its single-item API directly.
    let ops = random_ops(3_000, 96, 0xBEEF);
    let mut model = BTreeMap::new();
    let mut tree: Tree23<u64, u64> = Tree23::new();
    for (i, &op) in ops.iter().enumerate() {
        let expected = model_step(&mut model, op);
        let got = match op {
            Op::Search(k) => tree.get(&k).copied(),
            Op::Insert(k, v) => tree.insert(k, v),
            Op::Delete(k) => tree.remove(&k),
        };
        assert_eq!(
            got, expected,
            "Tree23: op {i} ({op:?}) disagrees with BTreeMap"
        );
        assert_eq!(tree.len(), model.len(), "Tree23: size diverged at op {i}");
    }
    tree.check_invariants();
}

fn check_batched<M: BatchedMap<u64, u64>>(name: &str, map: &mut M, ops: &[Op], batch: usize) {
    let mut model = BTreeMap::new();
    let mut next_id: OpId = 0;
    for chunk in ops.chunks(batch) {
        let base = next_id;
        let expected: Vec<Option<u64>> =
            chunk.iter().map(|&op| model_step(&mut model, op)).collect();
        let mut tagged: Vec<TaggedOp<u64, u64>> = chunk
            .iter()
            .map(|&op| {
                let t = TaggedOp {
                    id: next_id,
                    op: match op {
                        Op::Search(k) => Operation::Search(k),
                        Op::Insert(k, v) => Operation::Insert(k, v),
                        Op::Delete(k) => Operation::Delete(k),
                    },
                };
                next_id += 1;
                t
            })
            .collect();
        let mut results = Vec::new();
        map.run_batch(&mut tagged, &mut results);
        let by_id: BTreeMap<OpId, OpResult<u64>> = results.into_iter().collect();
        for (i, exp) in expected.iter().enumerate() {
            let got = by_id[&(base + i as OpId)].value().copied();
            assert_eq!(
                &got, exp,
                "{name}: op {i} of chunk at base {base} disagrees with BTreeMap"
            );
        }
        assert_eq!(map.len(), model.len(), "{name}: size diverged");
    }
}

#[test]
fn batched_maps_agree_with_btreemap() {
    let ops = random_ops(3_000, 96, 0xC0DE);
    check_batched("M1", &mut M1::new(4), &ops, 33);
    check_batched("M2", &mut M2::new(4), &ops, 33);
}
