//! Property-based tests: M0, M1 and M2 behave exactly like a sequential map
//! under arbitrary operation sequences, and their structural invariants hold
//! after every batch.

use proptest::prelude::*;
use std::collections::BTreeMap;
use wsm_core::{BatchedMap, OpId, OpResult, Operation, TaggedOp, M1, M2};
use wsm_seq::{IaconoMap, InstrumentedMap, SplayMap, M0};

#[derive(Clone, Debug)]
enum Op {
    Search(u8),
    Insert(u8, u16),
    Delete(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>()).prop_map(Op::Search),
        (any::<u8>(), any::<u16>()).prop_map(|(k, v)| Op::Insert(k, v)),
        (any::<u8>()).prop_map(Op::Delete),
    ]
}

fn apply_model(model: &mut BTreeMap<u64, u64>, op: &Op) -> OpResult<u64> {
    match op {
        Op::Search(k) => OpResult::Search(model.get(&(*k as u64)).copied()),
        Op::Insert(k, v) => OpResult::Insert(model.insert(*k as u64, *v as u64)),
        Op::Delete(k) => OpResult::Delete(model.remove(&(*k as u64))),
    }
}

fn to_operation(op: &Op) -> Operation<u64, u64> {
    match op {
        Op::Search(k) => Operation::Search(*k as u64),
        Op::Insert(k, v) => Operation::Insert(*k as u64, *v as u64),
        Op::Delete(k) => Operation::Delete(*k as u64),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sequential_structures_match_model(ops in prop::collection::vec(op_strategy(), 1..400)) {
        let mut model = BTreeMap::new();
        let mut m0: M0<u64, u64> = M0::new();
        let mut iacono: IaconoMap<u64, u64> = IaconoMap::new();
        let mut splay: SplayMap<u64, u64> = SplayMap::new();
        for op in &ops {
            let expected = apply_model(&mut model, op);
            let expected_val = expected.value().copied();
            let (got_m0, _) = match op {
                Op::Search(k) => m0.search(&(*k as u64)),
                Op::Insert(k, v) => m0.insert(*k as u64, *v as u64),
                Op::Delete(k) => m0.remove(&(*k as u64)),
            };
            let (got_ia, _) = match op {
                Op::Search(k) => iacono.search(&(*k as u64)),
                Op::Insert(k, v) => iacono.insert(*k as u64, *v as u64),
                Op::Delete(k) => iacono.remove(&(*k as u64)),
            };
            let (got_sp, _) = match op {
                Op::Search(k) => splay.search(&(*k as u64)),
                Op::Insert(k, v) => splay.insert(*k as u64, *v as u64),
                Op::Delete(k) => splay.remove(&(*k as u64)),
            };
            prop_assert_eq!(got_m0, expected_val);
            prop_assert_eq!(got_ia, expected_val);
            prop_assert_eq!(got_sp, expected_val);
            prop_assert_eq!(m0.len(), model.len());
            prop_assert_eq!(iacono.len(), model.len());
            prop_assert_eq!(splay.len(), model.len());
        }
        m0.check_invariants();
        iacono.check_invariants();
        splay.check_invariants();
    }

    #[test]
    fn m1_matches_model_under_arbitrary_batching(
        ops in prop::collection::vec(op_strategy(), 1..300),
        batch_size in 1usize..40,
        p in 2usize..9,
    ) {
        let mut model = BTreeMap::new();
        let mut m1 = M1::new(p);
        let mut next_id: OpId = 0;
        for chunk in ops.chunks(batch_size) {
            let expected: Vec<OpResult<u64>> = chunk.iter().map(|op| apply_model(&mut model, op)).collect();
            let base = next_id;
            let mut batch: Vec<TaggedOp<u64, u64>> = chunk.iter().map(|op| {
                let t = TaggedOp { id: next_id, op: to_operation(op) };
                next_id += 1;
                t
            }).collect();
            let mut results = Vec::new();
            m1.run_batch(&mut batch, &mut results);
            let by_id: BTreeMap<OpId, OpResult<u64>> = results.into_iter().collect();
            for (i, exp) in expected.iter().enumerate() {
                prop_assert_eq!(&by_id[&(base + i as u64)], exp);
            }
            m1.check_invariants();
            prop_assert_eq!(m1.len(), model.len());
        }
    }

    #[test]
    fn m2_matches_model_under_arbitrary_batching(
        ops in prop::collection::vec(op_strategy(), 1..300),
        batch_size in 1usize..40,
        p in 2usize..9,
    ) {
        let mut model = BTreeMap::new();
        let mut m2 = M2::new(p);
        let mut next_id: OpId = 0;
        for chunk in ops.chunks(batch_size) {
            let expected: Vec<OpResult<u64>> = chunk.iter().map(|op| apply_model(&mut model, op)).collect();
            let base = next_id;
            let mut batch: Vec<TaggedOp<u64, u64>> = chunk.iter().map(|op| {
                let t = TaggedOp { id: next_id, op: to_operation(op) };
                next_id += 1;
                t
            }).collect();
            let mut results = Vec::new();
            m2.run_batch(&mut batch, &mut results);
            let by_id: BTreeMap<OpId, OpResult<u64>> = results.into_iter().collect();
            for (i, exp) in expected.iter().enumerate() {
                prop_assert_eq!(&by_id[&(base + i as u64)], exp);
            }
            m2.check_invariants();
            prop_assert_eq!(m2.len(), model.len());
        }
    }

    /// Section 7.1 step 3 processes M2's first slab "as in M1": while M2 has
    /// no final slab, the two maps are the same machine.  Single-bunch
    /// batches (at most p² operations) over a keyspace that fits the first
    /// slab keep both on one cut batch per input batch and M2 below its
    /// final slab, so results, segment shapes and working-set order must
    /// agree after every batch.
    #[test]
    fn m2_below_final_slab_is_m1(
        raw in prop::collection::vec((0u8..4, any::<u16>(), any::<u16>()), 1..600),
        cuts in prop::collection::vec(any::<u16>(), 1..64),
    ) {
        for p in [2usize, 3, 4, 8] {
            let mut m1: M1<u64, u64> = M1::new(p);
            let mut m2: M2<u64, u64> = M2::new(p);
            let first_slab_capacity: u64 = (0..m2.first_slab_len() as u32)
                .map(wsm_seq::segment_capacity)
                .sum();
            let mut rest = raw.as_slice();
            for cut in cuts.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let b = (1 + *cut as usize % (p * p)).min(rest.len());
                let (chunk, tail) = rest.split_at(b);
                rest = tail;
                let ops: Vec<Operation<u64, u64>> = chunk.iter().map(|&(kind, k, v)| {
                    let key = k as u64 % first_slab_capacity;
                    match kind {
                        0 | 1 => Operation::Search(key),
                        2 => Operation::Insert(key, v as u64),
                        _ => Operation::Delete(key),
                    }
                }).collect();
                prop_assert_eq!(m1.run_ops(ops.clone()), m2.run_ops(ops));
                prop_assert!(m2.num_segments() <= m2.first_slab_len());
                prop_assert_eq!(m1.segment_sizes(), m2.segment_sizes());
                prop_assert_eq!(m1.snapshot_segments(), m2.snapshot_segments());
                m1.check_invariants();
                m2.check_invariants();
            }
        }
    }

    #[test]
    fn work_never_decreases_and_size_is_bounded(
        ops in prop::collection::vec(op_strategy(), 1..200),
    ) {
        let mut m1 = M1::new(4);
        let mut last_work = 0;
        let mut distinct = std::collections::BTreeSet::new();
        for (i, op) in ops.iter().enumerate() {
            if let Op::Insert(k, _) = op { distinct.insert(*k); }
            let mut batch = vec![TaggedOp { id: i as OpId, op: to_operation(op) }];
            m1.run_batch(&mut batch, &mut Vec::new());
            let work = m1.effective_work();
            prop_assert!(work >= last_work, "effective work must be monotone");
            last_work = work;
            prop_assert!(m1.len() <= distinct.len(), "size cannot exceed distinct inserted keys");
        }
    }
}
