//! Workspace integration tests: M1 and M2 driven end-to-end through realistic
//! workloads, checked against a sequential model and against the working-set
//! bound, with structural invariants verified after every batch.

use std::collections::BTreeMap;
use wsm_core::{BatchedMap, OpId, OpResult, Operation, TaggedOp, M1, M2};
use wsm_model::{working_set_bound, MapOpKind};
use wsm_seq::{InstrumentedMap, M0};
use wsm_workloads::{Pattern, WorkloadSpec};

fn to_ops(kinds: &[MapOpKind<u64>]) -> Vec<Operation<u64, u64>> {
    kinds
        .iter()
        .map(|k| match k {
            MapOpKind::Search(k) => Operation::Search(*k),
            MapOpKind::Insert(k) => Operation::Insert(*k, *k * 7),
            MapOpKind::Delete(k) => Operation::Delete(*k),
        })
        .collect()
}

fn model_apply(model: &mut BTreeMap<u64, u64>, ops: &[Operation<u64, u64>]) -> Vec<OpResult<u64>> {
    ops.iter()
        .map(|op| match op {
            Operation::Search(k) => OpResult::Search(model.get(k).copied()),
            Operation::Insert(k, v) => OpResult::Insert(model.insert(*k, *v)),
            Operation::Delete(k) => OpResult::Delete(model.remove(k)),
        })
        .collect()
}

fn drive_batched<M: BatchedMap<u64, u64>>(
    map: &mut M,
    kinds: &[MapOpKind<u64>],
    batch: usize,
    check: impl Fn(&mut M),
) {
    let mut model = BTreeMap::new();
    let mut next_id: OpId = 0;
    for chunk in to_ops(kinds).chunks(batch) {
        let tagged: Vec<TaggedOp<u64, u64>> = chunk
            .iter()
            .cloned()
            .map(|op| {
                let t = TaggedOp { id: next_id, op };
                next_id += 1;
                t
            })
            .collect();
        let base = next_id - tagged.len() as u64;
        let expected = model_apply(&mut model, chunk);
        let (results, _) = map.run_batch(tagged);
        let by_id: BTreeMap<OpId, OpResult<u64>> = results.into_iter().collect();
        for (i, exp) in expected.iter().enumerate() {
            assert_eq!(&by_id[&(base + i as u64)], exp, "operation {i} in chunk");
        }
        assert_eq!(map.len(), model.len());
        check(map);
    }
}

#[test]
fn m1_matches_model_on_mixed_zipf_workload() {
    let mut spec = WorkloadSpec::read_only(1 << 11, 1 << 13, Pattern::Zipf(1.0), 17);
    spec.update_fraction = 0.3;
    let kinds = spec.full_sequence();
    let mut m1 = M1::new(4);
    drive_batched(&mut m1, &kinds, 48, |m| m.check_invariants());
}

#[test]
fn m2_matches_model_on_mixed_zipf_workload() {
    let mut spec = WorkloadSpec::read_only(1 << 11, 1 << 13, Pattern::Zipf(1.0), 18);
    spec.update_fraction = 0.3;
    let kinds = spec.full_sequence();
    let mut m2 = M2::new(4);
    drive_batched(&mut m2, &kinds, 48, |m| m.check_invariants());
}

#[test]
fn m1_and_m2_agree_with_each_other_across_patterns() {
    for pattern in [
        Pattern::HotSet {
            hot: 8,
            miss_rate: 0.1,
        },
        Pattern::Uniform,
        Pattern::SequentialScan,
        Pattern::Adversarial,
    ] {
        let mut spec = WorkloadSpec::read_only(1 << 10, 1 << 12, pattern, 23);
        spec.update_fraction = 0.2;
        let kinds = spec.full_sequence();
        let ops = to_ops(&kinds);
        let mut m1 = M1::new(8);
        let mut m2 = M2::new(8);
        let mut model = BTreeMap::new();
        let mut next_id = 0u64;
        for chunk in ops.chunks(64) {
            let mk = |next_id: &mut u64| -> Vec<TaggedOp<u64, u64>> {
                chunk
                    .iter()
                    .cloned()
                    .map(|op| {
                        let t = TaggedOp { id: *next_id, op };
                        *next_id += 1;
                        t
                    })
                    .collect()
            };
            let batch1 = mk(&mut next_id);
            let mut id2 = batch1.first().map(|t| t.id).unwrap_or(0);
            let batch2: Vec<TaggedOp<u64, u64>> = chunk
                .iter()
                .cloned()
                .map(|op| {
                    let t = TaggedOp { id: id2, op };
                    id2 += 1;
                    t
                })
                .collect();
            let expected = model_apply(&mut model, chunk);
            let (r1, _) = m1.run_batch(batch1);
            let (r2, _) = m2.run_batch(batch2);
            let r1: BTreeMap<_, _> = r1.into_iter().collect();
            let r2: BTreeMap<_, _> = r2.into_iter().collect();
            for (i, exp) in expected.iter().enumerate() {
                let id = r1.keys().copied().min().unwrap_or(0) + i as u64;
                assert_eq!(&r1[&id], exp, "{pattern:?}");
                assert_eq!(&r2[&id], exp, "{pattern:?}");
            }
        }
        assert_eq!(m1.len(), model.len());
        assert_eq!(m2.len(), model.len());
    }
}

#[test]
fn effective_work_of_all_structures_respects_working_set_bound_shape() {
    // On a high-locality workload, every working-set structure must stay
    // within a (generous) constant factor of W_L, while differing from the
    // uniform workload by a large margin.
    let hot = WorkloadSpec::read_only(
        1 << 12,
        1 << 14,
        Pattern::HotSet {
            hot: 8,
            miss_rate: 0.02,
        },
        3,
    )
    .full_sequence();
    let uniform = WorkloadSpec::read_only(1 << 12, 1 << 14, Pattern::Uniform, 3).full_sequence();

    let work_of = |kinds: &[MapOpKind<u64>]| -> (u64, u64, u64) {
        let mut m0 = M0::new();
        let mut m0_work = 0;
        for k in kinds {
            let (_, c) = match k {
                MapOpKind::Search(k) => m0.search(k),
                MapOpKind::Insert(k) => m0.insert(*k, *k),
                MapOpKind::Delete(k) => m0.remove(k),
            };
            m0_work += c.work;
        }
        let mut m1 = M1::new(8);
        let mut m2 = M2::new(8);
        let mut id = 0u64;
        for chunk in to_ops(kinds).chunks(64) {
            let mk: Vec<TaggedOp<u64, u64>> = chunk
                .iter()
                .cloned()
                .map(|op| {
                    let t = TaggedOp { id, op };
                    id += 1;
                    t
                })
                .collect();
            m1.run_batch(mk.clone());
            m2.run_batch(mk);
        }
        (m0_work, m1.effective_work(), m2.effective_work())
    };

    let wl_hot = working_set_bound(&hot) as f64;
    let wl_uniform = working_set_bound(&uniform) as f64;
    let (h0, h1, h2) = work_of(&hot);
    let (u0, u1, u2) = work_of(&uniform);

    // Constant-factor tracking of W_L on the hot workload.
    assert!((h0 as f64) < 30.0 * wl_hot);
    assert!((h1 as f64) < 80.0 * wl_hot);
    assert!((h2 as f64) < 80.0 * wl_hot);
    // The hot workload is much cheaper than uniform for every structure,
    // mirroring the gap in the bounds themselves.
    assert!(wl_hot * 2.0 < wl_uniform);
    assert!(h0 * 2 < u0);
    // M1 and M2 entropy-sort every 64-op cut batch before a segment is
    // touched; that charge depends on the batch's key multiset only, not on
    // where the items sit, so the 2x gap is asserted on the work the
    // segments did (total minus the sort charge, which is a pure function
    // of each chunk's keys).
    let sort_work_of = |kinds: &[MapOpKind<u64>]| -> u64 {
        to_ops(kinds)
            .chunks(64)
            .map(|chunk| {
                let keys: Vec<u64> = chunk.iter().map(|op| *op.key()).collect();
                wsm_sort::pesort_group(&keys).1.work
            })
            .sum()
    };
    let (hs, us) = (sort_work_of(&hot), sort_work_of(&uniform));
    assert!((h1 - hs) * 2 < u1 - us);
    assert!((h2 - hs) * 2 < u2 - us);
}

#[test]
fn deletions_shrink_and_rebuild_correctly() {
    let mut m1 = M1::new(4);
    let mut m2 = M2::new(4);
    let n = 4000u64;
    let inserts: Vec<MapOpKind<u64>> = (0..n).map(MapOpKind::Insert).collect();
    let deletes: Vec<MapOpKind<u64>> = (0..n)
        .filter(|k| k % 2 == 0)
        .map(MapOpKind::Delete)
        .collect();
    let reinserts: Vec<MapOpKind<u64>> = (0..n)
        .filter(|k| k % 4 == 0)
        .map(MapOpKind::Insert)
        .collect();
    for kinds in [&inserts, &deletes, &reinserts] {
        let mut id = 0u64;
        for chunk in to_ops(kinds).chunks(50) {
            let batch: Vec<TaggedOp<u64, u64>> = chunk
                .iter()
                .cloned()
                .map(|op| {
                    let t = TaggedOp { id, op };
                    id += 1;
                    t
                })
                .collect();
            m1.run_batch(batch.clone());
            m2.run_batch(batch);
            m1.check_invariants();
            m2.check_invariants();
        }
    }
    let expected = (n / 2 + n / 4) as usize;
    assert_eq!(m1.len(), expected);
    assert_eq!(m2.len(), expected);
}
