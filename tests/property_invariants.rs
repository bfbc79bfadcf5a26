//! Deletion-heavy invariant stress for the working-set maps.
//!
//! PR 4 tightened `M2::check_invariants` from a `3p²` prefix-deficit
//! allowance to Lemma 16's `2p²`, backed by the eager hole-refill maintenance
//! cascade.  These tests interleave cut batches with `check_invariants` after
//! *every* run — exactly the pattern that exposes a maintenance scheduler
//! that lets refill deficits linger behind a balanced boundary (the old
//! conditional cascade needed the `3p²` escape hatch to survive this file).
//!
//! The measured-charge ceilings (`wsm_twothree::cost::MEASURED_CEILING`) are
//! debug assertions inside every charge the maps pay, so simply driving these
//! workloads in the test profile also pins measured work ≤ Lemma bound on
//! random batches.

use proptest::prelude::*;
use std::collections::BTreeMap;
use wsm_core::{BatchedMap, OpId, OpResult, Operation, TaggedOp, M1, M2};

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Runs one tagged batch against map and model, checking results and sizes.
fn run_round<M: BatchedMap<u64, u64>>(
    map: &mut M,
    model: &mut BTreeMap<u64, u64>,
    ops: Vec<Operation<u64, u64>>,
    next_id: &mut OpId,
) {
    let base = *next_id;
    let expected: Vec<OpResult<u64>> = ops
        .iter()
        .map(|op| match op {
            Operation::Search(k) => OpResult::Search(model.get(k).copied()),
            Operation::Insert(k, v) => OpResult::Insert(model.insert(*k, *v)),
            Operation::Delete(k) => OpResult::Delete(model.remove(k)),
        })
        .collect();
    let batch: Vec<TaggedOp<u64, u64>> = ops
        .into_iter()
        .map(|op| {
            let t = TaggedOp { id: *next_id, op };
            *next_id += 1;
            t
        })
        .collect();
    let (results, _) = map.run_batch(batch);
    let by_id: BTreeMap<OpId, OpResult<u64>> = results.into_iter().collect();
    for (i, exp) in expected.iter().enumerate() {
        assert_eq!(&by_id[&(base + i as u64)], exp, "result {i} diverged");
    }
    assert_eq!(map.len(), model.len());
}

/// Builds one deletion-heavy batch: ~60% deletes of keys currently present,
/// the rest searches and fresh inserts.
fn deletion_heavy_batch(
    model: &BTreeMap<u64, u64>,
    size: usize,
    state: &mut u64,
    fresh_base: &mut u64,
) -> Vec<Operation<u64, u64>> {
    let present: Vec<u64> = model.keys().copied().collect();
    (0..size)
        .map(|_| {
            let roll = xorshift(state) % 10;
            if roll < 6 && !present.is_empty() {
                Operation::Delete(present[(xorshift(state) % present.len() as u64) as usize])
            } else if roll < 8 && !present.is_empty() {
                Operation::Search(present[(xorshift(state) % present.len() as u64) as usize])
            } else {
                *fresh_base += 1;
                Operation::Insert(*fresh_base, *fresh_base)
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The test that would have caught the 3p² relaxation: grow M2 far enough
    /// to have a final slab, then hammer it with delete-dominated cut batches
    /// and assert the full Lemma 16 invariant set (2p² prefix deficit, 2p²
    /// filter bound) after every single run.
    #[test]
    fn m2_deletion_heavy_keeps_lemma16_invariants(
        p in 2usize..7,
        seed in any::<u64>(),
        rounds in 4usize..12,
    ) {
        let mut state = seed | 1;
        let mut model = BTreeMap::new();
        let mut m2 = M2::new(p);
        let mut next_id: OpId = 0;
        // Load enough items that the final slab exists even for small p.
        let load = 1500 + (xorshift(&mut state) % 1000);
        run_round(
            &mut m2,
            &mut model,
            (0..load).map(|i| Operation::Insert(i, i)).collect(),
            &mut next_id,
        );
        m2.check_invariants();
        prop_assert!(m2.num_segments() > m2.first_slab_len(), "need a final slab");

        let mut fresh_base = load;
        for _ in 0..rounds {
            let size = 1 + (xorshift(&mut state) as usize % (2 * p * p));
            let ops = deletion_heavy_batch(&model, size, &mut state, &mut fresh_base);
            run_round(&mut m2, &mut model, ops, &mut next_id);
            m2.check_invariants();
        }
    }

    /// Same pressure on M1 (whose invariant is stricter: every non-terminal
    /// segment exactly full after each batch).
    #[test]
    fn m1_deletion_heavy_keeps_segments_full(
        p in 2usize..7,
        seed in any::<u64>(),
        rounds in 4usize..12,
    ) {
        let mut state = seed | 1;
        let mut model = BTreeMap::new();
        let mut m1 = M1::new(p);
        let mut next_id: OpId = 0;
        let load = 800 + (xorshift(&mut state) % 500);
        run_round(
            &mut m1,
            &mut model,
            (0..load).map(|i| Operation::Insert(i, i)).collect(),
            &mut next_id,
        );
        m1.check_invariants();
        let mut fresh_base = load;
        for _ in 0..rounds {
            let size = 1 + (xorshift(&mut state) as usize % (2 * p * p));
            let ops = deletion_heavy_batch(&model, size, &mut state, &mut fresh_base);
            run_round(&mut m1, &mut model, ops, &mut next_id);
            m1.check_invariants();
        }
    }
}

/// Deterministic regression: waves of deletions sweep the whole structure,
/// with invariants checked after every cut batch; the eager cascade must
/// actually run (maintenance runs observed) and keep the deficit at 2p².
#[test]
fn deletion_waves_drive_the_maintenance_cascade() {
    let p = 2;
    let n: u64 = 3000;
    let mut model = BTreeMap::new();
    let mut m2 = M2::new(p);
    let mut next_id: OpId = 0;
    run_round(
        &mut m2,
        &mut model,
        (0..n).map(|i| Operation::Insert(i, i)).collect(),
        &mut next_id,
    );
    assert!(m2.num_segments() > m2.first_slab_len());
    m2.check_invariants();

    // Delete every other key in p²-sized batches, checking after each.
    let victims: Vec<u64> = (0..n).step_by(2).collect();
    for chunk in victims.chunks(p * p) {
        let ops: Vec<Operation<u64, u64>> = chunk.iter().map(|&k| Operation::Delete(k)).collect();
        run_round(&mut m2, &mut model, ops, &mut next_id);
        m2.check_invariants();
    }
    assert!(
        m2.maintenance_runs() > 0,
        "deletion waves must schedule dedicated maintenance runs"
    );
    assert_eq!(m2.size(), model.len());

    // The survivors are all still reachable afterwards.
    let ops: Vec<Operation<u64, u64>> = (1..n).step_by(97).map(Operation::Search).collect();
    run_round(&mut m2, &mut model, ops, &mut next_id);
    m2.check_invariants();
}

/// The precise workload that broke the old lazy maintenance scheduling: for
/// `p = 3` the strandable zone `S[0..m-2]` holds 2+4+16 = 22 items — more
/// than Lemma 16's `2p² = 18` allowance — and deleting exactly its residents
/// makes every batch resolve at `k ≤ m-2`, so the interface's in-loop
/// restores (bounded by the deepest segment a batch reaches) never push the
/// holes past boundary `m-1` and no token travels the final slab to repair
/// the prefixes as a side effect.  Under the old conditional cascade this
/// failed with "prefix S[0..4] more than 18 below capacity: 256 vs 278"; the
/// eager scheduling flushes the whole first slab into `S[m-1]` every
/// interface run and cascades it onward within the same `process_all`.
#[test]
fn first_slab_confined_deletions_cannot_strand_holes() {
    let p = 3; // 2p² = 18 < 22 strandable first-slab slots: the tight config.
    let n = 4000u64;
    let mut model = BTreeMap::new();
    let mut m2 = M2::new(p);
    let mut next_id: OpId = 0;
    run_round(
        &mut m2,
        &mut model,
        (0..n).map(|i| Operation::Insert(i, i)).collect(),
        &mut next_id,
    );
    assert!(m2.num_segments() > m2.first_slab_len());
    m2.check_invariants();

    // Warm the front with some search traffic so the first slab holds
    // organically promoted residents.
    for round in 0u64..4 {
        for v in 100..122 {
            run_round(
                &mut m2,
                &mut model,
                vec![Operation::Search(v + 100 * (round % 2))],
                &mut next_id,
            );
        }
    }
    m2.check_invariants();

    // Enumerate the actual residents of the strandable zone and delete all
    // of them in p²-sized batches, checking the 2p² bound after every batch.
    let residents: Vec<u64> = (0..n)
        .filter(|k| {
            m2.segment_of(k)
                .is_some_and(|s| s + 2 <= m2.first_slab_len())
        })
        .collect();
    assert!(
        residents.len() > 2 * p * p,
        "need more strandable residents ({}) than the 2p² allowance",
        residents.len()
    );
    for chunk in residents.chunks(p * p) {
        let ops: Vec<Operation<u64, u64>> = chunk.iter().map(|&k| Operation::Delete(k)).collect();
        run_round(&mut m2, &mut model, ops, &mut next_id);
        m2.check_invariants();
    }
    assert_eq!(m2.size(), model.len());
}

/// Measured charges stay under their Lemma bounds in aggregate as well: after
/// any of the workloads above, the ledgers' measured total is within the
/// documented ceiling of the accumulated worst-case bound.
#[test]
fn aggregate_measured_work_stays_under_the_aggregate_bound_ceiling() {
    let mut state = 0xFEED_5EEDu64;
    let mut model = BTreeMap::new();
    let mut m2 = M2::new(3);
    let mut next_id: OpId = 0;
    run_round(
        &mut m2,
        &mut model,
        (0..2000u64).map(|i| Operation::Insert(i, i)).collect(),
        &mut next_id,
    );
    let mut fresh = 2000;
    for _ in 0..30 {
        let ops = deletion_heavy_batch(&model, 24, &mut state, &mut fresh);
        run_round(&mut m2, &mut model, ops, &mut next_id);
    }
    let measured = m2.effective_work();
    let bound = m2.analytic_bound_work();
    let ceiling = wsm_twothree::cost::MEASURED_CEILING;
    assert!(
        measured <= ceiling * bound,
        "aggregate measured {measured} exceeds {ceiling} x bound {bound}"
    );
    assert!(bound > 0 && measured > 0);
}
