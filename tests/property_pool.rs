//! Property and stress tests for the work-stealing pool (`wsm-pool`): the
//! parallel code paths must be observationally identical to their sequential
//! counterparts, at every pool size.
//!
//! This is the workspace-level safety net for PR 2's tentpole: `rayon::join`
//! runs on real threads, so `pesort` — the one algorithm that forks through
//! it — executes with genuine interleaving.  Determinism is a theorem about
//! the algorithm (divide-and-conquer with order-preserving merges), and
//! these tests check it empirically under randomized inputs and different
//! worker counts.

use proptest::prelude::*;
use wsm_sort::{pesort, pesort_by, pesort_group};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parallel_pesort_matches_std_sort(
        items in prop::collection::vec(any::<u32>(), 0..5000),
        threads in 1usize..5,
    ) {
        let mut expected = items.clone();
        expected.sort();
        let got = wsm_pool::with_threads(threads, move || pesort(items).0);
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn parallel_pesort_is_stable(
        keys in prop::collection::vec(0u8..16, 0..4000),
        threads in 1usize..5,
    ) {
        // Tag every item with its arrival index; sorting by key only must
        // keep tags ascending within each key, on every pool size.
        let tagged: Vec<(u8, usize)> = keys.into_iter().zip(0..).collect();
        let sorted = wsm_pool::with_threads(threads, move || {
            pesort_by(tagged, &|a: &(u8, usize), b: &(u8, usize)| a.0.cmp(&b.0)).0
        });
        for w in sorted.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "equal keys reordered under parallelism");
            }
        }
    }

    #[test]
    fn parallel_pesort_group_matches_sequential_grouping(
        keys in prop::collection::vec(0u16..64, 0..3000),
    ) {
        // pesort_group drives M1/M2's duplicate combining; its output must
        // not depend on whether the sort underneath ran in parallel.
        let par = wsm_pool::with_threads(4, {
            let keys = keys.clone();
            move || pesort_group(&keys).0
        });
        let seq = wsm_pool::with_threads(1, move || pesort_group(&keys).0);
        prop_assert_eq!(par, seq);
    }
}

/// Stress: many OS threads running parallel sorts concurrently on the global
/// pool — results must still be deterministic.
#[test]
fn concurrent_external_sorts_stay_correct() {
    let handles: Vec<_> = (0..6u64)
        .map(|seed| {
            std::thread::spawn(move || {
                let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) + 1;
                let mut next = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                for round in 0..5 {
                    let n = 2000 + (round * 997) as usize;
                    let items: Vec<u64> = (0..n).map(|_| next() % 1000).collect();
                    let mut expected = items.clone();
                    expected.sort();
                    let (got, _) = pesort(items);
                    assert_eq!(got, expected, "seed {seed} round {round}");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

/// Stress: nested parallelism — a scope spawning joins that themselves sort —
/// must neither deadlock nor corrupt results.
#[test]
fn nested_scope_and_join_stress() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let done = AtomicUsize::new(0);
    wsm_pool::scope(|s| {
        for t in 0..8usize {
            let done = &done;
            s.spawn(move |_| {
                let items: Vec<u64> = (0..3000).map(|i| (i * 37 + t as u64 * 101) % 500).collect();
                let mut expected = items.clone();
                expected.sort();
                let (got, _) = pesort(items);
                assert_eq!(got, expected);
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
    });
    assert_eq!(done.load(Ordering::SeqCst), 8);
}
