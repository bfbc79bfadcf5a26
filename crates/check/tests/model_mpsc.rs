//! Model-checks the real `wsm_sync::MpscShard` publication protocol.
//!
//! The shard is the lock-free MPSC ring behind the parallel buffer: producers
//! claim a ticket with a tail CAS and hand the value off through a
//! sequence-stamped cell; the combiner drains in publication order.  The
//! harnesses below run the *production* code (routed through the
//! `wsm_check::sync` shims) under the exhaustive scheduler and assert the
//! no-lost / no-duplicated / per-producer-FIFO invariants over every
//! interleaving within the preemption bound.
//!
//! This harness earned its keep immediately: the first run caught a real
//! FIFO violation in `drain_into` (overflow items could overtake ring items
//! published earlier, because the ring scan and the overflow take were not
//! atomic against producers) — fixed by re-scanning the ring under the
//! overflow lock.  The intentionally broken claim protocol (plain load +
//! store instead of a CAS) is `wsm_check::fixtures::racy_claim_harness`,
//! which the seeded-bug suite proves the checker catches.
//!
//! Coverage counts below use [`wsm_check::Report::considered`]: schedules
//! executed plus sleep-set-pruned branches (distinct schedules proven
//! redundant).

use std::sync::Arc;
use wsm_check::{thread, Model};
use wsm_sync::MpscShard;

/// `producers` producer threads race the (main-thread) consumer on a tiny
/// ring.  Every published item must be drained exactly once; each producer's
/// items must come out in the order it published them.
fn producers_race_concurrent_drain(producers: usize, ring: usize, per: usize) {
    let shard: Arc<MpscShard<usize>> = Arc::new(MpscShard::with_capacity(ring));
    let handles: Vec<_> = (0..producers)
        .map(|p| {
            let shard = Arc::clone(&shard);
            thread::spawn(move || {
                for i in 0..per {
                    shard.publish(p * per + i);
                }
            })
        })
        .collect();
    let mut out = Vec::new();
    // One drain racing the producers, then a settling drain after they exit.
    shard.drain_into(&mut out);
    for h in handles {
        h.join().unwrap();
    }
    shard.drain_into(&mut out);

    assert_eq!(
        out.len(),
        producers * per,
        "lost or duplicated publication: {out:?}"
    );
    let mut sorted = out.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(
        sorted.len(),
        producers * per,
        "duplicated publication: {out:?}"
    );
    for p in 0..producers {
        let mine: Vec<_> = out.iter().filter(|&&v| v / per == p).collect();
        assert!(
            mine.windows(2).all(|w| w[0] < w[1]),
            "producer {p} items reordered: {out:?}"
        );
    }
}

/// The headline acceptance run: three producers, ring of 2 (so the wrap and
/// overflow paths are hot), preemption bound 3, >= 10k distinct schedules.
#[test]
fn mpsc_no_lost_or_duplicated_publication() {
    let r = Model::with_bound(3)
        .check(|| producers_race_concurrent_drain(3, 2, 2))
        .assert_pass(1_000);
    println!(
        "mpsc bound 3: {} schedules + {} pruned = {} considered, {} bound hits",
        r.schedules,
        r.pruned,
        r.considered(),
        r.bound_hits
    );
    assert!(
        r.considered() >= 10_000,
        "expected >= 10k distinct schedules, considered {}",
        r.considered()
    );
}

/// Overflow stress: per-producer item count exceeds the ring, so most
/// schedules cross the ring/overflow boundary (the path the harness found
/// broken on its first run).
#[test]
fn mpsc_overflow_path_keeps_fifo() {
    let r = Model::with_bound(4)
        .check(|| producers_race_concurrent_drain(2, 2, 3))
        .assert_pass(1_000);
    println!(
        "mpsc overflow bound 4: {} schedules + {} pruned = {} considered",
        r.schedules,
        r.pruned,
        r.considered()
    );
    assert!(
        r.considered() >= 10_000,
        "expected >= 10k distinct schedules, considered {}",
        r.considered()
    );
}

/// One producer + concurrent drain is small enough to explore with no
/// preemption bound at all: full interleaving coverage, strict global FIFO.
#[test]
fn mpsc_single_producer_exhaustive_unbounded() {
    let r = Model::unbounded()
        .check(|| {
            let shard: Arc<MpscShard<usize>> = Arc::new(MpscShard::with_capacity(2));
            let t = {
                let shard = Arc::clone(&shard);
                thread::spawn(move || {
                    for i in 0..3 {
                        shard.publish(i);
                    }
                })
            };
            let mut out = Vec::new();
            shard.drain_into(&mut out);
            t.join().unwrap();
            shard.drain_into(&mut out);
            assert_eq!(out, vec![0, 1, 2], "lost/duplicated/reordered: {out:?}");
        })
        .assert_pass(100);
    println!(
        "mpsc unbounded: {} schedules, {} pruned",
        r.schedules, r.pruned
    );
}
