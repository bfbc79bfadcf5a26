//! Golden touched-node counts: the accounting of `wsm_twothree` is part of
//! its contract (the maps charge measured work, and `wsbench`'s
//! `nodes_per_op` / `work_per_op` rows repeat to the last digit for a seed),
//! so a layout change must not move it.
//!
//! A fixed seeded sequence of point and batch operations runs at `B = 2` and
//! `B = 16` and the `cost::metered` totals per operation kind are pinned to
//! the numbers the one-slot-per-item layout produced (commit `77bfcee`, the
//! parent of the change that folded the leaf level into its parents).  The
//! sequence repeatedly drains the tree to 0 and 1 items and regrows it, so
//! the empty and single-item trees are pinned too.
//!
//! One level up, a seeded mixed stream through M1 and M2 pins each map's
//! cost ledger (measured work and span, the Appendix A.2 bound work, and
//! M1's per-batch log) at the fanout `WSM_TREE_FANOUT` selects, 2 or 16.

use std::collections::BTreeMap;
use wsm_core::{BatchedMap, Operation, M1, M2};
use wsm_twothree::cost::metered;
use wsm_twothree::{default_fanout, BTree, RecencyMap};

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn sorted_keys(&mut self, count: usize, space: u64) -> Vec<u64> {
        let mut keys: Vec<u64> = (0..count).map(|_| self.next() % space).collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }
}

/// Touched-node totals per operation kind, in the order the test pins them.
#[derive(Debug, Default, PartialEq, Eq)]
struct Totals {
    get: u64,
    select: u64,
    insert: u64,
    remove: u64,
    batch_get: u64,
    batch_insert: u64,
    batch_remove: u64,
    build_and_drain: u64,
}

fn tree_totals(fanout: usize) -> Totals {
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ fanout as u64);
    let mut tree: BTree<u64, u64> = BTree::with_fanout(fanout);
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    let mut t = Totals::default();
    const SPACE: u64 = 4096;
    for round in 0..400u64 {
        match rng.next() % 10 {
            0 => {
                for _ in 0..8 {
                    let k = rng.next() % SPACE;
                    let (got, n) = metered(|| tree.get(&k).copied());
                    assert_eq!(got, model.get(&k).copied());
                    t.get += n;
                }
            }
            1 => {
                for _ in 0..4 {
                    let rank = (rng.next() % (model.len() as u64 + 2)) as usize;
                    let (got, n) = metered(|| tree.select(rank).map(|(k, v)| (*k, *v)));
                    assert_eq!(got, model.iter().nth(rank).map(|(k, v)| (*k, *v)));
                    t.select += n;
                }
            }
            2 | 3 => {
                for _ in 0..8 {
                    let (k, v) = (rng.next() % SPACE, rng.next());
                    let (prev, n) = metered(|| tree.insert(k, v));
                    assert_eq!(prev, model.insert(k, v));
                    t.insert += n;
                }
            }
            4 => {
                for _ in 0..8 {
                    let k = rng.next() % SPACE;
                    let (prev, n) = metered(|| tree.remove(&k));
                    assert_eq!(prev, model.remove(&k));
                    t.remove += n;
                }
            }
            5 => {
                let count = 1 + (rng.next() % 120) as usize;
                let keys = rng.sorted_keys(count, SPACE);
                let (got, n) = metered(|| {
                    tree.batch_get(&keys)
                        .into_iter()
                        .map(|v| v.copied())
                        .collect::<Vec<_>>()
                });
                let expected: Vec<_> = keys.iter().map(|k| model.get(k).copied()).collect();
                assert_eq!(got, expected);
                t.batch_get += n;
            }
            6 | 7 => {
                let count = 1 + (rng.next() % 200) as usize;
                let keys = rng.sorted_keys(count, SPACE);
                let items: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k ^ round)).collect();
                let (prev, n) = metered(|| tree.batch_insert(items.clone()));
                let expected: Vec<_> = items.iter().map(|&(k, v)| model.insert(k, v)).collect();
                assert_eq!(prev, expected);
                t.batch_insert += n;
            }
            _ => {
                let count = 1 + (rng.next() % 300) as usize;
                let keys = rng.sorted_keys(count, SPACE);
                let (gone, n) = metered(|| tree.batch_remove(&keys));
                let expected: Vec<_> = keys
                    .iter()
                    .map(|k| model.remove(k).map(|v| (*k, v)))
                    .collect();
                assert_eq!(gone, expected);
                t.batch_remove += n;
            }
        }
        if round % 50 == 49 {
            // Drain to one item through a batch removal, exercise the
            // single-item tree through every entry point, then empty it and
            // regrow from nothing (point ops on even visits, batches on odd).
            let keys: Vec<u64> = model.keys().copied().collect();
            let (all_but_one, last) = keys.split_at(keys.len().saturating_sub(1));
            let (_, n) = metered(|| tree.batch_remove(all_but_one));
            t.batch_remove += n;
            all_but_one.iter().for_each(|k| {
                model.remove(k);
            });
            assert_eq!(tree.len(), model.len());
            if let Some(&only) = last.first() {
                assert_eq!(tree.height(), 0);
                for probe in [only.saturating_sub(1), only, only + 1] {
                    t.get += metered(|| tree.get(&probe).copied()).1;
                    t.batch_get += metered(|| tree.batch_get(&[probe]).len()).1;
                    t.batch_remove += metered(|| tree.clone().batch_remove(&[probe])).1;
                    t.remove += metered(|| tree.clone().remove(&probe)).1;
                    t.insert += metered(|| tree.clone().insert(probe, 1)).1;
                    let batch = vec![(probe, 2), (probe + 7, 3), (probe + 9, 4)];
                    t.batch_insert += metered(|| tree.clone().batch_insert(batch)).1;
                    t.batch_insert += metered(|| tree.clone().batch_insert(vec![(probe, 5)])).1;
                }
                t.select += metered(|| tree.select(0).is_some()).1;
                t.build_and_drain += metered(|| tree.clone().into_sorted_vec()).1;
                if round % 100 == 49 {
                    t.remove += metered(|| tree.remove(&only)).1;
                } else {
                    t.batch_remove += metered(|| tree.batch_remove(&[only])).1;
                }
                model.clear();
            }
            assert!(tree.is_empty());
            t.get += metered(|| tree.get(&1).copied()).1;
            t.batch_get += metered(|| tree.batch_get(&[1, 2]).len()).1;
            t.batch_remove += metered(|| tree.batch_remove(&[1, 2])).1;
            if round % 100 == 49 {
                t.insert += metered(|| tree.insert(77, 77)).1;
                model.insert(77, 77);
            }
        }
        tree.check_invariants();
        assert_eq!(tree.len(), model.len());
    }
    for n in [0u64, 1, 2, 3, 16, 17, 33, 257, 1000] {
        let items: Vec<(u64, u64)> = (0..n).map(|k| (k, k)).collect();
        let (built, touched) = metered(|| BTree::from_sorted_with_fanout(items, fanout));
        t.build_and_drain += touched;
        t.build_and_drain += metered(|| built.into_sorted_vec()).1;
    }
    t
}

/// The segment shapes of the cascades, through the `RecencyMap` surface:
/// sorted batch removal + push to the front, and the take/push transfers.
fn recency_total(fanout: usize) -> u64 {
    let mut rng = Rng(0xC0FF_EE00 ^ fanout as u64);
    let mut a: RecencyMap<u64, u64> = RecencyMap::with_fanout(fanout);
    let mut b: RecencyMap<u64, u64> = RecencyMap::with_fanout(fanout);
    let mut total = 0;
    total += metered(|| a.push_back_batch((0..3000u64).map(|k| (k, k)).collect())).1;
    for round in 0..200 {
        let count = 1 + (rng.next() % 90) as usize;
        let keys = rng.sorted_keys(count, 3200);
        total += metered(|| a.get_batch(&keys).len()).1;
        let (found, n) = metered(|| a.remove_batch(&keys));
        total += n;
        let hits: Vec<(u64, u64)> = keys
            .iter()
            .zip(found)
            .filter_map(|(k, v)| v.map(|v| (*k, v)))
            .collect();
        total += metered(|| a.push_front_batch(hits)).1;
        let k = 1 + (rng.next() % 40) as usize;
        total += metered(|| b.push_front_batch(a.take_back(k))).1;
        if round % 3 == 0 {
            total += metered(|| a.push_back_batch(b.take_front(k / 2 + 1))).1;
        }
        if round % 40 == 39 {
            // Run `b` down to one item and to none, then refill it.
            let len = b.len();
            total += metered(|| a.push_front_batch(b.take_back(len - 1))).1;
            total += metered(|| b.insert_front(9_999, 0)).1;
            total += metered(|| b.remove(&9_999)).1;
            total += metered(|| a.push_back_batch(b.take_front(1))).1;
            total += metered(|| b.push_front_batch(a.take_back(5))).1;
        }
        a.check_invariants();
        b.check_invariants();
    }
    total
}

#[test]
fn touched_node_counts_match_the_one_slot_per_item_layout() {
    assert_eq!(
        tree_totals(2),
        Totals {
            get: 2718,
            select: 1390,
            insert: 5282,
            remove: 1912,
            batch_get: 5324,
            batch_insert: 20631,
            batch_remove: 24375,
            build_and_drain: 4016,
        }
    );
    assert_eq!(
        tree_totals(16),
        Totals {
            get: 1288,
            select: 499,
            insert: 2585,
            remove: 886,
            batch_get: 1134,
            batch_insert: 11120,
            batch_remove: 11105,
            build_and_drain: 2862,
        }
    );
    assert_eq!(recency_total(2), 240_545);
    assert_eq!(recency_total(16), 118_928);
}

/// Map-level ledger totals of M1 and M2 over one seeded mixed stream:
/// `(effective_work, effective_span, analytic_bound_work)` per map, plus the
/// work and span summed over M1's batch log.
#[derive(Debug, PartialEq, Eq)]
struct Ledger {
    m1: (u64, u64, u64),
    m1_batch_log: (u64, u64),
    m2: (u64, u64, u64),
}

fn ledger_totals() -> Ledger {
    let mut rng = Rng(0x5EED_0000_0000_0033);
    let mut m1 = M1::new(4).with_batch_log();
    let mut m2 = M2::new(4);
    let load: Vec<Operation<u64, u64>> = (0..2048u64).map(|k| Operation::Insert(k, k)).collect();
    m1.run_ops(load.clone());
    m2.run_ops(load);
    for round in 0..120u64 {
        let len = 1 + (rng.next() % 96) as usize;
        // Half of the rounds stay on a hot set of 32 keys, the rest range
        // over the whole keyspace, so both hot and cold segments are charged.
        let space = if round % 2 == 0 { 32 } else { 2600 };
        let ops: Vec<Operation<u64, u64>> = (0..len)
            .map(|_| {
                let k = rng.next() % space;
                match rng.next() % 10 {
                    0..=5 => Operation::Search(k),
                    6 | 7 => Operation::Insert(k, k ^ round),
                    _ => Operation::Delete(k),
                }
            })
            .collect();
        assert_eq!(m1.run_ops(ops.clone()), m2.run_ops(ops), "round {round}");
    }
    m1.check_invariants();
    m2.check_invariants();
    let (log_work, log_span) = m1
        .batch_log()
        .iter()
        .fold((0, 0), |(w, s), b| (w + b.cost.work, s + b.cost.span));
    Ledger {
        m1: (
            m1.effective_work(),
            m1.effective_span(),
            m1.analytic_bound_work(),
        ),
        m1_batch_log: (log_work, log_span),
        m2: (
            m2.effective_work(),
            m2.effective_span(),
            m2.analytic_bound_work(),
        ),
    }
}

#[test]
fn map_ledger_totals_match_the_recorded_run() {
    // Recorded at commit `0c66c8a`, before M1 and M2 kept their measured and
    // bound work in one `Charge` ledger; a bookkeeping change must not move
    // a digit.  `WSM_TREE_FANOUT` selects the tree fanout, so the fanout the
    // run uses selects its row.
    let expected = match default_fanout() {
        2 => Ledger {
            m1: (183_864, 61_469, 439_937),
            m1_batch_log: (176_031, 60_644),
            m2: (247_943, 142_143, 529_809),
        },
        16 => Ledger {
            m1: (146_928, 50_021, 277_450),
            m1_batch_log: (139_095, 49_196),
            m2: (171_656, 106_417, 312_169),
        },
        other => {
            println!("no ledger totals recorded for fanout {other}; skipped");
            return;
        }
    };
    assert_eq!(ledger_totals(), expected);
}
