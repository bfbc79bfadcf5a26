//! Batch operations on [`Tree23`] (the "normal batch operation" of Appendix
//! A.2).
//!
//! All batch operations take an *item-sorted* batch of distinct keys, exactly
//! as the paper requires (the working-set maps entropy-sort and combine each
//! batch before it reaches the trees), and every batch size takes the same
//! path: a **sorted-batch sweep**.  The whole sorted slice descends from the
//! root once; each node above the items cuts it among its children against
//! its routing keys and recurses only into children that receive keys; the
//! height-1 nodes merge their share into (or out of) their item cells; and on
//! the way back each *touched* node is repaired once — split into as many
//! nodes as it needs when it gained more than one node's worth of cells,
//! merged with or evened out against a neighbour when it fell under
//! `min_children`, dropped when it emptied — with the root growing or
//! shrinking by as many levels as the batch requires.  That is `Θ(b log n)`
//! node visits in the worst case and fewer whenever keys share upper levels:
//! a clustered batch walks one subtree, and the per-key cost falls as the
//! batch grows.
//!
//! The sweep counts one `cost::touch` per node visited and one per item cell
//! read, created or freed, and one [`crate::cost::tree_passes`] pass per
//! batch, so the maps can charge measured work instead of the closed-form
//! worst case.  Each sweep hands its per-key results to a closure
//! (`batch_*_with`), so a caller that consumes them on the spot —
//! [`crate::RecencyMap`] — collects nothing; the `Vec`-returning methods are
//! that closure pushing.

use crate::cost::pass;
use crate::node::NIL;
use crate::tree::Tree23;

impl<K: Ord + Clone, V> Tree23<K, V> {
    /// Looks up each key of a sorted batch; returns one result per key in the
    /// same order.  One shared read-only descent.
    pub fn batch_get(&self, keys: &[K]) -> Vec<Option<&V>> {
        let mut out = Vec::with_capacity(keys.len());
        self.batch_get_with(keys, |found| out.push(found));
        out
    }

    /// The read-only sweep from the root, handing `emit` one result per key.
    pub(crate) fn batch_get_with<'a>(&'a self, keys: &[K], mut emit: impl FnMut(Option<&'a V>)) {
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]), "batch must be sorted");
        if keys.is_empty() {
            return;
        }
        pass();
        if self.root == NIL {
            keys.iter().for_each(|_| emit(None));
        } else {
            self.arena.sweep_get(self.root, keys, &mut emit);
        }
    }

    /// Inserts a sorted batch of distinct keys.  Returns, per item, the value
    /// previously stored under that key (if any).  The root grows by as many
    /// levels as the batch needs.
    pub fn batch_insert(&mut self, mut items: Vec<(K, V)>) -> Vec<Option<V>> {
        let mut out = Vec::with_capacity(items.len());
        self.batch_insert_with(&mut items, |replaced| out.push(replaced));
        out
    }

    /// The insert sweep from the root: drains `items` (its buffer stays with
    /// the caller) and hands `emit` the replaced value per item, in order.
    pub(crate) fn batch_insert_with(
        &mut self,
        items: &mut Vec<(K, V)>,
        mut emit: impl FnMut(Option<V>),
    ) {
        debug_assert!(
            items.windows(2).all(|w| w[0].0 < w[1].0),
            "batch must be sorted with distinct keys"
        );
        let n = items.len();
        if n == 0 {
            return;
        }
        pass();
        if self.len() <= 1 {
            // Nothing worth sweeping: fold the lone item (if any) into the
            // batch and build the tree over it bottom-up.
            let mut replaced = None;
            if self.root != NIL {
                let root = std::mem::replace(&mut self.root, NIL);
                self.arena.collect_into(root, items);
                let (key, val) = items.pop().expect("a single-item tree");
                match items.binary_search_by(|(k, _)| k.cmp(&key)) {
                    Ok(at) => replaced = Some((at, val)),
                    Err(at) => items.insert(at, (key, val)),
                }
            }
            for at in 0..n {
                emit(replaced.take_if(|(hit, _)| *hit == at).map(|(_, val)| val));
            }
            self.root = self.arena.build_sorted(items.len(), items.drain(..));
            return;
        }
        self.arena
            .sweep_insert(self.root, &mut items.drain(..), n, &mut emit);
        self.root = self.arena.grow_root(self.root);
    }

    /// Removes a sorted batch of distinct keys.  Returns, per key, the removed
    /// item (if it was present).
    pub fn batch_remove(&mut self, keys: &[K]) -> Vec<Option<(K, V)>> {
        let mut out = Vec::with_capacity(keys.len());
        self.batch_remove_with(keys, |item| out.push(item));
        out
    }

    /// The remove sweep from the root, handing `emit` the removed item per
    /// key; shrinks the root by as many levels as the batch emptied.
    pub(crate) fn batch_remove_with(&mut self, keys: &[K], mut emit: impl FnMut(Option<(K, V)>)) {
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]), "batch must be sorted");
        if keys.is_empty() {
            return;
        }
        pass();
        if self.root == NIL {
            keys.iter().for_each(|_| emit(None));
        } else {
            self.arena.sweep_remove(self.root, keys, &mut emit);
            self.root = self.arena.collapse(self.root);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn sorted_distinct(mut v: Vec<u64>) -> Vec<u64> {
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn batch_insert_into_empty() {
        for fanout in [2usize, 8, 16] {
            let mut t: Tree23<u64, u64> = Tree23::with_fanout(fanout);
            let items: Vec<(u64, u64)> = (0..100).map(|i| (i, i + 1000)).collect();
            let replaced = t.batch_insert(items);
            assert!(replaced.iter().all(Option::is_none));
            assert_eq!(t.len(), 100);
            t.check_invariants();
            for i in 0..100u64 {
                assert_eq!(t.get(&i), Some(&(i + 1000)));
            }
        }
    }

    #[test]
    fn batch_insert_reports_replacements() {
        let mut t: Tree23<u64, u64> = (0..50u64).map(|i| (i * 2, i)).collect();
        // Insert keys 0..100: even keys replace, odd keys are new.
        let items: Vec<(u64, u64)> = (0..100).map(|i| (i, 7)).collect();
        let replaced = t.batch_insert(items);
        assert_eq!(t.len(), 100);
        for (i, r) in replaced.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(*r, Some(i as u64 / 2), "even key {i} should replace");
            } else {
                assert_eq!(*r, None, "odd key {i} should be fresh");
            }
        }
        t.check_invariants();
    }

    #[test]
    fn batch_remove_mixed_presence() {
        for fanout in [2usize, 8, 16] {
            let mut t: Tree23<u64, u64> =
                Tree23::from_sorted_with_fanout((0..100u64).map(|i| (i, i)).collect(), fanout);
            let keys = sorted_distinct((0..200).step_by(3).collect());
            let removed = t.batch_remove(&keys);
            for (k, r) in keys.iter().zip(&removed) {
                if *k < 100 {
                    assert_eq!(*r, Some((*k, *k)));
                } else {
                    assert_eq!(*r, None);
                }
            }
            t.check_invariants();
            assert_eq!(t.len(), 100 - keys.iter().filter(|&&k| k < 100).count());
        }
    }

    #[test]
    fn batch_get_matches_single_get() {
        let t: Tree23<u64, u64> = (0..100u64).filter(|i| i % 3 == 0).map(|i| (i, i)).collect();
        let keys: Vec<u64> = (0..100).collect();
        let got = t.batch_get(&keys);
        for (k, g) in keys.iter().zip(got) {
            assert_eq!(g, t.get(k));
        }
    }

    #[test]
    fn batch_ops_match_btreemap_model() {
        // Deterministic pseudo-random mixed batches compared against BTreeMap.
        for fanout in [2usize, 8, 16] {
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            let mut tree: Tree23<u64, u64> = Tree23::with_fanout(fanout);
            let mut state = 0x9E3779B97F4A7C15u64;
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for round in 0..30 {
                let b = 1 + (next() % 64) as usize;
                if round % 3 == 2 {
                    let keys = sorted_distinct((0..b).map(|_| next() % 256).collect());
                    let removed = tree.batch_remove(&keys);
                    for (k, r) in keys.iter().zip(removed) {
                        assert_eq!(r.map(|(_, v)| v), model.remove(k));
                    }
                } else {
                    let keys = sorted_distinct((0..b).map(|_| next() % 256).collect());
                    let items: Vec<(u64, u64)> = keys.iter().map(|&k| (k, next())).collect();
                    let replaced = tree.batch_insert(items.clone());
                    for ((k, v), r) in items.iter().zip(replaced) {
                        assert_eq!(r, model.insert(*k, *v));
                    }
                }
                tree.check_invariants();
                assert_eq!(tree.len(), model.len());
            }
            // Final content check.
            for (k, v) in &model {
                assert_eq!(tree.get(k), Some(v));
            }
        }
    }

    #[test]
    fn metered_counts_track_batch_locality() {
        use crate::cost::{batch_op, metered, MEASURED_CEILING};
        let t: Tree23<u64, u64> = (0..4096u64).map(|i| (i, i)).collect();
        // A clustered batch touches one subtree; a spread batch walks many
        // paths — the measured counts must reflect that, and both must stay
        // under the Lemma ceiling.
        let clustered: Vec<u64> = (0..64u64).collect();
        let spread: Vec<u64> = (0..64u64).map(|i| i * 64).collect();
        let (_, clustered_touched) = metered(|| {
            let mut t = t.clone();
            t.batch_remove(&clustered)
        });
        let (_, spread_touched) = metered(|| {
            let mut t = t.clone();
            t.batch_remove(&spread)
        });
        assert!(
            clustered_touched < spread_touched,
            "clustered {clustered_touched} should touch fewer nodes than spread {spread_touched}"
        );
        let bound = batch_op(64, 4096).work;
        assert!(clustered_touched <= MEASURED_CEILING * bound);
        assert!(spread_touched <= MEASURED_CEILING * bound);
        // The clustered case is where the measurement beats the closed form.
        assert!(
            clustered_touched < bound,
            "clustered batch: measured {clustered_touched} should beat the bound {bound}"
        );
    }

    #[test]
    fn empty_batches_are_noops() {
        let mut t: Tree23<u64, u64> = (0..10u64).map(|i| (i, i)).collect();
        assert!(t.batch_insert(Vec::new()).is_empty());
        assert!(t.batch_remove(&[]).is_empty());
        assert!(t.batch_get(&[]).is_empty());
        assert_eq!(t.len(), 10);
    }
}
