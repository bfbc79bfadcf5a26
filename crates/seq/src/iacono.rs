//! Iacono's sequential working-set structure \[29\] (paper Section 3).
//!
//! The structure is a sequence of balanced trees `t_0, t_1, …, t_l` where tree
//! `t_k` holds `2^(2^k)` items, so its height is `Θ(2^k)`.  The invariant is
//! that the `r` most recently accessed items live in the first `O(log log r)`
//! trees.  A search scans the trees in order; when the key is found in `t_k`
//! the item is moved to the *front of the whole structure* (`t_0`) and, for
//! every `i < k`, the least recently accessed item of `t_i` is demoted to
//! `t_{i+1}`.  Accessing an item with recency `r` therefore costs
//! `O(log r + 1)`, insertions and deletions cost `O(log n + 1)`.
//!
//! The difference from [`crate::M0`] is the *global* move-to-front: M0 only
//! promotes by one segment.  Both satisfy the working-set bound; Iacono's
//! structure is used as the dictionary inside ESort (Definition 29).

use crate::{segment_capacity, InstrumentedMap};
use wsm_model::Cost;
use wsm_twothree::{cost as tcost, RecencyMap};

/// Iacono's working-set structure.
#[derive(Clone, Debug, Default)]
pub struct IaconoMap<K, V> {
    trees: Vec<RecencyMap<K, V>>,
    total: Cost,
}

impl<K: Ord + Clone + Default, V: Clone + Default> IaconoMap<K, V> {
    /// Creates an empty structure.
    pub fn new() -> Self {
        IaconoMap {
            trees: Vec::new(),
            total: Cost::ZERO,
        }
    }

    /// Number of items stored.
    pub fn len(&self) -> usize {
        self.trees.iter().map(RecencyMap::len).sum()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.trees.iter().all(RecencyMap::is_empty)
    }

    /// Non-adjusting lookup, charging no cost (for tests).
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.trees.iter().find_map(|t| t.get(key))
    }

    /// Non-adjusting mutable lookup, charging no cost.  Used by ESort to
    /// append to the tag list of an item that was just accessed.
    pub fn peek_mut(&mut self, key: &K) -> Option<&mut V> {
        self.trees.iter_mut().find_map(|t| t.get_mut(key))
    }

    /// The index of the tree currently holding `key`.
    pub fn tree_of(&self, key: &K) -> Option<usize> {
        self.trees.iter().position(|t| t.contains(key))
    }

    fn ensure_tree(&mut self, idx: usize) {
        while self.trees.len() <= idx {
            self.trees.push(RecencyMap::new());
        }
    }

    /// Restores the capacity invariant by demoting the least recent item of
    /// every overfull tree to the next tree.  Returns the cost of the
    /// demotions.
    fn cascade_overflow(&mut self, from: usize) -> Cost {
        let mut cost = Cost::ZERO;
        let mut i = from;
        while i < self.trees.len() {
            if self.trees[i].len() as u64 > segment_capacity(i as u32) {
                let demoted = self.trees[i].take_back(1);
                cost += tcost::transfer(1, self.trees[i].len() as u64 + 1, 2);
                self.ensure_tree(i + 1);
                self.trees[i + 1].push_front_batch(demoted);
            }
            i += 1;
        }
        cost
    }

    /// Searches for (accesses) `key`.  On success the item moves to the front
    /// of `t_0` and one item is demoted from each earlier tree.
    pub fn access(&mut self, key: &K) -> (Option<V>, Cost) {
        let mut cost = Cost::ZERO;
        let mut found_at = None;
        for (k, tree) in self.trees.iter().enumerate() {
            cost += tcost::single_op(tree.len() as u64, 2);
            if tree.contains(key) {
                found_at = Some(k);
                break;
            }
        }
        let Some(k) = found_at else {
            self.total += cost;
            return (None, cost);
        };
        let val = self.trees[k].remove(key).expect("located above");
        cost += tcost::single_op(segment_capacity(k as u32).min(1 << 20), 2);
        self.ensure_tree(0);
        self.trees[0].insert_front(key.clone(), val.clone());
        cost += tcost::single_op(self.trees[0].len() as u64, 2);
        // Demote one item from every tree t_i with i < k that is now over
        // capacity (t_0 gained an item; the cascade stops at the tree the item
        // came from, which now has a free slot).
        cost += self.cascade_overflow(0);
        self.total += cost;
        (Some(val), cost)
    }

    /// Inserts an item; it becomes the most recently accessed item.  Replacing
    /// an existing key is treated as an access plus a value update.
    pub fn insert_item(&mut self, key: K, val: V) -> (Option<V>, Cost) {
        if self.peek(&key).is_some() {
            let (old, mut cost) = self.access(&key);
            if let Some(slot) = self.trees.iter_mut().find_map(|t| t.get_mut(&key)) {
                *slot = val;
            }
            cost += Cost::UNIT;
            self.total += Cost::UNIT;
            return (old, cost);
        }
        let mut cost = Cost::ZERO;
        self.ensure_tree(0);
        self.trees[0].insert_front(key, val);
        cost += tcost::single_op(self.trees[0].len() as u64, 2);
        cost += self.cascade_overflow(0);
        // Charge the full O(log n) insertion cost (Definition 1: insertions
        // have access rank n + 1).
        cost += tcost::single_op(self.len() as u64, 2);
        self.total += cost;
        (None, cost)
    }

    /// Removes an item, pulling one item forward from each later tree to
    /// refill the hole.
    pub fn remove_item(&mut self, key: &K) -> (Option<V>, Cost) {
        let mut cost = Cost::ZERO;
        let mut found_at = None;
        for (k, tree) in self.trees.iter().enumerate() {
            cost += tcost::single_op(tree.len() as u64, 2);
            if tree.contains(key) {
                found_at = Some(k);
                break;
            }
        }
        let Some(k) = found_at else {
            self.total += cost;
            return (None, cost);
        };
        let val = self.trees[k].remove(key);
        let l = self.trees.len();
        for i in k..l.saturating_sub(1) {
            let pulled = self.trees[i + 1].take_front(1);
            cost += tcost::transfer(1, self.trees[i + 1].len() as u64 + 1, 2);
            self.trees[i].push_back_batch(pulled);
        }
        while matches!(self.trees.last(), Some(t) if t.is_empty()) {
            self.trees.pop();
        }
        cost += tcost::single_op(self.len() as u64, 2);
        self.total += cost;
        (val, cost)
    }

    /// The items of each tree in key-sorted order, one vector per tree from
    /// `t_0` upward.  ESort (Definition 29) uses this to construct the sorted
    /// list of each segment before merging them in order of increasing
    /// capacity.
    pub fn trees_items_sorted(&self) -> Vec<Vec<(K, V)>> {
        self.trees
            .iter()
            .map(|t| {
                t.keys_sorted()
                    .into_iter()
                    .map(|k| {
                        let v = t.get(&k).expect("key listed by the tree").clone();
                        (k, v)
                    })
                    .collect()
            })
            .collect()
    }

    /// Checks that no tree exceeds its capacity and the internal maps agree.
    pub fn check_invariants(&self)
    where
        K: std::fmt::Debug,
    {
        for (k, tree) in self.trees.iter().enumerate() {
            tree.check_invariants();
            assert!(
                tree.len() as u64 <= segment_capacity(k as u32),
                "tree {k} over capacity: {} > {}",
                tree.len(),
                segment_capacity(k as u32)
            );
        }
    }

    /// Total cost charged so far.
    pub fn total(&self) -> Cost {
        self.total
    }
}

impl<K: Ord + Clone + Default, V: Clone + Default> InstrumentedMap<K, V> for IaconoMap<K, V> {
    fn search(&mut self, key: &K) -> (Option<V>, Cost) {
        self.access(key)
    }
    fn insert(&mut self, key: K, val: V) -> (Option<V>, Cost) {
        self.insert_item(key, val)
    }
    fn remove(&mut self, key: &K) -> (Option<V>, Cost) {
        self.remove_item(key)
    }
    fn len(&self) -> usize {
        IaconoMap::len(self)
    }
    fn total_cost(&self) -> Cost {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut m = IaconoMap::new();
        for i in 0..200u64 {
            assert_eq!(m.insert_item(i, i).0, None);
            m.check_invariants();
        }
        assert_eq!(m.len(), 200);
        for i in 0..200u64 {
            assert_eq!(m.access(&i).0, Some(i));
        }
        m.check_invariants();
        for i in 0..200u64 {
            assert_eq!(m.remove_item(&i).0, Some(i));
            m.check_invariants();
        }
        assert!(m.is_empty());
    }

    #[test]
    fn accessed_item_moves_to_front_tree() {
        let mut m = IaconoMap::new();
        for i in 0..500u64 {
            m.insert_item(i, i);
        }
        // Item 0 was inserted first and then displaced by 499 later
        // insertions, so it lives in a late tree.
        let before = m.tree_of(&0).unwrap();
        assert!(before >= 2, "item 0 should be deep, found in tree {before}");
        m.access(&0);
        assert_eq!(m.tree_of(&0), Some(0), "Iacono moves accessed items to t_0");
        m.check_invariants();
    }

    #[test]
    fn working_set_property_recent_items_cheap() {
        let mut m = IaconoMap::new();
        let n = 4096u64;
        for i in 0..n {
            m.insert_item(i, i);
        }
        // The most recently inserted items are cheap to access again.
        let (_, recent) = m.access(&(n - 1));
        // An item untouched for n operations is expensive.
        let (_, old) = m.access(&0);
        assert!(
            recent.work * 2 < old.work,
            "recent {} vs old {}",
            recent.work,
            old.work
        );
    }

    #[test]
    fn insert_existing_updates_value() {
        let mut m = IaconoMap::new();
        m.insert_item(1u64, 10u64);
        let (prev, _) = m.insert_item(1, 20);
        assert_eq!(prev, Some(10));
        assert_eq!(m.peek(&1), Some(&20));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn missing_key_operations() {
        let mut m: IaconoMap<u64, u64> = IaconoMap::new();
        assert_eq!(m.access(&5).0, None);
        assert_eq!(m.remove_item(&5).0, None);
        m.insert_item(1, 1);
        assert_eq!(m.access(&5).0, None);
        assert_eq!(m.remove_item(&5).0, None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn total_cost_grows_with_operations() {
        let mut m = IaconoMap::new();
        for i in 0..100u64 {
            m.insert_item(i, i);
        }
        let after_inserts = m.total().work;
        for i in 0..100u64 {
            m.access(&i);
        }
        assert!(m.total().work > after_inserts);
    }
}
