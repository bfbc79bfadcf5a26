//! The public tree surface: [`BTree`] (with [`Tree23`] kept as the alias the
//! rest of the workspace was written against) with its single-item, rank,
//! bulk-build and drain operations.  Batch operations live in
//! [`crate::batch`].

use crate::cost::pass;
use crate::node::{Arena, NIL};

/// A fanout-B search tree storing key-value items in key order.
///
/// `BTree` is the balanced-search-tree substrate of every segment of the
/// working-set maps.  Nodes live in a slab `Arena` — contiguous key
/// arrays, the items themselves in the height-1 nodes, `usize` child indices
/// above, an intrusive free list — so descending one level is a linear scan
/// of one small array rather than a pointer chase.  The occupancy bounds
/// come from the per-tree fanout `B`: `max(2, B/2)..=max(3, B)` items or
/// children per node (root exempt from the minimum).
/// `B = 2` is exactly the 2-3 tree of paper Appendix A.2 and stays available
/// as the analytic reference instantiation; the process default is
/// [`crate::DEFAULT_FANOUT`] (`WSM_TREE_FANOUT`).
///
/// Beyond ordinary ordered-map operations it has what the batch algorithms
/// need: rank selection, sorted-batch get / insert / remove
/// ([`crate::batch`]), an `O(n)` build from sorted items and a drain into a
/// sorted vector.
#[derive(Clone, Debug)]
pub struct BTree<K, V> {
    pub(crate) arena: Arena<K, V>,
    pub(crate) root: usize,
}

/// The 2-3-shaped name the workspace was written against.  Since the fanout
/// generalization `Tree23` *is* [`BTree`]; the alias records the paper
/// lineage (Appendix A.2) and keeps every call site source-compatible.
pub type Tree23<K, V> = BTree<K, V>;

impl<K: Ord + Clone + Default, V> Default for BTree<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Clone + Default, V> BTree<K, V> {
    /// Creates an empty tree at the process-default fanout
    /// (`WSM_TREE_FANOUT`, default [`crate::DEFAULT_FANOUT`]).
    // lint: allow(unmetered) — trivial constructor, no nodes exist to charge
    pub fn new() -> Self {
        Self::with_fanout(crate::default_fanout())
    }

    /// Creates an empty tree with an explicit fanout: internal nodes keep
    /// `max(2, fanout/2)..=max(3, fanout)` children, so `2` gives the 2-3
    /// reference instantiation.
    // lint: allow(unmetered) — trivial constructor, no nodes exist to charge
    pub fn with_fanout(fanout: usize) -> Self {
        BTree {
            arena: Arena::new(fanout),
            root: NIL,
        }
    }

    /// The fanout this tree was constructed with.
    // lint: allow(unmetered) — O(1) configuration accessor, no node traversal
    pub fn fanout(&self) -> usize {
        self.arena.fanout()
    }

    /// Builds a tree from items that are already sorted by key and contain no
    /// duplicate keys, in `O(n)` work, at the process-default fanout.
    ///
    /// # Panics
    /// Panics in debug builds if the items are not strictly sorted.
    pub fn from_sorted(items: Vec<(K, V)>) -> Self {
        Self::from_sorted_with_fanout(items, crate::default_fanout())
    }

    /// [`BTree::from_sorted`] with an explicit fanout.
    pub fn from_sorted_with_fanout(items: Vec<(K, V)>, fanout: usize) -> Self {
        pass();
        debug_assert!(
            items.windows(2).all(|w| w[0].0 < w[1].0),
            "from_sorted requires strictly increasing keys"
        );
        let mut arena = Arena::new(fanout);
        let root = arena.build_sorted(items.len(), items.into_iter());
        BTree { arena, root }
    }

    /// Number of items.
    // lint: allow(unmetered) — O(1) cached subtree size, no node traversal
    pub fn len(&self) -> usize {
        if self.root == NIL {
            0
        } else {
            self.arena.size(self.root)
        }
    }

    /// True if the tree holds no items.
    // lint: allow(unmetered) — O(1) root probe, no node traversal
    pub fn is_empty(&self) -> bool {
        self.root == NIL
    }

    /// Height of the tree (`0` for empty or single-item trees).
    // lint: allow(unmetered) — O(1) cached height, no node traversal
    pub fn height(&self) -> usize {
        if self.len() <= 1 {
            0
        } else {
            self.arena.height(self.root)
        }
    }

    /// Looks up a key.
    pub fn get(&self, key: &K) -> Option<&V> {
        pass();
        if self.root == NIL {
            return None;
        }
        self.arena.get(self.root, key)
    }

    /// Looks up a key, returning a mutable reference to its value.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        pass();
        if self.root == NIL {
            return None;
        }
        self.arena.get_mut(self.root, key)
    }

    /// True if the key is present.
    pub fn contains(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// The item with rank `idx` (0-based, key order).
    pub fn select(&self, idx: usize) -> Option<(&K, &V)> {
        pass();
        if self.root == NIL {
            return None;
        }
        self.arena.select(self.root, idx)
    }

    /// The smallest item.
    pub fn first(&self) -> Option<(&K, &V)> {
        self.select(0)
    }

    /// The largest item.
    pub fn last(&self) -> Option<(&K, &V)> {
        self.len().checked_sub(1).and_then(|i| self.select(i))
    }

    /// Inserts an item; returns the previous value for the key, if any.
    ///
    /// One in-place root-to-cell traversal (`Arena::insert_point`): only the
    /// nodes on the search path are touched, and a node is allocated only
    /// when one actually splits.
    pub fn insert(&mut self, key: K, val: V) -> Option<V> {
        let mut val = Some(val);
        let present = self.insert_with(key, |_| val.take().expect("built once"))?;
        val.map(|val| std::mem::replace(present, val))
    }

    /// Inserts `key` with the value `make` builds from it, in the one
    /// traversal of [`BTree::insert`] — unless the key is present: then
    /// the tree keeps its key, `make` is not called, `key` is dropped, and
    /// the present value is returned for the caller to update.
    pub(crate) fn insert_with(&mut self, key: K, make: impl FnOnce(&K) -> V) -> Option<&mut V> {
        pass();
        if self.root == NIL {
            let val = make(&key);
            self.root = self.arena.build_sorted(1, std::iter::once((key, val)));
            return None;
        }
        match self.arena.insert_point(self.root, key, make) {
            Ok(()) => {
                self.root = self.arena.grow_root(self.root);
                None
            }
            Err((node, pos)) => Some(self.arena.val_mut(node, pos)),
        }
    }

    /// Removes a key; returns its value if it was present.  In-place, like
    /// [`BTree::insert`].
    pub fn remove(&mut self, key: &K) -> Option<V> {
        pass();
        if self.root == NIL {
            return None;
        }
        let (_, val) = self.arena.remove_point(self.root, key)?;
        // Height collapse at the root, down to nothing after the last item.
        self.root = self.arena.collapse(self.root);
        Some(val)
    }

    /// Consumes the tree into a sorted vector of items.
    pub fn into_sorted_vec(mut self) -> Vec<(K, V)> {
        let mut out = Vec::with_capacity(self.len());
        if self.root != NIL {
            self.arena.collect_into(self.root, &mut out);
            self.root = NIL;
        }
        out
    }

    /// Calls `f` on every item in key order.
    // lint: allow(unmetered) — whole-tree read sweep for tests/dumps; the cost model charges searches and restructures, not linear scans
    pub fn for_each<'a, F: FnMut(&'a K, &'a V)>(&'a self, mut f: F) {
        if self.root != NIL {
            self.arena.for_each(self.root, &mut f);
        }
    }

    /// Collects all keys in order (cloned).
    // lint: allow(unmetered) — whole-tree dump via for_each, same exemption
    pub fn keys(&self) -> Vec<K> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each(|k, _| out.push(k.clone()));
        out
    }

    /// Validates structural invariants; intended for tests and debug builds.
    ///
    /// Checks node occupancy against the fanout bounds (root exempt from the
    /// minimum), routing-key/child agreement, cached height/size, strict
    /// global key order, and the arena's free-list accounting (live nodes +
    /// free slots account for every slab slot — no leaks, no cycles).
    pub fn check_invariants(&self)
    where
        K: std::fmt::Debug,
    {
        let live = if self.root == NIL {
            0
        } else {
            self.arena.check_subtree(self.root, true).1
        };
        self.arena.check_slab(live);
        if self.root != NIL {
            // Keys strictly increasing overall.
            let mut prev: Option<&K> = None;
            self.arena.for_each(self.root, &mut |k, _| {
                if let Some(p) = prev {
                    assert!(p < k, "keys not strictly increasing");
                }
                prev = Some(k);
            });
        }
    }
}

impl<K: Ord + Clone + Default, V> FromIterator<(K, V)> for BTree<K, V> {
    fn from_iter<T: IntoIterator<Item = (K, V)>>(iter: T) -> Self {
        let mut items: Vec<(K, V)> = iter.into_iter().collect();
        items.sort_by(|a, b| a.0.cmp(&b.0));
        items.dedup_by(|a, b| a.0 == b.0);
        BTree::from_sorted(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree_basics() {
        let t: Tree23<u64, u64> = Tree23::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.get(&3), None);
        assert_eq!(t.height(), 0);
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        for fanout in [2usize, 8, 16] {
            let mut t = Tree23::with_fanout(fanout);
            for i in 0..200u64 {
                // 3 and 601 are coprime and i < 601, so keys are distinct.
                assert_eq!(t.insert(i * 3 % 601, i), None);
                t.check_invariants();
            }
            assert_eq!(t.len(), 200);
            for i in 0..200u64 {
                assert_eq!(t.get(&(i * 3 % 601)), Some(&i));
            }
            for i in 0..200u64 {
                assert_eq!(t.remove(&(i * 3 % 601)), Some(i));
                t.check_invariants();
            }
            assert!(t.is_empty());
        }
        let mut t = Tree23::new();
        assert_eq!(t.insert(5u64, 1u64), None);
        assert_eq!(t.insert(5, 2), Some(1));
        assert_eq!(t.remove(&5), Some(2));
        assert_eq!(t.remove(&5), None);
        assert!(t.is_empty());
    }

    #[test]
    fn from_sorted_builds_balanced() {
        for fanout in [2usize, 8, 16] {
            for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 100, 1000] {
                let items: Vec<(u64, u64)> = (0..n as u64).map(|i| (i, i * 2)).collect();
                let t = Tree23::from_sorted_with_fanout(items, fanout);
                t.check_invariants();
                assert_eq!(t.len(), n);
                if n > 0 {
                    // The 2-3 bound is the loosest of the swept fanouts.
                    assert!(
                        t.height() <= (n as f64).log2().ceil() as usize + 1,
                        "height {} too large for n={} at fanout {}",
                        t.height(),
                        n,
                        fanout
                    );
                    for i in 0..n as u64 {
                        assert_eq!(t.get(&i), Some(&(i * 2)));
                    }
                }
            }
        }
    }

    #[test]
    fn select_and_first_last() {
        let t: Tree23<u64, ()> = (0..50u64).map(|i| (i * 2, ())).collect();
        assert_eq!(t.select(0), Some((&0, &())));
        assert_eq!(t.select(10), Some((&20, &())));
        assert_eq!(t.select(49), Some((&98, &())));
        assert_eq!(t.select(50), None);
        assert_eq!(t.first(), Some((&0, &())));
        assert_eq!(t.last(), Some((&98, &())));
    }

    #[test]
    fn get_mut_updates_value() {
        let mut t: Tree23<u64, u64> = (0..10u64).map(|i| (i, 0)).collect();
        *t.get_mut(&7).unwrap() = 42;
        assert_eq!(t.get(&7), Some(&42));
    }

    #[test]
    fn fanout_two_matches_wide_fanout_observably() {
        let mut narrow = Tree23::with_fanout(2);
        let mut wide = Tree23::with_fanout(16);
        let mut x = 0x2545F4914F6CDD1Du64;
        for _ in 0..600 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = x % 512;
            if x.is_multiple_of(3) {
                assert_eq!(narrow.remove(&k), wide.remove(&k));
            } else {
                assert_eq!(narrow.insert(k, x), wide.insert(k, x));
            }
            narrow.check_invariants();
            wide.check_invariants();
        }
        assert_eq!(narrow.keys(), wide.keys());
    }
}
