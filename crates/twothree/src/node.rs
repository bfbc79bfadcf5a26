//! Arena-backed node layer of the fanout-B tree: point operations, the
//! sorted-batch sweep, bulk build and drain.
//!
//! The tree is leaf-based: every item lives in a leaf, internal nodes hold
//! `min_children..=max_children` children of equal height together with a
//! **contiguous routing-key array** (`keys[i]` is the maximum key of
//! `children[i]`), so descending one level is a linear scan of one small key
//! array instead of a pointer chase per comparison.  Nodes live in a slab
//! [`Arena`] (the `recency.rs` arena idiom applied to tree nodes): a
//! `Vec<Slot>` with an intrusive free list, and `usize` indices instead of
//! owned boxes — structural operations move indices, not allocations.
//!
//! The occupancy bounds derive from the configured fanout `B`:
//! `min_children = max(2, B/2)`, `max_children = max(3, B)`.  `B = 2` gives
//! exactly the 2-3 tree of paper Appendix A.2 (2..=3 children), which stays
//! as the analytic reference instantiation; `B = 8` gives 4..=8, `B = 16`
//! (the default) gives 8..=16.  For every such pair `2·min - 1 <= max`, so
//! the split/borrow/merge algebra is the classic (a,b)-tree algebra and
//! underflow repair always terminates.  The root is exempt from the minimum
//! (any root may have 2 children); every other internal node keeps
//! `min..=max`.
//!
//! Point operations and the sorted-batch sweep (one descent per batch, see
//! [`crate::batch`]) work in place: they split, merge and even out nodes on
//! the way back up and keep the cached `size` and routing keys current
//! incrementally.  That is the whole structural algebra: segments are built
//! in bulk ([`Arena::build_sorted`]) and drained in bulk
//! ([`Arena::collect_into`]), and nothing splits or joins whole trees.
//!
//! Every operation calls [`crate::cost::touch`] once **per node visited** —
//! in-node work is O(B) and is the point of the layout (one cache-friendly
//! scan), while the measured cost model counts node visits, which shrink by
//! `~log₂ B` at wide fanouts.  Whole root-originating traversals are counted
//! separately as *passes* at the [`crate::BTree`] entry points
//! (`cost::tree_passes`).  Read-only diagnostic traversals (`for_each`,
//! invariant checks) are deliberately uncounted by either counter.

use crate::cost::touch;

/// Null arena index: "no node" (empty tree, end of the free list).
pub(crate) const NIL: usize = usize::MAX;

/// One arena slot: a leaf item, an internal node, or a free-list link.
#[derive(Clone, Debug)]
pub(crate) enum Slot<K, V> {
    Free { next: usize },
    Leaf { key: K, val: V },
    Internal(Internal<K>),
}

/// An internal node: children indices plus the contiguous routing-key array
/// (`keys[i]` = max key under `children[i]`), with cached height and size.
#[derive(Clone, Debug)]
pub(crate) struct Internal<K> {
    pub height: usize,
    pub size: usize,
    pub keys: Vec<K>,
    pub children: Vec<usize>,
}

// Not derived: an empty node needs no `K: Default`.
impl<K> Default for Internal<K> {
    fn default() -> Self {
        Internal {
            height: 0,
            size: 0,
            keys: Vec::new(),
            children: Vec::new(),
        }
    }
}

/// The node slab: every node of one tree lives here, free slots are threaded
/// into an intrusive free list, and the occupancy bounds of the configured
/// fanout are carried alongside so structural ops can repair against them.
#[derive(Clone, Debug)]
pub(crate) struct Arena<K, V> {
    slots: Vec<Slot<K, V>>,
    free: usize,
    min_c: usize,
    max_c: usize,
}

impl<K: Ord + Clone, V> Arena<K, V> {
    pub fn new(fanout: usize) -> Self {
        Arena {
            slots: Vec::new(),
            free: NIL,
            min_c: (fanout / 2).max(2),
            max_c: fanout.max(3),
        }
    }

    /// The fanout this arena was configured with (`max_children`, with the
    /// 2-3 instantiation reporting 2).
    pub fn fanout(&self) -> usize {
        if self.max_c == 3 && self.min_c == 2 {
            2
        } else {
            self.max_c
        }
    }

    // ------------------------------------------------------------------
    // Slab primitives
    // ------------------------------------------------------------------

    fn alloc(&mut self, slot: Slot<K, V>) -> usize {
        match self.free {
            NIL => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
            idx => {
                let Slot::Free { next } = self.slots[idx] else {
                    unreachable!("free list visits a live slot")
                };
                self.free = next;
                self.slots[idx] = slot;
                idx
            }
        }
    }

    /// Vacates a slot onto the free list, returning what it held.
    fn take_slot(&mut self, idx: usize) -> Slot<K, V> {
        let slot = std::mem::replace(&mut self.slots[idx], Slot::Free { next: self.free });
        debug_assert!(!matches!(slot, Slot::Free { .. }), "double free of a slot");
        self.free = idx;
        slot
    }

    /// Allocates a new leaf.
    pub fn leaf(&mut self, key: K, val: V) -> usize {
        touch(1);
        self.alloc(Slot::Leaf { key, val })
    }

    /// Frees a leaf slot, returning its item.
    pub fn take_leaf(&mut self, idx: usize) -> (K, V) {
        match self.take_slot(idx) {
            Slot::Leaf { key, val } => (key, val),
            _ => unreachable!("expected a leaf slot"),
        }
    }

    /// Frees an internal slot, returning its node.
    pub fn take_internal(&mut self, idx: usize) -> Internal<K> {
        match self.take_slot(idx) {
            Slot::Internal(int) => int,
            _ => unreachable!("expected an internal slot"),
        }
    }

    pub fn is_leaf(&self, idx: usize) -> bool {
        matches!(self.slots[idx], Slot::Leaf { .. })
    }

    fn internal(&self, idx: usize) -> &Internal<K> {
        match &self.slots[idx] {
            Slot::Internal(int) => int,
            _ => unreachable!("expected an internal node"),
        }
    }

    fn internal_mut(&mut self, idx: usize) -> &mut Internal<K> {
        match &mut self.slots[idx] {
            Slot::Internal(int) => int,
            _ => unreachable!("expected an internal node"),
        }
    }

    pub fn height(&self, idx: usize) -> usize {
        match &self.slots[idx] {
            Slot::Leaf { .. } => 0,
            Slot::Internal(int) => int.height,
            Slot::Free { .. } => unreachable!("height of a free slot"),
        }
    }

    pub fn size(&self, idx: usize) -> usize {
        match &self.slots[idx] {
            Slot::Leaf { .. } => 1,
            Slot::Internal(int) => int.size,
            Slot::Free { .. } => unreachable!("size of a free slot"),
        }
    }

    pub fn max_key(&self, idx: usize) -> &K {
        match &self.slots[idx] {
            Slot::Leaf { key, .. } => key,
            Slot::Internal(int) => int.keys.last().expect("internal node has children"),
            Slot::Free { .. } => unreachable!("max_key of a free slot"),
        }
    }

    pub fn children_len(&self, idx: usize) -> usize {
        self.internal(idx).children.len()
    }

    /// Builds an internal node over `children` (equal heights, 2..=max).  A
    /// node below `min_children` is permitted here because only a root is
    /// ever built that small (a root split, or the top of a bulk build).
    pub fn make_internal(&mut self, children: Vec<usize>) -> usize {
        debug_assert!((2..=self.max_c).contains(&children.len()));
        let keys = children.iter().map(|&c| self.max_key(c).clone()).collect();
        self.make_internal_keyed(children, keys)
    }

    /// Builds an internal node from a child list and its routing keys, which
    /// the caller already holds (a split hands over both halves) — no key is
    /// cloned and, over leaves, no child is dereferenced.
    fn make_internal_keyed(&mut self, children: Vec<usize>, keys: Vec<K>) -> usize {
        touch(1);
        debug_assert_eq!(children.len(), keys.len());
        let height = self.height(children[0]) + 1;
        let size = self.total_size(height, &children);
        self.alloc(Slot::Internal(Internal {
            height,
            size,
            keys,
            children,
        }))
    }

    /// Items under `children`, the children of a node of height `height`
    /// (leaves count one each without being dereferenced).
    fn total_size(&self, height: usize, children: &[usize]) -> usize {
        if height == 1 {
            children.len()
        } else {
            children.iter().map(|&c| self.size(c)).sum()
        }
    }

    // ------------------------------------------------------------------
    // Point operations
    // ------------------------------------------------------------------

    /// Descends from `idx` to the leaf holding `key`, if present.  Linear
    /// in-node routing scan; one touch per node visited.
    fn find_leaf(&self, mut idx: usize, key: &K) -> Option<usize> {
        loop {
            touch(1);
            match &self.slots[idx] {
                Slot::Leaf { key: k, .. } => return (k == key).then_some(idx),
                Slot::Internal(int) => {
                    let pos = int.keys.iter().position(|m| key <= m)?;
                    idx = int.children[pos];
                }
                Slot::Free { .. } => unreachable!("search reached a free slot"),
            }
        }
    }

    pub fn get(&self, idx: usize, key: &K) -> Option<&V> {
        let leaf = self.find_leaf(idx, key)?;
        match &self.slots[leaf] {
            Slot::Leaf { val, .. } => Some(val),
            _ => unreachable!("find_leaf returns leaves"),
        }
    }

    pub fn get_mut(&mut self, idx: usize, key: &K) -> Option<&mut V> {
        let leaf = self.find_leaf(idx, key)?;
        match &mut self.slots[leaf] {
            Slot::Leaf { val, .. } => Some(val),
            _ => unreachable!("find_leaf returns leaves"),
        }
    }

    /// The item with rank `rank` (0-based, key order) under `idx`.
    pub fn select(&self, mut idx: usize, mut rank: usize) -> Option<(&K, &V)> {
        if rank >= self.size(idx) {
            return None;
        }
        loop {
            touch(1);
            match &self.slots[idx] {
                Slot::Leaf { key, val } => return Some((key, val)),
                Slot::Internal(int) => {
                    let mut next = NIL;
                    for &c in &int.children {
                        let sz = self.size(c);
                        if rank < sz {
                            next = c;
                            break;
                        }
                        rank -= sz;
                    }
                    debug_assert_ne!(next, NIL, "rank under size must land in a child");
                    idx = next;
                }
                Slot::Free { .. } => unreachable!("select reached a free slot"),
            }
        }
    }

    /// In-place point insertion: one root-to-leaf traversal that splits
    /// overfull nodes on the way back up.  Returns the previous value for
    /// the key (if any) and, when this node overflowed, a new right sibling
    /// of the same height that the caller must adopt.
    ///
    /// Cached metadata is maintained incrementally: `size` grows by one and
    /// only the routing key of the child actually descended into is
    /// rewritten, and only when that child's maximum moved.
    pub fn insert_point(&mut self, idx: usize, key: K, val: V) -> (Option<V>, Option<usize>) {
        touch(1);
        match &mut self.slots[idx] {
            Slot::Leaf { key: k, val: v } => match key.cmp(k) {
                std::cmp::Ordering::Equal => (Some(std::mem::replace(v, val)), None),
                std::cmp::Ordering::Less => {
                    // The new leaf takes this slot; the old item becomes the
                    // right sibling the parent adopts.
                    let old_key = std::mem::replace(k, key);
                    let old_val = std::mem::replace(v, val);
                    let sib = self.alloc(Slot::Leaf {
                        key: old_key,
                        val: old_val,
                    });
                    (None, Some(sib))
                }
                std::cmp::Ordering::Greater => (None, Some(self.alloc(Slot::Leaf { key, val }))),
            },
            Slot::Internal(int) => {
                let route = int.keys.iter().position(|m| &key <= m);
                let pos = route.unwrap_or(int.children.len() - 1);
                let child = int.children[pos];
                let (prev, overflow) = self.insert_point(child, key, val);
                if prev.is_some() {
                    // Pure value replacement: no structural or key change
                    // anywhere on the path, so the cached metadata is intact.
                    debug_assert!(overflow.is_none());
                    return (prev, None);
                }
                // The child's maximum moved iff it split (its upper part left)
                // or the key went in above every routing key.
                let child_max =
                    (overflow.is_some() || route.is_none()).then(|| self.max_key(child).clone());
                let adopted = overflow.map(|sib| (sib, self.max_key(sib).clone()));
                let int = self.internal_mut(idx);
                int.size += 1;
                if let Some(max) = child_max {
                    int.keys[pos] = max;
                }
                if let Some((sib, max)) = adopted {
                    int.children.insert(pos + 1, sib);
                    int.keys.insert(pos + 1, max);
                }
                let overflow = self.split_overfull(idx).pop();
                (prev, overflow)
            }
            Slot::Free { .. } => unreachable!("insert reached a free slot"),
        }
    }

    /// In-place point removal from the internal node `idx`: one root-to-leaf
    /// traversal that repairs underfull children (borrow from or merge with
    /// a sibling) on the way back up.  Returns the removed item.  `size` and
    /// the one affected routing key are maintained incrementally.
    ///
    /// After the call `idx` may itself be below `min_children` — only the
    /// caller (the parent, or [`crate::BTree::remove`] at the root) can
    /// repair that, exactly as with the overflow of [`Arena::insert_point`].
    pub fn remove_point(&mut self, idx: usize, key: &K) -> Option<(K, V)> {
        touch(1);
        let int = self.internal(idx);
        let pos = int.keys.iter().position(|m| key <= m)?;
        let child = int.children[pos];
        let was_max = int.keys[pos] == *key;
        if int.height == 1 {
            if !was_max {
                return None;
            }
            let int = self.internal_mut(idx);
            int.children.remove(pos);
            int.keys.remove(pos);
            int.size -= 1;
            return Some(self.take_leaf(child));
        }
        let removed = self.remove_point(child, key)?;
        self.internal_mut(idx).size -= 1;
        if was_max {
            let max = self.max_key(child).clone();
            self.internal_mut(idx).keys[pos] = max;
        }
        if self.children_len(child) < self.min_c {
            self.rebalance(idx, pos);
        }
        Some(removed)
    }

    /// Splits `idx` into as many evenly filled nodes as its child count
    /// needs (none when it fits in `max_children`): `idx` keeps the first
    /// group, the rest are returned left to right as new right siblings of
    /// the same height for the caller to adopt.  Every group lands in
    /// `min..=max` (`2·min - 1 <= max`).  `size` of `idx` must be current.
    fn split_overfull(&mut self, idx: usize) -> Vec<usize> {
        let max_c = self.max_c;
        let int = self.internal_mut(idx);
        let len = int.children.len();
        if len <= max_c {
            return Vec::new();
        }
        let groups = len.div_ceil(max_c);
        let (base, extra) = (len / groups, len % groups);
        // Every group moves into lists of its own size, so a bulk insert's
        // long merge buffers are not kept by the node that stays.
        let mut children = std::mem::take(&mut int.children).into_iter();
        let mut keys = std::mem::take(&mut int.keys).into_iter();
        let mut group = |g: usize| {
            let n = base + usize::from(g < extra);
            let c: Vec<usize> = children.by_ref().take(n).collect();
            let k: Vec<K> = keys.by_ref().take(n).collect();
            (c, k)
        };
        let first = group(0);
        let mut moved = 0;
        let mut siblings = Vec::with_capacity(groups - 1);
        for g in 1..groups {
            let (c, k) = group(g);
            let sib = self.make_internal_keyed(c, k);
            moved += self.size(sib);
            siblings.push(sib);
        }
        let int = self.internal_mut(idx);
        (int.children, int.keys) = first;
        int.size -= moved;
        siblings
    }

    /// Repairs `children[pos]` of `idx`, a child below `min_children` whose
    /// own children are all well-formed: merge it with an adjacent sibling
    /// when the pair fits in one node, else even the pair out (both halves
    /// end `>= min` because `2·min - 1 <= max`).  Uses the left sibling when
    /// there is one.  Returns the position the batch sweep resumes from: the
    /// pair's left node when that is the start of the list (its key range
    /// grew to the right, over keys not yet swept), else the first position
    /// after the repaired pair.
    fn rebalance(&mut self, idx: usize, pos: usize) -> usize {
        touch(1);
        let lpos = pos.saturating_sub(1);
        let (l, r) = {
            let int = self.internal(idx);
            (int.children[lpos], int.children[lpos + 1])
        };
        let height = self.height(l);
        let merged = self.children_len(l) + self.children_len(r) <= self.max_c;
        if merged {
            let right = self.take_internal(r);
            let left = self.internal_mut(l);
            left.children.extend(right.children);
            left.keys.extend(right.keys);
            left.size += right.size;
            let int = self.internal_mut(idx);
            int.children.remove(lpos + 1);
            // The pair's maximum is the right node's; the left one's goes.
            int.keys.remove(lpos);
        } else {
            let mut left = std::mem::take(self.internal_mut(l));
            let mut right = std::mem::take(self.internal_mut(r));
            let target = (left.children.len() + right.children.len()) / 2;
            if left.children.len() > target {
                let children = left.children.split_off(target);
                let moved = self.total_size(height, &children);
                right.children.splice(0..0, children);
                right.keys.splice(0..0, left.keys.split_off(target));
                left.size -= moved;
                right.size += moved;
            } else {
                let n = target - left.children.len();
                let moved = self.total_size(height, &right.children[..n]);
                left.children.extend(right.children.drain(..n));
                left.keys.extend(right.keys.drain(..n));
                left.size += moved;
                right.size -= moved;
            }
            let left_max = left.keys.last().expect("non-empty half").clone();
            *self.internal_mut(l) = left;
            *self.internal_mut(r) = right;
            self.internal_mut(idx).keys[lpos] = left_max;
        }
        if pos == 0 {
            0
        } else if merged {
            pos
        } else {
            pos + 1
        }
    }

    // ------------------------------------------------------------------
    // Sorted-batch sweep (the "normal batch operation" of Appendix A.2)
    // ------------------------------------------------------------------
    //
    // One descent from the root with the whole sorted batch: each internal
    // node cuts the batch among its children with one merge scan over its
    // routing keys, recurses only into children that receive keys, and on the
    // way back repairs each touched child once.  One `touch` per internal
    // node visited plus one per leaf read, created or freed.

    /// Read-only sweep: pushes one result per key of the sorted batch `keys`
    /// onto `out`, in order.  `idx` is an internal node.
    pub fn sweep_get<'a>(&'a self, idx: usize, keys: &[K], out: &mut Vec<Option<&'a V>>) {
        touch(1);
        let int = self.internal(idx);
        if int.height == 1 {
            let mut at = 0;
            for key in keys {
                at += int.keys[at..].iter().take_while(|m| *m < key).count();
                out.push(match int.keys.get(at) {
                    Some(m) if m == key => {
                        touch(1);
                        match &self.slots[int.children[at]] {
                            Slot::Leaf { val, .. } => Some(val),
                            _ => unreachable!("leaf parents hold leaves"),
                        }
                    }
                    _ => None,
                });
            }
            return;
        }
        let mut lo = 0;
        for (bound, &child) in int.keys.iter().zip(&int.children) {
            let hi = lo + keys[lo..].iter().take_while(|k| *k <= bound).count();
            if hi > lo {
                self.sweep_get(child, &keys[lo..hi], out);
                lo = hi;
            }
        }
        // Keys above the node's maximum (possible at the root only).
        out.extend(keys[lo..].iter().map(|_| None));
    }

    /// Insert sweep: merges the next `n` items of the sorted batch `items`
    /// under the internal node `idx`, pushing the replaced value (if any)
    /// per item onto `out`.  Returns how many items were new, plus the right
    /// siblings `idx` split off when it gained more than one node's worth of
    /// children (same height, left to right, for the caller to adopt).
    pub fn sweep_insert(
        &mut self,
        idx: usize,
        items: &mut std::vec::IntoIter<(K, V)>,
        n: usize,
        out: &mut Vec<Option<V>>,
    ) -> (usize, Vec<usize>) {
        touch(1);
        if self.internal(idx).height == 1 {
            let added = self.insert_leaves(idx, items, n, out);
            return (added, self.split_overfull(idx));
        }
        let mut total_added = 0;
        let mut left = n;
        let mut pos = 0;
        while left > 0 {
            let int = self.internal(idx);
            let last = pos + 1 == int.children.len();
            // Items above every routing key extend the last child.
            let take = if last {
                left
            } else {
                let bound = &int.keys[pos];
                let pending = &items.as_slice()[..left];
                pending.iter().take_while(|(k, _)| k <= bound).count()
            };
            if take == 0 {
                pos += 1;
                continue;
            }
            let child = int.children[pos];
            let (added, siblings) = self.sweep_insert(child, items, take, out);
            left -= take;
            total_added += added;
            // The child's maximum moved iff it split or grew past the end.
            let child_max =
                (!siblings.is_empty() || (last && added > 0)).then(|| self.max_key(child).clone());
            let sibling_keys: Vec<K> = siblings.iter().map(|&s| self.max_key(s).clone()).collect();
            let int = self.internal_mut(idx);
            int.size += added;
            if let Some(max) = child_max {
                int.keys[pos] = max;
            }
            let at = pos + 1;
            pos = at + siblings.len();
            int.keys.splice(at..at, sibling_keys);
            int.children.splice(at..at, siblings);
        }
        (total_added, self.split_overfull(idx))
    }

    /// Leaf-parent step of the insert sweep: one merge of the next `n` items
    /// into the leaf list of `idx`, in place (which may leave it overfull).
    /// Each new leaf shifts only the old leaves above its key, and a leaf
    /// parent holds at most `max_children` of those, so the merge is
    /// `O(n · max_children)` however long the list grows.  Returns the
    /// number of new leaves.
    fn insert_leaves(
        &mut self,
        idx: usize,
        items: &mut std::vec::IntoIter<(K, V)>,
        n: usize,
        out: &mut Vec<Option<V>>,
    ) -> usize {
        touch(n as u64);
        let int = self.internal_mut(idx);
        let mut children = std::mem::take(&mut int.children);
        let mut keys = std::mem::take(&mut int.keys);
        let mut at = 0;
        let mut added = 0;
        for (key, val) in items.take(n) {
            at += keys[at..].iter().take_while(|k| **k < key).count();
            if keys.get(at) == Some(&key) {
                let Slot::Leaf { val: v, .. } = &mut self.slots[children[at]] else {
                    unreachable!("leaf parents hold leaves")
                };
                out.push(Some(std::mem::replace(v, val)));
            } else {
                out.push(None);
                added += 1;
                let leaf = self.alloc(Slot::Leaf {
                    key: key.clone(),
                    val,
                });
                children.insert(at, leaf);
                keys.insert(at, key);
            }
            at += 1;
        }
        let int = self.internal_mut(idx);
        int.size = children.len();
        int.children = children;
        int.keys = keys;
        added
    }

    /// Remove sweep: removes the keys of the sorted batch `keys` from under
    /// the internal node `idx`, handing `emit` the removed item (or `None`)
    /// per key, in order.  Returns the number removed.
    ///
    /// On return every child of `idx` is well-formed (`min..=max` children)
    /// unless `idx` is left with a single child; `idx` itself may hold fewer
    /// than `min_children` — even none — which only its caller can repair.
    pub fn sweep_remove<F: FnMut(Option<(K, V)>)>(
        &mut self,
        idx: usize,
        keys: &[K],
        emit: &mut F,
    ) -> usize {
        touch(1);
        if self.internal(idx).height == 1 {
            return self.remove_leaves(idx, keys, emit);
        }
        let mut total_removed = 0;
        let mut lo = 0;
        let mut pos = 0;
        // Routing is lazy — each child's share is cut against its *current*
        // routing key — so a repair may reshape everything from `pos` on.
        while lo < keys.len() && pos < self.children_len(idx) {
            let int = self.internal(idx);
            let bound = &int.keys[pos];
            let hi = lo + keys[lo..].iter().take_while(|k| *k <= bound).count();
            if hi == lo {
                pos += 1;
                continue;
            }
            let child = int.children[pos];
            let max_hit = keys[hi - 1] == *bound;
            let removed = self.sweep_remove(child, &keys[lo..hi], emit);
            lo = hi;
            if removed == 0 {
                pos += 1;
                continue;
            }
            total_removed += removed;
            self.internal_mut(idx).size -= removed;
            pos = self.settle(idx, pos, max_hit);
        }
        for _ in lo..keys.len() {
            emit(None);
        }
        total_removed
    }

    /// Leaf-parent step of the remove sweep: one merge of `keys` against the
    /// leaf list of `idx`, compacting the survivors in place.
    fn remove_leaves<F: FnMut(Option<(K, V)>)>(
        &mut self,
        idx: usize,
        keys: &[K],
        emit: &mut F,
    ) -> usize {
        let int = self.internal_mut(idx);
        let mut children = std::mem::take(&mut int.children);
        let mut node_keys = std::mem::take(&mut int.keys);
        let mut pending = keys.iter().peekable();
        let mut kept = 0;
        for at in 0..children.len() {
            while pending.next_if(|k| **k < node_keys[at]).is_some() {
                emit(None);
            }
            if pending.next_if(|k| **k == node_keys[at]).is_some() {
                emit(Some(self.take_leaf(children[at])));
            } else {
                children.swap(kept, at);
                node_keys.swap(kept, at);
                kept += 1;
            }
        }
        for _ in pending {
            emit(None);
        }
        let removed = children.len() - kept;
        touch(removed as u64);
        children.truncate(kept);
        node_keys.truncate(kept);
        let int = self.internal_mut(idx);
        int.size = kept;
        int.children = children;
        int.keys = node_keys;
        removed
    }

    /// Brings `children[pos]` of `idx` back into shape after a remove sweep
    /// took items from under it (`max_hit`: possibly its maximum), and
    /// returns the position the sweep resumes from.
    fn settle(&mut self, idx: usize, pos: usize, max_hit: bool) -> usize {
        let child = self.internal(idx).children[pos];
        let len = self.children_len(child);
        if len == 0 {
            self.take_internal(child);
            let int = self.internal_mut(idx);
            int.children.remove(pos);
            int.keys.remove(pos);
            return pos;
        }
        if max_hit {
            let max = self.max_key(child).clone();
            self.internal_mut(idx).keys[pos] = max;
        }
        if len >= self.min_c || self.children_len(idx) == 1 {
            // Well-formed, or an only child: the caller of `idx` sees a
            // one-child node and dissolves the chain.
            return pos + 1;
        }
        let only = self.internal(child).children[0];
        if len > 1 || self.is_leaf(only) || self.children_len(only) >= self.min_c {
            return self.rebalance(idx, pos);
        }
        // The child is a chain down to an underfull node, which must not be
        // buried in a sibling: cut the chain out and hang what it ends in on
        // the facing edge of a neighbour, at its own height.
        let int = self.internal_mut(idx);
        int.children.remove(pos);
        int.keys.remove(pos);
        let piece = self.collapse(child);
        let at = pos.saturating_sub(1);
        let neighbour = self.internal(idx).children[at];
        let overflow = self.attach(neighbour, piece, pos == 0);
        let max = self.max_key(neighbour).clone();
        self.internal_mut(idx).keys[at] = max;
        let next = self.adopt(idx, at + 1, overflow);
        // A neighbour to the right has not been swept yet.
        if pos == 0 {
            0
        } else {
            next
        }
    }

    /// Hangs `piece` — a leaf, or a subtree whose root alone may hold fewer
    /// than `min_children` — on the `front` (else back) edge of the taller,
    /// well-formed subtree `spine`; the keys of `piece` all lie beyond that
    /// edge.  `size` and the edge routing key are kept current down the
    /// spine, an underfull `piece` is merged with or evened out against the
    /// sibling it lands next to, and each spine node that ends up overfull
    /// splits.  Returns the right sibling `spine` itself split off, for the
    /// caller to adopt.
    fn attach(&mut self, spine: usize, piece: usize, front: bool) -> Option<usize> {
        touch(1);
        let added = self.size(piece);
        let below = self.height(piece);
        let int = self.internal_mut(spine);
        int.size += added;
        let len = int.children.len();
        if int.height == below + 1 {
            let at = if front { 0 } else { len };
            self.adopt(spine, at, Some(piece));
            if below > 0 && self.children_len(piece) < self.min_c {
                self.rebalance(spine, at);
            }
        } else {
            let edge = if front { 0 } else { len - 1 };
            let child = int.children[edge];
            let overflow = self.attach(child, piece, front);
            let max = self.max_key(child).clone();
            self.internal_mut(spine).keys[edge] = max;
            self.adopt(spine, edge + 1, overflow);
        }
        self.split_overfull(spine).pop()
    }

    /// Inserts `node` (if any) as `children[pos]` of `idx`, whose `size`
    /// already counts it; returns the position after it.
    fn adopt(&mut self, idx: usize, pos: usize, node: Option<usize>) -> usize {
        let Some(node) = node else {
            return pos;
        };
        let max = self.max_key(node).clone();
        let int = self.internal_mut(idx);
        int.children.insert(pos, node);
        int.keys.insert(pos, max);
        pos + 1
    }

    /// Frees the chain of one-child nodes hanging from `idx` and returns the
    /// first node below it that is a leaf or has several children — or NIL,
    /// freeing that too, when the chain ends in an empty node.
    pub fn collapse(&mut self, mut idx: usize) -> usize {
        while !self.is_leaf(idx) {
            match self.children_len(idx) {
                0 => {
                    self.take_internal(idx);
                    return NIL;
                }
                1 => idx = self.take_internal(idx).children[0],
                _ => break,
            }
        }
        idx
    }

    // ------------------------------------------------------------------
    // Bulk build / drain
    // ------------------------------------------------------------------

    /// Builds a balanced tree from sorted, deduplicated items in O(n).
    pub fn build_sorted(&mut self, items: Vec<(K, V)>) -> usize {
        // A linear build touches every created leaf (internal nodes are a
        // constant fraction on top, folded into the ceiling).
        touch(items.len() as u64);
        let leaves = items
            .into_iter()
            .map(|(k, v)| self.alloc(Slot::Leaf { key: k, val: v }))
            .collect();
        self.build_levels(leaves)
    }

    /// Stacks internal levels over `level` (same-height nodes in key order)
    /// until one root remains, distributing each level's nodes evenly so
    /// every group lands in `min..=max` (a single undersized group can only
    /// be the root).  NIL for an empty level.
    pub fn build_levels(&mut self, mut level: Vec<usize>) -> usize {
        while level.len() > 1 {
            let groups = level.len().div_ceil(self.max_c);
            let base = level.len() / groups;
            let extra = level.len() % groups;
            let mut next = Vec::with_capacity(groups);
            let mut iter = level.into_iter();
            for g in 0..groups {
                let take = base + usize::from(g < extra);
                let children: Vec<usize> = iter.by_ref().take(take).collect();
                next.push(self.make_internal(children));
            }
            debug_assert!(iter.next().is_none(), "grouping left a dangling child");
            level = next;
        }
        level.pop().unwrap_or(NIL)
    }

    /// In-order traversal into `out`, freeing the visited slots.
    pub fn collect_into(&mut self, idx: usize, out: &mut Vec<(K, V)>) {
        touch(1);
        match self.take_slot(idx) {
            Slot::Leaf { key, val } => out.push((key, val)),
            Slot::Internal(int) => {
                for child in int.children {
                    self.collect_into(child, out);
                }
            }
            Slot::Free { .. } => unreachable!("collect reached a free slot"),
        }
    }

    /// In-order traversal by reference (diagnostic; uncounted).
    pub fn for_each<'a, F: FnMut(&'a K, &'a V)>(&'a self, idx: usize, f: &mut F) {
        match &self.slots[idx] {
            Slot::Leaf { key, val } => f(key, val),
            Slot::Internal(int) => {
                for &child in &int.children {
                    self.for_each(child, f);
                }
            }
            Slot::Free { .. } => unreachable!("for_each reached a free slot"),
        }
    }

    // ------------------------------------------------------------------
    // Invariants
    // ------------------------------------------------------------------

    /// Validates the structural invariants under `idx` (occupancy bounds,
    /// routing keys, cached height/size, key order).  Returns `(height,
    /// live node count)` so the caller can close the free-list accounting.
    pub fn check_subtree(&self, idx: usize, is_root: bool) -> (usize, usize)
    where
        K: std::fmt::Debug,
    {
        match &self.slots[idx] {
            Slot::Leaf { .. } => (0, 1),
            Slot::Internal(int) => {
                let lo = if is_root { 2 } else { self.min_c };
                assert!(
                    (lo..=self.max_c).contains(&int.children.len()),
                    "internal node must have {lo}..={} children, has {}",
                    self.max_c,
                    int.children.len()
                );
                assert_eq!(
                    int.keys.len(),
                    int.children.len(),
                    "routing-key array out of step with children"
                );
                let mut nodes = 1usize;
                let mut heights = Vec::with_capacity(int.children.len());
                for (&c, k) in int.children.iter().zip(&int.keys) {
                    let (h, n) = self.check_subtree(c, false);
                    heights.push(h);
                    nodes += n;
                    assert_eq!(k, self.max_key(c), "routing key is not the child max");
                }
                assert!(
                    heights.windows(2).all(|w| w[0] == w[1]),
                    "children heights differ: {heights:?}"
                );
                assert_eq!(int.height, heights[0] + 1, "cached height wrong");
                assert_eq!(
                    int.size,
                    int.children.iter().map(|&c| self.size(c)).sum::<usize>(),
                    "cached size wrong"
                );
                assert!(
                    int.keys.windows(2).all(|w| w[0] < w[1]),
                    "routing keys out of order"
                );
                (int.height, nodes)
            }
            Slot::Free { .. } => panic!("tree references free slot {idx}"),
        }
    }

    /// Validates the slab itself: every slot is reachable either from the
    /// tree (`live` live nodes, counted by [`Arena::check_subtree`]) or from
    /// the free list — no leaks, no cycles.
    pub fn check_slab(&self, live: usize) {
        let mut free_count = 0usize;
        let mut cur = self.free;
        while cur != NIL {
            assert!(
                free_count <= self.slots.len(),
                "free list cycle at slot {cur}"
            );
            let Slot::Free { next } = &self.slots[cur] else {
                panic!("free list visits live slot {cur}")
            };
            cur = *next;
            free_count += 1;
        }
        assert_eq!(
            live + free_count,
            self.slots.len(),
            "arena slot leak: {live} live + {free_count} free != {} slots",
            self.slots.len()
        );
    }
}

#[cfg(test)]
mod tests {
    //! Directed tests of `settle`'s chain case, the one caller of `attach`:
    //! one `batch_remove` thins a whole subtree of the root down to a chain
    //! over an underfull node, which must be hung on a neighbour's spine.

    use crate::tree::BTree;
    use std::collections::BTreeMap;

    /// Removes, in one batch, every key under `children[pos]` of the root
    /// except its `keep` largest, checks the tree against a `BTreeMap`, and
    /// returns the root's child count before and after.
    fn thin_to_chain(tree: &mut BTree<u64, u64>, pos: usize, keep: u64) -> (usize, usize) {
        let mut model: BTreeMap<u64, u64> = tree.keys().into_iter().map(|k| (k, k)).collect();
        assert!(tree.height() >= 3, "the thinned subtree must be a chain");
        let root = tree.arena.internal(tree.root);
        let before = root.children.len();
        // Keys are dense, so the subtree holds exactly `lo..=hi`.
        let lo = if pos == 0 { 0 } else { root.keys[pos - 1] + 1 };
        let hi = root.keys[pos];
        let batch: Vec<u64> = (lo..=hi - keep).collect();
        let removed = tree.batch_remove(&batch);
        for (k, r) in batch.iter().zip(removed) {
            assert_eq!(r, model.remove(k).map(|v| (*k, v)));
        }
        tree.check_invariants();
        assert!(tree.keys().iter().eq(model.keys()));
        (before, tree.arena.children_len(tree.root))
    }

    /// A tree with slack in every node: ascending point inserts leave each
    /// node off the right spine about half full.  Grown until the root has
    /// a child to lose without collapsing.
    fn half_full(fanout: usize) -> BTree<u64, u64> {
        let mut tree = BTree::with_fanout(fanout);
        let mut k = 0;
        while tree.height() < 3 || tree.arena.children_len(tree.root) < 3 {
            tree.insert(k, k);
            k += 1;
        }
        tree
    }

    /// A tree with no slack anywhere: `max_children³` items, every node full.
    fn packed(fanout: usize) -> BTree<u64, u64> {
        let max_c = fanout.max(3) as u64;
        let tree =
            BTree::from_sorted_with_fanout((0..max_c.pow(3)).map(|k| (k, k)).collect(), fanout);
        assert_eq!(tree.height(), 3);
        tree
    }

    /// Thins `children[pos]` of the root of a fresh `build(fanout)` tree to a
    /// chain, at every fanout and for every `keep` that leaves the chain
    /// ending in a lone leaf (1) or, at wider fanouts, in an underfull leaf
    /// parent (2 ≤ keep < min_children); the root must end `lost` children
    /// short.
    fn thin_at_every_fanout(build: fn(usize) -> BTree<u64, u64>, pos: usize, lost: usize) {
        for fanout in [2usize, 8, 16] {
            for keep in 1..build(fanout).arena.min_c as u64 {
                let mut tree = build(fanout);
                let (before, after) = thin_to_chain(&mut tree, pos, keep);
                assert_eq!(after, before - lost, "B={fanout} keep={keep} pos={pos}");
            }
        }
    }

    #[test]
    fn chain_with_a_left_neighbour_hangs_on_its_back_edge() {
        thin_at_every_fanout(half_full, 1, 1);
    }

    #[test]
    fn chain_as_the_first_child_hangs_on_its_right_neighbours_front_edge() {
        thin_at_every_fanout(half_full, 0, 1);
    }

    /// Every spine node is full, so the attachment splits each one and the
    /// root adopts a sibling in place of the child it lost — behind a left
    /// neighbour and in front of a right one.
    #[test]
    fn attachment_that_overflows_the_spine_hands_the_parent_a_sibling() {
        thin_at_every_fanout(packed, 1, 0);
        thin_at_every_fanout(packed, 0, 0);
    }
}
