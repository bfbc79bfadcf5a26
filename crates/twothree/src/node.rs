//! Arena-backed node layer of the fanout-B tree: point operations, the
//! sorted-batch sweep, bulk build and drain.
//!
//! Items live in the **height-1 nodes**: such a node holds
//! `min_children..=max_children` item *cells* as two parallel arrays, `keys`
//! and `vals`, so the bottom of a descent is one scan of a contiguous key
//! array followed by one indexed read — no slot per item, no hop to a leaf.
//! A node of height ≥ 2 holds as many children of equal height, with the same
//! **contiguous routing-key array** (`keys[i]` is the maximum key under
//! `children[i]`).  Nodes live in a slab [`Arena`] (the `recency.rs` arena
//! idiom applied to tree nodes): a `Vec<Slot>` with an intrusive free list,
//! and `usize` indices instead of owned boxes — structural operations move
//! indices, not allocations.  Every node's arrays are created with room for
//! `max_children + 1` entries and keep it, so the steady-state sweep (insert
//! a cell, split at `max + 1`, merge, even out) never reallocates one.
//!
//! The occupancy bounds derive from the configured fanout `B`:
//! `min_children = max(2, B/2)`, `max_children = max(3, B)`, counted in
//! cells at height 1 and in children above.  `B = 2` gives exactly the 2-3
//! tree of paper Appendix A.2 (2..=3 per node) with its bottom internal level
//! holding the items, which stays as the analytic reference instantiation;
//! `B = 8` gives 4..=8, `B = 16` (the default) gives 8..=16.  For every such
//! pair `2·min - 1 <= max`, so the split/borrow/merge algebra is the classic
//! (a,b)-tree algebra and underflow repair always terminates.  The root is
//! exempt from the minimum (a root may hold one cell, or two children);
//! every other node keeps `min..=max`.
//!
//! Point operations and the sorted-batch sweep (one descent per batch, see
//! [`crate::batch`]) work in place: they split, merge and even out nodes on
//! the way back up and keep the cached `size` and routing keys current
//! incrementally.  That is the whole structural algebra: segments are built
//! in bulk ([`Arena::build_sorted`]) and drained in bulk
//! ([`Arena::collect_into`]), and nothing splits or joins whole trees.
//!
//! Every operation calls [`crate::cost::touch`] once **per node visited**
//! and once **per item cell read, created or freed** — in-node work is O(B)
//! and is the point of the layout (one cache-friendly scan), while the
//! measured cost model counts visits, which shrink by `~log₂ B` at wide
//! fanouts.  A cell's touch is what visiting the item's own leaf slot used to
//! cost, so the counts are those of the one-slot-per-item layout this one
//! replaced (`tests/golden_counts.rs` pins them); the one cell of a
//! single-item tree is covered by the visit of its root, as the bare leaf
//! was ([`touch_cells`]).  Whole root-originating traversals are counted
//! separately as *passes* at the [`crate::BTree`] entry points
//! (`cost::tree_passes`).  Read-only diagnostic traversals (`for_each`,
//! invariant checks) are deliberately uncounted by either counter.
//!
//! So is the **locate walk** ([`Arena::locate`]), the one read-only
//! traversal that runs ahead of a sweep instead of replacing one.  The
//! depth-first sweep pays its cache misses one key after another: each
//! descent waits for a node before it knows the next.  The walk takes the
//! same sorted batch one height at a time, reading the keys and children of
//! every node of the frontier before it scans any child, so the misses of a
//! whole level are independent loads the processor overlaps; it reports the
//! value cell of every key it finds.  A sweep that follows it over the same
//! batch then finds its nodes in cache.  It is a cache effect, not work in
//! the paper's model — the sweep still visits and is charged for every node
//! — so the walk calls neither `touch` nor `pass`, and every metered count
//! stays that of the sweep alone.  Which sweeps it runs ahead of, and the
//! tree and batch sizes below which it does not pay, are
//! [`crate::RecencyMap`]'s to decide; E18's sweep rows on a 2^12-item map
//! (in cache: the walk does not pay) and a 2^17-item map (it does) set that
//! gate.

use crate::cost::touch;
use std::ops::Range;

/// Null arena index: "no node" (empty tree, end of the free list).
pub(crate) const NIL: usize = usize::MAX;

/// One arena slot: a node or a free-list link.
#[derive(Clone, Debug)]
pub(crate) enum Slot<K, V> {
    Free { next: usize },
    Node(Node<K, V>),
}

/// A node: the contiguous key array plus, in step with it, the values
/// (height 1) or the children (above), with cached height and size.
#[derive(Clone, Debug)]
pub(crate) struct Node<K, V> {
    pub height: usize,
    /// Items in the subtree.
    pub size: usize,
    pub keys: Vec<K>,
    pub kids: Kids<V>,
}

/// What a node's keys stand for.
#[derive(Clone, Debug)]
pub(crate) enum Kids<V> {
    /// Height 1: `vals[i]` is the value stored under `keys[i]`.
    Vals(Vec<V>),
    /// Height ≥ 2: `keys[i]` is the maximum key under `children[i]`.
    Children(Vec<usize>),
}

impl<K, V> Node<K, V> {
    /// Number of cells (height 1) or children (above).
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn max_key(&self) -> &K {
        self.keys.last().expect("a linked node is never empty")
    }

    pub fn children(&self) -> &[usize] {
        match &self.kids {
            Kids::Children(children) => children,
            Kids::Vals(_) => unreachable!("expected a node above height 1"),
        }
    }

    fn children_mut(&mut self) -> &mut Vec<usize> {
        match &mut self.kids {
            Kids::Children(children) => children,
            Kids::Vals(_) => unreachable!("expected a node above height 1"),
        }
    }

    fn vals_mut(&mut self) -> &mut Vec<V> {
        match &mut self.kids {
            Kids::Vals(vals) => vals,
            Kids::Children(_) => unreachable!("expected a height-1 node"),
        }
    }
}

/// A move of cells between two adjacent siblings, `keys` and `kids` in step.
#[derive(Clone, Copy)]
enum Shift {
    /// The left node's cells from this position on go to the front of the
    /// right node.
    Right(usize),
    /// The right node's first `n` cells go to the back of the left node.
    Left(usize),
}

impl Shift {
    fn apply<T>(self, left: &mut Vec<T>, right: &mut Vec<T>) {
        match self {
            Shift::Right(from) => drop(right.splice(0..0, left.drain(from..))),
            Shift::Left(n) => left.extend(right.drain(..n)),
        }
    }
}

/// Scratch of the locate walk, owned by its tree so a warmed walk allocates
/// nothing: the nodes of one height with the part of the batch routed to
/// each, and the next height's, being cut from them.
#[derive(Clone, Debug, Default)]
pub(crate) struct Frontier {
    level: Vec<(usize, Range<usize>)>,
    below: Vec<(usize, Range<usize>)>,
}

/// Charges `n` item cells of a height-1 node that holds `len` of them.  The
/// one cell of a single-item tree is covered by the visit of its root: the
/// tree has height 0, and an operation on it costs the one touch the bare
/// leaf slot used to.
fn touch_cells(len: usize, n: usize) {
    if len > 1 {
        touch(n as u64);
    }
}

/// The node slab: every node of one tree lives here, free slots are threaded
/// into an intrusive free list, and the occupancy bounds of the configured
/// fanout are carried alongside so structural ops can repair against them.
#[derive(Clone, Debug)]
pub(crate) struct Arena<K, V> {
    slots: Vec<Slot<K, V>>,
    free: usize,
    fanout: usize,
    min_c: usize,
    max_c: usize,
}

impl<K: Ord + Clone, V> Arena<K, V> {
    pub fn new(fanout: usize) -> Self {
        Arena {
            slots: Vec::new(),
            free: NIL,
            fanout: fanout.max(2),
            min_c: (fanout / 2).max(2),
            max_c: fanout.max(3),
        }
    }

    /// The fanout this arena was configured with (`3` shares the 2..=3
    /// bounds of the 2-3 instantiation but reports itself).
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    // ------------------------------------------------------------------
    // Slab primitives
    // ------------------------------------------------------------------

    /// Allocates an empty node of `height` whose arrays have room for one
    /// entry over the maximum — what an insertion holds just before it
    /// splits — so no later repair of the node reallocates them.
    fn new_node(&mut self, height: usize) -> usize {
        touch(1);
        let cap = self.max_c + 1;
        let slot = Slot::Node(Node {
            height,
            size: 0,
            keys: Vec::with_capacity(cap),
            kids: if height == 1 {
                Kids::Vals(Vec::with_capacity(cap))
            } else {
                Kids::Children(Vec::with_capacity(cap))
            },
        });
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

    /// Vacates a slot onto the free list, returning the node it held.
    fn free_node(&mut self, idx: usize) -> Node<K, V> {
        let slot = std::mem::replace(&mut self.slots[idx], Slot::Free { next: self.free });
        self.free = idx;
        match slot {
            Slot::Node(node) => node,
            Slot::Free { .. } => unreachable!("double free of a slot"),
        }
    }

    pub fn node(&self, idx: usize) -> &Node<K, V> {
        match &self.slots[idx] {
            Slot::Node(node) => node,
            Slot::Free { .. } => unreachable!("tree references a free slot"),
        }
    }

    fn node_mut(&mut self, idx: usize) -> &mut Node<K, V> {
        match &mut self.slots[idx] {
            Slot::Node(node) => node,
            Slot::Free { .. } => unreachable!("tree references a free slot"),
        }
    }

    fn max_key(&self, idx: usize) -> &K {
        self.node(idx).max_key()
    }

    /// Builds a node over `children` (equal heights, at most `max`).  A node
    /// below `min_children` is permitted here because only a root is ever
    /// built that small (over a root about to split, or the top of a bulk
    /// build).
    fn make_internal(&mut self, children: &[usize]) -> usize {
        debug_assert!((1..=self.max_c).contains(&children.len()));
        let idx = self.new_node(self.node(children[0]).height + 1);
        for (pos, &child) in children.iter().enumerate() {
            self.node_mut(idx).size += self.node(child).size;
            self.adopt(idx, pos, child);
        }
        idx
    }

    /// Items under the cells `range` of node `idx`.
    fn span_size(&self, idx: usize, range: Range<usize>) -> usize {
        match &self.node(idx).kids {
            Kids::Vals(_) => range.len(),
            Kids::Children(children) => children[range].iter().map(|&c| self.node(c).size).sum(),
        }
    }

    /// Moves cells between the adjacent siblings `l` and `r` (equal heights),
    /// keeping both cached sizes current.
    fn shift(&mut self, l: usize, r: usize, op: Shift) {
        let moved = match op {
            Shift::Right(from) => self.span_size(l, from..self.node(l).len()),
            Shift::Left(n) => self.span_size(r, 0..n),
        };
        debug_assert_ne!(l, r);
        let (left, right) = if l < r {
            let (lo, hi) = self.slots.split_at_mut(r);
            (&mut lo[l], &mut hi[0])
        } else {
            let (lo, hi) = self.slots.split_at_mut(l);
            (&mut hi[0], &mut lo[r])
        };
        let (Slot::Node(left), Slot::Node(right)) = (left, right) else {
            unreachable!("tree references a free slot")
        };
        op.apply(&mut left.keys, &mut right.keys);
        match (&mut left.kids, &mut right.kids) {
            (Kids::Vals(left), Kids::Vals(right)) => op.apply(left, right),
            (Kids::Children(left), Kids::Children(right)) => op.apply(left, right),
            _ => unreachable!("siblings have equal height"),
        }
        match op {
            Shift::Right(_) => {
                left.size -= moved;
                right.size += moved;
            }
            Shift::Left(_) => {
                left.size += moved;
                right.size -= moved;
            }
        }
    }

    // ------------------------------------------------------------------
    // Point operations
    // ------------------------------------------------------------------

    /// Descends from `idx` to the cell holding `key`, if present: `(node,
    /// position)`.  One touch per node visited and one for the cell the key
    /// routes to.
    fn find(&self, mut idx: usize, key: &K) -> Option<(usize, usize)> {
        loop {
            touch(1);
            let node = self.node(idx);
            let pos = node.keys.partition_point(|m| m < key);
            if pos == node.len() {
                return None;
            }
            match &node.kids {
                Kids::Children(children) => idx = children[pos],
                Kids::Vals(_) => {
                    touch_cells(node.len(), 1);
                    return (node.keys[pos] == *key).then_some((idx, pos));
                }
            }
        }
    }

    pub fn get(&self, idx: usize, key: &K) -> Option<&V> {
        let (node, pos) = self.find(idx, key)?;
        match &self.node(node).kids {
            Kids::Vals(vals) => Some(&vals[pos]),
            Kids::Children(_) => unreachable!("find ends at height 1"),
        }
    }

    pub fn get_mut(&mut self, idx: usize, key: &K) -> Option<&mut V> {
        let (node, pos) = self.find(idx, key)?;
        Some(&mut self.node_mut(node).vals_mut()[pos])
    }

    /// The item with rank `rank` (0-based, key order) under `idx`.
    pub fn select(&self, mut idx: usize, mut rank: usize) -> Option<(&K, &V)> {
        if rank >= self.node(idx).size {
            return None;
        }
        loop {
            touch(1);
            let node = self.node(idx);
            match &node.kids {
                Kids::Vals(vals) => {
                    touch_cells(vals.len(), 1);
                    return Some((&node.keys[rank], &vals[rank]));
                }
                Kids::Children(children) => {
                    let mut next = NIL;
                    for &c in children {
                        let sz = self.node(c).size;
                        if rank < sz {
                            next = c;
                            break;
                        }
                        rank -= sz;
                    }
                    debug_assert_ne!(next, NIL, "rank under size must land in a child");
                    idx = next;
                }
            }
        }
    }

    /// In-place point insertion: one root-to-cell traversal that splits
    /// overfull children on the way back up.  Returns the previous value for
    /// the key, if any.
    ///
    /// Cached metadata is maintained incrementally: `size` grows by one and
    /// only the routing key of the child actually descended into is
    /// rewritten, and only when that child's maximum moved.  After the call
    /// `idx` may itself hold `max_children + 1` — which only the caller (the
    /// parent, or [`Arena::grow_root`] at the root) can repair, as with the
    /// underflow of [`Arena::remove_point`].
    pub fn insert_point(&mut self, idx: usize, key: K, val: V) -> Option<V> {
        touch(1);
        let node = self.node_mut(idx);
        let at = node.keys.partition_point(|m| *m < key);
        let above_all = at == node.len();
        let (pos, child) = match &mut node.kids {
            Kids::Vals(vals) => {
                if !above_all && node.keys[at] == key {
                    touch_cells(vals.len(), 1);
                    return Some(std::mem::replace(&mut vals[at], val));
                }
                touch(1);
                node.keys.insert(at, key);
                vals.insert(at, val);
                node.size += 1;
                return None;
            }
            Kids::Children(children) => {
                let pos = at.min(children.len() - 1);
                (pos, children[pos])
            }
        };
        let prev = self.insert_point(child, key, val);
        if prev.is_some() {
            // Pure value replacement: no structural or key change anywhere
            // on the path, so the cached metadata is intact.
            return prev;
        }
        self.node_mut(idx).size += 1;
        if above_all {
            // The key went in above every routing key.
            let max = self.max_key(child).clone();
            self.node_mut(idx).keys[pos] = max;
        }
        self.split_child(idx, pos);
        None
    }

    /// In-place point removal from under `idx`: one root-to-cell traversal
    /// that repairs underfull children (borrow from or merge with a sibling)
    /// on the way back up.  Returns the removed item.  `size` and the one
    /// affected routing key are maintained incrementally.
    ///
    /// After the call `idx` may itself be below `min_children` — even empty,
    /// if it was a one-cell root — which only the caller (the parent, or
    /// [`crate::BTree::remove`] at the root) can repair, exactly as with the
    /// overflow of [`Arena::insert_point`].
    pub fn remove_point(&mut self, idx: usize, key: &K) -> Option<(K, V)> {
        touch(1);
        let node = self.node_mut(idx);
        let pos = node.keys.partition_point(|m| m < key);
        let was_max = *node.keys.get(pos)? == *key;
        let child = match &mut node.kids {
            Kids::Vals(vals) => {
                if !was_max {
                    return None;
                }
                node.size -= 1;
                return Some((node.keys.remove(pos), vals.remove(pos)));
            }
            Kids::Children(children) => children[pos],
        };
        let removed = self.remove_point(child, key)?;
        let child_max = was_max.then(|| self.max_key(child).clone());
        let node = self.node_mut(idx);
        node.size -= 1;
        if let Some(max) = child_max {
            node.keys[pos] = max;
        }
        if self.node(child).len() < self.min_c {
            self.rebalance(idx, pos);
        }
        Some(removed)
    }

    /// Splits `children[pos]` of `idx` into as many evenly filled nodes as
    /// its cell count needs (none when it fits in `max_children`): the child
    /// keeps the first group, the rest become new right siblings of the same
    /// height, adopted by `idx` — whose `size` already counts them — right
    /// after it.  Every group lands in `min..=max` (`2·min - 1 <= max`).
    /// Returns the number of siblings added.
    fn split_child(&mut self, idx: usize, pos: usize) -> usize {
        let max_c = self.max_c;
        let child = self.node(idx).children()[pos];
        let (len, height) = (self.node(child).len(), self.node(child).height);
        if len <= max_c {
            return 0;
        }
        let groups = len.div_ceil(max_c);
        let (base, extra) = (len / groups, len % groups);
        // Groups come off the tail, last first: each move is the end of the
        // child's arrays, and each sibling lands right behind the child.
        let mut end = len;
        for g in (1..groups).rev() {
            let start = end - (base + usize::from(g < extra));
            let sibling = self.new_node(height);
            self.shift(child, sibling, Shift::Right(start));
            self.adopt(idx, pos + 1, sibling);
            end = start;
        }
        let max = self.max_key(child).clone();
        self.node_mut(idx).keys[pos] = max;
        // A bulk insert's long merge buffers are not kept by the node that
        // stays; a few cells of slack are, so a node that overflows by more
        // than one cell now and then settles on a capacity and stays there.
        let node = self.node_mut(child);
        if node.keys.capacity() > 2 * (max_c + 1) {
            node.keys.shrink_to(max_c + 1);
            match &mut node.kids {
                Kids::Vals(vals) => vals.shrink_to(max_c + 1),
                Kids::Children(children) => children.shrink_to(max_c + 1),
            }
        }
        groups - 1
    }

    /// Puts as many levels over `root` as it takes for it to fit in
    /// `max_children` again after an insertion, and returns the new root.
    pub fn grow_root(&mut self, mut root: usize) -> usize {
        while self.node(root).len() > self.max_c {
            root = self.make_internal(&[root]);
            self.split_child(root, 0);
        }
        root
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
            let children = self.node(idx).children();
            (children[lpos], children[lpos + 1])
        };
        let (llen, rlen) = (self.node(l).len(), self.node(r).len());
        let merged = llen + rlen <= self.max_c;
        if merged {
            self.shift(l, r, Shift::Left(rlen));
            self.free_node(r);
            let node = self.node_mut(idx);
            node.children_mut().remove(lpos + 1);
            // The pair's maximum is the right node's; the left one's goes.
            node.keys.remove(lpos);
        } else {
            let target = (llen + rlen) / 2;
            let op = if llen > target {
                Shift::Right(target)
            } else {
                Shift::Left(target - llen)
            };
            self.shift(l, r, op);
            let left_max = self.max_key(l).clone();
            self.node_mut(idx).keys[lpos] = left_max;
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
    // One descent from the root with the whole sorted batch: each node above
    // height 1 cuts the batch among its children against its routing keys,
    // recurses only into children that receive keys, and on the way back
    // repairs each touched child once; a height-1 node merges its
    // share into (or out of) its cells.  One `touch` per node visited plus
    // one per cell read, created or freed.

    /// Read-only sweep: hands `emit` one result per key of the sorted batch
    /// `keys`, in order.
    pub fn sweep_get<'a, F: FnMut(Option<&'a V>)>(&'a self, idx: usize, keys: &[K], emit: &mut F) {
        touch(1);
        let node = self.node(idx);
        match &node.kids {
            Kids::Vals(vals) => {
                let mut at = 0;
                for key in keys {
                    at += node.keys[at..].partition_point(|m| m < key);
                    emit(match node.keys.get(at) {
                        Some(m) if m == key => {
                            touch_cells(vals.len(), 1);
                            Some(&vals[at])
                        }
                        _ => None,
                    });
                }
            }
            Kids::Children(children) => {
                let mut lo = 0;
                let mut pos = 0;
                while lo < keys.len() {
                    pos += node.keys[pos..].partition_point(|m| *m < keys[lo]);
                    let Some(bound) = node.keys.get(pos) else {
                        break;
                    };
                    let hi = lo + keys[lo..].partition_point(|k| k <= bound);
                    self.sweep_get(children[pos], &keys[lo..hi], emit);
                    lo = hi;
                    pos += 1;
                }
                // Keys above the node's maximum (possible at the root only).
                keys[lo..].iter().for_each(|_| emit(None));
            }
        }
    }

    /// The locate walk: hands `emit` the value cell of every key of the
    /// sorted `batch` (keyed by `key`) present under `idx`, in key order,
    /// one height at a time.  Each height is two loops over its frontier:
    /// the first only reads every node — its maximum key and its first
    /// child — so those loads are independent and their misses overlap; the
    /// second, on nodes now in cache, cuts each node's part of the batch
    /// among its children (or, at height 1, finds its keys).  Uncounted: a
    /// cache warm-up ahead of a metered sweep, not work in the cost model
    /// (see the module docs).
    pub fn locate<T>(
        &self,
        idx: usize,
        batch: &[T],
        key: impl Fn(&T) -> &K,
        frontier: &mut Frontier,
        emit: &mut impl FnMut(&V),
    ) {
        let Frontier { level, below } = frontier;
        level.clear();
        level.push((idx, 0..batch.len()));
        while !level.is_empty() {
            let mut loaded = 0;
            for (idx, range) in level.iter() {
                let node = self.node(*idx);
                loaded += usize::from(node.max_key() < key(&batch[range.start]));
                if let Kids::Children(children) = &node.kids {
                    loaded += children[0];
                }
            }
            std::hint::black_box(loaded);
            below.clear();
            for (idx, range) in level.drain(..) {
                let node = self.node(idx);
                let children = match &node.kids {
                    Kids::Children(children) => children,
                    Kids::Vals(vals) => {
                        let mut at = 0;
                        for t in &batch[range] {
                            at += node.keys[at..].partition_point(|m| m < key(t));
                            if node.keys.get(at) == Some(key(t)) {
                                emit(&vals[at]);
                            }
                        }
                        continue;
                    }
                };
                let (mut lo, mut pos) = (range.start, 0);
                while lo < range.end {
                    pos += node.keys[pos..].partition_point(|m| m < key(&batch[lo]));
                    // Keys above the node's maximum (possible at the root
                    // only) are absent.
                    let Some(bound) = node.keys.get(pos) else {
                        break;
                    };
                    let hi = lo + batch[lo..range.end].partition_point(|t| key(t) <= bound);
                    below.push((children[pos], lo..hi));
                    lo = hi;
                    pos += 1;
                }
            }
            std::mem::swap(level, below);
        }
    }

    /// Insert sweep: merges the next `n` items of the sorted batch `items`
    /// under the node `idx`, handing `emit` the replaced value (if any) per
    /// item.  Returns how many items were new.  Children that gained more
    /// than a node's worth of cells are split on the way back; `idx` itself
    /// may end overfull, which only its caller can repair.
    pub fn sweep_insert<F: FnMut(Option<V>)>(
        &mut self,
        idx: usize,
        items: &mut std::vec::Drain<'_, (K, V)>,
        n: usize,
        emit: &mut F,
    ) -> usize {
        touch(1);
        if self.node(idx).height == 1 {
            return self.insert_cells(idx, items, n, emit);
        }
        let mut total_added = 0;
        let mut left = n;
        let mut pos = 0;
        while left > 0 {
            let node = self.node(idx);
            let pending = &items.as_slice()[..left];
            // Items above every routing key extend the last child.
            let last_pos = node.len() - 1;
            pos += node.keys[pos..last_pos].partition_point(|m| *m < pending[0].0);
            let last = pos == last_pos;
            let take = if last {
                left
            } else {
                pending.partition_point(|(k, _)| *k <= node.keys[pos])
            };
            let child = node.children()[pos];
            let added = self.sweep_insert(child, items, take, emit);
            left -= take;
            total_added += added;
            self.node_mut(idx).size += added;
            if last && added > 0 {
                // The child may have grown past the end.
                let max = self.max_key(child).clone();
                self.node_mut(idx).keys[pos] = max;
            }
            pos += 1 + self.split_child(idx, pos);
        }
        total_added
    }

    /// Height-1 step of the insert sweep: one merge of the next `n` items
    /// into the cells of `idx`, in place (which may leave it overfull).
    /// Each new cell shifts only the old cells above its key, and the node
    /// held at most `max_children` of those, so the merge is
    /// `O(n · max_children)` however long the arrays grow.  Returns the
    /// number of new cells.
    fn insert_cells<F: FnMut(Option<V>)>(
        &mut self,
        idx: usize,
        items: &mut std::vec::Drain<'_, (K, V)>,
        n: usize,
        emit: &mut F,
    ) -> usize {
        touch(n as u64);
        let node = self.node_mut(idx);
        let Kids::Vals(vals) = &mut node.kids else {
            unreachable!("expected a height-1 node")
        };
        let mut at = 0;
        let mut added = 0;
        for (key, val) in items.take(n) {
            at += node.keys[at..].partition_point(|k| *k < key);
            if node.keys.get(at) == Some(&key) {
                emit(Some(std::mem::replace(&mut vals[at], val)));
            } else {
                emit(None);
                added += 1;
                node.keys.insert(at, key);
                vals.insert(at, val);
            }
            at += 1;
        }
        node.size += added;
        added
    }

    /// Remove sweep: removes the keys of the sorted batch `keys` from under
    /// the node `idx`, handing `emit` the removed item (or `None`) per key,
    /// in order.  Returns the number removed.
    ///
    /// On return every child of `idx` is well-formed (`min..=max`) unless
    /// `idx` is left with a single child; `idx` itself may hold fewer than
    /// `min_children` — even none — which only its caller can repair.
    pub fn sweep_remove<F: FnMut(Option<(K, V)>)>(
        &mut self,
        idx: usize,
        keys: &[K],
        emit: &mut F,
    ) -> usize {
        touch(1);
        if self.node(idx).height == 1 {
            return self.remove_cells(idx, keys, emit);
        }
        let mut total_removed = 0;
        let mut lo = 0;
        let mut pos = 0;
        // Routing is lazy — each child's share is cut against its *current*
        // routing key — so a repair may reshape everything from `pos` on.
        while lo < keys.len() {
            let node = self.node(idx);
            pos += node.keys[pos..].partition_point(|m| *m < keys[lo]);
            let Some(bound) = node.keys.get(pos) else {
                break;
            };
            let hi = lo + keys[lo..].partition_point(|k| k <= bound);
            let child = node.children()[pos];
            let max_hit = keys[hi - 1] == *bound;
            let removed = self.sweep_remove(child, &keys[lo..hi], emit);
            lo = hi;
            if removed == 0 {
                pos += 1;
                continue;
            }
            total_removed += removed;
            self.node_mut(idx).size -= removed;
            pos = self.settle(idx, pos, max_hit);
        }
        keys[lo..].iter().for_each(|_| emit(None));
        total_removed
    }

    /// Height-1 step of the remove sweep: one merge of `keys` against the
    /// cells of `idx`, closing each gap in place.
    fn remove_cells<F: FnMut(Option<(K, V)>)>(
        &mut self,
        idx: usize,
        keys: &[K],
        emit: &mut F,
    ) -> usize {
        let node = self.node_mut(idx);
        let Kids::Vals(vals) = &mut node.kids else {
            unreachable!("expected a height-1 node")
        };
        let before = vals.len();
        let mut at = 0;
        for key in keys {
            at += node.keys[at..].partition_point(|m| m < key);
            emit((node.keys.get(at) == Some(key)).then(|| (node.keys.remove(at), vals.remove(at))));
        }
        let removed = before - vals.len();
        touch_cells(before, removed);
        node.size -= removed;
        removed
    }

    /// Brings `children[pos]` of `idx` back into shape after a remove sweep
    /// took items from under it (`max_hit`: possibly its maximum), and
    /// returns the position the sweep resumes from.
    fn settle(&mut self, idx: usize, pos: usize, max_hit: bool) -> usize {
        let child = self.node(idx).children()[pos];
        let len = self.node(child).len();
        if len == 0 {
            self.free_node(child);
            self.remove_child(idx, pos);
            return pos;
        }
        if max_hit {
            let max = self.max_key(child).clone();
            self.node_mut(idx).keys[pos] = max;
        }
        if len >= self.min_c || self.node(idx).len() == 1 {
            // Well-formed, or an only child: the caller of `idx` sees a
            // one-child node and dissolves the chain.
            return pos + 1;
        }
        let chain = len == 1
            && matches!(&self.node(child).kids,
                Kids::Children(only) if self.node(only[0]).len() < self.min_c);
        if !chain {
            return self.rebalance(idx, pos);
        }
        // The child is a chain down to an underfull node, which must not be
        // buried in a sibling: cut the chain out and hang what it ends in on
        // the facing edge of a neighbour, at its own height.
        self.remove_child(idx, pos);
        let piece = self.collapse(child);
        let at = pos.saturating_sub(1);
        let neighbour = self.node(idx).children()[at];
        self.attach(neighbour, piece, pos == 0);
        let max = self.max_key(neighbour).clone();
        self.node_mut(idx).keys[at] = max;
        let next = at + 1 + self.split_child(idx, at);
        // A neighbour to the right has not been swept yet.
        if pos == 0 {
            0
        } else {
            next
        }
    }

    /// Hangs `piece` — a subtree whose root alone may hold fewer than
    /// `min_children`, down to a height-1 node with a single cell — on the
    /// `front` (else back) edge of the taller, well-formed subtree `spine`;
    /// the keys of `piece` all lie beyond that edge.  `size` and the edge
    /// routing key are kept current down the spine, an underfull `piece` is
    /// merged with or evened out against the sibling it lands next to (a
    /// single cell simply joins the height-1 node at the edge), and each
    /// spine node below `spine` that ends up overfull splits; `spine` itself
    /// is the caller's to split.
    fn attach(&mut self, spine: usize, piece: usize, front: bool) {
        touch(1);
        let (added, below) = {
            let piece = self.node(piece);
            let lone_cell = piece.height == 1 && piece.len() == 1;
            (piece.size, if lone_cell { 0 } else { piece.height })
        };
        let node = self.node_mut(spine);
        node.size += added;
        let len = node.len();
        if node.height == below + 1 {
            let at = if front { 0 } else { len };
            if below == 0 {
                let mut cell = self.free_node(piece);
                let (key, val) = (cell.keys.pop(), cell.vals_mut().pop());
                let node = self.node_mut(spine);
                node.keys.insert(at, key.expect("a lone cell"));
                node.vals_mut().insert(at, val.expect("a lone cell"));
            } else {
                self.adopt(spine, at, piece);
                if self.node(piece).len() < self.min_c {
                    self.rebalance(spine, at);
                }
            }
        } else {
            let edge = if front { 0 } else { len - 1 };
            let child = node.children()[edge];
            self.attach(child, piece, front);
            let max = self.max_key(child).clone();
            self.node_mut(spine).keys[edge] = max;
            self.split_child(spine, edge);
        }
    }

    /// Inserts `child` as `children[pos]` of `idx`, whose `size` already
    /// counts it.
    fn adopt(&mut self, idx: usize, pos: usize, child: usize) {
        let max = self.max_key(child).clone();
        let node = self.node_mut(idx);
        node.children_mut().insert(pos, child);
        node.keys.insert(pos, max);
    }

    /// Unlinks `children[pos]` of `idx` with its routing key; `size` is the
    /// caller's to keep.
    fn remove_child(&mut self, idx: usize, pos: usize) {
        let node = self.node_mut(idx);
        node.children_mut().remove(pos);
        node.keys.remove(pos);
    }

    /// Frees the chain of one-child nodes hanging from `idx` and returns the
    /// first node below it that holds items or several children — or NIL,
    /// freeing that too, when the chain ends in an empty node.
    pub fn collapse(&mut self, mut idx: usize) -> usize {
        loop {
            let node = self.node(idx);
            match (&node.kids, node.len()) {
                (_, 0) => {
                    self.free_node(idx);
                    return NIL;
                }
                (Kids::Children(only), 1) => {
                    let only = only[0];
                    self.free_node(idx);
                    idx = only;
                }
                _ => return idx,
            }
        }
    }

    // ------------------------------------------------------------------
    // Bulk build / drain
    // ------------------------------------------------------------------

    /// Builds a balanced tree from `n` sorted, deduplicated items in O(n).
    pub fn build_sorted(&mut self, n: usize, mut items: impl Iterator<Item = (K, V)>) -> usize {
        // A linear build touches every created cell (the nodes are a
        // constant fraction on top, folded into the ceiling).
        touch_cells(n, n);
        if n == 0 {
            return NIL;
        }
        let groups = n.div_ceil(self.max_c);
        let (base, extra) = (n / groups, n % groups);
        let mut level = Vec::with_capacity(groups);
        for g in 0..groups {
            let take = base + usize::from(g < extra);
            let idx = self.new_node(1);
            let node = self.node_mut(idx);
            let Kids::Vals(vals) = &mut node.kids else {
                unreachable!("expected a height-1 node")
            };
            for (key, val) in items.by_ref().take(take) {
                node.keys.push(key);
                vals.push(val);
            }
            node.size = take;
            level.push(idx);
        }
        debug_assert!(items.next().is_none(), "more items than announced");
        self.build_levels(level)
    }

    /// Stacks levels over `level` (same-height nodes in key order) until one
    /// root remains, distributing each level's nodes evenly so every group
    /// lands in `min..=max` (a single undersized group can only be the
    /// root).  NIL for an empty level.
    fn build_levels(&mut self, mut level: Vec<usize>) -> usize {
        while level.len() > 1 {
            let groups = level.len().div_ceil(self.max_c);
            let (base, extra) = (level.len() / groups, level.len() % groups);
            let mut next = Vec::with_capacity(groups);
            let mut rest = level.as_slice();
            for g in 0..groups {
                let (children, tail) = rest.split_at(base + usize::from(g < extra));
                next.push(self.make_internal(children));
                rest = tail;
            }
            debug_assert!(rest.is_empty(), "grouping left a dangling child");
            level = next;
        }
        level.pop().unwrap_or(NIL)
    }

    /// In-order traversal into `out`, freeing the visited slots.
    pub fn collect_into(&mut self, idx: usize, out: &mut Vec<(K, V)>) {
        touch(1);
        let node = self.free_node(idx);
        match node.kids {
            Kids::Vals(vals) => {
                touch_cells(vals.len(), vals.len());
                out.extend(node.keys.into_iter().zip(vals));
            }
            Kids::Children(children) => {
                for child in children {
                    self.collect_into(child, out);
                }
            }
        }
    }

    /// In-order traversal by reference (diagnostic; uncounted).
    pub fn for_each<'a, F: FnMut(&'a K, &'a V)>(&'a self, idx: usize, f: &mut F) {
        let node = self.node(idx);
        match &node.kids {
            Kids::Vals(vals) => node.keys.iter().zip(vals).for_each(|(k, v)| f(k, v)),
            Kids::Children(children) => {
                for &child in children {
                    self.for_each(child, f);
                }
            }
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
        let Slot::Node(node) = &self.slots[idx] else {
            panic!("tree references free slot {idx}")
        };
        let mut nodes = 1usize;
        let lo = match &node.kids {
            Kids::Vals(vals) => {
                assert_eq!(node.keys.len(), vals.len(), "keys out of step with values");
                assert_eq!(node.height, 1, "items live at height 1");
                assert_eq!(node.size, vals.len(), "cached size wrong");
                1
            }
            Kids::Children(children) => {
                assert_eq!(
                    node.keys.len(),
                    children.len(),
                    "routing-key array out of step with children"
                );
                let mut size = 0;
                for (&c, k) in children.iter().zip(&node.keys) {
                    let (h, n) = self.check_subtree(c, false);
                    nodes += n;
                    size += self.node(c).size;
                    assert_eq!(node.height, h + 1, "cached height wrong, or heights differ");
                    assert_eq!(k, self.max_key(c), "routing key is not the child max");
                }
                assert_eq!(node.size, size, "cached size wrong");
                2
            }
        };
        let lo = if is_root { lo } else { self.min_c };
        assert!(
            (lo..=self.max_c).contains(&node.len()),
            "node at height {} must hold {lo}..={}, holds {}",
            node.height,
            self.max_c,
            node.len()
        );
        assert!(
            node.keys.windows(2).all(|w| w[0] < w[1]),
            "keys out of order"
        );
        (node.height, nodes)
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
    //! Directed tests of the height-1 nodes (items move with their keys
    //! through every split, merge and even-out) and of `settle`'s chain case,
    //! the one caller of `attach`: one `batch_remove` thins a whole subtree
    //! of the root down to a chain over an underfull node, which must be hung
    //! on a neighbour's spine.

    use super::{Kids, Slot};
    use crate::tree::BTree;
    use std::collections::BTreeMap;

    const FANOUTS: [usize; 3] = [2, 8, 16];

    fn val(k: u64) -> u64 {
        k * 10 + 1
    }

    /// Invariants, then content (values included) against the model.
    fn agree(tree: &BTree<u64, u64>, model: &BTreeMap<u64, u64>) {
        tree.check_invariants();
        assert_eq!(tree.len(), model.len());
        let mut items = Vec::new();
        tree.for_each(|k, v| items.push((*k, *v)));
        assert!(items
            .iter()
            .copied()
            .eq(model.iter().map(|(k, v)| (*k, *v))));
    }

    /// `leaves` full height-1 nodes under one root, keys `0, 100, 200, …`.
    fn full_leaves(fanout: usize, leaves: u64) -> (BTree<u64, u64>, BTreeMap<u64, u64>, u64) {
        let max_c = fanout.max(3) as u64;
        let keys = (0..leaves * max_c).map(|i| i * 100);
        let model: BTreeMap<u64, u64> = keys.map(|k| (k, val(k))).collect();
        let tree = BTree::from_sorted_with_fanout(model.clone().into_iter().collect(), fanout);
        assert_eq!(tree.height(), 2);
        assert_eq!(tree.arena.node(tree.root).len() as u64, leaves);
        (tree, model, max_c)
    }

    /// Cell counts of the height-1 nodes under a height-2 root.
    fn leaf_lens(tree: &BTree<u64, u64>) -> Vec<usize> {
        let root = tree.arena.node(tree.root);
        assert_eq!(root.height, 2);
        let lens = root.children().iter();
        lens.map(|&c| tree.arena.node(c).len()).collect()
    }

    fn remove_checked(tree: &mut BTree<u64, u64>, model: &mut BTreeMap<u64, u64>, keys: &[u64]) {
        let removed = tree.batch_remove(keys);
        for (k, r) in keys.iter().zip(removed) {
            assert_eq!(r, model.remove(k).map(|v| (*k, v)));
        }
        agree(tree, model);
    }

    #[test]
    fn slot_stays_within_eighty_bytes() {
        assert!(std::mem::size_of::<Slot<u64, usize>>() <= 80);
    }

    #[test]
    fn configured_fanout_is_reported_as_given() {
        for fanout in [2usize, 3, 4, 8, 16, 64] {
            assert_eq!(BTree::<u64, u64>::with_fanout(fanout).fanout(), fanout);
            let built = BTree::from_sorted_with_fanout(vec![(1u64, 1u64)], fanout);
            assert_eq!(built.fanout(), fanout);
            let map = crate::RecencyMap::<u64, u64>::with_fanout(fanout);
            assert_eq!(map.fanout(), fanout);
        }
    }

    #[test]
    fn zero_to_one_to_zero_items() {
        for fanout in FANOUTS {
            let mut model = BTreeMap::new();
            let mut tree: BTree<u64, u64> = BTree::with_fanout(fanout);
            // Point operations.
            assert_eq!(tree.insert(5, 50), model.insert(5, 50));
            agree(&tree, &model);
            assert_eq!((tree.len(), tree.height()), (1, 0));
            assert_eq!(tree.first(), Some((&5, &50)));
            assert_eq!(tree.last(), Some((&5, &50)));
            assert_eq!(tree.insert(5, 51), model.insert(5, 51));
            assert_eq!(tree.remove(&4), None);
            assert_eq!(tree.remove(&5), model.remove(&5));
            agree(&tree, &model);
            assert!(tree.is_empty());
            // Batch operations, through a miss on either side of the item.
            assert_eq!(tree.batch_insert(vec![(5, 50)]), vec![None]);
            model.insert(5, 50);
            agree(&tree, &model);
            assert_eq!(tree.batch_get(&[4, 5, 6]), vec![None, Some(&50), None]);
            assert_eq!(tree.batch_insert(vec![(5, 52)]), vec![Some(50)]);
            assert_eq!(tree.batch_remove(&[4, 6]), vec![None, None]);
            assert_eq!(
                tree.batch_remove(&[4, 5, 6]),
                vec![None, Some((5, 52)), None]
            );
            model.clear();
            agree(&tree, &model);
            assert!(tree.is_empty());
            assert_eq!(tree.batch_get(&[5]), vec![None]);
            // A single item folds into the batch that follows it.
            tree.insert(5, 50);
            let replaced = tree.batch_insert(vec![(3, 30), (5, 55), (9, 90)]);
            assert_eq!(replaced, vec![None, Some(50), None]);
            model.extend([(3, 30), (5, 55), (9, 90)]);
            agree(&tree, &model);
        }
    }

    #[test]
    fn one_batch_insert_splits_a_leaf_node_three_ways() {
        for fanout in FANOUTS {
            let (mut tree, mut model, max_c) = full_leaves(fanout, 3);
            // All between the first two keys of the middle node.
            let lo = max_c * 100;
            let items: Vec<(u64, u64)> =
                (1..=2 * max_c + 1).map(|i| (lo + i, val(lo + i))).collect();
            let replaced = tree.batch_insert(items.clone());
            assert!(replaced.iter().all(Option::is_none));
            model.extend(items);
            agree(&tree, &model);
            // 3·max + 1 cells in one node make four groups; the root keeps
            // them all only at wide fanouts.
            assert_eq!(tree.len() as u64, 5 * max_c + 1);
            if 6 <= max_c {
                assert_eq!(leaf_lens(&tree).len(), 6);
            }
            // The same keys again: pure replacement, no structural change.
            let again: Vec<(u64, u64)> = model.keys().map(|&k| (k, k)).collect();
            let replaced = tree.batch_insert(again.clone());
            assert!(replaced.into_iter().eq(model.values().map(|v| Some(*v))));
            model.extend(again);
            agree(&tree, &model);
        }
    }

    #[test]
    fn batch_remove_empties_merges_and_evens_out_leaf_nodes() {
        for fanout in FANOUTS {
            let min_c = (fanout / 2).max(2) as u64;
            let node_keys =
                |max_c: u64, node: u64| (node * max_c..(node + 1) * max_c).map(|i| i * 100);

            // A node emptied entirely is dropped, with its routing key.
            let (mut tree, mut model, max_c) = full_leaves(fanout, 3);
            let whole: Vec<u64> = node_keys(max_c, 1).collect();
            remove_checked(&mut tree, &mut model, &whole);
            assert_eq!(leaf_lens(&tree), vec![max_c as usize; 2]);

            // (a) Underfull with a left neighbour it fits into: they merge.
            let (mut tree, mut model, max_c) = full_leaves(fanout, 3);
            let thin: Vec<u64> = (node_keys(max_c, 0).skip(min_c as usize))
                .chain(node_keys(max_c, 1).skip(min_c as usize - 1))
                .collect();
            remove_checked(&mut tree, &mut model, &thin);
            let lens = leaf_lens(&tree);
            assert_eq!(lens.len(), 2, "B={fanout}: {lens:?}");
            assert_eq!(lens[0] as u64, 2 * min_c - 1);

            // (b) Underfull with no left neighbour: the right one joins it.
            let (mut tree, mut model, max_c) = full_leaves(fanout, 3);
            let thin: Vec<u64> = (node_keys(max_c, 0).skip(min_c as usize - 1))
                .chain(node_keys(max_c, 1).skip(min_c as usize))
                .collect();
            // Right first, so the left node underflows beside a thin one.
            let (left, right) = thin.split_at((max_c - min_c + 1) as usize);
            remove_checked(&mut tree, &mut model, right);
            remove_checked(&mut tree, &mut model, left);
            let lens = leaf_lens(&tree);
            assert_eq!(lens.len(), 2, "B={fanout}: {lens:?}");
            assert_eq!(lens[0] as u64, 2 * min_c - 1);

            // (c) Underfull beside a neighbour too full to merge: the pair is
            // evened out, values moving with their keys — from the left
            // neighbour, and (first node) from the right one.
            for node in [1u64, 0] {
                let (mut tree, mut model, max_c) = full_leaves(fanout, 3);
                let thin: Vec<u64> = node_keys(max_c, node).skip(min_c as usize - 1).collect();
                remove_checked(&mut tree, &mut model, &thin);
                let lens = leaf_lens(&tree);
                let total = (max_c + min_c - 1) as usize;
                assert_eq!(lens.len(), 3, "B={fanout}: {lens:?}");
                assert_eq!((lens[0], lens[1]), (total / 2, total - total / 2));
                for (k, v) in &model {
                    assert_eq!(tree.get(k), Some(v));
                }
            }
        }
    }

    #[test]
    fn rank_selection_crosses_leaf_node_boundaries() {
        for fanout in FANOUTS {
            let (mut tree, mut model, max_c) = full_leaves(fanout, 3);
            // Uneven nodes: thin the middle one.
            remove_checked(&mut tree, &mut model, &[(max_c + 1) * 100]);
            for (rank, (k, v)) in model.iter().enumerate() {
                assert_eq!(tree.select(rank), Some((k, v)));
            }
            assert_eq!(tree.select(model.len()), None);
            assert_eq!(tree.first(), model.iter().next());
            assert_eq!(tree.last(), model.iter().next_back());
        }
    }

    #[test]
    fn height_counts_levels_above_the_items() {
        for fanout in FANOUTS {
            let max_c = fanout.max(3);
            for (n, height) in [
                (0, 0),
                (1, 0),
                (2, 1),
                (max_c, 1),
                (max_c + 1, 2),
                (max_c * max_c, 2),
                (max_c * max_c + 1, 3),
            ] {
                let items: Vec<(u64, u64)> = (0..n as u64).map(|k| (k, k)).collect();
                let tree = BTree::from_sorted_with_fanout(items, fanout);
                assert_eq!(tree.height(), height, "B={fanout} n={n}");
                tree.check_invariants();
                // Every item cell sits in a height-1 node.
                if n > 0 {
                    let mut idx = tree.root;
                    while let Kids::Children(children) = &tree.arena.node(idx).kids {
                        idx = children[0];
                    }
                    assert_eq!(tree.arena.node(idx).height, 1);
                }
            }
        }
    }

    /// Removes, in one batch, every key under `children[pos]` of the root
    /// except its `keep` largest, checks the tree against a `BTreeMap`, and
    /// returns the root's child count before and after.
    fn thin_to_chain(tree: &mut BTree<u64, u64>, pos: usize, keep: u64) -> (usize, usize) {
        let mut model: BTreeMap<u64, u64> = tree.keys().into_iter().map(|k| (k, k)).collect();
        assert!(tree.height() >= 3, "the thinned subtree must be a chain");
        let root = tree.arena.node(tree.root);
        let before = root.len();
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
        (before, tree.arena.node(tree.root).len())
    }

    /// A tree with slack in every node: ascending point inserts leave each
    /// node off the right spine about half full.  Grown until the root has
    /// a child to lose without collapsing.
    fn half_full(fanout: usize) -> BTree<u64, u64> {
        let mut tree = BTree::with_fanout(fanout);
        let mut k = 0;
        while tree.height() < 3 || tree.arena.node(tree.root).len() < 3 {
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
