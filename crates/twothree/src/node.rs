//! Arena-backed node layer of the fanout-B tree: point operations, the
//! sorted-batch sweep, bulk build and drain.
//!
//! Items live in the **height-1 nodes**: such a node holds
//! `min_children..=max_children` item *cells*, a key and its value, so the
//! bottom of a descent is one scan of a contiguous key array followed by one
//! indexed read — no slot per item, no hop to a leaf.  A node of height ≥ 2
//! holds as many children of equal height, with the same **contiguous
//! routing-key array** (`keys[i]` is the maximum key under `children[i]`).
//!
//! Nodes live in two strided pools owned by the [`Arena`]: one for the
//! height-1 nodes (keys and values), one for the nodes above (keys and child
//! ids).  A pool gives its node `i` a header (height, cached size, cell
//! count) at `heads[i]` and a region of `max_children + 1` cells at
//! `i · (max_children + 1)` in its key array and in its entry array, so a
//! node visit reads storage addressed by the node's index alone: nothing
//! sits behind a per-node heap buffer, and every load of a node can issue
//! as soon as its id is known.  A node id carries its pool in its low bit,
//! so a leaf reserves no children region and an internal node no values
//! region.  Free
//! nodes are threaded into an intrusive free list per pool; structural
//! operations move ids, and cells move between siblings by swapping them
//! between regions, so once the pools have grown a split, merge or even-out
//! allocates nothing.  A region's cells past the node's count are vacant:
//! a vacant value cell is `None`, a vacant key cell holds `K::default()`
//! (the tree's `K: Default` bound), and so does every cell of a free node.
//! Keys therefore move and are never cloned to fill a cell: a removal hands
//! out the key it stored and leaves a default behind, a node that outgrows
//! its region moves its cells into the spill buffer, and a pool grows by
//! regions of defaults.  The only copies are the routing keys of the nodes
//! above height 1, which are rewritten in place (`clone_from`), so an owned
//! key keeps its buffer when the new maximum fits it.  Nothing of a removed
//! key is kept (`check_invariants` asserts every vacant key cell default),
//! and removing a `String` key allocates nothing — save in the rare repair
//! that hangs a thinned subtree on a neighbour, which may split it and so
//! write a routing key into a new cell.  A key cell is a bare `K`
//! rather than an `Option<K>`, which would double a `u64` key cell.
//!
//! The one node that may outgrow its region is the one an insert sweep is
//! filling, before its parent cuts it into groups: a height-1 merge, or a
//! parent adopting the groups of a child.  At most one node per height is
//! in that state at a time; it keeps all its cells in a *spill* buffer the
//! pool owns and reuses, and returns to its region when the cut leaves it
//! `max_children` or fewer.
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
//! same sorted batch one height at a time, reading the header and every
//! cache line of the regions of every node of the frontier before it scans
//! any child, so the misses of a whole level are independent loads the
//! processor overlaps; it reports the value cell of every key it finds.  A
//! sweep that
//! follows it over the same batch then finds its nodes in cache.  It is a
//! cache effect, not work in the paper's model — the sweep still visits and
//! is charged for every node — so the walk calls neither `touch` nor `pass`,
//! and every metered count stays that of the sweep alone.  Which sweeps it
//! runs ahead of, and the tree and batch sizes below which it does not pay,
//! are [`crate::RecencyMap`]'s to decide; E18's sweep rows on a 2^12-item
//! map (in cache: the walk does not pay) and a 2^17-item map (it does) set
//! that gate.

use crate::cost::touch;
use std::ops::Range;

/// Null node id: "no node" (empty tree, end of a free list).
pub(crate) const NIL: usize = usize::MAX;

/// The id of a height-1 node at pool index `at`.
fn leaf_id(at: usize) -> usize {
    at << 1 | 1
}

/// The id of a node above height 1 at pool index `at`.
fn inner_id(at: usize) -> usize {
    at << 1
}

fn is_leaf(id: usize) -> bool {
    id & 1 == 1
}

/// The pool index of a node id.
fn slot(id: usize) -> usize {
    id >> 1
}

/// How many `T` share a 64-byte cache line.
fn per_line<T>() -> usize {
    (64 / std::mem::size_of::<T>().max(1)).max(1)
}

/// The value of a live cell.
fn live<V>(cell: &Option<V>) -> &V {
    cell.as_ref().expect("a live cell holds a value")
}

/// A node's header: its height, the items under it (height ≥ 2 only: a
/// height-1 node's size is its cell count) and its cell count.  A free
/// node's `size` links the free list.
#[derive(Clone, Copy, Debug)]
struct Head {
    len: u32,
    height: u32,
    size: usize,
}

/// The cells of a node that outgrew its region (see the module docs).
#[derive(Clone, Debug)]
struct Spill<K, E> {
    owner: usize,
    keys: Vec<K>,
    ents: Vec<E>,
}

/// One kind of node — height 1 (`E` a value cell) or above (`E` a child
/// id) — as strided regions of `stride` cells, addressed by pool index.
#[derive(Clone, Debug)]
struct Pool<K, E> {
    heads: Vec<Head>,
    keys: Vec<K>,
    ents: Vec<E>,
    stride: usize,
    free: usize,
    spills: Vec<Spill<K, E>>,
}

impl<K: Ord + Default, E: Default> Pool<K, E> {
    fn new(stride: usize) -> Self {
        Pool {
            heads: Vec::new(),
            keys: Vec::new(),
            ents: Vec::new(),
            stride,
            free: NIL,
            spills: Vec::new(),
        }
    }

    /// Takes a node off the free list; the pool grows by one region of
    /// vacant cells first when the list is empty.
    fn alloc(&mut self, height: usize) -> usize {
        if self.free == NIL {
            self.free = self.heads.len();
            self.heads.push(Head {
                len: 0,
                height: 0,
                size: NIL,
            });
            self.keys
                .resize_with(self.keys.len() + self.stride, K::default);
            self.ents
                .resize_with(self.ents.len() + self.stride, E::default);
        }
        let at = self.free;
        self.free = self.heads[at].size;
        self.heads[at] = Head {
            len: 0,
            height: height as u32,
            size: 0,
        };
        at
    }

    /// Puts node `at` on the free list, vacating the cells it still holds
    /// (the routing key of an only child that moved up, or every cell of a
    /// drained node), so a free node keeps no key.
    fn release(&mut self, at: usize) {
        let cells = at * self.stride..at * self.stride + self.len(at);
        self.keys[cells.clone()].fill_with(K::default);
        self.ents[cells].fill_with(E::default);
        self.heads[at] = Head {
            len: 0,
            height: 0,
            size: self.free,
        };
        self.free = at;
    }

    fn len(&self, at: usize) -> usize {
        self.heads[at].len as usize
    }

    #[cold]
    fn spill(&self, at: usize) -> &Spill<K, E> {
        let mut spills = self.spills.iter();
        spills
            .find(|s| s.owner == at)
            .expect("an overfull node is spilled")
    }

    #[cold]
    fn spill_mut(&mut self, at: usize) -> &mut Spill<K, E> {
        let mut spills = self.spills.iter_mut();
        spills
            .find(|s| s.owner == at)
            .expect("an overfull node is spilled")
    }

    /// The keys and entries of node `at`, which is not overfull: what the
    /// read and remove paths see, which never meet a node an insert sweep
    /// is filling.
    fn region(&self, at: usize) -> (&[K], &[E]) {
        let len = self.len(at);
        debug_assert!(len <= self.stride, "an overfull node outside an insert");
        let cells = at * self.stride..at * self.stride + len;
        (&self.keys[cells.clone()], &self.ents[cells])
    }

    /// The keys and entries of node `at`, overfull or not.
    fn cells(&self, at: usize) -> (&[K], &[E]) {
        if self.len(at) <= self.stride {
            self.region(at)
        } else {
            let spill = self.spill(at);
            (&spill.keys, &spill.ents)
        }
    }

    fn key_mut(&mut self, at: usize, pos: usize) -> &mut K {
        if self.len(at) <= self.stride {
            &mut self.keys[at * self.stride + pos]
        } else {
            &mut self.spill_mut(at).keys[pos]
        }
    }

    fn ent_mut(&mut self, at: usize, pos: usize) -> &mut E {
        if self.len(at) <= self.stride {
            &mut self.ents[at * self.stride + pos]
        } else {
            &mut self.spill_mut(at).ents[pos]
        }
    }

    /// Reads node `at`'s header and a key and an entry from every cache
    /// line of its regions: loads that depend on nothing but `at`, for the
    /// locate walk to issue side by side.
    fn load(&self, at: usize, probe: &K, ent: impl Fn(&E) -> usize) -> usize {
        let region = at * self.stride..(at + 1) * self.stride;
        let keys = self.keys[region.clone()].iter().step_by(per_line::<K>());
        let ents = self.ents[region].iter().step_by(per_line::<E>());
        let below = keys.filter(|k| *k < probe).count();
        self.heads[at].len as usize + below + ents.map(ent).sum::<usize>()
    }

    /// Inserts a cell at `pos` of node `at`, spilling a full node.
    fn insert(&mut self, at: usize, pos: usize, key: K, ent: E) {
        let (len, stride) = (self.len(at), self.stride);
        if len < stride {
            let base = at * stride;
            let keys = &mut self.keys[base + pos..=base + len];
            let ents = &mut self.ents[base + pos..=base + len];
            // Each cell takes its left neighbour's contents; the vacant cell
            // at the end gives up its default key and empty entry.
            let (mut key, mut ent) = (key, ent);
            for (kc, ec) in keys.iter_mut().zip(ents) {
                key = std::mem::replace(kc, key);
                ent = std::mem::replace(ec, ent);
            }
        } else {
            if len == stride {
                self.spill_out(at);
            }
            let spill = self.spill_mut(at);
            spill.keys.insert(pos, key);
            spill.ents.insert(pos, ent);
        }
        self.heads[at].len += 1;
    }

    /// Removes the cell at `pos` of node `at` (never an overfull one) and
    /// hands out its key and entry; the cell it vacates holds defaults.
    fn remove(&mut self, at: usize, pos: usize) -> (K, E) {
        let len = self.len(at);
        debug_assert!(len <= self.stride, "only a split shrinks an overfull node");
        let base = at * self.stride;
        self.heads[at].len -= 1;
        let keys = &mut self.keys[base + pos..base + len];
        let ents = &mut self.ents[base + pos..base + len];
        let (mut key, mut ent) = (K::default(), E::default());
        for (kc, ec) in keys.iter_mut().zip(ents).rev() {
            key = std::mem::replace(kc, key);
            ent = std::mem::replace(ec, ent);
        }
        (key, ent)
    }

    /// Removes the cells of node `at` (never an overfull one) whose keys
    /// are in the sorted `keys`, in one pass from the first key's cell: a
    /// hit leaves its cell vacant and every cell kept moves down over the
    /// vacant ones once.  Hands `emit`, in key order, the stored key and
    /// entry of each hit (`None` for a miss), and returns the number
    /// removed.
    fn remove_sorted(
        &mut self,
        at: usize,
        keys: &[K],
        mut emit: impl FnMut(Option<(K, E)>),
    ) -> usize {
        let (base, len) = (at * self.stride, self.len(at));
        debug_assert!(len <= self.stride, "only a split shrinks an overfull node");
        let (cells, ents) = (
            &mut self.keys[base..base + len],
            &mut self.ents[base..base + len],
        );
        let first = keys
            .first()
            .map_or(len, |k| cells.partition_point(|m| m < k));
        let (mut write, mut next) = (first, 0);
        for read in first..len {
            while next < keys.len() && keys[next] < cells[read] {
                emit(None);
                next += 1;
            }
            if next < keys.len() && keys[next] == cells[read] {
                let (key, ent) = (&mut cells[read], &mut ents[read]);
                emit(Some((std::mem::take(key), std::mem::take(ent))));
                next += 1;
            } else {
                cells.swap(write, read);
                ents.swap(write, read);
                write += 1;
            }
        }
        keys[next..].iter().for_each(|_| emit(None));
        self.heads[at].len = write as u32;
        len - write
    }

    /// Moves cells between the adjacent siblings `l` and `r` by swapping
    /// them with vacant cells.  An overfull `l` gives its tail to an empty
    /// `r` (a split) and returns to its region once it fits.
    fn shift(&mut self, l: usize, r: usize, op: Shift) {
        let (llen, rlen, stride) = (self.len(l), self.len(r), self.stride);
        let (lbase, rbase) = (l * stride, r * stride);
        match op {
            Shift::Right(from) => {
                let n = llen - from;
                debug_assert!(rlen + n <= stride, "a shift overfills its target");
                if llen > stride {
                    debug_assert_eq!(rlen, 0, "an overfull node is only split");
                    let spill = self.spills.iter_mut().find(|s| s.owner == l);
                    let spill = spill.expect("an overfull node is spilled");
                    let cells = spill.keys.drain(from..).zip(spill.ents.drain(from..));
                    for (j, (key, ent)) in cells.enumerate() {
                        self.keys[rbase + j] = key;
                        self.ents[rbase + j] = ent;
                    }
                } else {
                    self.keys[rbase..rbase + rlen + n].rotate_right(n);
                    self.ents[rbase..rbase + rlen + n].rotate_right(n);
                    for j in 0..n {
                        self.keys.swap(lbase + from + j, rbase + j);
                        self.ents.swap(lbase + from + j, rbase + j);
                    }
                }
                self.heads[l].len = from as u32;
                self.heads[r].len += n as u32;
                if llen > stride && from <= stride {
                    self.spill_in(l);
                }
            }
            Shift::Left(n) => {
                debug_assert!(llen + n <= stride, "a shift overfills its target");
                for j in 0..n {
                    self.keys.swap(rbase + j, lbase + llen + j);
                    self.ents.swap(rbase + j, lbase + llen + j);
                }
                self.keys[rbase..rbase + rlen].rotate_left(n);
                self.ents[rbase..rbase + rlen].rotate_left(n);
                self.heads[l].len += n as u32;
                self.heads[r].len -= n as u32;
            }
        }
    }

    /// An unowned spill buffer, added when all are in use.
    fn spill_slot(&mut self) -> usize {
        let free = self.spills.iter().position(|s| s.owner == NIL);
        free.unwrap_or_else(|| {
            self.spills.push(Spill {
                owner: NIL,
                keys: Vec::new(),
                ents: Vec::new(),
            });
            self.spills.len() - 1
        })
    }

    /// Moves the full region of node `at` into a spill buffer.
    fn spill_out(&mut self, at: usize) {
        let slot = self.spill_slot();
        let region = at * self.stride..(at + 1) * self.stride;
        let spill = &mut self.spills[slot];
        spill.owner = at;
        let keys = self.keys[region.clone()].iter_mut();
        spill.keys.extend(keys.map(std::mem::take));
        let ents = self.ents[region].iter_mut();
        spill.ents.extend(ents.map(std::mem::take));
    }

    /// Moves the cells of node `at`, which fits its region again, back.
    fn spill_in(&mut self, at: usize) {
        let base = at * self.stride;
        let spill = self.spills.iter_mut().find(|s| s.owner == at);
        let spill = spill.expect("an overfull node is spilled");
        spill.owner = NIL;
        let cells = spill.keys.drain(..).zip(spill.ents.drain(..));
        for (j, (key, ent)) in cells.enumerate() {
            self.keys[base + j] = key;
            self.ents[base + j] = ent;
        }
    }

    /// Walks the free list: its length, after checking it visits free
    /// nodes only and ends.
    fn check_free(&self) -> usize {
        let mut count = 0usize;
        let mut cur = self.free;
        while cur != NIL {
            assert!(count <= self.heads.len(), "free list cycle at node {cur}");
            assert_eq!(
                self.heads[cur].height, 0,
                "free list visits live node {cur}"
            );
            cur = self.heads[cur].size;
            count += 1;
        }
        assert!(
            self.spills.iter().all(|s| s.owner == NIL),
            "a node is still spilled"
        );
        count
    }

    /// Checks that every cell past its node's count, in live and free
    /// nodes alike, holds a default key and an entry `vacant` accepts: no
    /// region keeps a key or an entry it no longer holds.
    fn check_vacant(&self, vacant: impl Fn(&E) -> bool) {
        for (at, head) in self.heads.iter().enumerate() {
            let cells = at * self.stride + head.len as usize..(at + 1) * self.stride;
            assert!(
                self.keys[cells.clone()].iter().all(|k| *k == K::default()),
                "a vacant key cell of node {at} keeps a key"
            );
            assert!(
                self.ents[cells].iter().all(&vacant),
                "a vacant entry cell of node {at} keeps an entry"
            );
        }
    }
}

/// A move of cells between two adjacent siblings.
#[derive(Clone, Copy)]
enum Shift {
    /// The left node's cells from this position on go to the front of the
    /// right node.
    Right(usize),
    /// The right node's first `n` cells go to the back of the left node.
    Left(usize),
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

/// The nodes of one tree: the height-1 pool and the pool above it, with the
/// occupancy bounds of the configured fanout carried alongside so structural
/// ops can repair against them.
#[derive(Clone, Debug)]
pub(crate) struct Arena<K, V> {
    leaves: Pool<K, Option<V>>,
    inner: Pool<K, usize>,
    fanout: usize,
    min_c: usize,
    max_c: usize,
    /// The nodes of the level a bulk build is stacking parents over, kept
    /// so a warmed build allocates nothing.
    level: Vec<usize>,
}

impl<K: Ord + Clone + Default, V> Arena<K, V> {
    pub fn new(fanout: usize) -> Self {
        let max_c = fanout.max(3);
        Arena {
            leaves: Pool::new(max_c + 1),
            inner: Pool::new(max_c + 1),
            fanout: fanout.max(2),
            min_c: (fanout / 2).max(2),
            max_c,
            level: Vec::new(),
        }
    }

    /// The fanout this arena was configured with (`3` shares the 2..=3
    /// bounds of the 2-3 instantiation but reports itself).
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    // ------------------------------------------------------------------
    // Node primitives
    // ------------------------------------------------------------------

    /// Allocates an empty node of `height`.
    fn new_node(&mut self, height: usize) -> usize {
        touch(1);
        if height == 1 {
            leaf_id(self.leaves.alloc(height))
        } else {
            inner_id(self.inner.alloc(height))
        }
    }

    /// Puts an emptied node, or one whose only child moved up, back on its
    /// pool's free list.
    fn free_node(&mut self, id: usize) {
        if is_leaf(id) {
            debug_assert_eq!(self.len(id), 0, "a freed leaf strands its values");
            self.leaves.release(slot(id));
        } else {
            self.inner.release(slot(id));
        }
    }

    /// Number of cells (height 1) or children (above).
    pub fn len(&self, id: usize) -> usize {
        if is_leaf(id) {
            self.leaves.len(slot(id))
        } else {
            self.inner.len(slot(id))
        }
    }

    pub fn height(&self, id: usize) -> usize {
        if is_leaf(id) {
            1
        } else {
            self.inner.heads[slot(id)].height as usize
        }
    }

    /// Items under `id`.
    pub fn size(&self, id: usize) -> usize {
        if is_leaf(id) {
            self.leaves.len(slot(id))
        } else {
            self.inner.heads[slot(id)].size
        }
    }

    /// The cached size of a node above height 1.
    fn size_mut(&mut self, id: usize) -> &mut usize {
        debug_assert!(!is_leaf(id), "a height-1 node's size is its cell count");
        &mut self.inner.heads[slot(id)].size
    }

    pub fn keys(&self, id: usize) -> &[K] {
        if is_leaf(id) {
            self.leaves.cells(slot(id)).0
        } else {
            self.inner.cells(slot(id)).0
        }
    }

    fn key_mut(&mut self, id: usize, pos: usize) -> &mut K {
        if is_leaf(id) {
            self.leaves.key_mut(slot(id), pos)
        } else {
            self.inner.key_mut(slot(id), pos)
        }
    }

    pub fn children(&self, id: usize) -> &[usize] {
        debug_assert!(!is_leaf(id), "expected a node above height 1");
        self.inner.cells(slot(id)).1
    }

    fn max_key(&self, id: usize) -> &K {
        self.keys(id).last().expect("a linked node is never empty")
    }

    /// Builds a node over `children` (equal heights, at most `max`).  A node
    /// below `min_children` is permitted here because only a root is ever
    /// built that small (over a root about to split, or the top of a bulk
    /// build).
    fn make_internal(&mut self, children: &[usize]) -> usize {
        debug_assert!((1..=self.max_c).contains(&children.len()));
        let first = children[0];
        let idx = self.new_node(self.height(first) + 1);
        for (pos, &child) in children.iter().enumerate() {
            *self.size_mut(idx) += self.size(child);
            self.adopt(idx, pos, child);
        }
        idx
    }

    /// Items under the cells `range` of node `idx`.
    fn span_size(&self, idx: usize, range: Range<usize>) -> usize {
        if is_leaf(idx) {
            range.len()
        } else {
            let children = &self.children(idx)[range];
            children.iter().map(|&c| self.size(c)).sum()
        }
    }

    /// Moves cells between the adjacent siblings `l` and `r` (equal heights),
    /// keeping both cached sizes current.
    fn shift(&mut self, l: usize, r: usize, op: Shift) {
        debug_assert_ne!(l, r);
        if is_leaf(l) {
            self.leaves.shift(slot(l), slot(r), op);
            return;
        }
        let moved = match op {
            Shift::Right(from) => self.span_size(l, from..self.len(l)),
            Shift::Left(n) => self.span_size(r, 0..n),
        };
        self.inner.shift(slot(l), slot(r), op);
        let (to, from) = match op {
            Shift::Right(_) => (r, l),
            Shift::Left(_) => (l, r),
        };
        *self.size_mut(to) += moved;
        *self.size_mut(from) -= moved;
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
            if is_leaf(idx) {
                let keys = self.leaves.region(slot(idx)).0;
                let pos = keys.partition_point(|m| m < key);
                if pos == keys.len() {
                    return None;
                }
                touch_cells(keys.len(), 1);
                return (keys[pos] == *key).then_some((idx, pos));
            }
            let (keys, children) = self.inner.region(slot(idx));
            let pos = keys.partition_point(|m| m < key);
            idx = *children.get(pos)?;
        }
    }

    pub fn get(&self, idx: usize, key: &K) -> Option<&V> {
        let (node, pos) = self.find(idx, key)?;
        Some(live(&self.leaves.region(slot(node)).1[pos]))
    }

    pub fn get_mut(&mut self, idx: usize, key: &K) -> Option<&mut V> {
        let (node, pos) = self.find(idx, key)?;
        Some(self.val_mut(node, pos))
    }

    /// The item with rank `rank` (0-based, key order) under `idx`.
    pub fn select(&self, mut idx: usize, mut rank: usize) -> Option<(&K, &V)> {
        if rank >= self.size(idx) {
            return None;
        }
        loop {
            touch(1);
            if is_leaf(idx) {
                let (keys, vals) = self.leaves.region(slot(idx));
                touch_cells(keys.len(), 1);
                return Some((&keys[rank], live(&vals[rank])));
            }
            let mut next = NIL;
            for &c in self.children(idx) {
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
    }

    /// In-place point insertion: one root-to-cell traversal that splits
    /// overfull children on the way back up.  A new key's value is built by
    /// `make` from the key before the key moves into its cell; a present
    /// key is left as it is, `make` is not called, and its cell is returned
    /// as `Err((node, position))`.
    ///
    /// Cached metadata is maintained incrementally: `size` grows by one and
    /// only the routing key of the child actually descended into is
    /// rewritten, and only when that child's maximum moved.  After the call
    /// `idx` may itself hold `max_children + 1` — which only the caller (the
    /// parent, or [`Arena::grow_root`] at the root) can repair, as with the
    /// underflow of [`Arena::remove_point`].
    pub fn insert_point(
        &mut self,
        idx: usize,
        key: K,
        make: impl FnOnce(&K) -> V,
    ) -> Result<(), (usize, usize)> {
        touch(1);
        let keys = self.keys(idx);
        let at_key = keys.partition_point(|m| *m < key);
        let above_all = at_key == keys.len();
        if is_leaf(idx) {
            if !above_all && keys[at_key] == key {
                touch_cells(keys.len(), 1);
                return Err((idx, at_key));
            }
            touch(1);
            let val = make(&key);
            self.leaves.insert(slot(idx), at_key, key, Some(val));
            return Ok(());
        }
        let pos = at_key.min(keys.len() - 1);
        let child = self.children(idx)[pos];
        // A present key changes nothing anywhere on the path, so the cached
        // metadata is intact.
        self.insert_point(child, key, make)?;
        *self.size_mut(idx) += 1;
        if above_all {
            // The key went in above every routing key.
            self.set_route(idx, pos, child);
        }
        self.split_child(idx, pos);
        Ok(())
    }

    /// The value of the cell at `pos` of the height-1 node `node`.
    pub fn val_mut(&mut self, node: usize, pos: usize) -> &mut V {
        let cell = self.leaves.ent_mut(slot(node), pos);
        cell.as_mut().expect("a live cell holds a value")
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
        let keys = self.keys(idx);
        let pos = keys.partition_point(|m| m < key);
        let was_max = *keys.get(pos)? == *key;
        if is_leaf(idx) {
            if !was_max {
                return None;
            }
            let (key, val) = self.leaves.remove(slot(idx), pos);
            return Some((key, val.expect("a live cell holds a value")));
        }
        let child = self.children(idx)[pos];
        let removed = self.remove_point(child, key)?;
        *self.size_mut(idx) -= 1;
        if was_max {
            self.set_route(idx, pos, child);
        }
        if self.len(child) < self.min_c {
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
        let child = self.children(idx)[pos];
        let len = self.len(child);
        if len <= self.max_c {
            return 0;
        }
        let height = self.height(child);
        let groups = len.div_ceil(self.max_c);
        let (base, extra) = (len / groups, len % groups);
        // Groups come off the tail, last first: each move is the end of the
        // child's cells, and each sibling lands right behind the child.
        let mut end = len;
        for g in (1..groups).rev() {
            let start = end - (base + usize::from(g < extra));
            let sibling = self.new_node(height);
            self.shift(child, sibling, Shift::Right(start));
            self.adopt(idx, pos + 1, sibling);
            end = start;
        }
        self.set_route(idx, pos, child);
        groups - 1
    }

    /// Puts as many levels over `root` as it takes for it to fit in
    /// `max_children` again after an insertion, and returns the new root.
    pub fn grow_root(&mut self, mut root: usize) -> usize {
        while self.len(root) > self.max_c {
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
            let children = self.children(idx);
            (children[lpos], children[lpos + 1])
        };
        let (llen, rlen) = (self.len(l), self.len(r));
        let merged = llen + rlen <= self.max_c;
        if merged {
            self.shift(l, r, Shift::Left(rlen));
            self.free_node(r);
            // The pair's maximum is the right node's routing key; the left
            // node takes the right one's place under it.
            self.remove_child(idx, lpos);
            *self.inner.ent_mut(slot(idx), lpos) = l;
        } else {
            let target = (llen + rlen) / 2;
            let op = if llen > target {
                Shift::Right(target)
            } else {
                Shift::Left(target - llen)
            };
            self.shift(l, r, op);
            self.set_route(idx, lpos, l);
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
        if is_leaf(idx) {
            let (cells, vals) = self.leaves.region(slot(idx));
            let mut at = 0;
            for key in keys {
                at += cells[at..].partition_point(|m| m < key);
                emit(match cells.get(at) {
                    Some(m) if m == key => {
                        touch_cells(cells.len(), 1);
                        Some(live(&vals[at]))
                    }
                    _ => None,
                });
            }
            return;
        }
        let (bounds, children) = self.inner.region(slot(idx));
        let mut lo = 0;
        let mut pos = 0;
        while lo < keys.len() {
            pos += bounds[pos..].partition_point(|m| *m < keys[lo]);
            let Some(bound) = bounds.get(pos) else {
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

    /// The locate walk: hands `emit` the value cell of every key of the
    /// sorted `batch` (keyed by `key`) present under `idx`, in key order,
    /// one height at a time.  Each height is two loops over its frontier:
    /// the first only reads every node — its header and a key and an entry
    /// from each cache line of its regions, all addressed by its id — so
    /// those loads are independent and their misses overlap; the
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
                let probe = key(&batch[range.start]);
                loaded += if is_leaf(*idx) {
                    self.leaves
                        .load(slot(*idx), probe, |v| usize::from(v.is_some()))
                } else {
                    self.inner.load(slot(*idx), probe, |&c| c)
                };
            }
            std::hint::black_box(loaded);
            below.clear();
            for (idx, range) in level.drain(..) {
                if is_leaf(idx) {
                    let (cells, vals) = self.leaves.region(slot(idx));
                    let mut at = 0;
                    for t in &batch[range] {
                        at += cells[at..].partition_point(|m| m < key(t));
                        if cells.get(at) == Some(key(t)) {
                            emit(live(&vals[at]));
                        }
                    }
                    continue;
                }
                let (bounds, children) = self.inner.region(slot(idx));
                let (mut lo, mut pos) = (range.start, 0);
                while lo < range.end {
                    pos += bounds[pos..].partition_point(|m| m < key(&batch[lo]));
                    // Keys above the node's maximum (possible at the root
                    // only) are absent.
                    let Some(bound) = bounds.get(pos) else {
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
        if is_leaf(idx) {
            return self.insert_cells(idx, items, n, emit);
        }
        let mut total_added = 0;
        let mut left = n;
        let mut pos = 0;
        while left > 0 {
            let (bounds, children) = self.inner.cells(slot(idx));
            let pending = &items.as_slice()[..left];
            // Items above every routing key extend the last child.
            let last_pos = bounds.len() - 1;
            pos += bounds[pos..last_pos].partition_point(|m| *m < pending[0].0);
            let last = pos == last_pos;
            let take = if last {
                left
            } else {
                pending.partition_point(|(k, _)| *k <= bounds[pos])
            };
            let child = children[pos];
            let added = self.sweep_insert(child, items, take, emit);
            left -= take;
            total_added += added;
            *self.size_mut(idx) += added;
            if last && added > 0 {
                // The child may have grown past the end.
                self.set_route(idx, pos, child);
            }
            pos += 1 + self.split_child(idx, pos);
        }
        total_added
    }

    /// Height-1 step of the insert sweep: merges the next `n` items into the
    /// cells of `idx` (which may leave it overfull, and spilled).  Items
    /// that fit go in one at a time, each new cell shifting only the old
    /// cells above its key; more than fit go through one merge pass
    /// ([`Arena::merge_cells`]).  Returns the number of new cells.
    fn insert_cells<F: FnMut(Option<V>)>(
        &mut self,
        idx: usize,
        items: &mut std::vec::Drain<'_, (K, V)>,
        n: usize,
        emit: &mut F,
    ) -> usize {
        touch(n as u64);
        let leaf = slot(idx);
        if self.leaves.len(leaf) + n > self.leaves.stride {
            return self.merge_cells(leaf, items.take(n), emit);
        }
        let mut at = 0;
        let mut added = 0;
        for (key, val) in items.take(n) {
            let cells = self.leaves.region(leaf).0;
            at += cells[at..].partition_point(|m| *m < key);
            if cells.get(at) == Some(&key) {
                emit(self.leaves.ent_mut(leaf, at).replace(val));
            } else {
                emit(None);
                added += 1;
                self.leaves.insert(leaf, at, key, Some(val));
            }
            at += 1;
        }
        added
    }

    /// [`Arena::insert_cells`] of more items than the height-1 node `leaf`
    /// has room for: one forward merge of its cells and the items into a
    /// spill buffer, which the node keeps when it overflowed (and moves back
    /// out of when replacements left it fitting after all).  Each cell moves
    /// at most twice, where one insertion at a time moves it once per new
    /// cell below it, so the merge is
    /// `O(n + max_children)` however many cells it ends with.
    fn merge_cells<F: FnMut(Option<V>)>(
        &mut self,
        leaf: usize,
        items: impl Iterator<Item = (K, V)>,
        emit: &mut F,
    ) -> usize {
        let spill = self.leaves.spill_slot();
        let Pool {
            heads,
            keys,
            ents,
            stride,
            spills,
            ..
        } = &mut self.leaves;
        let Spill {
            owner,
            keys: merged,
            ents: vals,
        } = &mut spills[spill];
        let (base, len) = (leaf * *stride, heads[leaf].len as usize);
        let (mut cell, end) = (base, base + len);
        for (key, val) in items {
            while cell < end && keys[cell] < key {
                merged.push(std::mem::take(&mut keys[cell]));
                vals.push(ents[cell].take());
                cell += 1;
            }
            if cell < end && keys[cell] == key {
                emit(ents[cell].replace(val));
            } else {
                emit(None);
                merged.push(key);
                vals.push(Some(val));
            }
        }
        merged.extend(keys[cell..end].iter_mut().map(std::mem::take));
        vals.extend(ents[cell..end].iter_mut().map(Option::take));
        let total = merged.len();
        heads[leaf].len = total as u32;
        if total > *stride {
            *owner = leaf;
        } else {
            let cells = merged.drain(..).zip(vals.drain(..));
            for (j, (key, val)) in cells.enumerate() {
                keys[base + j] = key;
                ents[base + j] = val;
            }
        }
        total - len
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
        if is_leaf(idx) {
            return self.remove_cells(idx, keys, emit);
        }
        let mut total_removed = 0;
        let mut lo = 0;
        let mut pos = 0;
        // Routing is lazy — each child's share is cut against its *current*
        // routing key — so a repair may reshape everything from `pos` on.
        while lo < keys.len() {
            let (bounds, children) = self.inner.region(slot(idx));
            pos += bounds[pos..].partition_point(|m| *m < keys[lo]);
            let Some(bound) = bounds.get(pos) else {
                break;
            };
            let hi = lo + keys[lo..].partition_point(|k| k <= bound);
            let child = children[pos];
            let max_hit = keys[hi - 1] == *bound;
            let removed = self.sweep_remove(child, &keys[lo..hi], emit);
            lo = hi;
            if removed == 0 {
                pos += 1;
                continue;
            }
            total_removed += removed;
            *self.size_mut(idx) -= removed;
            pos = self.settle(idx, pos, max_hit);
        }
        keys[lo..].iter().for_each(|_| emit(None));
        total_removed
    }

    /// Height-1 step of the remove sweep: one merge of `keys` against the
    /// cells of `idx`, closing the gaps in place.  A lone key, the common
    /// case on a large tree, closes its gap by the one-cell shift of
    /// [`Pool::remove`], which measured faster than the merge's swaps.
    /// Returns the number removed.
    fn remove_cells<F: FnMut(Option<(K, V)>)>(
        &mut self,
        idx: usize,
        keys: &[K],
        emit: &mut F,
    ) -> usize {
        let leaf = slot(idx);
        let before = self.leaves.len(leaf);
        let removed = if let [key] = keys {
            let cells = self.leaves.region(leaf).0;
            let at = cells.partition_point(|m| m < key);
            let hit = cells.get(at) == Some(key);
            emit(hit.then(|| {
                let (key, val) = self.leaves.remove(leaf, at);
                (key, val.expect("a live cell holds a value"))
            }));
            usize::from(hit)
        } else {
            self.leaves.remove_sorted(leaf, keys, |cell| {
                emit(cell.map(|(key, val)| (key, val.expect("a live cell holds a value"))))
            })
        };
        touch_cells(before, removed);
        removed
    }

    /// Brings `children[pos]` of `idx` back into shape after a remove sweep
    /// took items from under it (`max_hit`: possibly its maximum), and
    /// returns the position the sweep resumes from.
    fn settle(&mut self, idx: usize, pos: usize, max_hit: bool) -> usize {
        let child = self.children(idx)[pos];
        let len = self.len(child);
        if len == 0 {
            self.free_node(child);
            self.remove_child(idx, pos);
            return pos;
        }
        if max_hit {
            self.set_route(idx, pos, child);
        }
        if len >= self.min_c || self.len(idx) == 1 {
            // Well-formed, or an only child: the caller of `idx` sees a
            // one-child node and dissolves the chain.
            return pos + 1;
        }
        let chain = len == 1 && !is_leaf(child) && self.len(self.children(child)[0]) < self.min_c;
        if !chain {
            return self.rebalance(idx, pos);
        }
        // The child is a chain down to an underfull node, which must not be
        // buried in a sibling: cut the chain out and hang what it ends in on
        // the facing edge of a neighbour, at its own height.
        self.remove_child(idx, pos);
        let piece = self.collapse(child);
        let at = pos.saturating_sub(1);
        let neighbour = self.children(idx)[at];
        self.attach(neighbour, piece, pos == 0);
        self.set_route(idx, at, neighbour);
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
        let lone_cell = is_leaf(piece) && self.len(piece) == 1;
        let below = if lone_cell { 0 } else { self.height(piece) };
        if !is_leaf(spine) {
            *self.size_mut(spine) += self.size(piece);
        }
        let len = self.len(spine);
        if self.height(spine) == below + 1 {
            let at = if front { 0 } else { len };
            if below == 0 {
                if front {
                    self.shift(piece, spine, Shift::Right(0));
                } else {
                    self.shift(spine, piece, Shift::Left(1));
                }
                self.free_node(piece);
            } else {
                self.adopt(spine, at, piece);
                if self.len(piece) < self.min_c {
                    self.rebalance(spine, at);
                }
            }
        } else {
            let edge = if front { 0 } else { len - 1 };
            let child = self.children(spine)[edge];
            self.attach(child, piece, front);
            self.set_route(spine, edge, child);
            self.split_child(spine, edge);
        }
    }

    /// Rewrites the routing key at `pos` of `idx` to the maximum of
    /// `child`.  The key is cloned into the cell with `clone_from`, so an
    /// owned routing key keeps its buffer when the new maximum fits it: a
    /// removal that moves a node's maximum allocates nothing.
    fn set_route(&mut self, idx: usize, pos: usize, child: usize) {
        let mut route = std::mem::take(self.key_mut(idx, pos));
        route.clone_from(self.max_key(child));
        *self.key_mut(idx, pos) = route;
    }

    /// Inserts `child` as `children[pos]` of `idx`, whose `size` already
    /// counts it.
    fn adopt(&mut self, idx: usize, pos: usize, child: usize) {
        let max = self.max_key(child).clone();
        self.inner.insert(slot(idx), pos, max, child);
    }

    /// Unlinks `children[pos]` of `idx` with its routing key; `size` is the
    /// caller's to keep.
    fn remove_child(&mut self, idx: usize, pos: usize) {
        self.inner.remove(slot(idx), pos);
    }

    /// Frees the chain of one-child nodes hanging from `idx` and returns the
    /// first node below it that holds items or several children — or NIL,
    /// freeing that too, when the chain ends in an empty node.
    pub fn collapse(&mut self, mut idx: usize) -> usize {
        loop {
            match self.len(idx) {
                0 => {
                    self.free_node(idx);
                    return NIL;
                }
                1 if !is_leaf(idx) => {
                    let only = self.children(idx)[0];
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
        let mut level = std::mem::take(&mut self.level);
        level.clear();
        for g in 0..groups {
            let take = base + usize::from(g < extra);
            let (key, val) = items.next().expect("as many items as announced");
            let idx = self.new_node(1);
            self.leaves.insert(slot(idx), 0, key, Some(val));
            for (pos, (key, val)) in items.by_ref().take(take - 1).enumerate() {
                self.leaves.insert(slot(idx), pos + 1, key, Some(val));
            }
            level.push(idx);
        }
        debug_assert!(items.next().is_none(), "more items than announced");
        let root = self.build_levels(&mut level);
        self.level = level;
        root
    }

    /// Stacks levels over `level` (same-height nodes in key order) until one
    /// root remains, distributing each level's nodes evenly so every group
    /// lands in `min..=max` (a single undersized group can only be the
    /// root).  NIL for an empty level.  Each level is built in place: the
    /// parent of group `g` takes slot `g`, at or before the group's first
    /// child, so no child is overwritten before it is read.
    fn build_levels(&mut self, level: &mut Vec<usize>) -> usize {
        while level.len() > 1 {
            let groups = level.len().div_ceil(self.max_c);
            let (base, extra) = (level.len() / groups, level.len() % groups);
            let mut start = 0;
            for g in 0..groups {
                let end = start + base + usize::from(g < extra);
                level[g] = self.make_internal(&level[start..end]);
                start = end;
            }
            debug_assert_eq!(start, level.len(), "grouping left a dangling child");
            level.truncate(groups);
        }
        level.pop().unwrap_or(NIL)
    }

    /// In-order traversal into `out`, freeing the visited nodes.
    pub fn collect_into(&mut self, idx: usize, out: &mut Vec<(K, V)>) {
        touch(1);
        let len = self.len(idx);
        if is_leaf(idx) {
            touch_cells(len, len);
            let base = slot(idx) * self.leaves.stride;
            let Pool { keys, ents, .. } = &mut self.leaves;
            let cells = keys[base..base + len]
                .iter_mut()
                .zip(&mut ents[base..base + len]);
            out.extend(
                cells.map(|(key, val)| (std::mem::take(key), val.take().expect("a live cell"))),
            );
            self.leaves.heads[slot(idx)].len = 0;
        } else {
            for pos in 0..len {
                let child = self.children(idx)[pos];
                self.collect_into(child, out);
            }
        }
        self.free_node(idx);
    }

    /// In-order traversal by reference (diagnostic; uncounted).
    pub fn for_each<'a, F: FnMut(&'a K, &'a V)>(&'a self, idx: usize, f: &mut F) {
        if is_leaf(idx) {
            let (keys, vals) = self.leaves.cells(slot(idx));
            keys.iter().zip(vals).for_each(|(k, v)| f(k, live(v)));
        } else {
            for &child in self.children(idx) {
                self.for_each(child, f);
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
        let heads = if is_leaf(idx) {
            &self.leaves.heads
        } else {
            &self.inner.heads
        };
        let head = heads
            .get(slot(idx))
            .expect("tree references a node past its pool");
        let height = head.height as usize;
        assert_ne!(height, 0, "tree references free node {idx}");
        assert_eq!(is_leaf(idx), height == 1, "items live at height 1");
        let len = self.len(idx);
        let mut nodes = 1usize;
        let lo = if is_leaf(idx) {
            let vals = self.leaves.cells(slot(idx)).1;
            assert!(vals.iter().all(Option::is_some), "a live cell is vacant");
            1
        } else {
            let mut size = 0;
            for (&c, k) in self.children(idx).iter().zip(self.keys(idx)) {
                let (h, n) = self.check_subtree(c, false);
                nodes += n;
                size += self.size(c);
                assert_eq!(height, h + 1, "cached height wrong, or heights differ");
                assert_eq!(k, self.max_key(c), "routing key is not the child max");
            }
            assert_eq!(self.size(idx), size, "cached size wrong");
            2
        };
        let lo = if is_root { lo } else { self.min_c };
        assert!(
            (lo..=self.max_c).contains(&len),
            "node at height {height} must hold {lo}..={}, holds {len}",
            self.max_c,
        );
        assert!(
            self.keys(idx).windows(2).all(|w| w[0] < w[1]),
            "keys out of order"
        );
        (height, nodes)
    }

    /// Validates the pools themselves: every node is reachable either from
    /// the tree (`live` live nodes, counted by [`Arena::check_subtree`]) or
    /// from a free list — no leaks, no cycles — and no node is left spilled.
    pub fn check_slab(&self, live: usize) {
        let free = self.leaves.check_free() + self.inner.check_free();
        self.leaves.check_vacant(Option::is_none);
        self.inner.check_vacant(|&child| child == 0);
        let nodes = self.leaves.heads.len() + self.inner.heads.len();
        assert_eq!(
            live + free,
            nodes,
            "arena node leak: {live} live + {free} free != {nodes} nodes"
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

    use super::{is_leaf, Head};
    use crate::tree::BTree;
    use std::collections::BTreeMap;

    const FANOUTS: [usize; 5] = [2, 3, 8, 16, 64];

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

    /// Spacing of the keys of `full_leaves`, wide enough for a batch of
    /// `2 · max_children + 1` keys between two of them at every fanout.
    const GAP: u64 = 1000;

    /// `leaves` full height-1 nodes under one root, keys `0, GAP, 2·GAP, …`.
    fn full_leaves(fanout: usize, leaves: u64) -> (BTree<u64, u64>, BTreeMap<u64, u64>, u64) {
        let max_c = fanout.max(3) as u64;
        let keys = (0..leaves * max_c).map(|i| i * GAP);
        let model: BTreeMap<u64, u64> = keys.map(|k| (k, val(k))).collect();
        let tree = BTree::from_sorted_with_fanout(model.clone().into_iter().collect(), fanout);
        assert_eq!(tree.height(), 2);
        assert_eq!(tree.arena.len(tree.root) as u64, leaves);
        (tree, model, max_c)
    }

    /// Cell counts of the height-1 nodes under a height-2 root.
    fn leaf_lens(tree: &BTree<u64, u64>) -> Vec<usize> {
        assert_eq!(tree.arena.height(tree.root), 2);
        let lens = tree.arena.children(tree.root).iter();
        lens.map(|&c| tree.arena.len(c)).collect()
    }

    fn remove_checked(tree: &mut BTree<u64, u64>, model: &mut BTreeMap<u64, u64>, keys: &[u64]) {
        let removed = tree.batch_remove(keys);
        for (k, r) in keys.iter().zip(removed) {
            assert_eq!(r, model.remove(k).map(|v| (*k, v)));
        }
        agree(tree, model);
    }

    #[test]
    fn node_header_stays_within_sixteen_bytes() {
        assert!(std::mem::size_of::<Head>() <= 16);
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
            let lo = max_c * GAP;
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
                |max_c: u64, node: u64| (node * max_c..(node + 1) * max_c).map(|i| i * GAP);

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
            remove_checked(&mut tree, &mut model, &[(max_c + 1) * GAP]);
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
                    while !is_leaf(idx) {
                        idx = tree.arena.children(idx)[0];
                    }
                    assert_eq!(tree.arena.height(idx), 1);
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
        let before = tree.arena.len(tree.root);
        // Keys are dense, so the subtree holds exactly `lo..=hi`.
        let bounds = tree.arena.keys(tree.root);
        let lo = if pos == 0 { 0 } else { bounds[pos - 1] + 1 };
        let hi = bounds[pos];
        let batch: Vec<u64> = (lo..=hi - keep).collect();
        let removed = tree.batch_remove(&batch);
        for (k, r) in batch.iter().zip(removed) {
            assert_eq!(r, model.remove(k).map(|v| (*k, v)));
        }
        tree.check_invariants();
        assert!(tree.keys().iter().eq(model.keys()));
        (before, tree.arena.len(tree.root))
    }

    /// A tree with slack in every node: ascending point inserts leave each
    /// node off the right spine about half full.  Grown until the root has
    /// a child to lose without collapsing.
    fn half_full(fanout: usize) -> BTree<u64, u64> {
        let mut tree = BTree::with_fanout(fanout);
        let mut k = 0;
        while tree.height() < 3 || tree.arena.len(tree.root) < 3 {
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
