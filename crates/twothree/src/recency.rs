//! The arena-fused key/recency map that backs every segment of the
//! working-set maps.
//!
//! In the paper (Sections 5 and 6.1) every segment stores its items in two
//! balanced trees — one sorted by key and one sorted by recency — whose
//! leaves are cross-linked by direct pointers so that a batch located in one
//! order can be updated in the other at O(1) per item.  Earlier revisions of
//! this crate substituted a monotone *recency stamp* for the cross-links
//! (key-map `key → (stamp, value)`, recency-map `stamp → key`), which
//! preserved the asymptotic bounds but made every segment operation pay
//! **two** full tree passes — one per tree.
//!
//! [`RecencyMap`] now realises the paper's pointer design directly, without
//! `unsafe`: items live in a slab **arena** (`Vec<Slot>`), the single
//! key-ordered [`Tree23`] stores *arena indices*, and the recency order is an
//! intrusive doubly-linked list threaded through the arena slots via `usize`
//! links.  Locating an item by key therefore yields its recency position for
//! free — exactly the paper's direct pointer:
//!
//! * move-to-front and unlink-on-remove are O(1) splices,
//! * [`RecencyMap::push_front_batch`] / [`RecencyMap::push_back_batch`] are
//!   O(b) chain splices plus **one** key-map pass,
//! * [`RecencyMap::take_into`] walks the list from either end instead of
//!   searching a stamp tree, then clears the keys with one key-ordered
//!   batch removal.
//!
//! Every segment operation thus drives **one** tree where the stamp design
//! drove two, and drives it **once**: a batch of any size is one sorted-batch
//! sweep of the key map (see [`crate::batch`]), a single-item operation one
//! point traversal.  The sweeps hand their per-key results straight to the
//! list code through a closure, and the batch in flight (the slots walked off
//! the list, their keys in key order, the `(key, slot)` pairs bound for the
//! tree) lives in buffers the map keeps, so a warmed map moves a batch
//! without allocating anything but a `Vec` it returns, and a take or push
//! through a buffer the caller keeps ([`RecencyMap::take_into`],
//! [`RecencyMap::push_from`]) allocates nothing
//! (`tests/alloc_budget.rs`).  The O(1)-per-item list work is metered as one
//! `cost::touch` per splice so measured charges stay honest.  The
//! measured effect is tracked by experiment E18 (tree-passes-per-op, and the
//! per-key cost of the sweeps on a 2^17- and a 2^12-item map) and the E17
//! constants (`BENCH_e17*.json`).
//!
//! On a key tree that outgrows the cache, each of the three mutating sweeps
//! of a segment — the hit removal ([`RecencyMap::remove_batch_with`]), the
//! push of a chain, and the key removal of a take — runs behind the tree's
//! **locate walk** ([`Tree23::locate_batch`]): the same sorted batch, read
//! one height at a time — every node of a height loaded, header and every
//! cache line of its regions, before any is scanned — so the misses of a
//! level overlap, leaves the nodes the sweep is about to visit in cache.
//! After a removal's walk the map
//! reads each found item's arena slot, then both of its list neighbours, in
//! two loops of their own, so the unlinks find those in cache too.  This is
//! a cache effect, not work in the paper's model: neither the walk nor the
//! reads call `touch` or `pass`, and every metered count is the sweep's
//! alone.  The walk runs on key trees of at least `LOCATE_MIN_ITEMS` items
//! and batches of at least `LOCATE_MIN_KEYS` keys; E18's `n=2^12` sweep rows
//! are the in-cache side of that gate and its `n=2^17` rows the other.
//! Those rows push back the keys they just took or removed, so the walk
//! ahead of their push finds its nodes in cache already: it is neutral for
//! the removal round trip there and 27 % dearer for the take round trip.
//! `M1` on a uniform stream pushes into the segment in front instead, and
//! is 10–20 % slower per operation when only its hit removals run behind
//! the walk, so the walk stays ahead of all three sweeps.

use crate::cost::touch;
use crate::tree::Tree23;
use std::num::NonZeroUsize;

/// Null arena index: end of the recency list / free list.
const NIL: usize = usize::MAX;

/// An arena index as the key map stores it: one above the index, so a
/// vacant value cell of the key tree (`Option<Link>`) is no wider than a
/// `usize`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Link(NonZeroUsize);

impl Link {
    fn new(idx: usize) -> Self {
        Link(NonZeroUsize::new(idx + 1).expect("a live arena index is below NIL"))
    }

    fn idx(self) -> usize {
        self.0.get() - 1
    }
}

/// The smallest key tree the locate walk runs on.  E18's `n=2^12` sweep
/// rows are a tree that stays in cache between batches: forced on there, the
/// walk makes both round trips 40–45 % slower per key (454 against 323 and
/// 530 against 366 ns, medians of 21 runs), a second descent with no misses
/// to overlap.  Its `n=2^17` rows lie past this bound.
const LOCATE_MIN_ITEMS: usize = 1 << 13;

/// The smallest batch the locate walk runs for.  A batch of a few keys has
/// few misses per height to overlap, and where its paths are already in
/// cache the walk is a second descent for nothing; the 1–5-key sweeps of the
/// large segments of `fanin-zipf-read` and `hotshift-mixed-m2` stay below
/// this bound, E18's 80-key batches above it.  E18 has no row below it: a
/// hit-removal, push and take cycle on a 2^17-item map put the walk at
/// +10 % per key for 2-key batches and −5 to −7 % for 4 to 8 keys, inside
/// the 13 % that two builds of the same code differed by there, so the
/// bound is kept as it was.
const LOCATE_MIN_KEYS: usize = 16;

/// An end of the recency order: the front holds the most recent item, the
/// back the least recent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum End {
    /// The most recent end.
    Front,
    /// The least recent end.
    Back,
}

/// One arena slot: the intrusive recency links plus the item.  A free slot
/// holds `None` and reuses `next` as its free-list link.
#[derive(Clone, Debug)]
struct Slot<K, V> {
    prev: usize,
    next: usize,
    item: Option<(K, V)>,
}

/// The item arena with the recency order threaded through it.  Live slots
/// are on the recency list, free slots on the free list.  Every primitive is
/// O(1) and metered one touch per splice, so measured segment charges
/// include the list work.
#[derive(Clone, Debug)]
struct RecencyList<K, V> {
    slots: Vec<Slot<K, V>>,
    /// Most recent item (list head), `NIL` when empty.
    head: usize,
    /// Least recent item (list tail), `NIL` when empty.
    tail: usize,
    /// Head of the free-slot list, `NIL` when none.
    free: usize,
}

impl<K, V> RecencyList<K, V> {
    fn item(&self, idx: usize) -> &(K, V) {
        self.slots[idx]
            .item
            .as_ref()
            .expect("key-map points at a live arena slot")
    }

    /// Takes a slot off the free list (or grows the arena) and fills it.
    /// The returned slot is *not* linked into the recency list.
    fn alloc(&mut self, key: K, val: V) -> usize {
        match self.free {
            NIL => {
                self.slots.push(Slot {
                    prev: NIL,
                    next: NIL,
                    item: Some((key, val)),
                });
                self.slots.len() - 1
            }
            idx => {
                self.free = self.slots[idx].next;
                let slot = &mut self.slots[idx];
                slot.prev = NIL;
                slot.next = NIL;
                slot.item = Some((key, val));
                idx
            }
        }
    }

    /// Vacates a slot (which must already be unlinked from the recency list)
    /// onto the free list, returning its item.
    fn release(&mut self, idx: usize) -> (K, V) {
        let item = self.slots[idx].item.take().expect("releasing a live slot");
        self.slots[idx].prev = NIL;
        self.slots[idx].next = self.free;
        self.free = idx;
        item
    }

    /// Reads the slots `idxs`, then both list neighbours of each, in two
    /// separate loops: the loads of one loop do not depend on each other, so
    /// their misses overlap instead of each unlink paying its own.
    fn warm(&self, idxs: &[usize]) {
        let mut links = 0;
        for &idx in idxs {
            let slot = &self.slots[idx];
            links ^= slot.prev ^ slot.next;
        }
        for &idx in idxs {
            let Slot { prev, next, .. } = self.slots[idx];
            if prev != NIL {
                links ^= self.slots[prev].next;
            }
            if next != NIL {
                links ^= self.slots[next].prev;
            }
        }
        std::hint::black_box(links);
    }

    /// Splices `idx` out of the recency list.
    fn unlink(&mut self, idx: usize) {
        touch(1);
        let Slot { prev, next, .. } = self.slots[idx];
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    /// Links `idx` (currently unlinked) at the front of the recency list.
    fn link_front(&mut self, idx: usize) {
        touch(1);
        self.slots[idx].prev = NIL;
        self.slots[idx].next = self.head;
        match self.head {
            NIL => self.tail = idx,
            h => self.slots[h].prev = idx,
        }
        self.head = idx;
    }

    /// Links `idx` (currently unlinked) at the back of the recency list.
    fn link_back(&mut self, idx: usize) {
        touch(1);
        self.slots[idx].next = NIL;
        self.slots[idx].prev = self.tail;
        match self.tail {
            NIL => self.head = idx,
            t => self.slots[t].next = idx,
        }
        self.tail = idx;
    }

    /// Splices a prepared chain (`first..last`, already internally linked)
    /// before the current head.
    fn splice_chain_front(&mut self, first: usize, last: usize) {
        self.slots[last].next = self.head;
        match self.head {
            NIL => self.tail = last,
            h => self.slots[h].prev = last,
        }
        self.head = first;
    }

    /// Splices a prepared chain (`first..last`) after the current tail.
    fn splice_chain_back(&mut self, first: usize, last: usize) {
        self.slots[first].prev = self.tail;
        match self.tail {
            NIL => self.head = first,
            t => self.slots[t].next = first,
        }
        self.tail = last;
    }
}

/// An ordered-by-key and ordered-by-recency map: the building block of every
/// segment in M0, M1 and M2.
///
/// "Front" always means *most recent*; "back" means *least recent*.  Items
/// taken from one `RecencyMap` and pushed to the front or back of another
/// keep their relative recency order, which is what the segment cascade of
/// the working-set maps requires.
#[derive(Clone, Debug)]
pub struct RecencyMap<K, V> {
    /// Key order: `key → arena index`, one balanced tree — the only tree.
    key_map: Tree23<K, Link>,
    list: RecencyList<K, V>,
    /// Number of live items.
    len: usize,
    /// Scratch the batch operations reuse from one call to the next, so a
    /// warmed map moves items without allocating: the slots walked off the
    /// list by a take (or found by a removal's locate walk), the keys of the
    /// batch in key order, the `(key, slot)` pairs bound for the key-map,
    /// and the item-order permutation [`RecencyMap::insert_batch`] scatters
    /// its results through.
    taken: Vec<usize>,
    sorted_keys: Vec<K>,
    staged: Vec<(K, Link)>,
    order: Vec<u32>,
}

impl<K: Ord + Clone, V: Clone> Default for RecencyMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Clone, V: Clone> RecencyMap<K, V> {
    /// Creates an empty map at the process-default tree fanout
    /// (`WSM_TREE_FANOUT`, default 16).
    // lint: allow(unmetered) — trivial constructor, no nodes exist to charge
    pub fn new() -> Self {
        Self::with_fanout(crate::default_fanout())
    }

    /// Creates an empty map whose key tree uses an explicit fanout (`2` is
    /// the 2-3 reference instantiation; the property suites sweep this).
    // lint: allow(unmetered) — trivial constructor, no nodes exist to charge
    pub fn with_fanout(fanout: usize) -> Self {
        RecencyMap {
            key_map: Tree23::with_fanout(fanout),
            list: RecencyList {
                slots: Vec::new(),
                head: NIL,
                tail: NIL,
                free: NIL,
            },
            len: 0,
            taken: Vec::new(),
            sorted_keys: Vec::new(),
            staged: Vec::new(),
            order: Vec::new(),
        }
    }

    /// The key tree's fanout.
    // lint: allow(unmetered) — O(1) configuration accessor, no traversal
    pub fn fanout(&self) -> usize {
        self.key_map.fanout()
    }

    /// Number of items.
    // lint: allow(unmetered) — O(1) cached arena count, no traversal
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the map holds no items.
    // lint: allow(unmetered) — O(1) counter probe, no traversal
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Looks up a key.
    pub fn get(&self, key: &K) -> Option<&V> {
        let idx = self.key_map.get(key)?.idx();
        Some(&self.list.item(idx).1)
    }

    /// Looks up a key, returning a mutable reference to its value.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let idx = self.key_map.get(key)?.idx();
        let (_, val) = self.list.slots[idx]
            .item
            .as_mut()
            .expect("key-map points at a live arena slot");
        Some(val)
    }

    /// True if the key is present.
    pub fn contains(&self, key: &K) -> bool {
        self.key_map.contains(key)
    }

    /// Looks up a sorted batch of keys.
    pub fn get_batch(&self, keys: &[K]) -> Vec<Option<&V>> {
        let mut out = Vec::with_capacity(keys.len());
        self.key_map.batch_get_with(keys, |idx| {
            out.push(idx.map(|link| &self.list.item(link.idx()).1));
        });
        out
    }

    /// The recency rank of a key: 0 for the most recent item, `len - 1` for
    /// the least recent.  `None` if absent.  Costs O(log n + rank): the
    /// key-map lookup yields the arena slot, then the list is walked from the
    /// front until the slot is reached.
    pub fn recency_rank(&self, key: &K) -> Option<usize> {
        let idx = self.key_map.get(key)?.idx();
        let mut rank = 0usize;
        let mut cur = self.list.head;
        while cur != idx {
            touch(1);
            rank += 1;
            cur = self.list.slots[cur].next;
            debug_assert!(cur != NIL, "keyed slot must be on the recency list");
        }
        Some(rank)
    }

    // ------------------------------------------------------------------
    // Insertion
    // ------------------------------------------------------------------

    /// Inserts (or replaces) one item as the most recent.
    ///
    /// Single fused pass: the key-map insertion that writes the new arena
    /// index *is* the traversal that finds a previous entry, whose slot is
    /// then unlinked in O(1) — the paper's cross-link, not a second tree
    /// operation.
    pub fn insert_front(&mut self, key: K, val: V) -> Option<V> {
        self.fused_insert(key, val, true)
    }

    /// Inserts (or replaces) one item as the least recent.  Single-pass, like
    /// [`RecencyMap::insert_front`].
    pub fn insert_back(&mut self, key: K, val: V) -> Option<V> {
        self.fused_insert(key, val, false)
    }

    fn fused_insert(&mut self, key: K, val: V, at_front: bool) -> Option<V> {
        let idx = self.list.alloc(key.clone(), val);
        let old = self.key_map.insert(key, Link::new(idx)).map(|old| {
            self.list.unlink(old.idx());
            self.list.release(old.idx()).1
        });
        if old.is_none() {
            self.len += 1;
        }
        if at_front {
            self.list.link_front(idx);
        } else {
            self.list.link_back(idx);
        }
        old
    }

    /// Allocates slots for `items`, chains them together in the given order
    /// and stages their `(key, slot)` pairs, in item order, for the key-map.
    /// Counts every item as new.  Returns `(first, last)` of the chain, or
    /// `None` for no items.
    fn stage_chain(&mut self, items: impl IntoIterator<Item = (K, V)>) -> Option<(usize, usize)> {
        debug_assert!(self.staged.is_empty());
        let mut first = NIL;
        let mut last = NIL;
        for (k, v) in items {
            let idx = self.list.alloc(k.clone(), v);
            touch(1);
            self.staged.push((k, Link::new(idx)));
            if first == NIL {
                first = idx;
            } else {
                self.list.slots[last].next = idx;
                self.list.slots[idx].prev = last;
            }
            last = idx;
        }
        self.len += self.staged.len();
        (first != NIL).then_some((first, last))
    }

    /// Inserts a batch of items at the front, preserving their given order
    /// (`items[0]` ends up the most recent).  Keys may be in any order but
    /// must be distinct and must not already be present — this is the
    /// inter-segment *push* of the cascade (the working-set maps always
    /// remove before re-inserting).  One key-map pass; the recency splice is
    /// O(b).
    pub fn push_front_batch(&mut self, items: Vec<(K, V)>) {
        self.push_chain(items, End::Front);
    }

    /// [`RecencyMap::push_front_batch`] or [`RecencyMap::push_back_batch`],
    /// by `end`, draining a buffer the caller keeps (and reuses: the cascade
    /// pushes once per segment per batch, and moves every transfer through
    /// one buffer).
    pub fn push_from(&mut self, end: End, items: &mut Vec<(K, V)>) {
        self.push_chain(items.drain(..), end);
    }

    /// Inserts a batch of items at the back, preserving their given order
    /// (`items[0]` is the most recent of the inserted group, i.e. closest to
    /// the front).  Keys must be distinct and absent.
    pub fn push_back_batch(&mut self, items: Vec<(K, V)>) {
        self.push_chain(items, End::Back);
    }

    fn push_chain(&mut self, items: impl IntoIterator<Item = (K, V)>, end: End) {
        let Some((first, last)) = self.stage_chain(items) else {
            return;
        };
        match end {
            End::Front => self.list.splice_chain_front(first, last),
            End::Back => self.list.splice_chain_back(first, last),
        }
        self.staged.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        if self.locate_pays(self.staged.len()) {
            self.key_map
                .locate_by(&self.staged, |(k, _)| k, &mut |_| {});
        }
        self.key_map
            .batch_insert_with(&mut self.staged, |replaced| {
                debug_assert!(replaced.is_none(), "batch pushes require absent keys");
            });
    }

    /// Batch upsert at the front: inserts every item as most-recent in the
    /// given order (`items[0]` frontmost), *replacing* items whose key is
    /// already present (their old slot is unlinked in O(1)).  Returns the
    /// previous value per item, in item order.  Keys must be distinct within
    /// the batch.  One key-map pass regardless of how many keys were present
    /// — the capability the arena cross-links buy over the stamp design.
    ///
    /// The working-set cascades themselves never need this: they
    /// entropy-sort and *combine* every cut batch before it reaches a
    /// segment, so their pushes are always of absent keys
    /// ([`RecencyMap::push_front_batch`]).  `insert_batch` is the map's
    /// direct-use surface (e.g. an LRU cache bulk-refreshing entries), and
    /// the oracle-differential property suite drives it alongside the
    /// cascade ops.
    pub fn insert_batch(&mut self, items: Vec<(K, V)>) -> Vec<Option<V>> {
        let n = items.len();
        let Some((first, last)) = self.stage_chain(items) else {
            return Vec::new();
        };
        self.list.splice_chain_front(first, last);
        // Sort a position permutation alongside the pairs, so replaced
        // values can be scattered back to item order after the single
        // key-map pass.
        let staged = &self.staged;
        self.order.clear();
        self.order.extend(0..n as u32);
        self.order
            .sort_unstable_by(|&a, &b| staged[a as usize].0.cmp(&staged[b as usize].0));
        self.staged.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        debug_assert!(
            self.staged.windows(2).all(|w| w[0].0 < w[1].0),
            "insert_batch requires distinct keys"
        );
        let mut out: Vec<Option<V>> = std::iter::repeat_with(|| None).take(n).collect();
        let mut order = self.order.iter();
        let (list, len) = (&mut self.list, &mut self.len);
        self.key_map.batch_insert_with(&mut self.staged, |old_idx| {
            let pos = *order.next().expect("one result per staged pair") as usize;
            if let Some(old) = old_idx {
                list.unlink(old.idx());
                out[pos] = Some(list.release(old.idx()).1);
                *len -= 1;
            }
        });
        out
    }

    // ------------------------------------------------------------------
    // Removal
    // ------------------------------------------------------------------

    /// Removes one key; returns its value if present.  One tree pass plus an
    /// O(1) unlink.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.key_map.remove(key)?.idx();
        self.list.unlink(idx);
        self.len -= 1;
        Some(self.list.release(idx).1)
    }

    /// Removes a sorted batch of distinct keys; returns per key the removed
    /// value (if it was present).  One tree pass; each located item is
    /// unlinked from the recency list in O(1).
    pub fn remove_batch(&mut self, keys: &[K]) -> Vec<Option<V>> {
        let mut out = Vec::with_capacity(keys.len());
        self.remove_batch_with(keys, |found| out.push(found));
        out
    }

    /// [`RecencyMap::remove_batch`] handing each key's result to `emit`, in
    /// key order, instead of collecting them.
    pub fn remove_batch_with(&mut self, keys: &[K], mut emit: impl FnMut(Option<V>)) {
        if self.locate_pays(keys.len()) {
            self.taken.clear();
            let taken = &mut self.taken;
            self.key_map
                .locate_batch(keys, |link| taken.push(link.idx()));
            self.list.warm(&self.taken);
        }
        let (list, len) = (&mut self.list, &mut self.len);
        self.key_map.batch_remove_with(keys, |item| {
            emit(item.map(|(_, link)| {
                let idx = link.idx();
                list.unlink(idx);
                *len -= 1;
                list.release(idx).1
            }))
        });
    }

    /// Removes the `k` items at `end` (all of them if there are fewer) and
    /// appends them to `out`, *most recent first* whichever end they came
    /// from, so pushing `out` to either end of another map keeps their
    /// relative order.  Walks the recency list from `end` (no stamp-tree
    /// search), detaches the run in O(1), then clears its keys with one
    /// key-ordered batch removal; once `out` has grown, a take allocates
    /// nothing.
    pub fn take_into(&mut self, end: End, k: usize, out: &mut Vec<(K, V)>) {
        let k = k.min(self.len);
        self.taken.clear();
        if k == 0 {
            return;
        }
        let front = end == End::Front;
        let mut cur = if front {
            self.list.head
        } else {
            self.list.tail
        };
        for _ in 0..k {
            touch(1);
            self.taken.push(cur);
            let slot = &self.list.slots[cur];
            cur = if front { slot.next } else { slot.prev };
        }
        if front {
            self.list.head = cur;
            match cur {
                NIL => self.list.tail = NIL,
                h => self.list.slots[h].prev = NIL,
            }
        } else {
            self.list.tail = cur;
            match cur {
                NIL => self.list.head = NIL,
                t => self.list.slots[t].next = NIL,
            }
            // The walk went back to front.
            self.taken.reverse();
        }
        self.release_taken(out);
    }

    /// [`RecencyMap::take_into`] of the `k` most recent items, returned in a
    /// new `Vec`.
    pub fn take_front(&mut self, k: usize) -> Vec<(K, V)> {
        let mut out = Vec::new();
        self.take_into(End::Front, k, &mut out);
        out
    }

    /// [`RecencyMap::take_into`] of the `k` least recent items, returned in
    /// a new `Vec`, most recent of them first.
    pub fn take_back(&mut self, k: usize) -> Vec<(K, V)> {
        let mut out = Vec::new();
        self.take_into(End::Back, k, &mut out);
        out
    }

    /// Clears the key-map entries of the already-detached `taken` slots with
    /// one sorted batch removal (the reverse-indexing operation of Appendix
    /// A.2: the arena indices *are* the direct pointers) and releases the
    /// slots, appending their items to `out` in `taken` order.
    fn release_taken(&mut self, out: &mut Vec<(K, V)>) {
        self.len -= self.taken.len();
        self.sorted_keys.clear();
        let list = &self.list;
        self.sorted_keys
            .extend(self.taken.iter().map(|&idx| list.item(idx).0.clone()));
        self.sorted_keys.sort_unstable();
        if self.locate_pays(self.sorted_keys.len()) {
            self.key_map.locate_batch(&self.sorted_keys, |_| {});
        }
        let list = &mut self.list;
        self.key_map.batch_remove_with(&self.sorted_keys, |entry| {
            debug_assert!(
                entry.is_some_and(|(key, link)| list.slots[link.idx()]
                    .item
                    .as_ref()
                    .is_some_and(|(k, _)| *k == key)),
                "key-map and recency list out of sync"
            );
        });
        out.extend(self.taken.iter().map(|&idx| list.release(idx)));
    }

    /// Whether the locate walk pays ahead of a sweep of `keys` keys: on a
    /// key tree that outgrows the cache, for a batch with misses to overlap.
    fn locate_pays(&self, keys: usize) -> bool {
        keys >= LOCATE_MIN_KEYS && self.key_map.len() >= LOCATE_MIN_ITEMS
    }

    // ------------------------------------------------------------------
    // Inspection
    // ------------------------------------------------------------------

    /// The most recent item without removing it.  O(1): the list head.
    // lint: allow(unmetered) — O(1) list-head read, touches no tree node
    pub fn peek_front(&self) -> Option<(&K, &V)> {
        (self.list.head != NIL).then(|| {
            let (k, v) = self.list.item(self.list.head);
            (k, v)
        })
    }

    /// The least recent item without removing it.  O(1): the list tail.
    // lint: allow(unmetered) — O(1) list-tail read, touches no tree node
    pub fn peek_back(&self) -> Option<(&K, &V)> {
        (self.list.tail != NIL).then(|| {
            let (k, v) = self.list.item(self.list.tail);
            (k, v)
        })
    }

    /// All items in recency order (most recent first).  O(n) list walk;
    /// intended for tests, invariant checks and the cost-lemma simulations.
    // lint: allow(unmetered) — diagnostic whole-list walk over the arena, not a map operation
    pub fn items_in_recency_order(&self) -> Vec<(K, V)> {
        let mut out = Vec::with_capacity(self.len);
        let mut cur = self.list.head;
        while cur != NIL {
            out.push(self.list.item(cur).clone());
            cur = self.list.slots[cur].next;
        }
        out
    }

    /// All keys in key order.
    // lint: allow(unmetered) — whole-tree dump via Tree23::keys, same exemption as for_each
    pub fn keys_sorted(&self) -> Vec<K> {
        self.key_map.keys()
    }

    /// Rebuilds a map from an [`RecencyMap::items_in_recency_order`] image
    /// (most recent first; keys must be distinct).  The round trip
    /// `from_recency_items(m.items_in_recency_order())` reproduces both the
    /// key set and the exact recency order — this pair is the
    /// encode/decode surface the `wsm-wal` checkpointer snapshots segments
    /// through.
    // lint: allow(unmetered) — checkpoint restore, not a map operation
    pub fn from_recency_items(items: Vec<(K, V)>) -> Self {
        let mut m = RecencyMap::new();
        m.push_back_batch(items);
        m
    }

    /// Validates that the key-map, the arena and the intrusive lists are
    /// mutually consistent.
    pub fn check_invariants(&self)
    where
        K: std::fmt::Debug,
    {
        self.key_map.check_invariants();
        assert_eq!(self.key_map.len(), self.len, "key-map and arena disagree");
        // The recency list is a well-formed doubly-linked chain over exactly
        // the live slots.
        let mut count = 0usize;
        let mut prev = NIL;
        let mut cur = self.list.head;
        while cur != NIL {
            assert!(
                count < self.len + 1,
                "recency list longer than len (cycle?)"
            );
            let slot = &self.list.slots[cur];
            assert!(slot.item.is_some(), "recency list visits free slot {cur}");
            assert_eq!(slot.prev, prev, "broken prev link at slot {cur}");
            prev = cur;
            cur = slot.next;
            count += 1;
        }
        assert_eq!(count, self.len, "recency list length mismatch");
        assert_eq!(self.list.tail, prev, "tail does not end the recency list");
        // Every key-map entry points at a live slot holding the same key.
        self.key_map.for_each(|key, link| {
            let idx = link.idx();
            let (slot_key, _) = self.list.slots[idx]
                .item
                .as_ref()
                .unwrap_or_else(|| panic!("key {key:?} maps to free slot {idx}"));
            assert_eq!(slot_key, key, "key-map entry points at the wrong slot");
        });
        // The free list accounts for every vacant slot, with no leaks.
        let mut free_count = 0usize;
        let mut cur = self.list.free;
        while cur != NIL {
            assert!(
                free_count < self.list.slots.len() + 1,
                "free list cycle at slot {cur}"
            );
            assert!(
                self.list.slots[cur].item.is_none(),
                "free list visits live slot"
            );
            cur = self.list.slots[cur].next;
            free_count += 1;
        }
        assert_eq!(
            self.len + free_count,
            self.list.slots.len(),
            "arena slot leak"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_map() {
        let m: RecencyMap<u64, u64> = RecencyMap::new();
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        assert_eq!(m.peek_front(), None);
        assert_eq!(m.peek_back(), None);
        m.check_invariants();
    }

    #[test]
    fn recency_items_round_trip_exactly() {
        // Build a map with a non-trivial recency order (inserts, touches,
        // removals), snapshot it, rebuild, and compare the full order.
        let mut m = RecencyMap::new();
        for k in 0..64u64 {
            m.insert_back(k, k * 10);
        }
        for k in [7u64, 3, 7, 40, 0] {
            m.insert_front(k, k * 10 + 1);
        }
        m.remove(&10);
        m.remove(&63);
        let image = m.items_in_recency_order();
        let rebuilt = RecencyMap::from_recency_items(image.clone());
        rebuilt.check_invariants();
        assert_eq!(rebuilt.len(), m.len());
        assert_eq!(rebuilt.items_in_recency_order(), image);
        assert_eq!(rebuilt.keys_sorted(), m.keys_sorted());
        // Empty round trip.
        let empty: RecencyMap<u64, u64> = RecencyMap::from_recency_items(Vec::new());
        assert!(empty.is_empty());
        empty.check_invariants();
    }

    #[test]
    fn front_and_back_insertion_order() {
        let mut m = RecencyMap::new();
        m.insert_back(1u64, "a");
        m.insert_back(2, "b");
        m.insert_front(3, "c");
        m.insert_front(4, "d");
        // Recency order (most recent first): 4, 3, 1, 2.
        let order: Vec<u64> = m
            .items_in_recency_order()
            .into_iter()
            .map(|x| x.0)
            .collect();
        assert_eq!(order, vec![4, 3, 1, 2]);
        assert_eq!(m.peek_front().map(|x| *x.0), Some(4));
        assert_eq!(m.peek_back().map(|x| *x.0), Some(2));
        m.check_invariants();
    }

    #[test]
    fn reinsert_moves_to_front() {
        let mut m = RecencyMap::new();
        for i in 0..5u64 {
            m.insert_back(i, i);
        }
        assert_eq!(m.insert_front(3, 33), Some(3));
        let order: Vec<u64> = m
            .items_in_recency_order()
            .into_iter()
            .map(|x| x.0)
            .collect();
        assert_eq!(order, vec![3, 0, 1, 2, 4]);
        assert_eq!(m.get(&3), Some(&33));
        assert_eq!(m.len(), 5);
        m.check_invariants();
    }

    #[test]
    fn batch_front_push_preserves_given_order() {
        let mut m = RecencyMap::new();
        m.insert_back(100u64, 0u64);
        m.push_front_batch(vec![(7, 7), (3, 3), (9, 9)]);
        let order: Vec<u64> = m
            .items_in_recency_order()
            .into_iter()
            .map(|x| x.0)
            .collect();
        assert_eq!(order, vec![7, 3, 9, 100]);
        m.check_invariants();
    }

    #[test]
    fn batch_back_push_preserves_given_order() {
        let mut m = RecencyMap::new();
        m.insert_front(100u64, 0u64);
        m.push_back_batch(vec![(7, 7), (3, 3), (9, 9)]);
        let order: Vec<u64> = m
            .items_in_recency_order()
            .into_iter()
            .map(|x| x.0)
            .collect();
        assert_eq!(order, vec![100, 7, 3, 9]);
        m.check_invariants();
    }

    #[test]
    fn insert_batch_upserts_and_reports_previous_values() {
        let mut m = RecencyMap::new();
        for i in 0..6u64 {
            m.insert_back(i, i * 10);
        }
        // Mixed batch: 4 and 1 are present (replaced + moved to front), 77
        // and 88 are fresh.
        let prev = m.insert_batch(vec![(4, 400), (77, 700), (1, 100), (88, 800)]);
        assert_eq!(prev, vec![Some(40), None, Some(10), None]);
        assert_eq!(m.len(), 8);
        let order: Vec<u64> = m
            .items_in_recency_order()
            .into_iter()
            .map(|x| x.0)
            .collect();
        assert_eq!(order, vec![4, 77, 1, 88, 0, 2, 3, 5]);
        assert_eq!(m.get(&4), Some(&400));
        assert_eq!(m.get(&1), Some(&100));
        m.check_invariants();
    }

    #[test]
    fn take_front_and_back_return_recency_order() {
        let mut m = RecencyMap::new();
        for i in 0..10u64 {
            m.insert_back(i, i * 10);
        }
        // Most recent = 0, least recent = 9.
        let front = m.take_front(3);
        assert_eq!(front.iter().map(|x| x.0).collect::<Vec<_>>(), vec![0, 1, 2]);
        let back = m.take_back(3);
        assert_eq!(back.iter().map(|x| x.0).collect::<Vec<_>>(), vec![7, 8, 9]);
        assert_eq!(m.len(), 4);
        m.check_invariants();

        // Taking more than present drains the map.
        let rest = m.take_front(100);
        assert_eq!(rest.len(), 4);
        assert!(m.is_empty());
        m.check_invariants();
    }

    #[test]
    fn take_back_then_push_front_preserves_relative_order() {
        // This mimics the segment-overflow cascade: the k least recent items
        // of one segment become the k most recent of the next.
        let mut a = RecencyMap::new();
        for i in 0..6u64 {
            a.insert_back(i, i);
        }
        let mut b = RecencyMap::new();
        b.insert_back(100u64, 100u64);
        let moved = a.take_back(3); // items 3,4,5 in recency order
        b.push_front_batch(moved);
        let order: Vec<u64> = b
            .items_in_recency_order()
            .into_iter()
            .map(|x| x.0)
            .collect();
        assert_eq!(order, vec![3, 4, 5, 100]);
        a.check_invariants();
        b.check_invariants();
    }

    #[test]
    fn remove_batch_mixed() {
        let mut m = RecencyMap::new();
        for i in 0..10u64 {
            m.insert_back(i, i);
        }
        let removed = m.remove_batch(&[2, 5, 11]);
        assert_eq!(removed, vec![Some(2), Some(5), None]);
        assert_eq!(m.len(), 8);
        m.check_invariants();
    }

    #[test]
    fn recency_rank_counts_more_recent_items() {
        let mut m = RecencyMap::new();
        for i in 0..5u64 {
            m.insert_back(i, i);
        }
        assert_eq!(m.recency_rank(&0), Some(0));
        assert_eq!(m.recency_rank(&4), Some(4));
        assert_eq!(m.recency_rank(&99), None);
    }

    #[test]
    fn arena_slots_are_reused_after_removal() {
        let mut m = RecencyMap::new();
        for i in 0..64u64 {
            m.insert_back(i, i);
        }
        let arena_size = m.list.slots.len();
        // Churn: remove and re-insert repeatedly; the arena must not grow.
        for round in 0..10u64 {
            let taken = m.take_back(16);
            assert_eq!(taken.len(), 16);
            m.push_front_batch(taken);
            m.remove(&(round % 64));
            m.insert_front(round % 64, round);
            m.check_invariants();
        }
        assert_eq!(
            m.list.slots.len(),
            arena_size,
            "arena grew despite free list"
        );
        assert_eq!(m.len(), 64);
    }

    #[test]
    fn metered_segment_transfers_stay_under_the_transfer_bound() {
        use crate::cost::{metered, transfer, MEASURED_CEILING};
        // The segment-cascade transfer shape: take k off one map's back and
        // push them onto another's front; the measured node visits must stay
        // under the ceiling on the (fanout-parameterized) transfer bound the
        // maps charge, at the reference and the wide instantiation alike.
        for fan in [2usize, 16] {
            let mut a: RecencyMap<u64, u64> = RecencyMap::with_fanout(fan);
            let mut b: RecencyMap<u64, u64> = RecencyMap::with_fanout(fan);
            for i in 0..512u64 {
                a.insert_back(i, i);
            }
            for i in 1000..1256u64 {
                b.insert_back(i, i);
            }
            for k in [1usize, 4, 16, 64] {
                let larger = a.len().max(b.len()) as u64;
                let ((), touched) = metered(|| {
                    let moved = a.take_back(k);
                    b.push_front_batch(moved);
                });
                let bound = transfer(k as u64, larger, fan as u64).work;
                assert!(
                    touched <= MEASURED_CEILING * bound,
                    "transfer of {k} at fanout {fan}: touched {touched} exceeds \
                     ceiling on bound {bound}"
                );
            }
            a.check_invariants();
            b.check_invariants();
        }
    }

    #[test]
    fn fused_ops_touch_strictly_fewer_nodes_than_the_two_tree_design() {
        use crate::cost::metered;
        // Regression for the PR 5 tentpole: the literals are the touched-node
        // counts the old two-tree (key-map + stamp-keyed recency-map) design
        // measured on these exact workloads, captured on the PR 4 build.
        // Every fused segment op must touch strictly fewer nodes — one
        // metered tree pass instead of two.  The two-tree build was a 2-3
        // tree, so the comparison pins the B = 2 instantiation to stay
        // apples-to-apples (the wide default only widens the margin; the
        // fanout A/B regression lives in `cost::tests`).
        const OLD_REMOVE_BATCH_64: u64 = 1504;
        const OLD_PUSH_FRONT_64: u64 = 1344;
        const OLD_TRANSFER_64: u64 = 1000;
        const OLD_MOVE_TO_FRONT_32: u64 = 771;
        const OLD_TAKE_FRONT_32: u64 = 330;

        // Workload A: remove_batch of 64 spread keys from a 512-item map.
        let mut m: RecencyMap<u64, u64> = RecencyMap::with_fanout(2);
        for i in 0..512u64 {
            m.insert_back(i, i);
        }
        let keys: Vec<u64> = (0..64u64).map(|i| i * 8).collect();
        let (_, remove_touched) = metered(|| m.remove_batch(&keys));
        assert!(
            remove_touched < OLD_REMOVE_BATCH_64,
            "remove_batch: fused {remove_touched} >= two-tree {OLD_REMOVE_BATCH_64}"
        );

        // Workload B: push the same 64 items back at the front as one batch.
        let items: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k)).collect();
        let (_, push_touched) = metered(|| m.push_front_batch(items));
        assert!(
            push_touched < OLD_PUSH_FRONT_64,
            "push_front_batch: fused {push_touched} >= two-tree {OLD_PUSH_FRONT_64}"
        );

        // Workload C: segment-cascade transfer — take_back(64) then
        // push_front into a second 256-item map.
        let mut b: RecencyMap<u64, u64> = RecencyMap::with_fanout(2);
        for i in 1000..1256u64 {
            b.insert_back(i, i);
        }
        let (_, transfer_touched) = metered(|| {
            let moved = m.take_back(64);
            b.push_front_batch(moved);
        });
        assert!(
            transfer_touched < OLD_TRANSFER_64,
            "transfer: fused {transfer_touched} >= two-tree {OLD_TRANSFER_64}"
        );

        // Workload D: 32 point re-inserts (move-to-front) on the map.
        let (_, mtf_touched) = metered(|| {
            for i in 200..232u64 {
                m.insert_front(i, i);
            }
        });
        assert!(
            mtf_touched < OLD_MOVE_TO_FRONT_32,
            "move-to-front: fused {mtf_touched} >= two-tree {OLD_MOVE_TO_FRONT_32}"
        );

        // Workload E: take_front(32) (eviction shape).
        let (_, take_touched) = metered(|| m.take_front(32));
        assert!(
            take_touched < OLD_TAKE_FRONT_32,
            "take_front: fused {take_touched} >= two-tree {OLD_TAKE_FRONT_32}"
        );
        m.check_invariants();
        b.check_invariants();
    }

    #[test]
    fn segment_ops_pay_one_tree_pass_not_two() {
        use crate::cost::{reset_tree_passes, tree_passes};
        // The headline of the fusion, pinned at the pass-counter level: a
        // batch removal is exactly one key-map sweep (the stamp design paid
        // one per tree), and a transfer is exactly two (one
        // take-side removal, one push-side insertion — it used to be four).
        // Pass counts are structural, so they hold at every fanout.
        for fan in [2usize, 8, 16] {
            let mut m: RecencyMap<u64, u64> = RecencyMap::with_fanout(fan);
            for i in 0..512u64 {
                m.insert_back(i, i);
            }
            let keys: Vec<u64> = (0..64u64).map(|i| i * 8).collect();
            reset_tree_passes();
            m.remove_batch(&keys);
            assert_eq!(tree_passes(), 1, "batch removal must be one tree pass");

            let items: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k)).collect();
            reset_tree_passes();
            m.push_front_batch(items);
            assert_eq!(tree_passes(), 1, "batch push must be one tree pass");

            let mut b: RecencyMap<u64, u64> = RecencyMap::with_fanout(fan);
            reset_tree_passes();
            let moved = m.take_back(64);
            b.push_front_batch(moved);
            assert_eq!(
                tree_passes(),
                2,
                "a transfer is one take pass + one push pass"
            );
            reset_tree_passes();
        }
    }

    #[test]
    fn get_batch_matches_get() {
        let mut m = RecencyMap::new();
        for i in (0..20u64).step_by(2) {
            m.insert_back(i, i);
        }
        let keys: Vec<u64> = (0..20).collect();
        let got = m.get_batch(&keys);
        for (k, g) in keys.iter().zip(got) {
            assert_eq!(g, m.get(k));
        }
    }
}
