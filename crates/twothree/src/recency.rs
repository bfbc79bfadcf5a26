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
//! intrusive doubly-linked list threaded through the arena slots.  Locating
//! an item by key therefore yields its recency position for free — exactly
//! the paper's direct pointer:
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
//! **Layout.**  A slot is `{ prev: u32, next: u32, key: K, val: V }`: the
//! list links are arena indices kept as `u32`, with `NIL = u32::MAX` for
//! "none", so no link is ever widened or narrowed on a hot path, and the key
//! tree stores each item's index as a 4-byte `NonZeroU32` value cell (one
//! above the index, so a vacant `Option` cell costs nothing extra).  A slot
//! carries no occupancy tag: a free slot holds `K::default()` and
//! `V::default()` and threads the free list through `next`, and an item
//! leaves its slot by `mem::take`, so nothing of a removed item stays behind
//! (`tests/property_owned_items.rs` counts the drops).  A `u64`/`u64` slot
//! is 24 bytes, where `usize` links and an `Option<(K, V)>` took 40, and a
//! 2^16-item preload at the default B = 64 leaves 50.1 live bytes per item,
//! against 74.4 before (56.1 and 80.8 at B = 16, `tests/alloc_budget.rs`).  The price is the range: an arena
//! holds at most 2^32 − 1 slots, so a segment holds at most 2^32 − 1 items
//! and a full `S[5]` (2^32) cannot be stored.  A push past that panics,
//! naming the limit; an index never wraps.  The key is held twice, in its
//! slot and in the key tree: a take moves each slot's key out into the
//! batch the tree removes, the tree hands back its own copy in its place,
//! and the batch's copies are dropped before the take returns, so a take
//! clones no key, and an upsert of a present key keeps the key and the slot
//! it has.
//!
//! The three mutating sweeps of a segment — the hit removal
//! ([`RecencyMap::remove_batch_with`]), the push of a chain, and the key
//! removal of a take — are where a large segment's time goes: each descent
//! waits for its nodes one after another, so the key tree's height is their
//! cost, and the wide default node keeps it short (see the `node` module
//! docs and E18's sweep rows).

use crate::cost::touch;
use crate::tree::Tree23;
use std::num::NonZeroU32;

/// Null arena index: end of the recency list / free list.  It is also the
/// one `u32` no slot may take, so an arena holds at most `u32::MAX` slots.
const NIL: u32 = u32::MAX;

/// An arena index as the key map stores it: one above the index, so a
/// vacant value cell of the key tree (`Option<Link>`) takes 4 bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Link(NonZeroU32);

impl Link {
    fn new(idx: u32) -> Self {
        Link(NonZeroU32::new(idx.wrapping_add(1)).expect("a live arena index is below NIL"))
    }

    fn idx(self) -> u32 {
        self.0.get() - 1
    }
}

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
/// holds `K::default()` and `V::default()` and reuses `next` as its
/// free-list link; an item leaves its slot by `mem::take`.
#[derive(Clone, Debug)]
struct Slot<K, V> {
    prev: u32,
    next: u32,
    key: K,
    val: V,
}

/// The item arena with the recency order threaded through it.  Live slots
/// are on the recency list, free slots on the free list.  Every primitive is
/// O(1) and metered one touch per splice, so measured segment charges
/// include the list work.
#[derive(Clone, Debug)]
struct RecencyList<K, V> {
    slots: Vec<Slot<K, V>>,
    /// Most recent item (list head), `NIL` when empty.
    head: u32,
    /// Least recent item (list tail), `NIL` when empty.
    tail: u32,
    /// Head of the free-slot list, `NIL` when none.
    free: u32,
}

impl<K: Default, V: Default> RecencyList<K, V> {
    fn slot(&self, idx: u32) -> &Slot<K, V> {
        &self.slots[idx as usize]
    }

    fn slot_mut(&mut self, idx: u32) -> &mut Slot<K, V> {
        &mut self.slots[idx as usize]
    }

    /// Takes a slot off the free list (or grows the arena) and fills it.
    /// The returned slot is *not* linked into the recency list.
    ///
    /// # Panics
    /// When the arena would need a slot past `u32::MAX - 1`: a segment holds
    /// at most 2^32 − 1 items.
    fn alloc(&mut self, key: K, val: V) -> u32 {
        let slot = Slot {
            prev: NIL,
            next: NIL,
            key,
            val,
        };
        match self.free {
            NIL => {
                let idx = self.slots.len();
                assert!(
                    idx < NIL as usize,
                    "a segment holds at most 2^32 - 1 items (u32 arena links)"
                );
                self.slots.push(slot);
                idx as u32
            }
            idx => {
                self.free = self.slot(idx).next;
                *self.slot_mut(idx) = slot;
                idx
            }
        }
    }

    /// Vacates a slot (which must already be unlinked from the recency list)
    /// onto the free list, moving its item out.
    fn release(&mut self, idx: u32) -> (K, V) {
        let free = self.free;
        let slot = self.slot_mut(idx);
        slot.prev = NIL;
        slot.next = free;
        let item = (std::mem::take(&mut slot.key), std::mem::take(&mut slot.val));
        self.free = idx;
        item
    }

    /// Splices `idx` out of the recency list.
    fn unlink(&mut self, idx: u32) {
        touch(1);
        let Slot { prev, next, .. } = *self.slot(idx);
        match prev {
            NIL => self.head = next,
            p => self.slot_mut(p).next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slot_mut(n).prev = prev,
        }
    }

    /// Links `idx` (currently unlinked) at the front of the recency list.
    fn link_front(&mut self, idx: u32) {
        touch(1);
        let head = self.head;
        let slot = self.slot_mut(idx);
        slot.prev = NIL;
        slot.next = head;
        match head {
            NIL => self.tail = idx,
            h => self.slot_mut(h).prev = idx,
        }
        self.head = idx;
    }

    /// Links `idx` (currently unlinked) at the back of the recency list.
    fn link_back(&mut self, idx: u32) {
        touch(1);
        let tail = self.tail;
        let slot = self.slot_mut(idx);
        slot.next = NIL;
        slot.prev = tail;
        match tail {
            NIL => self.head = idx,
            t => self.slot_mut(t).next = idx,
        }
        self.tail = idx;
    }

    /// Splices a prepared chain (`first..last`, already internally linked)
    /// before the current head.
    fn splice_chain_front(&mut self, first: u32, last: u32) {
        self.slot_mut(last).next = self.head;
        match self.head {
            NIL => self.tail = last,
            h => self.slot_mut(h).prev = last,
        }
        self.head = first;
    }

    /// Splices a prepared chain (`first..last`) after the current tail.
    fn splice_chain_back(&mut self, first: u32, last: u32) {
        self.slot_mut(first).prev = self.tail;
        match self.tail {
            NIL => self.head = first,
            t => self.slot_mut(t).next = first,
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
    /// list by a take, the keys of the batch in key order, the `(key, slot)`
    /// pairs bound for the key-map, and the item-order permutation
    /// [`RecencyMap::insert_batch`] scatters its results through.
    taken: Vec<u32>,
    sorted_keys: Vec<K>,
    staged: Vec<(K, Link)>,
    order: Vec<u32>,
}

impl<K: Ord + Clone + Default, V: Clone + Default> Default for RecencyMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Clone + Default, V: Clone + Default> RecencyMap<K, V> {
    /// Creates an empty map at the process-default tree fanout
    /// (`WSM_TREE_FANOUT`, default [`crate::DEFAULT_FANOUT`]).
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
        Some(&self.list.slot(idx).val)
    }

    /// Looks up a key, returning a mutable reference to its value.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let idx = self.key_map.get(key)?.idx();
        Some(&mut self.list.slot_mut(idx).val)
    }

    /// True if the key is present.
    pub fn contains(&self, key: &K) -> bool {
        self.key_map.contains(key)
    }

    /// Looks up a sorted batch of keys.
    pub fn get_batch(&self, keys: &[K]) -> Vec<Option<&V>> {
        let mut out = Vec::with_capacity(keys.len());
        self.key_map.batch_get_with(keys, |idx| {
            out.push(idx.map(|link| &self.list.slot(link.idx()).val));
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
            cur = self.list.slot(cur).next;
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
    /// index *is* the traversal that finds a previous entry, whose slot then
    /// takes the new value and is moved in O(1) — the paper's cross-link,
    /// not a second tree operation.  A present key keeps the key and the
    /// slot it has, so replacing an item allocates nothing.
    pub fn insert_front(&mut self, key: K, val: V) -> Option<V> {
        self.fused_insert(key, val, true)
    }

    /// Inserts (or replaces) one item as the least recent.  Single-pass, like
    /// [`RecencyMap::insert_front`].
    pub fn insert_back(&mut self, key: K, val: V) -> Option<V> {
        self.fused_insert(key, val, false)
    }

    fn fused_insert(&mut self, key: K, val: V, at_front: bool) -> Option<V> {
        let (list, mut val) = (&mut self.list, Some(val));
        let mut idx = NIL;
        let present = self.key_map.insert_with(key, |key| {
            idx = list.alloc(key.clone(), val.take().expect("built once"));
            Link::new(idx)
        });
        let old = match present.copied() {
            Some(link) => {
                idx = link.idx();
                list.unlink(idx);
                let val = val.expect("kept for a present key");
                Some(std::mem::replace(&mut list.slot_mut(idx).val, val))
            }
            None => {
                self.len += 1;
                None
            }
        };
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
    fn stage_chain(&mut self, items: impl IntoIterator<Item = (K, V)>) -> Option<(u32, u32)> {
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
                self.list.slot_mut(last).next = idx;
                self.list.slot_mut(idx).prev = last;
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
            let slot = self.list.slot(cur);
            cur = if front { slot.next } else { slot.prev };
        }
        if front {
            self.list.head = cur;
            match cur {
                NIL => self.list.tail = NIL,
                h => self.list.slot_mut(h).prev = NIL,
            }
        } else {
            self.list.tail = cur;
            match cur {
                NIL => self.list.head = NIL,
                t => self.list.slot_mut(t).next = NIL,
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
    /// slots, appending their items to `out` in `taken` order.  Each key
    /// moves out of its slot into the batch, and the removal moves the key
    /// map's copy into the slot in its place, so no key is cloned and the
    /// batch's copies are dropped before the take returns.
    fn release_taken(&mut self, out: &mut Vec<(K, V)>) {
        self.len -= self.taken.len();
        self.sorted_keys.clear();
        let list = &mut self.list;
        let keys = self
            .taken
            .iter()
            .map(|&idx| std::mem::take(&mut list.slot_mut(idx).key));
        self.sorted_keys.extend(keys);
        self.sorted_keys.sort_unstable();
        let list = &mut self.list;
        self.key_map.batch_remove_with(&self.sorted_keys, |entry| {
            let (key, link) = entry.expect("key-map and recency list out of sync");
            let slot = list.slot_mut(link.idx());
            debug_assert!(slot.key == K::default(), "key-map points at a kept slot");
            slot.key = key;
        });
        self.sorted_keys.clear();
        out.extend(self.taken.iter().map(|&idx| list.release(idx)));
    }

    // ------------------------------------------------------------------
    // Inspection
    // ------------------------------------------------------------------

    /// The most recent item without removing it.  O(1): the list head.
    // lint: allow(unmetered) — O(1) list-head read, touches no tree node
    pub fn peek_front(&self) -> Option<(&K, &V)> {
        (self.list.head != NIL).then(|| {
            let slot = self.list.slot(self.list.head);
            (&slot.key, &slot.val)
        })
    }

    /// The least recent item without removing it.  O(1): the list tail.
    // lint: allow(unmetered) — O(1) list-tail read, touches no tree node
    pub fn peek_back(&self) -> Option<(&K, &V)> {
        (self.list.tail != NIL).then(|| {
            let slot = self.list.slot(self.list.tail);
            (&slot.key, &slot.val)
        })
    }

    /// All items in recency order (most recent first).  O(n) list walk;
    /// intended for tests, invariant checks and the cost-lemma simulations.
    // lint: allow(unmetered) — diagnostic whole-list walk over the arena, not a map operation
    pub fn items_in_recency_order(&self) -> Vec<(K, V)> {
        let mut out = Vec::with_capacity(self.len);
        let mut cur = self.list.head;
        while cur != NIL {
            let slot = self.list.slot(cur);
            out.push((slot.key.clone(), slot.val.clone()));
            cur = slot.next;
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
        let mut live = vec![false; self.list.slots.len()];
        let mut count = 0usize;
        let mut prev = NIL;
        let mut cur = self.list.head;
        while cur != NIL {
            assert!(
                count < self.len + 1,
                "recency list longer than len (cycle?)"
            );
            live[cur as usize] = true;
            let slot = self.list.slot(cur);
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
            assert!(live[idx as usize], "key {key:?} maps to free slot {idx}");
            let slot_key = &self.list.slot(idx).key;
            assert_eq!(slot_key, key, "key-map entry points at the wrong slot");
        });
        // The free list accounts for every vacant slot, with no leaks, and a
        // free slot holds no key.
        let mut free_count = 0usize;
        let mut cur = self.list.free;
        while cur != NIL {
            assert!(
                free_count < self.list.slots.len() + 1,
                "free list cycle at slot {cur}"
            );
            assert!(!live[cur as usize], "free list visits live slot {cur}");
            let slot = self.list.slot(cur);
            assert!(slot.key == K::default(), "free slot {cur} keeps a key");
            cur = slot.next;
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
