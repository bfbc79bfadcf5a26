//! The segment cascade `S[0] → S[1] → …` that M1 and M2 share.
//!
//! Section 6.1 step 3 defines how a sorted batch of group-operations passes
//! through the segments, and Section 7.1 step 3 processes M2's first slab
//! "as in M1" — so both maps own one [`Cascade`], and this module is the only
//! place the segment algebra is written: sort + combine, the per-segment
//! remove → resolve → shift → restore pass, boundary balancing, terminal
//! appends, and the metered primitives through which every segment-tree
//! charge of either map is paid.  What differs stays with the maps: M1's
//! "every segment but the last is full" invariant, and M2's filter, buffers,
//! clocks and final-slab maintenance.

use crate::ops::{GroupOp, OpId, OpResult, TaggedOp};
use wsm_seq::segment_capacity;
use wsm_sort::{pesort_group_into, GroupedBatch, SortScratch};
use wsm_twothree::cost::{self as tcost, Charge};
use wsm_twothree::RecencyMap;

/// The fanout of the segment trees and M2's filter (all built at the process
/// default, which reads `WSM_TREE_FANOUT`), threaded into every measured
/// charge so the Lemma bounds are the ones of the tree actually running —
/// `2` reproduces the closed-form Appendix A.2 reference.
pub(crate) fn tree_fanout() -> u64 {
    wsm_twothree::default_fanout() as u64
}

/// The segments, their item count, and the buffers one batch reuses from the
/// last: after the first few batches, sorting, grouping and the pass
/// allocate nothing per group or per segment.
#[derive(Debug)]
pub(crate) struct Cascade<K, V> {
    segments: Vec<RecencyMap<K, V>>,
    /// Items over all segments; kept by the metered primitives, so callers
    /// never adjust it.
    size: usize,
    /// Keys of the batch being sorted, then of the groups still travelling.
    key_buf: Vec<K>,
    scratch: SortScratch,
    grouped: GroupedBatch<K>,
    /// Recycled group vector and per-group member vectors.
    groups_buf: Vec<GroupOp<K, V>>,
    ops_pool: Vec<Vec<TaggedOp<K, V>>>,
    /// The cut batch with its operations made movable.
    batch_buf: Vec<Option<TaggedOp<K, V>>>,
    /// Per segment of a pass: what the removal found per group, and the
    /// surviving items on their way to the segment in front.
    found_buf: Vec<Option<V>>,
    shift_buf: Vec<(K, V)>,
}

impl<K: Ord + Clone + Send + Sync, V: Clone> Cascade<K, V> {
    pub(crate) fn new() -> Self {
        Cascade {
            segments: Vec::new(),
            size: 0,
            key_buf: Vec::new(),
            scratch: SortScratch::default(),
            grouped: GroupedBatch::default(),
            groups_buf: Vec::new(),
            ops_pool: Vec::new(),
            batch_buf: Vec::new(),
            found_buf: Vec::new(),
            shift_buf: Vec::new(),
        }
    }

    /// Number of items in the segments.
    pub(crate) fn size(&self) -> usize {
        self.size
    }

    /// The segments, front to back.
    pub(crate) fn segments(&self) -> &[RecencyMap<K, V>] {
        &self.segments
    }

    pub(crate) fn num_segments(&self) -> usize {
        self.segments.len()
    }

    pub(crate) fn segment_sizes(&self) -> Vec<usize> {
        self.segments.iter().map(RecencyMap::len).collect()
    }

    /// Non-adjusting, uncharged lookup.
    pub(crate) fn peek(&self, key: &K) -> Option<&V> {
        self.segments.iter().find_map(|s| s.get(key))
    }

    /// The contents segment by segment, each in recency order: rebuilding
    /// every segment from its list reproduces key set and working-set order.
    pub(crate) fn snapshot(&self) -> Vec<Vec<(K, V)>> {
        self.segments
            .iter()
            .map(RecencyMap::items_in_recency_order)
            .collect()
    }

    /// Rebuilds an empty cascade from a [`Cascade::snapshot`] image.
    pub(crate) fn restore(&mut self, image: Vec<Vec<(K, V)>>) {
        assert!(
            self.size == 0 && self.segments.is_empty(),
            "restore_segments requires a fresh map"
        );
        self.size = image.iter().map(Vec::len).sum();
        self.segments = image
            .into_iter()
            .map(RecencyMap::from_recency_items)
            .collect();
    }

    /// Tree consistency of every segment, and the cached size.
    pub(crate) fn check_invariants(&self)
    where
        K: std::fmt::Debug,
    {
        for seg in &self.segments {
            seg.check_invariants();
        }
        let total: usize = self.segments.iter().map(RecencyMap::len).sum();
        assert_eq!(total, self.size, "cached size out of date");
    }

    pub(crate) fn push_segment(&mut self) {
        self.segments.push(RecencyMap::new());
    }

    /// Drops empty terminal segments, each only once `may_drop(k)` agrees
    /// (M2 keeps a final-slab segment whose input buffer still holds items).
    pub(crate) fn drop_empty_tail(&mut self, mut may_drop: impl FnMut(usize) -> bool) {
        while matches!(self.segments.last(), Some(s) if s.is_empty())
            && may_drop(self.segments.len() - 1)
        {
            self.segments.pop();
        }
    }

    /// Entropy-sorts a cut batch by key and combines duplicates into
    /// group-operations (Section 6.1 step 2).  Every position lands in
    /// exactly one group, so the operations move rather than clone.
    pub(crate) fn group(&mut self, batch: Vec<TaggedOp<K, V>>) -> (Vec<GroupOp<K, V>>, Charge) {
        self.key_buf.clear();
        self.key_buf
            .extend(batch.iter().map(|t| t.op.key().clone()));
        let charge = Charge::exact(pesort_group_into(
            &self.key_buf,
            &mut self.scratch,
            &mut self.grouped,
        ));
        let mut groups = std::mem::take(&mut self.groups_buf);
        debug_assert!(groups.is_empty());
        self.batch_buf.extend(batch.into_iter().map(Some));
        for (key, idxs) in self.grouped.iter() {
            let mut ops = self.ops_pool.pop().unwrap_or_default();
            ops.extend(idxs.iter().map(|&i| {
                self.batch_buf[i as usize]
                    .take()
                    .expect("grouping is a partition of the batch positions")
            }));
            groups.push(GroupOp {
                key: key.clone(),
                ops,
            });
        }
        self.batch_buf.clear();
        (groups, charge)
    }

    /// Passes the (key-sorted) groups through `S[0..end)` (Section 6.1 step
    /// 3): at `S[k]` the groups whose item is found resolve into `results`,
    /// surviving items shift to the front of `S[k-1]`, and the capacity
    /// invariant of the prefix up to `S[k]` is restored.  Resolved groups are
    /// compacted out of `groups` in place; what is left was in none of the
    /// segments visited.
    pub(crate) fn pass(
        &mut self,
        end: usize,
        groups: &mut Vec<GroupOp<K, V>>,
        results: &mut Vec<(OpId, OpResult<V>)>,
    ) -> Charge {
        let mut cost = Charge::ZERO;
        let end = end.min(self.segments.len());
        let mut keys = std::mem::take(&mut self.key_buf);
        let mut found = std::mem::take(&mut self.found_buf);
        let mut shift = std::mem::take(&mut self.shift_buf);
        let mut k = 0;
        while k < end && !groups.is_empty() {
            keys.clear();
            keys.extend(groups.iter().map(|g| g.key.clone()));
            cost += self.remove_batch(k, &keys, &mut found);
            let mut write = 0;
            for (read, hit) in found.drain(..).enumerate() {
                if hit.is_none() {
                    groups.swap(write, read);
                    write += 1;
                    continue;
                }
                let group = &mut groups[read];
                if let Some(v) = group.resolve_into(hit, results) {
                    shift.push((group.key.clone(), v));
                }
                let ops = std::mem::take(&mut group.ops);
                self.recycle_ops(ops);
            }
            groups.truncate(write);
            cost += self.push_front(k.saturating_sub(1), &mut shift);
            cost += self.restore_range(k);
            k += 1;
        }
        self.key_buf = keys;
        self.found_buf = found;
        self.shift_buf = shift;
        cost
    }

    /// Resolves the groups that reached the end of the structure against an
    /// absent item and returns their net insertions, for
    /// [`Cascade::append_inserts`].
    pub(crate) fn resolve_absent(
        &mut self,
        mut groups: Vec<GroupOp<K, V>>,
        results: &mut Vec<(OpId, OpResult<V>)>,
    ) -> Vec<(K, V)> {
        let mut inserts: Vec<(K, V)> = Vec::new();
        for group in groups.drain(..) {
            if let Some(v) = group.resolve_into(None, results) {
                inserts.push((group.key, v));
            }
            self.recycle_ops(group.ops);
        }
        self.recycle(groups);
        inserts
    }

    /// Takes back the (drained) group vector [`Cascade::group`] handed out.
    pub(crate) fn recycle(&mut self, mut groups: Vec<GroupOp<K, V>>) {
        groups.clear();
        self.groups_buf = groups;
    }

    /// Takes back the member vector of a resolved group.
    pub(crate) fn recycle_ops(&mut self, mut ops: Vec<TaggedOp<K, V>>) {
        ops.clear();
        self.ops_pool.push(ops);
    }

    /// Removes the sorted `keys` from `S[k]`, appending the value found per
    /// key to `found`.
    pub(crate) fn remove_batch(
        &mut self,
        k: usize,
        keys: &[K],
        found: &mut Vec<Option<V>>,
    ) -> Charge {
        let seg = &mut self.segments[k];
        let seg_len = seg.len() as u64;
        let ((), touched) = tcost::metered(|| seg.remove_batch_with(keys, |v| found.push(v)));
        self.size -= seg_len as usize - seg.len();
        tcost::batch_op_charge(touched, keys.len() as u64, seg_len, tree_fanout())
    }

    /// Moves `items` (absent keys) to the front of `S[k]`, leaving the
    /// buffer empty.
    pub(crate) fn push_front(&mut self, k: usize, items: &mut Vec<(K, V)>) -> Charge {
        self.push(k, items.len(), |seg| seg.push_front_from(items))
    }

    /// Runs `push`, which inserts `count` absent keys into `S[k]`.
    fn push(&mut self, k: usize, count: usize, push: impl FnOnce(&mut RecencyMap<K, V>)) -> Charge {
        if count == 0 {
            return Charge::ZERO;
        }
        self.size += count;
        let seg = &mut self.segments[k];
        // Insert bound on the final size: the tree grows during the batch.
        let final_len = (seg.len() + count) as u64;
        let ((), touched) = tcost::metered(|| push(seg));
        tcost::batch_op_charge(touched, count as u64, final_len, tree_fanout())
    }

    /// Moves the `count` least recent items of `S[i-1]` to the front of `S[i]`.
    pub(crate) fn spill(&mut self, i: usize, count: usize) -> Charge {
        self.metered_transfer(i, count, |prev, next| {
            next.push_front_batch(prev.take_back(count))
        })
    }

    /// Moves the `count` most recent items of `S[i]` to the back of `S[i-1]`.
    pub(crate) fn refill(&mut self, i: usize, count: usize) -> Charge {
        self.metered_transfer(i, count, |prev, next| {
            prev.push_back_batch(next.take_front(count))
        })
    }

    /// Moves `count` items across the boundary between `S[i-1]` and `S[i]`
    /// with `mv`, metering the touched nodes into a transfer charge.
    fn metered_transfer(
        &mut self,
        i: usize,
        count: usize,
        mv: impl FnOnce(&mut RecencyMap<K, V>, &mut RecencyMap<K, V>),
    ) -> Charge {
        let (left, right) = self.segments.split_at_mut(i);
        let (prev, next) = (&mut left[i - 1], &mut right[0]);
        // The receiving segment grows to its size + count during the insert
        // half of the transfer, so the bound covers the final size.
        let final_len = (prev.len().max(next.len()) + count) as u64;
        let ((), touched) = tcost::metered(|| mv(prev, next));
        tcost::transfer_charge(touched, count as u64, final_len, tree_fanout())
    }

    /// Total capacity of segments `S[0..i-1]` (saturating).
    pub(crate) fn prefix_capacity(i: usize) -> u64 {
        (0..i).fold(0u64, |acc, j| {
            acc.saturating_add(segment_capacity(j as u32))
        })
    }

    /// Total size of segments `S[0..i-1]`.
    pub(crate) fn prefix_size(&self, i: usize) -> u64 {
        self.segments[..i].iter().map(|s| s.len() as u64).sum()
    }

    /// Balances the boundary between `S[i-1]` and `S[i]` so that the prefix
    /// `S[0..i-1]` is exactly full, or `S[i]` is empty.
    fn balance_boundary(&mut self, i: usize) -> Charge {
        let target = Self::prefix_capacity(i);
        let current = self.prefix_size(i);
        if current > target {
            self.spill(i, (current - target) as usize)
        } else if current < target && !self.segments[i].is_empty() {
            let deficit = (target - current) as usize;
            self.refill(i, deficit.min(self.segments[i].len()))
        } else {
            Charge::ZERO
        }
    }

    /// Balances boundaries `1..=k` from back to front (the step-3
    /// restoration of Section 6.1); nothing past `S[k]` is touched.
    pub(crate) fn restore_range(&mut self, k: usize) -> Charge {
        let mut cost = Charge::ZERO;
        for i in (1..=k.min(self.segments.len().saturating_sub(1))).rev() {
            cost += self.balance_boundary(i);
        }
        cost
    }

    /// Restores the capacity invariant across the whole structure.
    pub(crate) fn restore_all(&mut self) -> Charge {
        self.restore_range(self.segments.len())
    }

    /// Appends net insertions at the back of the terminal segment, carving new
    /// terminal segments when it overflows (end of Section 6.1).
    pub(crate) fn append_inserts(&mut self, items: Vec<(K, V)>) -> Charge {
        if items.is_empty() {
            return Charge::ZERO;
        }
        if self.segments.is_empty() {
            self.push_segment();
        }
        let mut l = self.segments.len() - 1;
        let mut cost = self.push(l, items.len(), |seg| seg.push_back_batch(items));
        while self.segments[l].len() as u64 > segment_capacity(l as u32) {
            let excess = self.segments[l].len() as u64 - segment_capacity(l as u32);
            self.push_segment();
            l += 1;
            cost += self.spill(l, excess as usize);
        }
        cost
    }
}
