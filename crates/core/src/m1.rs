//! M1 — the simple batched parallel working-set map (paper Section 6).
//!
//! Operations enter through the parallel buffer (owned by the concurrent
//! front-end) or directly as input batches, are cut into bounded-size batches
//! by the feed buffer, entropy-sorted so that duplicate accesses combine into
//! [`GroupOp`]s, and then passed through the segment cascade
//! `S[0] → S[1] → …` exactly as in the paper:
//!
//! * at segment `S[k]` the remaining group-operations are looked up; groups
//!   whose item is found resolve immediately, the surviving items are shifted
//!   to the front of `S[k-1]`, and the capacity invariant of the prefix
//!   `S[0..k-1]` is restored by transfers across segment boundaries;
//! * groups that reach the end resolve against an absent item; net insertions
//!   are appended at the back of the terminal segment, which is split when it
//!   overflows.
//!
//! Theorem 12 (effective work `O(W_L + e_L log p)`) and Theorem 13 (effective
//! span `O(N/p + d((log p)² + log n))`) are validated empirically by
//! experiments E3/E4 in EXPERIMENTS.md.

use crate::feed::FeedBuffer;
use crate::ops::{BatchedMap, GroupOp, OpId, OpResult, Operation, TaggedOp};
use wsm_model::{ceil_log2, Cost, CostMeter};
use wsm_seq::segment_capacity;
use wsm_sort::{pesort_group_into, GroupedBatch, SortScratch};
use wsm_twothree::cost::{self as tcost, Charge};
use wsm_twothree::RecencyMap;

/// The fanout of the segment trees (all segments are built through
/// [`RecencyMap::new`], which reads `WSM_TREE_FANOUT`), threaded into every
/// measured charge so the Lemma bounds are the ones of the tree actually
/// running — `2` reproduces the closed-form Appendix A.2 reference.
fn tree_fanout() -> u64 {
    wsm_twothree::default_fanout() as u64
}

/// Statistics recorded for every cut batch M1 processes, when the map was
/// built with [`M1::with_batch_log`].
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchStats {
    /// Number of operations in the cut batch.
    pub batch_size: usize,
    /// Map size just before the batch.
    pub map_size_before: usize,
    /// Effective cost charged for the batch (sorting + segments + transfers).
    pub cost: Cost,
}

/// The simple batched parallel working-set map.
#[derive(Debug)]
pub struct M1<K, V> {
    p: usize,
    feed: FeedBuffer<TaggedOp<K, V>>,
    staged: Vec<TaggedOp<K, V>>,
    segments: Vec<RecencyMap<K, V>>,
    size: usize,
    meter: CostMeter,
    /// Worst-case (Lemma A.2) work the processed batches *would* have been
    /// charged before the measured/bound split; the meter holds the measured
    /// work actually paid.  `analytic_bound_work / effective_work` is the
    /// constant factor E17 tracks.
    bound_work: u64,
    next_id: OpId,
    /// Per-cut-batch diagnostics; `None` (the default) records nothing, so a
    /// long-running map's memory does not grow with the batches it served.
    batch_log: Option<Vec<BatchStats>>,
    /// Reusable sort/group buffers: after the first few batches the
    /// sort-and-combine step allocates nothing (see `pesort_group_into`).
    key_buf: Vec<K>,
    scratch: SortScratch,
    grouped: GroupedBatch<K>,
    /// Recycled group-op machinery: the group vector and the per-group
    /// member vectors live across batches instead of being reallocated.
    groups_buf: Vec<GroupOp<K, V>>,
    ops_pool: Vec<Vec<TaggedOp<K, V>>>,
    /// The cut batch with its operations made movable, reused across
    /// batches.
    batch_buf: Vec<Option<TaggedOp<K, V>>>,
}

impl<K: Ord + Clone + Send + Sync, V: Clone> M1<K, V> {
    /// Creates an empty M1 configured for `p` processors (`p ≥ 2`); the feed
    /// buffer uses bunches of size `p²`.
    pub fn new(p: usize) -> Self {
        let p = p.max(2);
        M1 {
            p,
            feed: FeedBuffer::new(p * p),
            staged: Vec::new(),
            segments: Vec::new(),
            size: 0,
            meter: CostMeter::new(),
            bound_work: 0,
            next_id: 0,
            batch_log: None,
            key_buf: Vec::new(),
            scratch: SortScratch::default(),
            grouped: GroupedBatch::default(),
            groups_buf: Vec::new(),
            ops_pool: Vec::new(),
            batch_buf: Vec::new(),
        }
    }

    /// Additionally keeps one [`BatchStats`] per cut batch (read back with
    /// [`M1::batch_log`]) — for the experiment harness; the log grows without
    /// bound, so serving paths leave it off.
    pub fn with_batch_log(mut self) -> Self {
        self.batch_log = Some(Vec::new());
        self
    }

    /// The processor count this instance is configured for.
    pub fn processors(&self) -> usize {
        self.p
    }

    /// Number of items currently in the map.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of segments currently allocated.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Sizes of the segments, front to back.
    pub fn segment_sizes(&self) -> Vec<usize> {
        self.segments.iter().map(RecencyMap::len).collect()
    }

    /// Per-cut-batch statistics recorded so far (empty unless constructed
    /// with [`M1::with_batch_log`]).
    pub fn batch_log(&self) -> &[BatchStats] {
        self.batch_log.as_deref().unwrap_or_default()
    }

    /// Total worst-case work (the closed-form Appendix A.2 bounds) for every
    /// charge this map has paid.  [`BatchedMap::effective_work`] reports the
    /// measured touched-node work, which is at most this (up to
    /// [`tcost::MEASURED_CEILING`], asserted in debug builds).
    pub fn analytic_bound_work(&self) -> u64 {
        self.bound_work
    }

    /// Non-adjusting lookup for tests: scans the segments without charging
    /// cost or restructuring.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.segments.iter().find_map(|s| s.get(key))
    }

    /// Stages a single operation for the next processing round and returns the
    /// identifier its result will carry.
    pub fn submit(&mut self, op: Operation<K, V>) -> OpId {
        let id = self.next_id;
        self.next_id += 1;
        self.staged.push(TaggedOp { id, op });
        id
    }

    /// Pushes an input batch (already tagged) into the feed buffer, as if it
    /// had just been flushed from the parallel buffer.
    pub fn enqueue_batch(&mut self, batch: Vec<TaggedOp<K, V>>) {
        for t in &batch {
            self.next_id = self.next_id.max(t.id + 1);
        }
        let cost = self.feed.push_input(batch);
        self.bound_work += cost.work;
        self.meter.charge(cost);
    }

    /// Number of operations waiting in the feed buffer or staging area.
    pub fn pending(&self) -> usize {
        self.feed.len() + self.staged.len()
    }

    /// How many bunches form the next cut batch: `⌈log n / p⌉`, at least one
    /// (Section 6.1).
    fn cut_bunch_count(&self) -> usize {
        let logn = ceil_log2(self.size as u64 + 2) as usize;
        logn.div_ceil(self.p).max(1)
    }

    /// Processes one cut batch if any operations are pending.  Returns the
    /// results of the operations that completed in this batch.
    #[allow(clippy::type_complexity)]
    pub fn process_next_batch(&mut self) -> Option<(Vec<(OpId, OpResult<V>)>, Cost)> {
        if !self.staged.is_empty() {
            let staged = std::mem::take(&mut self.staged);
            self.enqueue_batch(staged);
        }
        if self.feed.is_empty() {
            return None;
        }
        let (batch, form_cost) = self.feed.pop_cut_batch(self.cut_bunch_count());
        let stats_before = self.size;
        let batch_size = batch.len();
        let (results, charge) = self.process_cut_batch(batch);
        let cost = form_cost.then(charge.measured);
        self.bound_work += form_cost.work + charge.bound.work;
        self.meter.charge_in_batch(cost);
        self.meter.end_batch();
        if let Some(log) = &mut self.batch_log {
            log.push(BatchStats {
                batch_size,
                map_size_before: stats_before,
                cost,
            });
        }
        Some((results, cost))
    }

    /// Processes everything that is pending, returning all results.
    pub fn process_all(&mut self) -> Vec<(OpId, OpResult<V>)> {
        let mut out = Vec::new();
        while let Some((results, _)) = self.process_next_batch() {
            out.extend(results);
        }
        out
    }

    /// The core of Section 6.1: sort + combine, pass through the segments,
    /// then append net insertions.
    fn process_cut_batch(
        &mut self,
        batch: Vec<TaggedOp<K, V>>,
    ) -> (Vec<(OpId, OpResult<V>)>, Charge) {
        let b = batch.len();
        if b == 0 {
            return (Vec::new(), Charge::ZERO);
        }
        let mut cost = Charge::ZERO;

        // Entropy-sort the batch by key and combine duplicates into
        // group-operations, through the reusable scratch buffers.
        self.key_buf.clear();
        self.key_buf
            .extend(batch.iter().map(|t| t.op.key().clone()));
        cost += Charge::exact(pesort_group_into(
            &self.key_buf,
            &mut self.scratch,
            &mut self.grouped,
        ));
        let mut groups: Vec<GroupOp<K, V>> = std::mem::take(&mut self.groups_buf);
        debug_assert!(groups.is_empty());
        // Every position lands in exactly one group, so the operations move.
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

        let mut results: Vec<(OpId, OpResult<V>)> = Vec::with_capacity(b);

        // Pass the group-operations through the segments.  `key_buf` (free
        // again after the grouping above) carries the surviving keys, and
        // resolved groups are compacted out of `groups` in place, so the
        // cascade allocates no per-segment vectors.
        let mut k = 0;
        while k < self.segments.len() && !groups.is_empty() {
            let seg_len = self.segments[k].len() as u64;
            self.key_buf.clear();
            self.key_buf.extend(groups.iter().map(|g| g.key.clone()));
            let seg = &mut self.segments[k];
            let keys: &[K] = &self.key_buf;
            let (removed, touched) = tcost::metered(|| seg.remove_batch(keys));
            cost += tcost::batch_op_charge(touched, keys.len() as u64, seg_len, tree_fanout());

            let mut shift: Vec<(K, V)> = Vec::new();
            let mut write = 0;
            for (read, found) in removed.into_iter().enumerate() {
                match found {
                    Some(v) => {
                        let group = &mut groups[read];
                        let (rs, fin) = group.resolve(Some(v));
                        results.extend(rs);
                        match fin {
                            Some(v2) => shift.push((group.key.clone(), v2)),
                            None => self.size -= 1,
                        }
                        let mut ops = std::mem::take(&mut group.ops);
                        ops.clear();
                        self.ops_pool.push(ops);
                    }
                    None => {
                        groups.swap(write, read);
                        write += 1;
                    }
                }
            }
            groups.truncate(write);
            let dest = k.saturating_sub(1);
            if !shift.is_empty() {
                let shift_len = shift.len() as u64;
                // Insert bound on the final size: the tree grows to
                // dest_len + shift_len during the batch.
                let dest_len = self.segments[dest].len() as u64 + shift_len;
                let dest_seg = &mut self.segments[dest];
                let ((), touched) = tcost::metered(|| dest_seg.push_front_batch(shift));
                cost += tcost::batch_op_charge(touched, shift_len, dest_len, tree_fanout());
            }
            cost += self.restore_prefixes(k);
            k += 1;
        }

        // Remaining groups reached the end of the structure: they resolve
        // against an absent item; net insertions go to the back.
        let mut inserts: Vec<(K, V)> = Vec::new();
        for group in &mut groups {
            let (rs, fin) = group.resolve(None);
            results.extend(rs);
            if let Some(v) = fin {
                inserts.push((group.key.clone(), v));
            }
            let mut ops = std::mem::take(&mut group.ops);
            ops.clear();
            self.ops_pool.push(ops);
        }
        groups.clear();
        self.groups_buf = groups;
        if !inserts.is_empty() {
            cost += self.append_inserts(inserts);
        }

        // Refill any deletion holes and drop empty trailing segments so the
        // Section 5/6 structural invariant holds after every batch.
        cost += self.restore_all();
        self.drop_empty_tail();

        (results, cost)
    }

    /// Moves `count` items across the boundary between `S[i-1]` and `S[i]`
    /// with `mv`, metering the touched nodes into a transfer charge.
    fn metered_transfer(
        &mut self,
        i: usize,
        count: usize,
        larger: u64,
        mv: impl FnOnce(&mut RecencyMap<K, V>, &mut RecencyMap<K, V>, usize),
    ) -> Charge {
        let (left, right) = self.segments.split_at_mut(i);
        let prev = &mut left[i - 1];
        let next = &mut right[0];
        let ((), touched) = tcost::metered(|| mv(prev, next, count));
        // The receiving segment grows to its size + count during the insert
        // half of the transfer, so the bound covers the final size.
        tcost::transfer_charge(touched, count as u64, larger + count as u64, tree_fanout())
    }

    /// Total capacity of segments `S[0..i-1]` (saturating).
    fn prefix_capacity(i: usize) -> u64 {
        (0..i).fold(0u64, |acc, j| {
            acc.saturating_add(segment_capacity(j as u32))
        })
    }

    /// Total size of segments `S[0..i-1]`.
    fn prefix_size(&self, i: usize) -> u64 {
        self.segments[..i].iter().map(|s| s.len() as u64).sum()
    }

    /// Balances the boundary between `S[i-1]` and `S[i]` so that the prefix
    /// `S[0..i-1]` is exactly full, or `S[i]` is empty.  Returns the charge.
    fn balance_boundary(&mut self, i: usize) -> Charge {
        let target = Self::prefix_capacity(i);
        let current = self.prefix_size(i);
        let larger = self.segments[i - 1].len().max(self.segments[i].len()) as u64;
        if current > target {
            let x = (current - target) as usize;
            self.metered_transfer(i, x, larger, |prev, next, x| {
                let moved = prev.take_back(x);
                next.push_front_batch(moved);
            })
        } else if current < target && !self.segments[i].is_empty() {
            let x = ((target - current) as usize).min(self.segments[i].len());
            self.metered_transfer(i, x, larger, |prev, next, x| {
                let moved = next.take_front(x);
                prev.push_back_batch(moved);
            })
        } else {
            Charge::ZERO
        }
    }

    /// Restores the capacity invariant for all prefixes up to segment `k`
    /// (the step-3 restoration of Section 6.1).
    fn restore_prefixes(&mut self, k: usize) -> Charge {
        let mut cost = Charge::ZERO;
        for i in (1..=k.min(self.segments.len().saturating_sub(1))).rev() {
            cost += self.balance_boundary(i);
        }
        cost
    }

    /// Restores the capacity invariant across the whole structure.
    fn restore_all(&mut self) -> Charge {
        let last = self.segments.len().saturating_sub(1);
        self.restore_prefixes(last)
    }

    /// Appends net insertions at the back of the terminal segment, carving new
    /// terminal segments when it overflows (end of Section 6.1).
    fn append_inserts(&mut self, items: Vec<(K, V)>) -> Charge {
        let mut cost = Charge::ZERO;
        if self.segments.is_empty() {
            self.segments.push(RecencyMap::new());
        }
        self.size += items.len();
        let mut l = self.segments.len() - 1;
        let items_len = items.len() as u64;
        // Insert bound on the final size (the tree grows during the batch).
        let seg_len = self.segments[l].len() as u64 + items_len;
        let seg = &mut self.segments[l];
        let ((), touched) = tcost::metered(|| seg.push_back_batch(items));
        cost += tcost::batch_op_charge(touched, items_len, seg_len, tree_fanout());
        while self.segments[l].len() as u64 > segment_capacity(l as u32) {
            let excess = (self.segments[l].len() as u64 - segment_capacity(l as u32)) as usize;
            let larger = self.segments[l].len() as u64;
            self.segments.push(RecencyMap::new());
            l += 1;
            cost += self.metered_transfer(l, excess, larger, |prev, next, x| {
                let moved = prev.take_back(x);
                next.push_front_batch(moved);
            });
        }
        cost
    }

    fn drop_empty_tail(&mut self) {
        while matches!(self.segments.last(), Some(s) if s.is_empty()) {
            self.segments.pop();
        }
    }

    /// Checks the structural invariants: internal tree consistency, cached
    /// size, and that every segment except the terminal one is exactly full.
    pub fn check_invariants(&self)
    where
        K: std::fmt::Debug,
    {
        let mut total = 0usize;
        for (k, seg) in self.segments.iter().enumerate() {
            seg.check_invariants();
            total += seg.len();
            if k + 1 < self.segments.len() {
                assert_eq!(
                    seg.len() as u64,
                    segment_capacity(k as u32),
                    "segment {k} must be exactly full"
                );
            } else {
                assert!(seg.len() as u64 <= segment_capacity(k as u32));
            }
        }
        assert_eq!(total, self.size, "cached size out of date");
    }

    /// The items of the map in working-set order (segment order, recency
    /// within each segment) — the abstract list `R` of Lemma 6.
    pub fn items_in_working_set_order(&self) -> Vec<K> {
        let mut out = Vec::with_capacity(self.size);
        for seg in &self.segments {
            out.extend(seg.items_in_recency_order().into_iter().map(|(k, _)| k));
        }
        out
    }

    /// The full contents, segment by segment, each segment's items in
    /// recency order (most recent first) — everything a checkpoint needs:
    /// rebuilding each segment from its item list reproduces both the key
    /// set and the working-set order exactly.  Meant to be taken at a batch
    /// boundary (the only observable state for `wsm-wal`).
    pub fn snapshot_segments(&self) -> Vec<Vec<(K, V)>> {
        self.segments
            .iter()
            .map(RecencyMap::items_in_recency_order)
            .collect()
    }

    /// Rebuilds the map's contents from a [`M1::snapshot_segments`] image.
    /// Only valid on a fresh map (cost meters and batch logs restart from
    /// zero — durability restores *state*, not accounting history).
    pub fn restore_segments(&mut self, segments: Vec<Vec<(K, V)>>) {
        assert!(
            self.size == 0 && self.segments.is_empty() && self.pending() == 0,
            "restore_segments requires a fresh map"
        );
        self.size = segments.iter().map(Vec::len).sum();
        self.segments = segments
            .into_iter()
            .map(RecencyMap::from_recency_items)
            .collect();
        self.drop_empty_tail();
    }

    /// Convenience: runs a sequence of untagged operations as one input batch
    /// and returns the results in operation order.
    pub fn run_ops(&mut self, ops: Vec<Operation<K, V>>) -> Vec<OpResult<V>> {
        let base = self.next_id;
        let batch: Vec<TaggedOp<K, V>> = ops
            .into_iter()
            .enumerate()
            .map(|(i, op)| TaggedOp {
                id: base + i as OpId,
                op,
            })
            .collect();
        self.next_id = base + batch.len() as OpId;
        let n = batch.len();
        self.enqueue_batch(batch);
        let mut results: Vec<Option<OpResult<V>>> = vec![None; n];
        for (id, r) in self.process_all() {
            let idx = (id - base) as usize;
            results[idx] = Some(r);
        }
        results
            .into_iter()
            .map(|r| r.expect("every operation produces a result"))
            .collect()
    }
}

impl<K: Ord + Clone + Send + Sync, V: Clone> BatchedMap<K, V> for M1<K, V> {
    fn run_batch(&mut self, batch: Vec<TaggedOp<K, V>>) -> (Vec<(OpId, OpResult<V>)>, Cost) {
        let before = self.meter.total();
        self.enqueue_batch(batch);
        let mut results = Vec::new();
        while let Some((rs, _)) = self.process_next_batch() {
            results.extend(rs);
        }
        let after = self.meter.total();
        (
            results,
            Cost {
                work: after.work - before.work,
                span: after.span - before.span,
            },
        )
    }

    fn len(&self) -> usize {
        self.size
    }

    fn effective_work(&self) -> u64 {
        self.meter.work()
    }

    fn effective_span(&self) -> u64 {
        self.meter.span()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn search(k: u64) -> Operation<u64, u64> {
        Operation::Search(k)
    }
    fn insert(k: u64, v: u64) -> Operation<u64, u64> {
        Operation::Insert(k, v)
    }
    fn delete(k: u64) -> Operation<u64, u64> {
        Operation::Delete(k)
    }

    #[test]
    fn basic_insert_search_delete() {
        let mut m = M1::new(4);
        let results = m.run_ops(vec![insert(1, 10), insert(2, 20), insert(3, 30)]);
        assert!(results.iter().all(|r| matches!(r, OpResult::Insert(None))));
        assert_eq!(m.size(), 3);
        m.check_invariants();

        let results = m.run_ops(vec![search(1), search(2), search(9)]);
        assert_eq!(results[0], OpResult::Search(Some(10)));
        assert_eq!(results[1], OpResult::Search(Some(20)));
        assert_eq!(results[2], OpResult::Search(None));

        let results = m.run_ops(vec![delete(2), search(2)]);
        assert_eq!(results[0], OpResult::Delete(Some(20)));
        assert_eq!(results[1], OpResult::Search(None));
        assert_eq!(m.size(), 2);
        m.check_invariants();
    }

    #[test]
    fn duplicate_operations_in_one_batch_combine() {
        let mut m = M1::new(4);
        m.run_ops((0..100u64).map(|i| insert(i, i)).collect());
        m.check_invariants();
        // A batch of many searches for the same key plus one insert-after.
        let ops: Vec<Operation<u64, u64>> =
            (0..50).map(|_| search(7)).chain([insert(7, 700)]).collect();
        let results = m.run_ops(ops);
        assert!(results[..50]
            .iter()
            .all(|r| *r == OpResult::Search(Some(7))));
        assert_eq!(results[50], OpResult::Insert(Some(7)));
        assert_eq!(m.peek(&7), Some(&700));
        m.check_invariants();
    }

    #[test]
    fn group_ordering_within_batch_is_linearized() {
        let mut m = M1::new(4);
        // In one batch: search (absent), insert, search (present), delete,
        // search (absent again).
        let results = m.run_ops(vec![
            search(5),
            insert(5, 50),
            search(5),
            delete(5),
            search(5),
        ]);
        assert_eq!(results[0], OpResult::Search(None));
        assert_eq!(results[1], OpResult::Insert(None));
        assert_eq!(results[2], OpResult::Search(Some(50)));
        assert_eq!(results[3], OpResult::Delete(Some(50)));
        assert_eq!(results[4], OpResult::Search(None));
        assert_eq!(m.size(), 0);
    }

    #[test]
    fn matches_btreemap_model_on_random_batches() {
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut m = M1::new(4);
        let mut state = 0xC0FFEE;
        for _ in 0..40 {
            let b = 1 + (xorshift(&mut state) % 100) as usize;
            let mut ops = Vec::with_capacity(b);
            for _ in 0..b {
                let key = xorshift(&mut state) % 64;
                match xorshift(&mut state) % 4 {
                    0 | 1 => ops.push(search(key)),
                    2 => ops.push(insert(key, xorshift(&mut state))),
                    _ => ops.push(delete(key)),
                }
            }
            // Apply to the model in the same (arrival) order — M1 linearizes
            // each batch in arrival order per key, and keys are independent.
            let expected: Vec<OpResult<u64>> = ops
                .iter()
                .map(|op| match op {
                    Operation::Search(k) => OpResult::Search(model.get(k).copied()),
                    Operation::Insert(k, v) => OpResult::Insert(model.insert(*k, *v)),
                    Operation::Delete(k) => OpResult::Delete(model.remove(k)),
                })
                .collect();
            let got = m.run_ops(ops);
            assert_eq!(got, expected);
            assert_eq!(m.size(), model.len());
            m.check_invariants();
        }
    }

    #[test]
    fn hot_batches_cost_less_than_cold_batches() {
        // Theorem 12 shape: a batch of searches for recently-accessed items
        // costs far less than a batch of searches for long-untouched items.
        let n = 1 << 13;
        let mut m = M1::new(8);
        m.run_ops((0..n).map(|i| insert(i, i)).collect());
        // Touch a small hot set so it sits at the front.
        let hot: Vec<u64> = (0..16u64).collect();
        m.run_ops(hot.iter().map(|&k| search(k)).collect());
        let work_before = m.effective_work();
        m.run_ops(hot.iter().map(|&k| search(k)).collect());
        let hot_work = m.effective_work() - work_before;

        // Cold keys: spread across the last segment.
        let cold: Vec<u64> = (0..16u64).map(|i| n - 1 - i * 50).collect();
        let work_before = m.effective_work();
        m.run_ops(cold.iter().map(|&k| search(k)).collect());
        let cold_work = m.effective_work() - work_before;
        // Wide fanouts flatten every segment tree, so the absolute depth gap
        // between front and back segments shrinks with log_2(min_children).
        // Keep the strict 2x margin on the analytic B=2 instantiation and
        // require a plain gap elsewhere.
        if wsm_twothree::default_fanout() == 2 {
            assert!(
                hot_work * 2 < cold_work,
                "hot batch work {hot_work} should be well below cold batch work {cold_work}"
            );
        } else {
            assert!(
                hot_work < cold_work,
                "hot batch work {hot_work} should be below cold batch work {cold_work}"
            );
        }
    }

    #[test]
    fn repeated_hot_key_batch_is_linear_not_blogn() {
        // The Section 3 motivation: b searches for one item must cost
        // O(log n + b), not Ω(b log n).
        let n: u64 = 1 << 14;
        let b: usize = 1 << 10;
        let mut m = M1::new(8);
        m.run_ops((0..n).map(|i| insert(i, i)).collect());
        let work_before = m.effective_work();
        m.run_ops(std::iter::repeat_n(search(n / 2), b).collect());
        let dup_work = m.effective_work() - work_before;
        let log_n = (n as f64).log2();
        assert!(
            (dup_work as f64) < 40.0 * (log_n + b as f64),
            "duplicate batch work {dup_work} is not O(log n + b)"
        );
        assert!(
            (dup_work as f64) < 0.8 * (b as f64) * log_n,
            "duplicate batch work {dup_work} looks like Ω(b log n)"
        );
    }

    #[test]
    fn batches_flow_through_feed_buffer_in_order() {
        let mut m = M1::new(2);
        // Enqueue two separate input batches before processing; the first
        // batch's insert must be visible to the second batch's search.
        let id1 = m.submit(insert(1, 11));
        let ops: Vec<TaggedOp<u64, u64>> = vec![TaggedOp {
            id: 1000,
            op: search(1),
        }];
        // Process the staged insert first, then the search batch.
        let first: BTreeMap<OpId, OpResult<u64>> = m.process_all().into_iter().collect();
        assert_eq!(first[&id1], OpResult::Insert(None));
        m.enqueue_batch(ops);
        let second: BTreeMap<OpId, OpResult<u64>> = m.process_all().into_iter().collect();
        assert_eq!(second[&1000], OpResult::Search(Some(11)));
    }

    #[test]
    fn cut_batches_are_bounded_by_p_squared_times_logn() {
        let mut m = M1::new(4).with_batch_log();
        // One huge input batch gets cut into pieces of at most
        // ceil(log n / p) * p^2 operations.
        let ops: Vec<Operation<u64, u64>> = (0..5000u64).map(|i| insert(i, i)).collect();
        m.run_ops(ops);
        let max_batch = m.batch_log().iter().map(|s| s.batch_size).max().unwrap();
        let bound = 16 * ((5000f64).log2().ceil() as usize / 4 + 1);
        assert!(
            max_batch <= bound,
            "cut batch of {max_batch} exceeds p^2 * ceil(log n / p) = {bound}"
        );
        assert!(
            m.batch_log().len() > 10,
            "large input must span many cut batches"
        );
    }

    #[test]
    fn effective_work_tracks_working_set_bound() {
        use wsm_model::{working_set_bound, MapOpKind};
        // Zipf-ish skewed accesses: W_L is small; M1's work must stay within a
        // constant factor of it.
        let n: u64 = 1 << 12;
        let mut m = M1::new(8);
        let mut state = 7;
        m.run_ops((0..n).map(|i| insert(i, i)).collect());
        let mut ops = Vec::new();
        let mut kinds = Vec::new();
        for i in 0..n {
            kinds.push(MapOpKind::Insert(i));
        }
        for _ in 0..(4 * n) {
            // 90% of accesses hit a set of 8 keys.
            let key = if xorshift(&mut state) % 10 < 9 {
                xorshift(&mut state) % 8
            } else {
                xorshift(&mut state) % n
            };
            ops.push(search(key));
            kinds.push(MapOpKind::Search(key));
        }
        let work_before = m.effective_work();
        m.run_ops(ops);
        let measured = m.effective_work() - work_before;
        let wl = working_set_bound(&kinds) as f64;
        assert!(
            (measured as f64) < 60.0 * wl,
            "M1 work {measured} not within constant factor of W_L {wl}"
        );
    }

    #[test]
    fn snapshot_restore_round_trip_preserves_state_and_order() {
        let mut m = M1::new(4);
        m.run_ops((0..500u64).map(|i| insert(i, i * 2)).collect());
        // Touch a hot set so the working-set order is non-trivial.
        m.run_ops([3u64, 99, 3, 250, 7].iter().map(|&k| search(k)).collect());
        m.run_ops(vec![delete(10), delete(499)]);
        let image = m.snapshot_segments();
        let mut r = M1::new(4);
        r.restore_segments(image);
        r.check_invariants();
        assert_eq!(r.size(), m.size());
        assert_eq!(r.segment_sizes(), m.segment_sizes());
        assert_eq!(
            r.items_in_working_set_order(),
            m.items_in_working_set_order()
        );
        // The restored map keeps answering correctly.
        let results = r.run_ops(vec![search(3), search(10), search(250)]);
        assert_eq!(results[0], OpResult::Search(Some(6)));
        assert_eq!(results[1], OpResult::Search(None));
        assert_eq!(results[2], OpResult::Search(Some(500)));
        r.check_invariants();
        // Empty round trip.
        let mut e = M1::<u64, u64>::new(4);
        e.restore_segments(M1::<u64, u64>::new(4).snapshot_segments());
        assert_eq!(e.size(), 0);
    }

    #[test]
    fn empty_batches_and_empty_map() {
        let mut m: M1<u64, u64> = M1::new(4);
        assert!(m.process_next_batch().is_none());
        let results = m.run_ops(vec![search(1), delete(2)]);
        assert_eq!(results[0], OpResult::Search(None));
        assert_eq!(results[1], OpResult::Delete(None));
        assert_eq!(m.size(), 0);
        assert_eq!(m.num_segments(), 0);
    }
}
