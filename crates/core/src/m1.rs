//! M1 — the simple batched parallel working-set map (paper Section 6).
//!
//! Operations enter through the parallel buffer (owned by the concurrent
//! front-end) or directly as input batches, all through
//! [`BatchedMap::run_batch`].  The feed buffer queues them; each cut batch
//! takes `⌈log n / p⌉` bunches off its front, a bunch being a run of `p²`
//! queue entries charged as the paper's bunch.  A cut batch is
//! entropy-sorted so that duplicate accesses combine into
//! [`crate::GroupOp`]s, and then passed through the segment cascade
//! `S[0] → S[1] → …` (Section 6.1 step 3 — written once, in
//! `crates/core/src/cascade.rs`, which M2 shares for its first slab): at
//! `S[k]` the groups whose item is found resolve, the surviving items shift to
//! the front of `S[k-1]`, and the capacity invariant of the prefix is restored
//! by transfers across segment boundaries; groups that reach the end resolve
//! against an absent item, and net insertions are appended at the back of the
//! terminal segment, which is split when it overflows.
//!
//! Theorem 12 (effective work `O(W_L + e_L log p)`) and Theorem 13 (effective
//! span `O(N/p + d((log p)² + log n))`) are validated empirically by the
//! `harness` binary's experiments E3/E4 (`crates/bench`; the small-preset
//! results are committed as `BENCH_e3_small.json`/`BENCH_e4_small.json`).

use crate::cascade::Cascade;
use crate::feed::FeedBuffer;
use crate::ops::{self, BatchedMap, OpId, OpResult, Operation, TaggedOp};
use wsm_model::{ceil_log2, Charge, Cost};
use wsm_seq::segment_capacity;

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
    cascade: Cascade<K, V>,
    /// The cost ledger: every charge this map has paid, measured (the
    /// effective work and span it reports) and worst-case (Lemma A.2).
    /// `analytic_bound_work / effective_work` is the constant factor E17
    /// tracks.
    spent: Charge,
    /// Per-cut-batch diagnostics; `None` (the default) records nothing, so a
    /// long-running map's memory does not grow with the batches it served.
    batch_log: Option<Vec<BatchStats>>,
}

impl<K: Ord + Clone + Default + Send + Sync, V: Clone + Default> M1<K, V> {
    /// Creates an empty M1 configured for `p` processors (`p ≥ 2`); the feed
    /// buffer uses bunches of size `p²`.
    pub fn new(p: usize) -> Self {
        let p = p.max(2);
        M1 {
            p,
            feed: FeedBuffer::new(p * p),
            cascade: Cascade::new(),
            spent: Charge::ZERO,
            batch_log: None,
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
        self.cascade.size()
    }

    /// Number of segments currently allocated.
    pub fn num_segments(&self) -> usize {
        self.cascade.num_segments()
    }

    /// Sizes of the segments, front to back.
    pub fn segment_sizes(&self) -> Vec<usize> {
        self.cascade.segment_sizes()
    }

    /// Per-cut-batch statistics recorded so far (empty unless constructed
    /// with [`M1::with_batch_log`]).
    pub fn batch_log(&self) -> &[BatchStats] {
        self.batch_log.as_deref().unwrap_or_default()
    }

    /// Total worst-case work (the closed-form Appendix A.2 bounds) for every
    /// charge this map has paid.  [`BatchedMap::effective_work`] reports the
    /// measured touched-node work, which is at most this (up to
    /// [`wsm_twothree::cost::MEASURED_CEILING`], asserted in debug builds).
    pub fn analytic_bound_work(&self) -> u64 {
        self.spent.bound.work
    }

    /// Non-adjusting lookup for tests: scans the segments without charging
    /// cost or restructuring.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.cascade.peek(key)
    }

    /// Pushes an input batch (already tagged) into the feed buffer, as if it
    /// had just been flushed from the parallel buffer, leaving `batch` empty.
    fn enqueue_batch(&mut self, batch: &mut Vec<TaggedOp<K, V>>) {
        self.spent += Charge::exact(self.feed.push_input(batch));
    }

    /// How many bunches form the next cut batch: `⌈log n / p⌉`, at least one
    /// (Section 6.1).
    fn cut_bunch_count(&self) -> usize {
        let logn = ceil_log2(self.size() as u64 + 2) as usize;
        logn.div_ceil(self.p).max(1)
    }

    /// Processes everything that is pending, one cut batch at a time — the
    /// core of Section 6.1: sort + combine, pass through every segment, then
    /// append net insertions (the steps themselves are in `cascade.rs`).
    /// Appends every result to `results`.
    fn process_all(&mut self, results: &mut Vec<(OpId, OpResult<V>)>) {
        while !self.feed.is_empty() {
            let count = self.cut_bunch_count();
            let map_size_before = self.size();
            let (batch, form_cost) = self.feed.pop_cut_batch(count);
            let batch_size = batch.len();
            let (mut groups, sort_charge) = self.cascade.group(batch);
            let mut charge = Charge::exact(form_cost) + sort_charge;
            let end = self.cascade.num_segments();
            charge += self.cascade.pass(end, &mut groups, results);
            // What reached the end resolves against an absent item; net
            // insertions go to the back.
            charge += self.cascade.resolve_absent(groups, results).0;
            // Refill any deletion holes and drop empty trailing segments so
            // the Section 5/6 structural invariant holds after every batch.
            charge += self.cascade.restore_all();
            self.cascade.drop_empty_tail(|_| true);

            self.spent += charge;
            if let Some(log) = &mut self.batch_log {
                log.push(BatchStats {
                    batch_size,
                    map_size_before,
                    cost: charge.measured,
                });
            }
        }
    }

    /// Checks the structural invariants: internal tree consistency, cached
    /// size, and that every segment except the terminal one is exactly full.
    pub fn check_invariants(&self)
    where
        K: std::fmt::Debug,
    {
        self.cascade.check_invariants();
        let segments = self.cascade.segments();
        for (k, seg) in segments.iter().enumerate() {
            if k + 1 < segments.len() {
                assert_eq!(
                    seg.len() as u64,
                    segment_capacity(k as u32),
                    "segment {k} must be exactly full"
                );
            } else {
                assert!(seg.len() as u64 <= segment_capacity(k as u32));
            }
        }
    }

    /// The items of the map in working-set order (segment order, recency
    /// within each segment) — the abstract list `R` of Lemma 6.
    pub fn items_in_working_set_order(&self) -> Vec<K> {
        let segments = self.cascade.snapshot().into_iter();
        segments.flatten().map(|(k, _)| k).collect()
    }

    /// The full contents, segment by segment, each segment's items in
    /// recency order (most recent first) — everything a checkpoint needs:
    /// rebuilding each segment from its item list reproduces both the key
    /// set and the working-set order exactly.  Meant to be taken at a batch
    /// boundary (the only observable state for `wsm-wal`).
    pub fn snapshot_segments(&self) -> Vec<Vec<(K, V)>> {
        self.cascade.snapshot()
    }

    /// Rebuilds the map's contents from a [`M1::snapshot_segments`] image.
    /// Only valid on a fresh map (the cost ledger and batch log restart from
    /// zero — durability restores *state*, not accounting history).
    pub fn restore_segments(&mut self, segments: Vec<Vec<(K, V)>>) {
        self.cascade.restore(segments);
        self.cascade.drop_empty_tail(|_| true);
    }

    /// Convenience: runs a sequence of untagged operations as one input batch
    /// and returns the results in operation order.
    pub fn run_ops(&mut self, ops: Vec<Operation<K, V>>) -> Vec<OpResult<V>> {
        ops::run_ops(self, ops)
    }
}

impl<K: Ord + Clone + Default + Send + Sync, V: Clone + Default> BatchedMap<K, V> for M1<K, V> {
    fn run_batch(
        &mut self,
        batch: &mut Vec<TaggedOp<K, V>>,
        results: &mut Vec<(OpId, OpResult<V>)>,
    ) -> Cost {
        let before = self.spent.measured;
        self.enqueue_batch(batch);
        self.process_all(results);
        let after = self.spent.measured;
        Cost {
            work: after.work - before.work,
            span: after.span - before.span,
        }
    }

    fn len(&self) -> usize {
        self.size()
    }

    fn effective_work(&self) -> u64 {
        self.spent.measured.work
    }

    fn effective_span(&self) -> u64 {
        self.spent.measured.span
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
        // A plain gap at every fanout: wide fanouts flatten the segment trees
        // and the one-pass sweep made cold batches cheap, so the unit-level
        // margin depends on B.  The 2x hot/cold claim is asserted
        // fanout-independently, on segment work, by
        // `integration_maps::effective_work_of_all_structures…`.
        assert!(
            hot_work < cold_work,
            "hot batch work {hot_work} should be below cold batch work {cold_work}"
        );
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
        m.enqueue_batch(&mut vec![TaggedOp {
            id: 0,
            op: insert(1, 11),
        }]);
        m.enqueue_batch(&mut vec![TaggedOp {
            id: 1000,
            op: search(1),
        }]);
        let mut results = Vec::new();
        m.process_all(&mut results);
        let results: BTreeMap<OpId, OpResult<u64>> = results.into_iter().collect();
        assert_eq!(results[&0], OpResult::Insert(None));
        assert_eq!(results[&1000], OpResult::Search(Some(11)));
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
        let mut results = Vec::new();
        assert_eq!(m.run_batch(&mut Vec::new(), &mut results), Cost::ZERO);
        assert!(results.is_empty());
        let results = m.run_ops(vec![search(1), delete(2)]);
        assert_eq!(results[0], OpResult::Search(None));
        assert_eq!(results[1], OpResult::Delete(None));
        assert_eq!(m.size(), 0);
        assert_eq!(m.num_segments(), 0);
    }
}
