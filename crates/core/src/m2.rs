//! M2 — the pipelined parallel working-set map (paper Section 7).
//!
//! M2 splits the segment cascade into a **first slab** (the first
//! `m = ⌈log log 2p²⌉ + 1` segments, processed batch-at-a-time exactly like
//! M1 — Section 7.1 step 3 is literally M1's pass, and both call the one in
//! `crates/core/src/cascade.rs`) and a **final slab** (the remaining
//! segments), which is *pipelined*:
//! every final-slab segment has an input buffer of in-flight items, and a
//! **filter** in front of the final slab guarantees that all in-flight
//! final-slab operations are on distinct items — later operations on an item
//! that is already in flight are simply appended to that item's filter entry
//! and resolved together with it.  Accessed items are shifted to the front of
//! the final slab (`S[m]`, or `S[m-1]` when found in `S[m]` itself) rather
//! than all the way to the front, and excess items cascade lazily when later
//! batches pass.
//!
//! In the paper the pipeline stages are driven by activation interfaces and
//! guarded by neighbour-locks and front-locks (Figures 2 and 3) under a
//! weak-priority scheduler.  This reproduction keeps the identical data
//! movement and drives the stages with an explicit two-priority activation
//! queue (final-slab runs are the high-priority queue `Q1`, interface runs the
//! low-priority queue `Q2`); per-stage virtual clocks reproduce the pipeline
//! timing so that per-operation latency can be measured (Theorem 25 /
//! experiments E6 and E13).  See DESIGN.md substitution #2.
//!
//! Hole refills are **eager** (the paper's tagged-deletion pass): every
//! interface run restores the whole first slab so deletion holes land in
//! `S[m-1]`, then schedules a dedicated maintenance cascade down the final
//! slab — token-free segment runs that rebalance each boundary, propagate
//! unconditionally, re-run a boundary whose refill ran its segment dry, and
//! carry their own pipeline-clock accounting.  This keeps the Lemma 16
//! prefix deficit at `2p²` between runs (asserted by [`M2::check_invariants`];
//! a `3p²` transient is tolerated only mid-cascade, in debug builds).

use crate::cascade::{tree_fanout, Cascade};
use crate::feed::FeedBuffer;
use crate::ops::{self, BatchedMap, GroupOp, OpId, OpResult, Operation, TaggedOp};
use std::collections::{HashMap, VecDeque};
use wsm_model::{ceil_log2, Cost, CostMeter};
use wsm_seq::segment_capacity;
use wsm_twothree::cost::{self as tcost, Charge};
use wsm_twothree::Tree23;

/// Latency record for one operation: virtual submit and finish times in the
/// pipeline simulation.  Kept only by maps built with
/// [`M2::with_latency_records`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencyRecord {
    /// The operation's identifier.
    pub id: OpId,
    /// Virtual time at which the operation was enqueued.
    pub submit: u64,
    /// Virtual time at which its result was produced.
    pub finish: u64,
}

impl LatencyRecord {
    /// The simulated latency of the operation.
    pub fn latency(&self) -> u64 {
        self.finish.saturating_sub(self.submit)
    }
}

/// The opt-in per-operation latency diagnostics.
#[derive(Debug, Default)]
struct LatencyLog {
    /// Virtual submit time of every pending operation.
    submit_times: HashMap<OpId, u64>,
    /// One record per completed operation, in completion order.
    records: Vec<LatencyRecord>,
}

/// The pipelined parallel working-set map.
#[derive(Debug)]
pub struct M2<K, V> {
    p: usize,
    /// Index of the first final-slab segment (`m` in the paper).
    m: usize,
    feed: FeedBuffer<TaggedOp<K, V>>,
    staged: Vec<TaggedOp<K, V>>,
    cascade: Cascade<K, V>,
    /// Input buffer of each final-slab segment, indexed by `segment - m`:
    /// the keys of the distinct in-flight items waiting to enter it.
    buffers: Vec<VecDeque<K>>,
    /// Virtual time at which each final-slab buffer last received input.
    buffer_ready: Vec<u64>,
    /// The filter: key → operations pending on that key in the final slab.
    filter: Tree23<K, Vec<TaggedOp<K, V>>>,
    meter: CostMeter,
    /// Worst-case (Lemma A.2) work the processed batches would have been
    /// charged; the meter holds the measured work actually paid (see
    /// [`M2::analytic_bound_work`]).
    bound_work: u64,
    /// Number of dedicated maintenance runs (hole-refill cascade steps with
    /// no tokens to process) executed so far.
    maintenance_runs: u64,
    next_id: OpId,
    /// Two-priority activation queues: final-slab segments (Q1), each queued
    /// at most once, and the interface (Q2, so one flag).
    q1: VecDeque<usize>,
    interface_queued: bool,
    results: Vec<(OpId, OpResult<V>)>,
    /// Pipeline virtual clocks: when the interface / each segment last
    /// finished a run.
    interface_clock: u64,
    segment_clocks: Vec<u64>,
    /// Virtual time of the latest enqueue: the earliest the interface can
    /// start on what the feed buffer holds.
    latest_submit: u64,
    /// Per-operation latency diagnostics; `None` (the default) records
    /// nothing, so a long-running map's memory does not grow with the
    /// operations it served.
    latency_log: Option<LatencyLog>,
}

impl<K: Ord + Clone + Send + Sync + std::fmt::Debug, V: Clone> M2<K, V> {
    /// Creates an empty M2 configured for `p` processors (`p ≥ 2`).
    pub fn new(p: usize) -> Self {
        let p = p.max(2);
        let m = (ceil_log2(u64::from(ceil_log2(2 * (p * p) as u64))) + 1) as usize;
        M2 {
            p,
            m,
            feed: FeedBuffer::new(p * p),
            staged: Vec::new(),
            cascade: Cascade::new(),
            buffers: Vec::new(),
            buffer_ready: Vec::new(),
            filter: Tree23::new(),
            meter: CostMeter::new(),
            bound_work: 0,
            maintenance_runs: 0,
            next_id: 0,
            q1: VecDeque::new(),
            interface_queued: false,
            results: Vec::new(),
            interface_clock: 0,
            segment_clocks: Vec::new(),
            latest_submit: 0,
            latency_log: None,
        }
    }

    /// Additionally keeps one [`LatencyRecord`] per completed operation (read
    /// back with [`M2::latencies`]) — for the experiment harness; the log
    /// grows without bound, so serving paths leave it off.
    pub fn with_latency_records(mut self) -> Self {
        self.latency_log = Some(LatencyLog::default());
        self
    }

    /// The processor count this instance is configured for.
    pub fn processors(&self) -> usize {
        self.p
    }

    /// The first final-slab segment index `m = ⌈log log 2p²⌉ + 1`.
    pub fn first_slab_len(&self) -> usize {
        self.m
    }

    /// Number of items currently stored (items travelling through the final
    /// slab with a pending net-insert are not yet counted).
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

    /// Number of distinct items currently held by the filter.
    pub fn filter_size(&self) -> usize {
        self.filter.len()
    }

    /// Latency records of all completed operations, in completion order
    /// (empty unless constructed with [`M2::with_latency_records`]).
    pub fn latencies(&self) -> &[LatencyRecord] {
        self.latency_log
            .as_ref()
            .map_or(&[], |log| log.records.as_slice())
    }

    /// Total worst-case work (the closed-form Appendix A.2 bounds) for every
    /// charge this map has paid; [`BatchedMap::effective_work`] reports the
    /// measured touched-node work, which is at most this (up to
    /// [`tcost::MEASURED_CEILING`], asserted in debug builds).
    pub fn analytic_bound_work(&self) -> u64 {
        self.bound_work
    }

    /// Number of dedicated maintenance runs (token-free hole-refill cascade
    /// steps down the final slab) executed so far.
    pub fn maintenance_runs(&self) -> u64 {
        self.maintenance_runs
    }

    /// Index of the segment currently holding `key` (tests/probing only).
    pub fn segment_of(&self, key: &K) -> Option<usize> {
        self.cascade.segments().iter().position(|s| s.contains(key))
    }

    /// Non-adjusting lookup for tests (does not see values still in flight in
    /// the filter).
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.cascade.peek(key)
    }

    /// The current virtual pipeline time (maximum over all stage clocks).
    pub fn virtual_now(&self) -> u64 {
        self.segment_clocks
            .iter()
            .copied()
            .chain([self.interface_clock])
            .max()
            .unwrap_or(0)
    }

    /// Stages a single operation and returns the identifier of its result.
    pub fn submit(&mut self, op: Operation<K, V>) -> OpId {
        let id = self.next_id;
        self.next_id += 1;
        self.staged.push(TaggedOp { id, op });
        id
    }

    /// Enqueues an input batch, as if flushed from the parallel buffer.
    pub fn enqueue_batch(&mut self, batch: Vec<TaggedOp<K, V>>) {
        let now = self.virtual_now();
        self.latest_submit = now;
        for t in &batch {
            self.next_id = self.next_id.max(t.id + 1);
        }
        if let Some(log) = &mut self.latency_log {
            log.submit_times.extend(batch.iter().map(|t| (t.id, now)));
        }
        let cost = self.feed.push_input(batch);
        self.bound_work += cost.work;
        self.meter.charge(cost);
        self.interface_queued = true;
    }

    /// Number of operations not yet resolved (buffered, staged, or waiting in
    /// the filter; already-resolved results awaiting pickup do not count).
    pub fn pending(&self) -> usize {
        self.feed.len() + self.staged.len() + self.filter_pending_ops()
    }

    fn filter_pending_ops(&self) -> usize {
        let mut n = 0;
        self.filter.for_each(|_, ops| n += ops.len());
        n
    }

    fn activate_segment(&mut self, k: usize) {
        if !self.q1.contains(&k) {
            self.q1.push_back(k);
        }
    }

    /// Runs one activation from the two-priority queues (final-slab segments
    /// first, then the interface) — one "step" of the weak-priority scheduler.
    /// Returns `false` when nothing was ready to run.
    pub fn step(&mut self) -> bool {
        // Q1 (final slab) has weak priority over Q2 (interface).
        if let Some(k) = self.q1.pop_front() {
            self.run_segment(k);
        } else if std::mem::take(&mut self.interface_queued) {
            self.run_interface();
        } else {
            return false;
        }
        true
    }

    /// Drives the pipeline until all pending operations have resolved, then
    /// returns their results.
    pub fn process_all(&mut self) -> Vec<(OpId, OpResult<V>)> {
        if !self.staged.is_empty() {
            let staged = std::mem::take(&mut self.staged);
            self.enqueue_batch(staged);
        }
        loop {
            if self.q1.is_empty() && !self.interface_queued {
                // Re-arm: any final-slab segment with buffered tokens, and the
                // interface whenever input is waiting and the filter has room.
                for i in 0..self.buffers.len() {
                    if !self.buffers[i].is_empty() {
                        self.activate_segment(self.m + i);
                    }
                }
                if self.interface_ready() {
                    self.interface_queued = true;
                }
            }
            if !self.step() {
                break;
            }
        }
        std::mem::take(&mut self.results)
    }

    /// Convenience wrapper mirroring [`crate::M1::run_ops`].
    pub fn run_ops(&mut self, ops: Vec<Operation<K, V>>) -> Vec<OpResult<V>> {
        let base = self.next_id;
        ops::run_ops(self, base, ops)
    }

    /// The full contents, segment by segment, each segment's items in
    /// recency order (most recent first).  Only meaningful at a batch
    /// boundary: [`M2::run_batch`](crate::ops::BatchedMap::run_batch) drives
    /// the pipeline until every pending operation resolves, so the feed,
    /// staging area, filter and final-slab buffers are all empty there and
    /// the segments alone are the semantic state (the
    /// `filter_stays_bounded_and_empties` test pins this).
    pub fn snapshot_segments(&self) -> Vec<Vec<(K, V)>> {
        assert!(
            self.pending() == 0,
            "snapshot_segments requires a batch boundary (no in-flight operations)"
        );
        self.cascade.snapshot()
    }

    /// Rebuilds the map's contents from a [`M2::snapshot_segments`] image.
    /// Only valid on a fresh map (clocks, meters and latency logs restart —
    /// durability restores *state*, not accounting history).
    pub fn restore_segments(&mut self, segments: Vec<Vec<(K, V)>>) {
        assert!(self.pending() == 0, "restore_segments requires a fresh map");
        self.cascade.restore(segments);
        // Re-create the per-segment buffers and clocks for the final slab
        // (all empty/zero: nothing is in flight at a boundary), then trim
        // exactly as a normal batch run would.
        self.ensure_final_slab_state();
        self.drop_empty_tail();
    }

    // ------------------------------------------------------------------
    // Interface run (Section 7.1, M2 interface steps 1-6)
    // ------------------------------------------------------------------

    /// The interface is ready iff input is waiting and the filter is small.
    fn interface_ready(&self) -> bool {
        !self.feed.is_empty() && self.filter.len() <= self.p * self.p
    }

    fn run_interface(&mut self) {
        if !self.interface_ready() {
            return;
        }
        let mut cost = Charge::ZERO;
        // Step 1: take exactly one bunch as the cut batch.
        let (batch, form_cost) = self.feed.pop_cut_batch(1);
        cost += Charge::exact(form_cost);
        if batch.is_empty() {
            return;
        }
        // Steps 2-3: entropy-sort and combine duplicates, then pass through
        // the first slab (segments 0..m-1) as in M1 — see `crate::cascade`.
        // Holes accumulate in S[m-1]; S[m]'s maintenance run refills them.
        let (mut groups, sort_charge) = self.cascade.group(batch);
        cost += sort_charge;
        let mut finish_now: Vec<(OpId, OpResult<V>)> = Vec::new();
        cost += self.cascade.pass(self.m, &mut groups, &mut finish_now);

        if self.num_segments() <= self.m {
            // Step 4 (degenerate): no final slab — finish everything here, as
            // in M1.
            let inserts = self.cascade.resolve_absent(groups, &mut finish_now);
            if !inserts.is_empty() {
                cost += self.cascade.append_inserts(inserts);
                self.ensure_final_slab_state();
            }
            cost += self.cascade.restore_all();
            self.drop_empty_tail();
        } else {
            // Deletion-heavy batches can resolve entirely inside the first
            // slab; the pass's restores stop at the deepest segment the
            // batch reached, so holes in front of that boundary would
            // strand (for p=3 the strandable mass 2+4+16 = 22 exceeds the
            // 2p² = 18 allowance).  Restore the whole first slab so every
            // hole lands in S[m-1], where the eager S[m] maintenance cascade
            // scheduled below refills it — the hand-off Lemma 16's bound
            // depends on.
            cost += self.cascade.restore_range(self.m - 1);
            if !groups.is_empty() {
                // Step 4: pass the unfinished operations through the filter.
                // Groups on an item already in flight join its entry; the
                // others become new in-flight items at the head of the final
                // slab.  Insert bound on the final size: the filter can gain
                // up to one entry per group during the pass.
                let filter_len = self.filter.len() as u64 + groups.len() as u64;
                let group_count = groups.len() as u64;
                let filter = &mut self.filter;
                let (new_keys, touched) = tcost::metered(|| {
                    let mut new_keys: Vec<K> = Vec::new();
                    for group in groups.drain(..) {
                        match filter.get_mut(&group.key) {
                            Some(entry) => entry.extend(group.ops),
                            None => {
                                filter.insert(group.key.clone(), group.ops);
                                new_keys.push(group.key);
                            }
                        }
                    }
                    new_keys
                });
                cost += tcost::batch_op_charge(touched, group_count, filter_len, tree_fanout());
                if !new_keys.is_empty() {
                    self.ensure_final_slab_state();
                    let ready_at = self.interface_clock.max(self.virtual_now());
                    self.buffer_ready[0] = self.buffer_ready[0].max(ready_at);
                    self.buffers[0].extend(new_keys);
                }
            }
            self.cascade.recycle(groups);
        }

        // Whenever a final slab exists, schedule the eager maintenance
        // cascade at S[m]: its run (a dedicated maintenance run when it has
        // no tokens) refills the holes this batch punched into S[m-1] and
        // propagates unconditionally down the final slab (see
        // `run_segment`), so the Lemma 16 prefix deficit is back under 2p²
        // before the next interface run instead of piggybacking on the next
        // token-carrying batch.
        if self.num_segments() > self.m {
            self.ensure_final_slab_state();
            self.activate_segment(self.m);
        }

        // Advance the interface clock by the span of this run and stamp the
        // operations that finished in the first slab.
        // The feed buffer does not track times; whatever it holds was
        // enqueued by `latest_submit` (stage clocks never run backwards).
        self.interface_clock = self.interface_clock.max(self.latest_submit) + cost.measured.span;
        let finish_time = self.interface_clock;
        self.record_finishes(&finish_now, finish_time);
        self.results.extend(finish_now);
        self.bound_work += cost.bound.work;
        self.meter.charge_in_batch(cost.measured);
        self.meter.end_batch();
        self.debug_check_transient_deficit();

        // Step 6: reactivate ourselves if more input is waiting and the filter
        // has room.
        if self.interface_ready() {
            self.interface_queued = true;
        }
    }

    // ------------------------------------------------------------------
    // Final-slab segment run (Section 7.1, segment steps 1-7)
    // ------------------------------------------------------------------

    fn ensure_final_slab_state(&mut self) {
        while self.num_segments() <= self.m {
            self.cascade.push_segment();
        }
        while self.buffers.len() < self.num_segments() - self.m {
            self.buffers.push(VecDeque::new());
            self.buffer_ready.push(0);
        }
        while self.segment_clocks.len() < self.num_segments() {
            self.segment_clocks.push(0);
        }
    }

    fn run_segment(&mut self, k: usize) {
        self.ensure_final_slab_state();
        let buf_idx = k - self.m;
        if buf_idx >= self.buffers.len() || k >= self.num_segments() {
            return;
        }
        if self.buffers[buf_idx].is_empty() {
            // Dedicated maintenance run (the paper's tagged-deletion pass):
            // no tokens to process, but earlier runs may have left holes —
            // rebalance the boundary with the previous segment (steps 4g/4h)
            // and cascade *unconditionally* down the final slab.  The old
            // conditional cascade (propagate only if something moved) let
            // deficits survive behind a balanced boundary, which is why
            // `check_invariants` used to need a 3p² allowance; the eager
            // cascade restores Lemma 16's 2p² bound between runs.
            let (charge, clamped) = self.balance_with_previous(k);
            // Count only runs that did (or still have) refill work — an
            // activation that found every boundary balanced is not a
            // maintenance run, and counting it would make the E17 metric
            // track batch count instead of hole-refill work.
            if !charge.measured.is_zero() || clamped {
                self.maintenance_runs += 1;
            }
            if !charge.measured.is_zero() {
                self.bound_work += charge.bound.work;
                self.meter.charge(charge.measured);
            }
            // Pipeline-clock accounting: the refill occupies this segment
            // from its previous availability for the span of the transfer.
            self.segment_clocks[k] += charge.measured.span;
            self.cascade_on(k, clamped);
            self.drop_empty_tail();
            self.debug_check_transient_deficit();
            return;
        }
        let mut cost = Charge::ZERO;

        // Step 3: extend the structure if the terminal segment is overflowing.
        if k + 1 == self.num_segments() {
            let segments = self.cascade.segments();
            let total = segments[k - 1].len() as u64 + segments[k].len() as u64;
            let cap = segment_capacity((k - 1) as u32).saturating_add(segment_capacity(k as u32));
            if total > cap {
                self.cascade.push_segment();
                self.ensure_final_slab_state();
            }
        }
        let is_terminal = k + 1 == self.num_segments();

        // Step 4: flush the buffer and look its (distinct) items up in S[k].
        let mut keys: Vec<K> = self.buffers[buf_idx].drain(..).collect();
        keys.sort();
        let mut removed = Vec::with_capacity(keys.len());
        cost += self.cascade.remove_batch(k, &keys, &mut removed);

        let mut front_inserts: Vec<(K, V)> = Vec::new();
        let mut finish_now: Vec<(OpId, OpResult<V>)> = Vec::new();
        let mut pass_on: Vec<K> = Vec::new();
        for (key, found) in keys.into_iter().zip(removed) {
            if found.is_none() && !is_terminal {
                pass_on.push(key);
                continue;
            }
            // The item is here, or nowhere in the map: either way its
            // pending operations leave the filter and resolve now.
            let filter = &mut self.filter;
            let (ops, touched) = tcost::metered(|| filter.remove(&key));
            let ops = ops.expect("in-flight item must have a filter entry");
            cost += tcost::single_op_charge(touched, self.filter.len() as u64 + 1, tree_fanout());
            let group = GroupOp { key, ops };
            if let Some(v) = group.resolve_into(found, &mut finish_now) {
                front_inserts.push((group.key, v));
            }
            self.cascade.recycle_ops(group.ops);
        }

        // Step 4d: shift accessed / newly inserted items to the front of
        // S[m'], m' = min(k-1, m).
        cost += self
            .cascade
            .push_front((k - 1).min(self.m), &mut front_inserts);

        // Steps 4g/4h: rebalance with the previous segment.
        let (balance_charge, clamped) = self.balance_with_previous(k);
        cost += balance_charge;

        // Step 4i: pass unfinished tokens to the next segment.
        if !pass_on.is_empty() {
            debug_assert!(!is_terminal, "terminal segment must finish every token");
            self.buffers[buf_idx + 1].extend(pass_on);
        }
        self.cascade_on(k, clamped);

        // Pipeline timing: this run starts when both the segment is free and
        // its input buffer was ready.
        let start = self.segment_clocks[k].max(self.buffer_ready[buf_idx]);
        let end = start + cost.measured.span;
        self.segment_clocks[k] = end;
        if buf_idx + 1 < self.buffer_ready.len() {
            self.buffer_ready[buf_idx + 1] = self.buffer_ready[buf_idx + 1].max(end);
        }
        self.record_finishes(&finish_now, end);
        self.results.extend(finish_now);
        self.bound_work += cost.bound.work;
        self.meter.charge_in_batch(cost.measured);
        self.meter.end_batch();
        self.debug_check_transient_deficit();

        // Step 5: drop an empty terminal segment (only if it has no pending
        // input).
        self.drop_empty_tail();

        // Step 4e / 6: wake the interface if the filter has room, and
        // reactivate ourselves if more input arrived.
        if self.interface_ready() {
            self.interface_queued = true;
        }
        if self.buffers.get(buf_idx).is_some_and(|b| !b.is_empty()) {
            self.activate_segment(k);
        }
    }

    /// Always lets the next segment run after `S[k]` did (with tokens, or as a
    /// dedicated maintenance run — the role of the paper's tagged deletions
    /// travelling the final slab), and re-runs this boundary afterwards if the
    /// refill ran `S[k]` dry before the deficit was cleared (`clamped`), once
    /// `S[k+1]`'s run has refilled `S[k]`.
    fn cascade_on(&mut self, k: usize, clamped: bool) {
        if k + 1 < self.num_segments() {
            self.activate_segment(k + 1);
            if clamped {
                self.activate_segment(k);
            }
        }
    }

    /// Steps 4g/4h: if `S[k-1]` is over-full push its back into `S[k]`; if it
    /// is under-full pull from the front of `S[k]`.
    ///
    /// Returns the transfer charge plus whether the refill was *clamped* —
    /// `S[k]` ran dry before the deficit was cleared while deeper segments
    /// still hold items.  A clamped refill means the cascade must revisit
    /// this boundary once `S[k+1]`'s run has refilled `S[k]`.
    fn balance_with_previous(&mut self, k: usize) -> (Charge, bool) {
        let segments = self.cascade.segments();
        let cap_prev = segment_capacity((k - 1) as u32);
        let prev_len = segments[k - 1].len() as u64;
        let here_len = segments[k].len();
        let deeper_items = segments[k + 1..].iter().any(|s| !s.is_empty());
        if prev_len > cap_prev {
            let excess = (prev_len - cap_prev) as usize;
            (self.cascade.spill(k, excess), false)
        } else if prev_len < cap_prev && here_len > 0 {
            // Only refill holes left by deletions; never drain the suffix just
            // because the structure is small overall.
            let deficit = (cap_prev - prev_len) as usize;
            let charge = self.cascade.refill(k, deficit.min(here_len));
            (charge, here_len < deficit && deeper_items)
        } else {
            (Charge::ZERO, prev_len < cap_prev && deeper_items)
        }
    }

    /// Drops empty terminal segments — a final-slab one only while its input
    /// buffer is empty too, and together with that buffer.
    fn drop_empty_tail(&mut self) {
        let (m, buffers, buffer_ready) = (self.m, &mut self.buffers, &mut self.buffer_ready);
        self.cascade.drop_empty_tail(|k| {
            if k >= m {
                if buffers.get(k - m).is_some_and(|b| !b.is_empty()) {
                    return false;
                }
                buffers.truncate(k - m);
                buffer_ready.truncate(k - m);
            }
            true
        });
    }

    fn record_finishes(&mut self, finished: &[(OpId, OpResult<V>)], time: u64) {
        let Some(log) = &mut self.latency_log else {
            return;
        };
        for (id, _) in finished {
            if let Some(submit) = log.submit_times.remove(id) {
                log.records.push(LatencyRecord {
                    id: *id,
                    submit,
                    finish: time,
                });
            }
        }
    }

    /// Checks structural invariants in the spirit of Lemma 16: internal tree
    /// consistency, cached size, filter bound, final-slab segments within
    /// `3 · 2^(2^k)`, and prefixes at most `2p²` below capacity.
    pub fn check_invariants(&self) {
        self.cascade.check_invariants();
        for (k, seg) in self.cascade.segments().iter().enumerate() {
            let (slab, factor) = if k >= self.m {
                ("final", 3)
            } else {
                ("first", 2)
            };
            assert!(
                seg.len() as u64 <= segment_capacity(k as u32).saturating_mul(factor),
                "{slab}-slab segment {k} exceeds {factor}x capacity: {}",
                seg.len()
            );
        }
        // Filter bound (Section 7.1, steps 1 and 6): the interface only runs
        // while at most p² keys are resident, and one run adds at most one
        // p²-operation cut batch of new keys — 2p² distinct in-flight items.
        let filter_bound = 2 * self.p * self.p;
        assert!(
            self.filter.len() <= filter_bound,
            "filter exceeded its 2p² bound (Section 7.1): {} > {filter_bound}",
            self.filter.len()
        );
        // Invariant 4 of Lemma 16: prefixes of the final slab are at most 2p²
        // below capacity, unless the whole suffix is empty.  The eager
        // maintenance cascade scheduled by every interface run clears refill
        // deficits before the next batch, so only genuinely in-flight items
        // (bounded by the 2p² filter) may be missing from a prefix between
        // runs; the transient 3p² allowance lives in
        // `debug_check_transient_deficit`, which runs mid-cascade only.
        self.check_prefix_deficits(self.resting_slack());
    }

    /// Lemma 16's resting prefix-deficit allowance: `2p²`, the most that can
    /// legitimately be in flight (the filter bound) once every scheduled
    /// maintenance run has executed.
    fn resting_slack(&self) -> u64 {
        (2 * self.p * self.p) as u64
    }

    /// Asserts that every final-slab prefix `S[0..k]` is at most `slack`
    /// items below its capacity, unless the suffix from `S[k]` on is empty
    /// (the structure simply ends early).
    fn check_prefix_deficits(&self, slack: u64) {
        for k in self.m..self.num_segments() {
            let prefix = self.cascade.prefix_size(k);
            let suffix = self.size() as u64 - prefix;
            if suffix == 0 {
                continue;
            }
            let cap = Cascade::<K, V>::prefix_capacity(k);
            assert!(
                prefix.saturating_add(slack) >= cap.min(prefix + suffix),
                "prefix S[0..{k}] more than {slack} below capacity: {prefix} vs {cap}"
            );
        }
    }

    /// Debug-only transient deficit check, run at the end of every interface
    /// and segment run: while a maintenance cascade is still queued, one
    /// extra cut batch of first-slab holes (≤ p² operations) may be awaiting
    /// the cascade that was scheduled together with it, on top of the 2p²
    /// resting allowance — never more.
    fn debug_check_transient_deficit(&self) {
        if cfg!(debug_assertions) {
            self.check_prefix_deficits(self.resting_slack() + (self.p * self.p) as u64);
        }
    }
}

impl<K: Ord + Clone + Send + Sync + std::fmt::Debug, V: Clone> BatchedMap<K, V> for M2<K, V> {
    fn run_batch(&mut self, batch: Vec<TaggedOp<K, V>>) -> (Vec<(OpId, OpResult<V>)>, Cost) {
        let before = self.meter.total();
        self.enqueue_batch(batch);
        let results = self.process_all();
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
        self.size()
    }

    fn effective_work(&self) -> u64 {
        self.meter.work()
    }

    fn effective_span(&self) -> u64 {
        self.meter.span()
    }

    fn maintenance_runs(&self) -> u64 {
        M2::maintenance_runs(self)
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
    fn m_is_loglog_of_p_squared() {
        assert_eq!(M2::<u64, u64>::new(2).first_slab_len(), 3);
        assert_eq!(M2::<u64, u64>::new(4).first_slab_len(), 4);
        assert_eq!(M2::<u64, u64>::new(8).first_slab_len(), 4);
        assert_eq!(M2::<u64, u64>::new(64).first_slab_len(), 5);
    }

    #[test]
    fn basic_insert_search_delete() {
        let mut m = M2::new(4);
        let results = m.run_ops(vec![insert(1, 10), insert(2, 20), insert(3, 30)]);
        assert!(results.iter().all(|r| matches!(r, OpResult::Insert(None))));
        assert_eq!(m.size(), 3);
        m.check_invariants();

        let results = m.run_ops(vec![search(1), search(9), delete(2), search(2)]);
        assert_eq!(results[0], OpResult::Search(Some(10)));
        assert_eq!(results[1], OpResult::Search(None));
        assert_eq!(results[2], OpResult::Delete(Some(20)));
        assert_eq!(results[3], OpResult::Search(None));
        assert_eq!(m.size(), 2);
        m.check_invariants();
    }

    #[test]
    fn builds_final_slab_for_large_maps() {
        let n = 3000u64;
        let mut m = M2::new(2);
        m.run_ops((0..n).map(|i| insert(i, i)).collect());
        assert_eq!(m.size(), n as usize);
        assert!(
            m.num_segments() > m.first_slab_len(),
            "expected a final slab for n={n}: segments={:?}",
            m.segment_sizes()
        );
        m.check_invariants();
        // Everything is still reachable.
        let results = m.run_ops((0..n).step_by(97).map(search).collect());
        assert!(results.iter().all(|r| r.was_present()));
        m.check_invariants();
    }

    #[test]
    fn matches_btreemap_model_on_random_batches() {
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut m = M2::new(4);
        let mut state = 0xDEADBEEF;
        for round in 0..40 {
            let b = 1 + (xorshift(&mut state) % 80) as usize;
            let key_space = if round < 20 { 48 } else { 1 << 14 };
            let mut ops = Vec::with_capacity(b);
            for _ in 0..b {
                let key = xorshift(&mut state) % key_space;
                match xorshift(&mut state) % 4 {
                    0 | 1 => ops.push(search(key)),
                    2 => ops.push(insert(key, xorshift(&mut state))),
                    _ => ops.push(delete(key)),
                }
            }
            let expected: Vec<OpResult<u64>> = ops
                .iter()
                .map(|op| match op {
                    Operation::Search(k) => OpResult::Search(model.get(k).copied()),
                    Operation::Insert(k, v) => OpResult::Insert(model.insert(*k, *v)),
                    Operation::Delete(k) => OpResult::Delete(model.remove(k)),
                })
                .collect();
            let got = m.run_ops(ops);
            assert_eq!(got, expected, "round {round}");
            assert_eq!(m.size(), model.len(), "round {round}");
            m.check_invariants();
        }
    }

    #[test]
    fn duplicate_heavy_batches_are_cheap() {
        let n: u64 = 1 << 13;
        let b: usize = 1 << 10;
        let mut m = M2::new(8);
        m.run_ops((0..n).map(|i| insert(i, i)).collect());
        let work_before = m.effective_work();
        m.run_ops(std::iter::repeat_n(search(n / 2), b).collect());
        let dup_work = m.effective_work() - work_before;
        let log_n = (n as f64).log2();
        assert!(
            (dup_work as f64) < 0.8 * (b as f64) * log_n,
            "duplicate batch work {dup_work} looks like Ω(b log n)"
        );
    }

    #[test]
    fn hot_accesses_have_lower_latency_than_cold() {
        // Theorem 25 shape: per-operation pipeline latency grows with the
        // access rank, so repeatedly touched items finish much faster than
        // long-untouched ones.
        let n = 1 << 14;
        let mut m = M2::new(4).with_latency_records();
        m.run_ops((0..n).map(|i| insert(i, i)).collect());
        // Prime a hot item near the front.
        m.run_ops(vec![search(5), search(5)]);
        let before = m.latencies().len();
        m.run_ops(vec![search(5)]);
        let hot: u64 = m.latencies()[before..].iter().map(|l| l.latency()).sum();
        let before = m.latencies().len();
        m.run_ops(vec![search(n - 3)]);
        let cold: u64 = m.latencies()[before..].iter().map(|l| l.latency()).sum();
        assert!(
            hot < cold,
            "hot access latency {hot} should be below cold access latency {cold}"
        );
    }

    #[test]
    fn effective_work_tracks_working_set_bound() {
        use wsm_model::{working_set_bound, MapOpKind};
        let n: u64 = 1 << 12;
        let mut m = M2::new(8);
        let mut state = 3;
        m.run_ops((0..n).map(|i| insert(i, i)).collect());
        let mut ops = Vec::new();
        let mut kinds: Vec<MapOpKind<u64>> = (0..n).map(MapOpKind::Insert).collect();
        for _ in 0..(4 * n) {
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
            (measured as f64) < 80.0 * wl,
            "M2 work {measured} not within constant factor of W_L {wl}"
        );
    }

    #[test]
    fn filter_stays_bounded_and_empties() {
        let mut m = M2::new(2);
        let mut state = 31;
        m.run_ops((0..2000u64).map(|i| insert(i, i)).collect());
        for _ in 0..10 {
            let ops: Vec<Operation<u64, u64>> = (0..200)
                .map(|_| search(xorshift(&mut state) % 2000))
                .collect();
            m.run_ops(ops);
            assert_eq!(m.filter_size(), 0, "filter must drain between rounds");
            m.check_invariants();
        }
    }

    #[test]
    fn operations_on_in_flight_items_linearize_correctly() {
        // Two batches touching the same key, enqueued before any processing:
        // the second batch's operations must observe the first batch's effect.
        let mut m = M2::new(2);
        m.run_ops((0..1000u64).map(|i| insert(i, i)).collect());
        let id_a = m.submit(insert(500, 777));
        let id_b = m.submit(delete(500));
        let id_c = m.submit(search(500));
        let results: BTreeMap<OpId, OpResult<u64>> = m.process_all().into_iter().collect();
        assert_eq!(results[&id_a], OpResult::Insert(Some(500)));
        assert_eq!(results[&id_b], OpResult::Delete(Some(777)));
        assert_eq!(results[&id_c], OpResult::Search(None));
        m.check_invariants();
    }

    #[test]
    fn empty_and_missing_key_operations() {
        let mut m: M2<u64, u64> = M2::new(4);
        let results = m.run_ops(vec![search(3), delete(4)]);
        assert_eq!(results[0], OpResult::Search(None));
        assert_eq!(results[1], OpResult::Delete(None));
        assert_eq!(m.size(), 0);
        assert!(!m.step(), "nothing should remain scheduled");
    }

    #[test]
    fn snapshot_restore_round_trip_preserves_state_and_order() {
        let mut m = M2::new(2);
        let mut state = 99;
        m.run_ops((0..3000u64).map(|i| insert(i, i + 7)).collect());
        for _ in 0..5 {
            let ops: Vec<Operation<u64, u64>> = (0..150)
                .map(|_| match xorshift(&mut state) % 3 {
                    0 => search(xorshift(&mut state) % 3000),
                    1 => insert(xorshift(&mut state) % 3000, xorshift(&mut state)),
                    _ => delete(xorshift(&mut state) % 3000),
                })
                .collect();
            m.run_ops(ops);
        }
        let image = m.snapshot_segments();
        let mut r = M2::new(2);
        r.restore_segments(image.clone());
        r.check_invariants();
        assert_eq!(r.size(), m.size());
        assert_eq!(r.segment_sizes(), m.segment_sizes());
        assert_eq!(r.snapshot_segments(), image);
        // The restored pipeline keeps running and stays consistent.
        for k in (0..3000u64).step_by(457) {
            assert_eq!(r.peek(&k).copied(), m.peek(&k).copied());
        }
        r.run_ops((0..200u64).map(|i| insert(100_000 + i, i)).collect());
        r.check_invariants();
    }
}
