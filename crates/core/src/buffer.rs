//! The parallel buffer for implicit batching (Appendix A.1, Theorem 26).
//!
//! Every call a program makes to the map is first deposited into the map's
//! parallel buffer; when the map becomes ready it *flushes* the buffer and
//! receives the accumulated calls as one input batch.  The paper implements
//! the buffer as a static balanced tree of per-processor sub-buffers with
//! test-and-set flags on the internal nodes; here each submitting thread owns
//! a *shard*, a mutex-guarded `Vec`, and the flush appends every shard's
//! items to the combiner's batch — the flat-combining realisation of the
//! paper's runtime system that Section 8 sketches (see the
//! [`crate::concurrent`] module docs).  A deposit holds its shard's lock for
//! one `push` or `extend`, or, through an open [`Deposit`], for one
//! request's run of operations; a flush holds each shard's lock for one
//! `append`,
//! and each side keeps its own allocation: the shard's `Vec` keeps its
//! capacity across flushes and the caller's batch `Vec` is freed by the
//! caller.  The analytic cost per flushed batch of size `b` is `O(p + b)`
//! work and `O(log p + log b)` span, matching Theorem 26's requirements.

use crate::activation::Activation;
use wsm_model::{ceil_log2, Cost};
use wsm_sync::{AtomicUsize, Mutex, MutexGuard, Ordering};

/// A sharded buffer of pending calls plus the activation interface used to
/// wake the data structure when work arrives.
#[derive(Debug)]
pub struct ParallelBuffer<T> {
    shards: Vec<Mutex<Vec<T>>>,
    pending: AtomicUsize,
    activation: Activation,
}

impl<T> ParallelBuffer<T> {
    /// Creates a buffer with one shard per expected submitting processor.
    pub fn new(shards: usize) -> Self {
        ParallelBuffer {
            shards: (0..shards.max(1)).map(|_| Mutex::new(Vec::new())).collect(),
            pending: AtomicUsize::new(0),
            activation: Activation::new(),
        }
    }

    /// Number of shards (`p` in the paper's construction).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of operations currently buffered (racy under concurrency; exact
    /// when used single-threaded).
    pub fn len(&self) -> usize {
        // ord: Relaxed — advisory occupancy counter; actual item visibility
        // is carried by the shard mutexes, and the combiner hand-off race a
        // stale read could cause is closed by the doorbell ring (model:
        // tests/model_doorbell.rs).
        self.pending.load(Ordering::Relaxed)
    }

    /// True if no operations are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard(&self, shard_hint: usize) -> &Mutex<Vec<T>> {
        &self.shards[shard_hint % self.shards.len()]
    }

    /// Opens a deposit into the shard `shard_hint % shards`: the shard's lock
    /// is held until the [`Deposit`] drops, and everything pushed through it
    /// is published then, in push order.
    pub fn deposit(&self, shard_hint: usize) -> Deposit<'_, T> {
        Deposit {
            items: self.shard(shard_hint).lock(),
            pending: &self.pending,
            count: 0,
        }
    }

    /// Deposits one call into the shard `shard_hint % shards`.  Constant time
    /// (amortised); uncontended when each thread uses its own hint.
    pub fn push(&self, shard_hint: usize, item: T) {
        // Count *before* publishing.  The model checker caught the opposite
        // order underflowing the counter: a combiner could drain the item and
        // `fetch_sub` before this producer's `fetch_add` landed, leaving
        // `pending` at usize::MAX and `is_empty()` false forever (a combiner
        // livelock).  Counting first means a flush can only subtract items
        // whose increment happened-before their push under the shard lock;
        // the counter may transiently over-count a not-yet-pushed item, which
        // merely costs the combiner one extra (yielding) recheck round.
        // ord: Relaxed — ordering against the item itself is carried by the
        // shard mutex below (model: tests/model_doorbell.rs).
        self.pending.fetch_add(1, Ordering::Relaxed);
        self.shard(shard_hint).lock().push(item);
    }

    /// Deposits a pre-built batch of calls into one shard under one lock,
    /// preserving the batch's order.
    pub fn push_batch(&self, shard_hint: usize, items: Vec<T>) {
        if items.is_empty() {
            return;
        }
        // ord: Relaxed — counted before publishing, as in `push` (which see
        // for why the other order underflows the counter).
        self.pending.fetch_add(items.len(), Ordering::Relaxed);
        self.shard(shard_hint).lock().extend(items);
    }

    /// Flushes every shard, returning the accumulated input batch and the
    /// analytic cost of the flush (`O(p + b)` work, `O(log p + log b)` span).
    pub fn flush(&self) -> (Vec<T>, Cost) {
        let mut out = Vec::new();
        let cost = self.flush_into(&mut out);
        (out, cost)
    }

    /// Like [`ParallelBuffer::flush`], but appends into a caller-provided
    /// buffer (so a combiner draining in a loop reuses one allocation).
    pub fn flush_into(&self, out: &mut Vec<T>) -> Cost {
        let before = out.len();
        for shard in &self.shards {
            out.append(&mut shard.lock());
        }
        let drained = out.len() - before;
        // ord: Relaxed — counter decrement only; drained items were already
        // acquired through their shards' mutexes.
        self.pending.fetch_sub(drained, Ordering::Relaxed);
        Self::flush_cost(self.shards.len() as u64, drained as u64)
    }

    /// The analytic flush cost for `p` shards and a batch of `b` operations.
    pub fn flush_cost(p: u64, b: u64) -> Cost {
        let span = u64::from(ceil_log2(p + 1)) + u64::from(ceil_log2(b + 1)) + 1;
        Cost::new((p + b).max(span), span)
    }

    /// Runs `process` under the buffer's activation interface: the closure is
    /// executed only if no other activation is running and `ready()` holds,
    /// and it may request reactivation by returning `true` (Definition 36).
    /// Returns the number of runs performed by this call.
    pub fn activate<C, P>(&self, ready: C, process: P) -> usize
    where
        C: FnMut() -> bool,
        P: FnMut() -> bool,
    {
        self.activation.activate(ready, process)
    }
}

/// An open deposit into one shard of a [`ParallelBuffer`]
/// ([`ParallelBuffer::deposit`]).  It holds the shard's lock, so no flush
/// sees its items before it drops.
pub struct Deposit<'a, T> {
    items: MutexGuard<'a, Vec<T>>,
    pending: &'a AtomicUsize,
    count: usize,
}

impl<T> Deposit<'_, T> {
    /// Appends one call behind everything already in the shard.
    pub fn push(&mut self, item: T) {
        self.items.push(item);
        self.count += 1;
    }
}

impl<T> Drop for Deposit<'_, T> {
    fn drop(&mut self) {
        // Count *before* publishing, as `push` does (which see for why the
        // other order underflows the counter): the shard's lock is released
        // after this body, when `items` drops.
        if self.count > 0 {
            // ord: Relaxed — the increment happens-before the shard unlock,
            // which happens-before the flush's lock and so its decrement.
            self.pending.fetch_add(self.count, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn push_and_flush_roundtrip() {
        let buf: ParallelBuffer<u64> = ParallelBuffer::new(4);
        assert!(buf.is_empty());
        for i in 0..20 {
            buf.push(i as usize, i);
        }
        assert_eq!(buf.len(), 20);
        let (mut items, cost) = buf.flush();
        items.sort_unstable();
        assert_eq!(items, (0..20).collect::<Vec<_>>());
        assert!(buf.is_empty());
        assert!(cost.work >= 20);
        assert!(cost.span <= 12);
    }

    #[test]
    fn push_batch_counts_items_and_keeps_order() {
        let buf: ParallelBuffer<u64> = ParallelBuffer::new(2);
        buf.push_batch(0, vec![1, 2, 3]);
        buf.push_batch(1, Vec::new());
        assert_eq!(buf.len(), 3);
        let (items, _) = buf.flush();
        assert_eq!(items, vec![1, 2, 3]);
    }

    #[test]
    fn flush_cost_shape() {
        // Work linear in p + b, span logarithmic.
        let c = ParallelBuffer::<u64>::flush_cost(64, 1 << 16);
        assert!(c.work >= (1 << 16) + 64);
        assert!(c.span <= 26);
    }

    #[test]
    fn a_long_burst_into_one_shard_loses_nothing() {
        // Everything lands in one shard between two flushes, mixing single
        // pushes with batches, and comes out whole and in order.
        let buf: ParallelBuffer<u64> = ParallelBuffer::new(1);
        let n = 3 * 1024;
        for i in 0..n {
            buf.push(0, i);
        }
        buf.push_batch(0, (n..2 * n).collect());
        assert_eq!(buf.len(), 2 * n as usize);
        let (items, _) = buf.flush();
        assert_eq!(items, (0..2 * n).collect::<Vec<_>>());
        assert!(buf.is_empty());
    }

    #[test]
    fn concurrent_pushes_are_not_lost() {
        let buf: Arc<ParallelBuffer<u64>> = Arc::new(ParallelBuffer::new(8));
        let threads = 8;
        let per_thread = 5_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let buf = Arc::clone(&buf);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        buf.push(t, t as u64 * per_thread + i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let (items, _) = buf.flush();
        assert_eq!(items.len(), (threads as u64 * per_thread) as usize);
        let distinct: std::collections::BTreeSet<u64> = items.into_iter().collect();
        assert_eq!(distinct.len(), (threads as u64 * per_thread) as usize);
    }

    #[test]
    fn concurrent_pushes_with_concurrent_flushes() {
        // Producers race a flushing combiner; across all flushes every item
        // must appear exactly once.
        let buf: Arc<ParallelBuffer<u64>> = Arc::new(ParallelBuffer::new(4));
        let threads = 4;
        let per_thread = 5_000u64;
        let producers: Vec<_> = (0..threads)
            .map(|t| {
                let buf = Arc::clone(&buf);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        buf.push(t, t as u64 * per_thread + i);
                    }
                })
            })
            .collect();
        let mut collected = Vec::new();
        loop {
            let (items, _) = buf.flush();
            collected.extend(items);
            if collected.len() as u64 == threads as u64 * per_thread {
                break;
            }
            std::thread::yield_now();
        }
        for h in producers {
            h.join().unwrap();
        }
        let distinct: std::collections::BTreeSet<u64> = collected.iter().copied().collect();
        assert_eq!(distinct.len(), (threads as u64 * per_thread) as usize);
    }

    #[test]
    fn per_producer_fifo_is_preserved() {
        // Three producers share one shard, one through `push` and two through
        // `push_batch`, while a combiner flushes concurrently: each
        // producer's items come out in the order it deposited them.
        let buf: Arc<ParallelBuffer<(u64, u64)>> = Arc::new(ParallelBuffer::new(1));
        let done = Arc::new(AtomicBool::new(false));
        let producers: Vec<_> = (0..3u64)
            .map(|p| {
                let buf = Arc::clone(&buf);
                std::thread::spawn(move || {
                    if p == 0 {
                        for i in 0..2_000 {
                            buf.push(0, (p, i));
                        }
                    } else {
                        for chunk in 0..200 {
                            buf.push_batch(0, (0..10).map(|i| (p, chunk * 10 + i)).collect());
                        }
                    }
                })
            })
            .collect();
        let flusher = {
            let buf = Arc::clone(&buf);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut out = Vec::new();
                while !done.load(std::sync::atomic::Ordering::Acquire) {
                    buf.flush_into(&mut out);
                    std::thread::yield_now();
                }
                buf.flush_into(&mut out);
                out
            })
        };
        for h in producers {
            h.join().unwrap();
        }
        done.store(true, std::sync::atomic::Ordering::Release);
        let out = flusher.join().unwrap();
        assert_eq!(out.len(), 6_000);
        let mut next = [0u64; 3];
        for (p, i) in out {
            assert_eq!(i, next[p as usize], "producer {p} items out of order");
            next[p as usize] += 1;
        }
        assert!(buf.is_empty());
    }

    #[test]
    fn activation_runs_exclusively() {
        let buf: ParallelBuffer<u64> = ParallelBuffer::new(2);
        buf.push(0, 1);
        let runs = buf.activate(|| true, || false);
        assert_eq!(runs, 1);
    }
}
