//! The feed buffer (Section 6.1).
//!
//! The feed buffer decouples the (arbitrarily large) input batches flushed
//! from the parallel buffer from the (size-controlled) *cut batches* the map
//! actually processes.  The paper builds it as a queue of *bunches*, each of
//! `p²` operations except possibly the last, where a bunch supports `O(1)`
//! addition of a batch and `O(log b)`-span conversion to a batch of size `b`
//! (a complete binary tree of batches threaded with per-level lists).
//!
//! Every bunch but the last is full, so here a bunch is just a run of `p²`
//! consecutive entries of one FIFO queue: bunch `i` is entries
//! `i·p² .. (i+1)·p²`.  Nothing is stored per bunch; each still carries the
//! paper's charge — `O(b)` work, `O(log b)` span to add an input batch of
//! `b` operations, and the same to convert a bunch of `b` operations into a
//! batch ([`bunch_cost`]).

use std::collections::vec_deque::{Drain, VecDeque};
use wsm_model::{ceil_log2, Cost};

/// The feed buffer: a FIFO queue of operations, read as bunches of
/// `bunch_capacity` (`p²` in the paper) consecutive entries.
#[derive(Debug)]
pub(crate) struct FeedBuffer<T> {
    queue: VecDeque<T>,
    bunch_capacity: usize,
}

/// The charge for adding, or converting, a bunch of `b` operations: `O(b)`
/// work and `O(log b)` span.
fn bunch_cost(b: usize) -> Cost {
    let b = b as u64;
    let span = u64::from(ceil_log2(b + 1)) + 1;
    Cost::new(b.max(span), span)
}

impl<T> FeedBuffer<T> {
    /// Creates an empty feed buffer with the given bunch capacity (`p²`).
    pub(crate) fn new(bunch_capacity: usize) -> Self {
        assert!(bunch_capacity > 0, "bunch capacity must be positive");
        FeedBuffer {
            queue: VecDeque::new(),
            bunch_capacity,
        }
    }

    /// Total number of buffered operations.
    pub(crate) fn len(&self) -> usize {
        self.queue.len()
    }

    /// True if no operations are buffered.
    pub(crate) fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Appends an input batch (Section 6.1: its front tops up the last bunch,
    /// the rest forms new bunches), leaving `input` empty.  Returns the cost
    /// charged (`O(1)` per operation, `O(log b)` span).
    pub(crate) fn push_input(&mut self, input: &mut Vec<T>) -> Cost {
        if input.is_empty() {
            return Cost::ZERO;
        }
        let cost = bunch_cost(input.len());
        self.queue.extend(input.drain(..));
        cost
    }

    /// Removes up to `count` bunches from the front as one cut batch, in FIFO
    /// order.  Returns the batch and the cost of forming it: the bunches
    /// convert in parallel, then merge in a parallel concatenation over the
    /// `count` requested.
    pub(crate) fn pop_cut_batch(&mut self, count: usize) -> (Drain<'_, T>, Cost) {
        let take = self.queue.len().min(count * self.bunch_capacity);
        let convert = (0..take)
            .step_by(self.bunch_capacity)
            .map(|start| bunch_cost((take - start).min(self.bunch_capacity)))
            .fold(Cost::ZERO, Cost::par);
        let merge_span = u64::from(ceil_log2(count.max(1) as u64)) + 1;
        let merge = Cost::new((take as u64).max(merge_span), merge_span);
        (self.queue.drain(..take), convert.then(merge))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pops a cut batch and collects it.
    fn pop(f: &mut FeedBuffer<u64>, count: usize) -> (Vec<u64>, Cost) {
        let (batch, cost) = f.pop_cut_batch(count);
        (batch.into_iter().collect(), cost)
    }

    #[test]
    fn bunch_accumulates_batches() {
        // Three input batches that together fit one bunch come back out as
        // one batch, in order.
        let mut f: FeedBuffer<u64> = FeedBuffer::new(8);
        f.push_input(&mut vec![1, 2, 3]);
        f.push_input(&mut Vec::new());
        f.push_input(&mut vec![4]);
        assert_eq!(f.len(), 4);
        let (batch, cost) = pop(&mut f, 1);
        assert_eq!(batch, vec![1, 2, 3, 4]);
        assert!(cost.span <= 5);
    }

    #[test]
    fn feed_buffer_cuts_into_bunches_of_capacity() {
        let mut f: FeedBuffer<u64> = FeedBuffer::new(4);
        f.push_input(&mut (0..10).collect());
        assert_eq!(f.len(), 10);
        // 10 items with capacity 4 are bunches of 4, 4, 2; pushing 3 more
        // tops the last bunch up to 4 and starts a new bunch of 1.
        f.push_input(&mut (10..13).collect());
        assert_eq!(f.len(), 13);
        let sizes: Vec<usize> = (0..4).map(|_| pop(&mut f, 1).0.len()).collect();
        assert_eq!(sizes, vec![4, 4, 4, 1]);
        assert!(f.is_empty());
    }

    #[test]
    fn pop_cut_batch_merges_in_fifo_order() {
        let mut f: FeedBuffer<u64> = FeedBuffer::new(3);
        f.push_input(&mut (0..8).collect());
        let (batch, _) = pop(&mut f, 2);
        assert_eq!(batch, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(f.len(), 2);
        let (batch, _) = pop(&mut f, 5);
        assert_eq!(batch, vec![6, 7]);
        assert!(f.is_empty());
        let (batch, _) = pop(&mut f, 1);
        assert!(batch.is_empty());
    }

    #[test]
    fn per_call_charges_are_pinned() {
        // Every push and pop of a fixed sequence at bunch capacity 4, with
        // the exact cost each returns and the batch each pop yields.
        let c = |work, span| Cost { work, span };
        let mut f: FeedBuffer<u64> = FeedBuffer::new(4);
        assert_eq!(f.push_input(&mut (0..6).collect()), c(6, 4));
        // These two top up the partial bunch [4, 5].
        assert_eq!(f.push_input(&mut (6..9).collect()), c(3, 3));
        assert_eq!(f.push_input(&mut vec![9]), c(2, 2));
        // One full bunch: converting costs (4, 4), the merge over a count
        // of 1 costs (4, 1).
        assert_eq!(pop(&mut f, 1), (vec![0, 1, 2, 3], c(8, 5)));
        // A full bunch and the partial one behind it, converted in parallel.
        assert_eq!(pop(&mut f, 2), ((4..10).collect(), c(13, 6)));
        assert!(f.is_empty());
        // `count` larger than the bunches held: bunches of 4, 4 and 1, and
        // the merge is charged over the count requested.
        assert_eq!(f.push_input(&mut (10..13).collect()), c(3, 3));
        assert_eq!(f.push_input(&mut (13..19).collect()), c(6, 4));
        assert_eq!(pop(&mut f, 5), ((10..19).collect(), c(19, 8)));
        // Only a partial bunch held.
        assert_eq!(f.push_input(&mut vec![19, 20]), c(3, 3));
        assert_eq!(pop(&mut f, 3), (vec![19, 20], c(6, 6)));
        // An empty pop still pays the merge.
        assert_eq!(pop(&mut f, 2), (Vec::new(), c(2, 2)));
        assert_eq!(pop(&mut f, 1), (Vec::new(), c(1, 1)));
    }

    #[test]
    fn empty_push_is_free() {
        let mut f: FeedBuffer<u64> = FeedBuffer::new(3);
        assert_eq!(f.push_input(&mut Vec::new()), Cost::ZERO);
        assert!(f.is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _: FeedBuffer<u64> = FeedBuffer::new(0);
    }
}
