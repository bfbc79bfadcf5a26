//! The feed buffer and bunches (Section 6.1).
//!
//! The feed buffer decouples the (arbitrarily large) input batches flushed
//! from the parallel buffer from the (size-controlled) *cut batches* the map
//! actually processes.  It is a queue of *bunches*, each of size `p²` except
//! possibly the last.  A bunch supports `O(1)` addition of a batch and
//! `O(log b)`-span conversion to a batch of size `b` (the paper implements it
//! as a complete binary tree of batches threaded with per-level lists; here
//! a bunch is a vector of batches, which has the same work profile, and
//! [`Bunch::into_batch`]'s charge is the tree's `O(log b)` span).

use wsm_model::{ceil_log2, Cost};

/// A set of batches supporting `O(1)` addition of a batch and conversion to a
/// single batch.
#[derive(Clone, Debug, Default)]
pub struct Bunch<T> {
    batches: Vec<Vec<T>>,
    len: usize,
}

impl<T> Bunch<T> {
    /// Creates an empty bunch.
    pub fn new() -> Self {
        Bunch {
            batches: Vec::new(),
            len: 0,
        }
    }

    /// Number of operations across all contained batches.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bunch holds no operations.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Adds a batch in `O(1)`.
    pub fn add_batch(&mut self, batch: Vec<T>) {
        self.len += batch.len();
        if !batch.is_empty() {
            self.batches.push(batch);
        }
    }

    /// Converts the bunch into a single batch; `O(b)` work, `O(log b)` span
    /// (returned as the second component).
    pub fn into_batch(mut self) -> (Vec<T>, Cost) {
        let b = self.len as u64;
        let out = if self.batches.len() == 1 {
            // The common single-input case: hand the batch back as-is.
            self.batches.pop().expect("one batch")
        } else {
            let mut out = Vec::with_capacity(self.len);
            for batch in self.batches {
                out.extend(batch);
            }
            out
        };
        let span = u64::from(ceil_log2(b + 1)) + 1;
        let cost = Cost::new(b.max(span), span);
        (out, cost)
    }
}

/// The feed buffer: a FIFO queue of bunches, each of capacity `bunch_capacity`
/// (`p²` in the paper) except possibly the last.
#[derive(Clone, Debug)]
pub struct FeedBuffer<T> {
    bunches: std::collections::VecDeque<Bunch<T>>,
    bunch_capacity: usize,
    len: usize,
}

impl<T> FeedBuffer<T> {
    /// Creates an empty feed buffer with the given bunch capacity (`p²`).
    pub fn new(bunch_capacity: usize) -> Self {
        assert!(bunch_capacity > 0, "bunch capacity must be positive");
        FeedBuffer {
            bunches: std::collections::VecDeque::new(),
            bunch_capacity,
            len: 0,
        }
    }

    /// Bunch capacity (`p²`).
    pub fn bunch_capacity(&self) -> usize {
        self.bunch_capacity
    }

    /// Total number of buffered operations.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no operations are buffered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of bunches currently queued.
    pub fn num_bunches(&self) -> usize {
        self.bunches.len()
    }

    /// Cuts an input batch into small batches and appends them (Section 6.1):
    /// the first small batch tops up the last bunch to capacity, the rest are
    /// appended as new bunches of exactly `bunch_capacity` (except the last).
    /// Returns the cost charged (`O(1)` per operation, `O(log b)` span).
    pub fn push_input(&mut self, mut input: Vec<T>) -> Cost {
        let b = input.len() as u64;
        if input.is_empty() {
            return Cost::ZERO;
        }
        self.len += input.len();
        // Top up the last bunch.
        let room = match self.bunches.back() {
            Some(last) if last.len() < self.bunch_capacity => self.bunch_capacity - last.len(),
            _ => 0,
        };
        if room > 0 {
            let take = room.min(input.len());
            let rest = input.split_off(take);
            self.bunches
                .back_mut()
                .expect("checked non-empty")
                .add_batch(input);
            input = rest;
        }
        // Append the remainder as fresh bunches.
        while !input.is_empty() {
            let take = self.bunch_capacity.min(input.len());
            let rest = input.split_off(take);
            let mut bunch = Bunch::new();
            bunch.add_batch(input);
            self.bunches.push_back(bunch);
            input = rest;
        }
        let span = u64::from(ceil_log2(b + 1)) + 1;
        Cost::new(b.max(span), span)
    }

    /// Removes up to `count` bunches from the front and merges them into one
    /// cut batch.  Returns the batch and the cost of forming it.
    pub fn pop_cut_batch(&mut self, count: usize) -> (Vec<T>, Cost) {
        let mut out = Vec::new();
        let mut cost = Cost::ZERO;
        for _ in 0..count {
            let Some(bunch) = self.bunches.pop_front() else {
                break;
            };
            let (batch, c) = bunch.into_batch();
            cost = cost.par(c);
            if out.is_empty() {
                out = batch; // common case: one bunch, no copy
            } else {
                out.extend(batch);
            }
        }
        self.len -= out.len();
        // Merging `count` converted bunches is a parallel concatenation.
        let merge_span = u64::from(ceil_log2(count.max(1) as u64)) + 1;
        let merge = Cost::new((out.len() as u64).max(merge_span), merge_span);
        (out, cost.then(merge))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bunch_accumulates_batches() {
        let mut b = Bunch::new();
        assert!(b.is_empty());
        b.add_batch(vec![1, 2, 3]);
        b.add_batch(Vec::new());
        b.add_batch(vec![4]);
        assert_eq!(b.len(), 4);
        let (batch, cost) = b.into_batch();
        assert_eq!(batch, vec![1, 2, 3, 4]);
        assert!(cost.span <= 4);
    }

    #[test]
    fn feed_buffer_cuts_into_bunches_of_capacity() {
        let mut f: FeedBuffer<u64> = FeedBuffer::new(4);
        f.push_input((0..10).collect());
        // 10 items with capacity 4: bunches of 4, 4, 2.
        assert_eq!(f.num_bunches(), 3);
        assert_eq!(f.len(), 10);
        // Pushing 3 more: first tops up the last bunch (2 -> 4), rest forms a
        // new bunch of 1.
        f.push_input((10..13).collect());
        assert_eq!(f.num_bunches(), 4);
        assert_eq!(f.len(), 13);
    }

    #[test]
    fn pop_cut_batch_merges_in_fifo_order() {
        let mut f: FeedBuffer<u64> = FeedBuffer::new(3);
        f.push_input((0..8).collect());
        let (batch, _) = f.pop_cut_batch(2);
        assert_eq!(batch, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(f.len(), 2);
        let (batch, _) = f.pop_cut_batch(5);
        assert_eq!(batch, vec![6, 7]);
        assert!(f.is_empty());
        let (batch, _) = f.pop_cut_batch(1);
        assert!(batch.is_empty());
    }

    #[test]
    fn empty_push_is_free() {
        let mut f: FeedBuffer<u64> = FeedBuffer::new(3);
        assert_eq!(f.push_input(Vec::new()), Cost::ZERO);
        assert!(f.is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _: FeedBuffer<u64> = FeedBuffer::new(0);
    }
}
