//! The parallel pivot algorithm PPivot (paper Lemma 34).
//!
//! Partition the input into blocks of size `log k`, take the median of each
//! block, and output the median of those medians.  The output is guaranteed to
//! lie in the two middle quartiles of the input, which bounds the recursion
//! depth of PESort by `O(log n)` levels.  Work is `O(k)` and span `O(log k)`.

use std::cmp::Ordering;
use wsm_model::{ceil_log2, Cost};

/// PPivot's index buffers — one block's indices and the block medians —
/// kept from one call to the next, so a caller that picks pivot after pivot
/// (PESort's recursion, through [`crate::SortScratch`]) allocates nothing
/// once they have grown.
#[derive(Debug, Default)]
pub(crate) struct PivotBuffers {
    block: Vec<usize>,
    medians: Vec<usize>,
}

/// Picks a pivot guaranteed to lie within the two middle quartiles of `items`
/// (by the given comparator).  Returns the index of the chosen pivot in
/// `items` and the analytic cost of the selection.
///
/// # Panics
/// Panics if `items` is empty.
pub fn ppivot_by<T, F: Fn(&T, &T) -> Ordering>(items: &[T], cmp: &F) -> (usize, Cost) {
    ppivot_in(items, cmp, &mut PivotBuffers::default())
}

/// [`ppivot_by`] through buffers the caller keeps.
pub(crate) fn ppivot_in<T, F: Fn(&T, &T) -> Ordering>(
    items: &[T],
    cmp: &F,
    bufs: &mut PivotBuffers,
) -> (usize, Cost) {
    assert!(!items.is_empty(), "cannot pick a pivot from an empty slice");
    let PivotBuffers {
        block: idx,
        medians,
    } = bufs;
    let k = items.len();
    if k <= 4 {
        // Tiny inputs: the median of the whole slice.
        idx.clear();
        idx.extend(0..k);
        idx.sort_by(|&a, &b| cmp(&items[a], &items[b]));
        return (idx[k / 2], Cost::serial(k as u64 + 1));
    }
    let block = (ceil_log2(k as u64) as usize).max(2);
    // Median index of each block, found by a linear-time selection.
    medians.clear();
    let mut start = 0;
    while start < k {
        let end = (start + block).min(k);
        idx.clear();
        idx.extend(start..end);
        let mid = idx.len() / 2;
        idx.select_nth_unstable_by(mid, |&a, &b| cmp(&items[a], &items[b]));
        medians.push(idx[mid]);
        start = end;
    }
    // Median of the block medians.
    let mid = medians.len() / 2;
    medians.select_nth_unstable_by(mid, |&a, &b| cmp(&items[a], &items[b]));
    let pivot_idx = medians[mid];
    // Work O(k): each block costs O(block); span O(log k): blocks in parallel
    // plus sorting the c = k / log k medians.
    let cost = Cost::new(
        (2 * k) as u64,
        (2 * ceil_log2(k as u64) as usize + 2) as u64,
    );
    (pivot_idx, cost)
}

/// [`ppivot_by`] with the natural ordering.
pub fn ppivot<T: Ord>(items: &[T]) -> (usize, Cost) {
    ppivot_by(items, &T::cmp)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checks the middle-quartile guarantee of Lemma 34: the chosen pivot's
    /// rank must lie in `[k/4, 3k/4]` (inclusive bounds with slack for ties).
    fn assert_middle_quartile(items: &[u64]) {
        let (idx, _) = ppivot(items);
        let pivot = items[idx];
        let k = items.len();
        let below = items.iter().filter(|&&x| x < pivot).count();
        let above = items.iter().filter(|&&x| x > pivot).count();
        assert!(
            below <= 3 * k / 4 && above <= 3 * k / 4,
            "pivot {pivot} outside middle quartiles: below={below} above={above} k={k}"
        );
    }

    #[test]
    fn pivot_within_middle_quartiles_various_inputs() {
        let ascending: Vec<u64> = (0..1000).collect();
        let descending: Vec<u64> = (0..1000).rev().collect();
        let mut state = 3u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let random: Vec<u64> = (0..1000).map(|_| next()).collect();
        let organ_pipe: Vec<u64> = (0..500).chain((0..500).rev()).collect();
        for input in [ascending, descending, random, organ_pipe] {
            assert_middle_quartile(&input);
        }
    }

    #[test]
    fn pivot_on_tiny_and_duplicate_inputs() {
        assert_middle_quartile(&[1]);
        assert_middle_quartile(&[2, 1]);
        assert_middle_quartile(&[3, 1, 2]);
        assert_middle_quartile(&[5; 100]);
        assert_middle_quartile(&[1, 1, 1, 1, 2, 2, 2, 2]);
    }

    #[test]
    fn cost_is_linear_work_log_span() {
        let items: Vec<u64> = (0..4096).collect();
        let (_, cost) = ppivot(&items);
        assert!(cost.work <= 4 * 4096);
        assert!(cost.span <= 40);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_input_panics() {
        let empty: Vec<u64> = Vec::new();
        let _ = ppivot(&empty);
    }
}
