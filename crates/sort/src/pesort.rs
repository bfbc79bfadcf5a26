//! Parallel entropy sort PESort (paper Definition 32, Theorem 33).
//!
//! PESort is a quicksort variant: the pivot is chosen by [`crate::ppivot()`]
//! (so it always lies in the middle two quartiles), the input is partitioned
//! into a lower part, a middle part equal to the pivot and an upper part, and
//! the lower/upper parts are sorted recursively (in parallel).  An item that
//! occurs `r` times out of `n` traverses only `O(log(n / r))` recursion
//! levels, which is where the `O(nH + n)` work bound comes from; the recursion
//! depth is `O(log n)`, giving `O(log² n)` span.
//!
//! Equal items are *kept in their original relative order* (every partition is
//! a stable three-way split), so the grouped output can be used directly to
//! combine duplicate operations in a batch.

use crate::ppivot::{ppivot_in, PivotBuffers};
use std::cmp::Ordering;
use wsm_model::{ceil_log2, Cost};

/// Inputs below this size are sorted directly (and sequentially).
const SMALL: usize = 24;
/// Inputs below this size do not spawn parallel recursive calls.
const PAR_GRAIN: usize = 2048;

/// Sorts `items` by `cmp`, returning the sorted vector and the analytic cost.
///
/// The sort is stable for items that compare equal.  It sorts an index
/// permutation of `items` (the recursion of [`pesort_group_into`]) and then
/// moves each item to its place.
pub fn pesort_by<T, F>(items: Vec<T>, cmp: &F) -> (Vec<T>, Cost)
where
    T: Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    let n = u32::try_from(items.len()).expect("input larger than u32::MAX items");
    let mut idx: Vec<u32> = (0..n).collect();
    let cost = pesort_idx(
        &mut idx,
        &|a: &u32, b: &u32| cmp(&items[*a as usize], &items[*b as usize]),
        &mut Temps::default(),
    );
    let mut slots: Vec<Option<T>> = items.into_iter().map(Some).collect();
    let sorted = idx
        .iter()
        .map(|&i| slots[i as usize].take().expect("a permutation"));
    (sorted.collect(), cost)
}

/// Sorts `items` by the natural order, returning the sorted vector and cost.
pub fn pesort<T: Ord + Send + Sync>(items: Vec<T>) -> (Vec<T>, Cost) {
    pesort_by(items, &T::cmp)
}

/// Sorts the *indices* of `keys` by key, grouping equal keys: the result is a
/// list of `(key, positions)` pairs in ascending key order, where `positions`
/// are the indices of that key's occurrences in their original order.
///
/// This is the "sort the batch and combine duplicate operations" step of M1
/// and M2 (Section 6.1 step "ESort + Combine").  Convenience wrapper around
/// [`pesort_group_into`] for one-shot callers; hot paths that group a batch
/// per call should hold a [`SortScratch`] + [`GroupedBatch`] and use
/// [`pesort_group_into`] directly so no per-batch allocation survives
/// steady state.
pub fn pesort_group<K: Ord + Clone + Send + Sync>(keys: &[K]) -> (Vec<(K, Vec<usize>)>, Cost) {
    let mut scratch = SortScratch::default();
    let mut grouped = GroupedBatch::default();
    let cost = pesort_group_into(keys, &mut scratch, &mut grouped);
    (grouped.into_vec(), cost)
}

/// Reusable scratch buffers for [`pesort_group_into`]: the index permutation
/// being sorted, a pool of recycled partition temporaries and PPivot's
/// buffers.  Holding one of these across batches makes repeated grouping
/// allocation-free in steady state.
#[derive(Debug, Default)]
pub struct SortScratch {
    /// The index permutation under sort.
    idx: Vec<u32>,
    /// The recursion's temporaries.
    temps: Temps,
}

/// The temporaries of one PESort recursion.
#[derive(Debug, Default)]
struct Temps {
    /// Recycled partition temporaries (lower/middle/upper index buffers).
    pool: Vec<Vec<u32>>,
    /// PPivot's per-block and block-median index buffers.
    pivot: PivotBuffers,
}

/// Keep at most this many recycled buffers per scratch; parallel recursion
/// seeds fresh pools, and unbounded merging back would hoard memory.
const SCRATCH_POOL_CAP: usize = 12;

/// A batch grouped by key: for group `i`, `keys()[i]` occurs at the original
/// positions `positions(i)` (ascending, i.e. arrival order).  The backing
/// buffers are reused across [`pesort_group_into`] calls.
#[derive(Debug)]
pub struct GroupedBatch<K> {
    keys: Vec<K>,
    /// `offsets[i]..offsets[i + 1]` indexes `positions` for group `i`.
    offsets: Vec<u32>,
    positions: Vec<u32>,
}

impl<K> Default for GroupedBatch<K> {
    fn default() -> Self {
        GroupedBatch {
            keys: Vec::new(),
            offsets: Vec::new(),
            positions: Vec::new(),
        }
    }
}

impl<K> GroupedBatch<K> {
    /// Number of groups (distinct keys).
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if the batch had no operations.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The distinct keys in ascending order.
    pub fn keys(&self) -> &[K] {
        &self.keys
    }

    /// The original positions of group `i`'s occurrences, in arrival order.
    pub fn positions(&self, i: usize) -> &[u32] {
        &self.positions[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Iterates `(key, positions)` pairs in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &[u32])> {
        (0..self.len()).map(move |i| (&self.keys[i], self.positions(i)))
    }

    /// Clears the groups, keeping the backing buffers for reuse.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.offsets.clear();
        self.positions.clear();
    }

    /// Converts into the owned `(key, positions)` representation.
    pub fn into_vec(self) -> Vec<(K, Vec<usize>)> {
        let GroupedBatch {
            keys,
            offsets,
            positions,
        } = self;
        keys.into_iter()
            .enumerate()
            .map(|(i, k)| {
                let range = offsets[i] as usize..offsets[i + 1] as usize;
                (k, positions[range].iter().map(|&p| p as usize).collect())
            })
            .collect()
    }
}

/// [`pesort_group`] with caller-provided scratch and output buffers: sorts a
/// permutation of indices (no key is cloned during the sort) and reuses the
/// partition temporaries pooled in `scratch`, so a caller that processes one
/// batch after another allocates nothing once the buffers have grown to the
/// steady-state batch size.  Each distinct key is cloned exactly once, into
/// `out`.
pub fn pesort_group_into<K: Ord + Clone + Send + Sync>(
    keys: &[K],
    scratch: &mut SortScratch,
    out: &mut GroupedBatch<K>,
) -> Cost {
    out.clear();
    let n = keys.len();
    if n == 0 {
        return Cost::ZERO;
    }
    let n32 = u32::try_from(n).expect("batch larger than u32::MAX operations");
    scratch.idx.clear();
    scratch.idx.extend(0..n32);
    let cmp = |a: &u32, b: &u32| keys[*a as usize].cmp(&keys[*b as usize]);
    let sort_cost = pesort_idx(&mut scratch.idx, &cmp, &mut scratch.temps);

    // Group the sorted permutation: equal keys are adjacent, and within a
    // group positions are ascending because the sort is stable by key.
    out.positions.extend_from_slice(&scratch.idx);
    out.offsets.push(0);
    let mut start = 0usize;
    while start < n {
        let key = &keys[out.positions[start] as usize];
        let mut end = start + 1;
        while end < n && keys[out.positions[end] as usize] == *key {
            end += 1;
        }
        out.keys.push(key.clone());
        out.offsets.push(end as u32);
        start = end;
    }
    // Grouping is a linear scan, perfectly parallelisable as a prefix
    // computation; charge its work flat.
    sort_cost.then(Cost::flat(n as u64))
}

/// PESort over an index permutation, with pooled temporaries — the one
/// PESort recursion, behind both [`pesort_by`] and [`pesort_group_into`].
///
/// The lower/middle/upper temporaries are drawn from (and returned to)
/// `temps.pool`, and PPivot selects through `temps.pivot`, instead of
/// allocating afresh; the base case uses an in-place
/// unstable sort with an index tie-break — every partition is stable, so
/// within a sub-slice equal keys sit in ascending index order, and the
/// tie-broken order equals the stable-by-key order without the stable
/// sort's scratch allocation.
fn pesort_idx<F>(idx: &mut [u32], cmp: &F, temps: &mut Temps) -> Cost
where
    F: Fn(&u32, &u32) -> Ordering + Sync,
{
    let k = idx.len();
    if k <= SMALL {
        idx.sort_unstable_by(|a, b| cmp(a, b).then_with(|| a.cmp(b)));
        let k = k as u64;
        return Cost::serial(k * (u64::from(ceil_log2(k.max(1))) + 1));
    }
    let (pivot_pos, pivot_cost) = ppivot_in(idx, cmp, &mut temps.pivot);
    let pivot = idx[pivot_pos];
    let pool = &mut temps.pool;

    // Stable three-way partition through pooled temporaries, copied back into
    // the same slice.  The paper parallelises this with a prefix-sum; the
    // scan here is sequential, and `partition_cost` charges the prefix-sum's
    // `k` work and `⌈log k⌉ + 1` span in its place.
    let mut lower = pool.pop().unwrap_or_default();
    let mut middle = pool.pop().unwrap_or_default();
    let mut upper = pool.pop().unwrap_or_default();
    for &i in idx.iter() {
        match cmp(&i, &pivot) {
            Ordering::Less => lower.push(i),
            Ordering::Equal => middle.push(i),
            Ordering::Greater => upper.push(i),
        }
    }
    let (lower_len, middle_len) = (lower.len(), middle.len());
    idx[..lower_len].copy_from_slice(&lower);
    idx[lower_len..lower_len + middle_len].copy_from_slice(&middle);
    idx[lower_len + middle_len..].copy_from_slice(&upper);
    for mut buf in [lower, middle, upper] {
        buf.clear();
        if pool.len() < SCRATCH_POOL_CAP {
            pool.push(buf);
        }
    }
    let partition_cost = Cost::new(k as u64, u64::from(ceil_log2(k as u64)) + 1);

    let (lower_slice, rest) = idx.split_at_mut(lower_len);
    let (_, upper_slice) = rest.split_at_mut(middle_len);
    let (lower_cost, upper_cost) = if k >= PAR_GRAIN {
        // Parallel branches cannot share the temporaries; the stolen side
        // seeds its own (only O(log n) such seeds exist above the grain).
        let mut right = Temps::default();
        let costs = wsm_pool::join(
            || pesort_idx(lower_slice, cmp, temps),
            || pesort_idx(upper_slice, cmp, &mut right),
        );
        for buf in right.pool {
            if temps.pool.len() < SCRATCH_POOL_CAP {
                temps.pool.push(buf);
            }
        }
        costs
    } else {
        (
            pesort_idx(lower_slice, cmp, temps),
            pesort_idx(upper_slice, cmp, temps),
        )
    };

    pivot_cost
        .then(partition_cost)
        .then(lower_cost.par(upper_cost))
        .then(Cost::UNIT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsm_model::entropy_bound;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn sorts_like_std() {
        let mut state = 42;
        for n in [0usize, 1, 2, 10, 100, 1000, 5000] {
            let items: Vec<u64> = (0..n).map(|_| xorshift(&mut state) % 500).collect();
            let mut expected = items.clone();
            expected.sort();
            let (got, _) = pesort(items);
            assert_eq!(got, expected, "n={n}");
        }
    }

    #[test]
    fn already_sorted_and_reverse_inputs() {
        let asc: Vec<u64> = (0..3000).collect();
        let desc: Vec<u64> = (0..3000).rev().collect();
        assert_eq!(pesort(asc.clone()).0, asc);
        assert_eq!(pesort(desc).0, asc);
    }

    #[test]
    fn grouping_preserves_arrival_order_within_key() {
        let keys = vec![5u64, 1, 5, 3, 1, 5, 3, 3, 3];
        let (groups, _) = pesort_group(&keys);
        let keys_only: Vec<u64> = groups.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys_only, vec![1, 3, 5]);
        let by_key: std::collections::BTreeMap<u64, Vec<usize>> = groups.into_iter().collect();
        assert_eq!(by_key[&1], vec![1, 4]);
        assert_eq!(by_key[&3], vec![3, 6, 7, 8]);
        assert_eq!(by_key[&5], vec![0, 2, 5]);
    }

    #[test]
    fn grouped_batch_reuse_matches_one_shot_grouping() {
        let mut state = 123;
        let mut scratch = SortScratch::default();
        let mut grouped = GroupedBatch::default();
        for n in [0usize, 1, 5, 100, 3000] {
            let keys: Vec<u64> = (0..n).map(|_| xorshift(&mut state) % 37).collect();
            let (expected, expected_cost) = pesort_group(&keys);
            let cost = pesort_group_into(&keys, &mut scratch, &mut grouped);
            assert_eq!(cost, expected_cost, "n={n}");
            assert_eq!(grouped.len(), expected.len(), "n={n}");
            for ((k, positions), (ek, epositions)) in grouped.iter().zip(&expected) {
                assert_eq!(k, ek);
                let got: Vec<usize> = positions.iter().map(|&p| p as usize).collect();
                assert_eq!(&got, epositions);
            }
        }
    }

    #[test]
    fn grouped_batch_positions_cover_input_exactly_once() {
        let mut scratch = SortScratch::default();
        let mut grouped = GroupedBatch::default();
        let keys = vec![3u64, 1, 3, 3, 2, 1, 2];
        pesort_group_into(&keys, &mut scratch, &mut grouped);
        let mut seen: Vec<u32> = grouped
            .iter()
            .flat_map(|(_, p)| p.iter().copied())
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..keys.len() as u32).collect::<Vec<_>>());
        assert_eq!(grouped.keys(), &[1, 2, 3]);
    }

    #[test]
    fn stability_on_equal_keys() {
        // Sort pairs by first component only; second component records arrival
        // order and must remain ascending within each key.
        let mut state = 9;
        let items: Vec<(u64, usize)> = (0..4000).map(|i| (xorshift(&mut state) % 16, i)).collect();
        let (sorted, _) = pesort_by(items, &|a: &(u64, usize), b: &(u64, usize)| a.0.cmp(&b.0));
        for w in sorted.windows(2) {
            assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "equal keys reordered");
            }
        }
    }

    #[test]
    fn work_tracks_entropy_bound() {
        // Low-entropy input (few distinct values, very skewed) must cost much
        // less work than a high-entropy input of the same length.
        let n = 20_000usize;
        let mut state = 77;
        let low: Vec<u64> = (0..n)
            .map(|_| {
                if xorshift(&mut state) % 100 < 95 {
                    0
                } else {
                    xorshift(&mut state) % 4
                }
            })
            .collect();
        let high: Vec<u64> = (0..n).map(|_| xorshift(&mut state)).collect();
        let (_, low_cost) = pesort(low.clone());
        let (_, high_cost) = pesort(high.clone());
        assert!(
            (low_cost.work as f64) < (high_cost.work as f64) * 0.5,
            "low-entropy sort ({}) should be far cheaper than high-entropy ({})",
            low_cost.work,
            high_cost.work
        );
        // And both are within a constant factor of n(H+1).
        let low_bound = entropy_bound(&low);
        let high_bound = entropy_bound(&high);
        assert!((low_cost.work as f64) < 16.0 * low_bound + 1000.0);
        assert!((high_cost.work as f64) < 16.0 * high_bound + 1000.0);
    }

    #[test]
    fn span_is_polylog() {
        let mut state = 5;
        let items: Vec<u64> = (0..50_000).map(|_| xorshift(&mut state)).collect();
        let (_, cost) = pesort(items);
        let logn = (50_000f64).log2();
        assert!(
            (cost.span as f64) < 8.0 * logn * logn,
            "span {} exceeds O(log^2 n)",
            cost.span
        );
    }

    #[test]
    fn all_equal_input_is_linear_work() {
        let items = vec![7u64; 10_000];
        let (sorted, cost) = pesort(items.clone());
        assert_eq!(sorted, items);
        assert!(cost.work < 20 * 10_000, "all-equal input must be ~linear");
    }
}
