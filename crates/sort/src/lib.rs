//! # wsm-sort — entropy-optimal sorting (paper Appendix A.3)
//!
//! The working-set maps must *combine duplicate operations* inside every batch
//! without paying the `Θ(b log b)` cost of a comparison sort — otherwise a
//! batch of `b` searches for the same hot item would cost more than the
//! working-set bound allows (Section 3).  The paper solves this with
//! entropy-optimal sorting:
//!
//! * [`esort()`] — the sequential **ESort** (Definition 29): insert the batch
//!   items into a working-set dictionary (Iacono's structure), collect each
//!   segment in sorted order and merge.  Takes `Θ(IW_L) ⊆ O(nH + n)` time
//!   (Theorem 30).
//! * [`pesort()`] — the parallel **PESort** (Definition 32): a quicksort whose
//!   pivot is chosen by the block-median [`ppivot()`] algorithm (Lemma 34) so it
//!   always falls in the middle two quartiles, giving `O(nH + n)` work and
//!   `O(log² n)` span (Theorem 33).
//! * Entropy and working-set bound helpers are re-exported from
//!   [`wsm_model::wsbound`].
//!
//! Both sorts report grouped output (equal keys adjacent, original order
//! preserved within a group), which is exactly the "combine duplicates" step
//! that M1 and M2 apply to every cut batch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod esort;
pub mod pesort;
pub mod ppivot;

pub use esort::{esort, esort_group};
pub use pesort::{pesort, pesort_by, pesort_group, pesort_group_into, GroupedBatch, SortScratch};
pub use ppivot::ppivot;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_sorts_agree_on_random_input() {
        let mut state = 7u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let items: Vec<u64> = (0..2000).map(|_| next() % 97).collect();
        let (e_sorted, _) = esort(&items);
        let (p_sorted, _) = pesort(items.clone());
        let mut std_sorted = items;
        std_sorted.sort();
        assert_eq!(e_sorted, std_sorted);
        assert_eq!(p_sorted, std_sorted);
    }
}
