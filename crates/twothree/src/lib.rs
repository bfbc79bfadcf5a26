//! # wsm-twothree — batched parallel fanout-B arena tree
//!
//! The working-set maps of the paper store every segment in a pair of
//! balanced search trees (a *key-map* sorted by key and a *recency-map*
//! sorted by recency), realised as **batched parallel balanced trees** in the
//! style of Paul, Vishkin and Wagener (paper Appendix A.2).  Such a tree
//! supports, for an item-sorted batch of `b` operations on a tree of `n`
//! items:
//!
//! * a *normal batch operation* (searches / insertions / deletions) in
//!   `Θ(b · log n)` work and `O(log b + log n)` span, and
//! * a *reverse-indexing operation* that converts direct pointers back into an
//!   item-sorted batch within the same bounds.
//!
//! # Cache-conscious core
//!
//! The paper states its bounds for 2-3 trees, but nothing in the analysis
//! forbids a wider node: any (a,b)-tree with `b >= 2a - 1` supports the same
//! split/borrow/merge algebra.  Since the fanout generalization the tree
//! here is [`BTree`]: nodes hold up to `B` entries (`B = 16` by default,
//! `WSM_TREE_FANOUT` to override), each node carries a **contiguous key
//! array** searched in place, and all nodes live in a slab arena (`Vec` +
//! intrusive free list — the `recency.rs` arena idiom applied to tree
//! nodes), so descending a level is an index hop into a dense slab rather
//! than a pointer chase.  The **items live in the height-1 nodes**, as a
//! value array in step with the keys — there is no slot per item and no
//! leaf level to hop to, so the bottom of a descent is one key scan and one
//! indexed read — and every node's arrays are allocated once, with room for
//! `B + 1` entries, so the steady-state sweep (insert a cell, split at
//! `B + 1`, merge, even out) does not touch the allocator except to create
//! the node a split adds.  Height shrinks from `log₂ n` to `log_{B/2} n`,
//! and with it every measured touched-node count and tree pass in the stack
//! (E18 shows the drop and times the sweep on a 2^17-item map; E17 re-checks
//! the Lemma ceilings).  The cost model is the layout's older sibling: one
//! touch per node visited and one per item cell read, created or freed —
//! what the one-slot-per-item tree charged — pinned by
//! `tests/golden_counts.rs`.
//!
//! `B = 2` instantiates exactly the 2-3 tree of Appendix A.2 (2..=3 children
//! per node) and stays the **analytic reference**: the bounds in [`cost`]
//! ([`cost::single_op`], [`cost::batch_op`], [`cost::transfer`]) take the
//! fanout and are the paper's closed-form formulas at `B = 2`, and the
//! Lemma-ceiling assertions are checked against the bound of whatever
//! fanout a tree actually runs.
//!
//! This crate provides:
//!
//! * [`BTree`] (alias [`Tree23`]) — the fanout-B arena tree with
//!   in-place point operations, rank selection, one-pass sorted-batch
//!   sweeps (batch get / insert / remove), an `O(n)` build from sorted items
//!   and a drain into a sorted vector — the sweep is the only structural
//!   algebra, nothing splits or joins whole trees;
//! * [`RecencyMap`] — the arena-fused key/recency map used by every segment
//!   of M0, M1 and M2: one key-ordered [`BTree`] over a slab arena whose
//!   slots carry an intrusive doubly-linked recency list, realising the
//!   paper's cross-linked direct pointers without `unsafe`.  Every segment
//!   operation drives **one** tree — half the tree passes of the old
//!   stamp-keyed two-tree substitution on every path — within the same
//!   `Θ(b log n)` work / `O(log b + log n)` span contract;
//! * [`cost`] — the analytic cost formulas of Appendix A.2, parameterized
//!   by fanout (`B = 2` gives the closed forms), used by the instrumented
//!   map structures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::OnceLock;

pub mod batch;
pub mod cost;
mod node;
pub mod recency;
pub mod tree;

pub use recency::RecencyMap;
pub use tree::{BTree, Tree23};

/// The process-wide default tree fanout: `WSM_TREE_FANOUT` if set and valid
/// (2..=64; warn-once on bad values), else 16.
///
/// `2` selects the 2-3 reference instantiation of paper Appendix A.2; the
/// default `16` is the cache-conscious wide node (8..=16 children, one
/// routing-key array per cache line or two).  Read once and cached for the
/// lifetime of the process, like the other `WSM_*` knobs; per-tree overrides
/// go through [`BTree::with_fanout`].
pub fn default_fanout() -> usize {
    static FANOUT: OnceLock<usize> = OnceLock::new();
    *FANOUT.get_or_init(|| {
        wsm_sync::env::parse(
            "WSM_TREE_FANOUT",
            "a node fanout in 2..=64",
            16usize,
            |&b| (2..=64).contains(&b),
        )
    })
}
