//! # wsm-model — QRMW-style cost model and the working-set bound
//!
//! The paper "Parallel Working-Set Search Structures" (SPAA 2018) analyses its
//! data structures in the QRMW parallel pointer machine model, measuring
//! *effective work* (total number of data-structure nodes executed) and
//! *effective span* (maximum number of data-structure nodes on any path of the
//! execution DAG), see Definition 5 of the paper.
//!
//! This crate provides the building blocks that every other crate in the
//! workspace uses to account for those quantities analytically:
//!
//! * [`Cost`] — a `(work, span)` pair with sequential and parallel
//!   composition, mirroring how work and span compose in the dynamic
//!   multithreading model (work adds; span adds in sequence, maxes in
//!   parallel).
//! * [`Charge`] — a measured cost paired with the worst-case bound it must
//!   stay under; the batched maps keep one running `Charge` as their cost
//!   ledger.
//! * [`wsbound`] — the working-set bound `W_L = sum(log r_i + 1)` of an
//!   operation sequence (access ranks via a Fenwick tree), with the entropy
//!   bound used by the sorting experiments.
//!
//! The cost model is exact rather than asymptotic: data structures count unit
//! operations (key comparisons, node visits, transfers, lock-queue steps) so
//! that experiments can check the *shape* of the paper's bounds (linear in the
//! working-set bound, logarithmic in recency, and so on).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod wsbound;

pub use cost::{Charge, Cost};
pub use wsbound::{
    access_ranks, entropy_bound, insert_working_set_bound, sequence_entropy, working_set_bound,
    Fenwick, MapOpKind,
};

/// Integer base-2 logarithm of `x.max(1)`, rounded down.
///
/// The paper's bounds are stated in terms of `log r + 1`; helpers here keep
/// all crates consistent about how the discrete logarithm is taken.
#[inline]
pub fn ilog2(x: u64) -> u32 {
    x.max(1).ilog2()
}

/// `log2(x) + 1` as used in the working-set bound `W_L = sum(log r_i + 1)`.
#[inline]
pub fn log_cost(x: u64) -> u64 {
    u64::from(ilog2(x)) + 1
}

/// Ceiling of `log2(x.max(1))`.
#[inline]
pub fn ceil_log2(x: u64) -> u32 {
    let x = x.max(1);
    if x.is_power_of_two() {
        x.ilog2()
    } else {
        x.ilog2() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ilog2_small_values() {
        assert_eq!(ilog2(0), 0);
        assert_eq!(ilog2(1), 0);
        assert_eq!(ilog2(2), 1);
        assert_eq!(ilog2(3), 1);
        assert_eq!(ilog2(4), 2);
        assert_eq!(ilog2(1023), 9);
        assert_eq!(ilog2(1024), 10);
    }

    #[test]
    fn log_cost_matches_definition() {
        // log r + 1 with log base 2, floored.
        assert_eq!(log_cost(1), 1);
        assert_eq!(log_cost(2), 2);
        assert_eq!(log_cost(8), 4);
        assert_eq!(log_cost(9), 4);
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1 << 20), 20);
        assert_eq!(ceil_log2((1 << 20) + 1), 21);
    }
}
