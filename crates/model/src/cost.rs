//! The `(work, span)` cost algebra of the dynamic multithreading model.
//!
//! Work is the total number of unit operations executed; span is the number of
//! unit operations on the longest dependency chain.  Sequential composition
//! adds both; parallel composition adds work and takes the maximum span.  This
//! mirrors exactly how the paper reasons about effective work and effective
//! span (Definition 5).
//!
//! A [`Charge`] pairs the cost an operation measured with the worst-case
//! cost its Lemma bounds allow; a running `Charge` is a map's cost ledger.

/// A `(work, span)` pair in the dynamic multithreading cost model.
///
/// All instrumented operations in the workspace return a `Cost`.  The two
/// composition operators are [`Cost::then`] (sequential) and [`Cost::par`]
/// (parallel).  `Cost` is a commutative monoid under `par` and a (non
/// commutative in general, but here commutative because both fields are
/// symmetric) monoid under `then`, with [`Cost::ZERO`] as identity for both.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cost {
    /// Total number of unit operations.
    pub work: u64,
    /// Number of unit operations on the critical path.
    pub span: u64,
}

impl Cost {
    /// The zero cost (identity for both compositions).
    pub const ZERO: Cost = Cost { work: 0, span: 0 };

    /// A single unit operation: one unit of work, one unit of span.
    pub const UNIT: Cost = Cost { work: 1, span: 1 };

    /// Creates a cost from explicit work and span.
    ///
    /// # Panics
    /// Panics in debug builds if `span > work` (a span longer than the total
    /// work is impossible) unless `work == 0`.
    #[inline]
    pub fn new(work: u64, span: u64) -> Self {
        debug_assert!(span <= work || work == 0, "span {span} exceeds work {work}");
        Cost { work, span }
    }

    /// `k` unit operations executed sequentially.
    #[inline]
    pub fn serial(k: u64) -> Self {
        Cost { work: k, span: k }
    }

    /// `k` unit operations that are all independent (perfectly parallel).
    #[inline]
    pub fn flat(k: u64) -> Self {
        Cost {
            work: k,
            span: if k == 0 { 0 } else { 1 },
        }
    }

    /// Sequential composition: work adds, span adds.
    #[inline]
    #[must_use]
    pub fn then(self, other: Cost) -> Cost {
        Cost {
            work: self.work + other.work,
            span: self.span + other.span,
        }
    }

    /// Parallel composition: work adds, span is the maximum.
    #[inline]
    #[must_use]
    pub fn par(self, other: Cost) -> Cost {
        Cost {
            work: self.work + other.work,
            span: self.span.max(other.span),
        }
    }

    /// Sequential composition of an iterator of costs.
    pub fn seq_over<I: IntoIterator<Item = Cost>>(iter: I) -> Cost {
        iter.into_iter().fold(Cost::ZERO, Cost::then)
    }

    /// True if both work and span are zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.work == 0 && self.span == 0
    }
}

impl std::ops::Add for Cost {
    type Output = Cost;
    /// `+` is sequential composition, the most common case in accounting code.
    fn add(self, rhs: Cost) -> Cost {
        self.then(rhs)
    }
}

impl std::ops::AddAssign for Cost {
    fn add_assign(&mut self, rhs: Cost) {
        *self = self.then(rhs);
    }
}

impl std::iter::Sum for Cost {
    fn sum<I: Iterator<Item = Cost>>(iter: I) -> Cost {
        Cost::seq_over(iter)
    }
}

impl std::fmt::Display for Cost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "work={} span={}", self.work, self.span)
    }
}

/// A paired charge: the work an operation actually performed (`measured`)
/// and the worst-case Lemma bound it must stay under (`bound`).
///
/// Every tree operation of a map returns one, and M1 and M2 keep a single
/// running `Charge` as their cost ledger: `measured` is the effective work
/// and span they report, `bound.work` the analytic ceiling, so experiments
/// can report both the measured constants and the analytic bounds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Charge {
    /// The charge the map actually pays: measured touched-node work under the
    /// analytic span.
    pub measured: Cost,
    /// The closed-form worst-case bound for the same operation.
    pub bound: Cost,
}

impl Charge {
    /// The zero charge.
    pub const ZERO: Charge = Charge {
        measured: Cost::ZERO,
        bound: Cost::ZERO,
    };

    /// A charge whose measured cost *is* its bound — used for work that is
    /// not a tree operation (entropy sorting, buffer formation) and therefore
    /// has no separate touched-node measurement.
    pub fn exact(cost: Cost) -> Charge {
        Charge {
            measured: cost,
            bound: cost,
        }
    }
}

impl std::ops::Add for Charge {
    type Output = Charge;
    /// Sequential composition of both sides.
    fn add(self, rhs: Charge) -> Charge {
        Charge {
            measured: self.measured.then(rhs.measured),
            bound: self.bound.then(rhs.bound),
        }
    }
}

impl std::ops::AddAssign for Charge {
    fn add_assign(&mut self, rhs: Charge) {
        *self = *self + rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_identity() {
        let c = Cost::new(10, 3);
        assert_eq!(c.then(Cost::ZERO), c);
        assert_eq!(Cost::ZERO.then(c), c);
        assert_eq!(c.par(Cost::ZERO), c);
        assert_eq!(Cost::ZERO.par(c), c);
    }

    #[test]
    fn sequential_composition_adds_both() {
        let a = Cost::new(5, 2);
        let b = Cost::new(7, 4);
        assert_eq!(a.then(b), Cost::new(12, 6));
    }

    #[test]
    fn parallel_composition_adds_work_maxes_span() {
        let a = Cost::new(5, 2);
        let b = Cost::new(7, 4);
        assert_eq!(a.par(b), Cost::new(12, 4));
        assert_eq!(b.par(a), Cost::new(12, 4));
    }

    #[test]
    fn flat_and_serial() {
        assert_eq!(Cost::flat(0), Cost::ZERO);
        assert_eq!(Cost::flat(10), Cost::new(10, 1));
        assert_eq!(Cost::serial(10), Cost::new(10, 10));
    }

    #[test]
    fn sum_iterates_sequentially() {
        let total: Cost = vec![Cost::new(1, 1), Cost::new(2, 2), Cost::new(3, 1)]
            .into_iter()
            .sum();
        assert_eq!(total, Cost::new(6, 4));
    }

    #[test]
    fn add_operator_is_sequential() {
        let mut c = Cost::new(1, 1);
        c += Cost::new(2, 2);
        assert_eq!(c, Cost::new(3, 3));
        assert_eq!(Cost::new(1, 1) + Cost::new(4, 2), Cost::new(5, 3));
    }

    #[test]
    fn charge_accumulates_sequentially() {
        let mut ledger = Charge::ZERO;
        ledger += Charge::exact(Cost::new(10, 4));
        ledger += Charge {
            measured: Cost::new(5, 5),
            bound: Cost::new(12, 5),
        };
        assert_eq!(ledger.measured, Cost::new(15, 9));
        assert_eq!(ledger.bound, Cost::new(22, 9));
    }
}
