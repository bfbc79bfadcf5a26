//! Result checking and failure accounting.
//!
//! Every result a workload receives is compared with what a private model of
//! the caller's own keys says it must be.  Callers own disjoint keys (see
//! [`crate::spec::Stream`]), so the model is exact without any locking.

use std::collections::HashMap;

use wsm_core::{OpResult, Operation};

use crate::spec::{value_of, CALLERS};

/// Operations checked and operations whose result was wrong.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Wrong results over results checked.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The expected contents of one caller's keys.
pub enum Oracle {
    /// No operation writes: every key holds its preloaded value for ever.
    ReadOnly,
    /// The caller's keys, updated with every operation it issues.
    Tracking(HashMap<u64, u64>),
}

impl Oracle {
    /// The model of caller `caller`'s keys right after the preload of `keys`
    /// keys.  `writes` selects the tracking model.
    pub fn after_preload(keys: u64, caller: usize, writes: bool) -> Oracle {
        if !writes {
            return Oracle::ReadOnly;
        }
        Oracle::Tracking(
            (caller as u64..keys)
                .step_by(CALLERS)
                .map(|k| (k, value_of(k)))
                .collect(),
        )
    }

    /// What the caller's key `key` holds now.
    pub fn expected(&self, key: u64) -> Option<u64> {
        match self {
            Oracle::ReadOnly => Some(value_of(key)),
            Oracle::Tracking(model) => model.get(&key).copied(),
        }
    }

    /// Applies `ops` to the model in order — same-key operations of one
    /// request take effect in request order, as the map promises — and counts
    /// every result that differs.  A result vector of the wrong length fails
    /// the whole request.
    pub fn check(
        &mut self,
        ops: &[Operation<u64, u64>],
        results: &[OpResult<u64>],
        tally: &mut Tally,
    ) {
        tally.attempted += ops.len() as u64;
        if results.len() != ops.len() {
            tally.failed += ops.len() as u64;
            return;
        }
        for (op, got) in ops.iter().zip(results) {
            let before = self.expected(*op.key());
            let want = match op {
                Operation::Search(_) => OpResult::Search(before),
                Operation::Insert(..) => OpResult::Insert(before),
                Operation::Delete(_) => OpResult::Delete(before),
            };
            if let Oracle::Tracking(model) = self {
                match op {
                    Operation::Search(_) => {}
                    Operation::Insert(k, v) => {
                        model.insert(*k, *v);
                    }
                    Operation::Delete(k) => {
                        model.remove(k);
                    }
                }
            }
            if *got != want {
                tally.failed += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_result_is_counted_as_a_failure() {
        for writes in [false, true] {
            let mut oracle = Oracle::after_preload(1024, 0, writes);
            let ops = vec![Operation::Search(4), Operation::Search(6)];
            let mut tally = Tally::default();
            let good = vec![
                OpResult::Search(Some(value_of(4))),
                OpResult::Search(Some(value_of(6))),
            ];
            oracle.check(&ops, &good, &mut tally);
            assert_eq!(tally.failed_share(), 0.0);

            let corrupted = vec![
                OpResult::Search(Some(value_of(4))),
                OpResult::Search(Some(value_of(6) ^ 1)),
            ];
            oracle.check(&ops, &corrupted, &mut tally);
            assert_eq!((tally.attempted, tally.failed), (4, 1));
            assert!(tally.failed_share() > 0.0);

            // A short result vector fails every operation of the request.
            oracle.check(&ops, &good[..1], &mut tally);
            assert_eq!((tally.attempted, tally.failed), (6, 3));
        }
    }

    #[test]
    fn same_key_operations_apply_in_request_order() {
        let mut oracle = Oracle::after_preload(1024, 1, true);
        let ops = vec![
            Operation::Delete(3),
            Operation::Search(3),
            Operation::Insert(3, 77),
            Operation::Insert(3, 78),
            Operation::Search(3),
        ];
        let results = vec![
            OpResult::Delete(Some(value_of(3))),
            OpResult::Search(None),
            OpResult::Insert(None),
            OpResult::Insert(Some(77)),
            OpResult::Search(Some(78)),
        ];
        let mut tally = Tally::default();
        oracle.check(&ops, &results, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (5, 0));
        assert_eq!(oracle.expected(3), Some(78));

        // The wrong kind of result is a failure even with the right value.
        oracle.check(
            &[Operation::Search(3)],
            &[OpResult::Insert(Some(78))],
            &mut tally,
        );
        assert_eq!(tally.failed, 1);
    }
}
