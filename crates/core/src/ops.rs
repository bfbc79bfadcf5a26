//! Map operations, group-operations and result types shared by M1 and M2.
//!
//! A *group-operation* (Section 6.1) is the combination of every operation of
//! a batch that touches the same item: the group is treated as one operation
//! whose effect is that of applying its members in order.  Combining is what
//! lets a batch of `b` searches for one hot item cost `O(log n + b)` instead
//! of `Ω(b log n)` (Section 3).

use wsm_model::Cost;

/// Identifier that ties a result back to the call that produced it.
pub type OpId = u64;

/// A map operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Operation<K, V> {
    /// Search for (access) a key.
    Search(K),
    /// Insert or update a key.
    Insert(K, V),
    /// Delete a key.
    Delete(K),
}

impl<K, V> Operation<K, V> {
    /// The key this operation touches.
    pub fn key(&self) -> &K {
        match self {
            Operation::Search(k) | Operation::Insert(k, _) | Operation::Delete(k) => k,
        }
    }

    /// True for searches.
    pub fn is_search(&self) -> bool {
        matches!(self, Operation::Search(_))
    }
}

/// The result of a map operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpResult<V> {
    /// Result of a search: the value if the key was present.
    Search(Option<V>),
    /// Result of an insert: the previously stored value, if any.
    Insert(Option<V>),
    /// Result of a delete: the removed value, if any.
    Delete(Option<V>),
}

impl<V> OpResult<V> {
    /// The value carried by the result, whatever the operation kind.
    pub fn value(&self) -> Option<&V> {
        match self {
            OpResult::Search(v) | OpResult::Insert(v) | OpResult::Delete(v) => v.as_ref(),
        }
    }

    /// Collapses the result to its carried value, whatever the operation
    /// kind.
    pub fn into_value(self) -> Option<V> {
        match self {
            OpResult::Search(v) | OpResult::Insert(v) | OpResult::Delete(v) => v,
        }
    }

    /// True if the operation found / affected an existing item.
    pub fn was_present(&self) -> bool {
        self.value().is_some()
    }
}

/// An operation tagged with the identifier of its originating call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaggedOp<K, V> {
    /// Identifier used to route the result back to the caller.
    pub id: OpId,
    /// The operation itself.
    pub op: Operation<K, V>,
}

/// A group-operation: every operation of one batch that touches `key`, in
/// arrival order.
#[derive(Clone, Debug)]
pub struct GroupOp<K, V> {
    /// The common key.
    pub key: K,
    /// The member operations in their original (linearization) order.
    pub ops: Vec<TaggedOp<K, V>>,
}

impl<K: Clone, V: Clone> GroupOp<K, V> {
    /// Number of member operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the group has no member operations (never produced by the
    /// batching pipeline, but kept total for safety).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// True if every member is a search (the group cannot change the map).
    pub fn is_read_only(&self) -> bool {
        self.ops.iter().all(|t| t.op.is_search())
    }

    /// Resolves the whole group given the value currently stored under the
    /// key (`None` if absent): appends one result per member operation to
    /// `results` and returns the final value the map should hold for the key
    /// (`None` = absent).
    ///
    /// This is the "single operation with the same effect as the whole group
    /// of operations in the given order" of Section 6.1.
    pub fn resolve_into(
        &self,
        current: Option<V>,
        results: &mut Vec<(OpId, OpResult<V>)>,
    ) -> Option<V> {
        let mut state = current;
        for tagged in &self.ops {
            let result = match &tagged.op {
                Operation::Search(_) => OpResult::Search(state.clone()),
                Operation::Insert(_, v) => OpResult::Insert(state.replace(v.clone())),
                Operation::Delete(_) => OpResult::Delete(state.take()),
            };
            results.push((tagged.id, result));
        }
        state
    }
}

/// A map that consumes whole batches of tagged operations.
///
/// Both M1 and M2 implement this; the concurrent front-end
/// ([`crate::ConcurrentMap`]) and the experiment harness are written against
/// it.  The returned results may be in any order (they are routed by
/// [`OpId`]); the cost is the effective work/span charged for the batch.
pub trait BatchedMap<K, V> {
    /// Executes a batch of operations, returning the per-call results and the
    /// effective cost charged for the batch.
    fn run_batch(&mut self, batch: Vec<TaggedOp<K, V>>) -> (Vec<(OpId, OpResult<V>)>, Cost);

    /// Number of items currently stored.
    fn len(&self) -> usize;

    /// True if the map is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total effective work charged since construction.
    fn effective_work(&self) -> u64;

    /// Total effective span charged since construction.
    fn effective_span(&self) -> u64;

    /// Number of background maintenance runs executed since construction.
    /// Defaults to 0: only maps with a dedicated maintenance cascade (M2's
    /// token-free hole-refill runs) override this.  Exposed on the trait so
    /// generic front-ends (`ConcurrentMap`, the `wsm-shard` router's
    /// per-shard stats) can report it without knowing the concrete map.
    fn maintenance_runs(&self) -> u64 {
        0
    }
}

/// `M1::run_ops` / `M2::run_ops`: tags `ops` with consecutive identifiers
/// from `base` (the map's next free one), runs them as one input batch and
/// returns the results in operation order.  Results of operations staged
/// before the call carry smaller identifiers and are skipped.
pub(crate) fn run_ops<K, V, M: BatchedMap<K, V>>(
    map: &mut M,
    base: OpId,
    ops: Vec<Operation<K, V>>,
) -> Vec<OpResult<V>> {
    let n = ops.len();
    let batch = (base..).zip(ops).map(|(id, op)| TaggedOp { id, op });
    let (tagged, _) = map.run_batch(batch.collect());
    let mut results: Vec<Option<OpResult<V>>> = (0..n).map(|_| None).collect();
    for (id, r) in tagged {
        if let Some(slot) = id
            .checked_sub(base)
            .and_then(|i| results.get_mut(i as usize))
        {
            *slot = Some(r);
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("every operation produces a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(ops: Vec<Operation<u64, u64>>) -> GroupOp<u64, u64> {
        GroupOp {
            key: *ops[0].key(),
            ops: ops
                .into_iter()
                .enumerate()
                .map(|(i, op)| TaggedOp { id: i as OpId, op })
                .collect(),
        }
    }

    #[test]
    fn resolve_search_only_group() {
        let g = group(vec![Operation::Search(5), Operation::Search(5)]);
        let mut results = Vec::new();
        let fin = g.resolve_into(Some(7), &mut results);
        assert_eq!(fin, Some(7));
        assert!(results
            .iter()
            .all(|(_, r)| matches!(r, OpResult::Search(Some(7)))));
        let fin = g.resolve_into(None, &mut results);
        assert_eq!(fin, None);
        assert!(results[2..]
            .iter()
            .all(|(_, r)| matches!(r, OpResult::Search(None))));
        assert!(g.is_read_only());
    }

    #[test]
    fn resolve_insert_then_search() {
        let g = group(vec![Operation::Insert(3, 30), Operation::Search(3)]);
        let mut results = Vec::new();
        let fin = g.resolve_into(None, &mut results);
        assert_eq!(fin, Some(30));
        assert_eq!(results[0].1, OpResult::Insert(None));
        assert_eq!(results[1].1, OpResult::Search(Some(30)));
    }

    #[test]
    fn resolve_delete_then_insert() {
        let g = group(vec![
            Operation::Delete(3),
            Operation::Search(3),
            Operation::Insert(3, 99),
        ]);
        let mut results = Vec::new();
        let fin = g.resolve_into(Some(1), &mut results);
        assert_eq!(fin, Some(99));
        assert_eq!(results[0].1, OpResult::Delete(Some(1)));
        assert_eq!(results[1].1, OpResult::Search(None));
        assert_eq!(results[2].1, OpResult::Insert(None));
    }

    #[test]
    fn resolve_net_delete() {
        let g = group(vec![Operation::Insert(3, 1), Operation::Delete(3)]);
        assert_eq!(g.resolve_into(Some(0), &mut Vec::new()), None);
    }

    #[test]
    fn op_result_accessors() {
        let r: OpResult<u64> = OpResult::Search(Some(4));
        assert!(r.was_present());
        assert_eq!(r.value(), Some(&4));
        assert_eq!(r.into_value(), Some(4));
        let r: OpResult<u64> = OpResult::Delete(None);
        assert!(!r.was_present());
        assert_eq!(r.into_value(), None);
    }
}
