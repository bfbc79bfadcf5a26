//! The amortized sequential working-set map M0 (paper Section 5).
//!
//! M0 keeps its items in a list of segments `S[0..l]`, where segment `S[k]`
//! has capacity `2^(2^k)` and every segment is full except perhaps the last.
//! The self-adjustment is *local*: a successful search in `S[k]` moves the
//! item only to the front of `S[k-1]` (not all the way to the front as in
//! Iacono's structure), and the least recent item of `S[k-1]` is shifted back
//! to `S[k]` in exchange.  Theorem 7 shows the total cost still satisfies the
//! working-set bound, via the Working-Set Cost Lemma (Lemma 6); this
//! localisation is what makes the pipelined parallel version M2 possible.

use crate::{segment_capacity, InstrumentedMap};
use wsm_model::Cost;
use wsm_twothree::{cost as tcost, RecencyMap};

/// The amortized sequential working-set map of Section 5.
///
/// Each segment is a [`RecencyMap`] (arena-fused key/recency map).  Every
/// operation returns the analytic cost charged for it; the running total is
/// available through [`InstrumentedMap::total_cost`].
#[derive(Clone, Debug, Default)]
pub struct M0<K, V> {
    segments: Vec<RecencyMap<K, V>>,
    spent: Cost,
}

impl<K: Ord + Clone + Default, V: Clone + Default> M0<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        M0 {
            segments: Vec::new(),
            spent: Cost::ZERO,
        }
    }

    /// Number of items stored.
    pub fn len(&self) -> usize {
        self.segments.iter().map(RecencyMap::len).sum()
    }

    /// True if no items are stored.
    pub fn is_empty(&self) -> bool {
        self.segments.iter().all(RecencyMap::is_empty)
    }

    /// Number of segments currently allocated.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Non-adjusting lookup (does not count as an access and charges no cost);
    /// used by tests to inspect the map.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.segments.iter().find_map(|s| s.get(key))
    }

    /// The index of the segment currently holding `key`, if present.
    pub fn segment_of(&self, key: &K) -> Option<usize> {
        self.segments.iter().position(|s| s.contains(key))
    }

    fn charge(&mut self, c: Cost) {
        self.spent += c;
    }

    /// Searches for `key`.  On success the item is promoted one segment
    /// forward (or to the front of `S[0]`), per Section 5.
    pub fn access(&mut self, key: &K) -> (Option<V>, Cost) {
        let mut cost = Cost::ZERO;
        let mut found_at: Option<usize> = None;
        for (k, seg) in self.segments.iter().enumerate() {
            cost += tcost::single_op(seg.len() as u64, 2);
            if seg.contains(key) {
                found_at = Some(k);
                break;
            }
        }
        let Some(k) = found_at else {
            self.charge(cost);
            return (None, cost);
        };
        let val = self.segments[k].remove(key).expect("item located above");
        if k == 0 {
            // Move to the front of S[0].
            cost += tcost::single_op(self.segments[0].len() as u64, 2);
            self.segments[0].insert_front(key.clone(), val.clone());
        } else {
            // Move to the front of S[k-1]; shift the least recent item of
            // S[k-1] to the front of S[k].
            cost += tcost::single_op(self.segments[k - 1].len() as u64, 2);
            self.segments[k - 1].insert_front(key.clone(), val.clone());
            if self.segments[k - 1].len() as u64 > segment_capacity((k - 1) as u32) {
                let shifted = self.segments[k - 1].take_back(1);
                cost += tcost::transfer(1, self.segments[k - 1].len() as u64 + 1, 2);
                self.segments[k].push_front_batch(shifted);
            }
        }
        self.charge(cost);
        (Some(val), cost)
    }

    /// Inserts an item at the back of the last segment (creating a new
    /// terminal segment if the last one is full).  Replacing an existing key
    /// is treated as an access that also updates the value.
    pub fn insert_item(&mut self, key: K, val: V) -> (Option<V>, Cost) {
        if self.peek(&key).is_some() {
            // Update: access (promotes the item) and overwrite its value.
            let (old, mut cost) = self.access(&key);
            let seg = self
                .segments
                .iter_mut()
                .find(|s| s.contains(&key))
                .expect("item present after successful access");
            if let Some(slot) = seg.get_mut(&key) {
                *slot = val;
            }
            cost += Cost::UNIT;
            self.charge(Cost::UNIT);
            return (old, cost);
        }
        let mut cost = Cost::ZERO;
        if self.segments.is_empty() {
            self.segments.push(RecencyMap::new());
            cost += Cost::UNIT;
        }
        let last = self.segments.len() - 1;
        if self.segments[last].len() as u64 >= segment_capacity(last as u32) {
            self.segments.push(RecencyMap::new());
            cost += Cost::UNIT;
        }
        let last = self.segments.len() - 1;
        cost += tcost::single_op(self.segments[last].len() as u64, 2);
        self.segments[last].insert_back(key, val);
        self.charge(cost);
        (None, cost)
    }

    /// Removes an item.  Holes are refilled by pulling the most recent item of
    /// each later segment to the back of the previous one, per Section 5.
    pub fn remove_item(&mut self, key: &K) -> (Option<V>, Cost) {
        let mut cost = Cost::ZERO;
        let mut found_at: Option<usize> = None;
        for (k, seg) in self.segments.iter().enumerate() {
            cost += tcost::single_op(seg.len() as u64, 2);
            if seg.contains(key) {
                found_at = Some(k);
                break;
            }
        }
        let Some(k) = found_at else {
            self.charge(cost);
            return (None, cost);
        };
        let val = self.segments[k].remove(key);
        // Refill the hole: for i in [k .. l-1], move the most recent item of
        // S[i+1] to the back of S[i].
        let l = self.segments.len();
        for i in k..l.saturating_sub(1) {
            let pulled = self.segments[i + 1].take_front(1);
            cost += tcost::transfer(1, self.segments[i + 1].len() as u64 + 1, 2);
            self.segments[i].push_back_batch(pulled);
        }
        // Drop a now-empty terminal segment.
        while matches!(self.segments.last(), Some(s) if s.is_empty()) {
            self.segments.pop();
        }
        self.charge(cost);
        (val, cost)
    }

    /// Items of the whole map in working-set order (segment order, then
    /// recency within each segment) — the abstract list `R` of the Working-Set
    /// Cost Lemma.  Intended for tests.
    pub fn items_in_working_set_order(&self) -> Vec<K> {
        let mut out = Vec::with_capacity(self.len());
        for seg in &self.segments {
            out.extend(seg.items_in_recency_order().into_iter().map(|(k, _)| k));
        }
        out
    }

    /// Checks the structural invariants of Section 5: every segment except the
    /// last is exactly full, and every segment's key-map, arena and recency
    /// list agree.
    pub fn check_invariants(&self)
    where
        K: std::fmt::Debug,
    {
        for (k, seg) in self.segments.iter().enumerate() {
            seg.check_invariants();
            if k + 1 < self.segments.len() {
                assert_eq!(
                    seg.len() as u64,
                    segment_capacity(k as u32),
                    "segment {k} must be exactly full"
                );
            } else {
                assert!(
                    seg.len() as u64 <= segment_capacity(k as u32),
                    "terminal segment over capacity"
                );
                assert!(!seg.is_empty() || self.segments.len() == 1 || self.segments.is_empty());
            }
        }
    }

    /// Total cost charged so far.
    pub fn total(&self) -> Cost {
        self.spent
    }
}

impl<K: Ord + Clone + Default, V: Clone + Default> InstrumentedMap<K, V> for M0<K, V> {
    fn search(&mut self, key: &K) -> (Option<V>, Cost) {
        self.access(key)
    }
    fn insert(&mut self, key: K, val: V) -> (Option<V>, Cost) {
        self.insert_item(key, val)
    }
    fn remove(&mut self, key: &K) -> (Option<V>, Cost) {
        self.remove_item(key)
    }
    fn len(&self) -> usize {
        M0::len(self)
    }
    fn total_cost(&self) -> Cost {
        self.spent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_search_remove_roundtrip() {
        let mut m = M0::new();
        for i in 0..100u64 {
            let (prev, _) = m.insert_item(i, i * 10);
            assert_eq!(prev, None);
            m.check_invariants();
        }
        assert_eq!(m.len(), 100);
        for i in 0..100u64 {
            let (v, _) = m.access(&i);
            assert_eq!(v, Some(i * 10));
            m.check_invariants();
        }
        for i in (0..100u64).step_by(2) {
            let (v, _) = m.remove_item(&i);
            assert_eq!(v, Some(i * 10));
            m.check_invariants();
        }
        assert_eq!(m.len(), 50);
        let (missing, _) = m.access(&0);
        assert_eq!(missing, None);
    }

    #[test]
    fn update_promotes_and_overwrites() {
        let mut m = M0::new();
        for i in 0..50u64 {
            m.insert_item(i, i);
        }
        let (prev, _) = m.insert_item(7, 700);
        assert_eq!(prev, Some(7));
        assert_eq!(m.peek(&7), Some(&700));
        assert_eq!(m.len(), 50);
        m.check_invariants();
    }

    #[test]
    fn repeated_access_moves_item_forward() {
        let mut m = M0::new();
        for i in 0..1000u64 {
            m.insert_item(i, i);
        }
        // Insertions go to the back of the terminal segment, so a recently
        // inserted item sits in a late segment.
        let before = m.segment_of(&999).unwrap();
        assert!(before >= 2, "expected item 999 deep in the structure");
        // Access it repeatedly: each access moves it exactly one segment
        // forward until it reaches S[0].
        for step in 1..=before {
            m.access(&999);
            m.check_invariants();
            assert_eq!(m.segment_of(&999), Some(before - step));
        }
        assert_eq!(m.segment_of(&999), Some(0));
    }

    #[test]
    fn hot_items_are_cheap_cold_items_expensive() {
        let mut m = M0::new();
        let n = 4096u64;
        for i in 0..n {
            m.insert_item(i, i);
        }
        // Warm up: access item 1 twice so it is at the very front.
        m.access(&1);
        m.access(&1);
        let (_, hot_cost) = m.access(&1);
        // A cold item (inserted late, never accessed) sits in the last
        // segment.
        let (_, cold_cost) = m.access(&(n - 10));
        assert!(
            hot_cost.work * 3 < cold_cost.work,
            "hot access ({}) should be much cheaper than cold access ({})",
            hot_cost.work,
            cold_cost.work
        );
    }

    #[test]
    fn working_set_order_has_accessed_items_first() {
        let mut m = M0::new();
        for i in 0..20u64 {
            m.insert_item(i, i);
        }
        m.access(&15);
        m.access(&17);
        let order = m.items_in_working_set_order();
        // The two accessed items must be within the first segment-capacity
        // positions (segment 0 has capacity 2).
        assert!(order[..2].contains(&15) || order[..4].contains(&15));
        assert!(order[..4].contains(&17));
    }

    #[test]
    fn unsuccessful_search_costs_log_n() {
        let mut m = M0::new();
        for i in 0..(1 << 12) as u64 {
            m.insert_item(i, i);
        }
        let (res, cost) = m.access(&(1 << 20));
        assert_eq!(res, None);
        // Must be O(log n): generously under 40 * log2(n).
        assert!(
            cost.work < 40 * 12,
            "unsuccessful search too expensive: {cost}"
        );
    }

    #[test]
    fn deletion_refills_holes_keeping_segments_full() {
        let mut m = M0::new();
        for i in 0..300u64 {
            m.insert_item(i, i);
        }
        for i in 100..200u64 {
            m.remove_item(&i);
            m.check_invariants();
        }
        assert_eq!(m.len(), 200);
    }

    #[test]
    fn total_cost_accumulates() {
        let mut m = M0::new();
        assert_eq!(m.total(), Cost::ZERO);
        m.insert_item(1u64, 1u64);
        m.insert_item(2, 2);
        m.access(&1);
        assert!(m.total().work > 0);
        assert_eq!(m.total(), InstrumentedMap::total_cost(&m));
    }
}
