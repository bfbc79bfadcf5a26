//! Workload analysis: working-set bound, entropy and static-optimal tree cost.
//!
//! The static-optimality corollary mentioned in the paper's abstract says the
//! total work of the working-set maps is bounded by the access cost of an
//! *optimal static* binary search tree built with full knowledge of the access
//! frequencies.  [`optimal_static_bst_cost`] computes a sharp lower-bound
//! proxy for that cost from the access frequencies (the entropy lower bound
//! `N·H` plus one comparison per access, which every static comparison tree
//! must pay), and [`static_tree_cost_for`] computes the exact cost of the
//! weight-balanced static tree built from the observed frequencies.

use std::collections::BTreeMap;
use wsm_model::{sequence_entropy, working_set_bound, MapOpKind};

/// Summary statistics of a workload, for the harness output.
#[derive(Clone, Debug)]
pub struct WorkloadReport {
    /// Number of operations.
    pub operations: usize,
    /// Number of distinct keys accessed.
    pub distinct_keys: usize,
    /// The working-set bound `W_L`.
    pub working_set_bound: u64,
    /// Entropy (bits) of the access-frequency distribution.
    pub entropy: f64,
    /// Cost of the optimal static BST (entropy lower-bound proxy).
    pub static_optimal_cost: f64,
}

/// Analyses an operation sequence.
pub fn report<K: Ord + Clone>(ops: &[MapOpKind<K>]) -> WorkloadReport {
    let keys: Vec<&K> = ops.iter().map(MapOpKind::key).collect();
    let distinct: BTreeMap<&K, u64> = keys.iter().fold(BTreeMap::new(), |mut m, k| {
        *m.entry(*k).or_insert(0) += 1;
        m
    });
    let entropy = sequence_entropy(&keys);
    WorkloadReport {
        operations: ops.len(),
        distinct_keys: distinct.len(),
        working_set_bound: working_set_bound(ops),
        entropy,
        static_optimal_cost: optimal_static_bst_cost(&keys),
    }
}

/// Lower-bound proxy for the cost of the optimal static BST on this access
/// sequence: `N · (H + 1)` comparisons, where `H` is the entropy of the access
/// frequencies.  Any static comparison tree costs at least this much (up to
/// constant factors), and the classical `H + 2` upper bound means it is tight.
pub fn optimal_static_bst_cost<K: Ord>(accesses: &[K]) -> f64 {
    accesses.len() as f64 * (sequence_entropy(accesses) + 1.0)
}

/// Exact total access cost of the *weight-balanced* static tree built from the
/// observed frequencies (a 2-approximation of the optimal static BST): each
/// access to key `k` costs the depth of `k` in that tree.
pub fn static_tree_cost_for<K: Ord + Clone>(accesses: &[K]) -> u64 {
    if accesses.is_empty() {
        return 0;
    }
    let mut freq: BTreeMap<K, u64> = BTreeMap::new();
    for a in accesses {
        *freq.entry(a.clone()).or_insert(0) += 1;
    }
    let items: Vec<(K, u64)> = freq.into_iter().collect();
    let mut depth: BTreeMap<K, u64> = BTreeMap::new();
    assign_depths(&items, 1, &mut depth);
    accesses.iter().map(|a| depth[a]).sum()
}

/// Recursively splits the frequency-sorted key range at the weighted median,
/// assigning each key the depth at which it becomes a subtree root.
fn assign_depths<K: Ord + Clone>(items: &[(K, u64)], depth: u64, out: &mut BTreeMap<K, u64>) {
    if items.is_empty() {
        return;
    }
    let total: u64 = items.iter().map(|(_, f)| f).sum();
    // Weighted median: the first index where the prefix weight reaches half.
    let mut acc = 0u64;
    let mut root = items.len() - 1;
    for (i, (_, f)) in items.iter().enumerate() {
        acc += f;
        if acc * 2 >= total {
            root = i;
            break;
        }
    }
    out.insert(items[root].0.clone(), depth);
    assign_depths(&items[..root], depth + 1, out);
    assign_depths(&items[root + 1..], depth + 1, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_tree_cost_single_key() {
        let accesses = vec![5u64; 100];
        // One key: depth 1, so cost = 100.
        assert_eq!(static_tree_cost_for(&accesses), 100);
    }

    #[test]
    fn static_tree_favours_frequent_keys() {
        // Key 0 accessed 1000 times, keys 1..=15 accessed once each: key 0
        // must sit near the root, so the total cost is close to the number of
        // accesses.
        let mut accesses = vec![0u64; 1000];
        accesses.extend(1..16u64);
        let cost = static_tree_cost_for(&accesses);
        assert!(cost < 2 * 1000 + 16 * 6, "cost {cost} too high");
        // A balanced tree over 16 keys has depth ~5, so a frequency-oblivious
        // tree would pay ~4000.
        assert!(cost < 3500);
    }

    #[test]
    fn static_tree_cost_uniform_matches_log() {
        let accesses: Vec<u64> = (0..1024u64).collect();
        let cost = static_tree_cost_for(&accesses);
        // Uniform frequencies: average depth ~ log2(1024) = 10 (within a
        // factor of ~1.5 for the weighted-median construction).
        let avg = cost as f64 / 1024.0;
        assert!((8.0..=16.0).contains(&avg), "average depth {avg}");
    }

    #[test]
    fn report_summarises_sequence() {
        let ops: Vec<MapOpKind<u64>> = (0..64)
            .map(MapOpKind::Insert)
            .chain((0..64).map(|_| MapOpKind::Search(0)))
            .collect();
        let r = report(&ops);
        assert_eq!(r.operations, 128);
        assert_eq!(r.distinct_keys, 64);
        assert!(r.working_set_bound > 0);
        assert!(r.entropy > 0.0);
        assert!(r.static_optimal_cost > 0.0);
    }

    #[test]
    fn optimal_static_cost_is_entropy_scaled() {
        let skewed = vec![1u64; 1000];
        let uniform: Vec<u64> = (0..1000).collect();
        assert!(optimal_static_bst_cost(&skewed) < optimal_static_bst_cost(&uniform));
    }
}
