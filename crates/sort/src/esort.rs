//! Sequential entropy sort ESort (paper Definition 29, Theorem 30).
//!
//! ESort sorts a sequence by inserting its items into a working-set dictionary
//! (Iacono's structure), tagging each distinct item with the list of its
//! positions, then collecting each segment of the dictionary in sorted order
//! and merging the segment lists in order of increasing capacity.  Duplicates
//! of an item only pay `O(1)` amortised after the first occurrence (they hit
//! the front of the dictionary), so the total time is `Θ(IW_L) ⊆ O(nH + n)` —
//! the entropy bound (Theorem 30), which is also a lower bound for any
//! comparison sort (Theorem 28 / Theorem 31).

use wsm_model::Cost;
use wsm_seq::IaconoMap;

/// Sorts `items`, returning the fully expanded sorted sequence (duplicates
/// adjacent, in their original relative order) and the analytic cost.
pub fn esort<K: Ord + Clone + Default>(items: &[K]) -> (Vec<K>, Cost) {
    let (groups, cost) = esort_group(items);
    let mut out = Vec::with_capacity(items.len());
    for (key, positions) in groups {
        out.extend(std::iter::repeat_n(key, positions.len()));
    }
    (out, cost)
}

/// Sorts the indices of `items` by item value and groups duplicates: returns
/// `(item, positions)` pairs in ascending item order, where `positions` lists
/// the occurrences of that item in arrival order.  The cost is dominated by
/// the working-set dictionary accesses (`Θ(IW_L)`).
pub fn esort_group<K: Ord + Clone + Default>(items: &[K]) -> (Vec<(K, Vec<usize>)>, Cost) {
    // The dictionary D of Definition 29: a working-set structure whose values
    // are the tag lists of positions.
    let mut dict: IaconoMap<K, Vec<usize>> = IaconoMap::new();
    let mut cost = Cost::ZERO;
    for (pos, item) in items.iter().enumerate() {
        let (found, c) = dict.access(item);
        cost += c;
        if found.is_none() {
            let (_, c) = dict.insert_item(item.clone(), Vec::new());
            cost += c;
        }
        dict.peek_mut(item)
            .expect("item present after access/insert")
            .push(pos);
        cost += Cost::UNIT;
    }

    // Collect each dictionary tree in sorted order and merge them in order of
    // increasing capacity.  Each tree is at least (quadratically) larger than
    // the previous, so the merges cost O(u) in total.
    let mut merged: Vec<(K, Vec<usize>)> = Vec::new();
    for tree in dict.trees_items_sorted() {
        merged = merge_sorted(merged, tree);
    }
    cost += Cost::flat(merged.len() as u64 + items.len() as u64);
    (merged, cost)
}

fn merge_sorted<K: Ord, V>(a: Vec<(K, V)>, b: Vec<(K, V)>) -> Vec<(K, V)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let mut a = a.into_iter().peekable();
    let mut b = b.into_iter().peekable();
    loop {
        match (a.peek(), b.peek()) {
            (Some(x), Some(y)) => {
                if x.0 <= y.0 {
                    out.push(a.next().expect("peeked"));
                } else {
                    out.push(b.next().expect("peeked"));
                }
            }
            (Some(_), None) => out.push(a.next().expect("peeked")),
            (None, Some(_)) => out.push(b.next().expect("peeked")),
            (None, None) => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsm_model::{entropy_bound, insert_working_set_bound};

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn sorts_correctly() {
        let mut state = 11;
        for n in [0usize, 1, 5, 100, 2000] {
            let items: Vec<u64> = (0..n).map(|_| xorshift(&mut state) % 64).collect();
            let mut expected = items.clone();
            expected.sort();
            let (got, _) = esort(&items);
            assert_eq!(got, expected, "n={n}");
        }
    }

    #[test]
    fn groups_list_positions_in_arrival_order() {
        let items = vec![9u64, 2, 9, 9, 4, 2];
        let (groups, _) = esort_group(&items);
        assert_eq!(
            groups,
            vec![(2, vec![1, 5]), (4, vec![4]), (9, vec![0, 2, 3])]
        );
    }

    #[test]
    fn cost_matches_insert_working_set_bound_shape() {
        // Theorem 30: ESort takes Θ(IW_L) steps.  Check the measured cost is
        // within a constant factor of IW_L on both skewed and uniform inputs.
        let mut state = 13;
        let n = 4000usize;
        let skewed: Vec<u64> = (0..n)
            .map(|_| {
                if xorshift(&mut state) % 10 < 9 {
                    xorshift(&mut state) % 4
                } else {
                    xorshift(&mut state) % 1000
                }
            })
            .collect();
        let uniform: Vec<u64> = (0..n).map(|_| xorshift(&mut state)).collect();
        for items in [skewed, uniform] {
            let (_, cost) = esort(&items);
            let iw = insert_working_set_bound(&items) as f64;
            let ratio = cost.work as f64 / iw.max(1.0);
            assert!(
                ratio < 40.0,
                "ESort work {} not within constant factor of IW_L {}",
                cost.work,
                iw
            );
        }
    }

    #[test]
    fn low_entropy_inputs_are_cheap() {
        let n = 10_000usize;
        let mut state = 21;
        let constant: Vec<u64> = vec![3; n];
        let uniform: Vec<u64> = (0..n).map(|_| xorshift(&mut state)).collect();
        let (_, c_const) = esort(&constant);
        let (_, c_uniform) = esort(&uniform);
        assert!(
            c_const.work * 3 < c_uniform.work,
            "constant input {} should be much cheaper than uniform {}",
            c_const.work,
            c_uniform.work
        );
        assert!((c_const.work as f64) < 30.0 * entropy_bound(&constant) + 200.0);
    }

    #[test]
    fn esort_and_std_sort_agree_on_adversarial_patterns() {
        let saw: Vec<u64> = (0..512u64).map(|i| i % 7).collect();
        let organ: Vec<u64> = (0..256u64).chain((0..256u64).rev()).collect();
        for items in [saw, organ] {
            let mut expected = items.clone();
            expected.sort();
            assert_eq!(esort(&items).0, expected);
        }
    }
}
