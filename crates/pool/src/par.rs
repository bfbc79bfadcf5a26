//! `par_map`, a data-parallel map over [`crate::join`].  Kept only because
//! the benchmark's `pool.*` probes call it; it goes with the next change to
//! the benchmark.

/// Maps `f` over every element of `items`, preserving order.  The slice is
/// halved through [`crate::join`] while the fork budget allows a fork; each
/// half below that is mapped sequentially.
///
/// `f` takes references tied to the input slice's lifetime, so results may
/// borrow from long-lived data reachable through the elements (as
/// `par_iter().map(|k| tree.get(k))` does).
pub fn par_map<'a, T, R, F>(items: &'a [T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    map_rec(items, &f)
}

fn map_rec<'a, T, R, F>(items: &'a [T], f: &F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    if items.len() < 2 || crate::budget() < 2 {
        return items.iter().map(f).collect();
    }
    let (left, right) = items.split_at(items.len() / 2);
    let (mut left, right) = crate::join(|| map_rec(left, f), || map_rec(right, f));
    left.extend(right);
    left
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_sequential_map() {
        let input: Vec<u64> = (0..10_000).collect();
        let expected: Vec<u64> = input.iter().map(|x| x * 3 + 1).collect();
        for n in [1, 2, 4] {
            let got = crate::with_threads(n, || par_map(&input, |x| x * 3 + 1));
            assert_eq!(got, expected, "budget {n}");
        }
    }

    #[test]
    fn par_map_empty_and_tiny() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |x| *x).is_empty());
        assert_eq!(par_map(&[7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_results_can_borrow_input_context() {
        let data: Vec<String> = (0..100).map(|i| i.to_string()).collect();
        let lens: Vec<(usize, &str)> = par_map(&data, |s| (s.len(), s.as_str()));
        assert_eq!(lens.len(), 100);
        assert_eq!(lens[42], (2, "42"));
    }
}
