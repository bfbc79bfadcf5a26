//! Slice helpers: `par_map` and `par_chunks`, the data-parallel layer over
//! [`crate::join`].
//!
//! Both are plain `join` recursions over slice halves with an automatic grain
//! size (a few tasks per worker), so they inherit the pool's work-stealing
//! load balance without any per-element task overhead.

/// Grain size: aim for ~4 leaf tasks per worker, never below 1 element.
fn grain_for(len: usize) -> usize {
    let tasks = 4 * crate::current_num_threads();
    len.div_ceil(tasks.max(1)).max(1)
}

/// Maps `f` over every element of `items` in parallel, preserving order.
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
    map_rec(items, &f, grain_for(items.len()))
}

fn map_rec<'a, T, R, F>(items: &'a [T], f: &F, grain: usize) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    if items.len() <= grain {
        return items.iter().map(f).collect();
    }
    let mid = items.len() / 2;
    let (left, right) = items.split_at(mid);
    let (mut left, right) = crate::join(|| map_rec(left, f, grain), || map_rec(right, f, grain));
    left.extend(right);
    left
}

/// Applies `f` to consecutive chunks of `chunk_size` elements in parallel,
/// returning one result per chunk in order.  The final chunk may be shorter.
///
/// # Panics
/// Panics if `chunk_size` is zero.
pub fn par_chunks<'a, T, R, F>(items: &'a [T], chunk_size: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&'a [T]) -> R + Sync,
{
    assert!(chunk_size > 0, "par_chunks requires a nonzero chunk size");
    let chunks: Vec<&'a [T]> = items.chunks(chunk_size).collect();
    par_map(&chunks, |chunk| f(chunk))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_sequential_map() {
        let input: Vec<u64> = (0..10_000).collect();
        let expected: Vec<u64> = input.iter().map(|x| x * 3 + 1).collect();
        assert_eq!(par_map(&input, |x| x * 3 + 1), expected);
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

    #[test]
    fn par_chunks_sums() {
        let input: Vec<u64> = (0..1000).collect();
        let sums = par_chunks(&input, 64, |c| c.iter().sum::<u64>());
        assert_eq!(sums.len(), input.len().div_ceil(64));
        assert_eq!(sums.iter().sum::<u64>(), input.iter().sum::<u64>());
        // Order is preserved: first chunk is 0..64.
        assert_eq!(sums[0], (0..64).sum::<u64>());
    }

    #[test]
    #[should_panic(expected = "nonzero chunk size")]
    fn par_chunks_rejects_zero() {
        let _ = par_chunks(&[1u8], 0, |c| c.len());
    }
}
