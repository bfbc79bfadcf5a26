//! Analytic cost accounting for batched parallel 2-3 tree operations
//! (paper Appendix A.2): worst-case Lemma bounds **and** measured charges.
//!
//! A normal batch operation of `b` item-sorted operations on a tree of `n`
//! items takes `Θ(b · log n)` work and `O(log b + log n)` span.  The
//! instrumented map structures (M0, M1, M2) charge these costs when they
//! touch a segment, which is exactly how the paper's work/span proofs account
//! for segment accesses (Lemma 11, Corollary 17, Lemma 20).
//!
//! # Measured vs worst-case charges
//!
//! The bound functions ([`single_op`], [`batch_op`], [`transfer`]) are the
//! paper's *worst-case* bounds at a given fanout: they charge the full
//! `b · (⌈log n⌉ + 1)` regardless of what the tree actually did.  The log is
//! taken to the base [`min_children`], so at `B = 2` they are exactly the
//! Appendix A.2 closed forms.  The tree layer also counts the nodes it
//! really visits (every node a point operation, the sorted-batch sweep, a
//! bulk build or a collect steps through increments a thread-local counter —
//! see [`metered`]), and the maps charge those **measured** counts through
//! [`single_op_charge`], [`batch_op_charge`] and [`transfer_charge`].
//! Each returns a [`Charge`] carrying both numbers, so the experiments can
//! report the measured-over-bound constant factor, and each debug-asserts the
//! Lemma ceiling `measured ≤ MEASURED_CEILING · bound` — the bound is still
//! the proof obligation, the measurement is what the implementation did.
//!
//! Span is kept at the analytic formula in both cases: the critical path of a
//! batch operation is a model quantity that a sequential execution cannot
//! observe, while the touched-node count is exactly its work.

use std::cell::Cell;
use wsm_model::{ceil_log2, Charge, Cost};

/// Smallest `d` with `base^d >= x` (the fanout-aware analogue of
/// `wsm_model::ceil_log2`, which it equals at `base = 2`; `base >= 2`).
fn ceil_log_base(x: u64, base: u64) -> u64 {
    debug_assert!(base >= 2);
    let mut d = 0u64;
    let mut p = 1u64;
    while p < x {
        p = p.saturating_mul(base);
        d += 1;
    }
    d
}

/// Minimum children per internal node at fanout `B`: `max(2, B/2)` — the
/// (a,b)-tree occupancy floor the arena enforces, and therefore the base of
/// the height logarithm in every bound.
pub fn min_children(fanout: u64) -> u64 {
    (fanout / 2).max(2)
}

/// Cost of a single-item operation (search / insert / delete) on a tree of
/// `n` items at fanout `fanout`: a tree with occupancy floor
/// `min_children(fanout)` has height `<= log_min(n) + O(1)`, so a point
/// operation visits that many nodes — `O(log n + 1)` work and span.
pub fn single_op(n: u64, fanout: u64) -> Cost {
    let steps = ceil_log_base(n + 1, min_children(fanout)) + 1;
    Cost::serial(steps)
}

/// Cost of a normal batch operation of `b` item-sorted operations on a tree of
/// `n` items at fanout `fanout`: `Θ(b log n)` work, `O(log b + log n)` span.
/// The per-item tree walk is `log_min(n)` (height at occupancy floor
/// `min_children(fanout)`), while the batch term of the span stays `log₂ b` —
/// the paper's parallel batch operation halves the batch regardless of node
/// width.
pub fn batch_op(b: u64, n: u64, fanout: u64) -> Cost {
    if b == 0 {
        return Cost::ZERO;
    }
    let logn = ceil_log_base(n + 1, min_children(fanout)) + 1;
    let logb = u64::from(ceil_log2(b + 1)) + 1;
    let span = logb + logn;
    // Work can never be below span (a batch of one small operation still has
    // to walk its own critical path).
    Cost::new((b * logn + b).max(span), span)
}

/// Cost of transferring `k` items between two adjacent segments whose total
/// size is at most `n` (one take + one batch insert on trees of size ≤ n).
pub fn transfer(k: u64, n: u64, fanout: u64) -> Cost {
    batch_op(k, n, fanout).then(batch_op(k, n, fanout))
}

// ---------------------------------------------------------------------------
// Measured charges
// ---------------------------------------------------------------------------

/// Ceiling constant of the Lemma-bound debug assertion: a measured segment
/// operation may touch at most this many times the nodes the corresponding
/// closed-form bound charges, at every fanout.
///
/// Every segment operation drives **one** key-ordered tree (recency-order
/// work is O(1) pointer splices on the intrusive list, metered as one touch
/// per located item), and a batch goes through it in one sweep: the descent
/// accounts for at most `1x` the closed form, and the repair of touched nodes
/// (splits, merges, the list splices) adds a fraction of that.  The largest
/// ratio measured over the randomized suites and the E17/E18 smokes is 1.59
/// (`B = 2`; 1.30 at `B = 8`, 1.29 at `B = 16`), so `3` leaves the customary
/// ~1.5x headroom over the adversarial shapes (wide batches over small
/// trees).  The old two-tree design (key-map plus a stamp-keyed recency
/// tree) needed `4`.
pub const MEASURED_CEILING: u64 = 3;

thread_local! {
    static TOUCHED: Cell<u64> = const { Cell::new(0) };
    static PASSES: Cell<u64> = const { Cell::new(0) };
}

/// Records `n` node visits on the current thread's counter.  Called by the
/// tree layer once per node its operations step through, and by
/// the recency map for every O(1) list splice (so measured charges cover the
/// arena work too).
#[inline]
pub(crate) fn touch(n: u64) {
    TOUCHED.with(|t| t.set(t.get() + n));
}

/// Records one *tree pass*: a root-originating traversal of a [`crate::Tree23`]
/// (a point search/insert/remove, a select, a bulk build, or one
/// sorted-batch sweep, whatever the batch size).  Unlike [`touch`], the pass
/// counter is monotone per thread
/// and is **not** reset by [`metered`] — it exists so experiments (E18) can
/// report tree-passes-per-segment-op across a whole workload: the fused
/// recency map pays one pass where the old two-tree design paid two.
#[inline]
pub(crate) fn pass() {
    PASSES.with(|p| p.set(p.get() + 1));
}

/// The number of tree passes recorded on this thread since the last
/// [`reset_tree_passes`] (monotone otherwise).
pub fn tree_passes() -> u64 {
    PASSES.with(|p| p.get())
}

/// Resets this thread's tree-pass counter to zero.
pub fn reset_tree_passes() {
    PASSES.with(|p| p.set(0));
}

/// Runs `f` and returns its result together with the number of tree nodes it
/// touched on this thread.
///
/// The counter is reset on entry, so diagnostic traversals performed between
/// metered operations (invariant checks, `for_each` scans) never leak into a
/// charge.  Calls must not nest — the maps meter leaf-level tree operations
/// only.  Work handed to other threads (the `par_*` tree variants) is counted
/// on the threads that perform it; the analytic charging paths of the maps
/// are sequential, so their counts are exact.
pub fn metered<T>(f: impl FnOnce() -> T) -> (T, u64) {
    TOUCHED.with(|t| t.set(0));
    let out = f();
    (out, TOUCHED.with(|t| t.replace(0)))
}

/// Builds the measured cost for an operation with analytic bound `bound`:
/// the touched-node count as work (never below the span — even a cheap
/// operation walks its own critical path) and the analytic span.
fn measured_cost(touched: u64, bound: Cost, what: &str) -> Charge {
    debug_assert!(
        touched <= MEASURED_CEILING * bound.work,
        "{what}: measured {touched} touched nodes exceeds the Lemma ceiling \
         {MEASURED_CEILING} x {} (Appendix A.2 bound violated)",
        bound.work
    );
    Charge {
        measured: Cost::new(touched.max(bound.span), bound.span),
        bound,
    }
}

/// Measured charge for a single-item operation on a tree of `n` items at
/// fanout `fanout` (pass the tree's own fanout; `2` gives the closed-form
/// Appendix A.2 reference bound).
pub fn single_op_charge(touched: u64, n: u64, fanout: u64) -> Charge {
    measured_cost(touched, single_op(n, fanout), "single_op")
}

/// Measured charge for a normal batch operation of `b` item-sorted operations
/// on a tree of `n` items at fanout `fanout`.  Zero-size batches are free.
pub fn batch_op_charge(touched: u64, b: u64, n: u64, fanout: u64) -> Charge {
    if b == 0 {
        debug_assert_eq!(touched, 0, "an empty batch touched {touched} nodes");
        return Charge::ZERO;
    }
    measured_cost(touched, batch_op(b, n, fanout), "batch_op")
}

/// Measured charge for transferring `k` items between adjacent segments of
/// total size at most `n`, at fanout `fanout`.
pub fn transfer_charge(touched: u64, k: u64, n: u64, fanout: u64) -> Charge {
    if k == 0 {
        debug_assert_eq!(touched, 0, "an empty transfer touched {touched} nodes");
        return Charge::ZERO;
    }
    measured_cost(touched, transfer(k, n, fanout), "transfer")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RecencyMap;

    #[test]
    fn single_op_is_logarithmic() {
        assert_eq!(single_op(0, 2).work, 1);
        assert_eq!(single_op(1, 2).work, 2);
        assert!(single_op(1 << 20, 2).work >= 20);
        assert!(single_op(1 << 20, 2).work <= 24);
    }

    #[test]
    fn batch_op_work_scales_linearly_in_b() {
        let n = 1 << 16;
        let c1 = batch_op(10, n, 2);
        let c2 = batch_op(1000, n, 2);
        assert!(
            c2.work > 90 * c1.work / 10 * 9 / 10,
            "work should be ~linear in b"
        );
        // Span grows only logarithmically with b.
        assert!(c2.span <= c1.span + 10);
    }

    #[test]
    fn batch_op_zero_is_free() {
        assert_eq!(batch_op(0, 100, 2), Cost::ZERO);
        assert_eq!(batch_op(0, 100, 16), Cost::ZERO);
    }

    #[test]
    fn span_is_sum_of_logs() {
        let c = batch_op(1 << 10, 1 << 20, 2);
        assert!(c.span >= 30 && c.span <= 36, "span {} out of range", c.span);
    }

    #[test]
    fn transfer_is_two_batch_ops() {
        assert_eq!(transfer(8, 100, 2).work, 2 * batch_op(8, 100, 2).work);
        assert_eq!(transfer(8, 100, 16).work, 2 * batch_op(8, 100, 16).work);
    }

    #[test]
    fn fanout_two_bounds_match_the_closed_form() {
        // B = 2 is the analytic reference: its height logarithm is exactly
        // the binary `ceil_log2` of the Appendix A.2 closed forms, so the
        // fanout-parameterized bounds at B = 2 are those closed forms.
        for x in 0..=1u64 << 20 {
            assert_eq!(ceil_log_base(x, 2), u64::from(ceil_log2(x)), "x = {x}");
        }
    }

    #[test]
    fn wider_fanout_shrinks_the_bounds() {
        // The height logarithm changes base from 2 to min_children(B), so
        // both work and span drop as the fanout widens.
        let n = 1 << 16;
        assert!(single_op(n, 16).work < single_op(n, 2).work);
        assert!(batch_op(256, n, 16).work < batch_op(256, n, 2).work);
        assert!(batch_op(256, n, 16).span < batch_op(256, n, 2).span);
        assert!(batch_op(256, n, 8).work > batch_op(256, n, 16).work);
        // Degenerate sizes stay well-formed.
        assert_eq!(batch_op(0, n, 16), Cost::ZERO);
        assert!(batch_op(1, 0, 16).work >= 1);
    }

    #[test]
    fn metered_resets_and_counts() {
        let mut m: RecencyMap<u64, u64> = RecencyMap::new();
        for i in 0..64u64 {
            m.insert_back(i, i);
        }
        // Diagnostic scans between metered sections must not leak in.
        let _ = m.items_in_recency_order();
        let fan = m.fanout() as u64;
        let (_, touched) = metered(|| m.get(&7));
        assert!(touched >= 1, "a lookup touches at least the root path");
        assert!(
            touched <= MEASURED_CEILING * single_op(64, fan).work,
            "lookup touched {touched} nodes"
        );
        let (_, zero) = metered(|| ());
        assert_eq!(zero, 0);
    }

    #[test]
    fn measured_charges_stay_under_lemma_bounds_on_random_batches() {
        // The satellite regression: on random mixed batches the measured
        // touched-node charge never exceeds the Appendix A.2 ceiling, on
        // small and large batches alike.
        let mut state = 0x5EED_CAFE_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Sweep the reference and the wide instantiations: one ceiling must
        // hold for all.
        for fan in [2usize, 8, 16] {
            let mut m: RecencyMap<u64, u64> = RecencyMap::with_fanout(fan);
            let fan = fan as u64;
            let mut present: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
            for round in 0..60 {
                let b = 1 + (next() % 120) as usize;
                let n = m.len() as u64;
                if round % 3 == 2 && !present.is_empty() {
                    // Sorted distinct removals (mix of hits and misses).
                    let mut keys: Vec<u64> = (0..b).map(|_| next() % 4096).collect();
                    keys.sort_unstable();
                    keys.dedup();
                    let (removed, touched) = metered(|| m.remove_batch(&keys));
                    let charge = batch_op_charge(touched, keys.len() as u64, n, fan);
                    assert!(
                        touched <= MEASURED_CEILING * charge.bound.work,
                        "remove_batch b={} n={n} fan={fan}: touched {touched} > ceiling {}",
                        keys.len(),
                        MEASURED_CEILING * charge.bound.work
                    );
                    for (k, r) in keys.iter().zip(removed) {
                        if r.is_some() {
                            present.remove(k);
                        }
                    }
                } else {
                    // Fresh distinct inserts (the maps remove before re-insert).
                    let mut items: Vec<(u64, u64)> = Vec::new();
                    for _ in 0..b {
                        let k = next() % 4096;
                        if present.insert(k) {
                            items.push((k, k));
                        }
                    }
                    let len = items.len() as u64;
                    let (_, touched) = metered(|| m.push_front_batch(items));
                    // Insert bound on the final size, as the maps charge it.
                    let charge = batch_op_charge(touched, len, n + len, fan);
                    assert!(
                        touched <= MEASURED_CEILING * charge.bound.work,
                        "push_front_batch b={len} n={n} fan={fan}: touched {touched}"
                    );
                }
                // Transfers: pop a random count off one end and re-insert.
                let k = (next() % 40) as usize;
                let larger = m.len() as u64;
                let (moved, touched) = metered(|| m.take_back(k.min(m.len())));
                let moved_len = moved.len();
                for (key, _) in &moved {
                    present.remove(key);
                }
                let charge = transfer_charge(touched, moved_len as u64, larger, fan);
                assert!(
                    touched <= MEASURED_CEILING * charge.bound.work || moved_len == 0,
                    "pop_back k={moved_len} n={larger} fan={fan}: touched {touched}"
                );
                for (key, _) in moved {
                    if present.insert(key) {
                        m.insert_back(key, key);
                    }
                }
            }
            m.check_invariants();
        }
    }

    #[test]
    fn measured_charge_is_below_bound_in_practice() {
        // The whole point of the split: on realistic trees the measured work
        // is strictly below the worst-case charge, not just below the
        // ceiling.
        let mut m: RecencyMap<u64, u64> = RecencyMap::new();
        let items: Vec<(u64, u64)> = (0..1024u64).map(|i| (i, i)).collect();
        m.push_back_batch(items);
        let keys: Vec<u64> = (0..64u64).collect();
        let (_, touched) = metered(|| m.remove_batch(&keys));
        let bound = batch_op(64, 1024, m.fanout() as u64).work;
        assert!(
            touched < bound,
            "measured {touched} should beat the worst-case bound {bound}"
        );
    }

    #[test]
    fn wide_fanout_touches_strictly_fewer_nodes_than_the_reference() {
        // The fanout satellite regression (the `fused_ops_touch_strictly_
        // fewer_nodes` pattern applied to B): at paper-shaped sizes the wide
        // instantiation must visit strictly fewer tree nodes than the B = 2
        // reference for point, batch and transfer shapes alike.
        use crate::Tree23;
        let build = |fan: usize| {
            Tree23::from_sorted_with_fanout((0..4096u64).map(|i| (i, i)).collect(), fan)
        };
        let point = |fan: usize| {
            let t = build(fan);
            metered(|| {
                for i in 0..64u64 {
                    std::hint::black_box(t.get(&(i * 64)));
                }
            })
            .1
        };
        let batch = |fan: usize| {
            let mut t = build(fan);
            let keys: Vec<u64> = (0..64u64).map(|i| i * 64).collect();
            metered(|| t.batch_remove(&keys)).1
        };
        let transfer_shape = |fan: usize| {
            let mut m: RecencyMap<u64, u64> = RecencyMap::with_fanout(fan);
            m.push_back_batch((0..512u64).map(|i| (i, i)).collect());
            let mut dst: RecencyMap<u64, u64> = RecencyMap::with_fanout(fan);
            dst.push_back_batch((1000..1256u64).map(|i| (i, i)).collect());
            metered(|| {
                let moved = m.take_back(64);
                dst.push_front_batch(moved);
            })
            .1
        };
        for (what, measure) in [
            ("point gets", &point as &dyn Fn(usize) -> u64),
            ("batch remove", &batch),
            ("transfer", &transfer_shape),
        ] {
            let narrow = measure(2);
            let wide = measure(16);
            assert!(
                wide < narrow,
                "{what}: B=16 touched {wide} nodes, should be strictly below B=2's {narrow}"
            );
        }
    }
}
