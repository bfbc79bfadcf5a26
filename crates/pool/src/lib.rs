//! # wsm-pool — fork-join on scoped threads
//!
//! PESort's fork ([`join`], at 2 048 keys and above) is the one production
//! caller.  The paper's span and work bounds are computed analytically, so
//! which thread runs a branch never changes a `Cost`; the fork only buys
//! wall-clock time on large sorts (E15).
//!
//! * [`join`] — runs two closures, the second on a scoped thread while the
//!   calling thread has a fork budget of at least 2.  Closures may borrow
//!   the caller's stack.
//! * [`with_threads`] — runs a closure under a fork budget of `n` threads:
//!   however deeply its joins nest, at most `n` of their leaves run at once.
//!   A thread outside any `with_threads` has the machine's available
//!   parallelism.  E15 and `harness --threads` set the budget this way.
//! * [`par_map`] and [`run`] — kept only because the benchmark's `pool.*`
//!   probes call them; they go with the next change to the benchmark.
//!
//! A fork spawns an OS thread, so a branch that blocks (on a map's doorbell,
//! say) starves nobody.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod par;

pub use par::par_map;

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::OnceLock;
use std::thread;

thread_local! {
    /// The fork budget set by [`with_threads`] on this thread, if any.
    static BUDGET: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The calling thread's fork budget: its [`with_threads`] count, or the
/// machine's available parallelism (read once per process).
fn budget() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    BUDGET.with(Cell::get).unwrap_or_else(|| {
        *DEFAULT.get_or_init(|| thread::available_parallelism().map_or(1, usize::from))
    })
}

/// Runs `f` with a fork budget of `num_threads` (at least 1) and returns its
/// result: every [`join`] inside `f`, however deeply nested, runs at most
/// `num_threads` leaves at once.  The previous budget is restored when `f`
/// returns or unwinds.
pub fn with_threads<F, R>(num_threads: usize, f: F) -> R
where
    F: FnOnce() -> R,
{
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            BUDGET.with(|budget| budget.set(self.0));
        }
    }
    let _restore = Restore(BUDGET.with(|budget| budget.replace(Some(num_threads.max(1)))));
    f()
}

/// Runs `f` on the calling thread.  Kept only because the benchmark's
/// `pool.*` probes still call it; it goes with the next change to the
/// benchmark.
pub fn run<F, R>(f: F) -> R
where
    F: FnOnce() -> R,
{
    f()
}

/// Runs both closures, in parallel while the fork budget allows, and returns
/// both results.
///
/// With a budget of at least 2, `oper_b` runs on a scoped thread under half
/// the budget (rounded down) and `oper_a` runs on the caller under the rest.
/// Below that, both run inline, `oper_a` first.  A panic on either side
/// propagates only once both sides have settled (run or been dropped); if
/// both panic, `oper_a`'s panic wins.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let budget = budget();
    if budget < 2 {
        return (oper_a(), oper_b());
    }
    let budget_b = budget / 2;
    thread::scope(|s| {
        let handle_b = s.spawn(move || with_threads(budget_b, oper_b));
        let result_a =
            panic::catch_unwind(AssertUnwindSafe(|| with_threads(budget - budget_b, oper_a)));
        match (result_a, handle_b.join()) {
            (Ok(ra), Ok(rb)) => (ra, rb),
            (Err(payload), _) | (Ok(_), Err(payload)) => panic::resume_unwind(payload),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    fn fib(n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let (a, b) = join(|| fib(n - 1), || fib(n - 2));
        a + b
    }

    fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
        payload.downcast_ref::<&str>().copied().unwrap_or_default()
    }

    #[test]
    fn nested_joins_compute_correctly() {
        assert_eq!(fib(20), 6765);
        for n in [1, 2, 3, 4] {
            assert_eq!(with_threads(n, || fib(16)), 987);
        }
    }

    #[test]
    fn join_borrows_caller_stack() {
        let data: Vec<u64> = (0..1000).collect();
        let mut out = [0u64; 2];
        let (left, right) = out.split_at_mut(1);
        with_threads(2, || {
            join(
                || left[0] = data[..500].iter().sum::<u64>(),
                || right[0] = data[500..].iter().sum::<u64>(),
            )
        });
        assert_eq!(out[0] + out[1], data.iter().sum::<u64>());
    }

    #[test]
    fn join_propagates_panic_from_a() {
        for n in [1, 2] {
            let result = panic::catch_unwind(|| {
                with_threads(n, || join(|| panic!("boom-a"), || 2 + 2));
            });
            let payload = result.expect_err("panic must propagate");
            assert_eq!(panic_message(&*payload), "boom-a", "budget {n}");
        }
    }

    #[test]
    fn join_propagates_panic_from_b() {
        for n in [1, 2] {
            let result = panic::catch_unwind(|| {
                with_threads(n, || join(|| 2 + 2, || panic!("boom-b")));
            });
            let payload = result.expect_err("panic must propagate");
            assert_eq!(panic_message(&*payload), "boom-b", "budget {n}");
        }
    }

    #[test]
    fn join_first_panic_wins_when_both_panic() {
        for n in [1, 2] {
            let result = panic::catch_unwind(|| {
                with_threads(n, || join(|| panic!("first"), || panic!("second")));
            });
            let payload = result.expect_err("panic must propagate");
            assert_eq!(panic_message(&*payload), "first", "budget {n}");
        }
    }

    /// `a`'s panic is raised only after the forked `b` has finished, so
    /// whatever `b` borrows outlives it.
    #[test]
    fn join_panic_waits_for_the_forked_side() {
        let b_done = AtomicUsize::new(0);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            with_threads(2, || {
                join(
                    || panic!("early"),
                    || {
                        for _ in 0..1000 {
                            thread::yield_now();
                        }
                        b_done.store(1, Ordering::SeqCst);
                    },
                )
            })
        }));
        assert!(result.is_err());
        assert_eq!(b_done.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn pool_survives_panics_and_keeps_working() {
        for _ in 0..10 {
            let _ = panic::catch_unwind(|| join(|| panic!("x"), || fib(10)));
        }
        assert_eq!(fib(15), 610);
        // A panic that unwinds through `with_threads` restores the budget.
        let before = budget();
        let _ = panic::catch_unwind(|| with_threads(before + 1, || panic!("y")));
        assert_eq!(budget(), before);
    }

    /// The concurrency bound: under `with_threads(n, ..)` a recursive join
    /// tree never runs more than `n` leaves at once, on at most `n` threads,
    /// however many forks it makes.
    #[test]
    fn with_threads_runs_on_requested_pool_size() {
        struct Leaves {
            running: AtomicUsize,
            peak: AtomicUsize,
            threads: Mutex<HashSet<thread::ThreadId>>,
        }
        fn tree(depth: u32, leaves: &Leaves) -> u64 {
            if depth == 0 {
                let now = leaves.running.fetch_add(1, Ordering::SeqCst) + 1;
                leaves.peak.fetch_max(now, Ordering::SeqCst);
                leaves
                    .threads
                    .lock()
                    .unwrap()
                    .insert(thread::current().id());
                for _ in 0..200 {
                    thread::yield_now();
                }
                leaves.running.fetch_sub(1, Ordering::SeqCst);
                return 1;
            }
            let (a, b) = join(|| tree(depth - 1, leaves), || tree(depth - 1, leaves));
            a + b
        }
        for n in [1, 2, 4] {
            let leaves = Leaves {
                running: AtomicUsize::new(0),
                peak: AtomicUsize::new(0),
                threads: Mutex::new(HashSet::new()),
            };
            assert_eq!(with_threads(n, || tree(6, &leaves)), 64);
            let peak = leaves.peak.load(Ordering::SeqCst);
            assert!((1..=n).contains(&peak), "budget {n}: {peak} leaves at once");
            let threads = leaves.threads.lock().unwrap().len();
            assert!((1..=n).contains(&threads), "budget {n}: {threads} threads");
        }
    }

    /// Threads outside any `with_threads` each fork under the default
    /// budget, independently of one another.
    #[test]
    fn concurrent_external_callers_share_the_global_pool() {
        let results = Mutex::new(Vec::new());
        thread::scope(|s| {
            for t in 0..8u64 {
                let results = &results;
                s.spawn(move || {
                    let r = fib(12 + (t % 3));
                    results.lock().unwrap().push(r);
                });
            }
        });
        let got = results.lock().unwrap();
        assert_eq!(got.len(), 8);
        for &r in got.iter() {
            assert!([144, 233, 377].contains(&r));
        }
    }

    #[test]
    fn join_stress_many_iterations() {
        for i in 0..200u64 {
            let (a, b) = join(move || i * 2, move || i * 3);
            assert_eq!((a, b), (i * 2, i * 3));
        }
    }
}
