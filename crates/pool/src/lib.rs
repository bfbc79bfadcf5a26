//! # wsm-pool — a work-stealing fork-join thread pool
//!
//! The paper's headline results are parallel (`p`-processor batch operations,
//! parallel entropy sort, the concurrent working-set maps).  This crate is
//! the in-repo execution substrate: a fork-join pool on `std::thread` with
//! per-worker steal-from-the-front deques, which `wsm-sort`'s PESort forks
//! through.  Everything the workspace needs is provided:
//!
//! * [`join`] — the fork-join primitive; the rayon-compatible contract
//!   (closures may borrow the caller's stack, panics propagate, the first
//!   panic wins).
//! * [`scope`] / [`Scope::spawn`] — structured spawns that may borrow data of
//!   lifetime `'scope`.
//! * [`ThreadPool`] / [`with_threads`] — explicitly sized pools for scaling
//!   experiments (`harness e15 --threads 4`).
//! * [`par_map`] / [`par_chunks`] — the slice helpers behind
//!   `par_iter().map().collect()`.
//! * [`run`] — "make sure this runs inside a pool": inline when already on a
//!   worker, shipped to the global pool otherwise (used by `ConcurrentMap`'s
//!   combiner so batch execution parallelises internally).
//!
//! ## Execution model
//!
//! Each worker owns a deque: it pushes and pops fork-join continuations at
//! the back (LIFO — the cache-hot path), while idle workers steal from the
//! front (FIFO — the biggest subproblems).  A `join(a, b)` pushes `b`, runs
//! `a`, then either pops `b` back un-stolen and runs it inline, or — if a
//! thief took it — works on other jobs until the thief's completion latch is
//! set.  Blocked external threads park on the registry's client condvar;
//! idle workers park on the sleep condvar; both are woken through
//! missed-wakeup-free Dekker handshakes (see `registry.rs`).
//!
//! ## Safety
//!
//! This is the only workspace crate that contains `unsafe`: the standard
//! fork-join lifetime erasure (jobs on the owner's stack are reachable
//! through type-erased pointers while the owner is provably blocked in the
//! owning frame).  The protocol is documented in `job.rs`; every other crate
//! keeps `#![forbid(unsafe_code)]`.
//!
//! The one usage rule: **do not block a worker on events produced outside
//! the pool** (e.g. calling `ConcurrentMap` operations from inside a pool
//! task) — workers only make progress by executing pool jobs.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod handshake;
mod job;
mod par;
mod registry;
mod scope;

pub use par::{par_chunks, par_map};
pub use scope::{scope, Scope};

use job::StackJob;
use registry::{IdleBackoff, Registry, WorkerThread};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

// ---------------------------------------------------------------------------
// Global pool
// ---------------------------------------------------------------------------

static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();

/// The process-wide pool, created on first use with [`default_thread_count`]
/// workers.  Its threads are detached: the pool lives for the process.
pub(crate) fn global_registry() -> &'static Arc<Registry> {
    GLOBAL.get_or_init(|| {
        let (registry, handles) = Registry::new(default_thread_count());
        drop(handles); // detach
        registry
    })
}

/// Worker count for the global pool: `WSM_POOL_THREADS` if set to a positive
/// integer, otherwise the machine's available parallelism.  A garbage value
/// warns once on stderr and uses the parallelism default.
pub fn default_thread_count() -> usize {
    let fallback = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    wsm_sync::env::parse(
        "WSM_POOL_THREADS",
        "a positive worker count",
        fallback,
        |&n| n > 0,
    )
}

/// Worker count of the pool the caller is running in (the current worker's
/// registry, or the global pool for non-worker threads).
pub fn current_num_threads() -> usize {
    WorkerThread::with_current(|worker| match worker {
        Some(worker) => worker.registry.num_threads(),
        None => global_registry().num_threads(),
    })
}

/// Runs `f` inside a pool: inline if the caller is already a pool worker,
/// otherwise as a root job on the global pool.  Nested [`join`]s inside `f`
/// therefore always have a work-stealing context.
pub fn run<F, R>(f: F) -> R
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    WorkerThread::with_current(|worker| match worker {
        Some(_) => f(),
        None => global_registry().in_worker(f),
    })
}

// ---------------------------------------------------------------------------
// Explicitly sized pools
// ---------------------------------------------------------------------------

/// An owned pool with a fixed number of worker threads.
///
/// Dropping the pool terminates and joins its workers (all installed work has
/// completed by then — [`ThreadPool::install`] blocks until `f` returns).
pub struct ThreadPool {
    registry: Arc<Registry>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Creates a pool with `num_threads` workers (at least one).
    pub fn new(num_threads: usize) -> ThreadPool {
        let (registry, handles) = Registry::new(num_threads);
        ThreadPool { registry, handles }
    }

    /// Number of worker threads.
    pub fn num_threads(&self) -> usize {
        self.registry.num_threads()
    }

    /// Runs `f` on this pool and returns its result.  [`join`]s, scopes and
    /// `par_*` calls made inside `f` execute on this pool's workers.
    pub fn install<F, R>(&self, f: F) -> R
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        WorkerThread::with_current(|worker| match worker {
            Some(worker) if Arc::ptr_eq(&worker.registry, &self.registry) => f(),
            _ => self.registry.in_worker(f),
        })
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.registry.request_terminate();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Runs `f` on a freshly created `num_threads`-worker pool, tearing the pool
/// down afterwards.  The runner for scaling experiments: everything `f` does
/// through [`join`] / `par_*` uses exactly `num_threads` workers.
pub fn with_threads<F, R>(num_threads: usize, f: F) -> R
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    ThreadPool::new(num_threads).install(f)
}

// ---------------------------------------------------------------------------
// join
// ---------------------------------------------------------------------------

/// Runs both closures, potentially in parallel, and returns both results.
///
/// Semantics match rayon's `join`: `a` runs on the calling context while `b`
/// is made available for stealing; if nobody steals it, the caller runs it
/// inline (so a pool of one worker degenerates to sequential execution with
/// negligible overhead).  If either closure panics, the panic is propagated
/// to the caller — but never before both closures have settled, so borrows
/// held by the sibling stay sound.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    WorkerThread::with_current(|worker| match worker {
        Some(worker) => join_on_worker(worker, oper_a, oper_b),
        None => global_registry().in_worker(move || join(oper_a, oper_b)),
    })
}

fn join_on_worker<A, B, RA, RB>(worker: &WorkerThread, oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    // Safety: job_b lives on this frame; we do not leave the frame until the
    // job has either been reclaimed from our deque un-executed or its latch
    // is set (the loops below), so the erased reference stays valid.
    unsafe {
        let job_b = StackJob::new(oper_b);
        let job_b_ref = job_b.as_job_ref();
        worker.push(job_b_ref);

        let result_a = panic::catch_unwind(AssertUnwindSafe(oper_a));
        if let Err(payload) = result_a {
            // `a` panicked while `b` may be queued or already running on a
            // thief.  Settle `b` first (reclaim-and-drop, or wait for the
            // thief), then resume `a`'s panic; `b`'s outcome is discarded —
            // the first panic wins, as in rayon.
            settle_job_b_for_unwind(worker, &job_b, job_b_ref);
            panic::resume_unwind(payload);
        }
        let ra = match result_a {
            Ok(ra) => ra,
            Err(_) => unreachable!("handled above"),
        };

        let mut backoff = IdleBackoff::new();
        let rb = loop {
            if let Some(job) = worker.pop() {
                if job == job_b_ref {
                    // Not stolen: run it right here; a panic propagates
                    // naturally (no sibling left to settle).
                    break job_b.run_inline();
                }
                // A job pushed after ours (a scope spawn from `oper_a`, or a
                // descendant): execute it and keep looking.
                worker.execute(job);
                backoff.reset();
            } else if job_b.latch.probe() {
                break match job_b.take_result() {
                    Ok(rb) => rb,
                    Err(payload) => panic::resume_unwind(payload),
                };
            } else if let Some(job) = worker.steal() {
                // `b` is being executed by a thief: make ourselves useful on
                // other work instead of spinning.
                worker.execute(job);
                backoff.reset();
            } else {
                backoff.idle();
            }
        };
        (ra, rb)
    }
}

/// Settles `job_b` without running it if possible: reclaims it from the local
/// deque (dropping it), or — if stolen — executes other work until the thief
/// finishes.  Used on the unwind path of `join`.
///
/// # Safety
/// Caller must own `job_b` (same contract as the main join loop).
unsafe fn settle_job_b_for_unwind<F, R>(
    worker: &WorkerThread,
    job_b: &StackJob<F, R>,
    job_b_ref: job::JobRef,
) where
    F: FnOnce() -> R + Send,
    R: Send,
{
    let mut backoff = IdleBackoff::new();
    loop {
        if let Some(job) = worker.pop() {
            if job == job_b_ref {
                return; // reclaimed un-run; the closure is simply dropped
            }
            // Safety: queued jobs are live and unexecuted.
            unsafe { worker.execute(job) };
            backoff.reset();
        } else if job_b.latch.probe() {
            // Safety: latch set — the thief is done with the job memory.
            let _ = unsafe { job_b.take_result() }; // drop b's result or panic
            return;
        } else if let Some(job) = worker.steal() {
            // Safety: queued jobs are live and unexecuted.
            unsafe { worker.execute(job) };
            backoff.reset();
        } else {
            backoff.idle();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    fn fib(n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let (a, b) = join(|| fib(n - 1), || fib(n - 2));
        a + b
    }

    #[test]
    fn nested_joins_compute_correctly() {
        assert_eq!(fib(20), 6765);
    }

    #[test]
    fn join_borrows_caller_stack() {
        let data: Vec<u64> = (0..1000).collect();
        let (left, right) = join(
            || data[..500].iter().sum::<u64>(),
            || data[500..].iter().sum::<u64>(),
        );
        assert_eq!(left + right, data.iter().sum::<u64>());
    }

    #[test]
    fn join_propagates_panic_from_a() {
        let result = std::panic::catch_unwind(|| {
            join(|| panic!("boom-a"), || 2 + 2);
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "boom-a");
    }

    #[test]
    fn join_propagates_panic_from_b() {
        let result = std::panic::catch_unwind(|| {
            join(|| 2 + 2, || panic!("boom-b"));
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "boom-b");
    }

    #[test]
    fn join_first_panic_wins_when_both_panic() {
        let result = std::panic::catch_unwind(|| {
            join(|| panic!("first"), || panic!("second"));
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "first");
    }

    #[test]
    fn pool_survives_panics_and_keeps_working() {
        for _ in 0..10 {
            let _ = std::panic::catch_unwind(|| join(|| panic!("x"), || fib(10)));
        }
        assert_eq!(fib(15), 610);
    }

    #[test]
    fn scope_spawns_borrow_and_complete() {
        let counter = AtomicUsize::new(0);
        let data: Vec<usize> = (0..64).collect();
        scope(|s| {
            for chunk in data.chunks(8) {
                s.spawn(|_| {
                    counter.fetch_add(chunk.iter().sum::<usize>(), Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), data.iter().sum::<usize>());
    }

    #[test]
    fn scope_nested_spawns() {
        let counter = AtomicUsize::new(0);
        scope(|s| {
            for _ in 0..4 {
                s.spawn(|s| {
                    for _ in 0..4 {
                        s.spawn(|_| {
                            counter.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn scope_propagates_spawn_panic_after_all_settle() {
        let finished = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            scope(|s| {
                s.spawn(|_| panic!("spawned panic"));
                for _ in 0..8 {
                    s.spawn(|_| {
                        finished.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        }));
        assert!(result.is_err(), "scope must re-raise the spawned panic");
        // The panic is only re-raised after every job settled.
        assert_eq!(finished.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn with_threads_runs_on_requested_pool_size() {
        for n in [1, 2, 4] {
            let seen = with_threads(n, current_num_threads);
            assert_eq!(seen, n);
            // And real work completes there.
            let sum = with_threads(n, || {
                let v: Vec<u64> = (0..10_000).collect();
                par_map(&v, |x| x + 1).into_iter().sum::<u64>()
            });
            assert_eq!(sum, (0..10_000u64).map(|x| x + 1).sum());
        }
    }

    #[test]
    fn threadpool_drop_terminates_workers() {
        let pool = ThreadPool::new(3);
        assert_eq!(pool.install(|| 41 + 1), 42);
        drop(pool); // must not hang
    }

    #[test]
    fn concurrent_external_callers_share_the_global_pool() {
        let results = Mutex::new(Vec::new());
        std::thread::scope(|s| {
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
        // Shake out queue/latch races: lots of small joins back to back.
        for i in 0..200u64 {
            let (a, b) = join(move || i * 2, move || i * 3);
            assert_eq!((a, b), (i * 2, i * 3));
        }
    }
}
