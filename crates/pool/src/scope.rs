//! Structured fork-join scopes: `scope(|s| s.spawn(...))`.
//!
//! A [`Scope`] lets tasks borrow data from the enclosing stack frame: the
//! `scope` call does not return until every job spawned inside it (including
//! jobs spawned by other spawned jobs) has completed, so borrows of lifetime
//! `'scope` stay valid for as long as any job can run.  While waiting, the
//! scope's worker executes other pool work instead of blocking, exactly like
//! a `join` caller whose sibling was stolen.
//!
//! Panics in spawned jobs are caught, the first one is recorded, and it is
//! resumed on the `scope` caller once all jobs have settled (matching rayon's
//! semantics).

use crate::job::HeapJob;
use crate::registry::{Registry, WorkerThread};
use std::any::Any;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use wsm_sync::{AtomicUsize, Mutex, Ordering};

/// A fork-join scope whose spawned jobs may borrow data of lifetime `'scope`.
pub struct Scope<'scope> {
    registry: Arc<Registry>,
    /// Spawned jobs that have not finished yet.  Incremented *before* a job
    /// is queued and decremented as that job's final action, so a nonzero
    /// count is visible for as long as any job (or descendant spawn) is
    /// outstanding.
    pending: AtomicUsize,
    /// First panic payload recorded by a spawned job.
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
    /// Makes `'scope` invariant, as for rayon scopes: jobs both consume and
    /// produce borrows of `'scope` data.
    marker: PhantomData<ScopeBody<'scope>>,
}

/// The erased shape of a spawned body, used only for lifetime variance.
type ScopeBody<'scope> = Box<dyn FnOnce(&Scope<'scope>) + Send + 'scope>;

/// Raw pointer to a scope, sendable to worker threads.
///
/// Safety: the `scope` call blocks until `pending` drops to zero, so the
/// pointed-to scope outlives every job that dereferences this.
struct ScopePtr(*const ());
unsafe impl Send for ScopePtr {}

impl ScopePtr {
    // A method (rather than field access) so closures capture the whole
    // `Send` wrapper, not the raw pointer field (edition-2021 disjoint
    // capture would otherwise grab the non-`Send` field directly).
    fn get(&self) -> *const () {
        self.0
    }
}

impl<'scope> Scope<'scope> {
    /// Spawns `body` into the pool.  The job may run on any worker, any time
    /// before the enclosing [`scope`] call returns.
    pub fn spawn<BODY>(&self, body: BODY)
    where
        BODY: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        // ord: Relaxed — the increment is published to executing workers by
        // the deque mutex the job is pushed under, and the scope owner reads
        // it on its own thread; only the counter's atomicity matters here.
        self.pending.fetch_add(1, Ordering::Relaxed);
        let scope_ptr = ScopePtr(self as *const Scope<'scope> as *const ());
        let job = HeapJob::new(move || {
            // Safety: see ScopePtr — the scope outlives this execution.
            let scope: &Scope<'scope> = unsafe { &*(scope_ptr.get() as *const Scope<'scope>) };
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| body(scope))) {
                scope.record_panic(payload);
            }
            // Final action: only after this may the scope unblock.
            // ord: Release — pairs with the scope owner's Acquire load so
            // everything this job wrote (including `'scope` borrows)
            // happens-before the scope call returns.
            scope.pending.fetch_sub(1, Ordering::Release);
        });
        // Safety: the borrows inside `body` (lifetime 'scope) outlive the
        // job because the scope blocks until `pending` reaches zero, and the
        // ref is queued exactly once.
        let job_ref = unsafe { job.into_job_ref() };
        WorkerThread::with_current(|worker| match worker {
            Some(worker) if Arc::ptr_eq(&worker.registry, &self.registry) => worker.push(job_ref),
            _ => self.registry.inject(job_ref),
        });
    }

    fn record_panic(&self, payload: Box<dyn Any + Send + 'static>) {
        let mut slot = self.panic.lock();
        slot.get_or_insert(payload);
    }
}

/// Creates a scope on the current pool and blocks until it and every job
/// spawned into it have completed.  Runs inside the pool: if the caller is
/// not a worker thread, the whole scope is shipped to the global pool first.
pub fn scope<'scope, F, R>(f: F) -> R
where
    F: FnOnce(&Scope<'scope>) -> R + Send,
    R: Send,
{
    WorkerThread::with_current(|worker| match worker {
        Some(worker) => scope_on_worker(worker, f),
        None => crate::global_registry().in_worker(|| {
            WorkerThread::with_current(|worker| {
                scope_on_worker(worker.expect("in_worker body runs on a worker"), f)
            })
        }),
    })
}

fn scope_on_worker<'scope, F, R>(worker: &WorkerThread, f: F) -> R
where
    F: FnOnce(&Scope<'scope>) -> R + Send,
    R: Send,
{
    let scope = Scope {
        registry: Arc::clone(&worker.registry),
        pending: AtomicUsize::new(0),
        panic: Mutex::new(None),
        marker: PhantomData,
    };
    let result = panic::catch_unwind(AssertUnwindSafe(|| f(&scope)));
    // Work-stealing wait: keep the CPU busy on other jobs (often this very
    // scope's spawns) until every spawned job has settled.
    let mut backoff = crate::registry::IdleBackoff::new();
    // ord: Acquire — pairs with each job's Release decrement; once this
    // reads zero, every spawned job's effects are visible to the caller.
    while scope.pending.load(Ordering::Acquire) != 0 {
        if let Some(job) = worker.find_work() {
            // Safety: queued jobs are live and unexecuted.
            unsafe { worker.execute(job) };
            backoff.reset();
        } else {
            backoff.idle();
        }
    }
    let recorded = scope.panic.lock().take();
    match (result, recorded) {
        (Err(payload), _) => panic::resume_unwind(payload),
        (Ok(_), Some(payload)) => panic::resume_unwind(payload),
        (Ok(result), None) => result,
    }
}
