//! The worker registry: deques, injector, sleep/wake and client hand-off.
//!
//! A [`Registry`] owns one locked deque per worker plus a shared injector
//! queue for jobs arriving from non-worker ("client") threads.  The deques
//! follow the work-stealing discipline of a Chase–Lev deque — the owner
//! pushes and pops at the back (LIFO, cache-friendly for fork-join
//! recursion), thieves steal from the front (FIFO, takes the biggest
//! subproblems) — but are realised as `Mutex<VecDeque>` so the whole crate's
//! unsafety stays confined to the job lifetime-erasure in [`crate::job`].
//! Each deque lock is touched by its owner almost always and by thieves only
//! when they have nothing else to do, so contention is negligible at fork-join
//! grain sizes.
//!
//! Two separate wake-up channels exist, both [`crate::handshake::WakeGate`]
//! Dekker handshakes (register under the mutex, re-check the condition, then
//! wait; notifiers publish the event first, read the waiter count, and take
//! the mutex before notifying):
//!
//! * **worker sleep** — idle workers park on a condvar until new work is
//!   pushed or the registry terminates;
//! * **client wake-up** — non-worker threads that injected a root job park
//!   until the job's latch is set.  Workers ring this after every executed
//!   job.  The latch itself lives on the client's stack; the condvar lives
//!   here in the registry, which is what lets the executor's final access to
//!   the job be the latch store (see [`crate::job`]).
//!
//! The handshake protocol itself is model-checked against the real
//! [`crate::handshake`] code in `crates/check/tests/model_registry.rs`.

use crate::handshake::{Latch, WakeGate};
use crate::job::JobRef;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;
use wsm_sync::{AtomicBool, AtomicUsize, Mutex, Ordering};

struct WorkerState {
    deque: Mutex<VecDeque<JobRef>>,
}

/// Shared state of one thread pool.
pub(crate) struct Registry {
    workers: Vec<WorkerState>,
    injector: Mutex<VecDeque<JobRef>>,
    /// Jobs queued (in any deque or the injector) but not yet taken.  A hint
    /// for the sleep path; transiently inexact is fine, the wait below has a
    /// timeout backstop.  `SeqCst` because it is the event side of the sleep
    /// gate's Dekker handshake (store pending / load parked vs store parked /
    /// load pending) — weaker orderings are refuted by the model's TSO mode.
    pending: AtomicUsize,
    terminate: AtomicBool,
    sleep: WakeGate,
    clients: WakeGate,
}

impl Registry {
    /// Creates a registry and spawns its `num_threads` worker threads.
    pub(crate) fn new(num_threads: usize) -> (Arc<Registry>, Vec<std::thread::JoinHandle<()>>) {
        let num_threads = num_threads.max(1);
        let registry = Arc::new(Registry {
            workers: (0..num_threads)
                .map(|_| WorkerState {
                    deque: Mutex::new(VecDeque::new()),
                })
                .collect(),
            injector: Mutex::new(VecDeque::new()),
            pending: AtomicUsize::new(0),
            terminate: AtomicBool::new(false),
            sleep: WakeGate::new(),
            clients: WakeGate::new(),
        });
        let handles = (0..num_threads)
            .map(|index| {
                let registry = Arc::clone(&registry);
                std::thread::Builder::new()
                    .name(format!("wsm-pool-{index}"))
                    .spawn(move || worker_main(registry, index))
                    .expect("failed to spawn pool worker thread")
            })
            .collect();
        (registry, handles)
    }

    /// Number of worker threads.
    pub(crate) fn num_threads(&self) -> usize {
        self.workers.len()
    }

    /// Queues a job from a non-worker thread (or for fair FIFO dispatch).
    pub(crate) fn inject(&self, job: JobRef) {
        self.injector.lock().push_back(job);
        self.pending.fetch_add(1, Ordering::SeqCst);
        self.sleep.notify();
    }

    /// Asks every worker to exit once it runs out of work.
    pub(crate) fn request_terminate(&self) {
        // ord: Relaxed — termination is delivered by the sleep gate's
        // notify (mutex-serialised against the sleeper's re-check), and the
        // sleep wait is timeout-backstopped anyway, so the flag needs no
        // ordering of its own (model: tests/model_registry.rs).
        self.terminate.store(true, Ordering::Relaxed);
        self.sleep.notify();
    }

    /// True once termination was requested.
    pub(crate) fn terminating(&self) -> bool {
        // ord: Relaxed — see request_terminate.
        self.terminate.load(Ordering::Relaxed)
    }

    /// Runs `f` to completion inside the pool, called from a **non-worker**
    /// thread: injects a root job and parks until it finishes.  Panics from
    /// `f` resume on the calling thread.
    pub(crate) fn in_worker<F, R>(self: &Arc<Self>, f: F) -> R
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        use crate::job::StackJob;
        // Safety: the StackJob lives on this stack frame, and we do not leave
        // the frame until its latch is set (wait_client below), so the
        // erased reference handed to the pool stays valid for exactly as long
        // as anyone can execute it.
        unsafe {
            let job = StackJob::new(f);
            self.inject(job.as_job_ref());
            self.wait_client(&job.latch);
            match job.take_result() {
                Ok(r) => r,
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    }

    /// Parks the calling (non-worker) thread until `latch` is set.
    fn wait_client(&self, latch: &Latch) {
        self.clients.wait_until(|| latch.probe());
    }

    /// Called by workers after executing any job: wakes parked clients so
    /// they can re-probe their latch.  (Executors must not touch job memory
    /// after the latch store, so the job itself cannot carry the condvar —
    /// the registry, which outlives all jobs, does.)
    pub(crate) fn notify_clients(&self) {
        self.clients.notify();
    }
}

/// Back-off for workers waiting on a latch they cannot help along (a stolen
/// join sibling still running on its thief): spin-yield briefly so short
/// waits stay cheap, then sleep in small slices so long waits do not burn a
/// core.  (These waiters cannot park on the sleep condvar — nothing rings it
/// when a latch is set — so a bounded sleep is the backstop.)
pub(crate) struct IdleBackoff {
    rounds: u32,
}

impl IdleBackoff {
    const SPIN_ROUNDS: u32 = 64;

    pub(crate) fn new() -> IdleBackoff {
        IdleBackoff { rounds: 0 }
    }

    /// Called when a wait loop found nothing to do.
    pub(crate) fn idle(&mut self) {
        self.rounds = self.rounds.saturating_add(1);
        if self.rounds < Self::SPIN_ROUNDS {
            std::thread::yield_now();
        } else {
            // Bounded nap, not synchronization: the waiter re-polls its
            // latch; no correctness depends on the wake-up timing.
            // lint: allow(thread_sleep)
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// Called after making progress (a job was found and executed).
    pub(crate) fn reset(&mut self) {
        self.rounds = 0;
    }
}

thread_local! {
    static CURRENT_WORKER: std::cell::Cell<*const WorkerThread> =
        const { std::cell::Cell::new(std::ptr::null()) };
}

/// Per-thread handle of a pool worker; lives on the worker's stack for the
/// worker's whole life and is reachable through TLS.
pub(crate) struct WorkerThread {
    pub(crate) registry: Arc<Registry>,
    index: usize,
    /// Rotating start position for steal scans, so victims are probed fairly.
    steal_start: std::cell::Cell<usize>,
}

impl WorkerThread {
    /// Calls `f` with the calling thread's worker handle, if it is a pool
    /// worker.
    pub(crate) fn with_current<R>(f: impl FnOnce(Option<&WorkerThread>) -> R) -> R {
        CURRENT_WORKER.with(|cell| {
            let ptr = cell.get();
            // Safety: the pointer is set by worker_main to a WorkerThread on
            // that thread's own stack, which outlives everything the thread
            // runs; it is only ever read from the same thread.
            let current = if ptr.is_null() {
                None
            } else {
                Some(unsafe { &*ptr })
            };
            f(current)
        })
    }

    /// Pushes a job onto this worker's own deque (back / LIFO end).
    pub(crate) fn push(&self, job: JobRef) {
        self.registry.workers[self.index]
            .deque
            .lock()
            .push_back(job);
        self.registry.pending.fetch_add(1, Ordering::SeqCst);
        self.registry.sleep.notify();
    }

    /// Pops from this worker's own deque (back / LIFO end).
    pub(crate) fn pop(&self) -> Option<JobRef> {
        let job = self.registry.workers[self.index].deque.lock().pop_back();
        if job.is_some() {
            self.registry.pending.fetch_sub(1, Ordering::SeqCst);
        }
        job
    }

    /// Takes a job from the injector or steals from another worker's front.
    pub(crate) fn steal(&self) -> Option<JobRef> {
        if let Some(job) = self.registry.injector.lock().pop_front() {
            self.registry.pending.fetch_sub(1, Ordering::SeqCst);
            return Some(job);
        }
        let n = self.registry.workers.len();
        let start = self.steal_start.get();
        for k in 0..n {
            let victim = (start + k) % n;
            if victim == self.index {
                continue;
            }
            if let Some(job) = self.registry.workers[victim].deque.lock().pop_front() {
                self.registry.pending.fetch_sub(1, Ordering::SeqCst);
                self.steal_start.set(victim);
                return Some(job);
            }
        }
        self.steal_start.set((start + 1) % n);
        None
    }

    /// Own deque first, then injector / other workers.
    pub(crate) fn find_work(&self) -> Option<JobRef> {
        self.pop().or_else(|| self.steal())
    }

    /// Executes one job and rings the client doorbell (the job may have been
    /// a client's root job, or the last child a client's root transitively
    /// waits on).
    ///
    /// # Safety
    /// `job` must be live and not yet executed (guaranteed for anything taken
    /// from a deque or the injector).
    pub(crate) unsafe fn execute(&self, job: JobRef) {
        // Safety: forwarded.
        unsafe { job.execute() };
        self.registry.notify_clients();
    }
}

/// Body of every worker thread.
fn worker_main(registry: Arc<Registry>, index: usize) {
    let worker = WorkerThread {
        registry,
        index,
        steal_start: std::cell::Cell::new(index + 1),
    };
    CURRENT_WORKER.with(|cell| cell.set(&worker));
    main_loop(&worker);
    CURRENT_WORKER.with(|cell| cell.set(std::ptr::null()));
}

fn main_loop(worker: &WorkerThread) {
    let registry = &worker.registry;
    loop {
        if let Some(job) = worker.find_work() {
            // Safety: queued jobs are live and unexecuted.
            unsafe { worker.execute(job) };
            continue;
        }
        if registry.terminating() {
            // Drain before exiting: a job injected after our find_work miss
            // but before the terminate flag became visible would otherwise
            // be abandoned in the deque (the model checker caught exactly
            // this lost-work window: tests/model_registry.rs).  Seeing the
            // flag means any pre-terminate inject completed in real time,
            // so this later deque lock is ordered after it and must see
            // the job — Relaxed on the flag stays sufficient.
            while let Some(job) = worker.find_work() {
                // Safety: queued jobs are live and unexecuted.
                unsafe { worker.execute(job) };
            }
            return;
        }
        // Idle: register as a sleeper, re-check for work under the gate (the
        // Dekker handshake with inject/push), then park.  The timeout is a
        // backstop only; normal wake-ups come from notify / request_terminate.
        registry.sleep.wait_brief(
            || registry.pending.load(Ordering::SeqCst) == 0 && !registry.terminating(),
            Duration::from_millis(10),
        );
    }
}
