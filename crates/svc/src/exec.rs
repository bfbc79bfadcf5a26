//! A minimal waker-based futures runtime: oneshot channels, a small
//! thread-pool executor, and a timer — everything `wsm-svc` needs to run
//! async map calls, hand-rolled so the workspace stays dependency-free.
//!
//! ## Why not a real runtime
//!
//! The build environment is offline (no registry), and the service layer
//! needs very little: `Future` is a language item, wakers are constructible
//! safely via the [`Wake`] trait (no `RawWaker` vtable, so the crate keeps
//! `#![forbid(unsafe_code)]`), and the executor below is ~150 lines.  The
//! point of the exercise is the *hand-off* between the combiner and the
//! awaiting task ([`wsm_core::ResultCell::set_waker`]), not the runtime.
//!
//! ## Executor shape
//!
//! [`Executor::new`] spawns a fixed pool of worker threads sharing one run
//! queue (a mutexed `VecDeque` — contention on it is dwarfed by the map work
//! each poll performs) and one timer heap.  A task is an `Arc` holding its
//! boxed future; the task *is* its own waker ([`Wake`] impl).  Workers
//! bracket every poll with [`wsm_core::ServiceTaskGuard`], so map code
//! reached from a poll knows it must not park the worker (see
//! `wsm_core::context`).
//!
//! A task's atomic state is `IDLE`, `SCHEDULED` (in the run queue),
//! `RUNNING` (being polled) or `NOTIFIED` (woken while being polled).  Only
//! a wake of an `IDLE` task enqueues it; a wake during a poll merely marks
//! it `NOTIFIED`, and the polling worker itself re-enqueues the task once
//! the poll returns `Pending`.  So a task sits in the queue at most once,
//! is never polled by two workers at a time, and its future mutex is never
//! contended — a task that wakes itself mid-poll cannot make a second
//! worker block behind that poll.
//!
//! [`block_on`] drives a future on the calling thread with a park/unpark
//! waker (`std::thread` park tokens are sticky, so a wake that lands before
//! the park is never lost); it too marks the thread as a service task while
//! polling.  The park uses a bounded timeout purely as a hang backstop —
//! correctness comes from the wake discipline, which the model checker
//! covers.

use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

use wsm_core::ServiceTaskGuard;

/// Upper bound on a worker's idle wait (and `block_on`'s park).  Purely a
/// backstop: wakes and timer registrations notify the condvar, but a
/// registration can race a worker's empty-queue check, and the bound turns
/// that lost notify into at most one extra wait round.
const IDLE_WAIT: Duration = Duration::from_millis(5);

// ---------------------------------------------------------------------------
// Oneshot
// ---------------------------------------------------------------------------

/// Error returned by a [`Receiver`] whose [`Sender`] was dropped without
/// sending.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Canceled;

impl std::fmt::Display for Canceled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("oneshot sender dropped without sending")
    }
}

struct OneshotInner<T> {
    value: Option<T>,
    waker: Option<Waker>,
    closed: bool,
}

/// Sending half of a single-value channel; consumed by [`Sender::send`].
pub struct Sender<T>(Arc<Mutex<OneshotInner<T>>>);

/// Receiving half of a single-value channel: a future resolving to the sent
/// value, or [`Canceled`] if the sender dropped first.
pub struct Receiver<T>(Arc<Mutex<OneshotInner<T>>>);

/// A single-value channel: the async hand-off primitive for task results.
pub fn oneshot<T>() -> (Sender<T>, Receiver<T>) {
    let inner = Arc::new(Mutex::new(OneshotInner {
        value: None,
        waker: None,
        closed: false,
    }));
    (Sender(Arc::clone(&inner)), Receiver(inner))
}

impl<T> Sender<T> {
    /// Delivers the value and wakes the receiver.  Consumes the sender — a
    /// oneshot sends once.
    pub fn send(self, value: T) {
        let waker = {
            let mut inner = self.0.lock().expect("oneshot mutex");
            inner.value = Some(value);
            inner.waker.take()
        };
        if let Some(waker) = waker {
            waker.wake();
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let waker = {
            let mut inner = self.0.lock().expect("oneshot mutex");
            inner.closed = true;
            inner.waker.take()
        };
        // After a send this is a no-op (the waker was already taken); after a
        // drop-without-send it tells the receiver it will never resolve.
        if let Some(waker) = waker {
            waker.wake();
        }
    }
}

impl<T> Future for Receiver<T> {
    type Output = Result<T, Canceled>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut inner = self.0.lock().expect("oneshot mutex");
        if let Some(value) = inner.value.take() {
            return Poll::Ready(Ok(value));
        }
        if inner.closed {
            return Poll::Ready(Err(Canceled));
        }
        match &mut inner.waker {
            Some(existing) => existing.clone_from(cx.waker()),
            none => *none = Some(cx.waker().clone()),
        }
        Poll::Pending
    }
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

struct Task {
    exec: Weak<Core>,
    /// `Some` until the future completes.  Only the worker that moved the
    /// task to `RUNNING` locks it, so the lock is never contended.
    future: Mutex<Option<BoxFuture>>,
    /// `IDLE`, `SCHEDULED`, `RUNNING` or `NOTIFIED` (see the module docs).
    state: AtomicU8,
}

/// Not queued and not being polled: the next wake enqueues the task.
const IDLE: u8 = 0;
/// In the run queue (exactly once).
const SCHEDULED: u8 = 1;
/// Being polled by a worker.
const RUNNING: u8 = 2;
/// Woken while being polled: the polling worker re-enqueues it.
const NOTIFIED: u8 = 3;

impl Task {
    fn schedule(self: Arc<Self>) {
        // ord: AcqRel — the successful transition out of IDLE claims the
        // sole queue slot for this task, and the one out of RUNNING hands
        // the re-enqueue to the polling worker; both order with that
        // worker's Release/AcqRel transitions in `poll_task`.
        let prev = self
            .state
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |s| match s {
                IDLE => Some(SCHEDULED),
                RUNNING => Some(NOTIFIED),
                _ => None, // already queued or already notified
            });
        if prev == Ok(IDLE) {
            self.enqueue();
        }
    }

    fn enqueue(self: Arc<Self>) {
        if let Some(core) = self.exec.upgrade() {
            core.queue.lock().expect("run queue mutex").push_back(self);
            core.idle.notify_one();
        }
    }
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        self.schedule();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        Arc::clone(self).schedule();
    }
}

/// One registered timer: min-heap by deadline (sequence breaks ties so
/// entries never compare equal).
struct TimerEntry {
    deadline: Instant,
    seq: u64,
    waker: Waker,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest deadline
        // on top.
        other
            .deadline
            .cmp(&self.deadline)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct Core {
    queue: Mutex<VecDeque<Arc<Task>>>,
    idle: Condvar,
    timers: Mutex<BinaryHeap<TimerEntry>>,
    timer_seq: AtomicU64,
    shutdown: AtomicBool,
}

/// A fixed pool of worker threads polling spawned tasks.  Dropping the
/// executor shuts the workers down; unfinished tasks are dropped, which
/// cancels their [`JoinHandle`]s.
pub struct Executor {
    core: Arc<Core>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

/// Worker count from `WSM_SVC_WORKERS` (default 2, minimum 1); garbage warns
/// once on stderr and falls back to the default.
fn workers_from_env() -> usize {
    wsm_core::env::parse("WSM_SVC_WORKERS", "a worker count >= 1", 2, |&w| w >= 1)
}

impl Executor {
    /// An executor with the worker count taken from `WSM_SVC_WORKERS`.
    pub fn from_env() -> Self {
        Self::new(workers_from_env())
    }

    /// An executor with exactly `workers` worker threads (at least one).
    pub fn new(workers: usize) -> Self {
        let core = Arc::new(Core {
            queue: Mutex::new(VecDeque::new()),
            idle: Condvar::new(),
            timers: Mutex::new(BinaryHeap::new()),
            timer_seq: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("wsm-svc-worker-{i}"))
                    .spawn(move || worker_loop(&core))
                    .expect("spawn executor worker")
            })
            .collect();
        Executor { core, workers }
    }

    /// Spawns a future onto the pool, returning a handle that resolves to
    /// its output.
    pub fn spawn<F>(&self, future: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let (tx, rx) = oneshot();
        let task = Arc::new(Task {
            exec: Arc::downgrade(&self.core),
            future: Mutex::new(Some(Box::pin(async move {
                tx.send(future.await);
            }))),
            state: AtomicU8::new(IDLE),
        });
        task.schedule();
        JoinHandle(rx)
    }

    /// A future that resolves once `duration` has elapsed.  The timer lives
    /// in this executor's heap, so the executor must outlive the sleep.
    pub fn sleep(&self, duration: Duration) -> Sleep {
        self.sleep_until(Instant::now() + duration)
    }

    /// A future that resolves at `deadline` (immediately if already past).
    pub fn sleep_until(&self, deadline: Instant) -> Sleep {
        self.timer().sleep_until(deadline)
    }

    /// A cloneable timer handle for tasks that need to sleep.  Holds only a
    /// weak reference: tasks must NOT capture the `Executor` itself (a
    /// worker dropping the last `Arc<Executor>` would try to join its own
    /// thread in `Drop`), and a handle outliving the executor degrades to
    /// cooperative re-polling instead of hanging.
    pub fn timer(&self) -> TimerHandle {
        TimerHandle {
            core: Arc::downgrade(&self.core),
        }
    }
}

/// Cloneable, executor-independent handle for creating [`Sleep`] futures
/// inside tasks.  See [`Executor::timer`].
#[derive(Clone)]
pub struct TimerHandle {
    core: Weak<Core>,
}

impl TimerHandle {
    /// A future that resolves once `duration` has elapsed.
    pub fn sleep(&self, duration: Duration) -> Sleep {
        self.sleep_until(Instant::now() + duration)
    }

    /// A future that resolves at `deadline` (immediately if already past).
    pub fn sleep_until(&self, deadline: Instant) -> Sleep {
        Sleep {
            core: self.core.clone(),
            deadline,
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        // ord: Release — pairs with the workers' Acquire loads; everything
        // queued before shutdown is visible to the draining check.
        self.core.shutdown.store(true, Ordering::Release);
        {
            let _queue = self.core.queue.lock().expect("run queue mutex");
            self.core.idle.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(core: &Arc<Core>) {
    loop {
        // ord: Acquire — pairs with the Release store in `Executor::drop`.
        if core.shutdown.load(Ordering::Acquire) {
            return;
        }

        // Fire due timers.  Wakers are invoked after the heap lock drops:
        // waking re-enters the run queue, never the timer heap.
        let mut due = Vec::new();
        let mut next_deadline = None;
        {
            let mut timers = core.timers.lock().expect("timer heap mutex");
            let now = Instant::now();
            while let Some(top) = timers.peek() {
                if top.deadline <= now {
                    due.push(timers.pop().expect("peeked entry").waker);
                } else {
                    next_deadline = Some(top.deadline);
                    break;
                }
            }
        }
        for waker in due {
            waker.wake();
        }

        let task = core.queue.lock().expect("run queue mutex").pop_front();
        if let Some(task) = task {
            poll_task(&task);
            continue;
        }

        // Idle: wait for a wake, capped by the next timer deadline (and the
        // IDLE_WAIT backstop against a notify racing the empty check above).
        let timeout = next_deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
            .unwrap_or(IDLE_WAIT)
            .min(IDLE_WAIT);
        let queue = core.queue.lock().expect("run queue mutex");
        // ord: Acquire — same pairing as the loop-top check: a shutdown
        // published before the drop's notify_all must be seen here, or the
        // worker would wait out one extra IDLE_WAIT round.
        if queue.is_empty() && !core.shutdown.load(Ordering::Acquire) {
            let _ = core
                .idle
                .wait_timeout(queue, timeout)
                .expect("run queue mutex");
        }
    }
}

fn poll_task(task: &Arc<Task>) {
    // Leave SCHEDULED *before* polling: a wake arriving mid-poll must be
    // recorded (as NOTIFIED) so progress made by that wake is observed.
    // ord: Release — pairs with the AcqRel update in `Task::schedule`; only
    // this worker holds the queue entry, so a plain store suffices.
    task.state.store(RUNNING, Ordering::Release);
    let pending = {
        let mut slot = task.future.lock().expect("task future mutex");
        match slot.as_mut() {
            // Already completed; a late wake popped a stale queue entry.
            None => false,
            Some(future) => {
                let waker = Waker::from(Arc::clone(task));
                let mut cx = Context::from_waker(&waker);
                // Map code reached from this poll must never park this worker.
                let _guard = ServiceTaskGuard::new();
                let ready = future.as_mut().poll(&mut cx).is_ready();
                if ready {
                    *slot = None;
                }
                !ready
            }
        }
    };
    // The future lock is released before the task can be queued again, so
    // the next worker to poll it never waits on this one.
    // ord: AcqRel — the failed exchange reads a NOTIFIED written by
    // `schedule`'s AcqRel update; the successful one publishes this poll to
    // the next `schedule` that claims the task.
    let woken = task
        .state
        .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
        .is_err();
    // Woken mid-poll.  A finished task just stays NOTIFIED, which turns
    // every later wake into a no-op.
    if woken && pending {
        // ord: Release — this worker owns the NOTIFIED state (no wake
        // changes it), so a plain store re-claims the queue slot.
        task.state.store(SCHEDULED, Ordering::Release);
        Arc::clone(task).enqueue();
    }
}

/// Handle to a spawned task; a future resolving to the task's output.
///
/// # Panics
///
/// Resolves by panicking if the executor shut down before the task finished
/// (the task's future — and its result sender — were dropped).
pub struct JoinHandle<T>(Receiver<T>);

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        match Pin::new(&mut self.0).poll(cx) {
            Poll::Ready(Ok(value)) => Poll::Ready(value),
            Poll::Ready(Err(Canceled)) => {
                panic!("service task canceled: executor shut down before it completed")
            }
            Poll::Pending => Poll::Pending,
        }
    }
}

/// Timer future from [`Executor::sleep`] / [`Executor::sleep_until`].
///
/// Each poll past the deadline resolves; each poll before it re-registers
/// the current waker in the executor's timer heap (stale entries from
/// earlier polls fire as spurious wakes, which is harmless).
pub struct Sleep {
    core: Weak<Core>,
    deadline: Instant,
}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        if Instant::now() >= self.deadline {
            return Poll::Ready(());
        }
        if let Some(core) = self.core.upgrade() {
            // ord: Relaxed — the sequence only breaks heap ties.
            let seq = core.timer_seq.fetch_add(1, Ordering::Relaxed);
            core.timers
                .lock()
                .expect("timer heap mutex")
                .push(TimerEntry {
                    deadline: self.deadline,
                    seq,
                    waker: cx.waker().clone(),
                });
            // Nudge an idle worker so it recomputes its wait deadline.  Taking
            // the queue lock first shrinks the race with a worker's
            // empty-queue check; IDLE_WAIT bounds what remains.
            let _queue = core.queue.lock().expect("run queue mutex");
            core.idle.notify_one();
        } else {
            // Executor gone: degrade to cooperative re-polling rather than
            // hanging forever.
            cx.waker().wake_by_ref();
        }
        Poll::Pending
    }
}

// ---------------------------------------------------------------------------
// block_on
// ---------------------------------------------------------------------------

struct ThreadWaker(std::thread::Thread);

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.0.unpark();
    }
}

/// Drives a future to completion on the calling thread.
///
/// The thread is marked as a service task while polling (the map's blocking
/// paths then never park it — see `wsm_core::context`); between polls it
/// parks on the std park token, which is sticky, so a wake delivered before
/// the park is never lost.  The park carries a small timeout purely as a
/// backstop against wake-discipline bugs.
pub fn block_on<F: Future>(future: F) -> F::Output {
    let waker = Waker::from(Arc::new(ThreadWaker(std::thread::current())));
    let mut cx = Context::from_waker(&waker);
    let mut future = std::pin::pin!(future);
    loop {
        {
            let _guard = ServiceTaskGuard::new();
            if let Poll::Ready(value) = future.as_mut().poll(&mut cx) {
                return value;
            }
        }
        std::thread::park_timeout(IDLE_WAIT);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn oneshot_roundtrip_through_block_on() {
        let (tx, rx) = oneshot();
        tx.send(17u64);
        assert_eq!(block_on(rx), Ok(17));
    }

    #[test]
    fn oneshot_cancel_on_sender_drop() {
        let (tx, rx) = oneshot::<u64>();
        drop(tx);
        assert_eq!(block_on(rx), Err(Canceled));
    }

    #[test]
    fn oneshot_cross_thread_wakes_receiver() {
        let (tx, rx) = oneshot();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(10)); // lint: allow(thread_sleep) — test stimulus delay, not synchronization
            tx.send(5u32);
        });
        assert_eq!(block_on(rx), Ok(5));
        sender.join().unwrap();
    }

    #[test]
    fn executor_runs_spawned_tasks_to_completion() {
        let exec = Executor::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..32)
            .map(|i| {
                let counter = Arc::clone(&counter);
                exec.spawn(async move {
                    counter.fetch_add(1, Ordering::SeqCst);
                    i * 2
                })
            })
            .collect();
        for (i, handle) in handles.into_iter().enumerate() {
            assert_eq!(block_on(handle), i * 2);
        }
        assert_eq!(counter.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn self_wake_mid_poll_leaves_the_other_worker_free() {
        // Task A wakes itself during its poll and then holds its worker
        // until task B has run (capped at 2 s).  B is spawned only after
        // A's self-wake, so it can run only if the other worker is not
        // blocked behind A's in-flight poll.
        let exec = Executor::new(2);
        let woke = Arc::new(AtomicBool::new(false));
        let b_ran = Arc::new(AtomicBool::new(false));
        let a = {
            let (woke, b_ran) = (Arc::clone(&woke), Arc::clone(&b_ran));
            let mut saw_b = None;
            exec.spawn(std::future::poll_fn(move |cx| {
                if let Some(saw) = saw_b {
                    return Poll::Ready(saw);
                }
                cx.waker().wake_by_ref();
                woke.store(true, Ordering::SeqCst);
                let start = Instant::now();
                while !b_ran.load(Ordering::SeqCst) && start.elapsed() < Duration::from_secs(2) {
                    std::thread::yield_now();
                }
                saw_b = Some(b_ran.load(Ordering::SeqCst));
                Poll::Pending
            }))
        };
        while !woke.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        let b = {
            let b_ran = Arc::clone(&b_ran);
            exec.spawn(async move { b_ran.store(true, Ordering::SeqCst) })
        };
        assert!(block_on(a), "B waited behind A's self-woken poll");
        block_on(b);
    }

    #[test]
    fn sleep_respects_its_deadline() {
        let exec = Executor::new(1);
        let start = Instant::now();
        let sleep = exec.sleep(Duration::from_millis(20));
        block_on(exec.spawn(async move {
            sleep.await;
        }));
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn tasks_see_service_context_and_callers_do_not() {
        let exec = Executor::new(1);
        let inside = block_on(exec.spawn(async { wsm_core::in_service_task() }));
        assert!(inside, "executor polls must run in service-task context");
        assert!(
            !wsm_core::in_service_task(),
            "context must not leak off the workers"
        );
    }
}
