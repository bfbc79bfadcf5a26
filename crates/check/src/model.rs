//! The deterministic interleaving explorer.
//!
//! [`Model::check`] runs a closure (the *harness*) repeatedly, once per
//! schedule.  Inside a harness, every operation on the shim types of
//! [`crate::sync`] and every [`crate::thread::spawn`]/`join`/`yield_now`
//! is a *scheduling point*: the scheduler decides who runs next, and the
//! thread parks unless it is chosen to continue.  The scheduler drives a
//! depth-first search over those decisions, so the harness is executed under **every** interleaving the
//! search frontier contains:
//!
//! * **Iterative context bounding** (CHESS-style): a schedule may contain at
//!   most `preemption_bound` *preemptions* — switches away from a thread that
//!   could have continued.  Voluntary switches (blocking on a mutex or
//!   condvar, finishing, yields being re-run later) are free.  Most real
//!   concurrency bugs manifest within two preemptions; the bound turns an
//!   astronomically large schedule space into an exhaustively explorable one.
//! * **Sleep-set pruning**: after the search has explored running transition
//!   `t` at a decision point, sibling branches keep `t` asleep until some
//!   executed transition *conflicts* with it (same location, at least one
//!   write).  Schedules that merely commute independent steps are explored
//!   once instead of `n!` times.  (Note the classic caveat: combined with a
//!   finite preemption bound, sleep sets may prune an execution whose only
//!   representative under the bound was the pruned one.  Harness acceptance
//!   tests therefore also run with pruning disabled where cheap, and the
//!   seeded-bug self-tests prove detection power empirically.)
//! * **TSO store-buffer mode** ([`Model::tso`]): stores with an ordering
//!   weaker than `SeqCst` may be held in a per-thread store buffer and
//!   drained later (a separate scheduling choice), while the storing thread
//!   reads its own buffered values (store→load forwarding).  RMWs, `SeqCst`
//!   accesses, and lock/unlock/condvar edges drain the buffer, as on x86.
//!   This refutes invalid `SeqCst` → `Release`/`Acquire` downgrades of
//!   Dekker-style store/load handshakes; reorderings beyond TSO (store/store,
//!   load/load, as on ARM) are *not* modeled, so a downgrade below
//!   acquire/release must be justified by a happens-before argument (e.g. a
//!   protecting mutex), never by this mode alone.
//!
//! A failing schedule (assertion panic inside the harness, deadlock, or step
//! budget exhaustion) stops the search and is reported as a [`Failure`]:
//! a human-readable step list plus the exact decision vector, replayable with
//! [`Model::replay`].
//!
//! The engine contains no `unsafe`: model threads are ordinary OS threads
//! that pass a baton among themselves through mutexes and condvars, and at
//! most one of them is ever runnable at a time.  The thread holding the
//! baton makes the scheduling decisions itself, at each of its scheduling
//! points, until one hands the baton to another thread; a step that
//! continues the same thread costs no OS context switch.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering as StdOrdering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Identifier of a model thread within one execution (spawn order).
pub type ThreadId = usize;

/// Identifier of a shared location within one execution (registration order;
/// deterministic because replayed prefixes perform identical registrations).
pub(crate) type Loc = usize;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What kind of shared object a location is (for trace printing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LocKind {
    Atomic,
    Mutex,
    Condvar,
}

impl LocKind {
    fn prefix(self) -> &'static str {
        match self {
            LocKind::Atomic => "a",
            LocKind::Mutex => "m",
            LocKind::Condvar => "cv",
        }
    }
}

/// The read-modify-write flavours the shim atomics need.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Rmw {
    Add(usize),
    Sub(usize),
    Swap(usize),
    Cas { expected: usize, new: usize },
}

/// A declared (not yet executed) operation of a model thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Op {
    Load(Loc, std::sync::atomic::Ordering),
    Store(Loc, usize, std::sync::atomic::Ordering),
    Rmw(Loc, Rmw, std::sync::atomic::Ordering),
    MutexLock(Loc),
    MutexUnlock(Loc),
    CvWait {
        cv: Loc,
        mutex: Loc,
        timed: bool,
    },
    CvNotify {
        cv: Loc,
        all: bool,
    },
    Yield,
    /// The thread wants to create a new model thread itself (it owns the
    /// closure); granting this runs the thread rather than applying state.
    Spawn,
    Join(ThreadId),
}

/// Access signature of a transition, for conflict detection between sleeping
/// transitions and executed steps.  At most two locations are involved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Sig {
    locs: [Option<(Loc, bool)>; 2], // (location, is_write-like)
}

impl Sig {
    fn empty() -> Sig {
        Sig::default()
    }
    fn one(loc: Loc, write: bool) -> Sig {
        Sig {
            locs: [Some((loc, write)), None],
        }
    }
    fn two(a: (Loc, bool), b: (Loc, bool)) -> Sig {
        Sig {
            locs: [Some(a), Some(b)],
        }
    }
    fn conflicts(&self, other: &Sig) -> bool {
        for &a in self.locs.iter().flatten() {
            for &b in other.locs.iter().flatten() {
                if a.0 == b.0 && (a.1 || b.1) {
                    return true;
                }
            }
        }
        false
    }
}

fn op_sig(op: &Op) -> Sig {
    match *op {
        Op::Load(l, _) => Sig::one(l, false),
        Op::Store(l, _, _) | Op::Rmw(l, _, _) => Sig::one(l, true),
        Op::MutexLock(l) | Op::MutexUnlock(l) => Sig::one(l, true),
        Op::CvWait { cv, mutex, .. } => Sig::two((cv, true), (mutex, true)),
        Op::CvNotify { cv, .. } => Sig::one(cv, true),
        Op::Yield | Op::Spawn | Op::Join(_) => Sig::empty(),
    }
}

/// One schedulable choice at a decision point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Opt {
    /// Run `tid`'s pending transition (start it, apply its declared op, or
    /// complete its post-condvar mutex reacquisition).
    Step(ThreadId),
    /// Wake `tid` from a timed condvar wait by timeout.
    Timeout(ThreadId),
    /// Drain the oldest entry of `tid`'s TSO store buffer into memory.
    Flush(ThreadId),
}

impl Opt {
    fn tid(self) -> ThreadId {
        match self {
            Opt::Step(t) | Opt::Timeout(t) | Opt::Flush(t) => t,
        }
    }
}

/// Thread status from the scheduler's point of view.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Status {
    /// Spawned but has not run to its first scheduling point yet.
    NotStarted,
    /// Parked at a scheduling point with a declared operation.
    Ready(Op),
    /// Parked inside a condvar wait, waiting for notify (or timeout).
    BlockedCv {
        cv: Loc,
        mutex: Loc,
        timed: bool,
    },
    /// Notified (or timed out): must reacquire `mutex` before resuming.
    ///
    /// `timed_out` records how the wait ended, handed back to the thread.
    BlockedMutex {
        mutex: Loc,
        timed_out: bool,
    },
    Finished,
}

/// Baton message granted to a parked thread.
enum Grant {
    /// The declared op was applied by the scheduler; `a`/`b` carry results
    /// (loaded/previous value; CAS success or condvar timed_out flag).
    Apply { a: usize, b: bool },
    /// Run user code (thread start, or a Spawn the thread performs itself).
    Run,
    /// The execution is being torn down; unwind quietly.
    Abort,
}

/// What a model thread reports as it takes the baton to schedule.
enum FromThread {
    Declared,
    Exited(ThreadId),
    Panicked(ThreadId, String),
}

struct ThreadSlot {
    gate: Mutex<Option<Grant>>,
    cv: Condvar,
}

impl ThreadSlot {
    fn grant(&self, g: Grant) {
        *lock(&self.gate) = Some(g);
        self.cv.notify_all();
    }
    fn await_grant(&self) -> Grant {
        let mut g = lock(&self.gate);
        loop {
            if let Some(grant) = g.take() {
                return grant;
            }
            g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

struct ThreadEntry {
    slot: Arc<ThreadSlot>,
    status: Status,
    /// Timeout wake-ups consumed (bounds spurious-wake exploration).
    timeouts_used: u32,
    /// Fairness debt (bitmask of thread ids): set to "every other live
    /// thread" when this thread executes a `yield_now`; each thread that
    /// executes any op is cleared from every mask.  While the mask still
    /// contains a thread that has an enabled step, this thread is not
    /// scheduled — the fairness half of CHESS: a spin loop that yields
    /// (relying on OS fairness for liveness) cannot be starvation-livelocked
    /// by the demonic scheduler, because everyone runnable at the yield gets
    /// a turn before the yielder spins again.  Blocked/finished threads in
    /// the mask are ignored, so fairness never manufactures a deadlock.
    yield_waits: u64,
    name: String,
}

struct MutexState {
    owner: Option<ThreadId>,
}

struct CvState {
    waiters: VecDeque<ThreadId>,
}

/// Mutable shared state of one execution.
pub(crate) struct ExecState {
    threads: Vec<ThreadEntry>,
    locs_by_addr: HashMap<usize, Loc>,
    loc_kinds: Vec<LocKind>,
    mem: HashMap<Loc, usize>,
    mutexes: HashMap<Loc, MutexState>,
    cvs: HashMap<Loc, CvState>,
    /// Per-thread TSO store buffers (oldest first); empty unless `tso`.
    buffers: HashMap<ThreadId, VecDeque<(Loc, usize)>>,
    /// Human-readable step list of the current execution.
    log: Vec<String>,
    live_os_threads: Vec<std::thread::JoinHandle<()>>,
}

impl ExecState {
    fn new() -> ExecState {
        ExecState {
            threads: Vec::new(),
            locs_by_addr: HashMap::new(),
            loc_kinds: Vec::new(),
            mem: HashMap::new(),
            mutexes: HashMap::new(),
            cvs: HashMap::new(),
            buffers: HashMap::new(),
            log: Vec::new(),
            live_os_threads: Vec::new(),
        }
    }

    fn register_loc(&mut self, addr: usize, kind: LocKind, init: usize) -> Loc {
        if let Some(&l) = self.locs_by_addr.get(&addr) {
            return l;
        }
        let l = self.loc_kinds.len();
        self.locs_by_addr.insert(addr, l);
        self.loc_kinds.push(kind);
        match kind {
            LocKind::Atomic => {
                self.mem.insert(l, init);
            }
            LocKind::Mutex => {
                self.mutexes.insert(l, MutexState { owner: None });
            }
            LocKind::Condvar => {
                self.cvs.insert(
                    l,
                    CvState {
                        waiters: VecDeque::new(),
                    },
                );
            }
        }
        l
    }

    fn loc_name(&self, l: Loc) -> String {
        format!("{}{}", self.loc_kinds[l].prefix(), l)
    }

    fn flush_all(&mut self, tid: ThreadId, why: &str) {
        if let Some(buf) = self.buffers.get_mut(&tid) {
            let drained: Vec<(Loc, usize)> = buf.drain(..).collect();
            for (l, v) in drained {
                self.mem.insert(l, v);
                let name = self.loc_name(l);
                self.log
                    .push(format!("t{tid}: [buffer drain on {why}] {name} := {v}"));
            }
        }
    }

    fn read(&self, tid: ThreadId, l: Loc) -> usize {
        // Store→load forwarding from the thread's own buffer, newest first.
        if let Some(buf) = self.buffers.get(&tid) {
            if let Some(&(_, v)) = buf.iter().rev().find(|&&(bl, _)| bl == l) {
                return v;
            }
        }
        *self.mem.get(&l).expect("atomic location registered")
    }
}

/// Where the thread that ends an execution leaves how it ended for the
/// searching thread (`Err`: the scheduling logic itself panicked, with this
/// message).
struct OutcomeSlot {
    slot: Mutex<Option<Result<ExecOutcome, String>>>,
    cv: Condvar,
}

impl OutcomeSlot {
    fn set(&self, end: Result<ExecOutcome, String>) {
        *lock(&self.slot) = Some(end);
        self.cv.notify_all();
    }
    fn wait(&self) -> Result<ExecOutcome, String> {
        let mut slot = lock(&self.slot);
        loop {
            if let Some(end) = slot.take() {
                return end;
            }
            slot = self.cv.wait(slot).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Shared context of one execution; shim operations reach it through TLS.
pub(crate) struct Exec {
    state: Mutex<ExecState>,
    /// The search state, used by whichever thread holds the baton.
    driver: Mutex<Option<Driver>>,
    outcome: OutcomeSlot,
    abort: AtomicBool,
}

/// Thread-local handle to the active execution (None outside model runs).
#[derive(Clone)]
pub(crate) struct Handle {
    pub(crate) exec: Arc<Exec>,
    pub(crate) tid: ThreadId,
}

thread_local! {
    static MODEL_ACTIVE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    static CURRENT: std::cell::RefCell<Option<Handle>> = const { std::cell::RefCell::new(None) };
}

/// Whether the calling thread is currently executing under the model
/// scheduler: the shims' one-branch test between `std` and the scheduler.
#[inline(always)]
pub(crate) fn model_active() -> bool {
    MODEL_ACTIVE.with(|c| c.get())
}

pub(crate) fn current_handle() -> Option<Handle> {
    if !model_active() {
        return None;
    }
    CURRENT.with(|c| c.borrow().clone())
}

struct TlsGuard;

impl Drop for TlsGuard {
    fn drop(&mut self) {
        MODEL_ACTIVE.with(|c| c.set(false));
        CURRENT.with(|c| *c.borrow_mut() = None);
    }
}

fn set_tls(h: Handle) -> TlsGuard {
    MODEL_ACTIVE.with(|c| c.set(true));
    CURRENT.with(|c| *c.borrow_mut() = Some(h));
    TlsGuard
}

/// Panic payload used to unwind model threads during teardown.
struct AbortUnwind;

impl Exec {
    /// Registers (or finds) a shared location.  Called from shim ops.
    pub(crate) fn loc(&self, addr: usize, kind: LocKind, init: usize) -> Loc {
        lock(&self.state).register_loc(addr, kind, init)
    }

    fn check_abort(&self) {
        if self.abort.load(StdOrdering::SeqCst) {
            std::panic::panic_any(AbortUnwind);
        }
    }

    /// Declares `op` for `tid`, parks until the scheduler applies it, and
    /// returns the `(a, b)` result pair of the grant.
    pub(crate) fn declare(self: &Arc<Self>, h: &Handle, op: Op) -> (usize, bool) {
        self.check_abort();
        let slot = {
            let mut st = lock(&self.state);
            st.threads[h.tid].status = Status::Ready(op);
            Arc::clone(&st.threads[h.tid].slot)
        };
        self.drive(Some(FromThread::Declared));
        match slot.await_grant() {
            Grant::Apply { a, b } => (a, b),
            Grant::Run => (0, false),
            Grant::Abort => std::panic::panic_any(AbortUnwind),
        }
    }

    /// Spawns a model thread running `f`; the new thread parks before any
    /// user code until the scheduler starts it.
    pub(crate) fn spawn_thread<F>(self: &Arc<Self>, name: String, f: F) -> ThreadId
    where
        F: FnOnce() + Send + 'static,
    {
        let slot = Arc::new(ThreadSlot {
            gate: Mutex::new(None),
            cv: Condvar::new(),
        });
        let tid = {
            let mut st = lock(&self.state);
            let tid = st.threads.len();
            st.threads.push(ThreadEntry {
                slot: Arc::clone(&slot),
                status: Status::NotStarted,
                timeouts_used: 0,
                yield_waits: 0,
                name: name.clone(),
            });
            st.buffers.insert(tid, VecDeque::new());
            tid
        };
        let exec = Arc::clone(self);
        let os = std::thread::Builder::new()
            .name(format!("wsm-check-{name}"))
            .spawn(move || {
                let _tls = set_tls(Handle {
                    exec: Arc::clone(&exec),
                    tid,
                });
                match slot.await_grant() {
                    Grant::Run => {}
                    Grant::Abort => return,
                    Grant::Apply { .. } => unreachable!("start grant is Run"),
                }
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
                match result {
                    Ok(()) => exec.drive(Some(FromThread::Exited(tid))),
                    Err(payload) => {
                        if payload.downcast_ref::<AbortUnwind>().is_some() {
                            // Teardown unwind; the execution is already over.
                        } else {
                            let msg = panic_message(payload);
                            exec.drive(Some(FromThread::Panicked(tid, msg)));
                        }
                    }
                }
            })
            .expect("spawn model thread");
        lock(&self.state).live_os_threads.push(os);
        tid
    }
}

impl Exec {
    /// Schedules from the calling thread, which holds the baton: reports
    /// `msg`, then takes decisions until a transition hands the baton on
    /// (when it goes back to the caller, the caller's grant is already in
    /// its slot and it resumes without parking) or the execution ends, in
    /// which case the outcome goes to the searching thread.
    fn drive(self: &Arc<Self>, msg: Option<FromThread>) {
        let mut guard = lock(&self.driver);
        let Some(driver) = guard.as_mut().filter(|d| !d.over) else {
            return;
        };
        let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| driver.run(self, msg)));
        let end = match ran {
            Ok(None) => return,
            Ok(Some(outcome)) => Ok(outcome),
            Err(payload) => Err(panic_message(payload)),
        };
        driver.over = true;
        drop(guard);
        self.outcome.set(end);
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// One decision point in the DFS stack.
struct Node {
    options: Vec<Opt>,
    /// Index (into `options`) of the branch the current execution takes.
    taken: usize,
    /// Signature observed when the taken branch executed (moved into
    /// `explored` on backtrack).
    taken_sig: Option<Sig>,
    /// Branches already fully explored at this node, with their signatures.
    explored: Vec<(Opt, Sig)>,
    /// Sleep set inherited on arrival at this node.
    sleep_in: Vec<(Opt, Sig)>,
    /// Remaining preemption budget on arrival.
    budget: u32,
    /// Thread that performed the previous Step/start (preemption accounting).
    prev: Option<ThreadId>,
}

/// Why an execution attempt ended.
enum ExecOutcome {
    /// All threads finished; the schedule count advances.
    Complete,
    /// Every remaining candidate at some node was asleep (schedule is
    /// equivalent to an explored one).
    Pruned,
    /// A failure was observed; search stops.
    Failed(Failure),
}

/// The search state of one execution, held by whichever thread has the
/// baton: the DFS stack being replayed and extended, the running report, and
/// the position in the current schedule.
struct Driver {
    model: Model,
    stack: Vec<Node>,
    report: Report,
    replay: Option<Vec<usize>>,
    depth: usize,
    prev: Option<ThreadId>,
    budget: u32,
    sleep: Vec<(Opt, Sig)>,
    steps: usize,
    /// The execution has ended; later calls find nothing to schedule.
    over: bool,
}

impl Driver {
    /// Takes the scheduling decisions of the current execution, after
    /// `msg` from the thread that holds the baton, until a transition wakes
    /// a thread (`None`: that thread schedules next) or the execution ends.
    fn run(&mut self, exec: &Arc<Exec>, msg: Option<FromThread>) -> Option<ExecOutcome> {
        match msg {
            None | Some(FromThread::Declared) => {}
            Some(FromThread::Exited(tid)) => {
                let mut st = lock(&exec.state);
                st.flush_all(tid, "exit");
                st.threads[tid].status = Status::Finished;
                let name = st.threads[tid].name.clone();
                st.log.push(format!("t{tid}({name}): exited"));
            }
            Some(FromThread::Panicked(tid, msg)) => {
                let st = lock(&exec.state);
                let name = st.threads[tid].name.clone();
                let mut trace = st.log.clone();
                trace.push(format!("t{tid}({name}): panicked: {msg}"));
                drop(st);
                return Some(ExecOutcome::Failed(Failure {
                    message: msg,
                    trace,
                    choices: taken_vector(&self.stack, self.depth),
                }));
            }
        }
        loop {
            // Compute the enabled options in canonical order.
            let (options, unfinished) = self.model.enabled_options(exec, self.prev);
            if options.is_empty() {
                if unfinished.is_empty() {
                    return Some(ExecOutcome::Complete);
                }
                let st = lock(&exec.state);
                // Timed waiters whose timeout budget is exhausted are not a
                // deadlock: the real system would keep waking on its timeout
                // backstop.  If *every* unfinished thread is such a waiter,
                // the schedule is complete (liveness-via-timeout).
                let all_timed_out = unfinished.iter().all(|&t| {
                    matches!(st.threads[t].status, Status::BlockedCv { timed: true, .. })
                });
                if all_timed_out {
                    return Some(ExecOutcome::Complete);
                }
                let who: Vec<String> = unfinished
                    .iter()
                    .map(|&t| format!("t{t}({}) {:?}", st.threads[t].name, st.threads[t].status))
                    .collect();
                let trace = st.log.clone();
                drop(st);
                return Some(ExecOutcome::Failed(Failure {
                    message: format!("deadlock: no runnable thread; blocked: {}", who.join(", ")),
                    trace,
                    choices: taken_vector(&self.stack, self.depth),
                }));
            }
            self.steps += 1;
            if self.steps > self.model.max_steps {
                let trace = lock(&exec.state).log.clone();
                return Some(ExecOutcome::Failed(Failure {
                    message: format!(
                        "step budget exhausted ({} scheduling points): livelock suspect",
                        self.model.max_steps
                    ),
                    trace,
                    choices: taken_vector(&self.stack, self.depth),
                }));
            }

            // Pick the branch: replay vector, existing stack, or a new node.
            let depth = self.depth;
            let chosen_idx = if let Some(vec) = &self.replay {
                if depth >= vec.len() {
                    // Replay vector exhausted: run the remaining schedule
                    // round-robin-deterministically (first option).
                    0
                } else {
                    vec[depth].min(options.len().saturating_sub(1))
                }
            } else if depth < self.stack.len() {
                let node = &self.stack[depth];
                debug_assert_eq!(
                    node.options, options,
                    "nondeterministic harness: decision point {depth} changed between replays"
                );
                node.taken
            } else {
                // Fresh node: first candidate that is not asleep and whose
                // preemption cost fits the budget.
                let mut node = Node {
                    options: options.clone(),
                    taken: usize::MAX,
                    taken_sig: None,
                    explored: Vec::new(),
                    sleep_in: self.sleep.clone(),
                    budget: self.budget,
                    prev: self.prev,
                };
                match first_candidate(&node, &self.model, &mut self.report) {
                    Some(idx) => node.taken = idx,
                    None => {
                        // Every option is asleep (equivalent schedule already
                        // explored) or over the preemption budget.
                        self.stack.push(node);
                        return Some(ExecOutcome::Pruned);
                    }
                }
                self.stack.push(node);
                self.stack[depth].taken
            };

            let opt = options[chosen_idx];
            let cost = preemption_cost(opt, self.prev, &options);
            if self.budget < cost {
                // Only reachable through a stale replay vector.
                self.budget = 0;
            } else {
                self.budget -= cost;
            }

            // Apply the transition.
            let sig = self.model.apply(exec, opt);

            // Update the running sleep set: wake sleepers whose pending
            // transition conflicts with what just executed; drop entries for
            // the thread that moved.
            if self.model.sleep_sets {
                self.sleep
                    .retain(|(p, psig)| p.tid() != opt.tid() && !psig.conflicts(&sig));
                if depth < self.stack.len() {
                    // Branches explored earlier at this node go to sleep in
                    // the current branch.
                    for (p, psig) in &self.stack[depth].explored {
                        if p.tid() != opt.tid() && !psig.conflicts(&sig) {
                            self.sleep.push((*p, *psig));
                        }
                    }
                }
            }
            if let Opt::Step(tid) = opt {
                self.prev = Some(tid);
            }
            if self.replay.is_none() && depth < self.stack.len() {
                // Record the signature for the taken branch (used when this
                // branch is moved into `explored` during backtracking).
                record_sig(&mut self.stack[depth], chosen_idx, sig);
            }
            self.depth += 1;

            // If the transition woke a thread, that thread schedules next,
            // at its next scheduling point or exit.
            if opt_wakes_thread(exec, opt) {
                return None;
            }
        }
    }
}

/// A failing schedule: what went wrong, the executed step list, and the
/// decision vector that reproduces it via [`Model::replay`].
#[derive(Clone, Debug)]
pub struct Failure {
    /// Failure class + message (assertion text, deadlock description, ...).
    pub message: String,
    /// Human-readable executed steps, in order.
    pub trace: Vec<String>,
    /// Option index taken at each decision point (replay vector).
    pub choices: Vec<usize>,
}

impl Failure {
    /// Renders the failure as a replayable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("model failure: {}\n", self.message));
        out.push_str("failing schedule (step list):\n");
        for (i, s) in self.trace.iter().enumerate() {
            out.push_str(&format!("  #{i:<3} {s}\n"));
        }
        let choices: Vec<String> = self.choices.iter().map(|c| c.to_string()).collect();
        out.push_str(&format!("replay vector: [{}]\n", choices.join(",")));
        out
    }
}

/// Result of a [`Model::check`] search.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Distinct complete schedules executed.
    pub schedules: u64,
    /// Branches cut by sleep-set pruning (equivalent to explored schedules).
    pub pruned: u64,
    /// Decision points at which the preemption bound excluded options.
    pub bound_hits: u64,
    /// True if the search stopped at `max_schedules` before exhausting the
    /// bounded space.
    pub capped: bool,
    /// The first failing schedule, if any.
    pub failure: Option<Failure>,
    /// Schedules per preemption bound for iterative runs
    /// ([`Model::check_iter`]); empty for single-bound runs.
    pub per_bound: Vec<(u32, u64)>,
}

impl Report {
    /// Total distinct schedules considered: executed plus those cut by
    /// sleep-set pruning.  A pruned branch is a real schedule whose
    /// exploration was proven redundant (its first transition commutes with
    /// everything the sibling branches already covered), so coverage
    /// criteria count it.
    pub fn considered(&self) -> u64 {
        self.schedules + self.pruned
    }

    /// Asserts the search passed (no failure, not capped) and explored at
    /// least `min_schedules` distinct schedules; returns self for chaining.
    pub fn assert_pass(self, min_schedules: u64) -> Report {
        if let Some(f) = &self.failure {
            panic!("{}", f.render());
        }
        assert!(
            !self.capped,
            "search hit the schedule cap before exhausting the bounded space \
             ({} schedules)",
            self.schedules
        );
        assert!(
            self.schedules >= min_schedules,
            "expected >= {min_schedules} distinct schedules, explored {}",
            self.schedules
        );
        self
    }

    /// Asserts the search found a failure and returns it.
    pub fn assert_fails(self) -> Failure {
        match self.failure {
            Some(f) => f,
            None => panic!(
                "expected a failing schedule, but {} schedules passed",
                self.schedules
            ),
        }
    }
}

/// Model-checker configuration.  See the module docs for semantics.
#[derive(Clone, Debug)]
pub struct Model {
    /// Maximum preemptions per schedule (`None` = unbounded).
    pub preemption_bound: Option<u32>,
    /// Enable the TSO store-buffer mode.
    pub tso: bool,
    /// Enable sleep-set pruning.
    pub sleep_sets: bool,
    /// Per-thread cap on spurious/timeout wake-ups of timed waits (bounds
    /// otherwise-infinite timeout loops).
    pub max_timeouts: u32,
    /// Per-execution scheduling-step budget; exceeding it is a failure
    /// (livelock suspect).
    pub max_steps: usize,
    /// Optional cap on explored schedules (the report notes if it was hit).
    pub max_schedules: Option<u64>,
    /// Per-thread TSO store-buffer capacity (oldest entry auto-drains when
    /// full, like a finite hardware write buffer).
    pub store_buffer_cap: usize,
}

impl Default for Model {
    fn default() -> Self {
        Model::with_bound(2)
    }
}

impl Model {
    /// Sequentially consistent exploration with the given preemption bound.
    pub fn with_bound(bound: u32) -> Model {
        Model {
            preemption_bound: Some(bound),
            tso: false,
            sleep_sets: true,
            max_timeouts: 1,
            max_steps: 20_000,
            max_schedules: Some(2_000_000),
            store_buffer_cap: 2,
        }
    }

    /// TSO store-buffer exploration with the given preemption bound.
    pub fn tso_with_bound(bound: u32) -> Model {
        Model {
            tso: true,
            ..Model::with_bound(bound)
        }
    }

    /// Unbounded (complete) sequentially consistent exploration.
    pub fn unbounded() -> Model {
        Model {
            preemption_bound: None,
            ..Model::with_bound(0)
        }
    }

    /// Explores every schedule of `harness` within the configured bounds.
    ///
    /// The harness runs once per schedule and must be deterministic apart
    /// from scheduling (no wall-clock, no RNG, no ambient threads).
    pub fn check<F>(&self, harness: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        self.search(Arc::new(harness), None)
    }

    /// Iterative context bounding: explores bounds `0..=max_bound` in order,
    /// stopping at the first failing bound (CHESS's search strategy — bugs
    /// reachable with few preemptions are found before the space explodes).
    pub fn check_iter<F>(&self, max_bound: u32, harness: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        let harness: Arc<dyn Fn() + Send + Sync> = Arc::new(harness);
        let mut total = Report::default();
        for bound in 0..=max_bound {
            let mut cfg = self.clone();
            cfg.preemption_bound = Some(bound);
            let r = cfg.search(Arc::clone(&harness), None);
            total.per_bound.push((bound, r.schedules));
            total.schedules += r.schedules;
            total.pruned += r.pruned;
            total.capped |= r.capped;
            total.bound_hits += r.bound_hits;
            if r.failure.is_some() {
                total.failure = r.failure;
                return total;
            }
        }
        total
    }

    /// Re-executes exactly one schedule (a [`Failure::choices`] vector),
    /// returning the failure it reproduces (if it still fails).
    pub fn replay<F>(&self, choices: &[usize], harness: F) -> Option<Failure>
    where
        F: Fn() + Send + Sync + 'static,
    {
        self.search(Arc::new(harness), Some(choices.to_vec()))
            .failure
    }

    fn search(&self, harness: Arc<dyn Fn() + Send + Sync>, replay: Option<Vec<usize>>) -> Report {
        silence_model_thread_panics();
        let mut report = Report::default();
        let mut stack: Vec<Node> = Vec::new();
        let replaying = replay.is_some();
        loop {
            let outcome = self.run_once(&harness, &mut stack, &mut report, replay.as_deref());
            match outcome {
                ExecOutcome::Complete => report.schedules += 1,
                ExecOutcome::Pruned => report.pruned += 1,
                ExecOutcome::Failed(f) => {
                    report.failure = Some(f);
                    return report;
                }
            }
            if replaying {
                return report;
            }
            if let Some(cap) = self.max_schedules {
                if report.schedules >= cap {
                    // Capped iff unexplored branches remained.
                    report.capped = backtrack(&mut stack);
                    return report;
                }
            }
            // Backtrack: advance the deepest node with an unexplored,
            // non-sleeping, in-budget branch; pop exhausted nodes.
            if !backtrack(&mut stack) {
                return report;
            }
        }
    }

    /// Runs one execution, replaying `stack[..]`'s taken choices and
    /// extending the stack at fresh decision points.  The search state moves
    /// into the execution for its duration: the model threads schedule
    /// themselves (see [`Exec::drive`]) while this thread waits for the end.
    fn run_once(
        &self,
        harness: &Arc<dyn Fn() + Send + Sync>,
        stack: &mut Vec<Node>,
        report: &mut Report,
        replay: Option<&[usize]>,
    ) -> ExecOutcome {
        let exec = Arc::new(Exec {
            state: Mutex::new(ExecState::new()),
            driver: Mutex::new(None),
            outcome: OutcomeSlot {
                slot: Mutex::new(None),
                cv: Condvar::new(),
            },
            abort: AtomicBool::new(false),
        });
        let h = Arc::clone(harness);
        let root = exec.spawn_thread("root".to_string(), move || h());
        debug_assert_eq!(root, 0);
        *lock(&exec.driver) = Some(Driver {
            model: self.clone(),
            stack: std::mem::take(stack),
            report: std::mem::take(report),
            replay: replay.map(<[usize]>::to_vec),
            depth: 0,
            prev: None,
            budget: self.preemption_bound.unwrap_or(u32::MAX),
            sleep: Vec::new(),
            steps: 0,
            over: false,
        });
        // This thread takes the first decision (starting the root thread);
        // the model threads take every later one.
        exec.drive(None);
        let end = exec.outcome.wait();
        self.teardown(&exec);
        let driver = lock(&exec.driver).take().expect("search state");
        *stack = driver.stack;
        *report = driver.report;
        end.unwrap_or_else(|msg| panic!("model scheduler panicked: {msg}"))
    }

    /// Enabled options in canonical order (prev thread first, then by id;
    /// steps before timeouts before flushes).  Also returns unfinished
    /// thread ids for deadlock reporting.
    fn enabled_options(
        &self,
        exec: &Arc<Exec>,
        prev: Option<ThreadId>,
    ) -> (Vec<Opt>, Vec<ThreadId>) {
        let st = lock(&exec.state);
        let mut steps: Vec<Opt> = Vec::new();
        let mut timeouts: Vec<Opt> = Vec::new();
        let mut flushes: Vec<Opt> = Vec::new();
        let mut unfinished = Vec::new();
        for (tid, t) in st.threads.iter().enumerate() {
            match &t.status {
                Status::Finished => continue,
                other => {
                    unfinished.push(tid);
                    match other {
                        Status::NotStarted => steps.push(Opt::Step(tid)),
                        Status::Ready(op) => {
                            let enabled = match op {
                                Op::MutexLock(m) => st.mutexes[m].owner.is_none(),
                                Op::Join(target) => st
                                    .threads
                                    .get(*target)
                                    .is_none_or(|e| matches!(e.status, Status::Finished)),
                                _ => true,
                            };
                            if enabled {
                                steps.push(Opt::Step(tid));
                            }
                        }
                        Status::BlockedMutex { mutex, .. } => {
                            if st.mutexes[mutex].owner.is_none() {
                                steps.push(Opt::Step(tid));
                            }
                        }
                        Status::BlockedCv { timed, .. } => {
                            if *timed && t.timeouts_used < self.max_timeouts {
                                timeouts.push(Opt::Timeout(tid));
                            }
                        }
                        Status::Finished => unreachable!(),
                    }
                }
            }
        }
        // Yield fairness: a thread still owing turns from its last yield is
        // ineligible while any owed thread has an enabled step of its own.
        // Only steps suppress steps — timeouts and flushes never mask a
        // yielder — and if the filter would empty the step set it is skipped
        // entirely, so fairness can never manufacture a deadlock.  The masks
        // are a deterministic function of the schedule prefix, so replay and
        // the nondeterminism check are unaffected.
        let steppable: u64 = steps.iter().fold(0, |m, o| m | mask(o.tid()));
        let fair: Vec<Opt> = steps
            .iter()
            .copied()
            .filter(|o| st.threads[o.tid()].yield_waits & steppable == 0)
            .collect();
        if !fair.is_empty() {
            steps = fair;
        }
        if self.tso {
            for (&tid, buf) in st.buffers.iter() {
                if !buf.is_empty() {
                    flushes.push(Opt::Flush(tid));
                }
            }
            flushes.sort_by_key(|o| o.tid());
        }
        drop(st);
        // Canonical order: continuing the previous thread first minimises
        // preemptions on the first-explored path.
        steps.sort_by_key(|o| (Some(o.tid()) != prev, o.tid()));
        timeouts.sort_by_key(|o| o.tid());
        let mut options = steps;
        options.extend(timeouts);
        options.extend(flushes);
        (options, unfinished)
    }

    /// Applies one transition to the execution state, waking the affected
    /// thread where required, and returns the transition's signature.
    fn apply(&self, exec: &Arc<Exec>, opt: Opt) -> Sig {
        let mut st = lock(&exec.state);
        // Yield-fairness bookkeeping: executing any op pays off this
        // thread's entry in every other thread's fairness debt; executing a
        // declared `yield_now` additionally indebts the yielder to every
        // other live thread.  (The `Ready(Op::Yield)` placeholders written
        // by thread start and condvar reacquire are overwritten before they
        // ever reach the scheduler, so the yield test only sees real
        // yields.)
        let is_yield = matches!(opt, Opt::Step(t)
            if matches!(st.threads[t].status, Status::Ready(Op::Yield)));
        let u = opt.tid();
        let live: u64 = st
            .threads
            .iter()
            .enumerate()
            .filter(|(v, t)| *v != u && !matches!(t.status, Status::Finished))
            .fold(0, |m, (v, _)| m | mask(v));
        for (v, t) in st.threads.iter_mut().enumerate() {
            t.yield_waits &= !mask(u);
            if v == u {
                t.yield_waits = if is_yield { live } else { 0 };
            }
        }
        match opt {
            Opt::Flush(tid) => {
                let (l, v) = st.buffers.get_mut(&tid).unwrap().pop_front().unwrap();
                st.mem.insert(l, v);
                let name = st.loc_name(l);
                st.log.push(format!("t{tid}: [buffer drain] {name} := {v}"));
                Sig::one(l, true)
            }
            Opt::Timeout(tid) => {
                let (cv, mutex) = match st.threads[tid].status {
                    Status::BlockedCv { cv, mutex, .. } => (cv, mutex),
                    ref s => unreachable!("timeout on non-waiting thread: {s:?}"),
                };
                st.cvs.get_mut(&cv).unwrap().waiters.retain(|&w| w != tid);
                st.threads[tid].status = Status::BlockedMutex {
                    mutex,
                    timed_out: true,
                };
                st.threads[tid].timeouts_used += 1;
                let name = st.loc_name(cv);
                st.log.push(format!("t{tid}: wait on {name} timed out"));
                Sig::one(cv, true)
            }
            Opt::Step(tid) => {
                let status = st.threads[tid].status.clone();
                let name = st.threads[tid].name.clone();
                match status {
                    Status::NotStarted => {
                        st.log.push(format!("t{tid}({name}): started"));
                        let slot = Arc::clone(&st.threads[tid].slot);
                        // Not `Ready` yet: the thread will declare its first
                        // op when it reaches one.
                        st.threads[tid].status = Status::Ready(Op::Yield);
                        drop(st);
                        slot.grant(Grant::Run);
                        Sig::empty()
                    }
                    Status::BlockedMutex { mutex, timed_out } => {
                        st.mutexes.get_mut(&mutex).unwrap().owner = Some(tid);
                        st.threads[tid].status = Status::Ready(Op::Yield);
                        let mname = st.loc_name(mutex);
                        st.log
                            .push(format!("t{tid}: reacquired {mname} after wait"));
                        let slot = Arc::clone(&st.threads[tid].slot);
                        drop(st);
                        slot.grant(Grant::Apply { a: 0, b: timed_out });
                        Sig::one(mutex, true)
                    }
                    Status::Ready(op) => self.apply_ready(st, tid, op),
                    Status::BlockedCv { .. } | Status::Finished => {
                        unreachable!("scheduled a non-runnable thread")
                    }
                }
            }
        }
    }

    fn apply_ready(&self, mut st: MutexGuard<'_, ExecState>, tid: ThreadId, op: Op) -> Sig {
        use std::sync::atomic::Ordering::SeqCst;
        let sig = op_sig(&op);
        let slot = Arc::clone(&st.threads[tid].slot);
        match op {
            Op::Load(l, ord) => {
                let v = st.read(tid, l);
                let name = st.loc_name(l);
                st.log.push(format!("t{tid}: load {name} -> {v} ({ord:?})"));
                drop(st);
                slot.grant(Grant::Apply { a: v, b: false });
            }
            Op::Store(l, v, ord) => {
                let name = st.loc_name(l);
                if self.tso && ord != SeqCst {
                    let evicted = {
                        let buf = st.buffers.get_mut(&tid).unwrap();
                        buf.push_back((l, v));
                        if buf.len() > self.store_buffer_cap {
                            buf.pop_front()
                        } else {
                            None
                        }
                    };
                    if let Some((ol, ov)) = evicted {
                        // Finite hardware buffer: the oldest entry drains.
                        st.mem.insert(ol, ov);
                    }
                    st.log
                        .push(format!("t{tid}: store {name} := {v} ({ord:?}) [buffered]"));
                } else {
                    st.flush_all(tid, "SeqCst store");
                    st.mem.insert(l, v);
                    st.log
                        .push(format!("t{tid}: store {name} := {v} ({ord:?})"));
                }
                drop(st);
                slot.grant(Grant::Apply { a: 0, b: false });
            }
            Op::Rmw(l, rmw, ord) => {
                // RMWs act on the globally visible value (they drain the
                // store buffer first, as on TSO hardware).
                st.flush_all(tid, "rmw");
                let prev = *st.mem.get(&l).expect("atomic location registered");
                let (next, ok) = match rmw {
                    Rmw::Add(n) => (prev.wrapping_add(n), true),
                    Rmw::Sub(n) => (prev.wrapping_sub(n), true),
                    Rmw::Swap(v) => (v, true),
                    Rmw::Cas { expected, new } => {
                        if prev == expected {
                            (new, true)
                        } else {
                            (prev, false)
                        }
                    }
                };
                if ok {
                    st.mem.insert(l, next);
                }
                let name = st.loc_name(l);
                st.log.push(format!(
                    "t{tid}: rmw {name} {rmw:?} ({ord:?}) -> prev {prev}{}",
                    if ok { "" } else { " [cas failed]" }
                ));
                drop(st);
                slot.grant(Grant::Apply { a: prev, b: ok });
            }
            Op::MutexLock(m) => {
                st.flush_all(tid, "lock");
                let owner = &mut st.mutexes.get_mut(&m).unwrap().owner;
                debug_assert!(owner.is_none(), "granted a held mutex");
                *owner = Some(tid);
                let name = st.loc_name(m);
                st.log.push(format!("t{tid}: lock {name}"));
                drop(st);
                slot.grant(Grant::Apply { a: 0, b: false });
            }
            Op::MutexUnlock(m) => {
                st.flush_all(tid, "unlock");
                st.mutexes.get_mut(&m).unwrap().owner = None;
                let name = st.loc_name(m);
                st.log.push(format!("t{tid}: unlock {name}"));
                drop(st);
                slot.grant(Grant::Apply { a: 0, b: false });
            }
            Op::CvWait { cv, mutex, timed } => {
                // Atomic release-and-wait; the thread stays parked and is
                // NOT granted (it resumes via notify/timeout + reacquire).
                st.flush_all(tid, "wait");
                st.mutexes.get_mut(&mutex).unwrap().owner = None;
                st.cvs.get_mut(&cv).unwrap().waiters.push_back(tid);
                st.threads[tid].status = Status::BlockedCv { cv, mutex, timed };
                let cname = st.loc_name(cv);
                let mname = st.loc_name(mutex);
                st.log.push(format!(
                    "t{tid}: wait on {cname} (released {mname}{})",
                    if timed { ", timed" } else { "" }
                ));
            }
            Op::CvNotify { cv, all } => {
                st.flush_all(tid, "notify");
                let woken: Vec<ThreadId> = {
                    let waiters = &mut st.cvs.get_mut(&cv).unwrap().waiters;
                    if all {
                        waiters.drain(..).collect()
                    } else {
                        waiters.pop_front().into_iter().collect()
                    }
                };
                for w in &woken {
                    let mutex = match st.threads[*w].status {
                        Status::BlockedCv { mutex, .. } => mutex,
                        ref s => unreachable!("cv waiter in state {s:?}"),
                    };
                    st.threads[*w].status = Status::BlockedMutex {
                        mutex,
                        timed_out: false,
                    };
                }
                let name = st.loc_name(cv);
                st.log.push(format!(
                    "t{tid}: notify_{} {name} (woke {:?})",
                    if all { "all" } else { "one" },
                    woken
                ));
                drop(st);
                slot.grant(Grant::Apply { a: 0, b: false });
            }
            Op::Yield => {
                st.log.push(format!("t{tid}: yield"));
                drop(st);
                slot.grant(Grant::Apply { a: 0, b: false });
            }
            Op::Spawn => {
                st.log.push(format!("t{tid}: spawn"));
                drop(st);
                // The thread owns the closure; let it create the new thread.
                slot.grant(Grant::Run);
            }
            Op::Join(target) => {
                st.log.push(format!("t{tid}: join t{target}"));
                drop(st);
                slot.grant(Grant::Apply { a: 0, b: false });
            }
        }
        sig
    }

    /// Tears an execution down: aborts every live model thread and joins the
    /// OS threads so executions never overlap.
    fn teardown(&self, exec: &Arc<Exec>) {
        exec.abort.store(true, StdOrdering::SeqCst);
        let (slots, handles) = {
            let mut st = lock(&exec.state);
            let slots: Vec<Arc<ThreadSlot>> = st
                .threads
                .iter()
                .filter(|t| !matches!(t.status, Status::Finished))
                .map(|t| Arc::clone(&t.slot))
                .collect();
            let handles: Vec<std::thread::JoinHandle<()>> = st.live_os_threads.drain(..).collect();
            (slots, handles)
        };
        for s in &slots {
            s.grant(Grant::Abort);
        }
        for h in handles {
            let _ = h.join();
        }
    }
}

/// Installs (once) a panic hook that suppresses the default backtrace spew
/// for model threads: their panics are either captured and reported as a
/// [`Failure`] with a step trace, or deliberate teardown unwinds.
fn silence_model_thread_panics() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let on_model_thread = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("wsm-check-"));
            if !on_model_thread {
                prev(info);
            }
        }));
    });
}

/// Bit for `tid` in a fairness mask.  Threads beyond 64 are exempt from
/// fairness bookkeeping (model harnesses use a handful of threads).
fn mask(tid: ThreadId) -> u64 {
    if tid < 64 {
        1 << tid
    } else {
        0
    }
}

fn opt_wakes_thread(exec: &Arc<Exec>, opt: Opt) -> bool {
    match opt {
        Opt::Flush(_) | Opt::Timeout(_) => false,
        Opt::Step(tid) => {
            // CvWait leaves the thread parked; everything else woke it.
            let st = lock(&exec.state);
            !matches!(st.threads[tid].status, Status::BlockedCv { .. })
        }
    }
}

fn record_sig(node: &mut Node, taken_idx: usize, sig: Sig) {
    debug_assert_eq!(node.taken, taken_idx);
    // The signature is attached when the branch is retired into `explored`
    // during backtracking; stash it in a parallel slot until then.
    node.taken_sig = Some(sig);
}

fn taken_vector(stack: &[Node], depth: usize) -> Vec<usize> {
    stack.iter().take(depth).map(|n| n.taken).collect()
}

/// Preemption cost of choosing `opt` when `prev` ran the previous step:
/// 1 if this switches away from a thread that could have continued.
fn preemption_cost(opt: Opt, prev: Option<ThreadId>, options: &[Opt]) -> u32 {
    let prev = match prev {
        Some(p) => p,
        None => return 0,
    };
    if opt.tid() == prev && matches!(opt, Opt::Step(_)) {
        return 0;
    }
    if matches!(opt, Opt::Flush(_)) {
        return 0; // hardware buffer drain, not a thread switch
    }
    let prev_enabled = options
        .iter()
        .any(|o| matches!(o, Opt::Step(t) if *t == prev));
    u32::from(prev_enabled)
}

/// First branch at a fresh node that is not asleep and fits the budget.
fn first_candidate(node: &Node, model: &Model, report: &mut Report) -> Option<usize> {
    candidate_from(node, 0, model, report)
}

/// First eligible branch at `node` starting from option index `from`.
fn candidate_from(node: &Node, from: usize, model: &Model, report: &mut Report) -> Option<usize> {
    let mut bound_skipped = false;
    for (idx, opt) in node.options.iter().enumerate().skip(from) {
        if node.explored.iter().any(|(p, _)| p == opt) {
            continue;
        }
        if model.sleep_sets && node.sleep_in.iter().any(|(p, _)| p == opt) {
            continue;
        }
        if preemption_cost(*opt, node.prev, &node.options) > node.budget {
            bound_skipped = true;
            continue;
        }
        if bound_skipped {
            report.bound_hits += 1;
        }
        return Some(idx);
    }
    if bound_skipped {
        report.bound_hits += 1;
    }
    None
}

/// Retires the taken branch of the deepest node and advances to the next
/// eligible branch; pops nodes with none left.  Returns false when the whole
/// space is exhausted.
fn backtrack(stack: &mut Vec<Node>) -> bool {
    // A throwaway report absorbs bound-hit counts during candidate scans
    // (they were already counted when the node was first expanded).
    let mut scratch = Report::default();
    while let Some(node) = stack.last_mut() {
        if node.taken != usize::MAX {
            let opt = node.options[node.taken];
            let sig = node.taken_sig.take().unwrap_or_else(Sig::empty);
            node.explored.push((opt, sig));
        }
        // Model settings live outside; sleep/bound eligibility was encoded in
        // the node itself, so re-scan with a permissive model and re-check
        // sleep/budget via the stored fields.
        let model = Model {
            preemption_bound: Some(node.budget),
            sleep_sets: true,
            ..Model::with_bound(node.budget)
        };
        match candidate_from(node, 0, &model, &mut scratch) {
            Some(idx) => {
                node.taken = idx;
                return true;
            }
            None => {
                stack.pop();
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::{AtomicUsize, Ordering};
    use std::collections::BTreeSet;
    use std::sync::Mutex as StdMutex;

    /// Every SC outcome of the store/load cross (Dekker kernel) and nothing
    /// else: (0,0) is impossible under sequential consistency.
    fn dekker_outcomes(model: Model) -> BTreeSet<(usize, usize)> {
        let outcomes = Arc::new(StdMutex::new(BTreeSet::new()));
        let sink = Arc::clone(&outcomes);
        let r = model.check(move || {
            let x = Arc::new(AtomicUsize::new(0));
            let y = Arc::new(AtomicUsize::new(0));
            let t = {
                let (x, y) = (Arc::clone(&x), Arc::clone(&y));
                crate::thread::spawn(move || {
                    y.store(1, Ordering::SeqCst);
                    x.load(Ordering::SeqCst)
                })
            };
            x.store(1, Ordering::SeqCst);
            let saw_y = y.load(Ordering::SeqCst);
            let saw_x = t.join().unwrap();
            sink.lock().unwrap().insert((saw_x, saw_y));
        });
        assert!(r.failure.is_none(), "{}", r.failure.unwrap().render());
        assert!(!r.capped);
        Arc::try_unwrap(outcomes).unwrap().into_inner().unwrap()
    }

    #[test]
    fn sc_dekker_covers_exactly_the_sc_outcomes() {
        let expect: BTreeSet<(usize, usize)> = [(1, 0), (0, 1), (1, 1)].into_iter().collect();
        // Bound 2 with sleep sets must already cover all SC outcomes...
        assert_eq!(dekker_outcomes(Model::with_bound(2)), expect);
        // ...and agree with the unbounded, unpruned exploration.
        let mut full = Model::unbounded();
        full.sleep_sets = false;
        assert_eq!(dekker_outcomes(full), expect);
    }

    #[test]
    fn tso_dekker_adds_the_relaxed_outcome() {
        let outcomes = Arc::new(StdMutex::new(BTreeSet::new()));
        let sink = Arc::clone(&outcomes);
        let r = Model::tso_with_bound(2).check(move || {
            let x = Arc::new(AtomicUsize::new(0));
            let y = Arc::new(AtomicUsize::new(0));
            let t = {
                let (x, y) = (Arc::clone(&x), Arc::clone(&y));
                crate::thread::spawn(move || {
                    y.store(1, Ordering::Release);
                    x.load(Ordering::Acquire)
                })
            };
            x.store(1, Ordering::Release);
            let saw_y = y.load(Ordering::Acquire);
            let saw_x = t.join().unwrap();
            sink.lock().unwrap().insert((saw_x, saw_y));
        });
        assert!(r.failure.is_none());
        let outcomes = Arc::try_unwrap(outcomes).unwrap().into_inner().unwrap();
        assert!(
            outcomes.contains(&(0, 0)),
            "TSO must expose the store-buffer outcome (0,0); saw {outcomes:?}"
        );
    }

    #[test]
    fn sleep_sets_preserve_outcome_coverage_on_counter() {
        // Three increments across two threads: final count must always be 3,
        // and pruning must not hide any interleaving that violates it.
        let run = |sleep_sets: bool| {
            let mut m = Model::with_bound(3);
            m.sleep_sets = sleep_sets;
            m.check(|| {
                let c = Arc::new(AtomicUsize::new(0));
                let t = {
                    let c = Arc::clone(&c);
                    crate::thread::spawn(move || {
                        c.fetch_add(1, Ordering::SeqCst);
                        c.fetch_add(1, Ordering::SeqCst);
                    })
                };
                c.fetch_add(1, Ordering::SeqCst);
                t.join().unwrap();
                assert_eq!(c.load(Ordering::SeqCst), 3);
            })
        };
        let pruned = run(true);
        let full = run(false);
        assert!(pruned.failure.is_none());
        assert!(full.failure.is_none());
        assert!(pruned.schedules <= full.schedules);
        assert!(pruned.schedules >= 1);
    }

    #[test]
    fn failing_schedule_replays_to_the_same_failure() {
        let model = Model::with_bound(2);
        let f = model
            .check(crate::fixtures::racy_claim_harness)
            .assert_fails();
        assert!(!f.trace.is_empty());
        let replayed = model
            .replay(&f.choices, crate::fixtures::racy_claim_harness)
            .expect("replay vector must reproduce the failure");
        assert_eq!(replayed.message, f.message);
    }

    #[test]
    fn deadlock_replays_deterministically() {
        let model = Model::with_bound(2);
        let f = model
            .check(crate::fixtures::buggy_doorbell_harness)
            .assert_fails();
        assert!(f.message.contains("deadlock"), "got: {}", f.message);
        let replayed = model
            .replay(&f.choices, crate::fixtures::buggy_doorbell_harness)
            .expect("deadlock must replay");
        assert!(replayed.message.contains("deadlock"));
    }

    #[test]
    fn mutex_provides_mutual_exclusion() {
        use crate::sync::Mutex;
        let r = Model::with_bound(2).check(|| {
            let m = Arc::new(Mutex::new(0u32));
            let t = {
                let m = Arc::clone(&m);
                crate::thread::spawn(move || {
                    let mut g = m.lock();
                    let read = *g;
                    *g = read + 1;
                })
            };
            {
                let mut g = m.lock();
                let read = *g;
                *g = read + 1;
            }
            t.join().unwrap();
            assert_eq!(*m.lock(), 2);
        });
        r.assert_pass(2);
    }

    #[test]
    fn condvar_notify_before_wait_under_lock_is_never_lost() {
        use crate::sync::{Condvar, Mutex};
        // The CORRECT doorbell pattern: bump + notify happen under the gate.
        let r = Model::with_bound(3).check(|| {
            let gate = Arc::new(Mutex::new(0u32));
            let cv = Arc::new(Condvar::new());
            let t = {
                let (gate, cv) = (Arc::clone(&gate), Arc::clone(&cv));
                crate::thread::spawn(move || {
                    let mut g = gate.lock();
                    *g += 1;
                    drop(g);
                    cv.notify_all();
                })
            };
            let mut g = gate.lock();
            while *g == 0 {
                cv.wait(&mut g);
            }
            drop(g);
            t.join().unwrap();
        });
        r.assert_pass(2);
    }

    #[test]
    fn iterative_bounding_reports_per_bound_counts() {
        let r = Model::with_bound(0).check_iter(2, || {
            let c = Arc::new(AtomicUsize::new(0));
            let t = {
                let c = Arc::clone(&c);
                crate::thread::spawn(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                })
            };
            c.fetch_add(1, Ordering::SeqCst);
            t.join().unwrap();
        });
        assert!(r.failure.is_none());
        assert_eq!(r.per_bound.len(), 3);
        assert!(r.per_bound.iter().all(|&(_, n)| n >= 1));
    }

    #[test]
    fn timed_wait_times_out_as_a_scheduler_choice() {
        use crate::sync::{Condvar, Mutex};
        // No notifier exists: only the timeout transition can finish the
        // wait, and the exhausted-timeout tail counts as completion.
        let r = Model::with_bound(2).check(|| {
            let gate = Arc::new(Mutex::new(()));
            let cv = Arc::new(Condvar::new());
            let mut g = gate.lock();
            let res = cv.wait_for(&mut g, std::time::Duration::from_millis(1));
            assert!(res.timed_out());
        });
        r.assert_pass(1);
    }
}
