//! Model-checks the real pool sleep/wake handshakes:
//! `wsm_pool::handshake::{Latch, WakeGate}` as used by the registry.
//!
//! Two protocols, both run on the production types routed through the
//! `wsm_sync` shims:
//!
//! * **client handshake** — a worker completes a job (`Latch::set`) and
//!   rings the registry's client gate; the client parks *untimed* in
//!   `WakeGate::wait_until` until the latch probes set.  The wait has no
//!   timeout backstop, so the SeqCst Dekker between `Latch::set` and the
//!   gate's `parked` counter is load-bearing: any missed wakeup shows up as
//!   a model deadlock.
//!
//! * **worker sleep / termination** — the registry main loop's idle path:
//!   `WakeGate::wait_brief` with a "no pending work and not terminating"
//!   predicate, raced against a client that injects work and then requests
//!   termination.  These waits are *timed* (the registry's liveness
//!   backstop), so the model's timeout budget explores spurious/timeout
//!   wakeups; the invariants are that injected work is never lost and the
//!   worker always terminates.
//!
//! Coverage counts use [`wsm_sync::Report::considered`]: schedules executed
//! plus sleep-set-pruned branches (distinct schedules proven redundant).

use std::sync::Arc;
use std::time::Duration;
use wsm_pool::handshake::{Latch, WakeGate};
use wsm_sync::{thread, Model};
use wsm_sync::{AtomicBool, AtomicUsize, Ordering};

/// Four workers finish jobs and ring the shared client gate; the client
/// parks untimed until every latch is set.  A lost notification would
/// deadlock the client — the exact failure mode `WakeGate`'s SeqCst
/// park-counter Dekker exists to prevent.
#[test]
fn registry_client_handshake_never_misses_a_wakeup() {
    let r = Model::with_bound(4)
        .check(|| {
            let gate = Arc::new(WakeGate::new());
            let latches: Arc<Vec<Latch>> = Arc::new((0..4).map(|_| Latch::new()).collect());
            let workers: Vec<_> = (0..4)
                .map(|i| {
                    let (gate, latches) = (Arc::clone(&gate), Arc::clone(&latches));
                    thread::spawn(move || {
                        latches[i].set();
                        gate.notify();
                    })
                })
                .collect();
            gate.wait_until(|| latches.iter().all(Latch::probe));
            for w in workers {
                w.join().unwrap();
            }
        })
        .assert_pass(1_000);
    println!(
        "registry client handshake bound 4: {} schedules + {} pruned = {} considered",
        r.schedules,
        r.pruned,
        r.considered()
    );
    assert!(
        r.considered() >= 10_000,
        "expected >= 10k distinct schedules, considered {}",
        r.considered()
    );
}

/// The registry main loop's idle path: a worker drains a pending-work
/// counter, napping through `wait_brief` when idle, while the client
/// injects three jobs and then requests termination (terminate flag is
/// Relaxed + notify, exactly as `Registry::request_terminate`).  No
/// injected job may be lost and the worker must always exit.
#[test]
fn registry_sleep_termination_loses_no_work() {
    let r = Model::with_bound(4)
        .check(|| {
            let gate = Arc::new(WakeGate::new());
            let pending = Arc::new(AtomicUsize::new(0));
            let term = Arc::new(AtomicBool::new(false));
            let worker = {
                let (gate, pending, term) =
                    (Arc::clone(&gate), Arc::clone(&pending), Arc::clone(&term));
                thread::spawn(move || {
                    let mut processed = 0usize;
                    loop {
                        if pending.load(Ordering::SeqCst) > 0 {
                            pending.fetch_sub(1, Ordering::SeqCst);
                            processed += 1;
                        } else if term.load(Ordering::Relaxed) {
                            // Drain-on-terminate, as `Registry::main_loop`
                            // does: the first version of this harness (and
                            // of the production loop) returned here
                            // directly, and the checker found the lost-work
                            // window — work injected between the pending
                            // check above and the terminate store.
                            while pending.load(Ordering::SeqCst) > 0 {
                                pending.fetch_sub(1, Ordering::SeqCst);
                                processed += 1;
                            }
                            return processed;
                        } else {
                            gate.wait_brief(
                                || {
                                    pending.load(Ordering::SeqCst) == 0
                                        && !term.load(Ordering::Relaxed)
                                },
                                Duration::from_millis(10),
                            );
                        }
                    }
                })
            };
            // A separate injector races the worker's sleep decisions; the
            // main thread requests termination only after the injector is
            // done (the registry's contract: no injections after
            // request_terminate).  Each transition rings the gate, as the
            // registry's inject/request_terminate do.
            let injector = {
                let (gate, pending) = (Arc::clone(&gate), Arc::clone(&pending));
                thread::spawn(move || {
                    for _ in 0..3 {
                        pending.fetch_add(1, Ordering::SeqCst);
                        gate.notify();
                    }
                })
            };
            injector.join().unwrap();
            term.store(true, Ordering::Relaxed);
            gate.notify();
            assert_eq!(worker.join().unwrap(), 3, "injected work lost");
        })
        .assert_pass(1_000);
    println!(
        "registry sleep/termination bound 4: {} schedules + {} pruned = {} considered",
        r.schedules,
        r.pruned,
        r.considered()
    );
    assert!(
        r.considered() >= 10_000,
        "expected >= 10k distinct schedules, considered {}",
        r.considered()
    );
}

/// The bare latch/gate pair, exhaustively (no preemption bound): set + ring
/// versus probe + park can never sleep through the set.
#[test]
fn registry_bare_handshake_exhaustive_unbounded() {
    let r = Model::unbounded()
        .check(|| {
            let gate = Arc::new(WakeGate::new());
            let latch = Arc::new(Latch::new());
            let worker = {
                let (gate, latch) = (Arc::clone(&gate), Arc::clone(&latch));
                thread::spawn(move || {
                    latch.set();
                    gate.notify();
                })
            };
            gate.wait_until(|| latch.probe());
            worker.join().unwrap();
        })
        .assert_pass(2);
    println!(
        "registry bare handshake unbounded: {} schedules, {} pruned",
        r.schedules, r.pruned
    );
}
