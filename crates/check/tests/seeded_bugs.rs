//! Seeded-bug regression suite: the checker must *find* each intentionally
//! broken protocol in `wsm_check::fixtures` (and the lock-order inversion
//! below), and the failing schedule it
//! reports must replay deterministically to the same failure.  These are the
//! checker's teeth — if an engine change ever makes one of these pass, the
//! checker has lost the ability to catch the corresponding real-world bug
//! class (and the protocol harnesses' green results mean nothing).

use std::sync::Arc;
use wsm_check::fixtures;
use wsm_sync::{thread, Model, Mutex};

/// The PR 2 regression: `ring` bumps the doorbell generation without the
/// gate mutex, so a waiter can check-then-sleep across the notify.  The
/// model must report the lost wakeup as a deadlock of the waiting thread.
#[test]
fn finds_missed_wakeup_doorbell() {
    let failure = Model::with_bound(2)
        .check(fixtures::buggy_doorbell_harness)
        .assert_fails();
    assert!(
        failure.message.contains("deadlock"),
        "expected a deadlock (lost wakeup), got: {}",
        failure.message
    );
    // The reported schedule must be a complete reproducer on its own.
    let replayed = Model::with_bound(2)
        .replay(&failure.choices, fixtures::buggy_doorbell_harness)
        .expect("replaying the failing schedule must fail again");
    assert_eq!(replayed.message, failure.message);
}

/// A doorbell that skips the notify when it counts no sleepers, but reads
/// the count before taking the gate: a waiter parking between the read and
/// the bump sleeps forever.  The model must report that lost wakeup as a
/// deadlock too.
#[test]
fn finds_ungated_sleeper_count_doorbell() {
    let failure = Model::with_bound(2)
        .check(fixtures::ungated_count_doorbell_harness)
        .assert_fails();
    assert!(
        failure.message.contains("deadlock"),
        "expected a deadlock (lost wakeup), got: {}",
        failure.message
    );
    let replayed = Model::with_bound(2)
        .replay(&failure.choices, fixtures::ungated_count_doorbell_harness)
        .expect("replaying the failing schedule must fail again");
    assert_eq!(replayed.message, failure.message);
}

/// Two threads take the same two mutexes in opposite orders.
fn lock_order_inversion_harness() {
    let a = Arc::new(Mutex::new(0u32));
    let b = Arc::new(Mutex::new(0u32));
    let t = {
        let (a, b) = (Arc::clone(&a), Arc::clone(&b));
        thread::spawn(move || {
            let _ga = a.lock();
            let _gb = b.lock();
        })
    };
    {
        let _gb = b.lock();
        let _ga = a.lock();
    }
    t.join().unwrap();
}

/// A lock-order inversion: each thread can hold one mutex while blocking on
/// the other.  The model must report the deadlock of two threads blocked on
/// mutexes, not only the condvar waits of the doorbell fixtures.
#[test]
fn finds_lock_order_inversion_deadlock() {
    let failure = Model::with_bound(2)
        .check(lock_order_inversion_harness)
        .assert_fails();
    assert!(
        failure.message.contains("deadlock"),
        "expected a deadlock, got: {}",
        failure.message
    );
    let replayed = Model::with_bound(2)
        .replay(&failure.choices, lock_order_inversion_harness)
        .expect("replaying the failing schedule must fail again");
    assert_eq!(replayed.message, failure.message);
}

/// The broken MPSC claim protocol (load+store instead of CAS): two producers
/// can claim the same slot.  The model must find the duplicated claim.
#[test]
fn finds_racy_mpsc_claim() {
    let failure = Model::with_bound(2)
        .check(fixtures::racy_claim_harness)
        .assert_fails();
    assert!(
        failure.message.contains("same slot"),
        "expected the duplicate-claim assertion, got: {}",
        failure.message
    );
    assert!(!failure.trace.is_empty(), "a failure carries its step list");
    let replayed = Model::with_bound(2)
        .replay(&failure.choices, fixtures::racy_claim_harness)
        .expect("replaying the failing schedule must fail again");
    assert_eq!(replayed.message, failure.message);
}

/// The under-ordered Dekker handshake is SC-correct but TSO-broken: only the
/// store-buffer mode may refute it, and the SeqCst version must survive both.
#[test]
fn relaxed_dekker_fails_only_under_tso() {
    Model::with_bound(3)
        .check(fixtures::relaxed_dekker_harness)
        .assert_pass(1);
    let failure = Model::tso_with_bound(3)
        .check(fixtures::relaxed_dekker_harness)
        .assert_fails();
    assert!(
        failure.message.contains("handshake lost"),
        "expected the lost-handshake assertion, got: {}",
        failure.message
    );
    let replayed = Model::tso_with_bound(3)
        .replay(&failure.choices, fixtures::relaxed_dekker_harness)
        .expect("replaying the failing schedule must fail again");
    assert_eq!(replayed.message, failure.message);
    Model::tso_with_bound(3)
        .check(fixtures::seqcst_dekker_harness)
        .assert_pass(1);
}
