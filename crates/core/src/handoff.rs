//! Sequence-stamped result cells: the slot-free hand-off between a combiner
//! and a waiting caller.
//!
//! Every [`crate::ConcurrentMap`] call deposits its operation together with a
//! [`ResultCell`].  The combiner fills the cell; the caller takes from it.
//! The cell is *sequence-stamped*: a single atomic stamp moves
//! `EMPTY → FILLED` exactly once, and the payload mutex is only ever locked on the two sides
//! of that transition — by the combiner before the stamp is released, and by
//! the caller after it is acquired — so the mutex is uncontended by
//! construction and the *waiting* caller's probe is a read-only atomic load
//! on the cell it owns, not a lock acquisition.
//!
//! Every waiting caller probes its own cells this way.  A blocking caller
//! yields a few times between probes before it parks on the map's shared
//! [`crate::doorbell::Doorbell`]; an async `wsm-svc` future probes on every
//! poll and wakes itself while any of its cells is still empty.  No caller is woken *by* its cell: the stamp is
//! the only signal the cell carries.
//!
//! Model harness: `crates/check/tests/model_handoff.rs` drives this cell
//! through the full combiner election under the deterministic scheduler (and
//! its TSO store-buffer mode), asserting delivery is exactly-once and the
//! future's never-parking poll loop cannot lose a result.  See `docs/ORDERINGS.md`.

use wsm_sync::{AtomicUsize, Mutex, Ordering};

/// Stamp value of a cell whose result has not been deposited yet.
const EMPTY: usize = 0;
/// Stamp value of a cell whose result is deposited and visible.
const FILLED: usize = 1;

/// A single-use result cell: stamped `EMPTY → FILLED` by the combiner when
/// the payload is in place; probed (read-only) and then emptied by the one
/// caller that owns it.
pub struct ResultCell<T> {
    stamp: AtomicUsize,
    value: Mutex<Option<T>>,
}

impl<T> Default for ResultCell<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ResultCell<T> {
    /// An empty cell.
    pub fn new() -> Self {
        ResultCell {
            stamp: AtomicUsize::new(EMPTY),
            value: Mutex::new(None),
        }
    }

    /// Deposits the result and publishes it.  Called once, by the combiner
    /// that executed the cell's operation.
    pub fn fill(&self, value: T) {
        *self.value.lock() = Some(value);
        // ord: Release — the publication stamp.  Pairs with the Acquire load
        // in `is_filled`: the payload write above (and the batch execution
        // that produced it) happens-before any probe that observes FILLED.
        // Model: model_handoff.rs (SC + TSO store-buffer mode).
        self.stamp.store(FILLED, Ordering::Release);
    }

    /// True once the result is deposited.  This is the waiter's spin probe:
    /// a read-only load on a cell only this caller owns, so spinning on it
    /// touches no shared line and takes no lock.
    pub fn is_filled(&self) -> bool {
        // ord: Acquire — pairs with the Release stamp in `fill`, making the
        // payload write visible before `try_take` locks the (uncontended)
        // payload mutex.  Model: model_handoff.rs.
        self.stamp.load(Ordering::Acquire) == FILLED
    }

    /// Takes the result if it has been deposited.  Only the owning caller
    /// calls this, so a `Some` is returned exactly once.
    pub fn try_take(&self) -> Option<T> {
        if !self.is_filled() {
            return None;
        }
        self.value.lock().take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fill_then_take_roundtrip() {
        let cell = ResultCell::new();
        assert!(!cell.is_filled());
        assert_eq!(cell.try_take(), None);
        cell.fill(7u64);
        assert!(cell.is_filled());
        assert_eq!(cell.try_take(), Some(7));
        // Single-use: a second take sees the cell emptied (still FILLED, but
        // the payload is gone — the owner never takes twice).
        assert_eq!(cell.try_take(), None);
    }

    #[test]
    fn cross_thread_handoff_delivers_exactly_once() {
        for _ in 0..100 {
            let cell = Arc::new(ResultCell::new());
            let filler = {
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || cell.fill(42u64))
            };
            let mut got = None;
            while got.is_none() {
                got = cell.try_take();
                std::thread::yield_now();
            }
            assert_eq!(got, Some(42));
            filler.join().unwrap();
        }
    }
}
