//! Fixture: R7 `orderings-ref`, the code the audit fixture points at.

use std::sync::atomic::{AtomicUsize, Ordering};

pub fn read(c: &AtomicUsize) -> usize {
    c.load(Ordering::SeqCst)
}

pub fn bump(c: &AtomicUsize) {
    // A comment naming c.fetch_add(1) performs nothing: comments are masked.
    c
        .fetch_add(1, Ordering::SeqCst);
}
