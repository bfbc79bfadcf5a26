//! Allocation budget of the steady-state sweep path.
//!
//! A counting `#[global_allocator]` (allocations + reallocations, counted per
//! thread so the tests of this file may run side by side) pins two things:
//!
//! * a warmed `RecencyMap` moves a batch out of and back into its tree
//!   through buffers it keeps — a round trip allocates a constant number of
//!   times (the `Vec` it returns), whatever the batch size;
//! * `M1::run_batch` on a uniform search stream — four mutating sweeps per
//!   accessed item plus the cascade's grouping — stays at or under one
//!   allocation per operation (the one-slot-per-item tree with per-call
//!   temporaries took 3.5).
//!
//! The round trips use a map whose key tree was built in bulk and then
//! thinned evenly to three quarters full, and move at most a few keys of any
//! one node, so no node splits or merges: what is counted is the path, not
//! tree growth (a split allocates the new node's arrays, as it must).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use wsm_core::{BatchedMap, Operation, TaggedOp, M1};
use wsm_twothree::RecencyMap;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // Not reachable during thread teardown for a `const` cell without a
    // destructor, but an allocator must never panic.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every request is passed unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a plain thread-local integer.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns how often this thread allocated meanwhile.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// `count` distinct keys of the thinned map, sorted.
    fn present_keys(&mut self, count: usize) -> Vec<u64> {
        let mut keys: Vec<u64> = (0..2 * count)
            .map(|_| self.next() % KEYS)
            .filter(|k| k % 4 != 3)
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys.truncate(count);
        keys
    }
}

const KEYS: u64 = 1 << 16;

/// A map in shuffled recency order whose tree is bulk-built over `0..KEYS`
/// (every height-1 node full) and then loses every fourth key.
fn thinned_map(rng: &mut Rng) -> RecencyMap<u64, u64> {
    let mut items: Vec<(u64, u64)> = (0..KEYS).map(|k| (k, k)).collect();
    for i in (1..items.len()).rev() {
        items.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    let mut map = RecencyMap::new();
    map.push_back_batch(items);
    let every_fourth: Vec<u64> = (0..KEYS).filter(|k| k % 4 == 3).collect();
    map.remove_batch(&every_fourth);
    map
}

#[test]
fn recency_round_trips_allocate_a_constant_per_call() {
    let mut rng = Rng(0x5EED);
    let mut map = thinned_map(&mut rng);
    // Largest batch first, so every scratch buffer has reached its size.
    for (round, batch) in [1024usize, 16, 64, 256, 1024].into_iter().enumerate() {
        let keys = rng.present_keys(batch);
        let batch = keys.len();
        let (found, removing) = allocations(|| map.remove_batch(&keys));
        let items: Vec<(u64, u64)> = keys
            .iter()
            .zip(found)
            .map(|(k, v)| (*k, v.expect("every key is present")))
            .collect();
        let ((), pushing) = allocations(|| map.push_front_batch(items));

        let (taken, taking) = allocations(|| map.take_back(batch));
        assert_eq!(taken.len(), batch);
        let ((), returning) = allocations(|| map.push_front_batch(taken));

        println!(
            "batch {batch:4}: remove_batch {removing} + push_front_batch {pushing}, \
             take_back {taking} + push_front_batch {returning} allocations"
        );
        if round == 0 {
            continue;
        }
        // Each call may allocate the vector it returns, nothing else.
        assert!(removing <= 1, "remove_batch({batch}) allocated {removing}x");
        assert!(taking <= 1, "take_back({batch}) allocated {taking}x");
        assert_eq!(pushing + returning, 0, "push_front_batch({batch})");
    }
    map.check_invariants();
}

#[test]
fn m1_uniform_searches_stay_under_one_allocation_per_operation() {
    const BATCH: u64 = 256;
    let mut rng = Rng(0xA110C);
    let mut next_id = 0;
    let mut tagged = |ops: Vec<Operation<u64, u64>>| -> Vec<TaggedOp<u64, u64>> {
        ops.into_iter()
            .map(|op| {
                next_id += 1;
                TaggedOp { id: next_id, op }
            })
            .collect()
    };
    let mut map: M1<u64, u64> = M1::new(4);
    for base in (0..KEYS).step_by(BATCH as usize) {
        map.run_batch(tagged(
            (base..base + BATCH)
                .map(|k| Operation::Insert(k, k))
                .collect(),
        ));
    }
    let mut searches = |rng: &mut Rng| {
        tagged(
            (0..BATCH)
                .map(|_| Operation::Search(rng.next() % KEYS))
                .collect(),
        )
    };
    for _ in 0..64 {
        map.run_batch(searches(&mut rng));
    }
    let rounds = 64;
    let mut total = 0;
    for _ in 0..rounds {
        let batch = searches(&mut rng);
        let ((results, _), n) = allocations(|| map.run_batch(batch));
        assert_eq!(results.len(), BATCH as usize);
        total += n;
    }
    let per_op = total as f64 / (rounds * BATCH) as f64;
    println!("M1 uniform searches: {per_op:.2} allocations per operation");
    assert!(
        per_op <= 1.0,
        "M1::run_batch allocates {per_op:.2}x per operation"
    );
    map.check_invariants();
}
