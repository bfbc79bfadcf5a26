//! Allocation budget of the steady-state sweep path.
//!
//! A counting `#[global_allocator]` (allocations + reallocations, counted per
//! thread so the tests of this file may run side by side) pins four things:
//!
//! * a warmed `RecencyMap` moves a batch out of and back into its tree
//!   through buffers it keeps — a round trip allocates a constant number of
//!   times (the `Vec` it returns), whatever the batch size;
//! * a warmed tree held at a steady size takes insert sweeps of fresh keys
//!   and remove sweeps of as many — splits, merges and even-outs — and
//!   allocates nothing but the vector each sweep returns: its nodes live in
//!   pools that stop growing;
//! * `M1::run_batch` on a uniform search stream — four mutating sweeps per
//!   accessed item plus the cascade's grouping — stays at or under 0.45
//!   allocations per operation (0.40 with node pools; per-node arrays took
//!   0.78, the one-slot-per-item tree with per-call temporaries 3.5);
//! * a request of `k` operations deposited into a warmed two-shard
//!   `ShardedMap` allocates its `k` result cells, the vector holding them and
//!   at most `S` more, however its keys split across the shards; awaiting it
//!   through `WsMapService::call_batch` adds one result vector.
//!
//! The round trips use a map whose key tree was built in bulk and then
//! thinned evenly to three quarters full, and move at most a few keys of any
//! one node, so no node splits or merges: what is counted is the path.  A
//! split takes its new node from the pool's free list; only a pool that
//! grows allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};
use wsm_core::{BatchedMap, OpResult, Operation, TaggedOp, M1};
use wsm_shard::ShardedMap;
use wsm_svc::WsMapService;
use wsm_twothree::{RecencyMap, Tree23};

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
fn a_steady_size_tree_splits_and_merges_without_allocating() {
    // Every eighth key of `0..KEYS`, among them a set `b`; each round puts
    // one of two 512-key sets, `a` (absent) and `b`, in, from all over the
    // range (splits), and takes the other out (merges and even-outs), so
    // the tree keeps its size and its pools stop growing.
    let mut rng = Rng(0x57EAD);
    let mut a: Vec<u64> = (0..1024).map(|_| (rng.next() % KEYS) | 1).collect();
    a.sort_unstable();
    a.dedup();
    a.truncate(512);
    let mut b: Vec<u64> = (0..1024).map(|_| (rng.next() % KEYS) & !7).collect();
    b.sort_unstable();
    b.dedup();
    b.truncate(a.len());
    let mut tree: Tree23<u64, u64> =
        Tree23::from_sorted((0..KEYS).step_by(8).map(|k| (k, k)).collect());
    let size = tree.len();
    for round in 0..48 {
        let (put, take) = if round % 2 == 0 { (&a, &b) } else { (&b, &a) };
        let items: Vec<(u64, u64)> = put.iter().map(|&k| (k, k)).collect();
        let (_, inserting) = allocations(|| tree.batch_insert(items));
        let (_, removing) = allocations(|| tree.batch_remove(take));
        assert_eq!(tree.len(), size);
        // After the first rounds: the vector each call returns, no more.
        if round >= 16 {
            assert_eq!((inserting, removing), (1, 1), "round {round} allocated");
        }
    }
    tree.check_invariants();
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
    println!("M1 uniform searches: {per_op:.4} allocations per operation");
    assert!(
        per_op <= 0.45,
        "M1::run_batch allocates {per_op:.2}x per operation"
    );
    map.check_invariants();
}

/// Shard count of the request-path tests: the benchmark's.
const SHARDS: usize = 2;

/// A preloaded two-shard map whose buffers this thread has already filled
/// past any request below, so their `Vec`s have the capacity they need.
fn warmed_sharded() -> ShardedMap<u64, u64, M1<u64, u64>> {
    let map = ShardedMap::with_shards(SHARDS, |_| M1::new(4));
    map.insert_batch((0..1024u64).map(|k| (k, k)).collect());
    map.get_batch((0..1024u64).collect());
    map
}

/// Three request shapes: two keys on both shards, two keys on one shard,
/// and 256 keys.
fn request_shapes(map: &ShardedMap<u64, u64, M1<u64, u64>>) -> Vec<(&'static str, Vec<u64>)> {
    let other = (1u64..)
        .find(|k| map.shard_of(k) != map.shard_of(&0))
        .expect("a key on the other shard");
    let same = (1u64..)
        .find(|k| map.shard_of(k) == map.shard_of(&0))
        .expect("a second key on the first shard");
    vec![
        ("2 ops on both shards", vec![0, other]),
        ("2 ops on one shard", vec![0, same]),
        ("256 ops", (0..256).collect()),
    ]
}

fn searches(keys: &[u64]) -> Vec<Operation<u64, u64>> {
    keys.iter().map(|&k| Operation::Search(k)).collect()
}

#[test]
fn a_sharded_deposit_allocates_its_cells_and_at_most_s_more() {
    let map = warmed_sharded();
    for (shape, keys) in request_shapes(&map) {
        let k = keys.len() as u64;
        let ops = searches(&keys);
        // Nothing is pumped while counting: this is the deposit alone.
        let (cells, n) = allocations(|| map.submit_batch(ops));
        println!("submit_batch, {shape}: {n} allocations");
        assert!(
            n <= k + SHARDS as u64 + 2,
            "submit_batch, {shape}: {n} allocations for {k} operations"
        );
        while map.buffered() {
            map.pump();
        }
        for (&key, cell) in keys.iter().zip(&cells) {
            assert_eq!(cell.try_take(), Some(OpResult::Search(Some(key))));
        }
    }
}

#[test]
fn an_awaited_call_allocates_one_result_vector_beyond_its_deposit() {
    let svc = WsMapService::new(warmed_sharded());
    let map = svc.backend();
    let mut cx = Context::from_waker(Waker::noop());
    for (shape, keys) in request_shapes(map) {
        let (cells, deposit) = allocations(|| map.submit_batch(searches(&keys)));
        while map.buffered() {
            map.pump();
        }
        drop(cells);

        let (mut call, calling) = allocations(|| svc.call_batch(searches(&keys)));
        // The combine runs outside the count; the poll then finds every
        // cell filled and only harvests.
        while map.buffered() {
            map.pump();
        }
        let (poll, awaiting) = allocations(|| Pin::new(&mut call).poll(&mut cx));
        let Poll::Ready(results) = poll else {
            panic!("{shape}: every cell was filled before the poll")
        };
        let expected: Vec<OpResult<u64>> =
            keys.iter().map(|&k| OpResult::Search(Some(k))).collect();
        assert_eq!(results, expected);
        let beyond = calling + awaiting - deposit;
        println!("call_batch + poll, {shape}: {beyond} allocations beyond the deposit");
        assert_eq!(beyond, 1, "call_batch, {shape}");
    }
}
