//! Allocation budget of the steady-state sweep and combine paths.
//!
//! A counting `#[global_allocator]` (allocations + reallocations, counted per
//! thread so the tests of this file may run side by side) pins five things:
//!
//! * a warmed `RecencyMap` moves a batch out of and back into its tree
//!   through buffers it keeps — a removal allocates the `Vec` it returns,
//!   whatever the batch size, and a take into or a push from a buffer the
//!   caller keeps allocates nothing;
//! * a warmed tree held at a steady size takes insert sweeps of fresh keys
//!   and remove sweeps of as many — splits, merges and even-outs — and
//!   allocates nothing but the vector each sweep returns: its nodes live in
//!   pools that stop growing;
//! * `run_batch` on a uniform search stream, with the batch and result
//!   vectors kept from one batch to the next, stays at or under 0.40
//!   allocations per operation on `M1` (all of them PPivot's per-block
//!   vectors; per-node arrays took 0.78, the one-slot-per-item tree with
//!   per-call temporaries 3.5) and makes none on `M2`, whose one-bunch
//!   interface batches stay below PPivot's cut-off;
//! * a request of `k` operations deposited into a warmed two-shard
//!   `ShardedMap` allocates its `k` result cells, the vector holding them and
//!   at most `S` more, however its keys split across the shards, and the
//!   combines that serve it allocate nothing over M2 and only PPivot's
//!   vectors over M1;
//! * awaiting such a request through `WsMapService::call_batch` adds one
//!   result vector.
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
use wsm_core::{BatchedMap, OpId, OpResult, Operation, TaggedOp, M1, M2};
use wsm_shard::ShardedMap;
use wsm_svc::WsMapService;
use wsm_twothree::{End, RecencyMap, Tree23};

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
    let mut moved = Vec::new();
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

        let ((), taking) = allocations(|| map.take_into(End::Back, batch, &mut moved));
        assert_eq!(moved.len(), batch);
        let ((), returning) = allocations(|| map.push_from(End::Front, &mut moved));

        println!(
            "batch {batch:4}: remove_batch {removing} + push_front_batch {pushing}, \
             take_into {taking} + push_from {returning} allocations"
        );
        if round == 0 {
            continue;
        }
        // `remove_batch` may allocate the vector it returns, nothing else;
        // a take into, and a push from, a buffer that has grown allocate
        // nothing.
        assert!(removing <= 1, "remove_batch({batch}) allocated {removing}x");
        assert_eq!(taking, 0, "take_into({batch})");
        assert_eq!(
            pushing + returning,
            0,
            "push_front_batch / push_from({batch})"
        );
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

/// Preloads `map` with `0..KEYS` in 256-op batches, warms it with 64
/// batches of 256 uniform searches, then returns the allocations per
/// operation of 64 more.  The batch and result vectors are kept from one
/// batch to the next, as the combiner keeps them, and filled outside the
/// count.
fn uniform_search_allocations_per_op<M: BatchedMap<u64, u64>>(map: &mut M) -> f64 {
    const BATCH: u64 = 256;
    const ROUNDS: u64 = 64;
    let mut rng = Rng(0xA110C);
    let mut next_id: OpId = 0;
    let mut tag = |op| {
        next_id += 1;
        TaggedOp { id: next_id, op }
    };
    let (mut batch, mut results) = (Vec::new(), Vec::new());
    for base in (0..KEYS).step_by(BATCH as usize) {
        batch.extend((base..base + BATCH).map(|k| tag(Operation::Insert(k, k))));
        results.clear();
        map.run_batch(&mut batch, &mut results);
    }
    let mut total = 0;
    for round in 0..2 * ROUNDS {
        batch.extend((0..BATCH).map(|_| tag(Operation::Search(rng.next() % KEYS))));
        results.clear();
        let (_, n) = allocations(|| map.run_batch(&mut batch, &mut results));
        assert!(batch.is_empty());
        assert_eq!(results.len(), BATCH as usize);
        if round >= ROUNDS {
            total += n;
        }
    }
    total as f64 / (ROUNDS * BATCH) as f64
}

#[test]
fn m1_uniform_searches_stay_under_one_allocation_per_operation() {
    let mut map: M1<u64, u64> = M1::new(4);
    let per_op = uniform_search_allocations_per_op(&mut map);
    println!("M1 uniform searches: {per_op:.4} allocations per operation");
    assert!(
        per_op <= M1_SEARCH_BUDGET,
        "M1::run_batch allocates {per_op:.2}x per operation"
    );
    map.check_invariants();
}

#[test]
fn m2_uniform_searches_allocate_nothing() {
    let mut map: M2<u64, u64> = M2::new(4);
    let per_op = uniform_search_allocations_per_op(&mut map);
    println!("M2 uniform searches: {per_op:.4} allocations per operation");
    assert!(
        per_op <= M2_SEARCH_BUDGET,
        "M2::run_batch allocates {per_op:.2}x per operation"
    );
    map.check_invariants();
}

/// Allocations per operation `M1::run_batch` may make on uniform searches:
/// PPivot's per-block vectors, 0.38 measured.
const M1_SEARCH_BUDGET: f64 = 0.40;

/// Allocations per operation `M2::run_batch` may make on uniform searches:
/// none, since its 16-op interface batches never reach PPivot.
const M2_SEARCH_BUDGET: f64 = 0.0;

/// Shard count of the request-path tests: the benchmark's.
const SHARDS: usize = 2;

/// A preloaded two-shard map whose buffers this thread has already filled
/// past any request below, so their `Vec`s have the capacity they need.
fn warmed_sharded<M: BatchedMap<u64, u64> + Send>(make: impl Fn() -> M) -> ShardedMap<u64, u64, M> {
    let map = ShardedMap::with_shards(SHARDS, |_| make());
    map.insert_batch((0..1024u64).map(|k| (k, k)).collect());
    map.get_batch((0..1024u64).collect());
    map
}

/// Three request shapes: two keys on both shards, two keys on one shard,
/// and 256 keys.
fn request_shapes<M: BatchedMap<u64, u64> + Send>(
    map: &ShardedMap<u64, u64, M>,
) -> Vec<(&'static str, Vec<u64>)> {
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

/// Deposits each request shape into `map` sixteen times: every deposit
/// allocates its `k` cells, the vector holding them and at most `S` more,
/// from the first on; the combines that serve the last eight allocate at
/// most `combine_budget` per operation (the first eight let the combiner's
/// and the maps' buffers reach the size of the shape, which takes up to five
/// at fanout 2).
fn deposit_then_combine<M: BatchedMap<u64, u64> + Send>(
    map: &ShardedMap<u64, u64, M>,
    combine_budget: f64,
) {
    for (shape, keys) in request_shapes(map) {
        let k = keys.len() as u64;
        let mut combining = 0;
        for round in 0..16 {
            let ops = searches(&keys);
            // Nothing is pumped while counting: this is the deposit alone.
            let (cells, deposit) = allocations(|| map.submit_batch(ops));
            println!("submit_batch, {shape}, round {round}: {deposit} allocations");
            assert!(
                deposit <= k + SHARDS as u64 + 2,
                "submit_batch, {shape}: {deposit} allocations for {k} operations"
            );
            let ((), combines) = allocations(|| {
                while map.buffered() {
                    map.pump();
                }
            });
            for (&key, cell) in keys.iter().zip(&cells) {
                assert_eq!(cell.try_take(), Some(OpResult::Search(Some(key))));
            }
            if round >= 8 {
                combining += combines;
            }
        }
        let per_op = combining as f64 / (8 * k) as f64;
        println!("{shape}: the combines allocate {per_op:.4} per operation");
        assert!(
            per_op <= combine_budget,
            "the combines of {shape} allocate {per_op:.2}x per operation"
        );
    }
}

#[test]
fn a_sharded_deposit_allocates_its_cells_and_at_most_s_more() {
    // M1 sorts a cut batch above `SMALL` keys through PPivot, whose
    // per-block vectors are the only allocations of its combine.
    deposit_then_combine(&warmed_sharded(|| M1::new(4)), 0.35);
}

#[test]
fn an_m2_sharded_deposit_allocates_its_cells_and_its_combine_nothing() {
    deposit_then_combine(&warmed_sharded(|| M2::new(4)), 0.0);
}

/// Awaits each request shape through `WsMapService::call_batch` over `map`,
/// with the combine outside the count: the call allocates its deposit and
/// one result vector.
fn awaited_call<M: BatchedMap<u64, u64> + Send + 'static>(map: ShardedMap<u64, u64, M>) {
    let svc = WsMapService::new(map);
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

#[test]
fn an_awaited_call_allocates_one_result_vector_beyond_its_deposit() {
    awaited_call(warmed_sharded(|| M1::new(4)));
}

#[test]
fn an_awaited_m2_call_allocates_one_result_vector_beyond_its_deposit() {
    awaited_call(warmed_sharded(|| M2::new(4)));
}
