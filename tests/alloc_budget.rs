//! Allocation budget of the steady-state sweep and combine paths, and the
//! live bytes an item costs.
//!
//! A counting `#[global_allocator]` (allocations + reallocations, counted per
//! thread, and the bytes allocated minus the bytes freed, counted for the
//! process; the tests of this file take turns, so neither count sees
//! another test's work) pins eight things:
//!
//! * the live bytes per item a preload of 2^16 `u64`/`u64` items leaves in
//!   a `RecencyMap` at B ∈ {2, 16, 64}, and in `M1` at the process fanout,
//!   stay under their recorded bounds;
//! * a warmed `RecencyMap` moves a batch out of and back into its tree
//!   through buffers it keeps — a removal allocates the `Vec` it returns,
//!   whatever the batch size, and a take into or a push from a buffer the
//!   caller keeps allocates nothing;
//! * with `String` keys and values, a warmed `RecencyMap` allocates nothing
//!   for hit removals, point removals, takes from either end, or pushes of
//!   items whose key is present: a removed key moves out of its cell, and a
//!   routing key is rewritten in place;
//! * a warmed tree held at a steady size takes insert sweeps of fresh keys
//!   and remove sweeps of as many — splits, merges and even-outs — and
//!   allocates nothing but the vector each sweep returns: its nodes live in
//!   pools that stop growing;
//! * `run_batch` on a uniform search stream, with the batch and result
//!   vectors kept from one batch to the next, stays at or under 0.0002
//!   allocations per operation on `M1` (three node-pool growths in 16 384
//!   operations; PPivot's per-block vectors took 0.38 before they were kept
//!   in the sort's scratch, per-node arrays 0.78, the one-slot-per-item tree
//!   with per-call temporaries 3.5) and makes none on `M2`;
//! * a request of `k` operations deposited into a warmed two-shard
//!   `ShardedMap` allocates its `k` result cells, the vector holding them and
//!   at most `S` more, however its keys split across the shards, and the
//!   combines that serve it allocate nothing over M1 or M2;
//! * awaiting such a request through `WsMapService::call_batch` adds one
//!   result vector;
//! * a warmed `Wal::append` allocates nothing under the `batch` and `off`
//!   sync policies: the record is framed in a buffer the log keeps, and
//!   `off` writes its staged records out of that buffer and clears it.
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
use std::sync::atomic::{AtomicI64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard};
use std::task::{Context, Poll, Waker};
use wsm_core::{BatchedMap, OpId, OpResult, Operation, TaggedOp, M1, M2};
use wsm_shard::ShardedMap;
use wsm_svc::WsMapService;
use wsm_twothree::{End, RecencyMap, Tree23};
use wsm_wal::{SyncPolicy, Wal};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Bytes allocated minus bytes freed, by every thread of the process.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

/// Held by every test of this file for its whole run, so the process-wide
/// byte count sees one test at a time.
static TURN: Mutex<()> = Mutex::new(());

fn turn() -> MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
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
        LIVE_BYTES.fetch_add(layout.size() as i64, Relaxed);
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Relaxed);
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Relaxed);
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
    let _turn = turn();
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

/// `thinned_map`'s layout with owned keys and values of one length each,
/// so a routing key rewritten in place always fits its buffer.
fn thinned_owned_map(rng: &mut Rng) -> RecencyMap<String, String> {
    let mut ids: Vec<u64> = (0..KEYS).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    let mut map = RecencyMap::new();
    map.push_back_batch(ids.into_iter().map(owned_item).collect());
    let every_fourth: Vec<String> = (0..KEYS).filter(|k| k % 4 == 3).map(owned_key).collect();
    map.remove_batch(&every_fourth);
    map
}

fn owned_key(k: u64) -> String {
    format!("key-{k:05}")
}

fn owned_item(k: u64) -> (String, String) {
    (owned_key(k), format!("val-{k:05}"))
}

#[test]
fn owned_removals_takes_and_repushes_allocate_nothing() {
    let _turn = turn();
    let mut rng = Rng(0x0111ED);
    let mut map = thinned_owned_map(&mut rng);
    let (mut found, mut moved) = (Vec::new(), Vec::new());
    // Largest batch first, so every scratch buffer has reached its size.
    for (round, batch) in [1024usize, 16, 64, 256, 1024].into_iter().enumerate() {
        let keys: Vec<String> = rng.present_keys(batch).into_iter().map(owned_key).collect();
        let batch = keys.len();
        found.clear();
        let ((), removing) = allocations(|| map.remove_batch_with(&keys, |v| found.push(v)));
        assert!(found.iter().all(Option::is_some), "every key is present");
        let items: Vec<(String, String)> =
            keys.into_iter().zip(found.drain(..).flatten()).collect();
        map.push_front_batch(items);

        let mut taking = 0;
        for end in [End::Back, End::Front] {
            let ((), n) = allocations(|| map.take_into(end, batch, &mut moved));
            assert_eq!(moved.len(), batch);
            taking += n;
            map.push_from(end, &mut moved);
        }

        // Upserts of present keys, with the new items made outside the
        // count: the map keeps its key and its slot.
        let present = rng.present_keys(batch);
        let again: Vec<(String, String)> = present.iter().map(|&k| owned_item(k)).collect();
        let ((), repushing) = allocations(|| {
            for (i, (key, val)) in again.into_iter().enumerate() {
                let old = if i % 2 == 0 {
                    map.insert_front(key, val)
                } else {
                    map.insert_back(key, val)
                };
                assert!(old.is_some(), "every key is present");
            }
        });

        let point = owned_key(present[0]);
        let (old, point_removing) = allocations(|| map.remove(&point));
        map.insert_front(point, old.expect("the key is present"));

        println!(
            "batch {batch:4}: remove_batch_with {removing}, take_into {taking}, \
             upserts {repushing}, remove {point_removing} allocations"
        );
        if round == 0 {
            continue;
        }
        assert_eq!(removing, 0, "remove_batch_with({batch})");
        assert_eq!(taking, 0, "take_into({batch}) at both ends");
        assert_eq!(
            repushing, 0,
            "insert_front / insert_back of {batch} present keys"
        );
        assert_eq!(point_removing, 0, "remove");
    }
    assert_eq!(map.len(), (KEYS - KEYS / 4) as usize);
    map.check_invariants();
}

/// Runs `build` and returns what it built with the bytes per item it left
/// allocated: bytes allocated minus bytes freed meanwhile, over `KEYS`.
fn live_bytes_per_item<T>(build: impl FnOnce() -> T) -> (T, f64) {
    let before = LIVE_BYTES.load(Relaxed);
    let built = build();
    let live = LIVE_BYTES.load(Relaxed) - before;
    (built, live as f64 / KEYS as f64)
}

/// `KEYS` distinct keys in a shuffled order.
fn shuffled_keys(rng: &mut Rng) -> Vec<u64> {
    let mut keys: Vec<u64> = (0..KEYS).collect();
    for i in (1..keys.len()).rev() {
        keys.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    keys
}

/// Preloads `M1` with `KEYS` shuffled keys in 256-op insert batches, the
/// way `uniform_search_allocations_per_op` does, and drops its buffers.
fn preloaded_m1(keys: &[u64]) -> M1<u64, u64> {
    let mut map = M1::new(4);
    let (mut batch, mut results) = (Vec::new(), Vec::new());
    let mut next_id: OpId = 0;
    for chunk in keys.chunks(256) {
        batch.extend(chunk.iter().map(|&k| {
            next_id += 1;
            TaggedOp {
                id: next_id,
                op: Operation::Insert(k, k),
            }
        }));
        results.clear();
        map.run_batch(&mut batch, &mut results);
    }
    map
}

/// Bounds on the live bytes per `u64`/`u64` item of a 2^16-item preload,
/// `(fanout, RecencyMap, M1)`: the measured 96.1, 56.1 and 50.1 bytes in a
/// `RecencyMap` and 97.2, 57.0 and 50.9 in `M1`, rounded up.  Past the
/// 16-byte payload that is the 24-byte list slot, the key tree's own copy
/// of the key and its 4-byte value cell at the nodes' fill, and the spare
/// capacity of the pools and the arena, which grow by doubling.
const LIVE_BYTES_BOUNDS: [(usize, f64, f64); 3] =
    [(2, 97.0, 98.0), (16, 57.0, 58.0), (64, 51.0, 51.0)];

#[test]
fn an_item_costs_its_payload_and_a_few_links() {
    let _turn = turn();
    let mut rng = Rng(0xB17E5);
    let keys = shuffled_keys(&mut rng);
    for &(fanout, map_bound, m1_bound) in &LIVE_BYTES_BOUNDS {
        let (map, per_item) = live_bytes_per_item(|| {
            let mut map = RecencyMap::with_fanout(fanout);
            for chunk in keys.chunks(256) {
                map.push_front_batch(chunk.iter().map(|&k| (k, k)).collect());
            }
            map
        });
        println!("RecencyMap<u64, u64>, B = {fanout}: {per_item:.1} live bytes per item");
        assert_eq!(map.len(), KEYS as usize);
        assert!(
            per_item <= map_bound,
            "B = {fanout}: a RecencyMap item costs {per_item:.1} bytes, over {map_bound}"
        );
        if fanout == wsm_twothree::default_fanout() {
            let (m1, per_item) = live_bytes_per_item(|| preloaded_m1(&keys));
            println!("M1<u64, u64>, B = {fanout}: {per_item:.1} live bytes per item");
            assert_eq!(m1.size(), KEYS as usize);
            assert!(
                per_item <= m1_bound,
                "B = {fanout}: an M1 item costs {per_item:.1} bytes, over {m1_bound}"
            );
        }
    }
}

#[test]
fn a_steady_size_tree_splits_and_merges_without_allocating() {
    let _turn = turn();
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
    let _turn = turn();
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
    let _turn = turn();
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
/// 0.0002 measured, three growths of a segment tree's node pool in 16 384
/// operations; the sort, PPivot included, allocates nothing once warmed.
const M1_SEARCH_BUDGET: f64 = 0.0002;

/// Allocations per operation `M2::run_batch` may make on uniform searches:
/// none.
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
    let _turn = turn();
    // M1 sorts a cut batch above `SMALL` keys through PPivot, whose buffers
    // its sort scratch keeps, so its combine allocates nothing either.
    deposit_then_combine(&warmed_sharded(|| M1::new(4)), 0.0);
}

#[test]
fn an_m2_sharded_deposit_allocates_its_cells_and_its_combine_nothing() {
    let _turn = turn();
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
    let _turn = turn();
    awaited_call(warmed_sharded(|| M1::new(4)));
}

#[test]
fn an_awaited_m2_call_allocates_one_result_vector_beyond_its_deposit() {
    let _turn = turn();
    awaited_call(warmed_sharded(|| M2::new(4)));
}

#[test]
fn a_warmed_wal_append_allocates_nothing() {
    let _turn = turn();
    // A `durable-write`-shaped batch: 52 operations, 39 of them mutations.
    let batch: Vec<TaggedOp<u64, u64>> = (0..52u64)
        .map(|i| TaggedOp {
            id: i as OpId,
            op: match i % 4 {
                0 => Operation::Search(i),
                3 => Operation::Delete(i),
                _ => Operation::Insert(i, i),
            },
        })
        .collect();
    for policy in [SyncPolicy::Batch, SyncPolicy::Off] {
        let dir =
            std::env::temp_dir().join(format!("wsm-alloc-wal-{}-{policy:?}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (wal, _) = Wal::<u64, u64>::open(&dir, policy).expect("open WAL");
        // About 700 B a record: 512 of them flush `off`'s 64 KiB buffer
        // several times over.
        let append_all = || {
            for _ in 0..512 {
                assert!(wal.append(&batch).expect("append"));
            }
        };
        append_all();
        let ((), n) = allocations(append_all);
        println!("{policy:?}: {n} allocations in 512 warmed appends");
        assert_eq!(n, 0, "{policy:?}");
        drop(wal);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
