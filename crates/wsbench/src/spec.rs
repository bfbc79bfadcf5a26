//! The four workloads, their sizes, and the request streams they replay.
//!
//! Only the workload *shape* is fixed here (shards, callers, key counts,
//! batch sizes).  Every tuning value of the libraries stays at its default,
//! so a later change that improves a default shows up as a gain.

use std::hash::{Hash, Hasher};
use std::time::Duration;

use wsm_core::Operation;
use wsm_model::MapOpKind;
use wsm_workloads::{Pattern, WorkloadSpec};

/// Shards of every front-end under test.
pub const SHARDS: usize = 2;
/// Closed-loop callers (and executor workers): `nproc` of the target box.
pub const CALLERS: usize = 2;
/// The `p` the maps are built for (`M1::new(p)` / `M2::new(p)` have no
/// default; 4 is what the repo's `server` example and E21 use).
pub const MAP_P: usize = 4;
/// Keys per preload batch.
pub const PRELOAD_CHUNK: usize = 512;
/// Time slices per second of the timed window: long enough that every slice
/// holds several rounds of the workloads' periodic work (WAL checkpoints,
/// hot-set shifts) and 70+ requests of the slowest workload.
pub const SLICES_PER_SECOND: usize = 4;
/// A pass reports the fastest slice in every `KEPT_SLICES` of its window
/// (see `run::PassOutcome`).
pub const KEPT_SLICES: usize = 4;

/// Which batched map sits under the front-end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    M1,
    M2,
}

/// How callers reach the map.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Front {
    /// `WsMapService` over `ShardedMap`, connection tasks on an executor.
    Svc,
    /// `DurableShardedMap::run_batch` from blocking threads.
    Durable,
}

/// One workload: a name, the reason it exists, and its shape.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub engine: EngineKind,
    pub front: Front,
    /// log2 of the preloaded key count (both callers together).
    pub keys_log2: u32,
    pub pattern: Pattern,
    /// Share of operations that are inserts or removes (half each).
    pub update_fraction: f64,
    /// Operations per request.
    pub batch: usize,
    /// Requests a caller keeps outstanding before it awaits them all.
    pub window: usize,
    /// `(every, by)`: after every `every` requests of a caller its whole key
    /// distribution moves up by `by` keys.
    pub shift: Option<(u64, u64)>,
}

pub static WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fanin-zipf-read",
        why: "many tiny pipelined reads of hot keys: per-request svc/hand-off/shard cost dominates, tree work is small",
        engine: EngineKind::M1,
        front: Front::Svc,
        keys_log2: 16,
        pattern: Pattern::Zipf(1.1),
        update_fraction: 0.0,
        batch: 2,
        window: 32,
        shift: None,
    },
    Workload {
        name: "bulk-uniform-read",
        why: "256-key uniform reads, recency about n: tree descents, sort, pool fork-join and M1's cascade dominate, front-end cost is amortised",
        engine: EngineKind::M1,
        front: Front::Svc,
        keys_log2: 18,
        pattern: Pattern::Uniform,
        update_fraction: 0.0,
        batch: 256,
        window: 1,
        shift: None,
    },
    Workload {
        name: "hotshift-mixed-m2",
        why: "a drifting 256-key hot set with 20% writes on pipelined M2: the regime the paper targets, and where a read gain that costs writes shows",
        engine: EngineKind::M2,
        front: Front::Svc,
        keys_log2: 16,
        pattern: Pattern::HotSet {
            hot: 256,
            miss_rate: 0.05,
        },
        update_fraction: 0.2,
        batch: 16,
        window: 1,
        shift: Some((2000, 1024)),
    },
    Workload {
        name: "durable-write",
        why: "75% writes through the WAL with default sync and checkpoint cadence, no svc: carries checkpoint stalls and recovery time",
        engine: EngineKind::M1,
        front: Front::Durable,
        keys_log2: 16,
        pattern: Pattern::Zipf(1.1),
        update_fraction: 0.75,
        batch: 64,
        window: 1,
        shift: None,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How much of everything one run does.  `full` is the benchmark; `smoke`
/// shrinks key counts and windows so the in-crate test finishes in seconds
/// even unoptimised.
#[derive(Clone, Debug)]
pub struct Sizing {
    pub warmup: Duration,
    pub window: Duration,
    /// Set-ups timed per run (`setup_s` is their median).
    pub setups: usize,
    /// Reopens timed on `durable-write` (`reopen_ms` is their median).
    pub reopens: usize,
    /// Deterministic batches applied after the final checkpoint, so every
    /// reopen replays the same log tail.
    pub tail_batches: u64,
    /// Key counts are divided by `2^keys_shrink`.
    pub keys_shrink: u32,
    /// Generated operations per caller; requests cycle through them.
    pub pool_ops: usize,
    /// Warm-up and length of each concurrent pass of a traced run.
    pub trace_warmup: Duration,
    pub trace_window: Duration,
    /// Spans kept per recording lane; later ones only feed the totals.
    pub span_cap: usize,
    /// The ladder replays this many requests, or fewer to stay under
    /// `ladder_ops` operations per depth.
    pub ladder_requests: usize,
    pub ladder_ops: usize,
    /// Iterations of each fixed probe.
    pub probe_iters: usize,
}

impl Sizing {
    pub fn full(seconds: u64) -> Sizing {
        Sizing {
            warmup: Duration::from_secs(2),
            window: Duration::from_secs(seconds.max(1)),
            setups: 9,
            reopens: 5,
            tail_batches: 512,
            keys_shrink: 0,
            pool_ops: 1 << 20,
            trace_warmup: Duration::from_millis(500),
            trace_window: Duration::from_secs(seconds.clamp(1, 3)),
            span_cap: 1 << 14,
            ladder_requests: 4096,
            ladder_ops: 1 << 16,
            probe_iters: 2000,
        }
    }

    #[cfg(test)]
    pub fn smoke() -> Sizing {
        Sizing {
            warmup: Duration::from_millis(50),
            window: Duration::from_millis(200),
            setups: 1,
            reopens: 2,
            tail_batches: 8,
            keys_shrink: 6,
            pool_ops: 1 << 13,
            trace_warmup: Duration::from_millis(20),
            trace_window: Duration::from_millis(100),
            span_cap: 256,
            ladder_requests: 64,
            ladder_ops: 1 << 10,
            probe_iters: 20,
        }
    }

    /// Preloaded keys of `w` under this sizing.
    pub fn keys(&self, w: &Workload) -> u64 {
        1u64 << w.keys_log2.saturating_sub(self.keys_shrink).max(10)
    }

    /// Requests the ladder replays for `w`.
    pub fn ladder_len(&self, w: &Workload) -> usize {
        self.ladder_requests.min(self.ladder_ops / w.batch).max(1)
    }
}

/// The value every preloaded key holds; read-only workloads check results
/// against it directly.
pub fn value_of(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5BD1_E995
}

/// The value the `n`-th generated operation of a caller writes to `key`.
fn written_value(key: u64, n: u64) -> u64 {
    value_of(key ^ n.wrapping_mul(0xD6E8_FEB8_6659_FD93))
}

/// One caller's request stream.  Caller `c` of [`CALLERS`] owns keys
/// `CALLERS * k + c`, so callers never touch each other's keys and each one's
/// private oracle is exact.
pub struct Stream {
    workload: &'static Workload,
    caller: u64,
    /// Keys this caller owns.
    own_keys: u64,
    pool: Vec<MapOpKind<u64>>,
}

impl Stream {
    /// Generates caller `caller`'s operations from `seed`.  The maps receive
    /// only what this produces.
    pub fn generate(
        workload: &'static Workload,
        sizing: &Sizing,
        seed: u64,
        caller: usize,
    ) -> Stream {
        let own_keys = sizing.keys(workload) / CALLERS as u64;
        let pool_ops = sizing.pool_ops.next_multiple_of(workload.batch);
        let spec = WorkloadSpec {
            keyspace: own_keys,
            operations: pool_ops,
            pattern: workload.pattern,
            update_fraction: workload.update_fraction,
            seed: seed
                .wrapping_mul(CALLERS as u64)
                .wrapping_add(caller as u64),
        };
        Stream {
            workload,
            caller: caller as u64,
            own_keys,
            pool: spec.access_phase(),
        }
    }

    pub fn pool_ops(&self) -> usize {
        self.pool.len()
    }

    /// The operations of this caller's `r`-th request.
    pub fn request(&self, r: u64) -> Vec<Operation<u64, u64>> {
        let batch = self.workload.batch as u64;
        let start = (r.wrapping_mul(batch) % self.pool.len() as u64) as usize;
        let drift = match self.workload.shift {
            Some((every, by)) => (r / every).wrapping_mul(by) % self.own_keys,
            None => 0,
        };
        self.pool[start..start + self.workload.batch]
            .iter()
            .enumerate()
            .map(|(i, kind)| {
                let key = (kind.key() + drift) % self.own_keys * CALLERS as u64 + self.caller;
                match kind {
                    MapOpKind::Search(_) => Operation::Search(key),
                    MapOpKind::Insert(_) => Operation::Insert(
                        key,
                        written_value(key, r.wrapping_mul(batch).wrapping_add(i as u64)),
                    ),
                    MapOpKind::Delete(_) => Operation::Delete(key),
                }
            })
            .collect()
    }

    /// A digest of the first `requests` requests, for the determinism check
    /// and the result's `meta`.
    pub fn digest(&self, requests: u64) -> u64 {
        // `DefaultHasher::new()` uses fixed keys, so the digest repeats
        // across processes.
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        for r in 0..requests {
            for op in self.request(r) {
                match op {
                    Operation::Search(k) => (0u8, k, 0u64).hash(&mut hasher),
                    Operation::Insert(k, v) => (1u8, k, v).hash(&mut hasher),
                    Operation::Delete(k) => (2u8, k, 0u64).hash(&mut hasher),
                }
            }
        }
        hasher.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let sizing = Sizing::smoke();
        for w in &WORKLOADS {
            for caller in 0..CALLERS {
                let a = Stream::generate(w, &sizing, 1, caller).digest(256);
                let b = Stream::generate(w, &sizing, 1, caller).digest(256);
                let c = Stream::generate(w, &sizing, 2, caller).digest(256);
                assert_eq!(a, b, "{}: seed 1 must repeat", w.name);
                assert_ne!(a, c, "{}: seed 2 must differ", w.name);
            }
            let c0 = Stream::generate(w, &sizing, 1, 0).digest(256);
            let c1 = Stream::generate(w, &sizing, 1, 1).digest(256);
            assert_ne!(c0, c1, "{}: callers must differ", w.name);
        }
    }

    #[test]
    fn callers_own_disjoint_keys_inside_the_preload() {
        let sizing = Sizing::smoke();
        for w in &WORKLOADS {
            let keys = sizing.keys(w);
            for caller in 0..CALLERS {
                let stream = Stream::generate(w, &sizing, 3, caller);
                // Far enough to cross several hot-set shifts.
                for r in (0..20_000).step_by(37) {
                    let ops = stream.request(r);
                    assert_eq!(ops.len(), w.batch);
                    for op in ops {
                        assert!(*op.key() < keys, "{}: key outside preload", w.name);
                        assert_eq!(*op.key() % CALLERS as u64, caller as u64, "{}", w.name);
                    }
                }
            }
        }
    }

    #[test]
    fn hot_set_moves_with_the_request_index() {
        // Full key count: the smoke sizing's keyspace is smaller than one
        // shift, which would wrap to no movement at all.
        let sizing = Sizing {
            keys_shrink: 0,
            ..Sizing::smoke()
        };
        let w = workload("hotshift-mixed-m2").unwrap();
        let stream = Stream::generate(w, &sizing, 1, 0);
        let (every, _) = w.shift.unwrap();
        // The same pool position, one shift later, names other keys.
        let pool_requests = (stream.pool_ops() / w.batch) as u64;
        let later = every.next_multiple_of(pool_requests);
        assert_eq!(later / every, 1, "exactly one shift later");
        let first: Vec<u64> = stream.request(0).iter().map(|op| *op.key()).collect();
        let moved: Vec<u64> = stream.request(later).iter().map(|op| *op.key()).collect();
        assert_ne!(first, moved);
    }
}
