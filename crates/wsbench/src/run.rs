//! Set-up, the closed-loop callers, and the timed and traced runs.
//!
//! All load is closed-loop with [`CALLERS`] callers: a caller issues its next
//! window of requests only after every result of the previous one is in and
//! checked.  Concurrency inside a caller comes from the window (several
//! deposits before the first await), because a lone `BatchCall` usually
//! completes inside its first poll — the polling task wins the combiner
//! election — so more tasks would only run back to back.

use std::future::Future;
use std::path::{Path, PathBuf};
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

use wsm_core::{BatchedMap, OpResult, Operation, M1, M2};
use wsm_shard::ShardedMap;
use wsm_svc::{block_on, Executor, ServiceBackend, WsMapService};
use wsm_wal::{DurableShardedMap, DurableState};

use crate::json::Json;
use crate::ladder;
use crate::oracle::{Oracle, Tally};
use crate::report::{median, Metrics, RunResult};
use crate::spec::{
    value_of, EngineKind, Front, Sizing, Stream, Workload, CALLERS, KEPT_SLICES, MAP_P,
    PRELOAD_CHUNK, SHARDS, SLICES_PER_SECOND,
};
use crate::trace::{request_id, set_current_request, Counted, Kind, Traced, Tracer};

/// The batched map under the front-end, as the benchmark needs it.
pub trait Engine: BatchedMap<u64, u64> + DurableState<u64, u64> + Send + 'static {
    /// Metric prefix of this engine's ladder depth.
    const LAYER: &'static str;
    fn make() -> Self;
    fn run_ops(&mut self, ops: Vec<Operation<u64, u64>>) -> Vec<OpResult<u64>>;
}

impl Engine for M1<u64, u64> {
    const LAYER: &'static str = "core.m1";
    fn make() -> Self {
        M1::new(MAP_P)
    }
    fn run_ops(&mut self, ops: Vec<Operation<u64, u64>>) -> Vec<OpResult<u64>> {
        M1::run_ops(self, ops)
    }
}

impl Engine for M2<u64, u64> {
    const LAYER: &'static str = "core.m2";
    fn make() -> Self {
        M2::new(MAP_P)
    }
    fn run_ops(&mut self, ops: Vec<Operation<u64, u64>>) -> Vec<OpResult<u64>> {
        M2::run_ops(self, ops)
    }
}

/// The preload, in key order, in batches of [`PRELOAD_CHUNK`].
pub fn preload_batches(keys: u64) -> impl Iterator<Item = Vec<(u64, u64)>> {
    (0..keys).step_by(PRELOAD_CHUNK).map(move |start| {
        (start..keys.min(start + PRELOAD_CHUNK as u64))
            .map(|k| (k, value_of(k)))
            .collect()
    })
}

pub fn build_sharded<E: Engine>(keys: u64) -> ShardedMap<u64, u64, E> {
    let map = ShardedMap::with_shards(SHARDS, |_| E::make());
    for batch in preload_batches(keys) {
        map.insert_batch(batch);
    }
    map
}

/// A scratch directory under the output directory, removed on drop.  The
/// benchmark writes nowhere else.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create(out_dir: &Path, label: &str) -> ScratchDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        // Relaxed: the counter only makes names distinct.
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = out_dir.join(format!("scratch-{}-{label}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
        ScratchDir(path)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn open_durable<E: Engine>(dir: &Path) -> DurableShardedMap<u64, u64, E> {
    DurableShardedMap::open(dir, SHARDS, |_| E::make())
        .unwrap_or_else(|e| panic!("cannot open WAL directory {}: {e}", dir.display()))
}

pub fn build_durable<E: Engine>(dir: &Path, keys: u64) -> DurableShardedMap<u64, u64, E> {
    let map = open_durable(dir);
    for batch in preload_batches(keys) {
        map.insert_batch(batch);
    }
    map
}

/// When a pass warms up, measures, and stops.
#[derive(Clone, Copy)]
struct Plan {
    /// Start of the measured window; completions before it are warm-up.
    start: Instant,
    end: Instant,
    slices: usize,
}

impl Plan {
    /// The window is cut into equal slices of at most `1 / SLICES_PER_SECOND` s.
    fn starting_now(warmup: Duration, window: Duration) -> Plan {
        let start = Instant::now() + warmup;
        let slices = (window.as_secs_f64() * SLICES_PER_SECOND as f64).ceil() as usize;
        Plan {
            start,
            end: start + window,
            slices: slices.max(1),
        }
    }
}

/// What one caller measured.
struct Recorder {
    plan: Plan,
    /// Request latencies in ns, by the time slice the request completed in.
    slices: Vec<Vec<u32>>,
    /// Operations completed in each time slice.
    slice_ops: Vec<u64>,
    tally: Tally,
}

impl Recorder {
    fn new(plan: Plan) -> Recorder {
        Recorder {
            plan,
            slices: (0..plan.slices)
                .map(|_| Vec::with_capacity(1 << 15))
                .collect(),
            slice_ops: vec![0; plan.slices],
            tally: Tally::default(),
        }
    }

    fn record(&mut self, issued: Instant, done: Instant, ops: usize) {
        if done < self.plan.start || done >= self.plan.end {
            return;
        }
        let into = (done - self.plan.start).as_nanos() * self.plan.slices as u128
            / (self.plan.end - self.plan.start).as_nanos();
        let latency = (done - issued).as_nanos().min(u32::MAX as u128) as u32;
        self.slices[into as usize].push(latency);
        self.slice_ops[into as usize] += ops as u64;
    }
}

/// The `p`-quantile of sorted, non-empty ns latencies, in µs.
fn quantile_us(sorted: &[u32], p: f64) -> f64 {
    f64::from(sorted[((sorted.len() - 1) as f64 * p).round() as usize]) / 1e3
}

/// What all callers of one pass measured together.
///
/// The box this runs on is a few cores of a shared host, and whatever else
/// the host does takes capacity away for a while: beside a bursty CPU hog the
/// throughput of the median slice spread 11-31 % over identical runs, that
/// of the fastest quarter 3-6 % (README, "Quiet slices").  So a pass reports
/// its **quiet slices** — the `1 / KEPT_SLICES` of the window's time slices
/// that completed the most operations: throughput is their median, and the
/// latency percentiles are taken over every request that completed in them.
/// Both therefore describe the same stretches of time; picking the lowest
/// latencies on their own would instead pick the moments when one caller was
/// off the CPU and the other ran uncontended.
pub struct PassOutcome {
    /// Request latencies in ns, sorted, by the time slice of completion.
    slices: Vec<Vec<u32>>,
    slice_ops: Vec<u64>,
    /// Indices of the quiet slices.
    quiet: Vec<usize>,
    /// Latencies of every request of the quiet slices, sorted.
    quiet_latencies: Vec<u32>,
    window: Duration,
    /// Wall time of the whole pass, warm-up included.
    pub elapsed: Duration,
    pub tally: Tally,
}

impl PassOutcome {
    fn merge(plan: Plan, began: Instant, callers: Vec<Recorder>) -> PassOutcome {
        let mut out = PassOutcome {
            slices: vec![Vec::new(); plan.slices],
            slice_ops: vec![0; plan.slices],
            quiet: Vec::new(),
            quiet_latencies: Vec::new(),
            window: plan.end - plan.start,
            elapsed: began.elapsed(),
            tally: Tally::default(),
        };
        for caller in callers {
            for (all, own) in out.slices.iter_mut().zip(caller.slices) {
                all.extend(own);
            }
            for (all, own) in out.slice_ops.iter_mut().zip(caller.slice_ops) {
                *all += own;
            }
            out.tally.add(caller.tally);
        }
        for slice in &mut out.slices {
            slice.sort_unstable();
        }
        let mut by_ops: Vec<usize> = (0..plan.slices).collect();
        by_ops.sort_by_key(|&i| std::cmp::Reverse(out.slice_ops[i]));
        by_ops.truncate(plan.slices.div_ceil(KEPT_SLICES));
        by_ops.sort_unstable();
        out.quiet = by_ops;
        out.quiet_latencies = out
            .quiet
            .iter()
            .flat_map(|&i| out.slices[i].iter().copied())
            .collect();
        out.quiet_latencies.sort_unstable();
        out
    }

    fn slice_seconds(&self) -> f64 {
        self.window.as_secs_f64() / self.slice_ops.len() as f64
    }

    /// Operations completed per second: the median over the quiet slices.
    pub fn ops_per_s(&self) -> f64 {
        let per_slice: Vec<f64> = self
            .quiet
            .iter()
            .map(|&i| self.slice_ops[i] as f64 / self.slice_seconds())
            .collect();
        median(&per_slice)
    }

    /// What each time slice measured, for the run's result file.
    pub fn slices_json(&self) -> Json {
        Json::Arr(
            self.slices
                .iter()
                .zip(&self.slice_ops)
                .enumerate()
                .filter(|(_, (latencies, _))| !latencies.is_empty())
                .map(|(i, (latencies, ops))| {
                    Json::obj([
                        ("quiet", Json::Bool(self.quiet.contains(&i))),
                        ("requests", Json::Num(latencies.len() as f64)),
                        ("kops", Json::Num(*ops as f64 / self.slice_seconds() / 1e3)),
                        ("p50_us", Json::Num(quantile_us(latencies, 0.50))),
                        ("p95_us", Json::Num(quantile_us(latencies, 0.95))),
                        ("p99_us", Json::Num(quantile_us(latencies, 0.99))),
                    ])
                })
                .collect(),
        )
    }

    /// Requests behind the latency percentiles.
    pub fn samples(&self) -> u64 {
        self.quiet_latencies.len() as u64
    }

    /// The `p`-quantile of request latency in µs over the quiet slices.
    pub fn latency_us(&self, p: f64) -> f64 {
        if self.quiet_latencies.is_empty() {
            return f64::NAN;
        }
        quantile_us(&self.quiet_latencies, p)
    }
}

/// One outstanding request of a caller's window.
struct Slot<F> {
    call: Option<F>,
    id: u64,
    ops: Vec<Operation<u64, u64>>,
    issued: Instant,
    results: Vec<OpResult<u64>>,
    done: Instant,
}

/// Resolves when every request of the window has its results, stamping each
/// request the moment its own future completes.
struct Window<F>(Vec<Slot<F>>);

impl<F: Future<Output = Vec<OpResult<u64>>> + Unpin> Future for Window<F> {
    type Output = Vec<Slot<F>>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let slots = &mut self.get_mut().0;
        let mut pending = false;
        for slot in slots.iter_mut() {
            if let Some(call) = &mut slot.call {
                match Pin::new(call).poll(cx) {
                    Poll::Ready(results) => {
                        slot.done = Instant::now();
                        slot.results = results;
                        slot.call = None;
                    }
                    Poll::Pending => pending = true,
                }
            }
        }
        if pending {
            Poll::Pending
        } else {
            Poll::Ready(std::mem::take(slots))
        }
    }
}

/// One connection task: windows of requests through the service, closed loop.
async fn svc_caller<B: ServiceBackend<u64, u64>>(
    svc: WsMapService<u64, u64, B>,
    workload: &'static Workload,
    stream: Arc<Stream>,
    caller: usize,
    mut oracle: Oracle,
    plan: Plan,
    tracer: Option<Arc<Tracer>>,
) -> Recorder {
    let mut recorder = Recorder::new(plan);
    let mut next = 0u64;
    while Instant::now() < plan.end {
        let mut window = Vec::with_capacity(workload.window);
        for _ in 0..workload.window {
            let ops = stream.request(next);
            let id = request_id(caller, next);
            next += 1;
            set_current_request(id);
            let issued = Instant::now();
            let call = svc.call_batch(ops.clone());
            window.push(Slot {
                call: Some(Counted::new(call, id, tracer.clone())),
                id,
                ops,
                issued,
                results: Vec::new(),
                done: issued,
            });
        }
        for slot in Window(window).await {
            oracle.check(&slot.ops, &slot.results, &mut recorder.tally);
            recorder.record(slot.issued, slot.done, slot.ops.len());
            if let Some(tracer) = &tracer {
                tracer.request(slot.id, slot.issued, slot.done);
            }
        }
    }
    recorder
}

/// Runs the service callers of `workload` against `backend` for one pass.
fn svc_pass<B: ServiceBackend<u64, u64> + 'static>(
    workload: &'static Workload,
    keys: u64,
    streams: &[Arc<Stream>],
    backend: Arc<B>,
    (warmup, window): (Duration, Duration),
    tracer: Option<&Arc<Tracer>>,
) -> PassOutcome {
    let exec = Executor::new(CALLERS);
    let svc = WsMapService::from_arc(backend);
    let began = Instant::now();
    let plan = Plan::starting_now(warmup, window);
    let writes = workload.update_fraction > 0.0;
    let handles: Vec<_> = streams
        .iter()
        .enumerate()
        .map(|(caller, stream)| {
            exec.spawn(svc_caller(
                svc.clone(),
                workload,
                Arc::clone(stream),
                caller,
                Oracle::after_preload(keys, caller, writes),
                plan,
                tracer.cloned(),
            ))
        })
        .collect();
    let callers = handles.into_iter().map(block_on).collect();
    PassOutcome::merge(plan, began, callers)
}

/// Runs blocking callers against a durable map for one pass; also returns
/// each caller's model of its keys, for the check after reopening.
fn durable_pass<E: Engine>(
    keys: u64,
    streams: &[Arc<Stream>],
    map: &DurableShardedMap<u64, u64, E>,
    (warmup, window): (Duration, Duration),
    tracer: Option<&Arc<Tracer>>,
) -> (PassOutcome, Vec<Oracle>) {
    let began = Instant::now();
    let plan = Plan::starting_now(warmup, window);
    let finished: Vec<(Recorder, Oracle)> = std::thread::scope(|scope| {
        let threads: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(caller, stream)| {
                scope.spawn(move || {
                    let mut oracle = Oracle::after_preload(keys, caller, true);
                    let mut recorder = Recorder::new(plan);
                    let mut next = 0u64;
                    while Instant::now() < plan.end {
                        let ops = stream.request(next);
                        let id = request_id(caller, next);
                        next += 1;
                        let issued = Instant::now();
                        let results = map.run_batch(ops.clone());
                        let done = Instant::now();
                        oracle.check(&ops, &results, &mut recorder.tally);
                        recorder.record(issued, done, ops.len());
                        if let Some(tracer) = tracer {
                            tracer.request(id, issued, done);
                        }
                    }
                    (recorder, oracle)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("a durable caller panicked"))
            .collect()
    });
    let (recorders, oracles) = finished.into_iter().unzip();
    (PassOutcome::merge(plan, began, recorders), oracles)
}

/// First request index of the fixed tail, far beyond any index a timed
/// window reaches.
const TAIL_FIRST_REQUEST: u64 = 1 << 32;

/// What `durable-write` does after its window: make the on-disk state
/// deterministic (checkpoint, then a fixed tail of batches), reopen it
/// several times, and compare everything it holds with the callers' models.
/// Returns the median reopen time in ms.
fn reopen_and_verify<E: Engine>(
    sizing: &Sizing,
    keys: u64,
    streams: &[Arc<Stream>],
    map: DurableShardedMap<u64, u64, E>,
    dir: &Path,
    oracles: &mut [Oracle],
    tally: &mut Tally,
) -> f64 {
    map.checkpoint_all().expect("checkpoint before the tail");
    for i in 0..sizing.tail_batches {
        let ops = streams[0].request(TAIL_FIRST_REQUEST + i);
        let results = map.run_batch(ops.clone());
        oracles[0].check(&ops, &results, tally);
    }
    map.flush().expect("flush the WAL");
    drop(map);

    let (reopened, reopen_s) = median_build_time(sizing.reopens, || open_durable::<E>(dir));
    for start in (0..keys).step_by(PRELOAD_CHUNK) {
        let chunk: Vec<u64> = (start..keys.min(start + PRELOAD_CHUNK as u64)).collect();
        let held = reopened.get_batch(chunk.clone());
        for (key, held) in chunk.iter().zip(held) {
            tally.attempted += 1;
            if held != oracles[(key % CALLERS as u64) as usize].expected(*key) {
                tally.failed += 1;
            }
        }
    }
    reopen_s * 1e3
}

/// Peak resident memory of this process so far, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn generate_streams(workload: &'static Workload, sizing: &Sizing, seed: u64) -> Vec<Arc<Stream>> {
    (0..CALLERS)
        .map(|caller| Arc::new(Stream::generate(workload, sizing, seed, caller)))
        .collect()
}

/// Builds `times` times (at least once), dropping each instance before the
/// next is built so that peak memory is that of one; returns the last
/// instance and the median build time in seconds.
fn median_build_time<T>(times: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut seconds = Vec::new();
    let mut instance = None;
    for _ in 0..times.max(1) {
        drop(instance.take());
        let began = Instant::now();
        instance = Some(build());
        seconds.push(began.elapsed().as_secs_f64());
    }
    (instance.expect("built at least once"), median(&seconds))
}

/// The untraced run of one workload: every end-to-end metric.
pub fn timed_run(
    workload: &'static Workload,
    sizing: &Sizing,
    seed: u64,
    out_dir: &Path,
) -> RunResult {
    match workload.engine {
        EngineKind::M1 => timed::<M1<u64, u64>>(workload, sizing, seed, out_dir),
        EngineKind::M2 => timed::<M2<u64, u64>>(workload, sizing, seed, out_dir),
    }
}

fn timed<E: Engine>(
    workload: &'static Workload,
    sizing: &Sizing,
    seed: u64,
    out_dir: &Path,
) -> RunResult {
    let keys = sizing.keys(workload);
    let streams = generate_streams(workload, sizing, seed);
    let clock = (sizing.warmup, sizing.window);
    let mut metrics = Metrics::default();
    let (outcome, setup_s, reopen_ms) = match workload.front {
        Front::Svc => {
            let (map, setup_s) = median_build_time(sizing.setups, || build_sharded::<E>(keys));
            let outcome = svc_pass(workload, keys, &streams, Arc::new(map), clock, None);
            (outcome, setup_s, None)
        }
        Front::Durable => {
            let ((map, dir), setup_s) = median_build_time(sizing.setups, || {
                let dir = ScratchDir::create(out_dir, workload.name);
                (build_durable::<E>(dir.path(), keys), dir)
            });
            let (mut outcome, mut oracles) = durable_pass(keys, &streams, &map, clock, None);
            let reopen_ms = reopen_and_verify(
                sizing,
                keys,
                &streams,
                map,
                dir.path(),
                &mut oracles,
                &mut outcome.tally,
            );
            (outcome, setup_s, Some(reopen_ms))
        }
    };
    metrics.set("throughput_kops", outcome.ops_per_s() / 1e3);
    metrics.set("req_p50_us", outcome.latency_us(0.50));
    metrics.set("req_p95_us", outcome.latency_us(0.95));
    metrics.set("req_p99_us", outcome.latency_us(0.99));
    metrics.set("failed_share", outcome.tally.failed_share());
    metrics.set("setup_s", setup_s);
    metrics.set("rss_mb", peak_rss_mb());
    if let Some(reopen_ms) = reopen_ms {
        metrics.set("reopen_ms", reopen_ms);
    }
    RunResult {
        workload: workload.name,
        traced: false,
        tally: outcome.tally,
        samples: outcome.samples(),
        slices: outcome.slices_json(),
        metrics,
        meta: meta::<E>(workload, sizing, seed, &streams),
    }
}

/// Operations and batches one shard's combiner committed.
#[derive(Default)]
struct ShardCount {
    ops: AtomicU64,
    batches: AtomicU64,
}

/// The combining degree, combiner rate and shard balance of a pass, from
/// per-shard `(ops, batches)` counts.  `ops_done` is what the callers saw
/// complete; where the counts come from the WAL (which logs only writes)
/// it stands in for the shards' own op counts in the combining degree.
fn combiner_metrics(metrics: &mut Metrics, shards: &[(u64, u64)], ops_done: u64, elapsed: f64) {
    let batches: u64 = shards.iter().map(|s| s.1).sum();
    let ops: Vec<f64> = shards.iter().map(|s| s.0 as f64).collect();
    let mean = ops.iter().sum::<f64>() / ops.len() as f64;
    metrics.set(
        "core.concurrent.ops_per_batch",
        ops_done as f64 / batches as f64,
    );
    metrics.set("core.concurrent.batches_per_s", batches as f64 / elapsed);
    metrics.set(
        "shard.imbalance",
        ops.iter().copied().fold(0.0, f64::max) / mean,
    );
}

/// The `svc.*` metrics of a traced service pass.
fn svc_metrics(metrics: &mut Metrics, tracer: &Tracer) {
    let requests = tracer.total(Kind::Request);
    let submits = tracer.total(Kind::Submit);
    let pumps = tracer.total(Kind::Pump);
    let per_request = |x: u64| x as f64 / requests.count as f64;
    metrics.set("svc.polls_per_req", per_request(tracer.polls()));
    metrics.set("svc.pumps_per_req", per_request(pumps.count));
    metrics.set("svc.submit_ns_per_req", per_request(submits.ns));
    metrics.set("svc.pump_ns_per_req", per_request(pumps.ns));
    metrics.set(
        "svc.self_ns_per_req",
        (requests.ns as f64 - submits.ns as f64 - pumps.ns as f64) / requests.count as f64,
    );
}

/// One traced service pass over a fresh sharded map with per-shard batch
/// counters on the commit hook.  Returns the outcome, the tracer and each
/// shard's `(ops, batches)`.
fn traced_svc_pass<E: Engine>(
    workload: &'static Workload,
    sizing: &Sizing,
    keys: u64,
    streams: &[Arc<Stream>],
) -> (PassOutcome, Arc<Tracer>, Vec<(u64, u64)>) {
    let counts: Arc<Vec<ShardCount>> =
        Arc::new((0..SHARDS).map(|_| ShardCount::default()).collect());
    let map = build_sharded::<E>(keys).configure_shards(|shard, front| {
        let counts = Arc::clone(&counts);
        front.with_commit_hook(move |batch| {
            // Relaxed: statistics, read after the callers have joined.
            counts[shard]
                .ops
                .fetch_add(batch.len() as u64, Ordering::Relaxed);
            counts[shard].batches.fetch_add(1, Ordering::Relaxed);
        })
    });
    let tracer = Tracer::new("svc", sizing.span_cap);
    let backend = Arc::new(Traced::new(map, Arc::clone(&tracer)));
    let clock = (sizing.trace_warmup, sizing.trace_window);
    let outcome = svc_pass(workload, keys, streams, backend, clock, Some(&tracer));
    let shards = counts
        .iter()
        .map(|c| {
            (
                c.ops.load(Ordering::Relaxed),
                c.batches.load(Ordering::Relaxed),
            )
        })
        .collect();
    (outcome, tracer, shards)
}

/// The traced run of one workload: every per-layer metric.
pub fn traced_run(
    workload: &'static Workload,
    sizing: &Sizing,
    seed: u64,
    out_dir: &Path,
) -> RunResult {
    match workload.engine {
        EngineKind::M1 => traced::<M1<u64, u64>>(workload, sizing, seed, out_dir),
        EngineKind::M2 => traced::<M2<u64, u64>>(workload, sizing, seed, out_dir),
    }
}

fn traced<E: Engine>(
    workload: &'static Workload,
    sizing: &Sizing,
    seed: u64,
    out_dir: &Path,
) -> RunResult {
    let keys = sizing.keys(workload);
    let began = Instant::now();
    let streams = generate_streams(workload, sizing, seed);
    let generated: usize = streams.iter().map(|s| s.pool_ops()).sum();
    let gen_ns_per_op = began.elapsed().as_nanos() as f64 / generated as f64;

    let clock = (sizing.trace_warmup, sizing.trace_window);
    let mut metrics = Metrics::default();
    let mut tally = Tally::default();
    let mut passes = Vec::new();

    // (a) The same load twice: untraced for reference, then traced.
    let (reference, traced) = match workload.front {
        Front::Svc => {
            let map = Arc::new(build_sharded::<E>(keys));
            let reference = svc_pass(workload, keys, &streams, map, clock, None);
            let (traced, tracer, shards) = traced_svc_pass::<E>(workload, sizing, keys, &streams);
            let ops_done = shards.iter().map(|s| s.0).sum();
            combiner_metrics(
                &mut metrics,
                &shards,
                ops_done,
                traced.elapsed.as_secs_f64(),
            );
            svc_metrics(&mut metrics, &tracer);
            passes.push(tracer.to_json());
            (reference, traced)
        }
        Front::Durable => {
            let reference = {
                let dir = ScratchDir::create(out_dir, workload.name);
                let map = build_durable::<E>(dir.path(), keys);
                durable_pass(keys, &streams, &map, clock, None).0
            };
            let dir = ScratchDir::create(out_dir, workload.name);
            let map = build_durable::<E>(dir.path(), keys);
            // The commit hook belongs to the WAL here; its counters give the
            // same per-shard counts.
            let before = map.wal_stats();
            let tracer = Tracer::new("wal", sizing.span_cap);
            let (traced, _) = durable_pass(keys, &streams, &map, clock, Some(&tracer));
            let shards: Vec<(u64, u64)> = map
                .wal_stats()
                .iter()
                .zip(&before)
                .map(|(now, was)| {
                    (
                        now.ops_logged - was.ops_logged,
                        now.batches_logged - was.batches_logged,
                    )
                })
                .collect();
            combiner_metrics(
                &mut metrics,
                &shards,
                traced.tally.attempted,
                traced.elapsed.as_secs_f64(),
            );
            passes.push(tracer.to_json());
            drop(map);
            // This workload's timed path has no service layer.  What the
            // service would cost on its request streams comes from replaying
            // them through one over a plain sharded map.
            let (shadow, tracer, _) = traced_svc_pass::<E>(workload, sizing, keys, &streams);
            svc_metrics(&mut metrics, &tracer);
            tally.add(shadow.tally);
            passes.push(tracer.to_json());
            (reference, traced)
        }
    };
    metrics.set(
        "trace.overhead_share",
        1.0 - traced.ops_per_s() / reference.ops_per_s(),
    );
    tally.add(reference.tally);
    tally.add(traced.tally);

    // (b) and (c).
    metrics.extend(ladder::ladder::<E>(workload, sizing, &streams[0], out_dir));
    metrics.extend(ladder::probes(sizing, seed));
    metrics.set("workloads.gen_ns_per_op", gen_ns_per_op);

    let trace_file = out_dir.join(format!("trace-{}.json", workload.name));
    let doc = Json::obj([
        ("workload", Json::str(workload.name)),
        ("passes", Json::Arr(passes)),
    ]);
    std::fs::write(&trace_file, doc.to_string())
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", trace_file.display()));

    RunResult {
        workload: workload.name,
        traced: true,
        tally,
        samples: traced.samples(),
        slices: traced.slices_json(),
        metrics,
        meta: meta::<E>(workload, sizing, seed, &streams),
    }
}

/// Output of a command, trimmed, or "unknown".
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// What a reader needs to interpret or repeat the run.  The hand-off mode,
/// inline threshold and WAL options are read off the libraries, not set.
fn meta<E: Engine>(
    workload: &'static Workload,
    sizing: &Sizing,
    seed: u64,
    streams: &[Arc<Stream>],
) -> Json {
    let probe = wsm_core::ConcurrentMap::<u64, u64, E>::new(E::make(), 1);
    let digests = streams
        .iter()
        .map(|s| Json::str(format!("{:016x}", s.digest(1024))))
        .collect();
    Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("window_s", Json::Num(sizing.window.as_secs_f64())),
        ("warmup_s", Json::Num(sizing.warmup.as_secs_f64())),
        ("keys", Json::Num(sizing.keys(workload) as f64)),
        ("stream_digests", Json::Arr(digests)),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("rustc", Json::Str(command_line("rustc", &["--version"]))),
        (
            "git_commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("shards", Json::Num(SHARDS as f64)),
        ("callers", Json::Num(CALLERS as f64)),
        ("map_p", Json::Num(MAP_P as f64)),
        (
            "tree_fanout",
            Json::Num(wsm_twothree::default_fanout() as f64),
        ),
        ("handoff", Json::Str(format!("{:?}", probe.handoff()))),
        (
            "inline_threshold",
            Json::Num(probe.inline_threshold() as f64),
        ),
        (
            "wal_options",
            Json::Str(format!("{:?}", wsm_wal::DurableOptions::default())),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A disturbed stretch of the window — fewer operations, longer waits —
    /// moves neither the throughput nor the percentiles a pass reports.
    #[test]
    fn a_pass_reports_its_quiet_slices() {
        let plan = Plan::starting_now(Duration::ZERO, Duration::from_secs(2));
        assert_eq!(plan.slices, 8);
        let slice = Duration::from_millis(250);
        let mut recorder = Recorder::new(plan);
        for i in 0..8u32 {
            // Slices 2 and 5 are quiet: 10 requests of 1 µs; the others
            // complete 1 to 6 requests of 1 ms.
            let (requests, latency) = match i {
                2 | 5 => (10, Duration::from_micros(1)),
                _ => (1 + i % 6, Duration::from_millis(1)),
            };
            for _ in 0..requests {
                let done = plan.start + slice * i + slice / 2;
                recorder.record(done - latency, done, 4);
            }
        }
        let outcome = PassOutcome::merge(plan, Instant::now(), vec![recorder]);
        assert_eq!(outcome.quiet, [2, 5]);
        assert_eq!(outcome.samples(), 20);
        assert_eq!(outcome.ops_per_s(), 160.0);
        assert_eq!(outcome.latency_us(0.95), 1.0);
    }
}
