//! # wsm-bench — experiment harness library
//!
//! Helper routines behind the `harness` binary.  Each `experiment_*`
//! function regenerates one or two of the experiments E1–E15, E17 and E18
//! (its doc comment names them and says what they measure) and returns
//! printable rows; the harness binary formats them as tables and writes one
//! `BENCH_<id>.json` per experiment (README, "Commands").

#![forbid(unsafe_code)]

pub mod json;

use wsm_core::{BatchedMap, OpId, Operation, TaggedOp, M1, M2};
use wsm_model::{working_set_bound, Cost, MapOpKind};
use wsm_seq::{AvlMap, IaconoMap, InstrumentedMap, SplayMap, M0};
use wsm_workloads::{analysis, Pattern, WorkloadSpec};

/// A generic experiment row: a label plus named numeric columns.
#[derive(Clone, Debug)]
pub struct Row {
    /// Row label (workload, structure or parameter value).
    pub label: String,
    /// Named numeric columns in display order.
    pub values: Vec<(String, f64)>,
}

impl Row {
    /// Creates a row.
    pub fn new(label: impl Into<String>, values: Vec<(&str, f64)>) -> Self {
        Row {
            label: label.into(),
            values: values
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        }
    }
}

/// Prints rows as an aligned ASCII table.
pub fn print_table(title: &str, rows: &[Row]) {
    println!("\n== {title} ==");
    if rows.is_empty() {
        println!("(no rows)");
        return;
    }
    let mut header = vec!["workload".to_string()];
    header.extend(rows[0].values.iter().map(|(k, _)| k.clone()));
    let mut widths: Vec<usize> = header.iter().map(|h| h.len().max(12)).collect();
    widths[0] = widths[0].max(rows.iter().map(|r| r.label.len()).max().unwrap_or(8));
    print!("{:<w$}", header[0], w = widths[0] + 2);
    for (h, w) in header[1..].iter().zip(&widths[1..]) {
        print!("{h:>w$}", w = w + 2);
    }
    println!();
    for row in rows {
        print!("{:<w$}", row.label, w = widths[0] + 2);
        for ((_, v), w) in row.values.iter().zip(&widths[1..]) {
            print!("{:>w$.2}", v, w = w + 2);
        }
        println!();
    }
}

/// Converts analysis-level operations into concrete map operations (values
/// equal keys).
pub fn to_operations(kinds: &[MapOpKind<u64>]) -> Vec<Operation<u64, u64>> {
    kinds
        .iter()
        .map(|k| match k {
            MapOpKind::Search(k) => Operation::Search(*k),
            MapOpKind::Insert(k) => Operation::Insert(*k, *k),
            MapOpKind::Delete(k) => Operation::Delete(*k),
        })
        .collect()
}

/// Runs a sequence of operations one by one on an instrumented sequential map,
/// returning the total cost.
pub fn run_sequential<M: InstrumentedMap<u64, u64>>(map: &mut M, ops: &[MapOpKind<u64>]) -> Cost {
    let mut total = Cost::ZERO;
    for op in ops {
        let (_, c) = match op {
            MapOpKind::Search(k) => map.search(k),
            MapOpKind::Insert(k) => map.insert(*k, *k),
            MapOpKind::Delete(k) => map.remove(k),
        };
        total += c;
    }
    total
}

/// Runs a sequence of operations on a batched map, feeding them as input
/// batches of the given size (emulating rounds of `width` concurrent calls).
/// Returns the total cost charged by the map.
pub fn run_batched<M: BatchedMap<u64, u64>>(
    map: &mut M,
    ops: &[MapOpKind<u64>],
    batch_size: usize,
) -> Cost {
    let mut total = Cost::ZERO;
    let mut next_id: OpId = 0;
    let (mut batch, mut results) = (Vec::new(), Vec::new());
    for chunk in to_operations(ops).chunks(batch_size.max(1)) {
        batch.extend(chunk.iter().cloned().map(|op| {
            let t = TaggedOp { id: next_id, op };
            next_id += 1;
            t
        }));
        results.clear();
        total += map.run_batch(&mut batch, &mut results);
    }
    total
}

/// The standard workload suite used by several experiments.
pub fn standard_suite(
    keyspace: u64,
    operations: usize,
    seed: u64,
) -> Vec<(&'static str, WorkloadSpec)> {
    vec![
        (
            "hot-set (8 keys, 2% miss)",
            WorkloadSpec::read_only(
                keyspace,
                operations,
                Pattern::HotSet {
                    hot: 8,
                    miss_rate: 0.02,
                },
                seed,
            ),
        ),
        (
            "working-set (w=64, 10% miss)",
            WorkloadSpec::read_only(
                keyspace,
                operations,
                Pattern::WorkingSet {
                    window: 64,
                    miss_rate: 0.1,
                },
                seed,
            ),
        ),
        (
            "zipf s=1.0",
            WorkloadSpec::read_only(keyspace, operations, Pattern::Zipf(1.0), seed),
        ),
        (
            "uniform",
            WorkloadSpec::read_only(keyspace, operations, Pattern::Uniform, seed),
        ),
        (
            "adversarial (LRU scan)",
            WorkloadSpec::read_only(keyspace, operations, Pattern::Adversarial, seed),
        ),
    ]
}

/// E1/E2: sequential working-set structures (M0, Iacono) against the
/// working-set bound, with splay and AVL baselines.
pub fn experiment_sequential_ws(keyspace: u64, operations: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, spec) in standard_suite(keyspace, operations, 1) {
        let ops = spec.full_sequence();
        let wl = working_set_bound(&ops) as f64;
        let m0 = run_sequential(&mut M0::new(), &ops).work as f64;
        let iacono = run_sequential(&mut IaconoMap::new(), &ops).work as f64;
        let splay = run_sequential(&mut SplayMap::new(), &ops).work as f64;
        let avl = run_sequential(&mut AvlMap::new(), &ops).work as f64;
        rows.push(Row::new(
            name,
            vec![
                ("W_L", wl),
                ("M0/W_L", m0 / wl),
                ("Iacono/W_L", iacono / wl),
                ("Splay/W_L", splay / wl),
                ("AVL/W_L", avl / wl),
            ],
        ));
    }
    rows
}

/// E3/E5: effective work of M1 and M2 against the working-set bound, per
/// processor count.
pub fn experiment_parallel_work(keyspace: u64, operations: usize, ps: &[usize]) -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, spec) in standard_suite(keyspace, operations, 2) {
        let ops = spec.full_sequence();
        let wl = working_set_bound(&ops) as f64;
        for &p in ps {
            let mut m1 = M1::new(p);
            let w1 = run_batched(&mut m1, &ops, p * p);
            let mut m2 = M2::new(p);
            let w2 = run_batched(&mut m2, &ops, p * p);
            rows.push(Row::new(
                format!("{name} p={p}"),
                vec![
                    ("W_L", wl),
                    ("M1 work/W_L", w1.work as f64 / wl),
                    ("M2 work/W_L", w2.work as f64 / wl),
                ],
            ));
        }
    }
    rows
}

/// E4: effective span of M1 per batch against the `(log p)^2 + log n` shape.
pub fn experiment_m1_span(keyspace: u64, operations: usize, ps: &[usize]) -> Vec<Row> {
    let mut rows = Vec::new();
    let spec = WorkloadSpec::read_only(keyspace, operations, Pattern::Zipf(1.0), 3);
    let ops = spec.full_sequence();
    for &p in ps {
        let mut m1 = M1::new(p).with_batch_log();
        run_batched(&mut m1, &ops, p * p);
        let max_span = m1
            .batch_log()
            .iter()
            .map(|b| b.cost.span)
            .max()
            .unwrap_or(0) as f64;
        let avg_span = m1.batch_log().iter().map(|b| b.cost.span).sum::<u64>() as f64
            / m1.batch_log().len().max(1) as f64;
        let logp = (p as f64).log2();
        let logn = (keyspace as f64).log2();
        let bound = logp * logp + logn;
        rows.push(Row::new(
            format!("p={p}"),
            vec![
                ("avg batch span", avg_span),
                ("max batch span", max_span),
                ("(log p)^2+log n", bound),
                ("max/bound", max_span / bound),
            ],
        ));
    }
    rows
}

/// E6: per-operation pipeline latency of M2 by access recency.
pub fn experiment_m2_latency(keyspace: u64, p: usize) -> Vec<Row> {
    let mut m2 = M2::new(p).with_latency_records();
    let load: Vec<MapOpKind<u64>> = (0..keyspace).map(MapOpKind::Insert).collect();
    run_batched(&mut m2, &load, p * p);
    // Touch a hot set, then measure latency of hot vs progressively colder
    // keys.
    let hot: Vec<MapOpKind<u64>> = (0..8).map(MapOpKind::Search).collect();
    run_batched(&mut m2, &hot, p * p);
    let mut rows = Vec::new();
    for (label, key) in [
        ("hot (rank ~8)", 1u64),
        ("warm (rank ~n/16)", keyspace / 16),
        ("cool (rank ~n/4)", keyspace / 4),
        ("cold (rank ~n)", keyspace - 2),
    ] {
        let before = m2.latencies().len();
        run_batched(&mut m2, &[MapOpKind::Search(key)], p * p);
        let lat: u64 = m2.latencies()[before..].iter().map(|l| l.latency()).sum();
        rows.push(Row::new(
            label,
            vec![
                ("latency (virtual steps)", lat as f64),
                ("log2(rank) proxy", ((key + 2) as f64).log2()),
            ],
        ));
    }
    rows
}

/// E7: parallel buffer effective cost per flushed batch size.
pub fn experiment_buffer_cost(ps: &[usize]) -> Vec<Row> {
    let mut rows = Vec::new();
    for &p in ps {
        for b in [p, p * p, p * p * 16] {
            let cost = wsm_core::ParallelBuffer::<u64>::flush_cost(p as u64, b as u64);
            rows.push(Row::new(
                format!("p={p} b={b}"),
                vec![
                    ("work", cost.work as f64),
                    ("span", cost.span as f64),
                    ("work/(p+b)", cost.work as f64 / (p + b) as f64),
                ],
            ));
        }
    }
    rows
}

/// E8/E9: sorting cost against the entropy bound.
pub fn experiment_sorting(n: usize) -> Vec<Row> {
    use wsm_model::entropy_bound;
    use wsm_sort::{esort, pesort};
    let mut rows = Vec::new();
    let mut state = 99u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let inputs: Vec<(&str, Vec<u64>)> = vec![
        ("constant", vec![7; n]),
        ("two values", (0..n).map(|i| (i % 2) as u64).collect()),
        (
            "16 values skewed",
            (0..n)
                .map(|_| if next() % 10 < 9 { 0 } else { next() % 16 })
                .collect(),
        ),
        ("256 values", (0..n).map(|_| next() % 256).collect()),
        ("uniform", (0..n).map(|_| next()).collect()),
    ];
    for (name, items) in inputs {
        let bound = entropy_bound(&items);
        let (_, e_cost) = esort(&items);
        let (_, p_cost) = pesort(items.clone());
        rows.push(Row::new(
            name,
            vec![
                ("n(H+1)", bound),
                ("ESort work/bound", e_cost.work as f64 / bound),
                ("PESort work/bound", p_cost.work as f64 / bound),
                ("PESort span", p_cost.span as f64),
            ],
        ));
    }
    rows
}

/// E10: static optimality — M1 total work against the optimal static BST cost
/// on Zipfian workloads.
pub fn experiment_static_optimality(keyspace: u64, operations: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for alpha in [0.5f64, 0.75, 1.0, 1.25] {
        let spec = WorkloadSpec::read_only(keyspace, operations, Pattern::Zipf(alpha), 5);
        let ops = spec.full_sequence();
        let accesses: Vec<u64> = spec.access_phase().iter().map(|o| *o.key()).collect();
        let static_cost = analysis::static_tree_cost_for(&accesses) as f64;
        let optimal_proxy = analysis::optimal_static_bst_cost(&accesses);
        let mut m1 = M1::new(8);
        let work = run_batched(&mut m1, &ops, 64).work as f64;
        rows.push(Row::new(
            format!("zipf s={alpha}"),
            vec![
                ("static tree cost", static_cost),
                ("entropy lower bound", optimal_proxy),
                ("M1 work", work),
                ("M1/static", work / static_cost),
            ],
        ));
    }
    rows
}

/// E11: dynamic working-set adaptivity across a phase shift.
///
/// The working-set property is a statement about *recency*, so its dynamic
/// content only shows when the working set moves: searches draw from a small
/// hot window, then the window jumps to a disjoint key region.  Steady-state
/// work per operation should track `log w` (window size), the first touches
/// after the shift pay `log n` each (the new keys have recency rank ~n), and
/// the cost must *recover* to `log w` once the new window is resident — the
/// spike-and-recover signature that distinguishes a working-set structure
/// from a plain balanced tree, whose columns stay flat at `log n` throughout.
pub fn experiment_phase_shift(keyspace: u64, operations: usize, p: usize) -> Vec<Row> {
    const WINDOW: u64 = 64;
    let half = (operations / 2).max(512);
    // "Shift" = the first full pass over the new window, where every search
    // pays the cold cost; "steady" = everything after.
    let transition = (WINDOW as usize * 4).min(half / 2);
    let phase = |base: u64, n: usize, seed: u64| -> Vec<MapOpKind<u64>> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                MapOpKind::Search(base + (x >> 33) % WINDOW)
            })
            .collect()
    };
    let load: Vec<MapOpKind<u64>> = (0..keyspace).map(MapOpKind::Insert).collect();
    let warm = phase(0, half, 5);
    let steady_a = phase(0, half, 7);
    let b = phase(keyspace / 2, half, 9);
    let (shift, steady_b) = b.split_at(transition);
    let per_op = |c: Cost, n: usize| c.work as f64 / n.max(1) as f64;
    let mut rows = Vec::new();
    {
        let mut m0 = M0::new();
        run_sequential(&mut m0, &load);
        run_sequential(&mut m0, &warm);
        let a = per_op(run_sequential(&mut m0, &steady_a), steady_a.len());
        let s = per_op(run_sequential(&mut m0, shift), shift.len());
        let r = per_op(run_sequential(&mut m0, steady_b), steady_b.len());
        rows.push(Row::new(
            "M0 (sequential)",
            vec![
                ("steady A work/op", a),
                ("shift work/op", s),
                ("steady B work/op", r),
                ("shift/steady", s / a.max(f64::MIN_POSITIVE)),
            ],
        ));
    }
    {
        let mut avl = AvlMap::new();
        run_sequential(&mut avl, &load);
        run_sequential(&mut avl, &warm);
        let a = per_op(run_sequential(&mut avl, &steady_a), steady_a.len());
        let s = per_op(run_sequential(&mut avl, shift), shift.len());
        let r = per_op(run_sequential(&mut avl, steady_b), steady_b.len());
        rows.push(Row::new(
            "AVL (no WS property)",
            vec![
                ("steady A work/op", a),
                ("shift work/op", s),
                ("steady B work/op", r),
                ("shift/steady", s / a.max(f64::MIN_POSITIVE)),
            ],
        ));
    }
    for (label, batched) in [("M1", true), ("M2", false)] {
        let batch = p * p;
        let (a, s, r) = if batched {
            let mut m = M1::new(p);
            run_batched(&mut m, &load, batch);
            run_batched(&mut m, &warm, batch);
            (
                per_op(run_batched(&mut m, &steady_a, batch), steady_a.len()),
                per_op(run_batched(&mut m, shift, batch), shift.len()),
                per_op(run_batched(&mut m, steady_b, batch), steady_b.len()),
            )
        } else {
            let mut m = M2::new(p);
            run_batched(&mut m, &load, batch);
            run_batched(&mut m, &warm, batch);
            (
                per_op(run_batched(&mut m, &steady_a, batch), steady_a.len()),
                per_op(run_batched(&mut m, shift, batch), shift.len()),
                per_op(run_batched(&mut m, steady_b, batch), steady_b.len()),
            )
        };
        rows.push(Row::new(
            format!("{label} p={p}"),
            vec![
                ("steady A work/op", a),
                ("shift work/op", s),
                ("steady B work/op", r),
                ("shift/steady", s / a.max(f64::MIN_POSITIVE)),
            ],
        ));
    }
    rows.push(Row::new(
        "reference",
        vec![
            ("log2 w", (WINDOW as f64).log2()),
            ("log2 n", (keyspace as f64).log2()),
            ("ops/phase", half as f64),
            ("shift ops", transition as f64),
        ],
    ));
    rows
}

/// E12: ablation — duplicate-combining batches versus executing each
/// duplicate operation as its own singleton batch (the Ω(b log n) blow-up of
/// Section 3).
pub fn experiment_combine_ablation(keyspace: u64, dup: usize) -> Vec<Row> {
    let load: Vec<MapOpKind<u64>> = (0..keyspace).map(MapOpKind::Insert).collect();
    let hot_key = keyspace / 2;
    let dups: Vec<MapOpKind<u64>> = std::iter::repeat_n(MapOpKind::Search(hot_key), dup).collect();

    // Combined: all duplicates arrive in batches and are grouped.
    let mut combined = M1::new(8);
    run_batched(&mut combined, &load, 64);
    let before = combined.effective_work();
    run_batched(&mut combined, &dups, 64);
    let combined_work = (combined.effective_work() - before) as f64;

    // Naive: one operation per batch — no duplicates can combine.
    let mut naive = M1::new(8);
    run_batched(&mut naive, &load, 64);
    let before = naive.effective_work();
    run_batched(&mut naive, &dups, 1);
    let naive_work = (naive.effective_work() - before) as f64;

    vec![Row::new(
        format!("{dup} searches for one key, n={keyspace}"),
        vec![
            ("combined work", combined_work),
            ("naive per-op work", naive_work),
            ("naive/combined", naive_work / combined_work),
            ("b log n", dup as f64 * (keyspace as f64).log2()),
        ],
    )]
}

/// E13: M1 versus M2 latency when an expensive (cold) operation precedes a
/// stream of cheap (hot) operations — the pipelining pay-off.
pub fn experiment_pipelining(keyspace: u64, p: usize) -> Vec<Row> {
    // M2: measure average latency of hot operations that share batches with
    // cold misses.
    let mut m2 = M2::new(p).with_latency_records();
    let load: Vec<MapOpKind<u64>> = (0..keyspace).map(MapOpKind::Insert).collect();
    run_batched(&mut m2, &load, p * p);
    run_batched(&mut m2, &[MapOpKind::Search(1)], p * p);
    let mixed: Vec<MapOpKind<u64>> = (0..64u64)
        .map(|i| {
            if i % 8 == 0 {
                MapOpKind::Search(keyspace - 1 - i) // cold
            } else {
                MapOpKind::Search(1) // hot
            }
        })
        .collect();
    let before = m2.latencies().len();
    run_batched(&mut m2, &mixed, p * p);
    let records = &m2.latencies()[before..];
    let avg_m2 =
        records.iter().map(|l| l.latency()).sum::<u64>() as f64 / records.len().max(1) as f64;

    // M1: every operation in a batch waits for the whole batch, so the cheap
    // operations inherit the cold operations' span.
    let mut m1 = M1::new(p).with_batch_log();
    run_batched(&mut m1, &load, p * p);
    run_batched(&mut m1, &[MapOpKind::Search(1)], p * p);
    let before_batches = m1.batch_log().len();
    run_batched(&mut m1, &mixed, p * p);
    let avg_m1 = m1.batch_log()[before_batches..]
        .iter()
        .map(|b| b.cost.span)
        .sum::<u64>() as f64
        / (m1.batch_log().len() - before_batches).max(1) as f64;

    vec![Row::new(
        format!("hot stream with cold misses, n={keyspace}, p={p}"),
        vec![
            ("M1 avg batch span (per-op latency proxy)", avg_m1),
            ("M2 avg per-op latency", avg_m2),
            ("M1/M2", avg_m1 / avg_m2.max(1.0)),
        ],
    )]
}

/// E15: wall-clock scaling of PESort by fork budget and of the concurrent
/// map by calling threads.
///
/// Two workloads, each timed end-to-end and reported as mean ns per operation
/// plus speedup over the first (usually 1-thread) configuration:
///
/// * `pesort` — one parallel entropy sort of `sort_n` random keys under
///   `wsm_pool::with_threads(t, ..)`, so its fork runs on up to `t` threads;
/// * `concurrent map` — `t` OS threads hammering a [`wsm_core::ConcurrentMap`]
///   (insert + search on disjoint ranges): caller scaling, with every batch
///   run on the thread that wins the combiner election (these batches stay
///   far below PESort's fork, so the fork budget does not enter).
///
/// Unlike E1–E14 this measures *wall-clock* time, not analytic cost: its
/// `pesort` rows are the measurement that keeps PESort's fork (1.6× or more
/// at 2^20 keys on 2 threads), so its output is meaningful only on a
/// multi-core runner.
pub fn experiment_scaling(
    sort_n: usize,
    map_ops: usize,
    thread_counts: &[usize],
    reps: usize,
) -> Vec<Row> {
    use std::sync::Arc;
    use std::time::Instant;
    use wsm_core::ConcurrentMap;
    use wsm_sort::pesort;

    let reps = reps.max(1);
    let mut state = 0x1234_5678_9abc_def0u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let sort_input: Vec<u64> = (0..sort_n).map(|_| next()).collect();

    let mut rows = Vec::new();
    let mut baselines: std::collections::BTreeMap<&'static str, f64> =
        std::collections::BTreeMap::new();
    let mut record = |rows: &mut Vec<Row>, name: &'static str, t: usize, n: usize, ns_op: f64| {
        let base = *baselines.entry(name).or_insert(ns_op);
        rows.push(Row::new(
            format!("{name} t={t}"),
            vec![
                ("threads", t as f64),
                ("n", n as f64),
                ("mean ns/op", ns_op),
                ("speedup vs first", base / ns_op),
            ],
        ));
    };

    for &t in thread_counts {
        // PESort of `sort_n` random keys.
        let mut total_ns = 0.0;
        for _ in 0..reps {
            let input = sort_input.clone();
            total_ns += wsm_pool::with_threads(t, move || {
                let start = Instant::now();
                let (sorted, _) = pesort(input);
                let ns = start.elapsed().as_nanos() as f64;
                assert_eq!(sorted.len(), sort_n);
                ns
            });
        }
        record(
            &mut rows,
            "pesort",
            t,
            sort_n,
            total_ns / (reps * sort_n) as f64,
        );

        // ConcurrentMap: `t` OS threads, batches on the combiner thread.
        let mut total_ns = 0.0;
        let ops_per_thread = (map_ops / t.max(1)).max(1);
        for _ in 0..reps {
            let map = Arc::new(ConcurrentMap::new(M1::<u64, u64>::new(8), t));
            let start = Instant::now();
            std::thread::scope(|s| {
                for th in 0..t {
                    let map = Arc::clone(&map);
                    s.spawn(move || {
                        let base = th as u64 * 100_000_000;
                        for i in 0..ops_per_thread as u64 {
                            map.insert(th, base + i, i);
                            map.search(th, base + i);
                        }
                    });
                }
            });
            total_ns += start.elapsed().as_nanos() as f64;
        }
        record(
            &mut rows,
            "concurrent map",
            t,
            map_ops,
            total_ns / (reps * 2 * ops_per_thread * t) as f64,
        );
    }
    rows
}

/// E17: measured-vs-bound analytic constants per structure and workload.
///
/// Since the measured/worst-case charge split in `wsm_twothree::cost`, the
/// maps' cost ledgers record the tree nodes batches *actually* touched next to
/// the closed-form Appendix A.2 charges the same batches would have paid
/// (read back as `analytic_bound_work`).  This experiment records, per workload of
/// the standard suite plus a Zipf size sweep plus a 40%-update mix:
///
/// * `M1 W/W_L`, `M2 W/W_L` — measured effective work over the working-set
///   bound: the constants the ROADMAP tracked at ≈6.1 / ≈7.7 under
///   worst-case charging;
/// * `M1 bound/W_L` — the worst-case constant, for the before/after trend;
/// * `M1 W/bound`, `M2 W/bound` — how far below the Lemma ceiling the
///   implementation runs (must be ≤ 1 by construction: exceeding the bound
///   trips a debug assertion in `tcost`, which CI runs with assertions on);
/// * `M2 maint runs` — dedicated hole-refill maintenance runs of the eager
///   cascade that keeps the Lemma 16 prefix deficit under 2p².
///
/// Results are persisted to `BENCH_e17.json` so the constants become tracked
/// regressions rather than one-off ROADMAP notes.
pub fn experiment_cost_constants(keyspace: u64, operations: usize) -> Vec<Row> {
    let p = 4;
    let mut rows = Vec::new();
    let record = |rows: &mut Vec<Row>, label: String, spec: &WorkloadSpec| {
        let ops = spec.full_sequence();
        let wl = working_set_bound(&ops) as f64;
        let mut m1 = M1::new(p);
        run_batched(&mut m1, &ops, p * p);
        let mut m2 = M2::new(p);
        run_batched(&mut m2, &ops, p * p);
        let m1_bound = m1.analytic_bound_work() as f64;
        let m2_bound = m2.analytic_bound_work() as f64;
        rows.push(Row::new(
            label,
            vec![
                ("W_L", wl),
                ("M1 W/W_L", m1.effective_work() as f64 / wl),
                ("M1 bound/W_L", m1_bound / wl),
                ("M1 W/bound", m1.effective_work() as f64 / m1_bound),
                ("M2 W/W_L", m2.effective_work() as f64 / wl),
                ("M2 W/bound", m2.effective_work() as f64 / m2_bound),
                ("M2 maint runs", m2.maintenance_runs() as f64),
            ],
        ));
    };
    for (name, spec) in standard_suite(keyspace, operations, 13) {
        record(&mut rows, name.to_string(), &spec);
    }
    // Constant-factor *trend* over the structure size (the paper-shaped
    // regime is the largest row).
    for shift in [2u32, 1, 0] {
        let ks = (keyspace >> shift).max(64);
        let nops = (operations >> shift).max(256);
        let spec = WorkloadSpec::read_only(ks, nops, Pattern::Zipf(1.1), 17);
        record(&mut rows, format!("zipf s=1.1 n={ks}"), &spec);
    }
    // Update-heavy mix: deletions drive the hole-refill maintenance cascade.
    let mut spec = WorkloadSpec::read_only(keyspace, operations, Pattern::Zipf(1.0), 19);
    spec.update_fraction = 0.4;
    record(&mut rows, "zipf s=1.0, 40% updates".to_string(), &spec);

    // Regression gate (CI runs this experiment as a smoke step): cold uniform
    // scans are the workload with the least locality, so their measured/bound
    // ratio is the ceiling of the whole suite.  Under the two-tree RecencyMap
    // it sat at ≈1.0 (two full tree passes per segment op ate the closed
    // form's headroom); the arena-fused single-pass design holds it at ≈0.67.
    // Fail loudly if it ever climbs back above 0.8.
    let uniform = rows
        .iter()
        .find(|r| r.label == "uniform")
        .expect("standard suite contains the uniform workload");
    for which in ["M1 W/bound", "M2 W/bound"] {
        let ratio = uniform
            .values
            .iter()
            .find(|(k, _)| k == which)
            .expect("ratio column present")
            .1;
        assert!(
            ratio <= 0.8,
            "uniform-scan {which} regressed to {ratio:.3} (> 0.8): segment ops \
             are paying extra tree passes again"
        );
    }
    rows
}

/// E18: tree passes per operation — the direct witness of the arena-fused
/// `RecencyMap`.
///
/// The fused design's claim is structural: locating an item in the key-map
/// yields its recency position for free (the arena index *is* the paper's
/// direct pointer), so every segment operation drives **one** tree where the
/// old stamp-keyed two-tree design drove two — and since the sorted-batch
/// sweep drives it once per batch, whatever the batch size.
/// `wsm_twothree::cost::tree_passes` counts root-originating `Tree23`
/// traversals; this experiment records, per structure and workload, the
/// passes and touched nodes per map operation, plus a micro row family
/// measuring isolated segment-op shapes at `b = 64`, where the counts are
/// exact small integers: 1 pass for a one-sided op (batch removal, batch
/// push, an eviction take), 2 for a transfer (take + push), where the
/// two-tree design paid 2 and 4.  A *sweep* row family times the three
/// segment-op shapes of the cascade (`get_batch`, `remove_batch` +
/// `push_front_batch`, `take_back` + `push_front_batch`) per key on a
/// 2^17-item map — the size at which a segment tree outgrows the cache, so
/// each level of a descent is a cache miss the sweep waits for — and again
/// on a 2^12-item map that stays in cache, where a level costs only its
/// in-node scan.  Two `std::collections::BTreeMap` rows on the 2^17 keys
/// give the yardstick: a `get` per key, and a remove + insert per key.
///
/// Since the fanout-B arena rewrite every row also records `nodes/op`
/// (thread-local metered tree-node touches) and `ns/op` (wall time), and an
/// A/B micro family re-runs the point / batch / transfer shapes at `B = 2`
/// (the paper's 2-3 shape), `B = 16` and `B = 64` (the default): node
/// touches per op must fall from each fanout to the next, by roughly the
/// height ratio `log2(n) / log_{B/2}(n)`, which is what makes the wide node
/// pay for its linear in-node scans.  The thread-local meter is exact on the
/// micro and A/B rows (they run on the harness thread); the map-level rows
/// execute batches inside the combiner's pool, where the cross-thread
/// measured node-touch work is what `W/op` reports, so their `nodes/op`
/// column only counts harness-thread touches (typically 0).
///
/// Results are persisted to `BENCH_e18.json` so the constant-factor drop is
/// a tracked regression, not a one-off PR note.
pub fn experiment_tree_passes(keyspace: u64, operations: usize) -> Vec<Row> {
    use std::collections::BTreeMap;
    use std::time::Instant;
    use wsm_twothree::cost as tcost;
    use wsm_twothree::{RecencyMap, Tree23};
    let p = 4;
    let mut rows = Vec::new();

    // Map-level rows: passes/op across whole workloads (sequential
    // run_batched, so the thread-local pass counter sees every tree op).
    let suite = [
        (
            "uniform",
            WorkloadSpec::read_only(keyspace, operations, Pattern::Uniform, 23),
        ),
        (
            "hot-set (8 keys, 2% miss)",
            WorkloadSpec::read_only(
                keyspace,
                operations,
                Pattern::HotSet {
                    hot: 8,
                    miss_rate: 0.02,
                },
                23,
            ),
        ),
        (
            "zipf s=1.1",
            WorkloadSpec::read_only(keyspace, operations, Pattern::Zipf(1.1), 23),
        ),
    ];
    for (name, spec) in suite {
        let ops = spec.full_sequence();
        let total_ops = ops.len() as f64;
        let mut m1 = M1::new(p);
        tcost::reset_tree_passes();
        let start = Instant::now();
        let (_, m1_nodes) = tcost::metered(|| run_batched(&mut m1, &ops, p * p));
        let m1_ns = start.elapsed().as_nanos() as f64;
        let m1_passes = tcost::tree_passes() as f64;
        let mut m2 = M2::new(p);
        tcost::reset_tree_passes();
        let start = Instant::now();
        let (_, m2_nodes) = tcost::metered(|| run_batched(&mut m2, &ops, p * p));
        let m2_ns = start.elapsed().as_nanos() as f64;
        let m2_passes = tcost::tree_passes() as f64;
        tcost::reset_tree_passes();
        rows.push(Row::new(
            format!("{name} M1"),
            vec![
                ("ops", total_ops),
                ("tree passes", m1_passes),
                ("passes/op", m1_passes / total_ops),
                ("nodes/op", m1_nodes as f64 / total_ops),
                ("ns/op", m1_ns / total_ops),
                ("W/op", m1.effective_work() as f64 / total_ops),
            ],
        ));
        rows.push(Row::new(
            format!("{name} M2"),
            vec![
                ("ops", total_ops),
                ("tree passes", m2_passes),
                ("passes/op", m2_passes / total_ops),
                ("nodes/op", m2_nodes as f64 / total_ops),
                ("ns/op", m2_ns / total_ops),
                ("W/op", m2.effective_work() as f64 / total_ops),
            ],
        ));
    }

    // Micro rows: isolated segment-op shapes with exact pass counts.
    let build = |n: u64| -> RecencyMap<u64, u64> {
        let mut m = RecencyMap::new();
        for i in 0..n {
            m.insert_back(i, i);
        }
        m
    };
    let micro = |rows: &mut Vec<Row>, label: &str, f: &mut dyn FnMut()| {
        tcost::reset_tree_passes();
        let start = Instant::now();
        let ((), nodes) = tcost::metered(f);
        let ns = start.elapsed().as_nanos() as f64;
        let passes = tcost::tree_passes() as f64;
        tcost::reset_tree_passes();
        rows.push(Row::new(
            label,
            vec![
                ("ops", 1.0),
                ("tree passes", passes),
                ("passes/op", passes),
                ("nodes/op", nodes as f64),
                ("ns/op", ns),
                ("W/op", 0.0),
            ],
        ));
    };
    let mut m = build(512);
    let keys: Vec<u64> = (0..64u64).map(|i| i * 8).collect();
    let mut removed_items: Vec<(u64, u64)> = Vec::new();
    micro(&mut rows, "segment remove_batch b=64 n=512", &mut || {
        removed_items = keys
            .iter()
            .zip(m.remove_batch(&keys))
            .map(|(&k, v)| (k, v.expect("key present")))
            .collect();
    });
    let removed_items = std::mem::take(&mut removed_items);
    micro(
        &mut rows,
        "segment push_front_batch b=64 n=512",
        &mut || {
            m.push_front_batch(removed_items.clone());
        },
    );
    let mut dest = build(256);
    micro(
        &mut rows,
        "segment transfer k=64 (take_back + push_front)",
        &mut || {
            let moved = m.take_back(64);
            dest.push_front_batch(moved.into_iter().map(|(k, v)| (k + 10_000, v)).collect());
        },
    );
    micro(&mut rows, "segment take_front k=64 (eviction)", &mut || {
        let evicted = m.take_front(64);
        assert_eq!(evicted.len(), 64);
    });

    // Sweep rows: the three segment-op shapes of the cascade at the size
    // where a segment tree no longer fits the cache (2^17 items) and at one
    // where it does (2^12), 80 random sorted keys per batch (an M1 cut batch
    // at p = 4) against a map built outside the timed body, mean per key
    // over 256 batches.
    const SWEEP_BATCHES: usize = 256;
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for log_items in [17, 12] {
        let items = 1u64 << log_items;
        let mut big: RecencyMap<u64, u64> = RecencyMap::new();
        let mut shuffled: Vec<(u64, u64)> = (0..items).map(|k| (k, k)).collect();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        let mut std_map: BTreeMap<u64, u64> = shuffled.iter().copied().collect();
        big.push_back_batch(shuffled);
        let batches: Vec<Vec<u64>> = (0..SWEEP_BATCHES)
            .map(|_| {
                let mut keys: Vec<u64> = (0..80).map(|_| next() % items).collect();
                keys.sort_unstable();
                keys.dedup();
                keys
            })
            .collect();
        let swept_keys = batches.iter().map(Vec::len).sum::<usize>() as f64;
        let mut sweep = |label: &str, body: &mut dyn FnMut(&[u64])| {
            tcost::reset_tree_passes();
            let (mut ns, mut nodes) = (0.0, 0u64);
            for keys in &batches {
                let start = Instant::now();
                let ((), touched) = tcost::metered(|| body(keys));
                ns += start.elapsed().as_nanos() as f64;
                nodes += touched;
            }
            let passes = tcost::tree_passes() as f64;
            tcost::reset_tree_passes();
            rows.push(Row::new(
                format!("{label} b=80 n=2^{log_items}"),
                vec![
                    ("ops", swept_keys),
                    ("tree passes", passes),
                    ("passes/op", passes / swept_keys),
                    ("nodes/op", nodes as f64 / swept_keys),
                    ("ns/op", ns / swept_keys),
                    ("W/op", 0.0),
                ],
            ));
        };
        sweep("sweep get_batch", &mut |keys| {
            assert!(std::hint::black_box(big.get_batch(keys))
                .iter()
                .all(Option::is_some));
        });
        sweep("sweep remove_batch + push_front_batch", &mut |keys| {
            let found = big.remove_batch(keys);
            let items = keys.iter().zip(found);
            big.push_front_batch(items.map(|(&k, v)| (k, v.expect("key present"))).collect());
        });
        sweep("sweep take_back + push_front_batch", &mut |keys| {
            let moved = big.take_back(keys.len());
            big.push_front_batch(moved);
        });
        if log_items < 17 {
            continue;
        }
        // The same keys, one at a time, on `std::BTreeMap` (no batching, no
        // recency order, no metered tree).
        sweep("btreemap get", &mut |keys| {
            for k in keys {
                assert!(std::hint::black_box(std_map.get(k)).is_some());
            }
        });
        sweep("btreemap remove + insert", &mut |keys| {
            for &k in keys {
                let v = std_map.remove(&k).expect("key present");
                std_map.insert(k, v);
            }
        });
    }

    // A/B micro family: the same op shapes on the 2-3 reference (B = 2), at
    // B = 16 and at the cache-conscious default (B = 64).  Passes are
    // structural and must not change with the fanout; nodes/op must drop
    // from each fanout to the next by roughly the height ratio
    // log2(n) / log_{B/2}(n).
    let n = keyspace.max(512);
    for fan in [2usize, 16, 64] {
        let items: Vec<(u64, u64)> = (0..n).map(|i| (i, i)).collect();
        let mut tree: Tree23<u64, u64> = Tree23::from_sorted_with_fanout(items, fan);
        let probes: Vec<u64> = (0..256u64).map(|i| (i * 97) % n).collect();
        micro(
            &mut rows,
            &format!("point get x256 n={n} fanout={fan}"),
            &mut || {
                for k in &probes {
                    assert!(tree.get(k).is_some());
                }
            },
        );
        let batch: Vec<(u64, u64)> = (0..64u64).map(|i| (n + i * 3, i)).collect();
        micro(
            &mut rows,
            &format!("batch insert b=64 n={n} fanout={fan}"),
            &mut || {
                tree.batch_insert(batch.clone());
            },
        );
        let mut src: RecencyMap<u64, u64> = RecencyMap::with_fanout(fan);
        let mut dst: RecencyMap<u64, u64> = RecencyMap::with_fanout(fan);
        for i in 0..n {
            src.insert_back(i, i);
        }
        micro(
            &mut rows,
            &format!("segment transfer k=64 n={n} fanout={fan}"),
            &mut || {
                let moved = src.take_back(64);
                dst.push_front_batch(moved);
            },
        );
    }
    rows
}

/// E14: runtime invariant checking of M1 and M2 over mixed workloads.
pub fn experiment_invariants(keyspace: u64, operations: usize) -> Vec<Row> {
    let mut spec = WorkloadSpec::read_only(keyspace, operations, Pattern::Zipf(1.0), 7);
    spec.update_fraction = 0.3;
    let ops = spec.full_sequence();
    let mut m1 = M1::new(4);
    let mut m2 = M2::new(4);
    let mut checks = 0u64;
    for chunk in to_operations(&ops).chunks(64) {
        let mut batch: Vec<TaggedOp<u64, u64>> = chunk
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, op)| TaggedOp { id: i as OpId, op })
            .collect();
        m1.run_batch(&mut batch.clone(), &mut Vec::new());
        m2.run_batch(&mut batch, &mut Vec::new());
        m1.check_invariants();
        m2.check_invariants();
        checks += 2;
    }
    vec![Row::new(
        format!("zipf+30% updates, n={keyspace}, {operations} ops"),
        vec![
            ("invariant checks passed", checks as f64),
            ("final size M1", m1.len() as f64),
            ("final size M2", m2.len() as f64),
        ],
    )]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_and_rows_are_well_formed() {
        let rows = experiment_buffer_cost(&[2, 4]);
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().all(|r| r.values.len() == 3));
    }

    #[test]
    fn sequential_experiment_shows_adaptivity() {
        let rows = experiment_sequential_ws(1 << 8, 1 << 10);
        // On the hot-set workload M0 must be within a constant factor of W_L.
        let hot = &rows[0];
        let ratio = hot.values.iter().find(|(k, _)| k == "M0/W_L").unwrap().1;
        assert!(ratio < 30.0, "M0/W_L ratio {ratio} too large");
    }

    #[test]
    fn combine_ablation_shows_blowup() {
        let rows = experiment_combine_ablation(1 << 10, 256);
        let ratio = rows[0]
            .values
            .iter()
            .find(|(k, _)| k == "naive/combined")
            .unwrap()
            .1;
        assert!(
            ratio > 1.5,
            "naive execution should be clearly worse, got {ratio}"
        );
    }

    #[test]
    fn cost_constants_experiment_shows_measured_below_bound() {
        let rows = experiment_cost_constants(1 << 9, 1 << 11);
        // 5 suite workloads + 3 zipf sizes + 1 update mix.
        assert_eq!(rows.len(), 9);
        let ceiling = wsm_twothree::cost::MEASURED_CEILING as f64;
        for row in &rows {
            let get = |key: &str| row.values.iter().find(|(k, _)| k == key).unwrap().1;
            for which in ["M1 W/bound", "M2 W/bound"] {
                let ratio = get(which);
                assert!(
                    ratio > 0.0 && ratio < ceiling,
                    "{}: {which} {ratio} outside (0, ceiling {ceiling})",
                    row.label
                );
            }
        }
        // On workloads with locality the split must actually tighten the
        // constant, not relabel it: measured work clearly below the
        // worst-case charge (cold uniform scans may measure at ≈1x the
        // closed form — that is the honest answer, the ceiling covers it).
        for label in ["hot-set (8 keys, 2% miss)", "zipf s=1.0, 40% updates"] {
            let row = rows.iter().find(|r| r.label == label).unwrap();
            let get = |key: &str| row.values.iter().find(|(k, _)| k == key).unwrap().1;
            assert!(
                get("M1 W/W_L") < get("M1 bound/W_L"),
                "{label}: measured constant not below the bound constant"
            );
            assert!(
                get("M1 W/bound") < 1.0 && get("M2 W/bound") < 1.0,
                "{label}: locality workload should measure below the bound"
            );
        }
        // The maintenance-run column counts only real hole-refill work (at
        // these small sizes the mix may legitimately need none — a non-zero
        // count on a genuine deletion wave is pinned by
        // tests/property_invariants.rs); here it just has to be well-formed.
        for row in &rows {
            let maint = row
                .values
                .iter()
                .find(|(k, _)| k == "M2 maint runs")
                .unwrap()
                .1;
            assert!(
                maint >= 0.0 && maint.is_finite(),
                "{}: malformed maintenance-run count {maint}",
                row.label
            );
        }
    }

    #[test]
    fn tree_passes_experiment_pins_single_pass_segment_ops() {
        let rows = experiment_tree_passes(1 << 9, 1 << 11);
        // 3 workloads x 2 structures + 4 micro rows + 2 sizes x 3 sweep
        // rows + 2 BTreeMap rows + 3 fanouts x 3 A/B rows.
        assert_eq!(rows.len(), 27);
        let get = |label: &str, key: &str| -> f64 {
            rows.iter()
                .find(|r| r.label == label)
                .unwrap_or_else(|| panic!("row {label} missing"))
                .values
                .iter()
                .find(|(k, _)| k == key)
                .unwrap()
                .1
        };
        // The micro rows are exact: one-sided segment ops are one tree pass,
        // a transfer is two (the two-tree design paid 2 and 4).
        assert_eq!(get("segment remove_batch b=64 n=512", "tree passes"), 1.0);
        assert_eq!(
            get("segment push_front_batch b=64 n=512", "tree passes"),
            1.0
        );
        assert_eq!(
            get(
                "segment transfer k=64 (take_back + push_front)",
                "tree passes"
            ),
            2.0
        );
        assert_eq!(
            get("segment take_front k=64 (eviction)", "tree passes"),
            1.0
        );
        // The sweep rows: one pass per batch for the read, two per round
        // trip, over 256 batches, in cache and out of it.
        for n in ["2^17", "2^12"] {
            assert_eq!(
                get(&format!("sweep get_batch b=80 n={n}"), "tree passes"),
                256.0
            );
            for round_trip in ["remove_batch", "take_back"] {
                let label = format!("sweep {round_trip} + push_front_batch b=80 n={n}");
                assert_eq!(get(&label, "tree passes"), 512.0);
            }
        }
        // The A/B family: passes are structural (fanout-independent), while
        // each wider node must touch strictly fewer nodes on every shape.
        let n = 1u64 << 9;
        for shape in [
            format!("point get x256 n={n}"),
            format!("batch insert b=64 n={n}"),
            format!("segment transfer k=64 n={n}"),
        ] {
            for (narrow, wide) in [(2, 16), (16, 64)] {
                let narrow_row = format!("{shape} fanout={narrow}");
                let wide_row = format!("{shape} fanout={wide}");
                assert_eq!(
                    get(&narrow_row, "tree passes"),
                    get(&wide_row, "tree passes"),
                    "{shape}: pass counts must not depend on the fanout"
                );
                assert!(
                    get(&wide_row, "nodes/op") < get(&narrow_row, "nodes/op"),
                    "{shape}: B={wide} should touch fewer nodes than B={narrow} ({} vs {})",
                    get(&wide_row, "nodes/op"),
                    get(&narrow_row, "nodes/op"),
                );
            }
        }
        // The BTreeMap yardstick drives no `Tree23`; it is timed, not metered.
        for label in ["get", "remove + insert"] {
            let label = format!("btreemap {label} b=80 n=2^17");
            assert_eq!(get(&label, "tree passes"), 0.0);
            assert!(get(&label, "ns/op") > 0.0, "{label}: non-positive timing");
        }
        // Every other row's pass count is positive and finite.
        for row in rows.iter().filter(|r| !r.label.starts_with("btreemap")) {
            let passes = row
                .values
                .iter()
                .find(|(k, _)| k == "tree passes")
                .unwrap()
                .1;
            assert!(
                passes >= 1.0 && passes.is_finite(),
                "{}: malformed pass count {passes}",
                row.label
            );
        }
    }

    #[test]
    fn invariant_experiment_passes() {
        let rows = experiment_invariants(1 << 9, 1 << 11);
        assert!(rows[0].values[0].1 > 0.0);
    }

    #[test]
    fn scaling_experiment_rows_are_well_formed() {
        let rows = experiment_scaling(1 << 10, 1 << 8, &[1, 2], 1);
        // 2 workloads x 2 thread counts.
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert_eq!(row.values.len(), 4, "row {}", row.label);
            let ns_op = row
                .values
                .iter()
                .find(|(k, _)| k == "mean ns/op")
                .unwrap()
                .1;
            assert!(ns_op > 0.0, "non-positive timing in {}", row.label);
        }
        // The first configuration is its own baseline: speedup exactly 1.
        let first = rows.iter().find(|r| r.label.starts_with("pesort")).unwrap();
        let speedup = first
            .values
            .iter()
            .find(|(k, _)| k == "speedup vs first")
            .unwrap()
            .1;
        assert!((speedup - 1.0).abs() < 1e-9);
    }
}
