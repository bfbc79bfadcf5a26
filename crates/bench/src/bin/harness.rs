//! The experiment harness: regenerates the table of every experiment E1–E21
//! and writes it to `BENCH_<id>.json` (`BENCH_<id>_small.json` under
//! `--small`; README, "Commands").
//!
//! Usage:
//! ```text
//! harness [e1|e2|e3|e4|e5|e6|e7|e8|e9|e10|e11|e12|e13|e14|e15|e16|e17|e18|e19|e20|e21|all] [--small] [--threads N]
//! ```
//! With no experiment argument, all experiments run at their default
//! (paper-shaped) sizes; `--small` shrinks them for a quick smoke run.
//!
//! `--threads N` sets the fork budget: E1–E14 run under
//! `wsm_pool::with_threads(N, ..)` (their analytic results are thread-count
//! independent, but their wall-clock time is not), and E15 — the wall-clock
//! scaling experiment — sweeps budgets `1, 2, 4, 8` capped at `N`.
//!
//! Every experiment additionally writes a machine-readable
//! `BENCH_<id>.json` artifact (into `$WSM_BENCH_DIR`, defaulting to the
//! repository root so committed trends accumulate across PRs) for regression
//! tracking.

use wsm_bench as bench;

struct Sizes {
    keyspace: u64,
    operations: usize,
    sort_n: usize,
    /// E15 input sizes: pesort keys, concurrent-map ops.
    scale_sort_n: usize,
    scale_map_ops: usize,
    scale_reps: usize,
    /// E16 input sizes: cached pages and requests per serving thread.
    hot_pages: u64,
    hot_requests: usize,
}

/// Runs `f` under a fork budget of `--threads` when it was given, otherwise
/// directly (the default budget, the machine's available parallelism).
fn with_budget(threads: Option<usize>, f: impl FnOnce() -> Vec<bench::Row>) -> Vec<bench::Row> {
    match threads {
        Some(n) => wsm_pool::with_threads(n, f),
        None => f(),
    }
}

/// Prints the table and persists one `BENCH_<id>[_small].json` artifact per
/// id in `ids` — the first id is the primary; the rest are aliases for
/// experiments that share a table (E1/E2, E3/E5, E8/E9), written as their
/// own files (with `alias_of` recorded in the meta) so the committed
/// trajectory has an artifact for every experiment number.
///
/// Small-preset runs write to a `_small`-suffixed file (with the preset also
/// recorded in the meta), so the committed small-preset trend artifacts are
/// never clobbered with incomparable paper-shaped numbers and vice versa.
/// Likewise every artifact records the tree `fanout` in its meta, and
/// non-default fanouts (e.g. a `WSM_TREE_FANOUT=2` run of the analytic
/// reference) write to a `_b{fanout}`-suffixed file, so B=2 and B=16 runs of
/// the same preset never clobber each other.
fn emit(ids: &[&str], title: &str, rows: &[bench::Row], threads: Option<usize>, small: bool) {
    emit_extra(ids, title, rows, threads, small, &[]);
}

/// [`emit`] plus experiment-specific meta entries (e.g. E21's CPU-count
/// caveat), appended after the shared threads/preset/fanout keys.
fn emit_extra(
    ids: &[&str],
    title: &str,
    rows: &[bench::Row],
    threads: Option<usize>,
    small: bool,
    extra: &[(&str, String)],
) {
    bench::print_table(title, rows);
    let threads_meta = match threads {
        Some(n) => n.to_string(),
        None => "default".to_string(),
    };
    let preset = if small { "small" } else { "full" };
    let fanout = wsm_twothree::default_fanout();
    let primary = ids[0];
    for id in ids {
        let mut meta = vec![
            ("threads", threads_meta.clone()),
            ("preset", preset.to_string()),
            ("fanout", fanout.to_string()),
        ];
        if id != &primary {
            meta.push(("alias_of", primary.to_string()));
        }
        for (k, v) in extra {
            meta.push((*k, v.clone()));
        }
        let file_id = format!("{id}{}", artifact_suffix(small, fanout));
        match bench::json::write_rows(&bench::json::bench_dir(), &file_id, &meta, rows) {
            Ok(path) => println!("[wrote {}]", path.display()),
            Err(err) => eprintln!("warning: could not write BENCH_{file_id}.json: {err}"),
        }
    }
}

/// File-id suffix for the active preset and fanout: `_b{fanout}` for
/// non-default fanouts, then `_small` for the small preset.
fn artifact_suffix(small: bool, fanout: usize) -> String {
    let mut suffix = String::new();
    if fanout != 16 {
        suffix.push_str(&format!("_b{fanout}"));
    }
    if small {
        suffix.push_str("_small");
    }
    suffix
}

/// Every experiment id an artifact is expected for (aliases included).
const ALL_IDS: [&str; 21] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16", "e17", "e18", "e19", "e20", "e21",
];

/// Warns about experiment ids with no committed artifact for the active
/// preset, so a hole in the `BENCH_*.json` trajectory is loud instead of
/// silently absent from the trend data.
fn warn_missing_artifacts(small: bool) {
    let dir = bench::json::bench_dir();
    let suffix = artifact_suffix(small, wsm_twothree::default_fanout());
    let suffix = suffix.as_str();
    let missing: Vec<&str> = ALL_IDS
        .iter()
        .copied()
        .filter(|id| !dir.join(format!("BENCH_{id}{suffix}.json")).exists())
        .collect();
    if !missing.is_empty() {
        eprintln!(
            "warning: no BENCH_<id>{suffix}.json artifact for: {} \
             (run `harness <id>{}` to generate)",
            missing.join(", "),
            if small { " --small" } else { "" },
        );
    }
}

fn main() {
    let parsed = parse_args(std::env::args().skip(1)).unwrap_or_else(|msg| usage_error(&msg));
    let small = parsed.small;
    let threads = parsed.threads;
    let which: Vec<&str> = parsed.which.iter().map(String::as_str).collect();
    let which = if which.is_empty() { vec!["all"] } else { which };
    let sizes = if small {
        Sizes {
            keyspace: 1 << 10,
            operations: 1 << 12,
            sort_n: 1 << 12,
            scale_sort_n: 1 << 13,
            scale_map_ops: 1 << 11,
            scale_reps: 2,
            hot_pages: 1 << 12,
            hot_requests: 1 << 12,
        }
    } else {
        Sizes {
            keyspace: 1 << 14,
            operations: 1 << 16,
            sort_n: 1 << 15,
            scale_sort_n: 1 << 20,
            scale_map_ops: 1 << 14,
            scale_reps: 3,
            hot_pages: 1 << 14,
            hot_requests: 20_000,
        }
    };

    let run = |name: &str| which.contains(&"all") || which.contains(&name);

    if run("e1") || run("e2") {
        let rows = with_budget(threads, || {
            bench::experiment_sequential_ws(sizes.keyspace, sizes.operations)
        });
        emit(
            &["e1", "e2"],
            "E1/E2: sequential working-set structures vs W_L (work ratio)",
            &rows,
            threads,
            small,
        );
    }
    if run("e3") || run("e5") {
        let rows = with_budget(threads, || {
            bench::experiment_parallel_work(sizes.keyspace, sizes.operations / 2, &[2, 4, 8, 16])
        });
        emit(
            &["e3", "e5"],
            "E3/E5: M1 and M2 effective work vs W_L",
            &rows,
            threads,
            small,
        );
    }
    if run("e4") {
        let rows = with_budget(threads, || {
            bench::experiment_m1_span(sizes.keyspace, sizes.operations / 2, &[2, 4, 8, 16, 32])
        });
        emit(
            &["e4"],
            "E4: M1 effective span per batch vs (log p)^2 + log n",
            &rows,
            threads,
            small,
        );
    }
    if run("e6") {
        let rows = with_budget(threads, || bench::experiment_m2_latency(sizes.keyspace, 8));
        emit(
            &["e6"],
            "E6: M2 per-operation pipeline latency by recency",
            &rows,
            threads,
            small,
        );
    }
    if run("e7") {
        let rows = with_budget(threads, || bench::experiment_buffer_cost(&[4, 16, 64]));
        emit(
            &["e7"],
            "E7: parallel buffer flush cost",
            &rows,
            threads,
            small,
        );
    }
    if run("e8") || run("e9") {
        let rows = with_budget(threads, || bench::experiment_sorting(sizes.sort_n));
        emit(
            &["e8", "e9"],
            "E8/E9: ESort and PESort work vs the entropy bound",
            &rows,
            threads,
            small,
        );
    }
    if run("e10") {
        let rows = with_budget(threads, || {
            bench::experiment_static_optimality(sizes.keyspace, sizes.operations / 2)
        });
        emit(
            &["e10"],
            "E10: static optimality (M1 work vs optimal static BST)",
            &rows,
            threads,
            small,
        );
    }
    if run("e11") {
        let rows = with_budget(threads, || {
            bench::experiment_phase_shift(sizes.keyspace, sizes.operations, 8)
        });
        emit(
            &["e11"],
            "E11: dynamic adaptivity — work/op across a working-set phase shift (spike to log n, recover to log w)",
            &rows,
            threads,
            small,
        );
    }
    if run("e12") {
        let rows = with_budget(threads, || {
            bench::experiment_combine_ablation(sizes.keyspace, 1 << 10)
        });
        emit(
            &["e12"],
            "E12: ablation — duplicate combining vs naive per-op execution",
            &rows,
            threads,
            small,
        );
    }
    if run("e13") {
        let rows = with_budget(threads, || bench::experiment_pipelining(sizes.keyspace, 8));
        emit(
            &["e13"],
            "E13: pipelining — M1 vs M2 latency for hot ops behind cold misses",
            &rows,
            threads,
            small,
        );
    }
    if run("e14") {
        let rows = with_budget(threads, || {
            bench::experiment_invariants(sizes.keyspace.min(1 << 12), sizes.operations.min(1 << 14))
        });
        emit(
            &["e14"],
            "E14: runtime invariant checks (Lemma 16 style)",
            &rows,
            threads,
            small,
        );
    }
    if run("e17") {
        let rows = with_budget(threads, || {
            bench::experiment_cost_constants(sizes.keyspace, sizes.operations)
        });
        emit(
            &["e17"],
            "E17: measured vs worst-case analytic constants (W/W_L, W/bound per structure and workload)",
            &rows,
            threads,
            small,
        );
    }
    if run("e18") {
        // E18 reads the thread-local tree-pass counter, so it runs directly
        // on this thread (not through the `with_budget` wrapper).
        let rows = bench::experiment_tree_passes(sizes.keyspace, sizes.operations / 2);
        emit(
            &["e18"],
            "E18: tree passes per op (arena-fused RecencyMap: one key-map pass per segment op)",
            &rows,
            threads,
            small,
        );
    }
    if run("e16") {
        // E16 spawns its own OS threads, so it runs outside the `with_budget`
        // wrapper.
        let t = threads.unwrap_or(4).max(1);
        let rows =
            bench::experiment_hot_paths(sizes.hot_pages, sizes.hot_requests, t, sizes.scale_reps);
        emit(
            &["e16"],
            "E16: hot-path constant factors (ConcurrentMap vs coarse-locked AVL, W/W_L)",
            &rows,
            threads,
            small,
        );
    }
    if run("e19") {
        // E19 spawns its own OS threads, which block in `run_batch`, so it
        // runs outside the `with_budget` wrapper.
        let t = threads.unwrap_or(4).max(1);
        let rows = bench::experiment_sharded(
            sizes.keyspace,
            sizes.operations.min(1 << 14),
            t,
            sizes.scale_reps,
        );
        emit(
            &["e19"],
            "E19: sharded front-end scaling (ShardedMap vs one combiner, shards x threads x skew, per-shard W/W_L)",
            &rows,
            threads,
            small,
        );
    }
    if run("e20") {
        // E20 spawns its own OS threads and owns its WAL temp dirs, so it
        // runs outside the `with_budget` wrapper.
        let t = threads.unwrap_or(4).max(1);
        let rows = bench::experiment_wal_overhead(
            sizes.keyspace,
            sizes.operations.min(1 << 14),
            t,
            sizes.scale_reps,
        );
        emit(
            &["e20"],
            "E20: WAL overhead per batch (sync=off|batch|always vs no-WAL baseline, bytes/batch, reopen/replay)",
            &rows,
            threads,
            small,
        );
    }
    if run("e21") {
        // E21 owns its async executor, so it runs outside the `with_budget`
        // wrapper.
        let t = threads.unwrap_or(2).max(1);
        let (clients, requests, batch, interval_us) = if small {
            (8, 40, 16, 2_000)
        } else {
            (32, 200, 16, 1_000)
        };
        let rows = bench::experiment_service_latency(
            sizes.keyspace.min(1 << 14),
            clients,
            requests,
            batch,
            interval_us,
            t,
        );
        let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        emit_extra(
            &["e21"],
            "E21: async service latency (QPS-paced clients, p50/p99/p999 by sharding)",
            &rows,
            threads,
            small,
            &[
                ("cpus", cpus.to_string()),
                (
                    "caveat",
                    "tail latencies on <= 2 CPUs mostly measure run-queue contention \
                     between client tasks and the combiner, not service quality"
                        .to_string(),
                ),
            ],
        );
    }
    if run("e15") {
        // E15 sets its own fork budget per swept thread count, so it runs
        // outside the `with_budget` wrapper.
        let cap = threads.unwrap_or(8).max(1);
        let mut sweep: Vec<usize> = [1usize, 2, 4, 8]
            .into_iter()
            .filter(|&t| t <= cap)
            .collect();
        if !sweep.contains(&cap) {
            sweep.push(cap);
        }
        let rows = bench::experiment_scaling(
            sizes.scale_sort_n,
            sizes.scale_map_ops,
            &sweep,
            sizes.scale_reps,
        );
        emit(
            &["e15"],
            "E15: wall-clock scaling (pesort by fork budget / concurrent map by callers)",
            &rows,
            threads,
            small,
        );
    }
    warn_missing_artifacts(small);
}

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct ParsedArgs {
    small: bool,
    threads: Option<usize>,
    which: Vec<String>,
}

/// Single-pass argument parser.  Invalid or incomplete flags and unknown
/// experiment ids are errors (the caller aborts with the message) rather
/// than being silently ignored: a typo'd `--threads` must not produce results
/// labeled as if pinning worked, and a typo'd id must not look like a run
/// that printed nothing.
fn parse_args(args: impl Iterator<Item = String>) -> Result<ParsedArgs, String> {
    let mut parsed = ParsedArgs {
        small: false,
        threads: None,
        which: Vec::new(),
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        if arg == "--small" {
            parsed.small = true;
        } else if arg == "--threads" {
            let value = args.next().ok_or("--threads requires a value")?;
            parsed.threads = Some(parse_positive("--threads", &value)?);
        } else if let Some(value) = arg.strip_prefix("--threads=") {
            parsed.threads = Some(parse_positive("--threads", value)?);
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag {arg}"));
        } else if arg == "all" || ALL_IDS.contains(&arg.as_str()) {
            parsed.which.push(arg);
        } else {
            return Err(format!("unknown experiment {arg:?}"));
        }
    }
    Ok(parsed)
}

fn parse_positive(flag: &str, value: &str) -> Result<usize, String> {
    match value.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("{flag} needs a positive integer, got {value:?}")),
    }
}

fn usage_error(msg: &str) -> ! {
    eprintln!("harness: {msg}");
    eprintln!(
        "usage: harness [{}|all] [--small] [--threads N]",
        ALL_IDS.join("|")
    );
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ParsedArgs, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn parse_args_accepts_known_ids_and_flags() {
        let parsed = parse(&["e15", "all", "--small", "--threads", "2"]).unwrap();
        assert_eq!(
            parsed,
            ParsedArgs {
                small: true,
                threads: Some(2),
                which: vec!["e15".to_string(), "all".to_string()],
            }
        );
        assert_eq!(parse(&["--threads=3"]).unwrap().threads, Some(3));
        assert!(parse(&[]).unwrap().which.is_empty());
        for id in ALL_IDS {
            assert!(parse(&[id]).is_ok(), "{id}");
        }
    }

    #[test]
    fn parse_args_rejects_unknown_experiment_ids() {
        for bad in ["e99", "E15", "e", "15", "e 15", ""] {
            let err = parse(&[bad, "--small"]).unwrap_err();
            assert!(err.contains("unknown experiment"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn parse_args_rejects_bad_flags() {
        assert!(parse(&["--smal"]).unwrap_err().contains("unknown flag"));
        assert!(parse(&["--threads"])
            .unwrap_err()
            .contains("requires a value"));
        assert!(parse(&["--threads", "0"]).unwrap_err().contains("positive"));
        assert!(parse(&["--threads=x"]).unwrap_err().contains("positive"));
    }
}
