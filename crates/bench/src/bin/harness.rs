//! The experiment harness: regenerates the table of every experiment E1–E15,
//! E17 and E18 and writes it to `BENCH_<id>.json` (`BENCH_<id>_small.json`
//! under `--small`; README, "Commands").
//!
//! Usage:
//! ```text
//! harness [e1|e2|e3|e4|e5|e6|e7|e8|e9|e10|e11|e12|e13|e14|e15|e17|e18|all] [--small] [--threads N]
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
/// reference) write to a `_b{fanout}`-suffixed file, so runs of the same
/// preset at B=2, B=16 and the default B=64 never clobber each other.
fn emit(ids: &[&str], title: &str, rows: &[bench::Row], threads: Option<usize>, small: bool) {
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
        let file_id = format!("{id}{}", artifact_suffix(small, fanout));
        match bench::json::write_rows(&bench::json::bench_dir(), &file_id, &meta, rows) {
            Ok(path) => println!("[wrote {}]", path.display()),
            Err(err) => eprintln!("warning: could not write BENCH_{file_id}.json: {err}"),
        }
    }
}

/// File-id suffix for the active preset and fanout: `_b{fanout}` for
/// fanouts other than [`wsm_twothree::DEFAULT_FANOUT`], then `_small` for
/// the small preset.
fn artifact_suffix(small: bool, fanout: usize) -> String {
    let mut suffix = String::new();
    if fanout != wsm_twothree::DEFAULT_FANOUT {
        suffix.push_str(&format!("_b{fanout}"));
    }
    if small {
        suffix.push_str("_small");
    }
    suffix
}

/// Every experiment id an artifact is expected for (aliases included).
const ALL_IDS: [&str; 17] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e17", "e18",
];

/// Warns about experiment ids with no committed artifact for the active
/// preset, or whose artifact's meta records another fanout than its file
/// name implies, so a hole or a stale file in the `BENCH_*.json` trajectory
/// is loud instead of silently passing as current trend data.
fn warn_missing_artifacts(small: bool) {
    let fanout = wsm_twothree::default_fanout();
    let suffix = artifact_suffix(small, fanout);
    let (missing, stale) = artifact_gaps(&bench::json::bench_dir(), small, fanout);
    let rerun = if small { " --small" } else { "" };
    if !missing.is_empty() {
        eprintln!(
            "warning: no BENCH_<id>{suffix}.json artifact for: {} \
             (run `harness <id>{rerun}` to generate)",
            missing.join(", "),
        );
    }
    if !stale.is_empty() {
        eprintln!(
            "warning: BENCH_<id>{suffix}.json records a fanout other than {fanout} for: {} \
             (run `harness <id>{rerun}` to regenerate)",
            stale.join(", "),
        );
    }
}

/// The ids in [`ALL_IDS`] with no artifact in `dir` for the preset and
/// fanout, then the ids whose artifact's meta records a different fanout.
/// An artifact whose meta records no fanout is not counted as stale.
fn artifact_gaps(
    dir: &std::path::Path,
    small: bool,
    fanout: usize,
) -> (Vec<&'static str>, Vec<&'static str>) {
    let suffix = artifact_suffix(small, fanout);
    let mut missing = Vec::new();
    let mut stale = Vec::new();
    for id in ALL_IDS {
        match std::fs::read_to_string(dir.join(format!("BENCH_{id}{suffix}.json"))) {
            Err(_) => missing.push(id),
            Ok(text) if meta_fanout(&text).is_some_and(|b| b != fanout) => stale.push(id),
            Ok(_) => {}
        }
    }
    (missing, stale)
}

/// The fanout an artifact's meta records (`"fanout": "<B>"`), if any.
fn meta_fanout(artifact: &str) -> Option<usize> {
    const KEY: &str = "\"fanout\": \"";
    let rest = &artifact[artifact.find(KEY)? + KEY.len()..];
    rest[..rest.find('"')?].parse().ok()
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
        }
    } else {
        Sizes {
            keyspace: 1 << 14,
            operations: 1 << 16,
            sort_n: 1 << 15,
            scale_sort_n: 1 << 20,
            scale_map_ops: 1 << 14,
            scale_reps: 3,
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
    fn only_non_default_fanouts_suffix_the_artifact() {
        let default = wsm_twothree::DEFAULT_FANOUT;
        assert_eq!(artifact_suffix(true, default), "_small");
        assert_eq!(artifact_suffix(false, default), "");
        assert_eq!(artifact_suffix(true, 2), "_b2_small");
        assert_eq!(artifact_suffix(false, 16), "_b16");
    }

    #[test]
    fn unsuffixed_artifacts_from_another_fanout_are_stale() {
        let dir = std::env::temp_dir().join(format!("wsm-harness-gaps-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let default = wsm_twothree::DEFAULT_FANOUT;
        let write = |id: &str, fanout: Option<usize>| {
            let meta: Vec<(&str, String)> = fanout
                .map(|b| ("fanout", b.to_string()))
                .into_iter()
                .collect();
            bench::json::write_rows(&dir, &format!("{id}_small"), &meta, &[]).unwrap();
        };
        write("e15", Some(16));
        write("e17", Some(default));
        write("e1", None);
        let (missing, stale) = artifact_gaps(&dir, true, default);
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(stale, ["e15"]);
        assert_eq!(missing.len(), ALL_IDS.len() - 3);
        assert!(!missing.contains(&"e1") && !missing.contains(&"e17"));
        assert_eq!(meta_fanout(r#"{"meta": {"fanout": "16"}}"#), Some(16));
        assert_eq!(meta_fanout(r#"{"meta": {"preset": "small"}}"#), None);
    }

    #[test]
    fn parse_args_rejects_unknown_experiment_ids() {
        for bad in [
            "e99", "E15", "e", "15", "e 15", "", "e16", "e19", "e20", "e21",
        ] {
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
