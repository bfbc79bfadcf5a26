//! `wsbench` — the repo's benchmark of record.  See `README.md` beside
//! `Cargo.toml` for the workloads, the metrics and how to read them.
//!
//! ```text
//! wsbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! wsbench all [--seed <n>] [--seconds <s>] [--runs <k>] [--trace] [--out <dir>]
//! wsbench compare <base.json> <new.json>
//! ```

#![forbid(unsafe_code)]

mod json;
mod ladder;
mod oracle;
mod report;
mod run;
mod spec;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Json;
use report::{Collected, Verdict};
use spec::{Sizing, WORKLOADS};

const USAGE: &str = "usage:
  wsbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
  wsbench all [--seed <n>] [--seconds <s>] [--runs <k>] [--trace] [--out <dir>]
  wsbench compare <base.json> <new.json>";

/// Options shared by the one-workload form and `all`.
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    runs: usize,
    out: PathBuf,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: 1,
        seconds: 24,
        trace: false,
        runs: 1,
        out: PathBuf::from("target/wsbench"),
    };
    let mut args = args.iter().peekable();
    while let Some(flag) = args.next() {
        if flag == "--trace" {
            // `--trace` alone switches tracing on; `--trace 0|1` says which.
            options.trace = match args.peek().map(|s| s.as_str()) {
                Some("0") => {
                    args.next();
                    false
                }
                Some("1") => {
                    args.next();
                    true
                }
                _ => true,
            };
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => options.workload = Some(value.clone()),
            "--seed" => options.seed = number()?,
            "--seconds" => options.seconds = number()?.clamp(1, 60),
            "--runs" => options.runs = number()?.max(1) as usize,
            "--out" => options.out = PathBuf::from(value),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(options)
}

/// The benchmark measures the libraries' defaults.  A `WSM_*` variable would
/// silently change one, so its presence stops the run.
fn refuse_tuning_variables() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(name, _)| name.into_string().ok())
        .filter(|name| name.starts_with("WSM_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with tuning variables set: {}",
            set.join(", ")
        ))
    }
}

fn run_file(out: &Path, workload: &str, trace: bool) -> PathBuf {
    out.join(format!("run-{workload}-trace{}.json", u8::from(trace)))
}

/// Runs one workload in this process; the contract line is the last thing
/// printed.
fn run_one(options: &Options) -> Result<ExitCode, String> {
    let name = options.workload.as_deref().ok_or(USAGE)?;
    let workload = spec::workload(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    refuse_tuning_variables()?;
    std::fs::create_dir_all(&options.out)
        .map_err(|e| format!("cannot create {}: {e}", options.out.display()))?;
    let sizing = Sizing::full(options.seconds);
    println!(
        "wsbench {} seed={} seconds={} trace={}",
        workload.name,
        options.seed,
        options.seconds,
        u8::from(options.trace)
    );
    println!("  why: {}", workload.why);
    let result = if options.trace {
        run::traced_run(workload, &sizing, options.seed, &options.out)
    } else {
        run::timed_run(workload, &sizing, options.seed, &options.out)
    };
    print!("{}", result.metrics.table());
    println!(
        "  checked {} operations, {} failed; {} requests behind the latency percentiles",
        result.tally.attempted, result.tally.failed, result.samples
    );
    let file = run_file(&options.out, workload.name, options.trace);
    std::fs::write(&file, result.to_json().to_string())
        .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
    println!("{}", result.contract_line());
    Ok(ExitCode::SUCCESS)
}

/// Runs every workload, each in a child process of its own so that peak
/// memory is the workload's alone, and collects the runs into one file.
fn run_all(options: &Options) -> Result<ExitCode, String> {
    refuse_tuning_variables()?;
    std::fs::create_dir_all(&options.out)
        .map_err(|e| format!("cannot create {}: {e}", options.out.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut collected = Collected::default();
    let mut failed_operations = 0.0;
    let passes: &[bool] = if options.trace {
        &[false, true]
    } else {
        &[false]
    };
    for run in 0..options.runs {
        for workload in &WORKLOADS {
            for &trace in passes {
                println!("--- run {}/{}", run + 1, options.runs);
                let status = std::process::Command::new(&exe)
                    .args(["--workload", workload.name])
                    .args(["--seed", &options.seed.to_string()])
                    .args(["--seconds", &options.seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .arg("--out")
                    .arg(&options.out)
                    .status()
                    .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
                if !status.success() {
                    return Err(format!(
                        "{} (trace={trace}) ended with {status}",
                        workload.name
                    ));
                }
                let file = run_file(&options.out, workload.name, trace);
                let text = std::fs::read_to_string(&file)
                    .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
                let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
                failed_operations += doc.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
                collected.add(&doc)?;
            }
        }
    }
    let file = options
        .out
        .join(format!("result-seed{}.json", options.seed));
    std::fs::write(&file, collected.to_json().to_string())
        .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
    println!("=== seed {} · {} run(s)", options.seed, options.runs);
    print!("{}", collected.summary());
    println!("result: {}", file.display());
    if failed_operations > 0.0 {
        return Err(format!(
            "{failed_operations} operations returned a wrong result"
        ));
    }
    Ok(ExitCode::SUCCESS)
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [base, new] = args else {
        return Err(USAGE.to_string());
    };
    let read = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = report::compare(&read(base)?, &read(new)?)?;
    print!("{}", report::render_comparison(&rows));
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} compared, {} regression(s), {} unresolved",
        rows.len(),
        count(Verdict::Regression),
        count(Verdict::Unresolved)
    );
    Ok(if count(Verdict::Regression) > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare(&args[1..]),
        Some("all") => parse_options(&args[1..]).and_then(|o| run_all(&o)),
        Some(_) => parse_options(&args).and_then(|o| run_one(&o)),
        None => Err(USAGE.to_string()),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("wsbench: {message}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::{END_TO_END, PER_LAYER};

    /// A directory for a test's output, removed when the test ends.
    fn scratch(label: &str) -> run::ScratchDir {
        run::ScratchDir::create(&std::env::temp_dir(), label)
    }

    /// Every workload, timed and traced, at smoke size: every metric defined
    /// for the pass is there, finite and with a unit, and nothing failed.
    #[test]
    fn every_workload_reports_every_metric_and_no_failures() {
        let out = scratch("smoke");
        let out = out.path();
        let sizing = Sizing::smoke();
        for workload in &WORKLOADS {
            for (traced, defs) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
                let result = if traced {
                    run::traced_run(workload, &sizing, 1, out)
                } else {
                    run::timed_run(workload, &sizing, 1, out)
                };
                let pass = format!("{} traced={traced}", workload.name);
                assert!(result.tally.attempted > 0, "{pass}: nothing was checked");
                assert_eq!(result.tally.failed, 0, "{pass}: wrong results");
                for def in defs {
                    if def.name == "reopen_ms" && workload.name != "durable-write" {
                        assert!(result.metrics.get(def.name).is_none(), "{pass}");
                        continue;
                    }
                    let value = result
                        .metrics
                        .get(def.name)
                        .unwrap_or_else(|| panic!("{pass}: {} is missing", def.name));
                    assert!(value.is_finite(), "{pass}: {} = {value}", def.name);
                    assert!(!def.unit.is_empty(), "{}: no unit", def.name);
                }
                let skipped = usize::from(!traced && workload.name != "durable-write");
                assert_eq!(result.metrics.iter().count(), defs.len() - skipped);
                if !traced {
                    assert_eq!(result.metrics.get("failed_share"), Some(0.0), "{pass}");
                    assert!(result.samples > 0, "{pass}: no latency samples");
                }
                // The contract line parses and carries exactly its four keys.
                let line = Json::parse(&result.contract_line()).unwrap();
                let keys: Vec<&str> = line
                    .as_obj()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            }
            let trace = out.join(format!("trace-{}.json", workload.name));
            let doc = Json::parse(&std::fs::read_to_string(trace).unwrap()).unwrap();
            let passes = doc.get("passes").and_then(Json::as_arr).unwrap();
            assert!(passes.iter().all(|p| !p
                .get("spans")
                .and_then(Json::as_arr)
                .unwrap()
                .is_empty()));
        }
    }

    /// Two ladder passes of one seed count exactly the same work.
    #[test]
    fn ladder_counts_repeat_exactly() {
        let out = scratch("ladder");
        let out = out.path();
        let sizing = Sizing::smoke();
        for workload in &WORKLOADS {
            let stream = spec::Stream::generate(workload, &sizing, 7, 0);
            let counts = || {
                let metrics = match workload.engine {
                    spec::EngineKind::M1 => {
                        ladder::ladder::<wsm_core::M1<u64, u64>>(workload, &sizing, &stream, out)
                    }
                    spec::EngineKind::M2 => {
                        ladder::ladder::<wsm_core::M2<u64, u64>>(workload, &sizing, &stream, out)
                    }
                };
                let counts: Vec<(&str, u64)> = metrics
                    .iter()
                    .filter(|(def, _)| {
                        ["nodes_per_op", "work_per_op", "work_over_wl"]
                            .iter()
                            .any(|suffix| def.name.ends_with(suffix))
                    })
                    .map(|(def, value)| (def.name, value.to_bits()))
                    .collect();
                assert_eq!(counts.len(), 5, "{}", workload.name);
                counts
            };
            assert_eq!(counts(), counts(), "{}", workload.name);
        }
    }

    #[test]
    fn options_parse_both_trace_forms() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse_options(&args("--workload w --seed 3 --seconds 5 --trace 0")).unwrap();
        assert_eq!((o.seed, o.seconds, o.trace), (3, 5, false));
        assert!(parse_options(&args("--trace 1 --seed 2")).unwrap().trace);
        assert!(parse_options(&args("--seed 2 --trace")).unwrap().trace);
        assert!(parse_options(&args("--seed")).is_err());
        assert!(parse_options(&args("--seed x")).is_err());
        assert!(parse_options(&args("--bogus 1")).is_err());
    }
}
