//! `wsm-check` CLI: runs the bundled self-checks and seeded-bug fixtures.
//!
//! The full protocol harnesses (the real doorbell + parallel buffer and
//! result cell code) live in `crates/check/tests/` because they need the
//! production crates as dev-dependencies, which a binary target cannot
//! see; run them with `cargo test -p wsm-check`.
//! This binary proves the engine itself: sanity schedules, deadlock
//! detection, TSO refutation, and the three intentionally buggy fixtures
//! with their replayable traces.
//!
//! Usage:
//!   wsm-check [selfcheck|fixtures|all] [--bound N] [--tso] [--max-schedules N]

#![forbid(unsafe_code)]

use wsm_check::fixtures;
use wsm_sync::Model;

struct Args {
    mode: String,
    bound: u32,
    max_schedules: Option<u64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        mode: "all".to_string(),
        bound: 2,
        max_schedules: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "selfcheck" | "fixtures" | "all" => args.mode = a,
            "--bound" => {
                args.bound = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--bound needs an integer"));
            }
            "--max-schedules" => {
                args.max_schedules = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--max-schedules needs an integer")),
                );
            }
            "--help" | "-h" => {
                usage("");
            }
            other => usage(&format!("unknown argument: {other}")),
        }
    }
    args
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: wsm-check [selfcheck|fixtures|all] [--bound N] [--max-schedules N]\n\
         \n\
         selfcheck  engine sanity: schedule counts, deadlock + TSO detection\n\
         fixtures   seeded protocol bugs must be found with replayable traces\n\
         all        both (default)\n\
         \n\
         protocol harnesses on the real production code run via:\n\
         cargo test -p wsm-check"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

fn main() {
    let args = parse_args();
    let mut failed = false;
    if args.mode == "selfcheck" || args.mode == "all" {
        failed |= !selfcheck(&args);
    }
    if args.mode == "fixtures" || args.mode == "all" {
        failed |= !fixtures_check(&args);
    }
    if failed {
        std::process::exit(1);
    }
    println!("wsm-check: all checks passed");
}

fn model(args: &Args) -> Model {
    let mut m = Model::with_bound(args.bound);
    if let Some(cap) = args.max_schedules {
        m.max_schedules = Some(cap);
    }
    m
}

fn selfcheck(args: &Args) -> bool {
    let mut ok = true;

    // Two independent increment threads: exhaustive exploration must agree
    // on the final count in every schedule.
    let r = model(args).check(|| {
        let c = std::sync::Arc::new(wsm_sync::AtomicUsize::new(0));
        let t = {
            let c = std::sync::Arc::clone(&c);
            wsm_sync::thread::spawn(move || {
                c.fetch_add(1, wsm_sync::Ordering::SeqCst);
            })
        };
        c.fetch_add(1, wsm_sync::Ordering::SeqCst);
        t.join().unwrap();
        assert_eq!(c.load(wsm_sync::Ordering::SeqCst), 2);
    });
    ok &= report("selfcheck: atomic increments", &r, false);

    // Classic lock-order-inversion deadlock must be detected.
    let r = Model::with_bound(2).check(|| {
        use wsm_sync::Mutex;
        let a = std::sync::Arc::new(Mutex::new(0u32));
        let b = std::sync::Arc::new(Mutex::new(0u32));
        let t = {
            let (a, b) = (std::sync::Arc::clone(&a), std::sync::Arc::clone(&b));
            wsm_sync::thread::spawn(move || {
                let _ga = a.lock();
                let _gb = b.lock();
            })
        };
        {
            let _gb = b.lock();
            let _ga = a.lock();
        }
        t.join().unwrap();
    });
    ok &= report("selfcheck: deadlock detection", &r, true);

    // TSO mode must refute the under-ordered Dekker handshake and accept
    // the SeqCst one.
    let r = Model::tso_with_bound(args.bound.max(2)).check(fixtures::relaxed_dekker_harness);
    ok &= report("selfcheck: TSO refutes Release-store Dekker", &r, true);
    let r = Model::tso_with_bound(args.bound.max(2)).check(fixtures::seqcst_dekker_harness);
    ok &= report("selfcheck: TSO accepts SeqCst Dekker", &r, false);

    ok
}

fn fixtures_check(args: &Args) -> bool {
    let mut ok = true;

    let r = model(args).check(fixtures::buggy_doorbell_harness);
    ok &= report("fixture: missed-wakeup doorbell (PR 2 bug)", &r, true);

    let r = model(args).check(fixtures::ungated_count_doorbell_harness);
    ok &= report(
        "fixture: doorbell reading its sleeper count outside the gate",
        &r,
        true,
    );

    let r = model(args).check(fixtures::racy_claim_harness);
    ok &= report("fixture: racy MPSC slot claim", &r, true);

    let r = Model::tso_with_bound(args.bound.max(2)).check(fixtures::relaxed_dekker_harness);
    ok &= report("fixture: under-ordered Dekker handshake (TSO)", &r, true);

    ok
}

fn report(name: &str, r: &wsm_sync::Report, expect_failure: bool) -> bool {
    match (&r.failure, expect_failure) {
        (Some(f), true) => {
            println!(
                "PASS {name}: failing schedule found after {} schedules",
                r.schedules
            );
            println!("{}", indent(&f.render()));
            true
        }
        (None, false) => {
            println!(
                "PASS {name}: {} schedules, {} pruned, no failure",
                r.schedules, r.pruned
            );
            true
        }
        (Some(f), false) => {
            println!("FAIL {name}: unexpected failing schedule");
            println!("{}", indent(&f.render()));
            false
        }
        (None, true) => {
            println!(
                "FAIL {name}: expected a failing schedule, {} schedules all passed",
                r.schedules
            );
            false
        }
    }
}

fn indent(s: &str) -> String {
    s.lines()
        .map(|l| format!("    {l}"))
        .collect::<Vec<_>>()
        .join("\n")
}
