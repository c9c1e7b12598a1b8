//! Sim-scale benchmark of the codelayout pipeline.
//!
//! One process runs one workload on `Scenario::paper_sim()` with the
//! workload seed given on the command line:
//!
//! * `evaluate` — the paper reproduction: a fresh `Harness`, then
//!   `figures::fig03`..`fig14` and `claims`;
//! * `tune` — `run_tune` with the default budget;
//! * `serve` — `run_serve` with `ServeConfig::drift_demo` on a study
//!   built from its `serve_scenario`.
//!
//! Untraced (`--trace 0`), the workload repeats on a fresh study until
//! `--seconds` have elapsed and the end-to-end metrics are reported as
//! medians. Traced (`--trace 1`), the workload runs once for reference and
//! the same work is then sent again through the crates' public calls,
//! each call timed from outside (see `traced.rs`). Either way, the output
//! checks run and count into `attempted`/`failed`; the last stdout line is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! Run through `perfbench/run.py`, which builds this package and fixes
//! the environment (sweep worker count, no other `CODELAYOUT_*` knob).

mod common;
mod traced;
mod work;

use common::{Checks, Metrics};
use std::time::Instant;

/// Command-line arguments.
struct Args {
    workload: work::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(work::Workload::parse(&value()?)?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? != "0",
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or_else(|| codelayout_oltp::Scenario::paper_sim().seed),
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload evaluate|tune|serve --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let start = Instant::now();
    let mut checks = Checks::new();
    let mut metrics = Metrics::default();

    // A panic anywhere in the program under test (a failed internal
    // assert, a TPC-B violation, a diverged sweep engine) is a failed run,
    // reported as such rather than as a crash of the benchmark.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if args.trace {
            traced::run(args.workload, args.seed, &mut checks, &mut metrics);
        } else {
            work::run(
                args.workload,
                args.seed,
                args.seconds,
                &mut checks,
                &mut metrics,
            );
        }
    }));
    if outcome.is_err() {
        checks.check("no_panic", false, "the program under test panicked");
    }
    checks.print_summary();
    eprintln!(
        "perfbench: {} seed {} finished in {:.1}s",
        args.workload.name(),
        args.seed,
        start.elapsed().as_secs_f64()
    );
    println!("{}", checks.result_json(&metrics, args.trace));
}
