//! `bench_smoke`: the CI engine benchmarks. Three parts, all on the
//! quick scenario:
//!
//! 1. **Grid-replay engines** (`BENCH_pr5.json`): records each
//!    fully-instrumented layout's fetch stream once, replays it through
//!    the full sweep-job set on both engines — the single-pass
//!    stack-distance profiler and the direct per-configuration
//!    simulator — asserts bit-identical cells, and reports best-of-N
//!    replay throughput per engine.
//! 2. **VM execution tiers** (`BENCH_pr6.json`): executes the measured
//!    workload on both tiers — the block-compiled engine and the
//!    interpreter oracle — asserts bit-identical instruction traces and
//!    outcomes, reports best-of-N execution throughput per tier, and
//!    **exits nonzero if the block engine's execution speedup falls
//!    below [`MIN_VM_SPEEDUP`]** (the regression floor).
//! 3. **Layout autotuner** (`BENCH_pr10.json`): a small fixed-budget
//!    parameter search ([`codelayout_tune::run_tune`]), recording the
//!    tuned-vs-fixed per-cache-size window miss deltas, the winning
//!    series and parameters, and search throughput.

use codelayout_core::OptimizationSet;
use codelayout_memsim::{ParallelSweep, StreamFilter, SweepEngine, SweepSpec, LINES_B, SIZES_KB};
use codelayout_oltp::{build_study, Scenario, Study};
use codelayout_vm::{NullSink, TraceBuffer, VmEngine};
use std::time::Instant;

/// Interleaved best-of-N rounds per engine; cancels warm-up noise.
const ROUNDS: usize = 3;

/// Extra rounds for the VM tiers: their measured phase is sub-millisecond
/// on the quick scenario, so best-of-few is too noisy to gate on.
const VM_ROUNDS: usize = 40;

/// CI gate: minimum acceptable block-engine speedup over the interpreter
/// on the quick scenario's measured run (pure execution, null sink).
///
/// This is a regression floor, not the design target. The block tier was
/// sized against an interpreter an order of magnitude slower than the
/// one this repo actually ships: the oracle already pre-resolves
/// operands and runs at ~140 M inst/s, so on the OLTP mix — where both
/// tiers are bound by the simulated image's working set, not dispatch —
/// the compiled tier delivers ~1.1-1.25x end to end (~2x on straight-line
/// code; see `cargo run --release -p codelayout-vm --example
/// engine_bench`). The floor guards the win we actually have: a change
/// that makes the block tier no faster than the oracle fails CI.
const MIN_VM_SPEEDUP: f64 = 1.05;

fn main() {
    let threads = codelayout_bench::run_env().sweep_threads();
    let sc = Scenario::quick();
    let study = build_study(&sc);
    let num_cpus = sc.num_cpus;

    // The same job set `Harness::measure` replays for a
    // fully-instrumented layout: user size sweep, direct-mapped grid,
    // combined and kernel size sweeps.
    let sizes_4w = |filter: StreamFilter| {
        SweepSpec::grid()
            .sizes_kb(&SIZES_KB)
            .line_b(128)
            .ways(4)
            .cpus(num_cpus)
            .filter(filter)
    };
    let jobs = vec![
        sizes_4w(StreamFilter::UserOnly),
        SweepSpec::grid()
            .sizes_kb(&SIZES_KB)
            .lines_b(&LINES_B)
            .ways(1)
            .cpus(num_cpus)
            .filter(StreamFilter::UserOnly),
        sizes_4w(StreamFilter::All),
        sizes_4w(StreamFilter::KernelOnly),
    ];
    let shards: usize = jobs.iter().map(SweepSpec::shard_count).sum();

    let stack = ParallelSweep::new(threads).with_engine(SweepEngine::Stack);
    let direct = ParallelSweep::new(threads).with_engine(SweepEngine::Direct);

    let mut layouts = serde_json::Map::new();
    let mut min_speedup = f64::INFINITY;
    for (name, set) in [
        ("base", OptimizationSet::BASE),
        ("all", OptimizationSet::ALL),
    ] {
        let image = study.image(set);
        let mut buf = TraceBuffer::fetch_only();
        study
            .run_measured(&image, &study.base_kernel_image, &mut buf)
            .assert_correct();
        let trace = buf.freeze();
        let events = trace.len() as u64;

        // Equivalence first: the stack engine must be bit-identical to
        // the direct oracle on the full job set.
        let want = direct.run(&trace, &jobs);
        let got = stack.run(&trace, &jobs);
        assert_eq!(
            got, want,
            "stack-distance sweep diverged from the direct engine on layout {name}"
        );

        let mut stack_best = f64::INFINITY;
        let mut direct_best = f64::INFINITY;
        for _ in 0..ROUNDS {
            let t = Instant::now();
            let r = stack.run(&trace, &jobs);
            stack_best = stack_best.min(t.elapsed().as_secs_f64());
            assert_eq!(r, want);

            let t = Instant::now();
            let r = direct.run(&trace, &jobs);
            direct_best = direct_best.min(t.elapsed().as_secs_f64());
            assert_eq!(r, want);
        }

        let speedup = direct_best / stack_best.max(1e-12);
        min_speedup = min_speedup.min(speedup);
        eprintln!(
            "[bench_smoke] {name}: {events} events x {shards} direct shards on {threads} threads: \
             stack {:.4}s ({:.1} M evt/s) vs direct {:.4}s ({:.1} M evt/s) — {speedup:.2}x",
            stack_best,
            events as f64 / stack_best / 1e6,
            direct_best,
            events as f64 / direct_best / 1e6,
        );
        layouts.insert(
            name.to_string(),
            serde_json::json!({
                "events": events,
                "stack_secs": stack_best,
                "direct_secs": direct_best,
                "stack_minsts_per_sec": events as f64 / stack_best / 1e6,
                "direct_minsts_per_sec": events as f64 / direct_best / 1e6,
                "speedup": speedup,
            }),
        );
    }

    let out = serde_json::json!({
        "benchmark": "sweep_engine_smoke",
        "scenario": "quick",
        "threads": threads as u64,
        "rounds": ROUNDS as u64,
        "direct_shards": shards as u64,
        "equivalent": true,
        "min_speedup": min_speedup,
        "layouts": layouts,
    });
    let mut text = serde_json::to_string_pretty(&out).expect("serialize benchmark");
    text.push('\n');
    std::fs::write("BENCH_pr5.json", text).expect("write BENCH_pr5.json");
    eprintln!("[bench_smoke] wrote BENCH_pr5.json (min speedup {min_speedup:.2}x)");

    vm_engine_bench(&study);
    tune_bench(&study);
}

/// Part 2: the VM execution-tier benchmark (`BENCH_pr6.json`).
fn vm_engine_bench(study: &Study) {
    let mut layouts = serde_json::Map::new();
    let mut min_speedup = f64::INFINITY;
    for (name, set) in [
        ("base", OptimizationSet::BASE),
        ("all", OptimizationSet::ALL),
    ] {
        let image = study.image(set);

        // Equivalence first: both tiers must produce bit-identical
        // instruction traces and run outcomes.
        let mut interp_buf = TraceBuffer::fetch_only();
        let interp_out = study.run_measured_with(
            &image,
            &study.base_kernel_image,
            &mut interp_buf,
            VmEngine::Interp,
        );
        interp_out.assert_correct();
        let mut block_buf = TraceBuffer::fetch_only();
        let block_out = study.run_measured_with(
            &image,
            &study.base_kernel_image,
            &mut block_buf,
            VmEngine::Block,
        );
        block_out.assert_correct();
        let interp_trace = interp_buf.freeze();
        let block_trace = block_buf.freeze();
        assert_eq!(
            interp_trace, block_trace,
            "block engine trace diverged from the interpreter on layout {name}"
        );
        assert_eq!(interp_out.report, block_out.report, "reports diverged");
        assert_eq!(
            interp_out.per_process_txns, block_out.per_process_txns,
            "transaction counts diverged"
        );
        let instructions = block_out.report.instructions;
        let events = interp_trace.len();

        // Throughput: best-of-N measured-phase wall time per tier, in
        // two configurations — a null sink (pure execution) and a
        // pre-sized fetch-only trace recording (what `Harness::measure`
        // actually runs).
        let mut interp_best = f64::INFINITY;
        let mut block_best = f64::INFINITY;
        let mut interp_rec_best = f64::INFINITY;
        let mut block_rec_best = f64::INFINITY;
        for _ in 0..VM_ROUNDS {
            for (engine, exec, rec) in [
                (VmEngine::Interp, &mut interp_best, &mut interp_rec_best),
                (VmEngine::Block, &mut block_best, &mut block_rec_best),
            ] {
                let out = study.run_measured_with(
                    &image,
                    &study.base_kernel_image,
                    &mut NullSink,
                    engine,
                );
                *exec = exec.min(out.run_wall.as_secs_f64());
                let mut buf = TraceBuffer::fetch_only();
                buf.reserve(events);
                let out =
                    study.run_measured_with(&image, &study.base_kernel_image, &mut buf, engine);
                *rec = rec.min(out.run_wall.as_secs_f64());
            }
        }
        let speedup = interp_best / block_best.max(1e-12);
        let rec_speedup = interp_rec_best / block_rec_best.max(1e-12);
        min_speedup = min_speedup.min(speedup);
        let cache = study
            .new_machine_with(&image, &study.base_kernel_image, 0, VmEngine::Block)
            .0
            .code_cache_stats()
            .unwrap_or((0, 0));
        eprintln!(
            "[bench_smoke] vm {name}: {instructions} instrs, {} runs ({} KiB cache): \
             exec block {:.1} vs interp {:.1} M inst/s ({speedup:.2}x); \
             record block {:.1} vs interp {:.1} M inst/s ({rec_speedup:.2}x)",
            cache.0,
            cache.1 / 1024,
            instructions as f64 / block_best / 1e6,
            instructions as f64 / interp_best / 1e6,
            instructions as f64 / block_rec_best / 1e6,
            instructions as f64 / interp_rec_best / 1e6,
        );
        layouts.insert(
            name.to_string(),
            serde_json::json!({
                "instructions": instructions,
                "trace_events": events as u64,
                "interp_secs": interp_best,
                "block_secs": block_best,
                "interp_minsts_per_sec": instructions as f64 / interp_best / 1e6,
                "block_minsts_per_sec": instructions as f64 / block_best / 1e6,
                "interp_record_minsts_per_sec": instructions as f64 / interp_rec_best / 1e6,
                "block_record_minsts_per_sec": instructions as f64 / block_rec_best / 1e6,
                "compiled_runs": cache.0 as u64,
                "cache_bytes": cache.1 as u64,
                "speedup": speedup,
                "record_speedup": rec_speedup,
            }),
        );
    }

    let out = serde_json::json!({
        "benchmark": "vm_engine_smoke",
        "scenario": "quick",
        "rounds": VM_ROUNDS as u64,
        "equivalent": true,
        "min_speedup": min_speedup,
        "min_speedup_gate": MIN_VM_SPEEDUP,
        "layouts": layouts,
    });
    let mut text = serde_json::to_string_pretty(&out).expect("serialize benchmark");
    text.push('\n');
    std::fs::write("BENCH_pr6.json", text).expect("write BENCH_pr6.json");
    eprintln!("[bench_smoke] wrote BENCH_pr6.json (min speedup {min_speedup:.2}x)");
    assert!(
        min_speedup >= MIN_VM_SPEEDUP,
        "block engine speedup {min_speedup:.2}x is below the {MIN_VM_SPEEDUP}x CI gate"
    );
}

/// Candidate budget per family for the benchmark search: big enough to
/// exercise descent and restarts, small enough to keep CI fast.
const TUNE_CANDIDATES: u64 = 16;

/// Part 3: the layout-autotuner benchmark (`BENCH_pr10.json`).
fn tune_bench(study: &Study) {
    use codelayout_core::ParamSpace;
    use codelayout_tune::{params_json, run_tune, TuneConfig, TUNE_SIZES_KB};

    let mut cfg = TuneConfig::for_scenario(&study.scenario);
    cfg.candidates = TUNE_CANDIDATES;
    let t = Instant::now();
    let report = run_tune(study, &cfg);
    let secs = t.elapsed().as_secs_f64();
    let evaluated = report.trajectory.len() as u64;

    let mut families = serde_json::Map::new();
    for f in &report.families {
        let fixed = report
            .fixed
            .iter()
            .find(|fx| fx.series.label() == f.series.label())
            .expect("every tuned family has a fixed counterpart in the comparison set");
        // Positive delta = misses the tuned point saves over the fixed
        // default at that cache size.
        let delta: Vec<i64> = f
            .best_cells
            .iter()
            .zip(&fixed.cells)
            .map(|(t, fx)| *fx as i64 - *t as i64)
            .collect();
        let space = ParamSpace::for_series(f.series);
        families.insert(
            f.series.label().to_string(),
            serde_json::json!({
                "default_score": f.default_score,
                "best_score": f.best_score,
                "evaluated": f.evaluated,
                "fixed_cells": &fixed.cells,
                "tuned_cells": &f.best_cells,
                "delta_misses": &delta,
                "params": params_json(&space, &f.best_params),
            }),
        );
    }
    let winner = report.winner().expect("tune produced at least one family");

    eprintln!(
        "[bench_smoke] tune: {evaluated} candidates over {} families in {secs:.3}s \
         ({:.0} cand/s, window {} events): winner {} ({} vs base {})",
        report.families.len(),
        evaluated as f64 / secs.max(1e-12),
        report.window_events,
        winner.series.label(),
        winner.best_score,
        report.base_score,
    );
    let out = serde_json::json!({
        "benchmark": "tune_smoke",
        "scenario": "quick",
        "sizes_kb": &TUNE_SIZES_KB[..],
        "candidates_per_family": TUNE_CANDIDATES,
        "window_events": report.window_events,
        "evaluated": evaluated,
        "secs": secs,
        "candidates_per_sec": evaluated as f64 / secs.max(1e-12),
        "base_score": report.base_score,
        "winner": winner.series.label(),
        "winner_score": winner.best_score,
        "families": families,
    });
    let mut text = serde_json::to_string_pretty(&out).expect("serialize benchmark");
    text.push('\n');
    std::fs::write("BENCH_pr10.json", text).expect("write BENCH_pr10.json");
    eprintln!(
        "[bench_smoke] wrote BENCH_pr10.json (winner {})",
        winner.series.label()
    );
}
