//! The three workloads, untraced: repeated on a fresh study until the
//! run's time is up, then checked.

use crate::common::{self, median, timed, Checks, Metrics};
use codelayout_bench::{figures, Harness};
use codelayout_oltp::{build_study, Scenario, Study};
use codelayout_serve::{run_serve, ServeConfig, ServeReport};
use codelayout_tune::{run_tune, TuneConfig, TuneReport};
use serde_json::Value;
use std::time::Instant;

/// Fewest setups a run times, so `setup_s` is a median even when the
/// workload itself fits only once in the run.
const MIN_SETUPS: usize = 11;

/// A benchmark workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Evaluate,
    Tune,
    Serve,
}

impl Workload {
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "evaluate" => Ok(Workload::Evaluate),
            "tune" => Ok(Workload::Tune),
            "serve" => Ok(Workload::Serve),
            other => Err(format!("unknown workload `{other}` (evaluate|tune|serve)")),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Evaluate => "evaluate",
            Workload::Tune => "tune",
            Workload::Serve => "serve",
        }
    }
}

/// The paper's simulated system with the workload seed.
pub fn sim_scenario(seed: u64) -> Scenario {
    Scenario {
        seed,
        ..Scenario::paper_sim()
    }
}

/// True for the scenario's own seed, the one the committed results
/// were generated with.
pub fn is_default_seed(seed: u64) -> bool {
    seed == Scenario::paper_sim().seed
}

/// The scenario a workload's study is built from.
pub fn workload_scenario(w: Workload, seed: u64) -> Scenario {
    let sim = sim_scenario(seed);
    match w {
        Workload::Serve => ServeConfig::from_env(&sim).serve_scenario(&sim),
        _ => sim,
    }
}

/// A figure of the paper reproduction.
type Figure = (&'static str, fn(&mut Harness) -> Value);

/// Figures of the `evaluate` workload, in the order `run_all` runs them.
pub const FIGURES: [Figure; 13] = [
    ("fig03", figures::fig03),
    ("fig04", figures::fig04),
    ("fig05", figures::fig05),
    ("fig06", figures::fig06),
    ("fig07", figures::fig07),
    ("fig08", figures::fig08),
    ("fig09", figures::fig09),
    ("fig10", figures::fig10),
    ("fig11", figures::fig11),
    ("fig12", figures::fig12),
    ("fig13", figures::fig13),
    ("fig14", figures::fig14),
    ("claims", figures::claims),
];

/// What one run of a workload produced.
pub enum Output {
    Evaluate(Box<Harness>, Vec<(&'static str, Value)>),
    Tune(Box<Study>, TuneReport),
    Serve(Box<Study>, ServeConfig, ServeReport),
}

/// Builds the workload's study (the timed set-up).
pub fn setup(w: Workload, seed: u64) -> Study {
    build_study(&workload_scenario(w, seed))
}

/// Runs the workload once on a fresh study: returns (setup seconds,
/// workload seconds, output).
pub fn run_once(w: Workload, seed: u64) -> (f64, f64, Output) {
    match w {
        Workload::Evaluate => {
            let sc = sim_scenario(seed);
            let (setup_s, mut h) = timed(|| Harness::with_label(&sc, "sim"));
            let (wall_s, figs) = timed(|| {
                FIGURES
                    .iter()
                    .map(|&(name, f)| (name, f(&mut h)))
                    .collect::<Vec<_>>()
            });
            (setup_s, wall_s, Output::Evaluate(Box::new(h), figs))
        }
        Workload::Tune => {
            let (setup_s, study) = timed(|| setup(w, seed));
            let cfg = TuneConfig::from_env(&study.scenario);
            let (wall_s, report) = timed(|| run_tune(&study, &cfg));
            (setup_s, wall_s, Output::Tune(Box::new(study), report))
        }
        Workload::Serve => {
            let (setup_s, study) = timed(|| setup(w, seed));
            let cfg = ServeConfig::from_env(&sim_scenario(seed));
            let (wall_s, report) = timed(|| run_serve(&study, &cfg));
            (setup_s, wall_s, Output::Serve(Box::new(study), cfg, report))
        }
    }
}

/// The untraced pass: repeat until `seconds` are used, report medians,
/// then check the last run's outputs.
pub fn run(w: Workload, seed: u64, seconds: f64, checks: &mut Checks, metrics: &mut Metrics) {
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut last = None;
    // Start another repetition only if it is expected to end in time.
    while last.is_none()
        || start.elapsed().as_secs_f64() * (1.0 + 1.0 / walls.len() as f64) <= seconds
    {
        let (s, t, out) = run_once(w, seed);
        eprintln!("{}: setup {s:.3}s, workload {t:.3}s", w.name());
        setups.push(s);
        walls.push(t);
        if last.is_none() {
            // Peak memory of one set-up and one run of the workload; later
            // repetitions and the checks below would only add allocator
            // noise.
            metrics.set("peak_rss_mib", common::peak_rss_mib(), "MiB");
        }
        last = Some(out);
    }
    while setups.len() < MIN_SETUPS {
        setups.push(timed(|| setup(w, seed)).0);
    }
    metrics.set("setup_s", median(&setups), "s");
    metrics.set("wall_s", median(&walls), "s");
    eprintln!(
        "{}: {} runs, setup median {:.3}s of {}, workload median {:.3}s",
        w.name(),
        walls.len(),
        median(&setups),
        setups.len(),
        median(&walls)
    );
    check_output(last.expect("at least one run"), seed, checks, metrics);
}

/// Output checks and simulated metrics of one workload run. Counts the
/// workload's operations into `checks`.
pub fn check_output(out: Output, seed: u64, checks: &mut Checks, metrics: &mut Metrics) {
    let default_seed = is_default_seed(seed);
    match out {
        Output::Evaluate(mut h, figs) => {
            // Operations: the six paper layouts' measured runs.
            let mut quality = common::Quality::default();
            for label in figures::LAYOUTS {
                let d = h.run(label);
                let ok = checks.run_ok(label, &d.outcome);
                checks.op(ok);
                let misses = d
                    .sizes_4w_user
                    .iter()
                    .find(|c| c.config.size_bytes == 64 * 1024 && c.config.line_bytes == 128)
                    .map(|c| c.stats.misses)
                    .expect("64KB cell in the size sweep");
                let cycles = codelayout_timing::TimingModel::alpha_21264()
                    .evaluate(d.user_fetches + d.kernel_fetches, &d.hier_21264)
                    .total();
                match label {
                    "base" => (quality.base_misses, quality.base_cycles) = (misses, cycles),
                    "all" => (quality.all_misses, quality.all_cycles) = (misses, cycles),
                    _ => {}
                }
            }
            checks.check(
                "sweep_engines_agree",
                h.sweep_timing().is_some(),
                "harness replayed base on both engines and asserted equality",
            );
            common::pooled_quality(checks, metrics, seed, Some(quality));
            if default_seed {
                for (name, v) in &figs {
                    checks.committed(&format!("{name}.json"), None, v);
                }
            }
        }
        Output::Tune(study, report) => {
            for c in &report.trajectory {
                checks.op(c.validated);
            }
            checks.check(
                "tune_accepted_validated",
                report.trajectory.iter().all(|c| c.validated || !c.accepted),
                &format!("{} candidates", report.trajectory.len()),
            );
            if default_seed {
                checks.committed("fig_tune.json", Some("tune"), &report.deterministic_json());
            }
            metrics.set(
                "tuned_misses_64k",
                tuned_misses_64k(checks, &study, &report) as f64,
                "count",
            );
            let quality = common::Quality::measure(checks, &study);
            common::pooled_quality(checks, metrics, seed, Some(quality));
        }
        Output::Serve(_study, _cfg, report) => {
            for e in report.epochs.iter().filter(|e| e.relayout) {
                checks.op(e.validated);
            }
            checks.check(
                "serve_swaps_validated",
                report.all_swaps_validated(),
                &format!("{} re-layouts, {} swaps", report.relayouts, report.swaps),
            );
            if report.relayouts == 0 {
                // No re-layout requested: the run still attempted one
                // serving loop.
                checks.op(true);
            }
            if default_seed {
                checks.committed("fig_serve.json", None, &report.deterministic_json());
            }
            metrics.set(
                "recovery_milli",
                report.recovery.recovery_milli as f64,
                "milli",
            );
            // The quality figures are those of the sim studies, as in the
            // other workloads.
            common::pooled_quality(checks, metrics, seed, None);
        }
    }
}

/// Full-run misses at 64 KB/128 B/4-way for the winning family's best
/// parameters (the tuner itself scores only its window).
fn tuned_misses_64k(checks: &mut Checks, study: &Study, report: &TuneReport) -> u64 {
    let Some(winner) = report.winner() else {
        checks.check("tune_winner", false, "no family produced a result");
        return 0;
    };
    let layout = study.layout_series_params(winner.series, &winner.best_params);
    let image =
        codelayout_ir::link::link(&study.app.program, &layout, codelayout_vm::APP_TEXT_BASE)
            .expect("tuned layout links");
    let valid =
        codelayout_analysis::validate_translation(&study.app.program, &layout, &image).is_ok();
    checks.check(
        "translation_validation",
        valid,
        &format!("tuned `{}`", winner.series),
    );
    let image = std::sync::Arc::new(image);
    let (trace, _) = common::measured_run(checks, "tuned winner", study, &image);
    let misses = common::misses_64k(checks, "tuned winner", &trace, study.scenario.num_cpus);
    eprintln!("tune: winner `{}`: {misses} misses at 64KB", winner.series);
    misses
}
