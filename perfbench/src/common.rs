//! Shared pieces: metric registry, output checks, and the measurements
//! every workload reports the same way.

use codelayout_core::LayoutSeries;
use codelayout_ir::Image;
use codelayout_memsim::{MemoryHierarchy, ParallelSweep, StreamFilter, SweepEngine, SweepSpec};
use codelayout_oltp::{RunOutcome, Study};
use codelayout_timing::TimingModel;
use codelayout_vm::{FrozenTrace, TeeSink, TraceBuffer};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// End-to-end metrics, printed with `--trace 0` (the order and units
/// match `BENCHMARK.json`).
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "wall_s",
    "peak_rss_mib",
    "app_miss_ratio_64k",
    "model_speedup",
];

/// The ten layout series under metric-safe names.
pub fn series_key(series: LayoutSeries) -> String {
    series.label().replace('+', "_")
}

/// The analyses a `CompositeSink` runs inline, replayed one at a time.
pub const ANALYSES: [&str; 7] = [
    "null",
    "hier_simos",
    "hier_21264",
    "hier_21164",
    "locality",
    "sequence",
    "footprint",
];

/// Grid sweeps: the four `Harness` jobs, the direct-engine oracle
/// replay, and the tuner's/serving loop's window sweeps.
pub const SWEEPS: [&str; 6] = [
    "sizes4w_user",
    "dm_user",
    "sizes4w_all",
    "sizes4w_kernel",
    "direct",
    "window",
];

/// Per-layer metrics, printed with `--trace 1`, with their units. Every
/// workload prints all of them; a layer a workload does not exercise
/// reads 0.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("error_rate", "ratio"),
        ("tuned_misses_64k", "count"),
        ("recovery_milli", "milli"),
        ("trace.coverage", "ratio"),
        ("vm.total_s", "s"),
        ("profile.total_s", "s"),
        ("core.total_s", "s"),
        ("ir.total_s", "s"),
        ("analysis.total_s", "s"),
        ("memsim.total_s", "s"),
        ("oltp.generate_s", "s"),
        ("profile.pixie_run_s", "s"),
        ("profile.sampler_overhead", "ratio"),
        ("profile.samples", "count"),
        ("analysis.static_profile_s", "s"),
        ("analysis.validate_ms", "ms"),
        ("analysis.validate_count", "count"),
        ("ir.link_ms", "ms"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for s in LayoutSeries::all() {
        v.push((format!("core.build_ms.{}", series_key(s)), "ms"));
    }
    for s in LayoutSeries::all() {
        v.push((format!("ir.text_bytes.{}", series_key(s)), "bytes"));
    }
    for (n, u) in [
        ("vm.exec_s.interp", "s"),
        ("vm.exec_s.block", "s"),
        ("vm.record_s.interp", "s"),
        ("vm.record_s.block", "s"),
        ("vm.instructions", "count"),
        ("vm.minst_per_s", "Minst/s"),
        ("vm.code_cache_bytes", "bytes"),
        ("vm.trace_bytes.fetch", "bytes"),
        ("vm.trace_bytes.full", "bytes"),
    ] {
        v.push((n.to_string(), u));
    }
    for a in ANALYSES {
        v.push((format!("memsim.replay_s.{a}"), "s"));
    }
    for a in ANALYSES {
        v.push((format!("memsim.replay_mev_per_s.{a}"), "Mev/s"));
    }
    for s in SWEEPS {
        v.push((format!("memsim.sweep_s.{s}"), "s"));
    }
    for (n, u) in [
        ("memsim.sweep_events_per_s", "1/s"),
        ("tune.candidates", "count"),
        ("tune.cache_hit_ratio", "ratio"),
        ("tune.rejected", "count"),
        ("tune.score_s", "s"),
        ("serve.relayouts", "count"),
        ("serve.swaps", "count"),
        ("serve.swap_ms", "ms"),
        ("serve.instructions", "count"),
    ] {
        v.push((n.to_string(), u));
    }
    v
}

/// Metric values by name.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.insert(name.to_string(), (value, unit));
    }

    /// The value of a metric, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }
}

/// Output checks and operation accounting for one run.
pub struct Checks {
    attempted: u64,
    failed: u64,
    correct: bool,
    lines: Vec<String>,
}

impl Checks {
    /// An empty ledger.
    pub fn new() -> Self {
        Checks {
            attempted: 0,
            failed: 0,
            correct: true,
            lines: Vec::new(),
        }
    }

    /// Counts one operation of the workload (a measured layout run, a
    /// tuner candidate, a requested re-layout).
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records an output check. A failed check fails the whole run.
    pub fn check(&mut self, name: &str, ok: bool, detail: &str) {
        self.lines.push(format!(
            "check {name}: {} ({detail})",
            if ok { "ok" } else { "FAILED" }
        ));
        if !ok {
            self.correct = false;
        }
    }

    /// Checks that a run was fault-free and kept the TPC-B invariants.
    pub fn run_ok(&mut self, what: &str, outcome: &RunOutcome) -> bool {
        let ok = outcome.report.faults.is_empty() && outcome.invariants.consistent();
        self.check(
            "tpcb_invariants",
            ok,
            &format!("{what}: {} instructions", outcome.report.instructions),
        );
        ok
    }

    /// Byte-compares a deterministic output with the committed file
    /// `results/<file>` (optionally one top-level key of it), both
    /// pretty-printed. Run from the root of the repository.
    pub fn committed(&mut self, file: &str, key: Option<&str>, value: &Value) {
        let path = format!("results/{file}");
        let ours = serde_json::to_string_pretty(value).expect("serializable output");
        let (ok, detail) = match std::fs::read_to_string(&path) {
            Err(e) => (false, format!("cannot read {path}: {e}")),
            Ok(text) => {
                let theirs = match key {
                    None => Some(text),
                    Some(k) => serde_json::from_str(&text)
                        .ok()
                        .and_then(|v: Value| match v {
                            Value::Object(m) => m.get(k).cloned(),
                            _ => None,
                        })
                        .and_then(|v| serde_json::to_string_pretty(&v).ok()),
                };
                match theirs {
                    Some(t) if t == ours => (true, format!("{path} byte-equal")),
                    Some(_) => (false, format!("{path} differs")),
                    None => (false, format!("{path} has no `{}`", key.unwrap_or(""))),
                }
            }
        };
        self.check("committed_output", ok, &detail);
    }

    /// Prints every check to stderr.
    pub fn print_summary(&self) {
        for l in &self.lines {
            eprintln!("{l}");
        }
        eprintln!(
            "operations: {} attempted, {} failed; output checks {}",
            self.attempted,
            self.failed,
            if self.correct { "passed" } else { "FAILED" }
        );
    }

    /// Failed operations over attempted ones; a failed output check
    /// counts the whole run as failed.
    pub fn error_rate(&self) -> f64 {
        let (attempted, failed) = self.counts();
        failed as f64 / attempted as f64
    }

    fn counts(&self) -> (u64, u64) {
        let attempted = self.attempted.max(1);
        let failed = if self.correct { self.failed } else { attempted };
        (attempted, failed)
    }

    /// The final result line. Every metric of the mode is present; one the
    /// run did not reach (after a panic) reads 0.
    pub fn result_json(&self, metrics: &Metrics, traced: bool) -> String {
        let (attempted, failed) = self.counts();
        let names: Vec<(String, &'static str)> = if traced {
            per_layer_names()
        } else {
            let units = ["s", "s", "MiB", "ratio", "ratio"];
            END_TO_END
                .iter()
                .zip(units)
                .map(|(n, u)| (n.to_string(), u))
                .collect()
        };
        let mut out = serde_json::Map::new();
        for (name, unit) in names {
            let value = metrics.get(&name).unwrap_or(0.0);
            out.insert(name, json!({"value": value, "unit": unit}));
        }
        let result = json!({
            "correct": self.correct && failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": Value::Object(out),
        });
        serde_json::to_string(&result).expect("serializable result")
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Seconds taken by `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// The 64 KB / 128 B / 4-way application-stream cell, the paper's
/// headline board-cache configuration.
pub fn spec_64k(num_cpus: usize) -> SweepSpec {
    SweepSpec::grid()
        .size_kb(64)
        .line_b(128)
        .ways(4)
        .cpus(num_cpus)
        .filter(StreamFilter::UserOnly)
}

/// Misses at [`spec_64k`], replayed on both sweep engines; the two must
/// agree cell for cell.
pub fn misses_64k(checks: &mut Checks, what: &str, trace: &FrozenTrace, num_cpus: usize) -> u64 {
    let spec = spec_64k(num_cpus);
    let stack = ParallelSweep::from_env()
        .with_engine(SweepEngine::Stack)
        .run_one(trace, &spec);
    let direct = ParallelSweep::from_env()
        .with_engine(SweepEngine::Direct)
        .run_one(trace, &spec);
    checks.check(
        "sweep_engines_agree",
        stack == direct,
        &format!("{what}: 64KB cell, stack vs direct"),
    );
    stack[0].stats.misses
}

/// One measured run recording the fetch stream and the 21264 hierarchy
/// the timing model reads. Returns (fetch trace, model cycles).
pub fn measured_run(
    checks: &mut Checks,
    what: &str,
    study: &Study,
    image: &Arc<Image>,
) -> (FrozenTrace, u64) {
    let mut sink = TeeSink(
        TraceBuffer::fetch_only(),
        MemoryHierarchy::new(TimingModel::hierarchy_21264(study.scenario.num_cpus)),
    );
    let outcome = study.run_measured(image, &study.base_kernel_image, &mut sink);
    checks.run_ok(what, &outcome);
    let trace = sink.0.freeze();
    let cycles = TimingModel::alpha_21264()
        .evaluate(trace.len() as u64, sink.1.stats())
        .total();
    (trace, cycles)
}

/// Generated workloads the quality metrics pool over: the run's seed and
/// the next ones. One generated program alone swings the ratios by about
/// 10% from seed to seed.
pub const QUALITY_SEEDS: u64 = 4;

/// Simulated quality counts of the paper's `base` and `all` layouts on one
/// study: 64 KB/128 B/4-way app misses and 21264 timing-model cycles.
#[derive(Clone, Copy, Default)]
pub struct Quality {
    pub base_misses: u64,
    pub all_misses: u64,
    pub base_cycles: u64,
    pub all_cycles: u64,
}

impl Quality {
    /// Measures `base` and `all` on a study.
    pub fn measure(checks: &mut Checks, study: &Study) -> Self {
        let mut q = [(0, 0); 2];
        for (slot, label) in q.iter_mut().zip(["base", "all"]) {
            let series = LayoutSeries::parse(label).expect("paper series label");
            let image = study.image_series(series);
            let what = format!("{label} seed {}", study.scenario.seed);
            let (trace, cycles) = measured_run(checks, &what, study, &image);
            *slot = (
                misses_64k(checks, &what, &trace, study.scenario.num_cpus),
                cycles,
            );
        }
        Quality {
            base_misses: q[0].0,
            all_misses: q[1].0,
            base_cycles: q[0].1,
            all_cycles: q[1].1,
        }
    }

    fn add(&mut self, o: Quality) {
        self.base_misses += o.base_misses;
        self.all_misses += o.all_misses;
        self.base_cycles += o.base_cycles;
        self.all_cycles += o.all_cycles;
    }
}

/// Records `app_miss_ratio_64k` (`all` misses ÷ `base` misses) and
/// `model_speedup` (`base` cycles ÷ `all` cycles), pooled over
/// [`QUALITY_SEEDS`] studies: `first` is the sim study of the run's seed
/// when the workload already measured it, and the rest are built here.
pub fn pooled_quality(
    checks: &mut Checks,
    metrics: &mut Metrics,
    seed: u64,
    first: Option<Quality>,
) {
    let mut total = Quality::default();
    for i in 0..QUALITY_SEEDS {
        let q = match first {
            Some(q) if i == 0 => q,
            _ => {
                let sc = codelayout_oltp::Scenario {
                    seed: seed.wrapping_add(i),
                    ..codelayout_oltp::Scenario::paper_sim()
                };
                Quality::measure(checks, &codelayout_oltp::build_study(&sc))
            }
        };
        eprintln!(
            "quality seed {}: 64KB app misses base {} -> all {}; 21264 cycles {} -> {}",
            seed.wrapping_add(i),
            q.base_misses,
            q.all_misses,
            q.base_cycles,
            q.all_cycles
        );
        total.add(q);
    }
    metrics.set(
        "app_miss_ratio_64k",
        total.all_misses as f64 / total.base_misses.max(1) as f64,
        "ratio",
    );
    metrics.set(
        "model_speedup",
        total.base_cycles as f64 / total.all_cycles.max(1) as f64,
        "ratio",
    );
}
