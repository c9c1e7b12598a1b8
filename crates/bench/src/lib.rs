//! Experiment harness reproducing the paper's evaluation.
//!
//! Every figure of the paper has a binary in `src/bin/` (`fig03` …
//! `fig15`, plus `claims` for the in-text numeric claims and several
//! `ablation_*` binaries for design-choice studies). `run_all` executes
//! the whole evaluation in one process, sharing workload runs between
//! figures, and writes `results/figNN.json` files plus human-readable
//! tables.
//!
//! The harness executes each code layout **once**, with one sink: a
//! [`codelayout_vm::TraceBuffer`] recording every instruction fetch and
//! data reference (8 bytes per event). Every measurement then *replays*
//! the frozen trace, as the paper's trace-driven methodology does; the
//! list of replay jobs is the only place `base`/`all` differ from the
//! other layouts.
//!
//! The cache-grid sweeps — the direct-mapped line-size grid (Fig. 4/5)
//! and the 128-byte 4-way size sweeps for user/kernel/combined streams
//! (Figs. 6, 7, 12, 13) — replay through a [`ParallelSweep`]. Every grid
//! is named by a [`codelayout_memsim::SweepSpec`]; the replay engine is
//! the single-pass stack-distance profiler (one Mattson stack per line
//! size answers every size × associativity at once). The worker count
//! honors `CODELAYOUT_THREADS`. The first fully-instrumented layout also
//! replays the identical jobs on the direct per-configuration engine,
//! the equivalence oracle, at the same thread count, asserting equality
//! and timing both, so `run_all` can report the measured engine speedup
//! (see [`Harness::sweep_timing`]). The other analyses — three memory
//! hierarchies (Fig. 14, Fig. 15 timing), the sequence profiler
//! (Fig. 8), the locality cache (Figs. 9–11) and the footprint counter
//! (packing claims) — replay on the same worker pool
//! ([`ParallelSweep::replay_sinks`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod lint;

use codelayout_core::{LayoutParams, LayoutSeries};
use codelayout_ir::Image;
use codelayout_memsim::{
    CacheConfig, FootprintCounter, HierarchyConfig, HierarchyStats, LocalityCache, LocalityStats,
    MemoryHierarchy, ParallelSweep, SequenceProfiler, SequenceStats, StreamFilter, SweepCell,
    SweepEngine, SweepSpec,
};
use codelayout_oltp::{build_study, RunOutcome, Scenario, Study};
use codelayout_timing::TimingModel;
use codelayout_vm::{TraceBuffer, TraceSink, VmEngine};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

pub use codelayout_memsim::{run_env, RunEnv, LINES_B, SIZES_KB};
pub use codelayout_obs::ScenarioSel;

/// The locality-metrics configuration used by Figures 9–11 (and 13):
/// 128 KB, 128-byte lines, 4-way.
pub fn locality_config() -> CacheConfig {
    CacheConfig::new(128 * 1024, 128, 4)
}

/// Everything measured for one code layout.
#[derive(Debug, Clone)]
pub struct LayoutData {
    /// Layout label (paper's x-axis names).
    pub label: String,
    /// Text size of the linked image in bytes.
    pub text_bytes: u64,
    /// Direct-mapped size × line grid, application stream only (full runs
    /// only).
    pub dm_grid_user: Vec<SweepCell>,
    /// 128 B / 4-way across sizes, application stream.
    pub sizes_4w_user: Vec<SweepCell>,
    /// 128 B / 4-way across sizes, combined stream (full runs only).
    pub sizes_4w_all: Vec<SweepCell>,
    /// 128 B / 4-way across sizes, kernel stream (full runs only).
    pub sizes_4w_kernel: Vec<SweepCell>,
    /// Sequential run lengths, application stream (full runs only).
    pub seq_user: Option<SequenceStats>,
    /// Word-use / reuse / lifetime metrics at [`locality_config`]
    /// (full runs only).
    pub locality: Option<LocalityStats>,
    /// Unique 128 B lines touched by the application stream, in bytes.
    pub footprint_line_bytes: Option<u64>,
    /// Unique application instructions executed, in bytes.
    pub footprint_instr_bytes: Option<u64>,
    /// Paper base SimOS hierarchy counters (full runs only).
    pub hier_simos: Option<HierarchyStats>,
    /// 21264-like hierarchy counters.
    pub hier_21264: HierarchyStats,
    /// 21164-like hierarchy counters.
    pub hier_21164: HierarchyStats,
    /// Application instructions fetched during measurement.
    pub user_fetches: u64,
    /// Kernel instructions fetched during measurement.
    pub kernel_fetches: u64,
    /// The run outcome (instruction counts, invariants).
    pub outcome: RunOutcome,
}

/// The 128 B / 4-way size-sweep spec shared by several figures
/// (Figures 6, 7, 12, 13).
fn sizes_4w_spec(num_cpus: usize, filter: StreamFilter) -> SweepSpec {
    SweepSpec::grid()
        .sizes_kb(&SIZES_KB)
        .line_b(128)
        .ways(4)
        .cpus(num_cpus)
        .filter(filter)
}

/// Wall-clock measurement of one layout's grid sweeps: the
/// stack-distance engine vs the direct per-configuration engine
/// replaying the identical jobs at the same thread count (and asserted
/// bit-identical).
#[derive(Debug, Clone, Copy)]
pub struct SweepTiming {
    /// Worker threads both replays used.
    pub threads: usize,
    /// Fetch events replayed per sweep pass.
    pub events: u64,
    /// (configuration, CPU) simulators the direct engine instantiates.
    pub shards: usize,
    /// Wall-clock seconds of the stack-distance replay.
    pub stack_secs: f64,
    /// Wall-clock seconds of the direct replay.
    pub direct_secs: f64,
}

impl SweepTiming {
    /// Measured engine speedup (direct time / stack time).
    pub fn speedup(&self) -> f64 {
        if self.stack_secs > 0.0 {
            self.direct_secs / self.stack_secs
        } else {
            1.0
        }
    }
}

/// Wall-clock measurement of one layout's measured run on both VM
/// execution tiers: the block-compiled engine vs the interpreter
/// oracle executing the identical workload, each recording into the same
/// kind of fetch + data [`TraceBuffer`] (asserted bit-identical, as is
/// the outcome), so both times include the same recording cost.
#[derive(Debug, Clone, Copy)]
pub struct VmTiming {
    /// Instructions the measured phase executed (identical on both tiers).
    pub instructions: u64,
    /// Wall-clock seconds of the measured phase on the interpreter.
    pub interp_secs: f64,
    /// Wall-clock seconds of the measured phase on the block engine.
    pub block_secs: f64,
    /// Compiled code-cache footprint of the block run: `(runs, bytes)`.
    pub cache: (usize, usize),
}

impl VmTiming {
    /// Measured execution-tier speedup (interpreter time / block time).
    pub fn speedup(&self) -> f64 {
        if self.block_secs > 0.0 {
            self.interp_secs / self.block_secs
        } else {
            1.0
        }
    }

    /// Instruction throughput of the block engine, instructions/second.
    pub fn block_ips(&self) -> f64 {
        self.instructions as f64 / self.block_secs.max(1e-9)
    }

    /// Instruction throughput of the interpreter, instructions/second.
    pub fn interp_ips(&self) -> f64 {
        self.instructions as f64 / self.interp_secs.max(1e-9)
    }
}

/// Builds and caches per-layout measurements for one scenario.
pub struct Harness {
    /// The prepared study (workload + profile).
    pub study: Study,
    runs: HashMap<String, LayoutData>,
    out_dir: PathBuf,
    scenario_label: String,
    sweeper: ParallelSweep,
    sweep_timing: Option<SweepTiming>,
    vm_timing: Option<VmTiming>,
    output_digests: Vec<(String, String)>,
    extra_sections: Vec<(String, serde_json::Value)>,
    /// Tuned layout parameters by series label, registered with
    /// [`Harness::set_tuned`] and addressed by the `tuned:<series>` run
    /// names.
    tuned: HashMap<String, LayoutParams>,
    /// Largest recorded event count so far; pre-sizes the next
    /// layout's trace buffer so growth reallocs don't land inside the
    /// timed measured run.
    expected_events: usize,
}

impl Harness {
    /// Builds the study for a scenario. The results directory defaults to
    /// `results/` under the current directory (created on demand). The
    /// sweep worker count honors `CODELAYOUT_THREADS`, defaulting to the
    /// host's available parallelism. The scenario label (used for the run
    /// manifest's `results/<scenario>/` directory) defaults to the
    /// `CODELAYOUT_SCENARIO` selection; use [`Harness::with_label`] when
    /// the scenario was chosen some other way.
    pub fn new(scenario: &Scenario) -> Self {
        Self::with_label(scenario, scenario_label_from_env())
    }

    /// Like [`Harness::new`] with an explicit scenario label.
    pub fn with_label(scenario: &Scenario, label: &str) -> Self {
        Harness {
            study: build_study(scenario),
            runs: HashMap::new(),
            out_dir: PathBuf::from("results"),
            scenario_label: label.to_string(),
            sweeper: ParallelSweep::from_env(),
            sweep_timing: None,
            vm_timing: None,
            output_digests: Vec::new(),
            extra_sections: Vec::new(),
            tuned: HashMap::new(),
            expected_events: 0,
        }
    }

    /// Registers tuned layout parameters for a series, making the
    /// `tuned:<series>` run name valid for [`Harness::run`]. Re-registering
    /// a label replaces its parameters (cached runs are keyed by name, so
    /// register before the first `tuned:` run).
    pub fn set_tuned(&mut self, series_label: &str, params: LayoutParams) {
        self.tuned.insert(series_label.to_string(), params);
    }

    /// The scenario label used for the manifest directory.
    pub fn scenario_label(&self) -> &str {
        &self.scenario_label
    }

    /// Registers an extra top-level manifest section (e.g. the serving
    /// loop's `serve` section) to include in [`Harness::write_manifest`].
    pub fn section(&mut self, key: &str, value: serde_json::Value) {
        self.extra_sections.push((key.to_string(), value));
    }

    /// Extra manifest sections registered with [`Harness::section`], in
    /// registration order.
    pub fn extra_sections(&self) -> &[(String, serde_json::Value)] {
        &self.extra_sections
    }

    /// FNV-1a digests of every JSON result this harness has written, in
    /// write order, as `(file name, digest)` pairs.
    pub fn output_digests(&self) -> &[(String, String)] {
        &self.output_digests
    }

    /// Timing of the first fully-instrumented layout's grid sweeps:
    /// parallel replay vs a single-thread replay of the same jobs.
    /// `None` until a full layout (`base`/`all`) has been measured.
    pub fn sweep_timing(&self) -> Option<&SweepTiming> {
        self.sweep_timing.as_ref()
    }

    /// Timing of the first fully-instrumented layout's measured run on
    /// both VM execution tiers (block-compiled vs interpreter oracle,
    /// asserted trace-identical). `None` until a full layout has been
    /// measured.
    pub fn vm_timing(&self) -> Option<&VmTiming> {
        self.vm_timing.as_ref()
    }

    /// Builds the scenario selected by `CODELAYOUT_SCENARIO`
    /// (`quick`/`sim`/`hw`; default `sim`).
    pub fn from_env() -> Self {
        let sc = scenario_from_env();
        Self::new(&sc)
    }

    /// The image for any layout-series label ([`LayoutSeries::parse`]):
    /// the paper's six, `hotcold`, `cfa` (with
    /// [`codelayout_core::CFA_RESERVED_BYTES`] reserved), `exttsp`, or
    /// `stitcher`, built from the measured profile. A `static:` prefix
    /// builds from the static estimate instead, which `fig_static`
    /// measures side by side with the measured layouts. A `tuned:`
    /// prefix builds the series with the parameters registered via
    /// [`Harness::set_tuned`] (as `fig_tune` does for the autotuner's
    /// winners). Debug builds run translation validation on every linked
    /// image.
    fn image_for(&self, name: &str) -> Arc<Image> {
        if let Some(rest) = name.strip_prefix("tuned:") {
            let series = LayoutSeries::parse(rest).unwrap_or_else(|e| panic!("{name}: {e}"));
            let params = self.tuned.get(rest).unwrap_or_else(|| {
                panic!("no tuned parameters registered for `{rest}`; call Harness::set_tuned first")
            });
            return self.study.image_series_params(series, params);
        }
        let (label, profile) = match name.strip_prefix("static:") {
            Some(rest) => (rest, &self.study.static_profile),
            None => (name, &self.study.profile),
        };
        let series = LayoutSeries::parse(label).unwrap_or_else(|e| panic!("{name}: {e}"));
        self.study.image_series_with(series, profile)
    }

    /// Runs (or returns the cached) measurement for a layout. `base` and
    /// `all` get the full set of replay jobs; other layouts the light set.
    pub fn run(&mut self, name: &str) -> &LayoutData {
        if !self.runs.contains_key(name) {
            let data = self.measure(name);
            self.runs.insert(name.to_string(), data);
        }
        &self.runs[name]
    }

    /// Executes the layout once, recording fetch and data events into a
    /// [`TraceBuffer`], then derives every [`LayoutData`] field by
    /// replaying the frozen trace: grid sweeps on the sweeper, the other
    /// analyses on the same worker pool.
    fn measure(&mut self, name: &str) -> LayoutData {
        let _measure_span = codelayout_obs::span("measure");
        let image = self.image_for(name);
        let num_cpus = self.study.scenario.num_cpus;
        let mut buf = TraceBuffer::new();
        buf.reserve(self.expected_events);
        let outcome = self
            .study
            .run_measured(&image, &self.study.base_kernel_image, &mut buf);
        outcome.assert_correct();
        let trace = buf.freeze();
        // Every executed instruction emits exactly one fetch.
        let (user_fetches, kernel_fetches) =
            (outcome.report.user_instrs, outcome.report.kernel_instrs);

        let full = matches!(name, "base" | "all");
        if full && self.vm_timing.is_none() {
            self.vm_oracle_run(name, &image, &trace, &outcome);
        }
        self.expected_events = self.expected_events.max(trace.len());

        // The replay jobs. Every layout gets the user size sweep and both
        // Alpha hierarchies; `base` and `all` add the direct-mapped grid,
        // the combined/kernel size sweeps, the SimOS hierarchy, and the
        // sequence, locality and footprint collectors.
        let mut jobs = vec![sizes_4w_spec(num_cpus, StreamFilter::UserOnly)];
        let mut hier_21264 = MemoryHierarchy::new(TimingModel::hierarchy_21264(num_cpus));
        let mut hier_21164 = MemoryHierarchy::new(TimingModel::hierarchy_21164(num_cpus));
        let mut hier_simos = MemoryHierarchy::new(HierarchyConfig::simos_base(num_cpus));
        let mut seq_user = SequenceProfiler::new(StreamFilter::UserOnly);
        let mut locality = LocalityCache::new(locality_config(), StreamFilter::UserOnly);
        let mut fp = FootprintCounter::new(128, StreamFilter::UserOnly);
        let mut analyses: Vec<&mut (dyn TraceSink + Send)> = vec![&mut hier_21264, &mut hier_21164];
        if full {
            jobs.extend([
                SweepSpec::paper_grid(1)
                    .cpus(num_cpus)
                    .filter(StreamFilter::UserOnly),
                sizes_4w_spec(num_cpus, StreamFilter::All),
                sizes_4w_spec(num_cpus, StreamFilter::KernelOnly),
            ]);
            analyses.extend([
                &mut hier_simos as &mut (dyn TraceSink + Send),
                &mut seq_user,
                &mut locality,
                &mut fp,
            ]);
        }

        // Phase timers (not ad-hoc `Instant` pairs) time both replays, so
        // the speedup `run_all` reports is exactly what the phase tree and
        // the run manifest show for the same work.
        let replay_span = codelayout_obs::span("replay");
        let grids = self.sweeper.run(&trace, &jobs);
        let stack_secs = replay_span.finish().as_secs_f64();
        if full && self.sweep_timing.is_none() {
            // Once per evaluation: replay the identical jobs on the
            // direct engine at the same thread count — a standing
            // cross-engine equivalence check and the speedup baseline.
            let oracle_span = codelayout_obs::span("oracle_replay");
            let direct = ParallelSweep::new(self.sweeper.threads())
                .with_engine(SweepEngine::Direct)
                .run(&trace, &jobs);
            let direct_secs = oracle_span.finish().as_secs_f64();
            assert_eq!(
                direct, grids,
                "stack-distance sweep diverged from the direct engine"
            );
            let timing = SweepTiming {
                threads: self.sweeper.threads(),
                events: user_fetches + kernel_fetches,
                shards: jobs.iter().map(SweepSpec::shard_count).sum(),
                stack_secs,
                direct_secs,
            };
            self.sweep_timing = Some(timing);
        }
        let analysis_span = codelayout_obs::span("analysis");
        self.sweeper.replay_sinks(&trace, analyses);
        analysis_span.finish();

        let mut grids = grids.into_iter();
        LayoutData {
            label: name.to_string(),
            text_bytes: image.text_bytes(),
            sizes_4w_user: grids.next().expect("the user size sweep always runs"),
            dm_grid_user: grids.next().unwrap_or_default(),
            sizes_4w_all: grids.next().unwrap_or_default(),
            sizes_4w_kernel: grids.next().unwrap_or_default(),
            seq_user: full.then(|| seq_user.finish()),
            locality: full.then(|| locality.finish()),
            footprint_line_bytes: full.then(|| fp.line_footprint_bytes()),
            footprint_instr_bytes: full.then(|| fp.instr_footprint_bytes()),
            hier_simos: full.then(|| *hier_simos.stats()),
            hier_21264: *hier_21264.stats(),
            hier_21164: *hier_21164.stats(),
            user_fetches,
            kernel_fetches,
            outcome,
        }
    }

    /// Once per evaluation: re-execute the measured run on the *other*
    /// VM execution tier (interpreter oracle vs block-compiled), recording
    /// the same fetch + data trace, and assert the trace (data references
    /// included) and outcome are bit-identical — the standing correctness
    /// check behind the engine-speedup number.
    fn vm_oracle_run(
        &mut self,
        name: &str,
        image: &Arc<Image>,
        trace: &codelayout_vm::FrozenTrace,
        outcome: &RunOutcome,
    ) {
        let engine = self.study.machine_config().engine;
        let other = match engine {
            VmEngine::Interp => VmEngine::Block,
            VmEngine::Block => VmEngine::Interp,
        };
        let oracle_span = codelayout_obs::span("oracle_run");
        // The same starting capacity as the primary run's buffer, so both
        // tiers pay the same recording cost.
        let mut oracle_trace = TraceBuffer::new();
        oracle_trace.reserve(self.expected_events);
        let oracle = self.study.run_measured_with(
            image,
            &self.study.base_kernel_image,
            &mut oracle_trace,
            other,
        );
        oracle_span.finish();
        oracle.assert_correct();
        assert_eq!(
            oracle_trace.freeze(),
            *trace,
            "{name}: {} engine diverged from {} engine",
            other.label(),
            engine.label(),
        );
        assert_eq!(oracle.report, outcome.report, "{name}: reports diverged");
        assert_eq!(
            oracle.invariants, outcome.invariants,
            "{name}: invariants diverged"
        );
        assert_eq!(
            oracle.per_process_txns, outcome.per_process_txns,
            "{name}: per-process transaction counts diverged"
        );
        let (interp_secs, block_secs) = match engine {
            VmEngine::Block => (
                oracle.run_wall.as_secs_f64(),
                outcome.run_wall.as_secs_f64(),
            ),
            VmEngine::Interp => (
                outcome.run_wall.as_secs_f64(),
                oracle.run_wall.as_secs_f64(),
            ),
        };
        // The code cache still holds this image's compiled form (the
        // image `Arc` is alive), so a fresh machine reports it cheaply.
        let cache = self
            .study
            .new_machine_with(image, &self.study.base_kernel_image, 0, VmEngine::Block)
            .0
            .code_cache_stats()
            .unwrap_or((0, 0));
        let timing = VmTiming {
            instructions: outcome.report.instructions,
            interp_secs,
            block_secs,
            cache,
        };
        self.vm_timing = Some(timing);
    }

    /// Writes a figure's JSON result under the results directory and
    /// records its digest for the run manifest.
    pub fn save_json(&mut self, name: &str, value: &serde_json::Value) {
        let _span = codelayout_obs::span("save");
        let _ = std::fs::create_dir_all(&self.out_dir);
        let path = self.out_dir.join(format!("{name}.json"));
        let text = serde_json::to_string_pretty(value).expect("json");
        self.output_digests.push((
            format!("{name}.json"),
            codelayout_obs::manifest::digest_hex(text.as_bytes()),
        ));
        match std::fs::write(&path, text) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }

    /// The manifest directory for this harness:
    /// `results/<scenario label>/`.
    pub fn manifest_dir(&self) -> PathBuf {
        self.out_dir.join(&self.scenario_label)
    }

    /// The scenario parameters recorded in the run manifest.
    pub fn config_json(&self) -> serde_json::Value {
        let sc = &self.study.scenario;
        serde_json::json!({
            "scenario": self.scenario_label.clone(),
            "num_cpus": sc.num_cpus as u64,
            "processes_per_cpu": sc.processes_per_cpu as u64,
            "profile_txns": sc.profile_txns,
            "warmup_txns": sc.warmup_txns,
            "measure_txns": sc.measure_txns,
            "seed": sc.seed,
            "sweep_threads": self.sweeper.threads() as u64,
            "vm_engine": self.study.machine_config().engine.label(),
        })
    }

    /// Writes `results/<scenario>/manifest.json` for a finished run whose
    /// root span was named `tool`: config, phase tree (the `tool` span
    /// must already be closed), counter snapshot, and the digests of
    /// every JSON result this harness wrote. Returns the manifest path.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_manifest(&self, tool: &str) -> std::io::Result<PathBuf> {
        let mut b = codelayout_obs::manifest::ManifestBuilder::new(tool, &self.scenario_label);
        b.config(self.config_json());
        b.phases(codelayout_obs::tracer(), tool);
        b.metrics(codelayout_obs::metrics());
        for (key, value) in &self.extra_sections {
            b.section(key, value.clone());
        }
        for (name, digest) in &self.output_digests {
            b.output(name, digest.clone());
        }
        b.write(&self.manifest_dir())
    }
}

/// True when `--report` was passed on the command line; figure binaries
/// print the tracer's phase-tree report when set.
pub fn report_requested() -> bool {
    std::env::args().any(|a| a == "--report")
}

/// Shared entry point for the single-figure binaries: runs `f` on the
/// env-selected scenario under a root span named `tool`, saves the
/// figure JSON, writes the run manifest, and honors `--report`.
pub fn figure_main(tool: &str, f: fn(&mut Harness) -> serde_json::Value) {
    let root = codelayout_obs::span(tool);
    let mut h = Harness::from_env();
    let v = f(&mut h);
    h.save_json(tool, &v);
    root.finish();
    finish_run(tool, &h);
}

/// Writes the manifest for a finished run (root span `tool` already
/// closed) and prints the phase report when `--report` was passed.
pub fn finish_run(tool: &str, h: &Harness) {
    match h.write_manifest(tool) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write manifest: {e}"),
    }
    if report_requested() {
        print!("{}", codelayout_obs::tracer().render_report());
    }
}

/// The scenario label selected by `CODELAYOUT_SCENARIO`
/// (`quick` / `sim` / `hw`, default `sim`; see [`RunEnv`]).
pub fn scenario_label_from_env() -> &'static str {
    run_env().scenario.label()
}

/// The [`Scenario`] selected by `CODELAYOUT_SCENARIO`
/// (`quick` / `sim` / `hw`, default `sim`; see [`RunEnv`]), with the
/// workload seed replaced by `CODELAYOUT_SEED` when set.
pub fn scenario_from_env() -> Scenario {
    let mut sc = match run_env().scenario {
        ScenarioSel::Quick => Scenario::quick(),
        ScenarioSel::Hw => Scenario::paper_hw(),
        ScenarioSel::Sim => Scenario::paper_sim(),
    };
    if let Some(seed) = run_env().seed {
        sc.seed = seed;
    }
    sc
}

/// Prints a fixed-width table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!(
                "{:>w$}  ",
                c,
                w = widths.get(i).copied().unwrap_or(8)
            ));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Formats a ratio as a percentage string.
pub fn pct(n: u64, d: u64) -> String {
    if d == 0 {
        "-".into()
    } else {
        format!("{:.1}%", 100.0 * n as f64 / d as f64)
    }
}
