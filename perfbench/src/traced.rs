//! The traced pass: one reference run of the workload (its time is the
//! `wall_s` the layers are compared with), then the same work sent again
//! through the crates' public calls, each call timed from outside, plus
//! three probes (per-series build costs, like-for-like VM tiers, sampler
//! overhead). Nothing here changes what the program does.

use crate::common::{median, series_key, timed, Checks, Metrics};
use crate::work::{self, Output, Workload};
use codelayout_analysis::{estimate_static_profile, validate_translation};
use codelayout_bench::{figures::LAYOUTS, locality_config, SIZES_KB};
use codelayout_core::{LayoutPipeline, LayoutSeries, ParamSpace};
use codelayout_ir::link::link;
use codelayout_ir::{Image, Layout, Program};
use codelayout_memsim::{
    FootprintCounter, HierarchyConfig, LocalityCache, MemoryHierarchy, ParallelSweep,
    SequenceProfiler, StreamFilter, SweepCell, SweepEngine, SweepSpec,
};
use codelayout_oltp::{gen_app, gen_kernel, words, SgaLayout, Study};
use codelayout_profile::sampled::{profile_from_edge_samples, DecayedEdgeCounts, EdgeSampler};
use codelayout_profile::{PixieCollector, Profile};
use codelayout_serve::{drain_chunks, image_digest, recovery_milli, ServeConfig, ServeReport};
use codelayout_timing::TimingModel;
use codelayout_tune::{TuneReport, TUNE_SIZES_KB};
use codelayout_vm::{
    DataRecord, ExecHook, FetchRecord, FrozenTrace, NullHook, NullSink, PairHook, TraceBuffer,
    TraceSink, VmEngine, APP_TEXT_BASE,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Times of the replayed calls, by metric name. `covered` sums every
/// call that redoes the workload's own work; `trace.coverage` divides it
/// by the reference run's time.
#[derive(Default)]
struct Layers {
    secs: BTreeMap<String, f64>,
    covered: f64,
    link_ms: Vec<f64>,
    validate_ms: Vec<f64>,
    replay_events: BTreeMap<&'static str, u64>,
    sweep_events: u64,
    sweep_secs: f64,
}

impl Layers {
    fn add(&mut self, name: &str, secs: f64) {
        *self.secs.entry(name.to_string()).or_default() += secs;
        self.covered += secs;
    }

    /// Replayed seconds per crate (`memsim` sums its replays and sweeps).
    fn crate_totals(&self) -> [(&'static str, f64); 6] {
        ["vm", "profile", "core", "ir", "analysis", "memsim"].map(|c| {
            let total = self
                .secs
                .iter()
                .filter(|(k, _)| k.as_str() == c || k.starts_with(&format!("{c}.")))
                .fold(0.0, |acc, (_, v)| acc + v);
            (c, total)
        })
    }

    fn get(&self, name: &str) -> f64 {
        self.secs.get(name).copied().unwrap_or(0.0)
    }

    /// Builds a layout (core), links it (ir) and validates the
    /// translation (analysis), timing each into the covered total.
    fn build_link_validate(
        &mut self,
        checks: &mut Checks,
        what: &str,
        program: &Program,
        build: impl FnOnce() -> Layout,
    ) -> (Arc<Image>, bool) {
        let (build_s, layout) = timed(build);
        self.add("core", build_s);
        let (link_s, image) = timed(|| link(program, &layout, APP_TEXT_BASE));
        self.add("ir", link_s);
        self.link_ms.push(link_s * 1e3);
        let image = image.expect("layouts are valid permutations");
        let (validate_s, valid) = timed(|| validate_translation(program, &layout, &image).is_ok());
        self.add("analysis", validate_s);
        self.validate_ms.push(validate_s * 1e3);
        checks.check("translation_validation", valid, what);
        (Arc::new(image), valid)
    }

    /// Replays a trace through one sweep job, timed under
    /// `memsim.sweep_s.<name>`.
    fn sweep(
        &mut self,
        name: &str,
        sweeper: &ParallelSweep,
        trace: &FrozenTrace,
        spec: &SweepSpec,
    ) -> Vec<SweepCell> {
        let (s, cells) = timed(|| sweeper.run_one(trace, spec));
        self.add(&format!("memsim.sweep_s.{name}"), s);
        self.sweep_events += trace.len() as u64;
        self.sweep_secs += s;
        cells
    }

    /// Replays a trace into one analysis sink on its own, timed under
    /// `memsim.replay_s.<name>`.
    fn replay<S: TraceSink>(&mut self, name: &'static str, trace: &FrozenTrace, mut sink: S) -> S {
        let (s, ()) = timed(|| trace.replay(&mut sink));
        self.add(&format!("memsim.replay_s.{name}"), s);
        *self.replay_events.entry(name).or_default() += trace.len() as u64;
        sink
    }
}

/// The traced pass of one workload.
pub fn run(w: Workload, seed: u64, checks: &mut Checks, metrics: &mut Metrics) {
    let study = setup_layers(w, seed, checks, metrics);
    let (_, wall_s, mut out) = work::run_once(w, seed);
    eprintln!("{}: reference run {wall_s:.3}s", w.name());
    let mut layers = Layers::default();
    let probe_txns = match &mut out {
        Output::Evaluate(h, _) => {
            evaluate_replica(&mut layers, checks, h);
            claims_kernel_run(&mut layers, checks, &h.study);
            study.scenario.warmup_txns + study.scenario.measure_txns
        }
        Output::Tune(study, report) => {
            tune_replica(&mut layers, checks, metrics, study, report, wall_s);
            study.scenario.warmup_txns + study.scenario.measure_txns
        }
        Output::Serve(study, cfg, report) => {
            serve_replica(&mut layers, checks, metrics, study, cfg, report);
            cfg.epoch_txns
        }
    };
    let covered = layers.covered;
    for (crate_name, total) in layers.crate_totals() {
        metrics.set(&format!("{crate_name}.total_s"), total, "s");
    }
    series_probe(&mut layers, checks, metrics, &study);
    vm_probe(checks, metrics, &study, probe_txns);

    metrics.set("trace.coverage", covered / wall_s, "ratio");
    metrics.set("ir.link_ms", median(&layers.link_ms), "ms");
    metrics.set("analysis.validate_ms", median(&layers.validate_ms), "ms");
    metrics.set(
        "analysis.validate_count",
        layers.validate_ms.len() as f64,
        "count",
    );
    for (name, &secs) in &layers.secs {
        if name.starts_with("memsim.") {
            metrics.set(name, secs, "s");
        }
    }
    for (name, &events) in &layers.replay_events {
        let secs = layers.get(&format!("memsim.replay_s.{name}"));
        metrics.set(
            &format!("memsim.replay_mev_per_s.{name}"),
            events as f64 / secs.max(1e-9) / 1e6,
            "Mev/s",
        );
    }
    metrics.set(
        "memsim.sweep_events_per_s",
        layers.sweep_events as f64 / layers.sweep_secs.max(1e-9),
        "1/s",
    );
    eprintln!(
        "{}: layers {}",
        w.name(),
        layers
            .secs
            .iter()
            .map(|(k, v)| format!("{k}={v:.3}s"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    eprintln!(
        "{}: covered {covered:.3}s of {wall_s:.3}s ({:.0}%)",
        w.name(),
        100.0 * covered / wall_s
    );

    work::check_output(out, seed, checks, metrics);
    metrics.set("error_rate", checks.error_rate(), "ratio");
}

/// Set-up, layer by layer: generation (oltp), the static estimate
/// (analysis) and the Pixie profiling run (profile), redone the way
/// `build_study` does them. Returns a study built the normal way.
fn setup_layers(w: Workload, seed: u64, checks: &mut Checks, metrics: &mut Metrics) -> Study {
    let sc = work::workload_scenario(w, seed);
    let max_txns = sc.profile_txns.max(sc.warmup_txns + sc.measure_txns) as usize;
    let (gen_s, (app, kernel)) = timed(|| {
        let sga = SgaLayout::new(
            sc.branches,
            sc.tellers_per_branch,
            sc.accounts_per_branch,
            sc.processes(),
            max_txns,
        );
        (gen_app(&sga, &sc), gen_kernel(&sga, &sc.scale, sc.seed))
    });
    metrics.set("oltp.generate_s", gen_s, "s");
    let (static_s, _) = timed(|| {
        (
            estimate_static_profile(&app.program),
            estimate_static_profile(&kernel.program),
        )
    });
    metrics.set("analysis.static_profile_s", static_s, "s");

    let study = work::setup(w, seed);
    let (mut m, _) =
        study.new_machine(&study.base_image, &study.base_kernel_image, sc.profile_txns);
    let mut hook = PairHook(
        PixieCollector::user(study.app.program.blocks.len()),
        PixieCollector::kernel(study.kernel.program.blocks.len()),
    );
    let (pixie_s, ()) = timed(|| {
        while m.live_processes() > 0 {
            m.run_hooked(&mut NullSink, &mut hook, 200_000);
        }
    });
    metrics.set("profile.pixie_run_s", pixie_s, "s");
    checks.check(
        "pixie_profile_reproduced",
        hook.0.profile().block_counts == study.profile.block_counts,
        "profiling run redone outside build_study",
    );
    study
}

/// The 128 B / 4-way size sweep the figures use.
fn sizes_4w(num_cpus: usize, filter: StreamFilter) -> SweepSpec {
    SweepSpec::grid()
        .sizes_kb(&SIZES_KB)
        .line_b(128)
        .ways(4)
        .cpus(num_cpus)
        .filter(filter)
}

/// `evaluate`, record once: per paper layout, build + link, one
/// fetch+data recording, each inline analysis replayed on its own, then
/// the grid sweeps (and, for `base`, the direct-engine oracle).
fn evaluate_replica(layers: &mut Layers, checks: &mut Checks, h: &mut codelayout_bench::Harness) {
    let n = h.study.scenario.num_cpus;
    let stack = ParallelSweep::from_env().with_engine(SweepEngine::Stack);
    let direct = ParallelSweep::new(stack.threads()).with_engine(SweepEngine::Direct);
    for label in LAYOUTS {
        // What the harness computed inline (cached by the reference run,
        // so this measures nothing).
        let inline = {
            let d = h.run(label);
            (d.sizes_4w_user.clone(), d.hier_21264)
        };
        let study = &h.study;
        let program = &study.app.program;
        let series = LayoutSeries::parse(label).expect("paper layout label");
        let (build_s, layout) = timed(|| study.layout_series(series));
        layers.add("core", build_s);
        let (link_s, image) = timed(|| link(program, &layout, APP_TEXT_BASE));
        layers.add("ir", link_s);
        layers.link_ms.push(link_s * 1e3);
        let image = Arc::new(image.expect("paper layouts link"));
        // Release builds of the harness do not validate; the check does,
        // outside the covered time.
        checks.check(
            "translation_validation",
            validate_translation(program, &layout, &image).is_ok(),
            &format!("paper layout `{label}`"),
        );

        let mut buf = TraceBuffer::new();
        let (record_s, outcome) =
            timed(|| study.run_measured(&image, &study.base_kernel_image, &mut buf));
        layers.add("vm", record_s);
        checks.run_ok(&format!("{label} (recording)"), &outcome);
        let trace = buf.freeze();

        let full = matches!(label, "base" | "all");
        let h64 = layers.replay(
            "hier_21264",
            &trace,
            MemoryHierarchy::new(TimingModel::hierarchy_21264(n)),
        );
        layers.replay(
            "hier_21164",
            &trace,
            MemoryHierarchy::new(TimingModel::hierarchy_21164(n)),
        );
        if full {
            layers.replay("null", &trace, OpaqueSink);
            layers.replay(
                "hier_simos",
                &trace,
                MemoryHierarchy::new(HierarchyConfig::simos_base(n)),
            );
            layers.replay(
                "locality",
                &trace,
                LocalityCache::new(locality_config(), StreamFilter::UserOnly),
            );
            layers.replay(
                "sequence",
                &trace,
                SequenceProfiler::new(StreamFilter::UserOnly),
            );
            layers.replay(
                "footprint",
                &trace,
                FootprintCounter::new(128, StreamFilter::UserOnly),
            );
        }

        let mut jobs = vec![("sizes4w_user", sizes_4w(n, StreamFilter::UserOnly))];
        if full {
            jobs.push((
                "dm_user",
                SweepSpec::paper_grid(1)
                    .cpus(n)
                    .filter(StreamFilter::UserOnly),
            ));
            jobs.push(("sizes4w_all", sizes_4w(n, StreamFilter::All)));
            jobs.push(("sizes4w_kernel", sizes_4w(n, StreamFilter::KernelOnly)));
        }
        let mut user_cells = Vec::new();
        for (name, spec) in &jobs {
            let cells = layers.sweep(name, &stack, &trace, spec);
            if label == "base" {
                let oracle = layers.sweep("direct", &direct, &trace, spec);
                checks.check(
                    "sweep_engines_agree",
                    oracle == cells,
                    &format!("{label} {name}: stack vs direct"),
                );
            }
            if *name == "sizes4w_user" {
                user_cells = cells;
            }
        }

        if label == "base" {
            // The harness's once-per-evaluation run on the other VM tier.
            let engine = match study.machine_config().engine {
                VmEngine::Block => VmEngine::Interp,
                VmEngine::Interp => VmEngine::Block,
            };
            let mut fetches = TraceBuffer::fetch_only();
            let (s, outcome) = timed(|| {
                study.run_measured_with(&image, &study.base_kernel_image, &mut fetches, engine)
            });
            layers.add("vm", s);
            checks.run_ok(&format!("base ({} tier)", engine.label()), &outcome);
        }

        // Record once, analyse after: the replayed results must be the
        // ones the harness computed inline.
        checks.check(
            "replay_matches_inline",
            inline.0 == user_cells && inline.1 == *h64.stats(),
            &format!("{label}: size sweep and 21264 hierarchy"),
        );
    }
}

/// The `claims` kernel-layout run: the optimized kernel under the base
/// application, with the 21264 hierarchy inline as the figure runs it.
fn claims_kernel_run(layers: &mut Layers, checks: &mut Checks, study: &Study) {
    let (build_s, kernel) = timed(|| study.kernel_image(codelayout_core::OptimizationSet::ALL));
    layers.add("core", build_s);
    let mut sink = MemoryHierarchy::new(TimingModel::hierarchy_21264(study.scenario.num_cpus));
    let (s, outcome) = timed(|| study.run_measured(&study.base_image, &kernel, &mut sink));
    layers.add("vm", s);
    checks.run_ok("optimized kernel", &outcome);
}

/// A sink that only hides each record from the optimizer: the floor
/// cost of decoding and delivering a replayed trace.
struct OpaqueSink;

impl TraceSink for OpaqueSink {
    fn fetch(&mut self, rec: FetchRecord) {
        std::hint::black_box(rec);
    }

    fn data(&mut self, rec: DataRecord) {
        std::hint::black_box(rec);
    }
}

/// A sink keeping the first `cap` user-mode fetches, the tuner's replay
/// window.
struct WindowBuf {
    cap: usize,
    buf: TraceBuffer,
}

impl TraceSink for WindowBuf {
    fn fetch(&mut self, rec: FetchRecord) {
        if !rec.kernel && self.buf.len() < self.cap {
            self.buf.fetch(rec);
        }
    }
}

/// `tune`: the recording run, then every fixed series and every
/// trajectory candidate through build → link → validate → window sweep.
fn tune_replica(
    layers: &mut Layers,
    checks: &mut Checks,
    metrics: &mut Metrics,
    study: &Study,
    report: &TuneReport,
    wall_s: f64,
) {
    let program = &study.app.program;
    let mut sink = WindowBuf {
        cap: report.config.window as usize,
        buf: TraceBuffer::fetch_only(),
    };
    let (record_s, outcome) =
        timed(|| study.run_measured(&study.base_image, &study.base_kernel_image, &mut sink));
    layers.add("vm", record_s);
    checks.run_ok("tune recording run", &outcome);
    let window = sink.buf.freeze();
    checks.check(
        "tune_window",
        window.len() as u64 == report.window_events,
        &format!("{} events", window.len()),
    );
    let sweeper =
        ParallelSweep::new(report.config.sweep_threads).with_engine(report.config.sweep_engine);
    let spec = SweepSpec::grid()
        .sizes_kb(&TUNE_SIZES_KB)
        .line_b(codelayout_tune::EVAL_LINE_B)
        .ways(codelayout_tune::EVAL_WAYS)
        .cpus(study.scenario.num_cpus)
        .filter(StreamFilter::UserOnly);
    let base_cells = layers.sweep("window", &sweeper, &window, &spec);
    checks.check(
        "tune_base_score",
        base_cells
            .iter()
            .map(|c| c.stats.misses)
            .collect::<Vec<_>>()
            == report.base_cells,
        "base window replayed outside the tuner",
    );

    let (core0, ir0, an0) = (layers.get("core"), layers.get("ir"), layers.get("analysis"));
    for series in LayoutSeries::comparison() {
        let space = ParamSpace::for_series(series);
        let params = space.params(&space.default_point());
        layers.build_link_validate(checks, &format!("fixed `{series}`"), program, || {
            study.layout_series_params(series, &params)
        });
        layers.sweep("window", &sweeper, &window, &spec);
    }
    for c in &report.trajectory {
        let params = ParamSpace::for_series(c.series).params(&c.point);
        let (_, valid) = layers.build_link_validate(
            checks,
            &format!("candidate {} `{}`", c.candidate, c.series),
            program,
            || study.layout_series_params(c.series, &params),
        );
        if valid != c.validated {
            checks.check(
                "tune_candidate_validation",
                false,
                &format!("candidate {} disagrees with the tuner", c.candidate),
            );
        }
        layers.sweep("window", &sweeper, &window, &spec);
    }
    let replayed =
        layers.get("core") - core0 + layers.get("ir") - ir0 + layers.get("analysis") - an0;
    metrics.set("tune.score_s", wall_s - replayed, "s");

    let fams = &report.families;
    let hits: u64 = fams.iter().map(|f| f.cache_hits).sum();
    let evaluated: u64 = fams.iter().map(|f| f.evaluated).sum();
    metrics.set("tune.candidates", report.trajectory.len() as f64, "count");
    metrics.set(
        "tune.cache_hit_ratio",
        hits as f64 / (hits + evaluated).max(1) as f64,
        "ratio",
    );
    metrics.set(
        "tune.rejected",
        fams.iter().map(|f| f.rejected).sum::<u64>() as f64,
        "count",
    );
}

/// The evaluation cache of the serving loop: 8 KB direct-mapped, 32 B
/// lines, user stream.
fn serve_window_spec(num_cpus: usize) -> SweepSpec {
    SweepSpec::grid()
        .size_kb(8)
        .line_b(32)
        .ways(1)
        .cpus(num_cpus)
        .filter(StreamFilter::UserOnly)
}

/// One serving window, redone from outside the loop: restore the SGA
/// snapshot, pin the rotation, drain, check TPC-B, sweep. Returns (the
/// window's misses, the shared-memory snapshot after it).
#[allow(clippy::too_many_arguments)]
fn serve_window<H: ExecHook>(
    layers: &mut Layers,
    checks: &mut Checks,
    study: &Study,
    cfg: &ServeConfig,
    image: &Arc<Image>,
    snapshot: Option<&[i64]>,
    end_txn: u64,
    rotation: usize,
    hook: &mut H,
) -> (u64, Vec<i64>) {
    let mut trace = TraceBuffer::fetch_only();
    // Machine set-up (database load, snapshot restore) and the drain.
    let (vm_s, (report, m, sga)) = timed(|| {
        let (mut m, sga) =
            study.new_machine_with(image, &study.base_kernel_image, end_txn, cfg.vm_engine);
        if let Some(words_snapshot) = snapshot {
            m.load_shared(words_snapshot);
            m.set_shared_word(words::LIMIT, end_txn as i64);
            let committed = m.shared_word(words::HIST_NEXT);
            m.set_shared_word(words::COUNTER, committed);
        }
        SgaLayout::fill_variant_table_rotated(&mut m, study.scenario.scale.stmt_variants, rotation);
        let report = drain_chunks(&mut m, &mut trace, hook, cfg.sample_duty);
        (report, m, sga)
    });
    layers.add("vm", vm_s);
    let inv = sga.read_invariants(&m);
    checks.check(
        "tpcb_invariants",
        report.faults.is_empty() && inv.consistent() && inv.history_count as u64 == end_txn,
        &format!("serve window to txn {end_txn}"),
    );
    let sweeper = ParallelSweep::new(cfg.sweep_threads).with_engine(cfg.sweep_engine);
    let cells = layers.sweep(
        "window",
        &sweeper,
        &trace.freeze(),
        &serve_window_spec(study.scenario.num_cpus),
    );
    (cells[0].stats.misses, m.shared_mem().to_vec())
}

/// `serve`: the serving loop's epochs redone through public calls. The
/// sampled edge stream does not depend on the layout, so following the
/// report's re-layout decisions reproduces every deployed image, and the
/// per-epoch misses and recovery must match the report exactly.
fn serve_replica(
    layers: &mut Layers,
    checks: &mut Checks,
    metrics: &mut Metrics,
    study: &Study,
    cfg: &ServeConfig,
    report: &ServeReport,
) {
    let program = &study.app.program;
    let build = |profile: &Profile| LayoutPipeline::new(program, profile).build_series(cfg.series);
    let (initial, _) = layers.build_link_validate(checks, "initial deployment", program, || {
        build(&study.profile)
    });
    checks.check(
        "serve_replica",
        image_digest(&initial) == report.base_image_digest,
        "initial image digest",
    );

    let mut current = Arc::clone(&initial);
    let mut sampler = EdgeSampler::user(cfg.sample_period);
    let mut decayed = DecayedEdgeCounts::new(cfg.decay_num, cfg.decay_den);
    let mut snapshot: Option<Vec<i64>> = None;
    let mut last_snapshot = None;
    for e in &report.epochs {
        if e.epoch + 1 == report.epochs.len() as u64 {
            last_snapshot = snapshot.clone();
        }
        let (misses, shared) = serve_window(
            layers,
            checks,
            study,
            cfg,
            &current,
            snapshot.as_deref(),
            e.end_txn,
            e.rotation,
            &mut sampler,
        );
        snapshot = Some(shared);
        checks.check(
            "serve_replica",
            misses == e.misses,
            &format!("epoch {} misses {misses} vs {}", e.epoch, e.misses),
        );
        let shard = sampler.take_shard();
        decayed.decay();
        decayed.absorb(&shard);
        if e.relayout {
            let (profile_s, live) =
                timed(|| profile_from_edge_samples(program, &decayed, cfg.sample_period));
            layers.add("profile", profile_s);
            let (image, valid) = layers.build_link_validate(
                checks,
                &format!("epoch {} re-layout", e.epoch),
                program,
                || build(&live),
            );
            if valid && e.swapped {
                current = image;
            }
        }
    }
    checks.check(
        "serve_replica",
        image_digest(&current) == report.final_image_digest,
        "final image digest",
    );

    let end = cfg.total_txns();
    let last = report.epochs.last().expect("at least one epoch");
    let mut pixie = PixieCollector::user(program.blocks.len());
    let snap = last_snapshot.as_deref();
    let (stale, _) = serve_window(
        layers,
        checks,
        study,
        cfg,
        &initial,
        snap,
        end,
        last.rotation,
        &mut pixie,
    );
    let (oracle_image, _) =
        layers.build_link_validate(checks, "oracle layout", program, || build(pixie.profile()));
    let (oracle, _) = serve_window(
        layers,
        checks,
        study,
        cfg,
        &oracle_image,
        snap,
        end,
        last.rotation,
        &mut NullHook,
    );
    let (served, _) = serve_window(
        layers,
        checks,
        study,
        cfg,
        &current,
        snap,
        end,
        last.rotation,
        &mut NullHook,
    );
    checks.check(
        "serve_replica",
        recovery_milli(stale, served, oracle) == report.recovery.recovery_milli,
        &format!("recovery stale {stale} served {served} oracle {oracle}"),
    );

    let swap_ns: u64 = report.epochs.iter().map(|e| e.swap_wall_ns).sum();
    metrics.set("serve.relayouts", report.relayouts as f64, "count");
    metrics.set("serve.swaps", report.swaps as f64, "count");
    metrics.set("serve.swap_ms", swap_ns as f64 / 1e6, "ms");
    metrics.set(
        "serve.instructions",
        report.epochs.iter().map(|e| e.instructions).sum::<u64>() as f64,
        "count",
    );
    metrics.set(
        "profile.samples",
        report.epochs.iter().map(|e| e.samples).sum::<u64>() as f64,
        "count",
    );
}

/// Per-series build costs on the workload's study: every series built
/// (core), linked (ir) and validated (analysis). Not part of coverage.
fn series_probe(layers: &mut Layers, checks: &mut Checks, metrics: &mut Metrics, study: &Study) {
    let covered = layers.covered;
    for series in LayoutSeries::all() {
        let key = series_key(series);
        let core_before = layers.get("core");
        let (image, _) = layers.build_link_validate(
            checks,
            &format!("series `{series}`"),
            &study.app.program,
            || study.layout_series(series),
        );
        metrics.set(
            &format!("core.build_ms.{key}"),
            (layers.get("core") - core_before) * 1e3,
            "ms",
        );
        metrics.set(
            &format!("ir.text_bytes.{key}"),
            image.text_bytes() as f64,
            "bytes",
        );
    }
    layers.covered = covered;
}

/// Drains a fresh machine over transactions `[0, txns)` of the base
/// image with `drain_chunks`. Returns (seconds, instructions, code-cache
/// bytes).
fn drain_base<S: TraceSink, H: ExecHook>(
    checks: &mut Checks,
    study: &Study,
    txns: u64,
    engine: VmEngine,
    sink: &mut S,
    hook: &mut H,
) -> (f64, u64, usize) {
    let (mut m, sga) =
        study.new_machine_with(&study.base_image, &study.base_kernel_image, txns, engine);
    let (secs, report) = timed(|| drain_chunks(&mut m, sink, hook, 1));
    let inv = sga.read_invariants(&m);
    checks.check(
        "tpcb_invariants",
        report.faults.is_empty() && inv.consistent(),
        &format!("{} probe window", engine.label()),
    );
    let cache = m.code_cache_stats().map_or(0, |(_, bytes)| bytes);
    (secs, report.instructions, cache)
}

/// Like-for-like VM tiers on one window of the base image (median of
/// three each): pure execution with `NullSink`, fetch-only recording with
/// a `TraceBuffer`, the same sink and hook on both tiers; then the sampler
/// overhead (`EdgeSampler` over `NullHook`, same sink and window) and
/// the trace size with and without data references.
fn vm_probe(checks: &mut Checks, metrics: &mut Metrics, study: &Study, txns: u64) {
    let mut exec = BTreeMap::new();
    let mut record = BTreeMap::new();
    let mut sampled = Vec::new();
    let mut instructions = 0;
    let mut cache_bytes = 0;
    let mut fetch_bytes = 0;
    let period = ServeConfig::drift_demo(&study.scenario).sample_period;
    for _ in 0..3 {
        for engine in [VmEngine::Interp, VmEngine::Block] {
            let (s, insts, cache) =
                drain_base(checks, study, txns, engine, &mut NullSink, &mut NullHook);
            exec.entry(engine.label()).or_insert_with(Vec::new).push(s);
            instructions = insts;
            cache_bytes = cache_bytes.max(cache);
            let mut buf = TraceBuffer::fetch_only();
            buf.reserve(insts as usize);
            let (s, _, _) = drain_base(checks, study, txns, engine, &mut buf, &mut NullHook);
            record
                .entry(engine.label())
                .or_insert_with(Vec::new)
                .push(s);
            fetch_bytes = buf.size_bytes();
        }
        let engine = study.machine_config().engine;
        let mut buf = TraceBuffer::fetch_only();
        buf.reserve(instructions as usize);
        let mut sampler = EdgeSampler::user(period);
        let (s, _, _) = drain_base(checks, study, txns, engine, &mut buf, &mut sampler);
        sampled.push(s);
    }
    let mut full = TraceBuffer::new();
    drain_base(
        checks,
        study,
        txns,
        study.machine_config().engine,
        &mut full,
        &mut NullHook,
    );
    for (tier, xs) in &exec {
        metrics.set(&format!("vm.exec_s.{tier}"), median(xs), "s");
    }
    for (tier, xs) in &record {
        metrics.set(&format!("vm.record_s.{tier}"), median(xs), "s");
    }
    let own = record[study.machine_config().engine.label()].clone();
    metrics.set(
        "profile.sampler_overhead",
        median(&sampled) / median(&own),
        "ratio",
    );
    metrics.set("vm.instructions", instructions as f64, "count");
    metrics.set(
        "vm.minst_per_s",
        instructions as f64 / median(&exec["block"]) / 1e6,
        "Minst/s",
    );
    metrics.set("vm.code_cache_bytes", cache_bytes as f64, "bytes");
    metrics.set("vm.trace_bytes.fetch", fetch_bytes as f64, "bytes");
    metrics.set("vm.trace_bytes.full", full.size_bytes() as f64, "bytes");
    eprintln!(
        "vm: {instructions} instructions; exec interp {:.3}s block {:.3}s; record interp {:.3}s block {:.3}s",
        median(&exec["interp"]),
        median(&exec["block"]),
        median(&record["interp"]),
        median(&record["block"])
    );
}
