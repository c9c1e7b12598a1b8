//! Search-based layout autotuning: perturb the layout-construction
//! parameters ([`codelayout_core::ParamSpace`]) and keep whatever the
//! cache says is better.
//!
//! The paper's passes — and the two modern successors — all carry
//! magic constants (split thresholds, ext-TSP distance windows,
//! Codestitcher level budgets) inherited from their original papers'
//! SPEC-style workloads. This crate asks whether those constants are
//! right for *this* workload by direct search:
//!
//! 1. **Record once.** Run the measured transaction window on the
//!    baseline image and keep the first [`TuneConfig::window`] user-mode
//!    fetches as `(block, offset, cpu, pid)` tuples — a layout-independent
//!    representation of the control-flow the workload executed.
//! 2. **Remap + replay per candidate.** For each candidate parameter
//!    point, build the layout ([`codelayout_core::LayoutPipeline`]),
//!    link it, and run [`codelayout_analysis::validate_translation`]
//!    **unconditionally** (an invalid candidate scores `u64::MAX` and can
//!    never win). Then replay the window through the parallel cache
//!    sweep ([`codelayout_memsim::ParallelSweep::run_from`]) as a
//!    [`TraceSource`] that translates each recorded tuple into the
//!    candidate image's addresses as the sweep workers read it, so no
//!    per-candidate trace is built; the fitness is the summed miss count
//!    over the evaluation grid.
//! 3. **Search.** Per series family: evaluate the defaults first (the
//!    fixed series everyone ships), greedy coordinate descent from
//!    there, then seeded random restarts, under a per-family candidate
//!    budget. The RNG is `CODELAYOUT_SEED`-derived
//!    ([`rand::rngs::StdRng`], one stream per family) and duplicate
//!    points hit a per-family cache instead of consuming budget, so
//!    families share nothing mutable: they search concurrently, on up
//!    to [`TuneConfig::sweep_threads`] threads that take families in
//!    config order. After the join the trajectories are concatenated in
//!    config order, numbered, and every fresh evaluation is streamed as
//!    a `tune/candidate` tracer event in that order.
//!
//! The remap clamps an offset that exceeds the candidate block's length
//! (layouts erase or materialize unconditional jumps, so per-block
//! instruction counts differ by the terminator); jump instructions a
//! candidate adds are not replayed. The approximation is exact for
//! every block body and off by at most the terminator fetch, uniformly
//! across candidates.
//!
//! Everything in [`TuneReport::deterministic_json`] is bit-identical
//! across sweep engines and thread counts, and contains no wall-clock:
//! the search stops on the candidate budget alone, so the whole
//! trajectory is reproducible from the seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use codelayout_core::{LayoutParams, LayoutSeries, OptimizationSet, ParamPoint, ParamSpace};
use codelayout_ir::link::link;
use codelayout_ir::Image;
use codelayout_memsim::{ParallelSweep, StreamFilter, SweepEngine, SweepSpec};
use codelayout_obs::run_env;
use codelayout_oltp::{Scenario, Study};
use codelayout_vm::{FetchRecord, TraceSink, TraceSource, APP_TEXT_BASE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Cache sizes (KB) of the fitness-oracle grid. Deliberately extends
/// the paper's 32–512 KB sweep *downward*: layout quality shows up as
/// conflict and capacity misses, and a workload whose hot footprint
/// fits the smallest paper cache (the CI `quick` scenario does) would
/// otherwise present every candidate with identical compulsory-miss
/// counts and give the search no gradient at all.
pub const TUNE_SIZES_KB: [u64; 6] = [4, 8, 16, 32, 64, 128];
/// Line size (bytes) of the fitness-oracle cache grid: the paper's
/// 128-byte user sweep, the same geometry the comparison table reports.
pub const EVAL_LINE_B: u32 = 128;
/// Associativity of the fitness-oracle cache grid.
pub const EVAL_WAYS: u32 = 4;
/// Consecutive fruitless random restarts before a family's search stops
/// early (every draw landed on an already-evaluated point — the space is
/// effectively exhausted).
const STALE_RESTART_LIMIT: u32 = 20;

/// Configuration of one autotuning run.
#[derive(Debug, Clone)]
pub struct TuneConfig {
    /// Master seed; each family searches under `seed ^ fnv1a(label)`.
    pub seed: u64,
    /// Fresh candidate evaluations allowed per series family (cache hits
    /// are free).
    pub candidates: u64,
    /// Maximum user-mode fetch events kept from the recording run.
    pub window: u64,
    /// The series families to tune, searched in order.
    pub series: Vec<LayoutSeries>,
    /// Cache-replay engine for the fitness oracle (the stack default;
    /// tests select the direct oracle).
    pub sweep_engine: SweepEngine,
    /// Threads for the search: up to this many families search at once
    /// (the calling thread is one of them), and each family's cache
    /// replay gets `sweep_threads / families searching` workers (at
    /// least one). The report does not depend on it.
    pub sweep_threads: usize,
}

impl TuneConfig {
    /// Defaults for a scenario: the scenario's seed, 48 candidates per
    /// family, a one-million-event window, and the four
    /// tunable comparison families (`all`, `hotcold`, `exttsp`,
    /// `stitcher` — `base` has no knobs).
    pub fn for_scenario(scenario: &Scenario) -> Self {
        TuneConfig {
            seed: scenario.seed,
            candidates: 48,
            window: 1_000_000,
            series: vec![
                LayoutSeries::Paper(OptimizationSet::ALL),
                LayoutSeries::HotCold,
                LayoutSeries::ExtTsp,
                LayoutSeries::Stitcher,
            ],
            sweep_engine: SweepEngine::default(),
            sweep_threads: 1,
        }
    }

    /// [`TuneConfig::for_scenario`] with the `CODELAYOUT_SEED` and
    /// `CODELAYOUT_THREADS` environment knobs applied; the search budget
    /// is a field, set in code.
    pub fn from_env(scenario: &Scenario) -> Self {
        let env = run_env();
        let mut cfg = Self::for_scenario(scenario);
        if let Some(s) = env.seed {
            cfg.seed = s;
        }
        cfg.sweep_threads = env.sweep_threads();
        cfg
    }

    /// Configuration echo for manifests and figure JSON. Deterministic:
    /// engine and thread count are deliberately omitted (the report is
    /// byte-diffed across both).
    pub fn to_json(&self) -> Value {
        json!({
            "seed": self.seed,
            "candidates": self.candidates,
            "window": self.window,
            "series": self.series.iter().map(|s| s.label()).collect::<Vec<_>>(),
        })
    }
}

/// Why a candidate was evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateOrigin {
    /// The family's default point (the shipped fixed series).
    Default,
    /// A ±1 neighbor probed by greedy coordinate descent.
    Descent,
    /// A seeded random restart point.
    Restart,
}

impl CandidateOrigin {
    /// Stable lowercase label for JSON.
    pub fn label(self) -> &'static str {
        match self {
            CandidateOrigin::Default => "default",
            CandidateOrigin::Descent => "descent",
            CandidateOrigin::Restart => "restart",
        }
    }
}

/// One fresh candidate evaluation, in search order.
#[derive(Debug, Clone)]
pub struct CandidateRecord {
    /// Global evaluation index across all families, starting at 0.
    pub candidate: u64,
    /// The series family the candidate belongs to.
    pub series: LayoutSeries,
    /// The evaluated point.
    pub point: ParamPoint,
    /// Window miss count (`u64::MAX` for a rejected candidate).
    pub score: u64,
    /// True when the candidate became its family's best so far.
    pub accepted: bool,
    /// True when the linked image passed translation validation.
    pub validated: bool,
    /// How the search arrived at this point.
    pub origin: CandidateOrigin,
}

/// The outcome of one family's search.
#[derive(Debug, Clone)]
pub struct FamilyResult {
    /// The tuned series.
    pub series: LayoutSeries,
    /// Best point found.
    pub best_point: ParamPoint,
    /// Best point, materialized.
    pub best_params: LayoutParams,
    /// Window miss count of the best point.
    pub best_score: u64,
    /// Per-cell window misses of the best point (size-major over the
    /// evaluation grid).
    pub best_cells: Vec<u64>,
    /// Window miss count of the default point (the fixed series).
    pub default_score: u64,
    /// Fresh evaluations spent.
    pub evaluated: u64,
    /// Duplicate points served from the cache.
    pub cache_hits: u64,
    /// Candidates rejected by translation validation.
    pub rejected: u64,
}

/// One fixed comparison series evaluated through the same window
/// oracle the search uses (same remap, same grid): the yardstick the
/// tuned layouts must beat.
#[derive(Debug, Clone)]
pub struct FixedResult {
    /// The fixed series.
    pub series: LayoutSeries,
    /// Window miss count under default parameters.
    pub score: u64,
    /// Per-cell window misses (size-major over [`TUNE_SIZES_KB`]).
    pub cells: Vec<u64>,
}

/// The full autotuning outcome.
#[derive(Debug, Clone)]
pub struct TuneReport {
    /// The configuration searched under.
    pub config: TuneConfig,
    /// User-mode fetch events in the replay window.
    pub window_events: u64,
    /// Window miss count of the baseline (natural-layout) image.
    pub base_score: u64,
    /// Per-cell window misses of the baseline image.
    pub base_cells: Vec<u64>,
    /// Every fixed comparison series scored by the same oracle, in
    /// [`LayoutSeries::comparison`] order.
    pub fixed: Vec<FixedResult>,
    /// Per-family results, in [`TuneConfig::series`] order.
    pub families: Vec<FamilyResult>,
    /// Every fresh evaluation, in search order.
    pub trajectory: Vec<CandidateRecord>,
    /// Wall time of the whole tune. **Not** part of
    /// [`TuneReport::deterministic_json`].
    pub wall_ms: u64,
}

/// Dotted-name → value object of the knobs a family's space controls,
/// in coordinate order.
pub fn params_json(space: &ParamSpace, params: &LayoutParams) -> Value {
    let mut map = serde_json::Map::new();
    for k in space.knobs() {
        map.insert(k.name().to_string(), Value::from(k.get(params)));
    }
    Value::from(map)
}

impl TuneReport {
    /// The family whose best point has the lowest window miss count
    /// (ties break toward the earlier family — deterministic).
    pub fn winner(&self) -> Option<&FamilyResult> {
        self.families.iter().min_by_key(|f| f.best_score)
    }

    /// The report as JSON, bit-identical across sweep engines and thread
    /// counts, with no wall-clock anywhere (the figure-grid CI byte-diffs
    /// this across engines).
    pub fn deterministic_json(&self) -> Value {
        json!({
            "config": self.config.to_json(),
            "sizes_kb": &TUNE_SIZES_KB[..],
            "window_events": self.window_events,
            "base": { "score": self.base_score, "cells": &self.base_cells },
            "fixed": self.fixed.iter().map(|f| json!({
                "series": f.series.label(),
                "score": f.score,
                "cells": &f.cells,
            })).collect::<Vec<_>>(),
            "families": self.families.iter().map(|f| {
                let space = ParamSpace::for_series(f.series);
                json!({
                    "series": f.series.label(),
                    "best_point": f.best_point.indices(),
                    "best_params": params_json(&space, &f.best_params),
                    "best_score": f.best_score,
                    "best_cells": &f.best_cells,
                    "default_score": f.default_score,
                    "evaluated": f.evaluated,
                    "cache_hits": f.cache_hits,
                    "rejected": f.rejected,
                })
            }).collect::<Vec<_>>(),
            "trajectory": self.trajectory.iter().map(|c| json!({
                "candidate": c.candidate,
                "series": c.series.label(),
                "point": c.point.indices(),
                "score": c.score,
                "accepted": c.accepted,
                "validated": c.validated,
                "origin": c.origin.label(),
            })).collect::<Vec<_>>(),
        })
    }
}

/// One recorded user-mode fetch, in layout-independent coordinates.
#[derive(Debug, Clone, Copy)]
struct WindowEvent {
    /// Block index in the program.
    block: u32,
    /// Instruction offset from the block's start in the recording image.
    off: u32,
    cpu: u8,
    pid: u8,
}

/// A [`TraceSink`] keeping the first `cap` user-mode fetches as
/// [`WindowEvent`]s, resolved against the recording image.
struct WindowSink<'a> {
    image: &'a Image,
    cap: usize,
    events: Vec<WindowEvent>,
}

impl TraceSink for WindowSink<'_> {
    fn fetch(&mut self, rec: FetchRecord) {
        if rec.kernel || self.events.len() >= self.cap {
            return;
        }
        let Some(idx) = self.image.index_of(rec.addr) else {
            return;
        };
        let b = self.image.block_of[idx as usize];
        self.events.push(WindowEvent {
            block: b.index() as u32,
            off: idx - self.image.block_start[b.index()],
            cpu: rec.cpu,
            pid: rec.pid,
        });
    }
}

/// Per-block instruction counts of an image (lengths differ across
/// layouts: erased fall-through jumps and materialized branches live in
/// the terminator).
fn block_lengths(image: &Image, nblocks: usize) -> Vec<u32> {
    let mut len = vec![0u32; nblocks];
    for &b in &image.block_of {
        len[b.index()] += 1;
    }
    len
}

/// FNV-1a of a label, for per-family RNG stream separation.
fn fnv1a(s: &str) -> u64 {
    codelayout_obs::manifest::fnv1a64(s.as_bytes())
}

/// The fitness oracle: the read-only state every family search shares.
struct Oracle<'a> {
    study: &'a Study,
    spec: SweepSpec,
    window: Vec<WindowEvent>,
    nblocks: usize,
}

impl Oracle<'_> {
    /// Replays the window remapped onto `image`; returns (total misses,
    /// per-cell misses).
    fn replay(&self, sweeper: &ParallelSweep, image: &Image) -> (u64, Vec<u64>) {
        let source = RemappedWindow {
            window: &self.window,
            image,
            len: block_lengths(image, self.nblocks),
        };
        let cells = sweeper.run_one(&source, &self.spec);
        let per_cell: Vec<u64> = cells.iter().map(|c| c.stats.misses).collect();
        (per_cell.iter().sum(), per_cell)
    }
}

/// The window translated into a candidate image's addresses, as a
/// [`TraceSource`]: each sweep worker remaps the events while it
/// replays them, so no per-candidate trace is ever built.
struct RemappedWindow<'a> {
    window: &'a [WindowEvent],
    image: &'a Image,
    /// Per-block instruction counts of `image`.
    len: Vec<u32>,
}

impl TraceSource for RemappedWindow<'_> {
    fn replay_into<S: TraceSink + ?Sized>(&self, sink: &mut S) {
        let last = self.image.len() as u32 - 1;
        for ev in self.window {
            let b = ev.block as usize;
            let off = ev.off.min(self.len[b].saturating_sub(1));
            let idx = (self.image.block_start[b] + off).min(last);
            sink.fetch(FetchRecord {
                addr: self.image.addr(idx),
                cpu: ev.cpu,
                pid: ev.pid,
                kernel: false,
            });
        }
    }

    fn events(&self) -> usize {
        self.window.len()
    }
}

/// One family's search state. Families share nothing mutable, so they
/// can run on different threads with identical results.
struct FamilySearch {
    series: LayoutSeries,
    space: ParamSpace,
    seed: u64,
    budget: u64,
    sweeper: ParallelSweep,
    cache: BTreeMap<ParamPoint, u64>,
    evaluated: u64,
    cache_hits: u64,
    rejected: u64,
    best: Option<(ParamPoint, u64, Vec<u64>)>,
    default_score: u64,
    /// This family's fresh evaluations, numbered from 0 within the
    /// family; `run_tune` renumbers them globally.
    trajectory: Vec<CandidateRecord>,
}

impl FamilySearch {
    /// Evaluates one point: cache hit is free, a fresh evaluation spends
    /// budget, builds + links + validates + replays, and appends to the
    /// trajectory. Returns `None` when out of candidate budget.
    fn eval(
        &mut self,
        oracle: &Oracle<'_>,
        point: &ParamPoint,
        origin: CandidateOrigin,
    ) -> Option<u64> {
        if let Some(&score) = self.cache.get(point) {
            self.cache_hits += 1;
            return Some(score);
        }
        if self.evaluated >= self.budget {
            return None;
        }
        let params = self.space.params(point);
        let layout = oracle.study.layout_series_params(self.series, &params);
        // Validation is unconditional for every candidate — a layout the
        // validator rejects can never win, whatever the cache says.
        let image = link(&oracle.study.app.program, &layout, APP_TEXT_BASE).ok();
        let validate_span = codelayout_obs::span("tune_validate");
        let image = image.filter(|image| {
            codelayout_analysis::validate_translation(&oracle.study.app.program, &layout, image)
                .is_ok()
        });
        validate_span.finish();
        let (score, cells, validated) = match image {
            Some(image) => {
                let _replay_span = codelayout_obs::span("tune_replay");
                let (score, cells) = oracle.replay(&self.sweeper, &image);
                (score, cells, true)
            }
            None => (u64::MAX, Vec::new(), false),
        };
        self.evaluated += 1;
        if !validated {
            self.rejected += 1;
        }
        let accepted = validated && self.best.as_ref().is_none_or(|(_, s, _)| score < *s);
        if accepted {
            self.best = Some((point.clone(), score, cells));
        }
        self.trajectory.push(CandidateRecord {
            candidate: self.trajectory.len() as u64,
            series: self.series,
            point: point.clone(),
            score,
            accepted,
            validated,
            origin,
        });
        self.cache.insert(point.clone(), score);
        Some(score)
    }

    /// Greedy coordinate descent from `start`: probe each knob's ±1
    /// neighbors in order, move on strict improvement, repeat until a
    /// full pass makes no move (or the budget runs out).
    fn descend(&mut self, oracle: &Oracle<'_>, start: ParamPoint) {
        let Some(mut cur_score) = self.eval(oracle, &start, CandidateOrigin::Restart) else {
            return;
        };
        let mut cur = start;
        loop {
            let mut improved = false;
            for knob in 0..self.space.len() {
                for delta in [-1i64, 1] {
                    let Some(next) = cur.step(&self.space, knob, delta) else {
                        continue;
                    };
                    let Some(s) = self.eval(oracle, &next, CandidateOrigin::Descent) else {
                        return;
                    };
                    if s < cur_score {
                        cur = next;
                        cur_score = s;
                        improved = true;
                    }
                }
            }
            if !improved {
                return;
            }
        }
    }

    /// The full family search: default point, descent, random restarts.
    fn run(&mut self, oracle: &Oracle<'_>) {
        let default = self.space.default_point();
        if self
            .eval(oracle, &default, CandidateOrigin::Default)
            .is_none()
        {
            return;
        }
        self.default_score = self.cache[&default];
        self.descend(oracle, default);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut stale = 0u32;
        while self.evaluated < self.budget && stale < STALE_RESTART_LIMIT {
            let idx: Vec<u32> = self
                .space
                .knobs()
                .iter()
                .map(|k| rng.gen_range(0..k.values().len()) as u32)
                .collect();
            let before = self.evaluated;
            self.descend(oracle, ParamPoint::new(&self.space, idx));
            if self.evaluated == before {
                stale += 1;
            } else {
                stale = 0;
            }
        }
    }
}

/// Runs the family searches on the calling thread plus up to
/// `sweep_threads - 1` scoped workers. Each thread takes the next
/// family in config order until none is left; the searches come back
/// in config order. Workers adopt the caller's span path, so their
/// phases nest exactly as a serial search's would.
fn search_families(
    oracle: &Oracle<'_>,
    families: Vec<FamilySearch>,
    workers: usize,
) -> Vec<FamilySearch> {
    let families: Vec<Mutex<FamilySearch>> = families.into_iter().map(Mutex::new).collect();
    let next = AtomicUsize::new(0);
    let work = || {
        // The counter only hands out indices; each family's data is
        // published by its mutex, so relaxed ordering suffices.
        while let Some(fam) = families.get(next.fetch_add(1, Ordering::Relaxed)) {
            fam.lock().expect("a family search panicked").run(oracle);
        }
    };
    let parent = codelayout_obs::span_path();
    std::thread::scope(|s| {
        for _ in 1..workers {
            let parent = parent.as_deref();
            s.spawn(move || {
                let _adopted = parent.map(|p| codelayout_obs::tracer().adopt(p));
                work();
            });
        }
        work();
    });
    families
        .into_iter()
        .map(|fam| fam.into_inner().expect("a family search panicked"))
        .collect()
}

/// Streams one reported candidate as a `tune/candidate` tracer event and
/// counts it.
fn emit_candidate(rec: &CandidateRecord) {
    let space = ParamSpace::for_series(rec.series);
    codelayout_obs::tracer().event(
        "tune/candidate",
        json!({
            "candidate": rec.candidate,
            "series": rec.series.label(),
            "point": rec.point.indices(),
            "params": params_json(&space, &space.params(&rec.point)),
            "score": if rec.validated { json!(rec.score) } else { json!(null) },
            "accepted": rec.accepted,
            "validated": rec.validated,
            "origin": rec.origin.label(),
        }),
    );
    let m = codelayout_obs::metrics();
    m.add("tune.candidates", 1);
    if !rec.validated {
        m.add("tune.rejected", 1);
    }
}

/// Runs the autotuner over a built study.
///
/// Records the replay window from a measured run on the baseline image,
/// then searches each family in [`TuneConfig::series`] (families with no
/// knobs, like `base`, are skipped). Families search concurrently on up
/// to [`TuneConfig::sweep_threads`] threads; the report, and the order
/// of the `tune/candidate` events, are those of a serial search in
/// config order.
///
/// # Panics
/// Panics if the recording run produced no user-mode fetches.
pub fn run_tune(study: &Study, cfg: &TuneConfig) -> TuneReport {
    let _span = codelayout_obs::span("tune");
    let start = Instant::now();

    let record_span = codelayout_obs::span("tune_record");
    let mut sink = WindowSink {
        image: &study.base_image,
        cap: cfg.window as usize,
        events: Vec::new(),
    };
    // Sized once up front: a vector that grows by doubling while the
    // recording VM allocates around it strands the VM's freed memory as
    // resident, and the family workers' malloc arenas cannot reuse it.
    // A window too large to reserve falls back to growing.
    let _ = sink.events.try_reserve_exact(sink.cap);
    study.run_measured(&study.base_image, &study.base_kernel_image, &mut sink);
    record_span.finish();
    assert!(
        !sink.events.is_empty(),
        "recording run produced no user-mode fetches"
    );

    let oracle = Oracle {
        study,
        spec: SweepSpec::grid()
            .sizes_kb(&TUNE_SIZES_KB)
            .line_b(EVAL_LINE_B)
            .ways(EVAL_WAYS)
            .cpus(study.scenario.num_cpus)
            .filter(StreamFilter::UserOnly),
        window: sink.events,
        nblocks: study.app.program.blocks.len(),
    };
    let window_events = oracle.window.len() as u64;
    let sweeper = ParallelSweep::new(cfg.sweep_threads).with_engine(cfg.sweep_engine);
    let (base_score, base_cells) = oracle.replay(&sweeper, &study.base_image);

    // Score every fixed comparison series through the same oracle: the
    // yardstick the tuned layouts must beat, on the same window and
    // grid, so the comparison is apples-to-apples and deterministic.
    let fixed_span = codelayout_obs::span("tune_fixed");
    let mut fixed = Vec::new();
    for series in LayoutSeries::comparison() {
        let space = ParamSpace::for_series(series);
        let params = space.params(&space.default_point());
        let layout = study.layout_series_params(series, &params);
        let image = link(&study.app.program, &layout, APP_TEXT_BASE)
            .expect("fixed comparison series layouts are valid permutations");
        codelayout_analysis::validate_translation(&study.app.program, &layout, &image)
            .unwrap_or_else(|e| {
                panic!("fixed `{series}` image failed translation validation: {e}")
            });
        let (score, cells) = oracle.replay(&sweeper, &image);
        fixed.push(FixedResult {
            series,
            score,
            cells,
        });
    }
    fixed_span.finish();

    let search_span = codelayout_obs::span("tune_search");
    let spaces: Vec<(LayoutSeries, ParamSpace)> = cfg
        .series
        .iter()
        .map(|&series| (series, ParamSpace::for_series(series)))
        .filter(|(_, space)| !space.is_empty())
        .collect();
    let workers = cfg.sweep_threads.clamp(1, spaces.len().max(1));
    let family_sweeper =
        ParallelSweep::new(cfg.sweep_threads / workers).with_engine(cfg.sweep_engine);
    let searches = spaces
        .into_iter()
        .map(|(series, space)| FamilySearch {
            series,
            space,
            seed: cfg.seed ^ fnv1a(series.label()),
            budget: cfg.candidates,
            sweeper: family_sweeper.clone(),
            cache: BTreeMap::new(),
            evaluated: 0,
            cache_hits: 0,
            rejected: 0,
            best: None,
            default_score: u64::MAX,
            trajectory: Vec::new(),
        })
        .collect();
    let mut families = Vec::new();
    let mut trajectory = Vec::new();
    for fam in search_families(&oracle, searches, workers) {
        for mut rec in fam.trajectory {
            rec.candidate = trajectory.len() as u64;
            emit_candidate(&rec);
            trajectory.push(rec);
        }
        let Some((best_point, best_score, best_cells)) = fam.best else {
            // Budget ran out before even the default evaluated.
            break;
        };
        codelayout_obs::metrics().add("tune.families", 1);
        families.push(FamilyResult {
            series: fam.series,
            best_params: fam.space.params(&best_point),
            best_point,
            best_score,
            best_cells,
            default_score: fam.default_score,
            evaluated: fam.evaluated,
            cache_hits: fam.cache_hits,
            rejected: fam.rejected,
        });
    }
    search_span.finish();

    TuneReport {
        config: cfg.clone(),
        window_events,
        base_score,
        base_cells,
        fixed,
        families,
        trajectory,
        wall_ms: start.elapsed().as_millis() as u64,
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_labels_are_stable() {
        assert_eq!(CandidateOrigin::Default.label(), "default");
        assert_eq!(CandidateOrigin::Descent.label(), "descent");
        assert_eq!(CandidateOrigin::Restart.label(), "restart");
    }

    #[test]
    fn fnv_separates_family_streams() {
        let labels = ["all", "hotcold", "exttsp", "stitcher"];
        for a in labels {
            for b in labels {
                assert_eq!(a == b, fnv1a(a) == fnv1a(b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn remapped_window_replays_the_materialized_remap() {
        let study = codelayout_oltp::build_study(&Scenario::quick());
        let mut sink = WindowSink {
            image: &study.base_image,
            cap: 200_000,
            events: Vec::new(),
        };
        study.run_measured(&study.base_image, &study.base_kernel_image, &mut sink);
        let window = sink.events;
        let nblocks = study.app.program.blocks.len();
        let layout = study.layout_series_params(
            LayoutSeries::Paper(OptimizationSet::CHAIN),
            &LayoutParams::default(),
        );
        let image = link(&study.app.program, &layout, APP_TEXT_BASE).expect("chained layout links");
        let len = block_lengths(&image, nblocks);
        assert!(
            window.iter().any(|ev| ev.off >= len[ev.block as usize]),
            "no offset needed the clamp: the test would not cover it"
        );

        // Reference: the remap materialized into a trace buffer first.
        let last = image.len() as u32 - 1;
        let mut buf = codelayout_vm::TraceBuffer::fetch_only();
        for ev in &window {
            let b = ev.block as usize;
            let off = ev.off.min(len[b].saturating_sub(1));
            let idx = (image.block_start[b] + off).min(last);
            buf.fetch(FetchRecord {
                addr: image.addr(idx),
                cpu: ev.cpu,
                pid: ev.pid,
                kernel: false,
            });
        }
        let mut expected = codelayout_vm::RecordingSink::default();
        buf.freeze().replay(&mut expected);

        let source = RemappedWindow {
            window: &window,
            image: &image,
            len,
        };
        let mut got = codelayout_vm::RecordingSink::default();
        source.replay_into(&mut got);
        assert_eq!(source.events(), window.len());
        assert_eq!(got.fetches, expected.fetches);
    }

    #[test]
    fn config_json_has_no_engine_or_wall_fields() {
        let cfg = TuneConfig::for_scenario(&Scenario::quick());
        let v = cfg.to_json();
        let obj = v.as_object().expect("config echo is an object");
        assert!(obj.contains_key("seed"));
        assert!(!obj.contains_key("sweep_engine"));
        assert!(!obj.contains_key("sweep_threads"));
    }
}
