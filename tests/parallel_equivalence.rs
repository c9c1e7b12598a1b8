//! Serial-equivalence of the parallel sweep engines.
//!
//! The contract under test: recording a workload's fetch stream once
//! and replaying it through [`ParallelSweep`] produces **bit-identical**
//! statistics to the serial [`SweepSink`]s that observed the live run —
//! for every paper layout tried, every stream filter, any worker
//! thread count, and **both** replay engines (the direct
//! per-configuration simulators and the single-pass stack-distance
//! profiler). This is the property that lets the experiment harness
//! swap its live grid simulations for parallel stack-distance replay
//! without changing a single figure.
//!
//! The same contract covers the harness's other analyses — the three
//! memory hierarchies, the sequence profiler, the locality cache and the
//! footprint counter: replayed from the recorded fetch + data trace on
//! [`ParallelSweep::replay_sinks`] at any thread count, each equals the
//! same sink fed by the live run.

use codelayout::memsim::{
    FootprintCounter, HierarchyConfig, HierarchyStats, LocalityCache, LocalityStats,
    MemoryHierarchy, ParallelSweep, SequenceProfiler, SequenceStats, StreamFilter, SweepCell,
    SweepEngine, SweepSink, SweepSpec,
};
use codelayout::oltp::{build_study, Scenario};
use codelayout::opt::OptimizationSet;
use codelayout::timing::TimingModel;
use codelayout::vm::{TeeSink, TraceBuffer, TraceSink};

/// The six non-grid analyses of the bench harness, configured as it
/// configures them.
struct Analyses {
    simos: MemoryHierarchy,
    h21264: MemoryHierarchy,
    h21164: MemoryHierarchy,
    seq: SequenceProfiler,
    locality: LocalityCache,
    fp: FootprintCounter,
}

/// Everything [`Analyses`] measured, comparable with `==`.
type AnalysisResults = (
    [HierarchyStats; 3],
    SequenceStats,
    LocalityStats,
    (usize, usize),
);

impl Analyses {
    fn new(num_cpus: usize) -> Self {
        Analyses {
            simos: MemoryHierarchy::new(HierarchyConfig::simos_base(num_cpus)),
            h21264: MemoryHierarchy::new(TimingModel::hierarchy_21264(num_cpus)),
            h21164: MemoryHierarchy::new(TimingModel::hierarchy_21164(num_cpus)),
            seq: SequenceProfiler::new(StreamFilter::UserOnly),
            locality: LocalityCache::new(
                codelayout::memsim::CacheConfig::new(128 * 1024, 128, 4),
                StreamFilter::UserOnly,
            ),
            fp: FootprintCounter::new(128, StreamFilter::UserOnly),
        }
    }

    /// All six behind one static tee, for the live pass.
    fn tee(&mut self) -> impl TraceSink + '_ {
        TeeSink(
            TeeSink(&mut self.simos, TeeSink(&mut self.h21264, &mut self.h21164)),
            TeeSink(&mut self.seq, TeeSink(&mut self.locality, &mut self.fp)),
        )
    }

    /// All six as separate sinks, for the pooled replay.
    fn sinks(&mut self) -> Vec<&mut (dyn TraceSink + Send)> {
        vec![
            &mut self.simos,
            &mut self.h21264,
            &mut self.h21164,
            &mut self.seq,
            &mut self.locality,
            &mut self.fp,
        ]
    }

    fn results(self) -> AnalysisResults {
        (
            [
                *self.simos.stats(),
                *self.h21264.stats(),
                *self.h21164.stats(),
            ],
            self.seq.finish(),
            self.locality.finish(),
            (self.fp.unique_lines(), self.fp.unique_instructions()),
        )
    }
}

/// A reduced OLTP scenario with more than one CPU, so the per-CPU cache
/// sharding (`cpu % num_cpus`) is actually exercised.
fn small_multicpu_scenario() -> Scenario {
    Scenario {
        num_cpus: 2,
        ..Scenario::quick()
    }
}

#[test]
fn parallel_sweep_is_bit_identical_to_live_serial_sinks() {
    let scenario = small_multicpu_scenario();
    let study = build_study(&scenario);
    let num_cpus = scenario.num_cpus;

    let grids: [SweepSpec; 3] = [
        SweepSpec::paper_grid(1)
            .cpus(num_cpus)
            .filter(StreamFilter::UserOnly),
        SweepSpec::paper_grid(4).cpus(num_cpus),
        SweepSpec::paper_grid(2)
            .cpus(num_cpus)
            .filter(StreamFilter::KernelOnly),
    ];

    let layouts = ["base", "chain", "chain+porder", "all"];
    for name in layouts {
        let set = OptimizationSet::paper_series()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s)
            .unwrap_or_else(|| panic!("unknown paper layout {name}"));
        let image = study.image(set);

        // Live pass: serial sweeps and the analyses observe the run
        // directly while the trace buffer records the same stream.
        let mut s0 = SweepSink::from_spec(&grids[0]);
        let mut s1 = SweepSink::from_spec(&grids[1]);
        let mut s2 = SweepSink::from_spec(&grids[2]);
        let mut live = Analyses::new(num_cpus);
        let mut buf = TraceBuffer::new();
        let mut tee = TeeSink(
            &mut buf,
            TeeSink(TeeSink(&mut s0, TeeSink(&mut s1, &mut s2)), live.tee()),
        );
        let outcome = study.run_measured(&image, &study.base_kernel_image, &mut tee);
        drop(tee);
        outcome.assert_correct();
        let trace = buf.freeze();
        assert!(!trace.is_empty(), "{name}: trace must record the run");
        let live = live.results();
        assert!(
            live.0.iter().all(|h| h.data_accesses > 0),
            "{name}: live hierarchies saw no data references"
        );
        for threads in [1, 2, 7] {
            let mut replayed = Analyses::new(num_cpus);
            ParallelSweep::new(threads).replay_sinks(&trace, replayed.sinks());
            assert_eq!(
                replayed.results(),
                live,
                "{name}: pooled analysis replay at {threads} threads"
            );
        }

        let expected: Vec<Vec<SweepCell>> = vec![s0.results(), s1.results(), s2.results()];
        // Spot-check the expectation is non-trivial.
        assert!(
            expected[0].iter().any(|c| c.stats.misses > 0),
            "{name}: live sweep saw no misses — scenario too small to test anything"
        );

        for (threads, engine) in [
            (1usize, SweepEngine::Direct),
            (2, SweepEngine::Direct),
            (7, SweepEngine::Direct),
            (1, SweepEngine::Stack),
            (2, SweepEngine::Stack),
            (7, SweepEngine::Stack),
        ] {
            let got = ParallelSweep::new(threads)
                .with_engine(engine)
                .run(&trace, &grids);
            // SweepCell's PartialEq covers config and every stats field
            // (accesses, misses, misses_by_class, displaced); compare
            // field-by-field anyway so a failure names the culprit.
            for (g, (got_cells, exp_cells)) in got.iter().zip(expected.iter()).enumerate() {
                assert_eq!(got_cells.len(), exp_cells.len());
                for (a, b) in got_cells.iter().zip(exp_cells.iter()) {
                    assert_eq!(
                        a.config, b.config,
                        "{name} grid {g} threads {threads} {engine:?}"
                    );
                    let ctx = format!(
                        "{name} grid {g} config {:?} threads {threads} engine {engine:?}",
                        a.config
                    );
                    assert_eq!(a.stats.accesses, b.stats.accesses, "accesses: {ctx}");
                    assert_eq!(a.stats.misses, b.stats.misses, "misses: {ctx}");
                    assert_eq!(
                        a.stats.misses_by_class, b.stats.misses_by_class,
                        "misses_by_class: {ctx}"
                    );
                    assert_eq!(a.stats.displaced, b.stats.displaced, "displaced: {ctx}");
                }
                assert_eq!(
                    got_cells, exp_cells,
                    "{name} grid {g} threads {threads} engine {engine:?}"
                );
            }
        }
    }
}

#[test]
fn replaying_the_same_trace_twice_is_deterministic() {
    let scenario = small_multicpu_scenario();
    let study = build_study(&scenario);
    let image = study.image(OptimizationSet::ALL);
    let mut buf = TraceBuffer::fetch_only();
    study
        .run_measured(&image, &study.base_kernel_image, &mut buf)
        .assert_correct();
    let trace = buf.freeze();
    let jobs = [SweepSpec::paper_grid(2).cpus(scenario.num_cpus)];
    let sweeper = ParallelSweep::new(3);
    assert_eq!(sweeper.run(&trace, &jobs), sweeper.run(&trace, &jobs));
}
