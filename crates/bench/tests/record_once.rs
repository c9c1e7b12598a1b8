//! Record once == inline: the harness executes each layout once into a
//! fetch + data trace and derives every measurement by replaying it.
//! For the fully-instrumented layouts (`base`, `all`) on the quick
//! scenario, every field of [`LayoutData`] must equal what the same
//! sinks report when they all watch the live run inline, through one
//! tee — the way the harness measured before it recorded.

use codelayout_bench::{locality_config, Harness, LayoutData, SIZES_KB};
use codelayout_core::LayoutSeries;
use codelayout_memsim::{
    FootprintCounter, HierarchyConfig, LocalityCache, MemoryHierarchy, SequenceProfiler,
    StreamFilter, SweepSink, SweepSpec,
};
use codelayout_oltp::Scenario;
use codelayout_timing::TimingModel;
use codelayout_vm::{CountingSink, TeeSink};

fn sizes_4w(num_cpus: usize, filter: StreamFilter) -> SweepSpec {
    SweepSpec::grid()
        .sizes_kb(&SIZES_KB)
        .line_b(128)
        .ways(4)
        .cpus(num_cpus)
        .filter(filter)
}

#[test]
fn harness_replay_equals_live_inline_tee() {
    let mut h = Harness::with_label(&Scenario::quick(), "quick");
    let n = h.study.scenario.num_cpus;
    for name in ["base", "all"] {
        let got: LayoutData = h.run(name).clone();

        let study = &h.study;
        let image = study.image_series(LayoutSeries::parse(name).expect("paper layout"));
        let mut user = SweepSink::from_spec(&sizes_4w(n, StreamFilter::UserOnly));
        let mut dm = SweepSink::from_spec(
            &SweepSpec::paper_grid(1)
                .cpus(n)
                .filter(StreamFilter::UserOnly),
        );
        let mut all = SweepSink::from_spec(&sizes_4w(n, StreamFilter::All));
        let mut kernel = SweepSink::from_spec(&sizes_4w(n, StreamFilter::KernelOnly));
        let mut simos = MemoryHierarchy::new(HierarchyConfig::simos_base(n));
        let mut h21264 = MemoryHierarchy::new(TimingModel::hierarchy_21264(n));
        let mut h21164 = MemoryHierarchy::new(TimingModel::hierarchy_21164(n));
        let mut seq = SequenceProfiler::new(StreamFilter::UserOnly);
        let mut locality = LocalityCache::new(locality_config(), StreamFilter::UserOnly);
        let mut fp = FootprintCounter::new(128, StreamFilter::UserOnly);
        let mut counts = CountingSink::default();
        let mut tee = TeeSink(
            TeeSink(
                TeeSink(&mut user, &mut dm),
                TeeSink(&mut all, TeeSink(&mut kernel, &mut counts)),
            ),
            TeeSink(
                TeeSink(&mut simos, TeeSink(&mut h21264, &mut h21164)),
                TeeSink(&mut seq, TeeSink(&mut locality, &mut fp)),
            ),
        );
        let outcome = study.run_measured(&image, &study.base_kernel_image, &mut tee);
        outcome.assert_correct();

        assert_eq!(got.text_bytes, image.text_bytes(), "{name}");
        assert_eq!(got.sizes_4w_user, user.results(), "{name}: user sizes");
        assert_eq!(got.dm_grid_user, dm.results(), "{name}: dm grid");
        assert_eq!(got.sizes_4w_all, all.results(), "{name}: combined sizes");
        assert_eq!(
            got.sizes_4w_kernel,
            kernel.results(),
            "{name}: kernel sizes"
        );
        assert_eq!(got.hier_simos, Some(*simos.stats()), "{name}: SimOS");
        assert_eq!(got.hier_21264, *h21264.stats(), "{name}: 21264");
        assert_eq!(got.hier_21164, *h21164.stats(), "{name}: 21164");
        assert_eq!(got.seq_user, Some(seq.finish()), "{name}: sequence");
        assert_eq!(got.locality, Some(locality.finish()), "{name}: locality");
        assert_eq!(
            got.footprint_line_bytes,
            Some(fp.line_footprint_bytes()),
            "{name}: line footprint"
        );
        assert_eq!(
            got.footprint_instr_bytes,
            Some(fp.instr_footprint_bytes()),
            "{name}: instruction footprint"
        );
        assert_eq!(got.kernel_fetches, counts.kernel_fetches, "{name}");
        assert_eq!(
            got.user_fetches,
            counts.fetches - counts.kernel_fetches,
            "{name}"
        );
        assert_eq!(got.outcome.report, outcome.report, "{name}: run report");
    }
}
