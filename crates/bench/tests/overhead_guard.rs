//! Observability overhead guard: spans on vs off.
//!
//! The design claim is that tracing costs the replay nothing per event:
//! each sweep worker opens one `sweep_worker` span around its whole
//! replay, the join adds one counter, and the per-event replay loop
//! carries no instrumentation at all. This test holds the
//! implementation to that claim two ways:
//!
//! 1. **Bit-identical results** — a sweep replayed with observability
//!    enabled produces exactly the same cells as one replayed with it
//!    disabled.
//! 2. **<5% throughput cost** — paired, order-alternated wall times for
//!    the two modes differ by less than 5% in the median.
//!
//! The true cost is ~0% (the per-event path is identical code), but a
//! shared host's wall-clock noise is of the same order as the budget, so
//! a single measurement can read high during a load burst. Noise only
//! inflates the estimate (pairing and the median already cancel drift
//! and outlier rounds), so the guard takes up to three measurement
//! attempts: instrumentation that genuinely cost 5%+ would fail all
//! three. This mirrors the sampling overhead guard in `codelayout-serve`.
//!
//! This file holds exactly one test: it toggles the process-global
//! enabled flag, so it must not share a process with tests that expect
//! observability to stay on.

use codelayout_memsim::{ParallelSweep, StreamFilter, SweepCell, SweepSpec};
use codelayout_vm::{FetchRecord, FrozenTrace, TraceBuffer, TraceSink};
use std::time::Instant;

/// A mixed user/kernel multi-CPU trace big enough that a sweep over it
/// takes a few milliseconds even in debug builds.
fn test_trace(events: u64) -> FrozenTrace {
    let mut buf = TraceBuffer::new();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..events {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let kernel = x.is_multiple_of(5);
        let base = if kernel { 0x8000_0000 } else { 0x40_0000 };
        buf.fetch(FetchRecord {
            addr: (base + x % (256 * 1024)) & !3,
            cpu: (i % 4) as u8,
            pid: (i % 8) as u8,
            kernel,
        });
    }
    buf.freeze()
}

/// One overhead measurement: the median over paired, order-alternated
/// rounds of (spans-on wall time / spans-off wall time). Pairing the
/// modes within a round cancels load drift, alternating the order
/// cancels within-round drift, and the median discards outlier rounds.
/// Every timed sweep is also checked against `expected`.
fn measure_median_ratio(
    sweeper: &ParallelSweep,
    trace: &FrozenTrace,
    jobs: &[SweepSpec],
    expected: &[Vec<SweepCell>],
) -> f64 {
    const ROUNDS: usize = 8;
    let time_unit = |obs_on: bool| -> f64 {
        codelayout_obs::set_enabled(obs_on);
        let t = Instant::now();
        let r = sweeper.run(trace, jobs);
        let secs = t.elapsed().as_secs_f64();
        assert_eq!(r, expected, "observability changed sweep results");
        secs
    };
    let mut ratios = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let (off, on) = if round % 2 == 0 {
            let off = time_unit(false);
            (off, time_unit(true))
        } else {
            let on = time_unit(true);
            (time_unit(false), on)
        };
        ratios.push(on / off);
    }
    codelayout_obs::set_enabled(true);
    ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (ratios[ROUNDS / 2 - 1] + ratios[ROUNDS / 2]) / 2.0
}

#[test]
fn instrumented_replay_is_bit_identical_and_within_5pct() {
    let trace = test_trace(400_000);
    let jobs = vec![
        SweepSpec::paper_grid(1)
            .cpus(4)
            .filter(StreamFilter::UserOnly),
        SweepSpec::grid().size_kb(128).line_b(128).ways(4).cpus(4),
    ];
    let sweeper = ParallelSweep::new(2);

    // Result equality first (and once more per timed sweep below).
    codelayout_obs::set_enabled(true);
    let with_obs = sweeper.run(&trace, &jobs);
    codelayout_obs::set_enabled(false);
    let without_obs = sweeper.run(&trace, &jobs);
    codelayout_obs::set_enabled(true);
    assert_eq!(with_obs, without_obs, "observability changed sweep results");

    const ATTEMPTS: usize = 3;
    let mut medians = Vec::with_capacity(ATTEMPTS);
    for _ in 0..ATTEMPTS {
        let median = measure_median_ratio(&sweeper, &trace, &jobs, &with_obs);
        medians.push(median);
        if median - 1.0 < 0.05 {
            return;
        }
    }
    panic!(
        "instrumented replay lost >=5% throughput in {ATTEMPTS} consecutive measurements \
         (median paired ratios {medians:?})"
    );
}
