//! Property tests for replayed sweeps: stream filtering commutes with
//! recording, and parallel replay agrees with the live serial sink on
//! arbitrary random traces (the OLTP-driven equivalence test lives at
//! the workspace root; this one explores the input space more broadly).
//! Caller-owned sinks replayed on the sweep pool each see the whole
//! recorded stream, on no more workers than the pool's thread count.
//! A generated [`TraceSource`] sweeps exactly like its frozen
//! materialization.

use codelayout_memsim::{ParallelSweep, StreamFilter, SweepEngine, SweepSink, SweepSpec};
use codelayout_vm::{DataRecord, FetchRecord, RecordingSink, TraceBuffer, TraceSink, TraceSource};
use std::collections::HashSet;
use std::thread::ThreadId;

/// Records every event it sees and the worker threads that fed it.
#[derive(Default)]
struct Probe {
    seen: RecordingSink,
    threads: HashSet<ThreadId>,
}

impl TraceSink for Probe {
    fn fetch(&mut self, rec: FetchRecord) {
        self.threads.insert(std::thread::current().id());
        self.seen.fetch(rec);
    }

    fn data(&mut self, rec: DataRecord) {
        self.threads.insert(std::thread::current().id());
        self.seen.data(rec);
    }
}
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_stream(seed: u64, len: usize, cpus: u8) -> Vec<FetchRecord> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(len);
    let mut pc: u64 = 0x40_0000;
    for _ in 0..len {
        let kernel = rng.gen_bool(0.25);
        if rng.gen_bool(0.15) {
            pc = rng.gen_range(0u64..1 << 18) & !3;
        } else {
            pc += 4;
        }
        let addr = if kernel { 0x8000_0000 + pc } else { pc };
        out.push(FetchRecord {
            addr,
            cpu: rng.gen_range(0u64..cpus.max(1) as u64) as u8,
            pid: rng.gen_range(0u64..8) as u8,
            kernel,
        });
    }
    out
}

/// A [`TraceSource`] that regenerates [`random_stream`]'s records on
/// every replay instead of storing them.
struct Generated {
    seed: u64,
    len: usize,
    cpus: u8,
}

impl TraceSource for Generated {
    fn replay_into<S: TraceSink + ?Sized>(&self, sink: &mut S) {
        for r in random_stream(self.seed, self.len, self.cpus) {
            sink.fetch(r);
        }
    }

    fn events(&self) -> usize {
        self.len
    }
}

proptest! {
    // Six sweeps per case: fewer cases keep the debug run short.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn generated_source_sweeps_like_its_frozen_trace(
        seed in 0u64..10_000,
        cpus in 2u64..5,
    ) {
        let source = Generated { seed, len: 3_000, cpus: cpus as u8 };
        let mut buf = TraceBuffer::fetch_only();
        source.replay_into(&mut buf);
        let frozen = buf.freeze();
        let jobs = vec![
            SweepSpec::paper_grid(2).cpus(cpus as usize).filter(StreamFilter::UserOnly),
            SweepSpec::paper_grid(1).cpus(cpus as usize).filter(StreamFilter::KernelOnly),
            SweepSpec::grid().size_kb(1).line_b(64).ways(2).cpus(cpus as usize),
        ];
        for engine in [SweepEngine::Stack, SweepEngine::Direct] {
            for threads in [1, 2, 7] {
                let sweep = ParallelSweep::new(threads).with_engine(engine);
                prop_assert_eq!(
                    sweep.run_from(&source, &jobs),
                    sweep.run(&frozen, &jobs),
                    "{:?} engine, {} threads",
                    engine,
                    threads
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn filtering_commutes_with_recording(
        seed in 0u64..10_000,
        cpus in 1u64..4,
        threads in 1usize..8,
    ) {
        // Filtering at replay time (the recorded trace keeps kernel and
        // user fetches; each job filters) must equal filtering live.
        let stream = random_stream(seed, 8_000, cpus as u8);
        let mut buf = TraceBuffer::fetch_only();
        for &r in &stream {
            buf.fetch(r);
        }
        let trace = buf.freeze();

        for filter in [StreamFilter::UserOnly, StreamFilter::KernelOnly, StreamFilter::All] {
            let spec = SweepSpec::paper_grid(2).cpus(cpus as usize).filter(filter);
            let mut live = SweepSink::from_spec(&spec);
            for &r in &stream {
                live.fetch(r);
            }
            let replayed = ParallelSweep::new(threads).run(&trace, std::slice::from_ref(&spec));
            prop_assert_eq!(
                &replayed[0],
                &live.results(),
                "filter {:?}, {} cpus, {} threads",
                filter,
                cpus,
                threads
            );
        }
    }

    #[test]
    fn user_plus_kernel_misses_partition_combined_accesses(
        seed in 0u64..10_000,
        threads in 1usize..6,
    ) {
        let stream = random_stream(seed, 6_000, 2);
        let mut buf = TraceBuffer::fetch_only();
        for &r in &stream {
            buf.fetch(r);
        }
        let trace = buf.freeze();
        let grid = SweepSpec::paper_grid(1).cpus(2);
        let jobs = vec![
            grid.clone().filter(StreamFilter::UserOnly),
            grid.clone().filter(StreamFilter::KernelOnly),
            grid,
        ];
        let res = ParallelSweep::new(threads).run(&trace, &jobs);
        // Misses don't partition in general (the combined cache suffers
        // cross-stream interference), but accesses must split exactly.
        for ((user, kernel), all) in res[0].iter().zip(&res[1]).zip(&res[2]) {
            prop_assert_eq!(
                user.stats.accesses + kernel.stats.accesses,
                all.stats.accesses
            );
        }
    }

    #[test]
    fn replay_sinks_feeds_every_sink_on_at_most_threads_workers(
        seed in 0u64..10_000,
        threads in 1usize..8,
        sinks in 0usize..8,
    ) {
        let stream = random_stream(seed, 3_000, 2);
        let mut buf = TraceBuffer::new();
        let mut live = RecordingSink::default();
        for (i, &r) in stream.iter().enumerate() {
            buf.fetch(r);
            live.fetch(r);
            if i % 3 == 0 {
                let d = DataRecord {
                    addr: r.addr ^ 0x10_0000,
                    cpu: r.cpu,
                    pid: r.pid,
                    kernel: r.kernel,
                    write: i % 2 == 0,
                };
                buf.data(d);
                live.data(d);
            }
        }
        let trace = buf.freeze();
        let mut probes: Vec<Probe> = (0..sinks).map(|_| Probe::default()).collect();
        ParallelSweep::new(threads).replay_sinks(
            &trace,
            probes.iter_mut().map(|p| p as &mut (dyn TraceSink + Send)).collect(),
        );
        let mut workers = HashSet::new();
        for p in &probes {
            prop_assert_eq!(&p.seen.fetches, &live.fetches);
            prop_assert_eq!(&p.seen.data, &live.data);
            // A sink is fed by exactly one worker.
            prop_assert_eq!(p.threads.len(), 1);
            workers.extend(p.threads.iter().copied());
        }
        prop_assert_eq!(workers.len(), threads.min(sinks));
    }
}
