//! Parallel replay of a frozen trace across sweep grids.
//!
//! A [`SweepSink`] feeds every (configuration, CPU) simulator from a
//! live machine run in one pass. That is optimal when the workload
//! executes once, but the experiment harness sweeps *several* grids per
//! layout (direct-mapped user grid, 4-way user/kernel/combined grids),
//! and the simulators dominate wall-clock time. [`ParallelSweep`] takes
//! the other half of the record-once/replay-many design: given a
//! [`FrozenTrace`] (or any other [`TraceSource`]) and a list of
//! [`SweepSpec`] jobs, it shards the simulation across scoped worker
//! threads. Each worker owns its simulators outright and replays the
//! shared source with no locks or atomics on the hot path; per-CPU
//! statistics are merged into per-configuration cells only at join
//! time.
//!
//! Two engines implement the same contract ([`SweepEngine`]; stack by
//! default, direct where a caller asks for the oracle):
//!
//! * **Stack** — one [`StackDistanceSim`] per (job, line size, CPU).
//!   A single pass over the shard's stream yields exact misses for
//!   every size × associativity at that line size (Mattson inclusion),
//!   so per-record cost is O(line sizes), not O(configurations). Two
//!   replay-loop specializations stack on top: routing is a
//!   precomputed (kernel flag, CPU) → profiler-list table instead of a
//!   per-record walk over jobs and filters, and consecutive records
//!   that repeat the previous one — same line at the *smallest* line
//!   size in the grid (hence the same line at every larger one), same
//!   CPU, same kernel flag — collapse to one counter increment,
//!   flushed in bulk with [`StackDistanceSim::repeat_last`] when the
//!   run breaks. Instruction streams are mostly sequential (the very
//!   property the paper's optimizations maximize), so such runs cover
//!   most of the trace.
//! * **Direct** — one [`ICacheSim`] per (job, configuration, CPU); the
//!   straightforward oracle the stack engine is proven against. Its
//!   replay loop is kept deliberately plain — no batching, no routing
//!   table — so a divergence between the engines always indicts
//!   exactly one of them.
//!
//! Results are **bit-identical** across engines and thread counts: a
//! given shard consumes the identical filtered subsequence of the trace
//! wherever it runs, the stack profiler reproduces [`ICacheSim`]'s
//! statistics exactly, and [`CacheStats::merge`] is commutative `u64`
//! addition.
//!
//! [`SweepSink`]: crate::SweepSink

use crate::config::StreamFilter;
use crate::icache::{AccessClass, CacheStats, ICacheSim};
use crate::spec::SweepSpec;
use crate::stack::StackDistanceSim;
use crate::sweep::SweepCell;
use codelayout_vm::{FetchRecord, FrozenTrace, TeeSink, TraceSink, TraceSource};

/// One direct-engine unit: a (configuration, CPU) simulator.
struct DirectShard {
    config_idx: usize,
    cpu: usize,
    sim: ICacheSim,
}

/// A direct worker's shards for one job, with the job's filter and CPU
/// count hoisted so the per-record stream checks run once per job — not
/// once per shard, as the old per-config loop did.
struct DirectJob {
    job: usize,
    filter: StreamFilter,
    num_cpus: usize,
    shards: Vec<DirectShard>,
}

/// A direct-engine worker: the plain oracle replay loop. Filtering and
/// CPU decimation match [`crate::SweepSink::fetch`] exactly.
struct DirectWorker {
    jobs: Vec<DirectJob>,
}

impl TraceSink for DirectWorker {
    #[inline]
    fn fetch(&mut self, rec: FetchRecord) {
        let class = AccessClass::from_kernel_flag(rec.kernel);
        let rec_cpu = rec.cpu as usize;
        for dj in &mut self.jobs {
            if !dj.filter.accepts(rec.kernel) {
                continue;
            }
            // Traces from an N-CPU machine replayed into an N-CPU spec
            // (the harness invariant) never take the modulo; the branch
            // predicts perfectly and skips a hardware division per job
            // per record.
            let cpu = if rec_cpu < dj.num_cpus {
                rec_cpu
            } else {
                rec_cpu % dj.num_cpus
            };
            for shard in &mut dj.shards {
                if shard.cpu == cpu {
                    shard.sim.access(rec.addr, class);
                }
            }
        }
    }
}

impl DirectWorker {
    fn push(&mut self, job: usize, spec: &SweepSpec, shard: DirectShard) {
        if self.jobs.last().is_none_or(|dj| dj.job != job) {
            self.jobs.push(DirectJob {
                job,
                filter: spec.stream(),
                num_cpus: spec.num_cpus(),
                shards: Vec::new(),
            });
        }
        self.jobs
            .last_mut()
            .expect("job pushed above")
            .shards
            .push(shard);
    }
}

/// One stack-engine unit: a (job, line size, CPU) profiler covering
/// every configuration of that line size in its job, plus the routing
/// inputs its worker bakes into the dispatch table.
struct StackShard {
    job: usize,
    cpu: usize,
    filter: StreamFilter,
    num_cpus: usize,
    prof: StackDistanceSim,
}

/// Routing-table width: one entry per (kernel flag, `u8` CPU id).
const ROUTES: usize = 2 * 256;

/// A stack-engine worker. [`StackWorker::seal`] precomputes, for every
/// possible (kernel flag, record CPU) pair, the list of profilers that
/// accept such a record — the per-record work is then one table lookup
/// and one profiler access per list entry, with same-line runs batched
/// down to a single counter increment (see the module docs).
struct StackWorker {
    shards: Vec<StackShard>,
    /// `routes[kernel << 8 | cpu]` = indices into `shards`.
    routes: Vec<Vec<u32>>,
    /// Right-shift turning an address into a line at the smallest line
    /// size any shard profiles: equal keys ⇒ equal lines everywhere.
    batch_shift: u32,
    /// `(line << 9) | (cpu << 1) | kernel` of the previous record;
    /// `u64::MAX` (unreachable: trace addresses fit 45 bits) initially.
    last_key: u64,
    /// Route index of the in-progress run.
    last_route: usize,
    /// Repeat records accumulated since the run's first record.
    pending: u64,
}

impl TraceSink for StackWorker {
    #[inline]
    fn fetch(&mut self, rec: FetchRecord) {
        let key =
            ((rec.addr >> self.batch_shift) << 9) | ((rec.cpu as u64) << 1) | rec.kernel as u64;
        if key == self.last_key {
            self.pending += 1;
            return;
        }
        self.flush_repeats();
        self.last_key = key;
        self.last_route = (rec.kernel as usize) << 8 | rec.cpu as usize;
        let class = AccessClass::from_kernel_flag(rec.kernel);
        let shards = &mut self.shards;
        for &i in &self.routes[self.last_route] {
            shards[i as usize].prof.access(rec.addr, class);
        }
    }
}

impl StackWorker {
    /// Builds the dispatch table; must run after the last shard is
    /// pushed and before replay.
    fn seal(&mut self) {
        self.routes = (0..ROUTES)
            .map(|r| {
                let (kernel, rec_cpu) = (r >> 8 != 0, r & 0xFF);
                self.shards
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.filter.accepts(kernel) && rec_cpu % s.num_cpus == s.cpu)
                    .map(|(i, _)| i as u32)
                    .collect()
            })
            .collect();
    }

    /// Delivers a batched run of repeat records to the profilers the
    /// run's first record routed to. Must run once more after replay.
    fn flush_repeats(&mut self) {
        let n = std::mem::take(&mut self.pending);
        if n == 0 {
            return;
        }
        let shards = &mut self.shards;
        for &i in &self.routes[self.last_route] {
            shards[i as usize].prof.repeat_last(n);
        }
    }
}

/// The grid-replay engine a [`ParallelSweep`] runs (see the module
/// docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SweepEngine {
    /// One set-associative LRU simulator per (configuration, CPU): the
    /// equivalence oracle.
    Direct,
    /// One stack-distance profiler per (line size, CPU) (default).
    #[default]
    Stack,
}

/// Replays a [`FrozenTrace`] through one or more [`SweepSpec`] jobs on
/// a pool of scoped threads.
///
/// ```
/// use codelayout_memsim::{ParallelSweep, StreamFilter, SweepEngine, SweepSink, SweepSpec};
/// use codelayout_vm::{FetchRecord, TraceBuffer, TraceSink};
///
/// let mut buf = TraceBuffer::new();
/// for i in 0..1000u64 {
///     buf.fetch(FetchRecord { addr: i % 96 * 64, cpu: (i % 2) as u8, pid: 0, kernel: false });
/// }
/// let trace = buf.freeze();
///
/// let spec = SweepSpec::paper_grid(1).cpus(2);
/// let stack = ParallelSweep::new(4).run(&trace, std::slice::from_ref(&spec));
/// let direct = ParallelSweep::new(4)
///     .with_engine(SweepEngine::Direct)
///     .run(&trace, std::slice::from_ref(&spec));
/// assert_eq!(stack, direct);
///
/// // Both are bit-identical to the live serial sweep.
/// let mut serial = SweepSink::from_spec(&spec);
/// trace.replay(&mut serial);
/// assert_eq!(stack[0], serial.results());
/// ```
#[derive(Debug, Clone)]
pub struct ParallelSweep {
    threads: usize,
    engine: SweepEngine,
}

impl ParallelSweep {
    /// A sweep runner using up to `threads` workers (clamped to ≥ 1; a
    /// run never spawns more workers than it has shards) and the
    /// default stack-distance engine.
    pub fn new(threads: usize) -> Self {
        ParallelSweep {
            threads: threads.max(1),
            engine: SweepEngine::default(),
        }
    }

    /// A stack-engine sweep runner with the process's worker count
    /// (`CODELAYOUT_THREADS` — see [`codelayout_obs::RunEnv`]).
    pub fn from_env() -> Self {
        ParallelSweep::new(codelayout_obs::run_env().sweep_threads())
    }

    /// Selects the replay engine.
    pub fn with_engine(mut self, engine: SweepEngine) -> Self {
        self.engine = engine;
        self
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The configured replay engine.
    pub fn engine(&self) -> SweepEngine {
        self.engine
    }

    /// Replays `trace` through every job, returning one result vector
    /// per job (same order; cells in each job's config order, summed
    /// over CPUs — the exact shape [`crate::SweepSink::results`]
    /// returns).
    pub fn run(&self, trace: &FrozenTrace, jobs: &[SweepSpec]) -> Vec<Vec<SweepCell>> {
        self.run_from(trace, jobs)
    }

    /// [`ParallelSweep::run`] over any [`TraceSource`]: every worker
    /// replays the source itself, so records that are a function of
    /// shared data are generated on the workers and never stored.
    pub fn run_from<T: TraceSource + ?Sized>(
        &self,
        source: &T,
        jobs: &[SweepSpec],
    ) -> Vec<Vec<SweepCell>> {
        let _sweep_span = codelayout_obs::span("sweep");
        let grids: Vec<Vec<crate::CacheConfig>> = jobs.iter().map(SweepSpec::configs).collect();
        let mut results: Vec<Vec<SweepCell>> = grids
            .iter()
            .map(|grid| {
                grid.iter()
                    .map(|&config| SweepCell {
                        config,
                        stats: CacheStats::default(),
                    })
                    .collect()
            })
            .collect();
        match self.engine {
            SweepEngine::Direct => self.run_direct(source, jobs, &grids, &mut results),
            SweepEngine::Stack => self.run_stack(source, jobs, &grids, &mut results),
        }
        results
    }

    fn run_direct<T: TraceSource + ?Sized>(
        &self,
        source: &T,
        jobs: &[SweepSpec],
        grids: &[Vec<crate::CacheConfig>],
        results: &mut [Vec<SweepCell>],
    ) {
        // Enumerate shards per job, then round-robin them over workers
        // so each worker carries a similar mix of small and large
        // simulations. Workers keep their shards grouped by job so the
        // per-record filter and CPU checks are per job, not per shard.
        let total: usize = grids
            .iter()
            .zip(jobs)
            .map(|(g, j)| g.len() * j.num_cpus())
            .sum();
        let num_workers = self.record_pool(jobs.len(), total);
        let mut workers: Vec<DirectWorker> = (0..num_workers)
            .map(|_| DirectWorker { jobs: Vec::new() })
            .collect();
        let mut next = 0usize;
        for (job, (spec, grid)) in jobs.iter().zip(grids).enumerate() {
            for (config_idx, &config) in grid.iter().enumerate() {
                for cpu in 0..spec.num_cpus() {
                    workers[next % num_workers].push(
                        job,
                        spec,
                        DirectShard {
                            config_idx,
                            cpu,
                            sim: ICacheSim::new(config),
                        },
                    );
                    next += 1;
                }
            }
        }

        for worker in replay_pool(source, workers, |_| {}) {
            for dj in worker.jobs {
                let cells = &mut results[dj.job];
                for shard in dj.shards {
                    cells[shard.config_idx].stats.merge(shard.sim.stats());
                }
            }
        }
    }

    fn run_stack<T: TraceSource + ?Sized>(
        &self,
        source: &T,
        jobs: &[SweepSpec],
        grids: &[Vec<crate::CacheConfig>],
        results: &mut [Vec<SweepCell>],
    ) {
        let mut shards: Vec<StackShard> = Vec::new();
        for (job, (spec, grid)) in jobs.iter().zip(grids).enumerate() {
            let mut lines: Vec<u32> = grid.iter().map(|c| c.line_bytes).collect();
            lines.sort_unstable();
            lines.dedup();
            for line in lines {
                let group: Vec<(usize, crate::CacheConfig)> = grid
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.line_bytes == line)
                    .map(|(i, &c)| (i, c))
                    .collect();
                for cpu in 0..spec.num_cpus() {
                    shards.push(StackShard {
                        job,
                        cpu,
                        filter: spec.stream(),
                        num_cpus: spec.num_cpus(),
                        prof: StackDistanceSim::new(line, group.iter().copied()),
                    });
                }
            }
        }
        let batch_shift = shards
            .iter()
            .map(|s| s.prof.line_bytes().trailing_zeros())
            .min()
            .unwrap_or(0);
        let num_workers = self.record_pool(jobs.len(), shards.len());
        let mut workers: Vec<StackWorker> = (0..num_workers)
            .map(|_| StackWorker {
                shards: Vec::new(),
                routes: Vec::new(),
                batch_shift,
                last_key: u64::MAX,
                last_route: 0,
                pending: 0,
            })
            .collect();
        for (i, shard) in shards.into_iter().enumerate() {
            workers[i % num_workers].shards.push(shard);
        }
        for worker in &mut workers {
            worker.seal();
        }

        for worker in replay_pool(source, workers, StackWorker::flush_repeats) {
            for shard in worker.shards {
                let cells = &mut results[shard.job];
                for (config_idx, stats) in shard.prof.results() {
                    cells[config_idx].stats.merge(&stats);
                }
            }
        }
    }

    /// Clamps the pool size to the shard count and counts the run's
    /// shape.
    fn record_pool(&self, jobs: usize, shards: usize) -> usize {
        let m = codelayout_obs::metrics();
        m.add("sweep.runs", 1);
        m.add("sweep.jobs", jobs as u64);
        m.add("sweep.shards", shards as u64);
        self.threads.min(shards.max(1))
    }

    /// Convenience for a single job: replays and returns its cells.
    pub fn run_one<T: TraceSource + ?Sized>(&self, source: &T, spec: &SweepSpec) -> Vec<SweepCell> {
        self.run_from(source, std::slice::from_ref(spec))
            .pop()
            .expect("one job in, one result out")
    }

    /// Replays `trace` into caller-owned sinks (memory hierarchies,
    /// locality collectors, …) on at most [`ParallelSweep::threads`]
    /// concurrent workers. Sinks are dealt round-robin over the workers
    /// and the ones sharing a worker are bundled with [`TeeSink`], so
    /// each worker decodes the trace once. Every sink observes the exact
    /// record sequence of the recorded run, so its results equal those
    /// of a sink that watched the live run, at any thread count.
    pub fn replay_sinks(&self, trace: &FrozenTrace, sinks: Vec<&mut (dyn TraceSink + Send)>) {
        let num_workers = self.threads.min(sinks.len());
        let mut bundles: Vec<Option<Box<dyn TraceSink + Send + '_>>> =
            (0..num_workers).map(|_| None).collect();
        for (i, sink) in sinks.into_iter().enumerate() {
            let slot = &mut bundles[i % num_workers];
            *slot = Some(match slot.take() {
                None => Box::new(sink),
                Some(bundle) => Box::new(TeeSink(bundle, sink)),
            });
        }
        replay_pool(trace, bundles.into_iter().flatten().collect(), |_| {});
    }
}

/// Replays `source` into every worker on its own scoped thread, calling
/// `finish` on each worker after its last record, and hands the workers
/// back for result collection.
///
/// Each worker adopts the caller's span path, so its `sweep_worker`
/// span nests under the phase that asked for the replay; the per-event
/// replay path carries no instrumentation.
fn replay_pool<T, W, F>(source: &T, workers: Vec<W>, finish: F) -> Vec<W>
where
    T: TraceSource + ?Sized,
    W: TraceSink + Send,
    F: Fn(&mut W) + Sync,
{
    let parent = codelayout_obs::span_path();
    let finish = &finish;
    std::thread::scope(|s| {
        let handles: Vec<_> = workers
            .into_iter()
            .map(|mut w| {
                let parent = parent.as_deref();
                s.spawn(move || {
                    let _adopted = parent.map(|p| codelayout_obs::tracer().adopt(p));
                    let _worker_span = codelayout_obs::span("sweep_worker");
                    source.replay_into(&mut w);
                    finish(&mut w);
                    w
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let w = h.join().expect("sweep worker panicked");
                codelayout_obs::metrics().add("sweep.events_replayed", source.events() as u64);
                w
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;
    use crate::sweep::SweepSink;
    use codelayout_vm::TraceBuffer;

    /// A small mixed user/kernel multi-CPU trace.
    fn test_trace() -> FrozenTrace {
        let mut buf = TraceBuffer::new();
        let mut x: u64 = 0x9E3779B97F4A7C15;
        for i in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let kernel = x.is_multiple_of(5);
            let base = if kernel { 0x8000_0000 } else { 0x40_0000 };
            buf.fetch(FetchRecord {
                addr: (base + x % (64 * 1024)) & !3,
                cpu: (i % 3) as u8,
                pid: (i % 7) as u8,
                kernel,
            });
        }
        buf.freeze()
    }

    fn serial(trace: &FrozenTrace, spec: &SweepSpec) -> Vec<SweepCell> {
        let mut sink = SweepSink::from_spec(spec);
        trace.replay(&mut sink);
        sink.results()
    }

    fn both_engines(threads: usize) -> [ParallelSweep; 2] {
        [
            ParallelSweep::new(threads).with_engine(SweepEngine::Direct),
            ParallelSweep::new(threads).with_engine(SweepEngine::Stack),
        ]
    }

    #[test]
    fn matches_serial_for_any_thread_count_and_engine() {
        let trace = test_trace();
        let spec = SweepSpec::paper_grid(2).cpus(3);
        let expected = serial(&trace, &spec);
        for threads in [1, 2, 5, 64] {
            for sweep in both_engines(threads) {
                let got = sweep.run(&trace, std::slice::from_ref(&spec));
                assert_eq!(
                    got[0],
                    expected,
                    "threads = {threads}, engine = {:?}",
                    sweep.engine()
                );
            }
        }
    }

    #[test]
    fn multi_job_results_keep_job_order_and_filters() {
        let trace = test_trace();
        let jobs = vec![
            SweepSpec::paper_grid(1)
                .cpus(2)
                .filter(StreamFilter::UserOnly),
            SweepSpec::paper_grid(4)
                .cpus(1)
                .filter(StreamFilter::KernelOnly),
            SweepSpec::grid().size_kb(1).line_b(64).ways(2).cpus(3),
        ];
        for sweep in both_engines(7) {
            let got = sweep.run(&trace, &jobs);
            assert_eq!(got.len(), 3);
            for (j, job) in jobs.iter().enumerate() {
                assert_eq!(got[j], serial(&trace, job), "job {j}");
            }
            // Filters actually differ: user + kernel accesses = combined.
            let user: u64 = got[0][0].stats.accesses;
            let kernel: u64 = got[1][0].stats.accesses;
            let all: u64 = got[2][0].stats.accesses;
            assert!(user > 0 && kernel > 0);
            assert_eq!(user + kernel, all);
        }
    }

    #[test]
    fn sequential_run_batching_matches_record_at_a_time() {
        // Long same-line runs with CPU switches and kernel excursions
        // mid-run: the batched fast path must flush across every kind
        // of run break.
        let mut buf = TraceBuffer::new();
        for i in 0..4_000u64 {
            let cpu = (i / 977) % 2;
            let kernel = i % 271 < 13;
            buf.fetch(FetchRecord {
                addr: (if kernel { 0x8000_0000 } else { 0x40_0000 }) + i / 7 * 4,
                cpu: cpu as u8,
                pid: 0,
                kernel,
            });
        }
        let trace = buf.freeze();
        let jobs = vec![
            SweepSpec::grid()
                .size_kb(1)
                .lines_b(&[16, 64])
                .ways_each(&[1, 2])
                .cpus(2),
            SweepSpec::grid()
                .size_kb(2)
                .line_b(32)
                .cpus(2)
                .filter(StreamFilter::KernelOnly),
        ];
        for threads in [1, 3] {
            let got = ParallelSweep::new(threads).run(&trace, &jobs);
            for (j, job) in jobs.iter().enumerate() {
                assert_eq!(got[j], serial(&trace, job), "threads {threads}, job {j}");
            }
        }
    }

    #[test]
    fn more_threads_than_shards_is_fine() {
        let trace = test_trace();
        let spec = SweepSpec::grid().size_kb(512).line_b(64);
        for sweep in both_engines(1000) {
            let got = sweep.run(&trace, std::slice::from_ref(&spec));
            assert_eq!(got[0], serial(&trace, &spec));
        }
    }

    #[test]
    fn empty_trace_and_empty_jobs() {
        let empty = TraceBuffer::new().freeze();
        let spec = SweepSpec::paper_grid(1).cpus(2);
        let got = ParallelSweep::new(4).run(&empty, std::slice::from_ref(&spec));
        assert_eq!(got[0].len(), 25);
        assert!(got[0].iter().all(|c| c.stats.accesses == 0));
        let none = ParallelSweep::new(4).run(&test_trace(), &[]);
        assert!(none.is_empty());
    }

    #[test]
    fn run_one_unwraps_single_job() {
        let trace = test_trace();
        let spec = SweepSpec::paper_grid(1).cpus(2);
        let cells = ParallelSweep::new(2).run_one(&trace, &spec);
        assert_eq!(cells, serial(&trace, &spec));
    }

    #[test]
    fn engine_selection_defaults_to_stack() {
        assert_eq!(ParallelSweep::new(2).engine(), SweepEngine::Stack);
        assert_eq!(
            ParallelSweep::new(2)
                .with_engine(SweepEngine::Direct)
                .engine(),
            SweepEngine::Direct
        );
        let cells_config_order: Vec<CacheConfig> = ParallelSweep::new(1)
            .run_one(&test_trace(), &SweepSpec::paper_grid(1))
            .into_iter()
            .map(|c| c.config)
            .collect();
        assert_eq!(cells_config_order, SweepSpec::paper_grid(1).configs());
    }
}
