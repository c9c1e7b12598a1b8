//! Trace sinks: consumers of the per-instruction event stream.

/// One instruction fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchRecord {
    /// Byte address of the fetched instruction.
    pub addr: u64,
    /// Executing CPU.
    pub cpu: u8,
    /// Executing process id.
    pub pid: u8,
    /// True when executing kernel text.
    pub kernel: bool,
}

/// One data memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataRecord {
    /// Byte address of the accessed word.
    pub addr: u64,
    /// Executing CPU.
    pub cpu: u8,
    /// Executing process id.
    pub pid: u8,
    /// True when executing kernel text.
    pub kernel: bool,
    /// True for stores and atomic read-modify-writes.
    pub write: bool,
}

/// Consumes the execution trace of a [`crate::Machine`] run.
///
/// The machine calls `fetch` once per executed instruction, in execution
/// order, and `data` once per memory access. Implementations are typically
/// cache simulators; a fan-out implementation can feed dozens of cache
/// configurations from one run.
pub trait TraceSink {
    /// Called for every executed instruction.
    fn fetch(&mut self, rec: FetchRecord);
    /// Called for every data memory access. Default: ignored.
    fn data(&mut self, rec: DataRecord) {
        let _ = rec;
    }
    /// Delivers `n` consecutive instruction fetches starting at `first`,
    /// each [`codelayout_ir::INSTR_BYTES`] past the previous, all with
    /// `first`'s cpu/pid/kernel attribution. The block-compiled engine
    /// uses this for straight-line runs; the default expands to `n`
    /// [`TraceSink::fetch`] calls, so every sink observes the identical
    /// record stream whether or not it overrides this.
    #[inline]
    fn fetch_run(&mut self, first: FetchRecord, n: u64) {
        let mut rec = first;
        for _ in 0..n {
            self.fetch(rec);
            rec.addr += codelayout_ir::INSTR_BYTES;
        }
    }
}

/// Discards the trace. Useful for pure-semantics runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline]
    fn fetch(&mut self, _rec: FetchRecord) {}

    #[inline]
    fn fetch_run(&mut self, _first: FetchRecord, _n: u64) {}
}

/// Counts fetches and data accesses without storing them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingSink {
    /// Instructions fetched.
    pub fetches: u64,
    /// Instructions fetched in kernel mode.
    pub kernel_fetches: u64,
    /// Data reads.
    pub reads: u64,
    /// Data writes.
    pub writes: u64,
}

impl TraceSink for CountingSink {
    #[inline]
    fn fetch(&mut self, rec: FetchRecord) {
        self.fetches += 1;
        self.kernel_fetches += u64::from(rec.kernel);
    }

    #[inline]
    fn data(&mut self, rec: DataRecord) {
        if rec.write {
            self.writes += 1;
        } else {
            self.reads += 1;
        }
    }

    #[inline]
    fn fetch_run(&mut self, first: FetchRecord, n: u64) {
        self.fetches += n;
        self.kernel_fetches += n * u64::from(first.kernel);
    }
}

/// Stores the whole trace in memory. Only suitable for short runs (tests).
#[derive(Debug, Clone, Default)]
pub struct RecordingSink {
    /// All fetch records, in order.
    pub fetches: Vec<FetchRecord>,
    /// All data records, in order.
    pub data: Vec<DataRecord>,
}

impl TraceSink for RecordingSink {
    #[inline]
    fn fetch(&mut self, rec: FetchRecord) {
        self.fetches.push(rec);
    }

    #[inline]
    fn data(&mut self, rec: DataRecord) {
        self.data.push(rec);
    }
}

impl<S: TraceSink + ?Sized> TraceSink for &mut S {
    #[inline]
    fn fetch(&mut self, rec: FetchRecord) {
        (**self).fetch(rec);
    }

    #[inline]
    fn data(&mut self, rec: DataRecord) {
        (**self).data(rec);
    }

    #[inline]
    fn fetch_run(&mut self, first: FetchRecord, n: u64) {
        (**self).fetch_run(first, n);
    }
}

impl<S: TraceSink + ?Sized> TraceSink for Box<S> {
    #[inline]
    fn fetch(&mut self, rec: FetchRecord) {
        (**self).fetch(rec);
    }

    #[inline]
    fn data(&mut self, rec: DataRecord) {
        (**self).data(rec);
    }

    #[inline]
    fn fetch_run(&mut self, first: FetchRecord, n: u64) {
        (**self).fetch_run(first, n);
    }
}

/// Feeds two sinks from one trace; nests for arbitrary fan-out.
#[derive(Debug, Clone, Default)]
pub struct TeeSink<A, B>(pub A, pub B);

impl<A: TraceSink, B: TraceSink> TraceSink for TeeSink<A, B> {
    #[inline]
    fn fetch(&mut self, rec: FetchRecord) {
        self.0.fetch(rec);
        self.1.fetch(rec);
    }

    #[inline]
    fn data(&mut self, rec: DataRecord) {
        self.0.data(rec);
        self.1.data(rec);
    }

    #[inline]
    fn fetch_run(&mut self, first: FetchRecord, n: u64) {
        self.0.fetch_run(first, n);
        self.1.fetch_run(first, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(addr: u64, kernel: bool) -> FetchRecord {
        FetchRecord {
            addr,
            cpu: 0,
            pid: 0,
            kernel,
        }
    }

    #[test]
    fn counting_sink_counts() {
        let mut s = CountingSink::default();
        s.fetch(f(0, false));
        s.fetch(f(4, true));
        s.data(DataRecord {
            addr: 8,
            cpu: 0,
            pid: 0,
            kernel: false,
            write: true,
        });
        s.data(DataRecord {
            addr: 8,
            cpu: 0,
            pid: 0,
            kernel: false,
            write: false,
        });
        assert_eq!(s.fetches, 2);
        assert_eq!(s.kernel_fetches, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.reads, 1);
    }

    #[test]
    fn tee_feeds_both() {
        let mut t = TeeSink(CountingSink::default(), RecordingSink::default());
        t.fetch(f(16, false));
        assert_eq!(t.0.fetches, 1);
        assert_eq!(t.1.fetches.len(), 1);
    }

    #[test]
    fn default_fetch_run_expands_to_consecutive_fetches() {
        let mut rec = RecordingSink::default();
        rec.fetch_run(f(0x40_0000, false), 3);
        let addrs: Vec<u64> = rec.fetches.iter().map(|r| r.addr).collect();
        assert_eq!(addrs, vec![0x40_0000, 0x40_0004, 0x40_0008]);
    }

    #[test]
    fn counting_fetch_run_matches_expanded_stream() {
        let mut batched = CountingSink::default();
        let mut expanded = CountingSink::default();
        batched.fetch_run(f(0x100, true), 5);
        for i in 0..5 {
            expanded.fetch(f(0x100 + i * 4, true));
        }
        assert_eq!(batched, expanded);
    }

    #[test]
    fn tee_fetch_run_feeds_both_identically() {
        let mut t = TeeSink(CountingSink::default(), RecordingSink::default());
        t.fetch_run(f(0x40, false), 4);
        assert_eq!(t.0.fetches, 4);
        assert_eq!(t.1.fetches.len(), 4);
        assert_eq!(t.1.fetches[3].addr, 0x4c);
    }

    #[test]
    fn mut_ref_is_a_sink() {
        let mut c = CountingSink::default();
        {
            let r: &mut CountingSink = &mut c;
            r.fetch(f(0, false));
        }
        assert_eq!(c.fetches, 1);
    }
}
