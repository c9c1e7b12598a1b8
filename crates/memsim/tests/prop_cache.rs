//! Property tests for the cache simulators: agreement with a naive
//! reference LRU model, the LRU inclusion property, collector
//! bookkeeping identities, and the footprint bitmap against hash sets.

use codelayout_memsim::{
    AccessClass, CacheConfig, FootprintCounter, ICacheSim, Itlb, LocalityCache, SequenceProfiler,
    StreamFilter,
};
use codelayout_vm::{FetchRecord, TraceSink};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Naive set-associative LRU model: per set, a Vec ordered MRU-first.
struct RefCache {
    line_shift: u32,
    sets: u64,
    ways: usize,
    state: Vec<Vec<u64>>,
    misses: u64,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> Self {
        RefCache {
            line_shift: cfg.line_bytes.trailing_zeros(),
            sets: cfg.sets(),
            ways: cfg.ways as usize,
            state: vec![Vec::new(); cfg.sets() as usize],
            misses: 0,
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = (line % self.sets) as usize;
        let s = &mut self.state[set];
        if let Some(pos) = s.iter().position(|&l| l == line) {
            s.remove(pos);
            s.insert(0, line);
            true
        } else {
            self.misses += 1;
            s.insert(0, line);
            s.truncate(self.ways);
            false
        }
    }
}

fn random_trace(seed: u64, len: usize, space: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(len);
    let mut pc: u64 = 0;
    for _ in 0..len {
        // Mix sequential runs with jumps, like an instruction stream.
        if rng.gen_bool(0.8) {
            pc = (pc + 4) % space;
        } else {
            pc = rng.gen_range(0..space / 4) * 4;
        }
        out.push(pc);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn icache_matches_reference_lru(
        seed in 0u64..10_000,
        sets_log in 0u32..6,
        ways in 1u32..8,
        line_log in 4u32..8,
    ) {
        let line = 1u32 << line_log;
        let size = (1u64 << sets_log) * line as u64 * ways as u64;
        let cfg = CacheConfig::new(size, line, ways);
        let mut sim = ICacheSim::new(cfg);
        let mut reference = RefCache::new(cfg);
        for addr in random_trace(seed, 4_000, 1 << 16) {
            let h1 = sim.access(addr, AccessClass::User);
            let h2 = reference.access(addr);
            prop_assert_eq!(h1, h2, "divergence at {:#x}", addr);
        }
        prop_assert_eq!(sim.stats().misses, reference.misses);
        prop_assert_eq!(sim.stats().accesses, 4_000);
    }

    #[test]
    fn lru_inclusion_property(seed in 0u64..10_000, sets_log in 0u32..5) {
        // Fixed set count, growing ways: misses never increase.
        let trace = random_trace(seed, 6_000, 1 << 15);
        let mut prev = u64::MAX;
        for ways in [1u32, 2, 4, 8] {
            let size = (1u64 << sets_log) * 64 * ways as u64;
            let mut sim = ICacheSim::new(CacheConfig::new(size, 64, ways));
            for &a in &trace {
                sim.access(a, AccessClass::User);
            }
            prop_assert!(sim.stats().misses <= prev);
            prev = sim.stats().misses;
        }
    }

    #[test]
    fn displaced_matrix_accounts_every_miss(seed in 0u64..10_000) {
        let mut sim = ICacheSim::new(CacheConfig::new(1024, 64, 2));
        let mut rng = StdRng::seed_from_u64(seed);
        for addr in random_trace(seed, 3_000, 1 << 14) {
            let class = if rng.gen_bool(0.3) {
                AccessClass::Kernel
            } else {
                AccessClass::User
            };
            sim.access(addr, class);
        }
        let s = sim.stats();
        let total: u64 = s.displaced.iter().flatten().sum();
        prop_assert_eq!(total, s.misses);
        prop_assert_eq!(s.misses_by_class[0] + s.misses_by_class[1], s.misses);
    }

    #[test]
    fn locality_cache_bookkeeping_identities(seed in 0u64..10_000) {
        let cfg = CacheConfig::new(2048, 128, 2);
        let mut c = LocalityCache::new(cfg, StreamFilter::All);
        let trace = random_trace(seed, 5_000, 1 << 13);
        for &a in &trace {
            c.access(a);
        }
        let misses = c.misses();
        let st = c.finish();
        // After finish(), every fill has been retired exactly once.
        prop_assert_eq!(st.replacements, misses);
        prop_assert_eq!(st.words_fetched, st.replacements * 32);
        let unique_total: u64 = st.unique_words.iter().sum();
        prop_assert_eq!(unique_total, st.replacements);
        let reuse_total: u64 = st.word_reuse.iter().sum();
        prop_assert_eq!(reuse_total, st.words_fetched);
        let life_total: u64 = st.lifetime_log2.iter().sum();
        prop_assert_eq!(life_total, st.replacements);
        // Unused fraction is consistent with the reuse histogram.
        prop_assert_eq!(st.word_reuse[0], st.words_unused);
    }

    #[test]
    fn sequence_profiler_partition_identity(seed in 0u64..10_000) {
        let mut s = SequenceProfiler::new(StreamFilter::All);
        let trace = random_trace(seed, 5_000, 1 << 13);
        for &a in &trace {
            s.fetch(FetchRecord { addr: a, cpu: 0, pid: 0, kernel: false });
        }
        let st = s.finish();
        prop_assert_eq!(st.instructions, 5_000);
        let hist_runs: u64 = st.histogram.iter().sum();
        prop_assert_eq!(hist_runs, st.runs);
        prop_assert!(st.average_length() >= 1.0);
    }

    #[test]
    fn itlb_miss_count_bounded_by_unique_pages(seed in 0u64..10_000, entries in 1usize..64) {
        let mut t = Itlb::new(entries, 8192);
        let trace = random_trace(seed, 3_000, 1 << 20);
        let mut pages = std::collections::HashSet::new();
        for &a in &trace {
            t.access(a);
            pages.insert(a >> 13);
        }
        // At least one miss per distinct page; with a big enough TLB,
        // exactly one.
        prop_assert!(t.misses() >= pages.len() as u64);
        if entries >= pages.len() {
            prop_assert_eq!(t.misses(), pages.len() as u64);
        }
    }

    #[test]
    fn footprint_bitmap_matches_hash_set_oracle(
        seed in 0u64..10_000,
        line_log in 2u32..15,
        filter_idx in 0usize..3,
    ) {
        // User and kernel text, sequential runs, near and far jumps, and
        // the last word of a page; lines from one word up to 16 KB (wider
        // than a bitmap page).
        let filters = [StreamFilter::All, StreamFilter::UserOnly, StreamFilter::KernelOnly];
        let filter = filters[filter_idx];
        let bases = [codelayout_vm::APP_TEXT_BASE, codelayout_vm::KERNEL_TEXT_BASE];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut f = FootprintCounter::new(1 << line_log, filter);
        let mut lines = std::collections::HashSet::new();
        let mut words = std::collections::HashSet::new();
        let mut pc = bases[0];
        for _ in 0..5_000 {
            pc = match rng.gen_range(0u32..16) {
                0 => bases[rng.gen_range(0usize..2)] + rng.gen_range(0u64..1 << 20) * 4,
                1 => pc + rng.gen_range(0u64..64) * 4 - 32 * 4,
                2 => (pc | 0xFFF) - 3,
                _ => pc + 4,
            };
            let kernel = pc >= codelayout_vm::KERNEL_TEXT_BASE;
            f.fetch(FetchRecord { addr: pc, cpu: 0, pid: 0, kernel });
            if filter.accepts(kernel) {
                lines.insert(pc >> line_log);
                words.insert(pc >> 2);
            }
        }
        prop_assert_eq!(f.unique_lines(), lines.len());
        prop_assert_eq!(f.line_footprint_bytes(), (lines.len() as u64) << line_log);
        prop_assert_eq!(f.unique_instructions(), words.len());
        prop_assert_eq!(f.instr_footprint_bytes(), words.len() as u64 * 4);
    }
}
