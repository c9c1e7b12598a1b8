//! Footprint measurement: unique cache lines / instructions touched.
//!
//! Backs the paper's packing claim (§4.1): the optimized binary touches a
//! 37% smaller footprint in 128-byte cache lines (315 KB vs 500 KB).

use crate::config::StreamFilter;
use codelayout_vm::{FetchRecord, TraceSink};
use std::collections::BTreeMap;

/// Bytes covered by one bitmap page (4 KB).
const PAGE_SHIFT: u32 = 12;
/// Instruction words per page, one bit each.
const PAGE_WORDS: usize = 1 << (PAGE_SHIFT - 2);

/// Counts unique cache lines and unique instruction words touched by the
/// (filtered) instruction stream.
///
/// Touched words live in one bitmap, kept per 4 KB page so any address
/// (application or kernel text) is covered without sizing a range up
/// front. The line count is derived from the word bits when queried.
/// Addresses count at instruction-word granularity: fetch addresses are
/// always word-aligned.
#[derive(Debug, Clone)]
pub struct FootprintCounter {
    filter: StreamFilter,
    line_shift: u32,
    /// Page number → one bit per instruction word; ordered, so the line
    /// count walks the touched words in address order.
    pages: BTreeMap<u64, [u64; PAGE_WORDS / 64]>,
    words: usize,
}

impl FootprintCounter {
    /// Creates a counter for a given line size (bytes, power of two).
    ///
    /// # Panics
    /// Panics if `line_bytes` is not a power of two.
    pub fn new(line_bytes: u32, filter: StreamFilter) -> Self {
        assert!(line_bytes.is_power_of_two(), "line size must be 2^k");
        FootprintCounter {
            filter,
            line_shift: line_bytes.trailing_zeros(),
            pages: BTreeMap::new(),
            words: 0,
        }
    }

    /// Unique cache lines touched.
    pub fn unique_lines(&self) -> usize {
        let mut prev = None;
        self.pages
            .iter()
            .flat_map(|(page, bits)| {
                (0..PAGE_WORDS as u64)
                    .filter(move |&w| bits[w as usize / 64] >> (w % 64) & 1 != 0)
                    .map(move |w| ((page << PAGE_SHIFT) | (w << 2)) >> self.line_shift)
            })
            .filter(|&line| prev.replace(line) != Some(line))
            .count()
    }

    /// Footprint in bytes at line granularity.
    pub fn line_footprint_bytes(&self) -> u64 {
        (self.unique_lines() as u64) << self.line_shift
    }

    /// Unique instructions executed (static live code).
    pub fn unique_instructions(&self) -> usize {
        self.words
    }

    /// Footprint in bytes at instruction granularity.
    pub fn instr_footprint_bytes(&self) -> u64 {
        self.words as u64 * 4
    }
}

impl TraceSink for FootprintCounter {
    #[inline]
    fn fetch(&mut self, rec: FetchRecord) {
        if self.filter.accepts(rec.kernel) {
            let bits = self
                .pages
                .entry(rec.addr >> PAGE_SHIFT)
                .or_insert([0; PAGE_WORDS / 64]);
            let word = (rec.addr >> 2) as usize % PAGE_WORDS;
            let bit = 1u64 << (word % 64);
            self.words += usize::from(bits[word / 64] & bit == 0);
            bits[word / 64] |= bit;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(addr: u64, kernel: bool) -> FetchRecord {
        FetchRecord {
            addr,
            cpu: 0,
            pid: 0,
            kernel,
        }
    }

    #[test]
    fn counts_unique_lines_and_words() {
        let mut f = FootprintCounter::new(128, StreamFilter::All);
        f.fetch(rec(0, false));
        f.fetch(rec(4, false));
        f.fetch(rec(4, false)); // repeat
        f.fetch(rec(128, false));
        assert_eq!(f.unique_lines(), 2);
        assert_eq!(f.unique_instructions(), 3);
        assert_eq!(f.line_footprint_bytes(), 256);
        assert_eq!(f.instr_footprint_bytes(), 12);
    }

    #[test]
    fn filter_excludes_kernel() {
        let mut f = FootprintCounter::new(64, StreamFilter::UserOnly);
        f.fetch(rec(0, true));
        assert_eq!(f.unique_lines(), 0);
        f.fetch(rec(0, false));
        assert_eq!(f.unique_lines(), 1);
    }
}
