//! Deterministic multi-process virtual machine for `codelayout` images.
//!
//! The machine models the execution environment the paper measured: several
//! database *server processes* per CPU running one shared application text
//! image, trapping into a *kernel* image for system services, with
//! round-robin quantum scheduling and blocking I/O. Every executed
//! instruction is streamed to a [`TraceSink`] as a fetch record (plus data
//! records for memory instructions), which is exactly the trace format the
//! paper fed to its instruction-cache simulators.
//!
//! Determinism: given the same images, configuration and initial memory, a
//! run produces a bit-identical instruction trace. There is no wall-clock or
//! host randomness anywhere in the interpreter.
//!
//! # Example
//!
//! ```
//! use codelayout_ir::{ProcBuilder, ProgramBuilder, Reg, Layout};
//! use codelayout_vm::{Machine, MachineConfig, CountingSink};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut pb = ProgramBuilder::new("hello");
//! let main = pb.declare_proc("main");
//! let mut f = ProcBuilder::new();
//! f.imm(Reg(1), 42).emit(Reg(1));
//! f.halt();
//! pb.define_proc(main, f)?;
//! let program = pb.finish(main)?;
//! let image = codelayout_ir::link::link(&program, &Layout::natural(&program), 0x40_0000)?;
//!
//! let mut m = Machine::new(image.into(), MachineConfig::default());
//! let mut sink = CountingSink::default();
//! let report = m.run(&mut sink, 1_000_000);
//! assert_eq!(report.faults.len(), 0);
//! assert_eq!(m.emitted(0), &[42]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod cache;
mod exec;
mod hook;
mod machine;
mod sink;
mod trace;

pub use hook::{ExecHook, NullHook, PairHook};
pub use machine::{Fault, Machine, MachineConfig, RunReport, SyscallDef, VmEngine};
pub use sink::{
    CountingSink, DataRecord, FetchRecord, NullSink, RecordingSink, TeeSink, TraceSink,
};
pub use trace::{FrozenTrace, TraceBuffer, TraceSource, MAX_TRACE_ADDR};

/// Base byte address of application text segments.
pub const APP_TEXT_BASE: u64 = 0x0040_0000;
/// Base byte address of kernel text segments.
pub const KERNEL_TEXT_BASE: u64 = 0x8000_0000;
/// Base byte address of the shared data region.
pub const SHARED_DATA_BASE: u64 = 0x2000_0000;
/// Base byte address of per-process private data regions.
pub const PRIVATE_DATA_BASE: u64 = 0x4000_0000;
/// Byte stride between per-process private regions.
pub const PRIVATE_DATA_STRIDE: u64 = 0x0100_0000;

/// FNV-1a checksum over a word slice; used to compare architectural state
/// across different code layouts.
pub fn checksum_words(words: &[i64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_order_sensitive_and_stable() {
        let a = checksum_words(&[1, 2, 3]);
        let b = checksum_words(&[3, 2, 1]);
        assert_ne!(a, b);
        assert_eq!(a, checksum_words(&[1, 2, 3]));
        assert_ne!(checksum_words(&[]), 0);
    }
}
