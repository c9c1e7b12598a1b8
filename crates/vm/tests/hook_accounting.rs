//! Block-accounting invariants of the hook and trace layers, checked
//! against real machine runs on both execution tiers: every executed
//! instruction produces exactly one tick attributed to the right
//! mode and block, block events fire exactly at block entries, and
//! the packed trace agrees with the hook stream on kernel/user
//! attribution.

use codelayout_ir::link::link;
use codelayout_ir::{
    BinOp, BlockId, Cond, Layout, Operand, ProcBuilder, ProcId, Program, ProgramBuilder, Reg,
};
use codelayout_vm::{
    ExecHook, Machine, MachineConfig, SyscallDef, TraceBuffer, VmEngine, APP_TEXT_BASE,
    KERNEL_TEXT_BASE,
};
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Default)]
struct Accounting {
    ticks: HashMap<(bool, BlockId), u64>,
    blocks: Vec<(bool, BlockId)>,
    edges: Vec<(bool, BlockId, BlockId)>,
}

impl ExecHook for Accounting {
    fn block(&mut self, kernel: bool, block: BlockId) {
        self.blocks.push((kernel, block));
    }
    fn edge(&mut self, kernel: bool, from: BlockId, to: BlockId) {
        self.edges.push((kernel, from, to));
    }
    fn tick(&mut self, kernel: bool, block: BlockId) {
        *self.ticks.entry((kernel, block)).or_default() += 1;
    }
}

/// 3-block countdown: `head` (1 instr branch), `body` (2 instrs),
/// `done` (1 halt), `n` iterations.
fn countdown() -> Program {
    let mut pb = ProgramBuilder::new("count");
    let main = pb.declare_proc("main");
    let mut f = ProcBuilder::new();
    let head = f.entry();
    let body = f.new_block();
    let done = f.new_block();
    f.select(head);
    f.branch(Cond::Gt, Reg(1), Operand::Imm(0), body, done);
    f.select(body);
    f.emit(Reg(1)).bin_imm(BinOp::Sub, Reg(1), Reg(1), 1);
    f.jump(head);
    f.select(done);
    f.halt();
    pb.define_proc(main, f).unwrap();
    pb.finish(main).unwrap()
}

fn engines() -> [VmEngine; 2] {
    [VmEngine::Interp, VmEngine::Block]
}

#[test]
fn every_instruction_ticks_exactly_once_in_its_block() {
    let p = countdown();
    let image = Arc::new(link(&p, &Layout::natural(&p), APP_TEXT_BASE).unwrap());
    for engine in engines() {
        let mut m = Machine::new(
            Arc::clone(&image),
            MachineConfig {
                engine,
                ..MachineConfig::default()
            },
        );
        let n = 10i64;
        m.set_reg(0, Reg(1), n);
        let mut acc = Accounting::default();
        let report = m.run_hooked(&mut codelayout_vm::NullSink, &mut acc, 1_000_000);
        let total: u64 = acc.ticks.values().sum();
        assert_eq!(total, report.instructions, "{engine:?}: tick per instr");
        // head: n+1 branch evaluations; body: 3 instrs × n iterations
        // (emit, sub, jump); done: 1 halt. Blocks are laid out naturally
        // so head=0, body=1, done=2.
        assert_eq!(acc.ticks[&(false, BlockId(0))], (n + 1) as u64);
        assert_eq!(acc.ticks[&(false, BlockId(1))], 3 * n as u64);
        assert_eq!(acc.ticks[&(false, BlockId(2))], 1);
        // Block events: entry + per-iteration (body, head) + final done.
        assert_eq!(acc.blocks.len() as i64, 1 + 2 * n + 1, "{engine:?}");
        // Every block event after the first is the destination of the
        // immediately preceding edge event.
        assert_eq!(acc.edges.len() + 1, acc.blocks.len());
        for (e, b) in acc.edges.iter().zip(acc.blocks.iter().skip(1)) {
            assert_eq!((e.0, e.2), *b, "{engine:?}: edge/block pairing");
        }
    }
}

/// App that traps into a kernel handler; checks kernel/user tick
/// attribution against the report and against the packed trace.
#[test]
fn kernel_ticks_match_report_and_trace_attribution() {
    let mut pb = ProgramBuilder::new("app");
    let main = pb.declare_proc("main");
    let mut f = ProcBuilder::new();
    f.imm(Reg(1), 3).syscall(7).emit(Reg(0));
    f.halt();
    pb.define_proc(main, f).unwrap();
    let ap = pb.finish(main).unwrap();

    let mut pb = ProgramBuilder::new("kern");
    let handler = pb.declare_proc("handler");
    let mut f = ProcBuilder::new();
    f.imm(Reg(0), 7).bin_imm(BinOp::Add, Reg(0), Reg(0), 0);
    f.ret();
    pb.define_proc(handler, f).unwrap();
    let kp = pb.finish(handler).unwrap();

    let app = Arc::new(link(&ap, &Layout::natural(&ap), APP_TEXT_BASE).unwrap());
    let kernel = Arc::new(link(&kp, &Layout::natural(&kp), KERNEL_TEXT_BASE).unwrap());

    let mut traces = Vec::new();
    for engine in engines() {
        let mut m = Machine::with_kernel(
            Arc::clone(&app),
            Arc::clone(&kernel),
            vec![(
                7,
                SyscallDef {
                    proc: ProcId(0),
                    block_instrs: 0,
                },
            )],
            MachineConfig {
                engine,
                ..MachineConfig::default()
            },
        );
        let mut acc = Accounting::default();
        let mut buf = TraceBuffer::new();
        let report = m.run_hooked(&mut buf, &mut acc, 1_000_000);

        let kernel_ticks: u64 = acc
            .ticks
            .iter()
            .filter(|((k, _), _)| *k)
            .map(|(_, n)| n)
            .sum();
        let user_ticks: u64 = acc
            .ticks
            .iter()
            .filter(|((k, _), _)| !*k)
            .map(|(_, n)| n)
            .sum();
        assert_eq!(kernel_ticks, report.kernel_instrs, "{engine:?}");
        assert_eq!(user_ticks, report.user_instrs, "{engine:?}");
        assert_eq!(m.emitted(0), &[7], "{engine:?}: r0 forwarded");

        // The packed trace agrees: kernel-flagged instruction fetches
        // equal kernel ticks.
        let frozen = buf.freeze();
        let mut counts = codelayout_vm::CountingSink::default();
        frozen.replay(&mut counts);
        assert_eq!(counts.kernel_fetches, kernel_ticks, "{engine:?}");
        assert_eq!(counts.fetches, report.instructions, "{engine:?}");
        traces.push(frozen);
    }
    assert_eq!(
        traces[0], traces[1],
        "packed traces must be bit-identical across engines"
    );
}

/// Mid-block quantum expiry must not double-tick or skip: the tick
/// stream across many tiny quanta equals one uninterrupted run.
#[test]
fn tick_stream_is_quantum_invariant() {
    let p = countdown();
    let image = Arc::new(link(&p, &Layout::natural(&p), APP_TEXT_BASE).unwrap());
    let reference: Vec<(bool, BlockId)> = {
        let mut m = Machine::new(Arc::clone(&image), MachineConfig::default());
        m.set_reg(0, Reg(1), 8);
        let mut log = TickLog::default();
        m.run_hooked(&mut codelayout_vm::NullSink, &mut log, 1_000_000);
        log.0
    };
    for engine in engines() {
        for quantum in [1u64, 2, 3, 5] {
            let mut m = Machine::new(
                Arc::clone(&image),
                MachineConfig {
                    engine,
                    quantum,
                    ..MachineConfig::default()
                },
            );
            m.set_reg(0, Reg(1), 8);
            let mut log = TickLog::default();
            m.run_hooked(&mut codelayout_vm::NullSink, &mut log, 1_000_000);
            assert_eq!(log.0, reference, "{engine:?} quantum={quantum}");
        }
    }
}

#[derive(Default)]
struct TickLog(Vec<(bool, BlockId)>);

impl ExecHook for TickLog {
    fn tick(&mut self, kernel: bool, block: BlockId) {
        self.0.push((kernel, block));
    }
}
