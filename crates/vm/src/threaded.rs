//! The threaded execution engine (the default): pre-decoded dispatch
//! with peephole superinstructions and run-granular accounting.
//!
//! [`predecode`] flattens each [`CodeBlock`]'s `Vec<Instr>` into a
//! stream of compact, fixed-size [`TInstr`] handler records — the
//! heap-carrying `Instr` is ~56 bytes with two levels of bounds-checked
//! indexing per fetch, while a `TInstr` is a small `Copy` record
//! fetched from one flat slice. A peephole selector fuses the hot
//! adjacent pairs observed in the figure benchmarks — `LoadI`+`Arith`
//! (constant operand feeding the ALU), `LoadI`/`Load`/`Arith` feeding a
//! compare-and-branch, and `Move`+`Jump` (argument shuffle into a tail
//! call) — into single superinstruction records, eliding one
//! fetch/decode per pair. A pair is only formed when no branch targets
//! its second instruction, so every branch target lands on a record
//! boundary.
//!
//! # Run tables
//!
//! Most records are *static*: what they add to [`RunStats`] depends on
//! the instruction alone. The *dynamic* ones are `Slow`, `FBox`, `Halt`
//! and `Uncaught` (allocation, runtime calls, run exits). The
//! pre-decoder gives every record where control can enter — a block
//! start, a branch target, the record after a control transfer or a
//! dynamic record — a [`RunCost`]: the cycles (spill charges included),
//! instructions and per-class deltas of the straight-line run of static
//! records from there up to and including the first control transfer,
//! or up to the next dynamic record or the block end. The `fp3_overhead`
//! jump surcharge is kept apart (a run holds at most one jump), so the
//! tables do not depend on the [`VmConfig`](crate::vm::VmConfig).
//!
//! [`run_slice_threaded`] takes a run on the fast path when no
//! incremental major is active (so no read barrier can copy) and the
//! whole run fits under both the fuel limit and the slice's quantum: it
//! charges the run's cycles once, executes the records through the
//! `C = false` (uncharged) instantiation of the [`Engine`] handlers, and
//! bumps the run's counter in [`RunCounts`]; the counters are folded
//! into [`RunStats`] at every slice exit. Everything else — a run that
//! would cross a fuel or quantum boundary, a dynamic record, a position
//! mid-run — goes through the per-record path, which accounts each
//! constituent exactly as the decode loop does (including the fuel and
//! quantum checks between the halves of a pair). Results, output,
//! every counter, and every `OutOfFuel` and preemption point are
//! therefore identical to [`Dispatch::Decode`](crate::vm::Dispatch),
//! which stays as the per-instruction reference. A trap inside a
//! fast-path run refunds the cycles of the records that did not run:
//! every static handler charges its full cost before it can fail.
//!
//! Instructions with vector operands or runtime-call bodies
//! (`Alloc`, `Switch`, `Rt`, ...) stay in the original stream and
//! execute through a [`TInstr::Slow`] record that defers to
//! [`Engine::step`] — they are rare in hot code and not worth
//! flattening.
//!
//! The stream and its run tables are built once per program, on first
//! use, and cached in [`MachineProgram::predecoded`]: repeated runs and
//! every tenant of one shared program execute the same copy, and an
//! instance holds only its run counters. `verify::verify_threaded`
//! checks that cached copy — every record round-trips to the original
//! instructions and every run's length and costs agree with its
//! records.

use crate::isa::*;
use crate::verify::operand_regs;
use crate::vm::{drain_barrier, static_cycles, Engine, RunStats, VmInstance, VmResult};
use std::sync::OnceLock;

/// One pre-decoded handler record. Flat (no heap indirection), `Copy`,
/// and small; branch targets are in *threaded* coordinates (record
/// indices within the block's stream).
#[derive(Clone, Copy, Debug)]
pub(crate) enum TInstr {
    Move {
        d: Reg,
        s: Reg,
    },
    FMove {
        d: FReg,
        s: FReg,
    },
    LoadI {
        d: Reg,
        imm: i64,
    },
    LoadF {
        d: FReg,
        imm: f64,
    },
    LoadStr {
        d: Reg,
        pool: u32,
    },
    LoadLabel {
        d: Reg,
        label: u32,
    },
    Arith {
        op: AOp,
        d: Reg,
        a: Reg,
        b: Reg,
    },
    FArith {
        op: FOp,
        d: FReg,
        a: FReg,
        b: FReg,
    },
    FUnary {
        op: FUOp,
        d: FReg,
        a: FReg,
    },
    Floor {
        d: Reg,
        a: FReg,
    },
    IntToReal {
        d: FReg,
        a: Reg,
    },
    Load {
        d: Reg,
        base: Reg,
        off: u16,
    },
    Store {
        s: Reg,
        base: Reg,
        off: u16,
    },
    StoreWB {
        s: Reg,
        base: Reg,
        off: u16,
    },
    FLoad {
        d: FReg,
        base: Reg,
        off: u16,
    },
    FStore {
        s: FReg,
        base: Reg,
        off: u16,
    },
    LoadIdx {
        d: Reg,
        base: Reg,
        idx: Reg,
    },
    StoreIdx {
        s: Reg,
        base: Reg,
        idx: Reg,
    },
    StoreIdxWB {
        s: Reg,
        base: Reg,
        idx: Reg,
    },
    ArrLen {
        d: Reg,
        a: Reg,
    },
    FBox {
        d: Reg,
        s: FReg,
    },
    FUnbox {
        d: FReg,
        s: Reg,
    },
    Branch {
        op: BrOp,
        a: Reg,
        b: Reg,
        t: u32,
    },
    FBranch {
        op: FBrOp,
        a: FReg,
        b: FReg,
        t: u32,
    },
    Jump {
        label: u32,
    },
    JumpReg {
        r: Reg,
    },
    GetHdlr {
        d: Reg,
    },
    SetHdlr {
        s: Reg,
    },
    Halt {
        s: Reg,
    },
    Uncaught {
        s: Reg,
    },
    /// Superinstruction: `LoadI di, imm` then `Arith op d, a, b`.
    LoadIArith {
        imm: i64,
        di: Reg,
        op: AOp,
        d: Reg,
        a: Reg,
        b: Reg,
    },
    /// Superinstruction: `LoadI di, imm` then `Branch op a, b -> t`.
    LoadIBranch {
        imm: i64,
        di: Reg,
        op: BrOp,
        a: Reg,
        b: Reg,
        t: u32,
    },
    /// Superinstruction: `Load dl, [base+off]` then `Branch op a, b -> t`.
    LoadBranch {
        dl: Reg,
        base: Reg,
        off: u16,
        op: BrOp,
        a: Reg,
        b: Reg,
        t: u32,
    },
    /// Superinstruction: `Arith aop ad, aa, ab` then `Branch op a, b -> t`.
    ArithBranch {
        aop: AOp,
        ad: Reg,
        aa: Reg,
        ab: Reg,
        op: BrOp,
        a: Reg,
        b: Reg,
        t: u32,
    },
    /// Superinstruction: `Move d, s` then `Jump label` (tail-call
    /// argument shuffle).
    MoveJump {
        d: Reg,
        s: Reg,
        label: u32,
    },
    /// Deferral to [`Engine::step`] on the original instruction at
    /// `pc` (vector operands, runtime calls, or a branch whose target
    /// cannot be mapped into the stream).
    Slow {
        pc: u32,
    },
}

/// One block's pre-decoded stream, the two coordinate maps between
/// original pcs and record indices, and where its runs start.
pub(crate) struct ThreadedBlock {
    /// The handler records.
    pub(crate) code: Vec<TInstr>,
    /// `pc_map[pc]` is the record containing original instruction `pc`
    /// (length `n + 1`; `pc_map[n] == code.len()` so a fall-off-the-end
    /// pc maps to the one-past-the-end record).
    pub(crate) pc_map: Vec<u32>,
    /// `tpc_to_pc[rec]` is the original pc of record `rec`'s first
    /// constituent (length `code.len() + 1`;
    /// `tpc_to_pc[code.len()] == n`).
    pub(crate) tpc_to_pc: Vec<u32>,
    /// `run_at[rec]` indexes [`ThreadedProgram::runs`] for the run that
    /// starts at record `rec`, or is [`NO_RUN`] (length `code.len()`).
    pub(crate) run_at: Vec<u32>,
}

/// A whole program's pre-decoded streams and run tables, built once
/// per program and cached in [`MachineProgram::predecoded`].
pub(crate) struct ThreadedProgram {
    pub(crate) blocks: Vec<ThreadedBlock>,
    /// Every run in the program, indexed by [`ThreadedBlock::run_at`].
    pub(crate) runs: Vec<RunCost>,
    /// Superinstructions the peephole selector fused.
    pub(crate) fused: u64,
    /// Total handler records across all blocks.
    pub(crate) stream_len: u64,
}

/// [`ThreadedBlock::run_at`] for a record where no run starts.
pub(crate) const NO_RUN: u32 = u32::MAX;

/// The lazily built pre-decoded form of a [`MachineProgram`]: its
/// threaded stream and run tables. It is built by the first threaded
/// [`VmInstance`] (or `verify_threaded`) and shared by every later one.
/// Start it empty with `Default::default()`. A clone starts empty
/// again, so a clone may be edited freely; a program that has already
/// run must not be edited in place, or the cache goes stale (which
/// `verify_threaded` reports).
#[derive(Default)]
pub struct PredecodeCache(OnceLock<ThreadedProgram>);

impl Clone for PredecodeCache {
    fn clone(&self) -> PredecodeCache {
        PredecodeCache::default()
    }
}

/// The program's pre-decoded form, built on first use.
pub(crate) fn threaded(prog: &MachineProgram) -> &ThreadedProgram {
    prog.predecoded.0.get_or_init(|| predecode(prog))
}

/// What executing a straight-line stretch of static records adds to
/// [`RunStats`] on the per-record path, absent a trap: the unit the
/// run tables store and the fast path charges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct RunCost {
    /// Handler records in the run.
    pub(crate) records: u32,
    /// Instructions (constituents) in the run.
    pub(crate) instrs: u32,
    /// `Jump`/`JumpReg` constituents (at most one); each pays one more
    /// cycle under `fp3_overhead`, not included in the cycle fields.
    pub(crate) jumps: u32,
    /// Modelled cycles, spill charges included.
    pub(crate) cycles: u64,
    /// Instructions per [`InstrClass`].
    pub(crate) instrs_by_class: [u32; N_INSTR_CLASSES],
    /// Cycles per [`InstrClass`].
    pub(crate) cycles_by_class: [u64; N_INSTR_CLASSES],
}

/// Counts operands in the spill-modelled register range.
struct Spilled(u64);

impl Extend<u8> for Spilled {
    fn extend<I: IntoIterator<Item = u8>>(&mut self, regs: I) {
        self.0 += regs.into_iter().filter(|&r| r >= HW_REGS).count() as u64;
    }
}

impl RunCost {
    /// Adds one instruction's static cost, exactly what its handler
    /// charges (2 cycles per spilled operand on top of
    /// [`static_cycles`]); `false`, leaving `self` unchanged, for an
    /// instruction without one.
    pub(crate) fn add_instr(&mut self, ins: &Instr) -> bool {
        let Some(base) = static_cycles(ins) else {
            return false;
        };
        let (mut r, mut f) = (Spilled(0), Spilled(0));
        operand_regs(ins, &mut r, &mut f);
        let cycles = base + 2 * (r.0 + f.0);
        let class = ins.class() as usize;
        self.instrs += 1;
        self.cycles += cycles;
        self.instrs_by_class[class] += 1;
        self.cycles_by_class[class] += cycles;
        self.jumps += matches!(ins, Instr::Jump { .. } | Instr::JumpReg { .. }) as u32;
        true
    }

    /// The static cost of the instructions `instrs`, or `None` if one
    /// has no static cost. `records` is left at 0.
    pub(crate) fn of(instrs: &[Instr]) -> Option<RunCost> {
        let mut c = RunCost::default();
        instrs.iter().all(|i| c.add_instr(i)).then_some(c)
    }

    /// Appends `next`, the stretch that directly follows this one.
    fn then(mut self, next: &RunCost) -> RunCost {
        self.records += next.records;
        self.instrs += next.instrs;
        self.jumps += next.jumps;
        self.cycles += next.cycles;
        for k in 0..N_INSTR_CLASSES {
            self.instrs_by_class[k] += next.instrs_by_class[k];
            self.cycles_by_class[k] += next.cycles_by_class[k];
        }
        self
    }

    /// The cycles the stretch charges, jump surcharge included.
    #[inline(always)]
    pub(crate) fn total(&self, fp3: bool) -> u64 {
        self.cycles + if fp3 { self.jumps as u64 } else { 0 }
    }

    /// Adds `times` executions of the stretch to every counter but
    /// `cycles`, which the engine charges when it enters the run.
    fn attribute(&self, stats: &mut RunStats, times: u64, fp3: bool) {
        stats.instrs += times * self.instrs as u64;
        for k in 0..N_INSTR_CLASSES {
            stats.instrs_by_class[k] += times * self.instrs_by_class[k] as u64;
            stats.cycles_by_class[k] += times * self.cycles_by_class[k];
        }
        if fp3 {
            stats.cycles_by_class[InstrClass::Jump as usize] += times * self.jumps as u64;
        }
    }
}

/// Whether a record ends a run by transferring control.
pub(crate) fn is_transfer(t: &TInstr) -> bool {
    matches!(
        t,
        TInstr::Branch { .. }
            | TInstr::FBranch { .. }
            | TInstr::Jump { .. }
            | TInstr::JumpReg { .. }
            | TInstr::LoadIBranch { .. }
            | TInstr::LoadBranch { .. }
            | TInstr::ArithBranch { .. }
            | TInstr::MoveJump { .. }
    )
}

/// Whether a record's accounting depends on run-time state (or ends
/// the run), so it never sits inside a run.
pub(crate) fn is_dynamic(t: &TInstr) -> bool {
    matches!(
        t,
        TInstr::Slow { .. } | TInstr::FBox { .. } | TInstr::Halt { .. } | TInstr::Uncaught { .. }
    )
}

/// Is `(i1, i2)` a fusable pair? Branch-consuming pairs additionally
/// require a mappable target (`target <= n`); an out-of-range target
/// must fault with the original pc, which only the slow path preserves.
fn fusable(i1: &Instr, i2: &Instr, n: usize) -> bool {
    match (i1, i2) {
        (Instr::LoadI { .. }, Instr::Arith { .. }) => true,
        (
            Instr::LoadI { .. } | Instr::Load { .. } | Instr::Arith { .. },
            Instr::Branch { target, .. },
        ) => *target as usize <= n,
        (Instr::Move { .. }, Instr::Jump { .. }) => true,
        _ => false,
    }
}

/// Translates one unfused instruction into its flat record, or
/// [`TInstr::Slow`] for the deferred set.
fn translate_single(ins: &Instr, pc: usize, pc_map: &[u32], n: usize) -> TInstr {
    match ins {
        Instr::Move { d, s } => TInstr::Move { d: *d, s: *s },
        Instr::FMove { d, s } => TInstr::FMove { d: *d, s: *s },
        Instr::LoadI { d, imm } => TInstr::LoadI { d: *d, imm: *imm },
        Instr::LoadF { d, imm } => TInstr::LoadF { d: *d, imm: *imm },
        Instr::LoadStr { d, pool } => TInstr::LoadStr { d: *d, pool: *pool },
        Instr::LoadLabel { d, label } => TInstr::LoadLabel {
            d: *d,
            label: *label,
        },
        Instr::Arith { op, d, a, b } => TInstr::Arith {
            op: *op,
            d: *d,
            a: *a,
            b: *b,
        },
        Instr::FArith { op, d, a, b } => TInstr::FArith {
            op: *op,
            d: *d,
            a: *a,
            b: *b,
        },
        Instr::FUnary { op, d, a } => TInstr::FUnary {
            op: *op,
            d: *d,
            a: *a,
        },
        Instr::Floor { d, a } => TInstr::Floor { d: *d, a: *a },
        Instr::IntToReal { d, a } => TInstr::IntToReal { d: *d, a: *a },
        Instr::Load { d, base, off } => TInstr::Load {
            d: *d,
            base: *base,
            off: *off,
        },
        Instr::Store { s, base, off } => TInstr::Store {
            s: *s,
            base: *base,
            off: *off,
        },
        Instr::StoreWB { s, base, off } => TInstr::StoreWB {
            s: *s,
            base: *base,
            off: *off,
        },
        Instr::FLoad { d, base, off } => TInstr::FLoad {
            d: *d,
            base: *base,
            off: *off,
        },
        Instr::FStore { s, base, off } => TInstr::FStore {
            s: *s,
            base: *base,
            off: *off,
        },
        Instr::LoadIdx { d, base, idx } => TInstr::LoadIdx {
            d: *d,
            base: *base,
            idx: *idx,
        },
        Instr::StoreIdx { s, base, idx } => TInstr::StoreIdx {
            s: *s,
            base: *base,
            idx: *idx,
        },
        Instr::StoreIdxWB { s, base, idx } => TInstr::StoreIdxWB {
            s: *s,
            base: *base,
            idx: *idx,
        },
        Instr::ArrLen { d, a } => TInstr::ArrLen { d: *d, a: *a },
        Instr::FBox { d, s } => TInstr::FBox { d: *d, s: *s },
        Instr::FUnbox { d, s } => TInstr::FUnbox { d: *d, s: *s },
        Instr::Branch { op, a, b, target } if *target as usize <= n => TInstr::Branch {
            op: *op,
            a: *a,
            b: *b,
            t: pc_map[*target as usize],
        },
        Instr::FBranch { op, a, b, target } if *target as usize <= n => TInstr::FBranch {
            op: *op,
            a: *a,
            b: *b,
            t: pc_map[*target as usize],
        },
        Instr::Jump { label } => TInstr::Jump { label: *label },
        Instr::JumpReg { r } => TInstr::JumpReg { r: *r },
        Instr::GetHdlr { d } => TInstr::GetHdlr { d: *d },
        Instr::SetHdlr { s } => TInstr::SetHdlr { s: *s },
        Instr::Halt { s } => TInstr::Halt { s: *s },
        Instr::Uncaught { s } => TInstr::Uncaught { s: *s },
        // Vector operands, runtime calls, and unmappable branch
        // targets defer to the decode-path `step`.
        _ => TInstr::Slow { pc: pc as u32 },
    }
}

/// Builds the fused record for a pair selected by [`fusable`].
fn translate_pair(i1: &Instr, i2: &Instr, pc_map: &[u32]) -> TInstr {
    match (i1, i2) {
        (Instr::LoadI { d: di, imm }, Instr::Arith { op, d, a, b }) => TInstr::LoadIArith {
            imm: *imm,
            di: *di,
            op: *op,
            d: *d,
            a: *a,
            b: *b,
        },
        (Instr::LoadI { d: di, imm }, Instr::Branch { op, a, b, target }) => TInstr::LoadIBranch {
            imm: *imm,
            di: *di,
            op: *op,
            a: *a,
            b: *b,
            t: pc_map[*target as usize],
        },
        (Instr::Load { d, base, off }, Instr::Branch { op, a, b, target }) => TInstr::LoadBranch {
            dl: *d,
            base: *base,
            off: *off,
            op: *op,
            a: *a,
            b: *b,
            t: pc_map[*target as usize],
        },
        (
            Instr::Arith { op: aop, d, a, b },
            Instr::Branch {
                op,
                a: ba,
                b: bb,
                target,
            },
        ) => TInstr::ArithBranch {
            aop: *aop,
            ad: *d,
            aa: *a,
            ab: *b,
            op: *op,
            a: *ba,
            b: *bb,
            t: pc_map[*target as usize],
        },
        (Instr::Move { d, s }, Instr::Jump { label }) => TInstr::MoveJump {
            d: *d,
            s: *s,
            label: *label,
        },
        _ => unreachable!("translate_pair on a pair fusable() rejected"),
    }
}

/// Pre-decodes one block: segments the instruction stream into records
/// (pass 1), emits them with branch targets mapped into threaded
/// coordinates (pass 2), and appends the block's runs to `runs`
/// (pass 3).
fn predecode_block(b: &CodeBlock, runs: &mut Vec<RunCost>) -> (ThreadedBlock, u64) {
    let instrs = &b.instrs;
    let n = instrs.len();

    // Original pcs that any branch in the block may target (a target
    // beyond the block is left unmapped — the slow path preserves its
    // fault pc). A targeted pc must start a record, so it blocks
    // fusion as a second constituent.
    let mut is_target = vec![false; n + 1];
    let mut targets = Vec::new();
    for ins in instrs {
        targets.clear();
        crate::verify::branch_targets(ins, &mut targets);
        for &t in &targets {
            if t as usize <= n {
                is_target[t as usize] = true;
            }
        }
    }

    // Pass 1: segmentation. Decide which pcs fuse with their successor
    // and assign every pc its record index.
    let mut pc_map = vec![0u32; n + 1];
    let mut starts: Vec<u32> = Vec::with_capacity(n);
    let mut pair: Vec<bool> = Vec::with_capacity(n);
    let mut pc = 0usize;
    while pc < n {
        let fuse = pc + 1 < n && !is_target[pc + 1] && fusable(&instrs[pc], &instrs[pc + 1], n);
        let rec = starts.len() as u32;
        pc_map[pc] = rec;
        if fuse {
            pc_map[pc + 1] = rec;
        }
        starts.push(pc as u32);
        pair.push(fuse);
        pc += if fuse { 2 } else { 1 };
    }
    pc_map[n] = starts.len() as u32;

    // Pass 2: emission, now that every branch target's record index is
    // known.
    let mut code = Vec::with_capacity(starts.len());
    let mut fused = 0u64;
    for (rec, &start) in starts.iter().enumerate() {
        let start = start as usize;
        if pair[rec] {
            fused += 1;
            code.push(translate_pair(&instrs[start], &instrs[start + 1], &pc_map));
        } else {
            code.push(translate_single(&instrs[start], start, &pc_map, n));
        }
    }
    let mut tpc_to_pc = starts;
    tpc_to_pc.push(n as u32);

    // Pass 3: run tables, right to left, carrying the run that starts
    // at the following record (`None` after a dynamic record or at the
    // block end). A run is recorded wherever control can enter.
    let mut run_at = vec![NO_RUN; code.len()];
    let mut next: Option<RunCost> = None;
    for rec in (0..code.len()).rev() {
        let t = &code[rec];
        let span = tpc_to_pc[rec] as usize..tpc_to_pc[rec + 1] as usize;
        let own = match RunCost::of(&instrs[span]) {
            Some(c) if !is_dynamic(t) => RunCost { records: 1, ..c },
            _ => {
                next = None;
                continue;
            }
        };
        let run = match &next {
            Some(rest) if !is_transfer(t) => own.then(rest),
            _ => own,
        };
        next = Some(run);
        let entered = rec == 0
            || is_target[tpc_to_pc[rec] as usize]
            || is_transfer(&code[rec - 1])
            || is_dynamic(&code[rec - 1]);
        if entered {
            run_at[rec] = runs.len() as u32;
            runs.push(run);
        }
    }
    (
        ThreadedBlock {
            code,
            pc_map,
            tpc_to_pc,
            run_at,
        },
        fused,
    )
}

/// Pre-decodes a whole program into threaded streams and run tables
/// (uncached; [`threaded`] is the cached entry point).
pub(crate) fn predecode(prog: &MachineProgram) -> ThreadedProgram {
    let mut blocks = Vec::with_capacity(prog.blocks.len());
    let mut runs = Vec::new();
    let mut fused = 0u64;
    let mut stream_len = 0u64;
    for b in &prog.blocks {
        let (tb, f) = predecode_block(b, &mut runs);
        fused += f;
        stream_len += tb.code.len() as u64;
        blocks.push(tb);
    }
    ThreadedProgram {
        blocks,
        runs,
        fused,
        stream_len,
    }
}

/// Expands a record back into original-coordinate [`Instr`]s (threaded
/// branch targets mapped back through `tpc_to_pc`). Returns `None` for
/// [`TInstr::Slow`], which carries no operand copy to round-trip. Used
/// by `verify::verify_threaded`.
pub(crate) fn expand(t: &TInstr, tb: &ThreadedBlock) -> Option<Vec<Instr>> {
    let back = |t: u32| tb.tpc_to_pc[t as usize];
    Some(match *t {
        TInstr::Move { d, s } => vec![Instr::Move { d, s }],
        TInstr::FMove { d, s } => vec![Instr::FMove { d, s }],
        TInstr::LoadI { d, imm } => vec![Instr::LoadI { d, imm }],
        TInstr::LoadF { d, imm } => vec![Instr::LoadF { d, imm }],
        TInstr::LoadStr { d, pool } => vec![Instr::LoadStr { d, pool }],
        TInstr::LoadLabel { d, label } => vec![Instr::LoadLabel { d, label }],
        TInstr::Arith { op, d, a, b } => vec![Instr::Arith { op, d, a, b }],
        TInstr::FArith { op, d, a, b } => vec![Instr::FArith { op, d, a, b }],
        TInstr::FUnary { op, d, a } => vec![Instr::FUnary { op, d, a }],
        TInstr::Floor { d, a } => vec![Instr::Floor { d, a }],
        TInstr::IntToReal { d, a } => vec![Instr::IntToReal { d, a }],
        TInstr::Load { d, base, off } => vec![Instr::Load { d, base, off }],
        TInstr::Store { s, base, off } => vec![Instr::Store { s, base, off }],
        TInstr::StoreWB { s, base, off } => vec![Instr::StoreWB { s, base, off }],
        TInstr::FLoad { d, base, off } => vec![Instr::FLoad { d, base, off }],
        TInstr::FStore { s, base, off } => vec![Instr::FStore { s, base, off }],
        TInstr::LoadIdx { d, base, idx } => vec![Instr::LoadIdx { d, base, idx }],
        TInstr::StoreIdx { s, base, idx } => vec![Instr::StoreIdx { s, base, idx }],
        TInstr::StoreIdxWB { s, base, idx } => vec![Instr::StoreIdxWB { s, base, idx }],
        TInstr::ArrLen { d, a } => vec![Instr::ArrLen { d, a }],
        TInstr::FBox { d, s } => vec![Instr::FBox { d, s }],
        TInstr::FUnbox { d, s } => vec![Instr::FUnbox { d, s }],
        TInstr::Branch { op, a, b, t } => vec![Instr::Branch {
            op,
            a,
            b,
            target: back(t),
        }],
        TInstr::FBranch { op, a, b, t } => vec![Instr::FBranch {
            op,
            a,
            b,
            target: back(t),
        }],
        TInstr::Jump { label } => vec![Instr::Jump { label }],
        TInstr::JumpReg { r } => vec![Instr::JumpReg { r }],
        TInstr::GetHdlr { d } => vec![Instr::GetHdlr { d }],
        TInstr::SetHdlr { s } => vec![Instr::SetHdlr { s }],
        TInstr::Halt { s } => vec![Instr::Halt { s }],
        TInstr::Uncaught { s } => vec![Instr::Uncaught { s }],
        TInstr::LoadIArith {
            imm,
            di,
            op,
            d,
            a,
            b,
        } => vec![Instr::LoadI { d: di, imm }, Instr::Arith { op, d, a, b }],
        TInstr::LoadIBranch {
            imm,
            di,
            op,
            a,
            b,
            t,
        } => vec![
            Instr::LoadI { d: di, imm },
            Instr::Branch {
                op,
                a,
                b,
                target: back(t),
            },
        ],
        TInstr::LoadBranch {
            dl,
            base,
            off,
            op,
            a,
            b,
            t,
        } => vec![
            Instr::Load { d: dl, base, off },
            Instr::Branch {
                op,
                a,
                b,
                target: back(t),
            },
        ],
        TInstr::ArithBranch {
            aop,
            ad,
            aa,
            ab,
            op,
            a,
            b,
            t,
        } => vec![
            Instr::Arith {
                op: aop,
                d: ad,
                a: aa,
                b: ab,
            },
            Instr::Branch {
                op,
                a,
                b,
                target: back(t),
            },
        ],
        TInstr::MoveJump { d, s, label } => vec![Instr::Move { d, s }, Instr::Jump { label }],
        TInstr::Slow { .. } => return None,
    })
}

/// One instance's run counters: how often each run of its program took
/// the fast path since the last slice exit, and which runs did. The
/// tables themselves live with the program.
#[derive(Default)]
pub(crate) struct RunCounts {
    counts: Vec<u64>,
    touched: Vec<u32>,
}

impl RunCounts {
    /// Zeroed counters for a program with `runs` runs.
    pub(crate) fn new(runs: usize) -> RunCounts {
        RunCounts {
            counts: vec![0; runs],
            touched: Vec::new(),
        }
    }

    #[inline(always)]
    fn bump(&mut self, run: u32) {
        let c = &mut self.counts[run as usize];
        if *c == 0 {
            self.touched.push(run);
        }
        *c += 1;
    }

    /// Folds the counters into `stats` and zeroes them.
    fn fold(&mut self, runs: &[RunCost], stats: &mut RunStats, fp3: bool) {
        for &r in &self.touched {
            let times = std::mem::take(&mut self.counts[r as usize]);
            runs[r as usize].attribute(stats, times, fp3);
        }
        self.touched.clear();
    }
}

/// Per-constituent accounting, identical to one decode-loop iteration:
/// count, snapshot, execute, drain the read barrier, attribute mutator
/// vs. GC cycles.
macro_rules! acct {
    ($eng:ident, $class:expr, $e:expr) => {{
        let class = $class as usize;
        $eng.stats.instrs += 1;
        $eng.stats.instrs_by_class[class] += 1;
        let cycles_before = $eng.stats.cycles;
        let gc_before = $eng.stats.gc_cycles;
        let r = $e;
        drain_barrier(&mut *$eng.heap, &mut *$eng.stats);
        let gc_delta = $eng.stats.gc_cycles - gc_before;
        $eng.stats.cycles_by_class[class] += $eng.stats.cycles - cycles_before - gc_delta;
        $eng.stats.cycles_by_class[InstrClass::Gc as usize] += gc_delta;
        r
    }};
}

/// Where control goes after one record. It carries indices only, so
/// it stays in registers; a run's final result travels through the
/// `out` argument of [`exec`].
#[derive(Clone, Copy)]
enum Flow {
    /// Record `tpc` of the current block (fall-through or a branch).
    At(usize),
    /// The first record of `eng.block` (a jump, already taken).
    Enter,
    /// Original pc `eng.pc` of `eng.block` (after a slow record, which
    /// may have redirected it).
    Rejoin,
    /// The run ended — a halt or a trap, stored in `out` — after `done`
    /// of the record's constituents, the failing one included.
    End(usize),
    /// Fuel (`out` holds `OutOfFuel`) or the quantum (`out` stays
    /// `None`) ran out between the halves of a pair; per-record path
    /// only.
    Split,
}

/// Executes record `tpc` of `tb`. With `C` (the per-record path) every
/// constituent is accounted like a decode-loop step, and fuel and the
/// quantum are checked between the halves of a pair. Without it (inside
/// a fast-path run, whose cost is already charged) the static handlers
/// charge nothing. Dynamic records always account for themselves; they
/// never sit inside a run.
#[inline(always)]
fn exec<const C: bool>(
    eng: &mut Engine<'_, '_>,
    tb: &ThreadedBlock,
    tpc: usize,
    stop_at: u64,
    out: &mut Option<VmResult>,
) -> Flow {
    macro_rules! h {
        ($class:ident, $e:expr) => {
            if C {
                acct!(eng, InstrClass::$class, $e)
            } else {
                $e
            }
        };
    }
    macro_rules! ok {
        ($r:expr, $done:expr) => {
            match $r {
                Ok(v) => v,
                Err(end) => {
                    *out = Some(end);
                    return Flow::End($done);
                }
            }
        };
    }
    // The decode loop checks fuel and the quantum before every
    // instruction; between the halves of a pair this reproduces that.
    macro_rules! between {
        () => {
            if C {
                if eng.stats.cycles > eng.cfg.max_cycles {
                    *out = Some(VmResult::OutOfFuel);
                    return Flow::Split;
                }
                if eng.stats.cycles >= stop_at {
                    return Flow::Split;
                }
            }
        };
    }
    // Branch-on-false: a false comparison goes to the target.
    let branch = |taken: bool, t: u32| Flow::At(if taken { tpc + 1 } else { t as usize });
    let next = Flow::At(tpc + 1);
    match tb.code[tpc] {
        TInstr::Move { d, s } => {
            h!(Move, eng.m_move::<C>(d, s));
            next
        }
        TInstr::FMove { d, s } => {
            h!(Move, eng.m_fmove::<C>(d, s));
            next
        }
        TInstr::LoadI { d, imm } => {
            h!(Move, eng.m_loadi::<C>(d, imm));
            next
        }
        TInstr::LoadF { d, imm } => {
            h!(Move, eng.m_loadf::<C>(d, imm));
            next
        }
        TInstr::LoadStr { d, pool } => {
            ok!(h!(Move, eng.m_loadstr::<C>(d, pool)), 1);
            next
        }
        TInstr::LoadLabel { d, label } => {
            h!(Move, eng.m_loadlabel::<C>(d, label));
            next
        }
        TInstr::Arith { op, d, a, b } => {
            ok!(h!(IntArith, eng.m_arith::<C>(op, d, a, b)), 1);
            next
        }
        TInstr::FArith { op, d, a, b } => {
            h!(FloatArith, eng.m_farith::<C>(op, d, a, b));
            next
        }
        TInstr::FUnary { op, d, a } => {
            h!(FloatArith, eng.m_funary::<C>(op, d, a));
            next
        }
        TInstr::Floor { d, a } => {
            h!(FloatArith, eng.m_floor::<C>(d, a));
            next
        }
        TInstr::IntToReal { d, a } => {
            h!(FloatArith, eng.m_inttoreal::<C>(d, a));
            next
        }
        TInstr::Load { d, base, off } => {
            ok!(h!(Memory, eng.m_load::<C>(d, base, off)), 1);
            next
        }
        TInstr::Store { s, base, off } => {
            ok!(h!(Memory, eng.m_store::<C>(s, base, off)), 1);
            next
        }
        TInstr::StoreWB { s, base, off } => {
            ok!(h!(Memory, eng.m_storewb::<C>(s, base, off)), 1);
            next
        }
        TInstr::FLoad { d, base, off } => {
            ok!(h!(Memory, eng.m_fload::<C>(d, base, off)), 1);
            next
        }
        TInstr::FStore { s, base, off } => {
            ok!(h!(Memory, eng.m_fstore::<C>(s, base, off)), 1);
            next
        }
        TInstr::LoadIdx { d, base, idx } => {
            ok!(h!(Memory, eng.m_loadidx::<C>(d, base, idx)), 1);
            next
        }
        TInstr::StoreIdx { s, base, idx } => {
            ok!(h!(Memory, eng.m_storeidx::<C>(s, base, idx)), 1);
            next
        }
        TInstr::StoreIdxWB { s, base, idx } => {
            ok!(h!(Memory, eng.m_storeidxwb::<C>(s, base, idx)), 1);
            next
        }
        TInstr::ArrLen { d, a } => {
            ok!(h!(Memory, eng.m_arrlen::<C>(d, a)), 1);
            next
        }
        TInstr::FUnbox { d, s } => {
            ok!(h!(Memory, eng.m_funbox::<C>(d, s)), 1);
            next
        }
        TInstr::Branch { op, a, b, t } => branch(h!(Branch, eng.m_branch::<C>(op, a, b)), t),
        TInstr::FBranch { op, a, b, t } => branch(h!(Branch, eng.m_fbranch::<C>(op, a, b)), t),
        TInstr::Jump { label } => {
            h!(Jump, eng.m_jump::<C>());
            eng.block = label as usize;
            eng.pc = 0;
            Flow::Enter
        }
        TInstr::JumpReg { r } => {
            eng.block = ok!(h!(Jump, eng.m_jumpreg::<C>(r)), 1);
            eng.pc = 0;
            Flow::Enter
        }
        TInstr::GetHdlr { d } => {
            h!(Control, eng.m_gethdlr::<C>(d));
            next
        }
        TInstr::SetHdlr { s } => {
            h!(Control, eng.m_sethdlr::<C>(s));
            next
        }
        TInstr::LoadIArith {
            imm,
            di,
            op,
            d,
            a,
            b,
        } => {
            h!(Move, eng.m_loadi::<C>(di, imm));
            between!();
            ok!(h!(IntArith, eng.m_arith::<C>(op, d, a, b)), 2);
            next
        }
        TInstr::LoadIBranch {
            imm,
            di,
            op,
            a,
            b,
            t,
        } => {
            h!(Move, eng.m_loadi::<C>(di, imm));
            between!();
            branch(h!(Branch, eng.m_branch::<C>(op, a, b)), t)
        }
        TInstr::LoadBranch {
            dl,
            base,
            off,
            op,
            a,
            b,
            t,
        } => {
            ok!(h!(Memory, eng.m_load::<C>(dl, base, off)), 1);
            between!();
            branch(h!(Branch, eng.m_branch::<C>(op, a, b)), t)
        }
        TInstr::ArithBranch {
            aop,
            ad,
            aa,
            ab,
            op,
            a,
            b,
            t,
        } => {
            ok!(h!(IntArith, eng.m_arith::<C>(aop, ad, aa, ab)), 1);
            between!();
            branch(h!(Branch, eng.m_branch::<C>(op, a, b)), t)
        }
        TInstr::MoveJump { d, s, label } => {
            h!(Move, eng.m_move::<C>(d, s));
            between!();
            h!(Jump, eng.m_jump::<C>());
            eng.block = label as usize;
            eng.pc = 0;
            Flow::Enter
        }
        TInstr::FBox { d, s } => {
            ok!(acct!(eng, InstrClass::Alloc, eng.m_fbox(d, s)), 1);
            next
        }
        TInstr::Halt { s } => {
            *out = Some(acct!(eng, InstrClass::Control, eng.m_halt(s)));
            Flow::End(1)
        }
        TInstr::Uncaught { s } => {
            *out = Some(acct!(eng, InstrClass::Control, eng.m_uncaught(s)));
            Flow::End(1)
        }
        TInstr::Slow { pc } => {
            let prog = eng.prog;
            let instr = &prog.blocks[eng.block].instrs[pc as usize];
            eng.pc = pc as usize + 1;
            ok!(acct!(eng, instr.class(), eng.step(instr)), 1);
            Flow::Rejoin
        }
    }
}

/// The record holding original instruction `pc` of `block`, plus `pc`
/// itself when it has no record of its own: out of range (a fetch
/// fault), or the second half of a pair (a resume after a preemption
/// between the halves).
fn locate(tp: &ThreadedProgram, block: usize, pc: usize) -> (usize, Option<usize>) {
    match tp.blocks.get(block) {
        Some(tb) if pc < tb.pc_map.len() => {
            let rec = tb.pc_map[pc] as usize;
            if tb.tpc_to_pc[rec] as usize == pc {
                (rec, None)
            } else {
                (tb.code.len(), Some(pc))
            }
        }
        Some(tb) => (tb.code.len(), Some(pc)),
        None => (0, Some(pc)),
    }
}

/// The threaded dispatch loop: same contract as the decode loop
/// (`VmInstance::run_slice_decode`), same [`Engine`] handlers, same
/// counters and the same fuel and preemption points; straight-line runs
/// that fit take the fast path (see the module docs).
pub(crate) fn run_slice_threaded(vm: &mut VmInstance<'_>, quantum: u64) -> bool {
    if vm.finished.is_some() {
        return true;
    }
    let stop_at = vm.stats.cycles.saturating_add(quantum);
    let tp = threaded(&vm.prog);
    let (out, block, pc) = {
        let mut eng = Engine {
            prog: &vm.prog,
            cfg: &vm.cfg,
            heap: &mut vm.heap,
            pool_ptrs: &vm.pool_ptrs,
            regs: &mut vm.regs,
            fregs: &mut vm.fregs,
            handler: &mut vm.handler,
            stats: &mut vm.stats,
            output: &mut vm.output,
            yield_ctr: &mut vm.yield_ctr,
            block: vm.block,
            pc: vm.pc,
        };
        let (out, pc) = slice(&mut eng, tp, &mut vm.runs, stop_at);
        (out, eng.block, pc)
    };
    vm.runs.fold(&tp.runs, &mut vm.stats, vm.cfg.fp3_overhead);
    vm.block = block;
    vm.pc = pc;
    vm.sync_heap_stats();
    vm.finished = out;
    vm.finished.is_some()
}

/// The slice loop proper: runs until a halt, a trap, fuel or the
/// quantum ends it, and returns how it ended plus the original pc to
/// resume at. A function of its own so that `eng` is a non-aliased
/// argument and its fields stay in registers across the handlers'
/// stores.
#[inline(never)]
fn slice(
    eng: &mut Engine<'_, '_>,
    tp: &ThreadedProgram,
    counts: &mut RunCounts,
    stop_at: u64,
) -> (Option<VmResult>, usize) {
    let fp3 = eng.cfg.fp3_overhead;
    let mut out: Option<VmResult> = None;
    let (mut tpc, mut off) = locate(tp, eng.block, eng.pc);
    'slice: loop {
        if eng.stats.cycles > eng.cfg.max_cycles {
            out = Some(VmResult::OutOfFuel);
            break;
        }
        if eng.stats.cycles >= stop_at {
            break; // quantum spent: preempted between instructions
        }
        let Some(tb) = tp.blocks.get(eng.block).filter(|tb| tpc < tb.code.len()) else {
            let pc = off.unwrap_or_else(|| {
                tp.blocks
                    .get(eng.block)
                    .map_or(eng.pc, |tb| tb.tpc_to_pc[tpc] as usize)
            });
            // The second half of a pair, resumed on its own exactly
            // as the decode loop would execute it.
            let prog = eng.prog;
            let half = off.and_then(|_| prog.blocks.get(eng.block)?.instrs.get(pc));
            if let Some(instr) = half {
                eng.pc = pc + 1;
                if let Err(end) = acct!(eng, instr.class(), eng.step(instr)) {
                    out = Some(end);
                    break;
                }
                (tpc, off) = locate(tp, eng.block, eng.pc);
                continue;
            }
            out = Some(VmResult::Fault(format!(
                "instruction fetch out of range: block {} pc {}",
                eng.block, pc
            )));
            break;
        };

        // The fast path: the whole run fits under fuel and quantum,
        // so no check inside it could fire.
        let run = tb.run_at[tpc];
        if run != NO_RUN && !eng.heap.major_active() {
            let cost = &tp.runs[run as usize];
            let end = eng.stats.cycles.saturating_add(cost.total(fp3));
            if end <= eng.cfg.max_cycles && end < stop_at {
                eng.stats.cycles = end;
                let start = tpc;
                for _ in 0..cost.records {
                    match exec::<false>(eng, tb, tpc, stop_at, &mut out) {
                        Flow::At(t) => tpc = t,
                        Flow::Enter => tpc = 0,
                        Flow::End(done) => {
                            // Keep what ran, refund the rest.
                            let from = tb.tpc_to_pc[start] as usize;
                            let to = tb.tpc_to_pc[tpc] as usize + done;
                            let ran = RunCost::of(&eng.prog.blocks[eng.block].instrs[from..to])
                                .unwrap_or_default();
                            eng.stats.cycles -= cost.total(fp3) - ran.total(fp3);
                            ran.attribute(eng.stats, 1, fp3);
                            break 'slice;
                        }
                        Flow::Rejoin | Flow::Split => {
                            unreachable!("runs hold no slow record and never split")
                        }
                    }
                }
                counts.bump(run);
                continue;
            }
        }

        match exec::<true>(eng, tb, tpc, stop_at, &mut out) {
            Flow::At(t) => tpc = t,
            Flow::Enter => tpc = 0,
            Flow::Rejoin => (tpc, off) = locate(tp, eng.block, eng.pc),
            Flow::End(_) => break,
            Flow::Split => {
                // Stop before the second half; a resume runs it.
                off = Some(tb.tpc_to_pc[tpc] as usize + 1);
                tpc = tb.code.len();
                break;
            }
        }
    }
    // Translate the exit position back into original coordinates
    // so resumption — under either engine — and fault reporting
    // agree with the decode loop.
    let pc = off.unwrap_or_else(|| {
        tp.blocks
            .get(eng.block)
            .map_or(eng.pc, |tb| tb.tpc_to_pc[tpc] as usize)
    });
    (out, pc)
}
