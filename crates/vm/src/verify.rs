//! Bytecode verifier.
//!
//! Statically validates a [`MachineProgram`] before it reaches the
//! interpreter: control-flow targets, register discipline, string-pool
//! references, and — tying into the generational collector — that every
//! `Alloc` describes an object layout the GC scanner can represent in a
//! descriptor word. Violations carry a stable `rule` tag and cite the
//! offending instruction by its disassembly line (`L<block> @<pc>`),
//! the same rendering `--emit asm` prints (schema in
//! `docs/VERIFY_IR.md`).
//!
//! The interpreter re-checks most of these properties dynamically and
//! faults; the verifier's value is flagging them *statically*, for all
//! paths, at compile time — including paths a given input never drives
//! the VM down.

use crate::heap::{decode, descriptor, Heap, ObjKind, MAX_RAW_WORDS, MAX_SCAN_FIELDS};
use crate::isa::{AllocKind, CodeBlock, FReg, Instr, MachineProgram, Reg, MAX_REGS};

/// A structured well-formedness violation found by [`verify_bytecode`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BytecodeViolation {
    /// Stable rule tag, e.g. `"branch-target"`.
    pub rule: &'static str,
    /// What went wrong; instruction-level violations cite the
    /// disassembly line as `L<block> @<pc>: <instr>`.
    pub detail: String,
}

impl std::fmt::Display for BytecodeViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.rule, self.detail)
    }
}

/// Work counters reported by a successful [`verify_bytecode`] run.
#[derive(Clone, Copy, Debug, Default)]
pub struct BytecodeVerifySummary {
    /// Instructions checked.
    pub instrs: u64,
    /// `Alloc` descriptors validated against the GC object layout.
    pub allocs: u64,
}

fn violation(rule: &'static str, detail: String) -> BytecodeViolation {
    BytecodeViolation { rule, detail }
}

/// True for instructions that end a block (control never falls past
/// them); codegen guarantees every block terminates in one.
fn is_terminator(i: &Instr) -> bool {
    matches!(
        i,
        Instr::Jump { .. }
            | Instr::JumpReg { .. }
            | Instr::Switch { .. }
            | Instr::Halt { .. }
            | Instr::Uncaught { .. }
    )
}

/// Collects the integer- and float-register operands of an instruction.
pub(crate) fn operand_regs(i: &Instr, regs: &mut impl Extend<Reg>, fregs: &mut impl Extend<FReg>) {
    match i {
        Instr::Move { d, s } => regs.extend([*d, *s]),
        Instr::FMove { d, s } => fregs.extend([*d, *s]),
        Instr::LoadI { d, .. } => regs.extend([*d]),
        Instr::LoadF { d, .. } => fregs.extend([*d]),
        Instr::LoadStr { d, .. } | Instr::LoadLabel { d, .. } => regs.extend([*d]),
        Instr::Arith { d, a, b, .. } => regs.extend([*d, *a, *b]),
        Instr::FArith { d, a, b, .. } => fregs.extend([*d, *a, *b]),
        Instr::FUnary { d, a, .. } => fregs.extend([*d, *a]),
        Instr::Floor { d, a } => {
            regs.extend([*d]);
            fregs.extend([*a]);
        }
        Instr::IntToReal { d, a } => {
            fregs.extend([*d]);
            regs.extend([*a]);
        }
        Instr::Load { d, base, .. } => regs.extend([*d, *base]),
        Instr::Store { s, base, .. } | Instr::StoreWB { s, base, .. } => regs.extend([*s, *base]),
        Instr::FLoad { d, base, .. } => {
            fregs.extend([*d]);
            regs.extend([*base]);
        }
        Instr::FStore { s, base, .. } => {
            fregs.extend([*s]);
            regs.extend([*base]);
        }
        Instr::LoadIdx { d, base, idx } => regs.extend([*d, *base, *idx]),
        Instr::StoreIdx { s, base, idx } | Instr::StoreIdxWB { s, base, idx } => {
            regs.extend([*s, *base, *idx])
        }
        Instr::Alloc { d, words, flts, .. } => {
            regs.extend([*d]);
            regs.extend(words.iter().copied());
            fregs.extend(flts.iter().copied());
        }
        Instr::AllocArr { d, len, init } => regs.extend([*d, *len, *init]),
        Instr::ArrLen { d, a } => regs.extend([*d, *a]),
        Instr::FBox { d, s } => {
            regs.extend([*d]);
            fregs.extend([*s]);
        }
        Instr::FUnbox { d, s } => {
            fregs.extend([*d]);
            regs.extend([*s]);
        }
        Instr::Branch { a, b, .. } => regs.extend([*a, *b]),
        Instr::FBranch { a, b, .. } => fregs.extend([*a, *b]),
        Instr::SBranch { a, b, .. } | Instr::PolyEqBranch { a, b, .. } => regs.extend([*a, *b]),
        Instr::Switch { r, .. } => regs.extend([*r]),
        Instr::Jump { .. } => {}
        Instr::JumpReg { r } => regs.extend([*r]),
        Instr::Rt { op, d, a, b, fa } => {
            use crate::isa::RtOp;
            regs.extend([*d]);
            match op {
                RtOp::StrCat | RtOp::StrSub => regs.extend([*a, *b]),
                RtOp::StrSize | RtOp::IntToString => regs.extend([*a]),
                RtOp::RealToString => fregs.extend([*fa]),
            }
        }
        Instr::GetHdlr { d } => regs.extend([*d]),
        Instr::SetHdlr { s } | Instr::Print { s } | Instr::Halt { s } | Instr::Uncaught { s } => {
            regs.extend([*s])
        }
    }
}

/// The intra-block jump targets an instruction may transfer to (also
/// used by the threaded pre-decoder to keep branch targets on record
/// boundaries).
pub(crate) fn branch_targets(i: &Instr, targets: &mut Vec<u32>) {
    match i {
        Instr::Branch { target, .. }
        | Instr::FBranch { target, .. }
        | Instr::SBranch { target, .. }
        | Instr::PolyEqBranch { target, .. } => targets.push(*target),
        Instr::Switch { table, default, .. } => {
            targets.extend(table.iter().copied());
            targets.push(*default);
        }
        _ => {}
    }
}

fn check_instr(
    block_ix: usize,
    pc: usize,
    ins: &Instr,
    block_len: usize,
    n_blocks: usize,
    pool_len: usize,
    sum: &mut BytecodeVerifySummary,
) -> Result<(), BytecodeViolation> {
    let cite = || format!("L{block_ix} @{pc}: {ins}");

    let mut regs = Vec::new();
    let mut fregs = Vec::new();
    operand_regs(ins, &mut regs, &mut fregs);
    if let Some(r) = regs.iter().find(|&&r| r >= MAX_REGS) {
        return Err(violation(
            "reg-range",
            format!(
                "register r{r} out of range (max {}) at {}",
                MAX_REGS - 1,
                cite()
            ),
        ));
    }
    if let Some(f) = fregs.iter().find(|&&f| f >= MAX_REGS) {
        return Err(violation(
            "reg-range",
            format!(
                "float register f{f} out of range (max {}) at {}",
                MAX_REGS - 1,
                cite()
            ),
        ));
    }

    let mut targets = Vec::new();
    branch_targets(ins, &mut targets);
    if let Some(t) = targets.iter().find(|&&t| t as usize >= block_len) {
        return Err(violation(
            "branch-target",
            format!(
                "branch target @{t} outside block of {block_len} instructions at {}",
                cite()
            ),
        ));
    }

    match ins {
        Instr::Jump { label } | Instr::LoadLabel { label, .. } if *label as usize >= n_blocks => {
            return Err(violation(
                "jump-range",
                format!(
                    "label L{label} outside program of {n_blocks} blocks at {}",
                    cite()
                ),
            ));
        }
        Instr::LoadStr { pool, .. } if *pool as usize >= pool_len => {
            return Err(violation(
                "pool-range",
                format!(
                    "string pool index {pool} outside pool of {pool_len} entries at {}",
                    cite()
                ),
            ));
        }
        Instr::Alloc {
            kind, words, flts, ..
        } => {
            sum.allocs += 1;
            let obj_kind = match kind {
                AllocKind::Record => ObjKind::Record,
                AllocKind::Ref => ObjKind::Ref,
            };
            if *kind == AllocKind::Ref && (words.len() != 1 || !flts.is_empty()) {
                return Err(violation(
                    "ref-shape",
                    format!(
                        "ref cell allocated with {} scanned / {} raw fields at {}",
                        words.len(),
                        flts.len(),
                        cite()
                    ),
                ));
            }
            // Raw float fields occupy two words each, exactly as the
            // interpreter will build the descriptor.
            let nscan = words.len() as u64;
            let nraw = 2 * flts.len() as u64;
            if nscan > MAX_SCAN_FIELDS as u64 || nraw > MAX_RAW_WORDS as u64 {
                return Err(violation(
                    "alloc-descriptor",
                    format!(
                        "object layout ({nscan} scanned, {nraw} raw) exceeds descriptor \
                         capacity ({MAX_SCAN_FIELDS} scanned, {MAX_RAW_WORDS} raw) at {}",
                        cite()
                    ),
                ));
            }
            let desc = descriptor(obj_kind, nscan as u32, nraw as u32);
            if decode(desc) != (obj_kind as u32, nscan as u32, nraw as u32) {
                return Err(violation(
                    "alloc-descriptor",
                    format!("descriptor round-trip failed at {}", cite()),
                ));
            }
        }
        _ => {}
    }
    sum.instrs += 1;
    Ok(())
}

fn check_block(
    block_ix: usize,
    b: &CodeBlock,
    n_blocks: usize,
    pool_len: usize,
    sum: &mut BytecodeVerifySummary,
) -> Result<(), BytecodeViolation> {
    let Some(last) = b.instrs.last() else {
        return Err(violation(
            "block-terminator",
            format!("block L{block_ix} <{}> is empty", b.name),
        ));
    };
    if !is_terminator(last) {
        return Err(violation(
            "block-terminator",
            format!(
                "block L{block_ix} <{}> ends in non-terminator L{block_ix} @{}: {last}",
                b.name,
                b.instrs.len() - 1
            ),
        ));
    }
    for (pc, ins) in b.instrs.iter().enumerate() {
        check_instr(block_ix, pc, ins, b.instrs.len(), n_blocks, pool_len, sum)?;
    }
    Ok(())
}

/// Verifies a machine program.
///
/// Returns work counters on success and the first [`BytecodeViolation`]
/// otherwise. Never mutates the program.
pub fn verify_bytecode(prog: &MachineProgram) -> Result<BytecodeVerifySummary, BytecodeViolation> {
    let mut sum = BytecodeVerifySummary::default();
    if prog.entry as usize >= prog.blocks.len() {
        return Err(violation(
            "entry-range",
            format!(
                "entry block {} outside program of {} blocks",
                prog.entry,
                prog.blocks.len()
            ),
        ));
    }
    for (ix, s) in prog.pool.iter().enumerate() {
        if s.len() > Heap::MAX_STRING_BYTES {
            return Err(violation(
                "pool-string-size",
                format!(
                    "string pool entry {ix} is {} bytes (max {})",
                    s.len(),
                    Heap::MAX_STRING_BYTES
                ),
            ));
        }
    }
    for (ix, b) in prog.blocks.iter().enumerate() {
        check_block(ix, b, prog.blocks.len(), prog.pool.len(), &mut sum)?;
    }
    Ok(sum)
}

/// Work counters reported by a successful [`verify_threaded`] run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadedVerifySummary {
    /// Threaded handler records checked.
    pub tinstrs: u64,
    /// Superinstruction (fused-pair) records among them.
    pub superinstructions: u64,
    /// Run-table entries checked against their records.
    pub runs: u64,
}

/// Verifies the pre-decoded threaded stream the
/// [`Dispatch::Threaded`](crate::vm::Dispatch::Threaded) engine
/// executes for this program —
/// the copy cached in [`MachineProgram::predecoded`], built here if no
/// instance has built it yet. The pc coordinate maps must be mutually
/// consistent, every threaded branch target must stay inside the
/// stream, every record must round-trip (expand back to exactly the
/// original instructions, compared by disassembly), the expanded
/// operands must respect register bounds, and every run-table entry
/// must match the records it covers: its length, cycles, jumps and
/// per-class deltas, with no dynamic record inside it and no record
/// after a control transfer.
pub fn verify_threaded(prog: &MachineProgram) -> Result<ThreadedVerifySummary, BytecodeViolation> {
    check_threaded(prog, crate::threaded::threaded(prog))
}

/// [`verify_threaded`] against a given pre-decoded form.
fn check_threaded(
    prog: &MachineProgram,
    tp: &crate::threaded::ThreadedProgram,
) -> Result<ThreadedVerifySummary, BytecodeViolation> {
    use crate::threaded::{expand, TInstr};
    let mut sum = ThreadedVerifySummary::default();
    if tp.blocks.len() != prog.blocks.len() {
        return Err(violation(
            "threaded-pc-map",
            format!(
                "stream has {} blocks but the program has {}",
                tp.blocks.len(),
                prog.blocks.len()
            ),
        ));
    }
    for (ix, (b, tb)) in prog.blocks.iter().zip(&tp.blocks).enumerate() {
        let n = b.instrs.len();
        if tb.pc_map.len() != n + 1
            || tb.tpc_to_pc.len() != tb.code.len() + 1
            || tb.pc_map[n] as usize != tb.code.len()
            || tb.tpc_to_pc[tb.code.len()] as usize != n
        {
            return Err(violation(
                "threaded-pc-map",
                format!(
                    "block L{ix}: coordinate maps sized {}/{} for {} instructions / {} records",
                    tb.pc_map.len(),
                    tb.tpc_to_pc.len(),
                    n,
                    tb.code.len()
                ),
            ));
        }
        for (rec, t) in tb.code.iter().enumerate() {
            let start = tb.tpc_to_pc[rec] as usize;
            if start >= n || tb.pc_map[start] as usize != rec {
                return Err(violation(
                    "threaded-pc-map",
                    format!(
                        "block L{ix}: record {rec} claims start pc {start} but pc_map disagrees"
                    ),
                ));
            }
            if let TInstr::Branch { t, .. }
            | TInstr::FBranch { t, .. }
            | TInstr::LoadIBranch { t, .. }
            | TInstr::LoadBranch { t, .. }
            | TInstr::ArithBranch { t, .. } = t
            {
                if *t as usize > tb.code.len() {
                    return Err(violation(
                        "threaded-target",
                        format!(
                            "block L{ix}: record {rec} branches to record {t} outside stream \
                             of {} records",
                            tb.code.len()
                        ),
                    ));
                }
            }
            match expand(t, tb) {
                None => {
                    let TInstr::Slow { pc } = t else {
                        unreachable!("only Slow records decline expansion")
                    };
                    if *pc as usize != start {
                        return Err(violation(
                            "threaded-round-trip",
                            format!(
                                "block L{ix}: slow record {rec} points at pc {pc}, \
                                 expected {start}"
                            ),
                        ));
                    }
                }
                Some(expansion) => {
                    if expansion.len() == 2 {
                        sum.superinstructions += 1;
                    }
                    for (k, e) in expansion.iter().enumerate() {
                        let Some(orig) = b.instrs.get(start + k) else {
                            return Err(violation(
                                "threaded-round-trip",
                                format!(
                                    "block L{ix}: record {rec} expands past the end of the \
                                     block at pc {}",
                                    start + k
                                ),
                            ));
                        };
                        if format!("{e}") != format!("{orig}") {
                            return Err(violation(
                                "threaded-round-trip",
                                format!(
                                    "L{ix} @{}: stream decodes to `{e}` but the program \
                                     has `{orig}`",
                                    start + k
                                ),
                            ));
                        }
                        let mut regs = Vec::new();
                        let mut fregs = Vec::new();
                        operand_regs(e, &mut regs, &mut fregs);
                        if let Some(r) = regs.iter().chain(fregs.iter()).find(|&&r| r >= MAX_REGS) {
                            return Err(violation(
                                "threaded-reg-range",
                                format!(
                                    "register r{r} out of range (max {}) at L{ix} @{}: {e}",
                                    MAX_REGS - 1,
                                    start + k
                                ),
                            ));
                        }
                    }
                }
            }
            sum.tinstrs += 1;
        }
        sum.runs += check_runs(ix, b, tb, &tp.runs)?;
    }
    Ok(sum)
}

/// Checks one block's run-table entries against the records they
/// cover; returns how many entries it checked.
fn check_runs(
    ix: usize,
    b: &CodeBlock,
    tb: &crate::threaded::ThreadedBlock,
    runs: &[crate::threaded::RunCost],
) -> Result<u64, BytecodeViolation> {
    use crate::threaded::{is_dynamic, is_transfer, RunCost, NO_RUN};
    let bad = |detail: String| Err(violation("threaded-run", format!("block L{ix}: {detail}")));
    if tb.run_at.len() != tb.code.len() {
        return bad(format!(
            "run index sized {} for {} records",
            tb.run_at.len(),
            tb.code.len()
        ));
    }
    let mut checked = 0;
    for (rec, &r) in tb.run_at.iter().enumerate() {
        if r == NO_RUN {
            continue;
        }
        let Some(run) = runs.get(r as usize) else {
            return bad(format!("record {rec} names run {r} of {}", runs.len()));
        };
        if run.records == 0 {
            return bad(format!("the run at record {rec} is empty"));
        }
        let mut want = RunCost::default();
        for k in rec..rec + run.records as usize {
            let Some(t) = tb.code.get(k) else {
                return bad(format!(
                    "the run at record {rec} claims {} records, past the block's {}",
                    run.records,
                    tb.code.len()
                ));
            };
            if is_dynamic(t) {
                return bad(format!("the run at record {rec} holds dynamic record {k}"));
            }
            if k > rec && is_transfer(&tb.code[k - 1]) {
                return bad(format!(
                    "the run at record {rec} continues past the control transfer at record {}",
                    k - 1
                ));
            }
            let span = tb.tpc_to_pc[k] as usize..tb.tpc_to_pc[k + 1] as usize;
            for ins in &b.instrs[span] {
                if !want.add_instr(ins) {
                    return bad(format!(
                        "the run at record {rec} holds `{ins}`, which has no static cost"
                    ));
                }
            }
            want.records += 1;
        }
        if *run != want {
            return bad(format!(
                "the run at record {rec} is tabled as {} records, {} instrs, {} cycles, {} jumps \
                 but its records give {} records, {} instrs, {} cycles, {} jumps \
                 (or different per-class deltas)",
                run.records,
                run.instrs,
                run.cycles,
                run.jumps,
                want.records,
                want.instrs,
                want.cycles,
                want.jumps
            ));
        }
        checked += 1;
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_block(instrs: Vec<Instr>) -> MachineProgram {
        MachineProgram {
            blocks: vec![CodeBlock {
                name: "main".into(),
                instrs,
            }],
            entry: 0,
            pool: Vec::new(),
            predecoded: Default::default(),
        }
    }

    #[test]
    fn accepts_minimal_program() {
        let p = one_block(vec![Instr::LoadI { d: 1, imm: 42 }, Instr::Halt { s: 1 }]);
        let sum = verify_bytecode(&p).expect("well-formed");
        assert_eq!(sum.instrs, 2);
    }

    #[test]
    fn rejects_branch_past_block_end() {
        let p = one_block(vec![
            Instr::Branch {
                op: crate::isa::BrOp::Lt,
                a: 1,
                b: 2,
                target: 9,
            },
            Instr::Halt { s: 1 },
        ]);
        let v = verify_bytecode(&p).unwrap_err();
        assert_eq!(v.rule, "branch-target");
        assert!(v.detail.contains("L0 @0"), "{}", v.detail);
    }

    #[test]
    fn rejects_register_out_of_range() {
        let p = one_block(vec![Instr::LoadI { d: 200, imm: 1 }, Instr::Halt { s: 1 }]);
        assert_eq!(verify_bytecode(&p).unwrap_err().rule, "reg-range");
    }

    #[test]
    fn rejects_missing_terminator() {
        let p = one_block(vec![Instr::LoadI { d: 1, imm: 1 }]);
        assert_eq!(verify_bytecode(&p).unwrap_err().rule, "block-terminator");
    }

    #[test]
    fn rejects_ref_with_wrong_shape() {
        let p = one_block(vec![
            Instr::Alloc {
                d: 2,
                kind: AllocKind::Ref,
                words: vec![1, 1],
                flts: vec![],
            },
            Instr::Halt { s: 2 },
        ]);
        assert_eq!(verify_bytecode(&p).unwrap_err().rule, "ref-shape");
    }

    #[test]
    fn rejects_oversized_alloc_descriptor() {
        let p = one_block(vec![
            Instr::Alloc {
                d: 2,
                kind: AllocKind::Record,
                words: vec![1; MAX_SCAN_FIELDS as usize + 1],
                flts: vec![],
            },
            Instr::Halt { s: 2 },
        ]);
        assert_eq!(verify_bytecode(&p).unwrap_err().rule, "alloc-descriptor");
    }

    #[test]
    fn threaded_run_tables_reject_corruption() {
        use crate::isa::{AOp, BrOp};
        use crate::threaded::predecode;
        let p = one_block(vec![
            Instr::LoadI { d: 1, imm: 3 },
            Instr::Move { d: 40, s: 1 }, // spilled: 2 extra cycles
            Instr::Arith {
                op: AOp::Mul,
                d: 2,
                a: 1,
                b: 40,
            },
            Instr::Branch {
                op: BrOp::Lt,
                a: 1,
                b: 2,
                target: 5,
            },
            Instr::Move { d: 3, s: 2 },
            Instr::Halt { s: 2 },
        ]);
        let tp = predecode(&p);
        let sum = check_threaded(&p, &tp).expect("fresh tables verify");
        assert_eq!(sum.runs, 2, "block start and the record after the branch");
        let r = tp.blocks[0].run_at[0] as usize;
        assert_eq!(tp.runs[r].cycles, 1 + 3 + 6 + 1);

        let mut cost = predecode(&p);
        cost.runs[r].cycles += 1;
        assert_eq!(check_threaded(&p, &cost).unwrap_err().rule, "threaded-run");

        let mut short = predecode(&p);
        short.runs[r].records -= 1;
        assert_eq!(check_threaded(&p, &short).unwrap_err().rule, "threaded-run");

        // One record more runs past the branch.
        let mut long = predecode(&p);
        long.runs[r].records += 1;
        let v = check_threaded(&p, &long).unwrap_err();
        assert_eq!(v.rule, "threaded-run");
        assert!(v.detail.contains("control transfer"), "{}", v.detail);

        // The run after the branch may not swallow the Halt.
        let tail = tp.blocks[0].run_at[tp.blocks[0].code.len() - 2] as usize;
        let mut dynamic = predecode(&p);
        dynamic.runs[tail].records += 1;
        let v = check_threaded(&p, &dynamic).unwrap_err();
        assert!(v.detail.contains("dynamic record"), "{}", v.detail);
    }

    #[test]
    fn rejects_bad_entry() {
        let mut p = one_block(vec![Instr::Halt { s: 1 }]);
        p.entry = 5;
        assert_eq!(verify_bytecode(&p).unwrap_err().rule, "entry-range");
    }
}
