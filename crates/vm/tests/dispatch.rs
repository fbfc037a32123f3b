//! The two execution engines are observationally identical: same
//! results, same output, same `RunStats` counters, same preemption
//! points — under normal completion, every trap path, and scheduler
//! preemption, including traps, fuel limits and quantum edges that land
//! inside a run the threaded engine charges as a whole. Plus the floor
//! div/mod semantics both engines now share, and the threaded stream
//! verifier.

use sml_vm::isa::{AOp, AllocKind, BrOp, FOp, FUOp};
use sml_vm::{
    run, verify_threaded, CodeBlock, Dispatch, GcMode, Instr, MachineProgram, Outcome,
    SchedulerBuilder, TenantReport, TenantSpec, VmConfig, VmInstance, VmResult,
};
use std::sync::Arc;

fn prog(instrs: Vec<Instr>) -> MachineProgram {
    MachineProgram {
        blocks: vec![CodeBlock {
            name: "entry".into(),
            instrs,
        }],
        entry: 0,
        pool: Vec::new(),
        predecoded: Default::default(),
    }
}

fn cfg(dispatch: Dispatch) -> VmConfig {
    VmConfig {
        dispatch,
        ..VmConfig::default()
    }
}

/// Runs under both engines and asserts everything observable matches
/// (results, output, all counters); returns the decode outcome.
fn both(p: &MachineProgram, base: &VmConfig) -> Outcome {
    let dec = run(
        p,
        &VmConfig {
            dispatch: Dispatch::Decode,
            ..*base
        },
    );
    let thr = run(
        p,
        &VmConfig {
            dispatch: Dispatch::Threaded,
            ..*base
        },
    );
    assert_eq!(dec.result, thr.result, "results diverge between engines");
    assert_eq!(dec.output, thr.output, "output diverges between engines");
    assert_eq!(dec.stats, thr.stats, "RunStats diverge between engines");
    assert_eq!(thr.dispatch.engine, Dispatch::Threaded);
    assert_eq!(dec.dispatch.engine, Dispatch::Decode);
    dec
}

/// A tight counted loop with a fused compare-and-branch and a fused
/// `LoadI`+`Arith`, summing 0..n.
fn sum_loop(n: i64) -> MachineProgram {
    MachineProgram {
        blocks: vec![
            CodeBlock {
                name: "entry".into(),
                instrs: vec![
                    Instr::LoadI { d: 1, imm: 0 }, // acc
                    Instr::LoadI { d: 2, imm: 0 }, // i
                    Instr::LoadI { d: 3, imm: n }, // limit
                    Instr::Jump { label: 1 },
                ],
            },
            CodeBlock {
                name: "loop".into(),
                instrs: vec![
                    // Branch (i < limit) else exit — fusable with nothing
                    // here since it heads the block.
                    Instr::Branch {
                        op: BrOp::Lt,
                        a: 2,
                        b: 3,
                        target: 7,
                    },
                    Instr::Arith {
                        op: AOp::Add,
                        d: 1,
                        a: 1,
                        b: 2,
                    }, // acc += i   (Arith+Branch fusion candidate below)
                    Instr::LoadI { d: 4, imm: 1 },
                    Instr::Arith {
                        op: AOp::Add,
                        d: 2,
                        a: 2,
                        b: 4,
                    }, // i += 1  (LoadI+Arith fuses)
                    Instr::Move { d: 5, s: 1 },
                    Instr::Jump { label: 1 }, // Move+Jump fuses
                    Instr::Halt { s: 0 },     // unreachable
                    Instr::Halt { s: 1 },
                ],
            },
        ],
        entry: 0,
        pool: Vec::new(),
        predecoded: Default::default(),
    }
}

#[test]
fn dispatch_parses_and_prints_stable_names() {
    assert_eq!("decode".parse::<Dispatch>().unwrap(), Dispatch::Decode);
    assert_eq!("threaded".parse::<Dispatch>().unwrap(), Dispatch::Threaded);
    assert_eq!(Dispatch::Threaded.name(), "threaded");
    let err = "jit".parse::<Dispatch>().unwrap_err();
    assert!(err.contains("decode|threaded"), "{err}");
}

#[test]
fn engines_agree_on_loop_with_superinstructions() {
    let p = sum_loop(1000);
    let o = both(&p, &VmConfig::default());
    assert_eq!(o.result, VmResult::Value(1000 * 999 / 2));
    let mut vm = VmInstance::new(&p, &cfg(Dispatch::Threaded));
    while !vm.run_slice(u64::MAX) {}
    let ds = vm.dispatch_stats();
    assert!(
        ds.superinstructions >= 2,
        "the loop body should fuse LoadI+Arith and Move+Jump: {ds:?}"
    );
    assert!(ds.stream_len > 0 && ds.stream_len < p.code_size() as u64);
}

#[test]
fn floor_div_mod_law_holds_in_both_engines() {
    // All sign combinations, including exact division and i64-boundary
    // magnitudes that still fit the tagged-int width after untagging.
    let cases: [(i64, i64); 10] = [
        (7, 2),
        (-7, 2),
        (7, -2),
        (-7, -2),
        (6, 3),
        (-6, 3),
        (6, -3),
        (-6, -3),
        (0, 5),
        (0, -5),
    ];
    for (a, b) in cases {
        for op in [AOp::Div, AOp::Mod] {
            let p = prog(vec![
                Instr::LoadI { d: 1, imm: a },
                Instr::LoadI { d: 2, imm: b },
                Instr::Arith {
                    op,
                    d: 3,
                    a: 1,
                    b: 2,
                },
                Instr::Halt { s: 3 },
            ]);
            let o = both(&p, &VmConfig::default());
            let q = sml_cps::floor_div(a, b);
            let r = sml_cps::floor_mod(a, b);
            assert_eq!(a, b * q + r, "quotient-remainder law for {a} and {b}");
            assert!(r == 0 || (r < 0) == (b < 0), "mod takes the divisor sign");
            let want = if op == AOp::Div { q } else { r };
            assert_eq!(o.result, VmResult::Value(want), "{a} {op:?} {b}");
        }
    }
}

#[test]
fn division_by_zero_faults_identically_in_both_engines() {
    for op in [AOp::Div, AOp::Mod] {
        let p = prog(vec![
            Instr::LoadI { d: 1, imm: -9 },
            Instr::LoadI { d: 2, imm: 0 },
            Instr::Arith {
                op,
                d: 3,
                a: 1,
                b: 2,
            },
            Instr::Halt { s: 3 },
        ]);
        let o = both(&p, &VmConfig::default());
        assert_eq!(o.result, VmResult::Fault("integer division by zero".into()));
    }
}

#[test]
fn fetch_faults_carry_identical_messages() {
    // Fall off the end of a block (branch to one-past-the-end).
    let p = prog(vec![
        Instr::LoadI { d: 1, imm: 1 },
        Instr::Branch {
            op: BrOp::Eq,
            a: 0,
            b: 0,
            target: 2,
        },
        Instr::Halt { s: 1 },
    ]);
    // `Branch Eq r0, r0` is taken, falls through to Halt — make it
    // not-taken instead by comparing different registers.
    let p2 = prog(vec![
        Instr::LoadI { d: 1, imm: 1 },
        Instr::Branch {
            op: BrOp::Eq,
            a: 0,
            b: 1,
            target: 3,
        },
        Instr::Halt { s: 1 },
    ]);
    both(&p, &VmConfig::default());
    let o = both(&p2, &VmConfig::default());
    assert_eq!(
        o.result,
        VmResult::Fault("instruction fetch out of range: block 0 pc 3".into())
    );
    // Jump to a nonexistent block.
    let p3 = prog(vec![Instr::Jump { label: 9 }]);
    let o3 = both(&p3, &VmConfig::default());
    assert_eq!(
        o3.result,
        VmResult::Fault("instruction fetch out of range: block 9 pc 0".into())
    );
}

#[test]
fn out_of_fuel_is_identical_even_mid_superinstruction() {
    // Sweep fuel limits across the whole run of a fusing loop so some
    // limit lands between the two halves of each fused pair; the
    // threaded engine must cut off at exactly the same instruction.
    let p = sum_loop(4);
    let full = run(&p, &VmConfig::default());
    for fuel in 0..full.stats.cycles + 2 {
        let base = VmConfig {
            max_cycles: fuel,
            ..VmConfig::default()
        };
        both(&p, &base);
    }
}

#[test]
fn scheduler_runs_threaded_tenants_identically() {
    let p = Arc::new(sum_loop(500));
    let run_tenants = |dispatch| {
        // Odd quantum: exercise preemption.
        let mut sched = SchedulerBuilder::new().quantum(97).build().unwrap();
        for _ in 0..3 {
            sched
                .admit(TenantSpec::new(p.clone(), &cfg(dispatch)))
                .unwrap();
        }
        sched.run_all()
    };
    let (dec, _) = run_tenants(Dispatch::Decode);
    let (thr, _) = run_tenants(Dispatch::Threaded);
    for (d, t) in dec.iter().zip(&thr) {
        assert_same_tenant(d, t);
        assert_eq!(t.dispatch.engine, Dispatch::Threaded);
        assert!(t.dispatch.superinstructions > 0);
    }
}

#[test]
fn verify_threaded_accepts_and_counts_fusion() {
    let p = sum_loop(10);
    let sum = verify_threaded(&p).expect("well-formed stream");
    assert!(sum.superinstructions >= 2, "{sum:?}");
    assert!(sum.tinstrs > 0);
    // And matches what the engine actually pre-decodes.
    let vm = VmInstance::new(&p, &cfg(Dispatch::Threaded));
    assert_eq!(vm.dispatch_stats().superinstructions, sum.superinstructions);
    assert_eq!(vm.dispatch_stats().stream_len, sum.tinstrs);
}

#[test]
fn branch_target_into_pair_blocks_fusion() {
    // The Arith at pc 2 is a branch target, so LoadI@1+Arith@2 must NOT
    // fuse; the branch must land exactly on the Arith.
    let p = prog(vec![
        Instr::LoadI { d: 1, imm: 10 },
        Instr::LoadI { d: 2, imm: 3 },
        Instr::Branch {
            op: BrOp::Eq,
            a: 0,
            b: 0,
            target: 2, // not-taken path jumps INTO what would be a pair
        },
        Instr::Arith {
            op: AOp::Add,
            d: 1,
            a: 1,
            b: 2,
        },
        Instr::Halt { s: 1 },
    ]);
    verify_threaded(&p).expect("stream must stay well-formed");
    let o = both(&p, &VmConfig::default());
    assert_eq!(o.result, VmResult::Value(13));
}

#[test]
fn i64_min_division_wraps_in_both_engines() {
    // untag_int narrows to the tagged width, so drive the helper
    // directly for the true boundary, and the VM for in-width values.
    assert_eq!(sml_cps::floor_div(i64::MIN, -1), i64::MIN);
    assert_eq!(sml_cps::floor_mod(i64::MIN, -1), 0);
    let p = prog(vec![
        Instr::LoadI {
            d: 1,
            imm: -1073741824,
        }, // tagged-int minimum
        Instr::LoadI { d: 2, imm: -1 },
        Instr::Arith {
            op: AOp::Div,
            d: 3,
            a: 1,
            b: 2,
        },
        Instr::Halt { s: 3 },
    ]);
    both(&p, &VmConfig::default());
}

/// Asserts two tenants' reports agree on everything but the engine.
fn assert_same_tenant(d: &TenantReport, t: &TenantReport) {
    assert_eq!(d.result, t.result);
    assert_eq!(d.output, t.output);
    assert_eq!(d.stats, t.stats, "per-tenant stats diverge");
    assert_eq!(d.slices, t.slices, "preemption points diverge");
    assert_eq!(d.max_overshoot, t.max_overshoot);
    assert_eq!(d.first_slice, t.first_slice);
}

#[test]
fn bounds_fault_three_records_into_a_run() {
    // The run after the (slow) allocation is Move, Move, FMove, Load;
    // the Load reads past the two-word record.
    let p = prog(vec![
        Instr::LoadI { d: 1, imm: 5 },
        Instr::Alloc {
            d: 2,
            kind: AllocKind::Record,
            words: vec![1, 1],
            flts: vec![],
        },
        Instr::Move { d: 3, s: 2 },
        Instr::Move { d: 40, s: 1 },
        Instr::FMove { d: 1, s: 2 },
        Instr::Load {
            d: 4,
            base: 3,
            off: 5,
        },
        Instr::Move { d: 5, s: 4 },
        Instr::Halt { s: 5 },
    ]);
    let o = both(&p, &VmConfig::default());
    let VmResult::Fault(msg) = &o.result else {
        panic!("expected a bounds fault, got {:?}", o.result);
    };
    assert!(msg.contains("outside object"), "{msg}");
    // A trap exit keeps the breakdown summing to the total.
    assert_eq!(o.stats.cycles_by_class.iter().sum::<u64>(), o.stats.cycles);
}

#[test]
fn div_by_zero_in_the_second_half_of_a_fused_pair_inside_a_run() {
    let p = prog(vec![
        Instr::LoadI { d: 1, imm: 7 },
        Instr::Move { d: 33, s: 1 },
        Instr::LoadI { d: 4, imm: 0 },
        Instr::Arith {
            op: AOp::Div,
            d: 3,
            a: 33,
            b: 4,
        },
        Instr::Move { d: 5, s: 3 },
        Instr::Halt { s: 5 },
    ]);
    let o = both(&p, &VmConfig::default());
    assert_eq!(o.result, VmResult::Fault("integer division by zero".into()));
    let vm = VmInstance::new(&p, &cfg(Dispatch::Threaded));
    assert_eq!(vm.dispatch_stats().superinstructions, 1, "LoadI+Div fuses");
}

/// One long straight-line run mixing every cost class (and spilled
/// registers), ending in a halt.
fn long_run() -> MachineProgram {
    prog(vec![
        Instr::LoadI { d: 1, imm: 9 },
        Instr::LoadI { d: 40, imm: 4 },
        Instr::Arith {
            op: AOp::Mul,
            d: 2,
            a: 1,
            b: 40,
        },
        Instr::IntToReal { d: 1, a: 2 },
        Instr::FUnary {
            op: FUOp::Sqrt,
            d: 2,
            a: 1,
        },
        Instr::FArith {
            op: FOp::Div,
            d: 35,
            a: 2,
            b: 1,
        },
        Instr::Floor { d: 3, a: 35 },
        Instr::Move { d: 41, s: 3 },
        Instr::LoadI { d: 5, imm: 2 },
        Instr::Arith {
            op: AOp::Mod,
            d: 6,
            a: 41,
            b: 5,
        },
        Instr::LoadF { d: 7, imm: 1.5 },
        Instr::FMove { d: 8, s: 7 },
        Instr::GetHdlr { d: 9 },
        Instr::SetHdlr { s: 9 },
        Instr::LoadLabel { d: 10, label: 0 },
        Instr::Arith {
            op: AOp::Sub,
            d: 11,
            a: 6,
            b: 10,
        },
        Instr::Halt { s: 11 },
    ])
}

#[test]
fn max_cycles_sweep_across_every_offset_of_one_long_run() {
    let p = long_run();
    let full = both(&p, &VmConfig::default());
    assert!(matches!(full.result, VmResult::Value(_)));
    for fuel in 0..=full.stats.cycles + 1 {
        let base = VmConfig {
            max_cycles: fuel,
            ..VmConfig::default()
        };
        both(&p, &base);
    }
}

#[test]
fn quantum_sweep_gives_identical_slices_overshoot_and_first_slice() {
    let programs = [Arc::new(sum_loop(40)), Arc::new(long_run())];
    for quantum in 1..=64 {
        let run_tenants = |dispatch| {
            let mut sched = SchedulerBuilder::new().quantum(quantum).build().unwrap();
            for p in &programs {
                sched
                    .admit(TenantSpec::new(p.clone(), &cfg(dispatch)))
                    .unwrap();
            }
            sched.run_all()
        };
        let (dec, dec_stats) = run_tenants(Dispatch::Decode);
        let (thr, thr_stats) = run_tenants(Dispatch::Threaded);
        for (d, t) in dec.iter().zip(&thr) {
            assert_same_tenant(d, t);
        }
        assert_eq!(dec_stats.slices, thr_stats.slices, "quantum {quantum}");
        assert_eq!(dec_stats.preemptions, thr_stats.preemptions);
        assert_eq!(dec_stats.max_overshoot, thr_stats.max_overshoot);
    }
}

#[test]
fn one_shared_program_as_two_tenants_with_and_without_fp3() {
    let p = Arc::new(sum_loop(300));
    for dispatch in [Dispatch::Decode, Dispatch::Threaded] {
        let configs = [false, true].map(|fp3_overhead| VmConfig {
            fp3_overhead,
            ..cfg(dispatch)
        });
        let mut sched = SchedulerBuilder::new().quantum(53).build().unwrap();
        for c in &configs {
            sched.admit(TenantSpec::new(p.clone(), c)).unwrap();
        }
        let (reports, _) = sched.run_all();
        for (r, c) in reports.iter().zip(&configs) {
            // Each tenant matches its solo run under either engine.
            let solo = both(&p, c);
            assert_eq!(r.result, solo.result);
            assert_eq!(r.output, solo.output);
            assert_eq!(r.stats, solo.stats, "fp3 {}", c.fp3_overhead);
        }
        assert!(
            reports[1].stats.cycles > reports[0].stats.cycles,
            "the fp3 surcharge must show on the shared stream"
        );
    }
}

#[test]
fn runs_fall_back_to_per_record_accounting_while_a_major_is_active() {
    // A permanent chain built first, then a loop that grows a churn
    // chain (dropped every 64 cells, so survivors crowd the nursery
    // and majors run) and walks the permanent chain one cell per
    // iteration: with majors sliced and yielding after every slice, the
    // walk's loads hit from-space cells, so the read barrier copies
    // inside what would otherwise be a run.
    let (keep, n) = (150, 3_000);
    let add = |d, a, b| Instr::Arith {
        op: AOp::Add,
        d,
        a,
        b,
    };
    let branch = |op, a, b, target| Instr::Branch { op, a, b, target };
    let p = prog(vec![
        Instr::LoadI { d: 1, imm: 0 },
        Instr::LoadI { d: 2, imm: keep },
        Instr::LoadI { d: 12, imm: 0 },
        Instr::LoadI { d: 7, imm: 1 },
        // build @4
        Instr::Alloc {
            d: 4,
            kind: AllocKind::Record,
            words: vec![1, 12],
            flts: vec![],
        },
        Instr::Move { d: 12, s: 4 },
        add(1, 1, 7),
        branch(BrOp::Ge, 1, 2, 4),
        Instr::LoadI { d: 1, imm: 0 },
        Instr::LoadI { d: 2, imm: n },
        Instr::LoadI { d: 6, imm: 64 },
        Instr::Move { d: 13, s: 12 },
        // loop @12: grow the churn chain, dropping it every 64 cells
        Instr::Alloc {
            d: 4,
            kind: AllocKind::Record,
            words: vec![1, 3],
            flts: vec![],
        },
        Instr::Move { d: 3, s: 4 },
        Instr::Arith {
            op: AOp::Mod,
            d: 8,
            a: 1,
            b: 6,
        },
        branch(BrOp::Eq, 8, 0, 17),
        Instr::LoadI { d: 3, imm: 0 },
        // @17: one step along the permanent chain
        branch(BrOp::Boxed, 13, 13, 22),
        Instr::Load {
            d: 11,
            base: 13,
            off: 0,
        },
        add(5, 5, 11),
        Instr::Load {
            d: 13,
            base: 13,
            off: 1,
        },
        branch(BrOp::Ne, 0, 0, 23),
        // @22: back to the head of the chain
        Instr::Move { d: 13, s: 12 },
        // @23
        add(1, 1, 7),
        branch(BrOp::Ge, 1, 2, 12),
        Instr::Halt { s: 5 },
    ]);
    let mut base = VmConfig {
        gc_mode: GcMode::Generational,
        nursery_words: 256,
        tenured_words: 2048,
        promote_after: 1,
        max_pause_cycles: 210,
        ..VmConfig::default()
    };
    base.fault.yield_every_n_slices = Some(1);
    base.fault.gc_every_n_allocs = Some(1);
    let o = both(&p, &base);
    assert!(matches!(o.result, VmResult::Value(_)), "{:?}", o.result);
    assert!(
        o.stats.major_slices > o.stats.n_major_gcs,
        "majors must be sliced so the mutator runs mid-major: {:?}",
        o.stats
    );
    assert!(
        o.stats.barrier_words > 0,
        "loads must run against an active major: {:?}",
        o.stats
    );
    // Barrier copies are charged when they happen, so fuel and the
    // quantum cut off at the same instruction under both engines.
    for k in 1..64 {
        let fuel = VmConfig {
            max_cycles: o.stats.cycles * k / 64,
            ..base
        };
        both(&p, &fuel);
    }
    for quantum in 1..=24 {
        lockstep(&p, &base, quantum);
    }
}

/// Runs `p` under both engines slice by slice and demands identical
/// counters after every slice, not just at the end.
fn lockstep(p: &MachineProgram, base: &VmConfig, quantum: u64) {
    let engine = |dispatch| VmConfig { dispatch, ..*base };
    let mut dec = VmInstance::new(p, &engine(Dispatch::Decode));
    let mut thr = VmInstance::new(p, &engine(Dispatch::Threaded));
    for slice in 0.. {
        let done = dec.run_slice(quantum);
        assert_eq!(done, thr.run_slice(quantum), "slice {slice}");
        assert_eq!(dec.stats(), thr.stats(), "quantum {quantum}, slice {slice}");
        if done {
            break;
        }
    }
    assert_eq!(dec.result(), thr.result());
    assert_eq!(dec.output(), thr.output());
}
