//! `tenant-storm`: one op is one storm — admit 1000 tenants into a
//! default (round-robin, default quantum) scheduler, then `run_all`.
//!
//! The tenants are drawn by seed from four small programs of different
//! lengths, compiled in set-up; tenants of one program share one
//! `Arc<MachineProgram>`. The draw is stratified (equally many tenants
//! per program, in a seeded order), so the storm's total work is the
//! same for every seed and only the interleaving varies. This is the
//! only workload that exercises the ready queue, per-tenant instance
//! creation and private heaps.

use crate::measure::{self, ms_since};
use crate::trace::Tracer;
use crate::{Args, Counts, Report};
use sml_testkit::Rng;
use smlc::{
    Job, SchedStats, SchedulerBuilder, Session, TenantOutcome, TenantReport, TenantSpec, Variant,
    VmConfig,
};
use std::sync::Arc;
use std::time::Instant;

/// Tenants per storm.
pub const TENANTS: usize = 1000;

/// A tenant program with its expected output, worked out by hand.
pub struct Program {
    /// Short name.
    pub name: &'static str,
    /// SML source.
    pub src: &'static str,
    /// What it prints.
    pub expected: &'static str,
}

/// The tenant programs, shortest first.
pub const PROGRAMS: [Program; 4] = [
    Program {
        name: "sum",
        src: "fun build n = if n = 0 then [] else n :: build (n - 1)
              fun sum [] = 0 | sum (x :: r) = x + sum r
              val _ = print (itos (sum (build 100)))",
        expected: "5050",
    },
    Program {
        name: "float",
        src: "fun loop (0, acc) = acc | loop (i, acc) = loop (i - 1, acc + 0.25)
              val _ = print (rtos (loop (200, 0.0)))",
        expected: "50.0",
    },
    Program {
        name: "fib",
        src: "fun fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)
              val _ = print (itos (fib 10))",
        expected: "55",
    },
    Program {
        name: "churn",
        src: "fun build n = if n = 0 then [] else n :: build (n - 1)
              fun sum [] = 0 | sum (x :: r) = x + sum r
              fun churn 0 acc = acc | churn k acc = churn (k - 1) (acc + sum (build 40))
              val _ = print (itos (churn 8 0))",
        expected: "6560",
    },
];

/// Each tenant's VM configuration: the default variant's, with a small
/// private heap so a thousand tenants fit in memory.
pub fn tenant_vm_config() -> VmConfig {
    VmConfig {
        nursery_words: 512,
        tenured_words: 4096,
        ..Variant::Ffb.vm_config()
    }
}

/// The storm for `seed`: tenant specs and, per tenant, its program's
/// index into [`PROGRAMS`].
pub struct Storm {
    /// Specs in admission order.
    pub specs: Vec<TenantSpec>,
    /// Program index per tenant.
    pub program_of: Vec<usize>,
    /// Total machine words of the distinct programs.
    pub code_words: u64,
}

/// Compiles the programs and draws the tenant mix.
pub fn storm(seed: u64) -> Result<Storm, String> {
    let session = Session::default();
    let cfg = tenant_vm_config();
    let mut code_words = 0;
    let mut machines = Vec::new();
    for p in &PROGRAMS {
        let c = session
            .compile_job(&Job::with_variant(p.src, Variant::Ffb))
            .map_err(|e| format!("{}: {e}", p.name))?;
        code_words += c.machine.code_size() as u64;
        machines.push(Arc::new(c.machine));
    }
    let order = measure::shuffled(TENANTS, &mut Rng::new(seed));
    let program_of: Vec<usize> = order.iter().map(|&k| k % PROGRAMS.len()).collect();
    let specs = program_of
        .iter()
        .map(|&p| TenantSpec::new(Arc::clone(&machines[p]), &cfg))
        .collect();
    Ok(Storm {
        specs,
        program_of,
        code_words,
    })
}

/// Every tenant's report and the scheduler's counters, or why the storm
/// could not run.
pub type StormResult = Result<(Vec<TenantReport>, SchedStats), String>;

/// Runs one storm untraced.
pub fn run_storm(storm: &Storm) -> StormResult {
    let mut sched = SchedulerBuilder::new().build().map_err(|e| e.to_string())?;
    for spec in &storm.specs {
        sched.admit(spec.clone()).map_err(|e| e.to_string())?;
    }
    Ok(sched.run_all())
}

/// Runs one storm inside an op span: admission (each `admit` call, which
/// builds the tenant's instance, as a `vm.instance_new` child) and
/// `run_all` as child spans. Returns the op and `run_all` times.
pub fn run_storm_traced(tr: &mut Tracer, storm: &Storm) -> (f64, f64, StormResult) {
    let root = tr.enter("op");
    let result = (|| {
        let mut sched = SchedulerBuilder::new().build().map_err(|e| e.to_string())?;
        let admit = tr.enter("sched.admit");
        for spec in &storm.specs {
            let i = tr.enter("vm.instance_new");
            let r = sched.admit(spec.clone());
            tr.exit(i);
            r.map_err(|e| e.to_string())?;
        }
        tr.exit(admit);
        let run = tr.enter("sched.run_all");
        let r = sched.run_all();
        Ok((tr.exit(run), r))
    })();
    let ms = tr.exit(root);
    match result {
        Ok((run_ms, r)) => (ms, run_ms, Ok(r)),
        Err(e) => (ms, 0.0, Err(e)),
    }
}

/// Checks every tenant's outcome and output; returns the storm's total
/// cycles, instructions and collection counters on success.
fn check(storm: &Storm, reports: &[TenantReport]) -> Result<[u64; 5], String> {
    if reports.len() != storm.specs.len() {
        return Err(format!(
            "{} reports for {} tenants",
            reports.len(),
            storm.specs.len()
        ));
    }
    let mut totals = [0u64; 5];
    for (r, &p) in reports.iter().zip(&storm.program_of) {
        let prog = &PROGRAMS[p];
        if r.outcome != TenantOutcome::Done || r.output != prog.expected {
            return Err(format!(
                "{} tenant ended {:?} printing {:?}",
                prog.name, r.outcome, r.output
            ));
        }
        let s = &r.stats;
        for (t, v) in
            totals
                .iter_mut()
                .zip([s.cycles, s.instrs, s.n_gcs, s.gc_copied_words, s.gc_cycles])
        {
            *t += v;
        }
    }
    Ok(totals)
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let (storm, setup_s) = measure::repeated_setup(|| storm(args.seed));
    let storm = match storm {
        Ok(s) => s,
        Err(e) => {
            report.fail(format!("set-up compile: {e}"));
            return report;
        }
    };
    let mut tracer = Tracer::default();
    let mut first: Option<([u64; 5], [u64; 3])> = None;
    let mut run_all_ms = 0.0;
    let mut rng = Rng::new(args.seed);
    let passes = measure::run_passes(1, &mut rng, args.seconds, args.trace, |_, traced| {
        let (ms, result) = if traced {
            let (ms, run, r) = run_storm_traced(&mut tracer, &storm);
            run_all_ms += run;
            (ms, r)
        } else {
            let t = Instant::now();
            let r = run_storm(&storm);
            (ms_since(t), r)
        };
        let verdict = result.and_then(|(reports, stats)| {
            let totals = check(&storm, &reports)?;
            let sched = [stats.slices, stats.preemptions, stats.ready_peak];
            if *first.get_or_insert((totals, sched)) != (totals, sched) {
                return Err("counters differ from the first storm".to_owned());
            }
            Ok(())
        });
        report.check(verdict.is_ok());
        if let Err(e) = verdict {
            report.notes.push(format!("FAILED storm: {e}"));
        }
        ms
    });
    let ([cycles, instrs, gcs, copied, gc_cycles], [slices, preemptions, ready_peak]) =
        first.unwrap_or_default();
    let counts = Counts {
        code_words: storm.code_words,
        cycles,
    };
    if args.trace {
        let ops = passes.cells[0].len();
        crate::layer_times(&mut report, tracer.spans(), ops);
        let run_all_per_op = run_all_ms / ops.max(1) as f64;
        report.metric("vm.instrs_m", instrs as f64 / 1e6, "Minstr");
        report.metric(
            "vm.ns_per_instr",
            run_all_per_op * 1e6 / instrs.max(1) as f64,
            "ns",
        );
        report.metric("gc.collections", gcs as f64, "count");
        report.metric("gc.copied_words", copied as f64, "words");
        report.metric(
            "gc.cycle_share",
            gc_cycles as f64 / cycles.max(1) as f64,
            "ratio",
        );
        report.metric("sched.slices", slices as f64, "count");
        report.metric(
            "sched.ns_per_slice",
            run_all_per_op * 1e6 / slices.max(1) as f64,
            "ns",
        );
        report.metric("sched.preemptions", preemptions as f64, "count");
        report.metric("sched.ready_peak", ready_peak as f64, "count");
        report.metric("trace.overhead_ratio", passes.overhead_ratio(), "ratio");
    } else {
        report.end_to_end(&passes, setup_s, counts);
    }
    report
}
