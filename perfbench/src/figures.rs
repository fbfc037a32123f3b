//! `figures-run`: Figure 7's run-time side.
//!
//! The twelve figure programs are compiled in set-up under `sml.nrp`
//! and `sml.ffb`; each op is one [`sml_vm::run`] under the variant's
//! default `VmConfig`, which is what `smlc run` executes. Dispatch,
//! per-instruction accounting and GC do nearly all the work and the
//! compiler none. `nrp` allocates boxed floats while `ffb` does not, so
//! the two variants load the collector differently. Every output is
//! compared with `expected/figures.json`.

use crate::measure::{self, ms_since};
use crate::trace::Tracer;
use crate::{Args, Counts, Report};
use sml_testkit::Rng;
use sml_vm::VmInstance;
use smlc::{Job, Json, MachineProgram, Outcome, RunStats, Session, Variant, VmResult};
use std::collections::BTreeMap;
use std::time::Instant;

/// The variants whose artifacts are run.
pub const VARIANTS: [Variant; 2] = [Variant::Nrp, Variant::Ffb];

/// Expected output of each figure program, recorded once by the
/// `record-expected` binary after all six variants and both dispatch
/// engines agreed.
pub fn expected() -> BTreeMap<String, String> {
    let doc = Json::parse(include_str!("../expected/figures.json"))
        .expect("expected/figures.json is valid JSON");
    smlc_bench::benchmarks()
        .iter()
        .map(|b| {
            let out = doc
                .get(b.name)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("expected/figures.json lacks {}", b.name));
            (b.name.to_owned(), out.to_owned())
        })
        .collect()
}

/// Whether a run ended normally with the recorded output.
pub fn output_matches(expected: &BTreeMap<String, String>, name: &str, out: &Outcome) -> bool {
    matches!(out.result, VmResult::Value(_)) && expected.get(name) == Some(&out.output)
}

/// One cell: a figure program compiled under one variant.
pub struct Cell {
    /// Program name.
    pub name: &'static str,
    /// Variant it was compiled under.
    pub variant: Variant,
    /// The artifact.
    pub machine: MachineProgram,
}

/// Compiles the cells, one job at a time through one session.
pub fn cells() -> Result<Vec<Cell>, String> {
    let session = Session::default();
    let mut out = Vec::new();
    for b in smlc_bench::benchmarks() {
        let src = b.source();
        for v in VARIANTS {
            let c = session
                .compile_job(&Job::with_variant(src.clone(), v))
                .map_err(|e| format!("{}/{}: {e}", b.name, v.name()))?;
            out.push(Cell {
                name: b.name,
                variant: v,
                machine: c.machine,
            });
        }
    }
    Ok(out)
}

/// Runs one cell inside an op span, with the instance build and the
/// dispatch loop as child spans; returns the op and `vm.run` times.
pub fn run_traced(tr: &mut Tracer, cell: &Cell) -> (f64, f64, Outcome) {
    let cfg = cell.variant.vm_config();
    let root = tr.enter("op");
    let mut vm = tr.span("vm.instance_new", || VmInstance::new(&cell.machine, &cfg));
    let run = tr.enter("vm.run");
    while !vm.run_slice(u64::MAX) {}
    let run_ms = tr.exit(run);
    let out = vm.into_outcome();
    (tr.exit(root), run_ms, out)
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let (cells, setup_s) = measure::repeated_setup(cells);
    let cells = match cells {
        Ok(c) => c,
        Err(e) => {
            report.fail(format!("set-up compile: {e}"));
            return report;
        }
    };
    let expected = expected();
    let n = cells.len();
    let mut first: Vec<Option<RunStats>> = vec![None; n];
    let mut tracer = Tracer::default();
    let mut run_ms: BTreeMap<&str, (f64, u64)> = BTreeMap::new();
    let mut traced_instrs = 0u64;
    let mut rng = Rng::new(args.seed);
    let passes = measure::run_passes(n, &mut rng, args.seconds, args.trace, |i, traced| {
        let cell = &cells[i];
        let (ms, out) = if traced {
            let (ms, run, out) = run_traced(&mut tracer, cell);
            let e = run_ms.entry(cell.name).or_insert((0.0, 0));
            e.0 += run;
            e.1 += 1;
            traced_instrs += out.stats.instrs;
            (ms, out)
        } else {
            let t = Instant::now();
            let out = sml_vm::run(&cell.machine, &cell.variant.vm_config());
            (ms_since(t), out)
        };
        let same_counts = *first[i].get_or_insert(out.stats) == out.stats;
        let ok = same_counts && output_matches(&expected, cell.name, &out);
        report.check(ok);
        if !ok {
            report.notes.push(format!(
                "FAILED {}/{}: result {:?}, counters repeat: {same_counts}",
                cell.name,
                cell.variant.name(),
                out.result
            ));
        }
        ms
    });
    let per_pass: Vec<RunStats> = first.into_iter().flatten().collect();
    let sum = |f: fn(&RunStats) -> u64| per_pass.iter().map(f).sum::<u64>();
    let counts = Counts {
        code_words: cells.iter().map(|c| c.machine.code_size() as u64).sum(),
        cycles: sum(|s| s.cycles),
    };
    if args.trace {
        let ops = passes.cells.iter().map(Vec::len).sum::<usize>();
        crate::layer_times(&mut report, tracer.spans(), ops);
        let run_total: f64 = run_ms.values().map(|&(ms, _)| ms).sum();
        report.metric(
            "vm.ns_per_instr",
            run_total * 1e6 / traced_instrs.max(1) as f64,
            "ns",
        );
        report.metric("vm.instrs_m", sum(|s| s.instrs) as f64 / 1e6, "Minstr");
        for (name, (ms, k)) in &run_ms {
            report.metric(format!("vm.run_ms.{name}"), ms / *k as f64, "ms");
        }
        report.metric("gc.collections", sum(|s| s.n_gcs) as f64, "count");
        report.metric(
            "gc.copied_words",
            sum(|s| s.gc_copied_words) as f64,
            "words",
        );
        report.metric(
            "gc.cycle_share",
            sum(|s| s.gc_cycles) as f64 / counts.cycles.max(1) as f64,
            "ratio",
        );
        report.metric("trace.overhead_ratio", passes.overhead_ratio(), "ratio");
    } else {
        report.end_to_end(&passes, setup_s, counts);
    }
    report
}
