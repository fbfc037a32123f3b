//! `compile-corpus`: serial cold compiles, Figure 8's compile-time side.
//!
//! Each op builds a fresh default [`Session`] — what one `smlc compile`
//! pays, minus process start — and compiles one job through
//! [`Session::compile_job`]. The cells are the twelve figure programs
//! under all six variants plus seeded `progen` programs of four sizes
//! (with floats). Parser through codegen do all the work; the VM,
//! scheduler, server, artifact cache and warm arena do none.
//!
//! A traced op drives the seven phases itself through their public
//! functions and must produce code identical to `compile_job`'s.

use crate::measure::{self, ms_since};
use crate::trace::{maybe, Tracer};
use crate::{figures, Args, Counts, Report};
use sml_lambda::{translate_seeded, InternMode, LtyArena, LtyInterner};
use sml_testkit::progen::{gen_program, GenConfig};
use sml_testkit::Rng;
use smlc::{Job, MachineProgram, OptConfig, Session, Variant};
use std::sync::Arc;
use std::time::Instant;

/// Items per generated program; two programs of each size.
const PROGEN_ITEMS: [usize; 4] = [4, 8, 12, 16];

/// One cell: a named job with its variant fixed.
#[derive(Clone, Debug)]
pub struct Cell {
    /// `Program/variant`.
    pub name: String,
    /// The job, variant set.
    pub job: Job,
    /// The figure program's name, for cells that compile one.
    pub figure: Option<&'static str>,
}

/// The corpus for `seed`: 12 figure programs × 6 variants, then the
/// seeded `progen` programs, each under a seeded variant.
pub fn cells(seed: u64) -> Vec<Cell> {
    let mut out = Vec::new();
    for b in smlc_bench::benchmarks() {
        let src = b.source();
        for v in Variant::ALL {
            out.push(Cell {
                name: format!("{}/{}", b.name, v.name()),
                job: Job::with_variant(src.clone(), v),
                figure: Some(b.name),
            });
        }
    }
    let mut rng = Rng::new(seed ^ 0x9E37_79B9_7F4A_7C15);
    for (i, items) in PROGEN_ITEMS.iter().chain(&PROGEN_ITEMS).enumerate() {
        let cfg = GenConfig {
            items: *items,
            expr_depth: 3,
            floats: true,
        };
        let src = gen_program(&mut rng, &cfg);
        let v = *rng.pick(&Variant::ALL);
        out.push(Cell {
            name: format!("progen{i}-{items}/{}", v.name()),
            job: Job::with_variant(src, v),
            figure: None,
        });
    }
    out
}

/// A fingerprint of an artifact's complete contents.
pub fn artifact_key(m: &MachineProgram) -> u64 {
    smlc::fxhash::hash_bytes(format!("{m:?}").as_bytes())
}

/// Sizes and interning counts of one traced compile.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseCounts {
    /// LEXP nodes after translation.
    pub lexp_nodes: u64,
    /// CPS operators before optimization.
    pub ops_before: u64,
    /// CPS operators after optimization.
    pub ops_after: u64,
    /// LTY arena lookups that found the type already interned.
    pub lty_hits: u64,
    /// All LTY arena lookups.
    pub lty_queries: u64,
}

/// Compiles `job` the way a default session's `compile_job` does, but
/// phase by phase through the public phase functions. With a tracer,
/// the op and each phase get a span: session build, parse, elaborate,
/// minimum typing (MTD variants), translate, CPS convert, optimize,
/// closure convert, codegen. Returns the op's time in ms.
pub fn compile_phases(
    mut tr: Option<&mut Tracer>,
    job: &Job,
) -> (f64, Result<(MachineProgram, PhaseCounts), String>) {
    let variant = job.variant.unwrap_or(Variant::Ffb);
    let start = Instant::now();
    let root = tr.as_mut().map(|t| t.enter("op"));
    let session = maybe(&mut tr, "session.build", Session::default);
    let result = (|| {
        let prog = maybe(&mut tr, "ast.parse", || sml_ast::parse(&job.src))
            .map_err(|e| format!("parse: {}", e.msg))?;
        let mut elab = maybe(&mut tr, "elab.elaborate", || sml_elab::elaborate(&prog))
            .map_err(|e| format!("elaborate: {e}"))?;
        if variant.uses_mtd() {
            maybe(&mut tr, "elab.mtd", || sml_elab::minimum_typing(&mut elab));
        }
        let lambda_cfg = variant.lambda_config();
        let arena = Arc::new(LtyArena::new());
        let view = match lambda_cfg.intern_mode {
            InternMode::HashCons => LtyInterner::with_arena(Arc::clone(&arena)),
            mode => LtyInterner::new(mode),
        };
        let mut t = maybe(&mut tr, "lambda.translate", || {
            translate_seeded(&elab, &lambda_cfg, view)
        });
        let lexp_nodes = t.lexp.size() as u64;
        let mut cps = maybe(&mut tr, "cps.convert", || {
            sml_cps::convert(&t.lexp, &mut t.interner, t.n_vars, &variant.cps_config())
        });
        let ops_before = cps.body.size() as u64;
        maybe(&mut tr, "cps.optimize", || {
            sml_cps::optimize(&mut cps, &OptConfig::default())
        });
        let ops_after = cps.body.size() as u64;
        let closed = maybe(&mut tr, "cps.closure", || sml_cps::close(cps));
        let machine = maybe(&mut tr, "vm.codegen", || sml_vm::codegen(&closed));
        let lty = arena.stats();
        Ok((
            machine,
            PhaseCounts {
                lexp_nodes,
                ops_before,
                ops_after,
                lty_hits: lty.hits(),
                lty_queries: lty.queries(),
            },
        ))
    })();
    drop(session);
    let ms = match (tr, root) {
        (Some(t), Some(root)) => t.exit(root),
        _ => ms_since(start),
    };
    (ms, result)
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let (cells, setup_s) = measure::repeated_setup(|| cells(args.seed));
    let n = cells.len();
    let mut reference: Vec<Option<(u64, usize)>> = vec![None; n];
    let mut to_run: Vec<Option<MachineProgram>> = vec![None; n];
    let mut tracer = Tracer::default();
    let mut phase = PhaseCounts::default();
    let (mut cache_hits, mut cache_lookups, mut recompiled, mut sccs) = (0u64, 0u64, 0u64, 0u64);
    let mut rng = Rng::new(args.seed);
    let passes = measure::run_passes(n, &mut rng, args.seconds, args.trace, |cell, traced| {
        let job = &cells[cell].job;
        // In a traced run the untraced visits after the warm-up drive the
        // same phases without spans, so their ratio is the trace's cost.
        let redrive = traced || (args.trace && reference[cell].is_some());
        let (ms, machine) = if redrive {
            let (ms, r) = compile_phases(traced.then_some(&mut tracer), job);
            match r {
                Ok((m, c)) if traced => {
                    phase.lexp_nodes += c.lexp_nodes;
                    phase.ops_before += c.ops_before;
                    phase.ops_after += c.ops_after;
                    phase.lty_hits += c.lty_hits;
                    phase.lty_queries += c.lty_queries;
                    (ms, Ok(m))
                }
                r => (ms, r.map(|(m, _)| m)),
            }
        } else {
            let t = Instant::now();
            let session = Session::default();
            let r = session.compile_job(job);
            let ms = ms_since(t);
            let cache = session.cache_stats();
            cache_hits += cache.hits;
            cache_lookups += cache.hits + cache.misses;
            (
                ms,
                r.map(|c| {
                    recompiled += c.stats.components.recompiled as u64;
                    sccs += c.stats.components.scc_count as u64;
                    c.machine
                })
                .map_err(|e| e.to_string()),
            )
        };
        let verdict = machine.and_then(|m| {
            let key = (artifact_key(&m), m.code_size());
            match reference[cell] {
                None => {
                    reference[cell] = Some(key);
                    let c = &cells[cell];
                    if c.figure.is_none() || c.job.variant == Some(Variant::Ffb) {
                        to_run[cell] = Some(m);
                    }
                    Ok(())
                }
                Some(r) if r == key => Ok(()),
                Some(_) => Err("artifact differs from the first compile".to_owned()),
            }
        });
        report.check(verdict.is_ok());
        if let Err(e) = verdict {
            report
                .notes
                .push(format!("FAILED {}: {e}", cells[cell].name));
        }
        ms
    });

    // Run the default variant's figure artifacts (outputs checked
    // against the recorded file) and every progen artifact once.
    let expected = figures::expected();
    let mut cycles = 0u64;
    for (c, m) in cells.iter().zip(&to_run) {
        let Some(m) = m else { continue };
        let variant = c.job.variant.unwrap_or(Variant::Ffb);
        let out = sml_vm::run(m, &variant.vm_config());
        cycles += out.stats.cycles;
        let ok = match c.figure {
            Some(name) => figures::output_matches(&expected, name, &out),
            None => matches!(out.result, smlc::VmResult::Value(_)),
        };
        report.check(ok);
        if !ok {
            report
                .notes
                .push(format!("FAILED {}: run ended {:?}", c.name, out.result));
        }
    }
    let code_words = reference.iter().flatten().map(|&(_, w)| w as u64).sum();
    let counts = Counts { code_words, cycles };
    if args.trace {
        let ops = passes.cells.iter().map(Vec::len).sum::<usize>();
        crate::layer_times(&mut report, tracer.spans(), ops);
        let per_op = |x: u64| x as f64 / ops.max(1) as f64;
        report.metric("lambda.lexp_nodes", per_op(phase.lexp_nodes), "count");
        report.metric(
            "lambda.lty_hit_ratio",
            phase.lty_hits as f64 / phase.lty_queries.max(1) as f64,
            "ratio",
        );
        report.metric("cps.ops_before", per_op(phase.ops_before), "count");
        report.metric("cps.ops_after", per_op(phase.ops_after), "count");
        report.metric(
            "session.cache_hit_ratio",
            cache_hits as f64 / cache_lookups.max(1) as f64,
            "ratio",
        );
        report.metric(
            "components.recompiled_ratio",
            recompiled as f64 / sccs.max(1) as f64,
            "ratio",
        );
        report.metric("trace.overhead_ratio", passes.overhead_ratio(), "ratio");
    } else {
        report.end_to_end(&passes, setup_s, counts);
    }
    report
}
