//! Pinned source-mutation fuzzing: seeded token-level mutants of the
//! figure programs go through `Session` compile and run. Every compile
//! must end `Ok` or in a typed, non-internal `CompileError` — never a
//! panic or an ICE — and every mutant that compiles must run to the same
//! result, output and counters under both execution engines within a
//! bounded cycle budget.
//!
//! The tier-1 run checks 300 mutants; `scripts/verify.sh` repeats the
//! sweep with 1,200 in release (`SMLC_MUTANTS=1200`).

use sml_ast::lexer::Lexer;
use sml_testkit::Rng;
use smlc::{CompileError, Dispatch, Session, Variant, VmConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};

const PRELUDE: &str = include_str!("../../bench/benchmarks/prelude.sml");

/// The figure programs' bodies (the prelude is prepended unmutated).
const BODIES: [&str; 12] = [
    include_str!("../../bench/benchmarks/bhut.sml"),
    include_str!("../../bench/benchmarks/boyer.sml"),
    include_str!("../../bench/benchmarks/sieve.sml"),
    include_str!("../../bench/benchmarks/kbc.sml"),
    include_str!("../../bench/benchmarks/lexgen.sml"),
    include_str!("../../bench/benchmarks/yacc.sml"),
    include_str!("../../bench/benchmarks/simple.sml"),
    include_str!("../../bench/benchmarks/ray.sml"),
    include_str!("../../bench/benchmarks/life.sml"),
    include_str!("../../bench/benchmarks/vliw.sml"),
    include_str!("../../bench/benchmarks/mbrot.sml"),
    include_str!("../../bench/benchmarks/nucleic.sml"),
];

/// Cycle budget per run: enough for a mutant to do real work, small
/// enough that a mutant looping forever ends in `OutOfFuel` quickly.
const MAX_CYCLES: u64 = 300_000;

/// One token-level edit of `body`: delete, duplicate, or swap with the
/// next token, or overwrite with another token's text from the same
/// program — half the time one of the same kind (a literal for a
/// literal, a name for a name), so that a fair share of mutants still
/// compiles and runs.
fn mutate(body: &str, rng: &mut Rng) -> String {
    let tokens = Lexer::new(body)
        .tokenize()
        .expect("figure programs lex cleanly");
    let text = |i: usize| {
        let s = tokens[i].span;
        &body[s.start as usize..s.end as usize]
    };
    // The last token is end-of-input.
    let n = tokens.len() - 1;
    let i = rng.range_usize(0, n - 1);
    let span = tokens[i].span;
    let (start, end) = (span.start as usize, span.end as usize);
    let replacement = match rng.range_usize(0, 8) {
        0 => String::new(),
        1 => format!("{0} {0}", text(i)),
        2 => {
            let next = tokens[i + 1].span;
            let between = &body[end..next.start as usize];
            let swapped = format!("{}{between}{}", text(i + 1), text(i));
            return format!("{}{swapped}{}", &body[..start], &body[next.end as usize..]);
        }
        3 => text(rng.range_usize(0, n)).to_owned(),
        _ => {
            let kind = std::mem::discriminant(&tokens[i].kind);
            let same: Vec<usize> = (0..n)
                .filter(|&j| std::mem::discriminant(&tokens[j].kind) == kind)
                .collect();
            text(*rng.pick(&same)).to_owned()
        }
    };
    format!("{} {replacement} {}", &body[..start], &body[end..])
}

#[test]
fn token_mutants_fail_typed_or_run_identically_on_both_engines() {
    let mutants: usize = std::env::var("SMLC_MUTANTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(300);
    let mut rng = Rng::new(0x5eed_0014_70c3_11a7);
    let (mut compiled, mut rejected) = (0, 0);
    for k in 0..mutants {
        let body = BODIES[k % BODIES.len()];
        let src = format!("{PRELUDE}\n{}", mutate(body, &mut rng));
        let variant = *rng.pick(&Variant::ALL);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let c = Session::with_variant(variant).compile(&src)?;
            let engines = [Dispatch::Decode, Dispatch::Threaded].map(|dispatch| {
                c.run_with(&VmConfig {
                    dispatch,
                    max_cycles: MAX_CYCLES,
                    ..variant.vm_config()
                })
            });
            Ok::<_, CompileError>(engines)
        }));
        match outcome {
            Err(_) => panic!("mutant {k} ({variant}): a panic escaped\n{src}"),
            Ok(Err(e @ CompileError::Internal { .. })) => {
                panic!("mutant {k} ({variant}): internal error {e}\n{src}")
            }
            Ok(Err(_)) => rejected += 1,
            Ok(Ok([dec, thr])) => {
                compiled += 1;
                assert_eq!(dec.result, thr.result, "mutant {k} ({variant})\n{src}");
                assert_eq!(dec.output, thr.output, "mutant {k} ({variant})\n{src}");
                assert_eq!(dec.stats, thr.stats, "mutant {k} ({variant})\n{src}");
            }
        }
    }
    // Both outcomes must actually occur, or the sweep tests nothing.
    assert!(
        compiled > 0 && rejected > 0,
        "{compiled} ran, {rejected} rejected"
    );
}
