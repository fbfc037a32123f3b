//! Warm-session differentials and the `components` statistics.
//!
//! A long-lived [`Session`] keeps its LTY hash-cons arena and artifact
//! cache warm across compiles. The contract under test is that warmth
//! never shows in the output: every compile in an edit sequence — and
//! every artifact served back from the cache — is byte-identical to the
//! same source compiled by a fresh session, across all six variants
//! and a progen seed sweep. Elaboration is always whole-program, so
//! each compile reports its program as one component.

use sml_testkit::progen::{gen_program, GenConfig};
use sml_testkit::Rng;
use smlc::{Compiled, ComponentStats, Session, Variant};

/// The machine program rendered to a canonical byte string.
fn code_bytes(c: &Compiled) -> String {
    format!("{:?}", c.machine)
}

/// Compiles `src` in the warm session and in a fresh one and demands
/// byte-identical machine code.
fn assert_matches_fresh(warm: &Session, src: &str, what: &str) {
    let a = warm.compile(src).unwrap_or_else(|e| panic!("{what}: {e}"));
    let fresh = Session::with_variant(warm.variant());
    let b = fresh.compile(src).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(
        code_bytes(&a),
        code_bytes(&b),
        "{what}: warm-session output diverged from a fresh session"
    );
}

const BASE: &str = "fun id x = x\nval a = id 1\nval _ = print (itos a)";

#[test]
fn whole_program_session_reports_disabled_stats() {
    let s = Session::with_variant(Variant::Ffb);
    let one = ComponentStats {
        enabled: false,
        scc_count: 1,
        recompiled: 1,
        cache_hits: 0,
        topo_depth: 1,
    };
    assert_eq!(s.compile(BASE).unwrap().stats.components, one);
    assert_eq!(
        s.compile("").unwrap().stats.components,
        ComponentStats::default(),
        "a program without declarations has no component"
    );

    // The deprecated knob changes nothing, not even the stats.
    #[allow(deprecated)]
    let whole = Session::builder()
        .variant(Variant::Ffb)
        .incremental(false)
        .build()
        .unwrap();
    let c = whole.compile(BASE).unwrap();
    assert_eq!(c.stats.components, one);
    assert_eq!(code_bytes(&c), code_bytes(&s.compile(BASE).unwrap()));
}

/// An edit sequence — including an undo back to the first version,
/// served from the artifact cache — under every variant, the MTD-using
/// ones included, compiled by one long-lived session per variant.
#[test]
fn edit_differential_all_variants() {
    let edits = [
        BASE.to_owned(),
        BASE.replace("id 1", "id 5"),
        format!("{BASE}\nval tail = id 7\nval _ = print (itos tail)"),
        BASE.replace("fun id x = x", "fun id x = (x, x)\nfun fst (a, _) = a")
            .replace("id 1", "fst (id 1)"),
        BASE.to_owned(),
    ];
    for v in Variant::ALL {
        let warm = Session::with_variant(v);
        for (i, src) in edits.iter().enumerate() {
            assert_matches_fresh(&warm, src, &format!("{v} edit {i}"));
        }
        assert_eq!(warm.cache_stats().hits, 1, "{v}: the undo must hit");
    }
}

/// Progen sweep: each seed's program, then the same program with one
/// declaration appended, through one long-lived session per variant
/// shared by all 60 seeds.
#[test]
fn progen_differential_byte_identity() {
    let cfg = GenConfig::default();
    let warm: Vec<Session> = Variant::ALL
        .iter()
        .map(|&v| Session::with_variant(v))
        .collect();
    for seed in 0..60u64 {
        let mut rng = Rng::new(seed);
        let src = gen_program(&mut rng, &cfg);
        let session = Rng::new(seed ^ 0xC0FFEE).pick(&warm);
        assert_matches_fresh(session, &src, &format!("seed {seed}"));
        let appended = format!("{src}\nval zz_{seed} = {seed}");
        assert_matches_fresh(session, &appended, &format!("seed {seed} appended"));
    }
}
