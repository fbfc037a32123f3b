//! The trace's self-check: spans nest, every op has one root span,
//! per-op self times sum to the op's span, and the traced phase
//! re-drive produces exactly the code `compile_job` does.

use perfbench::corpus::{artifact_key, cells, compile_phases};
use perfbench::trace::{check, self_by_layer, Span, Tracer};
use perfbench::{figures, tenants};
use smlc::Session;

fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, op: u64) -> Span {
    Span {
        name,
        start,
        end,
        parent,
        op,
    }
}

#[test]
fn check_accepts_nested_spans_and_rejects_broken_ones() {
    let good = vec![
        span("op", 0, 100, None, 1),
        span("a", 10, 40, Some(0), 1),
        span("b", 40, 90, Some(0), 1),
        span("c", 50, 60, Some(2), 1),
        span("op", 100, 150, None, 2),
    ];
    assert_eq!(check(&good), Ok(()));
    let layers = self_by_layer(&good);
    assert_eq!(layers["op"], 20 + 50);
    assert_eq!(layers["b"], 40);

    let mut escapes = good.clone();
    escapes[3].end = 95;
    assert!(check(&escapes).unwrap_err().contains("does not nest"));

    let mut two_roots = good.clone();
    two_roots[4].op = 1;
    assert!(check(&two_roots)
        .unwrap_err()
        .contains("more than one root"));

    let mut other_op = good.clone();
    other_op[1].op = 3;
    assert!(check(&other_op).unwrap_err().contains("does not nest"));

    let overlapping = vec![
        span("op", 0, 100, None, 1),
        span("a", 0, 60, Some(0), 1),
        span("b", 40, 100, Some(0), 1),
    ];
    assert!(check(&overlapping).unwrap_err().contains("self times"));
}

#[test]
fn phase_redrive_matches_compile_job_byte_for_byte() {
    let mut tr = Tracer::default();
    for cell in cells(3) {
        let (_, redriven) = compile_phases(Some(&mut tr), &cell.job);
        let (m, _) = redriven.unwrap_or_else(|e| panic!("{}: {e}", cell.name));
        let reference = Session::default()
            .compile_job(&cell.job)
            .unwrap_or_else(|e| panic!("{}: {e}", cell.name));
        assert_eq!(
            format!("{m:?}"),
            format!("{:?}", reference.machine),
            "{}",
            cell.name
        );
        assert_eq!(artifact_key(&m), artifact_key(&reference.machine));
        let (_, untraced) = compile_phases(None, &cell.job);
        assert_eq!(artifact_key(&untraced.unwrap().0), artifact_key(&m));
    }
    check(tr.spans()).unwrap();
}

#[test]
fn real_traces_pass_the_self_check() {
    let mut tr = Tracer::default();
    let figs = figures::cells().unwrap();
    let expected = figures::expected();
    for cell in figs
        .iter()
        .filter(|c| c.name == "Boyer" || c.name == "Sieve")
    {
        let (_, _, out) = figures::run_traced(&mut tr, cell);
        assert!(figures::output_matches(&expected, cell.name, &out));
    }
    let storm = tenants::storm(5).unwrap();
    let (_, _, result) = tenants::run_storm_traced(&mut tr, &storm);
    assert_eq!(result.unwrap().0.len(), tenants::TENANTS);
    check(tr.spans()).unwrap();
    let roots = tr.spans().iter().filter(|s| s.parent.is_none()).count();
    assert_eq!(roots, 5);
    let instances = tr
        .spans()
        .iter()
        .filter(|s| s.name == "vm.instance_new")
        .count();
    assert_eq!(instances, 4 + tenants::TENANTS);
}
