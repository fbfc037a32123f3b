//! The counts the benchmark reports as exact repeat exactly: across runs
//! with one seed, and, where the workload's work does not depend on the
//! seed, across seeds too. Every run must also pass its own checks.
//!
//! Run with `cargo test --release`; a debug build is far slower.

use perfbench::{run, Args, Report};

fn run_checked(workload: &str, seed: u64, trace: bool) -> Report {
    let args = Args {
        workload: workload.to_owned(),
        seed,
        seconds: 0.0,
        trace,
    };
    let mut report = run(&args);
    if trace {
        report.finish_per_layer();
    }
    assert_eq!(
        report.failed, 0,
        "{workload} seed {seed}: {:#?}",
        report.notes
    );
    report
}

fn values(r: &Report, names: &[&str]) -> Vec<f64> {
    names
        .iter()
        .map(|n| r.get(n).unwrap_or_else(|| panic!("no metric {n}")))
        .collect()
}

/// Runs `workload` untraced and traced, twice each with one seed and
/// once more each with `other_seed` if given, and compares the counts.
fn counts_repeat(workload: &str, traced_counts: &[&str], other_seed: Option<u64>) {
    const E2E: [&str; 2] = ["code_words", "cycles_m"];
    let a = values(&run_checked(workload, 7, false), &E2E);
    assert!(a.iter().all(|&v| v > 0.0), "{workload}: {a:?}");
    assert_eq!(
        a,
        values(&run_checked(workload, 7, false), &E2E),
        "{workload}"
    );
    let t = values(&run_checked(workload, 7, true), traced_counts);
    assert!(t.iter().all(|&v| v > 0.0), "{workload}: {t:?}");
    assert_eq!(
        t,
        values(&run_checked(workload, 7, true), traced_counts),
        "{workload}"
    );
    if let Some(seed) = other_seed {
        assert_eq!(
            a,
            values(&run_checked(workload, seed, false), &E2E),
            "{workload}"
        );
        assert_eq!(
            t,
            values(&run_checked(workload, seed, true), traced_counts),
            "{workload}"
        );
    }
}

#[test]
fn figures_run_counts_repeat_across_runs_and_seeds() {
    counts_repeat("figures-run", &["vm.instrs_m", "gc.collections"], Some(8));
}

#[test]
fn tenant_storm_counts_repeat_across_runs_and_seeds() {
    counts_repeat(
        "tenant-storm",
        &["vm.instrs_m", "gc.collections", "sched.slices"],
        Some(8),
    );
}

#[test]
fn server_edit_counts_repeat_across_runs() {
    counts_repeat("server-edit", &["components.recompiled_ratio"], None);
}

#[test]
fn compile_corpus_counts_repeat_across_runs() {
    counts_repeat("compile-corpus", &["components.recompiled_ratio"], None);
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    let e2e = run_checked("tenant-storm", 1, false);
    let names: Vec<&str> = e2e.metrics.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "setup_s",
            "throughput_ops_s",
            "latency_p50_ms",
            "latency_tail_ms",
            "geomean_ms",
            "peak_rss_mb",
            "ok_ratio",
            "code_words",
            "cycles_m",
        ]
    );
    let traced = run_checked("tenant-storm", 1, true);
    let want: Vec<String> = perfbench::per_layer_metrics()
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let got: Vec<String> = traced.metrics.iter().map(|m| m.name.clone()).collect();
    assert_eq!(got, want);
    let line = traced.json_line();
    assert!(
        line.contains("\"sched.slices\": {\"value\": 1250, \"unit\": \"count\"}"),
        "{line}"
    );
}
