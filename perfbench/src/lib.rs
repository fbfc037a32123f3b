//! The smlc benchmark: one command runs a named workload, checks every
//! output, and prints its metrics by name with their units.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload figures-run --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Four workloads each stress different layers and bypass others:
//!
//! * `compile-corpus` — serial cold compiles (parser through codegen);
//! * `figures-run` — the figure programs on the VM (dispatch, GC);
//! * `server-edit` — an edit loop against an in-process compile server
//!   (warm arena, incremental elaboration, artifact cache, queue);
//! * `tenant-storm` — 1000 tenants under the round-robin scheduler.
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced
//! run (`--trace 1`) records spans around every call into a layer and
//! prints the per-layer metrics, checking the trace's structure first.
//! The benchmark drives the system only through its public entry points
//! and times each layer from outside. Every run is single-process and
//! keeps at most two threads busy.

pub mod corpus;
pub mod figures;
pub mod measure;
pub mod server_edit;
pub mod tenants;
pub mod trace;

use std::fmt::Write as _;

/// The workloads, in the order they are documented.
pub const WORKLOADS: [&str; 4] = [
    "compile-corpus",
    "figures-run",
    "server-edit",
    "tenant-storm",
];

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// How long the timed passes may run.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// Parses `--workload W --seed N --seconds S --trace 0|1`.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload `{value}` (one of {WORKLOADS:?})"));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(format!("--seconds {seconds} is out of range"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One named metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Ops attempted, warm-up and checks included.
    pub attempted: u64,
    /// Ops that returned a wrong output or an unexpected error, plus
    /// failed checks.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Appends a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records one checked op.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Records a failed check with its reason.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.notes.push(format!("FAILED: {why}"));
    }

    /// The value of a metric by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The end-to-end metrics every untraced run prints, from its
    /// passes, counts and set-up time. Times are calibrated (see
    /// [`measure::Calibration`]); wall-clock values go to the notes.
    pub fn end_to_end(&mut self, passes: &measure::Passes, setup_s: f64, counts: Counts) {
        let all = passes.all();
        let busy_s: f64 = all.iter().sum::<f64>() / 1e3;
        self.metric("setup_s", setup_s, "s");
        self.metric(
            "throughput_ops_s",
            all.len() as f64 / busy_s.max(1e-9),
            "1/s",
        );
        self.metric("latency_p50_ms", measure::median(&all), "ms");
        match measure::tail(&all) {
            Some(t) => {
                self.notes.push(format!(
                    "latency_tail_ms is p{:.1} of {} samples",
                    t.percentile, t.samples
                ));
                self.metric("latency_tail_ms", t.value, "ms");
            }
            None => self.fail(format!("only {} latency samples, 11 needed", all.len())),
        }
        self.metric("geomean_ms", passes.geomean_ms(), "ms");
        self.metric("peak_rss_mb", passes.peak_rss_mb, "MiB");
        let wall_busy_s = passes.wall.iter().sum::<f64>() / 1e3;
        self.notes.push(format!(
            "wall clock: p50 {:.3} ms, {:.3} ops/s; median calibration factor {:.4}",
            measure::median(&passes.wall),
            passes.wall.len() as f64 / wall_busy_s.max(1e-9),
            passes.calibration.run_factor()
        ));
        self.metric(
            "ok_ratio",
            1.0 - self.failed as f64 / self.attempted.max(1) as f64,
            "ratio",
        );
        self.metric("code_words", counts.code_words as f64, "words");
        self.metric("cycles_m", counts.cycles as f64 / 1e6, "Mcycles");
        self.notes.push(format!(
            "failed_ratio {} (ok_ratio is 1 - failed / attempted)",
            self.failed as f64 / self.attempted.max(1) as f64
        ));
        self.notes.push(format!(
            "{} passes over {} cells, {} timed ops",
            passes.passes,
            passes.cells.len(),
            all.len()
        ));
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Deterministic counts a workload reports next to its timings.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Machine words (instructions) over the distinct artifacts.
    pub code_words: u64,
    /// Modelled VM cycles (see each workload for what is run).
    pub cycles: u64,
}

/// Runs one workload and returns its report.
pub fn run(args: &Args) -> Report {
    match args.workload.as_str() {
        "compile-corpus" => corpus::run(args),
        "figures-run" => figures::run(args),
        "server-edit" => server_edit::run(args),
        "tenant-storm" => tenants::run(args),
        other => unreachable!("parse_args accepted unknown workload {other}"),
    }
}

/// Adds the traced run's span-timed per-layer metrics — the mean self
/// time per op of each layer span, as `<layer>_ms` — checks the trace's
/// structure, and writes the spans to `.perfbench-trace.json` in the
/// working directory. Spans without a per-layer metric (the op root,
/// the benchmark's own measurements) only count in the check.
pub fn layer_times(report: &mut Report, spans: &[trace::Span], ops: usize) {
    let path = ".perfbench-trace.json";
    match std::fs::write(path, trace::chrome_json(spans)) {
        Ok(()) => report
            .notes
            .push(format!("wrote {} spans to {path}", spans.len())),
        Err(e) => report.fail(format!("writing {path}: {e}")),
    }
    for (span, ns) in trace::self_by_layer(spans) {
        let name = format!("{span}_ms");
        if PER_LAYER.iter().any(|&(m, _)| m == name) {
            report.metric(name, ns as f64 / 1e6 / ops.max(1) as f64, "ms");
        }
    }
    if let Err(e) = trace::check(spans) {
        report.fail(format!("trace self-check: {e}"));
    }
}

/// Per-layer metrics every traced run prints, with their units; the
/// `vm.run_ms.<Program>` rows follow `vm.instrs_m`.
const PER_LAYER: [(&str, &str); 31] = [
    ("ast.parse_ms", "ms"),
    ("elab.elaborate_ms", "ms"),
    ("elab.mtd_ms", "ms"),
    ("lambda.translate_ms", "ms"),
    ("lambda.lexp_nodes", "count"),
    ("lambda.lty_hit_ratio", "ratio"),
    ("cps.convert_ms", "ms"),
    ("cps.optimize_ms", "ms"),
    ("cps.closure_ms", "ms"),
    ("cps.ops_before", "count"),
    ("cps.ops_after", "count"),
    ("vm.codegen_ms", "ms"),
    ("session.build_ms", "ms"),
    ("session.cache_hit_ratio", "ratio"),
    ("components.recompiled_ratio", "ratio"),
    ("server.overhead_ms", "ms"),
    ("server.queue_depth_peak", "count"),
    ("vm.instance_new_ms", "ms"),
    ("vm.run_ms", "ms"),
    ("vm.ns_per_instr", "ns"),
    ("vm.instrs_m", "Minstr"),
    ("gc.collections", "count"),
    ("gc.copied_words", "words"),
    ("gc.cycle_share", "ratio"),
    ("sched.admit_ms", "ms"),
    ("sched.run_all_ms", "ms"),
    ("sched.slices", "count"),
    ("sched.ns_per_slice", "ns"),
    ("sched.preemptions", "count"),
    ("sched.ready_peak", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// Every per-layer metric name with its unit, in print order.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for (name, unit) in PER_LAYER {
        out.push((name.to_owned(), unit));
        if name == "vm.instrs_m" {
            for b in smlc_bench::benchmarks() {
                out.push((format!("vm.run_ms.{}", b.name), "ms"));
            }
        }
    }
    out
}

impl Report {
    /// Puts a traced run's metrics in print order, reporting 0 for each
    /// layer the workload bypasses. A metric outside the list is a bug
    /// in the benchmark and fails the run.
    pub fn finish_per_layer(&mut self) {
        let mut measured = std::mem::take(&mut self.metrics);
        for (name, unit) in per_layer_metrics() {
            let value = match measured.iter().position(|m| m.name == name) {
                Some(i) => measured.remove(i).value,
                None => 0.0,
            };
            self.metric(name, value, unit);
        }
        for m in measured {
            self.fail(format!("metric `{}` is not a per-layer metric", m.name));
        }
    }
}
