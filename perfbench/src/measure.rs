//! The measurement protocol shared by every workload: repeated set-up,
//! an untimed warm-up pass, then passes that visit every cell once in a
//! seeded order, a calibration of the machine's speed during the run,
//! and the statistics the metrics are made of.

use sml_testkit::Rng;
use std::hint::black_box;
use std::time::Instant;

/// Fewest times a run repeats its set-up; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// A cheap set-up repeats until this many seconds of it are measured
/// (at most 1000 times), so a sub-millisecond median rests on many
/// samples.
const SETUP_MIN_S: f64 = 0.05;

/// Fewest timed passes a run makes, however short `--seconds` is.
pub const MIN_PASSES: usize = 3;

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Geometric mean of positive values (0 for an empty slice).
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.max(1e-9).ln()).sum::<f64>() / v.len() as f64).exp()
}

/// The highest percentile of a sample with at least ten samples beyond
/// it: its value, which percentile it is, and the sample count.
#[derive(Clone, Copy, Debug)]
pub struct Tail {
    /// The sample value at that percentile.
    pub value: f64,
    /// The percentile, `100 · (n − 10) / n`.
    pub percentile: f64,
    /// Number of samples.
    pub samples: usize,
}

/// The tail of `v`, or `None` with fewer than eleven samples.
pub fn tail(v: &[f64]) -> Option<Tail> {
    let n = v.len();
    if n < 11 {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    Some(Tail {
        value: s[n - 11],
        percentile: 100.0 * (n - 10) as f64 / n as f64,
        samples: n,
    })
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A seeded Fisher–Yates permutation of `0..n`.
pub fn shuffled(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.range_usize(0, i + 1));
    }
    order
}

/// Runs `setup` at least [`SETUP_REPS`] times between calibration
/// kernels; returns the last result and the median calibrated set-up
/// time in seconds.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut calibration = Calibration::default();
    calibration.tick();
    let mut reps = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    let mut spent = 0.0;
    while reps.len() < SETUP_REPS || (spent < SETUP_MIN_S && reps.len() < 1000) {
        let t = Instant::now();
        last = Some(setup());
        let wall = t.elapsed().as_secs_f64();
        spent += wall;
        reps.push((wall, calibration.samples.len()));
        calibration.tick();
    }
    for _ in 1..KERNEL_WINDOW {
        calibration.tick();
    }
    let times: Vec<f64> = reps
        .iter()
        .map(|&(wall, after)| wall * calibration.factor_before(after))
        .collect();
    (last.expect("SETUP_REPS > 0"), median(&times))
}

/// What the calibration kernel takes on an uncontended core of the
/// reference machine (a 2-vCPU Xeon guest), in ms.
pub const KERNEL_REF_MS: f64 = 1.0;

/// Kernel runs on each side of a timed visit whose median calibrates it.
const KERNEL_WINDOW: usize = 3;

/// The machine's speed, measured by timing a fixed kernel that shares no
/// code with the system under test between timed visits.
///
/// On a shared host, other tenants' load slows every op by a common
/// factor that drifts over seconds to minutes. Over ten consecutive 12 s
/// windows of the same VM runs, the geometric mean of per-cell median
/// times moved by ±17%; with each op divided by the kernel time measured
/// next to it, by ±6%. Every timing metric is therefore reported in
/// calibrated ms: each visit's wall ms × [`KERNEL_REF_MS`] / the median
/// of the [`KERNEL_WINDOW`] kernel times on each side of it. The
/// wall-clock values are printed as notes.
#[derive(Debug)]
pub struct Calibration {
    buf: Vec<u64>,
    samples: Vec<f64>,
}

impl Default for Calibration {
    fn default() -> Calibration {
        Calibration {
            buf: vec![0; 20_000],
            samples: Vec::new(),
        }
    }
}

impl Calibration {
    /// Runs the kernel — modular arithmetic over, and sorts of, an
    /// L2-sized buffer, which contention slows about as much as it slows
    /// the VM and the compiler — and returns its time in ms.
    pub fn tick(&mut self) -> f64 {
        let t = Instant::now();
        for (i, x) in self.buf.iter_mut().enumerate() {
            *x = (i as u64).wrapping_mul(2_654_435_761) % 1_000_003;
        }
        let mut acc = 0u64;
        for round in 0..2 {
            for x in self.buf.iter_mut() {
                *x = (*x * 31 + round) % 1_000_003;
                acc = acc.wrapping_add(*x);
            }
            self.buf.sort_unstable();
        }
        black_box(acc);
        let ms = ms_since(t);
        self.samples.push(ms);
        ms
    }

    /// The median factor over the whole run, for the notes.
    pub fn run_factor(&self) -> f64 {
        KERNEL_REF_MS / median(&self.samples).max(1e-9)
    }

    /// The factor from wall to calibrated time for a visit timed just
    /// before kernel run `after`.
    fn factor_before(&self, after: usize) -> f64 {
        let lo = after.saturating_sub(KERNEL_WINDOW);
        let hi = (after + KERNEL_WINDOW).min(self.samples.len());
        KERNEL_REF_MS / median(&self.samples[lo..hi.max(lo)]).max(1e-9)
    }
}

/// Op latencies of one run, grouped by cell.
#[derive(Debug, Default)]
pub struct Passes {
    /// Per cell, the calibrated latency (ms) of each timed visit;
    /// traced visits in a traced run.
    pub cells: Vec<Vec<f64>>,
    /// Per cell, calibrated untraced visits of a traced run (empty
    /// otherwise).
    pub untraced: Vec<Vec<f64>>,
    /// Wall-clock latency (ms) of every visit recorded in `cells`.
    pub wall: Vec<f64>,
    /// Number of timed passes made.
    pub passes: usize,
    /// Peak resident memory (MiB) through set-up and the warm-up pass.
    /// Measured later, it would depend on how many passes fit in the run
    /// and on how the allocator happened to recycle memory between them:
    /// after two `server-edit` epochs it read either 54 or 106 MiB.
    pub peak_rss_mb: f64,
    /// The calibration kernel's record.
    pub calibration: Calibration,
    /// Visits awaiting calibration: cell, whether untraced, wall ms, and
    /// the kernel run that followed.
    visits: Vec<(usize, bool, f64, usize)>,
}

impl Passes {
    /// Empty passes over `n_cells` cells.
    pub fn new(n_cells: usize, traced: bool) -> Passes {
        Passes {
            cells: vec![Vec::new(); n_cells],
            untraced: vec![Vec::new(); if traced { n_cells } else { 0 }],
            ..Passes::default()
        }
    }

    /// Runs the calibration kernel; it must run before and after every
    /// timed visit.
    pub fn tick(&mut self) {
        self.calibration.tick();
    }

    /// Records a visit of `cell` timed since the last [`Passes::tick`];
    /// `untraced` marks the untraced visits of a traced run.
    pub fn record(&mut self, cell: usize, untraced: bool, wall_ms: f64) {
        let after = self.calibration.samples.len();
        self.visits.push((cell, untraced, wall_ms, after));
    }

    /// Calibrates the recorded visits into `cells`, `untraced` and
    /// `wall`, once the kernel has run after the last of them.
    pub fn finish(&mut self) {
        for _ in 1..KERNEL_WINDOW {
            self.tick();
        }
        for (cell, untraced, wall_ms, after) in std::mem::take(&mut self.visits) {
            let ms = wall_ms * self.calibration.factor_before(after);
            if untraced {
                self.untraced[cell].push(ms);
            } else {
                self.cells[cell].push(ms);
                self.wall.push(wall_ms);
            }
        }
    }

    /// Every timed latency, in visit order per cell.
    pub fn all(&self) -> Vec<f64> {
        self.cells.iter().flatten().copied().collect()
    }

    /// Geometric mean over cells of each cell's median latency.
    pub fn geomean_ms(&self) -> f64 {
        geomean(&self.cells.iter().map(|c| median(c)).collect::<Vec<_>>())
    }

    /// Traced over untraced: geometric mean over cells of the ratio of
    /// the cells' median latencies.
    pub fn overhead_ratio(&self) -> f64 {
        let ratios: Vec<f64> = self
            .cells
            .iter()
            .zip(&self.untraced)
            .map(|(t, u)| median(t) / median(u).max(1e-9))
            .collect();
        geomean(&ratios)
    }
}

/// The interleaved pass loop. `op(cell, traced)` performs one visit and
/// returns its wall-clock latency in ms. A warm-up pass visits every cell once
/// untimed; then each timed pass visits every cell once in a fresh
/// seeded order — twice in a traced run, once traced and once not, the
/// two visits shuffled together — so drift hits all cells alike. The
/// calibration kernel runs between timed visits. Passes
/// continue while another is expected to fit in `seconds`, and at least
/// [`MIN_PASSES`] are made, and enough for the latency tail's eleven
/// samples.
pub fn run_passes(
    n_cells: usize,
    rng: &mut Rng,
    seconds: f64,
    traced: bool,
    mut op: impl FnMut(usize, bool) -> f64,
) -> Passes {
    for cell in 0..n_cells {
        op(cell, false);
    }
    let mut out = Passes::new(n_cells, traced);
    out.peak_rss_mb = peak_rss_mb();
    let visits = if traced { 2 * n_cells } else { n_cells };
    let min_passes = MIN_PASSES.max(11usize.div_ceil(n_cells));
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if out.passes >= min_passes && elapsed + elapsed / out.passes as f64 > seconds {
            break;
        }
        for v in shuffled(visits, rng) {
            let (cell, is_traced) = (v % n_cells, traced && v < n_cells);
            out.tick();
            let ms = op(cell, is_traced);
            out.record(cell, traced && !is_traced, ms);
        }
        out.passes += 1;
    }
    out.tick();
    out.finish();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert!(tail(&[1.0; 10]).is_none());
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.value, 30.0);
        assert_eq!(t.percentile, 75.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn shuffled_is_a_seeded_permutation() {
        let a = shuffled(50, &mut Rng::new(9));
        assert_eq!(a, shuffled(50, &mut Rng::new(9)));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
