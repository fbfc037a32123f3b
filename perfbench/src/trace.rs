//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Spans are kept in a vector and evaluated when the run ends; a
//! layer's self time is its span's duration minus its child spans'.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name, e.g. `elab.elaborate`.
    pub name: &'static str,
    /// Start, in ns since the tracer's epoch.
    pub start: u64,
    /// End, in ns since the tracer's epoch.
    pub end: u64,
    /// Index of the enclosing span; `None` for an op's root span.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// A span recorder for one thread of ops.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    next_op: u64,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_op: 0,
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; an op's root span when no span is open, which
    /// starts a new op.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let parent = self.stack.last().copied();
        let op = match parent {
            Some(p) => self.spans[p].op,
            None => {
                self.next_op += 1;
                self.next_op
            }
        };
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            op,
        });
        self.stack.push(idx);
        idx
    }

    /// Closes the innermost open span, which must be `idx`, and
    /// returns its duration in ms.
    pub fn exit(&mut self, idx: usize) -> f64 {
        assert_eq!(
            self.stack.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        self.spans[idx].end = self.now();
        self.spans[idx].dur() as f64 / 1e6
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = self.enter(name);
        let r = f();
        self.exit(idx);
        r
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Runs `f` inside a span named `name` when tracing, else just runs it.
pub fn maybe<T>(tr: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tr {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Each span's self time in ns: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<i128> = spans.iter().map(|s| i128::from(s.dur())).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= i128::from(s.dur());
        }
    }
    own.into_iter().map(|t| t.max(0) as u64).collect()
}

/// Summed self time per layer name, in ns.
pub fn self_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += t;
    }
    out
}

/// Checks the trace's structure: every span closed and nested inside
/// its parent within the same op, every op has exactly one root span,
/// and each op's self times sum to its root span within 1%.
pub fn check(spans: &[Span]) -> Result<(), String> {
    let mut roots: BTreeMap<u64, usize> = BTreeMap::new();
    let mut self_sum: BTreeMap<u64, u64> = BTreeMap::new();
    for ((i, s), own) in spans.iter().enumerate().zip(self_times(spans)) {
        if s.end < s.start {
            return Err(format!("span {i} `{}` ends before it starts", s.name));
        }
        match s.parent {
            None => {
                if roots.insert(s.op, i).is_some() {
                    return Err(format!("op {} has more than one root span", s.op));
                }
            }
            Some(p) => {
                let ps = &spans[p];
                if p >= i || ps.op != s.op || s.start < ps.start || s.end > ps.end {
                    return Err(format!(
                        "span {i} `{}` does not nest in its parent `{}`",
                        s.name, ps.name
                    ));
                }
            }
        }
        *self_sum.entry(s.op).or_insert(0) += own;
    }
    for (op, sum) in self_sum {
        let Some(&root) = roots.get(&op) else {
            return Err(format!("op {op} has no root span"));
        };
        let total = spans[root].dur();
        if sum.abs_diff(total) as f64 > 0.01 * total as f64 {
            return Err(format!(
                "op {op}: self times sum to {sum} ns, root span is {total} ns"
            ));
        }
    }
    Ok(())
}

/// The spans as Chrome trace-event JSON (complete events, times in µs),
/// each carrying its op and parent span.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            "{sep}\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"span\":{i},\"op\":{},\"parent\":{parent}}}}}",
            s.name,
            s.start as f64 / 1e3,
            s.dur() as f64 / 1e3,
            s.op
        );
    }
    out.push_str("\n]}\n");
    out
}
