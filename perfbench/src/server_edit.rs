//! `server-edit`: an edit loop against an in-process [`CompileServer`]
//! on a Unix socket (one worker, one closed-loop client, `run: false`).
//!
//! The client edits one seeded multi-component program (the figure
//! prelude plus [`DECLS`] generated declarations). Each epoch starts a
//! fresh server and plays the same seeded script of [`SCRIPT_LEN`]
//! requests: the opening compile, then mostly edits that change one
//! declaration's literal (the server replays the dirtied component
//! suffix), some undos that revert the latest edit (artifact-cache
//! hits), and a few type errors answered with a typed `elab` error. A
//! cell is one script position; every epoch visits each once. This is
//! the only workload where the warm LTY arena, incremental elaboration,
//! the artifact cache and the server queue do the work.
//!
//! After timing, every distinct version's artifact, fetched back from
//! the server's session, must equal a whole-program
//! (`incremental(false)`) compile of the same source, and the program's
//! output must equal the value [`expected_output`] computes directly.
//!
//! A traced request records the round trip and then a direct
//! `compile_job` of the same job on a shadow session that has seen the
//! same requests; the difference is the server's overhead. Phase times
//! on this workload are the shadow compile's own `phase_times`, because
//! incremental elaboration cannot be driven from outside.

use crate::corpus::artifact_key;
use crate::measure::{self, median, ms_since, Passes};
use crate::trace::Tracer;
use crate::{Args, Counts, Report};
use sml_testkit::Rng;
use smlc::{CompileServer, Job, Json, ServerStats, Session, VmResult};
use std::collections::{BTreeMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Generated declarations after the prelude.
pub const DECLS: usize = 40;
/// Requests per epoch, the opening compile included.
pub const SCRIPT_LEN: usize = 48;
/// Server worker threads. One closed-loop client never has more than
/// one request in flight, so a second worker would only race the first
/// for each job, and which thread's allocator arena holds the session's
/// memory would then vary from run to run.
pub const WORKERS: usize = 1;
/// Modulus that keeps every generated value small.
const MODULUS: i64 = 10007;

/// What a request does to the program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The first compile of the base program.
    Open,
    /// One declaration's literal changed.
    Edit,
    /// The latest edit reverted: the version before it resubmitted.
    Undo,
    /// One declaration made ill-typed.
    TypeError,
}

/// The kinds after the opening request, repeated: seven edits, two
/// undos and one type error in every ten.
const PATTERN: [Kind; 10] = [
    Kind::Edit,
    Kind::Edit,
    Kind::Undo,
    Kind::Edit,
    Kind::Edit,
    Kind::TypeError,
    Kind::Edit,
    Kind::Edit,
    Kind::Undo,
    Kind::Edit,
];

/// One version of the edited program: a literal per declaration plus
/// the seeded choice of which earlier value each declaration reads.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Version {
    literals: Vec<i64>,
    deps: Vec<Option<usize>>,
}

/// The value declarations (`v<i>`) among the first `i` declarations.
fn values_before(i: usize) -> impl Iterator<Item = usize> {
    (0..i).filter(|j| j % 4 == 1 || j % 4 == 3)
}

impl Version {
    fn base(rng: &mut Rng) -> Version {
        let literals = (0..DECLS).map(|_| rng.range_i64(1, 99)).collect();
        let deps = (0..DECLS)
            .map(|i| {
                let vals: Vec<usize> = values_before(i).collect();
                (!vals.is_empty()).then(|| *rng.pick(&vals))
            })
            .collect();
        Version { literals, deps }
    }

    /// The source, with declaration `broken` (if any) made ill-typed.
    pub fn render(&self, broken: Option<usize>) -> String {
        let mut s = format!("{}\n", smlc_bench::PRELUDE);
        for i in 0..DECLS {
            let k = if broken == Some(i) {
                "\"oops\"".to_owned()
            } else {
                self.literals[i].to_string()
            };
            let dep = self.deps[i].map_or("1".to_owned(), |j| format!("v{j}"));
            let line = match i % 4 {
                0 => format!(
                    "fun f{i} (x : int) = let fun go (0, acc) = acc \
                     | go (n, acc) = go (n - 1, (acc + x * {k}) mod {MODULUS}) in go (12, {i}) end"
                ),
                1 => format!("val v{i} = f{} ({dep} + {k})", i - 1),
                2 => format!(
                    "val l{i} = map (fn y => y * {k} + v{}) (tabulate (8, fn j => j + {dep}))",
                    i - 1
                ),
                _ => format!(
                    "val v{i} = foldl (fn (y, s) => (s + y) mod {MODULUS}) {k} l{}",
                    i - 1
                ),
            };
            s.push_str(&line);
            s.push('\n');
        }
        let sum: Vec<String> = values_before(DECLS).map(|j| format!("v{j}")).collect();
        s.push_str(&format!(
            "val _ = print (itos (({}) mod {MODULUS}))\n",
            sum.join(" + ")
        ));
        s
    }
}

/// What the program prints, computed directly from its declarations.
pub fn expected_output(v: &Version) -> String {
    let m = MODULUS;
    let mut vals: BTreeMap<usize, i64> = BTreeMap::new();
    let mut list: Vec<i64> = Vec::new();
    let mut fk = (0, 0);
    for i in 0..DECLS {
        let k = v.literals[i];
        let dep = v.deps[i].map_or(1, |j| vals[&j]);
        match i % 4 {
            0 => fk = (k, i as i64),
            1 => {
                let x = dep + k;
                let mut acc = fk.1;
                for _ in 0..12 {
                    acc = (acc + x * fk.0).rem_euclid(m);
                }
                vals.insert(i, acc);
            }
            2 => {
                let prev = vals[&(i - 1)];
                list = (0..8).map(|j| (j + dep) * k + prev).collect();
            }
            _ => {
                let acc = list.iter().fold(k, |s, y| (s + y).rem_euclid(m));
                vals.insert(i, acc);
            }
        }
    }
    (vals.values().sum::<i64>().rem_euclid(m)).to_string()
}

/// One scripted request.
#[derive(Clone, Debug)]
pub struct Request {
    /// What it does.
    pub kind: Kind,
    /// The program text sent.
    pub src: String,
    /// The request line with its newline, encoded in set-up.
    pub line: String,
    /// Whether the response must come from the artifact cache.
    pub from_cache: bool,
}

/// `n` declaration positions spread evenly over the program from a
/// seeded offset, in seeded order: which declarations a script touches
/// varies with the seed, how much of the program they dirty does not.
fn spread_positions(n: usize, rng: &mut Rng) -> Vec<usize> {
    let offset = rng.range_usize(0, DECLS);
    measure::shuffled(n, rng)
        .into_iter()
        .map(|j| (j * DECLS / n + offset) % DECLS)
        .collect()
}

/// The script for `seed`, and the distinct versions it compiles.
pub fn script(seed: u64) -> (Vec<Request>, Vec<Version>) {
    let mut rng = Rng::new(seed ^ 0x5EED_ED17);
    let mut current = Version::base(&mut rng);
    let kinds: Vec<Kind> = (1..SCRIPT_LEN)
        .map(|idx| PATTERN[(idx - 1) % PATTERN.len()])
        .collect();
    let count = |k| kinds.iter().filter(|&&x| x == k).count();
    let mut edit_at = spread_positions(count(Kind::Edit), &mut rng);
    let mut break_at = spread_positions(count(Kind::TypeError), &mut rng);
    let mut history = vec![current.clone()];
    let mut seen: HashSet<Version> = history.iter().cloned().collect();
    let mut undo: Vec<Version> = Vec::new();
    let mut out = vec![(Kind::Open, current.render(None), false)];
    for kind in kinds {
        match kind {
            Kind::Edit => {
                let d = edit_at.pop().expect("one position per edit");
                undo.push(current.clone());
                let old = current.literals[d];
                while current.literals[d] == old {
                    current.literals[d] = rng.range_i64(1, 99);
                }
                let cached = !seen.insert(current.clone());
                if !cached {
                    history.push(current.clone());
                }
                out.push((kind, current.render(None), cached));
            }
            Kind::Undo => {
                current = undo.pop().expect("the pattern undoes only after an edit");
                out.push((kind, current.render(None), true));
            }
            Kind::TypeError => {
                let d = break_at.pop().expect("one position per type error");
                out.push((kind, current.render(Some(d)), false));
            }
            Kind::Open => unreachable!("the pattern never reopens"),
        }
    }
    let requests = out
        .into_iter()
        .enumerate()
        .map(|(id, (kind, src, from_cache))| Request {
            kind,
            line: Json::obj()
                .field("id", id)
                .field("op", "compile")
                .field("src", src.as_str())
                .to_string_compact()
                + "\n",
            src,
            from_cache,
        })
        .collect();
    (requests, history)
}

/// Checks a response against what its request expects; returns the
/// response's `(recompiled, scc_count)` for a fresh compile.
fn check_response(req: &Request, resp: &str) -> Result<Option<(u64, u64)>, String> {
    let doc = Json::parse(resp).map_err(|e| format!("bad response: {e}"))?;
    let ok = doc.get("ok").and_then(Json::as_bool) == Some(true);
    if req.kind == Kind::TypeError {
        let kind = doc
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str);
        return if !ok && kind == Some("elab") {
            Ok(None)
        } else {
            Err(format!("type error answered {resp}"))
        };
    }
    let cached = doc.get("from_cache").and_then(Json::as_bool);
    if !ok || cached != Some(req.from_cache) {
        return Err(format!("{:?} answered {resp}", req.kind));
    }
    if req.from_cache {
        return Ok(None);
    }
    let comp = doc.get("components");
    let field = |name| {
        comp.and_then(|c| c.get(name))
            .and_then(Json::as_i64)
            .map_or(0, |n| n as u64)
    };
    Ok(Some((field("recompiled"), field("scc_count"))))
}

/// A fresh socket path: relative, so it stays inside the working
/// directory and short enough for `sun_path`, and distinct per epoch so
/// concurrent runs in one process never share a socket.
fn socket_path() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    PathBuf::from(format!(".perfbench-{}-{n}.sock", std::process::id()))
}

/// A client connection to a freshly started server.
struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    line: String,
}

impl Client {
    /// Connects once the server thread has bound the socket, then waits
    /// for a `stats` round trip so the accept loop's polling delay never
    /// lands in a timed request.
    fn connect(path: &Path) -> Result<Client, String> {
        let start = Instant::now();
        let stream = loop {
            match UnixStream::connect(path) {
                Ok(s) => break s,
                Err(e) if start.elapsed() > Duration::from_secs(10) => {
                    return Err(format!("connect: {e}"))
                }
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        };
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        let mut client = Client {
            reader: BufReader::new(stream),
            writer,
            line: String::new(),
        };
        client.call("{\"op\":\"stats\"}\n")?;
        Ok(client)
    }

    /// Sends one newline-terminated request line and returns the
    /// response line.
    fn call(&mut self, request: &str) -> Result<&str, String> {
        self.writer
            .write_all(request.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("server closed the connection".to_owned()),
            Ok(_) => Ok(self.line.trim_end()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// Raises the server's shutdown flag when dropped.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// What one epoch measured besides its timings.
#[derive(Default)]
struct Epoch {
    /// Per-request verdicts.
    verdicts: Vec<Result<Option<(u64, u64)>, String>>,
    /// The server's lifetime counters.
    stats: ServerStats,
}

/// What the traced epochs' shadow sessions measured.
#[derive(Default)]
struct Shadow {
    direct_ms: f64,
    lexp_nodes: u64,
    ops_before: u64,
    ops_after: u64,
    phase_ms: BTreeMap<&'static str, f64>,
    lty_hits: u64,
    lty_queries: u64,
    cache_hits: u64,
    cache_lookups: u64,
}

impl Shadow {
    /// Compiles `src` directly on the shadow session, in a span.
    fn compile(&mut self, tr: &mut Tracer, session: &Session, src: &str) {
        let i = tr.enter("session.compile_job");
        let direct = session.compile_job(&Job::new(src));
        self.direct_ms += tr.exit(i);
        if let Some(c) = direct.ok().filter(|c| !c.from_cache) {
            self.lexp_nodes += c.stats.lexp_size as u64;
            self.ops_before += c.stats.cps_size_before as u64;
            self.ops_after += c.stats.cps_size_after as u64;
            for &(phase, d) in &c.stats.phase_times {
                *self.phase_ms.entry(phase).or_insert(0.0) += d.as_secs_f64() * 1e3;
            }
        }
    }

    /// Adds a finished shadow session's arena and cache counters.
    fn finish(&mut self, session: &Session) {
        let lty = session.arena_stats().unwrap_or_default();
        self.lty_hits += lty.hits();
        self.lty_queries += lty.queries();
        let cache = session.cache_stats();
        self.cache_hits += cache.hits;
        self.cache_lookups += cache.hits + cache.misses;
    }
}

/// Plays the script against a fresh server, recording each request's
/// latency in `passes` as a visit of its script position (`untraced`
/// marks an untraced epoch of a traced run). A traced epoch also records
/// spans and compiles every request on a shadow session. `keep` holds
/// the previous epoch's server, which is dropped first, and receives
/// this epoch's once it stops, for the artifact checks.
fn epoch(
    script: &[Request],
    mut traced: Option<(&mut Tracer, &mut Shadow)>,
    passes: &mut Passes,
    untraced: bool,
    keep: &mut Option<CompileServer>,
) -> Result<Epoch, String> {
    drop(keep.take());
    let server = CompileServer::new(Session::default()).workers(WORKERS);
    let shadow_session = traced.is_some().then(Session::default);
    let path = socket_path();
    let stop = AtomicBool::new(false);
    let mut out = Epoch::default();
    let played = std::thread::scope(|s| {
        let serving = s.spawn(|| server.serve_unix(&path, &stop));
        // Stops the server however the client side ends — a panic
        // included, which would otherwise leave the scope waiting on it.
        let stopper = StopOnDrop(&stop);
        let played = (|| {
            let mut client = Client::connect(&path)?;
            for (cell, req) in script.iter().enumerate() {
                passes.tick();
                let root = traced.as_mut().map(|(tr, _)| tr.enter("op"));
                let trip = traced.as_mut().map(|(tr, _)| tr.enter("server.roundtrip"));
                let t = Instant::now();
                let resp = client.call(&req.line)?;
                let mut ms = ms_since(t);
                if let (Some((tr, _)), Some(i)) = (traced.as_mut(), trip) {
                    ms = tr.exit(i);
                }
                passes.record(cell, untraced, ms);
                out.verdicts.push(check_response(req, resp));
                if let (Some((tr, shadow)), Some(session), Some(i)) =
                    (traced.as_mut(), &shadow_session, root)
                {
                    shadow.compile(tr, session, &req.src);
                    tr.exit(i);
                }
            }
            passes.tick();
            client.call("{\"op\":\"shutdown\"}\n")?;
            Ok::<(), String>(())
        })();
        drop(stopper);
        match serving.join() {
            Ok(Ok(stats)) => out.stats = stats,
            Ok(Err(e)) => return Err(format!("serve: {e}")),
            Err(_) => return Err("server thread panicked".to_owned()),
        }
        played
    });
    let _ = std::fs::remove_file(&path);
    played?;
    if let (Some((_, shadow)), Some(session)) = (traced, &shadow_session) {
        shadow.finish(session);
    }
    *keep = Some(server);
    Ok(out)
}

/// Maps the pipeline's phase names to per-layer metrics.
const PHASE_METRICS: [(&str, &str); 7] = [
    ("parse", "ast.parse_ms"),
    ("elaborate", "elab.elaborate_ms"),
    ("translate", "lambda.translate_ms"),
    ("cps-convert", "cps.convert_ms"),
    ("cps-optimize", "cps.optimize_ms"),
    ("closure-convert", "cps.closure_ms"),
    ("codegen", "vm.codegen_ms"),
];

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let ((script, versions), setup_s) = measure::repeated_setup(|| script(args.seed));
    let mut server = None;
    let mut passes = Passes::new(script.len(), args.trace);
    let mut tracer = Tracer::default();
    let mut shadow = Shadow::default();
    let mut traced_ops = 0usize;
    let (mut recompiled, mut sccs, mut queue_peak) = (0u64, 0u64, 0usize);
    // A traced run alternates traced and untraced epochs, starting on a
    // seeded side; the first epoch of every run is an untimed warm-up.
    let mut traced_next = args.trace && args.seed.is_multiple_of(2);
    let min_epochs = measure::MIN_PASSES * if args.trace { 2 } else { 1 };
    let mut start = Instant::now();
    for n in 0usize.. {
        let warm_up = n == 0;
        let elapsed = start.elapsed().as_secs_f64();
        if passes.passes >= min_epochs && elapsed + elapsed / passes.passes as f64 > args.seconds {
            break;
        }
        let traced = !warm_up && traced_next;
        let mut warm_up_passes = Passes::new(script.len(), args.trace);
        let e = match epoch(
            &script,
            traced.then_some((&mut tracer, &mut shadow)),
            if warm_up {
                &mut warm_up_passes
            } else {
                &mut passes
            },
            args.trace && !traced,
            &mut server,
        ) {
            Ok(e) => e,
            Err(e) => {
                report.fail(format!("epoch: {e}"));
                break;
            }
        };
        queue_peak = queue_peak.max(e.stats.queue_depth_peak);
        for (req, v) in script.iter().zip(&e.verdicts) {
            report.check(v.is_ok());
            match v {
                Err(why) => report.notes.push(format!("FAILED {:?}: {why}", req.kind)),
                Ok(Some((r, n))) if warm_up => {
                    recompiled += r;
                    sccs += n;
                }
                Ok(_) => {}
            }
        }
        if warm_up {
            passes.peak_rss_mb = measure::peak_rss_mb();
            start = Instant::now();
            continue;
        }
        traced_next = args.trace && !traced_next;
        if traced {
            traced_ops += script.len();
        }
        passes.passes += 1;
    }
    passes.finish();
    let counts = check_artifacts(&mut report, server.as_ref(), &versions);
    if args.trace {
        crate::layer_times(&mut report, tracer.spans(), traced_ops);
        let per_op = |x: f64| x / traced_ops.max(1) as f64;
        for (phase, metric) in PHASE_METRICS {
            report.metric(
                metric,
                per_op(shadow.phase_ms.get(phase).copied().unwrap_or(0.0)),
                "ms",
            );
        }
        report.metric(
            "lambda.lexp_nodes",
            per_op(shadow.lexp_nodes as f64),
            "count",
        );
        report.metric("cps.ops_before", per_op(shadow.ops_before as f64), "count");
        report.metric("cps.ops_after", per_op(shadow.ops_after as f64), "count");
        let roundtrip: f64 = passes.wall.iter().sum();
        report.metric(
            "server.overhead_ms",
            per_op(roundtrip - shadow.direct_ms),
            "ms",
        );
        report.metric("server.queue_depth_peak", queue_peak as f64, "count");
        report.metric(
            "lambda.lty_hit_ratio",
            shadow.lty_hits as f64 / shadow.lty_queries.max(1) as f64,
            "ratio",
        );
        report.metric(
            "session.cache_hit_ratio",
            shadow.cache_hits as f64 / shadow.cache_lookups.max(1) as f64,
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
    let med: Vec<f64> = passes.cells.iter().map(|c| median(c)).collect();
    report.notes.push(format!(
        "median request ms by kind: open {:.2}, edit {:.2}, undo {:.3}, type error {:.2}",
        kind_median(&script, &med, Kind::Open),
        kind_median(&script, &med, Kind::Edit),
        kind_median(&script, &med, Kind::Undo),
        kind_median(&script, &med, Kind::TypeError),
    ));
    report
}

fn kind_median(script: &[Request], med: &[f64], kind: Kind) -> f64 {
    let v: Vec<f64> = script
        .iter()
        .zip(med)
        .filter(|(r, _)| r.kind == kind)
        .map(|(_, &m)| m)
        .collect();
    median(&v)
}

/// Checks every distinct version's artifact from the last server's
/// session — from its artifact cache, or recompiled by that session if
/// the cache no longer holds it — against a whole-program compile, and
/// runs it against [`expected_output`]. Returns the versions' code size
/// and run cycles.
fn check_artifacts(
    report: &mut Report,
    server: Option<&CompileServer>,
    versions: &[Version],
) -> Counts {
    let mut counts = Counts::default();
    let Some(server) = server else {
        report.fail("no epoch completed".to_owned());
        return counts;
    };
    let whole = Session::builder()
        .incremental(false)
        .build()
        .expect("default knobs validate");
    let mut recompiled = Vec::new();
    for (i, v) in versions.iter().enumerate() {
        let src = v.render(None);
        let verdict = (|| {
            let served = server
                .session()
                .compile_job(&Job::new(src.as_str()))
                .map_err(|e| e.to_string())?;
            let reference = whole.compile(&src).map_err(|e| e.to_string())?;
            if !served.from_cache {
                recompiled.push(i);
            }
            if artifact_key(&served.machine) != artifact_key(&reference.machine) {
                return Err("differs from the whole-program compile".to_owned());
            }
            let out = whole.run(&reference);
            counts.code_words += reference.machine.code_size() as u64;
            counts.cycles += out.stats.cycles;
            let want = expected_output(v);
            if !matches!(out.result, VmResult::Value(_)) || out.output != want {
                return Err(format!("printed {:?}, expected {want:?}", out.output));
            }
            Ok(())
        })();
        report.check(verdict.is_ok());
        if let Err(e) = verdict {
            report.notes.push(format!("FAILED version {i}: {e}"));
        }
    }
    if !recompiled.is_empty() {
        report.notes.push(format!(
            "versions {recompiled:?} were recompiled for the check: the server's artifact \
             cache no longer held them"
        ));
    }
    counts
}
