//! The served workload, `service_mix`: a closed loop of `nproc`
//! `tmg-client` connections from this process against a `tmg-service`
//! server process with `nproc` workers and an on-disk cache under
//! `.bench_scratch/` in the working directory.

use crate::gen::{self, Rng};
use crate::report::{self, Digest, Metrics};
use crate::Outcome;
use std::collections::{BTreeMap, BTreeSet};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tmg_client::{Client, ClientConfig, ClientError};
use tmg_codegen::{generate_module, GeneratedModule, ModuleGenConfig};
use tmg_core::tradeoff::{log_spaced_bounds, sweep_path_bounds};
use tmg_core::{ArtifactStore, ModuleAnalysis, WcetAnalysis};
use tmg_minic::{parse_function, parse_program};
use tmg_service::json::{self, Value};
use tmg_service::{PersistentStore, Server};

/// Distinct statecharts the warm requests repeat: more than the memory
/// tier holds per stage (1024), so warm reads hit both the memory tier and
/// the segment log.
const WARM_SET: u64 = 1280;
/// Distinct ~400-block automotive sources the sweeps cycle through.
const SWEEP_POOL: u64 = 12;
const SWEEP_BLOCKS: usize = 400;
const SWEEP_MAX_BOUND: u128 = 1_000_000;
/// The call-DAG module the `analyse_module` edits start from.
const MODULE_FUNCTIONS: usize = 30;
const MODULE_PATH_BOUND: u128 = 4;
/// Cold statecharts are drawn from indices past the warm set's.
const COLD_BASE: u64 = 1 << 32;
/// Request mix in percent: warm repeats, cold statecharts, module edits;
/// the rest are sweeps.  No traffic record of this toolchain exists, so
/// the split is an assumption: mostly warm repeats, with each other class
/// frequent enough to take a visible share of the loop's time.  Every run
/// prints the measured share of requests and time per class, and the
/// traced run reports them as `client.<class>.request_share`,
/// `client.<class>.time_share` and `server.<op>.time_share`.
const MIX: [u64; 3] = [85, 7, 4];
/// Requests of the schedule the result digest covers; a run that answers
/// fewer is a violation.
const DIGEST_REQUESTS: u64 = 2000;
/// The tail percentile: a run that answers all of [`DIGEST_REQUESTS`] has
/// more than ten samples beyond it.
const TAIL_PERCENTILE: f64 = 99.0;

/// Request classes of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Warm,
    Cold,
    Module,
    Sweep,
}

impl Class {
    const ALL: [Class; 4] = [Class::Warm, Class::Cold, Class::Module, Class::Sweep];

    fn name(self) -> &'static str {
        match self {
            Class::Warm => "warm",
            Class::Cold => "cold",
            Class::Module => "module",
            Class::Sweep => "sweep",
        }
    }
}

/// What a request asks for; the key its reference answer is stored under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Key {
    /// Statechart `index` of the seed (warm set or cold).
    Chart(u64),
    /// The base module with functions `i` and `j` edited.
    Module(usize, usize),
    /// Sweep source `i`.
    Sweep(u64),
}

impl Key {
    fn class(self) -> Class {
        match self {
            Key::Chart(i) if i >= COLD_BASE => Class::Cold,
            Key::Chart(_) => Class::Warm,
            Key::Module(..) => Class::Module,
            Key::Sweep(_) => Class::Sweep,
        }
    }
}

/// The canonical text of an answer: the fields a correct server must
/// reproduce exactly.  Reference answers render the same way.
pub type Answer = String;

fn report_text(r: &Value) -> String {
    let field = |k: &str| r.get(k).and_then(Value::as_u64).unwrap_or(u64::MAX);
    format!(
        "{} seg={} goals={} h={} c={} inf={} unk={} runs={} wcet={}",
        r.get("function").and_then(Value::as_str).unwrap_or("?"),
        field("segments"),
        field("goals"),
        field("heuristic_covered"),
        field("checker_covered"),
        field("infeasible"),
        field("unknown"),
        field("measurement_runs"),
        field("wcet_bound")
    )
}

fn report_text_of(r: &tmg_core::AnalysisReport) -> String {
    format!(
        "{} seg={} goals={} h={} c={} inf={} unk={} runs={} wcet={}",
        r.function,
        r.segments,
        r.goals,
        r.heuristic_covered,
        r.checker_covered,
        r.infeasible,
        r.unknown,
        r.measurement_runs,
        r.wcet_bound
    )
}

/// Everything the mix is generated from, built once in set-up.
pub struct Plan {
    seed: u64,
    warm: Vec<(String, u128)>,
    sweeps: Vec<String>,
    module: GeneratedModule,
}

impl Plan {
    pub fn new(seed: u64) -> Plan {
        let warm = (0..WARM_SET).map(|i| chart(seed, i)).collect();
        let sweeps = (0..SWEEP_POOL)
            .map(|i| gen::automotive_source(seed, gen::STREAM_SWEEP, i, SWEEP_BLOCKS))
            .collect();
        let module = generate_module(&ModuleGenConfig {
            seed: Rng::new(seed, gen::STREAM_MODULE, 0).next_u64(),
            functions: MODULE_FUNCTIONS,
            max_callees: 3,
            body_stmts: 3,
        });
        Plan {
            seed,
            warm,
            sweeps,
            module,
        }
    }

    /// The `n`-th request of the mix.
    pub fn key(&self, n: u64) -> Key {
        let mut rng = Rng::new(self.seed, gen::STREAM_MIX, n);
        let roll = rng.below(100) as u64;
        if roll < MIX[0] {
            Key::Chart(rng.below(self.warm.len()) as u64)
        } else if roll < MIX[0] + MIX[1] {
            Key::Chart(COLD_BASE + n)
        } else if roll < MIX[0] + MIX[1] + MIX[2] {
            let i = rng.below(MODULE_FUNCTIONS);
            let j = (i + 1 + rng.below(MODULE_FUNCTIONS - 1)) % MODULE_FUNCTIONS;
            Key::Module(i.min(j), i.max(j))
        } else {
            Key::Sweep(rng.below(self.sweeps.len()) as u64)
        }
    }

    fn module_source(&self, i: usize, j: usize) -> String {
        self.module.edited(i).edited(j).source
    }

    /// The body (JSON members without braces or `id`) of request `n`.
    ///
    /// `analyse` and `sweep` requests pin `trace_id` 1, so a repeated body
    /// is byte-identical and the client checks that its answer is too.  A
    /// module answer also reports how many summaries were reused, which
    /// legitimately differs between a first and a repeated request, so
    /// module requests carry a trace id of their own.
    pub fn body(&self, key: Key, n: u64) -> String {
        let analyse = |op: &str, source: &str, bound: u128| {
            let trace = if op == "analyse" { 1 } else { n + 2 };
            format!(
                "\"trace_id\": {trace}, \"op\": \"{op}\", \"source\": \"{}\", \"path_bound\": {bound}",
                json::escape(source)
            )
        };
        match key {
            Key::Chart(i) if i < COLD_BASE => {
                let (source, bound) = &self.warm[i as usize];
                analyse("analyse", source, *bound)
            }
            Key::Chart(i) => {
                let (source, bound) = chart(self.seed, i);
                analyse("analyse", &source, bound)
            }
            Key::Module(i, j) => {
                analyse("analyse_module", &self.module_source(i, j), MODULE_PATH_BOUND)
            }
            Key::Sweep(i) => format!(
                "\"trace_id\": 1, \"op\": \"sweep\", \"source\": \"{}\", \"max_bound\": {SWEEP_MAX_BOUND}",
                json::escape(&self.sweeps[i as usize])
            ),
        }
    }

    /// The in-process answer to `key`, plus the exhaustive maximum of a
    /// statechart (for soundness and pessimism).
    pub fn reference(&self, key: Key, modules: &ModuleAnalysis) -> (Answer, Option<u64>) {
        match key {
            Key::Chart(i) => {
                let (source, bound) = if i < COLD_BASE {
                    self.warm[i as usize].clone()
                } else {
                    chart(self.seed, i)
                };
                let f = parse_function(&source).expect("generated statechart parses");
                let space = gen::input_space(&f);
                let report = WcetAnalysis::new(bound)
                    .analyse(&f)
                    .expect("statechart analysis");
                let lowered = tmg_cfg::build_cfg(&f);
                let (max, _) = tmg_core::measurement::exhaustive_end_to_end(
                    &f,
                    &lowered,
                    &space,
                    &tmg_target::CostModel::hcs12(),
                )
                .expect("exhaustive oracle");
                (report_text_of(&report), Some(max))
            }
            Key::Module(i, j) => {
                let program =
                    parse_program(&self.module_source(i, j)).expect("edited module parses");
                let report = modules.analyse_module(&program).expect("module analysis");
                let roots: Vec<String> = report
                    .roots
                    .iter()
                    .map(|r| format!("{}={}", r.function, r.wcet_bound))
                    .collect();
                (roots.join(" "), None)
            }
            Key::Sweep(i) => {
                let f = parse_function(&self.sweeps[i as usize]).expect("sweep source parses");
                let points =
                    sweep_path_bounds(&tmg_cfg::build_cfg(&f), &log_spaced_bounds(SWEEP_MAX_BOUND));
                let text: Vec<String> = points
                    .iter()
                    .map(|p| {
                        format!(
                            "{}:{}:{}:{}",
                            p.path_bound, p.instrumentation_points, p.measurements, p.segments
                        )
                    })
                    .collect();
                (text.join(" "), None)
            }
        }
    }
}

fn chart(seed: u64, index: u64) -> (String, u128) {
    let chart = gen::statechart(seed, index);
    let bound = gen::case_bound(&chart.to_function());
    (chart.to_source(), bound)
}

/// The canonical answer text of a response, or why it is not one.
fn answer_of(key: Key, response: &Value) -> Result<(Answer, Vec<String>), String> {
    if response.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!(
            "declined: {}",
            response.get("error").and_then(Value::as_str).unwrap_or("?")
        ));
    }
    let list = |k: &str| {
        response
            .get(k)
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .to_vec()
    };
    match key {
        Key::Chart(_) => {
            let reports: Vec<String> = list("reports").iter().map(report_text).collect();
            Ok((reports.join(" | "), reports))
        }
        Key::Module(..) => {
            let roots: Vec<String> = list("roots")
                .iter()
                .map(|r| {
                    format!(
                        "{}={}",
                        r.get("function").and_then(Value::as_str).unwrap_or("?"),
                        r.get("wcet_bound")
                            .and_then(Value::as_u64)
                            .unwrap_or(u64::MAX)
                    )
                })
                .collect();
            Ok((roots.join(" "), Vec::new()))
        }
        Key::Sweep(_) => {
            let points: Vec<String> = list("points")
                .iter()
                .map(|p| {
                    let f = |k: &str| p.get(k).and_then(Value::as_u128).unwrap_or(u128::MAX);
                    format!(
                        "{}:{}:{}:{}",
                        f("path_bound"),
                        f("instrumentation_points"),
                        f("measurements"),
                        f("segments")
                    )
                })
                .collect();
            Ok((points.join(" "), Vec::new()))
        }
    }
}

// ---------------------------------------------------------------------------
// The server process.
// ---------------------------------------------------------------------------

/// Serves `tmg-service/v1` over `listener` from a persistent store at
/// `cache` with `workers` scheduler threads, until a `shutdown` request.
pub fn serve(cache: &Path, workers: usize, listener: TcpListener) -> std::io::Result<()> {
    let store = Arc::new(PersistentStore::open(cache)?);
    store.recovery_scan();
    Server::new(store)
        .with_workers(workers)
        .serve_tcp(listener)
        .map(|_| ())
}

/// A scratch directory, removed with everything in it on drop.
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn new(path: PathBuf) -> Result<Scratch, String> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("scratch dir: {e}"))?;
        Ok(Scratch(path))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run's directory is left in it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// A server child process; killed and reaped on drop if still running.
pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Starts `<this executable> serve` on the cache in `dir/cache` and
    /// waits until it accepts connections.
    pub fn start(dir: &Path, workers: usize) -> Result<ServerProc, String> {
        let announce = dir.join("addr");
        let _ = std::fs::remove_file(&announce);
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let child = Command::new(exe)
            .arg("serve")
            .arg("--cache")
            .arg(dir.join("cache"))
            .arg("--workers")
            .arg(workers.to_string())
            .arg("--announce")
            .arg(&announce)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let mut server = ServerProc {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let start = Instant::now();
        loop {
            if let Ok(text) = std::fs::read_to_string(&announce) {
                server.addr = text.trim().parse().map_err(|e| format!("announce: {e}"))?;
                return Ok(server);
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("server exited during start-up: {status}"));
            }
            if start.elapsed() > Duration::from_secs(60) {
                return Err("server did not start within 60 s".to_owned());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Shuts the server down through the protocol and reaps it.
    pub fn stop(mut self) -> Result<(), String> {
        let client = Client::new(self.addr, ClientConfig::default());
        let ack = client.request("\"op\": \"shutdown\"");
        let start = Instant::now();
        while self.child.try_wait().map_err(|e| e.to_string())?.is_none() {
            if start.elapsed() > Duration::from_secs(30) {
                return Err("server did not exit after shutdown".to_owned());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        ack.map(|_| ()).map_err(|e| format!("shutdown: {e}"))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The counters read from the server's public `stats` op, by their dotted
/// path in the snapshot.
const COUNTERS: [&str; 19] = [
    "memory.hits",
    "disk.lower.hits",
    "disk.partition.hits",
    "disk.prepare-model.hits",
    "disk.testgen.hits",
    "disk.measure.hits",
    "disk.bound.hits",
    "computes",
    "segments.zero_copy_hits",
    "segments.group_commit_batches",
    "segments.live_bytes",
    "segments.dead_bytes",
    "module.summaries_reused",
    "module.summaries_computed",
    "resilience.shed",
    "checker.states_explored",
    "checker.shards_explored",
    "checker.visited_hits",
    "checker.visited_insertions",
];
/// Server-side `analyse` p50 (log₂-bucket upper bound), cumulative over
/// the server's lifetime: the one entry a delta keeps as it is.
const ANALYSE_P50: &str = "latency.analyse.p50_ms";
/// Ops whose server-side time `latency.<op>.total_ms` (count × mean) a
/// snapshot carries.
const SERVER_OPS: [&str; 3] = ["analyse", "analyse_module", "sweep"];

/// A snapshot of the server's public `stats`: each of [`COUNTERS`],
/// [`ANALYSE_P50`] and the `latency.<op>.total_ms` of [`SERVER_OPS`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerCounters(BTreeMap<String, f64>);

impl ServerCounters {
    /// Reads the counters through one `stats` request (on a client of its
    /// own: two snapshots differ, and a client checks that answers to a
    /// repeated request do not).
    pub fn read(addr: SocketAddr) -> Result<ServerCounters, String> {
        let client = Client::new(addr, ClientConfig::default());
        let response = client
            .request("\"op\": \"stats\"")
            .map_err(|e| e.to_string())?;
        let value = response.value();
        let stats = value.get("stats").ok_or("stats response has no `stats`")?;
        let at = |path: &str| {
            path.split('.')
                .try_fold(stats, |v, p| v.get(p))
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("stats snapshot lacks `{path}`"))
        };
        let mut c = BTreeMap::new();
        for path in COUNTERS.into_iter().chain([ANALYSE_P50]) {
            c.insert(path.to_owned(), at(path)?);
        }
        for op in SERVER_OPS {
            let total = at(&format!("latency.{op}.count"))? * at(&format!("latency.{op}.mean_ms"))?;
            c.insert(format!("latency.{op}.total_ms"), total);
        }
        Ok(ServerCounters(c))
    }

    /// `self - before` for every entry but [`ANALYSE_P50`].
    pub fn delta(&self, before: &ServerCounters) -> ServerCounters {
        let d = self.0.iter().map(|(k, v)| {
            let d = if k == ANALYSE_P50 {
                *v
            } else {
                v - before.get(k)
            };
            (k.clone(), d)
        });
        ServerCounters(d.collect())
    }

    /// The entry at `path` (0 if absent).
    pub fn get(&self, path: &str) -> f64 {
        self.0.get(path).copied().unwrap_or(0.0)
    }

    /// The sum of the entries whose path starts with `prefix`.
    pub fn sum(&self, prefix: &str) -> f64 {
        self.0
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }
}

// ---------------------------------------------------------------------------
// The workload.
// ---------------------------------------------------------------------------

/// One answered (or failed) request of the measured loop.
struct Record {
    n: u64,
    key: Key,
    /// Completion offset from the start of the loop, in seconds.
    end: f64,
    ms: f64,
    answer: Result<(Answer, Vec<String>), String>,
    wrong_answer: bool,
}

/// Per-layer metrics that only `service_mix` has; the function workloads
/// report them as 0.
pub const SERVICE_LAYERS: [(&str, &str); 31] = [
    ("client.warm.p50_ms", "ms"),
    ("client.warm.tail_ms", "ms"),
    ("client.cold.p50_ms", "ms"),
    ("client.cold.tail_ms", "ms"),
    ("client.module.p50_ms", "ms"),
    ("client.module.tail_ms", "ms"),
    ("client.sweep.p50_ms", "ms"),
    ("client.sweep.tail_ms", "ms"),
    ("client.warm.request_share", "ratio"),
    ("client.warm.time_share", "ratio"),
    ("client.cold.request_share", "ratio"),
    ("client.cold.time_share", "ratio"),
    ("client.module.request_share", "ratio"),
    ("client.module.time_share", "ratio"),
    ("client.sweep.request_share", "ratio"),
    ("client.sweep.time_share", "ratio"),
    ("client.retries", "count"),
    ("client.overloaded_retries", "count"),
    ("store.memory_hits", "count"),
    ("store.disk_hits", "count"),
    ("store.computes", "count"),
    ("segments.zero_copy_hits", "count"),
    ("segments.group_commit_batches", "count"),
    ("segments.bytes_appended", "bytes"),
    ("module.reuse_ratio", "ratio"),
    ("resilience.shed", "count"),
    ("server.analyse.p50_ms", "ms"),
    ("server.analyse.time_share", "ratio"),
    ("server.analyse_module.time_share", "ratio"),
    ("server.sweep.time_share", "ratio"),
    ("server.cpu_per_wall", "ratio"),
];

pub fn zero_service_layers(m: &mut Metrics) {
    for (name, unit) in SERVICE_LAYERS {
        m.set(name, 0.0, unit);
    }
}

/// Fills a fresh cache with the warm set (every warm statechart, every
/// sweep source and the base module once) through a server that is shut
/// down afterwards, so the cache is flushed to the segment log.
fn fill(plan: &Plan, workers: usize, dir: &Path) -> Result<(), String> {
    let server = ServerProc::start(dir, workers)?;
    let mut bodies: Vec<String> = (0..WARM_SET)
        .map(Key::Chart)
        .chain((0..SWEEP_POOL).map(Key::Sweep))
        .map(|key| plan.body(key, 0))
        .collect();
    bodies.push(format!(
        "\"op\": \"analyse_module\", \"source\": \"{}\", \"path_bound\": {MODULE_PATH_BOUND}",
        json::escape(&plan.module.source)
    ));
    let filled: Result<(), String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|part| {
                let (bodies, addr) = (&bodies, server.addr);
                s.spawn(move || {
                    let client = Client::new(addr, ClientConfig::default());
                    for body in bodies.iter().skip(part).step_by(workers) {
                        client
                            .request(body)
                            .map_err(|e| format!("warm fill: {e}"))?;
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("fill thread"))
    });
    filled?;
    server.stop()
}

pub fn run(seed: u64, seconds: u64, traced: bool, parallelism: usize) -> Outcome {
    let mut violations = Vec::new();
    let plan = Plan::new(seed);
    let scratch = match Scratch::new(
        PathBuf::from(".bench_scratch").join(format!("service_mix-{}", std::process::id())),
    )
    .and_then(|scratch| fill(&plan, parallelism, &scratch.0).map(|()| scratch))
    {
        Ok(scratch) => scratch,
        Err(e) => return Outcome::failed(vec![e]),
    };

    // Set-up: start a server on the filled cache (recovery scan, index
    // load) until it answers, three times; the median is `setup_s`, and
    // the last server stays up for the measured loop.
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..3 {
        if let Some(s) = server.take() {
            if let Err(e) = ServerProc::stop(s) {
                violations.push(e);
            }
        }
        let start = Instant::now();
        let started = ServerProc::start(&scratch.0, parallelism)
            .and_then(|s| ServerCounters::read(s.addr).map(|_| s));
        match started {
            Ok(s) => server = Some(s),
            Err(e) => {
                violations.push(e);
                break;
            }
        }
        setups.push(start.elapsed().as_secs_f64());
    }
    let Some(server) = server else {
        return Outcome::failed(violations);
    };
    let snapshot = |violations: &mut Vec<String>| {
        let counters = ServerCounters::read(server.addr);
        counters.map_err(|e| violations.push(e)).ok()
    };
    let before = if traced {
        snapshot(&mut violations)
    } else {
        None
    };

    // The measured closed loop.
    let next = AtomicU64::new(0);
    let deadline = Duration::from_secs(seconds);
    let pid = server.pid();
    let server_cpu0 = report::cpu_seconds(&pid).unwrap_or(0.0);
    let cpu0 = report::cpu_seconds("self").unwrap_or(0.0);
    let host0 = report::HostTicks::now();
    let start = Instant::now();
    let done = AtomicBool::new(false);
    let (per_client, steal) = std::thread::scope(|s| {
        let sampler = s.spawn(|| report::StealLog::record(start, &done));
        let handles: Vec<_> = (0..parallelism)
            .map(|_| {
                s.spawn(|| {
                    let client = Client::new(server.addr, ClientConfig::default());
                    let mut records = Vec::new();
                    while start.elapsed() < deadline {
                        let n = next.fetch_add(1, Ordering::Relaxed);
                        let key = plan.key(n);
                        let body = plan.body(key, n);
                        let t = Instant::now();
                        let result = client.request(&body);
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        let wrong_answer = matches!(result, Err(ClientError::WrongAnswer { .. }));
                        let answer = result
                            .map_err(|e| e.to_string())
                            .and_then(|r| answer_of(key, &r.value()));
                        records.push(Record {
                            n,
                            key,
                            end: start.elapsed().as_secs_f64(),
                            ms,
                            answer,
                            wrong_answer,
                        });
                    }
                    (records, client.stats())
                })
            })
            .collect();
        let per_client: Vec<(Vec<Record>, tmg_client::ClientStats)> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        done.store(true, Ordering::Relaxed);
        (per_client, sampler.join().expect("steal sampler"))
    });
    let loop_wall = start.elapsed().as_secs_f64();
    let cpu = report::cpu_seconds("self").unwrap_or(0.0) - cpu0;
    let host = host0.shares_since();
    let server_cpu = report::cpu_seconds(&pid).unwrap_or(0.0) - server_cpu0;
    let server_rss = report::status_mb(&pid, "VmHWM:").unwrap_or(0.0);
    let after = if traced {
        snapshot(&mut violations)
    } else {
        None
    };
    if let Err(e) = server.stop() {
        violations.push(e);
    }
    drop(scratch);

    // Verification: every answer against the in-process reference.
    let records: Vec<&Record> = per_client.iter().flat_map(|(r, _)| r).collect();
    let keys: BTreeSet<Key> = records.iter().map(|r| r.key).collect();
    let references = references(&plan, &keys, parallelism);
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut by_class: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
    let mut all_ms = Vec::new();
    let mut goals = [0u64; 7];
    let mut analysed = 0u64;
    for r in &records {
        attempted += 1;
        all_ms.push(r.ms);
        by_class.entry(r.key.class()).or_default().push(r.ms);
        let (expected, oracle) = &references[&r.key];
        let problem = match &r.answer {
            _ if r.wrong_answer => Some("client saw a non-identical repeat answer".to_owned()),
            Err(e) => Some(e.clone()),
            Ok((got, _)) if got != expected => Some(format!(
                "{:?}: served `{got}`, in-process `{expected}`",
                r.key
            )),
            Ok(_) => oracle.and_then(|max| {
                let wcet = wcet_of(expected);
                (wcet < max).then(|| format!("{:?}: bound {wcet} < exhaustive {max}", r.key))
            }),
        };
        if let Some(p) = problem {
            failed += 1;
            if violations.len() < 8 {
                violations.push(p);
            }
        }
        if let Ok((_, reports)) = &r.answer {
            for text in reports {
                analysed += 1;
                for (slot, field) in goals
                    .iter_mut()
                    .zip(["goals=", "h=", "c=", "inf=", "unk=", "runs=", "seg="])
                {
                    *slot += field_of(text, field);
                }
            }
        }
    }
    let mut pessimism = Vec::new();
    for (answer, oracle) in references.values() {
        if let Some(max) = oracle {
            pessimism.push(wcet_of(answer) as f64 / (*max).max(1) as f64);
        }
    }
    // The digest covers a prefix of the schedule that every run reaches,
    // so it does not depend on how many requests a run got through.
    if (records.len() as u64) < DIGEST_REQUESTS {
        violations.push(format!(
            "only {} requests answered; the digest covers the first {DIGEST_REQUESTS}",
            records.len()
        ));
    }
    let mut digested: Vec<&&Record> = records.iter().filter(|r| r.n < DIGEST_REQUESTS).collect();
    digested.sort_by_key(|r| r.n);
    let mut digest = Digest::default();
    for r in digested {
        let answer = match &r.answer {
            Ok((a, _)) => a.as_str(),
            Err(_) => "failed",
        };
        digest.add(&format!(
            "{} {:?} {answer} oracle={:?}",
            r.n, r.key, references[&r.key].1
        ));
    }

    // Each class's measured share of the requests and of the time the
    // clients spent waiting for answers.
    let total_ms: f64 = all_ms.iter().sum();
    let shares: BTreeMap<Class, (f64, f64)> = Class::ALL
        .iter()
        .map(|&c| {
            let v = by_class.get(&c).map_or(&[][..], Vec::as_slice);
            let requests = report::ratio(v.len() as f64, all_ms.len() as f64);
            (c, (requests, report::ratio(v.iter().sum(), total_ms)))
        })
        .collect();

    let mut m = Metrics::default();
    let n = records.len().max(1) as f64;
    if traced {
        for name in crate::trace::STAGES {
            m.set(format!("{name}.ms"), 0.0, "ms");
            m.set(format!("{name}.share"), 0.0, "ratio");
        }
        m.set("trace.overhead", 0.0, "ratio");
        report::set_report_counts(&mut m, goals, analysed.max(1) as f64);
        let d = match (before, after) {
            (Some(b), Some(a)) => a.delta(&b),
            _ => ServerCounters::default(),
        };
        m.set(
            "checker.states_explored",
            d.get("checker.states_explored") / n,
            "count",
        );
        m.set(
            "checker.shards_explored",
            d.get("checker.shards_explored") / n,
            "count",
        );
        let hits = d.get("checker.visited_hits");
        m.set(
            "checker.visited_hit_ratio",
            report::ratio(hits, hits + d.get("checker.visited_insertions")),
            "ratio",
        );
        m.set("checker.states_per_s", 0.0, "1/s");
        m.set("cpu_per_wall", report::ratio(cpu, loop_wall), "ratio");
        report::set_host_shares(&mut m, host);
        for class in Class::ALL {
            let v = by_class.get(&class).map_or(&[][..], Vec::as_slice);
            let (requests, time) = shares[&class];
            m.set(
                format!("client.{}.request_share", class.name()),
                requests,
                "ratio",
            );
            m.set(format!("client.{}.time_share", class.name()), time, "ratio");
            m.set(
                format!("client.{}.p50_ms", class.name()),
                report::median(v),
                "ms",
            );
            let tail = report::tail(v);
            m.set(
                format!("client.{}.tail_ms", class.name()),
                tail.map_or(0.0, |t| t.1),
                "ms",
            );
            if let Some((p, _)) = tail {
                println!(
                    "client.{}.tail_ms: p{p} of {} samples",
                    class.name(),
                    v.len()
                );
            }
        }
        let retries: u64 = per_client.iter().map(|(_, s)| s.retries).sum();
        let overloaded: u64 = per_client.iter().map(|(_, s)| s.overloaded_retries).sum();
        m.set("client.retries", retries as f64, "count");
        m.set("client.overloaded_retries", overloaded as f64, "count");
        m.set("store.memory_hits", d.get("memory.hits"), "count");
        m.set("store.disk_hits", d.sum("disk."), "count");
        m.set("store.computes", d.get("computes"), "count");
        m.set(
            "segments.zero_copy_hits",
            d.get("segments.zero_copy_hits"),
            "count",
        );
        m.set(
            "segments.group_commit_batches",
            d.get("segments.group_commit_batches"),
            "count",
        );
        m.set(
            "segments.bytes_appended",
            d.get("segments.live_bytes") + d.get("segments.dead_bytes"),
            "bytes",
        );
        let reused = d.get("module.summaries_reused");
        m.set(
            "module.reuse_ratio",
            report::ratio(reused, reused + d.get("module.summaries_computed")),
            "ratio",
        );
        m.set("resilience.shed", d.get("resilience.shed"), "count");
        m.set("server.analyse.p50_ms", d.get(ANALYSE_P50), "ms");
        let server_ms: f64 = SERVER_OPS
            .iter()
            .map(|op| d.get(&format!("latency.{op}.total_ms")))
            .sum();
        for op in SERVER_OPS {
            m.set(
                format!("server.{op}.time_share"),
                report::ratio(d.get(&format!("latency.{op}.total_ms")), server_ms),
                "ratio",
            );
        }
        m.set(
            "server.cpu_per_wall",
            report::ratio(server_cpu, loop_wall),
            "ratio",
        );
    } else {
        m.set("setup_s", report::median(&setups), "s");
        let samples: Vec<(f64, f64)> = records.iter().map(|r| (r.end, r.ms)).collect();
        m.set(
            "throughput_per_s",
            report::windowed_rate(&samples, loop_wall, &steal),
            "1/s",
        );
        m.set(
            "latency_p50_ms",
            report::windowed_median(&samples, loop_wall, &steal),
            "ms",
        );
        let tail = report::windowed_tail(&samples, loop_wall, TAIL_PERCENTILE, &steal);
        steal.print(loop_wall);
        m.set("latency_tail_ms", tail.map_or(0.0, |t| t.1), "ms");
        m.set("pessimism", report::geomean(&pessimism), "ratio");
        m.set(
            "resolved_goal_share",
            1.0 - report::ratio(goals[4] as f64, goals[0] as f64),
            "ratio",
        );
        m.set(
            "ok_share",
            1.0 - report::ratio(failed as f64, attempted as f64),
            "ratio",
        );
        m.set("peak_rss_mb", server_rss, "MB");
        report::print_tail(tail, all_ms.len());
    }
    let counts: Vec<String> = Class::ALL
        .iter()
        .map(|c| {
            let (requests, time) = shares[c];
            format!(
                "{} {:.1} % of requests, {:.1} % of client time",
                c.name(),
                requests * 100.0,
                time * 100.0
            )
        })
        .collect();
    println!(
        "loop: {} requests in {loop_wall:.3} s ({})",
        records.len(),
        counts.join("; ")
    );
    println!(
        "digest: {} over the first {} requests (bounds, goal statuses, sweep points)",
        digest.hex(),
        digest.items()
    );
    Outcome {
        attempted,
        failed,
        violations,
        metrics: m,
    }
}

fn field_of(text: &str, field: &str) -> u64 {
    text.split_whitespace()
        .find_map(|w| w.strip_prefix(field))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn wcet_of(answer: &str) -> u64 {
    field_of(answer, "wcet=")
}

/// In-process reference answers for every served key.  Statecharts are
/// independent and split across `parallelism` threads; module edits run
/// in order through one shared in-memory store, so each recomputes only
/// its dirty cone.
fn references(
    plan: &Plan,
    keys: &BTreeSet<Key>,
    parallelism: usize,
) -> BTreeMap<Key, (Answer, Option<u64>)> {
    let modules = ModuleAnalysis::new(MODULE_PATH_BOUND).with_store(Arc::new(ArtifactStore::new()));
    let out = Mutex::new(BTreeMap::new());
    let charts: Vec<Key> = keys
        .iter()
        .copied()
        .filter(|k| matches!(k, Key::Chart(_)))
        .collect();
    std::thread::scope(|s| {
        for part in 0..parallelism {
            let (charts, out, modules) = (&charts, &out, &modules);
            s.spawn(move || {
                for key in charts.iter().skip(part).step_by(parallelism) {
                    let r = plan.reference(*key, modules);
                    out.lock().expect("references lock").insert(*key, r);
                }
            });
        }
    });
    let mut out = out.into_inner().expect("references lock");
    for key in keys.iter().filter(|k| !matches!(k, Key::Chart(_))) {
        out.insert(*key, plan.reference(*key, &modules));
    }
    out
}
