//! Prints the reproduced tables and figures of the paper's evaluation, and
//! emits the machine-readable perf baseline.
//!
//! ```text
//! cargo run -p tmg-bench --release --bin reproduce -- all
//! cargo run -p tmg-bench --release --bin reproduce -- table1 table2 case-study
//! cargo run -p tmg-bench --release --bin reproduce -- sweep           # Figure-2/3 curve as JSON
//! cargo run -p tmg-bench --release --bin reproduce -- sweep --stats   # + artifact-store counters
//! cargo run -p tmg-bench --release --bin reproduce -- serve           # JSON-lines analysis server
//! cargo run -p tmg-bench --release --bin reproduce -- serve --tcp 127.0.0.1:7077   # TCP transport
//! cargo run -p tmg-bench --release --bin reproduce -- serve --smoke   # scripted cold/warm smoke
//! cargo run -p tmg-bench --release --bin reproduce -- loadtest        # mixed socket loadtest
//! cargo run -p tmg-bench --release --bin reproduce -- chaos           # kill/restart + wire-fault soak
//! cargo run -p tmg-bench --release --bin reproduce -- chaos --quick   # CI chaos smoke
//! cargo run -p tmg-bench --release --bin reproduce -- profile         # Chrome trace of one cold request
//! cargo run -p tmg-bench --release --bin reproduce -- profile --quick # validated profiling smoke
//! cargo run -p tmg-bench --release --bin reproduce -- bench           # writes BENCH_pr10.json
//! cargo run -p tmg-bench --release --bin reproduce -- bench --label x # writes BENCH_x.json
//! cargo run -p tmg-bench --release --bin reproduce -- --quick         # CI smoke run
//! ```
//!
//! `bench` records the before/after perf baseline and writes
//! `BENCH_<label>.json`, where `--label <name>` sets the label (default
//! `pr10`, recorded as the JSON's `"pr"` member) and the `TMG_BENCH_OUT`
//! environment variable overrides the path.  `sweep` prints the cached
//! incremental Figure-2/3 tradeoff
//! sweep as machine-readable JSON (written by hand; the vendored serde is
//! derive-markers only); `TMG_TARGET_BLOCKS` sizes the generated function
//! and `--stats` appends the artifact-store counter snapshot.
//!
//! `serve` starts the persistent `tmg-service/v1` analysis server with the
//! on-disk artifact cache rooted at `TMG_CACHE_DIR` (default `.tmg-cache`)
//! on stdin/stdout, or — with `--tcp <addr>` — on a TCP listener accepting
//! many concurrent pipelined connections.  Startup always runs the crash
//! recovery scan (quarantining unverifiable frames, reclaiming orphaned
//! `.tmp` files); `TMG_FAULT_PLAN` (e.g. `torn_write:3,crash_after_publish:1`)
//! arms deterministic I/O fault injection, and `TMG_TRACE=1` arms
//! per-request span recording (making the `profile` op live), with
//! `TMG_TRACE_SLOW_MS` restricting span retention to slow requests.  `serve --smoke` runs a scripted
//! cold/warm two-session batch, then spawns a *second OS process* over the
//! same cache directory and fails on any bound mismatch or warm-run
//! recomputation in either process; under `TMG_FAULT_PLAN` it additionally
//! asserts that the faulted sessions answer bit-identically to a fault-free
//! reference and that recovery quarantines what the faults damaged.  `loadtest` drives
//! thousands of mixed requests (duplicate-heavy, cache-hostile,
//! deadline-violating) over real sockets — `--requests N` / `--workers N`
//! override the mix size and the scheduler pool — and then proves load
//! shedding on a zero-capacity queue.

use std::sync::Arc;
use tmg_bench::{
    case_study, figure2_3, loadtest, multiquery_crosscheck, perf_report, shard_crosscheck,
    sweep_crosscheck, table1, table1_paper, table2, testgen_experiment, LoadtestConfig,
};
use tmg_core::pipeline::ArtifactStore;
use tmg_service::{json, FaultPlan, PersistentStore, PersistentStoreConfig, Server};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `profile` and `chaos` own `--quick` as their own short modes, so they
    // must be routed before the CI smoke shortcut.
    if args.iter().any(|a| a == "profile") {
        run_profile(&args);
        return;
    }
    if args.iter().any(|a| a == "chaos") {
        run_chaos(&args);
        return;
    }
    if args.iter().any(|a| a == "--quick") {
        run_quick();
        return;
    }
    if args.iter().any(|a| a == "serve") {
        run_serve(&args);
        return;
    }
    if args.iter().any(|a| a == "loadtest") {
        run_loadtest(&args);
        return;
    }
    let with_stats = args.iter().any(|a| a == "--stats");
    let label = arg_value(&args, "--label");
    // Positional arguments name experiments; the value after `--label`
    // does not.
    let experiments: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| !a.starts_with("--") && (*i == 0 || args[i - 1] != "--label"))
        .map(|(_, a)| a.clone())
        .collect();
    let wanted: Vec<String> = if experiments.is_empty() || experiments.iter().any(|a| a == "all") {
        vec![
            "table1".into(),
            "figure2".into(),
            "figure3".into(),
            "table2".into(),
            "case-study".into(),
            "testgen".into(),
        ]
    } else {
        experiments
    };
    for experiment in wanted {
        match experiment.as_str() {
            "table1" => print_table1(),
            "figure2" => print_figure2_3(true),
            "figure3" => print_figure2_3(false),
            "table2" => print_table2(),
            "case-study" | "case_study" => print_case_study(),
            "testgen" => print_testgen(),
            "sweep" => print_sweep_json(with_stats),
            "bench" => run_bench(label.as_deref().unwrap_or(tmg_bench::perf::DEFAULT_LABEL)),
            other => eprintln!("unknown experiment `{other}` (expected table1, figure2, figure3, table2, case-study, testgen, sweep, serve, loadtest, chaos, profile, bench, all)"),
        }
    }
}

/// Starts the analysis server (stdin or TCP), or runs the scripted smoke
/// batch.  Startup arms `TMG_FAULT_PLAN` (if set) and always runs the
/// crash recovery scan before accepting requests.
fn run_serve(args: &[String]) {
    if args.iter().any(|a| a == "--seed-child") {
        run_seed_child();
        return;
    }
    if args.iter().any(|a| a == "--smoke-child") {
        run_smoke_child();
        return;
    }
    if args.iter().any(|a| a == "--smoke") {
        run_serve_smoke();
        return;
    }
    let tcp_addr = arg_value(args, "--tcp");
    let root = std::env::var("TMG_CACHE_DIR").unwrap_or_else(|_| ".tmg-cache".to_owned());
    // TMG_TRACE=1 arms per-request span recording, making the `profile`
    // op live; TMG_TRACE_SLOW_MS bounds retention to slow requests.
    let tracing = std::env::var("TMG_TRACE").is_ok_and(|v| v == "1");
    let slow_ms = std::env::var("TMG_TRACE_SLOW_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    if tracing {
        tmg_obs::set_enabled(true);
        eprintln!("span recording enabled (slow-request threshold: {slow_ms} ms)");
    }
    let store = Arc::new(
        PersistentStore::with_config(
            PersistentStoreConfig::new(&root).with_fault_plan(FaultPlan::from_env()),
        )
        .expect("open artifact cache"),
    );
    let recovery = store.recovery_scan();
    eprintln!(
        "recovery scan: {} frames verified, {} quarantined, {} orphaned .tmp reclaimed",
        recovery.scanned, recovery.quarantined, recovery.reclaimed_tmp
    );
    let summary = match tcp_addr {
        Some(addr) => {
            let listener = std::net::TcpListener::bind(&addr).expect("bind TCP listener");
            let local = listener.local_addr().expect("local addr");
            eprintln!(
                "tmg-service/v1 serving on tcp {local} (artifact cache: {root}); ops: analyse, sweep, stats, profile, shutdown"
            );
            // `--announce <file>` publishes the bound address (atomically,
            // via rename) so a parent that bound port 0 can find us — the
            // chaos harness restarts servers on fresh ports this way.
            if let Some(path) = arg_value(args, "--announce") {
                let tmp = format!("{path}.tmp");
                std::fs::write(&tmp, local.to_string()).expect("write announce file");
                std::fs::rename(&tmp, &path).expect("publish announce file");
            }
            Server::new(store)
                .with_slow_threshold_ms(slow_ms)
                .with_wire_faults(FaultPlan::from_env())
                .serve_tcp(listener)
                .expect("serve_tcp")
        }
        None => {
            eprintln!(
                "tmg-service/v1 serving on stdin/stdout (artifact cache: {root}); ops: analyse, sweep, stats, profile, shutdown"
            );
            let stdin = std::io::stdin();
            Server::new(store)
                .with_slow_threshold_ms(slow_ms)
                .serve(stdin.lock(), std::io::stdout())
                .expect("serve")
        }
    };
    eprintln!(
        "served {} requests ({} responses, {} deduplicated, {} shed [{} quota, {} cost], {} expired, {} disconnected, clean shutdown: {})",
        summary.requests,
        summary.responses,
        summary.deduplicated,
        summary.shed,
        summary.quota_shed,
        summary.cost_shed,
        summary.expired,
        summary.disconnected,
        summary.clean_shutdown
    );
}

/// `reproduce -- chaos [--quick]`: the end-to-end resilience soak — the
/// loadtest mix through reconnecting `tmg-client`s against a real server
/// process that gets `kill -9`ed and restarted mid-soak with every wire
/// fault kind armed.  Every assertion lives in [`tmg_bench::chaos`]; this
/// just picks the config and prints the report.
fn run_chaos(args: &[String]) {
    let config = if args.iter().any(|a| a == "--quick") {
        tmg_bench::ChaosConfig::quick()
    } else {
        tmg_bench::ChaosConfig::full()
    };
    println!(
        "chaos soak: {} slots per phase over {} client connections, {} kill/restart cycle(s), wire plan {}",
        config.requests,
        config.connections,
        config.kills,
        tmg_bench::chaos::WIRE_PLAN
    );
    let report = tmg_bench::chaos(&config);
    println!(
        "answered {}/{}: {} ok, {} cancelled (deadline slots), {} soak answers verified bit-identical to the fault-free reference",
        report.ok + report.cancelled,
        report.requests,
        report.ok,
        report.cancelled,
        report.verified_identical
    );
    for (k, recovery) in report.recovery.iter().enumerate() {
        println!(
            "kill {}: recovered in {:.1} ms (kill -> answered probe)",
            k + 1,
            recovery.as_secs_f64() * 1e3
        );
    }
    let wire: Vec<String> = report
        .wire_faults
        .iter()
        .map(|(kind, fired)| format!("{kind} x{fired}"))
        .collect();
    println!(
        "wire faults fired on the final server: {} ({} total); restart computes: {} (fully warm)",
        wire.join(", "),
        report.wire_faults_fired(),
        report.restart_computes
    );
    let c = &report.client;
    println!(
        "client absorbed: {} retries, {} reconnects, {} hedges, {} torn frames, {} duplicates dropped, {} overloaded waits over {} requests",
        c.retries, c.connects, c.hedges, c.torn_frames, c.duplicates_dropped, c.overloaded_retries, c.requests
    );
    println!(
        "chaos soak: zero wrong answers, {} kill(s) survived, wall {:.1} ms — ok",
        report.kills,
        report.wall.as_secs_f64() * 1e3
    );
}

/// The value following `flag` in `args`, if present.
fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.windows(2).find(|w| w[0] == flag).map(|w| w[1].clone())
}

/// Drives the mixed socket loadtest (see `tmg_bench::loadtest`): every
/// request must come back with `ok` or a typed error, identical sources
/// must bound identically, and a zero-capacity queue must shed instead of
/// queueing without bound.
fn run_loadtest(args: &[String]) {
    let mut config = LoadtestConfig::default();
    if let Some(n) = arg_value(args, "--requests").and_then(|v| v.parse().ok()) {
        config.requests = n;
    }
    if let Some(n) = arg_value(args, "--workers").and_then(|v| v.parse().ok()) {
        config.workers = n;
    }
    println!(
        "loadtest: {} mixed requests over TCP, {} connections, {} workers, queue capacity {}",
        config.requests, config.connections, config.workers, config.queue_capacity
    );
    let report = loadtest(&config);
    println!(
        "answered {}/{}: {} ok, {} cancelled (deadline), {} overloaded, {} faults",
        report.answered(),
        report.requests,
        report.ok,
        report.cancelled,
        report.overloaded,
        report.faults
    );
    println!(
        "wall {:.1} ms, throughput {:.0} req/s, server-side analyse p99 {:.3} ms, {} deduplicated",
        report.wall.as_secs_f64() * 1e3,
        report.throughput_rps,
        report.p99_analyse_ms,
        report.summary.deduplicated
    );
    assert_eq!(report.faults, 0, "well-formed requests must never fault");
    assert!(
        report.cancelled >= 1,
        "the mix must exercise deadline violations"
    );
    let shed = tmg_bench::saturate(60);
    println!(
        "saturation: {} jobs shed with typed overloaded + retry_after_ms on a zero-capacity queue — ok",
        shed.summary.shed
    );
}

/// The CI smoke: a cold session populates a scratch cache, a *fresh* server
/// session over the same directory must answer the identical bound from
/// disk with zero stage recomputation.
///
/// Under `TMG_FAULT_PLAN` the smoke additionally runs a fault-free
/// reference first and asserts the faulted sessions answer bit-identically
/// — injected faults may only cost recomputation, never change an answer.
///
/// # Panics
///
/// Panics (failing CI) on any bound mismatch, on a warm-run recomputation,
/// or on a malformed response.
fn run_serve_smoke() {
    use std::io::Cursor;
    let root = std::env::temp_dir().join(format!("tmg-serve-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let source = tmg_minic::pretty::function_to_string(&tmg_codegen::wiper_function());
    let bound = tmg_bench::wiper_case_bound();
    let analyse = format!(
        "{{\"id\": ID, \"op\": \"analyse\", \"source\": \"{}\", \"path_bound\": {bound}}}",
        json::escape(&source)
    );

    let session = |script: String, plan: FaultPlan| -> (Vec<json::Value>, u64) {
        let store = Arc::new(
            PersistentStore::with_config(PersistentStoreConfig::new(&root).with_fault_plan(plan))
                .expect("open cache"),
        );
        let mut out = Vec::new();
        Server::new(store.clone())
            .serve(Cursor::new(script), &mut out)
            .expect("serve");
        let mut responses: Vec<json::Value> = String::from_utf8(out)
            .expect("utf-8 responses")
            .lines()
            .map(|line| json::parse(line).expect("response parses"))
            .collect();
        responses.sort_by_key(|v| v.get("id").and_then(json::Value::as_u64).unwrap_or(0));
        (responses, store.fault_shots_fired())
    };
    let reports_of = |response: &json::Value| -> json::Value {
        assert_eq!(
            response.get("ok").and_then(json::Value::as_bool),
            Some(true),
            "analyse failed: {response:?}"
        );
        response.get("reports").expect("reports").clone()
    };

    // Session 1 (cold): two identical analyses (the second exercises the
    // in-process cache), then the counters.
    let cold_script = format!(
        "{}\n{}\n{{\"id\": 3, \"op\": \"stats\"}}\n{{\"id\": 4, \"op\": \"shutdown\"}}\n",
        analyse.replace("ID", "1"),
        analyse.replace("ID", "2")
    );
    let (cold, _) = session(cold_script.clone(), FaultPlan::none());
    let cold_reports = reports_of(&cold[0]);
    assert_eq!(
        cold_reports,
        reports_of(&cold[1]),
        "repeated analyse in one session must answer identically"
    );

    // Session 2 (warm, fresh process image): same request, new store.
    let warm_script = format!(
        "{}\n{{\"id\": 2, \"op\": \"stats\"}}\n{{\"id\": 3, \"op\": \"shutdown\"}}\n",
        analyse.replace("ID", "1")
    );
    let (warm, _) = session(warm_script.clone(), FaultPlan::none());
    let warm_reports = reports_of(&warm[0]);
    assert_eq!(
        cold_reports, warm_reports,
        "warm session must serve the bit-identical bound from disk"
    );
    let stats = warm[1].get("stats").expect("stats payload");
    // Schema check: the snapshot must carry the unified-registry schema id
    // and the groups a dashboard would subscribe to.
    assert_eq!(
        stats.get("schema").and_then(json::Value::as_str),
        Some("tmg-obs-stats/v1"),
        "stats must carry the unified snapshot schema: {stats:?}"
    );
    for group in [
        "memory", "checker", "module", "testgen", "segments", "latency", "disk",
    ] {
        assert!(
            stats.get(group).is_some(),
            "stats is missing its `{group}` group: {stats:?}"
        );
    }
    let computes = stats
        .get("computes")
        .and_then(json::Value::as_u64)
        .expect("computes counter");
    assert_eq!(
        computes, 0,
        "warm session must recompute nothing: {stats:?}"
    );
    let bound_hits = stats
        .get("disk")
        .and_then(|d| d.get("bound"))
        .and_then(|b| b.get("hits"))
        .and_then(json::Value::as_u64)
        .expect("disk bound hits");
    assert!(bound_hits >= 1, "bound must be served from disk: {stats:?}");

    let wcet = warm_reports.as_array().expect("array")[0]
        .get("wcet_bound")
        .and_then(json::Value::as_u64)
        .expect("wcet_bound");
    println!(
        "serve smoke: cold and warm sessions agree on wcet_bound = {wcet} cycles; warm run: 0 recomputations, {bound_hits} disk bound hit(s) — ok"
    );

    // Multi-process phase: a true second OS process (this binary, re-spawned
    // with `serve --smoke-child`) opens the same cache directory and must
    // serve the bit-identical bound fully warm.  The child asserts zero
    // recomputation in-process; the parent verifies the answers match.
    let exe = std::env::current_exe().expect("current exe");
    let child = std::process::Command::new(exe)
        .args(["serve", "--smoke-child"])
        .env("TMG_CACHE_DIR", &root)
        .env_remove("TMG_FAULT_PLAN")
        .output()
        .expect("spawn smoke child");
    assert!(
        child.status.success(),
        "the second-process smoke failed:\n{}{}",
        String::from_utf8_lossy(&child.stdout),
        String::from_utf8_lossy(&child.stderr)
    );
    let child_out = String::from_utf8(child.stdout).expect("utf-8 child output");
    let child_analyse = child_out
        .lines()
        .filter_map(|line| json::parse(line).ok())
        .find(|v| v.get("id").and_then(json::Value::as_u64) == Some(1))
        .expect("child analyse response");
    assert_eq!(
        reports_of(&child_analyse),
        cold_reports,
        "the second process must answer bit-identically from the shared cache"
    );
    println!(
        "multi-process smoke: second process answered bit-identically from the shared cache with 0 recomputations — ok"
    );

    // Fault phase (only when `TMG_FAULT_PLAN` is armed): rerun the cold
    // session against a wiped cache with faults injected.  Faults may only
    // cost recomputation — every response must be bit-identical to the
    // fault-free reference, and a fresh process's recovery scan plus warm
    // rerun must still agree.
    if std::env::var("TMG_FAULT_PLAN").is_ok_and(|v| !v.trim().is_empty()) {
        let _ = std::fs::remove_dir_all(&root);
        let plan = FaultPlan::from_env();
        let (faulted, shots) = session(cold_script, plan);
        assert!(shots > 0, "the armed fault plan never fired");
        assert_eq!(
            reports_of(&faulted[0]),
            cold_reports,
            "injected faults must never change an answer"
        );
        let fresh = PersistentStore::open(&root).expect("reopen cache");
        let recovery = fresh.recovery_scan();
        drop(fresh);
        let (healed, _) = session(warm_script, FaultPlan::none());
        assert_eq!(
            reports_of(&healed[0]),
            cold_reports,
            "the post-recovery rerun must answer identically"
        );
        println!(
            "fault smoke: {shots} injected fault(s) fired; recovery scan quarantined {} frame(s), reclaimed {} orphan(s); all responses bit-identical to the fault-free reference — ok",
            recovery.quarantined, recovery.reclaimed_tmp
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// The *first* process of a scripted multi-process run: populates the cache
/// at `TMG_CACHE_DIR` with the smoke's analyse request (cold) and exits
/// cleanly, sealing its segment and publishing the index snapshot.  CI
/// pairs this with a follow-up `serve --smoke-child` process to prove the
/// shared-directory warm start across real OS processes.
fn run_seed_child() {
    use std::io::Cursor;
    let root = std::env::var("TMG_CACHE_DIR").unwrap_or_else(|_| ".tmg-cache".to_owned());
    let source = tmg_minic::pretty::function_to_string(&tmg_codegen::wiper_function());
    let bound = tmg_bench::wiper_case_bound();
    let script = format!(
        "{{\"id\": 1, \"op\": \"analyse\", \"source\": \"{}\", \"path_bound\": {bound}}}\n{{\"id\": 2, \"op\": \"shutdown\"}}\n",
        json::escape(&source)
    );
    let store = Arc::new(PersistentStore::open(&root).expect("open cache"));
    store.recovery_scan();
    let mut out = Vec::new();
    Server::new(store)
        .serve(Cursor::new(script), &mut out)
        .expect("serve");
    let text = String::from_utf8(out).expect("utf-8 responses");
    let ok = text
        .lines()
        .filter_map(|line| json::parse(line).ok())
        .find(|v| v.get("id").and_then(json::Value::as_u64) == Some(1))
        .and_then(|v| v.get("ok").and_then(json::Value::as_bool))
        .unwrap_or(false);
    assert!(ok, "the seeding analyse must succeed:\n{text}");
    eprintln!("seed child: populated {root} and exited cleanly");
}

/// The second OS process of the multi-process smoke, spawned by
/// [`run_serve_smoke`] as `serve --smoke-child` with `TMG_CACHE_DIR`
/// pointing at the parent's populated cache.  Opens the shared directory
/// with a brand-new store, serves the same analyse request, asserts zero
/// recomputation *in this process*, and prints the raw response lines for
/// the parent to verify bit-identical.
///
/// # Panics
///
/// Panics (failing the parent smoke) on any recomputation or missing disk
/// hit — a cold child means the shared warm start is broken.
fn run_smoke_child() {
    use std::io::Cursor;
    let root = std::env::var("TMG_CACHE_DIR").expect("TMG_CACHE_DIR set by the parent smoke");
    let source = tmg_minic::pretty::function_to_string(&tmg_codegen::wiper_function());
    let bound = tmg_bench::wiper_case_bound();
    let script = format!(
        "{{\"id\": 1, \"op\": \"analyse\", \"source\": \"{}\", \"path_bound\": {bound}}}\n{{\"id\": 2, \"op\": \"stats\"}}\n{{\"id\": 3, \"op\": \"shutdown\"}}\n",
        json::escape(&source)
    );
    let store = Arc::new(PersistentStore::open(&root).expect("open shared cache"));
    let mut out = Vec::new();
    Server::new(store)
        .serve(Cursor::new(script), &mut out)
        .expect("serve");
    let text = String::from_utf8(out).expect("utf-8 responses");
    let stats = text
        .lines()
        .filter_map(|line| json::parse(line).ok())
        .find(|v| v.get("id").and_then(json::Value::as_u64) == Some(2))
        .and_then(|v| v.get("stats").cloned())
        .expect("stats payload");
    let computes = stats
        .get("computes")
        .and_then(json::Value::as_u64)
        .expect("computes counter");
    assert_eq!(
        computes, 0,
        "the second process must start fully warm: {stats:?}"
    );
    let bound_hits = stats
        .get("disk")
        .and_then(|d| d.get("bound"))
        .and_then(|b| b.get("hits"))
        .and_then(json::Value::as_u64)
        .expect("disk bound hits");
    assert!(
        bound_hits >= 1,
        "the second process must hit the shared segment log: {stats:?}"
    );
    print!("{text}");
}

/// `reproduce -- profile [<workload>] [--quick]`: runs one *cold* request
/// through the real server with span tracing enabled and dumps every
/// recorded span in Chrome trace-event format (load the output in
/// `chrome://tracing` or Perfetto).  Workloads: `wiper` (default; one
/// `analyse` of the case-study function) and `module` (an
/// `analyse_module` of a generated 8-function module).  With `--quick`
/// the dump is validated instead of printed: the JSON must parse, the
/// span tree must be non-empty, every pipeline-stage span must nest
/// under the request root, and at least 95% of the request's wall time
/// must be attributed to named child spans.
fn run_profile(args: &[String]) {
    use std::io::Cursor;
    let quick = args.iter().any(|a| a == "--quick");
    let workload = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .find(|a| *a != "profile")
        .map_or("wiper", String::as_str);
    let root = std::env::temp_dir().join(format!("tmg-profile-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let (script, root_span_name) = match workload {
        "wiper" => {
            let source = tmg_minic::pretty::function_to_string(&tmg_codegen::wiper_function());
            let bound = tmg_bench::wiper_case_bound();
            (
                format!(
                    "{{\"id\": 1, \"op\": \"analyse\", \"source\": \"{}\", \"path_bound\": {bound}, \"trace_id\": 1}}\n\
                     {{\"id\": 2, \"op\": \"shutdown\", \"trace_id\": 2}}\n",
                    json::escape(&source)
                ),
                "request:analyse",
            )
        }
        "module" => {
            let module = tmg_codegen::generate_module(&tmg_codegen::ModuleGenConfig {
                seed: 0xC1,
                functions: 8,
                max_callees: 2,
                body_stmts: 2,
            });
            let source = tmg_minic::pretty::program_to_string(&module.program);
            (
                format!(
                    "{{\"id\": 1, \"op\": \"analyse_module\", \"source\": \"{}\", \"path_bound\": 4, \"trace_id\": 1}}\n\
                     {{\"id\": 2, \"op\": \"shutdown\", \"trace_id\": 2}}\n",
                    json::escape(&source)
                ),
                "request:analyse_module",
            )
        }
        other => {
            eprintln!("unknown profile workload `{other}` (expected wiper or module)");
            std::process::exit(2);
        }
    };

    let store = Arc::new(
        PersistentStore::with_config(PersistentStoreConfig::new(&root)).expect("open cache"),
    );
    tmg_obs::set_enabled(true);
    let mut out = Vec::new();
    Server::new(store)
        .serve(Cursor::new(script), &mut out)
        .expect("serve");
    tmg_obs::set_enabled(false);
    let spans = tmg_obs::drain_all();
    let _ = std::fs::remove_dir_all(&root);
    assert!(!spans.is_empty(), "tracing recorded no spans");
    let response = String::from_utf8(out).expect("utf-8 responses");
    assert!(
        response.lines().next().is_some_and(|line| {
            json::parse(line)
                .ok()
                .and_then(|v| v.get("ok").and_then(json::Value::as_bool))
                == Some(true)
        }),
        "the profiled request failed:\n{response}"
    );
    let trace = chrome_trace_json(&spans);

    if !quick {
        println!("{trace}");
        return;
    }

    // --quick: validate the dump instead of printing it.
    let parsed = json::parse(&trace).expect("the Chrome trace dump must be valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(json::Value::as_array)
        .expect("traceEvents array");
    assert_eq!(events.len(), spans.len(), "one event per span");
    assert!(!events.is_empty(), "the span tree must be non-empty");

    let by_id: std::collections::HashMap<u64, &tmg_obs::SpanRecord> =
        spans.iter().map(|s| (s.id, s)).collect();
    let span_root = spans
        .iter()
        .find(|s| s.name == root_span_name)
        .expect("the request root span was recorded");
    // Every pipeline-stage span must reach the request root through its
    // parent links — a broken link means the profile view would orphan
    // the very spans it exists to explain.
    let mut stage_spans = 0usize;
    for span in spans.iter().filter(|s| s.name.starts_with("stage:")) {
        stage_spans += 1;
        let mut cursor = span.parent;
        let mut hops = 0;
        while cursor != span_root.id {
            let parent = by_id
                .get(&cursor)
                .unwrap_or_else(|| panic!("stage span {} has a dangling parent chain", span.name));
            cursor = parent.parent;
            hops += 1;
            assert!(hops <= spans.len(), "parent cycle at {}", span.name);
        }
    }
    assert!(stage_spans > 0, "a cold request must record stage spans");
    // Test generation splits into its two phases, each a child of
    // `stage:testgen`.
    for phase in ["testgen:heuristic", "testgen:checker"] {
        let span = spans
            .iter()
            .find(|s| s.name == phase)
            .unwrap_or_else(|| panic!("a cold request must record a {phase} span"));
        assert_eq!(
            by_id.get(&span.parent).map(|p| p.name),
            Some("stage:testgen"),
            "{phase} must nest directly under stage:testgen"
        );
    }

    // Attribution: the request's wall time (earliest child start — the
    // admission span begins at accept, before the root — to root end)
    // must be >= 95% covered by the root's direct children.
    let children: Vec<&tmg_obs::SpanRecord> =
        spans.iter().filter(|s| s.parent == span_root.id).collect();
    assert!(!children.is_empty(), "the request root must have children");
    let root_end = span_root.start_us + span_root.dur_us;
    let first_start = children
        .iter()
        .map(|s| s.start_us)
        .min()
        .expect("non-empty")
        .min(span_root.start_us);
    let wall = root_end.saturating_sub(first_start).max(1);
    let attributed: u64 = children.iter().map(|s| s.dur_us).sum();
    let coverage = attributed as f64 / wall as f64;
    assert!(
        coverage >= 0.95,
        "only {:.1}% of the request's wall time is attributed to named child spans",
        coverage * 100.0
    );
    println!(
        "profile smoke ({workload}): {} spans, {stage_spans} stage span(s) nested under {root_span_name}, {:.1}% of request wall time attributed to named child spans — ok",
        spans.len(),
        coverage * 100.0
    );
}

/// Renders spans as Chrome trace-event JSON (`ph: "X"` complete events;
/// timestamps and durations are already in microseconds, which is exactly
/// the unit the trace-event format wants).
fn chrome_trace_json(spans: &[tmg_obs::SpanRecord]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{ \"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let comma = if i + 1 < spans.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "  {{ \"name\": \"{}\", \"cat\": \"tmg\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": 1, \"tid\": {}, \"args\": {{ \"span_id\": {}, \"parent\": {} }} }}{}",
            s.name, s.start_us, s.dur_us, s.trace, s.id, s.parent, comma
        );
    }
    out.push_str("] }");
    out
}

/// Fast smoke run for CI: the exact Table-1 reproduction, one full (small)
/// pipeline, and the batched-vs-single-query equivalence cross-check — no
/// perf measurement.
fn run_quick() {
    print_table1();
    assert_eq!(table1(), table1_paper(), "Table 1 must reproduce exactly");
    let r = case_study();
    assert!(
        r.wcet_bound >= r.exhaustive_max,
        "case-study bound must be sound"
    );
    println!(
        "quick: case study WCET bound {} cycles >= exhaustive {} cycles (pessimism {:.3}) — ok",
        r.wcet_bound, r.exhaustive_max, r.pessimism
    );
    let checked = multiquery_crosscheck();
    println!("quick: batched vs single-query verdicts identical on {checked} queries — ok");
    let sharded = shard_crosscheck();
    println!(
        "quick: 1-thread and default-thread shard resolutions identical on {sharded} queries — ok"
    );
    let points = sweep_crosscheck();
    println!(
        "quick: incremental sweep bit-identical to the per-bound reference on {points} points — ok"
    );
    let (cone, total) = differential_smoke();
    println!(
        "quick: differential re-analysis recomputed only the {cone}-function dirty cone of a \
         {total}-function module, unedited root bounds byte-identical — ok"
    );
}

/// Differential dirty-cone smoke: edit one function of a generated module
/// and counter-assert that the re-analysis recomputes exactly the reverse
/// call-graph cone — one re-lower (the edited function), one re-measure per
/// cone member, nothing at all outside — while every unedited root bound
/// stays byte-identical.  Returns `(cone size, module size)`.
fn differential_smoke() -> (usize, usize) {
    use tmg_cfg::CallGraph;
    use tmg_codegen::{generate_module, ModuleGenConfig};
    use tmg_core::{ModuleAnalysis, Stage};

    let module = generate_module(&ModuleGenConfig {
        seed: 0xC1,
        functions: 8,
        max_callees: 2,
        body_stmts: 2,
    });
    let graph = CallGraph::build(&module.program);
    // Edit the function with the largest *proper* dirty cone that still
    // leaves at least one root untouched, so both halves of the assertion
    // (recompute inside, byte-identity outside) are non-vacuous.
    let roots = graph.roots();
    let (edit, cone) = (0..graph.len())
        .map(|i| (i, graph.dirty_cone(&[i])))
        .filter(|(_, cone)| roots.iter().any(|r| !cone.contains(r)))
        .max_by_key(|(_, cone)| cone.len())
        .expect("the seeded module must leave a root outside some cone");

    let store = Arc::new(ArtifactStore::new());
    let analysis = ModuleAnalysis::new(4).with_store(store.clone());
    let before = analysis
        .analyse_module(&module.program)
        .expect("cold module analysis");
    let cold = store.store_stats();
    let after = analysis
        .analyse_module(&module.edited(edit).program)
        .expect("differential module analysis");
    let warm = store.store_stats();

    let cone_names: Vec<&str> = cone.iter().map(|&i| graph.name(i)).collect();
    assert_eq!(
        after.recomputed(),
        cone_names,
        "recomputation must be confined to the dirty cone"
    );
    assert_eq!(after.summaries_reused, graph.len() - cone.len());
    let delta = |stage: Stage| warm.stage(stage).misses - cold.stage(stage).misses;
    assert_eq!(
        delta(Stage::Lower),
        1,
        "only the edited function may re-enter the early pipeline stages"
    );
    assert_eq!(
        delta(Stage::Measure),
        cone.len() as u64,
        "each cone member re-measures under its re-priced cost model, nobody else"
    );
    for root in &before.roots {
        if !cone_names.contains(&root.function.as_str()) {
            assert_eq!(
                after.bound_of(&root.function),
                Some(root.wcet_bound),
                "unedited root {} must keep its bound bit-for-bit",
                root.function
            );
        }
    }
    (cone.len(), graph.len())
}

/// Prints the Figure-2/3 tradeoff sweep as hand-written JSON, so the cached
/// incremental sweep is scriptable (`reproduce -- sweep | jq ...`).  With
/// `--stats` the sweep's lowering runs through an [`ArtifactStore`] and the
/// store's counter snapshot is appended, so scripts can observe the cache
/// behaviour behind the curve; when `TMG_CACHE_DIR` is also set, the
/// persistent tier at that root is opened and its full counter snapshot
/// (including the segment-tier section) is appended under `"tier"`.
fn print_sweep_json(with_stats: bool) {
    let target_blocks = std::env::var("TMG_TARGET_BLOCKS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(850);
    let (stats, sweep, store) = if with_stats {
        let store = ArtifactStore::new();
        let (stats, sweep) = tmg_bench::figure2_3_via_store(target_blocks, &store);
        (stats, sweep, Some(store))
    } else {
        let (stats, sweep) = figure2_3(target_blocks);
        (stats, sweep, None)
    };
    println!("{{");
    println!("  \"schema\": \"tmg-tradeoff-sweep/v1\",");
    println!(
        "  \"function\": {{ \"blocks\": {}, \"branches\": {}, \"lines\": {} }},",
        stats.blocks, stats.branches, stats.lines
    );
    if let Some(store) = &store {
        println!("  \"store\": {},", store.store_stats().to_json());
        println!(
            "  \"module\": {},",
            tmg_core::module::metrics::snapshot().to_json()
        );
    }
    if with_stats {
        if let Ok(root) = std::env::var("TMG_CACHE_DIR") {
            let persistent = PersistentStore::open(&root).expect("open artifact cache");
            println!("  \"tier\": {},", persistent.stats().to_json());
        }
    }
    println!("  \"points\": [");
    for (i, p) in sweep.iter().enumerate() {
        let comma = if i + 1 < sweep.len() { "," } else { "" };
        println!(
            "    {{ \"path_bound\": {}, \"instrumentation_points\": {}, \"measurements\": {}, \"segments\": {} }}{}",
            p.path_bound, p.instrumentation_points, p.measurements, p.segments, comma
        );
    }
    println!("  ]");
    println!("}}");
}

/// Full perf baseline: times the optimised hot paths against their
/// references (recorded floors where the measured reference was dropped),
/// checks result equality, writes `BENCH_<label>.json`.
fn run_bench(label: &str) {
    let report = perf_report();
    println!("== Perf baseline (before = pre-optimisation, after = optimised) ==");
    let mut rows = vec![&report.table2, &report.pipeline];
    rows.extend(report.testgen.iter());
    for c in rows {
        println!(
            "{:<26} before {:>9.2} ms   after {:>9.2} ms   speedup {:>6.2}x   identical: {}",
            c.name,
            c.before.as_secs_f64() * 1e3,
            c.after.as_secs_f64() * 1e3,
            c.speedup(),
            c.identical_results
        );
    }
    let lt = &report.service_loadtest;
    println!(
        "service_loadtest: {} requests   1-worker {:.2} ms   pool {:.2} ms   {:.0} req/s   p99 {:.3} ms   identical across workers: {}",
        lt.requests,
        lt.one_worker_wall.as_secs_f64() * 1e3,
        lt.wall.as_secs_f64() * 1e3,
        lt.throughput_rps,
        lt.p99_analyse_ms,
        lt.identical_across_workers
    );
    let rec = &report.service_recovery;
    println!(
        "service_recovery_scan: {} frames in {:.2} ms   quarantined {}   healthy: {}",
        rec.frames,
        rec.wall.as_secs_f64() * 1e3,
        rec.quarantined,
        rec.healthy
    );
    let seg = &report.segment_tier;
    println!(
        "segment_tier: compaction reclaimed {} -> {} dead bytes ({} frames copied) in {:.2} ms   group commit: {} batch(es), {} ms window   identical: {}",
        seg.dead_bytes_before,
        seg.dead_bytes_after,
        seg.compacted_frames,
        seg.wall.as_secs_f64() * 1e3,
        seg.group_commit_batches,
        seg.group_commit_window_ms,
        seg.identical
    );
    let soak = &report.chaos_soak;
    println!(
        "chaos_soak: {} requests   {} kill(s)   max recovery {:.1} ms   {} wire faults fired   restart computes {}   {} answers verified identical",
        soak.requests,
        soak.kills,
        soak.max_recovery.as_secs_f64() * 1e3,
        soak.wire_faults_fired,
        soak.restart_computes,
        soak.verified_identical
    );
    let cro = &report.client_retry_overhead;
    println!(
        "client_retry_overhead: {} warm round trips   raw {:.2} ms   tmg-client {:.2} ms   overhead {:.2}x   identical: {}",
        cro.requests,
        cro.raw_wall.as_secs_f64() * 1e3,
        cro.client_wall.as_secs_f64() * 1e3,
        cro.overhead(),
        cro.identical
    );
    println!(
        "hot-path speedup (geomean): {:.2}x   all results identical: {}",
        report.hot_path_speedup(),
        report.all_results_identical()
    );
    assert!(
        report.all_results_identical(),
        "optimised implementations must not change any result"
    );
    assert!(
        report.table1_matches_paper,
        "Table 1 must reproduce exactly"
    );
    let burst = report
        .testgen
        .iter()
        .find(|c| c.name == "service_concurrent_burst")
        .expect("burst workload present");
    // The burst win is structural (one computation answers the whole
    // burst), but on a busy single-core host the measured ratio jitters
    // around 1.0 — so warn inside the noise band and only fail on a
    // clear regression.
    assert!(
        burst.speedup() >= 0.85,
        "service_concurrent_burst fell clearly below its PR 5 floor: {:.3}x",
        burst.speedup()
    );
    if burst.speedup() < 1.0 {
        println!(
            "warning: service_concurrent_burst at {:.3}x (within the +/-15% noise band of its floor)",
            burst.speedup()
        );
    }
    let out = std::env::var("TMG_BENCH_OUT").unwrap_or_else(|_| format!("BENCH_{label}.json"));
    std::fs::write(&out, report.to_json(label)).expect("write bench json");
    println!("wrote {out}");
}

fn print_table1() {
    println!("== Table 1: measurement effort vs path bound (Figure-1 example) ==");
    println!(
        "{:>8} {:>14} {:>14} {:>14} {:>14}",
        "bound b", "ip (ours)", "ip (paper)", "m (ours)", "m (paper)"
    );
    for ((b, ip, m), (_, ip_p, m_p)) in table1().into_iter().zip(table1_paper()) {
        println!("{b:>8} {ip:>14} {ip_p:>14} {m:>14} {m_p:>14}");
    }
    println!();
}

fn print_figure2_3(figure2: bool) {
    let target_blocks = std::env::var("TMG_TARGET_BLOCKS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(850);
    let (stats, sweep) = figure2_3(target_blocks);
    if figure2 {
        println!("== Figure 2: instrumentation points over path bound b ==");
        println!(
            "generated function: {} blocks, {} conditional branches, {} lines (paper: ~857 / ~300 / ~5000)",
            stats.blocks, stats.branches, stats.lines
        );
        println!("{:>12} {:>10} {:>12}", "bound b", "ip", "segments");
        for p in &sweep {
            println!(
                "{:>12} {:>10} {:>12}",
                p.path_bound, p.instrumentation_points, p.segments
            );
        }
    } else {
        println!("== Figure 3: measurements m over instrumentation points ip ==");
        println!("{:>10} {:>22}", "ip", "m");
        for p in &sweep {
            println!("{:>10} {:>22}", p.instrumentation_points, p.measurements);
        }
    }
    println!();
}

fn print_table2() {
    println!("== Table 2: impact of model-state optimisations (105-line module) ==");
    println!(
        "{:<28} {:>12} {:>14} {:>8} {:>14} {:>10}",
        "optimisation technique", "time [ms]", "memory [kB]", "steps", "transitions", "state bits"
    );
    for row in table2() {
        println!(
            "{:<28} {:>12.2} {:>14.1} {:>8} {:>14} {:>10}",
            row.label,
            row.duration.as_secs_f64() * 1e3,
            row.memory_bytes as f64 / 1024.0,
            row.steps
                .map(|s| s.to_string())
                .unwrap_or_else(|| "-".into()),
            row.transitions_fired,
            row.state_bits
        );
    }
    println!();
}

fn print_case_study() {
    let r = case_study();
    println!("== Section 4 case study: wiper control ==");
    println!("path bound (one PS per case arm): {}", r.path_bound);
    println!(
        "segments: {}   ip: {}   m: {}",
        r.segments, r.instrumentation_points, r.measurements
    );
    println!(
        "test data: {} heuristic + {} model checker, {} infeasible",
        r.heuristic_covered, r.checker_covered, r.infeasible
    );
    println!(
        "WCET bound: {} cycles   exhaustive end-to-end maximum: {} cycles   pessimism: {:.3} (paper: 274 vs 250 = 1.096)",
        r.wcet_bound, r.exhaustive_max, r.pessimism
    );
    println!();
}

fn print_testgen() {
    let r = testgen_experiment();
    println!("== Hybrid test-data generation (Section 3 claim) ==");
    println!(
        "goals: {}   heuristic: {}   model checker: {}   infeasible: {}   unknown: {}",
        r.goals, r.heuristic_covered, r.checker_covered, r.infeasible, r.unknown
    );
    println!(
        "heuristic coverage of feasible goals: {:.1} % (paper expects > 90 %)",
        r.heuristic_ratio * 100.0
    );
    println!();
}
