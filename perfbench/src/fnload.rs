//! The in-process function workloads, `fn_statechart` and `fn_automotive`:
//! a closed loop with one caller that parses and analyses one generated
//! function at a time, cold (a fresh artifact store per call).

use crate::gen;
use crate::report::{self, Digest, Metrics};
use crate::trace::{self, StageTimes, STAGES};
use crate::Outcome;
use std::time::{Duration, Instant};
use tmg_cfg::build_cfg;
use tmg_core::measurement::exhaustive_end_to_end;
use tmg_core::{AnalysisReport, WcetAnalysis};
use tmg_minic::parse_function;
use tmg_target::CostModel;

/// Generated functions per seed.  One pass over the pool takes well under
/// the run length, so every run analyses each function several times and
/// its digest is complete.  A pool of at least 100 leaves ten functions
/// beyond p90.  The statechart pool is small so that each chart is
/// analysed some fifty times in a run: each chart's fastest time then
/// rarely misses the host's fast stretches (see `run`).  In eight pairs of
/// back-to-back 25 s runs on a 2-vCPU host whose speed swung 1.0–1.7×
/// within a second, the rate spread 0.30 across seeds with 768 charts
/// (about nine analyses each) and 0.06 with 128 (about fifty).
pub const STATECHART_POOL: u64 = 128;
pub const AUTOMOTIVE_POOL: u64 = 300;
/// `AutomotiveConfig::small` grown to this many basic blocks.
pub const AUTOMOTIVE_BLOCKS: usize = 60;
/// The mid path bound of the automotive workload.
pub const AUTOMOTIVE_PATH_BOUND: u128 = 8;
/// Model-checker transition budget of the automotive workload.  At the
/// default 50 M one function takes 4–11 s, so a run would see a handful of
/// functions and its spread across seeds would exceed any usable bound;
/// at 300 k the checker still exhausts its budget on most functions,
/// leaves as many goals `Unknown` as at 1 M and still takes most of the
/// wall time, and a run gets two to three passes over the pool.
pub const AUTOMOTIVE_CHECKER_BUDGET: u64 = 300_000;
/// Seeded input vectors per automotive function for the soundness oracle.
pub const AUTOMOTIVE_SAMPLE: usize = 256;
/// Timed set-ups per run: at least this many, and until they add up to
/// [`SETUP_SECONDS`], so that jitter in one short set-up does not move
/// their median, `setup_s`.  Over 1 s the median of one run still swung
/// with the host's speed phases: across ten seeds it spread 0.32 on
/// `fn_automotive`, whose set-up takes about 0.13 s.
const SETUP_REPEATS: usize = 5;
const SETUP_SECONDS: f64 = 3.0;

/// Which function family a workload analyses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Statechart,
    Automotive,
}

/// One generated function with its path bound and soundness oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Case {
    pub source: String,
    pub path_bound: u128,
    /// Maximum end-to-end time over the oracle's input vectors: the whole
    /// input space for statecharts, a seeded sample for automotive code.
    pub oracle_max: u64,
}

impl Family {
    pub fn pool(self) -> u64 {
        match self {
            Family::Statechart => STATECHART_POOL,
            Family::Automotive => AUTOMOTIVE_POOL,
        }
    }

    /// The analysis configuration the workload runs.
    pub fn analysis(self, path_bound: u128) -> WcetAnalysis {
        let mut analysis = WcetAnalysis::new(path_bound);
        if self == Family::Automotive {
            analysis.generator.checker = analysis
                .generator
                .checker
                .clone()
                .with_budget(AUTOMOTIVE_CHECKER_BUDGET);
        }
        analysis
    }

    /// Source of the `index`-th function of `seed`.
    pub fn source(self, seed: u64, index: u64) -> String {
        match self {
            Family::Statechart => gen::statechart(seed, index).to_source(),
            Family::Automotive => {
                gen::automotive_source(seed, gen::STREAM_AUTOMOTIVE, index, AUTOMOTIVE_BLOCKS)
            }
        }
    }

    /// Generates the `index`-th function of `seed` and its oracle.
    pub fn case(self, seed: u64, index: u64) -> Case {
        self.case_of(seed, index, self.source(seed, index))
    }

    /// The path bound and oracle of `source`, the `index`-th function of
    /// `seed`.
    fn case_of(self, seed: u64, index: u64, source: String) -> Case {
        let function = parse_function(&source).expect("generated code parses");
        let (path_bound, vectors) = match self {
            Family::Statechart => (gen::case_bound(&function), gen::input_space(&function)),
            Family::Automotive => (
                AUTOMOTIVE_PATH_BOUND,
                gen::input_sample(&function, seed, index, AUTOMOTIVE_SAMPLE),
            ),
        };
        let lowered = build_cfg(&function);
        let (oracle_max, _) =
            exhaustive_end_to_end(&function, &lowered, &vectors, &CostModel::hcs12())
                .expect("oracle runs complete on the target");
        Case {
            source,
            path_bound,
            oracle_max,
        }
    }

    /// Generates the pool's sources and parses them: the set-up the
    /// program takes part in.  Panics if a source does not parse.
    pub fn sources(self, seed: u64) -> Vec<String> {
        (0..self.pool())
            .map(|i| {
                let source = self.source(seed, i);
                parse_function(&source).expect("generated code parses");
                source
            })
            .collect()
    }
}

/// Parses and analyses `case`; returns the report (or the error text) and
/// the wall time.
fn analyse_plain(family: Family, case: &Case) -> (Result<AnalysisReport, String>, f64) {
    let start = Instant::now();
    let report = parse_function(&case.source)
        .map_err(|e| e.to_string())
        .and_then(|f| {
            family
                .analysis(case.path_bound)
                .analyse(&f)
                .map_err(|e| e.to_string())
        });
    (report, start.elapsed().as_secs_f64())
}

/// Parses and analyses through the timing tier; returns the stage times.
pub fn analyse_timed(family: Family, case: &Case) -> (Result<AnalysisReport, String>, StageTimes) {
    let start = Instant::now();
    let function = parse_function(&case.source);
    let parse = start.elapsed().as_secs_f64();
    let (report, store) = match function {
        Ok(f) => {
            let (r, store) = trace::analyse_traced(&family.analysis(case.path_bound), &f);
            (r.map_err(|e| e.to_string()), Some(store))
        }
        Err(e) => (Err(e.to_string()), None),
    };
    let wall = start.elapsed().as_secs_f64();
    let times = match store {
        Some(store) => store.stage_times(parse, wall),
        None => {
            let mut t = [0.0; 9];
            t[0] = parse;
            t
        }
    };
    (report, times)
}

/// Checks one analysis against the oracle and the pool's first result.
/// Returns the violation, if any.
fn check(
    case: &Case,
    report: &Result<AnalysisReport, String>,
    first: &mut Option<AnalysisReport>,
) -> Option<String> {
    let report = match report {
        Ok(r) => r,
        Err(e) => return Some(format!("analysis failed: {e}")),
    };
    if report.wcet_bound < case.oracle_max {
        return Some(format!(
            "unsound bound for `{}`: {} < observed {}",
            report.function, report.wcet_bound, case.oracle_max
        ));
    }
    match first {
        Some(f) if f != report => Some(format!("`{}` changed between passes", report.function)),
        Some(_) => None,
        None => {
            *first = Some(report.clone());
            None
        }
    }
}

/// Runs a function workload for `seconds` (and at least one pass over the
/// pool).  Untraced it reports the end-to-end metrics; traced it analyses
/// every function twice, plain and through the timing tier, in
/// alternating order, and reports the per-layer metrics plus the tracing
/// overhead between the two.
pub fn run(family: Family, seed: u64, seconds: u64, traced: bool) -> Outcome {
    // Set-up: generate the pool's sources and parse them, several times;
    // the median is `setup_s` and the pools must agree.  The soundness
    // oracle is the benchmark's own check, not work the program does, so
    // it is computed once afterwards, outside the timed set-up.
    let mut setups = Vec::new();
    let mut sources = Vec::new();
    let mut setup_ok = true;
    while setups.len() < SETUP_REPEATS || setups.iter().sum::<f64>() < SETUP_SECONDS {
        let start = Instant::now();
        let pool = family.sources(seed);
        setups.push(start.elapsed().as_secs_f64());
        setup_ok &= sources.is_empty() || sources == pool;
        sources = pool;
    }
    let cases: Vec<Case> = sources
        .into_iter()
        .zip(0..)
        .map(|(source, i)| family.case_of(seed, i, source))
        .collect();
    let mut violations = Vec::new();
    if !setup_ok {
        violations.push("input generation is not deterministic".to_owned());
    }

    let mut firsts: Vec<Option<AnalysisReport>> = vec![None; cases.len()];
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut stages = [0.0f64; 9];
    let mut checker_delta = [0u64; 4];
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let deadline = Duration::from_secs(seconds);
    let cpu0 = report::cpu_seconds("self").unwrap_or(0.0);
    let host0 = report::HostTicks::now();
    let start = Instant::now();
    let mut i = 0usize;
    while i < cases.len() || start.elapsed() < deadline {
        let k = i % cases.len();
        let case = &cases[k];
        let mut outcomes = Vec::new();
        if traced {
            let order = if i.is_multiple_of(2) {
                [false, true]
            } else {
                [true, false]
            };
            for timing in order {
                if timing {
                    let before = tmg_tsys::metrics::snapshot();
                    let (report, times) = analyse_timed(family, case);
                    traced_walls.push(times.iter().sum());
                    let after = tmg_tsys::metrics::snapshot();
                    checker_delta[0] += after.STATES_EXPLORED - before.STATES_EXPLORED;
                    checker_delta[1] += after.SHARDS_EXPLORED - before.SHARDS_EXPLORED;
                    checker_delta[2] += after.VISITED_HITS - before.VISITED_HITS;
                    checker_delta[3] += after.VISITED_INSERTIONS - before.VISITED_INSERTIONS;
                    for (s, t) in stages.iter_mut().zip(times) {
                        *s += t;
                    }
                    outcomes.push(report);
                } else {
                    let (report, wall) = analyse_plain(family, case);
                    walls.push(wall);
                    outcomes.push(report);
                }
            }
        } else {
            let (report, wall) = analyse_plain(family, case);
            walls.push(wall);
            outcomes.push(report);
        }
        for report in &outcomes {
            attempted += 1;
            if let Some(v) = check(case, report, &mut firsts[k]) {
                failed += 1;
                if violations.len() < 8 {
                    violations.push(v);
                }
            }
        }
        i += 1;
    }
    let loop_wall = start.elapsed().as_secs_f64();
    let cpu = report::cpu_seconds("self").unwrap_or(0.0) - cpu0;
    let host = host0.shares_since();

    // Pool-level results: digest, pessimism, goal counts.
    let mut digest = Digest::default();
    let mut pessimism = Vec::new();
    let mut totals = [0u64; 7];
    for (case, first) in cases.iter().zip(&firsts) {
        let Some(r) = first else { continue };
        digest.add(&format!(
            "{} b={} wcet={} oracle={} goals={} h={} c={} inf={} unk={} runs={} seg={}",
            r.function,
            r.path_bound,
            r.wcet_bound,
            case.oracle_max,
            r.goals,
            r.heuristic_covered,
            r.checker_covered,
            r.infeasible,
            r.unknown,
            r.measurement_runs,
            r.segments
        ));
        pessimism.push(r.wcet_bound as f64 / case.oracle_max.max(1) as f64);
        for (t, v) in totals.iter_mut().zip([
            r.goals,
            r.heuristic_covered,
            r.checker_covered,
            r.infeasible,
            r.unknown,
            r.measurement_runs,
            r.segments,
        ]) {
            *t += v as u64;
        }
    }
    let pool = digest.items().max(1) as f64;

    let mut m = Metrics::default();
    if traced {
        let traced_total: f64 = traced_walls.iter().sum();
        let n = traced_walls.len().max(1) as f64;
        for (name, t) in STAGES.iter().zip(stages) {
            m.set(format!("{name}.ms"), t / n * 1e3, "ms");
            m.set(
                format!("{name}.share"),
                report::ratio(t, traced_total),
                "ratio",
            );
        }
        m.set(
            "trace.overhead",
            report::median(&traced_walls) / report::median(&walls) - 1.0,
            "ratio",
        );
        report::set_report_counts(&mut m, totals, pool);
        m.set(
            "checker.states_explored",
            checker_delta[0] as f64 / n,
            "count",
        );
        m.set(
            "checker.shards_explored",
            checker_delta[1] as f64 / n,
            "count",
        );
        m.set(
            "checker.visited_hit_ratio",
            report::ratio(
                checker_delta[2] as f64,
                (checker_delta[2] + checker_delta[3]) as f64,
            ),
            "ratio",
        );
        m.set(
            "checker.states_per_s",
            report::ratio(checker_delta[0] as f64, stages[5]),
            "1/s",
        );
        m.set("cpu_per_wall", report::ratio(cpu, loop_wall), "ratio");
        report::set_host_shares(&mut m, host);
        crate::service::zero_service_layers(&mut m);
    } else {
        m.set("setup_s", report::median(&setups), "s");
        // Every pass analyses the same functions, so their times differ
        // only by host interference, which comes in stretches of seconds
        // and only ever adds time.  Each function's time is therefore the
        // fastest of its analyses in the run, and rate, median and tail are
        // taken over those per-function times.
        let mut fastest = vec![f64::INFINITY; cases.len()];
        for (i, wall) in walls.iter().enumerate() {
            let f = &mut fastest[i % cases.len()];
            *f = f.min(*wall);
        }
        let rates: Vec<String> = walls
            .chunks_exact(cases.len())
            .map(|p| format!("{:.1}", p.len() as f64 / p.iter().sum::<f64>()))
            .collect();
        println!("passes: {} functions per second", rates.join(", "));
        m.set(
            "throughput_per_s",
            fastest.len() as f64 / fastest.iter().sum::<f64>(),
            "1/s",
        );
        m.set("latency_p50_ms", report::median(&fastest) * 1e3, "ms");
        let tail = report::tail(&fastest);
        m.set("latency_tail_ms", tail.map_or(0.0, |t| t.1) * 1e3, "ms");
        match tail {
            Some((p, _)) => println!(
                "latency_tail_ms: p{p} of {} per-function fastest times over {} analyses",
                fastest.len(),
                walls.len()
            ),
            None => violations.push(format!("a pool of {} has no tail", fastest.len())),
        }
        m.set("pessimism", report::geomean(&pessimism), "ratio");
        m.set(
            "resolved_goal_share",
            1.0 - report::ratio(totals[4] as f64, totals[0] as f64),
            "ratio",
        );
        m.set(
            "ok_share",
            1.0 - report::ratio(failed as f64, attempted as f64),
            "ratio",
        );
        m.set(
            "peak_rss_mb",
            report::status_mb("self", "VmHWM:").unwrap_or(0.0),
            "MB",
        );
    }
    println!(
        "digest: {} over {} functions (bounds, oracle maxima, goal statuses)",
        digest.hex(),
        digest.items()
    );
    println!(
        "loop: {i} analyses in {loop_wall:.3} s, pool {}",
        cases.len()
    );
    Outcome {
        attempted,
        failed,
        violations,
        metrics: m,
    }
}
