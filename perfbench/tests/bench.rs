//! The benchmark's own checks: deterministic inputs, a timing tier that
//! measures the same program, stage spans that account for the wall time,
//! and the `stats` reader against a live server.

use std::net::TcpListener;
use std::time::Instant;
use tmg_client::{Client, ClientConfig};
use tmg_minic::parse_function;
use tmg_perfbench::fnload::{analyse_timed, Family};
use tmg_perfbench::service::{self, Key, Plan, ServerCounters};
use tmg_perfbench::trace;

#[test]
fn generators_are_deterministic_in_the_seed() {
    for family in [Family::Statechart, Family::Automotive] {
        let a: Vec<_> = (0..6).map(|i| family.case(5, i)).collect();
        let b: Vec<_> = (0..6).map(|i| family.case(5, i)).collect();
        let c: Vec<_> = (0..6).map(|i| family.case(6, i)).collect();
        assert_eq!(a, b, "{family:?}");
        assert_ne!(a, c, "{family:?}");
    }
    let (a, b, c) = (Plan::new(5), Plan::new(5), Plan::new(6));
    let schedule = |p: &Plan| -> Vec<(Key, String)> {
        (0..300).map(|n| (p.key(n), p.body(p.key(n), n))).collect()
    };
    assert_eq!(schedule(&a), schedule(&b));
    assert_ne!(schedule(&a), schedule(&c));
}

#[test]
fn the_timing_tier_reports_what_plain_analysis_reports() {
    let cases = (0..4)
        .map(|i| (Family::Statechart, Family::Statechart.case(9, i)))
        .chain((0..2).map(|i| (Family::Automotive, Family::Automotive.case(9, i))));
    for (family, case) in cases {
        let f = parse_function(&case.source).expect("parses");
        let analysis = family.analysis(case.path_bound);
        let plain = analysis.analyse(&f).expect("plain analysis");
        let (timed, _) = trace::analyse_traced(&analysis, &f);
        assert_eq!(timed.expect("timed analysis"), plain);
    }
}

#[test]
fn stage_self_times_and_the_remainder_sum_to_the_wall_time() {
    for i in 0..4 {
        let case = Family::Statechart.case(2, i);
        let start = Instant::now();
        let (report, times) = analyse_timed(Family::Statechart, &case);
        let outer = start.elapsed().as_secs_f64();
        report.expect("analysis");
        assert!(
            times.iter().all(|t| *t >= 0.0),
            "overlapping spans: {times:?}"
        );
        let wall: f64 = times.iter().sum();
        assert!(wall <= outer, "{wall} > {outer}");
        let untimed = times[trace::STAGES.len() - 1];
        assert!(untimed < 0.2 * wall, "stages cover too little: {times:?}");
    }
}

#[test]
fn the_stats_reader_sees_a_live_server_count_work() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("stats-reader");
    let _ = std::fs::remove_dir_all(&dir);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let cache = dir.clone();
    let server = std::thread::spawn(move || service::serve(&cache, 1, listener));

    let plan = Plan::new(3);
    let before = ServerCounters::read(addr).expect("stats");
    let client = Client::new(addr, ClientConfig::default());
    client.request(&plan.body(Key::Chart(0), 0)).expect("cold");
    client.request(&plan.body(Key::Chart(0), 0)).expect("warm");
    let delta = ServerCounters::read(addr).expect("stats").delta(&before);
    assert!(delta.get("computes") >= 1.0, "{delta:?}");
    assert!(delta.get("memory.hits") >= 1.0, "{delta:?}");
    let bytes = delta.get("segments.live_bytes") + delta.get("segments.dead_bytes");
    assert!(bytes > 0.0, "{delta:?}");
    assert!(delta.get("latency.analyse.total_ms") > 0.0, "{delta:?}");

    client.request("\"op\": \"shutdown\"").expect("shutdown");
    server.join().expect("server thread").expect("serve");
    let _ = std::fs::remove_dir_all(&dir);
}
