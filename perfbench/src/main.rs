//! `tmg-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a settings block, the workload's result digest and, as the last
//! line, the result object `{"correct", "attempted", "failed", "metrics"}`.
//! `tmg-perfbench serve --cache <dir> --workers <n> --announce <file>` is
//! the server process the `service_mix` workload starts.

use std::net::TcpListener;
use std::path::Path;
use std::process::ExitCode;

fn arg<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn serve(args: &[String]) -> Result<(), String> {
    let cache = arg(args, "--cache").ok_or("serve needs --cache")?;
    let workers: usize = arg(args, "--workers")
        .and_then(|w| w.parse().ok())
        .ok_or("serve needs --workers")?;
    let announce = arg(args, "--announce").ok_or("serve needs --announce")?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let tmp = format!("{announce}.tmp");
    std::fs::write(&tmp, addr.to_string()).map_err(|e| e.to_string())?;
    std::fs::rename(&tmp, announce).map_err(|e| e.to_string())?;
    tmg_perfbench::service::serve(Path::new(cache), workers, listener).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("serve") {
        return match serve(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("serve: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let usage = "usage: tmg-perfbench --workload <fn_statechart|fn_automotive|service_mix> --seed <n> --seconds <s> --trace <0|1>";
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        arg(&args, "--workload"),
        arg(&args, "--seed").and_then(|s| s.parse::<u64>().ok()),
        arg(&args, "--seconds").and_then(|s| s.parse::<u64>().ok()),
        arg(&args, "--trace").and_then(|s| match s {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        }),
    ) else {
        eprintln!("{usage}");
        return ExitCode::from(2);
    };
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env = |k: &str| std::env::var(k).map_or("null".to_owned(), |v| format!("\"{v}\""));
    println!(
        "settings: {{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \"nproc\": {parallelism}, \"TMG_EXPLORE_THREADS\": {}, \"RAYON_NUM_THREADS\": {}, \"server_workers\": {}, \"client_connections\": {}, \"automotive_checker_budget\": {}}}",
        env("TMG_EXPLORE_THREADS"),
        env("RAYON_NUM_THREADS"),
        if workload == "service_mix" { parallelism } else { 0 },
        if workload == "service_mix" { parallelism } else { 0 },
        tmg_perfbench::fnload::AUTOMOTIVE_CHECKER_BUDGET,
    );
    let Some(outcome) = tmg_perfbench::run(workload, seed, seconds, trace, parallelism) else {
        eprintln!("unknown workload `{workload}`\n{usage}");
        return ExitCode::from(2);
    };
    for v in &outcome.violations {
        println!("violation: {v}");
    }
    let correct = outcome.failed == 0 && outcome.violations.is_empty();
    println!(
        "{}",
        tmg_perfbench::report::result_line(
            correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    ExitCode::SUCCESS
}
