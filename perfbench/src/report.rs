//! Summary statistics, process counters and the result line.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of the `p`-th percentile of `n` samples (the
/// epsilon keeps `0.9 * 100` from rounding up to rank 91).
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Whether at least ten of `n` samples lie beyond the `p`-th percentile.
fn has_tail(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= 10
}

/// Percentiles the tail metric may report, highest first.
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// The highest percentile of [`TAIL_LADDER`] with at least ten samples
/// beyond it, with its value, or `None` when even p90 has fewer.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    TAIL_LADDER
        .iter()
        .find(|&&p| has_tail(values.len(), p))
        .map(|&p| (p, percentile(values, p)))
}

/// Most equal time windows a run's rate and latencies are split into.
const WINDOWS: usize = 10;

/// Sample values grouped into `count` equal windows of a `span`-second run
/// by their completion offset (the first element of each sample), keeping
/// only the windows `steal` finds calm.
fn windows(samples: &[(f64, f64)], span: f64, count: usize, steal: &StealLog) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); count];
    for &(end, value) in samples {
        let w = (end / span * count as f64) as usize;
        out[w.min(count - 1)].push(value);
    }
    out.into_iter()
        .zip(steal.calm(span, count))
        .filter_map(|(w, calm)| calm.then_some(w))
        .collect()
}

/// Completions per second of a `span`-second run: the median over the
/// calm ones of equal time windows, so that a burst of host noise in a
/// few windows does not move it.
pub fn windowed_rate(samples: &[(f64, f64)], span: f64, steal: &StealLog) -> f64 {
    let width = span / WINDOWS as f64;
    let rates: Vec<f64> = windows(samples, span, WINDOWS, steal)
        .iter()
        .map(|w| w.len() as f64 / width)
        .collect();
    median(&rates)
}

/// The median latency of a run: the median over the calm ones of equal
/// time windows of each window's median.
pub fn windowed_median(samples: &[(f64, f64)], span: f64, steal: &StealLog) -> f64 {
    let medians: Vec<f64> = windows(samples, span, WINDOWS, steal)
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| median(w))
        .collect();
    median(&medians)
}

/// A tail percentile as the median of its values in the calm ones of equal
/// time windows: the highest percentile of [`TAIL_LADDER`] up to `max_p`,
/// over as many windows (up to [`WINDOWS`]) as leave ten samples beyond it
/// in every calm one.  Returns the percentile, its value and the window
/// count, or `None` when even p90 of the whole run has fewer than ten
/// samples beyond it.
pub fn windowed_tail(
    samples: &[(f64, f64)],
    span: f64,
    max_p: f64,
    steal: &StealLog,
) -> Option<(f64, f64, usize)> {
    TAIL_LADDER.iter().filter(|&&p| p <= max_p).find_map(|&p| {
        (1..=WINDOWS).rev().find_map(|count| {
            let ws = windows(samples, span, count, steal);
            ws.iter().all(|w| has_tail(w.len(), p)).then(|| {
                let tails: Vec<f64> = ws.iter().map(|w| percentile(w, p)).collect();
                (p, median(&tails), count)
            })
        })
    })
}

/// The machine's CPU-time counters sampled through a loop, to tell which
/// of its time windows the hypervisor took CPU time from.  Steal comes in
/// bursts of a second or two, and while it lasts every request on a
/// stolen vCPU waits: in runs with 20 % steal, the `service_mix` p99 read
/// twice its value at 1 %.  The program does not cause steal, so windows
/// with more of it than the median window are left out of the windowed
/// figures.  An empty log leaves every window in.
#[derive(Debug, Default)]
pub struct StealLog(Vec<(f64, HostTicks)>);

impl StealLog {
    /// Samples every 100 ms, offsets counted from `start`, until `done` is
    /// set.
    pub fn record(start: Instant, done: &AtomicBool) -> StealLog {
        let mut log = Vec::new();
        loop {
            log.push((start.elapsed().as_secs_f64(), HostTicks::now()));
            if done.load(Ordering::Relaxed) {
                return StealLog(log);
            }
            std::thread::sleep(Duration::from_millis(100));
        }
    }

    /// Steal share of the CPU time from offset `a` to offset `b`, each
    /// taken at the first sample at or after it.
    fn share(&self, a: f64, b: f64) -> f64 {
        let at = |t: f64| {
            let i = self.0.partition_point(|(offset, _)| *offset < t);
            self.0.get(i).or(self.0.last()).map(|s| s.1).unwrap_or_default()
        };
        let (x, y) = (at(a), at(b));
        ratio(
            y.steal.saturating_sub(x.steal) as f64,
            y.total.saturating_sub(x.total) as f64,
        )
    }

    /// Steal shares of `count` equal windows of a `span`-second loop.
    fn shares(&self, span: f64, count: usize) -> Vec<f64> {
        let width = span / count as f64;
        (0..count)
            .map(|w| self.share(w as f64 * width, (w + 1) as f64 * width))
            .collect()
    }

    /// Which of `count` equal windows of a `span`-second loop are calm:
    /// those with at most the median window's steal share.
    fn calm(&self, span: f64, count: usize) -> Vec<bool> {
        let shares = self.shares(span, count);
        let limit = median(&shares);
        shares.into_iter().map(|s| s <= limit).collect()
    }

    /// Prints the steal share of each of the windows of a `span`-second
    /// loop.
    pub fn print(&self, span: f64) {
        let shares: Vec<String> = self
            .shares(span, WINDOWS)
            .iter()
            .map(|s| format!("{:.1}", s * 100.0))
            .collect();
        println!(
            "steal by window: {} % (windows above the median are left out)",
            shares.join(", ")
        );
    }
}

/// Prints which percentile `latency_tail_ms` reports, over how many
/// windows and samples.
pub fn print_tail(tail: Option<(f64, f64, usize)>, samples: usize) {
    match tail {
        Some((p, _, windows)) => println!(
            "latency_tail_ms: p{p}, median over the calm ones of {windows} time windows of {samples} samples"
        ),
        None => println!("latency_tail_ms: fewer than ten of {samples} samples beyond p90"),
    }
}

/// Geometric mean of positive `values` (0 for an empty slice).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a over the canonical text of a workload's results: every bound
/// and goal-status count, in input order.  Two runs of the same code and
/// seed print the same digest; a changed result changes it even when
/// every metric stays within its bound.
#[derive(Debug, Clone)]
pub struct Digest {
    hash: u64,
    items: u64,
}

impl Default for Digest {
    fn default() -> Digest {
        Digest {
            hash: 0xcbf2_9ce4_8422_2325,
            items: 0,
        }
    }
}

impl Digest {
    pub fn add(&mut self, item: &str) {
        for b in item.bytes().chain(std::iter::once(b'\n')) {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self.items += 1;
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.hash)
    }

    pub fn items(&self) -> u64 {
        self.items
    }
}

/// Reads one `kB` field of `/proc/<pid>/status` (`VmHWM`, `VmRSS`), in MB.
pub fn status_mb(pid: &str, field: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User + system CPU seconds of a process so far, from `/proc/<pid>/stat`.
pub fn cpu_seconds(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may contain spaces; fields resume after its `)`.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    // USER_HZ is 100 on every Linux ABI this runs on.
    Some((utime + stime) / 100.0)
}

/// Host-wide CPU time split, from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostTicks {
    total: u64,
    iowait: u64,
    steal: u64,
}

impl HostTicks {
    pub fn now() -> HostTicks {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        let at = |i: usize| fields.get(i).copied().unwrap_or(0);
        HostTicks {
            total: fields.iter().take(8).sum(),
            iowait: at(4),
            steal: at(7),
        }
    }

    /// Prints and returns the steal and iowait shares of the CPU time
    /// since `self`: time the hypervisor ran something else on this
    /// machine's CPUs, and time they idled waiting for I/O.  Timing
    /// figures from runs with high shares are not comparable.
    pub fn shares_since(&self) -> (f64, f64) {
        let now = HostTicks::now();
        let total = now.total.saturating_sub(self.total) as f64;
        let steal = ratio(now.steal.saturating_sub(self.steal) as f64, total);
        let iowait = ratio(now.iowait.saturating_sub(self.iowait) as f64, total);
        println!(
            "host: {:.1} % steal, {:.1} % iowait of CPU time during the loop",
            steal * 100.0,
            iowait * 100.0
        );
        (steal, iowait)
    }
}

/// Sets the per-layer host metrics from [`HostTicks::shares_since`].
pub fn set_host_shares(m: &mut Metrics, (steal, iowait): (f64, f64)) {
    m.set("host.steal_share", steal, "ratio");
    m.set("host.iowait_share", iowait, "ratio");
}

/// Sets the per-function means of the report counts (`goals`,
/// `goals.heuristic`, `goals.checker`, `goals.infeasible`,
/// `goals.unknown`, `measurement_runs`, `segments`, in that order in
/// `totals`) and `heuristic.cover_ratio`.
pub fn set_report_counts(m: &mut Metrics, totals: [u64; 7], functions: f64) {
    let names = [
        "goals",
        "goals.heuristic",
        "goals.checker",
        "goals.infeasible",
        "goals.unknown",
        "measurement_runs",
        "segments",
    ];
    for (name, total) in names.iter().zip(totals) {
        m.set(*name, total as f64 / functions, "count");
    }
    m.set(
        "heuristic.cover_ratio",
        ratio(totals[1] as f64, totals[0] as f64),
        "ratio",
    );
}

/// The metrics of one run, in the order they were added.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.into(), value, unit));
    }
}

/// Renders the final result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90.0, 90.0)));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.0, 990.0)));
        assert_eq!(tail(&v[..99]), None);
    }

    #[test]
    fn one_slow_window_moves_neither_rate_nor_tail() {
        // 100 completions per second for 10 s, latency 1, except a burst
        // in the third second where every sample takes 50.
        let samples: Vec<(f64, f64)> = (0..1000)
            .map(|i| {
                let end = f64::from(i) / 100.0;
                (end, if (2.0..3.0).contains(&end) { 50.0 } else { 1.0 })
            })
            .collect();
        let calm = StealLog::default();
        assert_eq!(windowed_rate(&samples, 10.0, &calm), 100.0);
        assert_eq!(windowed_median(&samples, 10.0, &calm), 1.0);
        assert_eq!(
            windowed_tail(&samples, 10.0, 90.0, &calm),
            Some((90.0, 1.0, 10))
        );
        assert_eq!(
            windowed_tail(&samples[..300], 3.0, 95.0, &calm),
            Some((95.0, 50.0, 1))
        );
    }

    #[test]
    fn a_short_run_falls_back_to_a_lower_percentile() {
        // 500 samples: p99 has fewer than ten beyond it even in one
        // window, p95 has twelve in each of two.
        let samples: Vec<(f64, f64)> = (0..500)
            .map(|i| (f64::from(i) / 100.0, f64::from(i + 1)))
            .collect();
        let calm = StealLog::default();
        assert_eq!(
            windowed_tail(&samples, 5.0, 99.0, &calm),
            Some((95.0, 238.0, 2))
        );
        assert_eq!(windowed_tail(&samples[..50], 5.0, 99.0, &calm), None);
    }

    #[test]
    fn windows_with_more_steal_than_the_median_are_left_out() {
        // 100 completions per second for 10 s, latency 1, except the last
        // six seconds, where the hypervisor took 10-60 % of the CPU time
        // and every sample takes 50.
        let samples: Vec<(f64, f64)> = (0..1000)
            .map(|i| {
                let end = f64::from(i) / 100.0;
                (end, if end >= 4.0 { 50.0 } else { 1.0 })
            })
            .collect();
        let steal = [0, 0, 0, 0, 0, 10, 30, 60, 100, 150, 210];
        let log = StealLog(
            (0..=10u64)
                .map(|t| {
                    let ticks = HostTicks {
                        total: 100 * t,
                        iowait: 0,
                        steal: steal[t as usize],
                    };
                    (t as f64, ticks)
                })
                .collect(),
        );
        assert_eq!(
            log.shares(10.0, 10),
            [0.0, 0.0, 0.0, 0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
        );
        assert_eq!(windowed_median(&samples, 10.0, &log), 1.0);
        assert_eq!(
            windowed_tail(&samples, 10.0, 90.0, &log),
            Some((90.0, 1.0, 10))
        );
        assert_eq!(windowed_median(&samples, 10.0, &StealLog::default()), 50.0);
    }

    #[test]
    fn result_line_is_json_with_full_digits() {
        let mut m = Metrics::default();
        m.set("latency_ms", 1.2034567, "ms");
        let line = result_line(true, 3, 0, &m);
        let v = tmg_service::json::parse(&line).expect("valid JSON");
        let lat = v
            .get("metrics")
            .and_then(|m| m.get("latency_ms"))
            .expect("metric");
        assert_eq!(lat.get("value").and_then(|x| x.as_f64()), Some(1.2034567));
    }
}
