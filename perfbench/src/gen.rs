//! Seeded input generators.  Everything a workload feeds the program is
//! derived from the `--seed` argument here; the program itself only ever
//! sees the generated mini-C sources.

use tmg_cfg::build_cfg;
use tmg_codegen::{generate_automotive, AutomotiveConfig, StateTransition, Statechart};
use tmg_minic::value::InputVector;
use tmg_minic::Function;

/// SplitMix64: small, fast and stable across platforms and releases, so a
/// seed names the same inputs forever.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one `(seed, stream, index)` triple, so independent
    /// input families drawn from one seed never share a sequence.
    pub fn new(seed: u64, stream: u64, index: u64) -> Rng {
        let mut rng = Rng(seed);
        let a = rng.next_u64() ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        let mut rng = Rng(a);
        Rng(rng.next_u64() ^ index.wrapping_mul(0x9FB2_1C65_1E98_DF25))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        let span = (hi - lo) as u64 + 1;
        lo + (self.next_u64() % span) as i64
    }

    /// Uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// True with probability `percent` / 100.
    pub fn percent(&mut self, percent: u64) -> bool {
        self.next_u64() % 100 < percent
    }
}

/// Input families, one RNG stream each.
pub const STREAM_STATECHART: u64 = 1;
pub const STREAM_AUTOMOTIVE: u64 = 2;
pub const STREAM_SAMPLE: u64 = 3;
pub const STREAM_MIX: u64 = 4;
pub const STREAM_MODULE: u64 = 5;
pub const STREAM_SWEEP: u64 = 6;

const ACTUATORS: [&str; 8] = [
    "motor_off",
    "motor_slow",
    "motor_fast",
    "pump_on",
    "pump_off",
    "raise_fault",
    "clear_fault",
    "log_event",
];
const FLAGS: [&str; 4] = ["wash", "endpos", "interval", "overcurrent"];

/// A wiper-like statechart: 5–9 states, a three-step `speed` selector and
/// 2–4 boolean switches, 1–4 guarded transitions per state.  The input
/// space stays at most 9 × 3 × 2⁴ = 432 vectors, so the exhaustive
/// end-to-end oracle of the paper's case study is cheap.  The state and
/// switch counts cycle with `index` through their fifteen combinations
/// instead of being drawn, so every pool has the same mix of chart sizes:
/// with drawn sizes, the p90 analysis time of a 128-chart pool differed
/// by up to 20 % between seeds.
pub fn statechart(seed: u64, index: u64) -> Statechart {
    let mut rng = Rng::new(seed, STREAM_STATECHART, index);
    let states = 5 + (index % 5) as usize;
    let flags = &FLAGS[..2 + (index / 5 % 3) as usize];
    let names = (0..states).map(|s| format!("S{s}")).collect();
    let mut chart = Statechart::new(format!("chart_{seed:x}_{index}"), names)
        .with_input("char speed __range(0, 2)");
    for flag in flags {
        chart = chart.with_input(format!("bool {flag}"));
    }
    for from in 0..states {
        for _ in 0..rng.range(1, 4) {
            let mut atoms = Vec::new();
            for _ in 0..rng.range(1, 2) {
                atoms.push(match rng.below(3) {
                    0 => format!("speed == {}", rng.range(0, 2)),
                    1 => flags[rng.below(flags.len())].to_owned(),
                    _ => format!("!{}", flags[rng.below(flags.len())]),
                });
            }
            let to = (from + 1 + rng.below(states - 1)) % states;
            let actions = (0..rng.range(0, 3))
                .map(|_| ACTUATORS[rng.below(ACTUATORS.len())].to_owned())
                .collect();
            chart = chart.with_transition(StateTransition {
                from,
                to,
                guard: atoms.join(" && "),
                actions,
            });
        }
        if rng.percent(30) {
            chart = chart.with_entry_action(from, ACTUATORS[rng.below(ACTUATORS.len())]);
        }
    }
    chart
}

/// The case-study path bound of the paper (§4): the largest path count of
/// any top-level region, so every `switch` arm becomes one segment.
pub fn case_bound(function: &Function) -> u128 {
    let lowered = build_cfg(function);
    let regions = &lowered.regions;
    regions
        .root()
        .children
        .iter()
        .map(|c| regions.region(*c).path_count)
        .max()
        .unwrap_or(1)
}

fn domains(function: &Function) -> Vec<(String, i64, i64)> {
    function
        .params
        .iter()
        .map(|p| {
            let (lo, hi) = p.range.unwrap_or(p.ty.value_range());
            (p.name.clone(), lo, hi)
        })
        .collect()
}

/// Every input vector of `function` (only for small input spaces).
pub fn input_space(function: &Function) -> Vec<InputVector> {
    let mut space = vec![InputVector::new()];
    for (name, lo, hi) in domains(function) {
        let mut next = Vec::with_capacity(space.len() * (hi - lo + 1) as usize);
        for v in &space {
            for x in lo..=hi {
                next.push(v.clone().with(name.as_str(), x));
            }
        }
        space = next;
    }
    space
}

/// A seeded sample of `count` input vectors of `function`; each parameter
/// takes its range ends with some probability so boundary behaviour is hit.
pub fn input_sample(function: &Function, seed: u64, index: u64, count: usize) -> Vec<InputVector> {
    let mut rng = Rng::new(seed, STREAM_SAMPLE, index);
    let domains = domains(function);
    (0..count)
        .map(|_| {
            let mut v = InputVector::new();
            for (name, lo, hi) in &domains {
                let x = match rng.below(8) {
                    0 => *lo,
                    1 => *hi,
                    _ => rng.range(*lo, *hi),
                };
                v.set(name.clone(), x);
            }
            v
        })
        .collect()
}

/// Source of the `index`-th TargetLink-style function of a seed's `stream`: the
/// `AutomotiveConfig::small` shape, grown to `blocks` basic blocks.
pub fn automotive_source(seed: u64, stream: u64, index: u64, blocks: usize) -> String {
    let mut rng = Rng::new(seed, stream, index);
    let mut config = AutomotiveConfig::small(rng.next_u64());
    config.target_blocks = blocks;
    generate_automotive(&config).source
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_streams_are_independent_and_repeatable() {
        let a: Vec<u64> = (0..4).map(|i| Rng::new(7, 1, i).next_u64()).collect();
        let b: Vec<u64> = (0..4).map(|i| Rng::new(7, 1, i).next_u64()).collect();
        let c: Vec<u64> = (0..4).map(|i| Rng::new(7, 2, i).next_u64()).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn statecharts_have_small_enumerable_input_spaces() {
        for i in 0..32 {
            let f = statechart(3, i).to_function();
            let space = input_space(&f);
            assert!(!space.is_empty() && space.len() <= 432, "{}", space.len());
        }
    }
}
