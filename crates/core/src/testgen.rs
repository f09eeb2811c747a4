//! Hybrid test-data generation (Section 3 of the paper).
//!
//! Test data are generated in two phases, exactly as the paper proposes:
//! first a cheap heuristic search (a small genetic algorithm over the input
//! domains) runs until it stops finding new paths, then the remaining paths
//! are handed to the model checker, which either produces a witness input
//! vector or proves the path infeasible.  The paper (citing Tracey et al.)
//! expects the heuristic phase to cover more than 90 % of the required test
//! cases; the `testgen` experiment of EXPERIMENTS.md checks that ratio.

use crate::partition::{PartitionPlan, SegmentId, SegmentKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use rustc_hash::{FxHashMap, FxHashSet};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::sync::Arc;
use tmg_cfg::{enumerate_region_paths, BlockId, LoweredFunction, PathSpec, Terminator};
use tmg_minic::ast::Function;
use tmg_minic::interp::BranchChoice;
use tmg_minic::value::InputVector;
use tmg_minic::StmtId;
use tmg_target::{CostModel, Machine};
use tmg_tsys::{ModelChecker, PathQuery, SharedCheckModel};

/// What a coverage goal asks for.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum GoalKind {
    /// Execute the given decision sequence inside a region segment.
    RegionPath(PathSpec),
    /// Execute the given basic block (single-block segments).
    BlockExecution(BlockId),
}

/// One coverage goal of the measurement campaign.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoverageGoal {
    /// The segment the goal belongs to.
    pub segment: SegmentId,
    /// What must be exercised.
    pub kind: GoalKind,
}

/// Which phase produced a covering test vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GeneratorKind {
    /// The heuristic (genetic) search.
    Heuristic,
    /// The model checker.
    ModelChecker,
}

/// Outcome for one coverage goal.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoverageStatus {
    /// A test vector exercising the goal was found.
    Covered {
        /// The input vector.
        vector: InputVector,
        /// Which phase found it.
        by: GeneratorKind,
    },
    /// The model checker proved no input can exercise the goal.
    Infeasible,
    /// Neither phase settled the goal within its budget.
    Unknown,
}

/// The generated test suite with per-goal outcomes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TestSuite {
    /// Goals and their outcomes, in segment order.
    pub goals: Vec<(CoverageGoal, CoverageStatus)>,
}

impl TestSuite {
    /// All distinct covering input vectors.
    pub fn vectors(&self) -> Vec<InputVector> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for (_, status) in &self.goals {
            if let CoverageStatus::Covered { vector, .. } = status {
                if seen.insert(vector.clone()) {
                    out.push(vector.clone());
                }
            }
        }
        out
    }

    /// Number of goals.
    pub fn goal_count(&self) -> usize {
        self.goals.len()
    }

    /// Goals covered by either phase.
    pub fn covered_count(&self) -> usize {
        self.goals
            .iter()
            .filter(|(_, s)| matches!(s, CoverageStatus::Covered { .. }))
            .count()
    }

    /// Goals covered by the heuristic phase.
    pub fn heuristic_covered(&self) -> usize {
        self.count_by(GeneratorKind::Heuristic)
    }

    /// Goals covered by the model checker.
    pub fn checker_covered(&self) -> usize {
        self.count_by(GeneratorKind::ModelChecker)
    }

    fn count_by(&self, kind: GeneratorKind) -> usize {
        self.goals
            .iter()
            .filter(|(_, s)| matches!(s, CoverageStatus::Covered { by, .. } if *by == kind))
            .count()
    }

    /// Goals proven infeasible.
    pub fn infeasible_count(&self) -> usize {
        self.goals
            .iter()
            .filter(|(_, s)| matches!(s, CoverageStatus::Infeasible))
            .count()
    }

    /// Goals left unresolved.
    pub fn unknown_count(&self) -> usize {
        self.goals
            .iter()
            .filter(|(_, s)| matches!(s, CoverageStatus::Unknown))
            .count()
    }

    /// Fraction of *feasible* goals covered by the heuristic phase — the
    /// ">90 %" figure of Section 3.
    pub fn heuristic_ratio(&self) -> f64 {
        let feasible = self.covered_count();
        if feasible == 0 {
            return 1.0;
        }
        self.heuristic_covered() as f64 / feasible as f64
    }
}

/// Configuration of the heuristic (genetic) phase.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HeuristicConfig {
    /// Individuals per generation.
    pub population: usize,
    /// Hard cap on generations.
    pub max_generations: usize,
    /// Stop after this many generations without new coverage — the paper's
    /// "no new paths have been reached with the last N generated patterns".
    pub stall_generations: usize,
    /// Per-parameter mutation probability.
    pub mutation_rate: f64,
    /// RNG seed (the whole pipeline is deterministic for a given seed).
    pub seed: u64,
}

impl Default for HeuristicConfig {
    fn default() -> Self {
        HeuristicConfig {
            population: 32,
            max_generations: 200,
            stall_generations: 15,
            mutation_rate: 0.25,
            seed: 0xC0FFEE,
        }
    }
}

/// The two-phase test-data generator.
#[derive(Debug, Clone)]
pub struct HybridGenerator {
    /// Heuristic-phase configuration.
    pub heuristic: HeuristicConfig,
    /// Model checker used for the residual paths.
    pub checker: ModelChecker,
    /// Cap on enumerated paths per segment.
    pub max_paths_per_segment: usize,
    /// Cost model of the target used to replay candidate vectors.
    pub cost_model: CostModel,
    /// Run the model-checking phase across all cores (checker queries are
    /// independent per goal, and results are merged in goal order, so the
    /// generated suite is identical to a sequential run).
    pub parallel: bool,
    /// Select the optimised generation pipeline: all of a function's
    /// residual goals are answered through one shared state-space
    /// exploration ([`ModelChecker::check_many`]) instead of one search per
    /// goal, and the heuristic phase breeds dense integer genomes, runs
    /// each distinct genome once per search and matches goals through the
    /// precomputed allocation-free matcher.  When disabled, the whole legacy
    /// pipeline is restored (per-goal searches, map-keyed individuals
    /// re-run every generation, allocation-per-call matching) as the
    /// benchmark's measured reference.  The heuristic phase is
    /// bit-identical either way.  So is the checker phase while the
    /// per-goal searches stay within their budget; where one runs out, the
    /// shared exploration can still settle its goal (generated automotive
    /// code at path bound 8 shows this).
    pub batch_queries: bool,
}

/// Residual-goal count below which the per-goal checker fan-out runs inline:
/// a couple of queries finish faster on the current thread than the rayon
/// pool can hand them out and collect them back.
const PARALLEL_RESIDUAL_THRESHOLD: usize = 4;

/// A sequentially-measured generation evaluation must cost at least this
/// much before the population fan-out moves to the worker pool: dispatching
/// microsecond-sized target runs costs more than running them inline, which
/// is exactly the `testgen_wiper` regression of BENCH_pr1.json.  Results are
/// identical either way (the evaluation is pure and collected in order), so
/// the switch can be made adaptively mid-search.
const PARALLEL_EVAL_MIN: std::time::Duration = std::time::Duration::from_millis(2);

/// Work counts of one heuristic search, added to the process-wide
/// [`metrics`] counters when the search ends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct HeuristicStats {
    /// Generations scored.
    generations: u64,
    /// Target runs.
    evaluations: u64,
    /// Individuals scored from the memo instead of a target run.
    memo_hits: u64,
}

/// Process-wide heuristic-phase counters, rendered as the `testgen` group
/// of the `tmg-obs-stats/v1` snapshot.
pub mod metrics {
    use super::HeuristicStats;
    use std::sync::atomic::{AtomicU64, Ordering};

    static HEURISTIC_GENERATIONS: AtomicU64 = AtomicU64::new(0);
    static HEURISTIC_EVALUATIONS: AtomicU64 = AtomicU64::new(0);
    static HEURISTIC_MEMO_HITS: AtomicU64 = AtomicU64::new(0);

    /// A point-in-time copy of the counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct TestgenMetrics {
        /// Generations the heuristic searches scored.
        pub heuristic_generations: u64,
        /// Target runs the heuristic searches made.
        pub heuristic_evaluations: u64,
        /// Individuals scored from a search's memo instead of a run.
        pub heuristic_memo_hits: u64,
    }

    /// Registers the counters, by their JSON names, into the unified
    /// metrics registry (group `"testgen"`).  Idempotent; [`snapshot`]
    /// calls it.
    pub fn register() {
        tmg_obs::registry().register_counters(
            "testgen",
            None,
            vec![
                ("heuristic_generations", &HEURISTIC_GENERATIONS),
                ("heuristic_evaluations", &HEURISTIC_EVALUATIONS),
                ("heuristic_memo_hits", &HEURISTIC_MEMO_HITS),
            ],
        );
    }

    /// Reads the current counter values.
    pub fn snapshot() -> TestgenMetrics {
        register();
        TestgenMetrics {
            heuristic_generations: HEURISTIC_GENERATIONS.load(Ordering::Relaxed),
            heuristic_evaluations: HEURISTIC_EVALUATIONS.load(Ordering::Relaxed),
            heuristic_memo_hits: HEURISTIC_MEMO_HITS.load(Ordering::Relaxed),
        }
    }

    pub(super) fn record(stats: &HeuristicStats) {
        HEURISTIC_GENERATIONS.fetch_add(stats.generations, Ordering::Relaxed);
        HEURISTIC_EVALUATIONS.fetch_add(stats.evaluations, Ordering::Relaxed);
        HEURISTIC_MEMO_HITS.fetch_add(stats.memo_hits, Ordering::Relaxed);
    }
}

impl Default for HybridGenerator {
    fn default() -> Self {
        HybridGenerator::new()
    }
}

impl HybridGenerator {
    /// A generator with default heuristic settings and a fully optimised
    /// model checker.
    pub fn new() -> HybridGenerator {
        HybridGenerator {
            heuristic: HeuristicConfig::default(),
            checker: ModelChecker::new(),
            max_paths_per_segment: 4096,
            cost_model: CostModel::hcs12(),
            parallel: true,
            batch_queries: true,
        }
    }

    /// Disables the parallel model-checking phase (used by the benchmark
    /// harness to measure the speedup; results are identical either way).
    pub fn sequential(mut self) -> HybridGenerator {
        self.parallel = false;
        self
    }

    /// Restores the legacy generation pipeline — the map-based heuristic
    /// search, one model-checker search per residual goal and
    /// allocation-per-call goal matching (used by the benchmark harness and
    /// the identity tests as the pre-optimisation reference; see
    /// [`HybridGenerator::batch_queries`] for when results agree).
    pub fn unbatched(mut self) -> HybridGenerator {
        self.batch_queries = false;
        self
    }

    /// Builds the coverage goals of a partition plan.
    pub fn goals(&self, lowered: &LoweredFunction, plan: &PartitionPlan) -> Vec<CoverageGoal> {
        let mut goals = Vec::new();
        for segment in &plan.segments {
            match segment.kind {
                SegmentKind::Region(region_id) => {
                    let region = lowered.regions.region(region_id);
                    let paths =
                        enumerate_region_paths(&lowered.cfg, region, self.max_paths_per_segment)
                            .unwrap_or_default();
                    if paths.is_empty() {
                        goals.push(CoverageGoal {
                            segment: segment.id,
                            kind: GoalKind::BlockExecution(region.entry_block),
                        });
                    } else {
                        for path in paths {
                            goals.push(CoverageGoal {
                                segment: segment.id,
                                kind: GoalKind::RegionPath(path),
                            });
                        }
                    }
                }
                SegmentKind::Block(block) => goals.push(CoverageGoal {
                    segment: segment.id,
                    kind: GoalKind::BlockExecution(block),
                }),
            }
        }
        goals
    }

    /// Runs both phases and returns the test suite.
    pub fn generate(
        &self,
        function: &Function,
        lowered: &LoweredFunction,
        plan: &PartitionPlan,
    ) -> TestSuite {
        self.generate_with_model(function, lowered, plan, None)
    }

    /// Like [`generate`](HybridGenerator::generate), but answering the
    /// residual checker batch through a previously prepared
    /// [`SharedCheckModel`] (the pipeline's cached artifact), skipping the
    /// per-batch optimisation/encoding/preparation.  Suites are bit-identical
    /// with and without the shared model: a batch the artifact does not
    /// cover falls back to the plain [`ModelChecker::check_many`] path
    /// internally.
    pub fn generate_with_model(
        &self,
        function: &Function,
        lowered: &LoweredFunction,
        plan: &PartitionPlan,
        shared: Option<&SharedCheckModel>,
    ) -> TestSuite {
        self.generate_impl(function, lowered, plan, SharedSource::Ready(shared))
    }

    /// Like [`generate_with_model`](HybridGenerator::generate_with_model),
    /// but the shared model is supplied lazily: `provider` is invoked only
    /// when a residual checker batch actually exists, so callers (the
    /// staged pipeline) never pay for optimising and encoding a model that
    /// a fully heuristic-covered function would not use.
    pub fn generate_with_model_provider<'a>(
        &self,
        function: &Function,
        lowered: &LoweredFunction,
        plan: &PartitionPlan,
        provider: impl FnOnce() -> Option<Arc<SharedCheckModel>> + 'a,
    ) -> TestSuite {
        self.generate_impl(
            function,
            lowered,
            plan,
            SharedSource::Lazy(Box::new(provider)),
        )
    }

    fn generate_impl(
        &self,
        function: &Function,
        lowered: &LoweredFunction,
        plan: &PartitionPlan,
        shared: SharedSource<'_>,
    ) -> TestSuite {
        let goals = self.goals(lowered, plan);
        let machine = Machine::new(&lowered.cfg, function, self.cost_model.clone());
        let mut status: Vec<Option<CoverageStatus>> = vec![None; goals.len()];

        // Phase 1: heuristic (genetic) search.
        let stats = self.heuristic_phase(function, &machine, &goals, &mut status);
        metrics::record(&stats);

        // Phase 2: model checking for the residual goals.  The default path
        // batches every residual query of the function through one shared
        // exploration; the per-goal path (kept for the perf baseline and as
        // the semantics reference) fans the independent queries out across
        // cores once there are enough of them to amortise the pool overhead.
        // All variants merge in goal order; sequential and parallel runs
        // agree exactly, batched and per-goal runs as `batch_queries` says.
        let checker_span = tmg_obs::span("testgen:checker");
        let residual: Vec<usize> = (0..goals.len()).filter(|&i| status[i].is_none()).collect();
        // A lazily supplied model is materialised only for a non-empty
        // residual batch on the batching pipeline.
        let holder: Option<Arc<SharedCheckModel>>;
        let shared: Option<&SharedCheckModel> = match shared {
            SharedSource::Ready(ready) => ready,
            SharedSource::Lazy(build) if self.batch_queries && !residual.is_empty() => {
                holder = build();
                holder.as_deref()
            }
            SharedSource::Lazy(_) => None,
        };
        let resolved: Vec<(usize, CoverageStatus)> = if self.batch_queries {
            self.check_residual_batched(function, lowered, &machine, &goals, &residual, shared)
        } else {
            let check = |&i: &usize| (i, self.check_goal(function, lowered, &machine, &goals[i]));
            if self.parallel && residual.len() >= PARALLEL_RESIDUAL_THRESHOLD {
                residual.par_iter().map(check).collect()
            } else {
                residual.iter().map(check).collect()
            }
        };
        for (i, outcome) in resolved {
            status[i] = Some(outcome);
        }
        drop(checker_span);

        TestSuite {
            goals: goals
                .into_iter()
                .zip(status)
                .map(|(g, s)| (g, s.unwrap_or(CoverageStatus::Unknown)))
                .collect(),
        }
    }

    /// Phase 1: the genetic search.  A parameterless function needs only
    /// its single run; otherwise the optimised pipeline breeds dense
    /// genomes against a per-search evaluation memo, and `.unbatched()`
    /// keeps the map-based reference loop.  Both make the same RNG draws
    /// in the same order and record the same suites.
    fn heuristic_phase(
        &self,
        function: &Function,
        machine: &Machine<'_>,
        goals: &[CoverageGoal],
        status: &mut [Option<CoverageStatus>],
    ) -> HeuristicStats {
        let _span = tmg_obs::span("testgen:heuristic");
        if function.params.is_empty() {
            if let Ok(run) = machine.run(&InputVector::new(), &[]) {
                record_coverage(
                    &InputVector::new(),
                    &run,
                    goals,
                    status,
                    GeneratorKind::Heuristic,
                );
            }
            return HeuristicStats {
                evaluations: 1,
                ..HeuristicStats::default()
            };
        }
        if self.batch_queries {
            self.search_dense(function, machine, goals, status)
        } else {
            self.search_reference(function, machine, goals, status)
        }
    }

    /// The optimised search.  An individual is a dense genome, one `i64`
    /// per parameter in `function.params` order, and the population is
    /// stored flat.  Each distinct genome is run on the target once per
    /// search: `memo` maps it to the goals its run exercises (`None` when
    /// the run faults), so repeated individuals — the elites, and the
    /// duplicates a small input space breeds — are scored from the memo.
    /// [`Machine::run_params`] is deterministic, so a memo hit is exactly a
    /// re-run; scoring, coverage recording and selection still walk the
    /// population in order, so the suite is identical to the reference.
    fn search_dense(
        &self,
        function: &Function,
        machine: &Machine<'_>,
        goals: &[CoverageGoal],
        status: &mut [Option<CoverageStatus>],
    ) -> HeuristicStats {
        let mut stats = HeuristicStats::default();
        let mut rng = StdRng::seed_from_u64(self.heuristic.seed);
        let mut matcher = GoalMatcher::new(goals);
        let domains: Vec<(i64, i64)> = function
            .params
            .iter()
            .map(|p| p.range.unwrap_or_else(|| p.ty.value_range()))
            .collect();
        let width = domains.len();
        let size = self.heuristic.population;
        let to_vector = |genome: &[i64]| -> InputVector {
            function
                .params
                .iter()
                .zip(genome)
                .map(|(p, &value)| (p.name.clone(), value))
                .collect()
        };
        let mut population: Vec<i64> = Vec::with_capacity(size * width);
        for _ in 0..size {
            population.extend(domains.iter().map(|&(lo, hi)| rng.gen_range(lo..=hi)));
        }
        let mut next: Vec<i64> = Vec::with_capacity(size * width);
        // Genome → index into `outcomes`: the ascending goal indices its run
        // exercises, `None` for a faulted run.
        let mut memo: FxHashMap<Box<[i64]>, usize> = FxHashMap::default();
        let mut outcomes: Vec<Option<Box<[usize]>>> = Vec::new();
        // Per individual, its outcome index; and the individuals whose
        // genome is first seen this generation.
        let mut outcome_of: Vec<usize> = Vec::with_capacity(size);
        let mut fresh: Vec<usize> = Vec::new();
        let mut scored: Vec<(usize, usize)> = Vec::with_capacity(size);
        let mut stall = 0usize;
        let mut eval_in_parallel = false;
        for _generation in 0..self.heuristic.max_generations {
            stats.generations += 1;
            outcome_of.clear();
            fresh.clear();
            for (k, genome) in population.chunks_exact(width).enumerate() {
                let id = match memo.get(genome) {
                    Some(&id) => {
                        stats.memo_hits += 1;
                        id
                    }
                    None => {
                        let id = outcomes.len();
                        outcomes.push(None);
                        memo.insert(genome.into(), id);
                        fresh.push(k);
                        id
                    }
                };
                outcome_of.push(id);
            }
            // Only the fresh genomes reach the target; the adaptive
            // fan-out gate measures exactly those runs.
            let genome = |k: usize| &population[k * width..(k + 1) * width];
            let run = |&k: &usize| machine.run_params(genome(k)).ok();
            let runs: Vec<Option<tmg_target::RunResult>> =
                if self.parallel && eval_in_parallel && fresh.len() > 1 {
                    fresh.par_iter().map(run).collect()
                } else {
                    let eval_start = std::time::Instant::now();
                    let runs = fresh.iter().map(run).collect();
                    eval_in_parallel = eval_start.elapsed() >= PARALLEL_EVAL_MIN;
                    runs
                };
            stats.evaluations += fresh.len() as u64;
            for (&k, run) in fresh.iter().zip(&runs) {
                outcomes[outcome_of[k]] = run.as_ref().map(|run| {
                    (0..goals.len())
                        .filter(|&i| matcher.matches(i, run))
                        .collect()
                });
            }
            let mut new_coverage = false;
            scored.clear();
            for (k, &id) in outcome_of.iter().enumerate() {
                let Some(exercised) = &outcomes[id] else {
                    scored.push((0, k));
                    continue;
                };
                // Fitness: how many goals (covered or not) this run
                // exercises, which rewards individuals that reach deep code.
                let mut newly = 0;
                let mut vector: Option<InputVector> = None;
                for &i in exercised.iter() {
                    if status[i].is_none() {
                        let vector = vector.get_or_insert_with(|| to_vector(genome(k)));
                        status[i] = Some(CoverageStatus::Covered {
                            vector: vector.clone(),
                            by: GeneratorKind::Heuristic,
                        });
                        newly += 1;
                    }
                }
                new_coverage |= newly > 0;
                scored.push((exercised.len() + newly * 4, k));
            }
            if status.iter().all(|s| s.is_some()) {
                return stats;
            }
            stall = if new_coverage { 0 } else { stall + 1 };
            if stall >= self.heuristic.stall_generations {
                return stats;
            }
            // Next generation: elitism + tournament crossover + mutation.
            scored.sort_by_key(|(score, _)| std::cmp::Reverse(*score));
            next.clear();
            for &(_, k) in scored.iter().take((size / 4).max(1)) {
                next.extend_from_slice(genome(k));
            }
            while next.len() < size * width {
                let pick = |rng: &mut StdRng| -> usize {
                    let a = rng.gen_range(0..scored.len());
                    let b = rng.gen_range(0..scored.len());
                    if scored[a].0 >= scored[b].0 {
                        scored[a].1
                    } else {
                        scored[b].1
                    }
                };
                let mother = pick(&mut rng) * width;
                let father = pick(&mut rng) * width;
                for (d, &(lo, hi)) in domains.iter().enumerate() {
                    let inherited = if rng.gen_bool(0.5) {
                        population[mother + d]
                    } else {
                        population[father + d]
                    };
                    let value = if rng.gen_bool(self.heuristic.mutation_rate) {
                        rng.gen_range(lo..=hi)
                    } else {
                        inherited
                    };
                    next.push(value);
                }
            }
            std::mem::swap(&mut population, &mut next);
        }
        stats
    }

    /// The map-based reference search (`.unbatched()`): every individual is
    /// an [`InputVector`], every generation re-runs the whole population and
    /// goal matching allocates per call.  It is the oracle the identity
    /// tests and `reproduce bench` compare the optimised search against.
    fn search_reference(
        &self,
        function: &Function,
        machine: &Machine<'_>,
        goals: &[CoverageGoal],
        status: &mut [Option<CoverageStatus>],
    ) -> HeuristicStats {
        let mut stats = HeuristicStats::default();
        let mut rng = StdRng::seed_from_u64(self.heuristic.seed);
        let domains: Vec<(String, i64, i64)> = function
            .params
            .iter()
            .map(|p| {
                let (lo, hi) = p.range.unwrap_or_else(|| p.ty.value_range());
                (p.name.clone(), lo, hi)
            })
            .collect();
        let random_vector = |rng: &mut StdRng| -> InputVector {
            domains
                .iter()
                .map(|(name, lo, hi)| (name.clone(), rng.gen_range(*lo..=*hi)))
                .collect()
        };
        let mut population: Vec<InputVector> = (0..self.heuristic.population)
            .map(|_| random_vector(&mut rng))
            .collect();
        let mut stall = 0usize;
        let mut eval_in_parallel = false;
        for _generation in 0..self.heuristic.max_generations {
            stats.generations += 1;
            stats.evaluations += population.len() as u64;
            let run = |ind: &InputVector| machine.run(ind, &[]).ok();
            let runs: Vec<Option<tmg_target::RunResult>> =
                if self.parallel && eval_in_parallel && population.len() > 1 {
                    population.par_iter().map(run).collect()
                } else {
                    let eval_start = std::time::Instant::now();
                    let runs = population.iter().map(run).collect();
                    eval_in_parallel = eval_start.elapsed() >= PARALLEL_EVAL_MIN;
                    runs
                };
            let mut new_coverage = false;
            let mut scored: Vec<(usize, InputVector)> = Vec::with_capacity(population.len());
            for (individual, run) in population.iter().zip(&runs) {
                let Some(run) = run else {
                    scored.push((0, individual.clone()));
                    continue;
                };
                // Fitness: how many goals (covered or not) this run exercises,
                // which rewards individuals that reach deep code.
                let newly =
                    record_coverage(individual, run, goals, status, GeneratorKind::Heuristic);
                let exercised = goals.iter().filter(|g| goal_matches(g, run)).count();
                new_coverage |= newly > 0;
                scored.push((exercised + newly * 4, individual.clone()));
            }
            if status.iter().all(|s| s.is_some()) {
                return stats;
            }
            stall = if new_coverage { 0 } else { stall + 1 };
            if stall >= self.heuristic.stall_generations {
                return stats;
            }
            // Next generation: elitism + tournament crossover + mutation.
            scored.sort_by_key(|(score, _)| std::cmp::Reverse(*score));
            let elite = scored
                .iter()
                .take((self.heuristic.population / 4).max(1))
                .map(|(_, v)| v.clone())
                .collect::<Vec<_>>();
            let mut next = elite.clone();
            while next.len() < self.heuristic.population {
                let pick = |rng: &mut StdRng| -> &InputVector {
                    let a = rng.gen_range(0..scored.len());
                    let b = rng.gen_range(0..scored.len());
                    if scored[a].0 >= scored[b].0 {
                        &scored[a].1
                    } else {
                        &scored[b].1
                    }
                };
                let mother = pick(&mut rng).clone();
                let father = pick(&mut rng).clone();
                let mut child = InputVector::new();
                for (name, lo, hi) in &domains {
                    let from_mother = rng.gen_bool(0.5);
                    let inherited = if from_mother {
                        mother.get(name)
                    } else {
                        father.get(name)
                    }
                    .unwrap_or(*lo);
                    let value = if rng.gen_bool(self.heuristic.mutation_rate) {
                        rng.gen_range(*lo..=*hi)
                    } else {
                        inherited
                    };
                    child.set(name.clone(), value);
                }
                next.push(child);
            }
            population = next;
        }
        stats
    }

    fn check_goal(
        &self,
        function: &Function,
        lowered: &LoweredFunction,
        machine: &Machine<'_>,
        goal: &CoverageGoal,
    ) -> CoverageStatus {
        let candidates = goal_candidate_queries(lowered, goal);
        if candidates.is_empty() {
            return CoverageStatus::Unknown;
        }
        let mut any_unknown = false;
        for query in candidates {
            let result = self.checker.find_test_data(function, &query);
            match resolve_candidate(goal, machine, &result.outcome) {
                CandidateVerdict::Covers(status) => return status,
                CandidateVerdict::Unknown => any_unknown = true,
                CandidateVerdict::Infeasible => {}
            }
        }
        if any_unknown {
            CoverageStatus::Unknown
        } else {
            CoverageStatus::Infeasible
        }
    }

    /// Resolves all residual goals of the function through one shared
    /// state-space exploration: every goal's candidate queries are collected
    /// into a single [`ModelChecker::check_many`] batch, then each goal folds
    /// its candidates' outcomes exactly as the per-goal path does.
    fn check_residual_batched(
        &self,
        function: &Function,
        lowered: &LoweredFunction,
        machine: &Machine<'_>,
        goals: &[CoverageGoal],
        residual: &[usize],
        shared: Option<&SharedCheckModel>,
    ) -> Vec<(usize, CoverageStatus)> {
        let mut queries: Vec<PathQuery> = Vec::new();
        // Per goal: the index range of its candidate queries in `queries`.
        let mut spans: Vec<(usize, usize, usize)> = Vec::with_capacity(residual.len());
        for &i in residual {
            let start = queries.len();
            queries.extend(goal_candidate_queries(lowered, &goals[i]));
            spans.push((i, start, queries.len()));
        }
        let results = match shared {
            Some(model) => self.checker.check_many_shared(function, model, &queries),
            None => self.checker.check_many(function, &queries),
        };
        spans
            .into_iter()
            .map(|(i, lo, hi)| {
                if lo == hi {
                    return (i, CoverageStatus::Unknown);
                }
                let mut any_unknown = false;
                for result in &results[lo..hi] {
                    match resolve_candidate(&goals[i], machine, &result.outcome) {
                        CandidateVerdict::Covers(status) => return (i, status),
                        CandidateVerdict::Unknown => any_unknown = true,
                        CandidateVerdict::Infeasible => {}
                    }
                }
                let status = if any_unknown {
                    CoverageStatus::Unknown
                } else {
                    CoverageStatus::Infeasible
                };
                (i, status)
            })
            .collect()
    }
}

/// How phase 2 of the generator obtains the shared checker model.
enum SharedSource<'a> {
    /// The caller already holds a model (or explicitly has none).
    Ready(Option<&'a SharedCheckModel>),
    /// The model is built on first need — the staged pipeline's cache
    /// lookup, deferred so fully heuristic-covered functions never pay for
    /// optimisation and encoding.
    Lazy(Box<dyn FnOnce() -> Option<Arc<SharedCheckModel>> + 'a>),
}

/// How one candidate query's outcome affects its goal.
enum CandidateVerdict {
    /// The goal is covered: stop looking at further candidates.
    Covers(CoverageStatus),
    /// Candidate proven infeasible: keep looking.
    Infeasible,
    /// Unresolved (budget, or a witness that fails target validation).
    Unknown,
}

/// Applies the witness-validation rule shared by the batched and per-goal
/// checker phases.
fn resolve_candidate(
    goal: &CoverageGoal,
    machine: &Machine<'_>,
    outcome: &tmg_tsys::CheckOutcome,
) -> CandidateVerdict {
    match outcome {
        tmg_tsys::CheckOutcome::Feasible { witness, .. } => {
            // Validate on the target: free locals chosen by the checker are
            // not controllable, so the replay is authoritative.
            if let Ok(run) = machine.run(witness, &[]) {
                if goal_matches(goal, &run) {
                    return CandidateVerdict::Covers(CoverageStatus::Covered {
                        vector: witness.clone(),
                        by: GeneratorKind::ModelChecker,
                    });
                }
            }
            CandidateVerdict::Unknown
        }
        tmg_tsys::CheckOutcome::Infeasible => CandidateVerdict::Infeasible,
        tmg_tsys::CheckOutcome::Unknown => CandidateVerdict::Unknown,
    }
}

/// The model-checking queries that can settle `goal`, in preference order.
/// Decision vectors are moved (not cloned) into the queries wherever the
/// candidate paths are freshly enumerated.
fn goal_candidate_queries(lowered: &LoweredFunction, goal: &CoverageGoal) -> Vec<PathQuery> {
    match &goal.kind {
        GoalKind::RegionPath(path) => vec![PathQuery::new(path.decisions.clone())],
        GoalKind::BlockExecution(block) => paths_to_block(lowered, *block, 64)
            .into_iter()
            .map(|p| PathQuery::new(p.decisions))
            .collect(),
    }
}

/// Whether a target run exercises the goal.
fn goal_matches(goal: &CoverageGoal, run: &tmg_target::RunResult) -> bool {
    match &goal.kind {
        GoalKind::RegionPath(path) => path.matches_trace(&run.branch_signature),
        GoalKind::BlockExecution(block) => run.executed_blocks.contains(block),
    }
}

/// Allocation-free goal matching for the heuristic phase's inner loop.
///
/// [`PathSpec::matches_trace`] rebuilds the relevant-statement set and the
/// restricted trace on every call; the fitness evaluation calls it for every
/// `(goal, individual)` pair of every generation, which made the matching —
/// not the target runs — the dominant cost on small functions.  The matcher
/// computes each goal's relevant set once as a dense bitmap over statement
/// ids (one array index per trace element instead of a hash probe) and
/// reuses one scratch buffer for the restricted trace, returning
/// bit-identical verdicts.
struct GoalMatcher<'g> {
    goals: &'g [CoverageGoal],
    /// Per region-path goal: dense membership bitmap of the statements its
    /// decisions mention (indexed by raw [`StmtId`]; out-of-range means
    /// irrelevant).
    relevant: Vec<Box<[bool]>>,
    /// Reused buffer for the relevant-restricted branch trace.
    scratch: Vec<(StmtId, BranchChoice)>,
}

impl<'g> GoalMatcher<'g> {
    fn new(goals: &'g [CoverageGoal]) -> GoalMatcher<'g> {
        let relevant = goals
            .iter()
            .map(|goal| match &goal.kind {
                GoalKind::RegionPath(path) => {
                    let max = path
                        .decisions
                        .iter()
                        .map(|(s, _)| s.0 as usize)
                        .max()
                        .unwrap_or(0);
                    let mut bits = vec![false; max + 1].into_boxed_slice();
                    for (s, _) in &path.decisions {
                        bits[s.0 as usize] = true;
                    }
                    bits
                }
                GoalKind::BlockExecution(_) => Box::default(),
            })
            .collect();
        GoalMatcher {
            goals,
            relevant,
            scratch: Vec::new(),
        }
    }

    /// Whether `run` exercises goal `i` (same verdict as [`goal_matches`]).
    fn matches(&mut self, i: usize, run: &tmg_target::RunResult) -> bool {
        match &self.goals[i].kind {
            GoalKind::BlockExecution(block) => run.executed_blocks.contains(block),
            GoalKind::RegionPath(path) => {
                if path.decisions.is_empty() {
                    return true;
                }
                let relevant = &self.relevant[i];
                self.scratch.clear();
                self.scratch.extend(
                    run.branch_signature
                        .iter()
                        .copied()
                        .filter(|(s, _)| relevant.get(s.0 as usize).copied().unwrap_or(false)),
                );
                if self.scratch.len() < path.decisions.len() {
                    return false;
                }
                self.scratch
                    .windows(path.decisions.len())
                    .any(|w| w == path.decisions.as_slice())
            }
        }
    }
}

/// Marks every goal exercised by `run` as covered; returns how many were new.
fn record_coverage(
    vector: &InputVector,
    run: &tmg_target::RunResult,
    goals: &[CoverageGoal],
    status: &mut [Option<CoverageStatus>],
    by: GeneratorKind,
) -> usize {
    let mut newly = 0;
    for (i, goal) in goals.iter().enumerate() {
        if status[i].is_some() {
            continue;
        }
        if goal_matches(goal, run) {
            status[i] = Some(CoverageStatus::Covered {
                vector: vector.clone(),
                by,
            });
            newly += 1;
        }
    }
    newly
}

/// Enumerates up to `cap` acyclic decision sequences from the function entry
/// to `target`, used to phrase block-execution goals as model-checking
/// queries.
fn paths_to_block(lowered: &LoweredFunction, target: BlockId, cap: usize) -> Vec<PathSpec> {
    let mut out = Vec::new();
    let mut current: Vec<(StmtId, BranchChoice)> = Vec::new();
    let mut visited: FxHashSet<BlockId> =
        FxHashSet::with_capacity_and_hasher(lowered.cfg.block_count(), Default::default());
    walk_to_block(
        lowered,
        lowered.cfg.entry(),
        target,
        &mut current,
        &mut visited,
        &mut out,
        cap,
    );
    out
}

fn walk_to_block(
    lowered: &LoweredFunction,
    block: BlockId,
    target: BlockId,
    current: &mut Vec<(StmtId, BranchChoice)>,
    visited: &mut FxHashSet<BlockId>,
    out: &mut Vec<PathSpec>,
    cap: usize,
) {
    if out.len() >= cap {
        return;
    }
    if block == target {
        out.push(PathSpec {
            decisions: current.clone(),
        });
        return;
    }
    if !visited.insert(block) {
        return;
    }
    match &lowered.cfg.block(block).terminator {
        Terminator::Jump(d) => walk_to_block(lowered, *d, target, current, visited, out, cap),
        Terminator::Return { exit } => {
            walk_to_block(lowered, *exit, target, current, visited, out, cap)
        }
        Terminator::Halt => {}
        Terminator::Branch {
            stmt,
            then_dest,
            else_dest,
            ..
        } => {
            let is_loop = lowered.cfg.loop_bound(*stmt).is_some();
            let then_choice = if is_loop {
                BranchChoice::LoopIterate
            } else {
                BranchChoice::Then
            };
            let else_choice = if is_loop {
                BranchChoice::LoopExit
            } else {
                BranchChoice::Else
            };
            current.push((*stmt, then_choice));
            walk_to_block(lowered, *then_dest, target, current, visited, out, cap);
            current.pop();
            current.push((*stmt, else_choice));
            walk_to_block(lowered, *else_dest, target, current, visited, out, cap);
            current.pop();
        }
        Terminator::Switch {
            stmt,
            arms,
            default_dest,
            ..
        } => {
            for (value, dest) in arms {
                current.push((*stmt, BranchChoice::Case(*value)));
                walk_to_block(lowered, *dest, target, current, visited, out, cap);
                current.pop();
            }
            current.push((*stmt, BranchChoice::Default));
            walk_to_block(lowered, *default_dest, target, current, visited, out, cap);
            current.pop();
        }
    }
    visited.remove(&block);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionPlan;
    use tmg_cfg::build_cfg;
    use tmg_minic::parse_function;

    fn suite_for(src: &str, bound: u128) -> (Function, LoweredFunction, TestSuite) {
        let f = parse_function(src).expect("parse");
        let lowered = build_cfg(&f);
        let plan = PartitionPlan::compute(&lowered, bound);
        let suite = HybridGenerator::new().generate(&f, &lowered, &plan);
        (f, lowered, suite)
    }

    #[test]
    fn covers_all_feasible_paths_of_a_simple_function() {
        let src = r#"
            void f(char a __range(0, 3), char b __range(0, 3)) {
                if (a > 1) { p1(); } else { p2(); }
                if (b == 0) { p3(); }
            }
        "#;
        let (_, _, suite) = suite_for(src, 10);
        assert_eq!(suite.goal_count(), 4);
        assert_eq!(suite.covered_count(), 4);
        assert_eq!(suite.infeasible_count(), 0);
        assert!(!suite.vectors().is_empty());
    }

    #[test]
    fn detects_infeasible_paths_via_the_model_checker() {
        // a > 2 and a < 1 cannot hold together.
        let src = r#"
            void f(char a __range(0, 4)) {
                if (a > 2) { p1(); }
                if (a < 1) { p2(); }
            }
        "#;
        let (_, _, suite) = suite_for(src, 10);
        assert_eq!(suite.goal_count(), 4);
        assert_eq!(suite.infeasible_count(), 1);
        assert_eq!(suite.covered_count(), 3);
        assert_eq!(suite.unknown_count(), 0);
    }

    #[test]
    fn block_goals_are_covered_at_bound_one() {
        let src = "void f(char a __range(0, 1)) { p1(); if (a) { p2(); } p3(); }";
        let (_, lowered, suite) = suite_for(src, 1);
        // One goal per measurable unit.
        assert_eq!(suite.goal_count(), lowered.cfg.measurable_units().len());
        assert_eq!(suite.covered_count(), suite.goal_count());
    }

    #[test]
    fn heuristic_covers_most_goals_and_checker_the_rest() {
        // The equality guard is a needle in the haystack for random search but
        // trivial for the model checker.
        let src = r#"
            void f(int a __range(0, 10000), char b __range(0, 3)) {
                if (b == 1) { common1(); }
                if (b > 1) { common2(); } else { common3(); }
                if (a == 7777) { rare(); }
            }
        "#;
        let (_, _, suite) = suite_for(src, 1000);
        assert_eq!(
            suite.covered_count() + suite.infeasible_count(),
            suite.goal_count()
        );
        assert!(suite.heuristic_covered() > 0);
        assert!(
            suite.checker_covered() > 0,
            "the a == 7777 paths need the model checker"
        );
        assert!(
            suite.heuristic_ratio() >= 0.5,
            "heuristic should carry at least half of the load: {}",
            suite.heuristic_ratio()
        );
    }

    #[test]
    fn generation_is_deterministic_for_a_fixed_seed() {
        let src = "void f(char a __range(0, 7)) { if (a > 3) { p1(); } else { p2(); } }";
        let f = parse_function(src).expect("parse");
        let lowered = build_cfg(&f);
        let plan = PartitionPlan::compute(&lowered, 10);
        let s1 = HybridGenerator::new().generate(&f, &lowered, &plan);
        let s2 = HybridGenerator::new().generate(&f, &lowered, &plan);
        assert_eq!(s1, s2);
    }

    #[test]
    fn parallel_and_sequential_generation_agree_exactly() {
        // Include goals the heuristic cannot reach (forcing the checker
        // phase) and an infeasible pair, so the parallel merge is exercised
        // on every outcome kind.
        let src = r#"
            void f(int a __range(0, 9000), char b __range(0, 3)) {
                if (a == 4321) { rare(); }
                if (b > 2) { p1(); }
                if (b < 1) { p2(); }
            }
        "#;
        let f = parse_function(src).expect("parse");
        let lowered = build_cfg(&f);
        let plan = PartitionPlan::compute(&lowered, 1000);
        let parallel = HybridGenerator::new().generate(&f, &lowered, &plan);
        let sequential = HybridGenerator::new()
            .sequential()
            .generate(&f, &lowered, &plan);
        assert_eq!(parallel, sequential);
        assert!(
            parallel.checker_covered() > 0,
            "checker phase must have run"
        );
    }

    #[test]
    fn batched_and_per_goal_checking_agree_exactly() {
        // Needles for the checker, an infeasible pair, and block goals at a
        // fine partition: every candidate-query shape goes through both the
        // batched and the per-goal phase-2 implementation.
        let sources = [
            (
                r#"
                void f(int a __range(0, 9000), char b __range(0, 3)) {
                    if (a == 4321) { rare(); }
                    if (b > 2) { p1(); }
                    if (b < 1) { p2(); }
                }
            "#,
                1000u128,
            ),
            (
                r#"
                void g(char a __range(0, 4)) {
                    if (a > 2) { x(); }
                    if (a < 1) { y(); }
                }
            "#,
                10,
            ),
            (
                "void h(char a __range(0, 1)) { p1(); if (a) { p2(); } p3(); }",
                1,
            ),
        ];
        for (src, bound) in sources {
            let f = parse_function(src).expect("parse");
            let lowered = build_cfg(&f);
            let plan = PartitionPlan::compute(&lowered, bound);
            let batched = HybridGenerator::new().generate(&f, &lowered, &plan);
            let per_goal = HybridGenerator::new()
                .unbatched()
                .sequential()
                .generate(&f, &lowered, &plan);
            assert_eq!(batched, per_goal, "suites diverge on {src}");
        }
    }

    /// Runs phase 1 alone on `generator`'s search and returns the goal
    /// statuses it settled with the search's work counts.
    fn heuristic_only(
        generator: &HybridGenerator,
        f: &Function,
        lowered: &LoweredFunction,
        plan: &PartitionPlan,
    ) -> (Vec<Option<CoverageStatus>>, HeuristicStats) {
        let goals = generator.goals(lowered, plan);
        let machine = Machine::new(&lowered.cfg, f, generator.cost_model.clone());
        let mut status = vec![None; goals.len()];
        let stats = generator.heuristic_phase(f, &machine, &goals, &mut status);
        (status, stats)
    }

    /// Asserts that the dense, memoised search and the map-based reference
    /// settle the same goals with the same vectors at path bound `bound`;
    /// returns the dense search's work counts.
    fn assert_search_matches_reference(f: &Function, bound: u128) -> HeuristicStats {
        let lowered = build_cfg(f);
        let plan = PartitionPlan::compute(&lowered, bound);
        let reference = HybridGenerator::new().sequential().unbatched();
        let (dense_status, stats) = heuristic_only(&HybridGenerator::new(), f, &lowered, &plan);
        let (reference_status, _) = heuristic_only(&reference, f, &lowered, &plan);
        assert_eq!(
            dense_status, reference_status,
            "heuristic phases diverge on {} at bound {bound}",
            f.name
        );
        stats
    }

    /// [`assert_search_matches_reference`], and the full default generator
    /// matches `.sequential().unbatched()` bit for bit.
    fn assert_dense_matches_reference(f: &Function, bound: u128) -> HeuristicStats {
        let stats = assert_search_matches_reference(f, bound);
        let lowered = build_cfg(f);
        let plan = PartitionPlan::compute(&lowered, bound);
        let reference = HybridGenerator::new().sequential().unbatched();
        let optimised = HybridGenerator::new().generate(f, &lowered, &plan);
        let oracle = reference.generate(f, &lowered, &plan);
        assert_eq!(
            optimised, oracle,
            "suites diverge on {} at bound {bound}",
            f.name
        );
        stats
    }

    /// A seeded wiper-like statechart: 5-9 states, a three-step `speed`
    /// selector, 2-4 boolean switches and 1-3 guarded transitions per state.
    fn seeded_statechart(seed: u64) -> Function {
        use tmg_codegen::{StateTransition, Statechart};
        const FLAGS: [&str; 4] = ["wash", "endpos", "interval", "overcurrent"];
        let mut rng = StdRng::seed_from_u64(seed);
        let states = rng.gen_range(5..=9usize);
        let flags = &FLAGS[..rng.gen_range(2..=4usize)];
        let names = (0..states).map(|s| format!("S{s}")).collect();
        let mut chart =
            Statechart::new(format!("chart{seed}"), names).with_input("char speed __range(0, 2)");
        for flag in flags {
            chart = chart.with_input(format!("bool {flag}"));
        }
        for from in 0..states {
            for _ in 0..rng.gen_range(1..=3usize) {
                let flag = flags[rng.gen_range(0..flags.len())];
                let guard = match rng.gen_range(0..3u32) {
                    0 => format!("speed == {}", rng.gen_range(0..=2i64)),
                    1 => flag.to_owned(),
                    _ => format!("speed > 0 && !{flag}"),
                };
                let to = (from + rng.gen_range(1..states)) % states;
                let actions = vec![format!("act{}", rng.gen_range(0..4u32))];
                chart = chart.with_transition(StateTransition {
                    from,
                    to,
                    guard,
                    actions,
                });
            }
        }
        chart.to_function()
    }

    /// The case-study path bound: the largest path count of any top-level
    /// region, so every `switch` arm is one segment.
    fn case_bound(lowered: &LoweredFunction) -> u128 {
        lowered
            .regions
            .root()
            .children
            .iter()
            .map(|c| lowered.regions.region(*c).path_count)
            .max()
            .unwrap_or(1)
    }

    #[test]
    fn dense_search_matches_the_reference_on_generated_statecharts() {
        let mut memo_hits = 0;
        for seed in 0..32 {
            let f = seeded_statechart(seed);
            for bound in [1, case_bound(&build_cfg(&f))] {
                memo_hits += assert_dense_matches_reference(&f, bound).memo_hits;
            }
        }
        assert!(memo_hits > 0, "the memo must serve repeated individuals");
    }

    #[test]
    fn dense_search_matches_the_reference_on_generated_automotive_code() {
        // Phase 1 only: at path bound 8 the checker phase of these functions
        // takes seconds per function, and there the batched checker settles
        // goals the per-goal reference leaves `Unknown`, so whole suites
        // are not comparable against `.unbatched()`.
        use tmg_codegen::{generate_automotive, AutomotiveConfig};
        for seed in 0..16 {
            let generated = generate_automotive(&AutomotiveConfig::small(seed));
            for bound in [1, 8] {
                assert_search_matches_reference(&generated.function, bound);
            }
        }
    }

    #[test]
    fn dense_search_handles_a_parameterless_function() {
        let f = parse_function("void f() { p1(); p2(); }").expect("parse");
        let stats = assert_dense_matches_reference(&f, 10);
        assert_eq!(stats.evaluations, 1, "a single run decides everything");
        assert_eq!(stats.generations, 0);
    }

    #[test]
    fn dense_search_handles_a_single_value_domain() {
        let src = r#"
            void f(char k __range(3, 3), char b __range(0, 5)) {
                if (k == 3) { p1(); } else { p2(); }
                if (b > 2) { p3(); }
            }
        "#;
        let f = parse_function(src).expect("parse");
        for bound in [1, 10] {
            let stats = assert_dense_matches_reference(&f, bound);
            assert!(stats.evaluations <= 6, "only b varies: {stats:?}");
        }
    }

    #[test]
    fn dense_search_scores_faulting_runs_like_the_reference() {
        // `a == 0` divides by zero: that run faults, is memoised as such
        // and scores 0 in every later generation too.  The rare `c` ranges
        // are found generations in, so which vector covers them depends
        // on how faulting individuals fared in selection.
        let src = r#"
            void f(char a __range(0, 3), int c __range(0, 1000)) {
                char q = 0;
                q = 12 / a;
                if (q > 5) { p1(); } else { p2(); }
                if (c > 990) { p3(); }
                if (c < 10) { p4(); }
                if (c == 500) { p5(); }
            }
        "#;
        let f = parse_function(src).expect("parse");
        let lowered = build_cfg(&f);
        let machine = Machine::new(&lowered.cfg, &f, CostModel::hcs12());
        assert!(machine.run_params(&[0, 0]).is_err(), "a == 0 must fault");
        assert!(machine.run_params(&[1, 0]).is_ok());
        for bound in [1, 1000] {
            assert_dense_matches_reference(&f, bound);
        }
    }

    #[test]
    fn dense_search_dedupes_individuals_within_a_generation() {
        // Two input vectors and 32 individuals: the first generation alone
        // repeats each vector many times.
        let src = "void f(bool a) { if (a) { p1(); } else { p2(); } p3(); }";
        let f = parse_function(src).expect("parse");
        for bound in [1, 10] {
            let stats = assert_dense_matches_reference(&f, bound);
            assert!(stats.evaluations <= 2, "{stats:?}");
            assert!(stats.memo_hits >= 30, "{stats:?}");
        }
    }

    #[test]
    fn the_memo_runs_each_distinct_vector_at_most_once_per_search() {
        // 16 input vectors; the infeasible pair keeps the search running
        // until it stalls, so many generations repeat old individuals.
        let src = r#"
            void f(char a __range(0, 3), char b __range(0, 3)) {
                if (a > 2) { p1(); }
                if (a < 1) { p2(); }
                if (b == 2) { p3(); }
            }
        "#;
        let f = parse_function(src).expect("parse");
        let lowered = build_cfg(&f);
        let plan = PartitionPlan::compute(&lowered, 100);
        let generator = HybridGenerator::new();
        let (_, stats) = heuristic_only(&generator, &f, &lowered, &plan);
        assert!(
            stats.generations > generator.heuristic.stall_generations as u64,
            "{stats:?}"
        );
        assert!(stats.evaluations <= 16, "{stats:?}");
        assert_eq!(
            stats.evaluations + stats.memo_hits,
            stats.generations * generator.heuristic.population as u64,
            "every individual is either run or served from the memo"
        );
        // The registry counters take each search's counts (other tests may
        // add to them concurrently, never subtract).
        let before = metrics::snapshot();
        generator.generate(&f, &lowered, &plan);
        let after = metrics::snapshot();
        assert!(after.heuristic_evaluations - before.heuristic_evaluations >= stats.evaluations);
        assert!(after.heuristic_memo_hits - before.heuristic_memo_hits >= stats.memo_hits);
        assert!(after.heuristic_generations - before.heuristic_generations >= stats.generations);
    }

    #[test]
    fn batching_is_the_default() {
        assert!(HybridGenerator::new().batch_queries);
        assert!(!HybridGenerator::new().unbatched().batch_queries);
    }

    #[test]
    fn shared_model_generation_is_bit_identical() {
        // The pipeline hands the generator a model prepared once with the
        // union of every branch statement; suites must match the plain path
        // exactly, including checker-resolved and infeasible goals.
        let src = r#"
            void f(int a __range(0, 9000), char b __range(0, 3)) {
                if (a == 4321) { rare(); }
                if (b > 2) { p1(); }
                if (b < 1) { p2(); }
            }
        "#;
        let f = parse_function(src).expect("parse");
        let lowered = build_cfg(&f);
        let union: std::collections::HashSet<tmg_minic::StmtId> = lowered
            .cfg
            .blocks()
            .iter()
            .filter_map(|blk| match &blk.terminator {
                Terminator::Branch { stmt, .. } | Terminator::Switch { stmt, .. } => Some(*stmt),
                _ => None,
            })
            .collect();
        let generator = HybridGenerator::new();
        let shared = generator
            .checker
            .prepare_shared(&f, union)
            .expect("shared model");
        for bound in [1u128, 1000] {
            let plan = PartitionPlan::compute(&lowered, bound);
            let with_model = generator.generate_with_model(&f, &lowered, &plan, Some(&shared));
            let plain = generator.generate(&f, &lowered, &plan);
            assert_eq!(with_model, plain, "bound {bound}");
        }
    }

    #[test]
    fn paths_to_block_reach_nested_blocks() {
        let src = "void f(char a __range(0, 1)) { if (a) { inner(); } outer(); }";
        let f = parse_function(src).expect("parse");
        let lowered = build_cfg(&f);
        // Find the block containing `inner()`.
        let inner_block = lowered
            .cfg
            .blocks()
            .iter()
            .find(|b| {
                b.stmts.iter().any(
                    |s| matches!(s, tmg_minic::ast::Stmt::Call { callee, .. } if callee == "inner"),
                )
            })
            .expect("inner block")
            .id;
        let paths = paths_to_block(&lowered, inner_block, 16);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].decisions.len(), 1);
    }
}
