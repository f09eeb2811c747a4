//! Explicit-state bounded reachability checker — the reproduction's stand-in
//! for the SAL 2 model checker.
//!
//! The query the WCET pipeline needs is always the same: *is there an input
//! assignment that drives execution down a selected path, and if so, which
//! one?*  The checker answers it by a depth-first search over concrete states
//! `(location, valuation)` of the encoded transition system.  Variables whose
//! value is unknown (function parameters and uninitialised locals — the
//! paper's `D_I`) are enumerated lazily: the search splits over a variable's
//! domain the first time its value is actually read.  The cost of a query is
//! therefore governed by exactly the quantities the Section 3.2 optimisations
//! reduce: the width of variable domains, the number of variables in the
//! state vector and the number of transitions.
//!
//! This module holds the checker's interface: queries, verdicts, cost
//! statistics, the configuration and the cacheable [`SharedCheckModel`].
//! Every search runs on the one explorer in [`crate::multiquery`].  A batch
//! of queries shares one exploration, and a single query (a
//! [`ModelChecker::find_test_data`] call, a solo batch, a budget fallback,
//! the slicing path's pinned witness completion) is a one-query
//! exploration.  The explorer keeps every live state packed in one
//! contiguous arena and evaluates pre-resolved (index-based) expressions
//! from a [`PreparedModel`].

use crate::encode::encode_function;
use crate::model::{Model, VarRole};
use crate::multiquery::MultiQueryEngine;
use crate::opt::{apply_optimisations_preserving, OptReport, Optimisations};
use crate::prepared::{OwnedPreparedModel, PreparedModel};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::time::Duration;
use tmg_minic::ast::{Function, StmtId};
use tmg_minic::interp::BranchChoice;
use tmg_minic::value::InputVector;

/// A path query: the ordered branch decisions the witness execution must take.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PathQuery {
    /// Decisions in execution order (typically the decisions of one program
    /// segment path, produced by [`tmg_cfg::enumerate_region_paths`]).
    pub decisions: Vec<(StmtId, BranchChoice)>,
    /// Statements mentioned by the decisions, computed once at construction
    /// (the optimisation passes and the multi-query relevance filter consult
    /// it repeatedly).
    stmts: HashSet<StmtId>,
}

impl PartialEq for PathQuery {
    fn eq(&self, other: &PathQuery) -> bool {
        // The statement set is derived from the decisions; comparing it would
        // only repeat the comparison.
        self.decisions == other.decisions
    }
}

impl Eq for PathQuery {}

impl PathQuery {
    /// Creates a query from a decision sequence.
    pub fn new(decisions: Vec<(StmtId, BranchChoice)>) -> PathQuery {
        let stmts = decisions.iter().map(|(s, _)| *s).collect();
        PathQuery { decisions, stmts }
    }

    /// A query satisfied by any execution (used to probe reachability of the
    /// function end, e.g. in the Table-2 ablation).
    pub fn any_execution() -> PathQuery {
        PathQuery::default()
    }

    /// Statements mentioned by the query.
    pub fn stmts(&self) -> &HashSet<StmtId> {
        &self.stmts
    }
}

/// Verdict of a check.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CheckOutcome {
    /// A witness input assignment driving the requested path was found.
    Feasible {
        /// Values for the function parameters (the paper's "test data
        /// pattern").
        witness: InputVector,
        /// Transitions along the witness run up to query completion.
        steps: u64,
    },
    /// The search space was exhausted without a witness: the path is
    /// infeasible (within the bounded domains and loop bounds).
    Infeasible,
    /// The search budget was exhausted before a verdict was reached.
    Unknown,
}

impl CheckOutcome {
    /// The witness input vector, if the path is feasible.
    pub fn witness(&self) -> Option<&InputVector> {
        match self {
            CheckOutcome::Feasible { witness, .. } => Some(witness),
            _ => None,
        }
    }

    /// Whether the path was proven infeasible.
    pub fn is_infeasible(&self) -> bool {
        matches!(self, CheckOutcome::Infeasible)
    }
}

/// Cost statistics of one check — the quantities reported in Table 2.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CheckStats {
    /// Total transitions fired during the search (∝ checking time).
    pub transitions_fired: u64,
    /// Concrete states created (splits included).
    pub states_created: u64,
    /// Deepest run explored.
    pub max_depth: u64,
    /// Bits of the encoded state vector.
    pub state_bits: u32,
    /// Bytes of one packed state.
    pub state_bytes: u64,
    /// Estimated memory for the explored-state store
    /// (`states_created × state_bytes`), the analogue of the paper's
    /// "memory use" column.
    pub memory_estimate_bytes: u64,
    /// Transitions along the witness run (the paper's "steps" column), if a
    /// witness was found.
    pub witness_steps: Option<u64>,
    /// Number of transitions in the checked model.
    pub model_transitions: usize,
    /// Number of state variables in the checked model.
    pub model_vars: usize,
    /// Wall-clock time of the search.
    pub duration: Duration,
}

/// Result of one model-checking query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckResult {
    /// Feasible / infeasible / unknown.
    pub outcome: CheckOutcome,
    /// Search cost statistics.
    pub stats: CheckStats,
    /// What the source-level optimisation passes did (empty when checking a
    /// pre-built model).
    pub opt_report: OptReport,
}

/// Explicit-state bounded model checker.
#[derive(Clone)]
pub struct ModelChecker {
    /// Optimisations applied before encoding in [`ModelChecker::find_test_data`].
    pub optimisations: Optimisations,
    /// Maximum number of transitions fired before giving up with
    /// [`CheckOutcome::Unknown`].
    pub max_transitions: u64,
    /// Maximum length of a single run (guards against loops whose bound
    /// annotation is violated for some inputs).
    pub max_depth: u64,
    /// Cone-of-influence slicing for multi-query batches
    /// ([`ModelChecker::check_many_shared`]): before the shared exploration
    /// runs, the batch model is sliced to the def/use cone of the queried
    /// decisions ([`crate::opt::slice_for_queries`]) — variables, assignments
    /// and whole unqueried branches that cannot affect any query's verdict
    /// are dropped, shrinking both the state vector and the set of domain
    /// splits.  Witnesses found on the slice are completed against the full
    /// model by a pinned re-search, so reported witnesses and step counts
    /// stay full-model-consistent; a completion that fails to replay falls
    /// back to the ordinary per-query search.  Part of the checker's
    /// `Debug`-rendered configuration, so the pipeline's content-addressed
    /// artifact keys change with it.
    pub slicing: bool,
    /// Cooperative cancellation handle, polled at shard-claim boundaries of
    /// the explorer and before every per-query search.  A fired token makes
    /// the search *unwind* with [`crate::cancel::Cancelled`] (caught by
    /// [`crate::cancel::catch_cancel`] at the pipeline boundary) rather than
    /// return a weaker verdict — a cancelled search never produces, and
    /// therefore never caches, a result.  Runtime-only state: deliberately
    /// excluded from the checker's `Debug` rendering so the
    /// content-addressed artifact keys are deadline-independent.
    pub cancel: crate::cancel::CancelToken,
}

impl Default for ModelChecker {
    fn default() -> Self {
        ModelChecker::new()
    }
}

impl std::fmt::Debug for ModelChecker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Renders the configuration fields only: the persistent artifact
        // keys hash this string, and a per-request deadline must not
        // fragment the cache (see `tmg_core::pipeline`'s key derivation).
        f.debug_struct("ModelChecker")
            .field("optimisations", &self.optimisations)
            .field("max_transitions", &self.max_transitions)
            .field("max_depth", &self.max_depth)
            .field("slicing", &self.slicing)
            .finish()
    }
}

impl ModelChecker {
    /// A checker with all optimisations enabled and default budgets.
    pub fn new() -> ModelChecker {
        ModelChecker::with_optimisations(Optimisations::all())
    }

    /// A checker with the given optimisation set.
    pub fn with_optimisations(optimisations: Optimisations) -> ModelChecker {
        ModelChecker {
            optimisations,
            max_transitions: 50_000_000,
            max_depth: 100_000,
            slicing: true,
            cancel: crate::cancel::CancelToken::none(),
        }
    }

    /// Sets the transition budget.
    pub fn with_budget(mut self, max_transitions: u64) -> ModelChecker {
        self.max_transitions = max_transitions;
        self
    }

    /// Enables or disables cone-of-influence slicing for multi-query batches
    /// (see [`ModelChecker::slicing`]; used by the bench to isolate the
    /// slicing speedup).
    pub fn with_slicing(mut self, slicing: bool) -> ModelChecker {
        self.slicing = slicing;
        self
    }

    /// Installs a cooperative cancellation token (see
    /// [`ModelChecker::cancel`]).  Does not affect artifact keys.
    pub fn with_cancel(mut self, cancel: crate::cancel::CancelToken) -> ModelChecker {
        self.cancel = cancel;
        self
    }

    /// Generates test data for `query` on `function`: applies the configured
    /// optimisations, encodes the function and searches for a witness.
    pub fn find_test_data(&self, function: &Function, query: &PathQuery) -> CheckResult {
        let (optimised, opt_report) =
            apply_optimisations_preserving(function, &self.optimisations, query.stmts());
        let model = encode_function(&optimised, &self.optimisations.encode_options());
        let mut result = self.check_model(&model, query);
        result.opt_report = opt_report;
        result
    }

    /// Runs the search on an already-encoded model.
    pub fn check_model(&self, model: &Model, query: &PathQuery) -> CheckResult {
        self.check_prepared(&PreparedModel::new(model), query)
    }

    /// Answers a batch of path queries over one function, sharing a single
    /// state-space exploration across all of them whenever that is provably
    /// equivalent to asking each query on its own.
    ///
    /// The shared path requires that the source-level optimisations produce
    /// the same function under every query's preserve set
    /// ([`crate::opt::shared_optimisation_for_queries`]); otherwise — and
    /// for the queries a budget-exhausted shared exploration leaves
    /// unresolved — the method falls back to per-query
    /// [`ModelChecker::find_test_data`].  Either way every returned
    /// [`CheckOutcome`] (verdict, witness and step count) is bit-identical to
    /// the per-query search on every search that settles within the
    /// transition budget (slicing's witness caveat aside, see
    /// [`ModelChecker::slicing`]).  Budget-limited searches carry the
    /// explorer's one caveat: once a shard's sub-DFS passes 2²⁰ pops its
    /// revisit dedup may engage and settle a verdict the undeduped
    /// accounting reports as [`CheckOutcome::Unknown`] (see
    /// [`crate::multiquery`]).  Only the cost statistics always differ,
    /// because batched queries report the cost of the shared exploration.
    pub fn check_many(&self, function: &Function, queries: &[PathQuery]) -> Vec<CheckResult> {
        if queries.len() < 2 {
            return self.check_each(function, queries);
        }
        let union: HashSet<StmtId> = queries
            .iter()
            .flat_map(|q| q.stmts().iter().copied())
            .collect();
        match self.prepare_shared(function, union) {
            Some(shared) => self.check_many_shared(function, &shared, queries),
            // Some query's preserve set changes the optimised source: the
            // shared model would not be the model each query is defined over.
            None => self.check_each(function, queries),
        }
    }

    /// Optimises, encodes and prepares `function` once for every batch of
    /// path queries whose statements fall within `union`, or `None` when no
    /// single optimised source serves them all
    /// ([`crate::opt::shared_optimisation_for_queries`]).
    ///
    /// Because removal sets are anti-monotone in the preserve set, a model
    /// prepared for `union` is also valid for any batch whose statement
    /// union is a *subset* of `union` — so preparing once with the union of
    /// every branch statement of the function yields an artifact reusable
    /// across path bounds and across [`check_many_shared`] batches, which is
    /// exactly how the staged pipeline caches it.
    ///
    /// [`check_many_shared`]: ModelChecker::check_many_shared
    pub fn prepare_shared(
        &self,
        function: &Function,
        union: HashSet<StmtId>,
    ) -> Option<SharedCheckModel> {
        let (optimised, opt_report) =
            crate::opt::shared_optimisation_for_queries(function, &self.optimisations, &union)?;
        let model = encode_function(&optimised, &self.optimisations.encode_options());
        Some(SharedCheckModel {
            prepared: OwnedPreparedModel::new(model),
            opt_report,
            union,
        })
    }

    /// Like [`check_many`](ModelChecker::check_many), but against a model
    /// previously built by [`prepare_shared`](ModelChecker::prepare_shared),
    /// skipping the per-batch optimisation, encoding and preparation.
    ///
    /// Outcomes are identical to `check_many` (and therefore to per-query
    /// [`find_test_data`](ModelChecker::find_test_data)): when the shared
    /// optimisation check succeeded, the prepared model *is* the
    /// preserve-free optimised model regardless of which union it was
    /// verified with — and, by the anti-monotonicity argument of
    /// [`crate::opt::shared_optimisation_for_queries`], also the model each
    /// covered query's own preserve set would produce — so any covered
    /// batch (even a solo query) explores the same state space.  A query the
    /// shared model does not cover (a statement outside the prepared union)
    /// drops the whole batch back to `check_many`, which re-verifies with
    /// the batch's own union.
    pub fn check_many_shared(
        &self,
        function: &Function,
        shared: &SharedCheckModel,
        queries: &[PathQuery],
    ) -> Vec<CheckResult> {
        if !queries.iter().all(|q| shared.covers(q)) {
            return self.check_many(function, queries);
        }
        let prepared = shared.prepared.view();
        let off_shared = |q: &PathQuery| {
            let mut result = self.check_prepared(&prepared, q);
            result.opt_report = shared.opt_report.clone();
            result
        };
        if queries.len() < 2 {
            // Solo batches answer straight off the cached model: a
            // one-query exploration, with nothing to re-encode.
            return queries.iter().map(off_shared).collect();
        }
        if self.slicing {
            if let Some(results) = self.check_many_sliced(function, shared, queries) {
                return results;
            }
        }
        let explored = MultiQueryEngine::explore(self, &prepared, queries);
        queries
            .iter()
            .enumerate()
            .map(|(i, q)| match explored.result(i) {
                Some(mut result) => {
                    result.opt_report = shared.opt_report.clone();
                    result
                }
                // Budget exhausted before this query settled: re-ask alone,
                // still on the cached model.
                None => off_shared(q),
            })
            .collect()
    }

    /// The slicing fast path of [`check_many_shared`]: builds a
    /// cone-of-influence slice of `function` for this batch's statement
    /// union, explores the (smaller) sliced model instead of the full one,
    /// and completes every feasible witness against the full model.
    ///
    /// Returns `None` when slicing cannot help — the cone covers the whole
    /// function, or the sliced source fails the shared-optimisation
    /// preserve-insensitivity check — in which case the caller proceeds on
    /// the full cached model, bit-identically to a checker with slicing
    /// disabled.
    ///
    /// Verdicts are preserved by construction (see
    /// [`crate::opt::slice_for_queries`]).  Witnesses and step counts are
    /// produced by a one-query full-model search with the slice's relevant
    /// inputs pinned in its initial state: the search never splits over a
    /// pinned input, and its unconstrained splits take their lowest
    /// completing values, exactly as an unpinned search's would.  The
    /// completed witness usually coincides bit-for-bit with the unpinned
    /// full-model search's — the exception is a batch whose *dropped*
    /// statements read a relevant input before the kept code does, which
    /// shifts the full search's split order and can make it settle on a
    /// different (equally valid) lex-minimal assignment.  The binding
    /// contract is therefore the one the slicing equivalence suite pins:
    /// verdicts are bit-identical, and every witness is a feasible
    /// full-model witness for its query.  Any completion that fails to
    /// replay feasibly drops that query back to the ordinary per-query
    /// search — the slice never gets the last word on a witness.  The one
    /// intended divergence: a query whose full-model search would exhaust
    /// [`ModelChecker::max_transitions`] may settle to a definite verdict on
    /// the much cheaper slice.
    ///
    /// [`check_many_shared`]: ModelChecker::check_many_shared
    fn check_many_sliced(
        &self,
        function: &Function,
        shared: &SharedCheckModel,
        queries: &[PathQuery],
    ) -> Option<Vec<CheckResult>> {
        let union: HashSet<StmtId> = queries
            .iter()
            .flat_map(|q| q.stmts().iter().copied())
            .collect();
        let Some((sliced_fn, slice_report)) = crate::opt::slice_for_queries(function, &union)
        else {
            crate::metrics::add_slice_identity_batches(1);
            return None;
        };
        let (optimised, _) =
            crate::opt::shared_optimisation_for_queries(&sliced_fn, &self.optimisations, &union)?;
        let sliced_model = encode_function(&optimised, &self.optimisations.encode_options());
        let sliced = OwnedPreparedModel::new(sliced_model);
        crate::metrics::add_sliced_batches(1);
        crate::metrics::add_sliced_stmts(slice_report.removed_stmts as u64);
        crate::metrics::add_sliced_vars(slice_report.removed_vars.len() as u64);

        let full = shared.prepared.view();
        // Full-model state-vector indices of the inputs the slice actually
        // constrains; everything else is left free so the completing
        // re-search chooses exactly the values the unpinned full search
        // would.
        let relevant_inputs: Vec<(usize, String)> = shared
            .model()
            .vars
            .iter()
            .enumerate()
            .filter(|(_, v)| {
                v.role == VarRole::Input && slice_report.constrained_inputs.contains(&v.name)
            })
            .map(|(i, v)| (i, v.name.clone()))
            .collect();

        let explored = MultiQueryEngine::explore(self, &sliced.view(), queries);
        let results = queries
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let Some(result) = explored.result(i) else {
                    // Shared budget exhausted before this query settled.
                    let mut r = self.check_prepared(&full, q);
                    r.opt_report = shared.opt_report.clone();
                    return r;
                };
                let mut result = match result.outcome {
                    CheckOutcome::Feasible { ref witness, .. } => {
                        let pins: Vec<(usize, i64)> = relevant_inputs
                            .iter()
                            .filter_map(|(idx, name)| witness.get(name).map(|v| (*idx, v)))
                            .collect();
                        let completed = {
                            let _span = tmg_obs::span("checker:witness-completion");
                            MultiQueryEngine::check_one(self, &full, q, &pins)
                        };
                        match completed.outcome {
                            CheckOutcome::Feasible { witness, steps } => {
                                crate::metrics::add_witnesses_reconstructed(1);
                                let mut r = result;
                                r.stats.witness_steps = Some(steps);
                                r.outcome = CheckOutcome::Feasible { witness, steps };
                                r
                            }
                            // The completion oracle disagreed with the
                            // slice: distrust it and re-ask the full model
                            // from scratch.
                            _ => self.check_prepared(&full, q),
                        }
                    }
                    _ => result,
                };
                result.opt_report = shared.opt_report.clone();
                result
            })
            .collect();
        Some(results)
    }

    /// The per-query reference path: one independent search per query.
    fn check_each(&self, function: &Function, queries: &[PathQuery]) -> Vec<CheckResult> {
        queries
            .iter()
            .map(|q| self.find_test_data(function, q))
            .collect()
    }

    /// Runs the search on a [`PreparedModel`], reusing its outgoing
    /// transition index and pre-resolved expressions across queries.
    pub fn check_prepared(&self, prepared: &PreparedModel<'_>, query: &PathQuery) -> CheckResult {
        MultiQueryEngine::check_one(self, prepared, query, &[])
    }
}

/// An optimised, encoded and prepared model valid for every path-query batch
/// whose statement union is a subset of the union it was built with.
///
/// Built by [`ModelChecker::prepare_shared`]; consumed by
/// [`ModelChecker::check_many_shared`].  Owning (rather than borrowing) the
/// model makes it the payload of the pipeline's `PreparedModelArtifact`:
/// cached once per `(function, checker configuration)` and shared across
/// path bounds, repeated analyses and threads.
#[derive(Debug, Clone)]
pub struct SharedCheckModel {
    prepared: OwnedPreparedModel,
    opt_report: OptReport,
    union: HashSet<StmtId>,
}

impl SharedCheckModel {
    /// Reassembles a shared model from its encoded parts — the
    /// deserialization hook of the persistent artifact store.  The model
    /// preparation (outgoing-transition index, pre-resolved expression pool)
    /// is re-derived here, so the result behaves identically to the one
    /// [`ModelChecker::prepare_shared`] originally built; only the
    /// optimisation and encoding passes that produced `model` are skipped.
    pub fn from_parts(
        model: Model,
        opt_report: OptReport,
        union: HashSet<StmtId>,
    ) -> SharedCheckModel {
        SharedCheckModel {
            prepared: OwnedPreparedModel::new(model),
            opt_report,
            union,
        }
    }

    /// The encoded transition-system model.
    pub fn model(&self) -> &Model {
        self.prepared.model()
    }

    /// What the source-level optimisation passes did.
    pub fn opt_report(&self) -> &OptReport {
        &self.opt_report
    }

    /// The preserve-set union the model was verified with (every query whose
    /// statements fall inside it is covered).
    pub fn union(&self) -> &HashSet<StmtId> {
        &self.union
    }

    /// Whether the shared model is valid for `query` (every statement the
    /// query mentions was in the preserve union the model was verified with).
    pub fn covers(&self, query: &PathQuery) -> bool {
        query.stmts().is_subset(&self.union)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmg_cfg::{build_cfg, enumerate_region_paths};
    use tmg_minic::parse_function;
    use tmg_minic::parse_program;
    use tmg_minic::Interpreter;

    fn checker() -> ModelChecker {
        ModelChecker::new()
    }

    fn paths_of(src: &str) -> (Function, Vec<tmg_cfg::PathSpec>) {
        let f = parse_function(src).expect("parse");
        let lowered = build_cfg(&f);
        let paths =
            enumerate_region_paths(&lowered.cfg, lowered.regions.root(), 10_000).expect("paths");
        (f, paths)
    }

    use tmg_minic::ast::Function;

    #[test]
    fn finds_witness_for_every_feasible_path_of_a_nested_if() {
        let src = r#"
            void f(char a __range(0, 4), char b __range(0, 4)) {
                if (a > 2) { if (b == 1) { x(); } else { y(); } } else { z(); }
            }
        "#;
        let (f, paths) = paths_of(src);
        assert_eq!(paths.len(), 3);
        for path in &paths {
            let result = checker().find_test_data(&f, &PathQuery::new(path.decisions.clone()));
            let witness = result.outcome.witness().expect("feasible path").clone();
            // Replay on the interpreter and confirm the path is taken.
            let program = parse_program(src).expect("parse");
            let out = Interpreter::new(&program).run("f", &witness).expect("run");
            assert!(path.matches_trace(&out.trace.branch_signature()));
        }
    }

    #[test]
    fn proves_contradictory_paths_infeasible() {
        // a cannot be both > 2 and < 1.
        let src = r#"
            void f(char a __range(0, 4)) {
                if (a > 2) { x(); }
                if (a < 1) { y(); }
            }
        "#;
        let (f, paths) = paths_of(src);
        // The Then/Then path is infeasible.
        let infeasible: Vec<_> = paths
            .iter()
            .filter(|p| p.decisions.iter().all(|(_, c)| *c == BranchChoice::Then))
            .collect();
        assert_eq!(infeasible.len(), 1);
        let result = checker().find_test_data(&f, &PathQuery::new(infeasible[0].decisions.clone()));
        assert!(result.outcome.is_infeasible());
        // Feasible ones are found.
        let feasible = paths
            .iter()
            .filter(|p| !p.decisions.iter().all(|(_, c)| *c == BranchChoice::Then))
            .count();
        assert_eq!(feasible, 3);
    }

    #[test]
    fn switch_paths_yield_matching_selector_values() {
        let src = r#"
            void f(char s __range(0, 5)) {
                switch (s) { case 0: a0(); break; case 3: a3(); break; default: d(); break; }
            }
        "#;
        let (f, paths) = paths_of(src);
        for path in &paths {
            let result = checker().find_test_data(&f, &PathQuery::new(path.decisions.clone()));
            let witness = result.outcome.witness().expect("feasible").clone();
            match path.decisions[0].1 {
                BranchChoice::Case(v) => assert_eq!(witness.get("s"), Some(v)),
                BranchChoice::Default => {
                    let s = witness.get("s").expect("s");
                    assert!(s != 0 && s != 3);
                }
                other => panic!("unexpected decision {other:?}"),
            }
        }
    }

    #[test]
    fn any_execution_query_is_trivially_feasible() {
        let f = parse_function("void f(int a) { if (a) { g(); } }").expect("parse");
        let result = checker().find_test_data(&f, &PathQuery::any_execution());
        assert!(result.outcome.witness().is_some());
    }

    #[test]
    fn loop_iteration_counts_can_be_forced() {
        let src = r#"
            void f(char n __range(0, 3)) {
                char i = 0;
                while (i < n) __bound(3) { i = i + 1; }
            }
        "#;
        let f = parse_function(src).expect("parse");
        let lowered = build_cfg(&f);
        let paths =
            enumerate_region_paths(&lowered.cfg, lowered.regions.root(), 100).expect("paths");
        assert_eq!(paths.len(), 4);
        for (k, path) in paths.iter().enumerate() {
            let result = checker().find_test_data(&f, &PathQuery::new(path.decisions.clone()));
            let witness = result.outcome.witness().expect("feasible").clone();
            // Path k iterates the loop `iterations` times; the witness must
            // request exactly that many.
            let iterations = path
                .decisions
                .iter()
                .filter(|(_, c)| *c == BranchChoice::LoopIterate)
                .count() as i64;
            assert_eq!(witness.get("n"), Some(iterations), "path {k}");
        }
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        let src = "void f(int a, int b) { if (a == 12345 && b == 23456) { x(); } }";
        let f = parse_function(src).expect("parse");
        let mut paths = {
            let lowered = build_cfg(&f);
            enumerate_region_paths(&lowered.cfg, lowered.regions.root(), 10).expect("paths")
        };
        let then_path = paths.remove(0);
        let tight = ModelChecker::with_optimisations(Optimisations::none()).with_budget(1_000);
        let result = tight.find_test_data(&f, &PathQuery::new(then_path.decisions));
        assert_eq!(result.outcome, CheckOutcome::Unknown);
    }

    #[test]
    fn optimisations_reduce_search_cost() {
        let src = r#"
            void f(bool go, char speed __range(0, 2)) {
                char tmp; char unused1; char unused2; char dead;
                tmp = speed + 1;
                dead = dead + 1;
                if (go) { if (tmp == 3) { deep(); } else { shallow(); } } else { off(); }
            }
        "#;
        let (f, paths) = paths_of(src);
        let deep_path = paths
            .iter()
            .find(|p| {
                p.decisions.len() == 2 && p.decisions.iter().all(|(_, c)| *c == BranchChoice::Then)
            })
            .expect("deep path");
        let naive = ModelChecker::with_optimisations(Optimisations::none())
            .find_test_data(&f, &PathQuery::new(deep_path.decisions.clone()));
        let optimised = ModelChecker::with_optimisations(Optimisations::all())
            .find_test_data(&f, &PathQuery::new(deep_path.decisions.clone()));
        assert!(naive.outcome.witness().is_some());
        assert!(optimised.outcome.witness().is_some());
        assert!(
            optimised.stats.transitions_fired < naive.stats.transitions_fired,
            "optimised {} vs naive {}",
            optimised.stats.transitions_fired,
            naive.stats.transitions_fired
        );
        assert!(optimised.stats.state_bits < naive.stats.state_bits);
        assert!(optimised.stats.memory_estimate_bytes < naive.stats.memory_estimate_bytes);
    }

    #[test]
    fn statement_concatenation_shortens_witness_runs() {
        let src = r#"
            void f(bool go) {
                char a; char b; char c; char d;
                a = 1; b = 2; c = 3; d = 4;
                if (go) { x(); }
            }
        "#;
        let (f, paths) = paths_of(src);
        let path = PathQuery::new(paths[0].decisions.clone());
        let plain =
            ModelChecker::with_optimisations(Optimisations::none()).find_test_data(&f, &path);
        let concat = ModelChecker::with_optimisations(Optimisations {
            statement_concatenation: true,
            ..Optimisations::none()
        })
        .find_test_data(&f, &path);
        let plain_steps = plain.stats.witness_steps.expect("witness");
        let concat_steps = concat.stats.witness_steps.expect("witness");
        assert!(concat_steps < plain_steps, "{concat_steps} < {plain_steps}");
    }

    #[test]
    fn stats_are_populated() {
        let f = parse_function("void f(bool a) { if (a) { x(); } }").expect("parse");
        let result = checker().find_test_data(&f, &PathQuery::any_execution());
        assert!(result.stats.state_bits > 0);
        assert!(result.stats.model_transitions > 0);
        assert!(result.stats.states_created > 0);
        assert_eq!(
            result.stats.memory_estimate_bytes,
            result.stats.states_created * result.stats.state_bytes
        );
    }

    #[test]
    fn from_parts_rebuilds_an_equivalent_shared_model() {
        let src = r#"
            void f(char a __range(0, 4), char b __range(0, 3)) {
                if (a > 2) { x(); }
                if (a < 1) { y(); }
                if (b == 2) { z(); } else { w(); }
            }
        "#;
        let (f, paths) = paths_of(src);
        let queries: Vec<PathQuery> = paths
            .iter()
            .map(|p| PathQuery::new(p.decisions.clone()))
            .collect();
        let union: HashSet<StmtId> = queries
            .iter()
            .flat_map(|q| q.stmts().iter().copied())
            .collect();
        let mc = ModelChecker::new();
        let original = mc.prepare_shared(&f, union).expect("shared model");
        // Reassemble from the encoded parts, as the persistent store does
        // after a disk round-trip.
        let rebuilt = SharedCheckModel::from_parts(
            original.model().clone(),
            original.opt_report().clone(),
            original.union().clone(),
        );
        assert_eq!(original.model(), rebuilt.model());
        assert_eq!(original.opt_report(), rebuilt.opt_report());
        assert_eq!(original.union(), rebuilt.union());
        let via_original = mc.check_many_shared(&f, &original, &queries);
        let via_rebuilt = mc.check_many_shared(&f, &rebuilt, &queries);
        for (a, b) in via_original.iter().zip(&via_rebuilt) {
            assert_eq!(a.outcome, b.outcome, "rebuilt model diverges");
        }
    }

    #[test]
    fn prepared_model_is_reusable_across_queries() {
        let src = r#"
            void f(char a __range(0, 4), char b __range(0, 4)) {
                if (a > 2) { if (b == 1) { x(); } else { y(); } } else { z(); }
            }
        "#;
        let (f, paths) = paths_of(src);
        let model = crate::encode::encode_function(&f, &Optimisations::all().encode_options());
        let prepared = PreparedModel::new(&model);
        let mc = ModelChecker::new();
        for path in &paths {
            let query = PathQuery::new(path.decisions.clone());
            let via_prepared = mc.check_prepared(&prepared, &query);
            let via_model = mc.check_model(&model, &query);
            assert_eq!(via_prepared.outcome, via_model.outcome);
        }
    }

    #[test]
    fn shared_model_batches_agree_with_check_many_and_per_query() {
        // The shared model is prepared once with the union of *every* branch
        // statement (as the pipeline caches it), then answers batches whose
        // unions are strict subsets — outcomes must match both `check_many`
        // and the per-query reference.
        let src = r#"
            void f(char a __range(0, 4), char b __range(0, 3)) {
                if (a > 2) { x(); }
                if (a < 1) { y(); }
                if (b == 2) { z(); } else { w(); }
            }
        "#;
        let (f, paths) = paths_of(src);
        assert!(paths.len() >= 6);
        let all_queries: Vec<PathQuery> = paths
            .iter()
            .map(|p| PathQuery::new(p.decisions.clone()))
            .collect();
        let union: HashSet<StmtId> = all_queries
            .iter()
            .flat_map(|q| q.stmts().iter().copied())
            .collect();
        let mc = ModelChecker::new();
        let shared = mc
            .prepare_shared(&f, union)
            .expect("shared optimisation holds for plain branch code");
        // Full batch and a sub-batch (subset union) both go through the
        // cached artifact.
        for queries in [&all_queries[..], &all_queries[..2]] {
            let via_shared = mc.check_many_shared(&f, &shared, queries);
            let via_many = mc.check_many(&f, queries);
            for ((s, m), q) in via_shared.iter().zip(&via_many).zip(queries) {
                assert_eq!(s.outcome, m.outcome, "shared vs check_many");
                let single = mc.find_test_data(&f, q);
                assert_eq!(s.outcome, single.outcome, "shared vs per-query");
            }
        }
        // A query outside the prepared union falls back without changing
        // verdicts.
        let foreign = PathQuery::new(vec![(StmtId(9999), BranchChoice::Then)]);
        assert!(!shared.covers(&foreign));
        let mixed = vec![all_queries[0].clone(), foreign.clone()];
        let via_shared = mc.check_many_shared(&f, &shared, &mixed);
        let via_many = mc.check_many(&f, &mixed);
        for (s, m) in via_shared.iter().zip(&via_many) {
            assert_eq!(s.outcome, m.outcome);
        }
        assert!(!shared.model().transitions.is_empty());
    }
}
