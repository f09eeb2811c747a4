//! The simulated target machine: instrumented execution with a cycle counter.

use crate::compile::CompiledFunction;
use crate::cost::CostModel;
use crate::exec::{CStmt, CTerm, ExecProgram};
use rustc_hash::{FxHashMap, FxHashSet};
use serde::{Deserialize, Serialize};
use std::fmt;
use tmg_cfg::{BlockId, Cfg};
use tmg_minic::ast::{Function, StmtId};
use tmg_minic::interp::BranchChoice;
use tmg_minic::value::InputVector;

/// Identity of an instrumentation point within one measurement campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PointId(pub u32);

impl PointId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PointId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ip{}", self.0)
    }
}

/// A cycle-counter read placed on one CFG edge.
///
/// On the real target this is a `LDD TCNT; STD buffer` pair inserted at a
/// segment boundary; here it is attached to the control edge the boundary
/// corresponds to, and fires whenever execution crosses that edge.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InstrumentationPoint {
    /// Point identity (unique within one campaign).
    pub id: PointId,
    /// The control edge `(from, to)` the read is placed on.
    pub edge: (BlockId, BlockId),
    /// Human-readable label ("seg3 entry"), for reports.
    pub label: String,
}

/// One cycle-counter reading taken during an instrumented run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterEvent {
    /// Which instrumentation point fired.
    pub point: PointId,
    /// Counter value at the moment of the read (the cost of the read itself
    /// is charged after recording).
    pub cycles: u64,
}

/// One recorded call statement: `(interned callee name id, evaluated
/// argument values)`, in execution order (see [`Machine::run_recorded`]).
pub(crate) type CallRecord = (u32, Vec<i64>);

/// Complete record of one instrumented run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// Total cycles of the run (instrumentation overhead included).
    pub cycles: u64,
    /// Branch decisions in execution order — the executed path's identity,
    /// comparable with
    /// [`ExecTrace::branch_signature`](tmg_minic::interp::ExecTrace::branch_signature).
    pub branch_signature: Vec<(StmtId, BranchChoice)>,
    /// Every basic block entered at least once.
    pub executed_blocks: FxHashSet<BlockId>,
    /// Counter readings in execution order (empty for uninstrumented runs).
    pub events: Vec<CounterEvent>,
    /// Value returned by the function, if any.
    pub return_value: Option<i64>,
}

/// Error raised when the target faults during a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetError(String);

impl TargetError {
    pub(crate) fn new(message: String) -> TargetError {
        TargetError(message)
    }
}

impl fmt::Display for TargetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "target fault: {}", self.0)
    }
}

impl std::error::Error for TargetError {}

/// Hard cap on executed blocks per run, guarding against malformed CFGs whose
/// loops lack enforceable bounds.
const MAX_BLOCK_VISITS: u64 = 50_000_000;

/// The simulated machine: a compiled function plus a cost model, executable
/// once per input vector.
///
/// Construction compiles the CFG once; runs are then read-only and the
/// machine is freely shareable across threads (the parallel test-data
/// generator runs many vectors against one machine).
#[derive(Debug, Clone)]
pub struct Machine<'a> {
    cfg: &'a Cfg,
    cost_model: CostModel,
    compiled: CompiledFunction,
    /// The slot-resolved execution program (expressions, statements,
    /// terminators and cycle charges pre-computed out of the hot run loop).
    exec: ExecProgram,
}

impl<'a> Machine<'a> {
    /// Compiles `cfg` for execution under `cost_model`.
    pub fn new(cfg: &'a Cfg, function: &'a Function, cost_model: CostModel) -> Machine<'a> {
        let compiled = CompiledFunction::compile(cfg);
        let exec = ExecProgram::compile(cfg, function, &cost_model, &compiled);
        Machine {
            cfg,
            cost_model,
            compiled,
            exec,
        }
    }

    /// The compiled per-block cycle aggregates.
    pub fn compiled(&self) -> &CompiledFunction {
        &self.compiled
    }

    /// The machine's cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost_model
    }

    /// Executes the function on `inputs` with the given instrumentation
    /// points active.
    ///
    /// Missing parameters default to zero and locals start at their
    /// initialiser (or zero), exactly like the reference interpreter.  Every
    /// time control crosses an edge carrying instrumentation points, one
    /// [`CounterEvent`] per point is recorded (in `points` order) and the
    /// read cost is charged afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`TargetError`] on division by zero, on a loop exceeding its
    /// declared bound, or when the run does not terminate within the safety
    /// budget.
    pub fn run(
        &self,
        inputs: &InputVector,
        points: &[InstrumentationPoint],
    ) -> Result<RunResult, TargetError> {
        let mut calls = Vec::new();
        self.run_impl::<false>(|_, name| inputs.get(name).unwrap_or(0), points, &mut calls)
    }

    /// Like [`Machine::run`] without instrumentation, taking the inputs as
    /// one value per parameter in `function.params` order (missing values
    /// default to zero).  The heuristic search keeps its individuals in
    /// this dense form, so its runs skip building a name-keyed
    /// [`InputVector`]; the result is the same as running the equivalent
    /// vector.
    ///
    /// # Errors
    ///
    /// As [`Machine::run`].
    pub fn run_params(&self, values: &[i64]) -> Result<RunResult, TargetError> {
        let mut calls = Vec::new();
        self.run_impl::<false>(|i, _| values.get(i).copied().unwrap_or(0), &[], &mut calls)
    }

    /// Like [`Machine::run`] without instrumentation, additionally recording
    /// every executed call statement as `(interned callee name id, evaluated
    /// argument values)` in execution order.  The module machine replays
    /// these records to execute defined callees; the recording branch is
    /// monomorphised out of the plain [`Machine::run`] path.
    pub(crate) fn run_recorded(
        &self,
        inputs: &InputVector,
    ) -> Result<(RunResult, Vec<CallRecord>), TargetError> {
        let mut calls = Vec::new();
        let result =
            self.run_impl::<true>(|_, name| inputs.get(name).unwrap_or(0), &[], &mut calls)?;
        Ok((result, calls))
    }

    /// Name behind an interned callee id of [`Machine::run_recorded`].
    pub(crate) fn interned_name(&self, id: u32) -> &str {
        self.exec.name(id)
    }

    /// The run loop; `param(i, name)` supplies the raw value of the `i`-th
    /// parameter.
    fn run_impl<const RECORD: bool>(
        &self,
        param: impl Fn(usize, &str) -> i64,
        points: &[InstrumentationPoint],
        calls: &mut Vec<CallRecord>,
    ) -> Result<RunResult, TargetError> {
        // Edge → point-ids lookup; built only for instrumented runs so the
        // (hot) heuristic-search path pays nothing.
        let edge_points: Option<FxHashMap<(BlockId, BlockId), Vec<PointId>>> = if points.is_empty()
        {
            None
        } else {
            let mut map: FxHashMap<(BlockId, BlockId), Vec<PointId>> =
                FxHashMap::with_capacity_and_hasher(points.len(), Default::default());
            for p in points {
                map.entry(p.edge).or_default().push(p.id);
            }
            Some(map)
        };

        let exec = &self.exec;
        let mut env: Vec<i64> = vec![0; exec.slot_tys.len()];
        for (i, (name, slot, ty)) in exec.params.iter().enumerate() {
            let raw = param(i, name);
            env[*slot as usize] = ty.wrap(raw);
        }
        for (slot, ty, init) in exec.locals.iter() {
            let init = match init {
                Some(id) => exec
                    .eval(*id, &env)
                    .map_err(|f| TargetError(exec.fault_message(f)))?,
                None => 0,
            };
            env[*slot as usize] = ty.wrap(init);
        }

        let mut cycles: u64 = 0;
        let mut events = Vec::new();
        let mut branch_signature = Vec::new();
        let mut executed_blocks =
            FxHashSet::with_capacity_and_hasher(self.cfg.block_count(), Default::default());
        let mut return_value: Option<i64> = None;
        let mut loop_iterations: Vec<u32> = vec![0; exec.loop_count];
        let mut visits: u64 = 0;

        let mut block_id = self.cfg.entry();
        loop {
            visits += 1;
            if visits > MAX_BLOCK_VISITS {
                return Err(TargetError(
                    "run exceeded the block-visit safety budget".to_owned(),
                ));
            }
            executed_blocks.insert(block_id);
            let block = &exec.blocks[block_id.index()];

            // Straight-line body: execute for semantics, charge in one go.
            for stmt in block.stmts.iter() {
                match stmt {
                    CStmt::Assign { slot, ty, value } => {
                        let v = exec
                            .eval(*value, &env)
                            .map_err(|f| TargetError(exec.fault_message(f)))?;
                        env[*slot as usize] = ty.wrap(v);
                    }
                    CStmt::AssignUnknown { name, value } => {
                        exec.eval(*value, &env)
                            .map_err(|f| TargetError(exec.fault_message(f)))?;
                        return Err(TargetError(
                            exec.fault_message(crate::exec::Fault::UnknownStore(*name)),
                        ));
                    }
                    CStmt::EvalArgs { callee, args } => {
                        if RECORD {
                            let mut values = Vec::with_capacity(args.len());
                            for a in args.iter() {
                                values.push(
                                    exec.eval(*a, &env)
                                        .map_err(|f| TargetError(exec.fault_message(f)))?,
                                );
                            }
                            calls.push((*callee, values));
                        } else {
                            for a in args.iter() {
                                exec.eval(*a, &env)
                                    .map_err(|f| TargetError(exec.fault_message(f)))?;
                            }
                        }
                    }
                    CStmt::Return { value } => {
                        if let Some(id) = value {
                            return_value = Some(
                                exec.eval(*id, &env)
                                    .map_err(|f| TargetError(exec.fault_message(f)))?,
                            );
                        }
                    }
                }
            }
            cycles += block.body_cycles;

            // Terminator: pick the successor, charge the taken outcome.
            let next = match &block.term {
                CTerm::Halt => break,
                CTerm::Jump { dest } => {
                    cycles += block.term_costs[0];
                    *dest
                }
                CTerm::Return { exit } => {
                    cycles += block.term_costs[0];
                    *exit
                }
                CTerm::Branch {
                    stmt,
                    cond,
                    then_dest,
                    else_dest,
                    looping,
                } => {
                    let taken = exec
                        .eval(*cond, &env)
                        .map_err(|f| TargetError(exec.fault_message(f)))?
                        != 0;
                    let choice = match (looping.is_some(), taken) {
                        (true, true) => BranchChoice::LoopIterate,
                        (true, false) => BranchChoice::LoopExit,
                        (false, true) => BranchChoice::Then,
                        (false, false) => BranchChoice::Else,
                    };
                    if let Some((index, bound)) = looping {
                        let iters = &mut loop_iterations[*index as usize];
                        if taken {
                            *iters += 1;
                            if *iters > *bound {
                                return Err(TargetError(format!(
                                    "loop {stmt} exceeded its declared bound of {bound} iterations"
                                )));
                            }
                        } else {
                            *iters = 0;
                        }
                    }
                    branch_signature.push((*stmt, choice));
                    cycles += block.term_costs[usize::from(!taken)];
                    if taken {
                        *then_dest
                    } else {
                        *else_dest
                    }
                }
                CTerm::Switch {
                    stmt,
                    selector,
                    arms,
                    default_dest,
                } => {
                    let sel = exec
                        .eval(*selector, &env)
                        .map_err(|f| TargetError(exec.fault_message(f)))?;
                    let matched = arms.iter().position(|(value, _)| *value == sel);
                    let (choice, outcome, dest) = match matched {
                        Some(i) => (BranchChoice::Case(arms[i].0), i, arms[i].1),
                        None => (BranchChoice::Default, arms.len(), *default_dest),
                    };
                    branch_signature.push((*stmt, choice));
                    cycles += block.term_costs[outcome];
                    dest
                }
            };

            // Instrumentation reads on the crossed edge.
            if let Some(map) = &edge_points {
                if let Some(ids) = map.get(&(block_id, next)) {
                    for &point in ids {
                        events.push(CounterEvent { point, cycles });
                        cycles += self.cost_model.read_cycle_counter;
                    }
                }
            }
            block_id = next;
        }

        Ok(RunResult {
            cycles,
            branch_signature,
            executed_blocks,
            events,
            return_value,
        })
    }

    /// End-to-end execution time of an uninstrumented run.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Machine::run`].
    pub fn end_to_end_cycles(&self, inputs: &InputVector) -> Result<u64, TargetError> {
        self.run(inputs, &[]).map(|r| r.cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmg_cfg::build_cfg;
    use tmg_minic::value::InputVector;
    use tmg_minic::{parse_function, parse_program, Interpreter};

    fn machine_for(src: &str) -> (Function, tmg_cfg::LoweredFunction) {
        let f = parse_function(src).expect("parse");
        let lowered = build_cfg(&f);
        (f, lowered)
    }

    #[test]
    fn branch_signature_matches_the_reference_interpreter() {
        let src = r#"
            void f(char a __range(0, 3), char b __range(0, 3)) {
                if (a > 1) { x(); } else { y(); }
                switch (b) { case 0: z0(); break; case 2: z2(); break; default: d(); break; }
            }
        "#;
        let (f, lowered) = machine_for(src);
        let machine = Machine::new(&lowered.cfg, &f, CostModel::hcs12());
        let program = parse_program(src).expect("parse");
        for a in 0..=3 {
            for b in 0..=3 {
                let iv = InputVector::new().with("a", a).with("b", b);
                let run = machine.run(&iv, &[]).expect("machine run");
                let oracle = Interpreter::new(&program).run("f", &iv).expect("interp");
                assert_eq!(
                    run.branch_signature,
                    oracle.trace.branch_signature(),
                    "a={a} b={b}"
                );
            }
        }
    }

    #[test]
    fn longer_paths_cost_more_cycles() {
        let (f, lowered) =
            machine_for("void f(char a __range(0, 1)) { if (a) { x(); y(); z(); } }");
        let machine = Machine::new(&lowered.cfg, &f, CostModel::hcs12());
        let short = machine
            .end_to_end_cycles(&InputVector::new().with("a", 0))
            .expect("run");
        let long = machine
            .end_to_end_cycles(&InputVector::new().with("a", 1))
            .expect("run");
        assert!(long > short + 3 * CostModel::hcs12().call_overhead - 1);
    }

    #[test]
    fn loop_cycles_scale_with_iterations() {
        let src = "void f(char n __range(0, 5)) { char i = 0; while (i < n) __bound(5) { body(); i = i + 1; } }";
        let (f, lowered) = machine_for(src);
        let machine = Machine::new(&lowered.cfg, &f, CostModel::hcs12());
        let mut last = 0;
        for n in 0..=5 {
            let cycles = machine
                .end_to_end_cycles(&InputVector::new().with("n", n))
                .expect("run");
            assert!(cycles > last, "n={n}");
            last = cycles;
        }
    }

    #[test]
    fn violated_loop_bound_faults() {
        let src = "void f(char n) { char i = 0; while (i < n) __bound(2) { i = i + 1; } }";
        let (f, lowered) = machine_for(src);
        let machine = Machine::new(&lowered.cfg, &f, CostModel::hcs12());
        let err = machine
            .end_to_end_cycles(&InputVector::new().with("n", 100))
            .expect_err("bound violation");
        assert!(err.to_string().contains("exceeded"));
    }

    #[test]
    fn division_by_zero_faults() {
        let (f, lowered) = machine_for("void f(char a) { char b; b = 10 / a; }");
        let machine = Machine::new(&lowered.cfg, &f, CostModel::hcs12());
        assert!(machine
            .end_to_end_cycles(&InputVector::new().with("a", 0))
            .is_err());
    }

    #[test]
    fn instrumentation_records_events_and_charges_the_reads() {
        let (f, lowered) = machine_for("void f() { work(); }");
        let machine = Machine::new(&lowered.cfg, &f, CostModel::hcs12());
        let entry_edge = (
            lowered.cfg.entry(),
            lowered.cfg.successors(lowered.cfg.entry())[0],
        );
        let exit_block = lowered.cfg.predecessors(lowered.cfg.exit())[0];
        let exit_edge = (exit_block, lowered.cfg.exit());
        let points = vec![
            InstrumentationPoint {
                id: PointId(0),
                edge: entry_edge,
                label: "entry".to_owned(),
            },
            InstrumentationPoint {
                id: PointId(1),
                edge: exit_edge,
                label: "exit".to_owned(),
            },
        ];
        let plain = machine.run(&InputVector::new(), &[]).expect("plain");
        let instrumented = machine
            .run(&InputVector::new(), &points)
            .expect("instrumented");
        assert!(plain.events.is_empty());
        assert_eq!(instrumented.events.len(), 2);
        assert_eq!(instrumented.events[0].point, PointId(0));
        let sample = instrumented.events[1].cycles - instrumented.events[0].cycles;
        assert!(
            sample >= plain.cycles,
            "measured sample {sample} must cover the uninstrumented run {}",
            plain.cycles
        );
        assert_eq!(
            instrumented.cycles,
            plain.cycles + 2 * CostModel::hcs12().read_cycle_counter
        );
    }

    #[test]
    fn run_params_takes_values_in_parameter_order() {
        // Parameters declared out of name order, and a value the `char`
        // parameter wraps: the dense entry must match the named vector.
        let (f, lowered) = machine_for(
            "int f(char b, int a __range(0, 9)) { if (a > 4) { x(); } return a * 100 + b; }",
        );
        let machine = Machine::new(&lowered.cfg, &f, CostModel::hcs12());
        for (b, a) in [(3, 7), (300, 2), (-5, 0)] {
            let named = machine
                .run(&InputVector::new().with("a", a).with("b", b), &[])
                .expect("run");
            assert_eq!(machine.run_params(&[b, a]).expect("run"), named);
        }
        assert_eq!(
            machine.run_params(&[]).expect("run"),
            machine.run(&InputVector::new(), &[]).expect("run"),
            "missing values default to zero"
        );
    }

    #[test]
    fn return_value_is_captured() {
        let (f, lowered) = machine_for("int f(int a) { return a + 1; }");
        let machine = Machine::new(&lowered.cfg, &f, CostModel::hcs12());
        let run = machine
            .run(&InputVector::new().with("a", 41), &[])
            .expect("run");
        assert_eq!(run.return_value, Some(42));
    }

    #[test]
    fn executed_blocks_cover_the_taken_path_only() {
        let (f, lowered) =
            machine_for("void f(char a __range(0, 1)) { if (a) { x(); } else { y(); } }");
        let machine = Machine::new(&lowered.cfg, &f, CostModel::hcs12());
        let then_run = machine
            .run(&InputVector::new().with("a", 1), &[])
            .expect("run");
        let else_run = machine
            .run(&InputVector::new().with("a", 0), &[])
            .expect("run");
        assert_ne!(then_run.executed_blocks, else_run.executed_blocks);
        assert!(then_run.executed_blocks.contains(&lowered.cfg.entry()));
    }
}
