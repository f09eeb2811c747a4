//! A deliberately naive reference explorer: the oracle the explorer's
//! equivalence tests compare against.  It shares no search code with
//! `tmg_tsys::multiquery` — no arena, signature lattice, shards or dedup,
//! and it evaluates the model's source expressions by name — but it keeps
//! the explorer's search order and op accounting, so verdicts, witnesses,
//! step counts and op totals must match exactly.
//!
//! Included as a module by the integration tests and by the library's unit
//! tests (which name the library `tmg_tsys` for it); never part of a build.
#![allow(dead_code)]

use rustc_hash::FxHashMap;
use std::collections::HashMap;
use tmg_minic::ast::{BinOp, Expr, Function};
use tmg_minic::interp::eval_expr;
use tmg_minic::value::InputVector;
use tmg_tsys::opt::apply_optimisations_preserving;
use tmg_tsys::{
    encode_function, CheckOutcome, CheckStats, Model, ModelChecker, PathQuery, VarRole,
};

/// Variable name → state-vector index.
type Index<'a> = HashMap<&'a str, usize>;

/// Evaluates `e` left to right with the interpreter's operators.  Stops at
/// the first unset variable it reads with `Err(Some(index))` (split on it),
/// or at a fault — an unknown name, a division by zero — with `Err(None)`
/// (the transition is disabled).
fn eval(e: &Expr, vals: &[Option<i64>], index: &Index) -> Result<i64, Option<usize>> {
    let folded = match e {
        Expr::Int(v) => return Ok(*v),
        Expr::Var(name) => {
            let &i = index.get(name.as_str()).ok_or(None)?;
            return vals[i].ok_or(Some(i));
        }
        Expr::Unary { op, operand } => Expr::unary(*op, Expr::Int(eval(operand, vals, index)?)),
        Expr::Binary { op, lhs, rhs } => match (op, eval(lhs, vals, index)?) {
            (BinOp::And, 0) => return Ok(0),
            (BinOp::Or, l) if l != 0 => return Ok(1),
            (_, l) => Expr::binary(*op, Expr::Int(l), Expr::Int(eval(rhs, vals, index)?)),
        },
    };
    eval_expr(&folded, &FxHashMap::default()).map_err(|_| None)
}

/// Depth-first search for `query` on `model` with `pins` set in the initial
/// state.  A domain split pushes every child at once, lowest value on top;
/// each pushed child and each fired transition costs one op, and a search
/// holding `budget` ops when it is about to pop reports `Unknown`.  Returns
/// the verdict and the op counts (`states_created`, `transitions_fired`).
pub fn reference_check(
    model: &Model,
    query: &PathQuery,
    budget: u64,
    max_depth: u64,
    pins: &[(usize, i64)],
) -> (CheckOutcome, CheckStats) {
    let names = model.vars.iter().map(|v| v.name.as_str());
    let index: Index = names.zip(0..).collect();
    let mut init: Vec<_> = model.vars.iter().map(|v| v.init).collect();
    pins.iter().for_each(|&(i, value)| init[i] = Some(value));
    let mut stats = CheckStats {
        states_created: 1,
        ..CheckStats::default()
    };
    // Pending states: location, decisions matched, run length, valuation.
    let mut stack = vec![(model.initial.index(), 0, 0, init)];
    let outcome = loop {
        if stats.states_created + stats.transitions_fired >= budget {
            break CheckOutcome::Unknown;
        }
        let Some((loc, matched, steps, vals)) = stack.pop() else {
            break CheckOutcome::Infeasible;
        };
        if matched == query.decisions.len() {
            let mut witness = InputVector::new();
            for (v, x) in model.vars.iter().zip(&vals) {
                let (lo, hi) = v.domain;
                if v.role == VarRole::Input {
                    witness.set(v.name.clone(), x.unwrap_or(lo.max(0).min(hi)));
                }
            }
            break CheckOutcome::Feasible { witness, steps };
        }
        if steps >= max_depth {
            continue;
        }
        // Guards in transition order, then the enabled transitions' effects:
        // the first unset variable read is split on (evaluation is pure, so
        // reading on past it changes nothing).
        let mut split = None;
        let mut enabled = Vec::new();
        for t in model.transitions.iter().filter(|t| t.from.index() == loc) {
            match t.guard.as_ref().map_or(Ok(1), |g| eval(g, &vals, &index)) {
                Ok(v) if v != 0 => enabled.push(t),
                Err(Some(i)) => _ = split.get_or_insert(i),
                _ => {}
            }
        }
        let mut effects = Vec::new();
        for t in &enabled {
            effects.push(Vec::from_iter(
                t.effect.iter().map(|(_, e)| eval(e, &vals, &index)),
            ));
        }
        let split = split.or_else(|| effects.iter().flatten().find_map(|v| *v.as_ref().err()?));
        if let Some(var) = split {
            let (lo, hi) = model.vars[var].domain;
            stats.states_created += model.vars[var].domain_size();
            for value in (lo..=hi).rev() {
                let mut child = vals.clone();
                child[var] = Some(value);
                stack.push((loc, matched, steps, child));
            }
            continue;
        }
        for (t, values) in enabled.iter().zip(&effects).rev() {
            // The path monitor: a wrong choice at the next queried branch
            // ends the run, the right one advances it.
            let next = match (t.decision, query.decisions.get(matched)) {
                (Some(d), Some(&want)) if d.0 == want.0 && d != want => continue,
                (Some(d), Some(&want)) if d == want => matched + 1,
                _ => matched,
            };
            let mut child = vals.clone();
            let writes = t.effect.iter().zip(values).map(|((name, _), v)| {
                let i = *index.get(name.as_str())?;
                child[i] = Some(model.vars[i].ty.wrap(*v.as_ref().ok()?));
                Some(())
            });
            if writes.collect::<Option<Vec<()>>>().is_none() {
                continue;
            }
            stats.transitions_fired += 1;
            stats.states_created += 1;
            stack.push((t.to.index(), next, steps + 1, child));
        }
    };
    (outcome, stats)
}

/// What [`ModelChecker::find_test_data`] must answer for `query`: the
/// reference search on the model that call builds.
pub fn reference_find(checker: &ModelChecker, f: &Function, q: &PathQuery) -> CheckOutcome {
    let opts = &checker.optimisations;
    let (optimised, _) = apply_optimisations_preserving(f, opts, q.stmts());
    let model = encode_function(&optimised, &opts.encode_options());
    let (budget, depth) = (checker.max_transitions, checker.max_depth);
    reference_check(&model, q, budget, depth, &[]).0
}
