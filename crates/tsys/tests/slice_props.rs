//! Property-based equivalence of cone-of-influence slicing: for random
//! mini-C functions and random *partial* query batches (the case where the
//! slice actually removes something), batched [`ModelChecker::check_many`] —
//! which slices, explores the sliced model and completes witnesses against
//! the full model with a pinned search — must return the same verdict as the
//! naive reference search (`reference/mod.rs`) on the unsliced per-query
//! model, every witness must replay on the interpreter under full-model
//! monitor semantics, and slicing must be idempotent (slicing a slice
//! changes nothing).
//!
//! The generated functions deliberately contain what slicing exists to
//! remove: branches over wide-domain parameters nobody queries, dead
//! accumulator assignments, and saturation guards that chain those
//! accumulators back into the cone.

mod reference;

use proptest::prelude::*;
use reference::reference_find;
use std::collections::HashSet;
use tmg_minic::ast::{Stmt, StmtId};
use tmg_minic::interp::BranchChoice;
use tmg_minic::{parse_function, parse_program, Interpreter};
use tmg_tsys::{slice_for_queries, CheckOutcome, ModelChecker, PathQuery};

/// The checker's path-monitor acceptance, replayed over an execution trace.
fn monitor_accepts(decisions: &[(StmtId, BranchChoice)], trace: &[(StmtId, BranchChoice)]) -> bool {
    let mut matched = 0;
    for &(stmt, choice) in trace {
        if matched == decisions.len() {
            break;
        }
        let (expected_stmt, expected_choice) = decisions[matched];
        if stmt == expected_stmt {
            if choice == expected_choice {
                matched += 1;
            } else {
                return false;
            }
        }
    }
    matched == decisions.len()
}

/// Deterministic draw stream decoding one `u64` seed into small choices.
struct Draws(u64);

impl Draws {
    fn next(&mut self, n: u64) -> u64 {
        let v = self.0 % n;
        self.0 = (self.0 / n).rotate_left(17) ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        v
    }
}

/// Builds a random function with sliceable structure: guards over the small
/// parameters `a`/`b`, independent branches over the wide parameters
/// `w0`/`w1`, dead accumulator writes, and occasionally a saturation guard
/// that makes an accumulator (and everything feeding it) relevant.
fn random_function(shape: u64) -> String {
    let mut d = Draws(shape);
    let stmt_count = 3 + d.next(3); // 3..=5 statements
    let mut body = String::new();
    let mut decls = String::from("    int acc = 0;\n    int dead = 0;\n");
    for k in 0..stmt_count {
        match d.next(6) {
            0 => {
                let lit = d.next(6) as i64 - 1;
                body.push_str(&format!(
                    "    if (a > {lit}) {{ t{k}(); }} else {{ e{k}(); }}\n"
                ));
            }
            1 => {
                let lit = d.next(6) as i64;
                body.push_str(&format!("    if (b == {lit}) {{ h{k}(); }}\n"));
            }
            2 => {
                // Wide-domain branch slicing should drop when unqueried.
                let w = if d.next(2) == 0 { "w0" } else { "w1" };
                let lit = d.next(200) as i64;
                body.push_str(&format!(
                    "    if ({w} > {lit}) {{ wf{k}(); }} else {{ ws{k}(); }}\n"
                ));
            }
            3 => {
                // Dead accumulator chain (unless a later saturation guard
                // pulls it back in).
                let w = if d.next(2) == 0 { "w0" } else { "w1" };
                body.push_str(&format!("    acc = acc + {w};\n    dead = dead + 1;\n"));
            }
            4 => {
                let lit = 20 + d.next(120) as i64;
                body.push_str(&format!("    if (acc > {lit}) {{ sat{k}(); }}\n"));
            }
            _ => {
                decls.push_str(&format!("    char i{k} = 0;\n"));
                body.push_str(&format!(
                    "    while (i{k} < b) __bound(4) {{ i{k} = i{k} + 1; }}\n"
                ));
            }
        }
    }
    format!(
        "void f(char a __range(0, 4), char b __range(0, 5), int w0 __range(0, 180), int w1 __range(-90, 90)) {{\n{decls}{body}}}\n"
    )
}

/// Queries over a *subset* of the function's branch statements — single
/// decisions and two-decision sequences — so the batch union rarely covers
/// every branch and slicing has something to remove.
fn random_queries(f: &tmg_minic::Function, shape: u64) -> Vec<PathQuery> {
    let mut branches: Vec<(StmtId, bool)> = Vec::new(); // (id, is_loop)
    f.for_each_stmt(&mut |s| match s {
        Stmt::If { id, .. } => branches.push((*id, false)),
        Stmt::While { id, .. } => branches.push((*id, true)),
        _ => {}
    });
    if branches.is_empty() {
        return vec![PathQuery::any_execution()];
    }
    let mut d = Draws(shape);
    let choice = |d: &mut Draws, is_loop: bool| {
        if is_loop {
            if d.next(2) == 0 {
                BranchChoice::LoopIterate
            } else {
                BranchChoice::LoopExit
            }
        } else if d.next(2) == 0 {
            BranchChoice::Then
        } else {
            BranchChoice::Else
        }
    };
    let mut queries = Vec::new();
    let count = 1 + d.next(4) as usize;
    for _ in 0..count {
        let (first, first_loop) = branches[d.next(branches.len() as u64) as usize];
        let mut decisions = vec![(first, choice(&mut d, first_loop))];
        if d.next(2) == 0 {
            let (second, second_loop) = branches[d.next(branches.len() as u64) as usize];
            if second != first {
                decisions.push((second, choice(&mut d, second_loop)));
            }
        }
        queries.push(PathQuery::new(decisions));
    }
    queries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn sliced_batches_agree_with_unsliced_single_queries(
        shape in 0u64..u64::MAX,
        query_shape in 0u64..u64::MAX,
    ) {
        let src = random_function(shape);
        let f = parse_function(&src).expect("generated function parses");
        let queries = random_queries(&f, query_shape);
        let union: HashSet<StmtId> = queries
            .iter()
            .flat_map(|q| q.stmts().iter().copied())
            .collect();

        // Idempotence: slicing a slice changes nothing.
        if let Some((sliced_fn, _)) = slice_for_queries(&f, &union) {
            prop_assert!(
                slice_for_queries(&sliced_fn, &union).is_none(),
                "slicing must be idempotent on {src}"
            );
        }

        let sliced = ModelChecker::new();
        let unsliced = ModelChecker::new().with_slicing(false);
        let batched = sliced.check_many(&f, &queries);
        let program = parse_program(&src).expect("program parses");
        let interp = Interpreter::new(&program);
        for (query, result) in queries.iter().zip(&batched) {
            // Verdict bit-identity against the unsliced per-query reference.
            let reference = reference_find(&unsliced, &f, query);
            prop_assert_eq!(
                std::mem::discriminant(&result.outcome),
                std::mem::discriminant(&reference),
                "sliced batched vs unsliced reference verdict on {} for {:?}: {:?} vs {:?}",
                src, query.decisions, result.outcome, reference
            );
            // Witness completion: the slice's witness was completed against
            // the full model, so it must drive the *full* program down the
            // queried decisions (oracle replay under monitor semantics).
            if let CheckOutcome::Feasible { witness, .. } = &result.outcome {
                let run = interp.run("f", witness).expect("witness replays");
                prop_assert!(
                    monitor_accepts(&query.decisions, &run.trace.branch_signature()),
                    "completed witness {:?} does not follow {:?} in {}",
                    witness, query.decisions, src
                );
            }
        }
    }
}
