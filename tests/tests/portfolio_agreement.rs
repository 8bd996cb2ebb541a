//! Portfolio-vs-sequential agreement on the tier-1 graph families.
//!
//! The parallel portfolio must be a pure *performance* feature: for every
//! small graph of the families the unit suites rely on (queens, Mycielski,
//! cycles, complete), racing 1–4 diversified workers has to produce the
//! same satisfiability answer and the same optimal color count as the
//! sequential engine, and losing/cancelled workers must shut down without
//! panicking.

use sbgc_core::{solve_coloring, ColoringEncoding, Graph, SolveOptions};
use sbgc_graph::gen::{mycielski, queens};
use sbgc_obs::{FaultPlan, Recorder};
use sbgc_pb::{
    optimize, optimize_portfolio, portfolio_configs, solve_decision, Budget, CancelToken,
    PortfolioError, PortfolioOptOutcome, PortfolioSession, SessionQueryOutcome, SolveOutcome,
    SolverKind,
};

fn tier1_graphs() -> Vec<(&'static str, Graph, usize)> {
    // (name, graph, χ)
    vec![
        ("queen4_4", queens(4, 4), 5),
        ("queen5_5", queens(5, 5), 5),
        ("myciel3", mycielski(3), 4),
        ("C5", Graph::cycle(5), 3),
        ("C6", Graph::cycle(6), 2),
        ("K4", Graph::complete(4), 4),
        ("K5", Graph::complete(5), 5),
    ]
}

fn coloring_formula(graph: &Graph, k: usize) -> sbgc_formula::PbFormula {
    let enc = ColoringEncoding::new(graph, k);
    enc.formula().clone()
}

/// The optimization race of `workers` workers, telemetry off, no faults.
fn race_optimum(
    formula: &sbgc_formula::PbFormula,
    workers: usize,
    budget: &Budget,
) -> Result<PortfolioOptOutcome, PortfolioError> {
    let configs = portfolio_configs(workers);
    optimize_portfolio(formula, &configs, budget, &Recorder::disabled(), &FaultPlan::default())
}

/// A one-shot decision race: a fresh session of `workers` workers
/// answering one query without assumptions.
fn race_decision(
    formula: &sbgc_formula::PbFormula,
    workers: usize,
    budget: &Budget,
) -> SessionQueryOutcome {
    let configs = portfolio_configs(workers);
    PortfolioSession::new(formula, &configs, &Recorder::disabled(), &FaultPlan::default())
        .expect("non-empty portfolio")
        .query(&[], budget)
}

#[test]
fn optimization_agrees_for_one_to_four_workers() {
    for (name, graph, chi) in tier1_graphs() {
        let formula = coloring_formula(&graph, chi + 2);
        let sequential = optimize(&formula, SolverKind::PbsII, &Budget::unlimited());
        assert_eq!(sequential.value(), Some(chi as u64), "{name}: sequential");
        for workers in 1..=4 {
            let out = race_optimum(&formula, workers, &Budget::unlimited())
                .expect("non-empty portfolio with objective");
            assert!(out.outcome.is_optimal(), "{name} with {workers} workers: not optimal");
            assert_eq!(
                out.outcome.value(),
                sequential.value(),
                "{name} with {workers} workers: color count"
            );
        }
    }
}

#[test]
fn decision_agrees_for_one_to_four_workers() {
    for (name, graph, chi) in tier1_graphs() {
        // Satisfiable at K = χ, unsatisfiable at K = χ − 1.
        for (k, expect_sat) in [(chi, true), (chi - 1, false)] {
            let mut formula = coloring_formula(&graph, k);
            formula.clear_objective();
            let sequential = solve_decision(&formula, SolverKind::PbsII, &Budget::unlimited());
            assert_eq!(sequential.is_sat(), expect_sat, "{name} K={k}: sequential");
            for workers in 1..=4 {
                let out = race_decision(&formula, workers, &Budget::unlimited());
                match (expect_sat, &out.outcome) {
                    (true, SolveOutcome::Sat(model)) => {
                        assert!(formula.is_satisfied_by(model), "{name} K={k} w={workers}");
                    }
                    (false, SolveOutcome::Unsat) => {}
                    (_, other) => {
                        panic!("{name} K={k} w={workers}: expected sat={expect_sat}, got {other:?}")
                    }
                }
                assert!(out.winner.is_some(), "{name} K={k} w={workers}: no winner recorded");
            }
        }
    }
}

#[test]
fn parallel_flow_matches_sequential_colors() {
    for (name, graph, chi) in tier1_graphs() {
        let sequential = solve_coloring(&graph, &SolveOptions::new(chi + 2));
        let parallel = solve_coloring(&graph, &SolveOptions::new(chi + 2).with_parallelism(4));
        assert_eq!(sequential.outcome.colors(), Some(chi), "{name}: sequential");
        assert_eq!(parallel.outcome.colors(), Some(chi), "{name}: parallel");
        assert!(parallel.outcome.is_decided(), "{name}");
    }
}

#[test]
fn cancelled_workers_terminate_cleanly() {
    // A cancelled budget must stop a worker mid-search without panicking
    // and report Unknown, on a non-trivial instance.
    let formula = coloring_formula(&queens(6, 6), 7);
    let token = CancelToken::new();
    token.cancel();
    let budget = Budget::unlimited().with_cancel_token(token);
    let out = race_decision(&formula, 4, &budget);
    assert!(matches!(out.outcome, SolveOutcome::Unknown));
    assert!(out.winner.is_none());

    // And a race that is won cancels the losers without poisoning stats:
    // total conflicts must be finite and the answer definitive.
    let out = race_decision(&formula, 4, &Budget::unlimited());
    assert!(matches!(out.outcome, SolveOutcome::Sat(_)));
}

#[test]
fn portfolio_respects_conflict_budgets() {
    // Every worker shares the caller's conflict cap, so a zero budget
    // cannot produce a definitive optimization answer on a hard instance.
    let formula = coloring_formula(&queens(6, 6), 7);
    let out = race_optimum(&formula, 4, &Budget::unlimited().with_max_conflicts(0))
        .expect("non-empty portfolio with objective");
    assert!(!out.outcome.is_decided());
}
