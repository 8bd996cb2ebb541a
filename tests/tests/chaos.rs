//! Chaos suite: deterministic fault injection across the whole pipeline.
//!
//! Every fault here is scheduled by a seeded [`FaultPlan`] — no wall-clock
//! or RNG state at trigger time — so a failing case replays identically.
//! The suite exercises the robustness contracts end to end:
//!
//! * a portfolio worker that panics mid-race must not take the race down:
//!   survivors decide, telemetry marks the corpse, no lock is poisoned;
//! * an exhausted budget must yield a proven bracket plus the *reason*
//!   the search stopped, for every budget dimension including memory;
//!   an exhausted certifier must say the same instead of a verdict.

use sbgc_core::{
    certify_result_parallel, chromatic_number_outcome, try_solve_coloring, ChromaticResult,
    Coloring, ColoringEncoding, ColoringOutcome, ProofStatus, SolveOptions,
};
use sbgc_formula::PbFormula;
use sbgc_graph::gen::{gnp, mycielski, queens};
use sbgc_graph::Graph;
use sbgc_obs::{FaultPlan, Recorder};
use sbgc_pb::{
    optimize_portfolio, portfolio_configs, Budget, CancelToken, ExhaustReason, OptOutcome,
    PortfolioSession, SolveOutcome,
};
use std::time::Duration;

fn coloring_formula(graph: &Graph, k: usize) -> PbFormula {
    ColoringEncoding::new(graph, k).formula().clone()
}

#[test]
fn mid_race_panic_yields_correct_answer_from_survivors() {
    // Kill one of three workers before the race's first step; the other
    // two must still prove χ(queen5_5) = 5 and the race must report the
    // casualty.
    let formula = coloring_formula(&queens(5, 5), 7);
    let plan = FaultPlan::new(3).with_worker_panic(1, 0);
    let rec = Recorder::new();
    let out =
        optimize_portfolio(&formula, &portfolio_configs(3), &Budget::unlimited(), &rec, &plan)
            .expect("non-empty portfolio");

    match out.outcome {
        OptOutcome::Optimal { value, .. } => assert_eq!(value, 5),
        ref other => panic!("survivors must still decide, got {other:?}"),
    }
    assert_eq!(out.failed_workers, 1);
    let (winner, _) = out.winner.expect("a survivor won");
    assert_ne!(winner, 1, "the dead worker cannot win");

    // Telemetry: the casualty is recorded once, at step 0, and never
    // wins; each survivor records every step, one of them winning it.
    let workers = rec.workers();
    let dead: Vec<_> = workers.iter().filter(|w| w.failed.is_some()).collect();
    assert_eq!(dead.len(), 1);
    assert_eq!((dead[0].index, dead[0].query), (1, Some(0)));
    assert!(dead[0].failed.as_deref().unwrap().contains("injected fault"));
    assert!(workers.iter().all(|w| !(w.index == 1 && w.won)));
    let steps = workers.iter().filter(|w| w.won).count();
    assert_eq!(workers.len(), 1 + 2 * steps);
}

#[test]
fn injected_faults_replay_deterministically() {
    // The same plan against the same instance must kill the same worker
    // and leave the same answer — chaos tests that fail must replay.
    let formula = coloring_formula(&mycielski(3), 6);
    let run = || {
        let plan = FaultPlan::new(11).with_seeded_worker_panic(4, 0);
        let rec = Recorder::new();
        let configs = portfolio_configs(4);
        let out = optimize_portfolio(&formula, &configs, &Budget::unlimited(), &rec, &plan)
            .expect("non-empty portfolio");
        let dead: Vec<usize> =
            rec.workers().iter().filter(|w| w.failed.is_some()).map(|w| w.index).collect();
        (out.outcome.value(), out.failed_workers, dead)
    };
    let (value_a, failed_a, dead_a) = run();
    let (value_b, failed_b, dead_b) = run();
    assert_eq!(value_a, Some(4), "χ(myciel3) = 4");
    assert_eq!((value_a, failed_a, &dead_a), (value_b, failed_b, &dead_b));
    assert_eq!(dead_a.len(), 1);
}

#[test]
fn panicked_race_leaves_shared_state_usable() {
    // A recorder that lived through a worker panic must keep working: a
    // poisoned telemetry lock would hang or crash the next race.
    let formula = coloring_formula(&Graph::complete(4), 5);
    let rec = Recorder::new();
    // A one-shot decision race is a fresh session's single query; in a
    // session the panic count is the query index, so worker 0 dies at once.
    let race = |plan: &FaultPlan| {
        PortfolioSession::new(&formula, &portfolio_configs(2), &rec, plan)
            .expect("non-empty portfolio")
            .query(&[], &Budget::unlimited())
    };
    let first = race(&FaultPlan::new(0).with_worker_panic(0, 0));
    assert!(matches!(first.outcome, SolveOutcome::Sat(_)));
    assert_eq!(first.failed_workers, 1);

    // Same recorder, no faults: the second race must behave normally.
    let second = race(&FaultPlan::default());
    assert!(matches!(second.outcome, SolveOutcome::Sat(_)));
    assert_eq!(second.failed_workers, 0);
    assert_eq!(rec.workers().len(), 4, "both races recorded telemetry");
}

#[test]
fn mid_export_panic_leaves_the_clause_pool_usable() {
    // Kill a worker before the race's second step — after step 0 gave it
    // the chance to export learned clauses into the shared pool. The pool
    // must not be poisoned for the survivors, who keep importing and
    // still prove χ(myciel3) = 4; the dead worker's published clauses
    // stay valid (they are entailed by the formula and the cuts every
    // worker committed, regardless of who learned them).
    let formula = coloring_formula(&mycielski(3), 6);
    let rec = Recorder::new();
    let plan = FaultPlan::new(5).with_worker_panic(2, 1);
    let out =
        optimize_portfolio(&formula, &portfolio_configs(4), &Budget::unlimited(), &rec, &plan)
            .expect("non-empty portfolio");
    match out.outcome {
        OptOutcome::Optimal { value, .. } => assert_eq!(value, 4, "χ(myciel3) = 4"),
        ref other => panic!("survivors must still decide, got {other:?}"),
    }
    assert_eq!(out.failed_workers, 1);
    let (winner_index, _) = out.winner.expect("a survivor won");
    assert_ne!(winner_index, 2, "the dead worker cannot win");
    // The sharing counters flowed through telemetry despite the casualty.
    // The recorder may hold *more* than the summed stats: a worker that
    // died mid-solve would have flushed partial counts it never reported.
    assert!(rec.counter(sbgc_obs::Counter::Exported) >= out.stats.exported);
    assert!(rec.counter(sbgc_obs::Counter::Imported) >= out.stats.imported);
}

#[test]
fn killing_the_only_worker_degrades_to_unknown() {
    let formula = coloring_formula(&queens(5, 5), 7);
    let plan = FaultPlan::new(0).with_worker_panic(0, 0);
    let out = optimize_portfolio(
        &formula,
        &portfolio_configs(1),
        &Budget::unlimited(),
        &Recorder::disabled(),
        &plan,
    )
    .expect("non-empty portfolio");
    assert!(!out.outcome.is_optimal(), "no survivor can have proven optimality");
    assert!(out.winner.is_none());
    assert_eq!(out.failed_workers, 1);
}

#[test]
fn fault_plan_on_solve_options_reaches_the_portfolio_ladder() {
    // χ(gnp(24, 0.5, 3)) = 7 with DSATUR 8 and clique 6. With heuristics
    // off the ladder asks target 7 (query 0) and then refutes 6 (query
    // 1); worker 1 dies at query 1 and the survivors must still prove χ.
    let g = gnp(24, 0.5, 3);
    let rec = Recorder::new();
    let opts = SolveOptions::new(20)
        .with_parallelism(4)
        .with_recorder(rec.clone())
        .without_heuristics()
        .with_fault_plan(FaultPlan::new(0).with_worker_panic(1, 1));
    let out = chromatic_number_outcome(&g, &opts).expect("valid inputs");
    assert_eq!(out.exact(), Some(7), "the survivors prove χ");
    let dead: Vec<_> = rec.workers().into_iter().filter(|w| w.failed.is_some()).collect();
    assert_eq!(dead.len(), 1, "exactly one worker died: {dead:?}");
    assert_eq!(dead[0].index, 1);
    assert_eq!(dead[0].query, Some(1), "the death is attributed to ladder query 1");
}

#[test]
fn fault_plan_on_solve_options_reaches_the_optimization_race() {
    // The fixed-K flow races the optimization portfolio, whose steps are
    // session queries: worker 1 of 3 dies before step 0, and the
    // survivors still prove χ(queen5_5) = 5.
    let rec = Recorder::new();
    let opts = SolveOptions::new(7)
        .with_parallelism(3)
        .with_recorder(rec.clone())
        .with_fault_plan(FaultPlan::new(0).with_worker_panic(1, 0));
    let report = try_solve_coloring(&queens(5, 5), &opts).expect("valid inputs");
    assert!(matches!(report.outcome, ColoringOutcome::Optimal { colors: 5, .. }));
    let dead: Vec<_> = rec.workers().into_iter().filter(|w| w.failed.is_some()).collect();
    assert_eq!(dead.len(), 1, "exactly one worker died: {dead:?}");
    assert_eq!(dead[0].index, 1);
    assert_eq!(dead[0].query, Some(0), "the death is attributed to optimization step 0");
}

#[test]
fn conflict_exhausted_search_reports_proven_bracket() {
    // Mycielski-4: clique 2, χ = 5, DSATUR overshoots, so a real search is
    // needed and a 1-conflict budget cannot finish it.
    let g = mycielski(4);
    let opts = SolveOptions::new(20).with_budget(Budget::unlimited().with_max_conflicts(1));
    let out = chromatic_number_outcome(&g, &opts).expect("valid inputs");
    match out.result {
        ChromaticResult::Bounded { lower, upper, ref witness } => {
            assert!(lower <= 5 && 5 <= upper, "bracket [{lower}, {upper}] must contain χ");
            assert!(witness.is_proper(&g), "the upper bound stays witnessed");
            assert_eq!(out.exhaust, Some(ExhaustReason::Conflicts));
        }
        ChromaticResult::Exact { chromatic_number, .. } => {
            // A 1-conflict budget conceivably still decides; then there is
            // no exhaustion to report.
            assert_eq!(chromatic_number, 5);
            assert_eq!(out.exhaust, None);
        }
    }
}

#[test]
fn memory_exhausted_search_reports_memory_reason() {
    // A one-byte arena cap trips the memory check at the first stride-64
    // budget check; queen6_6 at K = 7 needs far more than 64 conflicts.
    let g = queens(6, 6);
    let opts = SolveOptions::new(7).with_budget(Budget::unlimited().with_max_memory(1));
    let out = chromatic_number_outcome(&g, &opts).expect("valid inputs");
    match out.result {
        ChromaticResult::Bounded { lower, upper, ref witness } => {
            assert!(lower <= 7 && 7 <= upper, "bracket [{lower}, {upper}] must contain χ");
            assert!(witness.is_proper(&g));
            assert_eq!(out.exhaust, Some(ExhaustReason::Memory));
        }
        ChromaticResult::Exact { .. } => {
            panic!("a one-byte memory budget cannot complete the queen6_6 search")
        }
    }
}

#[test]
fn exhausted_certifier_names_every_budget_dimension() {
    // Refuting 5-coloring myciel5 takes far more than the 64 conflicts
    // before the first budget check, even with its clique pinned (tens of
    // thousands of lemmas). Whichever dimension stops it, the sequential
    // and the racing certifier leave the claim unchecked — never rejected
    // — keep no proof, and name that dimension.
    let g = mycielski(5);
    let claim = ChromaticResult::Exact {
        chromatic_number: 6,
        witness: Coloring::new(vec![0; g.num_vertices()]),
    };
    let cancelled = CancelToken::new();
    cancelled.cancel();
    for (budget, label) in [
        (Budget::unlimited().with_timeout(Duration::from_nanos(1)), "time"),
        (Budget::unlimited().with_max_memory(1), "memory"),
        (Budget::unlimited().with_cancel_token(cancelled), "cancelled"),
    ] {
        for workers in [1, 3] {
            let cert = certify_result_parallel(&g, &claim, &budget, workers).expect("exact claim");
            match &cert.unsat {
                ProofStatus::Unchecked { reason } => {
                    let expected = format!("budget exhausted ({label})");
                    assert!(reason.contains(&expected), "workers={workers}: {reason}");
                }
                other => panic!("{label}, workers={workers}: expected Unchecked, got {other}"),
            }
            assert!(cert.proof.is_none(), "{label}, workers={workers}");
        }
    }
}

#[test]
fn improper_heuristic_witness_is_rejected_at_the_trust_boundary() {
    // A fault-injected TabuCol worker emits an improper coloring (one
    // monochromatic edge). The trust boundary must reject it before it
    // can touch the shared incumbent, count the rejection, and retire the
    // worker — while the surviving workers keep the bracket sound.
    use sbgc_core::{race_heuristics, ChromaticBounds, Coloring};

    let g = Graph::cycle(9); // χ = 3
    let loose = ChromaticBounds { lower: 1, upper: 9, witness: Coloring::new((0..9).collect()) };
    let rec = Recorder::new();
    let opts = SolveOptions::new(20).with_recorder(rec.clone());

    // First the rejection itself, with PartialCol retired at its first
    // level: racing, it can walk C9 down to χ before TabuCol's first
    // offer and leave nothing to corrupt.
    let plan = FaultPlan::new(21).with_improper_witness(0).with_worker_panic(1, 0);
    let out = race_heuristics(&g, &opts.clone().with_fault_plan(plan), &loose);
    assert_eq!(out.rejected_witnesses, 1, "the corrupted offer must be rejected");
    assert_eq!(out.failed_workers, 2, "the untrustworthy worker is retired too");
    assert!(out.witness.is_proper(&g), "the seed witness survives the rejection");
    assert_eq!(out.witness.num_colors(), out.upper);
    assert_eq!(out.upper, 9, "the rejected offer changed nothing");
    assert!(out.lower <= out.upper);

    // Telemetry tells the same story: the TabuCol record is marked
    // failed, and the per-run heuristics object carries both tallies.
    let workers = rec.workers();
    let tabu = workers.iter().find(|w| w.kind == "tabucol").expect("telemetry for worker 0");
    assert!(tabu.failed.is_some(), "the rejection is fatal for the offending worker");
    let h = rec.heuristics().expect("heuristics telemetry recorded");
    assert_eq!(h.rejected_witnesses, 1);
    assert_eq!(h.failed_workers, 2);

    // With PartialCol racing, whichever interleaving happens, TabuCol is
    // retired exactly when it got to offer, and the survivors walk C9
    // down to χ on validated offers alone.
    let plan = FaultPlan::new(21).with_improper_witness(0);
    let out = race_heuristics(&g, &opts.clone().with_fault_plan(plan), &loose);
    assert_eq!(out.failed_workers as u64, out.rejected_witnesses);
    assert!(out.witness.is_proper(&g), "survivors keep a validated witness");
    assert_eq!(out.witness.num_colors(), out.upper);
    assert_eq!(out.upper, 3, "PartialCol alone still walks C9 down to χ = 3");

    // And the sound result is untouched by re-running without the fault.
    let healthy = race_heuristics(&g, &opts, &loose);
    assert_eq!(healthy.rejected_witnesses, 0);
    assert_eq!(healthy.failed_workers, 0);
    assert_eq!(healthy.upper, 3);
}

#[test]
fn heuristic_faults_replay_deterministically() {
    // Chaos results are only diagnosable if a failing schedule replays
    // identically: same fault plan, same bracket, same tallies.
    use sbgc_core::{race_heuristics, ChromaticBounds, Coloring};

    let g = mycielski(4); // triangle-free: the clique/χ gap never closes
    let n = g.num_vertices();
    let loose = ChromaticBounds { lower: 2, upper: n, witness: Coloring::new((0..n).collect()) };
    // Worker 1 (PartialCol) panics on entry; worker 0 (TabuCol) has its
    // first offer corrupted into an improper coloring.
    let plan = FaultPlan::new(5).with_worker_panic(1, 0).with_improper_witness(0);
    let opts = SolveOptions::new(20).with_fault_plan(plan);
    let first = race_heuristics(&g, &opts, &loose);
    let second = race_heuristics(&g, &opts, &loose);
    assert_eq!(first.lower, second.lower);
    assert_eq!(first.upper, second.upper);
    assert_eq!(first.rejected_witnesses, second.rejected_witnesses);
    assert_eq!(first.failed_workers, second.failed_workers);
    assert_eq!(first.failed_workers, 2, "both faulted workers are retired");
    assert_eq!(first.rejected_witnesses, 1);
    assert!(first.witness.is_proper(&g), "the seed witness outlives the casualties");
}
