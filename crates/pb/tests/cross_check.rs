//! Randomized cross-checks of the PB engines against brute-force
//! enumeration: decision agreement on pure random k-SAT and on mixed
//! CNF+PB formulas, optimization agreement, and agreement *between* the
//! solver kinds (the paper's "same trends, independent implementations"
//! premise).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sbgc_formula::{Lit, Objective, PbConstraint, PbFormula, Var};
use sbgc_pb::{optimize, solve_decision, Budget, EngineConfig, PbEngine, SolveOutcome, SolverKind};
use sbgc_sat::naive;

/// A random pure k-CNF formula.
fn random_ksat(num_vars: usize, num_clauses: usize, k: usize, seed: u64) -> PbFormula {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut f = PbFormula::with_vars(num_vars);
    for _ in 0..num_clauses {
        let lits: Vec<Lit> = (0..k)
            .map(|_| Var::from_index(rng.gen_range(0..num_vars)).lit(rng.gen_bool(0.5)))
            .collect();
        f.add_clause(lits);
    }
    f
}

/// Whether the default engine's answer on `f` agrees with enumeration,
/// with any model it returns checked against `f`.
fn engine_matches_oracle(f: &PbFormula) -> Result<(), String> {
    let oracle_sat = naive::solve(f).is_some();
    match PbEngine::from_formula(f, EngineConfig::default()).solve() {
        SolveOutcome::Sat(m) if !f.is_satisfied_by(&m) => Err("bogus model".into()),
        SolveOutcome::Sat(_) if !oracle_sat => Err("engine SAT, oracle UNSAT".into()),
        SolveOutcome::Unsat if oracle_sat => Err("engine UNSAT, oracle SAT".into()),
        SolveOutcome::Unknown => Err("unlimited budget returned Unknown".into()),
        _ => Ok(()),
    }
}

#[test]
fn engine_agrees_with_oracle_on_random_ksat() {
    // Ratio ~3.75 straddles the 3-SAT threshold.
    for seed in 0..200u64 {
        let f = random_ksat(8, 30, 3, seed);
        engine_matches_oracle(&f).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn engine_agrees_on_dense_unsat_region() {
    // Ratio ~8 is overwhelmingly UNSAT and exercises the conflict-analysis
    // path.
    for seed in 1000..1060u64 {
        let f = random_ksat(7, 56, 3, seed);
        engine_matches_oracle(&f).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// A random mixed CNF+PB formula over `n` variables.
fn random_pb_formula(n: usize, seed: u64, with_objective: bool) -> PbFormula {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut f = PbFormula::with_vars(n);
    let num_clauses = rng.gen_range(0..2 * n);
    for _ in 0..num_clauses {
        let k = rng.gen_range(1..=3.min(n));
        let mut lits: Vec<Lit> = Vec::with_capacity(k);
        for _ in 0..k {
            let var = Var::from_index(rng.gen_range(0..n));
            lits.push(var.lit(rng.gen_bool(0.5)));
        }
        f.add_clause(lits);
    }
    let num_pbs = rng.gen_range(1..=n.max(2) / 2 + 1);
    for _ in 0..num_pbs {
        let k = rng.gen_range(1..=n);
        let mut terms: Vec<(i64, Lit)> = Vec::with_capacity(k);
        for _ in 0..k {
            let coeff = rng.gen_range(1..=4);
            let var = Var::from_index(rng.gen_range(0..n));
            terms.push((coeff, var.lit(rng.gen_bool(0.5))));
        }
        let max: i64 = terms.iter().map(|&(a, _)| a).sum();
        let bound = rng.gen_range(0..=max);
        if rng.gen_bool(0.5) {
            f.add_pb(PbConstraint::at_least(terms, bound));
        } else {
            f.add_pb(PbConstraint::at_most(terms, bound));
        }
    }
    if with_objective {
        let mut terms: Vec<(u64, Lit)> = Vec::new();
        for i in 0..n {
            if rng.gen_bool(0.7) {
                terms.push((rng.gen_range(1..=3), Var::from_index(i).positive()));
            }
        }
        if !terms.is_empty() {
            f.set_objective(Objective::minimize(terms));
        }
    }
    f
}

#[test]
fn decision_agrees_with_oracle_for_all_kinds() {
    for seed in 0..120u64 {
        let f = random_pb_formula(7, seed, false);
        let expected = naive::solve(&f).is_some();
        for kind in SolverKind::APPENDIX {
            match solve_decision(&f, kind, &Budget::unlimited()) {
                out if out.is_sat() => {
                    assert!(expected, "seed {seed} {kind}: solver SAT, oracle UNSAT");
                    let m = out.model().expect("sat has model");
                    assert!(f.is_satisfied_by(m), "seed {seed} {kind}: bogus model");
                }
                out if out.is_unsat() => {
                    assert!(!expected, "seed {seed} {kind}: solver UNSAT, oracle SAT");
                }
                other => panic!("seed {seed} {kind}: unexpected {other:?}"),
            }
        }
    }
}

#[test]
fn optimization_agrees_with_oracle_for_all_kinds() {
    let mut optimized = 0;
    for seed in 200..280u64 {
        let f = random_pb_formula(6, seed, true);
        if f.objective().is_none() {
            continue;
        }
        let expected = naive::optimize(&f);
        for kind in SolverKind::APPENDIX {
            let out = optimize(&f, kind, &Budget::unlimited());
            match (&expected, &out) {
                (Some((best, _)), o) if o.is_optimal() => {
                    assert_eq!(o.value(), Some(*best), "seed {seed} {kind}");
                    assert!(f.is_satisfied_by(o.model().expect("model")), "seed {seed} {kind}");
                    optimized += 1;
                }
                (None, o) if o.is_infeasible() => {}
                (exp, got) => {
                    panic!("seed {seed} {kind}: oracle {exp:?} vs solver {got:?}")
                }
            }
        }
    }
    assert!(optimized > 50, "too few optimization cases exercised: {optimized}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SAT/UNSAT on small random 3-SAT agrees with enumeration, and any
    /// model satisfies the formula.
    #[test]
    fn prop_engine_matches_enumeration_on_ksat(
        num_vars in 1usize..8,
        num_clauses in 0usize..24,
        seed in any::<u64>(),
    ) {
        let f = random_ksat(num_vars, num_clauses, 3, seed);
        let verdict = engine_matches_oracle(&f);
        prop_assert!(verdict.is_ok(), "{verdict:?}");
    }

    /// Adding a clause the oracle's model satisfies never makes a
    /// satisfiable formula unsatisfiable.
    #[test]
    fn prop_adding_model_clause_keeps_sat(
        num_vars in 2usize..7,
        num_clauses in 1usize..16,
        seed in any::<u64>(),
    ) {
        let mut f = random_ksat(num_vars, num_clauses, 3, seed);
        if let Some(model) = naive::solve(&f) {
            f.add_clause(model.iter_assigned().map(|(v, b)| v.lit(!b)).collect::<Vec<Lit>>());
            prop_assert!(PbEngine::from_formula(&f, EngineConfig::default()).solve().is_sat());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All five solver kinds agree with each other on random instances.
    #[test]
    fn prop_solver_kinds_agree(n in 2usize..7, seed in any::<u64>()) {
        let f = random_pb_formula(n, seed, false);
        let verdicts: Vec<bool> = SolverKind::APPENDIX
            .iter()
            .map(|&k| solve_decision(&f, k, &Budget::unlimited()).is_sat())
            .collect();
        prop_assert!(
            verdicts.iter().all(|&v| v == verdicts[0]),
            "solver kinds disagree: {verdicts:?}"
        );
    }

    /// Optimal values agree across kinds when an objective is present.
    #[test]
    fn prop_optimal_values_agree(n in 2usize..6, seed in any::<u64>()) {
        let f = random_pb_formula(n, seed, true);
        if f.objective().is_some() {
            let values: Vec<Option<u64>> = SolverKind::APPENDIX
                .iter()
                .map(|&k| optimize(&f, k, &Budget::unlimited()).value())
                .collect();
            prop_assert!(
                values.iter().all(|v| *v == values[0]),
                "optimal values disagree: {values:?}"
            );
        }
    }
}
