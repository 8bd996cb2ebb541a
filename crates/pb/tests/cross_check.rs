//! Randomized cross-checks of the PB engines against brute-force
//! enumeration: decision agreement on pure random k-SAT and on mixed
//! CNF+PB formulas, optimization agreement, agreement *between* the
//! solver kinds (the paper's "same trends, independent implementations"
//! premise), and entailment of every clause the engine learns on mixed
//! formulas, checked by the learning-free branch and bound.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sbgc_formula::{Lit, Objective, PbConstraint, PbFormula, Var};
use sbgc_pb::{
    optimize, solve_decision, BnbSolver, Budget, EngineConfig, ExplainStrategy, PbEngine,
    SharingConfig, SolveOutcome, SolverKind,
};
use sbgc_proof::{ProofStep, SharedProof};
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

/// PHP(n, n) with an exactly-one PB row per pigeon and an at-most-one
/// PB column per hole (satisfiable), and the assumptions that leave the
/// last hole empty (unsatisfiable under them, like PHP(n, n − 1)).
fn pb_pigeonhole(n: usize) -> (PbFormula, Vec<Lit>) {
    let x = |p: usize, h: usize| Var::from_index(p * n + h).positive();
    let mut f = PbFormula::with_vars(n * n);
    for p in 0..n {
        f.add_exactly_one(&(0..n).map(|h| x(p, h)).collect::<Vec<_>>());
    }
    for h in 0..n {
        f.add_at_most_one(&(0..n).map(|p| x(p, h)).collect::<Vec<_>>());
    }
    (f, (0..n).map(|p| !x(p, n - 1)).collect())
}

/// The `colors`-coloring of `edges` over `vertices` vertices with an
/// exactly-one PB constraint per vertex and a clause per edge and color.
fn coloring_pb(vertices: usize, edges: &[(usize, usize)], colors: usize) -> PbFormula {
    let x = |v: usize, c: usize| Var::from_index(v * colors + c).positive();
    let mut f = PbFormula::with_vars(vertices * colors);
    for v in 0..vertices {
        f.add_exactly_one(&(0..colors).map(|c| x(v, c)).collect::<Vec<_>>());
    }
    for &(u, v) in edges {
        for c in 0..colors {
            f.add_clause([!x(u, c), !x(v, c)]);
        }
    }
    f
}

/// A G(n, p) graph's coloring encoding at K = χ (χ found by the engine
/// on K = 1, 2, …) and the assumptions that leave color χ − 1
/// unused: the K = χ − 1 query of the chromatic ladder, whose refutation
/// stays relative to the assumptions, so its lemmas are entailed by a
/// satisfiable formula.
fn coloring_ladder_rung(vertices: usize, p: f64, rng: &mut StdRng) -> (PbFormula, Vec<Lit>) {
    let mut edges = Vec::new();
    for u in 0..vertices {
        for v in u + 1..vertices {
            if rng.gen_bool(p) {
                edges.push((u, v));
            }
        }
    }
    let colorable = |k: usize| {
        PbEngine::from_formula(&coloring_pb(vertices, &edges, k), EngineConfig::default())
            .solve()
            .is_sat()
    };
    let chi = (1..=vertices).find(|&k| colorable(k)).expect("n colors always suffice");
    let unused = (0..vertices).map(|v| Var::from_index(v * chi + chi - 1).negative()).collect();
    (coloring_pb(vertices, &edges, chi), unused)
}

/// Random 3-clauses plus random cardinality constraints (unit
/// coefficients, at-least or at-most) over `n` variables.
fn random_cardinality(n: usize, rng: &mut StdRng) -> PbFormula {
    let mut f = PbFormula::with_vars(n);
    let lit = |rng: &mut StdRng| Var::from_index(rng.gen_range(0..n)).lit(rng.gen_bool(0.5));
    for _ in 0..4 * n {
        f.add_clause((0..3).map(|_| lit(rng)).collect::<Vec<_>>());
    }
    for _ in 0..n / 3 {
        let lits: Vec<Lit> = (0..rng.gen_range(4..=8)).map(|_| lit(rng)).collect();
        let bound = rng.gen_range(1..lits.len() as i64);
        let terms = lits.iter().map(|&l| (1, l));
        if rng.gen_bool(0.5) {
            f.add_pb(PbConstraint::at_least(terms, bound));
        } else {
            f.add_pb(PbConstraint::at_most(terms, bound));
        }
    }
    f
}

/// Every clause the engine keeps is entailed by the formula, also when
/// recursive minimization removed literals through PB explanations: the
/// branch and bound, which learns nothing, finds no model of F ∧ ¬C for
/// any live learned clause C. The cases are the PB pigeonhole and
/// exactly-one colorings queried one hole or color short under
/// assumptions (so F stays satisfiable and the check is not vacuous), and
/// random cardinality constraints, under every explanation strategy and
/// the four diversified worker configurations.
///
/// A floor on the lemmas that only minimization took through a PB
/// explanation keeps the cases honest. They are counted from the proof
/// log: a lemma is logged without hints exactly when its derivation used
/// a PB explanation (PB constraints have no proof ID), and `pb_conflicts`
/// counts those whose conflict or 1UIP derivation did.
#[test]
fn learned_clauses_are_entailed_through_pb_minimization() {
    let strategies = [
        ExplainStrategy::AllFalse,
        ExplainStrategy::GreedyCoefficient,
        ExplainStrategy::GreedyRecency,
    ];
    let mut minimized_through_pb = 0;
    let mut checked = 0;
    for case in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(case);
        let (f, assumptions) = match case % 3 {
            0 => pb_pigeonhole(rng.gen_range(6..=7)),
            1 => coloring_ladder_rung(rng.gen_range(12..=14), 0.5, &mut rng),
            _ => (random_cardinality(rng.gen_range(30..=40), &mut rng), Vec::new()),
        };
        let explain = strategies[(case / 3) as usize % 3];
        let config = EngineConfig { explain, ..EngineConfig::default() }
            .with_seed(case + 1)
            .diversified(case as usize % 4);
        let shared = SharedProof::new();
        let mut engine = PbEngine::new(f.num_vars(), config);
        engine.set_proof_logger(Box::new(shared.clone()));
        for c in f.clauses() {
            engine.add_clause(c.iter().copied());
        }
        for pb in f.pb_constraints() {
            engine.add_pb(pb.clone());
        }
        // Frequent reductions keep the live set, and so the checks, small
        // while the search runs up to a thousand conflicts.
        engine.set_max_learnts(20.0);
        engine.solve_with_assumptions(&assumptions, &Budget::unlimited());

        let proof = shared.take();
        let adds = proof.steps().iter().filter_map(|step| match step {
            ProofStep::Add(lits) => Some(lits),
            ProofStep::Delete(_) => None,
        });
        let hintless = adds
            .enumerate()
            .filter(|&(j, lits)| !lits.is_empty() && proof.hints(j).is_empty())
            .count() as u64;
        minimized_through_pb += hintless
            .checked_sub(engine.stats().pb_conflicts)
            .expect("every PB conflict's lemma is logged without hints");

        let all = SharingConfig { max_lbd: u32::MAX, max_len: usize::MAX };
        for (clause, _) in engine.export_learned(all) {
            let mut negated = f.clone();
            for &l in &clause {
                negated.add_clause([!l]);
            }
            let out = BnbSolver::new(&negated).run_decision(&Budget::unlimited());
            assert!(out.is_unsat(), "case {case} ({explain:?}): {clause:?} is not entailed");
            checked += 1;
        }
    }
    assert!(checked > 1000, "too few learned clauses checked: {checked}");
    assert!(
        minimized_through_pb >= 20,
        "too few lemmas minimized through a PB explanation: {minimized_through_pb}"
    );
}
