//! End-to-end soundness of the Shatter flow: adding instance-dependent
//! SBPs never changes satisfiability or the optimal objective value.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sbgc_formula::{Lit, Objective, PbConstraint, PbFormula, Var};
use sbgc_pb::{optimize, solve_decision, Budget, SolverKind};
use sbgc_shatter::{shatter, SbpConstruction, SbpScope, ShatterOptions};

fn random_formula(n: usize, seed: u64, with_objective: bool) -> PbFormula {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut f = PbFormula::with_vars(n);
    for _ in 0..rng.gen_range(1..2 * n) {
        let k = rng.gen_range(1..=3.min(n));
        let mut lits = Vec::with_capacity(k);
        for _ in 0..k {
            lits.push(Var::from_index(rng.gen_range(0..n)).lit(rng.gen_bool(0.5)));
        }
        f.add_clause(lits);
    }
    for _ in 0..rng.gen_range(0..=2) {
        let k = rng.gen_range(2..=n);
        let mut lits: Vec<Lit> = Vec::with_capacity(k);
        for _ in 0..k {
            lits.push(Var::from_index(rng.gen_range(0..n)).positive());
        }
        let bound = rng.gen_range(1..=k as i64);
        f.add_pb(PbConstraint::at_least(lits.into_iter().map(|l| (1, l)), bound));
    }
    if with_objective {
        f.set_objective(Objective::minimize((0..n).map(|i| (1, Var::from_index(i).positive()))));
    }
    f
}

#[test]
fn sbps_preserve_satisfiability() {
    let mut sat_count = 0;
    for seed in 0..60u64 {
        let f = random_formula(6, seed, false);
        let before = solve_decision(&f, SolverKind::PbsII, &Budget::unlimited()).is_sat();
        let mut g = f.clone();
        let report = shatter(&mut g, &ShatterOptions::default());
        let after = solve_decision(&g, SolverKind::PbsII, &Budget::unlimited()).is_sat();
        assert_eq!(before, after, "seed {seed} ({report:?})");
        if before {
            sat_count += 1;
        }
    }
    assert!(sat_count > 10, "suite too skewed: {sat_count} SAT");
}

#[test]
fn sbps_preserve_optimum() {
    for seed in 100..140u64 {
        let f = random_formula(5, seed, true);
        let before = optimize(&f, SolverKind::PbsII, &Budget::unlimited()).value();
        let mut g = f.clone();
        let _ = shatter(&mut g, &ShatterOptions::default());
        let after = optimize(&g, SolverKind::PbsII, &Budget::unlimited()).value();
        assert_eq!(before, after, "seed {seed}");
    }
}

#[test]
fn both_constructions_preserve_satisfiability() {
    for construction in [SbpConstruction::EfficientLinear, SbpConstruction::NaiveQuadratic] {
        for seed in 200..230u64 {
            let f = random_formula(5, seed, false);
            let before = solve_decision(&f, SolverKind::Galena, &Budget::unlimited()).is_sat();
            let mut g = f.clone();
            let _ = shatter(&mut g, &ShatterOptions { construction, ..Default::default() });
            let after = solve_decision(&g, SolverKind::Galena, &Budget::unlimited()).is_sat();
            assert_eq!(before, after, "seed {seed} {construction:?}");
        }
    }
}

#[test]
fn pigeonhole_speedup_in_conflicts() {
    // The classic symmetric family: PHP(n+1, n). SBPs should cut the
    // conflict count substantially (the paper's headline effect).
    let holes = 6;
    let pigeons = holes + 1;
    let mut f = PbFormula::new();
    let var = |p: usize, h: usize| Var::from_index(p * holes + h);
    let _ = f.new_vars(pigeons * holes);
    for p in 0..pigeons {
        f.add_clause((0..holes).map(|h| var(p, h).positive()));
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in p1 + 1..pigeons {
                f.add_clause([var(p1, h).negative(), var(p2, h).negative()]);
            }
        }
    }
    let conflicts = |formula: &PbFormula| {
        let mut opt = sbgc_pb::PbEngine::from_formula(
            formula,
            SolverKind::PbsII.engine_config().expect("cdcl"),
        );
        assert!(opt.solve().is_unsat());
        opt.stats().conflicts
    };
    let plain = conflicts(&f);
    let mut g = f.clone();
    let report = shatter(&mut g, &ShatterOptions::default());
    assert!(report.num_generators > 0, "PHP is full of symmetries");
    let broken = conflicts(&g);
    assert!(broken * 2 < plain, "SBPs should at least halve conflicts: {broken} vs {plain}");
}

#[test]
fn generator_pair_scope_preserves_satisfiability() {
    for seed in 300..330u64 {
        let f = random_formula(5, seed, false);
        let before = solve_decision(&f, SolverKind::PbsII, &Budget::unlimited()).is_sat();
        let mut g = f.clone();
        let opts = ShatterOptions { scope: SbpScope::GeneratorsAndPairs, ..Default::default() };
        let report = shatter(&mut g, &opts);
        let after = solve_decision(&g, SolverKind::PbsII, &Budget::unlimited()).is_sat();
        assert_eq!(before, after, "seed {seed}");
        // Pairs scope never yields fewer predicates than generators alone.
        assert!(report.sbp.permutations >= report.num_generators);
    }
}

#[test]
fn generator_pair_scope_breaks_each_composition_once() {
    // Four disjoint transpositions (a_k b_k), kept apart by giving each
    // pair's clause its own coefficient: the group is Z2^4, every two
    // generators commute, so the 12 ordered compositions are 6 distinct
    // permutations, and 4 + 6 predicates are added.
    let mut f = PbFormula::new();
    for k in 1..=4i64 {
        let a = f.new_var().positive();
        let b = f.new_var().positive();
        f.add_pb(PbConstraint::at_least([(k, a), (k, b)], k));
    }
    let opts = ShatterOptions { scope: SbpScope::GeneratorsAndPairs, ..Default::default() };
    let report = shatter(&mut f, &opts);
    assert_eq!(report.num_generators, 4);
    assert_eq!(report.sbp.permutations, 10);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_shatter_preserves_decision(n in 2usize..6, seed in any::<u64>()) {
        let f = random_formula(n, seed, false);
        let before = solve_decision(&f, SolverKind::Pueblo, &Budget::unlimited()).is_sat();
        let mut g = f.clone();
        let _ = shatter(&mut g, &ShatterOptions::default());
        let after = solve_decision(&g, SolverKind::Pueblo, &Budget::unlimited()).is_sat();
        prop_assert_eq!(before, after);
    }
}
