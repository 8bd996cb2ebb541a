//! End-to-end DRAT proof logging on pure CNF: engine refutations must pass
//! the independent checker with and without database reduction and
//! compaction, a checker fed a wrong formula or a tampered, partial or
//! non-refuting log must refuse it, and the logged hint chains must never
//! change a verdict.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sbgc_formula::{Lit, Var};
use sbgc_pb::{Budget, EngineConfig, PbEngine, SolveOutcome};
use sbgc_proof::{
    check_derivation, check_drat, CheckError, CheckStats, DratProof, ProofStep, SharedProof,
};

/// PHP(holes+1, holes) as a raw clause list (UNSAT for every size).
fn pigeonhole(holes: usize) -> (usize, Vec<Vec<Lit>>) {
    let pigeons = holes + 1;
    let var = |p: usize, h: usize| Var::from_index(p * holes + h);
    let mut clauses = Vec::new();
    for p in 0..pigeons {
        clauses.push((0..holes).map(|h| var(p, h).positive()).collect());
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in p1 + 1..pigeons {
                clauses.push(vec![var(p1, h).negative(), var(p2, h).negative()]);
            }
        }
    }
    (pigeons * holes, clauses)
}

/// A logging engine loaded with `clauses` after `setup` has run.
fn logged(
    num_vars: usize,
    clauses: &[Vec<Lit>],
    setup: impl Fn(&mut PbEngine),
) -> (PbEngine, SharedProof) {
    let shared = SharedProof::new();
    let mut engine = PbEngine::new(num_vars, EngineConfig::default());
    engine.set_proof_logger(Box::new(shared.clone()));
    setup(&mut engine);
    for c in clauses {
        engine.add_clause(c.iter().copied());
    }
    (engine, shared)
}

/// Solves `clauses` with proof logging and returns the refutation.
fn refute(num_vars: usize, clauses: &[Vec<Lit>], setup: impl Fn(&mut PbEngine)) -> DratProof {
    let (mut engine, shared) = logged(num_vars, clauses, setup);
    assert!(engine.solve().is_unsat(), "expected UNSAT");
    engine.check_invariants();
    shared.take()
}

#[test]
fn pigeonhole_proofs_check() {
    for holes in 2..=4 {
        let (n, clauses) = pigeonhole(holes);
        let proof = refute(n, &clauses, |_| {});
        let stats = check_drat(n, &clauses, &proof)
            .unwrap_or_else(|e| panic!("PHP({}) proof rejected: {e}", holes + 1));
        assert!(stats.adds > 0, "PHP({}) proof must contain lemmas", holes + 1);
    }
}

#[test]
fn proof_with_deletions_checks() {
    // Force aggressive database reduction so the proof carries `d` lines,
    // exercising deletion replay in the checker.
    let (n, clauses) = pigeonhole(5);
    let proof = refute(n, &clauses, |e| e.set_max_learnts(10.0));
    assert!(proof.num_deletes() > 0, "reduction should have produced deletions");
    check_drat(n, &clauses, &proof).expect("proof with deletions must check");
}

#[test]
fn proof_checks_with_compaction_disabled() {
    // The same deletions must replay against the lazily tombstoned arena.
    let (n, clauses) = pigeonhole(5);
    let proof = refute(n, &clauses, |e| {
        e.set_max_learnts(10.0);
        e.set_compaction(false);
    });
    assert!(proof.num_deletes() > 0, "reduction should have produced deletions");
    check_drat(n, &clauses, &proof).expect("lazy-deletion proof must check");
}

#[test]
fn proof_rejected_against_weakened_formula() {
    // Dropping one pigeon's at-least-one clause makes the formula
    // satisfiable; a sound checker cannot accept any refutation of it.
    let (n, clauses) = pigeonhole(3);
    let proof = refute(n, &clauses, |_| {});
    assert!(check_drat(n, &clauses[1..], &proof).is_err());
}

#[test]
fn proof_rejected_with_injected_deletion() {
    let (n, clauses) = pigeonhole(3);
    let proof = refute(n, &clauses, |_| {});
    // Prepend a deletion of a clause that is not in the database.
    let mut tampered = DratProof::new();
    tampered.push_delete(&[Var::from_index(0).positive(), Var::from_index(1).positive()]);
    for step in proof.steps() {
        match step {
            ProofStep::Add(lits) => tampered.push_add(lits, &[]),
            ProofStep::Delete(lits) => tampered.push_delete(lits),
        }
    }
    assert_eq!(check_drat(n, &clauses, &tampered), Err(CheckError::MissingDeletion { step: 0 }));
}

#[test]
fn root_simplified_additions_are_logged() {
    // A unit clause falsifies a literal of the next clause; the simplified
    // residual must appear in the proof for the refutation to check.
    let a = Var::from_index(0);
    let b = Var::from_index(1);
    let clauses: Vec<Vec<Lit>> = vec![
        vec![a.positive()],
        vec![a.negative(), b.positive()],
        vec![a.negative(), b.negative()],
    ];
    let proof = refute(2, &clauses, |_| {});
    check_drat(2, &clauses, &proof).expect("root-level refutation must check");
}

#[test]
fn incremental_solving_keeps_proof_valid() {
    // An odd cycle of XORs, added one constraint per solve: the final
    // refutation must check against the union of everything added.
    let shared = SharedProof::new();
    let mut engine = PbEngine::new(3, EngineConfig::default());
    engine.set_proof_logger(Box::new(shared.clone()));
    let mut all: Vec<Vec<Lit>> = Vec::new();
    for (x, y) in [(0, 1), (1, 2), (2, 0)] {
        let (x, y) = (Var::from_index(x), Var::from_index(y));
        for clause in [vec![x.positive(), y.positive()], vec![x.negative(), y.negative()]] {
            engine.add_clause(clause.iter().copied());
            all.push(clause);
        }
        if all.len() < 6 {
            assert!(engine.solve().is_sat());
        }
    }
    assert!(engine.solve().is_unsat());
    check_drat(3, &all, &shared.take()).expect("incremental refutation must check");
}

#[test]
fn sat_outcome_leaves_proof_unrefuting() {
    // On a satisfiable instance the log holds lemmas but no refutation.
    let clauses: Vec<Vec<Lit>> =
        vec![vec![Var::from_index(0).positive(), Var::from_index(1).positive()]];
    let (mut engine, shared) = logged(2, &clauses, |_| {});
    assert!(engine.solve().is_sat());
    assert_eq!(check_drat(2, &clauses, &shared.take()), Err(CheckError::NotUnsat));
}

#[test]
fn budget_timeout_proof_is_partial_not_refuting() {
    // An UNSAT instance cut short by its budget logs no refutation either.
    let (n, clauses) = pigeonhole(7);
    let (mut engine, shared) = logged(n, &clauses, |_| {});
    let out = engine.solve_with_budget(&Budget::unlimited().with_max_conflicts(50));
    assert!(matches!(out, SolveOutcome::Unknown));
    assert_eq!(check_drat(n, &clauses, &shared.take()), Err(CheckError::NotUnsat));
}

/// A random 3-SAT formula: `clauses` clauses over `num_vars` variables,
/// each on three distinct variables.
fn random_3sat(num_vars: usize, clauses: usize, rng: &mut StdRng) -> Vec<Vec<Lit>> {
    let mut vars: Vec<usize> = (0..num_vars).collect();
    (0..clauses)
        .map(|_| {
            vars.shuffle(rng);
            vars[..3].iter().map(|&v| Var::from_index(v).lit(rng.gen_bool(0.5))).collect()
        })
        .collect()
}

/// The `colors`-coloring CNF of `edges` over `vertices` vertices: every
/// vertex takes a color, adjacent vertices never share one.
fn coloring_cnf(vertices: usize, edges: &[(usize, usize)], colors: usize) -> Vec<Vec<Lit>> {
    let x = |v: usize, c: usize| Var::from_index(v * colors + c);
    let mut clauses: Vec<Vec<Lit>> =
        (0..vertices).map(|v| (0..colors).map(|c| x(v, c).positive()).collect()).collect();
    for &(u, v) in edges {
        clauses.extend((0..colors).map(|c| vec![x(u, c).negative(), x(v, c).negative()]));
    }
    clauses
}

/// The (χ−1)-coloring CNF of a G(n, p) graph, χ found by solving the
/// k-coloring CNFs for k = 1, 2, … without a proof.
fn gnp_chi_minus_one(vertices: usize, p: f64, rng: &mut StdRng) -> (usize, Vec<Vec<Lit>>) {
    let mut edges = Vec::new();
    for u in 0..vertices {
        for v in u + 1..vertices {
            if rng.gen_bool(p) {
                edges.push((u, v));
            }
        }
    }
    let colorable = |k: usize| {
        let mut engine = PbEngine::new(vertices * k, EngineConfig::default());
        for c in coloring_cnf(vertices, &edges, k) {
            engine.add_clause(c);
        }
        engine.solve().is_sat()
    };
    let chi = (1..=vertices).find(|&k| colorable(k)).expect("n colors always suffice");
    (vertices * (chi - 1), coloring_cnf(vertices, &edges, chi - 1))
}

/// `proof` with every addition's chain replaced by `chain(j, hints)`.
fn rehinted(proof: &DratProof, mut chain: impl FnMut(usize, &[u32]) -> Vec<u32>) -> DratProof {
    let mut out = DratProof::new();
    let mut add = 0;
    for step in proof.steps() {
        match step {
            ProofStep::Add(lits) => {
                out.push_add(lits, &chain(add, proof.hints(add)));
                add += 1;
            }
            ProofStep::Delete(lits) => out.push_delete(lits),
        }
    }
    out
}

/// `proof` with every chain corrupted one of five ways, chosen per
/// addition: shuffled, truncated, random earlier IDs, out-of-range IDs, or
/// forward IDs (the addition's own and later ones).
fn corrupted(proof: &DratProof, formula_len: usize, rng: &mut StdRng) -> DratProof {
    let end = (formula_len + proof.num_adds()) as u32;
    rehinted(proof, |add, hints| {
        let own = (formula_len + add) as u32;
        let mut chain = hints.to_vec();
        match rng.gen_range(0..5) {
            0 => chain.shuffle(rng),
            1 => chain.truncate(rng.gen_range(0..=hints.len().saturating_sub(1))),
            2 => chain.iter_mut().for_each(|id| *id = rng.gen_range(0..own.max(1))),
            3 => chain.push(rng.gen_range(end..=u32::MAX)),
            _ => chain.iter_mut().for_each(|id| *id = rng.gen_range(own..end)),
        }
        chain
    })
}

/// The parts of a verdict hints may not change.
fn verdict(checked: Result<CheckStats, CheckError>) -> Result<(usize, usize, usize), CheckError> {
    checked.map(|s| (s.steps, s.adds, s.deletes))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Engine proofs of pigeonhole, random 3-SAT and G(n, p) (χ−1)-coloring
    /// CNFs under the four diversified worker configurations, solved under
    /// zero to two random assumptions and checked for the goal that negates
    /// them (the empty clause without assumptions) as logged, with hints
    /// stripped and with hints corrupted: the verdict, the adds and the
    /// deletes agree. Each proof is checked once more against the formula
    /// with one clause weakened by a fresh literal, which turns lemmas
    /// resolved on it into non-RUP ones that their (now wrong) chains
    /// still name. Checked as logged against the original clauses, every
    /// derivation closes each addition by its chain: minimization's
    /// removed and intermediate literals included.
    fn hints_never_change_a_verdict(
        family in 0usize..3,
        worker in 0usize..4,
        reduce in any::<bool>(),
        assumed in 0usize..3,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (num_vars, clauses) = match family {
            0 => pigeonhole(rng.gen_range(4..=6)),
            1 => {
                let n = rng.gen_range(40..=60);
                (n, random_3sat(n, n * 5, &mut rng))
            }
            _ => gnp_chi_minus_one(rng.gen_range(14..=20), 0.5, &mut rng),
        };
        let shared = SharedProof::new();
        let mut engine = PbEngine::new(num_vars, EngineConfig::default().diversified(worker));
        engine.set_proof_logger(Box::new(shared.clone()));
        if reduce {
            engine.set_max_learnts(10.0);
        }
        for c in &clauses {
            engine.add_clause(c.iter().copied());
        }
        let mut vars: Vec<usize> = (0..num_vars).collect();
        vars.shuffle(&mut rng);
        let assumptions: Vec<Lit> =
            vars[..assumed].iter().map(|&v| Var::from_index(v).lit(rng.gen_bool(0.5))).collect();
        engine.solve_with_assumptions(&assumptions, &Budget::unlimited());
        let goal: Vec<Lit> = assumptions.iter().map(|&a| !a).collect();
        let proof = shared.take();
        let stripped = rehinted(&proof, |_, _| Vec::new());
        let corrupt = corrupted(&proof, clauses.len(), &mut rng);

        let mut weakened = clauses.clone();
        let victim = rng.gen_range(0..weakened.len());
        weakened[victim].push(Var::from_index(num_vars).positive());
        let check = |vars, formula: &[Vec<Lit>], proof| check_derivation(vars, formula, proof, &goal);
        for (formula, vars) in [(&clauses, num_vars), (&weakened, num_vars + 1)] {
            let expected = verdict(check(vars, formula, &stripped));
            prop_assert_eq!(verdict(check(vars, formula, &proof)), expected.clone());
            prop_assert_eq!(verdict(check(vars, formula, &corrupt)), expected);
        }
        if family != 1 {
            // Pigeonhole and (χ−1)-coloring CNFs are UNSAT under any
            // assumptions, so the goal is derived.
            prop_assert!(check(num_vars, &clauses, &proof).is_ok());
        }
        if let Ok(stats) = check(num_vars, &clauses, &stripped) {
            prop_assert_eq!(stats.chained, 0);
        }
        if let Ok(stats) = check(num_vars, &clauses, &proof) {
            prop_assert_eq!(stats.searched, 0);
        }
    }
}
