//! End-to-end DRAT proof logging on pure CNF: engine refutations must pass
//! the independent checker with and without database reduction and
//! compaction, and a checker fed a wrong formula or a tampered, partial or
//! non-refuting log must refuse it.

use sbgc_formula::{Lit, Var};
use sbgc_pb::{Budget, EngineConfig, PbEngine, SolveOutcome};
use sbgc_proof::{check_drat, CheckError, DratProof, ProofStep, SharedProof};

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
            ProofStep::Add(lits) => tampered.push_add(lits),
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
