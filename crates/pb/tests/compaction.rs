//! Clause-arena compaction on pure CNF: equivalence with the lazy-deletion
//! baseline on a seeded random suite, database invariants, and the
//! bounded-memory guarantee after many `reduce_db` cycles.

use sbgc_formula::{Lit, Var};
use sbgc_pb::{Budget, EngineConfig, PbEngine, SolveOutcome};

/// SplitMix64 — deterministic seeds without external dependencies.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random 3-CNF instance near the phase transition (ratio ≈ 4.2).
fn random_3cnf(num_vars: usize, num_clauses: usize, seed: u64) -> Vec<Vec<Lit>> {
    let mut rng = SplitMix64(seed);
    let mut clauses = Vec::with_capacity(num_clauses);
    while clauses.len() < num_clauses {
        let vars = [0; 3].map(|_| rng.below(num_vars as u64) as usize);
        if vars[0] == vars[1] || vars[1] == vars[2] || vars[0] == vars[2] {
            continue;
        }
        clauses.push(vars.iter().map(|&v| Var::from_index(v).lit(rng.below(2) == 0)).collect());
    }
    clauses
}

fn solve_with(num_vars: usize, clauses: &[Vec<Lit>], compact: bool) -> (SolveOutcome, PbEngine) {
    let mut e = PbEngine::new(num_vars, EngineConfig::default());
    e.set_compaction(compact);
    // A tiny reduction limit so even small instances cycle the database.
    e.set_max_learnts(20.0);
    for c in clauses {
        e.add_clause(c.iter().copied());
    }
    let out = e.solve();
    (out, e)
}

#[test]
fn compaction_equivalence_on_seeded_random_suite() {
    // Compaction rebuilds watch lists in arena order while lazy deletion
    // swap-removes, so search trajectories (and stats) may diverge — the
    // contract is answer equivalence plus model validity.
    let num_vars = 30;
    let num_clauses = 126;
    for seed in 1..=12u64 {
        let clauses = random_3cnf(num_vars, num_clauses, seed);
        let (with, e1) = solve_with(num_vars, &clauses, true);
        let (without, e2) = solve_with(num_vars, &clauses, false);
        e1.check_invariants();
        e2.check_invariants();
        match (&with, &without) {
            (SolveOutcome::Sat(m1), SolveOutcome::Sat(m2)) => {
                for (i, c) in clauses.iter().enumerate() {
                    assert!(c.iter().any(|&l| m1.satisfies(l)), "seed {seed}: clause {i} (on)");
                    assert!(c.iter().any(|&l| m2.satisfies(l)), "seed {seed}: clause {i} (off)");
                }
            }
            (SolveOutcome::Unsat, SolveOutcome::Unsat) => {}
            (a, b) => panic!("seed {seed}: compaction changed the answer: {a:?} vs {b:?}"),
        }
        // Compaction keeps the arena free of tombstones.
        assert_eq!(e1.arena_clauses(), e1.live_clauses(), "seed {seed}");
        assert_eq!(e1.stats().reclaimed, e1.stats().deleted, "seed {seed}");
    }
}

#[test]
fn lazy_deletion_baseline_accumulates_tombstones() {
    // With compaction off the arena keeps every clause it tombstoned.
    let mut deleting_runs = 0;
    for seed in 1..=12u64 {
        let clauses = random_3cnf(30, 126, seed);
        let (_, e) = solve_with(30, &clauses, false);
        assert_eq!(e.stats().reclaimed, 0, "seed {seed}");
        if e.stats().deleted > 0 {
            assert!(e.arena_clauses() > e.live_clauses(), "seed {seed}");
            deleting_runs += 1;
        }
    }
    assert!(deleting_runs > 0, "no seed reached a database reduction");
}

#[test]
fn arena_stays_bounded_over_many_reductions() {
    // PHP(9, 8) is far too hard to finish within the conflict budget, so
    // the engine grinds through ≥ 20 reduce_db cycles; the acceptance
    // criterion is that the arena holds no tombstones afterwards (live
    // count == stored count, all deletions physically reclaimed).
    let holes = 8;
    let pigeons = holes + 1;
    let var = |p: usize, h: usize| Var::from_index(p * holes + h);
    let mut e = PbEngine::new(pigeons * holes, EngineConfig::default());
    e.set_max_learnts(10.0);
    for p in 0..pigeons {
        e.add_clause((0..holes).map(|h| var(p, h).positive()));
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in p1 + 1..pigeons {
                e.add_clause([var(p1, h).negative(), var(p2, h).negative()]);
            }
        }
    }
    let out = e.solve_with_budget(&Budget::unlimited().with_max_conflicts(12_000));
    assert!(!out.is_sat(), "PHP must not be SAT");
    let st = e.stats();
    assert!(st.reductions >= 20, "expected >= 20 reduce_db cycles, got {}", st.reductions);
    assert!(st.deleted > 0);
    assert_eq!(st.reclaimed, st.deleted, "every tombstone must be reclaimed");
    assert_eq!(e.arena_clauses(), e.live_clauses(), "arena must hold no tombstones");
    // Live learned clauses stay within 2x the post-reduction live set.
    let live_learned = (st.learned - st.deleted) as usize;
    assert!(
        e.live_clauses() <= e.num_vars() * pigeons + 2 * live_learned + 1,
        "live {} vs learned-live {live_learned}",
        e.live_clauses()
    );
    e.check_invariants();
}
