//! Brute-force reference solvers, used as oracles in tests.
//!
//! These enumerate all `2^n` assignments and are only suitable for tiny
//! formulas, but they are obviously correct — the property-based tests in
//! this workspace cross-check the CDCL engine in `sbgc-pb` against them,
//! on pure CNF and on mixed CNF + PB formulas.

use sbgc_formula::{Assignment, PbFormula};

/// Exhaustively searches for a satisfying assignment.
///
/// Returns the lexicographically-first model (variable 0 least significant,
/// `false < true`), or `None` if unsatisfiable.
///
/// # Panics
///
/// Panics if the formula has more than 24 variables (the enumeration would
/// be too slow to be useful).
pub fn solve(formula: &PbFormula) -> Option<Assignment> {
    let n = formula.num_vars();
    assert!(n <= 24, "naive solver limited to 24 variables, got {n}");
    for bits in 0u64..(1u64 << n) {
        let asg = Assignment::from_bools((0..n).map(|i| bits >> i & 1 == 1));
        if formula.is_satisfied_by(&asg) {
            return Some(asg);
        }
    }
    None
}

/// Exhaustively counts the satisfying assignments.
///
/// # Panics
///
/// Panics if the formula has more than 24 variables.
pub fn count_models(formula: &PbFormula) -> u64 {
    let n = formula.num_vars();
    assert!(n <= 24, "naive counter limited to 24 variables, got {n}");
    (0u64..(1u64 << n))
        .filter(|bits| {
            let asg = Assignment::from_bools((0..n).map(|i| bits >> i & 1 == 1));
            formula.is_satisfied_by(&asg)
        })
        .count() as u64
}

/// Exhaustively minimizes the objective over satisfying assignments.
///
/// Returns `(best_value, model)`, or `None` if the formula is
/// unsatisfiable.
///
/// # Panics
///
/// Panics if the formula has more than 24 variables or no objective.
pub fn optimize(formula: &PbFormula) -> Option<(u64, Assignment)> {
    let n = formula.num_vars();
    assert!(n <= 24, "naive optimizer limited to 24 variables, got {n}");
    let obj = formula.objective().expect("formula must carry an objective");
    let mut best: Option<(u64, Assignment)> = None;
    for bits in 0u64..(1u64 << n) {
        let asg = Assignment::from_bools((0..n).map(|i| bits >> i & 1 == 1));
        if formula.is_satisfied_by(&asg) {
            let val = obj.value(&asg).expect("total assignment");
            if best.as_ref().is_none_or(|(b, _)| val < *b) {
                best = Some((val, asg));
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbgc_formula::{Objective, Var};

    #[test]
    fn finds_model_and_counts() {
        let mut f = PbFormula::new();
        let a = f.new_var().positive();
        let b = f.new_var().positive();
        f.add_clause([a, b]);
        assert!(solve(&f).is_some());
        assert_eq!(count_models(&f), 3);
    }

    #[test]
    fn unsat_detected() {
        let mut f = PbFormula::new();
        let a = f.new_var().positive();
        f.add_unit(a);
        f.add_unit(!a);
        assert!(solve(&f).is_none());
        assert_eq!(count_models(&f), 0);
    }

    #[test]
    fn optimization_finds_minimum() {
        let mut f = PbFormula::new();
        let a = f.new_var().positive();
        let b = f.new_var().positive();
        f.add_clause([a, b]);
        f.set_objective(Objective::minimize([(3, a), (1, b)]));
        let (best, model) = optimize(&f).expect("SAT");
        assert_eq!(best, 1);
        assert!(model.satisfies(b));
        assert!(model.satisfies(!a));
    }

    #[test]
    #[should_panic(expected = "24 variables")]
    fn too_many_vars_panics() {
        let f = PbFormula::with_vars(30);
        let _ = solve(&f);
    }

    #[test]
    fn respects_pb_constraints() {
        let mut f = PbFormula::new();
        let lits: Vec<_> = f.new_vars(3).into_iter().map(Var::positive).collect();
        f.add_exactly_one(&lits);
        assert_eq!(count_models(&f), 3);
    }
}
