//! Explanation of PB propagations and conflicts as implied CNF clauses.
//!
//! When a pseudo-Boolean constraint `Σ aⱼ·ℓⱼ ≥ b` propagates a literal or
//! becomes conflicting, the CDCL machinery needs a *clause* it can resolve
//! on. A sound explanation for propagating `ℓᵢ` is any clause
//! `ℓᵢ ∨ ⋁_{j∈F'} ℓⱼ` where `F'` is a set of falsified literals such that
//! the remaining coefficients cannot reach the bound:
//! `Σ_{j∉F'∪{i}} aⱼ < b`. The original PBS solver uses exactly this
//! CNF-explanation scheme; the strategies below differ in *which* subset
//! `F'` they pick, reproducing the algorithmic diversity of the paper's
//! three specialized solvers.

use sbgc_formula::Lit;

/// Strategy for choosing the falsified-literal subset in a PB explanation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExplainStrategy {
    /// Use *every* falsified literal (weakest, cheapest — original PBS).
    AllFalse,
    /// Greedily take falsified literals with the largest coefficients until
    /// the implication holds (shortest clause; in the spirit of Galena's
    /// cardinality reduction, which prunes by coefficient weight).
    GreedyCoefficient,
    /// Greedily take the most recently falsified literals until the
    /// implication holds (in the spirit of Pueblo's slack-based cutting
    /// planes, which work with the current trail state).
    GreedyRecency,
}

/// One falsified literal of a PB constraint, as seen by the explainer.
#[derive(Clone, Copy, Debug)]
pub struct FalseTerm {
    /// The falsified literal (as it appears in the constraint).
    pub lit: Lit,
    /// Its coefficient.
    pub coeff: u64,
    /// Trail position at which it was falsified (for recency ordering).
    pub trail_pos: usize,
}

impl ExplainStrategy {
    /// Builds the explanation literal set for a constraint with bound
    /// `rhs`, coefficient sum `coeff_sum` (over *all* terms), falsified
    /// terms `false_terms`, and — for a propagation — the coefficient
    /// `propagated_coeff` of the implied literal (`0` for a conflict).
    ///
    /// Appends the chosen subset of falsified literals to `out`, so the
    /// engine can reuse one buffer for every explanation and put the
    /// implied literal of a propagation first. The greedy strategies sort
    /// `false_terms` in place.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if even the full falsified set does not
    /// justify the implication — i.e. the caller asked to explain something
    /// the constraint does not imply.
    pub fn select(
        self,
        rhs: u64,
        coeff_sum: u64,
        false_terms: &mut [FalseTerm],
        propagated_coeff: u64,
        out: &mut Vec<Lit>,
    ) {
        // The implication `ℓᵢ ∨ ⋁F'` holds iff
        //   coeff_sum - propagated_coeff - Σ_{j∈F'} aⱼ < rhs.
        let full: u64 = false_terms.iter().map(|t| t.coeff).sum();
        debug_assert!(
            coeff_sum - propagated_coeff - full < rhs,
            "explanation requested for a non-implication"
        );
        match self {
            ExplainStrategy::AllFalse => out.extend(false_terms.iter().map(|t| t.lit)),
            ExplainStrategy::GreedyCoefficient => {
                false_terms.sort_by_key(|t| (std::cmp::Reverse(t.coeff), t.trail_pos));
                Self::take_until_valid(rhs, coeff_sum, propagated_coeff, false_terms, out);
            }
            ExplainStrategy::GreedyRecency => {
                false_terms.sort_by_key(|t| std::cmp::Reverse(t.trail_pos));
                Self::take_until_valid(rhs, coeff_sum, propagated_coeff, false_terms, out);
            }
        }
    }

    fn take_until_valid(
        rhs: u64,
        coeff_sum: u64,
        propagated_coeff: u64,
        ordered: &[FalseTerm],
        out: &mut Vec<Lit>,
    ) {
        let mut remaining = coeff_sum - propagated_coeff;
        for t in ordered {
            if remaining < rhs {
                break;
            }
            remaining -= t.coeff;
            out.push(t.lit);
        }
        debug_assert!(remaining < rhs, "greedy selection failed to reach validity");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbgc_formula::Var;

    fn ft(i: usize, coeff: u64, pos: usize) -> FalseTerm {
        FalseTerm { lit: Var::from_index(i).positive(), coeff, trail_pos: pos }
    }

    /// `strategy`'s explanation as a fresh vector.
    fn select(
        strategy: ExplainStrategy,
        rhs: u64,
        coeff_sum: u64,
        terms: &[FalseTerm],
        propagated_coeff: u64,
    ) -> Vec<Lit> {
        let mut out = Vec::new();
        strategy.select(rhs, coeff_sum, &mut terms.to_vec(), propagated_coeff, &mut out);
        out
    }

    /// Constraint: 3a + 2b + 1c + 1d >= 3 (sum 7). a,b false → slack = 2-3 <0?
    /// With a,b false remaining = 2 < 3: conflict. Explanations:
    #[test]
    fn all_false_takes_everything() {
        let terms = [ft(0, 3, 10), ft(1, 2, 20)];
        let lits = select(ExplainStrategy::AllFalse, 3, 7, &terms, 0);
        assert_eq!(lits.len(), 2);
    }

    #[test]
    fn greedy_coefficient_takes_fewest() {
        // 5a + 1b + 1c >= 2, sum = 7; a and b false (remaining 1 < 2).
        // Taking just a (coeff 5): remaining 2, not < 2. Need b too? remaining
        // after a = 2 which is NOT < 2, so must continue: take b → 1 < 2. Both.
        let terms = [ft(0, 5, 1), ft(1, 1, 2)];
        let lits = select(ExplainStrategy::GreedyCoefficient, 2, 7, &terms, 0);
        assert_eq!(lits.len(), 2);
        // 5a + 3b + 1c >= 3, sum 9; a,b false → remaining 1 < 3 ✓.
        // Greedy: a (rem 4), b (rem 1 < 3) → needs both; but with
        // 6a + 3b + 1c >= 3 (sum 10), a,b false (rem 1): a → rem 4, b → 1. Hmm.
        // With rhs 5: 6a+3b+1c >= 5, a,b false → rem 1 < 5; a → rem 4 < 5 ✓
        let terms = [ft(0, 6, 1), ft(1, 3, 2)];
        let lits = select(ExplainStrategy::GreedyCoefficient, 5, 10, &terms, 0);
        assert_eq!(lits.len(), 1);
        assert_eq!(lits[0], Var::from_index(0).positive());
    }

    #[test]
    fn greedy_recency_prefers_recent() {
        // 2a + 2b + 1c >= 4 (sum 5): propagating c (coeff 1) once a false:
        // remaining without c = 4, a false → 2 < 4 ✓. Now both a,b false;
        // explanation should take most recent first and stop when valid.
        let terms = [ft(0, 2, 1), ft(1, 2, 9)];
        let lits = select(ExplainStrategy::GreedyRecency, 4, 5, &terms, 1);
        assert_eq!(lits.len(), 1);
        assert_eq!(lits[0], Var::from_index(1).positive(), "most recent literal chosen");
    }

    #[test]
    fn propagation_explanations_account_for_implied_coeff() {
        // 3a + 2b >= 3 (sum 5): a is forced even with b true (5-3=2 < 3),
        // so the greedy strategies need *no* antecedent literals, while
        // AllFalse conservatively includes the falsified b.
        let terms = [ft(1, 2, 4)];
        let lits = select(ExplainStrategy::AllFalse, 3, 5, &terms, 3);
        assert_eq!(lits.len(), 1);
        for strat in [ExplainStrategy::GreedyCoefficient, ExplainStrategy::GreedyRecency] {
            assert!(select(strat, 3, 5, &terms, 3).is_empty(), "{strat:?}");
        }
        // 3a + 2b + 2c >= 4 (sum 7): with b false, remaining excl. a = 2 <
        // 4 − wait: 7−3−2 = 2 < 4 ⇒ a implied *because* b is false; every
        // strategy must cite b.
        let terms = [ft(1, 2, 4)];
        for strat in [
            ExplainStrategy::AllFalse,
            ExplainStrategy::GreedyCoefficient,
            ExplainStrategy::GreedyRecency,
        ] {
            let lits = select(strat, 4, 7, &terms, 3);
            assert_eq!(lits.len(), 1, "{strat:?}");
        }
    }
}
