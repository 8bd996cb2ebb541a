//! The result of a decision query.

use sbgc_formula::Assignment;

/// Result of a CDCL solve call.
#[derive(Clone, Debug)]
pub enum SolveOutcome {
    /// Satisfiable, with a total model.
    Sat(Assignment),
    /// Proven unsatisfiable.
    Unsat,
    /// The budget ran out before an answer was found.
    Unknown,
}

impl SolveOutcome {
    /// Returns the model if the outcome is SAT.
    pub fn model(&self) -> Option<&Assignment> {
        match self {
            SolveOutcome::Sat(m) => Some(m),
            _ => None,
        }
    }

    /// Returns `true` if the outcome is [`SolveOutcome::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SolveOutcome::Sat(_))
    }

    /// Returns `true` if the outcome is [`SolveOutcome::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, SolveOutcome::Unsat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_match_the_variant() {
        let model = Assignment::from_bools([true, false]);
        let sat = SolveOutcome::Sat(model.clone());
        assert!(sat.is_sat() && !sat.is_unsat());
        assert_eq!(sat.model(), Some(&model));
        for undecided in [SolveOutcome::Unsat, SolveOutcome::Unknown] {
            assert!(!undecided.is_sat());
            assert!(undecided.model().is_none());
        }
        assert!(SolveOutcome::Unsat.is_unsat());
        assert!(!SolveOutcome::Unknown.is_unsat(), "a budget stop is not a refutation");
    }
}
