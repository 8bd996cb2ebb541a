//! Normalized pseudo-Boolean constraints.

use crate::{Assignment, Lit, TruthValue};
use std::fmt;

/// The comparison kind of a pseudo-Boolean constraint as written by a user,
/// before normalization.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PbConstraintKind {
    /// `Σ aᵢ·ℓᵢ ≥ b`
    AtLeast,
    /// `Σ aᵢ·ℓᵢ ≤ b`
    AtMost,
    /// `Σ aᵢ·ℓᵢ = b` (expands into two normalized constraints)
    Equal,
}

/// A pseudo-Boolean constraint in normalized *at-least* form:
///
/// ```text
/// a1*l1 + a2*l2 + ... + an*ln >= b,   ai > 0
/// ```
///
/// Following Section 2.3 of the paper, arbitrary linear 0-1 inequalities are
/// brought into this form using `Σ aᵢℓᵢ ≤ b  ⇔  Σ aᵢ¬ℓᵢ ≥ Σaᵢ − b` and
/// literal complementation `x̄ = 1 − x`. Coefficients of the same literal are
/// merged; opposite literals of the same variable are cancelled against the
/// right-hand side; zero coefficients are dropped.
///
/// # Example
///
/// ```
/// use sbgc_formula::{PbConstraint, Var};
/// let x: Vec<_> = (0..3).map(|i| Var::from_index(i).positive()).collect();
/// // x0 + x1 + x2 <= 1  normalizes to  ~x0 + ~x1 + ~x2 >= 2
/// let c = PbConstraint::at_most(x.iter().map(|&l| (1, l)), 1);
/// assert_eq!(c.rhs(), 2);
/// assert!(c.terms().iter().all(|&(a, l)| a == 1 && l.is_negated()));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct PbConstraint {
    /// `(coefficient, literal)` pairs, coefficients strictly positive,
    /// at most one term per variable, sorted by variable index.
    terms: Vec<(u64, Lit)>,
    /// Right-hand side of the `>=` comparison (after normalization).
    rhs: u64,
}

impl PbConstraint {
    /// Builds `Σ aᵢ·ℓᵢ ≥ b` and normalizes it.
    ///
    /// Negative coefficients are accepted and folded into the literal sign.
    pub fn at_least<I>(terms: I, bound: i64) -> Self
    where
        I: IntoIterator<Item = (i64, Lit)>,
    {
        Self::normalize(terms.into_iter().collect(), bound)
    }

    /// Builds `Σ aᵢ·ℓᵢ ≤ b` and normalizes it (by negating both sides).
    pub fn at_most<I>(terms: I, bound: i64) -> Self
    where
        I: IntoIterator<Item = (i64, Lit)>,
    {
        let negated: Vec<(i64, Lit)> = terms.into_iter().map(|(a, l)| (-a, l)).collect();
        Self::normalize(negated, -bound)
    }

    /// Builds the pair of normalized constraints equivalent to
    /// `Σ aᵢ·ℓᵢ = b`.
    pub fn equal<I>(terms: I, bound: i64) -> (Self, Self)
    where
        I: IntoIterator<Item = (i64, Lit)>,
    {
        let terms: Vec<(i64, Lit)> = terms.into_iter().collect();
        let ge = Self::at_least(terms.iter().copied(), bound);
        let le = Self::at_most(terms, bound);
        (ge, le)
    }

    /// Builds the cardinality constraint `ℓ₁ + … + ℓₙ ≥ b`.
    pub fn cardinality<I>(lits: I, bound: u64) -> Self
    where
        I: IntoIterator<Item = Lit>,
    {
        Self::at_least(
            lits.into_iter().map(|l| (1, l)),
            i64::try_from(bound).expect("cardinality bound exceeds i64"),
        )
    }

    /// Brings `Σ aᵢ·ℓᵢ ≥ bound` into normalized form: sorts the terms by
    /// variable, merges each variable's run into one net coefficient of
    /// its positive literal (`a·¬x = a − a·x`), turns a negative net into
    /// a coefficient of the negative literal, drops zeros, and saturates.
    fn normalize(mut raw: Vec<(i64, Lit)>, mut bound: i64) -> Self {
        raw.sort_unstable_by_key(|&(_, l)| l.var());
        let mut terms = Vec::with_capacity(raw.len());
        let mut i = 0;
        while i < raw.len() {
            let var = raw[i].1.var();
            let mut net = 0i64;
            while i < raw.len() && raw[i].1.var() == var {
                let (a, l) = raw[i];
                if l.is_negated() {
                    bound -= a;
                    net -= a;
                } else {
                    net += a;
                }
                i += 1;
            }
            match net.cmp(&0) {
                std::cmp::Ordering::Greater => terms.push((net as u64, var.positive())),
                std::cmp::Ordering::Less => {
                    // a*x with a<0: rewrite as |a|*~x - |a| on the lhs.
                    bound -= net;
                    terms.push(((-net) as u64, var.negative()));
                }
                std::cmp::Ordering::Equal => {}
            }
        }
        let rhs = if bound <= 0 { 0 } else { bound as u64 };
        // Saturate: a coefficient larger than the bound acts exactly like the
        // bound itself.
        if rhs > 0 {
            for t in &mut terms {
                if t.0 > rhs {
                    t.0 = rhs;
                }
            }
        }
        PbConstraint { terms, rhs }
    }

    /// The `(coefficient, literal)` terms, sorted by variable index.
    pub fn terms(&self) -> &[(u64, Lit)] {
        &self.terms
    }

    /// The normalized right-hand side `b` of `Σ aᵢ·ℓᵢ ≥ b`.
    pub fn rhs(&self) -> u64 {
        self.rhs
    }

    /// Number of terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Returns `true` if the constraint has no terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Sum of all coefficients.
    pub fn coefficient_sum(&self) -> u64 {
        self.terms.iter().map(|&(a, _)| a).sum()
    }

    /// A constraint is trivially true when even the empty assignment meets
    /// the bound (rhs 0).
    pub fn is_trivially_true(&self) -> bool {
        self.rhs == 0
    }

    /// A constraint is trivially false when all coefficients together cannot
    /// reach the bound.
    pub fn is_trivially_false(&self) -> bool {
        self.coefficient_sum() < self.rhs
    }

    /// Returns `true` if every coefficient is 1 (a cardinality constraint).
    pub fn is_cardinality(&self) -> bool {
        self.terms.iter().all(|&(a, _)| a == 1)
    }

    /// Returns `true` if this constraint is equivalent to a single CNF
    /// clause (cardinality with bound 1).
    pub fn is_clause(&self) -> bool {
        self.rhs == 1 && self.is_cardinality()
    }

    /// Evaluates the constraint under a (possibly partial) assignment.
    ///
    /// Returns `True` as soon as satisfied literals alone reach the bound,
    /// `False` when the unassigned + satisfied literals can no longer reach
    /// it, `Unknown` otherwise.
    pub fn eval(&self, assignment: &Assignment) -> TruthValue {
        let mut satisfied: u64 = 0;
        let mut potential: u64 = 0;
        for &(a, l) in &self.terms {
            match assignment.lit_value(l) {
                TruthValue::True => {
                    satisfied += a;
                    potential += a;
                }
                TruthValue::Unknown => potential += a,
                TruthValue::False => {}
            }
        }
        if satisfied >= self.rhs {
            TruthValue::True
        } else if potential < self.rhs {
            TruthValue::False
        } else {
            TruthValue::Unknown
        }
    }

    /// Returns the slack of the constraint under a partial assignment: the
    /// amount by which the maximum still-achievable left-hand side exceeds
    /// the bound. Negative slack means the constraint is violated.
    pub fn slack(&self, assignment: &Assignment) -> i64 {
        let mut potential: i64 = 0;
        for &(a, l) in &self.terms {
            if assignment.lit_value(l) != TruthValue::False {
                potential += a as i64;
            }
        }
        potential - self.rhs as i64
    }
}

impl fmt::Debug for PbConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pb[{self}]")
    }
}

impl fmt::Display for PbConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (a, l)) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            if *a == 1 {
                write!(f, "{l}")?;
            } else {
                write!(f, "{a}*{l}")?;
            }
        }
        write!(f, " >= {}", self.rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Var;

    fn x(i: usize) -> Lit {
        Var::from_index(i).positive()
    }

    #[test]
    fn at_least_passthrough() {
        let c = PbConstraint::at_least([(2, x(0)), (3, x(1))], 4);
        assert_eq!(c.terms(), &[(2, x(0)), (3, x(1))]);
        assert_eq!(c.rhs(), 4);
    }

    #[test]
    fn at_most_negates() {
        // x0 + x1 <= 1  ==>  ~x0 + ~x1 >= 1
        let c = PbConstraint::at_most([(1, x(0)), (1, x(1))], 1);
        assert_eq!(c.rhs(), 1);
        assert_eq!(c.terms(), &[(1, !x(0)), (1, !x(1))]);
    }

    #[test]
    fn merges_duplicate_literals() {
        let c = PbConstraint::at_least([(1, x(0)), (2, x(0))], 2);
        assert_eq!(c.terms(), &[(2, x(0))]); // saturated from 3 to rhs=2
        assert_eq!(c.rhs(), 2);
    }

    #[test]
    fn cancels_opposite_literals() {
        // 2*x0 + 1*~x0 >= 2  ==  (x0 + 1) >= 2  ==  x0 >= 1
        let c = PbConstraint::at_least([(2, x(0)), (1, !x(0))], 2);
        assert_eq!(c.terms(), &[(1, x(0))]);
        assert_eq!(c.rhs(), 1);
    }

    #[test]
    fn negative_coefficients_fold_into_sign() {
        // -2*x0 >= -1   ==  2*~x0 >= 1  (after normalization, saturated)
        let c = PbConstraint::at_least([(-2, x(0))], -1);
        assert_eq!(c.rhs(), 1);
        assert_eq!(c.terms(), &[(1, !x(0))]);
    }

    #[test]
    fn equal_yields_two_sides() {
        let (ge, le) = PbConstraint::equal([(1, x(0)), (1, x(1))], 1);
        assert_eq!(ge.rhs(), 1);
        assert_eq!(le.rhs(), 1); // ~x0 + ~x1 >= 1
        assert!(le.terms().iter().all(|&(_, l)| l.is_negated()));
    }

    #[test]
    fn trivial_detection() {
        assert!(PbConstraint::at_least([(1, x(0))], 0).is_trivially_true());
        assert!(PbConstraint::at_least([(1, x(0))], 2).is_trivially_false());
    }

    #[test]
    fn clause_detection() {
        assert!(PbConstraint::cardinality([x(0), x(1)], 1).is_clause());
        assert!(!PbConstraint::cardinality([x(0), x(1)], 2).is_clause());
        // Note: with bound 1 saturation would reduce the coefficient 2 to 1,
        // making it a genuine clause, so test with bound 2.
        assert!(!PbConstraint::at_least([(2, x(0)), (1, x(1)), (1, x(2))], 2).is_clause());
    }

    #[test]
    fn eval_three_valued() {
        let c = PbConstraint::at_least([(2, x(0)), (1, x(1)), (1, x(2))], 3);
        let mut asg = Assignment::new(3);
        assert_eq!(c.eval(&asg), TruthValue::Unknown);
        asg.assign(x(0).var(), true);
        asg.assign(x(1).var(), true);
        assert_eq!(c.eval(&asg), TruthValue::True);
        let mut asg2 = Assignment::new(3);
        asg2.assign(x(0).var(), false);
        // max achievable = 2 < 3
        assert_eq!(c.eval(&asg2), TruthValue::False);
    }

    #[test]
    fn slack_tracks_violation() {
        let c = PbConstraint::at_least([(2, x(0)), (1, x(1))], 2);
        let mut asg = Assignment::new(2);
        assert_eq!(c.slack(&asg), 1);
        asg.assign(x(0).var(), false);
        assert_eq!(c.slack(&asg), -1);
    }
}
