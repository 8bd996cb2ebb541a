//! Permutations of a formula's literals.

use crate::index::FormulaIndex;
use sbgc_formula::{Lit, PbFormula, Var};
use std::fmt;

/// A permutation of the `2n` literals of an `n`-variable formula that
/// commutes with negation (`π(¬ℓ) = ¬π(ℓ)`) — the algebraic form of a
/// formula symmetry. Phase-shift symmetries (mapping a variable to its own
/// negation) are representable.
///
/// # Example
///
/// ```
/// use sbgc_formula::Var;
/// use sbgc_shatter::LitPermutation;
///
/// let a = Var::from_index(0);
/// let b = Var::from_index(1);
/// // Swap variables a and b.
/// let p = LitPermutation::from_var_swap(2, a, b);
/// assert_eq!(p.apply(a.positive()), b.positive());
/// assert_eq!(p.apply(a.negative()), b.negative());
/// assert!(!p.is_identity());
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct LitPermutation {
    /// `images[l.code()]` = code of the image literal.
    images: Vec<u32>,
}

impl LitPermutation {
    /// The identity on `num_vars` variables.
    pub fn identity(num_vars: usize) -> Self {
        LitPermutation { images: (0..2 * num_vars as u32).collect() }
    }

    /// Builds a permutation from a literal-code image table.
    ///
    /// Returns `None` if the table is not a bijection or does not commute
    /// with negation.
    pub fn from_images(images: Vec<u32>) -> Option<Self> {
        let n2 = images.len();
        if !n2.is_multiple_of(2) {
            return None;
        }
        let mut seen = vec![false; n2];
        for &img in &images {
            let i = img as usize;
            if i >= n2 || seen[i] {
                return None;
            }
            seen[i] = true;
        }
        // Negation consistency: π(¬ℓ) == ¬π(ℓ).
        for code in (0..n2).step_by(2) {
            if images[code] ^ 1 != images[code ^ 1] {
                return None;
            }
        }
        Some(LitPermutation { images })
    }

    /// The transposition of two variables (both phases), identity
    /// elsewhere.
    ///
    /// # Panics
    ///
    /// Panics if either variable is out of range.
    pub fn from_var_swap(num_vars: usize, a: Var, b: Var) -> Self {
        let mut p = Self::identity(num_vars);
        let (pa, na) = (a.positive().code(), a.negative().code());
        let (pb, nb) = (b.positive().code(), b.negative().code());
        p.images.swap(pa, pb);
        p.images.swap(na, nb);
        p
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.images.len() / 2
    }

    /// The image of a literal.
    ///
    /// # Panics
    ///
    /// Panics if the literal is out of range.
    pub fn apply(&self, lit: Lit) -> Lit {
        Lit::from_code(self.images[lit.code()] as usize)
    }

    /// Returns `true` if every literal is fixed.
    pub fn is_identity(&self) -> bool {
        self.images.iter().enumerate().all(|(i, &img)| i == img as usize)
    }

    /// Variables whose positive literal is moved (the support), ascending.
    pub fn support(&self) -> Vec<Var> {
        (0..self.num_vars())
            .map(Var::from_index)
            .filter(|v| self.apply(v.positive()) != v.positive())
            .collect()
    }

    /// Returns `true` if some variable maps to its own negation.
    pub fn has_phase_shift(&self) -> bool {
        (0..self.num_vars()).any(|i| {
            let v = Var::from_index(i);
            self.apply(v.positive()) == v.negative()
        })
    }

    /// Composition: `(p.compose(q)).apply(l) == p.apply(q.apply(l))`.
    ///
    /// # Panics
    ///
    /// Panics if sizes differ.
    pub fn compose(&self, other: &LitPermutation) -> LitPermutation {
        assert_eq!(self.images.len(), other.images.len(), "size mismatch");
        LitPermutation { images: other.images.iter().map(|&m| self.images[m as usize]).collect() }
    }

    /// Checks that applying this permutation to every constraint of
    /// `formula` yields a constraint set equal (as normalized multisets) to
    /// the original — i.e. that this is a genuine formula symmetry. Clauses
    /// compare as sets of literals, PB constraints as their normalized terms
    /// and right-hand side, and the objective must be fixed as a multiset
    /// of weighted literals.
    ///
    /// This indexes `formula` for a single query.
    /// [`detect_symmetries`](crate::detect_symmetries) builds the same
    /// index once and checks every generator of the symmetry graph's group
    /// against it.
    pub fn preserves(&self, formula: &PbFormula) -> bool {
        FormulaIndex::new(formula).is_preserved_by(self)
    }
}

impl fmt::Debug for LitPermutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let moved: Vec<String> = (0..self.num_vars())
            .filter_map(|i| {
                let v = Var::from_index(i);
                let img = self.apply(v.positive());
                (img != v.positive()).then(|| format!("{}->{img}", v.positive()))
            })
            .collect();
        write!(f, "LitPermutation[{}]", moved.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_images_validates_negation_consistency() {
        // Swap x0 with x1 but not their negations: inconsistent.
        let bad = vec![2, 1, 0, 3];
        assert!(LitPermutation::from_images(bad).is_none());
        let good = vec![2, 3, 0, 1];
        assert!(LitPermutation::from_images(good).is_some());
    }

    #[test]
    fn phase_shift_detection() {
        // x0 -> ~x0.
        let p = LitPermutation::from_images(vec![1, 0]).expect("valid");
        assert!(p.has_phase_shift());
        assert!(!LitPermutation::identity(1).has_phase_shift());
    }

    #[test]
    fn swap_preserves_symmetric_formula() {
        let mut f = PbFormula::new();
        let a = f.new_var();
        let b = f.new_var();
        f.add_clause([a.positive(), b.positive()]);
        let swap = LitPermutation::from_var_swap(2, a, b);
        assert!(swap.preserves(&f));
        // Asymmetric formula: unit on a only.
        f.add_unit(a.positive());
        assert!(!swap.preserves(&f));
    }

    #[test]
    fn preserves_checks_pb_and_objective() {
        use sbgc_formula::{Objective, PbConstraint};
        let mut f = PbFormula::new();
        let a = f.new_var();
        let b = f.new_var();
        let c = f.new_var();
        f.add_pb(PbConstraint::at_least(
            [(2, a.positive()), (2, b.positive()), (1, c.positive())],
            2,
        ));
        let swap_ab = LitPermutation::from_var_swap(3, a, b);
        let swap_ac = LitPermutation::from_var_swap(3, a, c);
        assert!(swap_ab.preserves(&f), "equal coefficients commute");
        assert!(!swap_ac.preserves(&f), "different coefficients must not");
        f.set_objective(Objective::minimize([(1, a.positive())]));
        assert!(!swap_ab.preserves(&f), "objective pins a");
    }

    #[test]
    fn support_and_compose() {
        let a = Var::from_index(0);
        let b = Var::from_index(1);
        let p = LitPermutation::from_var_swap(3, a, b);
        assert_eq!(p.support(), vec![a, b]);
        assert!(p.compose(&p).is_identity());
    }
}
