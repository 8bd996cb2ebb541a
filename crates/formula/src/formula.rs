//! The mixed CNF + pseudo-Boolean formula container.

use crate::{Assignment, ClauseList, Lit, Objective, PbConstraint, TruthValue, Var};
use std::fmt;

/// Size statistics of a [`PbFormula`], mirroring the columns of Table 2 in
/// the paper (#variables, #CNF clauses, #PB constraints).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct FormulaStats {
    /// Number of Boolean variables.
    pub vars: usize,
    /// Number of CNF clauses.
    pub clauses: usize,
    /// Number of pseudo-Boolean constraints.
    pb: usize,
    /// Total number of literal occurrences across clauses and PB terms.
    pub literal_occurrences: usize,
}

impl FormulaStats {
    /// Number of pseudo-Boolean constraints.
    pub fn pb_constraints(&self) -> usize {
        self.pb
    }
}

/// A 0-1 ILP problem: CNF clauses + pseudo-Boolean constraints + an optional
/// linear minimization objective.
///
/// The clauses are one flat [`ClauseList`]: adding a clause appends its
/// literals to one vector, so a formula of `m` clauses holds no heap block
/// per clause.
///
/// This is the object produced by the coloring encoder in `sbgc-core` and
/// consumed by the solvers in `sbgc-pb` (or, when it is pure CNF, by
/// `sbgc-sat`).
///
/// # Example
///
/// ```
/// use sbgc_formula::{PbFormula, Objective};
/// let mut f = PbFormula::new();
/// let a = f.new_var().positive();
/// let b = f.new_var().positive();
/// f.add_clause([a, b]);
/// f.add_at_most_one(&[a, b]);
/// f.set_objective(Objective::minimize([(1, a)]));
/// assert!(f.objective().is_some());
/// ```
#[derive(Clone, Default)]
pub struct PbFormula {
    num_vars: usize,
    clauses: ClauseList,
    pb_constraints: Vec<PbConstraint>,
    objective: Option<Objective>,
}

impl PbFormula {
    /// Creates an empty formula with no variables.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty formula with `num_vars` pre-allocated variables.
    pub fn with_vars(num_vars: usize) -> Self {
        PbFormula { num_vars, ..Self::default() }
    }

    /// Creates a pure-CNF formula over at least `num_vars` variables (more
    /// when a clause names a larger one) that takes `clauses` as its
    /// clause list, without copying it.
    pub fn from_clauses(num_vars: usize, clauses: ClauseList) -> Self {
        let num_vars = num_vars.max(var_bound(clauses.literals().iter().copied()));
        PbFormula { num_vars, clauses, ..Self::default() }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.num_vars);
        self.num_vars += 1;
        v
    }

    /// Allocates `n` fresh variables and returns them.
    pub fn new_vars(&mut self, n: usize) -> Vec<Var> {
        (0..n).map(|_| self.new_var()).collect()
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The CNF clauses, in the order they were added.
    pub fn clauses(&self) -> &ClauseList {
        &self.clauses
    }

    /// The pseudo-Boolean constraints.
    pub fn pb_constraints(&self) -> &[PbConstraint] {
        &self.pb_constraints
    }

    /// The objective, if any.
    pub fn objective(&self) -> Option<&Objective> {
        self.objective.as_ref()
    }

    /// Sets (replacing) the minimization objective.
    pub fn set_objective(&mut self, objective: Objective) {
        self.grow_for_lits(objective.terms().iter().map(|&(_, l)| l));
        self.objective = Some(objective);
    }

    /// Removes the objective, turning the problem into a pure decision
    /// problem.
    pub fn clear_objective(&mut self) -> Option<Objective> {
        self.objective.take()
    }

    /// Adds a CNF clause: any iterator of literals (e.g. an array or a
    /// `Vec`), kept in its order.
    pub fn add_clause(&mut self, clause: impl IntoIterator<Item = Lit>) {
        self.clauses.push(clause);
        let added = &self.clauses[self.clauses.len() - 1];
        self.num_vars = self.num_vars.max(var_bound(added.iter().copied()));
    }

    /// Adds a unit clause fixing `lit` to true.
    pub fn add_unit(&mut self, lit: Lit) {
        self.add_clause([lit]);
    }

    /// Adds the implication `a ⇒ b` as the clause `(¬a ∨ b)`.
    pub fn add_implication(&mut self, a: Lit, b: Lit) {
        self.add_clause([!a, b]);
    }

    /// Adds a pseudo-Boolean constraint.
    pub fn add_pb(&mut self, constraint: PbConstraint) {
        self.grow_for_lits(constraint.terms().iter().map(|&(_, l)| l));
        self.pb_constraints.push(constraint);
    }

    /// Adds `Σ ℓᵢ = 1` (exactly-one), as a single PB equality pair — the
    /// form the paper's encoder uses per vertex.
    pub fn add_exactly_one(&mut self, lits: &[Lit]) {
        let (ge, le) = PbConstraint::equal(lits.iter().map(|&l| (1, l)), 1);
        self.add_pb(ge);
        self.add_pb(le);
    }

    /// Adds `Σ ℓᵢ ≤ 1` (at-most-one) as a single PB constraint.
    pub fn add_at_most_one(&mut self, lits: &[Lit]) {
        self.add_pb(PbConstraint::at_most(lits.iter().map(|&l| (1, l)), 1));
    }

    /// Returns `true` when the formula has no PB constraints (and can be
    /// handed to a pure CNF SAT solver).
    pub fn is_pure_cnf(&self) -> bool {
        self.pb_constraints.is_empty()
    }

    /// Size statistics (Table 2 columns).
    pub fn stats(&self) -> FormulaStats {
        FormulaStats {
            vars: self.num_vars,
            clauses: self.clauses.len(),
            pb: self.pb_constraints.len(),
            literal_occurrences: self.clauses.num_literals()
                + self.pb_constraints.iter().map(PbConstraint::len).sum::<usize>(),
        }
    }

    /// Evaluates the conjunction of all constraints under a (possibly
    /// partial) assignment.
    pub fn eval(&self, assignment: &Assignment) -> TruthValue {
        let mut unknown = false;
        for c in &self.clauses {
            match eval_clause(c, assignment) {
                TruthValue::False => return TruthValue::False,
                TruthValue::Unknown => unknown = true,
                TruthValue::True => {}
            }
        }
        for p in &self.pb_constraints {
            match p.eval(assignment) {
                TruthValue::False => return TruthValue::False,
                TruthValue::Unknown => unknown = true,
                TruthValue::True => {}
            }
        }
        if unknown {
            TruthValue::Unknown
        } else {
            TruthValue::True
        }
    }

    /// Returns `true` if the total assignment satisfies every constraint.
    ///
    /// # Panics
    ///
    /// Panics if the assignment covers fewer variables than the formula.
    pub fn is_satisfied_by(&self, assignment: &Assignment) -> bool {
        assert!(
            assignment.num_vars() >= self.num_vars,
            "assignment covers {} vars, formula has {}",
            assignment.num_vars(),
            self.num_vars
        );
        self.eval(assignment) == TruthValue::True
    }

    /// Appends all constraints (and variables) of `other` into `self`,
    /// keeping variable identities. Both formulas must have been built
    /// against the same variable numbering.
    pub fn absorb(&mut self, other: PbFormula) {
        self.num_vars = self.num_vars.max(other.num_vars);
        for c in &other.clauses {
            self.clauses.push(c.iter().copied());
        }
        self.pb_constraints.extend(other.pb_constraints);
        if let Some(obj) = other.objective {
            self.objective = Some(obj);
        }
    }

    fn grow_for_lits(&mut self, lits: impl IntoIterator<Item = Lit>) {
        self.num_vars = self.num_vars.max(var_bound(lits));
    }
}

/// Evaluates one clause: [`TruthValue::True`] if some literal is
/// satisfied, [`TruthValue::False`] if all are falsified (so the empty
/// clause is false), [`TruthValue::Unknown`] otherwise.
fn eval_clause(lits: &[Lit], assignment: &Assignment) -> TruthValue {
    let mut unknown = false;
    for &lit in lits {
        match assignment.lit_value(lit) {
            TruthValue::True => return TruthValue::True,
            TruthValue::Unknown => unknown = true,
            TruthValue::False => {}
        }
    }
    if unknown {
        TruthValue::Unknown
    } else {
        TruthValue::False
    }
}

/// One past the largest variable index among `lits` (0 for none).
fn var_bound(lits: impl IntoIterator<Item = Lit>) -> usize {
    lits.into_iter().map(|l| l.var().index() + 1).max().unwrap_or(0)
}

impl fmt::Debug for PbFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        write!(
            f,
            "PbFormula(vars={}, clauses={}, pb={}, objective={})",
            s.vars,
            s.clauses,
            s.pb_constraints(),
            self.objective.is_some()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_allocation() {
        let mut f = PbFormula::new();
        let a = f.new_var();
        let b = f.new_var();
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(f.num_vars(), 2);
    }

    #[test]
    fn clause_addition_grows_vars() {
        let mut f = PbFormula::new();
        f.add_clause([Var::from_index(9).positive()]);
        assert_eq!(f.num_vars(), 10);
    }

    #[test]
    fn exactly_one_semantics() {
        let mut f = PbFormula::new();
        let lits: Vec<Lit> = f.new_vars(3).into_iter().map(Var::positive).collect();
        f.add_exactly_one(&lits);
        let good = Assignment::from_bools([false, true, false]);
        assert!(f.is_satisfied_by(&good));
        let none = Assignment::from_bools([false, false, false]);
        assert!(!f.is_satisfied_by(&none));
        let two = Assignment::from_bools([true, true, false]);
        assert!(!f.is_satisfied_by(&two));
    }

    #[test]
    fn implication_semantics() {
        let mut f = PbFormula::new();
        let a = f.new_var().positive();
        let b = f.new_var().positive();
        f.add_implication(a, b);
        assert!(f.is_satisfied_by(&Assignment::from_bools([false, false])));
        assert!(f.is_satisfied_by(&Assignment::from_bools([true, true])));
        assert!(!f.is_satisfied_by(&Assignment::from_bools([true, false])));
    }

    #[test]
    fn stats_count_everything() {
        let mut f = PbFormula::new();
        let lits: Vec<Lit> = f.new_vars(3).into_iter().map(Var::positive).collect();
        f.add_clause(lits.clone());
        f.add_at_most_one(&lits);
        let s = f.stats();
        assert_eq!(s.vars, 3);
        assert_eq!(s.clauses, 1);
        assert_eq!(s.pb_constraints(), 1);
        assert_eq!(s.literal_occurrences, 6);
    }

    #[test]
    fn absorb_merges() {
        let mut f = PbFormula::new();
        let a = f.new_var().positive();
        f.add_unit(a);
        let mut g = PbFormula::with_vars(1);
        let b = Var::from_index(1).positive();
        g.add_clause([b]);
        f.absorb(g);
        assert_eq!(f.num_vars(), 2);
        assert_eq!(f.clauses().len(), 2);
    }

    #[test]
    fn eval_partial_and_total() {
        let mut f = PbFormula::new();
        let a = f.new_var().positive();
        let b = f.new_var().positive();
        f.add_clause([a, b]);
        let mut asg = Assignment::new(2);
        assert_eq!(f.eval(&asg), TruthValue::Unknown);
        asg.assign(a.var(), false);
        assert_eq!(f.eval(&asg), TruthValue::Unknown);
        asg.assign(b.var(), false);
        assert_eq!(f.eval(&asg), TruthValue::False);
        asg.assign(b.var(), true);
        assert_eq!(f.eval(&asg), TruthValue::True);
    }

    #[test]
    fn empty_clause_is_false() {
        let mut f = PbFormula::new();
        f.add_clause([]);
        assert_eq!(f.eval(&Assignment::new(0)), TruthValue::False);
    }
}
