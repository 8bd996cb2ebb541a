//! A generic branch-and-bound 0-1 ILP solver without conflict learning —
//! the stand-in for the commercial CPLEX baseline.
//!
//! The paper observes that CPLEX behaves qualitatively differently from the
//! specialized 0-1 ILP solvers: it has no Boolean conflict learning, and
//! extra constraints (such as SBPs) burden rather than help it. This solver
//! reproduces that algorithmic class: depth-first branch and bound with
//! constraint propagation, chronological backtracking, objective-based
//! pruning, and *no* learning. (A full LP-relaxation simplex bound is out
//! of scope; the partial-objective bound keeps the search generic-MIP-like.
//! See `DESIGN.md`.)

use crate::optimize::OptOutcome;
use sbgc_formula::{Assignment, Lit, Objective, PbFormula, Var};
use sbgc_sat::{Budget, SolveOutcome};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum VarValue {
    Undef,
    True,
    False,
}

#[derive(Clone, Debug)]
struct BnbConstraint {
    /// `(coefficient, literal)` terms; clauses are coefficient-1, rhs-1.
    terms: Vec<(u64, Lit)>,
    /// `Σ_{ℓ not false} aᵢ − rhs`; negative means violated.
    slack: i64,
}

#[derive(Clone, Copy, Debug)]
struct Frame {
    trail_len: usize,
    decision: Lit,
    flipped: bool,
}

/// Depth-first branch-and-bound 0-1 ILP solver (no learning).
///
/// Build with [`BnbSolver::new`], then call [`BnbSolver::run`] to minimize
/// the formula's objective (or [`BnbSolver::run_decision`] for pure
/// feasibility).
pub struct BnbSolver {
    num_vars: usize,
    constraints: Vec<BnbConstraint>,
    /// `occ[p.code()]` lists `(constraint, coeff)` pairs whose slack drops
    /// when `p` becomes true.
    occ: Vec<Vec<(u32, u64)>>,
    values: Vec<VarValue>,
    trail: Vec<Lit>,
    frames: Vec<Frame>,
    qhead: usize,
    objective: Option<Objective>,
    /// Branch order: objective variables first, then the rest.
    branch_order: Vec<usize>,
    ok: bool,
    nodes: u64,
    violations: u64,
}

impl BnbSolver {
    /// Builds a solver from a formula (clauses and PB constraints are
    /// treated uniformly as linear inequalities).
    pub fn new(formula: &PbFormula) -> Self {
        let num_vars = formula.num_vars();
        let mut solver = BnbSolver {
            num_vars,
            constraints: Vec::new(),
            occ: vec![Vec::new(); 2 * num_vars],
            values: vec![VarValue::Undef; num_vars],
            trail: Vec::new(),
            frames: Vec::new(),
            qhead: 0,
            objective: formula.objective().cloned(),
            branch_order: Vec::new(),
            ok: true,
            nodes: 0,
            violations: 0,
        };
        for clause in formula.clauses() {
            let terms: Vec<(u64, Lit)> = clause.iter().map(|&l| (1, l)).collect();
            solver.add_constraint(terms, 1);
        }
        for pb in formula.pb_constraints() {
            solver.add_constraint(pb.terms().to_vec(), pb.rhs());
        }
        // Branch order: objective variables in input order, then the rest.
        let mut in_objective = vec![false; num_vars];
        if let Some(obj) = &solver.objective {
            for &(_, l) in obj.terms() {
                in_objective[l.var().index()] = true;
            }
        }
        solver.branch_order = (0..num_vars)
            .filter(|&v| in_objective[v])
            .chain((0..num_vars).filter(|&v| !in_objective[v]))
            .collect();
        solver
    }

    fn add_constraint(&mut self, terms: Vec<(u64, Lit)>, rhs: u64) {
        if rhs == 0 {
            return;
        }
        let coeff_sum: u64 = terms.iter().map(|&(a, _)| a).sum();
        if coeff_sum < rhs {
            self.ok = false;
            return;
        }
        let idx = self.constraints.len() as u32;
        for &(a, l) in &terms {
            self.occ[(!l).code()].push((idx, a));
        }
        self.constraints.push(BnbConstraint { terms, slack: coeff_sum as i64 - rhs as i64 });
    }

    /// Number of search nodes (decisions) explored so far.
    pub fn nodes(&self) -> u64 {
        self.nodes
    }

    /// Number of constraint violations (dead ends) encountered.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    #[inline]
    fn lit_value(&self, l: Lit) -> VarValue {
        match (self.values[l.var().index()], l.is_negated()) {
            (VarValue::Undef, _) => VarValue::Undef,
            (VarValue::True, false) | (VarValue::False, true) => VarValue::True,
            _ => VarValue::False,
        }
    }

    fn assign(&mut self, l: Lit) {
        debug_assert_eq!(self.lit_value(l), VarValue::Undef);
        let v = l.var().index();
        self.values[v] = if l.is_negated() { VarValue::False } else { VarValue::True };
        self.trail.push(l);
        for i in 0..self.occ[l.code()].len() {
            let (idx, a) = self.occ[l.code()][i];
            self.constraints[idx as usize].slack -= a as i64;
        }
    }

    fn undo_to(&mut self, trail_len: usize) {
        while self.trail.len() > trail_len {
            let p = self.trail.pop().expect("non-empty");
            for i in 0..self.occ[p.code()].len() {
                let (idx, a) = self.occ[p.code()][i];
                self.constraints[idx as usize].slack += a as i64;
            }
            self.values[p.var().index()] = VarValue::Undef;
        }
        self.qhead = self.qhead.min(self.trail.len());
    }

    /// Propagates forced literals; returns `false` on violation.
    fn propagate(&mut self) -> bool {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let affected: Vec<u32> = self.occ[p.code()].iter().map(|&(i, _)| i).collect();
            for idx in affected {
                let slack = self.constraints[idx as usize].slack;
                if slack < 0 {
                    self.violations += 1;
                    return false;
                }
                let mut forced = Vec::new();
                for &(a, l) in &self.constraints[idx as usize].terms {
                    if a as i64 > slack && self.lit_value(l) == VarValue::Undef {
                        forced.push(l);
                    }
                }
                for l in forced {
                    if self.lit_value(l) == VarValue::Undef {
                        self.assign(l);
                    }
                }
            }
        }
        true
    }

    /// Chronological backtrack: flip the deepest unflipped decision.
    /// Returns `false` when the tree is exhausted.
    fn backtrack(&mut self) -> bool {
        while let Some(frame) = self.frames.pop() {
            self.undo_to(frame.trail_len);
            if !frame.flipped {
                let flipped = !frame.decision;
                self.frames.push(Frame {
                    trail_len: frame.trail_len,
                    decision: flipped,
                    flipped: true,
                });
                self.assign(flipped);
                self.qhead = self.trail.len() - 1;
                return true;
            }
        }
        false
    }

    fn pick_branch_var(&self) -> Option<usize> {
        self.branch_order.iter().copied().find(|&v| self.values[v] == VarValue::Undef)
    }

    fn objective_lower_bound(&self) -> u64 {
        self.objective
            .as_ref()
            .map(|obj| {
                obj.terms()
                    .iter()
                    .filter(|&&(_, l)| self.lit_value(l) == VarValue::True)
                    .map(|&(c, _)| c)
                    .sum()
            })
            .unwrap_or(0)
    }

    fn model(&self) -> Assignment {
        Assignment::from_bools(self.values.iter().map(|&v| v == VarValue::True))
    }

    fn search(&mut self, budget: &Budget, best: &mut Option<(u64, Assignment)>) -> bool {
        // Returns true if the tree was exhausted (search complete), false on
        // budget exhaustion.
        if budget.cancelled() {
            return false;
        }
        let mut counter = 0u32;
        loop {
            counter += 1;
            if counter >= 512 {
                counter = 0;
                if budget.exhausted(self.violations) {
                    return false;
                }
            }
            let consistent = self.propagate();
            let pruned = consistent
                && best.as_ref().is_some_and(|(b, _)| self.objective_lower_bound() >= *b);
            if !consistent || pruned {
                if !self.backtrack() {
                    return true;
                }
                continue;
            }
            match self.pick_branch_var() {
                None => {
                    // Total, consistent assignment.
                    let model = self.model();
                    let value = self.objective_lower_bound();
                    let improved = best.as_ref().is_none_or(|(b, _)| value < *b);
                    if improved {
                        *best = Some((value, model));
                    }
                    if self.objective.is_none() {
                        // Decision problem: first solution suffices.
                        return true;
                    }
                    if !self.backtrack() {
                        return true;
                    }
                }
                Some(v) => {
                    self.nodes += 1;
                    // Try "false" first: keeps the objective low and mirrors
                    // a best-bound-ish dive of a generic MIP solver.
                    let decision = Var::from_index(v).negative();
                    self.frames.push(Frame {
                        trail_len: self.trail.len(),
                        decision,
                        flipped: false,
                    });
                    self.assign(decision);
                }
            }
        }
    }

    /// Minimizes the objective under `budget`.
    ///
    /// # Panics
    ///
    /// Panics if the formula had no objective (use
    /// [`BnbSolver::run_decision`]).
    pub fn run(&mut self, budget: &Budget) -> OptOutcome {
        assert!(self.objective.is_some(), "run() requires an objective");
        let budget = budget.started();
        if !self.ok {
            return OptOutcome::Infeasible;
        }
        self.undo_to(0);
        self.frames.clear();
        if !self.propagate() {
            return OptOutcome::Infeasible;
        }
        let mut best: Option<(u64, Assignment)> = None;
        let complete = self.search(&budget, &mut best);
        match (complete, best) {
            (true, Some((value, model))) => OptOutcome::Optimal { value, model },
            (true, None) => OptOutcome::Infeasible,
            (false, Some((value, model))) => OptOutcome::Feasible { value, model },
            (false, None) => OptOutcome::Unknown,
        }
    }

    /// Solves the pure decision problem under `budget`.
    pub fn run_decision(&mut self, budget: &Budget) -> SolveOutcome {
        let budget = budget.started();
        if !self.ok {
            return SolveOutcome::Unsat;
        }
        self.objective = None;
        self.undo_to(0);
        self.frames.clear();
        if !self.propagate() {
            return SolveOutcome::Unsat;
        }
        let mut best: Option<(u64, Assignment)> = None;
        let complete = self.search(&budget, &mut best);
        match (complete, best) {
            (_, Some((_, model))) => SolveOutcome::Sat(model),
            (true, None) => SolveOutcome::Unsat,
            (false, None) => SolveOutcome::Unknown,
        }
    }
}

impl std::fmt::Debug for BnbSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BnbSolver(vars={}, constraints={}, nodes={})",
            self.num_vars,
            self.constraints.len(),
            self.nodes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbgc_formula::{Objective, PbConstraint};

    fn x(f: &mut PbFormula) -> Lit {
        f.new_var().positive()
    }

    #[test]
    fn decision_sat_and_unsat() {
        let mut f = PbFormula::new();
        let a = x(&mut f);
        let b = x(&mut f);
        f.add_clause([a, b]);
        let mut s = BnbSolver::new(&f);
        assert!(s.run_decision(&Budget::unlimited()).is_sat());

        f.add_unit(!a);
        f.add_unit(!b);
        let mut s = BnbSolver::new(&f);
        assert!(s.run_decision(&Budget::unlimited()).is_unsat());
    }

    #[test]
    fn optimizes_vertex_cover_triangle() {
        // Cover every edge of a triangle: minimize y0+y1+y2, each edge
        // constraint yi + yj >= 1; optimum 2.
        let mut f = PbFormula::new();
        let y: Vec<Lit> = (0..3).map(|_| x(&mut f)).collect();
        for (i, j) in [(0, 1), (1, 2), (0, 2)] {
            f.add_clause([y[i], y[j]]);
        }
        f.set_objective(Objective::minimize(y.iter().map(|&l| (1, l))));
        let mut s = BnbSolver::new(&f);
        match s.run(&Budget::unlimited()) {
            OptOutcome::Optimal { value, model } => {
                assert_eq!(value, 2);
                assert!(f.is_satisfied_by(&model));
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn handles_weighted_pb() {
        // minimize 2a + 3b s.t. 2a + 3b >= 3 → optimum 3 (b alone).
        let mut f = PbFormula::new();
        let a = x(&mut f);
        let b = x(&mut f);
        f.add_pb(PbConstraint::at_least([(2, a), (3, b)], 3));
        f.set_objective(Objective::minimize([(2, a), (3, b)]));
        let mut s = BnbSolver::new(&f);
        match s.run(&Budget::unlimited()) {
            OptOutcome::Optimal { value, model } => {
                assert_eq!(value, 3);
                assert!(model.satisfies(b));
                assert!(model.satisfies(!a));
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn infeasible_objective_problem() {
        let mut f = PbFormula::new();
        let a = x(&mut f);
        f.add_unit(a);
        f.add_unit(!a);
        f.set_objective(Objective::minimize([(1, a)]));
        let mut s = BnbSolver::new(&f);
        assert!(s.run(&Budget::unlimited()).is_infeasible());
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        // A non-trivial feasible problem with a zero budget may return
        // Unknown or Feasible but never Infeasible.
        let mut f = PbFormula::new();
        let y: Vec<Lit> = (0..12).map(|_| x(&mut f)).collect();
        for i in 0..11 {
            f.add_clause([y[i], y[i + 1]]);
        }
        f.set_objective(Objective::minimize(y.iter().map(|&l| (1, l))));
        let mut s = BnbSolver::new(&f);
        let out = s.run(&Budget::unlimited().with_max_conflicts(0));
        assert!(!out.is_infeasible());
    }

    #[test]
    fn counts_nodes() {
        let mut f = PbFormula::new();
        let y: Vec<Lit> = (0..4).map(|_| x(&mut f)).collect();
        f.add_clause(y.clone());
        let mut s = BnbSolver::new(&f);
        let _ = s.run_decision(&Budget::unlimited());
        assert!(s.nodes() >= 1);
    }
}
