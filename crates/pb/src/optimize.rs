//! Boolean optimization by iterated bound strengthening.
//!
//! PBS-class solvers minimize `MIN Σ cᵢ·ℓᵢ` by solving a sequence of
//! decision problems: find any solution, then add the constraint
//! `Σ cᵢ·ℓᵢ ≤ best − 1` and solve again, until UNSAT proves optimality
//! (linear search, the default of both PBS and Galena).

use crate::bnb::BnbSolver;
use crate::config::SolverKind;
use crate::engine::PbEngine;
use sbgc_formula::{Assignment, PbConstraint, PbFormula};
use sbgc_obs::Recorder;
use sbgc_sat::{Budget, SolveOutcome};

/// Result of an optimization run.
#[derive(Clone, Debug)]
pub enum OptOutcome {
    /// Proven optimal.
    Optimal {
        /// The minimal objective value.
        value: u64,
        /// A model attaining it.
        model: Assignment,
    },
    /// Budget ran out after at least one solution was found; the best known
    /// (possibly suboptimal) solution is returned.
    Feasible {
        /// The best objective value found.
        value: u64,
        /// A model attaining it.
        model: Assignment,
    },
    /// Proven infeasible (no solution at all).
    Infeasible,
    /// Budget ran out before any solution or infeasibility proof.
    Unknown,
}

impl OptOutcome {
    /// The objective value, if any solution was found.
    pub fn value(&self) -> Option<u64> {
        match self {
            OptOutcome::Optimal { value, .. } | OptOutcome::Feasible { value, .. } => Some(*value),
            _ => None,
        }
    }

    /// The model, if any solution was found.
    pub fn model(&self) -> Option<&Assignment> {
        match self {
            OptOutcome::Optimal { model, .. } | OptOutcome::Feasible { model, .. } => Some(model),
            _ => None,
        }
    }

    /// `true` when optimality was proven.
    pub fn is_optimal(&self) -> bool {
        matches!(self, OptOutcome::Optimal { .. })
    }

    /// `true` when infeasibility was proven.
    pub fn is_infeasible(&self) -> bool {
        matches!(self, OptOutcome::Infeasible)
    }

    /// `true` when the run was decided (optimal or infeasible) — the
    /// "solved" criterion of the paper's tables.
    pub fn is_decided(&self) -> bool {
        self.is_optimal() || self.is_infeasible()
    }
}

/// A reusable optimizer around [`PbEngine`] (linear-search minimization).
///
/// Use [`optimize`] for the one-shot convenience form that also dispatches
/// to the branch-and-bound baseline.
pub struct Optimizer {
    engine: PbEngine,
    formula: PbFormula,
}

impl Optimizer {
    /// Builds an optimizer for `formula` with the engine configuration of
    /// `kind`.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is [`SolverKind::Cplex`] (use [`BnbSolver`]) or the
    /// formula has no objective.
    pub fn new(formula: &PbFormula, kind: SolverKind) -> Self {
        let config = kind
            .engine_config()
            .expect("Optimizer requires a CDCL solver kind; use BnbSolver for Cplex");
        assert!(formula.objective().is_some(), "formula must carry an objective");
        Optimizer { engine: PbEngine::from_formula(formula, config), formula: formula.clone() }
    }

    /// Runs linear-search minimization under `budget`.
    pub fn run(&mut self, budget: &Budget) -> OptOutcome {
        // Arm once here so every decision query of the strengthening loop
        // shares the same wall-clock deadline.
        let budget = budget.started();
        let objective = self.formula.objective().expect("checked in new").clone();
        let mut best: Option<(u64, Assignment)> = None;
        loop {
            match self.engine.solve_with_budget(&budget) {
                SolveOutcome::Sat(model) => {
                    let value = objective.value(&model).expect("total model");
                    if let Some((b, bm)) = &best {
                        if *b <= value {
                            // A non-improving model despite the strict bound
                            // would indicate an engine bug; stop defensively.
                            debug_assert!(false, "bound constraint not enforced");
                            return OptOutcome::Feasible { value: *b, model: bm.clone() };
                        }
                    }
                    if value == 0 {
                        return OptOutcome::Optimal { value: 0, model };
                    }
                    // Strengthen: objective <= value - 1.
                    let bound = PbConstraint::at_most(
                        objective.terms().iter().map(|&(c, l)| (c as i64, l)),
                        value as i64 - 1,
                    );
                    best = Some((value, model));
                    self.engine.add_pb(bound);
                }
                SolveOutcome::Unsat => {
                    return match best {
                        Some((value, model)) => OptOutcome::Optimal { value, model },
                        None => OptOutcome::Infeasible,
                    };
                }
                SolveOutcome::Unknown => {
                    return match best {
                        Some((value, model)) => OptOutcome::Feasible { value, model },
                        None => OptOutcome::Unknown,
                    };
                }
            }
        }
    }

    /// Statistics of the underlying engine.
    pub fn stats(&self) -> crate::PbStats {
        self.engine.stats()
    }

    /// Attaches a [`Recorder`] to the underlying engine (see
    /// [`PbEngine::set_recorder`]).
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.engine.set_recorder(recorder);
    }
}

/// Minimizes `formula`'s objective with the given solver under `budget`.
///
/// Dispatches to the CDCL-PB [`Optimizer`] or, for
/// [`SolverKind::Cplex`], to the branch-and-bound [`BnbSolver`].
///
/// # Panics
///
/// Panics if the formula has no objective.
pub fn optimize(formula: &PbFormula, kind: SolverKind, budget: &Budget) -> OptOutcome {
    optimize_recorded_with_stats(formula, kind, budget, &Recorder::disabled()).0
}

/// [`optimize`] with observability, also returning the engine statistics
/// of the run. CDCL engines flush their search counters into `recorder`;
/// the branch-and-bound [`SolverKind::Cplex`] baseline records nothing.
/// The returned stats are the optimizer's own counters for the CDCL
/// kinds and the default all-zero stats for the branch-and-bound baseline
/// (which has no CDCL counters). Parallel optimization is
/// [`crate::optimize_portfolio`].
///
/// The `exhaust` field of the returned stats is the budget-exhaustion
/// reason when the run ended undecided, which is how callers distinguish
/// "ran out of conflicts" from "ran out of memory" (see
/// [`sbgc_sat::ExhaustReason`]).
pub fn optimize_recorded_with_stats(
    formula: &PbFormula,
    kind: SolverKind,
    budget: &Budget,
    recorder: &Recorder,
) -> (OptOutcome, crate::PbStats) {
    match kind {
        SolverKind::Cplex => (BnbSolver::new(formula).run(budget), crate::PbStats::default()),
        _ => {
            let mut opt = Optimizer::new(formula, kind);
            opt.set_recorder(recorder.clone());
            let outcome = opt.run(budget);
            let stats = opt.stats();
            (outcome, stats)
        }
    }
}

/// Solves the decision problem (ignoring any objective) with the given
/// solver under `budget`. A parallel decision race is a
/// [`crate::PortfolioSession`] answering one query without assumptions.
pub fn solve_decision(formula: &PbFormula, kind: SolverKind, budget: &Budget) -> SolveOutcome {
    match kind {
        SolverKind::Cplex => {
            let mut f = formula.clone();
            f.clear_objective();
            BnbSolver::new(&f).run_decision(budget)
        }
        _ => {
            let config = kind.engine_config().expect("CDCL kind");
            PbEngine::from_formula(formula, config).solve_with_budget(budget)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbgc_formula::{Lit, Objective, Var};

    fn setup() -> PbFormula {
        // minimize y0 + y1 + y2 s.t. y0 + y1 >= 1, y1 + y2 >= 1, y0 + y2 >= 1
        // optimum 2 (any two of the three).
        let mut f = PbFormula::new();
        let y: Vec<Lit> = f.new_vars(3).into_iter().map(Var::positive).collect();
        f.add_clause([y[0], y[1]]);
        f.add_clause([y[1], y[2]]);
        f.add_clause([y[0], y[2]]);
        f.set_objective(Objective::minimize(y.iter().map(|&l| (1, l))));
        f
    }

    #[test]
    fn finds_optimum_with_every_cdcl_kind() {
        let f = setup();
        for kind in
            [SolverKind::PbsII, SolverKind::Galena, SolverKind::Pueblo, SolverKind::PbsLegacy]
        {
            match optimize(&f, kind, &Budget::unlimited()) {
                OptOutcome::Optimal { value, model } => {
                    assert_eq!(value, 2, "{kind}");
                    assert!(f.is_satisfied_by(&model), "{kind}");
                }
                other => panic!("{kind}: expected optimal, got {other:?}"),
            }
        }
    }

    #[test]
    fn infeasible_detected() {
        let mut f = PbFormula::new();
        let a = f.new_var().positive();
        f.add_unit(a);
        f.add_unit(!a);
        f.set_objective(Objective::minimize([(1, a)]));
        assert!(optimize(&f, SolverKind::PbsII, &Budget::unlimited()).is_infeasible());
    }

    #[test]
    fn zero_objective_short_circuit() {
        let mut f = PbFormula::new();
        let a = f.new_var().positive();
        let b = f.new_var().positive();
        f.add_clause([a, b]); // satisfiable with a=1,b=0 or a=0,b=1 ...
        f.add_clause([a]); // force a
        f.set_objective(Objective::minimize([(1, b)]));
        match optimize(&f, SolverKind::PbsII, &Budget::unlimited()) {
            OptOutcome::Optimal { value, .. } => assert_eq!(value, 0),
            other => panic!("expected optimal 0, got {other:?}"),
        }
    }

    #[test]
    fn decision_interface_agrees() {
        let f = setup();
        for kind in SolverKind::APPENDIX {
            let out = solve_decision(&f, kind, &Budget::unlimited());
            assert!(out.is_sat(), "{kind}");
        }
    }

    #[test]
    fn tight_budget_gives_unknown_or_feasible() {
        let f = setup();
        let b = Budget::unlimited().with_max_conflicts(0);
        match optimize(&f, SolverKind::PbsII, &b) {
            OptOutcome::Unknown | OptOutcome::Feasible { .. } | OptOutcome::Optimal { .. } => {}
            OptOutcome::Infeasible => panic!("feasible problem reported infeasible"),
        }
    }
}
