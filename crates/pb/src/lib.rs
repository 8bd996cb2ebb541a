//! 0-1 ILP (pseudo-Boolean) solvers.
//!
//! This crate provides the solver zoo the paper evaluates:
//!
//! * [`PbEngine`] — a CDCL engine extended with counter-based propagation of
//!   pseudo-Boolean constraints. Conflicts involving PB constraints are
//!   explained by implied CNF clauses (exactly the strategy of the original
//!   PBS solver); the *explanation strategy* is pluggable, which yields the
//!   three specialized-solver analogues of the paper:
//!   [`SolverKind::PbsII`], [`SolverKind::Galena`], [`SolverKind::Pueblo`]
//!   (plus [`SolverKind::PbsLegacy`], the retired original-PBS configuration
//!   used in the paper's Appendix).
//! * [`BnbSolver`] — a generic branch-and-bound 0-1 ILP solver *without*
//!   conflict learning, standing in for the commercial CPLEX baseline
//!   (see `DESIGN.md` for the substitution rationale).
//! * [`optimize`] / [`Optimizer`] — Boolean optimization by iterated
//!   strengthening of the objective bound, the way PBS-class solvers
//!   minimize an objective.
//! * [`PortfolioSession`] — the one parallel race: one long-lived engine
//!   per diversified configuration ([`portfolio_configs`]), raced on every
//!   query with learned-clause sharing, cooperative cancellation and panic
//!   isolation. A one-shot decision race is one query without
//!   assumptions, and [`optimize_portfolio`] is the linear-search
//!   optimization loop run over one session.
//! * [`solve_split`] — cube-and-conquer on one assumption query: run it
//!   whole for a fixed number of conflicts, then solve the cubes taken
//!   from a [`CubeList`]'s cursor. A sequential engine keeps a list of
//!   its own; [`PortfolioSession::query_split`] hands one list to every
//!   worker, so they refute its cubes between them.
//!
//! # Example
//!
//! ```
//! use sbgc_formula::{PbFormula, Objective, Var};
//! use sbgc_pb::{optimize, OptOutcome, SolverKind};
//! use sbgc_sat::Budget;
//!
//! // minimize y0 + y1 subject to y0 + y1 >= 1
//! let mut f = PbFormula::new();
//! let y: Vec<_> = (0..2).map(|_| f.new_var().positive()).collect();
//! f.add_clause(y.clone());
//! f.set_objective(Objective::minimize(y.iter().map(|&l| (1, l))));
//!
//! match optimize(&f, SolverKind::PbsII, &Budget::unlimited()) {
//!     OptOutcome::Optimal { value, .. } => assert_eq!(value, 1),
//!     other => panic!("expected optimum, got {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bnb;
mod config;
mod engine;
mod explain;
mod optimize;
mod portfolio;
mod split;

pub use bnb::BnbSolver;
pub use config::{EngineConfig, RestartPolicy, SolverKind};
pub use engine::{PbEngine, PbStats};
pub use explain::ExplainStrategy;
pub use optimize::{optimize, optimize_recorded_with_stats, solve_decision, OptOutcome, Optimizer};
pub use portfolio::{
    optimize_portfolio, portfolio_configs, PortfolioError, PortfolioOptOutcome, PortfolioSession,
    SessionQueryOutcome,
};
pub use split::{solve_split, solve_whole, CubeList, SplitRun};

pub use sbgc_obs::{FaultPlan, Recorder, WorkerTelemetry};
pub use sbgc_sat::{
    Budget, CancelToken, ExhaustReason, SharedClausePool, SharingConfig, SharingHandle,
    SolveOutcome,
};
