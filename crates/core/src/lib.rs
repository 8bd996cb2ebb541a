//! Exact graph coloring by reduction to 0-1 ILP, with instance-independent
//! and instance-dependent symmetry breaking.
//!
//! This crate is the primary contribution of the reproduced paper
//! (Ramani, Aloul, Markov & Sakallah, *Breaking Instance-Independent
//! Symmetries in Exact Graph Coloring*, DATE 2004 / JAIR 2006). It ties
//! together the substrates of the `sbgc` workspace:
//!
//! * [`encode`] — the reduction of K-coloring to a mixed CNF/PB formula
//!   with per-vertex indicator variables, per-vertex exactly-one
//!   constraints, per-edge conflict clauses, color-usage indicators, and
//!   the `MIN Σ yᵢ` objective (paper Section 2.5);
//! * [`sbp`] — the instance-independent SBP constructions: the paper's
//!   four of Section 3 — null-color elimination (NU), cardinality-based
//!   color ordering (CA), lowest-index color ordering (LI) and selective
//!   coloring (SC) — their combinations, and the post-paper complete
//!   modes (LI-pfx, partitioning-orbitope column-lex, Walsh-style value
//!   precedence); `docs/SBP.md` is the per-mode handbook;
//! * [`flow`] — end-to-end solving: encode, optionally add
//!   instance-independent SBPs, optionally detect-and-break
//!   instance-dependent symmetries with the Shatter flow, hand the result
//!   to one of the 0-1 ILP solvers of `sbgc-pb`, decode, and
//!   independently verify the coloring;
//! * [`chromatic`] — exact chromatic numbers from the DSATUR/clique
//!   bracket by one incremental ladder: a persistent session refutes or
//!   witnesses one color count per query under suffix assumptions, with
//!   the heuristic race tightening the bracket beside it; only the
//!   CPLEX/Shatter fallback races first and then runs one exact
//!   optimization;
//! * [`heuristics`] — the local-search bound race (TabuCol and PartialCol
//!   descents plus clique search from `sbgc-heur`) that tightens the
//!   greedy bracket beside the exact ladder, with every heuristic result
//!   re-validated at the trust boundary;
//! * [`certify`] — verified optimality certificates: a syntactically
//!   checked witness coloring at χ plus a DRAT refutation of
//!   (χ−1)-colorability under a verified clique's pins, replayed through
//!   the independent checker of `sbgc-proof`;
//! * [`supervisor`] + [`checkpoint`] — resumable solves: versioned,
//!   checksummed [`SolveCheckpoint`]s written atomically at ladder-rung
//!   boundaries, resume with trust-boundary re-validation, and a
//!   watchdog-supervised retry loop with escalating budgets (see
//!   `docs/ROBUSTNESS.md`).
//!
//! # Example
//!
//! ```
//! use sbgc_core::{solve_coloring, ColoringOutcome, SolveOptions};
//! use sbgc_graph::gen::queens;
//!
//! let graph = queens(5, 5);
//! let report = solve_coloring(&graph, &SolveOptions::new(6));
//! match report.outcome {
//!     ColoringOutcome::Optimal { ref coloring, colors } => {
//!         assert_eq!(colors, 5); // queen5_5 needs exactly 5 colors
//!         assert!(coloring.is_proper(&graph));
//!     }
//!     ref other => panic!("expected optimal, got {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod applications;
pub mod certify;
pub mod checkpoint;
pub mod chromatic;
mod cubes;
pub mod encode;
pub mod error;
pub mod flow;
pub mod heuristics;
pub mod sbp;
pub mod session;
pub mod supervisor;

pub use checkpoint::{CheckpointError, GraphFingerprint, SolveCheckpoint};
pub use supervisor::{solve_supervised, SupervisedOutcome, SupervisorConfig};

pub use certify::{
    certify_result, certify_result_parallel, chromatic_number_certified, OptimalityCertificate,
    ProofStatus,
};
pub use chromatic::{
    bounds, chromatic_number, chromatic_number_outcome, ChromaticBounds, ChromaticOutcome,
    ChromaticResult,
};
pub use encode::{cnf_decision_formula, cnf_pins, ColoringEncoding};
pub use error::SolveError;
pub use flow::{
    solve_coloring, try_solve_coloring, ColoringOutcome, PreparedColoring, SolveOptions,
    SolveReport, SymmetryHandling,
};
pub use heuristics::{race_heuristics, HeuristicOutcome};
pub use sbp::{add_instance_independent_sbps, SbpMode, SbpSizeStats};
pub use session::{ColoringSession, SessionAnswer, SessionStep};

pub use sbgc_graph::{Coloring, Graph};
pub use sbgc_obs::{Counter, FaultPlan, Phase, Recorder, RunReport};
pub use sbgc_pb::{Budget, ExhaustReason, PortfolioError, SolverKind};
