//! Search-control primitives for the workspace's CDCL engine.
//!
//! The Chaff-class engine itself (Moskewicz et al. 2001) is `PbEngine` in
//! `sbgc-pb`: two-watched-literal propagation, first-UIP learning, VSIDS,
//! phase saving, restarts and clause-database reduction, extended with
//! counter-based pseudo-Boolean propagation. It solves pure CNF as the
//! special case with no PB constraints. This crate holds the pieces around
//! it that carry no engine state:
//!
//! * [`Budget`] and [`CancelToken`] — conflict, wall-clock and memory caps
//!   plus cooperative cancellation, with [`ExhaustReason`] naming which
//!   one stopped a solve;
//! * [`RestartPolicy`], [`GlueEma`] and the [`Luby`] sequence — restart
//!   schedules;
//! * [`SharedClausePool`] — learned-clause exchange between portfolio
//!   workers (see the [`sharing`] module docs for the locking discipline);
//! * [`SolveOutcome`] — the Sat / Unsat / Unknown answer of a solve;
//! * [`naive`] — brute-force reference solvers that tests compare the
//!   engine against.
//!
//! # Example
//!
//! ```
//! use sbgc_sat::{Budget, CancelToken, ExhaustReason};
//!
//! let race = CancelToken::new();
//! let budget = Budget::unlimited().with_max_conflicts(1_000).with_cancel_token(race.clone());
//! assert_eq!(budget.exhaust_reason(10, 0), None);
//! assert_eq!(budget.exhaust_reason(1_000, 0), Some(ExhaustReason::Conflicts));
//! race.cancel();
//! assert_eq!(budget.exhaust_reason(10, 0), Some(ExhaustReason::Cancelled));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod luby;
pub mod naive;
mod outcome;
mod restart;
pub mod sharing;

pub use budget::{Budget, CancelToken, ExhaustReason};
pub use luby::Luby;
pub use outcome::SolveOutcome;
pub use restart::{GlueEma, RestartPolicy};
pub use sharing::{SharedClausePool, SharingConfig, SharingHandle};
