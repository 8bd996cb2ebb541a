//! CNF and pseudo-Boolean (0-1 ILP) formula representation.
//!
//! This crate provides the shared logical substrate for the `sbgc` workspace:
//! Boolean [`Var`]iables and [`Lit`]erals, flat [`ClauseList`]s of CNF
//! clauses, normalized [`PbConstraint`]s (linear 0-1 inequalities),
//! optimization objectives, and the mixed container [`PbFormula`] that the
//! graph-coloring encoder produces and the solvers in `sbgc-sat` /
//! `sbgc-pb` consume.
//!
//! The representation follows the paper's conventions (Ramani, Aloul, Markov
//! & Sakallah, *Breaking Instance-Independent Symmetries in Exact Graph
//! Coloring*): a formula may freely mix CNF clauses with pseudo-Boolean
//! constraints, and may carry a linear minimization objective.
//!
//! # Normalized form
//!
//! Every [`PbConstraint`] is stored in the normalized *at-least* form
//!
//! ```text
//! a1*l1 + a2*l2 + ... + an*ln >= b        (ai > 0, li literals)
//! ```
//!
//! mirroring the normalization described in Section 2.3 of the paper (there
//! written as `<=`; the two are interchangeable through literal negation).
//! Constructors are provided for `>=`, `<=` and `=` comparisons and perform
//! the normalization automatically.
//!
//! # Example
//!
//! ```
//! use sbgc_formula::{PbFormula, PbConstraint, Lit};
//!
//! let mut f = PbFormula::new();
//! let x: Vec<Lit> = (0..3).map(|_| f.new_var().positive()).collect();
//! // exactly one of x0, x1, x2
//! f.add_exactly_one(&x);
//! // a plain clause: x0 or x2
//! f.add_clause([x[0], x[2]]);
//! assert_eq!(f.num_vars(), 3);
//! assert_eq!(f.stats().clauses, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assignment;
mod clause_list;
mod formula;
mod lit;
mod objective;
mod opb;
mod pb;

pub use assignment::{Assignment, TruthValue};
pub use clause_list::{ClauseIter, ClauseList};
pub use formula::{FormulaStats, PbFormula};
pub use lit::{Lit, Var};
pub use objective::Objective;
pub use opb::{parse_dimacs_cnf, parse_opb, ParseOpbError};
pub use pb::{PbConstraint, PbConstraintKind};
