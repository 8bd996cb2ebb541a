//! DRAT proof logging and independent proof checking.
//!
//! The paper's symmetry-breaking predicates must not change satisfiability;
//! this crate provides the machinery to *verify* that claim per run instead
//! of trusting the solvers. It has two halves that deliberately share no
//! code:
//!
//! * [`DratProof`] / [`ProofLogger`] — a small logging interface the CDCL
//!   engine in `sbgc-pb` emits DRAT steps through (learned clause
//!   additions from 1UIP analysis, deletions from database reduction)
//!   into memory: one engine's own [`DratProof`], or a [`SharedProof`]
//!   that racing workers log into through [`AddsOnlyProofLogger`]s.
//! * [`check_derivation`] — a forward RUP/DRAT checker with its own
//!   watched-literal propagation that replays a proof against the original
//!   clause list and accepts only when the formula plus the replayed
//!   lemmas make a goal clause RUP. Every lemma of a derivation must be
//!   RUP; a refutation may also add RAT lemmas. [`check_drat`] is its
//!   goal-`[]` case: it accepts only genuine refutations.
//!
//! Each addition may carry a *hint chain*: the IDs of the clauses its
//! derivation resolved on, in the order they become unit, ending with the
//! falsified one (LRAT-style hints). Formula clause `i` has ID `i` and
//! addition `j` (0-based, deletions not counted) has ID
//! `formula.len() + j`; the sink numbers the additions, so several solvers
//! logging into one sink name each other's lemmas correctly. The checker
//! walks a chain before propagating and searches whenever the chain does
//! not close, so hints are advisory: they make checking faster and never
//! change a verdict. Text DRAT ([`DratProof::to_dimacs`]) stays standard
//! and carries no hints.
//!
//! `sbgc-core` combines both into optimality certificates: a verified
//! k-coloring at χ plus a checked derivation, from the χ−1 coloring CNF,
//! of the goal "not every clique pin holds" (a refutation of that CNF
//! under the pins). The proof is checked in memory; a caller that
//! archives it renders the checked proof with [`DratProof::to_dimacs`]
//! and the formula with [`dimacs_cnf`] afterwards.
//!
//! # Example
//!
//! ```
//! use sbgc_formula::Var;
//! use sbgc_proof::{check_drat, DratProof};
//!
//! // (a∨b)(¬a∨b)(a∨¬b)(¬a∨¬b) is UNSAT; derive [b], then the conflict.
//! let a = Var::from_index(0).positive();
//! let b = Var::from_index(1).positive();
//! let formula = vec![vec![a, b], vec![!a, b], vec![a, !b], vec![!a, !b]];
//!
//! let mut proof = DratProof::new();
//! // Under ¬b, clause 1 (¬a∨b) is unit and forces ¬a; clause 0 (a∨b) is
//! // then falsified. Adding [b] refutes the formula by propagation, so the
//! // empty clause is never reached.
//! proof.push_add(&[b], &[1, 0]);
//! proof.push_add(&[], &[]);
//! let stats = check_drat(2, &formula, &proof).expect("valid refutation");
//! assert_eq!(stats.chained, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checker;
mod drat;

pub use checker::{check_derivation, check_drat, CheckError, CheckStats};
pub use drat::{dimacs_cnf, AddsOnlyProofLogger, DratProof, ProofLogger, ProofStep, SharedProof};
