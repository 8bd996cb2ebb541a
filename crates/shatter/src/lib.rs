//! Instance-dependent symmetry breaking for CNF / pseudo-Boolean formulas —
//! a reimplementation of the Shatter flow (Aloul, Markov & Sakallah 2003;
//! extended to PB formulas in Aloul et al. 2004).
//!
//! The flow has three stages, mirroring Section 2.4 of the paper:
//!
//! 1. **Reduction to graph automorphism** ([`formula_graph`]): the formula
//!    is encoded as a vertex-colored graph whose color-preserving
//!    automorphism group is isomorphic to the symmetry group of the
//!    formula. Positive and negative literals share a color (so phase-shift
//!    symmetries are detectable), binary clauses become direct
//!    literal–literal edges, longer clauses get a clause vertex, and PB
//!    constraints get constraint vertices colored by their
//!    coefficient-multiset/bound signature (with coefficient-group vertices
//!    when coefficients are non-uniform).
//! 2. **Symmetry detection** ([`detect_symmetries`]): the automorphism
//!    group of that graph is computed with `sbgc-aut` (our Saucy
//!    substitute) and generators are mapped back to permutations of the
//!    formula's literals, dropping any spurious generator that fails to
//!    commute with negation or does not map the formula's constraint
//!    multiset onto itself (the graph cannot count repeated binary
//!    clauses). That check runs against a canonical index of the formula,
//!    built once per call, and re-examines only the constraints on each
//!    generator's support.
//! 3. **SBP generation** ([`add_sbps`]): for each generator a
//!    lex-leader symmetry-breaking predicate is appended, using the
//!    efficient linear, tautology-free chain construction of Aloul et al.
//!    2003 (and optionally the quadratic-size naive chain, kept for the
//!    ablation benches).
//!
//! [`shatter`] runs all three stages.
//!
//! # Example
//!
//! ```
//! use sbgc_formula::{PbFormula, Var};
//! use sbgc_shatter::{shatter, ShatterOptions};
//!
//! // x0 and x1 are interchangeable in (x0 ∨ x1).
//! let mut f = PbFormula::new();
//! let a = f.new_var().positive();
//! let b = f.new_var().positive();
//! f.add_clause([a, b]);
//!
//! let report = shatter(&mut f, &ShatterOptions::default());
//! assert!(report.num_generators >= 1);
//! assert!(f.clauses().len() > 1); // SBPs were appended
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod detect;
mod graph;
mod index;
mod litperm;
mod sbp;

pub use detect::{detect_symmetries, SymmetryReport};
pub use graph::{formula_graph, FormulaGraph};
pub use litperm::LitPermutation;
pub use sbp::{add_sbps, sbp_for_permutation, SbpConstruction, SbpStats};

pub use sbgc_aut::AutomorphismOptions;

use std::collections::HashSet;

/// How many group elements to break (Crawford et al. break the *whole*
/// group — exponentially many SBPs; Aloul et al. show breaking only the
/// generators is usually enough and far cheaper; Section 2.4).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SbpScope {
    /// One lex-leader predicate per detected generator (the Shatter
    /// default).
    #[default]
    Generators,
    /// Generators plus their pairwise compositions — a step towards
    /// Crawford's complete breaking, at quadratically more predicates.
    /// Used by the ablation benches.
    GeneratorsAndPairs,
}

/// Options for the end-to-end [`shatter`] flow.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShatterOptions {
    /// Budget for the automorphism search.
    pub aut: AutomorphismOptions,
    /// Which lex-leader construction to append.
    pub construction: SbpConstruction,
    /// How much of the group to break.
    pub scope: SbpScope,
}

/// Combined report of a [`shatter`] run.
#[derive(Clone, Debug)]
pub struct ShatterReport {
    /// Detection-stage report.
    pub symmetry: SymmetryReport,
    /// Number of symmetry generators found (after spurious filtering).
    pub num_generators: usize,
    /// SBP-stage statistics.
    pub sbp: SbpStats,
}

/// Runs the full flow: detect symmetries of `formula`, then append
/// lex-leader SBPs for every generator (and, with
/// [`SbpScope::GeneratorsAndPairs`], for the pairwise compositions of
/// generators as well). Returns the combined report.
pub fn shatter(formula: &mut sbgc_formula::PbFormula, opts: &ShatterOptions) -> ShatterReport {
    let (mut perms, symmetry) = detect_symmetries(formula, &opts.aut);
    let num_generators = perms.len();
    if opts.scope == SbpScope::GeneratorsAndPairs {
        let mut pairs = Vec::new();
        for i in 0..num_generators {
            for j in 0..num_generators {
                if i == j {
                    continue;
                }
                let composed = perms[i].compose(&perms[j]);
                if !composed.is_identity() && !perms.contains(&composed) {
                    pairs.push(composed);
                }
            }
        }
        pairs.sort_by_key(|p| p.support().len());
        // a∘b and b∘a coincide for commuting generators but need not be
        // adjacent after the sort.
        let mut seen = HashSet::new();
        pairs.retain(|p| seen.insert(p.clone()));
        perms.extend(pairs);
    }
    let sbp = add_sbps(formula, &perms, opts.construction);
    ShatterReport { num_generators, symmetry, sbp }
}
