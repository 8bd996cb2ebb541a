//! Symmetry detection: graph automorphisms mapped back to literal
//! permutations.

use crate::graph::formula_graph;
use crate::index::FormulaIndex;
use crate::litperm::LitPermutation;
use sbgc_aut::{automorphisms_with, AutomorphismOptions};
use sbgc_formula::PbFormula;
use std::time::{Duration, Instant};

/// Detection-stage statistics — the symmetry columns of the paper's
/// Table 2 (`#S` as `10^x`, `#G`, Saucy time).
#[derive(Clone, Debug)]
pub struct SymmetryReport {
    /// `log₁₀` of the order of the symmetry graph's automorphism group —
    /// what Saucy reports, as in the paper's Table 2. It can exceed the
    /// order of the formula's own symmetry group: the graph also permutes
    /// repeated constraints among themselves, and its spurious generators
    /// are dropped from the returned list but not from this order. For
    /// `(a∨b), (a∨b), (c∨d)` the graph group has order 8 and the formula's
    /// has order 4.
    pub order_log10: f64,
    /// The order behind [`order_log10`](Self::order_log10) as `u128` when
    /// it fits.
    pub order: Option<u128>,
    /// Number of generators after spurious filtering.
    pub num_generators: usize,
    /// Graph-group generators dropped because they do not map the formula
    /// onto itself (spurious symmetries, see Section 2.4): they fail to
    /// commute with negation, or they do not preserve the multiset of
    /// constraints — the graph merges duplicate binary clauses into one
    /// edge, so it cannot count them.
    pub spurious_dropped: usize,
    /// Wall-clock time of graph construction, the automorphism search and
    /// the formula check of every generator.
    pub detection_time: Duration,
    /// Vertices in the symmetry graph.
    pub graph_vertices: usize,
    /// Edges in the symmetry graph.
    pub graph_edges: usize,
    /// `false` if the automorphism search hit its budget (order is then a
    /// lower bound).
    pub exact: bool,
}

/// Detects the symmetries of `formula`: builds the colored symmetry graph,
/// computes its automorphism group, and maps each generator back to a
/// permutation of the formula's literals.
///
/// Generators that are not formula symmetries (spurious symmetries — see
/// the paper, Section 2.4, and [`SymmetryReport::spurious_dropped`]) are
/// dropped and counted in the report. Each generator is checked against a
/// canonical index of `formula` built once per call, which re-examines
/// only the constraints on the generator's support.
pub fn detect_symmetries(
    formula: &PbFormula,
    opts: &AutomorphismOptions,
) -> (Vec<LitPermutation>, SymmetryReport) {
    let start = Instant::now();
    let fg = formula_graph(formula);
    let group = automorphisms_with(&fg.graph, opts);
    // Built on the first generator that needs it: a formula whose graph
    // has no symmetry pays nothing for the check.
    let mut index = None;
    let n2 = 2 * fg.num_vars;
    let mut perms = Vec::new();
    let mut spurious = 0;
    for g in group.generators() {
        let images: Vec<u32> = (0..n2).map(|code| g.apply(code) as u32).collect();
        match LitPermutation::from_images(images) {
            Some(p) if !p.is_identity() => {
                // The efficient same-color literal encoding can produce
                // spurious automorphisms when the formula contains circular
                // implication chains (binary clause edges masquerading as
                // Boolean-consistency edges) or repeated binary clauses —
                // the paper notes these "can be easily checked for", which
                // is what we do here.
                if index.get_or_insert_with(|| FormulaIndex::new(formula)).is_preserved_by(&p) {
                    perms.push(p);
                } else {
                    spurious += 1;
                }
            }
            Some(_) => {} // identity on literals (moves only constraint vertices)
            None => spurious += 1,
        }
    }
    let report = SymmetryReport {
        order_log10: group.order_log10(),
        order: group.order_u128(),
        num_generators: perms.len(),
        spurious_dropped: spurious,
        detection_time: start.elapsed(),
        graph_vertices: fg.graph.num_vertices(),
        graph_edges: fg.graph.num_edges(),
        exact: group.is_exact(),
    };
    (perms, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbgc_formula::{PbConstraint, Var};

    fn detect(f: &PbFormula) -> (Vec<LitPermutation>, SymmetryReport) {
        detect_symmetries(f, &AutomorphismOptions::default())
    }

    #[test]
    fn symmetric_or_clause() {
        let mut f = PbFormula::new();
        let a = f.new_var();
        let b = f.new_var();
        f.add_clause([a.positive(), b.positive()]);
        let (perms, report) = detect(&f);
        assert!(!perms.is_empty());
        assert!(perms.iter().all(|p| p.preserves(&f)));
        assert!(report.order_log10 > 0.0);
    }

    #[test]
    fn asymmetric_formula_has_no_generators() {
        let mut f = PbFormula::new();
        let a = f.new_var();
        let b = f.new_var();
        // a forced, a->b: no symmetry (not even phase shifts).
        f.add_unit(a.positive());
        f.add_clause([a.negative(), b.positive()]);
        f.add_unit(b.positive());
        let (perms, _) = detect(&f);
        assert!(perms.iter().all(|p| p.preserves(&f)));
        // No permutation may move anything: a and b are distinguished.
        assert!(perms.is_empty(), "got {perms:?}");
    }

    #[test]
    fn exactly_one_block_is_fully_symmetric() {
        // exactly-one over k variables: symmetry group S_k on the block.
        let mut f = PbFormula::new();
        let lits: Vec<_> = f.new_vars(4).into_iter().map(Var::positive).collect();
        f.add_exactly_one(&lits);
        let (perms, report) = detect(&f);
        assert!(perms.iter().all(|p| p.preserves(&f)));
        // |S_4| = 24.
        assert_eq!(report.order, Some(24));
    }

    #[test]
    fn weighted_pb_restricts_symmetry() {
        let mut f = PbFormula::new();
        let lits: Vec<_> = f.new_vars(3).into_iter().map(Var::positive).collect();
        // 2a + b + c >= 2: only b<->c symmetric.
        f.add_pb(PbConstraint::at_least([(2, lits[0]), (1, lits[1]), (1, lits[2])], 2));
        let (perms, _) = detect(&f);
        assert!(perms.iter().all(|p| p.preserves(&f)));
        assert!(perms.iter().all(|p| p.apply(lits[0]).var() == lits[0].var()));
    }

    #[test]
    fn phase_shift_symmetry_found() {
        // A single unconstrained variable: x <-> ~x is a symmetry.
        let f = PbFormula::with_vars(1);
        let (perms, _) = detect(&f);
        assert!(perms.iter().any(|p| p.has_phase_shift()));
    }

    #[test]
    fn report_counts_graph_size() {
        let mut f = PbFormula::new();
        let lits: Vec<_> = f.new_vars(3).into_iter().map(Var::positive).collect();
        f.add_clause(lits);
        let (_, report) = detect(&f);
        assert_eq!(report.graph_vertices, 7);
        assert_eq!(report.graph_edges, 6);
        assert!(report.exact);
        assert_eq!(report.spurious_dropped, 0);
    }

    #[test]
    fn repeated_binary_clause_swap_is_spurious() {
        // The graph merges the two copies of (a∨b) into one edge, so
        // swapping {a,b} with {c,d} is a graph automorphism that maps two
        // clauses onto one.
        let mut f = PbFormula::new();
        let v = f.new_vars(4);
        let [a, b, c, d] = [0, 1, 2, 3].map(|i| v[i].positive());
        f.add_clause([a, b]);
        f.add_clause([a, b]);
        f.add_clause([c, d]);
        let (mut kept, report) = detect(&f);
        assert_eq!(report.spurious_dropped, 1);
        kept.sort_by_key(|p| p.support());
        assert_eq!(
            kept,
            [
                LitPermutation::from_var_swap(4, v[0], v[1]),
                LitPermutation::from_var_swap(4, v[2], v[3])
            ]
        );
        // The graph's group, not the formula's (order 4).
        assert_eq!(report.order, Some(8));
    }

    #[test]
    fn circular_implication_generators_are_spurious() {
        // (a∨b), (¬a∨¬b): the clause edges and the consistency edges form
        // one 4-cycle, whose group has order 8. Its reflections through
        // two opposite literal vertices do not commute with negation.
        let mut f = PbFormula::new();
        let a = f.new_var().positive();
        let b = f.new_var().positive();
        f.add_clause([a, b]);
        f.add_clause([!a, !b]);
        let (perms, report) = detect(&f);
        assert_eq!((perms.len(), report.spurious_dropped), (1, 2));
        assert!(perms[0].preserves(&f));
        assert_eq!(report.order, Some(8));
    }
}
