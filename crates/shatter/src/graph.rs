//! Reduction of a CNF/PB formula to a vertex-colored graph whose
//! automorphisms are the formula's symmetries.

use sbgc_aut::ColoredGraph;
use sbgc_formula::PbFormula;
use std::collections::BTreeMap;

/// Color classes reserved by the construction; PB signature classes are
/// allocated after these.
const COLOR_LITERAL: u32 = 0;
const COLOR_CLAUSE: u32 = 1;
const COLOR_OBJECTIVE: u32 = 2;
const FIRST_DYNAMIC_COLOR: u32 = 3;

/// The colored graph built from a formula, with bookkeeping needed to map
/// automorphisms back to the formula.
#[derive(Debug)]
pub struct FormulaGraph {
    /// The colored graph. Vertices `0..2·num_vars` are the literal
    /// vertices, indexed by [`sbgc_formula::Lit::code`]; the remaining
    /// vertices represent clauses, PB constraints, coefficient groups, and
    /// the objective.
    pub graph: ColoredGraph,
    /// Number of formula variables (`2 × num_vars` literal vertices).
    pub num_vars: usize,
}

/// Builds the symmetry graph of `formula` (the PB-capable construction of
/// Aloul et al. 2004, with the efficient same-color literal encoding of
/// Aloul et al. 2003):
///
/// * two same-colored vertices per variable (its literals), joined by a
///   Boolean-consistency edge;
/// * binary clauses as single literal–literal edges, longer clauses as a
///   clause vertex adjacent to its literals;
/// * each PB constraint as a constraint vertex colored by its
///   `(coefficient multiset, bound)` signature; uniform-coefficient
///   constraints connect directly to their literals, mixed-coefficient
///   constraints go through per-coefficient group vertices;
/// * the objective (if present) as a single distinguished vertex (so
///   symmetries never alter the optimization target).
///
/// # Example
///
/// ```
/// use sbgc_formula::PbFormula;
/// use sbgc_shatter::formula_graph;
///
/// let mut f = PbFormula::new();
/// let a = f.new_var().positive();
/// let b = f.new_var().positive();
/// f.add_clause([a, b]);
/// let fg = formula_graph(&f);
/// // 4 literal vertices; binary clause adds no vertex.
/// assert_eq!(fg.graph.num_vertices(), 4);
/// // consistency edges (2) + clause edge (1)
/// assert_eq!(fg.graph.num_edges(), 3);
/// ```
pub fn formula_graph(formula: &PbFormula) -> FormulaGraph {
    let n = formula.num_vars();
    let mut colors: Vec<u32> = vec![COLOR_LITERAL; 2 * n];
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut next_vertex = 2 * n;
    let mut next_color = FIRST_DYNAMIC_COLOR;
    // Signature -> color for PB constraint classes and coefficient classes.
    let mut pb_colors: BTreeMap<(Vec<u64>, u64), u32> = BTreeMap::new();
    let mut coeff_colors: BTreeMap<u64, u32> = BTreeMap::new();

    // Boolean consistency edges.
    for v in 0..n {
        edges.push((2 * v, 2 * v + 1));
    }

    // Clauses.
    for lits in formula.clauses() {
        match lits.len() {
            0 => {}
            1 => {
                // A unit clause distinguishes its literal: a private
                // marker vertex with the clause color.
                let marker = next_vertex;
                next_vertex += 1;
                colors.push(COLOR_CLAUSE);
                edges.push((marker, lits[0].code()));
            }
            2 => edges.push((lits[0].code(), lits[1].code())),
            _ => {
                let cv = next_vertex;
                next_vertex += 1;
                colors.push(COLOR_CLAUSE);
                for &l in lits {
                    edges.push((cv, l.code()));
                }
            }
        }
    }

    // PB constraints.
    for pb in formula.pb_constraints() {
        let mut coeffs: Vec<u64> = pb.terms().iter().map(|&(a, _)| a).collect();
        coeffs.sort_unstable();
        let uniform = coeffs.windows(2).all(|w| w[0] == w[1]);
        let sig = (coeffs, pb.rhs());
        let color = *pb_colors.entry(sig).or_insert_with(|| {
            let c = next_color;
            next_color += 1;
            c
        });
        let cv = next_vertex;
        next_vertex += 1;
        colors.push(color);
        if uniform {
            for &(_, l) in pb.terms() {
                edges.push((cv, l.code()));
            }
        } else {
            // One group vertex per distinct coefficient value.
            let mut groups: BTreeMap<u64, usize> = BTreeMap::new();
            for &(a, l) in pb.terms() {
                let gv = *groups.entry(a).or_insert_with(|| {
                    let v = next_vertex;
                    next_vertex += 1;
                    let gcolor = *coeff_colors.entry(a).or_insert_with(|| {
                        let c = next_color;
                        next_color += 1;
                        c
                    });
                    colors.push(gcolor);
                    edges.push((cv, v));
                    v
                });
                edges.push((gv, l.code()));
            }
        }
    }

    // Objective.
    if let Some(obj) = formula.objective() {
        let ov = next_vertex;
        next_vertex += 1;
        colors.push(COLOR_OBJECTIVE);
        let uniform = obj.terms().windows(2).all(|w| w[0].0 == w[1].0);
        if uniform {
            for &(_, l) in obj.terms() {
                edges.push((ov, l.code()));
            }
        } else {
            let mut groups: BTreeMap<u64, usize> = BTreeMap::new();
            for &(a, l) in obj.terms() {
                let gv = *groups.entry(a).or_insert_with(|| {
                    let v = next_vertex;
                    next_vertex += 1;
                    let gcolor = *coeff_colors.entry(a).or_insert_with(|| {
                        let c = next_color;
                        next_color += 1;
                        c
                    });
                    colors.push(gcolor);
                    edges.push((ov, v));
                    v
                });
                edges.push((gv, l.code()));
            }
        }
    }

    let graph = ColoredGraph::from_edges(next_vertex, edges, Some(colors));
    FormulaGraph { graph, num_vars: n }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbgc_formula::{Objective, PbConstraint, Var};

    #[test]
    fn long_clause_gets_a_vertex() {
        let mut f = PbFormula::new();
        let lits: Vec<_> = f.new_vars(3).into_iter().map(Var::positive).collect();
        f.add_clause(lits);
        let fg = formula_graph(&f);
        assert_eq!(fg.graph.num_vertices(), 7); // 6 literals + 1 clause
        assert_eq!(fg.graph.num_edges(), 3 + 3); // consistency + clause
    }

    #[test]
    fn unit_clause_distinguishes_literal() {
        let mut f = PbFormula::new();
        let a = f.new_var().positive();
        let b = f.new_var();
        let _ = b;
        f.add_unit(a);
        let fg = formula_graph(&f);
        // The marker vertex breaks the symmetry between the two variables.
        let group = sbgc_aut::automorphisms(&fg.graph);
        // Variables cannot swap (a is pinned by the unit marker), but each
        // variable's phase shift is still an automorphism of the graph
        // *structure* for the untouched variable b.
        assert!(group.generators().iter().all(|g| g.apply(a.code()) == a.code()));
    }

    #[test]
    fn pb_signature_coloring_separates_bounds() {
        let mut f = PbFormula::new();
        let lits: Vec<_> = f.new_vars(4).into_iter().map(Var::positive).collect();
        f.add_pb(PbConstraint::cardinality([lits[0], lits[1]], 1));
        f.add_pb(PbConstraint::cardinality([lits[2], lits[3]], 2));
        let fg = formula_graph(&f);
        // Two constraint vertices with different colors (different rhs).
        let c1 = fg.graph.color(8);
        let c2 = fg.graph.color(9);
        assert_ne!(c1, c2);
    }

    #[test]
    fn mixed_coefficients_get_group_vertices() {
        let mut f = PbFormula::new();
        let lits: Vec<_> = f.new_vars(2).into_iter().map(Var::positive).collect();
        f.add_pb(PbConstraint::at_least([(2, lits[0]), (1, lits[1])], 2));
        let fg = formula_graph(&f);
        // 4 literal vertices + 1 constraint + 2 coefficient groups.
        assert_eq!(fg.graph.num_vertices(), 7);
    }

    #[test]
    fn objective_vertex_present() {
        let mut f = PbFormula::new();
        let a = f.new_var().positive();
        f.set_objective(Objective::minimize([(1, a)]));
        let fg = formula_graph(&f);
        assert_eq!(fg.graph.num_vertices(), 3);
        assert_eq!(fg.graph.color(2), COLOR_OBJECTIVE);
    }

    #[test]
    fn symmetric_clause_graph_has_swap_automorphism() {
        let mut f = PbFormula::new();
        let a = f.new_var().positive();
        let b = f.new_var().positive();
        f.add_clause([a, b]);
        let fg = formula_graph(&f);
        let group = sbgc_aut::automorphisms(&fg.graph);
        // Swapping the two variables is a symmetry; so are the simultaneous
        // phase shifts allowed by the clause structure.
        assert!(group.order_u128().expect("small") >= 2);
        assert!(group.generators().iter().any(|g| g.apply(a.code()) == b.code()));
    }
}
