//! The reduction of K-coloring to 0-1 ILP (paper Section 2.5).

use sbgc_formula::{Assignment, Lit, Objective, PbFormula, Var};
use sbgc_graph::{Coloring, Graph};

/// The 0-1 ILP encoding of a K-coloring instance.
///
/// For a graph with `n` vertices and `m` edges and a color bound `K`, the
/// formula has `nK + K` variables and, per the paper, `K·(m + n + 1)` CNF
/// clauses plus `n` PB equality constraints (stored as `2n` normalized
/// inequalities) and the `MIN Σ yⱼ` objective:
///
/// * indicator `x[i][j]` — vertex `i` has color `j`;
/// * per vertex: `Σⱼ x[i][j] = 1`;
/// * per edge `(a, b)`, per color `j`: `(¬x[a][j] ∨ ¬x[b][j])`;
/// * usage indicator `y[j]` with `yⱼ ⇔ ⋁ᵢ x[i][j]`, as `nK` binary
///   clauses `x[i][j] ⇒ y[j]` and `K` long clauses `y[j] ⇒ ⋁ᵢ x[i][j]`.
///
/// # Example
///
/// ```
/// use sbgc_core::ColoringEncoding;
/// use sbgc_graph::Graph;
///
/// let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
/// let enc = ColoringEncoding::new(&g, 3);
/// let stats = enc.formula().stats();
/// assert_eq!(stats.vars, 3 * 3 + 3);
/// assert_eq!(stats.clauses, 3 * (2 + 3 + 1));
/// ```
#[derive(Clone, Debug)]
pub struct ColoringEncoding {
    formula: PbFormula,
    num_vertices: usize,
    num_colors: usize,
}

impl ColoringEncoding {
    /// Encodes the K-coloring optimization problem for `graph`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(graph: &Graph, k: usize) -> Self {
        assert!(k > 0, "at least one color is required");
        let n = graph.num_vertices();
        let mut formula = PbFormula::with_vars(n * k + k);
        let enc = ColoringEncoding { formula: PbFormula::new(), num_vertices: n, num_colors: k };

        // Exactly one color per vertex.
        for i in 0..n {
            let lits: Vec<Lit> = (0..k).map(|j| enc.x(i, j).positive()).collect();
            formula.add_exactly_one(&lits);
        }
        // Conflict clauses per edge and color.
        for (a, b) in graph.edges() {
            for j in 0..k {
                formula.add_clause([enc.x(a, j).negative(), enc.x(b, j).negative()]);
            }
        }
        // Usage indicators: x[i][j] ⇒ y[j] and y[j] ⇒ ⋁ᵢ x[i][j].
        for j in 0..k {
            let y = enc.y(j).positive();
            for i in 0..n {
                formula.add_implication(enc.x(i, j).positive(), y);
            }
            let mut clause: Vec<Lit> = vec![!y];
            clause.extend((0..n).map(|i| enc.x(i, j).positive()));
            formula.add_clause(clause);
        }
        // Objective: minimize the number of used colors.
        formula.set_objective(Objective::minimize((0..k).map(|j| (1, enc.y(j).positive()))));

        ColoringEncoding { formula, ..enc }
    }

    /// The encoded formula.
    pub fn formula(&self) -> &PbFormula {
        &self.formula
    }

    /// Mutable access to the formula, for appending SBPs.
    pub fn formula_mut(&mut self) -> &mut PbFormula {
        &mut self.formula
    }

    /// Consumes the encoding, returning the formula.
    pub fn into_formula(self) -> PbFormula {
        self.formula
    }

    /// Number of graph vertices.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// The color bound K.
    pub fn num_colors(&self) -> usize {
        self.num_colors
    }

    /// The indicator variable `x[i][j]` (vertex `i` gets color `j`).
    ///
    /// # Panics
    ///
    /// Panics if `vertex` or `color` is out of range.
    pub fn x(&self, vertex: usize, color: usize) -> Var {
        assert!(vertex < self.num_vertices, "vertex out of range");
        assert!(color < self.num_colors, "color out of range");
        Var::from_index(vertex * self.num_colors + color)
    }

    /// The usage variable `y[j]` (color `j` is used by some vertex).
    ///
    /// # Panics
    ///
    /// Panics if `color` is out of range.
    pub fn y(&self, color: usize) -> Var {
        assert!(color < self.num_colors, "color out of range");
        Var::from_index(self.num_vertices * self.num_colors + color)
    }

    /// Decodes a satisfying model into a vertex coloring.
    ///
    /// Returns `None` if the assignment does not give every vertex exactly
    /// one color (which would indicate a solver bug; the exactly-one
    /// constraints forbid it).
    pub fn decode(&self, model: &Assignment) -> Option<Coloring> {
        let mut colors = Vec::with_capacity(self.num_vertices);
        for i in 0..self.num_vertices {
            let mut chosen = None;
            for j in 0..self.num_colors {
                if model.satisfies(self.x(i, j).positive()) {
                    if chosen.is_some() {
                        return None;
                    }
                    chosen = Some(j);
                }
            }
            colors.push(chosen?);
        }
        Some(Coloring::new(colors))
    }

    /// Encodes a coloring back into a total assignment (useful in tests).
    ///
    /// # Panics
    ///
    /// Panics if the coloring does not fit this encoding (wrong vertex
    /// count or a color ≥ K).
    pub fn assignment_for(&self, coloring: &Coloring) -> Assignment {
        assert_eq!(coloring.num_vertices(), self.num_vertices, "vertex count mismatch");
        assert!(coloring.max_color_bound() <= self.num_colors, "color out of range");
        let mut asg = Assignment::new(self.formula.num_vars());
        for i in 0..self.num_vertices {
            for j in 0..self.num_colors {
                asg.assign(self.x(i, j), coloring.color(i) == j);
            }
        }
        let used: Vec<bool> =
            (0..self.num_colors).map(|j| coloring.colors().contains(&j)).collect();
        for (j, &u) in used.iter().enumerate() {
            asg.assign(self.y(j), u);
        }
        // Any SBP auxiliary variables beyond the base encoding are left
        // unassigned; callers that appended SBPs should not use this
        // helper for satisfaction checks on the extended formula.
        asg
    }
}

/// The pure-CNF K-colorability *decision* encoding used for certification.
///
/// Unlike [`ColoringEncoding`], which mixes CNF clauses with PB exactly-one
/// constraints and an objective, this encoding is deliberately restricted to
/// plain clauses so that a refutation of it can be checked as a DRAT proof
/// (`sbgc-proof` speaks only CNF):
///
/// * indicator `x[i][j] = Var(i·k + j)` — vertex `i` has color `j`;
/// * per vertex: at-least-one clause `(x[i][0] ∨ … ∨ x[i][k−1])` plus
///   pairwise at-most-one clauses `(¬x[i][j₁] ∨ ¬x[i][j₂])`;
/// * per edge `(a, b)`, per color `j`: `(¬x[a][j] ∨ ¬x[b][j])`.
///
/// There are no color-usage `y` variables and no objective: the formula is
/// satisfiable iff the graph is k-colorable. It also carries no symmetry-
/// breaking predicates of either kind — SBP soundness is exactly what a
/// certificate must not assume.
///
/// Returns `(num_vars, clauses)` with `num_vars = n·k`.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn cnf_decision_formula(graph: &Graph, k: usize) -> (usize, Vec<Vec<Lit>>) {
    assert!(k > 0, "at least one color is required");
    let n = graph.num_vertices();
    let x = |i: usize, j: usize| cnf_color_var(k, i, j);
    let mut clauses = Vec::with_capacity(n * (1 + k * (k - 1) / 2) + graph.num_edges() * k);
    for i in 0..n {
        clauses.push((0..k).map(|j| x(i, j).positive()).collect());
        for j1 in 0..k {
            for j2 in j1 + 1..k {
                clauses.push(vec![x(i, j1).negative(), x(i, j2).negative()]);
            }
        }
    }
    for (a, b) in graph.edges() {
        for j in 0..k {
            clauses.push(vec![x(a, j).negative(), x(b, j).negative()]);
        }
    }
    (n * k, clauses)
}

/// `x[vertex][color]` of [`cnf_decision_formula`] with `k` colors.
fn cnf_color_var(k: usize, vertex: usize, color: usize) -> Var {
    Var::from_index(vertex * k + color)
}

/// The clique pins of [`cnf_decision_formula`] with `k` colors: for each
/// `i`, the literal "vertex `clique[i]` has color `i`".
///
/// When `clique` is a clique of at most `k` vertices, the formula is
/// satisfiable iff it is satisfiable with every pin true: a clique's
/// vertices get distinct colors, so permuting the colors of any k-coloring
/// makes it meet the pins. The certifier refutes (χ−1)-colorability under
/// these literals as assumptions.
///
/// # Panics
///
/// Panics if `clique` has more than `k` vertices (color `i` must exist).
pub fn cnf_pins(k: usize, clique: &[usize]) -> Vec<Lit> {
    assert!(clique.len() <= k, "{} pins need at least as many colors, not {k}", clique.len());
    clique.iter().enumerate().map(|(color, &v)| cnf_color_var(k, v, color).positive()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::complete(3)
    }

    #[test]
    fn formula_sizes_match_paper_formulas() {
        // K(m + n + 1) clauses, nK + K variables, 2n normalized PBs.
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let k = 4;
        let enc = ColoringEncoding::new(&g, k);
        let stats = enc.formula().stats();
        assert_eq!(stats.vars, 4 * k + k);
        assert_eq!(stats.clauses, k * (5 + 4 + 1));
        assert_eq!(stats.pb_constraints(), 2 * 4);
        assert!(enc.formula().objective().is_some());
    }

    #[test]
    fn proper_coloring_satisfies() {
        let g = triangle();
        let enc = ColoringEncoding::new(&g, 3);
        let good = Coloring::new(vec![0, 1, 2]);
        assert!(enc.formula().is_satisfied_by(&enc.assignment_for(&good)));
    }

    #[test]
    fn improper_coloring_violates() {
        let g = triangle();
        let enc = ColoringEncoding::new(&g, 3);
        let bad = Coloring::new(vec![0, 0, 2]);
        assert!(!enc.formula().is_satisfied_by(&enc.assignment_for(&bad)));
    }

    #[test]
    fn decode_roundtrip() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]);
        let enc = ColoringEncoding::new(&g, 3);
        let c = Coloring::new(vec![0, 1, 0, 2]);
        let asg = enc.assignment_for(&c);
        let decoded = enc.decode(&asg).expect("valid assignment");
        assert_eq!(decoded.colors(), c.colors());
    }

    #[test]
    fn decode_rejects_corrupt_models() {
        use sbgc_formula::Assignment;
        let g = Graph::from_edges(2, [(0, 1)]);
        let enc = ColoringEncoding::new(&g, 2);
        // Vertex 0 claims two colors at once.
        let mut two = Assignment::new(enc.formula().num_vars());
        two.assign(enc.x(0, 0), true);
        two.assign(enc.x(0, 1), true);
        two.assign(enc.x(1, 0), true);
        two.assign(enc.x(1, 1), false);
        assert!(enc.decode(&two).is_none(), "double color must be rejected");
        // Vertex 1 has no color at all.
        let mut none = Assignment::new(enc.formula().num_vars());
        none.assign(enc.x(0, 0), true);
        none.assign(enc.x(0, 1), false);
        none.assign(enc.x(1, 0), false);
        none.assign(enc.x(1, 1), false);
        assert!(enc.decode(&none).is_none(), "missing color must be rejected");
    }

    #[test]
    fn objective_counts_used_colors() {
        let g = Graph::empty(3);
        let enc = ColoringEncoding::new(&g, 3);
        let c = Coloring::new(vec![0, 0, 0]);
        let asg = enc.assignment_for(&c);
        let value = enc.formula().objective().expect("objective").value(&asg);
        assert_eq!(value, Some(1));
    }

    #[test]
    fn variable_indexing_is_dense_and_disjoint() {
        let g = Graph::empty(3);
        let enc = ColoringEncoding::new(&g, 2);
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..3 {
            for j in 0..2 {
                assert!(seen.insert(enc.x(i, j).index()));
            }
        }
        for j in 0..2 {
            assert!(seen.insert(enc.y(j).index()));
        }
        assert_eq!(seen.len(), 8);
        assert_eq!(*seen.iter().max().expect("non-empty"), 7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn x_bounds_checked() {
        let enc = ColoringEncoding::new(&Graph::empty(2), 2);
        let _ = enc.x(2, 0);
    }

    #[test]
    fn decision_formula_is_pure_cnf_with_expected_size() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let k = 3;
        let (num_vars, clauses) = cnf_decision_formula(&g, k);
        assert_eq!(num_vars, 4 * k);
        // n ALO + n·C(k,2) AMO + m·k conflict clauses.
        assert_eq!(clauses.len(), 4 + 4 * 3 + 5 * k);
        assert!(clauses.iter().all(|c| c.iter().all(|l| l.var().index() < num_vars)));
    }

    #[test]
    fn decision_formula_sat_iff_colorable() {
        use sbgc_formula::Assignment;
        let g = triangle(); // χ = 3
        let (num_vars, clauses) = cnf_decision_formula(&g, 3);
        // The coloring 0,1,2 satisfies every clause.
        let mut asg = Assignment::new(num_vars);
        for (i, &c) in [0usize, 1, 2].iter().enumerate() {
            for j in 0..3 {
                asg.assign(Var::from_index(i * 3 + j), c == j);
            }
        }
        for clause in &clauses {
            assert!(clause.iter().any(|&l| asg.satisfies(l)));
        }
        // At k = 2 the formula is unsatisfiable (checked exhaustively).
        let (nv, cl) = cnf_decision_formula(&g, 2);
        for bits in 0..(1u32 << nv) {
            let asg = Assignment::from_bools((0..nv).map(|v| bits >> v & 1 == 1));
            assert!(cl.iter().any(|c| c.iter().all(|&l| !asg.satisfies(l))));
        }
    }
}
