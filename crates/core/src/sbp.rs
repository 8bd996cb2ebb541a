//! Instance-independent symmetry-breaking predicates (paper Section 3,
//! plus post-paper constructions).
//!
//! All constructions address the same instance-independent symmetry: the K
//! colors of the encoding can be permuted arbitrarily. They differ only in
//! *which slice* of that symmetric group they break and in the size and
//! propagation behavior of the constraints that do the breaking: the
//! paper's four (NU / CA / LI / SC and the NU+SC combination), two
//! extensions of those (SC-clique, LI-prefix), and two constructions from
//! the later symmetry-breaking literature — the Kaibel–Pfetsch
//! partitioning **orbitope** ([`SbpMode::Orbitope`]) and Walsh-style
//! **value precedence** ([`SbpMode::ValuePrec`]).
//!
//! The consolidated handbook in `docs/SBP.md` covers every mode — the
//! encoding construction, its clause/aux-var size formula, the soundness
//! argument, its assumption-soundness status for the incremental ladder
//! (argued in [`crate::session`]), and where to find its measured
//! ablation numbers. Short version: NU orders color *usage*, CA orders
//! class *sizes*, SC pins a clique prefix, and LI / LI-prefix / Orbitope /
//! ValuePrec all force the canonical first-occurrence representative —
//! identical solution sets, wildly different encodings (see
//! `EXPERIMENTS.md` for how much the encoding choice matters).
//!
//! # The vertex order of the complete post-paper constructions
//!
//! A first-occurrence form is defined along a vertex sequence, and the
//! sequence is part of the encoding. The paper's LI follows vertex
//! indices. LI-prefix, Orbitope and ValuePrec instead follow one order
//! computed from the graph: the greedy clique first, then every other
//! vertex by descending degree, ties broken by index. With the clique in
//! front, its `q` vertices take colors `0..q` in every first-occurrence
//! form, so one complete construction also does what SC's pins do:
//! LI-prefix and Orbitope force them there by propagation, and ValuePrec
//! pins them outright and leaves out the precedence clauses the pins
//! decide. "Vertex i" in those three constructions means "the vertex at
//! position i of the order". The paper's NU, CA, LI, SC, NU+SC and
//! SC-clique keep their printed formulas.

use crate::encode::ColoringEncoding;
use sbgc_formula::{Lit, PbConstraint, Var};
use sbgc_graph::algo::greedy_clique;
use sbgc_graph::Graph;
use std::cmp::Reverse;
use std::fmt;

/// The instance-independent SBP constructions evaluated in the paper,
/// plus the post-paper extensions (see `docs/SBP.md` for the handbook).
///
/// # Examples
///
/// ```
/// use sbgc_core::SbpMode;
///
/// // The default is the paper's baseline: no SBPs at all.
/// assert_eq!(SbpMode::default(), SbpMode::None);
///
/// // Every mode prints as its experiment-table row label.
/// assert_eq!(SbpMode::Orbitope.to_string(), "Orbitope");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum SbpMode {
    /// No instance-independent SBPs (the baseline rows of Tables 2–5).
    #[default]
    None,
    /// Null-color elimination: `y[k+1] ⇒ y[k]` — unused colors may appear
    /// only after all used colors (Section 3.1).
    Nu,
    /// Cardinality-based color ordering: `Σᵢ x[i][k] ≥ Σᵢ x[i][k+1]` —
    /// color classes ordered by size; subsumes NU (Section 3.2).
    Ca,
    /// Lowest-index color ordering: colors ordered by the smallest vertex
    /// index using them; breaks *all* instance-independent symmetries
    /// (Section 3.3).
    Li,
    /// Selective coloring: pin the max-degree vertex to color 1 and its
    /// max-degree neighbor to color 2 (Section 3.4).
    Sc,
    /// NU and SC combined (the paper's best instance-independent recipe).
    NuSc,
    /// Extension of SC suggested in Section 3.4: pin an entire greedy
    /// clique to colors 1..q instead of just two vertices ("an even
    /// stronger construction would be to find a triangular clique and fix
    /// colors for all three vertices in it"). Not part of the paper's
    /// evaluated grid; used by the ablation benches.
    ScClique,
    /// Extension: the lowest-position ordering of [`SbpMode::Li`] in a
    /// modern tight prefix-variable encoding
    /// (`P[i][k] ⇔ x[vᵢ][k] ∨ P[i-1][k]`, strict ordering
    /// `P[i][k+1] ⇒ P[i-1][k]`, where `vᵢ` is the vertex at position i of
    /// the clique-first order — see the module docs) that propagates
    /// strongly and breaks the instance-independent symmetries
    /// *completely*. Not part of the paper's grid — notably, it
    /// *reverses* the paper's LI conclusion (see EXPERIMENTS.md).
    LiPrefix,
    /// Partitioning-orbitope column-lexicographic ordering
    /// (Kaibel–Pfetsch). Views the encoding exactly as the paper does —
    /// an n×K 0/1 matrix `x[v][c]` whose columns can be permuted — with
    /// its rows in the clique-first vertex order (`vᵢ` is the vertex at
    /// position i; see the module docs), and keeps only the lex-max column
    /// order via the standard prefix-sum/shifted-column encoding: unit
    /// clauses zero the upper triangle (`¬x[vᵢ][c]` for `c > i`),
    /// column-prefix variables `P[i][c] ⇔ x[vᵢ][c] ∨ P[i−1][c]` track
    /// first use, and shifted-column links `x[vᵢ][c] ⇒ P[i−1][c−1]` force
    /// color c to open strictly after color c−1. Complete (exactly one
    /// representative per color-orbit survives); `nK` aux vars, `≈4nK`
    /// clauses. Not in the paper's grid.
    Orbitope,
    /// Walsh-style value precedence along the clique-first vertex order
    /// `v₀, v₁, …` (see the module docs): color `c` may be used by `vᵢ`
    /// only if color `c−1` is already used by some `vⱼ`, `j < i`. The
    /// order's leading clique, checked on the graph, is pinned to colors
    /// `0, 1, …` (SC-clique's units, `p` of them), and only the direct
    /// aux-free precedence clauses the pins leave open are emitted
    /// (`¬x[vᵢ][c] ∨ x[v_p][c−1] ∨ … ∨ x[vᵢ₋₁][c−1]` for `c > p`,
    /// `i ≥ p`), plus the Narodytska–Walsh-style implied usage ordering
    /// `y[c+1] ⇒ y[c]`. Complete, zero auxiliary variables,
    /// `p + (K−1−p)(n−p) + (K−1)` clauses — but the long clauses
    /// propagate late, the same weakness the paper found in LI. Not in
    /// the paper's grid.
    ValuePrec,
}

impl SbpMode {
    /// All modes evaluated by the paper, in the row order of Tables 2–4.
    ///
    /// # Examples
    ///
    /// ```
    /// use sbgc_core::SbpMode;
    ///
    /// assert_eq!(SbpMode::ALL.len(), 6);
    /// assert!(SbpMode::ALL.starts_with(&[SbpMode::None, SbpMode::Nu]));
    /// ```
    pub const ALL: [SbpMode; 6] =
        [SbpMode::None, SbpMode::Nu, SbpMode::Ca, SbpMode::Li, SbpMode::Sc, SbpMode::NuSc];

    /// The paper's grid plus every extension — the full ablation grid.
    ///
    /// Test-time exhaustiveness checks enforce that every `SbpMode`
    /// variant appears here (and in `docs/SBP.md`), so iterating
    /// `EXTENDED` is guaranteed to cover the whole enum.
    ///
    /// # Examples
    ///
    /// ```
    /// use sbgc_core::SbpMode;
    ///
    /// assert!(SbpMode::EXTENDED.contains(&SbpMode::Orbitope));
    /// assert!(SbpMode::EXTENDED.contains(&SbpMode::ValuePrec));
    /// // ALL is a prefix of EXTENDED.
    /// assert!(SbpMode::EXTENDED.starts_with(&SbpMode::ALL));
    /// ```
    pub const EXTENDED: [SbpMode; 10] = [
        SbpMode::None,
        SbpMode::Nu,
        SbpMode::Ca,
        SbpMode::Li,
        SbpMode::Sc,
        SbpMode::NuSc,
        SbpMode::ScClique,
        SbpMode::LiPrefix,
        SbpMode::Orbitope,
        SbpMode::ValuePrec,
    ];

    /// Display name used in the experiment tables.
    ///
    /// # Examples
    ///
    /// ```
    /// use sbgc_core::SbpMode;
    ///
    /// assert_eq!(SbpMode::NuSc.display_name(), "NU+SC");
    /// assert_eq!(SbpMode::ValuePrec.display_name(), "ValPrec");
    /// ```
    pub fn display_name(self) -> &'static str {
        match self {
            SbpMode::None => "no SBPs",
            SbpMode::Nu => "NU",
            SbpMode::Ca => "CA",
            SbpMode::Li => "LI",
            SbpMode::Sc => "SC",
            SbpMode::NuSc => "NU+SC",
            SbpMode::ScClique => "SC-clq",
            SbpMode::LiPrefix => "LI-pfx",
            SbpMode::Orbitope => "Orbitope",
            SbpMode::ValuePrec => "ValPrec",
        }
    }

    /// Parses a mode name as accepted by the bench binaries' `--sbp`
    /// flag: the display name or the variant identifier,
    /// case-insensitively, ignoring `-`/`+`/space punctuation.
    ///
    /// # Examples
    ///
    /// ```
    /// use sbgc_core::SbpMode;
    ///
    /// assert_eq!(SbpMode::parse("orbitope"), Some(SbpMode::Orbitope));
    /// assert_eq!(SbpMode::parse("NU+SC"), Some(SbpMode::NuSc));
    /// assert_eq!(SbpMode::parse("li-pfx"), Some(SbpMode::LiPrefix));
    /// assert_eq!(SbpMode::parse("shatter"), None);
    /// ```
    pub fn parse(name: &str) -> Option<SbpMode> {
        let norm: String = name
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .collect::<String>()
            .to_ascii_lowercase();
        Some(match norm.as_str() {
            "none" | "nosbps" => SbpMode::None,
            "nu" => SbpMode::Nu,
            "ca" => SbpMode::Ca,
            "li" => SbpMode::Li,
            "sc" => SbpMode::Sc,
            "nusc" => SbpMode::NuSc,
            "scclique" | "scclq" => SbpMode::ScClique,
            "liprefix" | "lipfx" => SbpMode::LiPrefix,
            "orbitope" => SbpMode::Orbitope,
            "valueprec" | "valprec" | "valueprecedence" => SbpMode::ValuePrec,
            _ => return None,
        })
    }

    /// Whether the construction follows the clique-first vertex order of
    /// the module docs (LI-prefix, Orbitope and ValuePrec) rather than
    /// vertex indices (the paper's LI keeps its printed index order) or no
    /// order at all.
    pub(crate) fn is_ordered(self) -> bool {
        matches!(self, SbpMode::LiPrefix | SbpMode::Orbitope | SbpMode::ValuePrec)
    }
}

impl fmt::Display for SbpMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.display_name())
    }
}

/// Size of the constraints added by a construction, as measured by
/// [`add_instance_independent_sbps`] (and exported per run in the JSON
/// report's `sbp` object — see `docs/OBSERVABILITY.md`).
///
/// # Examples
///
/// ```
/// use sbgc_core::{add_instance_independent_sbps, ColoringEncoding, SbpMode};
/// use sbgc_graph::Graph;
///
/// let g = Graph::complete(3);
/// let mut enc = ColoringEncoding::new(&g, 3);
/// let stats = add_instance_independent_sbps(&mut enc, &g, SbpMode::ValuePrec);
/// assert_eq!(stats.aux_vars, 0); // ValuePrec is aux-free
/// // p + (K−1−p)(n−p) + (K−1): the triangle's p = 3 pins leave no
/// // precedence clause open, so 3 pins and the K−1 usage-order clauses.
/// assert_eq!(stats.clauses, 3 + 2);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SbpSizeStats {
    /// Auxiliary variables introduced (only LI, LI-prefix and Orbitope
    /// introduce any).
    pub aux_vars: usize,
    /// CNF clauses appended.
    pub clauses: usize,
    /// PB constraints appended.
    pub pb_constraints: usize,
}

/// Appends the chosen instance-independent SBPs to the encoding's formula.
///
/// `graph` gives SC and SC-clique their pinned vertices and LI-prefix,
/// Orbitope and ValuePrec their clique-first vertex order (see the module
/// docs); the other constructions are pure functions of the encoding.
///
/// # Examples
///
/// ```
/// use sbgc_core::{add_instance_independent_sbps, ColoringEncoding, SbpMode};
/// use sbgc_graph::Graph;
///
/// let g = Graph::from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)]);
/// let mut enc = ColoringEncoding::new(&g, 4);
/// let stats = add_instance_independent_sbps(&mut enc, &g, SbpMode::Orbitope);
/// assert_eq!(stats.aux_vars, 4 * 4); // nK column-prefix variables
/// ```
///
/// # Panics
///
/// Panics if `graph` does not match the encoding's vertex count.
pub fn add_instance_independent_sbps(
    encoding: &mut ColoringEncoding,
    graph: &Graph,
    mode: SbpMode,
) -> SbpSizeStats {
    let clique = if mode.is_ordered() { greedy_clique(graph) } else { Vec::new() };
    add_sbps_with_clique(encoding, graph, mode, &clique).0
}

/// [`add_instance_independent_sbps`] with the graph's greedy clique
/// supplied by a caller that already computed it. Also returns the vertex
/// order the construction followed ([`vertex_order`]), empty for modes
/// that follow none. ValuePrec pins only the prefix of that order it
/// verifies to be a clique, so a `clique` that is not one costs pins, not
/// soundness.
///
/// # Panics
///
/// Panics if `graph` does not match the encoding's vertex count.
pub(crate) fn add_sbps_with_clique(
    encoding: &mut ColoringEncoding,
    graph: &Graph,
    mode: SbpMode,
    clique: &[usize],
) -> (SbpSizeStats, Vec<usize>) {
    assert_eq!(graph.num_vertices(), encoding.num_vertices(), "graph/encoding mismatch");
    let order = if mode.is_ordered() { vertex_order(graph, clique) } else { Vec::new() };
    let before = encoding.formula().stats();
    let before_vars = encoding.formula().num_vars();
    match mode {
        SbpMode::None => {}
        SbpMode::Nu => add_nu(encoding),
        SbpMode::Ca => add_ca(encoding),
        SbpMode::Li => add_li(encoding),
        SbpMode::Sc => add_sc(encoding, graph),
        SbpMode::NuSc => {
            add_nu(encoding);
            add_sc(encoding, graph);
        }
        SbpMode::ScClique => add_sc_clique(encoding, graph),
        SbpMode::LiPrefix => add_li_prefix(encoding, &order),
        SbpMode::Orbitope => add_orbitope(encoding, &order),
        SbpMode::ValuePrec => add_value_prec(encoding, graph, &order),
    }
    let after = encoding.formula().stats();
    let stats = SbpSizeStats {
        aux_vars: encoding.formula().num_vars() - before_vars,
        clauses: after.clauses - before.clauses,
        pb_constraints: after.pb_constraints() - before.pb_constraints(),
    };
    (stats, order)
}

/// The vertex order of the ordered modes: `clique` first, as given, then
/// every other vertex by descending degree, ties broken by index.
/// `order[i]` is the vertex at position i.
fn vertex_order(graph: &Graph, clique: &[usize]) -> Vec<usize> {
    let mut in_clique = vec![false; graph.num_vertices()];
    for &v in clique {
        in_clique[v] = true;
    }
    let mut rest: Vec<usize> = (0..graph.num_vertices()).filter(|&v| !in_clique[v]).collect();
    rest.sort_by_key(|&v| (Reverse(graph.degree(v)), v));
    clique.iter().copied().chain(rest).collect()
}

/// NU — null-color elimination: `y[k+1] ⇒ y[k]` for `1 ≤ k < K`.
fn add_nu(encoding: &mut ColoringEncoding) {
    let k = encoding.num_colors();
    for j in 0..k.saturating_sub(1) {
        let a = encoding.y(j + 1).positive();
        let b = encoding.y(j).positive();
        encoding.formula_mut().add_implication(a, b);
    }
}

/// CA — cardinality-based color ordering:
/// `Σᵢ x[i][k] − Σᵢ x[i][k+1] ≥ 0` for `1 ≤ k < K`.
fn add_ca(encoding: &mut ColoringEncoding) {
    let (n, k) = (encoding.num_vertices(), encoding.num_colors());
    for j in 0..k.saturating_sub(1) {
        let mut terms: Vec<(i64, Lit)> = Vec::with_capacity(2 * n);
        for i in 0..n {
            terms.push((1, encoding.x(i, j).positive()));
            terms.push((-1, encoding.x(i, j + 1).positive()));
        }
        let constraint = PbConstraint::at_least(terms, 0);
        encoding.formula_mut().add_pb(constraint);
    }
}

/// LI — lowest-index color ordering, in the paper's own construction
/// (Section 3.3): `nK` flag variables `V[i][k]` ("vertex i anchors color
/// k"), with
///
/// * `V[i][k] ⇒ x[i][k]` — the anchor really has the color (`nK` binary
///   clauses);
/// * `y[k] ⇒ ⋁ᵢ V[i][k]` — every used color is anchored (`K` long
///   clauses);
/// * `V[i][k] ⇒ ⋁_{j>i} V[j][k−1]` for `k ≥ 2` — the anchor of the
///   previous color has a *higher* index (`nK` long clauses, the ordering
///   direction as printed in the paper).
///
/// Totals `nK` auxiliary variables and `≈2nK` clauses, matching the
/// paper's stated size. The ordering forces used colors into a prefix
/// (subsuming NU) and orders them by anchor index; as in the paper it is
/// the largest construction and the long, weakly-propagating clauses make
/// it the *slowest* for the solvers despite being the most complete at the
/// symmetry level. See [`SbpMode::LiPrefix`] for a tight modern encoding
/// of the same idea.
fn add_li(encoding: &mut ColoringEncoding) {
    let (n, k) = (encoding.num_vertices(), encoding.num_colors());
    if n == 0 {
        return;
    }
    // Allocate V[i][k] anchor variables.
    let mut v = vec![vec![Var::from_index(0); k]; n];
    for row in v.iter_mut() {
        for slot in row.iter_mut() {
            *slot = encoding.formula_mut().new_var();
        }
    }
    // V[i][k] => x[i][k].
    for (i, row) in v.iter().enumerate() {
        for (j, vij) in row.iter().enumerate() {
            let x = encoding.x(i, j).positive();
            encoding.formula_mut().add_clause([vij.negative(), x]);
        }
    }
    // y[k] => some anchor.
    #[allow(clippy::needless_range_loop)] // column-major access of `v`
    for j in 0..k {
        let y = encoding.y(j).positive();
        let mut clause: Vec<Lit> = vec![!y];
        clause.extend((0..n).map(|i| v[i][j].positive()));
        encoding.formula_mut().add_clause(clause);
    }
    // Anchor ordering: V[i][k] => exists anchor of color k-1 with index > i.
    for j in 1..k {
        for i in 0..n {
            let mut clause: Vec<Lit> = vec![v[i][j].negative()];
            clause.extend((i + 1..n).map(|l| v[l][j - 1].positive()));
            encoding.formula_mut().add_clause(clause);
        }
    }
}

/// LI-prefix — the extension encoding, along the vertex order `order`
/// (`vᵢ = order[i]`): prefix variables `P[i][k] ⇔ x[vᵢ][k] ∨ P[i-1][k]`
/// ("some vertex at position ≤ i uses color k") and the strict ordering
/// `P[i][k+1] ⇒ P[i-1][k]` (with `P[-1][k] = false`), which forces the
/// first vertex of color k+1 to come after that of color k. Complete — no
/// instance-independent symmetry survives — and, unlike the paper's LI,
/// built from short strongly-propagating clauses.
fn add_li_prefix(encoding: &mut ColoringEncoding, order: &[usize]) {
    let k = encoding.num_colors();
    let Some(p) = add_column_prefixes(encoding, order) else {
        return;
    };
    // Strict first-position ordering between consecutive colors.
    for j in 0..k.saturating_sub(1) {
        // v₀ can only start color 0: P[0][j+1] must be false.
        encoding.formula_mut().add_unit(p[0][j + 1].negative());
        for i in 1..order.len() {
            encoding.formula_mut().add_clause([p[i][j + 1].negative(), p[i - 1][j].positive()]);
        }
    }
}

/// The column-prefix variables LI-prefix and Orbitope share, along
/// `order` (`vᵢ = order[i]`): `P[i][c] ⇔ x[vᵢ][c] ∨ P[i−1][c]` ("some
/// vertex at position ≤ i uses color c"), `nK` aux vars allocated row by
/// row and `K(3n − 1)` defining clauses. `None` for an empty graph.
fn add_column_prefixes(encoding: &mut ColoringEncoding, order: &[usize]) -> Option<Vec<Vec<Var>>> {
    let k = encoding.num_colors();
    if order.is_empty() {
        return None;
    }
    let mut p = vec![vec![Var::from_index(0); k]; order.len()];
    for row in p.iter_mut() {
        for slot in row.iter_mut() {
            *slot = encoding.formula_mut().new_var();
        }
    }
    #[allow(clippy::needless_range_loop)] // column-major access of `p`
    for j in 0..k {
        for (i, &v) in order.iter().enumerate() {
            let x = encoding.x(v, j).positive();
            let pij = p[i][j].positive();
            if i == 0 {
                // P[0][j] ⇔ x[v₀][j].
                encoding.formula_mut().add_implication(x, pij);
                encoding.formula_mut().add_implication(pij, x);
            } else {
                let prev = p[i - 1][j].positive();
                encoding.formula_mut().add_clause([!x, pij]);
                encoding.formula_mut().add_clause([!prev, pij]);
                encoding.formula_mut().add_clause([!pij, x, prev]);
            }
        }
    }
    Some(p)
}

/// Orbitope — Kaibel–Pfetsch partitioning-orbitope column-lex ordering in
/// the standard prefix-sum/shifted-column encoding, with the matrix rows
/// taken in the vertex order `order` (`vᵢ = order[i]`):
///
/// * **triangle fixings** — in the lex-max representative the vertex at
///   position `i` can only use colors `0..=i`, so `¬x[vᵢ][c]` for every
///   `c > i` (`≈K(K−1)/2` unit clauses, independent of n for `n ≥ K`);
/// * **column prefixes** — `P[i][c] ⇔ x[vᵢ][c] ∨ P[i−1][c]` ("some
///   vertex at position `≤ i` uses color c"), `nK` aux vars and `≈3nK`
///   defining clauses;
/// * **shifted-column ordering** — `x[vᵢ][c] ⇒ P[i−1][c−1]` for `c ≥ 1`:
///   a vertex may use color c only if column c−1 already started strictly
///   above (`≈nK` binary clauses). Row `i = 0` is covered by the triangle.
///
/// Together these admit exactly the colorings whose columns are in
/// decreasing lexicographic order — the partitioning-orbitope
/// representative, which for partition matrices is precisely the
/// first-occurrence (staircase) form. Complete, like LI-prefix, but with
/// the ordering carried by the x-variables themselves plus hard triangle
/// units that shrink the search space before any propagation happens.
fn add_orbitope(encoding: &mut ColoringEncoding, order: &[usize]) {
    let k = encoding.num_colors();
    // Triangle fixings: column c cannot start before row c.
    for (i, &v) in order.iter().enumerate() {
        for j in (i + 1)..k {
            let lit = encoding.x(v, j).negative();
            encoding.formula_mut().add_unit(lit);
        }
    }
    let Some(p) = add_column_prefixes(encoding, order) else {
        return;
    };
    // Shifted-column ordering: x[vᵢ][c] ⇒ P[i−1][c−1].
    for j in 1..k {
        for (i, &v) in order.iter().enumerate().skip(1) {
            let x = encoding.x(v, j).negative();
            encoding.formula_mut().add_clause([x, p[i - 1][j - 1].positive()]);
        }
    }
}

/// ValuePrec — Walsh-style value precedence between every adjacent color
/// pair along the vertex order `order` (`vᵢ = order[i]`), in the direct
/// aux-free decomposition, with the order's leading clique pinned. Let `q`
/// be the length of the longest prefix of `order` whose vertices are
/// pairwise adjacent in `graph` (checked here, so a `clique` that is not
/// one only shortens the prefix), and `p = min(q, K)`:
///
/// * `x[vᵢ][i]` for `i < p` — the pins ([`add_clique_pins`], SC-clique's
///   `p` units);
/// * `¬x[vᵢ][c] ∨ x[v_p][c−1] ∨ … ∨ x[vᵢ₋₁][c−1]` for `p < c < K` and
///   `i ≥ p` — past the pins, the vertex at position i may use color c
///   only if c−1 is used strictly earlier (`(K−1−p)(n−p)` clauses,
///   `O((n−p)²(K−p))` literals; row `i = p` is the units `¬x[v_p][c]`);
/// * `y[c+1] ⇒ y[c]` — the Narodytska–Walsh-style implied usage ordering,
///   logically redundant given the above but cheap and early-propagating
///   (`K−1` binary clauses; exactly the NU chain).
///
/// This is the full precedence formula (`¬x[v₀][c]` for `c ≥ 1` and
/// `¬x[vᵢ][c] ∨ x[v₀][c−1] ∨ … ∨ x[vᵢ₋₁][c−1]` for `i, c ≥ 1`) with what
/// the pins decide taken out. Under exactly-one the pins satisfy every
/// clause left out (for `c ≤ p` by `x[v_{c−1}][c−1]`, or by `¬x[vᵢ][c]`
/// when `i < c`; for `i < p` by `¬x[vᵢ][c]`) and falsify every literal
/// left out (`x[vⱼ][c−1]` with `j < p < c`); conversely, the full formula
/// derives the pins by unit propagation along the clique's edges. So both
/// admit the same colorings — exactly the first-occurrence representative
/// of every color orbit, the same solution set as LI-prefix and Orbitope —
/// and a clause learned under either stays valid under the other. The
/// long clauses still fire only once `i−p−1` candidates are eliminated:
/// the same structural weakness the paper diagnosed in its LI
/// construction.
fn add_value_prec(encoding: &mut ColoringEncoding, graph: &Graph, order: &[usize]) {
    let k = encoding.num_colors();
    let p = clique_prefix_len(graph, &order[..order.len().min(k)]);
    add_clique_pins(encoding, &order[..p]);
    // Precedence past the pins: vᵢ uses color c ⇒ some vⱼ, p ≤ j < i, uses c−1.
    for j in (p + 1)..k {
        for (i, &v) in order.iter().enumerate().skip(p) {
            let mut clause: Vec<Lit> = vec![encoding.x(v, j).negative()];
            clause.extend(order[p..i].iter().map(|&u| encoding.x(u, j - 1).positive()));
            encoding.formula_mut().add_clause(clause);
        }
    }
    // Implied usage ordering (the NU chain) as strengthening.
    add_nu(encoding);
}

/// The length of the longest prefix of `order` whose vertices are pairwise
/// adjacent in `graph`.
fn clique_prefix_len(graph: &Graph, order: &[usize]) -> usize {
    (1..order.len())
        .find(|&i| !order[..i].iter().all(|&u| graph.has_edge(u, order[i])))
        .unwrap_or(order.len())
}

/// SC — selective coloring: pin the max-degree vertex to color 1 and its
/// max-degree neighbor (if any) to color 2.
fn add_sc(encoding: &mut ColoringEncoding, graph: &Graph) {
    let n = graph.num_vertices();
    if n == 0 {
        return;
    }
    let vl = (0..n).max_by_key(|&v| (graph.degree(v), std::cmp::Reverse(v))).expect("non-empty");
    let pin1 = encoding.x(vl, 0).positive();
    encoding.formula_mut().add_unit(pin1);
    if encoding.num_colors() < 2 {
        return;
    }
    let neighbor = graph
        .neighbors(vl)
        .iter()
        .map(|&w| w as usize)
        .max_by_key(|&w| (graph.degree(w), std::cmp::Reverse(w)));
    if let Some(vl2) = neighbor {
        let pin2 = encoding.x(vl2, 1).positive();
        encoding.formula_mut().add_unit(pin2);
    }
}

/// SC-clique — the Section 3.4 extension: pin every vertex of a greedy
/// clique `v₁ < v₂ < …` to colors `1, 2, …` (capped at K). Any proper
/// coloring assigns the clique pairwise-distinct colors, so some color
/// permutation realizes the pinning: satisfiability and the optimum are
/// preserved while up to `q` colors are fixed outright.
fn add_sc_clique(encoding: &mut ColoringEncoding, graph: &Graph) {
    add_clique_pins(encoding, &greedy_clique(graph));
}

/// The unit clauses `x[clique[i]][i]` for `i < min(|clique|, K)`: sound
/// only if `clique`'s vertices are pairwise adjacent.
fn add_clique_pins(encoding: &mut ColoringEncoding, clique: &[usize]) {
    for (color, &v) in clique.iter().take(encoding.num_colors()).enumerate() {
        let pin = encoding.x(v, color).positive();
        encoding.formula_mut().add_unit(pin);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbgc_graph::Coloring;

    /// The Figure 1 example graph: V1,V2,V3 form a triangle; V4 is
    /// adjacent to V3 only, so V4 can share a color with V1 or V2 — the
    /// two 3-color partitions the paper discusses.
    pub(crate) fn figure1_graph() -> Graph {
        Graph::from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    }

    fn admits(encoding: &ColoringEncoding, coloring: &Coloring) -> bool {
        // Check only the zero-aux constructions via direct assignment.
        let asg = encoding.assignment_for(coloring);
        encoding.formula().is_satisfied_by(&asg)
    }

    #[test]
    fn nu_rejects_gaps_in_color_usage() {
        let g = figure1_graph();
        let mut enc = ColoringEncoding::new(&g, 4);
        let stats = add_instance_independent_sbps(&mut enc, &g, SbpMode::Nu);
        assert_eq!(stats.clauses, 3);
        assert_eq!(stats.aux_vars, 0);
        // Colors {0, 2, 3} used (gap at 1): rejected. (Figure 1c, left.)
        assert!(!admits(&enc, &Coloring::new(vec![0, 2, 3, 0])));
        // Colors {0, 1, 2}: accepted. (Figure 1c, right.)
        assert!(admits(&enc, &Coloring::new(vec![0, 1, 2, 0])));
    }

    #[test]
    fn ca_orders_class_sizes() {
        let g = figure1_graph();
        let mut enc = ColoringEncoding::new(&g, 4);
        let stats = add_instance_independent_sbps(&mut enc, &g, SbpMode::Ca);
        assert_eq!(stats.pb_constraints, 3);
        // Class sizes (1,1,2) ascending: rejected (largest class must get
        // color 1 — Figure 1d, left is invalid).
        assert!(!admits(&enc, &Coloring::new(vec![1, 2, 0, 1]))); // sizes (1,2,1)
                                                                  // Sizes (2,1,1): accepted (Figure 1d, right).
        assert!(admits(&enc, &Coloring::new(vec![0, 1, 2, 0])));
    }

    #[test]
    fn ca_subsumes_nu() {
        // Any assignment with a null color before a used color violates CA
        // too (class of size 0 ordered before a non-empty class).
        let g = figure1_graph();
        let mut enc = ColoringEncoding::new(&g, 4);
        let _ = add_instance_independent_sbps(&mut enc, &g, SbpMode::Ca);
        assert!(!admits(&enc, &Coloring::new(vec![1, 2, 3, 1]))); // color 0 unused
    }

    #[test]
    fn sc_pins_two_vertices() {
        let g = figure1_graph();
        let mut enc = ColoringEncoding::new(&g, 4);
        let stats = add_instance_independent_sbps(&mut enc, &g, SbpMode::Sc);
        assert_eq!(stats.clauses, 2);
        // The unique max-degree vertex is index 2 (degree 3), pinned to
        // color 0; its max-degree neighbor (tie between 0 and 1, broken to
        // the smaller index 0) is pinned to color 1.
        assert!(admits(&enc, &Coloring::new(vec![1, 2, 0, 1])));
        assert!(!admits(&enc, &Coloring::new(vec![0, 1, 2, 0])), "pin violated");
        // The pinned literals are unit clauses; check them directly.
        let unit_count = enc.formula().clauses().iter().filter(|c| c.len() == 1).count();
        assert_eq!(unit_count, 2);
    }

    #[test]
    fn nusc_combines_both() {
        let g = figure1_graph();
        let mut enc = ColoringEncoding::new(&g, 4);
        let stats = add_instance_independent_sbps(&mut enc, &g, SbpMode::NuSc);
        assert_eq!(stats.clauses, 3 + 2);
        assert_eq!(stats.pb_constraints, 0);
    }

    #[test]
    fn li_adds_paper_sized_predicates() {
        let g = figure1_graph();
        let (n, k) = (4, 4);
        let mut enc = ColoringEncoding::new(&g, k);
        let stats = add_instance_independent_sbps(&mut enc, &g, SbpMode::Li);
        assert_eq!(stats.aux_vars, n * k, "nK anchor variables");
        // nK (V=>x) + K (y=>anchors) + n(K-1) ordering ≈ 2nK.
        assert_eq!(stats.clauses, n * k + k + n * (k - 1));
    }

    #[test]
    fn li_prefix_adds_linear_aux_vars() {
        let g = figure1_graph();
        let mut enc = ColoringEncoding::new(&g, 4);
        let stats = add_instance_independent_sbps(&mut enc, &g, SbpMode::LiPrefix);
        assert_eq!(stats.aux_vars, 4 * 4);
        assert!(stats.clauses >= 3 * 4 * 4 - 4, "≈4nK clauses, got {}", stats.clauses);
    }

    #[test]
    fn none_adds_nothing() {
        let g = figure1_graph();
        let mut enc = ColoringEncoding::new(&g, 4);
        let stats = add_instance_independent_sbps(&mut enc, &g, SbpMode::None);
        assert_eq!(stats, SbpSizeStats::default());
    }

    #[test]
    fn mode_display_names_match_paper() {
        let names: Vec<&str> = SbpMode::ALL.iter().map(|m| m.display_name()).collect();
        assert_eq!(names, vec!["no SBPs", "NU", "CA", "LI", "SC", "NU+SC"]);
        assert_eq!(SbpMode::EXTENDED.len(), 10);
    }

    /// Enumerates every proper K-coloring of `g` (including ones using
    /// fewer than K colors) by brute force.
    fn proper_colorings(g: &Graph, k: usize) -> Vec<Coloring> {
        let n = g.num_vertices();
        let mut out = Vec::new();
        let mut assign = vec![0usize; n];
        loop {
            let proper =
                (0..n).all(|v| g.neighbors(v).iter().all(|&w| assign[v] != assign[w as usize]));
            if proper {
                out.push(Coloring::new(assign.clone()));
            }
            // Increment the mixed-radix counter.
            let mut pos = 0;
            loop {
                if pos == n {
                    return out;
                }
                assign[pos] += 1;
                if assign[pos] < k {
                    break;
                }
                assign[pos] = 0;
                pos += 1;
            }
        }
    }

    /// The canonical first-occurrence representatives of the figure-1
    /// graph's proper colorings at K = 4: the triangle takes colors
    /// 0, 1, 2 in vertex order, and V4 (≁ V1, V2) picks any color but
    /// V3's. Every complete construction must admit exactly these.
    fn figure1_canonical_forms() -> Vec<Coloring> {
        vec![
            Coloring::new(vec![0, 1, 2, 0]),
            Coloring::new(vec![0, 1, 2, 1]),
            Coloring::new(vec![0, 1, 2, 3]),
        ]
    }

    #[test]
    fn orbitope_adds_triangle_prefix_and_ordering_clauses() {
        let g = figure1_graph();
        let (n, k) = (4usize, 4usize);
        let mut enc = ColoringEncoding::new(&g, k);
        let stats = add_instance_independent_sbps(&mut enc, &g, SbpMode::Orbitope);
        assert_eq!(stats.aux_vars, n * k, "nK column-prefix variables");
        let triangle: usize = (0..n).map(|i| k.saturating_sub(i + 1)).sum();
        let prefix_defs = k * (2 + 3 * (n - 1));
        let ordering = (k - 1) * (n - 1);
        assert_eq!(stats.clauses, triangle + prefix_defs + ordering);
        assert_eq!(stats.pb_constraints, 0);
    }

    #[test]
    fn orbitope_admits_exactly_the_first_occurrence_forms() {
        let g = figure1_graph();
        let (n, k) = (4usize, 4usize);
        let mut enc = ColoringEncoding::new(&g, k);
        let _ = add_instance_independent_sbps(&mut enc, &g, SbpMode::Orbitope);
        // Complete the assignment with the column-prefix aux values
        // (allocated directly after the nK + K base variables, row-major).
        let base = n * k + k;
        let admitted: Vec<Coloring> = proper_colorings(&g, k)
            .into_iter()
            .filter(|c| {
                let mut asg = enc.assignment_for(c);
                for i in 0..n {
                    for j in 0..k {
                        let val = (0..=i).any(|l| c.color(l) == j);
                        asg.assign(Var::from_index(base + i * k + j), val);
                    }
                }
                enc.formula().is_satisfied_by(&asg)
            })
            .collect();
        assert_eq!(admitted, figure1_canonical_forms());
    }

    #[test]
    fn value_prec_is_aux_free_with_linear_clause_count() {
        let g = figure1_graph();
        let (n, k) = (4usize, 4usize);
        let mut enc = ColoringEncoding::new(&g, k);
        let stats = add_instance_independent_sbps(&mut enc, &g, SbpMode::ValuePrec);
        assert_eq!(stats.aux_vars, 0, "the direct decomposition is aux-free");
        // p pins (the triangle), the precedence clauses they leave open,
        // and the usage chain.
        let p = 3;
        assert_eq!(stats.clauses, p + (k - 1).saturating_sub(p) * (n - p) + (k - 1));
        assert_eq!(stats.pb_constraints, 0);
    }

    #[test]
    fn value_prec_admits_exactly_the_first_occurrence_forms() {
        let g = figure1_graph();
        let k = 4;
        let mut enc = ColoringEncoding::new(&g, k);
        let _ = add_instance_independent_sbps(&mut enc, &g, SbpMode::ValuePrec);
        let admitted: Vec<Coloring> =
            proper_colorings(&g, k).into_iter().filter(|c| admits(&enc, c)).collect();
        assert_eq!(admitted, figure1_canonical_forms());
    }

    /// The Figure 1 graph relabelled so its triangle is {1, 2, 3} and the
    /// pendant vertex is 0: the clique-first order is 1, 2, 3, 0.
    fn relabelled_figure1_graph() -> Graph {
        figure1_graph().relabel(&[1, 3, 2, 0])
    }

    /// `coloring` with its colors renumbered by first appearance along
    /// `order` — the one member of its color orbit an ordered complete
    /// construction admits.
    fn first_occurrence_along(coloring: &Coloring, order: &[usize]) -> Coloring {
        let mut map = vec![None; coloring.max_color_bound()];
        let mut next = 0;
        for &v in order {
            map[coloring.color(v)].get_or_insert_with(|| {
                next += 1;
                next - 1
            });
        }
        Coloring::new(
            coloring.colors().iter().map(|&c| map[c].expect("every color seen")).collect(),
        )
    }

    /// Whether the SBP-extended `encoding` admits `coloring`: some
    /// completion of the auxiliary variables satisfies the formula once
    /// every x-literal is fixed, decided by solving with those literals as
    /// assumptions.
    fn admits_by_solving(
        engine: &mut sbgc_pb::PbEngine,
        encoding: &ColoringEncoding,
        coloring: &Coloring,
    ) -> bool {
        let (n, k) = (encoding.num_vertices(), encoding.num_colors());
        let assumptions: Vec<Lit> = (0..n)
            .flat_map(|v| {
                (0..k).map(move |c| {
                    let x = encoding.x(v, c);
                    if coloring.color(v) == c {
                        x.positive()
                    } else {
                        x.negative()
                    }
                })
            })
            .collect();
        let budget = sbgc_pb::Budget::unlimited();
        matches!(
            engine.solve_with_assumptions(&assumptions, &budget),
            sbgc_pb::SolveOutcome::Sat(_)
        )
    }

    /// Under every ordered mode, each color orbit of `g`'s proper
    /// K-colorings keeps exactly one admitted member, and it is the
    /// first-occurrence form along the vertex order that puts `clique`
    /// first.
    fn assert_one_admitted_member_per_orbit(name: &str, g: &Graph, k: usize, clique: &[usize]) {
        let colorings = proper_colorings(g, k);
        for mode in [SbpMode::ValuePrec, SbpMode::LiPrefix, SbpMode::Orbitope] {
            let mut enc = ColoringEncoding::new(g, k);
            let (_, order) = add_sbps_with_clique(&mut enc, g, mode, clique);
            let mut engine =
                sbgc_pb::PbEngine::from_formula(enc.formula(), sbgc_pb::EngineConfig::default());
            // Orbit (keyed by the index-order canonical form) → admitted
            // members.
            let mut admitted: std::collections::BTreeMap<Vec<usize>, Vec<Coloring>> =
                Default::default();
            for c in &colorings {
                let slot = admitted.entry(c.compacted().colors().to_vec()).or_default();
                let ok = if mode == SbpMode::ValuePrec {
                    // Aux-free: a direct assignment decides it.
                    admits(&enc, c)
                } else {
                    admits_by_solving(&mut engine, &enc, c)
                };
                if ok {
                    slot.push(c.clone());
                }
            }
            assert!(!admitted.is_empty(), "{name}: no proper {k}-coloring");
            for (orbit, members) in &admitted {
                assert_eq!(
                    members.len(),
                    1,
                    "{name} under {mode}: orbit {orbit:?} admits {members:?}"
                );
                let expected = first_occurrence_along(&members[0], &order);
                assert_eq!(members[0], expected, "{name} under {mode}: order {order:?}");
            }
        }
    }

    #[test]
    fn ordered_modes_follow_the_clique_first_order() {
        let g = relabelled_figure1_graph();
        assert_eq!(vertex_order(&g, &greedy_clique(&g)), vec![1, 2, 3, 0]);
        // The rest follow by descending degree, ties by index.
        let g = Graph::from_edges(6, [(0, 1), (2, 3), (2, 4), (3, 4), (4, 5), (5, 0), (5, 1)]);
        assert_eq!(greedy_clique(&g), vec![2, 3, 4]);
        assert_eq!(vertex_order(&g, &[2, 3, 4]), vec![2, 3, 4, 5, 0, 1]);
        // Unordered modes follow none.
        let mut enc = ColoringEncoding::new(&g, 3);
        assert!(add_sbps_with_clique(&mut enc, &g, SbpMode::Li, &[2, 3, 4]).1.is_empty());
    }

    #[test]
    fn value_prec_pins_the_leading_clique() {
        // With the triangle {1, 2, 3} first in the order, ValuePrec forces
        // it onto colors 0, 1, 2 in order: any other color for one of its
        // vertices is unsatisfiable.
        let g = relabelled_figure1_graph();
        let mut enc = ColoringEncoding::new(&g, 4);
        let _ = add_instance_independent_sbps(&mut enc, &g, SbpMode::ValuePrec);
        let mut engine =
            sbgc_pb::PbEngine::from_formula(enc.formula(), sbgc_pb::EngineConfig::default());
        let budget = sbgc_pb::Budget::unlimited();
        for (v, c) in [(1, 0), (2, 1), (3, 2)] {
            let wrong: Vec<Lit> = vec![enc.x(v, c).negative()];
            assert!(
                matches!(
                    engine.solve_with_assumptions(&wrong, &budget),
                    sbgc_pb::SolveOutcome::Unsat
                ),
                "vertex {v} must take color {c}"
            );
        }
    }

    #[test]
    fn value_prec_pins_only_the_verified_clique_prefix() {
        // Vertices 0 and 3 are not adjacent, so of the "clique" {0, 3} only
        // vertex 0 is pinned: vertex 3 may still share its color.
        let g = figure1_graph();
        let (n, k, p) = (4usize, 4usize, 1usize);
        let mut enc = ColoringEncoding::new(&g, k);
        let (stats, order) = add_sbps_with_clique(&mut enc, &g, SbpMode::ValuePrec, &[0, 3]);
        assert_eq!(order, vec![0, 3, 2, 1]);
        assert_eq!(stats.clauses, p + (k - 1 - p) * (n - p) + (k - 1));
        let units: Vec<Lit> = enc
            .formula()
            .clauses()
            .iter()
            .filter(|c| c.len() == 1)
            .map(|c| c.literals()[0])
            .collect();
        assert!(units.contains(&enc.x(0, 0).positive()), "{units:?}");
        assert!(!units.contains(&enc.x(3, 1).positive()), "{units:?}");
        assert_one_admitted_member_per_orbit("figure 1, clique {0, 3}", &g, k, &[0, 3]);
    }

    #[test]
    fn value_prec_refutes_a_clique_wider_than_k_at_the_root() {
        // K4 at K = 3: three pins leave the fourth vertex no color, so
        // root propagation refutes the formula before any decision.
        let g = Graph::complete(4);
        let mut enc = ColoringEncoding::new(&g, 3);
        let stats = add_instance_independent_sbps(&mut enc, &g, SbpMode::ValuePrec);
        assert_eq!(stats.clauses, 3 + 2, "three pins and the usage chain");
        let mut engine =
            sbgc_pb::PbEngine::from_formula(enc.formula(), sbgc_pb::EngineConfig::default());
        let outcome = engine.solve_with_budget(&sbgc_pb::Budget::unlimited().with_max_conflicts(0));
        assert!(matches!(outcome, sbgc_pb::SolveOutcome::Unsat), "{outcome:?}");
        assert_eq!(engine.stats().decisions, 0);
    }

    #[test]
    fn ordered_modes_admit_one_member_per_orbit_of_a_relabelled_figure1() {
        let g = relabelled_figure1_graph();
        assert_one_admitted_member_per_orbit("relabelled figure 1", &g, 4, &greedy_clique(&g));
        // The admitted forms follow the order 1, 2, 3, 0, not the index
        // order: the triangle takes 0, 1, 2 and vertex 0 (≁ 1, 3) any
        // color but vertex 2's.
        let mut enc = ColoringEncoding::new(&g, 4);
        let _ = add_instance_independent_sbps(&mut enc, &g, SbpMode::ValuePrec);
        let admitted: Vec<Coloring> =
            proper_colorings(&g, 4).into_iter().filter(|c| admits(&enc, c)).collect();
        assert_eq!(
            admitted,
            vec![
                Coloring::new(vec![0, 0, 1, 2]),
                Coloring::new(vec![2, 0, 1, 2]),
                Coloring::new(vec![3, 0, 1, 2]),
            ]
        );
    }

    #[test]
    fn ordered_modes_admit_one_member_per_orbit_of_small_random_graphs() {
        let mut reordered = 0;
        for (n, p, k) in [(6, 0.5, 4), (6, 0.3, 3), (5, 0.6, 4), (6, 0.7, 4)] {
            for seed in 1..=3 {
                let g = sbgc_graph::gen::gnp(n, p, seed);
                let order = vertex_order(&g, &greedy_clique(&g));
                reordered += usize::from(order != (0..n).collect::<Vec<_>>());
                let name = format!("G({n}, {p}) #{seed}");
                assert_one_admitted_member_per_orbit(&name, &g, k, &greedy_clique(&g));
            }
        }
        assert!(reordered >= 6, "most inputs must leave index order: {reordered} of 12");
    }

    #[test]
    fn extended_covers_every_variant() {
        // Compile-time exhaustiveness: adding a variant breaks this match,
        // forcing EXTENDED (asserted here) and docs/SBP.md (asserted
        // below) to be extended with it.
        fn index_of(m: SbpMode) -> usize {
            match m {
                SbpMode::None => 0,
                SbpMode::Nu => 1,
                SbpMode::Ca => 2,
                SbpMode::Li => 3,
                SbpMode::Sc => 4,
                SbpMode::NuSc => 5,
                SbpMode::ScClique => 6,
                SbpMode::LiPrefix => 7,
                SbpMode::Orbitope => 8,
                SbpMode::ValuePrec => 9,
            }
        }
        let mut seen = [false; SbpMode::EXTENDED.len()];
        for &m in &SbpMode::EXTENDED {
            seen[index_of(m)] = true;
        }
        assert!(seen.iter().all(|&s| s), "EXTENDED must list every SbpMode variant");
    }

    #[test]
    fn sbp_handbook_documents_every_mode() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/SBP.md");
        let handbook =
            std::fs::read_to_string(path).expect("docs/SBP.md (the SBP handbook) must exist");
        for m in SbpMode::EXTENDED {
            assert!(
                handbook.contains(m.display_name()),
                "docs/SBP.md is missing a section for `{}`",
                m.display_name()
            );
        }
    }

    #[test]
    fn parse_roundtrips_every_display_name() {
        for m in SbpMode::EXTENDED {
            assert_eq!(SbpMode::parse(m.display_name()), Some(m));
            assert_eq!(SbpMode::parse(&format!("{m:?}")), Some(m), "variant identifier");
        }
        assert_eq!(SbpMode::parse(""), None);
        assert_eq!(SbpMode::parse("shatter"), None);
    }

    #[test]
    fn sc_clique_pins_a_whole_clique() {
        let g = figure1_graph();
        let mut enc = ColoringEncoding::new(&g, 4);
        let stats = add_instance_independent_sbps(&mut enc, &g, SbpMode::ScClique);
        // figure1 graph has a triangle: three unit clauses.
        assert_eq!(stats.clauses, 3);
        let units = enc.formula().clauses().iter().filter(|c| c.len() == 1).count();
        assert_eq!(units, 3);
    }

    #[test]
    fn sc_clique_caps_at_k() {
        let g = Graph::complete(5);
        let mut enc = ColoringEncoding::new(&g, 3);
        let stats = add_instance_independent_sbps(&mut enc, &g, SbpMode::ScClique);
        assert_eq!(stats.clauses, 3, "pinning capped at K colors");
    }
}
