//! The automorphism group driver: stabilizer chain, generators, order.

use crate::refine::Refiner;
use crate::search::{BasePath, SearchResult};
use crate::{ColoredGraph, Permutation};
use std::fmt;

/// Options for [`automorphisms_with`].
#[derive(Clone, Copy, Debug)]
pub struct AutomorphismOptions {
    /// Maximum search-tree nodes per single automorphism search. When a
    /// search is cut off the result is flagged inexact
    /// ([`AutomorphismGroup::is_exact`]) and the reported order is a lower
    /// bound.
    pub max_nodes_per_search: u64,
}

impl Default for AutomorphismOptions {
    fn default() -> Self {
        AutomorphismOptions { max_nodes_per_search: 2_000_000 }
    }
}

/// A generating set for the automorphism group of a colored graph, with the
/// group order computed along the stabilizer chain (orbit–stabilizer).
#[derive(Clone)]
pub struct AutomorphismGroup {
    generators: Vec<Permutation>,
    /// Base points of the stabilizer chain, in order.
    base: Vec<usize>,
    /// `generators[..level_end[i]]` generate the pointwise stabilizer of
    /// `base[..i]` (the chain is searched from the deepest level up).
    level_end: Vec<usize>,
    orbit_sizes: Vec<usize>,
    exact: bool,
}

impl AutomorphismGroup {
    /// The discovered generators (the identity is never included).
    pub fn generators(&self) -> &[Permutation] {
        &self.generators
    }

    /// Number of generators — the `#G` column of the paper's Table 2.
    pub fn num_generators(&self) -> usize {
        self.generators.len()
    }

    /// The orbit size of each base point along the stabilizer chain.
    pub fn orbit_sizes(&self) -> &[usize] {
        &self.orbit_sizes
    }

    /// `log₁₀ |Aut|` — Table 2 reports group orders like `1.1e+168`, so the
    /// order is exposed in log form.
    pub fn order_log10(&self) -> f64 {
        self.orbit_sizes.iter().map(|&s| (s as f64).log10()).sum()
    }

    /// `|Aut|` as `u128` when it fits, `None` otherwise.
    pub fn order_u128(&self) -> Option<u128> {
        let mut order: u128 = 1;
        for &s in &self.orbit_sizes {
            order = order.checked_mul(s as u128)?;
        }
        Some(order)
    }

    /// Returns `true` if the group is trivial (identity only).
    pub fn is_trivial(&self) -> bool {
        self.orbit_sizes.iter().all(|&s| s == 1)
    }

    /// `false` if any search hit its node budget; the reported order is
    /// then a lower bound and the generating set possibly incomplete.
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// The orbit of `point` under the *discovered generators* (BFS
    /// closure).
    pub fn orbit_of(&self, point: usize) -> Vec<usize> {
        orbit_closure(&self.generators, point)
    }

    /// The base points of the stabilizer chain.
    pub fn base(&self) -> &[usize] {
        &self.base
    }

    /// Group membership test by sifting along the stabilizer chain
    /// (Schreier–Sims). The generators discovered by [`automorphisms`]
    /// form a strong generating set relative to the base (each level's
    /// orbit was established exhaustively), so sifting is exact when
    /// [`AutomorphismGroup::is_exact`] holds.
    ///
    /// # Panics
    ///
    /// Panics if `perm` acts on a different number of points than the
    /// group's generators (when any exist).
    ///
    /// # Example
    ///
    /// ```
    /// use sbgc_aut::{automorphisms, ColoredGraph, Permutation};
    /// let square = ColoredGraph::from_edges(4, [(0,1),(1,2),(2,3),(3,0)], None);
    /// let group = automorphisms(&square);
    /// let rotation = Permutation::from_images(vec![1, 2, 3, 0]).unwrap();
    /// let transpose_adjacent = Permutation::from_images(vec![1, 0, 2, 3]).unwrap();
    /// assert!(group.contains(&rotation));
    /// assert!(!group.contains(&transpose_adjacent)); // not an automorphism
    /// ```
    pub fn contains(&self, perm: &Permutation) -> bool {
        if let Some(g) = self.generators.first() {
            assert_eq!(g.len(), perm.len(), "degree mismatch");
        }
        let mut residue = perm.clone();
        for (level, &b) in self.base.iter().enumerate() {
            if residue.is_identity() {
                return true;
            }
            let target = residue.apply(b);
            if target == b {
                continue;
            }
            // Transversal element u with u(b) = target, from the level's
            // stabilizer generators.
            let gens = &self.generators[..self.level_end[level]];
            match transversal_to(gens, b, target, residue.len()) {
                Some(u) => residue = u.inverse().compose(&residue),
                None => return false,
            }
        }
        residue.is_identity()
    }
}

/// BFS from `b` through the generators, returning a group element mapping
/// `b` to `target` (or `None` if `target` is outside the orbit).
fn transversal_to(
    gens: &[Permutation],
    b: usize,
    target: usize,
    degree: usize,
) -> Option<Permutation> {
    let mut reached: std::collections::BTreeMap<usize, Permutation> =
        std::collections::BTreeMap::new();
    reached.insert(b, Permutation::identity(degree));
    let mut queue = std::collections::VecDeque::from([b]);
    while let Some(p) = queue.pop_front() {
        if p == target {
            return reached.get(&target).cloned();
        }
        let via = reached[&p].clone();
        for g in gens {
            let q = g.apply(p);
            if let std::collections::btree_map::Entry::Vacant(e) = reached.entry(q) {
                e.insert(g.compose(&via));
                queue.push_back(q);
            }
        }
    }
    reached.get(&target).cloned()
}

impl fmt::Debug for AutomorphismGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "AutomorphismGroup(|Aut|=10^{:.2}, generators={}, exact={})",
            self.order_log10(),
            self.generators.len(),
            self.exact
        )
    }
}

fn orbit_closure(generators: &[Permutation], point: usize) -> Vec<usize> {
    let mut orbit = vec![point];
    let mut seen = std::collections::BTreeSet::new();
    seen.insert(point);
    let mut head = 0;
    while head < orbit.len() {
        let p = orbit[head];
        head += 1;
        for g in generators {
            let q = g.apply(p);
            if seen.insert(q) {
                orbit.push(q);
            }
        }
    }
    orbit
}

/// Computes a generating set and the order of the color-preserving
/// automorphism group of `g` with default options.
///
/// See the crate docs for the algorithm; use [`automorphisms_with`] to
/// control the search budget.
pub fn automorphisms(g: &ColoredGraph) -> AutomorphismGroup {
    automorphisms_with(g, &AutomorphismOptions::default())
}

/// Computes the automorphism group with explicit options.
pub fn automorphisms_with(g: &ColoredGraph, opts: &AutomorphismOptions) -> AutomorphismGroup {
    let mut refiner = Refiner::new(g.num_vertices());
    let path = BasePath::new(g, &mut refiner);
    let depth = path.depth();
    let mut orbits = Orbits::new(g.num_vertices());
    let mut generators: Vec<Permutation> = Vec::new();
    let mut orbit_sizes = vec![1; depth];
    let mut level_end = vec![0; depth];
    let mut exact = true;

    // Every generator found so far fixes the first `level` base points, so
    // a cell member already in the base point's orbit under them needs no
    // search, and neither does one in the orbit of a member whose search
    // failed (the two answers are the same).
    for level in (0..depth).rev() {
        let b = path.point(level);
        let mut failed: Vec<usize> = Vec::new();
        for w in path.cell(level) {
            if orbits.same(w, b) || failed.iter().any(|&f| orbits.same(w, f)) {
                continue;
            }
            match path.find_automorphism(g, &mut refiner, level, w, opts.max_nodes_per_search) {
                SearchResult::Found(p) => {
                    debug_assert!(g.is_automorphism(&p));
                    debug_assert!((0..level).all(|i| p.apply(path.point(i)) == path.point(i)));
                    orbits.join(&p);
                    generators.push(p);
                }
                SearchResult::None => failed.push(w),
                SearchResult::Exhausted => exact = false,
            }
        }
        orbit_sizes[level] = orbits.size(b);
        level_end[level] = generators.len();
    }

    let base = (0..depth).map(|level| path.point(level)).collect();
    AutomorphismGroup { generators, base, level_end, orbit_sizes, exact }
}

/// The orbits of the group generated so far, as a union–find forest: each
/// generator joins the orbits of every point and its image.
struct Orbits {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl Orbits {
    fn new(n: usize) -> Self {
        Orbits { parent: (0..n as u32).collect(), size: vec![1; n] }
    }

    fn root(&mut self, mut v: usize) -> usize {
        while self.parent[v] as usize != v {
            let up = self.parent[self.parent[v] as usize];
            self.parent[v] = up;
            v = up as usize;
        }
        v
    }

    fn same(&mut self, a: usize, b: usize) -> bool {
        self.root(a) == self.root(b)
    }

    fn size(&mut self, v: usize) -> usize {
        let r = self.root(v);
        self.size[r] as usize
    }

    fn join(&mut self, p: &Permutation) {
        for v in 0..p.len() {
            let (a, b) = (self.root(v), self.root(p.apply(v)));
            if a != b {
                let (small, big) = if self.size[a] < self.size[b] { (a, b) } else { (b, a) };
                self.parent[small] = big as u32;
                self.size[big] += self.size[small];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: usize) -> ColoredGraph {
        ColoredGraph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n)), None)
    }

    fn complete(n: usize) -> ColoredGraph {
        ColoredGraph::from_edges(n, (0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b))), None)
    }

    #[test]
    fn cycle_group_is_dihedral() {
        for n in [3usize, 4, 5, 6, 7] {
            let group = automorphisms(&cycle(n));
            assert!(group.is_exact());
            assert_eq!(group.order_u128(), Some(2 * n as u128), "C{n}");
            for g in group.generators() {
                assert!(cycle(n).is_automorphism(g));
            }
        }
    }

    #[test]
    fn complete_graph_group_is_symmetric() {
        // |Aut(K_n)| = n!
        let factorial = |n: u128| (1..=n).product::<u128>();
        for n in [2usize, 3, 4, 5, 6] {
            let group = automorphisms(&complete(n));
            assert_eq!(group.order_u128(), Some(factorial(n as u128)), "K{n}");
            // Each generator joins two orbits of the group found so far.
            assert_eq!(group.num_generators(), n - 1, "K{n}");
        }
    }

    #[test]
    fn empty_graph_group_is_symmetric() {
        let g = ColoredGraph::from_edges(5, [], None);
        assert_eq!(automorphisms(&g).order_u128(), Some(120));
    }

    #[test]
    fn colors_restrict_the_group() {
        // K3 with one distinguished vertex: only the other two can swap.
        let g = ColoredGraph::from_edges(3, [(0, 1), (1, 2), (0, 2)], Some(vec![1, 0, 0]));
        let group = automorphisms(&g);
        assert_eq!(group.order_u128(), Some(2));
        assert!(group.generators().iter().all(|p| p.apply(0) == 0));
    }

    #[test]
    fn path_group_is_z2() {
        let g = ColoredGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)], None);
        let group = automorphisms(&g);
        assert_eq!(group.order_u128(), Some(2));
        assert_eq!(group.num_generators(), 1);
    }

    #[test]
    fn asymmetric_graph_is_trivial() {
        // The asymmetric 7-vertex tree: a path 0-1-2-3-4-5 with an extra
        // leaf 6 on vertex 2; the three leaves sit at pairwise different
        // distances from the unique degree-3 vertex, so only the identity
        // survives.
        let g = ColoredGraph::from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)], None);
        let group = automorphisms(&g);
        assert!(group.is_trivial());
        assert_eq!(group.order_u128(), Some(1));
        assert_eq!(group.num_generators(), 0);
    }

    #[test]
    fn petersen_graph_order_120() {
        let outer = (0..5).map(|i| (i, (i + 1) % 5));
        let spokes = (0..5).map(|i| (i, i + 5));
        let inner = (0..5).map(|i| (5 + i, 5 + (i + 2) % 5));
        let g = ColoredGraph::from_edges(10, outer.chain(spokes).chain(inner), None);
        let group = automorphisms(&g);
        assert_eq!(group.order_u128(), Some(120));
    }

    #[test]
    fn orbit_of_uses_generators() {
        let group = automorphisms(&cycle(5));
        let orbit = group.orbit_of(0);
        assert_eq!(orbit.len(), 5, "cycle is vertex-transitive");
    }

    #[test]
    fn membership_by_sifting() {
        let g = cycle(6);
        let group = automorphisms(&g);
        // Rotations and reflections are members.
        let rot = Permutation::from_images(vec![1, 2, 3, 4, 5, 0]).expect("valid");
        let refl = Permutation::from_images(vec![0, 5, 4, 3, 2, 1]).expect("valid");
        assert!(group.contains(&rot));
        assert!(group.contains(&refl));
        assert!(group.contains(&rot.compose(&refl)));
        assert!(group.contains(&Permutation::identity(6)));
        // A transposition of adjacent vertices is not an automorphism.
        let bad = Permutation::from_images(vec![1, 0, 2, 3, 4, 5]).expect("valid");
        assert!(!group.contains(&bad));
    }

    #[test]
    fn membership_respects_colors() {
        let g = ColoredGraph::from_edges(3, [], Some(vec![0, 0, 1]));
        let group = automorphisms(&g); // only (0 1)
        let swap01 = Permutation::from_images(vec![1, 0, 2]).expect("valid");
        let swap02 = Permutation::from_images(vec![2, 1, 0]).expect("valid");
        assert!(group.contains(&swap01));
        assert!(!group.contains(&swap02));
    }

    #[test]
    fn membership_products_of_generators() {
        let group = automorphisms(&complete(5));
        let gens = group.generators().to_vec();
        assert!(!gens.is_empty());
        let mut product = Permutation::identity(5);
        for g in &gens {
            product = g.compose(&product);
            assert!(group.contains(&product));
            assert!(group.contains(&product.inverse()));
        }
    }

    #[test]
    fn disjoint_union_of_two_edges() {
        // Two disjoint edges: swap within each edge (2×2) and swap the two
        // edges (×2): order 8.
        let g = ColoredGraph::from_edges(4, [(0, 1), (2, 3)], None);
        assert_eq!(automorphisms(&g).order_u128(), Some(8));
    }

    #[test]
    fn log10_matches_u128_when_small() {
        let group = automorphisms(&complete(6));
        let exact = group.order_u128().expect("fits") as f64;
        assert!((group.order_log10() - exact.log10()).abs() < 1e-9);
    }
}
