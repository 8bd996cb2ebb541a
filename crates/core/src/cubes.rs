//! Value-precedence prefix cubes: the proper restricted-growth colorings
//! of a vertex-order prefix.
//!
//! Fix an order of distinct vertices `v₀, v₁, …` and renumber the colors
//! of any coloring by first occurrence along it. Restricted to
//! `v₀..v_{m−1}`, the result is a proper *restricted-growth* coloring of
//! that prefix: each vertex's color is at most one more than the largest
//! color before it (value precedence, Walsh's *Breaking Value Symmetry*).
//! So every `t`-coloring in first-occurrence form, restricted to the
//! prefix, is exactly one of the prefix's proper restricted-growth
//! colorings with colors below `t`: each such coloring is a *cube* (one
//! positive `x[v][c]` per prefix vertex), and refuting every cube refutes
//! every first-occurrence `t`-coloring. A pairwise-adjacent prefix has
//! exactly one cube, the identity `vᵢ ↦ i`, so clique pins are the case
//! where the prefix is the clique.
//!
//! The session splits a hard ladder rung into these cubes
//! (`crate::session`, "Why the prefix split is sound"); the enumeration
//! takes only the graph, the order, the color count and a cap, so a
//! certifier can re-derive the same list.

use sbgc_graph::Graph;

/// The proper restricted-growth colorings with colors below a target of
/// one prefix `order[..m]` of a vertex order, stored flat: `m` colors per
/// cube, `colors[i * m + j]` the color of `order[j]` in cube `i`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct PrefixCubes {
    /// The prefix length `m`: each cube colors `order[..m]`.
    prefix_len: usize,
    /// Number of cubes (kept apart from `colors` so that `m = 0` has one).
    count: usize,
    /// Cube-major colors, `count * prefix_len` of them.
    colors: Vec<u32>,
}

impl PrefixCubes {
    /// Enumerates the cubes of the longest prefix of `order` that has at
    /// most `cap` of them, level by level: the cubes of `order[..m+1]`
    /// are those of `order[..m]`, each extended by every color `c` below
    /// `colors`, at most one above its largest color so far, that no
    /// earlier neighbor of `order[m]` holds. The enumeration stops before
    /// the first level that would hold more than `cap` cubes, and at the
    /// first level that holds none: then no longer prefix has a proper
    /// coloring either, and the result is empty.
    ///
    /// # Panics
    ///
    /// Panics if `order` names a vertex outside `graph`.
    pub(crate) fn enumerate(graph: &Graph, order: &[usize], colors: usize, cap: usize) -> Self {
        let mut cubes = PrefixCubes { prefix_len: 0, count: 1, colors: Vec::new() };
        // Colors each cube has opened: its largest color plus one.
        let mut opened = vec![0usize];
        let (mut next, mut next_opened) = (Vec::new(), Vec::new());
        // `taken[c] == stamp` marks color c as held by an earlier neighbor
        // of the vertex being colored, in the cube being extended.
        let mut taken = vec![0usize; colors];
        let mut stamp = 0;
        'levels: for (m, &v) in order.iter().enumerate() {
            assert!(v < graph.num_vertices(), "vertex {v} outside the graph");
            let neighbors: Vec<usize> = (0..m).filter(|&j| graph.has_edge(order[j], v)).collect();
            next.clear();
            next_opened.clear();
            for (cube, &open) in cubes.iter().zip(&opened) {
                stamp += 1;
                for &j in &neighbors {
                    taken[cube[j] as usize] = stamp;
                }
                for c in (0..=open).take_while(|&c| c < colors).filter(|&c| taken[c] != stamp) {
                    next.extend_from_slice(cube);
                    next.push(c as u32);
                    next_opened.push(open.max(c + 1));
                }
                if next_opened.len() > cap {
                    break 'levels;
                }
            }
            std::mem::swap(&mut cubes.colors, &mut next);
            std::mem::swap(&mut opened, &mut next_opened);
            cubes.prefix_len = m + 1;
            cubes.count = opened.len();
            if cubes.count == 0 {
                break;
            }
        }
        cubes
    }

    /// The prefix length `m`: each cube colors `order[..m]`.
    pub(crate) fn prefix_len(&self) -> usize {
        self.prefix_len
    }

    /// Whether the prefix has no proper coloring at all.
    pub(crate) fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Each cube's colors, `cube[j]` the color of `order[j]`, in
    /// lexicographic order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[u32]> {
        let m = self.prefix_len;
        (0..self.count).map(move |i| &self.colors[i * m..(i + 1) * m])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::ColoringEncoding;
    use crate::sbp::{add_sbps_with_clique, clique_prefix_len, SbpMode};
    use sbgc_graph::algo::greedy_clique;
    use sbgc_graph::gen::{gnp, mycielski};
    use std::collections::BTreeSet;

    /// The clique-first order the ordered SBP modes follow.
    fn sbp_order(graph: &Graph) -> Vec<usize> {
        let mut encoding = ColoringEncoding::new(graph, 2);
        add_sbps_with_clique(&mut encoding, graph, SbpMode::ValuePrec, &greedy_clique(graph)).1
    }

    /// Every proper coloring of `order[..m]` with colors below `colors`,
    /// renumbered by first occurrence and deduplicated — the cubes by
    /// their definition, sharing no code with the enumerator.
    fn brute_force(graph: &Graph, order: &[usize], m: usize, colors: usize) -> BTreeSet<Vec<u32>> {
        fn extend(
            graph: &Graph,
            prefix: &[usize],
            colors: usize,
            partial: &mut Vec<u32>,
            out: &mut BTreeSet<Vec<u32>>,
        ) {
            let i = partial.len();
            if i == prefix.len() {
                let mut renumber = vec![u32::MAX; colors];
                let mut next = 0;
                let form = partial
                    .iter()
                    .map(|&c| {
                        if renumber[c as usize] == u32::MAX {
                            renumber[c as usize] = next;
                            next += 1;
                        }
                        renumber[c as usize]
                    })
                    .collect();
                out.insert(form);
                return;
            }
            for c in 0..colors as u32 {
                if (0..i).all(|j| partial[j] != c || !graph.has_edge(prefix[j], prefix[i])) {
                    partial.push(c);
                    extend(graph, prefix, colors, partial, out);
                    partial.pop();
                }
            }
        }
        let mut out = BTreeSet::new();
        extend(graph, &order[..m], colors, &mut Vec::new(), &mut out);
        out
    }

    /// Checks the enumeration of `graph` along its clique-first order for
    /// every color count in `colors` and every cap in `caps`.
    fn check(name: &str, graph: &Graph, colors: std::ops::RangeInclusive<usize>, caps: &[usize]) {
        let order = sbp_order(graph);
        let q = clique_prefix_len(graph, &order);
        for t in colors {
            for &cap in caps {
                let label = format!("{name}, {t} colors, cap {cap}");
                let cubes = PrefixCubes::enumerate(graph, &order, t, cap);
                let m = cubes.prefix_len();
                let listed: Vec<Vec<u32>> = cubes.iter().map(<[u32]>::to_vec).collect();
                let expected: Vec<Vec<u32>> =
                    brute_force(graph, &order, m, t).into_iter().collect();
                assert_eq!(listed, expected, "{label}: prefix {m}");
                assert!(listed.len() <= cap, "{label}: {} cubes", listed.len());
                if cubes.is_empty() {
                    continue;
                }
                if m < order.len() {
                    let longer = brute_force(graph, &order, m + 1, t).len();
                    assert!(longer > cap, "{label}: prefix {} has only {longer}", m + 1);
                }
                for cube in &listed {
                    let identity: Vec<u32> = (0..q.min(m) as u32).collect();
                    assert_eq!(cube[..q.min(m)], identity[..], "{label}: clique prefix");
                }
            }
        }
    }

    #[test]
    fn figure1_cubes_match_brute_force() {
        let graph = Graph::from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)]);
        check("Figure 1", &graph, 1..=4, &[1, 2, 3, 256]);
        // The triangle pins three colors; V4 then takes 0 or 1 (not 2,
        // its neighbor's) or opens 3.
        let cubes = PrefixCubes::enumerate(&graph, &sbp_order(&graph), 4, 256);
        assert_eq!(cubes.prefix_len(), 4);
        assert_eq!(cubes.iter().count(), 3);
    }

    #[test]
    fn myciel4_cubes_match_brute_force() {
        check("myciel4", &mycielski(4), 2..=5, &[1, 16, 256]);
    }

    #[test]
    fn random_graph_cubes_match_brute_force() {
        for seed in 0..6 {
            for (n, p) in [(7, 0.3), (9, 0.5), (10, 0.4)] {
                let graph = gnp(n, p, seed);
                check(&format!("G({n}, {p}) #{seed}"), &graph, 1..=5, &[1, 7, 40, 256]);
            }
        }
    }

    #[test]
    fn a_prefix_without_proper_coloring_has_no_cubes() {
        // K4 has no 3-coloring: the fourth level is empty, and so is the
        // result, whatever the cap.
        let graph = Graph::complete(4);
        for cap in [1, 256] {
            let cubes = PrefixCubes::enumerate(&graph, &sbp_order(&graph), 3, cap);
            assert!(cubes.is_empty(), "cap {cap}");
            assert_eq!(cubes.iter().count(), 0);
        }
    }
}
