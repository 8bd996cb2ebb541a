//! The first path of the search tree and the pinned searches that hang off
//! it.
//!
//! [`BasePath`] individualizes the first vertex of the first non-singleton
//! cell and refines, level after level, until the partition is discrete;
//! the individualized vertices are the base. Each level keeps its target
//! cell and the trace of the refinement that followed its
//! individualization, and the discrete partition at the end (the first
//! leaf) keeps, at every index, the level at which a cell first started
//! there. That is enough to rebuild the partition of any level, to run the
//! target side of a pinned search against the source side's traces, and to
//! read an automorphism off a matching leaf.

use crate::refine::{Partition, Refiner};
use crate::{ColoredGraph, Permutation};

/// Outcome of a pinned search.
pub(crate) enum SearchResult {
    /// An automorphism honoring the pins.
    Found(Permutation),
    /// Exhaustively proven that none exists.
    None,
    /// Node budget ran out before the subtree was exhausted.
    Exhausted,
}

/// The first root-to-leaf path of the individualization–refinement tree.
pub(crate) struct BasePath {
    /// `levels[i]`: level `i`'s base point and what individualizing it did.
    levels: Vec<Level>,
    /// The discrete partition at the end of the path.
    leaf: Partition,
    /// `born[i]`: the first level whose partition has a cell starting at
    /// index `i` of the leaf's vertex order.
    born: Vec<u32>,
}

struct Level {
    /// The vertex individualized at this level.
    point: usize,
    /// Start and length of its cell in this level's partition.
    cell: usize,
    cell_len: usize,
    /// The trace of the refinement after individualizing `point`.
    trace: Vec<u32>,
}

impl BasePath {
    /// Walks the first path of `g`'s search tree.
    pub(crate) fn new(g: &ColoredGraph, refiner: &mut Refiner) -> Self {
        let mut p = Partition::by_color(g);
        refiner.refine_all(g, &mut p);
        let mut born: Vec<u32> =
            (0..p.len()).map(|i| if p.is_start(i) { 0 } else { u32::MAX }).collect();
        let mut levels = Vec::new();
        let mut from = 0;
        while let Some(cell) = p.first_non_singleton(from) {
            let point = p.vertex_at(cell);
            let cell_len = p.cell(cell).len();
            refiner.individualize(g, &mut p, point, None);
            levels.push(Level { point, cell, cell_len, trace: refiner.trace().to_vec() });
            for &s in refiner.new_starts() {
                born[s as usize] = levels.len() as u32;
            }
            from = cell;
        }
        BasePath { levels, leaf: p, born }
    }

    /// Number of levels: the length of the base.
    pub(crate) fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The base point of `level`.
    pub(crate) fn point(&self, level: usize) -> usize {
        self.levels[level].point
    }

    /// The members of the base point's cell at `level`, in the order the
    /// first path isolates them, base point first. A member isolated soon
    /// after the base point makes a short search: its cycle closes a level
    /// or two further down.
    pub(crate) fn cell(&self, level: usize) -> Vec<usize> {
        let l = &self.levels[level];
        let isolated_at = |i: usize| self.born[i].max(self.born.get(i + 1).copied().unwrap_or(0));
        let mut order: Vec<usize> = (l.cell..l.cell + l.cell_len).collect();
        order.sort_by_key(|&i| isolated_at(i));
        order.into_iter().map(|i| self.leaf.vertex_at(i)).collect()
    }

    /// Searches for an automorphism that fixes the first `level` base
    /// points and maps `point(level)` to `target`, a member of its cell,
    /// exploring at most `max_nodes` search nodes.
    ///
    /// The target side starts from `level`'s partition, individualizes
    /// `target` and each deeper level's candidates, and must reproduce the
    /// first path's trace at every step; a leaf that does pairs the first
    /// leaf's vertices with its own, index by index. Every candidate is
    /// verified before it is returned.
    pub(crate) fn find_automorphism(
        &self,
        g: &ColoredGraph,
        refiner: &mut Refiner,
        level: usize,
        target: usize,
        max_nodes: u64,
    ) -> SearchResult {
        let start = self.leaf.coarsened(|i| self.born[i] as usize <= level);
        let mut nodes_left = max_nodes;
        self.descend(g, refiner, start, level, target, &mut nodes_left)
    }

    /// One search node: individualizes `target` at `level` in `p`, the
    /// target side's partition, and explores below it. `nodes_left` is the
    /// search's remaining node budget.
    fn descend(
        &self,
        g: &ColoredGraph,
        refiner: &mut Refiner,
        mut p: Partition,
        level: usize,
        target: usize,
        nodes_left: &mut u64,
    ) -> SearchResult {
        if *nodes_left == 0 {
            return SearchResult::Exhausted;
        }
        *nodes_left -= 1;
        if !refiner.individualize(g, &mut p, target, Some(&self.levels[level].trace)) {
            return SearchResult::None;
        }
        if let Some(perm) = self.sparse_candidate(&p) {
            if g.is_automorphism(&perm) {
                return SearchResult::Found(perm);
            }
        }
        let Some(next) = self.levels.get(level + 1) else {
            return SearchResult::None;
        };
        let mut candidates = p.cell(next.cell).to_vec();
        let preferred = self.cycle_end(&p, next.point);
        if let Some(i) = candidates.iter().position(|&v| v as usize == preferred) {
            candidates.swap(0, i);
        }
        for w in candidates {
            match self.descend(g, refiner, p.clone(), level + 1, w as usize, nodes_left) {
                SearchResult::None => {}
                found_or_exhausted => return found_or_exhausted,
            }
        }
        SearchResult::None
    }

    /// The map that sends the first path's vertex at every singleton index
    /// to `p`'s vertex there and fixes all other vertices — provided each
    /// non-singleton cell of `p` holds the same vertices as the first path's
    /// cell at that index. Automorphisms are mostly sparse (Saucy's
    /// observation), so this candidate often ends a search levels above
    /// the leaf; at a leaf it is the only map left.
    fn sparse_candidate(&self, p: &Partition) -> Option<Permutation> {
        let mut images = vec![0u32; p.len()];
        let mut start = 0;
        while start < p.len() {
            let cell = p.cell(start);
            let end = start + cell.len();
            if let [v] = cell {
                images[self.leaf.vertex_at(start)] = *v;
            } else {
                for &v in cell {
                    if !(start..end).contains(&self.leaf.index_of(v as usize)) {
                        return None;
                    }
                    images[v as usize] = v;
                }
            }
            start = end;
        }
        Permutation::from_images(images)
    }

    /// The vertex whose choice for `b` closes `b`'s cycle under the
    /// pairing of singletons `sparse_candidate` uses: `b` itself unless `p`
    /// isolated it; otherwise follow the pairing backwards from `b` until it
    /// reaches a vertex `p` has not isolated. The chain cannot cycle: `b`,
    /// not isolated on the first path, has no image yet.
    fn cycle_end(&self, p: &Partition, b: usize) -> usize {
        let mut v = b;
        while p.cell(p.cell_of(v)).len() == 1 {
            v = self.leaf.vertex_at(p.index_of(v));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: usize) -> ColoredGraph {
        ColoredGraph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n)), None)
    }

    fn search(g: &ColoredGraph, level: usize, target: usize, max_nodes: u64) -> SearchResult {
        let mut refiner = Refiner::new(g.num_vertices());
        let path = BasePath::new(g, &mut refiner);
        path.find_automorphism(g, &mut refiner, level, target, max_nodes)
    }

    #[test]
    fn finds_rotation_of_cycle() {
        let g = cycle(5);
        let mut refiner = Refiner::new(5);
        let path = BasePath::new(&g, &mut refiner);
        let b = path.point(0);
        assert_eq!(path.cell(0).len(), 5);
        for &w in &path.cell(0)[1..] {
            match path.find_automorphism(&g, &mut refiner, 0, w, 10_000) {
                SearchResult::Found(p) => {
                    assert_eq!(p.apply(b), w);
                    assert!(g.is_automorphism(&p));
                }
                _ => panic!("a rotation maps {b} to {w}"),
            }
        }
    }

    #[test]
    fn respects_multiple_pins() {
        let g = cycle(6);
        let mut refiner = Refiner::new(6);
        let path = BasePath::new(&g, &mut refiner);
        assert_eq!(path.depth(), 2);
        let cell = path.cell(1);
        assert_eq!(cell.len(), 2, "after fixing a vertex, its two neighbors share a cell");
        // Fix the first base point and swap its neighbors: a reflection.
        match path.find_automorphism(&g, &mut refiner, 1, cell[1], 10_000) {
            SearchResult::Found(p) => {
                assert_eq!(p.apply(path.point(0)), path.point(0));
                assert_eq!(p.apply(cell[0]), cell[1]);
                assert!(g.is_automorphism(&p));
            }
            _ => panic!("reflection must exist"),
        }
    }

    #[test]
    fn proves_absence_between_hexagon_and_triangles() {
        // A 6-cycle beside two triangles: refinement keeps one cell, but no
        // automorphism maps a hexagon vertex into a triangle or back.
        let hexagon = (0..6).map(|i| (i, (i + 1) % 6));
        let triangles = [(6, 7), (7, 8), (8, 6), (9, 10), (10, 11), (11, 9)];
        let g = ColoredGraph::from_edges(12, hexagon.chain(triangles), None);
        let mut refiner = Refiner::new(12);
        let path = BasePath::new(&g, &mut refiner);
        let b = path.point(0);
        let (same, other) = if b < 6 { ((b + 3) % 6, 6) } else { (if b < 9 { 9 } else { 6 }, 0) };
        let mut run = |w| path.find_automorphism(&g, &mut refiner, 0, w, 10_000);
        assert!(matches!(run(other), SearchResult::None));
        assert!(matches!(run(same), SearchResult::Found(_)));
    }

    #[test]
    fn colors_are_never_pinned_together() {
        let g = ColoredGraph::from_edges(4, [(0, 1), (2, 3)], Some(vec![0, 1, 0, 1]));
        let mut refiner = Refiner::new(4);
        let path = BasePath::new(&g, &mut refiner);
        for level in 0..path.depth() {
            let color = g.color(path.point(level));
            assert!(path.cell(level).iter().all(|&v| g.color(v) == color));
        }
    }

    #[test]
    fn budget_exhaustion_reported() {
        let g = cycle(12);
        assert!(matches!(search(&g, 0, 6, 0), SearchResult::Exhausted));
    }

    #[test]
    fn asymmetric_graph_has_only_identity() {
        // The asymmetric 7-vertex tree: a path 0-1-2-3-4-5 with an extra
        // leaf 6 on vertex 2; the three leaves sit at pairwise different
        // distances from the unique degree-3 vertex, so refinement alone
        // makes the partition discrete and the base is empty.
        let g = ColoredGraph::from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)], None);
        let path = BasePath::new(&g, &mut Refiner::new(7));
        assert_eq!(path.depth(), 0);
    }

    #[test]
    fn twins_swap_by_a_transposition() {
        // Six isolated vertices: every search should end at the
        // transposition of the base point and its target, found by closing
        // the cycle one level down instead of walking to a leaf.
        let g = ColoredGraph::from_edges(6, [], None);
        let mut refiner = Refiner::new(6);
        let path = BasePath::new(&g, &mut refiner);
        assert_eq!(path.depth(), 5);
        for level in 0..path.depth() {
            let (b, w) = (path.point(level), path.cell(level)[1]);
            match path.find_automorphism(&g, &mut refiner, level, w, 2) {
                SearchResult::Found(p) => assert_eq!(p.support(), {
                    let mut s = vec![b, w];
                    s.sort_unstable();
                    s
                }),
                _ => panic!("({b} {w}) is an automorphism"),
            }
        }
    }

    #[test]
    fn maps_between_components() {
        // Two disjoint 4-cycles: for a target in the other square, the
        // first path's choice below the base is not in the target cell.
        let squares = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)];
        let g = ColoredGraph::from_edges(8, squares, None);
        let mut refiner = Refiner::new(8);
        let path = BasePath::new(&g, &mut refiner);
        for &target in &path.cell(0)[1..] {
            match path.find_automorphism(&g, &mut refiner, 0, target, 10_000) {
                SearchResult::Found(p) => {
                    assert_eq!(p.apply(path.point(0)), target);
                    assert!(g.is_automorphism(&p));
                }
                _ => panic!("the group of two squares is transitive (target {target})"),
            }
        }
    }
}
