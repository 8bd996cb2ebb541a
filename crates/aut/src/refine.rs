//! Exact equitable-partition refinement on ordered partitions.
//!
//! A [`Partition`] orders the vertices so that every cell is a contiguous
//! range, and names a cell by the index where its range starts. The
//! [`Refiner`] makes it equitable with a queue of splitter cells: a splitter
//! `S` splits every cell by the exact number of neighbors each member has in
//! `S`, fragments ordered by that count. When a cell that is not queued
//! splits, every fragment but one largest is queued (Hopcroft's rule: the
//! counts into the left-out fragment follow from the others'), so refining
//! after an individualization touches only the cells it splits.
//!
//! Every splitter's outcome — the touched cells and the `(count, size)` of
//! their fragments — is appended to a trace. The trace depends only on the
//! partition's cell structure, never on vertex names, so an automorphism
//! that maps one partition onto another maps its trace onto the same trace.
//! The search refines the target side against the trace the source side
//! left, splitter by splitter, and gives up at the first difference.

use crate::ColoredGraph;
use std::collections::VecDeque;

/// An ordered vertex partition whose cells are contiguous ranges.
#[derive(Clone, Debug)]
pub(crate) struct Partition {
    /// The vertices, cell after cell.
    elems: Vec<u32>,
    /// `pos[v]`: index of `v` in `elems`.
    pos: Vec<u32>,
    /// `cell[v]`: start index of `v`'s cell.
    cell: Vec<u32>,
    /// `len[s]`: length of the cell starting at `s` (kept at cell starts).
    len: Vec<u32>,
}

impl Partition {
    /// The partition of `g`'s vertices by color, cells in ascending color
    /// order. It is not refined yet.
    pub(crate) fn by_color(g: &ColoredGraph) -> Self {
        let n = g.num_vertices();
        let mut elems: Vec<u32> = (0..n as u32).collect();
        elems.sort_by_key(|&v| g.color(v as usize));
        let mut p = Partition { pos: vec![0; n], cell: vec![0; n], len: vec![0; n], elems };
        let mut start = 0;
        for i in 0..n {
            let v = p.elems[i] as usize;
            if i > 0 && g.color(v) != g.color(p.elems[i - 1] as usize) {
                start = i;
            }
            p.pos[v] = i as u32;
            p.cell[v] = start as u32;
            p.len[start] += 1;
        }
        p
    }

    /// Rebuilds a coarser partition from `self`'s vertex order, keeping only
    /// the cell starts `keep` accepts. Every cell of the result is a union
    /// of consecutive cells of `self`.
    pub(crate) fn coarsened(&self, mut keep: impl FnMut(usize) -> bool) -> Self {
        let n = self.elems.len();
        let mut p = Partition {
            elems: self.elems.clone(),
            pos: self.pos.clone(),
            cell: vec![0; n],
            len: vec![0; n],
        };
        let mut start = 0;
        for i in 0..n {
            if i > 0 && self.is_start(i) && keep(i) {
                start = i;
            }
            p.cell[p.elems[i] as usize] = start as u32;
            p.len[start] += 1;
        }
        p
    }

    /// Number of points.
    pub(crate) fn len(&self) -> usize {
        self.elems.len()
    }

    /// The vertex at index `i` of the order.
    pub(crate) fn vertex_at(&self, i: usize) -> usize {
        self.elems[i] as usize
    }

    /// The index of `v` in the order.
    pub(crate) fn index_of(&self, v: usize) -> usize {
        self.pos[v] as usize
    }

    /// The start of the cell containing `v`.
    pub(crate) fn cell_of(&self, v: usize) -> usize {
        self.cell[v] as usize
    }

    /// Returns `true` if a cell starts at index `i`.
    pub(crate) fn is_start(&self, i: usize) -> bool {
        self.cell[self.elems[i] as usize] as usize == i
    }

    /// The members of the cell starting at `start`.
    pub(crate) fn cell(&self, start: usize) -> &[u32] {
        &self.elems[start..start + self.len[start] as usize]
    }

    /// Start indices of all cells, in order.
    fn starts(&self) -> impl Iterator<Item = usize> + '_ {
        let mut s = 0;
        std::iter::from_fn(move || {
            let here = s;
            (here < self.elems.len()).then(|| {
                s += self.len[here] as usize;
                here
            })
        })
    }

    /// The first non-singleton cell starting at or after cell start `from`.
    pub(crate) fn first_non_singleton(&self, from: usize) -> Option<usize> {
        let mut s = from;
        while s < self.elems.len() {
            if self.len[s] > 1 {
                return Some(s);
            }
            s += self.len[s] as usize;
        }
        None
    }

    fn place(&mut self, v: u32, i: usize) {
        self.elems[i] = v;
        self.pos[v as usize] = i as u32;
    }

    fn swap(&mut self, i: usize, j: usize) {
        let (a, b) = (self.elems[i], self.elems[j]);
        self.place(b, i);
        self.place(a, j);
    }

    /// Makes `[at, end)` of the cell starting at `start` a cell of its own.
    fn split(&mut self, start: usize, at: usize) {
        let end = start + self.len[start] as usize;
        self.len[start] = (at - start) as u32;
        self.len[at] = (end - at) as u32;
        for i in at..end {
            self.cell[self.elems[i] as usize] = at as u32;
        }
    }

    /// Moves `v` to the front of its cell and splits it off as a singleton;
    /// returns that singleton's start.
    ///
    /// # Panics
    ///
    /// Panics if `v` is already a singleton.
    fn individualize(&mut self, v: usize) -> usize {
        let start = self.cell[v] as usize;
        assert!(self.len[start] > 1, "vertex {v} is already a singleton");
        self.swap(start, self.pos[v] as usize);
        self.split(start, start + 1);
        start
    }
}

/// Reusable scratch space and splitter queue for refining [`Partition`]s of
/// one graph.
pub(crate) struct Refiner {
    /// `count[v]`: neighbors of `v` in the current splitter.
    count: Vec<u32>,
    /// Vertices with a nonzero count.
    touched: Vec<u32>,
    /// `hits[s]`: touched members of the cell starting at `s`.
    hits: Vec<u32>,
    /// Starts of the touched cells.
    cells: Vec<u32>,
    /// `(start, count)` of each fragment of the cell being split.
    frags: Vec<(u32, u32)>,
    queue: VecDeque<u32>,
    queued: Vec<bool>,
    trace: Vec<u32>,
    /// Cell starts created by the last individualization and refinement.
    new_starts: Vec<u32>,
}

impl Refiner {
    pub(crate) fn new(n: usize) -> Self {
        Refiner {
            count: vec![0; n],
            touched: Vec::new(),
            hits: vec![0; n],
            cells: Vec::new(),
            frags: Vec::new(),
            queue: VecDeque::new(),
            queued: vec![false; n],
            trace: Vec::new(),
            new_starts: Vec::new(),
        }
    }

    /// The trace of the last refinement.
    pub(crate) fn trace(&self) -> &[u32] {
        &self.trace
    }

    /// The cell starts the last individualization and its refinement
    /// created.
    pub(crate) fn new_starts(&self) -> &[u32] {
        &self.new_starts
    }

    /// Refines `p` to equitability using every cell as a splitter.
    pub(crate) fn refine_all(&mut self, g: &ColoredGraph, p: &mut Partition) {
        for s in p.starts().collect::<Vec<_>>() {
            self.enqueue(s);
        }
        let refined = self.run(g, p, None);
        debug_assert!(refined);
    }

    /// Individualizes `v` in the equitable partition `p` and refines. With
    /// `expected`, stops with `false` as soon as the trace departs from it
    /// (`p` is then left part-way refined); otherwise returns `true`.
    pub(crate) fn individualize(
        &mut self,
        g: &ColoredGraph,
        p: &mut Partition,
        v: usize,
        expected: Option<&[u32]>,
    ) -> bool {
        // `p` was equitable, so the singleton alone accounts for every count
        // that changed: counts into the rest of the old cell are the old
        // counts minus those into `{v}`.
        let s = p.individualize(v);
        self.enqueue(s);
        let refined = self.run(g, p, expected);
        self.new_starts.push(s as u32 + 1);
        refined
    }

    fn enqueue(&mut self, s: usize) {
        if !self.queued[s] {
            self.queued[s] = true;
            self.queue.push_back(s as u32);
        }
    }

    fn run(&mut self, g: &ColoredGraph, p: &mut Partition, expected: Option<&[u32]>) -> bool {
        self.trace.clear();
        self.new_starts.clear();
        while let Some(s) = self.queue.pop_front() {
            self.queued[s as usize] = false;
            let from = self.trace.len();
            self.split_by(g, p, s as usize);
            if let Some(exp) = expected {
                if exp.get(from..self.trace.len()) != Some(&self.trace[from..]) {
                    for s in self.queue.drain(..) {
                        self.queued[s as usize] = false;
                    }
                    return false;
                }
            }
        }
        expected.is_none_or(|exp| exp.len() == self.trace.len())
    }

    /// Splits every cell of `p` by neighbor count into the cell starting at
    /// `s`, appending `[#touched cells, (start, #fragments, (count, size)…)…]`
    /// to the trace.
    fn split_by(&mut self, g: &ColoredGraph, p: &mut Partition, s: usize) {
        for i in s..s + p.len[s] as usize {
            for &u in g.neighbors(p.elems[i] as usize) {
                let c = &mut self.count[u as usize];
                if *c == 0 {
                    self.touched.push(u);
                }
                *c += 1;
            }
        }
        // Gather each touched cell's touched members at the back of its
        // range: the i-th one found goes to the i-th slot from the end.
        for &u in &self.touched {
            let c = p.cell[u as usize] as usize;
            if self.hits[c] == 0 {
                self.cells.push(c as u32);
            }
            self.hits[c] += 1;
            let slot = c + p.len[c] as usize - self.hits[c] as usize;
            p.swap(p.pos[u as usize] as usize, slot);
        }
        self.cells.sort_unstable();
        self.trace.push(self.cells.len() as u32);
        for k in 0..self.cells.len() {
            let c = self.cells[k] as usize;
            self.split_cell(p, c);
            self.hits[c] = 0;
        }
        for &u in &self.touched {
            self.count[u as usize] = 0;
        }
        self.touched.clear();
        self.cells.clear();
    }

    /// Splits the touched cell starting at `c` into runs of equal count:
    /// the untouched members (count 0) first, then ascending counts.
    fn split_cell(&mut self, p: &mut Partition, c: usize) {
        let end = c + p.len[c] as usize;
        let first_hit = end - self.hits[c] as usize;
        let count = &self.count;
        p.elems[first_hit..end].sort_unstable_by_key(|&v| count[v as usize]);
        self.frags.clear();
        if first_hit > c {
            self.frags.push((c as u32, 0));
        }
        for i in first_hit..end {
            let v = p.elems[i] as usize;
            p.pos[v] = i as u32;
            if i == first_hit || self.count[v] != self.count[p.elems[i - 1] as usize] {
                self.frags.push((i as u32, self.count[v]));
            }
        }
        let size = |j: usize| {
            self.frags.get(j + 1).map_or(end, |f| f.0 as usize) - self.frags[j].0 as usize
        };
        self.trace.extend([c as u32, self.frags.len() as u32]);
        let mut largest = 0;
        for j in 0..self.frags.len() {
            self.trace.extend([self.frags[j].1, size(j) as u32]);
            if size(j) > size(largest) {
                largest = j;
            }
        }
        if self.frags.len() == 1 {
            return;
        }
        for j in (1..self.frags.len()).rev() {
            p.split(c, self.frags[j].0 as usize);
            self.new_starts.push(self.frags[j].0);
        }
        let was_queued = self.queued[c];
        for j in 0..self.frags.len() {
            if was_queued || j != largest {
                self.enqueue(self.frags[j].0 as usize);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn refined(g: &ColoredGraph) -> Partition {
        let mut p = Partition::by_color(g);
        Refiner::new(g.num_vertices()).refine_all(g, &mut p);
        p
    }

    fn num_cells(p: &Partition) -> usize {
        p.starts().count()
    }

    /// Every vertex of a cell has the same number of neighbors in every
    /// cell.
    fn is_equitable(g: &ColoredGraph, p: &Partition) -> bool {
        p.starts().all(|a| {
            p.starts().all(|b| {
                let into_b = |v: &u32| {
                    g.neighbors(*v as usize).iter().filter(|&&w| p.cell_of(w as usize) == b).count()
                };
                let first = into_b(&p.cell(a)[0]);
                p.cell(a).iter().all(|v| into_b(v) == first)
            })
        })
    }

    /// Positions, cells and lengths agree with the vertex order.
    fn is_consistent(p: &Partition) -> bool {
        let mut expected = 0;
        (0..p.len()).all(|i| {
            let v = p.vertex_at(i);
            if p.is_start(i) {
                expected = i;
            }
            p.pos[v] as usize == i
                && p.cell_of(v) == expected
                && i < expected + p.len[expected] as usize
        })
    }

    fn random_graph(n: usize, m: usize, seed: u64) -> ColoredGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let edges: Vec<(usize, usize)> =
            (0..m).map(|_| (rng.gen_range(0..n), rng.gen_range(0..n))).collect();
        let colors = (0..n).map(|_| rng.gen_range(0..2)).collect();
        ColoredGraph::from_edges(n, edges, Some(colors))
    }

    #[test]
    fn refine_splits_by_degree() {
        // Path 0-1-2: endpoints vs middle.
        let g = ColoredGraph::from_edges(3, [(0, 1), (1, 2)], None);
        let p = refined(&g);
        assert_eq!(num_cells(&p), 2);
        assert_eq!(p.cell_of(0), p.cell_of(2));
        assert_ne!(p.cell_of(0), p.cell_of(1));
    }

    #[test]
    fn refine_respects_initial_colors() {
        let g = ColoredGraph::from_edges(2, [], Some(vec![7, 9]));
        assert_eq!(num_cells(&refined(&g)), 2);
    }

    #[test]
    fn cycle_stays_one_cell() {
        let g = ColoredGraph::from_edges(5, (0..5).map(|i| (i, (i + 1) % 5)), None);
        let p = refined(&g);
        assert_eq!(num_cells(&p), 1);
        assert_eq!(p.first_non_singleton(0), Some(0));
    }

    #[test]
    fn refinement_distinguishes_distance_classes() {
        // Star plus a pendant path: 0 center; leaves 1,2,3; path 3-4.
        let g = ColoredGraph::from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)], None);
        let p = refined(&g);
        // Cells: {0}, {1,2}, {3}, {4}.
        assert_eq!(num_cells(&p), 4);
        assert_eq!(p.cell_of(1), p.cell_of(2));
    }

    #[test]
    fn pair_refinement_diverges_on_individualization_mismatch() {
        // A 6-cycle beside two triangles: all 2-regular, so one cell, but
        // individualizing a cycle vertex and a triangle vertex must diverge.
        let hexagon = (0..6).map(|i| (i, (i + 1) % 6));
        let triangles = [(6, 7), (7, 8), (8, 6), (9, 10), (10, 11), (11, 9)];
        let g = ColoredGraph::from_edges(12, hexagon.chain(triangles), None);
        let mut r = Refiner::new(12);
        let base = refined(&g);
        assert_eq!(num_cells(&base), 1);
        let mut a = base.clone();
        assert!(r.individualize(&g, &mut a, 0, None));
        let expected = r.trace().to_vec();
        let mut b = base.clone();
        assert!(!r.individualize(&g, &mut b, 6, Some(&expected)));
        let mut c = base;
        assert!(r.individualize(&g, &mut c, 3, Some(&expected)));
    }

    #[test]
    fn pair_refinement_succeeds_on_symmetric_choice() {
        let g = ColoredGraph::from_edges(3, [(0, 1), (1, 2)], None);
        let mut r = Refiner::new(3);
        let base = refined(&g);
        let mut a = base.clone();
        assert!(r.individualize(&g, &mut a, 0, None));
        let expected = r.trace().to_vec();
        let mut b = base;
        assert!(r.individualize(&g, &mut b, 2, Some(&expected)));
        // Both partitions are now discrete and correspond.
        assert_eq!(a.first_non_singleton(0), None);
        assert_eq!(b.first_non_singleton(0), None);
        assert_eq!((a.vertex_at(0), b.vertex_at(0)), (0, 2));
    }

    #[test]
    fn individualize_creates_singleton() {
        let g = ColoredGraph::from_edges(4, (0..4).map(|i| (i, (i + 1) % 4)), None);
        let mut p = refined(&g);
        assert!(Refiner::new(4).individualize(&g, &mut p, 2, None));
        assert_eq!(p.cell(p.cell_of(2)), &[2]);
        // The opposite vertex 0 splits off too; 1 and 3 stay together.
        assert_eq!(p.cell(p.cell_of(0)), &[0]);
        assert_eq!(p.cell_of(1), p.cell_of(3));
        assert_eq!(p.first_non_singleton(0), Some(p.cell_of(1)));
    }

    #[test]
    fn refinement_is_equitable_on_random_graphs() {
        for seed in 0..40 {
            let g = random_graph(12, 18, seed);
            let mut r = Refiner::new(12);
            let mut p = refined(&g);
            assert!(is_consistent(&p) && is_equitable(&g, &p), "seed {seed}");
            // Individualizing down a path keeps every partition equitable.
            while let Some(c) = p.first_non_singleton(0) {
                let v = p.vertex_at(c + 1);
                assert!(r.individualize(&g, &mut p, v, None));
                assert!(is_consistent(&p) && is_equitable(&g, &p), "seed {seed}");
            }
        }
    }

    #[test]
    fn coarsened_keeps_the_vertex_order() {
        let g = ColoredGraph::from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)], None);
        let p = refined(&g);
        let one = p.coarsened(|_| false);
        assert_eq!(num_cells(&one), 1);
        assert_eq!(one.cell(0), &p.elems[..]);
        assert!(is_consistent(&one));
        let same = p.coarsened(|_| true);
        assert_eq!(num_cells(&same), num_cells(&p));
    }
}
