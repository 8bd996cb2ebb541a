//! Backtracking DSATUR (Brélaz 1979 branching inside a branch-and-bound):
//! a small exact solver that is completely independent of the CNF/PB
//! pipeline, used as a cross-check in the agreement suite and as a bounded
//! improver inside the hybrid race.
//!
//! Symmetry handling mirrors the paper's instance-independent argument at
//! heuristic scale: a greedy clique is pre-colored with colors `0..q` (any
//! proper coloring can be renamed to that form), and branching only ever
//! tries the colors used so far plus one fresh color.

use sbgc_graph::{algo, Coloring, Graph};

const UNCOLORED: usize = usize::MAX;

/// Result of a [`backtracking_dsatur`] run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BdsaturResult {
    /// The search space was exhausted: `chromatic_number` is exact and
    /// `witness` is a proper coloring using exactly that many colors.
    Exact {
        /// The chromatic number of the input graph.
        chromatic_number: usize,
        /// A proper coloring with `chromatic_number` colors.
        witness: Coloring,
    },
    /// The node budget ran out first: only a proven bracket is known.
    Bounded {
        /// Clique-based lower bound on the chromatic number.
        lower: usize,
        /// Best (fewest-colors) proper coloring found so far.
        upper: usize,
        /// The coloring witnessing `upper`.
        witness: Coloring,
    },
}

impl BdsaturResult {
    /// The best upper bound this result proves.
    pub fn upper(&self) -> usize {
        match self {
            BdsaturResult::Exact { chromatic_number, .. } => *chromatic_number,
            BdsaturResult::Bounded { upper, .. } => *upper,
        }
    }

    /// The witness coloring for [`Self::upper`].
    pub fn witness(&self) -> &Coloring {
        match self {
            BdsaturResult::Exact { witness, .. } => witness,
            BdsaturResult::Bounded { witness, .. } => witness,
        }
    }
}

struct Searcher<'g> {
    graph: &'g Graph,
    kmax: usize,
    col: Vec<usize>,
    /// nbc[v * kmax + c]: neighbors of v colored c.
    nbc: Vec<u32>,
    /// sat[v]: number of distinct colors among v's neighbors.
    sat: Vec<u32>,
    best: Vec<usize>,
    best_k: usize,
    nodes_left: u64,
    truncated: bool,
}

impl<'g> Searcher<'g> {
    fn assign(&mut self, v: usize, c: usize) {
        self.col[v] = c;
        for &u in self.graph.neighbors(v) {
            let u = u as usize;
            let slot = u * self.kmax + c;
            self.nbc[slot] += 1;
            if self.nbc[slot] == 1 {
                self.sat[u] += 1;
            }
        }
    }

    fn unassign(&mut self, v: usize, c: usize) {
        self.col[v] = UNCOLORED;
        for &u in self.graph.neighbors(v) {
            let u = u as usize;
            let slot = u * self.kmax + c;
            self.nbc[slot] -= 1;
            if self.nbc[slot] == 0 {
                self.sat[u] -= 1;
            }
        }
    }

    fn search(&mut self, remaining: usize, used: usize) {
        // Checked before the leaf: a sibling branch may have lowered
        // `best_k` to `used` since the caller's loop admitted this child.
        if used >= self.best_k {
            return;
        }
        if remaining == 0 {
            // Complete proper coloring with `used < best_k` colors.
            self.best_k = used;
            self.best.copy_from_slice(&self.col);
            return;
        }
        if self.nodes_left == 0 {
            self.truncated = true;
            return;
        }
        self.nodes_left -= 1;

        // Brélaz choice: max saturation, tie max degree, tie min index.
        let n = self.graph.num_vertices();
        let mut v = usize::MAX;
        let mut key = (0u32, 0usize);
        for u in 0..n {
            if self.col[u] != UNCOLORED {
                continue;
            }
            let ku = (self.sat[u], self.graph.degree(u));
            if v == usize::MAX || ku > key {
                v = u;
                key = ku;
            }
        }
        debug_assert_ne!(v, usize::MAX);

        let mut c = 0;
        // `best_k` can shrink while we recurse, so re-read the cap each turn.
        while c < (used + 1).min(self.best_k.saturating_sub(1)) && c < self.kmax {
            if self.nbc[v * self.kmax + c] == 0 {
                self.assign(v, c);
                self.search(remaining - 1, used.max(c + 1));
                self.unassign(v, c);
                if self.truncated {
                    return;
                }
            }
            c += 1;
        }
    }
}

/// Exact chromatic number by backtracking DSATUR, bounded by `node_limit`
/// branching nodes.
///
/// Fully deterministic (no randomness at all). Returns
/// [`BdsaturResult::Exact`] when the search completes within budget, or a
/// proven [`BdsaturResult::Bounded`] bracket otherwise.
pub fn backtracking_dsatur(graph: &Graph, node_limit: u64) -> BdsaturResult {
    let n = graph.num_vertices();
    if n == 0 {
        return BdsaturResult::Exact { chromatic_number: 0, witness: Coloring::new(Vec::new()) };
    }

    let clique = algo::greedy_clique(graph);
    let lower = clique.len().max(1);
    let greedy = algo::dsatur(graph);
    let best_k = greedy.num_colors();
    if best_k <= lower {
        return BdsaturResult::Exact { chromatic_number: best_k, witness: greedy };
    }

    let kmax = best_k;
    let mut s = Searcher {
        graph,
        kmax,
        col: vec![UNCOLORED; n],
        nbc: vec![0u32; n * kmax],
        sat: vec![0u32; n],
        best: greedy.colors().to_vec(),
        best_k,
        nodes_left: node_limit,
        truncated: false,
    };
    // Pre-color the greedy clique: colors 0..q without loss of generality.
    for (i, &v) in clique.iter().enumerate() {
        s.assign(v, i);
    }
    s.search(n - clique.len(), clique.len());

    let witness = Coloring::new(s.best).compacted();
    debug_assert!(witness.is_proper(graph));
    debug_assert_eq!(witness.num_colors(), s.best_k);
    if s.truncated && s.best_k > lower {
        BdsaturResult::Bounded { lower, upper: s.best_k, witness }
    } else {
        BdsaturResult::Exact { chromatic_number: s.best_k, witness }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbgc_graph::gen;

    #[test]
    fn exact_on_known_graphs() {
        let cases: [(&str, Graph, usize); 6] = [
            ("k4", Graph::complete(4), 4),
            ("c5", Graph::cycle(5), 3),
            ("c6", Graph::cycle(6), 2),
            ("myciel3", gen::mycielski(3), 4),
            ("myciel4", gen::mycielski(4), 5),
            ("queen5_5", gen::queens(5, 5), 5),
        ];
        for (name, graph, chi) in cases {
            match backtracking_dsatur(&graph, 10_000_000) {
                BdsaturResult::Exact { chromatic_number, witness } => {
                    assert_eq!(chromatic_number, chi, "{name}");
                    assert!(witness.is_proper(&graph), "{name}");
                    assert_eq!(witness.num_colors(), chi, "{name}");
                }
                other => panic!("{name}: expected exact, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_leaf_that_only_ties_the_best_is_pruned() {
        // A branch improved the best coloring while its parent's color
        // loop was still running; the parent's next child completed a
        // coloring that merely tied it, and the leaf used to assert that
        // it improved.
        let graph = gen::gnp(10, 0.5, 35);
        match backtracking_dsatur(&graph, u64::MAX) {
            BdsaturResult::Exact { chromatic_number, witness } => {
                assert!(witness.is_proper(&graph));
                assert_eq!(witness.num_colors(), chromatic_number);
            }
            other => panic!("expected exact, got {other:?}"),
        }
    }

    #[test]
    fn zero_budget_yields_proven_bracket() {
        let graph = gen::gnp(20, 0.5, 2);
        match backtracking_dsatur(&graph, 0) {
            BdsaturResult::Exact { chromatic_number, witness } => {
                // Only possible when greedy already met the clique bound.
                assert_eq!(witness.num_colors(), chromatic_number);
            }
            BdsaturResult::Bounded { lower, upper, witness } => {
                assert!(lower <= upper);
                assert!(witness.is_proper(&graph));
                assert_eq!(witness.num_colors(), upper);
            }
        }
    }

    #[test]
    fn agrees_with_itself_under_tight_and_loose_budgets() {
        let graph = gen::gnm(18, 60, 4);
        let loose = backtracking_dsatur(&graph, 10_000_000);
        if let BdsaturResult::Exact { chromatic_number, .. } = loose {
            let tight = backtracking_dsatur(&graph, 500);
            assert!(tight.upper() >= chromatic_number);
            assert!(tight.witness().is_proper(&graph));
        }
    }
}
