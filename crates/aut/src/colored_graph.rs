//! Vertex-colored undirected graphs — the input of the automorphism search.

use std::fmt;

/// An undirected graph with a color (class label) on every vertex.
///
/// Automorphisms must preserve both adjacency and colors. This is the input
/// format of Saucy/Nauty and what the Shatter flow produces from a CNF/PB
/// formula (`sbgc-shatter`).
///
/// # Example
///
/// ```
/// use sbgc_aut::ColoredGraph;
/// let g = ColoredGraph::from_edges(3, [(0, 1), (1, 2)], Some(vec![0, 1, 0]));
/// assert_eq!(g.color(1), 1);
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct ColoredGraph {
    offsets: Vec<usize>,
    adj: Vec<u32>,
    colors: Vec<u32>,
    num_edges: usize,
}

impl ColoredGraph {
    /// Builds a colored graph from an edge list; `colors` defaults to all
    /// zeros (uncolored). Self-loops are dropped, duplicate edges merged.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or `colors` has wrong length.
    pub fn from_edges<I>(num_vertices: usize, edges: I, colors: Option<Vec<u32>>) -> Self
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let colors = colors.unwrap_or_else(|| vec![0; num_vertices]);
        assert_eq!(colors.len(), num_vertices, "color vector length mismatch");
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for (a, b) in edges {
            assert!(a < num_vertices && b < num_vertices, "edge ({a},{b}) out of range");
            if a == b {
                continue;
            }
            let (lo, hi) = if a < b { (a as u32, b as u32) } else { (b as u32, a as u32) };
            pairs.push((lo, hi));
        }
        pairs.sort_unstable();
        pairs.dedup();
        let mut degree = vec![0usize; num_vertices];
        for &(a, b) in &pairs {
            degree[a as usize] += 1;
            degree[b as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(num_vertices + 1);
        let mut acc = 0;
        offsets.push(0);
        for &d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut adj = vec![0u32; acc];
        for &(a, b) in &pairs {
            adj[cursor[a as usize]] = b;
            cursor[a as usize] += 1;
            adj[cursor[b as usize]] = a;
            cursor[b as usize] += 1;
        }
        for v in 0..num_vertices {
            adj[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        ColoredGraph { offsets, adj, colors, num_edges: pairs.len() }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.colors.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// The color of vertex `v`.
    pub fn color(&self, v: usize) -> u32 {
        self.colors[v]
    }

    /// The per-vertex color slice.
    pub fn colors(&self) -> &[u32] {
        &self.colors
    }

    /// Sorted neighbors of `v`.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.adj[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Edge query, `O(log deg)`.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        if a >= self.num_vertices() || b >= self.num_vertices() || a == b {
            return false;
        }
        self.neighbors(a).binary_search(&(b as u32)).is_ok()
    }

    /// Returns `true` if `perm` (an image table) is a color- and
    /// adjacency-preserving automorphism.
    ///
    /// Only moved vertices are examined, so checking a sparse permutation
    /// costs time in its support's degrees: an edge between two fixed
    /// vertices maps to itself, and one with a moved end is checked there.
    pub fn is_automorphism(&self, perm: &crate::Permutation) -> bool {
        if perm.len() != self.num_vertices() {
            return false;
        }
        for v in 0..self.num_vertices() {
            let image = perm.apply(v);
            if image == v {
                continue;
            }
            if self.colors[image] != self.colors[v] || self.degree(image) != self.degree(v) {
                return false;
            }
            for &w in self.neighbors(v) {
                if !self.has_edge(image, perm.apply(w as usize)) {
                    return false;
                }
            }
        }
        true
    }
}

impl fmt::Debug for ColoredGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let distinct: std::collections::BTreeSet<u32> = self.colors.iter().copied().collect();
        write!(
            f,
            "ColoredGraph(n={}, m={}, colors={})",
            self.num_vertices(),
            self.num_edges,
            distinct.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Permutation;

    #[test]
    fn construction() {
        let g = ColoredGraph::from_edges(3, [(0, 1), (1, 0), (2, 2)], None);
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(0, 1));
        assert_eq!(g.color(2), 0);
    }

    #[test]
    fn automorphism_check_respects_colors() {
        let swap = Permutation::from_images(vec![1, 0]).expect("valid");
        let same = ColoredGraph::from_edges(2, [(0, 1)], Some(vec![5, 5]));
        assert!(same.is_automorphism(&swap));
        let diff = ColoredGraph::from_edges(2, [(0, 1)], Some(vec![1, 2]));
        assert!(!diff.is_automorphism(&swap));
    }

    #[test]
    fn automorphism_check_respects_edges() {
        let path = ColoredGraph::from_edges(3, [(0, 1), (1, 2)], None);
        let rot = Permutation::from_images(vec![1, 2, 0]).expect("valid");
        assert!(!path.is_automorphism(&rot));
        let rev = Permutation::from_images(vec![2, 1, 0]).expect("valid");
        assert!(path.is_automorphism(&rev));
    }
}
