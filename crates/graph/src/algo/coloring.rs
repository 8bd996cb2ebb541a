//! Vertex colorings and their verification.

use crate::Graph;
use std::collections::HashMap;
use std::fmt;

/// An assignment of a color (a small non-negative integer) to every vertex
/// of a graph.
///
/// Colors are `0..num_colors()`; the paper numbers colors from 1, which is a
/// display concern only. Use [`Coloring::is_proper`] to verify properness
/// against a graph — the independent check `sbgc-core` runs on every decoded
/// solver solution.
///
/// # Example
///
/// ```
/// use sbgc_graph::{Graph, Coloring};
/// let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
/// let c = Coloring::new(vec![0, 1, 0]);
/// assert!(c.is_proper(&g));
/// assert_eq!(c.num_colors(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Coloring {
    colors: Vec<usize>,
}

impl Coloring {
    /// Wraps a per-vertex color vector.
    pub fn new(colors: Vec<usize>) -> Self {
        Coloring { colors }
    }

    /// Number of vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.colors.len()
    }

    /// The color of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn color(&self, v: usize) -> usize {
        self.colors[v]
    }

    /// The per-vertex color slice.
    pub fn colors(&self) -> &[usize] {
        &self.colors
    }

    /// Number of *distinct* colors used.
    ///
    /// Any color value is counted without a panic: colors below the vertex
    /// count are marked in a table of at most that size, and a coloring
    /// with a larger one (a corrupted or hostile input) is counted through
    /// [`Coloring::compacted`] instead, never in a table sized by its
    /// largest color.
    pub fn num_colors(&self) -> usize {
        let n = self.colors.len();
        let mut seen: Vec<bool> = Vec::new();
        for &c in &self.colors {
            if c >= seen.len() {
                if c >= n {
                    return self.compacted().max_color_bound();
                }
                seen.resize(c + 1, false);
            }
            seen[c] = true;
        }
        seen.iter().filter(|&&b| b).count()
    }

    /// The largest color index used plus one (0 for the empty coloring),
    /// saturating at `usize::MAX`.
    pub fn max_color_bound(&self) -> usize {
        self.colors.iter().max().map_or(0, |&c| c.saturating_add(1))
    }

    /// Returns `true` if no edge of `graph` is monochromatic and the
    /// coloring covers exactly the graph's vertex set.
    pub fn is_proper(&self, graph: &Graph) -> bool {
        self.colors.len() == graph.num_vertices()
            && graph.edges().all(|(a, b)| self.colors[a] != self.colors[b])
    }

    /// The color classes (independent sets): `classes()[c]` lists the
    /// vertices with color `c`. Empty classes for unused color indices are
    /// included up to [`Coloring::max_color_bound`].
    ///
    /// That table is sized by the largest color, so it is built only while
    /// every color is at most the vertex count. A coloring with a larger
    /// color (a corrupted or hostile input) gets the classes of
    /// [`Coloring::compacted`] instead: the used classes only, in order of
    /// first appearance.
    pub fn classes(&self) -> Vec<Vec<usize>> {
        let bound = self.max_color_bound();
        if bound > self.colors.len() + 1 {
            return self.compacted().classes();
        }
        let mut classes = vec![Vec::new(); bound];
        for (v, &c) in self.colors.iter().enumerate() {
            classes[c].push(v);
        }
        classes
    }

    /// The color-class cardinality vector `(n1, n2, …)` the paper uses to
    /// denote assignments, ordered as [`Coloring::classes`] orders them: by
    /// color index, or by first appearance once a color exceeds the vertex
    /// count.
    pub fn class_sizes(&self) -> Vec<usize> {
        self.classes().iter().map(Vec::len).collect()
    }

    /// Renders the colored graph in Graphviz DOT format (one fill color
    /// per class from a small palette, cycling if more than 12 colors are
    /// used) — handy for eyeballing small solutions.
    ///
    /// # Panics
    ///
    /// Panics if the coloring does not cover the graph's vertex set.
    pub fn to_dot(&self, graph: &Graph) -> String {
        use std::fmt::Write as _;
        assert_eq!(self.colors.len(), graph.num_vertices(), "coloring/graph size mismatch");
        const PALETTE: [&str; 12] = [
            "#e6194b", "#3cb44b", "#4363d8", "#f58231", "#911eb4", "#46f0f0", "#f032e6", "#bcf60c",
            "#fabebe", "#008080", "#e6beff", "#9a6324",
        ];
        let mut out = String::from("graph coloring {\n  node [style=filled];\n");
        for (v, &c) in self.colors.iter().enumerate() {
            let _ = writeln!(
                out,
                "  v{v} [label=\"{v}\\nc{c}\", fillcolor=\"{}\"];",
                PALETTE[c % PALETTE.len()]
            );
        }
        for (a, b) in graph.edges() {
            let _ = writeln!(out, "  v{a} -- v{b};");
        }
        out.push_str("}\n");
        out
    }

    /// Renumbers colors so they form a contiguous range `0..num_colors()`
    /// in order of first appearance.
    ///
    /// Any color value is renumbered without a panic: the map is a table
    /// when every color is below the vertex count and a hash map otherwise,
    /// never a table sized by the largest color.
    pub fn compacted(&self) -> Coloring {
        let mut next = 0;
        let mut fresh = || {
            let id = next;
            next += 1;
            id
        };
        let bound = self.max_color_bound();
        let colors = if bound <= self.colors.len() {
            let mut map: Vec<Option<usize>> = vec![None; bound];
            self.colors.iter().map(|&c| *map[c].get_or_insert_with(&mut fresh)).collect()
        } else {
            let mut map: HashMap<usize, usize> = HashMap::new();
            self.colors.iter().map(|&c| *map.entry(c).or_insert_with(&mut fresh)).collect()
        };
        Coloring { colors }
    }
}

impl fmt::Debug for Coloring {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Coloring(k={}, {:?})", self.num_colors(), self.colors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn properness() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]);
        assert!(Coloring::new(vec![0, 1, 2]).is_proper(&g));
        assert!(!Coloring::new(vec![0, 1, 1]).is_proper(&g));
        assert!(!Coloring::new(vec![0, 1]).is_proper(&g)); // wrong size
    }

    #[test]
    fn counting_and_classes() {
        let c = Coloring::new(vec![2, 0, 2, 0, 5]);
        assert_eq!(c.num_colors(), 3);
        assert_eq!(c.max_color_bound(), 6);
        let classes = c.classes();
        assert_eq!(classes[0], vec![1, 3]);
        assert_eq!(classes[2], vec![0, 2]);
        assert_eq!(classes[5], vec![4]);
        assert_eq!(c.class_sizes(), vec![2, 0, 2, 0, 0, 1]);
    }

    #[test]
    fn dot_export_contains_all_elements() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let c = Coloring::new(vec![0, 1, 0]);
        let dot = c.to_dot(&g);
        assert!(dot.starts_with("graph coloring {"));
        assert!(dot.contains("v0 --") || dot.contains("v0 -- v1"));
        assert_eq!(dot.matches(" -- ").count(), 2);
        assert_eq!(dot.matches("fillcolor").count(), 3);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn dot_export_checks_size() {
        let g = Graph::from_edges(3, [(0, 1)]);
        let _ = Coloring::new(vec![0]).to_dot(&g);
    }

    #[test]
    fn colors_beyond_the_vertex_count_count_without_a_huge_table() {
        // usize::MAX would wrap `c + 1`, and 2^40 would ask for a terabyte
        // table; both are just distinct colors.
        for huge in [usize::MAX, 1 << 40, 4] {
            let c = Coloring::new(vec![3, huge, 0, 3]);
            assert_eq!(c.num_colors(), 3, "{huge}");
            assert_eq!(c.max_color_bound(), huge.saturating_add(1), "{huge}");
            let d = c.compacted();
            assert_eq!(d.colors(), &[0, 1, 2, 0], "{huge}");
            assert_eq!((d.num_colors(), d.max_color_bound()), (3, 3), "{huge}");
        }
        let all_huge = Coloring::new(vec![usize::MAX, usize::MAX - 1, usize::MAX]);
        assert_eq!(all_huge.num_colors(), 2);
        assert_eq!(all_huge.max_color_bound(), usize::MAX);
        assert_eq!(all_huge.compacted().colors(), &[0, 1, 0]);
        let empty = Coloring::new(Vec::new());
        assert_eq!((empty.num_colors(), empty.max_color_bound()), (0, 0));
        assert!(empty.compacted().colors().is_empty());
    }

    #[test]
    fn classes_of_colors_beyond_the_vertex_count_need_no_huge_table() {
        // usize::MAX would overflow the table's capacity and 2^40 would ask
        // for terabytes: such colorings get the compacted coloring's classes.
        let c = Coloring::new(vec![0, usize::MAX]);
        assert_eq!(c.classes(), vec![vec![0], vec![1]]);
        assert_eq!(c.class_sizes(), vec![1, 1]);
        let c = Coloring::new(vec![3, 1 << 40, 0, 3]);
        assert_eq!(c.classes(), vec![vec![0, 3], vec![1], vec![2]]);
        assert_eq!(c.class_sizes(), vec![2, 1, 1]);
    }

    #[test]
    fn compaction() {
        let c = Coloring::new(vec![5, 5, 2, 7]);
        let d = c.compacted();
        assert_eq!(d.colors(), &[0, 0, 1, 2]);
        assert_eq!(d.num_colors(), 3);
        assert_eq!(d.max_color_bound(), 3);
    }
}
