//! Graph automorphism detection for vertex-colored graphs.
//!
//! This crate stands in for the Saucy/Nauty automorphism tools the paper's
//! symmetry-breaking flow depends on (Darga et al. 2004; McKay 1990). Given
//! a [`ColoredGraph`], [`automorphisms`] returns a generating set of its
//! color-preserving automorphism group together with the exact group order,
//! computed along a stabilizer chain by the orbit–stabilizer theorem:
//!
//! 1. refinement: the vertex partition (initially by color) is kept as an
//!    ordered partition whose cells are contiguous ranges, and made
//!    equitable by exact count-based splitting driven by a splitter queue;
//! 2. the base: the first vertex of the first non-singleton cell is
//!    individualized and the partition refined, level after level, until it
//!    is discrete; each level keeps its cell and its refinement trace;
//! 3. the search, from the deepest level up: for every member of the base
//!    point's cell outside the base point's orbit under all generators
//!    found so far (they all fix the earlier base points), a pinned search
//!    starts from that level's partition, individualizes the member, and
//!    refines the target side against the first path's traces. A search
//!    ends at a verified automorphism: the map fixing everything the two
//!    partitions agree on, or a leaf;
//! 4. each found automorphism joins at least two orbits, so there are at
//!    most `n − 1` generators; the orbit of base point `bᵢ` is complete when
//!    its level is done, and `|Aut| = Π |orbit(bᵢ)|`.
//!
//! The search is exact by default and can be budgeted (see
//! [`AutomorphismOptions`]); Table 2 of the paper reports group orders as
//! large as 10¹⁶⁸, which we expose as `log10` (plus `u128` when it fits).
//!
//! # Example
//!
//! ```
//! use sbgc_aut::{automorphisms, ColoredGraph};
//!
//! // A 4-cycle: |Aut| = 8 (dihedral group D4).
//! let g = ColoredGraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)], None);
//! let group = automorphisms(&g);
//! assert_eq!(group.order_u128(), Some(8));
//! assert!(!group.generators().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod colored_graph;
mod group;
mod perm;
mod refine;
mod search;

pub use colored_graph::ColoredGraph;
pub use group::{automorphisms, automorphisms_with, AutomorphismGroup, AutomorphismOptions};
pub use perm::Permutation;
