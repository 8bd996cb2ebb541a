//! Property-based and family tests for the automorphism engine.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sbgc_aut::{automorphisms, ColoredGraph};

fn random_colored_graph(n: usize, m: usize, colors: usize, seed: u64) -> ColoredGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for _ in 0..m {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b {
            edges.push((a, b));
        }
    }
    let palette: Vec<u32> = (0..n).map(|_| rng.gen_range(0..colors as u32)).collect();
    ColoredGraph::from_edges(n, edges, Some(palette))
}

/// Brute-force automorphism count for tiny graphs.
fn brute_force_order(g: &ColoredGraph) -> u128 {
    fn permutations(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![vec![]];
        }
        let mut out = Vec::new();
        for p in permutations(n - 1) {
            for i in 0..n {
                let mut q = p.clone();
                q.insert(i, n - 1);
                out.push(q);
            }
        }
        out
    }
    let n = g.num_vertices();
    permutations(n)
        .into_iter()
        .filter(|p| {
            let perm = sbgc_aut::Permutation::from_images(p.iter().map(|&v| v as u32).collect())
                .expect("valid");
            g.is_automorphism(&perm)
        })
        .count() as u128
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The stabilizer-chain order matches brute force on tiny graphs.
    #[test]
    fn order_matches_brute_force(n in 1usize..7, m in 0usize..12, seed in any::<u64>()) {
        let g = random_colored_graph(n, m, 2, seed);
        let group = automorphisms(&g);
        prop_assert!(group.is_exact());
        prop_assert_eq!(group.order_u128(), Some(brute_force_order(&g)));
    }

    /// Each generator joins two orbits of the group the earlier ones
    /// generate, so there are never more than n − 1 of them.
    #[test]
    fn at_most_n_minus_one_generators(
        n in 1usize..12,
        m in 0usize..40,
        colors in 1usize..3,
        seed in any::<u64>(),
    ) {
        let g = random_colored_graph(n, m, colors, seed);
        prop_assert!(automorphisms(&g).num_generators() <= n.saturating_sub(1));
    }

    /// Every returned generator is a genuine automorphism.
    #[test]
    fn generators_are_automorphisms(n in 2usize..10, m in 0usize..20, seed in any::<u64>()) {
        let g = random_colored_graph(n, m, 3, seed);
        let group = automorphisms(&g);
        for p in group.generators() {
            prop_assert!(g.is_automorphism(p));
        }
    }

    /// Composition of generators stays inside the group.
    #[test]
    fn generators_compose(n in 2usize..9, m in 0usize..16, seed in any::<u64>()) {
        let g = random_colored_graph(n, m, 2, seed);
        let group = automorphisms(&g);
        let gens = group.generators();
        for a in gens.iter().take(3) {
            for b in gens.iter().take(3) {
                prop_assert!(g.is_automorphism(&a.compose(b)));
                prop_assert!(g.is_automorphism(&a.inverse()));
            }
        }
    }

    /// Distinct colors on every vertex kill the group.
    #[test]
    fn rainbow_coloring_trivializes(n in 1usize..10, m in 0usize..16, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for _ in 0..m {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            edges.push((a, b));
        }
        let colors: Vec<u32> = (0..n as u32).collect();
        let g = ColoredGraph::from_edges(n, edges, Some(colors));
        let group = automorphisms(&g);
        prop_assert!(group.is_trivial());
    }
}

#[test]
fn known_families() {
    // Hypercube Q3: |Aut| = 48.
    let q3 = ColoredGraph::from_edges(
        8,
        (0..8usize)
            .flat_map(|v| (0..3).map(move |b| (v, v ^ (1 << b))).filter(move |&(a, b)| a < b)),
        None,
    );
    assert_eq!(automorphisms(&q3).order_u128(), Some(48));

    // Complete bipartite K_{3,3}: |Aut| = 3! * 3! * 2 = 72.
    let k33 = ColoredGraph::from_edges(6, (0..3).flat_map(|a| (3..6).map(move |b| (a, b))), None);
    assert_eq!(automorphisms(&k33).order_u128(), Some(72));

    // Star K_{1,5}: |Aut| = 5!.
    let star = ColoredGraph::from_edges(6, (1..6).map(|v| (0, v)), None);
    assert_eq!(automorphisms(&star).order_u128(), Some(120));
}

#[test]
fn crown_graph_group() {
    // Crown S_n^0 (K_{n,n} minus a perfect matching): |Aut| = 2 * n!
    // (permute the pairs, swap the sides).
    let factorial = |n: u128| (1..=n).product::<u128>();
    for n in [3usize, 4, 5] {
        let g = sbgc_graph_to_colored(&sbgc_graph::gen::crown(n));
        let group = automorphisms(&g);
        assert_eq!(group.order_u128(), Some(2 * factorial(n as u128)), "crown({n})");
    }
}

#[test]
fn complete_multipartite_group() {
    // K_{2,2,2}: parts interchange (3!) and swap within parts (2^3):
    // |Aut| = 48.
    let g = sbgc_graph_to_colored(&sbgc_graph::gen::complete_multipartite(&[2, 2, 2]));
    assert_eq!(automorphisms(&g).order_u128(), Some(48));
    // Distinct part sizes kill the part interchange: 3! * 2! * 1! = 12.
    let g = sbgc_graph_to_colored(&sbgc_graph::gen::complete_multipartite(&[3, 2, 1]));
    assert_eq!(automorphisms(&g).order_u128(), Some(12));
}

#[test]
fn queen_board_symmetries() {
    // The queen graph of a square board has at least the 8 board
    // symmetries (dihedral D4); 5x5 has exactly 8.
    let g = sbgc_graph_to_colored(&sbgc_graph::gen::queens(5, 5));
    let group = automorphisms(&g);
    assert_eq!(group.order_u128(), Some(8));
    // Rectangular boards only flip: 4 symmetries for queens(4, 6)?
    // (horizontal, vertical, 180° — group of order 4).
    let g = sbgc_graph_to_colored(&sbgc_graph::gen::queens(4, 6));
    let group = automorphisms(&g);
    assert_eq!(group.order_u128(), Some(4));
}

fn sbgc_graph_to_colored(g: &sbgc_graph::Graph) -> ColoredGraph {
    ColoredGraph::from_edges(g.num_vertices(), g.edges(), None)
}
