//! Agreement suite for the heuristic layer: the local-search bounds and
//! the independent backtracking-DSATUR solver must tell the same story as
//! the exact CNF/PB pipeline, on every search path.
//!
//! These are trust tests, not performance tests. The hybrid race commits
//! its incumbent into the exact solver as root-level units
//! (`ColoringSession::commit_upper_bound`), so a heuristic that ever
//! reported an unachievable bound would silently corrupt "exact" answers
//! — the cheapest defense is a suite that cross-checks independent
//! implementations (hybrid, exact-only and portfolio CDCL ladders,
//! backtracking DSATUR) against each other on instances with known χ.

use proptest::prelude::*;
use sbgc_core::{
    bounds, chromatic_number_outcome, race_heuristics, ChromaticBounds, Coloring, SolveOptions,
};
use sbgc_graph::gen::{gnp, mycielski, queens};
use sbgc_graph::{algo, Graph};
use sbgc_heur::{backtracking_dsatur, partialcol, rlf, tabucol, BdsaturResult};

/// The quick agreement instances: small enough for debug-mode CDCL, with
/// χ established independently.
fn quick_suite() -> Vec<(&'static str, Graph, usize)> {
    vec![
        ("K4", Graph::complete(4), 4),
        ("C5", Graph::cycle(5), 3),
        ("C6", Graph::cycle(6), 2),
        ("myciel3", mycielski(3), 4),
        ("myciel4", mycielski(4), 5),
        ("queen4_4", queens(4, 4), 5),
        ("queen5_5", queens(5, 5), 5),
        ("gnp24", gnp(24, 0.5, 3), 7),
    ]
}

#[test]
fn backtracking_dsatur_agrees_with_every_exact_path() {
    for (name, g, chi) in quick_suite() {
        // The independent exact cross-check first: no CNF, no CDCL.
        let bd = backtracking_dsatur(&g, 10_000_000);
        match bd {
            BdsaturResult::Exact { chromatic_number, ref witness } => {
                assert_eq!(chromatic_number, chi, "{name}: backtracking DSATUR");
                assert!(witness.is_proper(&g), "{name}");
                assert_eq!(witness.num_colors(), chi, "{name}");
            }
            ref other => panic!("{name}: expected exact, got {other:?}"),
        }

        // Hybrid ladder (heuristics racing, the default).
        let hybrid = chromatic_number_outcome(&g, &SolveOptions::new(20)).expect("valid input");
        assert_eq!(hybrid.exact(), Some(chi), "{name}: hybrid ladder");

        // Pure exact ladder (the paper's procedure, heuristics off).
        let exact = chromatic_number_outcome(&g, &SolveOptions::new(20).without_heuristics())
            .expect("valid input");
        assert_eq!(exact.exact(), Some(chi), "{name}: exact-only ladder");

        // Persistent portfolio ladder (clause-sharing workers racing
        // every query).
        let portfolio = chromatic_number_outcome(
            &g,
            &SolveOptions::new(20).with_parallelism(4).without_heuristics(),
        )
        .expect("valid input");
        assert_eq!(portfolio.exact(), Some(chi), "{name}: portfolio ladder");
    }
}

#[test]
fn hybrid_ladder_agrees_with_the_exact_only_ladder_on_seeded_random_graphs() {
    // The race runs beside the ladder, so the hybrid path's interleaving
    // varies from run to run; χ must not. G(200, 0.025) is the sparse
    // family where DSATUR already meets χ and the ladder's refutation of
    // χ − 1 must stop a race that cannot improve anything; the small
    // dense G(n, p) graphs are seeds where DSATUR overshoots χ, so the
    // race has rungs to take from the ladder (and on some of them its
    // clique search or incumbent closes the bracket mid-query).
    let sparse = (1..=6).map(|seed| (gnp(200, 0.025, seed), false));
    let overshooting = [(24, 0.5, 3), (24, 0.5, 4), (24, 0.5, 7), (24, 0.5, 10), (26, 0.45, 1)]
        .into_iter()
        .map(|(n, p, seed)| (gnp(n, p, seed), true));
    for (i, (g, overshoots)) in sparse.chain(overshooting).enumerate() {
        let options = SolveOptions::new(30);
        let exact = chromatic_number_outcome(&g, &options.clone().without_heuristics())
            .expect("valid input");
        let chi = exact.exact().expect("the exact-only ladder decides");
        assert!(exact.witness().is_proper(&g), "graph {i}");
        assert_eq!(bounds(&g).upper > chi, overshoots, "graph {i}: DSATUR premise");
        for parallelism in [1, 2] {
            let hybrid =
                chromatic_number_outcome(&g, &options.clone().with_parallelism(parallelism))
                    .expect("valid input");
            assert_eq!(hybrid.exact(), Some(chi), "graph {i}, parallelism {parallelism}");
            assert_eq!(hybrid.exhaust, None, "graph {i}, parallelism {parallelism}");
            assert!(hybrid.witness().is_proper(&g), "graph {i}, parallelism {parallelism}");
            assert_eq!(hybrid.witness().num_colors(), chi, "graph {i}, parallelism {parallelism}");
        }
    }
}

#[test]
fn heuristic_race_replays_deterministically() {
    // Same input, same seeds, same iteration budgets: the race must
    // reproduce its bracket bit-for-bit. Mycielski graphs keep the
    // clique/χ gap open, so no cancellation ever fires and every worker
    // runs its full deterministic schedule.
    let g = mycielski(4);
    let b = bounds(&g);
    let opts = SolveOptions::new(20);
    let first = race_heuristics(&g, &opts, &b);
    for _ in 0..2 {
        let again = race_heuristics(&g, &opts, &b);
        assert_eq!(again.lower, first.lower);
        assert_eq!(again.upper, first.upper);
        assert_eq!(again.witness.num_colors(), first.witness.num_colors());
        assert_eq!(again.clique, first.clique);
        assert_eq!(again.failed_workers, 0);
        assert_eq!(again.rejected_witnesses, 0);
    }
}

#[test]
fn heuristic_incumbent_caps_the_bracket_below_dsatur_when_it_can() {
    // gnp(24, 0.5, 3) is the repo's canonical DSATUR-overshoot instance
    // (χ = 7, DSATUR 8): the race must recover at least one rung.
    let g = gnp(24, 0.5, 3);
    let b = bounds(&g);
    assert!(b.upper > 7, "test premise: DSATUR overshoots χ = 7, got {}", b.upper);
    let out = race_heuristics(&g, &SolveOptions::new(20), &b);
    assert!(out.upper <= b.upper);
    assert_eq!(out.upper, 7, "TabuCol/PartialCol reach χ on this instance");
    assert!(out.witness.is_proper(&g));
    assert_eq!(out.witness.num_colors(), 7);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All three constructive heuristics produce proper colorings on
    /// random graphs, and TabuCol reaches any bound DSATUR witnesses.
    #[test]
    fn heuristic_colorings_are_proper_on_random_graphs(
        (n, edges) in (2usize..24).prop_flat_map(|n| {
            let edge = (0..n, 0..n);
            (Just(n), proptest::collection::vec(edge, 0..3 * n))
        })
    ) {
        let g = Graph::from_edges(n, edges);

        let d = algo::dsatur(&g);
        prop_assert!(d.is_proper(&g));

        let order: Vec<usize> = (0..n).collect();
        let greedy = algo::greedy_coloring(&g, &order);
        prop_assert!(greedy.is_proper(&g));

        let r = rlf(&g);
        prop_assert!(r.is_proper(&g));
        prop_assert!(r.num_colors() <= g.max_degree() + 1);

        // k = DSATUR's count is always achievable; tabu search must find
        // it (and is seeded, so a failure here replays exactly).
        let k = d.num_colors();
        let t = tabucol(&g, k, 0xDEC0DE, 50_000, || false);
        let t = t.expect("an achievable k must be reached");
        prop_assert!(t.is_proper(&g));
        prop_assert!(t.num_colors() <= k);

        let p = partialcol(&g, k, 0xDEC0DE, 50_000, || false);
        let p = p.expect("an achievable k must be reached");
        prop_assert!(p.is_proper(&g));
        prop_assert!(p.num_colors() <= k);
    }

    /// The heuristic race never loosens the greedy bracket and always
    /// returns a re-validated witness, whatever the graph.
    #[test]
    fn race_bracket_stays_sound_on_random_graphs(
        (n, edges) in (2usize..16).prop_flat_map(|n| {
            let edge = (0..n, 0..n);
            (Just(n), proptest::collection::vec(edge, 0..2 * n))
        })
    ) {
        let g = Graph::from_edges(n, edges);
        let b = bounds(&g);
        let out = race_heuristics(&g, &SolveOptions::new(20), &b);
        prop_assert!(out.lower >= b.lower);
        prop_assert!(out.upper <= b.upper);
        prop_assert!(out.lower <= out.upper);
        prop_assert!(out.witness.is_proper(&g));
        prop_assert_eq!(out.witness.num_colors(), out.upper);
        prop_assert_eq!(out.rejected_witnesses, 0);
        prop_assert_eq!(out.failed_workers, 0);
    }
}

#[test]
fn race_accepts_an_artificially_loose_bracket() {
    // Regression guard for the descent loop: when the seed bracket is far
    // from tight the workers must walk it all the way down, one validated
    // offer per rung.
    let g = queens(5, 5);
    let loose = ChromaticBounds {
        lower: 1,
        upper: g.num_vertices(),
        witness: Coloring::new((0..g.num_vertices()).collect()),
    };
    assert!(loose.witness.is_proper(&g));
    let out = race_heuristics(&g, &SolveOptions::new(20), &loose);
    assert_eq!(out.upper, 5, "the descent must reach χ(queen5_5) = 5");
    assert_eq!(out.lower, 5, "clique search must find a 5-clique (a row)");
    assert!(out.witness.is_proper(&g));
}
