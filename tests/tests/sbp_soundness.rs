//! Soundness of the post-paper SBP constructions, end to end.
//!
//! Orbitope and ValPrec (like LI-pfx) are *complete* symmetry breaks:
//! they admit exactly one color assignment per partition into independent
//! sets. That makes them the most dangerous modes to get wrong — an
//! over-constrained encoding silently inflates χ instead of failing
//! loudly. These tests pin the properties that make the new modes safe to
//! race through the ladder: χ must match the SBP-free baseline on every
//! quick-suite graph, the incremental session (sequential and portfolio)
//! must agree with the one-shot path under the new modes, and exact
//! results produced under them must still pass the SBP-free DRAT
//! certification.
//!
//! LI-pfx, Orbitope and ValPrec follow a clique-first vertex order
//! computed from the graph, so they are also checked on randomly
//! relabelled graphs against an SBP-free exact search (among them sparse
//! graphs whose clique fills the session width, where ValPrec is only its
//! pins), and the order's search savings on the benchmark's ladder graphs
//! are pinned by a conflict-count guard.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sbgc_core::{
    bounds, chromatic_number_certified, chromatic_number_outcome, ColoringSession, Counter, Graph,
    Recorder, SbpMode, SessionAnswer, SolveOptions,
};
use sbgc_graph::gen::{gnp, mycielski, queens};
use sbgc_heur::{backtracking_dsatur, BdsaturResult};
use sbgc_pb::{Budget, SolverKind};

/// The three constructions that follow the clique-first vertex order.
const ORDERED_MODES: [SbpMode; 3] = [SbpMode::ValuePrec, SbpMode::LiPrefix, SbpMode::Orbitope];

fn quick_graphs() -> Vec<(&'static str, Graph, usize)> {
    // (name, graph, χ) — same suite the incremental-session tests pin.
    vec![
        ("queen4_4", queens(4, 4), 5),
        ("queen5_5", queens(5, 5), 5),
        ("myciel3", mycielski(3), 4),
        ("myciel4", mycielski(4), 5),
        ("C5", Graph::cycle(5), 3),
        ("C6", Graph::cycle(6), 2),
        ("K5", Graph::complete(5), 5),
        ("gnp24", gnp(24, 0.5, 3), 7),
    ]
}

#[test]
fn orbitope_and_value_prec_preserve_chi_on_the_quick_suite() {
    // The decisive soundness property: a complete symmetry break removes
    // only symmetric duplicates, never a whole color-class partition, so
    // χ under Orbitope/ValPrec must equal χ under no SBPs at all.
    for (name, graph, chi) in quick_graphs() {
        let baseline = chromatic_number_outcome(&graph, &SolveOptions::new(20)).expect("valid");
        assert_eq!(baseline.exact(), Some(chi), "{name}: baseline");
        for mode in [SbpMode::Orbitope, SbpMode::ValuePrec] {
            let out = chromatic_number_outcome(&graph, &SolveOptions::new(20).with_sbp_mode(mode))
                .expect("valid");
            assert_eq!(out.exact(), Some(chi), "{name} under {}", mode.display_name());
            assert!(
                out.witness().is_proper(&graph),
                "{name} under {}: witness must stay proper",
                mode.display_name()
            );
        }
    }
}

#[test]
fn every_extended_mode_agrees_on_chi() {
    // The full ten-mode grid on a small but non-trivial pair: every
    // instance-independent construction — incomplete or complete — must
    // leave at least one representative per color-class partition.
    for (name, graph, chi) in
        [("myciel3", mycielski(3), 4usize), ("gnp16", gnp(16, 0.5, 7), 5usize)]
    {
        for mode in SbpMode::EXTENDED {
            let out = chromatic_number_outcome(&graph, &SolveOptions::new(20).with_sbp_mode(mode))
                .expect("valid");
            assert_eq!(out.exact(), Some(chi), "{name} under {}", mode.display_name());
        }
    }
}

#[test]
fn incremental_ladder_under_orbitope_matches_portfolio_and_oneshot() {
    // The new modes are registered assumption-sound, so the persistent
    // session must accept them and the suffix-assumption ladder must
    // agree with both the portfolio ladder and the one-shot optimization
    // fallback (CPLEX baseline — the only remaining non-session path).
    let graph = gnp(24, 0.5, 3); // χ = 7, DSATUR 8 → a real 2-step ladder
    for mode in [SbpMode::Orbitope, SbpMode::ValuePrec] {
        let opts = SolveOptions::new(20).with_sbp_mode(mode);
        assert!(
            ColoringSession::supports(&opts),
            "{} must route through the persistent session",
            mode.display_name()
        );
        let seq = chromatic_number_outcome(&graph, &opts).expect("valid");
        let par =
            chromatic_number_outcome(&graph, &opts.clone().with_parallelism(4)).expect("valid");
        let oneshot =
            chromatic_number_outcome(&graph, &opts.clone().with_solver(SolverKind::Cplex))
                .expect("valid");
        assert_eq!(seq.exact(), Some(7), "{}: sequential ladder", mode.display_name());
        assert_eq!(par.exact(), Some(7), "{}: portfolio ladder", mode.display_name());
        assert_eq!(oneshot.exact(), Some(7), "{}: one-shot fallback", mode.display_name());
    }
}

#[test]
fn session_queries_under_orbitope_answer_the_whole_ladder() {
    // Drive a session below χ step by step under the complete orbitope
    // break: colorable at χ, uncolorable below it, with a non-empty
    // assumption core for every UNSAT answer. (The session clamps k to
    // DSATUR−1, so we need a graph whose greedy bound overshoots χ.)
    let graph = gnp(24, 0.5, 3); // χ = 7, DSATUR 8 → session k = 7
    let opts = SolveOptions::new(20).with_sbp_mode(SbpMode::Orbitope);
    let mut session = ColoringSession::new(&graph, &opts).expect("supported configuration");
    assert_eq!(session.k(), 7, "k = min(options.k, DSATUR bound − 1)");
    let budget = Budget::unlimited();
    match session.query(7, &budget).answer {
        SessionAnswer::Colorable(c) => assert!(c.is_proper(&graph)),
        other => panic!("target 7 must be colorable under Orbitope, got {other:?}"),
    }
    for target in [6usize, 5] {
        match session.query(target, &budget).answer {
            SessionAnswer::NotColorable { core } => {
                assert!(!core.is_empty(), "assumption-relative UNSAT must surface a core");
            }
            other => panic!("target {target} must be uncolorable, got {other:?}"),
        }
    }
}

#[test]
fn exact_results_under_new_modes_still_certify() {
    // Certification re-derives χ on the SBP-free CNF decision encoding,
    // so a checked certificate is an independent audit that the new
    // constructions did not change the answer.
    for mode in [SbpMode::Orbitope, SbpMode::ValuePrec] {
        let opts = SolveOptions::new(20).with_sbp_mode(mode);
        let (result, cert) = chromatic_number_certified(&mycielski(3), &opts);
        assert_eq!(result.exact(), Some(4), "{}", mode.display_name());
        let cert = cert.expect("exact result must certify");
        assert_eq!(cert.chromatic_number, 4);
        assert!(
            cert.is_certified(),
            "{}: DRAT refutation of 3-colorability must check",
            mode.display_name()
        );
    }
}

/// `graph` with its vertices shuffled by a permutation drawn from `seed`.
fn relabelled(graph: &Graph, seed: u64) -> Graph {
    let mut perm: Vec<usize> = (0..graph.num_vertices()).collect();
    perm.shuffle(&mut StdRng::seed_from_u64(seed));
    graph.relabel(&perm)
}

#[test]
fn ordered_modes_agree_with_backtracking_dsatur_on_relabelled_graphs() {
    // The vertex order comes from the graph, so a relabelling moves the
    // clique and the degree ranks to other indices; χ must not move.
    let mut graphs: Vec<(String, Graph)> = (1..=4)
        .map(|seed| (format!("G(20, 0.4) #{seed}"), relabelled(&gnp(20, 0.4, seed), seed)))
        .collect();
    for (steps, seed) in [(3, 5), (4, 6)] {
        graphs.push((format!("myciel{steps}"), relabelled(&mycielski(steps), seed)));
    }
    // Sparse graphs of the `hybrid` benchmark's shape: the greedy clique
    // fills the session width (DSATUR bound − 1), so ValPrec emits only
    // its clique pins and the usage chain. χ is 3 for seed 1 and 4 for
    // seeds 3 and 4.
    for seed in [1, 3, 4] {
        let graph = relabelled(&gnp(40, 0.1, seed), seed);
        let b = bounds(&graph);
        assert_eq!(b.lower + 1, b.upper, "G(40, 0.1) #{seed}: the clique must fill the width");
        graphs.push((format!("G(40, 0.1) #{seed}"), graph));
    }
    for (name, graph) in &graphs {
        let chi = match backtracking_dsatur(graph, u64::MAX) {
            BdsaturResult::Exact { chromatic_number, .. } => chromatic_number,
            other => panic!("{name}: backtracking DSATUR must finish, got {other:?}"),
        };
        for mode in ORDERED_MODES {
            for workers in [1, 2] {
                let opts = SolveOptions::new(20)
                    .with_sbp_mode(mode)
                    .with_parallelism(workers)
                    .without_heuristics();
                let out = chromatic_number_outcome(graph, &opts).expect("valid");
                let label = format!("{name} under {mode}, {workers} worker(s)");
                assert_eq!(out.exact(), Some(chi), "{label}");
                assert!(out.witness().is_proper(graph), "{label}: improper witness");
                assert_eq!(out.witness().num_colors(), chi, "{label}");
            }
        }
    }
}

#[test]
fn clique_first_value_precedence_keeps_the_ladder_search_small() {
    // Three of the benchmark's pinned `ladder-seq` anchors, through the
    // sequential ValPrec ladder with heuristics off (deterministic). The
    // clique-first order took 3,020 conflicts in total when this bound
    // was set; the index order took 28,806. The bound leaves 2.5× of
    // headroom and stays far below the index-order count.
    let mut conflicts = 0;
    for seed in [13, 22, 23] {
        let graph = gnp(55, 0.35, seed);
        let recorder = Recorder::new();
        let opts = SolveOptions::new(30)
            .with_sbp_mode(SbpMode::ValuePrec)
            .without_heuristics()
            .with_recorder(recorder.clone());
        let out = chromatic_number_outcome(&graph, &opts).expect("valid");
        assert_eq!(out.exact(), Some(8), "G(55, 0.35) #{seed}");
        conflicts += recorder.counter(Counter::Conflicts);
    }
    assert!(conflicts <= 7_500, "{conflicts} conflicts on the three anchors");
}
