//! End-to-end integration tests spanning the whole workspace: suite
//! instance → encoding → SBPs → Shatter → solver → decoded, verified
//! coloring.

use sbgc_core::{
    chromatic_number, solve_coloring, ColoringOutcome, SbpMode, SolveOptions, SolverKind,
};
use sbgc_graph::{algo, gen, suite};
use sbgc_pb::Budget;
use std::time::Duration;

/// Exact chromatic numbers of the exactly-reconstructed suite instances.
const KNOWN_CHI: [(&str, usize); 5] =
    [("myciel3", 4), ("myciel4", 5), ("queen5_5", 5), ("queen6_6", 7), ("queen7_7", 7)];

#[test]
fn exact_instances_have_paper_chromatic_numbers() {
    for (name, expected) in KNOWN_CHI {
        let inst = suite::build(name);
        let opts = SolveOptions::new(20)
            .with_sbp_mode(SbpMode::NuSc)
            .with_instance_dependent_sbps()
            .with_budget(Budget::unlimited().with_timeout(Duration::from_secs(60)));
        let result = chromatic_number(&inst.graph, &opts);
        assert_eq!(result.exact(), Some(expected), "{name}");
        assert!(result.witness().is_proper(&inst.graph), "{name}");
        assert_eq!(inst.meta.paper_chromatic, Some(expected), "{name} metadata");
    }
}

#[test]
fn full_grid_agrees_on_one_instance() {
    // Every (mode × solver × symmetry) combination must report the same
    // optimum on myciel3.
    let g = gen::mycielski(3);
    for mode in SbpMode::ALL {
        for solver in SolverKind::MAIN {
            for instance_dependent in [false, true] {
                let mut opts = SolveOptions::new(5)
                    .with_sbp_mode(mode)
                    .with_solver(solver)
                    .with_budget(Budget::unlimited().with_timeout(Duration::from_secs(30)));
                if instance_dependent {
                    opts = opts.with_instance_dependent_sbps();
                }
                let report = solve_coloring(&g, &opts);
                assert_eq!(
                    report.outcome.colors(),
                    Some(4),
                    "{mode} {solver} id={instance_dependent}"
                );
                assert!(
                    report.outcome.coloring().expect("coloring").is_proper(&g),
                    "{mode} {solver} id={instance_dependent}"
                );
            }
        }
    }
}

#[test]
fn unsat_at_k_below_clique() {
    // queen5_5 contains K5 (a row); at K = 4 every solver proves UNSAT.
    let g = gen::queens(5, 5);
    for solver in SolverKind::MAIN {
        let report = solve_coloring(&g, &SolveOptions::new(4).with_solver(solver));
        assert!(
            matches!(report.outcome, ColoringOutcome::InfeasibleAtK),
            "{solver}: {:?}",
            report.outcome
        );
    }
}

#[test]
fn dsatur_bound_is_respected_by_exact_solver() {
    // The exact optimum can never exceed the DSATUR bound.
    for name in ["myciel4", "queen5_5", "jean"] {
        let inst = suite::build(name);
        let ub = algo::dsatur(&inst.graph).num_colors();
        let opts = SolveOptions::new(ub)
            .with_sbp_mode(SbpMode::NuSc)
            .with_budget(Budget::unlimited().with_timeout(Duration::from_secs(30)));
        let report = solve_coloring(&inst.graph, &opts);
        if let Some(c) = report.outcome.colors() {
            assert!(c <= ub, "{name}: {c} > DSATUR {ub}");
        }
    }
}

#[test]
fn suite_roundtrips_through_dimacs() {
    for name in ["myciel4", "queen5_5", "games120"] {
        let inst = suite::build(name);
        let text = sbgc_graph::dimacs::write_col(&inst.graph, Some(name));
        let parsed = sbgc_graph::dimacs::parse_col(&text).expect("roundtrip");
        assert_eq!(parsed, inst.graph, "{name}");
    }
}

#[test]
fn formula_roundtrips_through_opb() {
    use sbgc_core::ColoringEncoding;
    let g = gen::mycielski(3);
    let enc = ColoringEncoding::new(&g, 4);
    let text = enc.formula().to_opb();
    let parsed = sbgc_formula::parse_opb(&text).expect("parse");
    assert_eq!(parsed.num_vars(), enc.formula().num_vars());
    // The parsed formula must have the same optimum.
    let a = sbgc_pb::optimize(enc.formula(), SolverKind::PbsII, &Budget::unlimited());
    let b = sbgc_pb::optimize(&parsed, SolverKind::PbsII, &Budget::unlimited());
    assert_eq!(a.value(), b.value());
    assert_eq!(a.value(), Some(4));
}

#[test]
fn shatter_finds_the_color_symmetry_group() {
    // Without SBPs, the K-coloring encoding of any graph has at least the
    // S_K color permutations: |Aut| >= K!.
    use sbgc_core::ColoringEncoding;
    use sbgc_shatter::{detect_symmetries, AutomorphismOptions};
    let g = gen::mycielski(3);
    let k = 5;
    let enc = ColoringEncoding::new(&g, k);
    let (perms, report) = detect_symmetries(enc.formula(), &AutomorphismOptions::default());
    let k_factorial: u128 = (1..=k as u128).product();
    assert!(
        report.order.expect("small group") >= k_factorial,
        "order {:?} < K! = {k_factorial}",
        report.order
    );
    assert!(!perms.is_empty());
}

#[test]
fn shatter_finds_exact_groups_at_twenty_colors() {
    // At K = 20 the formula graph has Aut = S_20 × Aut(G): 20!·10 for
    // myciel3 (its automorphism group is dihedral of order 10), and 20!
    // for a G(10, 0.45) graph without automorphisms, where S_20 takes one
    // generator per level of its 19-level stabilizer chain.
    use sbgc_core::ColoringEncoding;
    use sbgc_shatter::{detect_symmetries, AutomorphismOptions};
    let twenty_factorial: u128 = (1..=20).product();
    let detect = |g: &sbgc_graph::Graph| {
        let enc = ColoringEncoding::new(g, 20);
        detect_symmetries(enc.formula(), &AutomorphismOptions::default())
    };
    let (_, myciel3) = detect(&gen::mycielski(3));
    assert!(myciel3.exact);
    assert_eq!(myciel3.order, Some(twenty_factorial * 10));
    let (_, gnp) = detect(&gen::gnp(10, 0.45, 3));
    assert!(gnp.exact);
    assert_eq!(gnp.order, Some(twenty_factorial));
    assert_eq!(gnp.num_generators, 19);
}

#[test]
fn li_kills_all_symmetries() {
    // After LI, the encoding has no symmetries at all (paper Table 2).
    use sbgc_core::{add_instance_independent_sbps, ColoringEncoding};
    use sbgc_shatter::{detect_symmetries, AutomorphismOptions};
    let g = gen::mycielski(3);
    let mut enc = ColoringEncoding::new(&g, 4);
    let _ = add_instance_independent_sbps(&mut enc, &g, SbpMode::Li);
    let (perms, report) = detect_symmetries(enc.formula(), &AutomorphismOptions::default());
    assert!(perms.is_empty(), "LI must break everything, got {perms:?}");
    assert_eq!(report.order, Some(1));
}

#[test]
fn nu_shrinks_the_symmetry_group() {
    use sbgc_core::{add_instance_independent_sbps, ColoringEncoding};
    use sbgc_shatter::{detect_symmetries, AutomorphismOptions};
    let g = gen::mycielski(3);
    let baseline = {
        let enc = ColoringEncoding::new(&g, 4);
        detect_symmetries(enc.formula(), &AutomorphismOptions::default()).1
    };
    let with_nu = {
        let mut enc = ColoringEncoding::new(&g, 4);
        let _ = add_instance_independent_sbps(&mut enc, &g, SbpMode::Nu);
        detect_symmetries(enc.formula(), &AutomorphismOptions::default()).1
    };
    assert!(
        with_nu.order_log10 < baseline.order_log10,
        "NU must shrink the group: {} vs {}",
        with_nu.order_log10,
        baseline.order_log10
    );
}
