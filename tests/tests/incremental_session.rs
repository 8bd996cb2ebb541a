//! The persistent incremental session, end to end.
//!
//! One `ColoringSession` answers the whole chromatic-number ladder
//! against long-lived solver state. These tests pin the properties that
//! make that refactor safe: the incremental portfolio, the sequential
//! incremental engine, and the one-shot optimization run must agree on χ
//! for every quick-suite graph; assumption cores must stay meaningful
//! across ladder steps; a persistent worker dying *between* queries must
//! degrade the session, not corrupt it; and ladder-routed results must
//! still certify.

use sbgc_core::{
    chromatic_number_certified, chromatic_number_outcome, ColoringEncoding, ColoringSession, Graph,
    SessionAnswer, SolveOptions,
};
use sbgc_formula::Lit;
use sbgc_graph::gen::{gnp, mycielski, queens};
use sbgc_obs::{FaultPlan, Recorder, RunReport};
use sbgc_pb::{portfolio_configs, Budget, PortfolioSession, SolveOutcome, SolverKind};

fn quick_graphs() -> Vec<(&'static str, Graph, usize)> {
    // (name, graph, χ)
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
fn incremental_portfolio_sequential_and_oneshot_agree() {
    for (name, graph, chi) in quick_graphs() {
        // One-shot optimization: force the non-session path via the CPLEX
        // baseline (the only remaining consumer of that code).
        let oneshot =
            chromatic_number_outcome(&graph, &SolveOptions::new(20).with_solver(SolverKind::Cplex))
                .expect("valid inputs");
        assert_eq!(oneshot.exact(), Some(chi), "{name}: one-shot optimization");

        // Sequential incremental ladder.
        let seq = chromatic_number_outcome(&graph, &SolveOptions::new(20)).expect("valid inputs");
        assert_eq!(seq.exact(), Some(chi), "{name}: sequential incremental");
        assert!(seq.witness().is_proper(&graph), "{name}: sequential witness");

        // Persistent-portfolio incremental ladder.
        let par = chromatic_number_outcome(&graph, &SolveOptions::new(20).with_parallelism(4))
            .expect("valid inputs");
        assert_eq!(par.exact(), Some(chi), "{name}: incremental portfolio");
        assert!(par.witness().is_proper(&graph), "{name}: portfolio witness");
    }
}

#[test]
fn assumption_cores_stay_subsets_across_ladder_steps() {
    // Drive a session below χ step by step: every NotColorable answer's
    // core must be a subset of that query's own suffix assumptions, even
    // though the engine reuses clauses learned under earlier (different)
    // assumption sets.
    let graph = gnp(24, 0.5, 3); // χ = 7, DSATUR 8 → session k = 7
    let options = SolveOptions::new(20);
    let mut session = ColoringSession::new(&graph, &options).expect("supported configuration");
    let k = session.k();
    assert_eq!(k, 7, "k = min(options.k, DSATUR bound − 1)");
    let budget = Budget::unlimited();
    // The session's own encoding is private; an identical encoding yields
    // the same variable numbering, so we can reconstruct each query's
    // suffix literals for the subset check.
    let enc = ColoringEncoding::new(&graph, k);
    let check_core = |core: &[Lit], target: usize, ceiling: usize| {
        let suffix: Vec<Lit> = (target..ceiling).map(|j| enc.y(j).negative()).collect();
        for lit in core {
            assert!(
                suffix.contains(lit),
                "core literal {lit:?} outside the target-{target} suffix"
            );
        }
    };

    // Target 7 (χ): colorable.
    match session.query(7, &budget).answer {
        SessionAnswer::Colorable(c) => assert!(c.is_proper(&graph)),
        other => panic!("target 7 must be colorable, got {other:?}"),
    }
    // Targets 6, 5: each UNSAT, each core a subset of its own query's
    // suffix — even though the engine reuses clauses learned under the
    // earlier, different assumption sets.
    for target in [6usize, 5] {
        match session.query(target, &budget).answer {
            SessionAnswer::NotColorable { core } => check_core(&core, target, k),
            other => panic!("target {target} must be uncolorable, got {other:?}"),
        }
    }
    // Committing the witnessed upper bound retires ¬y6 into a permanent
    // unit: the ceiling drops, and a repeated query's core stays a subset
    // of the *shrunken* live suffix.
    session.commit_upper_bound(7);
    assert_eq!(session.ceiling(), 6);
    match session.query(5, &budget).answer {
        SessionAnswer::NotColorable { core } => check_core(&core, 5, session.ceiling()),
        other => panic!("target 5 must stay uncolorable after the commit, got {other:?}"),
    }
}

#[test]
fn worker_panic_between_ladder_queries_degrades_not_corrupts() {
    // Chaos: encode a coloring instance, run a persistent 3-worker
    // portfolio session, and kill worker 1 at the second ladder query.
    // The survivors must finish the remaining queries with correct
    // answers, and telemetry must attribute the death to its query.
    let graph = mycielski(4); // χ = 5
    let k = 5;
    let mut enc = ColoringEncoding::new(&graph, k);
    enc.formula_mut().clear_objective();
    let recorder = Recorder::new();
    let plan = FaultPlan::new(0).with_worker_panic(1, 1); // dies at query id 1
    let mut session = PortfolioSession::new(enc.formula(), &portfolio_configs(3), &recorder, &plan)
        .expect("three workers");
    let budget = Budget::unlimited();

    // Ladder: 5-colorable, 4-uncolorable, 3-uncolorable.
    let expected = [(5usize, true), (4, false), (3, false)];
    for (i, (target, sat)) in expected.into_iter().enumerate() {
        let assumptions: Vec<Lit> = (target..k).map(|j| enc.y(j).negative()).collect();
        let out = session.query(&assumptions, &budget);
        match out.outcome {
            SolveOutcome::Sat(ref m) => {
                assert!(sat, "query {i} (target {target}) must be UNSAT");
                let c = enc.decode(m).expect("decodable model");
                assert!(c.is_proper(&graph), "query {i} witness");
            }
            SolveOutcome::Unsat => assert!(!sat, "query {i} (target {target}) must be SAT"),
            SolveOutcome::Unknown => panic!("query {i}: survivors must still answer"),
        }
    }
    assert_eq!(session.alive_workers(), 2, "exactly one worker died");
    assert_eq!(session.failed_workers(), 1);

    let mut report = RunReport::default();
    report.from_recorder(&recorder);
    let dead: Vec<_> = report.workers.iter().filter(|w| w.failed.is_some()).collect();
    assert_eq!(dead.len(), 1, "one death in telemetry");
    assert_eq!(dead[0].query, Some(1), "death attributed to ladder query 1");
}

#[test]
fn ladder_telemetry_lands_in_v5_report() {
    let graph = gnp(24, 0.5, 3); // χ = 7, DSATUR 8 → two ladder steps
    let recorder = Recorder::new();
    // Heuristics off: a TabuCol incumbent at 7 would cap the ladder to a
    // single UNSAT step and leave nothing to retain.
    let opts = SolveOptions::new(20).with_recorder(recorder.clone()).without_heuristics();
    let out = chromatic_number_outcome(&graph, &opts).expect("valid inputs");
    assert_eq!(out.exact(), Some(7));

    let mut report = RunReport::default();
    report.from_recorder(&recorder);
    assert!(report.ladder.len() >= 2, "per-step telemetry for a 2-step ladder");
    assert!(
        report.ladder[1..].iter().any(|s| s.retained_clauses > 0),
        "clauses retained across ladder steps must be visible in the report"
    );
    let run_json = report.to_json(4);
    assert!(run_json.contains("\"ladder\""));
    assert!(run_json.contains("\"retained_clauses\""));
    let file = sbgc_obs::ReportFile {
        generator: "incremental_session test".into(),
        runs: vec![report],
        ..Default::default()
    };
    assert!(
        file.to_json().contains("\"schema_version\": 11"),
        "ladder telemetry (v5) must survive the v11 schema bump"
    );
}

#[test]
fn ladder_routed_results_still_certify() {
    // The ladder's UNSAT answers are assumption-relative, so the
    // certificate must come from an SBP-free re-derivation — exactly what
    // certify_result does. Route through the portfolio session and check
    // the certificate end to end.
    let graph = mycielski(3); // χ = 4
    let opts = SolveOptions::new(20).with_parallelism(4);
    let (result, cert) = chromatic_number_certified(&graph, &opts);
    assert_eq!(result.exact(), Some(4));
    let cert = cert.expect("exact result must certify");
    assert_eq!(cert.chromatic_number, 4);
    assert!(cert.is_certified(), "DRAT refutation of 3-colorability must check");
}
