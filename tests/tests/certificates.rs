//! Cross-crate certificate tests: chromatic-number results from the full
//! solving stack must come back with DRAT proofs that the independent
//! checker in `sbgc-proof` accepts — each derives "not every clique pin
//! holds" from the (χ−1)-coloring CNF — corrupted proofs must be refused,
//! and the pins must never hide a coloring.

use sbgc_core::{
    certify_result_parallel, chromatic_number_certified, cnf_decision_formula, cnf_pins,
    ChromaticResult, Coloring, OptimalityCertificate, ProofStatus, SbpMode, SolveOptions,
};
use sbgc_formula::Lit;
use sbgc_graph::{gen, suite, Graph};
use sbgc_heur::{backtracking_dsatur, BdsaturResult};
use sbgc_pb::Budget;
use sbgc_proof::{check_derivation, CheckError, CheckStats, DratProof, ProofStep};
use std::time::Duration;

fn certified(graph: &Graph, k: usize) -> OptimalityCertificate {
    let opts = SolveOptions::new(k)
        .with_sbp_mode(SbpMode::NuSc)
        .with_budget(Budget::unlimited().with_timeout(Duration::from_secs(120)));
    let (result, cert) = chromatic_number_certified(graph, &opts);
    assert!(result.exact().is_some(), "chi search must finish");
    cert.expect("exact result yields a certificate")
}

#[test]
fn small_graph_suite_certifies() {
    // Every clausal-encoding instance of the small suite must produce an
    // accepted UNSAT proof at chi - 1 (the acceptance criterion of this
    // feature): mycielski, small queens, and seeded random graphs.
    for (name, expected_chi) in [("myciel3", 4), ("myciel4", 5), ("queen5_5", 5)] {
        let inst = suite::build(name);
        let cert = certified(&inst.graph, 20);
        assert_eq!(cert.chromatic_number, expected_chi, "{name}");
        assert!(matches!(cert.unsat, ProofStatus::Checked { .. }), "{name}: {}", cert.unsat);
        assert!(cert.is_certified(), "{name}");
    }
    for seed in [1u64, 2, 3] {
        let g = gen::gnp(14, 0.5, seed);
        let cert = certified(&g, 14);
        assert!(cert.is_certified(), "gnp seed {seed}: {}", cert.unsat);
    }
}

/// The goal a certificate's proof derives: not every pin of its clique
/// holds in the (χ−1)-coloring CNF.
fn goal(cert: &OptimalityCertificate) -> Vec<Lit> {
    cnf_pins(cert.chromatic_number - 1, &cert.clique).iter().map(|&pin| !pin).collect()
}

#[test]
fn certificate_proof_survives_dimacs_round_trip() {
    // The proof a certificate carries must stay checkable after being
    // serialized to DRAT text and parsed back — the format the --proof
    // flag writes to disk.
    let g = gen::mycielski(3);
    let cert = certified(&g, 6);
    let proof = cert.proof.as_ref().expect("checked certificate carries its proof");
    let text = proof.to_dimacs();
    let parsed = DratProof::from_dimacs(&text).expect("round-trip parse");
    let (num_vars, clauses) = cnf_decision_formula(&g, cert.chromatic_number - 1);
    check_derivation(num_vars, &clauses, &parsed, &goal(&cert))
        .expect("round-tripped proof must check");
}

#[test]
fn corrupted_certificate_proofs_are_rejected() {
    let g = gen::mycielski(3);
    let cert = certified(&g, 6);
    let goal = goal(&cert);
    let proof = cert.proof.expect("checked certificate carries its proof");
    let (num_vars, clauses) = cnf_decision_formula(&g, cert.chromatic_number - 1);
    check_derivation(num_vars, &clauses, &proof, &goal).expect("the genuine proof checks");

    // Truncating away the refutation tail leaves the goal underived.
    let mut truncated = DratProof::new();
    for step in proof.steps().iter().take(proof.len() / 2) {
        match step {
            ProofStep::Add(lits) => truncated.push_add(lits, &[]),
            ProofStep::Delete(lits) => truncated.push_delete(lits),
        }
    }
    match check_derivation(num_vars, &clauses, &truncated, &goal) {
        Err(_) => {}
        Ok(_) => panic!("half a proof must not certify"),
    }

    // An injected deletion of an absent clause is refused at its step.
    let mut injected = DratProof::new();
    injected.push_delete(&clauses[0][..1]);
    for step in proof.steps() {
        match step {
            ProofStep::Add(lits) => injected.push_add(lits, &[]),
            ProofStep::Delete(lits) => injected.push_delete(lits),
        }
    }
    assert_eq!(
        check_derivation(num_vars, &clauses, &injected, &goal),
        Err(CheckError::MissingDeletion { step: 0 })
    );

    // A proof replayed against the wrong formula must not be accepted:
    // dropping an unpinned vertex's at-least-one clause (the only clauses
    // with χ−1 > 2 literals) leaves the residual satisfiable under the
    // pins, since Mycielski graphs lose a color with any vertex.
    let colors = cert.chromatic_number - 1;
    let unpinned = clauses
        .iter()
        .position(|c| c.len() == colors && c.iter().all(|l| !goal.contains(&!*l)))
        .expect("an unpinned vertex");
    let weakened = clauses.iter().enumerate().filter(|&(i, _)| i != unpinned).map(|(_, c)| c);
    assert!(check_derivation(num_vars, weakened, &proof, &goal).is_err());
}

#[test]
fn trivial_and_bipartite_certificates() {
    // chi = 1 certifies by definition; chi = 2 exercises the smallest
    // genuine refutation (1-coloring a graph with an edge).
    let cert = certified(&Graph::empty(4), 4);
    assert_eq!(cert.chromatic_number, 1);
    assert!(matches!(cert.unsat, ProofStatus::Trivial { .. }));
    assert!(cert.is_certified());

    let cert = certified(&Graph::cycle(8), 4);
    assert_eq!(cert.chromatic_number, 2);
    assert!(matches!(cert.unsat, ProofStatus::Checked { .. }), "{}", cert.unsat);
    assert!(cert.is_certified());
}

/// The graphs whose refutations the chain tests replay: anchors and the
/// seeded family of the benchmark's `certify` workload that certify fast.
fn chain_graphs() -> Vec<(String, Graph)> {
    let mut graphs: Vec<(String, Graph)> = ["myciel4", "queen5_5"]
        .into_iter()
        .map(|name| (name.to_string(), suite::build(name).graph))
        .collect();
    graphs.push(("gnp(42,0.4)#2".to_string(), gen::gnp(42, 0.4, 2)));
    for seed in 1..=3 {
        graphs.push((format!("gnp(24,0.4)#{seed}"), gen::gnp(24, 0.4, seed)));
    }
    graphs
}

/// Replays a certificate's proof and returns the checker's statistics.
fn recheck(graph: &Graph, cert: &OptimalityCertificate) -> CheckStats {
    assert!(matches!(cert.unsat, ProofStatus::Checked { .. }), "{}", cert.unsat);
    let proof = cert.proof.as_ref().expect("checked certificate carries its proof");
    let (num_vars, clauses) = cnf_decision_formula(graph, cert.chromatic_number - 1);
    check_derivation(num_vars, &clauses, proof, &goal(cert)).expect("the proof derives the goal")
}

#[test]
fn sequential_certifier_lemmas_close_by_their_chains() {
    // Every addition of a sequential refutation — learned clauses, root
    // simplifications, the final conflict — carries a hint chain that the
    // checker walks to a conflict, so nothing falls back to propagation.
    for (name, g) in chain_graphs() {
        let opts = SolveOptions::new(30).with_sbp_mode(SbpMode::ValuePrec);
        let (_, cert) = chromatic_number_certified(&g, &opts);
        let stats = recheck(&g, &cert.expect("exact result yields a certificate"));
        assert!(stats.adds > 0, "{name}: a refutation with lemmas");
        assert_eq!((stats.chained, stats.searched), (stats.adds, 0), "{name}");
    }
}

#[test]
fn racing_certifier_lemmas_close_by_their_chains() {
    // Three clause-sharing workers log into one adds-only proof. Each
    // learned clause names its reasons by the shared log's numbering, so
    // it closes by its chain; only imported re-logs (logged without hints)
    // may need the search.
    for (name, g) in chain_graphs() {
        let opts = SolveOptions::new(30).with_sbp_mode(SbpMode::ValuePrec);
        let result = sbgc_core::chromatic_number(&g, &opts);
        let cert = certify_result_parallel(&g, &result, &Budget::unlimited(), 3).expect("exact");
        let stats = recheck(&g, &cert);
        let proof = cert.proof.as_ref().expect("proof");
        let hinted = (0..stats.adds).filter(|&j| !proof.hints(j).is_empty()).count();
        assert!(hinted > 0, "{name}: learned clauses carry chains");
        assert_eq!(stats.chained, hinted, "{name}: every hinted addition closes");
        assert_eq!(stats.searched, stats.adds - hinted, "{name}");
    }
}

/// Seeded G(n, p) graphs from sparse to dense, and Mycielski graphs, with
/// χ from backtracking DSATUR — the soundness sweep's graphs.
fn sweep_graphs() -> Vec<(String, Graph, usize, Coloring)> {
    let mut graphs: Vec<(String, Graph)> =
        (2..=4).map(|k| (format!("mycielski({k})"), gen::mycielski(k))).collect();
    for (n, p) in [(12, 0.3), (12, 0.5), (12, 0.7), (16, 0.5), (16, 0.8)] {
        for seed in 1..=4 {
            graphs.push((format!("gnp({n},{p})#{seed}"), gen::gnp(n, p, seed)));
        }
    }
    graphs
        .into_iter()
        .map(|(name, g)| match backtracking_dsatur(&g, 10_000_000) {
            BdsaturResult::Exact { chromatic_number, witness } => {
                (name, g, chromatic_number, witness)
            }
            BdsaturResult::Bounded { .. } => panic!("{name}: DSATUR must decide"),
        })
        .collect()
}

#[test]
fn clique_pins_never_hide_a_coloring() {
    // At the true χ the pinned certificate checks. A claim of χ + 1 asks
    // for a refutation of χ colors under the clique's pins; the graph has a
    // χ-coloring and permuting its colors meets the pins, so the solver
    // must find a model and reject the claim — never certify it.
    for (name, g, chi, witness) in sweep_graphs() {
        for workers in [1, 3] {
            let exact = ChromaticResult::Exact { chromatic_number: chi, witness: witness.clone() };
            let cert = certify_result_parallel(&g, &exact, &Budget::unlimited(), workers)
                .expect("an exact claim");
            assert!(cert.is_certified(), "{name}, workers={workers}: {}", cert.unsat);
            if chi > 1 {
                assert!(matches!(cert.unsat, ProofStatus::Checked { .. }), "{name}");
                assert!(!cert.clique.is_empty() && cert.clique.len() < chi, "{name}");
            }
            let over =
                ChromaticResult::Exact { chromatic_number: chi + 1, witness: witness.clone() };
            let cert = certify_result_parallel(&g, &over, &Budget::unlimited(), workers)
                .expect("an exact claim");
            match &cert.unsat {
                ProofStatus::Rejected { error } => {
                    assert!(error.contains("colorable"), "{name}, workers={workers}: {error}");
                }
                other => panic!("{name}, workers={workers}: χ + 1 = {} got {other}", chi + 1),
            }
        }
    }
}
