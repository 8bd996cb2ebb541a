//! Cross-crate certificate tests: chromatic-number results from the full
//! solving stack must come back with DRAT proofs that the independent
//! checker in `sbgc-proof` accepts — and corrupted proofs must be refused.

use sbgc_core::{
    certify_result_parallel, chromatic_number_certified, cnf_decision_formula,
    OptimalityCertificate, ProofStatus, SbpMode, SolveOptions,
};
use sbgc_graph::{gen, suite, Graph};
use sbgc_pb::Budget;
use sbgc_proof::{check_drat, CheckError, DratProof, ProofStep};
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

#[test]
fn certificate_proof_survives_dimacs_round_trip() {
    // The proof a certificate carries must stay checkable after being
    // serialized to DRAT text and parsed back — the format the --proof
    // flag writes to disk.
    let g = gen::mycielski(3);
    let cert = certified(&g, 6);
    let proof = cert.proof.expect("checked certificate carries its proof");
    let text = proof.to_dimacs();
    let parsed = DratProof::from_dimacs(&text).expect("round-trip parse");
    let (num_vars, clauses) = cnf_decision_formula(&g, cert.chromatic_number - 1);
    check_drat(num_vars, &clauses, &parsed).expect("round-tripped proof must check");
}

#[test]
fn corrupted_certificate_proofs_are_rejected() {
    let g = gen::mycielski(3);
    let cert = certified(&g, 6);
    let proof = cert.proof.expect("checked certificate carries its proof");
    let (num_vars, clauses) = cnf_decision_formula(&g, cert.chromatic_number - 1);
    check_drat(num_vars, &clauses, &proof).expect("the genuine proof checks");

    // Truncating away the refutation tail leaves the formula unrefuted.
    let mut truncated = DratProof::new();
    for step in proof.steps().iter().take(proof.len() / 2) {
        match step {
            ProofStep::Add(lits) => truncated.push_add(lits, &[]),
            ProofStep::Delete(lits) => truncated.push_delete(lits),
        }
    }
    match check_drat(num_vars, &clauses, &truncated) {
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
        check_drat(num_vars, &clauses, &injected),
        Err(CheckError::MissingDeletion { step: 0 })
    );

    // A proof replayed against the wrong formula (one clause dropped, the
    // residual is satisfiable) must not be accepted.
    let weakened: Vec<_> = clauses[1..].to_vec();
    assert!(check_drat(num_vars, &weakened, &proof).is_err());
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
fn recheck(graph: &Graph, cert: &OptimalityCertificate) -> sbgc_proof::CheckStats {
    assert!(matches!(cert.unsat, ProofStatus::Checked { .. }), "{}", cert.unsat);
    let proof = cert.proof.as_ref().expect("checked certificate carries its proof");
    let (num_vars, clauses) = cnf_decision_formula(graph, cert.chromatic_number - 1);
    check_drat(num_vars, &clauses, proof).expect("the certificate's proof checks")
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
