//! Verified optimality certificates for chromatic numbers.
//!
//! A claim "χ(G) = k" decomposes into two independently checkable halves:
//!
//! 1. **Feasibility** — a proper k-coloring of `G`, verified syntactically
//!    against the edge list ([`Coloring::is_proper`]);
//! 2. **Optimality** — a refutation of (k−1)-colorability. The certifier
//!    takes the greedy clique `c₀, …, c_{q−1}` of `G`, verifies that its
//!    vertices are pairwise adjacent, and refutes the *pure-CNF decision
//!    encoding* ([`crate::encode::cnf_decision_formula`]) with k−1 colors
//!    under the *pins* "`cᵢ` has color `i`" (for `i < min(q, k−1)`) as
//!    assumptions. The independent checker in `sbgc-proof` then replays
//!    the logged lemmas against the unmodified CNF and checks that they
//!    derive the goal "not every pin holds" ([`check_derivation`]).
//!
//! The pins are sound by one lemma: a clique's vertices get distinct
//! colors in every coloring, so permuting the colors of any
//! (k−1)-coloring turns it into one that meets the pins. The CNF is
//! therefore satisfiable iff it is satisfiable under the pins, and a
//! derived "not every pin holds" leaves it no model. Pinning a clique is
//! the first q steps of value precedence and the idea behind the paper's
//! SC and SC-clique constructions; without it the refutation must rule
//! out every permutation of the colors, which is what made the SBP-free
//! re-solve slow.
//!
//! The pins are assumptions, not unit clauses. Every logged lemma is then
//! RUP against the plain CNF, so a caller that archives the proof can
//! write the CNF plus one unit clause per pin and any DRAT checker verifies
//! the pair (the pins' adjacency is a side condition such a checker does
//! not see, so the archive must name the clique); and the in-memory check
//! replays the lemmas instead of letting its own propagation of the pins
//! refute the formula before the first step.
//!
//! Apart from the pins, the refutation is produced on a formula with no
//! symmetry-breaking predicates and no PB constraints, whatever encoding
//! and solver produced the result: SBP soundness and the PB inference
//! rules are exactly what a certificate must not take on faith.
//! [`certify_result_parallel`] is the one refutation path (sequential for
//! one worker, a clause-sharing race otherwise). When it cannot finish —
//! the budget runs out, or every racing worker dies — the certificate says
//! [`ProofStatus::Unchecked`] and names what stopped it rather than
//! pretending.
//!
//! The proof travels in memory, in [`OptimalityCertificate::proof`], and is
//! checked before anyone can archive it: a caller that keeps proofs on
//! disk (the bench harness's `--proof DIR`) writes the checked proof
//! afterwards, so a failed write can lose the archive but never change the
//! verdict.
//!
//! The incremental ladder changes nothing here, deliberately. A ladder
//! step's UNSAT is relative to the assumptions `¬y[target..K]` and is
//! solved against an SBP-augmented, possibly unit-committed formula — none
//! of which a derivation from the original instance may rely on. So
//! certification ignores the session's clause database entirely and
//! re-derives the χ−1 refutation from scratch on the pure-CNF encoding
//! below.

use crate::chromatic::{chromatic_number, ChromaticResult};
use crate::encode::{cnf_decision_formula, cnf_pins};
use crate::flow::SolveOptions;
use sbgc_formula::{Lit, PbFormula};
use sbgc_graph::algo::greedy_clique;
use sbgc_graph::{Coloring, Graph};
use sbgc_pb::{
    Budget, EngineConfig, ExhaustReason, PbEngine, PortfolioSession, SolveOutcome, SolverKind,
};
use sbgc_proof::{check_derivation, DratProof, ProofLogger, SharedProof};
use std::time::Instant;

/// Outcome of the UNSAT half of a certificate.
#[derive(Clone, Debug, PartialEq)]
pub enum ProofStatus {
    /// The independent checker accepted the logged derivation of "not
    /// every pin holds" from the (χ−1)-coloring CNF, and the pinned
    /// vertices ([`OptimalityCertificate::clique`]) were verified to be
    /// pairwise adjacent. Sound by one lemma: a clique's vertices get
    /// distinct colors, so permuting colors turns any (χ−1)-coloring into
    /// one that meets the pins — the CNF has no model. With no pins the
    /// goal is the empty clause: a plain DRAT refutation.
    Checked {
        /// Proof steps replayed (additions + deletions).
        steps: usize,
        /// Lemma additions verified: RUP, or RAT in a pin-free refutation.
        adds: usize,
        /// Deletions applied.
        deletes: usize,
        /// Total literals across all proof steps (a size proxy).
        literals: usize,
        /// Wall-clock seconds spent producing the refutation.
        solve_seconds: f64,
        /// Wall-clock seconds spent checking it.
        check_seconds: f64,
    },
    /// No proof is needed: the claim holds by definition (e.g. χ ≤ 1, where
    /// no smaller color count exists to refute).
    Trivial {
        /// Why no proof is required.
        reason: String,
    },
    /// No checked proof is available — the proving budget ran out, or
    /// every racing certifier worker died, before a refutation was found.
    /// The chromatic number may still be correct; it is just not
    /// *certified*.
    Unchecked {
        /// What stopped the refutation.
        reason: String,
    },
    /// A proof was produced but the checker rejected it, the pins are not
    /// a clique that fits in χ−1 colors, or the certifying solve
    /// contradicted the claimed optimum. This indicates a solver or logger
    /// bug and must fail loudly downstream.
    Rejected {
        /// The checker's error, the pins' defect, or the contradiction
        /// found.
        error: String,
    },
}

impl ProofStatus {
    /// `true` when optimality is established without trusting any solver:
    /// either an accepted derivation from a verified clique's pins or a
    /// by-definition case.
    pub fn is_verified(&self) -> bool {
        matches!(self, ProofStatus::Checked { .. } | ProofStatus::Trivial { .. })
    }
}

impl std::fmt::Display for ProofStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProofStatus::Checked { steps, adds, deletes, .. } => {
                write!(f, "checked ({steps} steps: {adds} adds, {deletes} deletes)")
            }
            ProofStatus::Trivial { reason } => write!(f, "trivial ({reason})"),
            ProofStatus::Unchecked { reason } => write!(f, "unchecked ({reason})"),
            ProofStatus::Rejected { error } => write!(f, "REJECTED ({error})"),
        }
    }
}

/// A machine-checkable certificate that `chromatic_number` colors suffice
/// and `chromatic_number − 1` do not.
#[derive(Clone, Debug)]
pub struct OptimalityCertificate {
    /// The certified chromatic number.
    pub chromatic_number: usize,
    /// The witness coloring at χ colors.
    pub witness: Coloring,
    /// Whether the witness passed independent verification: proper on the
    /// input graph and using exactly χ colors.
    pub witness_verified: bool,
    /// Status of the (χ−1)-uncolorability proof.
    pub unsat: ProofStatus,
    /// The pinned clique: index `i` holds the vertex pinned to color `i`
    /// of the (χ−1)-coloring CNF ([`crate::encode::cnf_pins`]). At most
    /// χ−1 vertices of the graph's greedy clique; empty when χ ≤ 1.
    pub clique: Vec<usize>,
    /// The DRAT derivation itself, when the certifying solve answered
    /// UNSAT (checked, or rejected by the checker). `None` for trivial and
    /// unchecked certificates, and when a model disproved the claim or the
    /// pins were refused.
    pub proof: Option<DratProof>,
}

impl OptimalityCertificate {
    /// `true` when both halves hold: the witness verified syntactically and
    /// optimality is [`ProofStatus::is_verified`].
    pub fn is_certified(&self) -> bool {
        self.witness_verified && self.unsat.is_verified()
    }
}

/// Certifying worker `worker`'s configuration (worker 0 when solving
/// sequentially): the PBS II preset with seed 0 and that worker's
/// modern-CDCL knobs ([`EngineConfig::diversified`]).
fn certifier_config(worker: usize) -> EngineConfig {
    SolverKind::PbsII.engine_config().expect("PBS II is a CDCL preset").diversified(worker)
}

/// Builds the sequential certifier's engine (worker 0), with `logger`
/// attached before `clauses` are added so root simplifications enter the
/// proof.
fn certifier(num_vars: usize, clauses: &[Vec<Lit>], logger: Box<dyn ProofLogger>) -> PbEngine {
    let mut engine = PbEngine::new(num_vars, certifier_config(0));
    engine.set_proof_logger(logger);
    for c in clauses {
        engine.add_clause(c.iter().copied());
    }
    engine
}

/// Maps a certifying solve's `outcome` on `clauses`, the (`chi`−1)-coloring
/// CNF, to a status and the proof it keeps. An UNSAT answer's logged
/// `proof` is replayed through the independent checker, which must find
/// that it derives `goal` (the negated pins; `[]` for a plain refutation),
/// and is kept; a model disproves the claimed `chi`; an undecided solve is
/// unchecked, keeps no proof and names what stopped it — the engine's or
/// the session's `exhaust` reason, or, when there is none, the death of
/// every racing worker (an engine always names its exhaustion).
#[allow(clippy::too_many_arguments)]
fn check_outcome(
    outcome: SolveOutcome,
    exhaust: Option<ExhaustReason>,
    chi: usize,
    num_vars: usize,
    clauses: &[Vec<Lit>],
    goal: &[Lit],
    proof: DratProof,
    solve_seconds: f64,
) -> (ProofStatus, Option<DratProof>) {
    match outcome {
        SolveOutcome::Unsat => {
            let check_start = Instant::now();
            let checked = check_derivation(num_vars, clauses, &proof, goal);
            let check_seconds = check_start.elapsed().as_secs_f64();
            let status = match checked {
                Ok(stats) => ProofStatus::Checked {
                    steps: stats.steps,
                    adds: stats.adds,
                    deletes: stats.deletes,
                    literals: proof.total_literals(),
                    solve_seconds,
                    check_seconds,
                },
                Err(e) => ProofStatus::Rejected { error: e.to_string() },
            };
            (status, Some(proof))
        }
        SolveOutcome::Sat(_) => {
            let error =
                format!("graph is ({})-colorable — claimed χ = {chi} is not optimal", chi - 1);
            (ProofStatus::Rejected { error }, None)
        }
        SolveOutcome::Unknown => {
            let reason = match exhaust {
                Some(why) => format!("budget exhausted ({why}) before a refutation was found"),
                None => "no certifying worker survived to find a refutation".into(),
            };
            (ProofStatus::Unchecked { reason }, None)
        }
    }
}

/// Why `clique` cannot be pinned to the first colors of a `colors`-coloring
/// of `graph`, or `None` when it can: it names at most `colors` vertices
/// of the graph, none twice, every two adjacent.
fn pin_defect(graph: &Graph, colors: usize, clique: &[usize]) -> Option<String> {
    if clique.len() > colors {
        return Some(format!("{} clique pins outnumber the {colors} colors", clique.len()));
    }
    let n = graph.num_vertices();
    for (i, &v) in clique.iter().enumerate() {
        if v >= n {
            return Some(format!("pin {i} names vertex {v}, but the graph has {n} vertices"));
        }
        for &u in &clique[..i] {
            if u == v {
                return Some(format!("vertex {v} is pinned twice"));
            }
            if !graph.has_edge(u, v) {
                return Some(format!("pinned vertices {u} and {v} are not adjacent"));
            }
        }
    }
    None
}

/// Refutes (`chi`−1)-colorability of `graph` on its pure-CNF decision
/// encoding under the pins of `clique` ([`cnf_pins`]) as assumptions, then
/// checks that the logged proof derives "not every pin holds" from the
/// unmodified CNF. Pins that are not a clique fitting in `chi`−1 colors
/// are [`ProofStatus::Rejected`] before any solve: they could hide a
/// coloring.
///
/// With `workers > 1` this races that many [`certifier_config`] engines
/// as a one-query [`PortfolioSession::with_proof`], sharing learned
/// clauses and logging additions only into one [`SharedProof`] (see
/// there why the interleaved log stays checkable); the first definitive
/// answer cancels the rest, and a panicking worker dies alone. The
/// checker stops at the first derived empty clause.
fn refute_and_check(
    graph: &Graph,
    chi: usize,
    clique: &[usize],
    budget: &Budget,
    workers: usize,
) -> (ProofStatus, Option<DratProof>) {
    let colors = chi - 1;
    if let Some(defect) = pin_defect(graph, colors, clique) {
        return (ProofStatus::Rejected { error: format!("clique pins refused: {defect}") }, None);
    }
    let (num_vars, clauses) = cnf_decision_formula(graph, colors);
    let pins = cnf_pins(colors, clique);
    let shared = SharedProof::new();
    let solve_start = Instant::now();
    let (outcome, exhaust) = if workers <= 1 {
        let mut engine = certifier(num_vars, &clauses, Box::new(shared.clone()));
        let outcome = engine.solve_with_assumptions(&pins, budget);
        (outcome, engine.stats().exhaust)
    } else {
        let mut formula = PbFormula::with_vars(num_vars);
        for c in &clauses {
            formula.add_clause(c.iter().copied());
        }
        let configs: Vec<_> = (0..workers).map(certifier_config).collect();
        let answer = PortfolioSession::with_proof(&formula, &configs, &shared)
            .expect("workers > 1")
            .query(&pins, budget);
        (answer.outcome, answer.stats.exhaust)
    };
    let solve_seconds = solve_start.elapsed().as_secs_f64();
    let goal: Vec<Lit> = pins.iter().map(|&p| !p).collect();
    check_outcome(outcome, exhaust, chi, num_vars, &clauses, &goal, shared.take(), solve_seconds)
}

/// Certifies an exact chromatic-number result.
///
/// Returns `None` when `result` is only a bound (there is no optimum to
/// certify). For an exact result this verifies the witness syntactically
/// and attempts a checked refutation of (χ−1)-colorability on the pure-CNF
/// decision encoding, with the graph's greedy clique pinned to the first
/// colors (see the module docs) — independent of whatever encoding and
/// solver produced `result`.
///
/// A [`ProofStatus::Rejected`] status (checker refused the proof, or the
/// certifying solver *satisfied* the χ−1 formula) means the claimed optimum
/// is unsupported and should be treated as a bug.
pub fn certify_result(
    graph: &Graph,
    result: &ChromaticResult,
    budget: &Budget,
) -> Option<OptimalityCertificate> {
    certify_result_parallel(graph, result, budget, 1)
}

/// [`certify_result`] with the refutation raced across `workers`
/// diversified CDCL solvers sharing learned clauses; the first definitive
/// answer cancels the rest. `workers ≤ 1` is exactly the sequential
/// [`certify_result`].
///
/// All workers log clause additions into one shared DRAT log through
/// adds-only loggers, so the combined log stays checkable whichever
/// worker wins — deletions are suppressed because one worker's deletion
/// could strip a clause a peer's later addition resolves on, and RUP
/// checking is monotone in the clause database.
pub fn certify_result_parallel(
    graph: &Graph,
    result: &ChromaticResult,
    budget: &Budget,
    workers: usize,
) -> Option<OptimalityCertificate> {
    let (chi, witness) = match result {
        ChromaticResult::Exact { chromatic_number, witness } => (*chromatic_number, witness),
        ChromaticResult::Bounded { .. } => return None,
    };
    let witness_verified = witness.is_proper(graph) && witness.num_colors() == chi;
    let (unsat, proof, clique) = if chi <= 1 {
        let status = ProofStatus::Trivial {
            reason: "χ ≤ 1: there is no smaller color count to refute".into(),
        };
        (status, None, Vec::new())
    } else {
        let mut clique = greedy_clique(graph);
        clique.truncate(chi - 1);
        let (status, proof) = refute_and_check(graph, chi, &clique, budget, workers);
        (status, proof, clique)
    };
    Some(OptimalityCertificate {
        chromatic_number: chi,
        witness: witness.clone(),
        witness_verified,
        unsat,
        clique,
        proof,
    })
}

/// Computes the chromatic number and certifies it in one call.
///
/// Runs [`chromatic_number`] with `options`, then [`certify_result`] under
/// the same budget — raced across [`SolveOptions::portfolio_workers`]
/// clause-sharing solvers when the options ask for a portfolio, sequential
/// otherwise. The certificate is `None` exactly when the search only
/// bounded χ.
///
/// # Panics
///
/// Panics if `graph` has no vertices or `options.k == 0` (as
/// [`chromatic_number`] does).
pub fn chromatic_number_certified(
    graph: &Graph,
    options: &SolveOptions,
) -> (ChromaticResult, Option<OptimalityCertificate>) {
    let result = chromatic_number(graph, options);
    let workers = options.portfolio_workers().unwrap_or(1);
    let certificate = certify_result_parallel(graph, &result, &options.budget, workers);
    (result, certificate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sbp::SbpMode;
    use sbgc_graph::gen::{mycielski, queens};

    fn certify(graph: &Graph, k: usize) -> OptimalityCertificate {
        let (result, cert) = chromatic_number_certified(graph, &SolveOptions::new(k));
        assert!(result.exact().is_some(), "expected an exact result");
        cert.expect("exact result must yield a certificate")
    }

    #[test]
    fn complete_graph_certificate_checks() {
        let cert = certify(&Graph::complete(4), 6);
        assert_eq!(cert.chromatic_number, 4);
        assert!(cert.witness_verified);
        assert!(matches!(cert.unsat, ProofStatus::Checked { .. }), "{}", cert.unsat);
        assert!(cert.is_certified());
        assert!(cert.proof.is_some());
    }

    #[test]
    fn odd_cycle_certificate_checks() {
        let cert = certify(&Graph::cycle(7), 4);
        assert_eq!(cert.chromatic_number, 3);
        assert!(cert.is_certified());
    }

    #[test]
    fn mycielski_certificate_checks() {
        let cert = certify(&mycielski(3), 6);
        assert_eq!(cert.chromatic_number, 4);
        assert!(cert.is_certified());
        if let ProofStatus::Checked { adds, .. } = cert.unsat {
            assert!(adds > 0, "a nontrivial refutation must contain lemmas");
        }
    }

    #[test]
    fn queens5_certificate_checks() {
        let cert = certify(&queens(5, 5), 6);
        assert_eq!(cert.chromatic_number, 5);
        assert!(cert.is_certified());
    }

    #[test]
    fn edgeless_graph_is_trivially_certified() {
        let cert = certify(&Graph::empty(3), 3);
        assert_eq!(cert.chromatic_number, 1);
        assert!(matches!(cert.unsat, ProofStatus::Trivial { .. }));
        assert!(cert.is_certified());
        assert!(cert.proof.is_none());
    }

    #[test]
    fn certificate_is_independent_of_sbp_mode() {
        // Whatever (possibly SBP-heavy) flow produced the result, the
        // certificate re-derives optimality on the SBP-free encoding.
        let g = mycielski(3);
        for mode in [SbpMode::Li, SbpMode::NuSc] {
            let opts = SolveOptions::new(6).with_sbp_mode(mode);
            let (result, cert) = chromatic_number_certified(&g, &opts);
            assert_eq!(result.exact(), Some(4), "{mode}");
            assert!(cert.expect("certificate").is_certified(), "{mode}");
        }
    }

    #[test]
    fn bounded_results_yield_no_certificate() {
        let g = queens(6, 6);
        let opts = SolveOptions::new(7).with_budget(Budget::unlimited().with_max_conflicts(1));
        let (result, cert) = chromatic_number_certified(&g, &opts);
        if result.exact().is_none() {
            assert!(cert.is_none());
        }
    }

    #[test]
    fn overclaimed_optimum_is_rejected() {
        // Claim χ = 4 for an even cycle (true χ = 2): the certifying solver
        // finds a 3-coloring of the "χ−1" formula and must flag the claim.
        let g = Graph::cycle(6);
        let bogus = ChromaticResult::Exact {
            chromatic_number: 4,
            witness: Coloring::new(vec![0, 1, 2, 3, 0, 1]),
        };
        let cert = certify_result(&g, &bogus, &Budget::unlimited()).expect("exact claim");
        assert!(matches!(cert.unsat, ProofStatus::Rejected { .. }), "{}", cert.unsat);
        assert!(!cert.is_certified());
    }

    #[test]
    fn overclaimed_optimum_is_rejected_by_the_racing_certifier() {
        // The same bogus claim through three racing workers: whichever one
        // finds the 3-coloring, the claim is disproved, not left unchecked.
        let g = Graph::cycle(6);
        let bogus = ChromaticResult::Exact {
            chromatic_number: 4,
            witness: Coloring::new(vec![0, 1, 2, 3, 0, 1]),
        };
        let cert = certify_result_parallel(&g, &bogus, &Budget::unlimited(), 3).expect("exact");
        assert!(matches!(cert.unsat, ProofStatus::Rejected { .. }), "{}", cert.unsat);
        assert!(cert.proof.is_none());
    }

    /// Certifies the claim χ(`graph`) = `k` + 1 with `workers` solvers,
    /// that is, refutes `k`-colorability. The claim's witness is a
    /// placeholder: these tests look only at the refutation.
    fn refute(graph: &Graph, k: usize, budget: &Budget, workers: usize) -> OptimalityCertificate {
        let claim = ChromaticResult::Exact {
            chromatic_number: k + 1,
            witness: Coloring::new(vec![0; graph.num_vertices()]),
        };
        certify_result_parallel(graph, &claim, budget, workers).expect("an exact claim")
    }

    #[test]
    fn racing_certificate_checks_with_sharing() {
        // Four diversified, clause-sharing workers append into one
        // adds-only DRAT log; the interleaved proof must still replay
        // through the independent checker, whichever worker won.
        let cert = refute(&queens(5, 5), 4, &Budget::unlimited(), 4);
        match cert.unsat {
            ProofStatus::Checked { adds, .. } => {
                assert!(adds > 0, "a nontrivial refutation must contain lemmas");
            }
            other => panic!("expected Checked, got {other}"),
        }
        let proof = cert.proof.expect("refutation");
        assert_eq!(proof.num_deletes(), 0, "racing proofs are adds-only");
    }

    #[test]
    fn racing_certificate_agrees_with_sequential() {
        for workers in [1, 2, 3] {
            let cert = refute(&mycielski(3), 3, &Budget::unlimited(), workers);
            let status = cert.unsat;
            assert!(matches!(status, ProofStatus::Checked { .. }), "workers={workers}: {status}");
        }
    }

    #[test]
    fn portfolio_options_race_the_certificate() {
        // chromatic_number_certified with parallelism > 1 must route the
        // refutation through the racing path and still certify.
        let g = mycielski(3);
        let opts = SolveOptions::new(6).with_parallelism(3);
        let (result, cert) = chromatic_number_certified(&g, &opts);
        assert_eq!(result.exact(), Some(4));
        let cert = cert.expect("certificate");
        assert!(cert.is_certified(), "{}", cert.unsat);
    }

    #[test]
    fn certifier_worker_zero_runs_the_pbs2_preset() {
        let (num_vars, clauses) = cnf_decision_formula(&Graph::complete(3), 2);
        let engine = certifier(num_vars, &clauses, Box::new(SharedProof::new()));
        assert_eq!(Some(engine.config()), SolverKind::PbsII.engine_config());
        assert_eq!(engine.num_vars(), num_vars);
        assert_ne!(certifier_config(1), engine.config(), "racing workers are diversified");
    }

    /// [`check_outcome`] for a claimed χ = 3 of a triangle, whose
    /// certifying solve answered `outcome` with an empty log and no
    /// exhaustion reason.
    fn check_triangle(outcome: SolveOutcome) -> (ProofStatus, Option<DratProof>) {
        let (num_vars, clauses) = cnf_decision_formula(&Graph::complete(3), 2);
        check_outcome(outcome, None, 3, num_vars, &clauses, &[], DratProof::new(), 0.0)
    }

    #[test]
    fn unsat_outcome_with_a_non_refuting_log_is_rejected() {
        // An engine claiming UNSAT whose log does not derive the empty
        // clause must not be certified.
        let (status, proof) = check_triangle(SolveOutcome::Unsat);
        assert!(matches!(status, ProofStatus::Rejected { .. }), "{status}");
        assert!(proof.is_some(), "the rejected log is kept for inspection");
    }

    #[test]
    fn budget_exhaustion_reports_unchecked() {
        // The sequential engine and a three-worker race both name the
        // budget dimension that stopped them.
        let budget = Budget::unlimited().with_max_conflicts(0);
        for workers in [1, 3] {
            match refute(&queens(6, 6), 6, &budget, workers).unsat {
                ProofStatus::Unchecked { reason } => {
                    assert!(reason.contains("budget exhausted (conflicts)"), "{reason}");
                }
                other => panic!("workers={workers}: expected Unchecked, got {other}"),
            }
        }
    }

    #[test]
    fn undecided_race_without_survivors_says_so() {
        // A race answers Unknown with no exhaustion reason only when every
        // worker died; the status must say so, not blame the budget.
        let (status, proof) = check_triangle(SolveOutcome::Unknown);
        match status {
            ProofStatus::Unchecked { reason } => {
                assert!(reason.contains("no certifying worker survived"), "{reason}");
            }
            other => panic!("expected Unchecked, got {other}"),
        }
        assert!(proof.is_none());
    }

    #[test]
    fn model_of_the_smaller_formula_disproves_the_claim() {
        // A model of the 2-coloring CNF refutes the claimed χ = 3 outright:
        // the status is Rejected, never Unchecked, and keeps no proof.
        let (num_vars, _) = cnf_decision_formula(&Graph::complete(3), 2);
        let model = sbgc_formula::Assignment::new(num_vars);
        let (status, proof) = check_triangle(SolveOutcome::Sat(model));
        match status {
            ProofStatus::Rejected { error } => {
                assert!(error.contains("(2)-colorable"), "{error}");
                assert!(error.contains("χ = 3"), "{error}");
            }
            other => panic!("expected Rejected, got {other}"),
        }
        assert!(proof.is_none());
    }

    #[test]
    fn unsat_outcome_with_a_refuting_log_is_checked() {
        // The sequential certifier's own log for K4 at three colors: the
        // status reports the checker's counts and the proof's size, carries
        // the solve time through, and the proof is kept for archiving.
        let (num_vars, clauses) = cnf_decision_formula(&Graph::complete(4), 3);
        let shared = SharedProof::new();
        let mut engine = certifier(num_vars, &clauses, Box::new(shared.clone()));
        let outcome = engine.solve_with_budget(&Budget::unlimited());
        assert!(matches!(outcome, SolveOutcome::Unsat), "{outcome:?}");
        let log = shared.take();
        let (status, proof) =
            check_outcome(outcome, None, 4, num_vars, &clauses, &[], log.clone(), 0.5);
        match status {
            ProofStatus::Checked { steps, adds, deletes, literals, solve_seconds, .. } => {
                assert!(adds > 0 && steps == adds + deletes, "{steps} = {adds} + {deletes}");
                assert!(steps <= log.len());
                assert_eq!(literals, log.total_literals());
                assert_eq!(solve_seconds, 0.5);
            }
            other => panic!("expected Checked, got {other}"),
        }
        assert_eq!(proof, Some(log));
    }

    #[test]
    fn bounded_claims_are_not_certified() {
        // A bracket is not an optimum: neither certifier has anything to
        // refute, so no certificate comes back and no solve runs.
        let g = mycielski(4);
        let bounded = ChromaticResult::Bounded {
            lower: 3,
            upper: 6,
            witness: Coloring::new((0..g.num_vertices()).map(|v| v % 6).collect()),
        };
        for workers in [1, 3] {
            let cert = certify_result_parallel(&g, &bounded, &Budget::unlimited(), workers);
            assert!(cert.is_none(), "workers={workers}");
        }
    }

    #[test]
    fn improper_witness_is_not_verified() {
        // The refutation of 2-coloring C5 checks, but the witness gives
        // vertices 3, 4 and 0 one color: the certificate must not hold.
        let g = Graph::cycle(5);
        let claim = ChromaticResult::Exact {
            chromatic_number: 3,
            witness: Coloring::new(vec![0, 1, 2, 0, 0]),
        };
        let cert = certify_result(&g, &claim, &Budget::unlimited()).expect("exact claim");
        assert!(matches!(cert.unsat, ProofStatus::Checked { .. }), "{}", cert.unsat);
        assert!(!cert.witness_verified);
        assert!(!cert.is_certified());
    }

    #[test]
    fn witness_with_more_colors_than_claimed_is_not_verified() {
        // A proper 4-coloring does not witness χ = 3, even though the
        // refutation of 2-coloring checks.
        let g = Graph::cycle(5);
        let witness = Coloring::new(vec![0, 1, 2, 3, 1]);
        assert!(witness.is_proper(&g));
        let claim = ChromaticResult::Exact { chromatic_number: 3, witness };
        let cert = certify_result(&g, &claim, &Budget::unlimited()).expect("exact claim");
        assert!(cert.unsat.is_verified(), "{}", cert.unsat);
        assert!(!cert.witness_verified);
        assert!(!cert.is_certified());
    }

    #[test]
    fn a_caller_witness_with_a_huge_color_is_counted() {
        // Colors are only labels: {0, 1, usize::MAX} 3-colors a triangle.
        let claim = ChromaticResult::Exact {
            chromatic_number: 3,
            witness: Coloring::new(vec![0, usize::MAX, 1]),
        };
        let cert =
            certify_result(&Graph::complete(3), &claim, &Budget::unlimited()).expect("exact");
        assert!(cert.witness_verified);
        assert!(cert.is_certified(), "{}", cert.unsat);
    }

    #[test]
    fn status_display_names_each_outcome() {
        // These are the words table1 --certify prints after "unsat".
        let checked = ProofStatus::Checked {
            steps: 5,
            adds: 4,
            deletes: 1,
            literals: 9,
            solve_seconds: 0.0,
            check_seconds: 0.0,
        };
        assert_eq!(checked.to_string(), "checked (5 steps: 4 adds, 1 deletes)");
        let trivial = ProofStatus::Trivial { reason: "χ ≤ 1".into() };
        assert_eq!(trivial.to_string(), "trivial (χ ≤ 1)");
        let reason = "budget exhausted (time) before a refutation was found";
        let unchecked = ProofStatus::Unchecked { reason: reason.into() };
        assert_eq!(unchecked.to_string(), format!("unchecked ({reason})"));
        let rejected = ProofStatus::Rejected { error: "step 3".into() };
        assert_eq!(rejected.to_string(), "REJECTED (step 3)");
        let verified: Vec<bool> =
            [checked, trivial, unchecked, rejected].iter().map(ProofStatus::is_verified).collect();
        assert_eq!(verified, [true, true, false, false]);
    }

    #[test]
    fn pins_that_could_hide_a_coloring_are_rejected() {
        // The path 0 − 1 − 2 is 2-colorable, so the claim χ = 3 is false.
        // Pins on the non-adjacent ends or on one vertex twice would make
        // the 2-coloring CNF UNSAT under them, and three pins need a third
        // color: each is refused before any solve, by either certifier.
        let path = Graph::from_edges(3, [(0, 1), (1, 2)]);
        for (pins, defect) in [
            (&[0, 2][..], "pinned vertices 0 and 2 are not adjacent"),
            (&[1, 1], "vertex 1 is pinned twice"),
            (&[0, 1, 2], "3 clique pins outnumber the 2 colors"),
            (&[0, 3], "pin 1 names vertex 3, but the graph has 3 vertices"),
        ] {
            for workers in [1, 3] {
                let (status, proof) =
                    refute_and_check(&path, 3, pins, &Budget::unlimited(), workers);
                match status {
                    ProofStatus::Rejected { error } => assert!(error.contains(defect), "{error}"),
                    other => panic!("{pins:?}, workers={workers}: expected Rejected, got {other}"),
                }
                assert!(proof.is_none(), "{pins:?}, workers={workers}");
            }
        }
        // Pinning a real clique, an edge, the solver finds the 2-coloring.
        let (status, _) = refute_and_check(&path, 3, &[1, 2], &Budget::unlimited(), 1);
        match status {
            ProofStatus::Rejected { error } => assert!(error.contains("(2)-colorable"), "{error}"),
            other => panic!("expected Rejected, got {other}"),
        }
    }

    #[test]
    fn certificate_names_its_pinned_clique() {
        // K4 at three colors pins three of its four clique vertices, in
        // color order; a certificate that needs no proof pins nothing.
        let cert = certify(&Graph::complete(4), 6);
        assert_eq!(cert.clique, [0, 1, 2]);
        let g = queens(5, 5);
        let cert = certify(&g, 6);
        assert!(cert.is_certified(), "{}", cert.unsat);
        assert_eq!(cert.clique.len(), 4, "queen5_5's 5-clique, cut to χ−1 = 4 pins");
        assert_eq!(pin_defect(&g, 4, &cert.clique), None);
        assert!(certify(&Graph::empty(3), 3).clique.is_empty());
    }

    #[test]
    fn zero_and_one_worker_log_the_same_sequential_proof() {
        // `workers ≤ 1` is the sequential certifier, and that certifier is
        // deterministic: the same claim yields the same proof step for step.
        let proofs: Vec<DratProof> = [0, 1, 1]
            .into_iter()
            .map(|workers| {
                let cert = refute(&mycielski(3), 3, &Budget::unlimited(), workers);
                assert!(cert.unsat.is_verified(), "workers={workers}: {}", cert.unsat);
                cert.proof.expect("refutation")
            })
            .collect();
        assert_eq!(proofs[0], proofs[1]);
        assert_eq!(proofs[1], proofs[2]);
    }
}
