//! The untraced operations: one library call each, timed from outside.

use crate::workloads::Op;
use sbgc_core::{
    chromatic_number_certified, chromatic_number_outcome, try_solve_coloring, ChromaticResult,
    ColoringOutcome, OptimalityCertificate, ProofStatus, SolveOptions,
};
use sbgc_graph::{Coloring, Graph};

/// What one operation established.
#[derive(Clone, Debug, Default)]
pub struct Answer {
    /// The χ it decided, with its witness coloring.
    pub decided: Option<(usize, Coloring)>,
    /// Why the operation failed: an error, an undecided result at its
    /// budget, or a missing certificate. A failed operation is censored.
    pub failure: Option<String>,
    /// Set when the operation claims something provably false.
    pub wrong: Option<String>,
}

impl Answer {
    /// A decided χ.
    pub fn exact(chi: usize, witness: Coloring) -> Self {
        Answer { decided: Some((chi, witness)), ..Answer::default() }
    }

    /// A failed operation.
    pub fn failed(reason: impl Into<String>) -> Self {
        Answer { failure: Some(reason.into()), ..Answer::default() }
    }

    /// A provably wrong claim.
    pub fn wrong(reason: impl Into<String>) -> Self {
        Answer { wrong: Some(reason.into()), ..Answer::default() }
    }

    /// The decided χ, if any.
    pub fn chi(&self) -> Option<usize> {
        self.decided.as_ref().map(|(chi, _)| *chi)
    }
}

/// Runs the workload's single user-facing call on `graph`.
pub fn run(op: Op, graph: &Graph, options: &SolveOptions) -> Answer {
    match op {
        Op::Chromatic { .. } => match chromatic_number_outcome(graph, options) {
            Ok(outcome) => chromatic_answer(outcome.result),
            Err(e) => Answer::failed(format!("error: {e}")),
        },
        Op::Detect => match try_solve_coloring(graph, options) {
            Ok(report) => detect_answer(report.outcome, options.k),
            Err(e) => Answer::failed(format!("error: {e}")),
        },
        Op::Certified => {
            let (result, certificate) = chromatic_number_certified(graph, options);
            certified_answer(result, certificate)
        }
    }
}

/// Maps a chromatic result: exact is decided, a bracket is undecided.
pub fn chromatic_answer(result: ChromaticResult) -> Answer {
    match result {
        ChromaticResult::Exact { chromatic_number, witness } => {
            Answer::exact(chromatic_number, witness)
        }
        ChromaticResult::Bounded { lower, upper, .. } => {
            Answer::failed(format!("undecided: χ in [{lower}, {upper}]"))
        }
    }
}

/// Maps a fixed-K optimization outcome. Every graph of the fixed-K
/// workload has χ ≤ K, so refuting K-colorability is a wrong answer.
pub fn detect_answer(outcome: ColoringOutcome, k: usize) -> Answer {
    match outcome {
        ColoringOutcome::Optimal { coloring, colors } => Answer::exact(colors, coloring),
        ColoringOutcome::InfeasibleAtK => Answer::wrong(format!("claims χ > {k}")),
        ColoringOutcome::Feasible { colors, .. } => {
            Answer::failed(format!("undecided: a {colors}-coloring, optimality unproven"))
        }
        ColoringOutcome::Unknown => Answer::failed("undecided: no coloring found"),
    }
}

/// Maps a certified result: the χ counts as decided, but the operation
/// fails unless the certificate checked; a rejected certificate is wrong.
pub fn certified_answer(
    result: ChromaticResult,
    certificate: Option<OptimalityCertificate>,
) -> Answer {
    let mut answer = chromatic_answer(result);
    let Some(chi) = answer.chi() else { return answer };
    match certificate {
        None => answer.failure = Some("exact result without a certificate".to_string()),
        Some(c) if c.chromatic_number != chi => {
            answer.wrong = Some(format!("certificate is for χ = {}", c.chromatic_number));
        }
        Some(c) if matches!(c.unsat, ProofStatus::Rejected { .. }) => {
            answer.wrong = Some(format!("certificate {}", c.unsat));
        }
        Some(c) if !c.is_certified() => answer.failure = Some(format!("uncertified: {}", c.unsat)),
        Some(_) => {}
    }
    answer
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use sbgc_core::certify_result;

    #[test]
    fn every_op_decides_a_small_graph() {
        let g = sbgc_graph::gen::mycielski(3); // χ = 4
        for w in &WORKLOADS {
            let answer = run(w.op, &g, &w.options());
            assert_eq!(answer.chi(), Some(4), "{}", w.name);
            assert!(answer.failure.is_none() && answer.wrong.is_none(), "{}", w.name);
        }
    }

    #[test]
    fn a_bracket_is_a_failure_and_a_refutation_below_k_is_wrong() {
        let g = Graph::complete(3);
        let bounded =
            ChromaticResult::Bounded { lower: 2, upper: 3, witness: Coloring::new(vec![0, 1, 2]) };
        assert!(chromatic_answer(bounded).failure.is_some());
        assert!(detect_answer(ColoringOutcome::InfeasibleAtK, 20).wrong.is_some());
        assert!(detect_answer(ColoringOutcome::Unknown, 20).failure.is_some());
        let exact =
            ChromaticResult::Exact { chromatic_number: 3, witness: Coloring::new(vec![0, 1, 2]) };
        let cert = certify_result(&g, &exact, &sbgc_core::Budget::unlimited());
        let answer = certified_answer(exact, cert);
        assert_eq!(answer.chi(), Some(3));
        assert!(answer.failure.is_none() && answer.wrong.is_none());
    }

    #[test]
    fn a_false_optimality_claim_is_caught_by_its_certificate() {
        // Claim χ(K3 minus an edge) = 3: the certifier finds a 2-coloring.
        let path = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let claim =
            ChromaticResult::Exact { chromatic_number: 3, witness: Coloring::new(vec![0, 1, 2]) };
        let cert = certify_result(&path, &claim, &sbgc_core::Budget::unlimited());
        assert!(certified_answer(claim, cert).wrong.is_some());
    }
}
