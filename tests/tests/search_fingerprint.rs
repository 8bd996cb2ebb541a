//! Search fingerprints: the exact engine counters of fixed, deterministic
//! runs.
//!
//! Every number below was measured on the code before the flat clause
//! storage landed, and a change to how clauses are stored, copied or
//! indexed must leave each one as it is: the same clause order, literal
//! order and watch order give the same search, conflict for conflict.
//! Seconds cannot show that on a shared host; these counters can.
//!
//! A change that does move one of these numbers changes the search. It
//! must say which numbers moved, and why, in CHANGES.md, and update them
//! here in the same commit: ROADMAP item 3's rule for any change that
//! moves a counter baseline.
//!
//! The three families cover the three ways the engine is driven:
//!
//! * the sequential ValPrec ladder (`ladder-seq`'s options: K cap 30,
//!   heuristics off, one worker) — incremental assumption queries with
//!   root units committed between them;
//! * the certifier's refutation of χ−1 on the pure-CNF encoding under the
//!   clique pins, replayed through the proof checker (`certify`'s suite
//!   anchors) — a proof logger attached;
//! * the fixed-K optimization with Shatter's instance-dependent SBPs
//!   (`detect-k20`'s options on `myciel3`) — PB optimization without
//!   assumptions.

use sbgc_core::{
    certify_result, chromatic_number_outcome, try_solve_coloring, ChromaticResult, ProofStatus,
    SbpMode, SolveOptions,
};
use sbgc_graph::{gen, suite, Graph};
use sbgc_obs::{Counter, Recorder};
use sbgc_pb::Budget;

/// The engine counters a fingerprint pins: conflicts, propagations,
/// decisions, learned and deleted clauses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Search {
    conflicts: u64,
    propagations: u64,
    decisions: u64,
    learned: u64,
    deleted: u64,
}

/// `(conflicts, propagations, decisions, learned, deleted)`.
impl From<(u64, u64, u64, u64, u64)> for Search {
    fn from(
        (conflicts, propagations, decisions, learned, deleted): (u64, u64, u64, u64, u64),
    ) -> Self {
        Search { conflicts, propagations, decisions, learned, deleted }
    }
}

impl Search {
    fn of(recorder: &Recorder) -> Search {
        Search {
            conflicts: recorder.counter(Counter::Conflicts),
            propagations: recorder.counter(Counter::Propagations),
            decisions: recorder.counter(Counter::Decisions),
            learned: recorder.counter(Counter::Learned),
            deleted: recorder.counter(Counter::Deleted),
        }
    }
}

/// `ladder-seq`'s options: the sequential ValPrec ladder, K cap 30.
fn ladder_options() -> SolveOptions {
    SolveOptions::new(30)
        .with_sbp_mode(SbpMode::ValuePrec)
        .with_parallelism(1)
        .with_heuristics(false)
}

/// Runs the sequential ladder on `graph` and returns its exact result
/// with the search counters of every query.
fn ladder(graph: &Graph) -> (ChromaticResult, Search) {
    let recorder = Recorder::new();
    let options = ladder_options().with_recorder(recorder.clone());
    let outcome = chromatic_number_outcome(graph, &options).expect("the ladder runs");
    assert!(outcome.exact().is_some(), "the ladder decides χ");
    (outcome.result, Search::of(&recorder))
}

#[test]
fn valprec_ladder_search_is_unchanged() {
    // myciel5 and G(55, 0.35) #15 run long enough to reduce and compact
    // the learned-clause database; the other three never reach it.
    let cases = [
        ("myciel4", suite::build("myciel4").graph, 5, (86, 2_214, 101, 85, 0)),
        ("myciel5", suite::build("myciel5").graph, 6, (7_890, 356_038, 10_435, 7_889, 4_489)),
        ("G(55, 0.35) #15", gen::gnp(55, 0.35, 15), 8, (4_353, 309_108, 5_635, 4_352, 1_846)),
        ("G(55, 0.35) #23", gen::gnp(55, 0.35, 23), 8, (586, 44_713, 823, 585, 0)),
        ("G(55, 0.35) #24", gen::gnp(55, 0.35, 24), 8, (387, 29_786, 591, 386, 0)),
    ];
    for (name, graph, chi, expected) in cases {
        let (result, search) = ladder(&graph);
        assert_eq!(result.exact(), Some(chi), "{name}");
        assert_eq!(search, Search::from(expected), "{name}");
    }
}

#[test]
fn certifier_proofs_are_unchanged() {
    // (steps, adds, deletes, literals) of the checked derivation.
    let cases = [
        ("myciel4", (224, 224, 0, 3_270)),
        ("queen5_5", (2, 2, 0, 9)),
        ("DSJC125.1", (29, 29, 0, 416)),
    ];
    for (name, expected) in cases {
        let graph = suite::build(name).graph;
        let (result, _) = ladder(&graph);
        let cert = certify_result(&graph, &result, &Budget::unlimited()).expect("exact result");
        assert!(cert.is_certified(), "{name}: {}", cert.unsat);
        let ProofStatus::Checked { steps, adds, deletes, literals, .. } = cert.unsat else {
            panic!("{name}: {}", cert.unsat);
        };
        assert_eq!((steps, adds, deletes, literals), expected, "{name}");
    }
}

#[test]
fn shatter_optimization_search_is_unchanged() {
    let graph = suite::build("myciel3").graph;
    let recorder = Recorder::new();
    let options =
        SolveOptions::new(20).with_instance_dependent_sbps().with_recorder(recorder.clone());
    let report = try_solve_coloring(&graph, &options).expect("fixed-K solve runs");
    assert_eq!(report.outcome.colors(), Some(4));
    assert!(report.outcome.is_decided());
    assert_eq!(Search::of(&recorder), Search::from((170, 16_096, 2_099, 169, 0)));
}
