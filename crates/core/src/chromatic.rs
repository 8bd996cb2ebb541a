//! Exact chromatic numbers via the paper's K-selection procedure.
//!
//! Since the persistent-session refactor, the default path for every
//! CDCL-backed configuration (including the portfolio) is the
//! *incremental ladder*: encode once at `K = min(options.k, DSATUR)`,
//! then walk the upper bound down with assumption queries against
//! long-lived solver state ([`crate::session::ColoringSession`]). Learned
//! clauses survive from one ladder step to the next instead of being
//! re-derived per K. The ladder's rung loop is written once, here, and
//! both [`chromatic_number_outcome`] and [`crate::solve_supervised`] run
//! it. With heuristics on (the default), the heuristic race of
//! [`crate::heuristics`] runs *alongside* the ladder on scoped threads,
//! both sides tightening one shared, validated bracket. The one-shot
//! optimization run remains for the CPLEX baseline and for
//! instance-dependent (Shatter) SBPs, which the session cannot drive
//! soundly (see `DESIGN.md` §4g); that fallback is the one path that
//! still runs the race first.

use crate::error::SolveError;
use crate::flow::{try_solve_coloring, ColoringOutcome, SolveOptions};
use crate::heuristics::{race_alongside, Bracket};
use crate::session::{ColoringSession, SessionAnswer};
use sbgc_graph::{algo, Coloring, Graph};
use sbgc_obs::{LadderStepTelemetry, Recorder};
use sbgc_pb::{Budget, ExhaustReason};
use std::time::Instant;

/// Cheap combinatorial bounds on the chromatic number.
#[derive(Clone, Debug)]
pub struct ChromaticBounds {
    /// Clique lower bound (greedy max clique).
    pub lower: usize,
    /// DSATUR upper bound.
    pub upper: usize,
    /// The DSATUR coloring that witnesses the upper bound.
    pub witness: Coloring,
}

/// Computes the clique lower bound and DSATUR upper bound — step 1 of the
/// paper's per-instance K-selection procedure (Section 4.1).
pub fn bounds(graph: &Graph) -> ChromaticBounds {
    bounds_with_clique(graph).0
}

/// [`bounds`] together with the greedy clique behind its lower bound, for
/// callers that also hand the clique to the session's SBP vertex order —
/// one DSATUR run and one clique search per solve.
pub(crate) fn bounds_with_clique(graph: &Graph) -> (ChromaticBounds, Vec<usize>) {
    let witness = algo::dsatur(graph);
    let clique = algo::greedy_clique(graph);
    let lower = clique.len().max(usize::from(graph.num_vertices() > 0));
    (ChromaticBounds { lower, upper: witness.num_colors(), witness }, clique)
}

/// The one-shot greedy [`bounds`], tightened by running the heuristic
/// race of [`crate::heuristics`] to completion when `options.heuristics`
/// allows it (the default). The race's TabuCol and PartialCol descents
/// cap the upper bound below DSATUR and its clique search lifts the lower
/// bound beyond the greedy clique; every heuristic result is re-validated
/// against the graph before it may tighten the bracket (see `DESIGN.md`
/// §4i).
///
/// This is the race-first order the CPLEX/Shatter optimization fallback
/// of [`chromatic_number_outcome`] starts from; the session ladder races
/// the heuristics alongside its queries instead.
///
/// # Errors
///
/// [`SolveError::BoundContradiction`] if the tightened bracket crosses
/// (`upper < lower`) — impossible while both validators are sound, so it
/// is surfaced instead of being clamped away.
fn initial_bounds(graph: &Graph, options: &SolveOptions) -> Result<ChromaticBounds, SolveError> {
    let b = bounds(graph);
    if !options.heuristics || b.lower >= b.upper {
        return Ok(b);
    }
    let h = crate::heuristics::race_heuristics(graph, options, &b);
    if h.upper < h.lower {
        return Err(SolveError::BoundContradiction {
            lower: h.lower,
            upper: h.upper,
            detail: "heuristic race produced a crossed bracket".to_string(),
        });
    }
    Ok(ChromaticBounds { lower: h.lower, upper: h.upper, witness: h.witness })
}

/// Result of [`chromatic_number`].
#[derive(Clone, Debug)]
pub enum ChromaticResult {
    /// Chromatic number determined exactly, with a witness coloring.
    Exact {
        /// χ(G).
        chromatic_number: usize,
        /// A proper coloring using χ(G) colors.
        witness: Coloring,
    },
    /// The budget ran out; χ is within the given (inclusive) bounds.
    Bounded {
        /// Best known lower bound.
        lower: usize,
        /// Best known upper bound, witnessed by `witness`.
        upper: usize,
        /// A proper coloring using `upper` colors.
        witness: Coloring,
    },
}

impl ChromaticResult {
    /// The answer a proven bracket `[lower, upper]` gives, witnessed by
    /// `witness`: exact once collapsed, bounded otherwise.
    pub(crate) fn from_bracket(lower: usize, upper: usize, witness: Coloring) -> Self {
        if lower >= upper {
            ChromaticResult::Exact { chromatic_number: upper, witness }
        } else {
            ChromaticResult::Bounded { lower, upper, witness }
        }
    }

    /// The exact chromatic number, if determined.
    pub fn exact(&self) -> Option<usize> {
        match self {
            ChromaticResult::Exact { chromatic_number, .. } => Some(*chromatic_number),
            ChromaticResult::Bounded { .. } => None,
        }
    }

    /// The best witness coloring available.
    pub fn witness(&self) -> &Coloring {
        match self {
            ChromaticResult::Exact { witness, .. } | ChromaticResult::Bounded { witness, .. } => {
                witness
            }
        }
    }

    /// The proven inclusive bracket `[lower, upper]` on χ — collapsed to a
    /// point for exact results. Even a budget-starved run returns an
    /// honest bracket: the lower bound is proven (clique or refutation),
    /// the upper bound is witnessed by a verified coloring.
    pub fn bracket(&self) -> (usize, usize) {
        match self {
            ChromaticResult::Exact { chromatic_number, .. } => {
                (*chromatic_number, *chromatic_number)
            }
            ChromaticResult::Bounded { lower, upper, .. } => (*lower, *upper),
        }
    }
}

/// Result of [`chromatic_number_outcome`]: the chromatic answer plus the
/// reason the search stopped when it did not finish. Degrading gracefully
/// means a budget-starved query still returns everything it proved — the
/// bracket, the witness, and *which* limit stopped it.
#[derive(Clone, Debug)]
pub struct ChromaticOutcome {
    /// The chromatic answer (exact or bracketed).
    pub result: ChromaticResult,
    /// Why the search stopped early, when `result` is bounded because a
    /// limit was hit; `None` for exact results and for brackets that are
    /// final for other reasons (e.g. a K-cap below χ).
    pub exhaust: Option<ExhaustReason>,
}

impl ChromaticOutcome {
    /// The exact chromatic number, if determined.
    pub fn exact(&self) -> Option<usize> {
        self.result.exact()
    }

    /// The best witness coloring available.
    pub fn witness(&self) -> &Coloring {
        self.result.witness()
    }

    /// The proven inclusive bracket `[lower, upper]` on χ.
    pub fn bracket(&self) -> (usize, usize) {
        self.result.bracket()
    }
}

/// Computes the chromatic number exactly, following the paper's procedure:
/// take the DSATUR upper bound as K (clamped by `options.k` if smaller),
/// then search. By default the heuristic race of [`crate::heuristics`]
/// tightens the greedy bracket from both sides while the search runs
/// (disable with [`SolveOptions::without_heuristics`] for the pure paper
/// procedure).
///
/// For every CDCL-backed configuration the search is *incremental*: one
/// [`ColoringSession`] is built at `K = min(options.k, DSATUR bound − 1)`
/// and the color budget is tightened by **assuming** the usage indicators
/// `y[target..K]` false, one step at a time — so clauses learned while
/// proving "not (target)-colorable-with-these-assumptions" are reused by
/// every later query (the incremental-SAT refinement of the paper's
/// Section 4.1 procedure). Instance-independent SBPs are compatible with
/// the suffix assumptions: they only ever *prefer* low color indices.
/// With [`SolveOptions::parallelism`] above 1 the ladder runs a
/// *persistent* portfolio — one long-lived engine per worker thread, all
/// racing each ladder query with clause sharing. Only the CPLEX baseline
/// (no incremental interface) and instance-dependent (Shatter) SBPs fall
/// back to one exact-optimization run, after the heuristic race. The clique bound can certify
/// optimality without search.
///
/// `options.k` acts as a cap (like the paper's K = 20 application bound);
/// the effective K is `min(options.k, DSATUR bound − 1)` — the
/// largest color count any ladder query can ask for.
///
/// # Panics
///
/// Panics if `options.k == 0` or the graph has no vertices. Use
/// [`chromatic_number_outcome`] for the non-panicking form (which also
/// reports why a bounded search stopped).
pub fn chromatic_number(graph: &Graph, options: &SolveOptions) -> ChromaticResult {
    chromatic_number_outcome(graph, options).unwrap_or_else(|e| panic!("{e}")).result
}

/// [`chromatic_number`] with typed errors and graceful degradation: input
/// failures (empty graph, zero K) become [`SolveError`]s, and when the
/// budget runs out the returned [`ChromaticOutcome`] carries both the
/// proven `[lower, upper]` bracket and the [`ExhaustReason`] that stopped
/// the search.
///
/// On the session path with heuristics on, the three heuristic workers
/// race on scoped threads while the ladder queries on the calling thread,
/// over one shared bracket (see [`crate::heuristics`] for the
/// cancellation rules). χ is the same as with heuristics off; the
/// witness, the ladder's steps and the race's telemetry depend on thread
/// timing.
pub fn chromatic_number_outcome(
    graph: &Graph,
    options: &SolveOptions,
) -> Result<ChromaticOutcome, SolveError> {
    if graph.num_vertices() == 0 {
        return Err(SolveError::EmptyGraph);
    }
    if options.k == 0 {
        return Err(SolveError::ZeroColorBound);
    }
    let incremental = ColoringSession::supports(options);
    let (b, clique) = if incremental {
        bounds_with_clique(graph)
    } else {
        (initial_bounds(graph, options)?, Vec::new())
    };
    if b.lower >= b.upper {
        // The bracket is already collapsed (DSATUR met the clique bound,
        // or the fallback's heuristic race closed the gap): provably
        // optimal without any exact search.
        return Ok(ChromaticOutcome {
            result: ChromaticResult::Exact { chromatic_number: b.upper, witness: b.witness },
            exhaust: None,
        });
    }
    if !incremental {
        return chromatic_number_via_optimization(graph, options, b);
    }
    let bracket = Bracket::new(graph, &b);
    let ladder = || {
        let mut session = ColoringSession::new_with(graph, options, 0, b.upper, &clique)?;
        // One wall-clock for the whole ladder: arming the deadline here (it
        // arms once) makes every step share it.
        let budget = options.budget.started();
        run_ladder(&mut session, &bracket, &budget, &mut 0, &options.recorder, |_, _| Ok(()))?
            .outcome(&bracket)
    };
    if options.heuristics {
        race_alongside(options, &bracket, ladder)
    } else {
        ladder()
    }
}

/// The pre-session path: one `try_solve_coloring` optimization run at
/// `K = min(options.k, DSATUR)`. Still the only option for the CPLEX
/// baseline and for instance-dependent SBPs.
fn chromatic_number_via_optimization(
    graph: &Graph,
    options: &SolveOptions,
    b: ChromaticBounds,
) -> Result<ChromaticOutcome, SolveError> {
    let k = b.upper.min(options.k);
    // When the cap is below the known-feasible bound, the search below can
    // still determine χ exactly if χ ≤ k.
    let mut opts = options.clone();
    opts.k = k;
    let report = try_solve_coloring(graph, &opts)?;
    let exhaust = report.exhaust;
    let result = match report.outcome {
        ColoringOutcome::Optimal { coloring, colors } => {
            if colors < b.lower {
                return Err(SolveError::BoundContradiction {
                    lower: b.lower,
                    upper: colors,
                    detail: "optimal witness below the proven clique bound".to_string(),
                });
            }
            ChromaticResult::Exact { chromatic_number: colors, witness: coloring }
        }
        ColoringOutcome::InfeasibleAtK => {
            // χ > k; DSATUR's bound stands as the upper bound. When the
            // cap was below the clique bound, k + 1 would *regress* the
            // already-known lower bound — keep the max of the two.
            ChromaticResult::Bounded {
                lower: (k + 1).max(b.lower),
                upper: b.upper,
                witness: b.witness,
            }
        }
        ColoringOutcome::Feasible { coloring, colors } => {
            collapse_feasible(graph, b.lower, coloring, colors)?
        }
        ColoringOutcome::Unknown => {
            ChromaticResult::Bounded { lower: b.lower, upper: b.upper, witness: b.witness }
        }
    };
    // An exact answer supersedes any limit hit along the way.
    let exhaust = if result.exact().is_some() { None } else { exhaust };
    Ok(ChromaticOutcome { result, exhaust })
}

/// Collapses a budget-starved *feasible* answer onto the proven bracket.
///
/// A witness that meets the clique lower bound proves optimality even
/// though the solver ran out of budget — but only after re-validation.
/// The previous behavior treated `colors <= lower` as `Exact`, which
/// would have laundered two distinct invariant violations into a fake
/// proof: a witness *below* a proven lower bound (one of the two
/// "proofs" must be wrong) and an improper witness whose color count
/// coincidentally matched. Both now surface as
/// [`SolveError::BoundContradiction`] (see `DESIGN.md` §4i).
fn collapse_feasible(
    graph: &Graph,
    lower: usize,
    coloring: Coloring,
    colors: usize,
) -> Result<ChromaticResult, SolveError> {
    if colors < lower {
        return Err(SolveError::BoundContradiction {
            lower,
            upper: colors,
            detail: "feasible witness below the proven clique bound".to_string(),
        });
    }
    if colors > lower {
        return Ok(ChromaticResult::Bounded { lower, upper: colors, witness: coloring });
    }
    // colors == lower: re-validate before promoting the bracket collapse
    // into an `Exact` claim.
    if coloring.num_vertices() == graph.num_vertices()
        && coloring.is_proper(graph)
        && coloring.num_colors() == colors
    {
        Ok(ChromaticResult::Exact { chromatic_number: colors, witness: coloring })
    } else {
        Err(SolveError::BoundContradiction {
            lower,
            upper: colors,
            detail: "feasible witness failed re-validation at bracket collapse".to_string(),
        })
    }
}

/// How [`run_ladder`] ended.
pub(crate) enum LadderEnd {
    /// No query can change the answer: the bracket is collapsed, or the
    /// K-cap left a final bracket.
    Settled,
    /// A limit stopped a query, for the reason the engine reported.
    Stopped(Option<ExhaustReason>),
}

impl LadderEnd {
    /// The chromatic answer `bracket` gives once the ladder ended this way.
    pub(crate) fn outcome(self, bracket: &Bracket<'_>) -> Result<ChromaticOutcome, SolveError> {
        let result = bracket.result()?;
        // An exact answer supersedes any limit hit along the way. A K-cap
        // bracket is final: the encoding cannot express more than k
        // colors, so the gap to the witness is not budget exhaustion.
        let exhaust = match self {
            LadderEnd::Stopped(reason) if result.exact().is_none() => reason,
            _ => None,
        };
        Ok(ChromaticOutcome { result, exhaust })
    }
}

/// The incremental ladder, the crate's one rung loop: `session` answers
/// every decision query `bracket` still needs, against persistent solver
/// state, under `budget`. Arm the budget once before the first call so
/// every query shares its deadline; conflict caps need no special
/// handling, since persistent engines count cumulatively and a cap bounds
/// the session's *total* work. Records one [`LadderStepTelemetry`] entry
/// per query on `recorder`, numbering the steps on from `*step`.
///
/// The bracket may be shared with the heuristic race: before each query
/// the ladder commits the bracket's validated upper bound into the
/// session, and after it publishes its own witness or refutation back.
/// A query the race makes moot mid-flight is recorded as `"moot"` and
/// followed by the bracket's new target, never reported as exhaustion.
///
/// `before_query` runs after that commit and before each query, with the
/// session and the query's step number; its error ends the ladder. The
/// supervisor writes its rung-boundary checkpoints there.
pub(crate) fn run_ladder(
    session: &mut ColoringSession<'_>,
    bracket: &Bracket<'_>,
    budget: &Budget,
    step: &mut u64,
    recorder: &Recorder,
    mut before_query: impl FnMut(&ColoringSession<'_>, u64) -> Result<(), SolveError>,
) -> Result<LadderEnd, SolveError> {
    let k = session.k();
    while let Some(query) = bracket.next_query(k)? {
        // Retire every color the validated incumbent already covers as
        // root-level units: these are the rungs a race incumbent lets the
        // ladder skip, and later queries run on a formula as tight as a
        // fresh encoding at their own width.
        session.commit_upper_bound(query.upper);
        before_query(session, *step)?;
        let started = Instant::now();
        let s = session.query(query.target, &budget.clone().with_cancel_token(query.token.clone()));
        let moot = matches!(s.answer, SessionAnswer::Unknown) && query.token.is_cancelled();
        recorder.record_ladder_step(LadderStepTelemetry {
            step: *step,
            target: query.target,
            outcome: match &s.answer {
                SessionAnswer::Colorable(_) => "sat",
                SessionAnswer::NotColorable { .. } => "unsat",
                SessionAnswer::Unknown if moot => "moot",
                SessionAnswer::Unknown => "unknown",
            }
            .to_string(),
            seconds: started.elapsed().as_secs_f64(),
            retained_clauses: s.retained_clauses,
            workers: s.workers,
        });
        *step += 1;
        match s.answer {
            SessionAnswer::Colorable(c) => bracket.publish_witness(c),
            SessionAnswer::NotColorable { .. } => bracket.publish_refutation(query.target),
            // The bracket moved past the target; ask for the next one.
            SessionAnswer::Unknown if moot => {}
            SessionAnswer::Unknown => return Ok(LadderEnd::Stopped(s.exhaust)),
        }
    }
    Ok(LadderEnd::Settled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sbp::SbpMode;
    use sbgc_graph::gen::{mycielski, queens};
    use sbgc_pb::Budget;

    #[test]
    fn known_chromatic_numbers() {
        let cases: [(&str, Graph, usize); 5] = [
            ("K4", Graph::complete(4), 4),
            ("C5", Graph::cycle(5), 3),
            ("C6", Graph::cycle(6), 2),
            ("myciel3", mycielski(3), 4),
            ("queen5_5", queens(5, 5), 5),
        ];
        for (name, g, expected) in cases {
            let result = chromatic_number(&g, &SolveOptions::new(20));
            assert_eq!(result.exact(), Some(expected), "{name}");
            assert!(result.witness().is_proper(&g), "{name}");
        }
    }

    #[test]
    fn clique_certificate_avoids_search() {
        // Complete graphs: clique bound == DSATUR bound, no solver needed.
        let g = Graph::complete(6);
        let result = chromatic_number(
            &g,
            &SolveOptions::new(20).with_budget(Budget::unlimited().with_max_conflicts(0)),
        );
        assert_eq!(result.exact(), Some(6));
    }

    #[test]
    fn cap_below_chi_reports_bounds() {
        // bounds() certifies K5 without search, so use a graph where
        // DSATUR overshoots: Mycielski-3 has clique 2 but χ = 4. A K-cap
        // of 3 refutes 3-colorability, so the lower bound must rise to 4;
        // whether that closes the bracket depends on the DSATUR witness
        // (4 colors → exact; more → a [4, upper] bracket).
        let g2 = mycielski(3);
        let result = chromatic_number(&g2, &SolveOptions::new(3));
        match result {
            ChromaticResult::Bounded { lower, upper, ref witness } => {
                assert_eq!(lower, 4);
                assert!(witness.is_proper(&g2));
                assert!(upper >= 4);
            }
            ChromaticResult::Exact { chromatic_number, ref witness } => {
                assert_eq!(chromatic_number, 4);
                assert!(witness.is_proper(&g2));
                assert_eq!(witness.num_colors(), 4);
            }
        }
    }

    #[test]
    fn infeasible_cap_keeps_clique_lower_bound() {
        // queens(6,6): clique bound 6, DSATUR bound 9. A cap of 4 is below
        // the clique bound; proving "not 4-colorable" must not *regress*
        // the reported lower bound to 5.
        // The clique bound already refutes every rung a 4-color encoding
        // can express, so the ladder must not run a single query.
        use sbgc_obs::Recorder;
        let g = queens(6, 6);
        let b = bounds(&g);
        assert!(b.lower >= 6, "test premise: clique bound is {}", b.lower);
        let recorder = Recorder::new();
        let opts = SolveOptions::new(4).with_recorder(recorder.clone());
        let out = chromatic_number_outcome(&g, &opts).expect("valid inputs");
        match out.result {
            ChromaticResult::Bounded { lower, upper, .. } => {
                assert!(lower >= b.lower, "lower bound regressed: {lower} < {}", b.lower);
                assert!(upper >= lower);
            }
            ChromaticResult::Exact { .. } => panic!("cap 4 cannot certify χ of queens(6,6)"),
        }
        assert_eq!(out.exhaust, None, "a K-cap bracket is final, not exhaustion");
        let steps = recorder.ladder_steps();
        assert!(steps.is_empty(), "no rung below the clique bound is queried: {steps:?}");
    }

    #[test]
    fn sbp_modes_do_not_change_chi() {
        let g = queens(5, 5);
        for mode in SbpMode::ALL {
            let result = chromatic_number(&g, &SolveOptions::new(20).with_sbp_mode(mode));
            assert_eq!(result.exact(), Some(5), "{mode}");
        }
    }

    #[test]
    fn incremental_agrees_with_optimization() {
        use sbgc_pb::SolverKind;
        for g in [Graph::cycle(5), mycielski(3), queens(4, 4), Graph::cycle(6)] {
            // The CPLEX baseline takes the one-shot optimization path.
            let oneshot = SolveOptions::new(20).with_solver(SolverKind::Cplex);
            let expected = chromatic_number(&g, &oneshot).exact();
            for mode in [SbpMode::None, SbpMode::Nu, SbpMode::NuSc] {
                let opts = SolveOptions::new(20).with_sbp_mode(mode);
                let result = chromatic_number(&g, &opts);
                assert_eq!(result.exact(), expected, "{mode}");
                assert!(result.witness().is_proper(&g), "{mode}");
            }
        }
    }

    #[test]
    fn incremental_on_queens() {
        let g = queens(5, 5);
        let result = chromatic_number(&g, &SolveOptions::new(20).with_sbp_mode(SbpMode::Nu));
        assert_eq!(result.exact(), Some(5));
    }

    #[test]
    fn incremental_cplex_falls_back() {
        use sbgc_pb::SolverKind;
        let g = mycielski(3);
        let opts = SolveOptions::new(20).with_solver(SolverKind::Cplex);
        let result = chromatic_number(&g, &opts);
        assert_eq!(result.exact(), Some(4));
    }

    #[test]
    fn incremental_portfolio_runs_in_session() {
        // The portfolio must drive the persistent session, not fall back
        // to one-shot optimization: the recorder's ladder telemetry only
        // exists on the session path, and it must show multiple workers.
        use sbgc_graph::gen::gnp;
        use sbgc_obs::Recorder;
        // χ = 7 with clique bound 6 and DSATUR bound 8: search needed.
        let g = gnp(24, 0.5, 3);
        let recorder = Recorder::new();
        // Heuristics off: the race could close the bracket by itself and
        // leave no ladder step for the assertions below.
        let opts = SolveOptions::new(20)
            .with_parallelism(4)
            .with_recorder(recorder.clone())
            .without_heuristics();
        let out = chromatic_number_outcome(&g, &opts).expect("valid inputs");
        assert_eq!(out.exact(), Some(7));
        let steps = recorder.ladder_steps();
        assert!(!steps.is_empty(), "session path must record ladder telemetry");
        assert!(steps.iter().all(|s| s.workers > 1), "portfolio session must race workers");
    }

    #[test]
    fn ladder_retains_clauses_across_steps() {
        use sbgc_graph::gen::gnp;
        use sbgc_obs::Recorder;
        // χ = 7, clique bound 6, DSATUR bound 8: the ladder runs a SAT
        // query at 7 and then an UNSAT query at 6 through the same engine.
        let g = gnp(24, 0.5, 3);
        let recorder = Recorder::new();
        // Heuristics off: a TabuCol incumbent at 7 would collapse the
        // ladder to a single UNSAT query and leave nothing to retain.
        let opts = SolveOptions::new(20).with_recorder(recorder.clone()).without_heuristics();
        let out = chromatic_number_outcome(&g, &opts).expect("valid inputs");
        assert_eq!(out.exact(), Some(7));
        let steps = recorder.ladder_steps();
        assert!(steps.len() >= 2, "expected a multi-step ladder, got {}", steps.len());
        assert_eq!(steps[0].retained_clauses, 0, "nothing to retain on the first query");
        assert!(
            steps[1..].iter().any(|s| s.retained_clauses > 0),
            "later ladder steps must reuse learned clauses: {steps:?}"
        );
    }

    #[test]
    fn empty_graph_is_a_typed_error() {
        let g = Graph::empty(0);
        let err = chromatic_number_outcome(&g, &SolveOptions::new(5)).unwrap_err();
        assert_eq!(err, SolveError::EmptyGraph);
    }

    #[test]
    fn zero_k_is_a_typed_error() {
        let g = Graph::cycle(5);
        let err = chromatic_number_outcome(&g, &SolveOptions::new(0)).unwrap_err();
        assert_eq!(err, SolveError::ZeroColorBound);
    }

    #[test]
    fn exhausted_search_returns_proven_bracket_and_reason() {
        // Mycielski-4: clique 2, χ = 5, DSATUR overshoots — search needed.
        let g = mycielski(4);
        let opts = SolveOptions::new(20).with_budget(Budget::unlimited().with_max_conflicts(1));
        let out = chromatic_number_outcome(&g, &opts).expect("valid inputs");
        match out.result {
            ChromaticResult::Bounded { lower, upper, ref witness } => {
                let (lo, hi) = out.bracket();
                assert_eq!((lo, hi), (lower, upper));
                assert!(lo <= 5 && hi >= 5, "bracket [{lo}, {hi}] must contain χ=5");
                assert!(witness.is_proper(&g), "upper bound must stay witnessed");
                assert_eq!(witness.num_colors(), hi);
                assert_eq!(out.exhaust, Some(ExhaustReason::Conflicts));
            }
            // A 1-conflict budget conceivably still decides; then no reason.
            ChromaticResult::Exact { chromatic_number, .. } => {
                assert_eq!(chromatic_number, 5);
                assert_eq!(out.exhaust, None);
            }
        }
    }

    #[test]
    fn exact_outcome_has_point_bracket_and_no_exhaust() {
        let g = queens(5, 5);
        let out = chromatic_number_outcome(&g, &SolveOptions::new(20)).expect("valid inputs");
        assert_eq!(out.exact(), Some(5));
        assert_eq!(out.bracket(), (5, 5));
        assert_eq!(out.exhaust, None);
        assert!(out.witness().is_proper(&g));
    }

    #[test]
    fn bounds_are_consistent() {
        for g in [Graph::cycle(7), mycielski(4), queens(4, 4)] {
            let b = bounds(&g);
            assert!(b.lower <= b.upper);
            assert!(b.witness.is_proper(&g));
            assert_eq!(b.witness.num_colors(), b.upper);
        }
    }

    #[test]
    fn initial_bounds_tighten_the_bracket_and_respect_the_flag() {
        let g = mycielski(4); // χ = 5; DSATUR may overshoot, greedy clique is 2.
        let base = bounds(&g);
        let off = initial_bounds(&g, &SolveOptions::new(20).without_heuristics())
            .expect("greedy bounds never contradict");
        assert_eq!(off.upper, base.upper, "the flag must restore the pure paper procedure");
        assert_eq!(off.lower, base.lower);
        let on = initial_bounds(&g, &SolveOptions::new(20)).expect("validated bounds");
        assert!(on.lower >= base.lower);
        assert!(on.upper <= base.upper, "heuristics must never loosen the bracket");
        assert_eq!(on.upper, 5, "TabuCol reliably lands χ(M4) = 5 on 23 vertices");
        assert!(on.witness.is_proper(&g));
        assert_eq!(on.witness.num_colors(), on.upper);
    }

    #[test]
    fn hybrid_search_agrees_and_records_heuristic_telemetry() {
        use sbgc_graph::gen::gnp;
        use sbgc_obs::Recorder;
        // χ = 7, greedy clique 6, DSATUR 8: the race has a rung to skip.
        // The race runs beside the ladder, so every assertion below must
        // hold under any interleaving of the two.
        let g = gnp(24, 0.5, 3);
        let base = bounds(&g);
        let exact_only = chromatic_number_outcome(&g, &SolveOptions::new(20).without_heuristics())
            .expect("valid inputs");
        let recorder = Recorder::new();
        let hybrid =
            chromatic_number_outcome(&g, &SolveOptions::new(20).with_recorder(recorder.clone()))
                .expect("valid inputs");
        assert_eq!(hybrid.exact(), exact_only.exact(), "hybrid must prove the same χ");
        assert!(hybrid.witness().is_proper(&g));
        assert_eq!(Some(hybrid.witness().num_colors()), hybrid.exact());
        let h = recorder.heuristics().expect("hybrid run records heuristics telemetry");
        assert_eq!(h.dsatur_upper, base.upper);
        assert_eq!(h.greedy_clique_lower, base.lower);
        assert!(h.upper <= base.upper);
        assert_eq!(h.rungs_skipped, h.dsatur_upper - h.upper);
        assert_eq!(h.workers, 3);
        assert_eq!(h.failed_workers, 0);
        assert_eq!(h.rejected_witnesses, 0);
        let steps = recorder.ladder_steps();
        assert!(steps.iter().all(|s| s.target < h.dsatur_upper), "{steps:?}");
        assert!(steps.iter().all(|s| s.outcome != "unknown"), "nothing ran out: {steps:?}");
        // A query the race made moot is followed by a lower target or by
        // the end of the ladder — never re-issued at the same target.
        for pair in steps.windows(2) {
            if pair[0].outcome == "moot" {
                assert!(pair[1].target < pair[0].target, "{steps:?}");
            }
        }
    }

    #[test]
    fn feasible_collapse_validates_the_witness() {
        let g = Graph::cycle(5); // χ = 3
        let proper = sbgc_graph::algo::dsatur(&g);
        assert_eq!(proper.num_colors(), 3);
        match collapse_feasible(&g, 3, proper.clone(), 3).expect("validated collapse") {
            ChromaticResult::Exact { chromatic_number, .. } => assert_eq!(chromatic_number, 3),
            other => panic!("expected exact, got {other:?}"),
        }
        match collapse_feasible(&g, 2, proper, 3).expect("honest bracket") {
            ChromaticResult::Bounded { lower, upper, .. } => assert_eq!((lower, upper), (2, 3)),
            other => panic!("expected bounded, got {other:?}"),
        }
    }

    #[test]
    fn feasible_collapse_below_lower_bound_is_a_contradiction() {
        // The old behavior reported `Exact { chromatic_number: 3 }` here:
        // a witness below a proven lower bound was laundered into a fake
        // optimality proof instead of being surfaced as an invariant
        // violation.
        let g = Graph::cycle(5);
        let proper = sbgc_graph::algo::dsatur(&g);
        let err = collapse_feasible(&g, 4, proper, 3).unwrap_err();
        assert!(matches!(err, SolveError::BoundContradiction { lower: 4, upper: 3, .. }), "{err}");
    }

    #[test]
    fn feasible_collapse_rejects_improper_and_miscounted_witnesses() {
        let g = Graph::cycle(5);
        // Improper witness whose color count matches the lower bound.
        let improper = Coloring::new(vec![0; 5]);
        let err = collapse_feasible(&g, 1, improper, 1).unwrap_err();
        assert!(matches!(err, SolveError::BoundContradiction { .. }), "{err}");
        // Proper witness whose actual color count contradicts the claim.
        let proper = sbgc_graph::algo::dsatur(&g); // 3 colors
        let err = collapse_feasible(&g, 2, proper, 2).unwrap_err();
        assert!(matches!(err, SolveError::BoundContradiction { .. }), "{err}");
    }
}
