//! One persistent solver session per coloring instance.
//!
//! The paper's Section 4.1 procedure probes k-colorability down a ladder
//! of color counts. Re-encoding per probe throws away every learned
//! clause at each step; a [`ColoringSession`] instead encodes **once** at
//! `K = min(options.k, DSATUR bound − 1)` — the largest color count any
//! ladder query can ask for — and answers every query by
//! *assuming* the color-usage indicators `y[target..K]` false — the
//! MiniSat-family incremental-SAT interface. Clauses learned while
//! refuting one target (and clauses imported from portfolio peers) are
//! derived by resolution from the clause database alone, so they remain
//! valid for every later query, whatever its assumptions.
//!
//! The ladder's upper bound is monotone, and the session exploits that:
//! once a `u`-coloring is witnessed,
//! [`commit_upper_bound`](ColoringSession::commit_upper_bound) turns the
//! retired suffix `¬y[u−1..K]` into permanent root-level unit clauses —
//! propagated and simplified against once, instead of re-decided as
//! assumptions after every restart — so later (strictly lower) queries run
//! against a formula as tight as a fresh encoding at their own width,
//! *plus* everything already learned.
//!
//! # Why suffix assumptions are SBP-sound
//!
//! Every instance-independent SBP construction — the paper's `NU`, `CA`,
//! `LI`, `SC` and their combinations, and the post-paper `Orbitope` /
//! `ValuePrec` modes (see `crate::sbp`) — only ever *prefers low color
//! indices*: the symmetric solutions each predicate eliminates are
//! exactly those using a higher color index where a lower one would do.
//! (The complete constructions — `LI`, `LI-pfx`, `Orbitope`, `ValuePrec`
//! — keep precisely the first-occurrence representative, whose colors
//! form a prefix `0..t`; `NU`/`CA` order used colors into a prefix;
//! `SC` variants pin the lowest indices.) Assuming `¬y[j]` for the
//! **suffix** `j ∈ [target, K)` removes only colorings that use high
//! indices — and whenever such a coloring exists, its low-index
//! representative survives both the SBPs and the assumptions. So "UNSAT
//! under the suffix assumptions" really means "not `target`-colorable",
//! for every SBP mode. The argument never uses *which* vertex sequence a
//! first-occurrence form follows, so it holds for the clique-first order
//! the `LI-pfx`, `Orbitope` and `ValuePrec` constructions follow as for
//! any other fixed order. A new mode must keep this property: one that
//! preferred high color indices would have to be routed to per-k
//! re-encoding by [`ColoringSession::supports`]. Instance-dependent
//! (Shatter) SBPs carry no such guarantee — their lex-leader predicates
//! mention arbitrary detected symmetries, not the color-index order —
//! which is why `supports` excludes them.

use crate::chromatic::bounds_with_clique;
use crate::encode::ColoringEncoding;
use crate::error::SolveError;
use crate::flow::{SolveOptions, SymmetryHandling};
use crate::sbp::add_sbps_with_clique;
use sbgc_formula::Lit;
use sbgc_graph::{Coloring, Graph};
use sbgc_obs::{Phase, Recorder};
use sbgc_pb::{
    portfolio_configs, Budget, ExhaustReason, PbEngine, PortfolioSession, SharingConfig,
    SolveOutcome, SolverKind,
};

/// What one ladder query established.
#[derive(Clone, Debug)]
pub enum SessionAnswer {
    /// The graph is `target`-colorable; the coloring is decoded, verified
    /// proper, and compacted (so it may use fewer than `target` colors).
    Colorable(Coloring),
    /// The graph is **not** `target`-colorable: the formula refutes the
    /// suffix assumptions. `core` is the failed-assumption core the winning
    /// engine reported — the subset of `¬y[j]` literals the refutation
    /// actually used (empty when the refutation is assumption-free).
    NotColorable {
        /// Failed-assumption core (a subset of the query's assumptions).
        core: Vec<Lit>,
    },
    /// The budget ran out (or every portfolio worker died) before an
    /// answer.
    Unknown,
}

/// Everything one [`ColoringSession::query`] produced.
#[derive(Clone, Debug)]
pub struct SessionStep {
    /// The decision answer for this target.
    pub answer: SessionAnswer,
    /// Learned clauses alive in the session's engine(s) when the query
    /// started — solver state retained from earlier ladder steps (0 on the
    /// first query).
    pub retained_clauses: u64,
    /// Solver workers that served the query (1 for the sequential
    /// backend).
    pub workers: usize,
    /// Which budget dimension stopped an `Unknown` query; `None` for
    /// decided queries.
    pub exhaust: Option<ExhaustReason>,
}

enum SessionBackend {
    /// One long-lived [`PbEngine`].
    Sequential(Box<PbEngine>),
    /// A persistent portfolio: one long-lived engine per worker thread,
    /// racing each query (see [`PortfolioSession`]).
    Portfolio(PortfolioSession),
}

/// A persistent incremental coloring session: the instance is encoded
/// once, and the whole chromatic-number ladder is driven through
/// assumption queries against long-lived solver state.
///
/// Construct with [`ColoringSession::new`] (checking
/// [`ColoringSession::supports`] first), then call
/// [`query`](ColoringSession::query) with decreasing targets. The
/// `sbgc-core::chromatic` ladder (`chromatic_number_outcome` and friends)
/// drives this automatically for every supported configuration.
pub struct ColoringSession<'g> {
    backend: SessionBackend,
    encoding: ColoringEncoding,
    graph: &'g Graph,
    recorder: Recorder,
    k: usize,
    /// Largest target still queryable: `y[j]` for `j ∈ [ceiling, k)` has
    /// been committed false as permanent unit clauses (see
    /// [`ColoringSession::commit_upper_bound`]). Starts at `k`.
    ceiling: usize,
    /// The vertex order the SBP construction followed (empty for modes
    /// that follow none).
    sbp_order: Vec<usize>,
}

impl<'g> ColoringSession<'g> {
    /// Whether `options` names a configuration the session can drive
    /// incrementally: any CDCL solver, sequential or raced, with
    /// instance-independent SBPs only, in any mode (each is sound under
    /// the suffix assumptions; see the module docs). The CPLEX baseline
    /// has no incremental interface, and instance-dependent SBPs are not
    /// known to be sound under suffix assumptions.
    ///
    /// # Examples
    ///
    /// ```
    /// use sbgc_core::{ColoringSession, SbpMode, SolveOptions};
    ///
    /// // Every instance-independent mode — including the post-paper
    /// // Orbitope and ValuePrec — races through the session.
    /// let options = SolveOptions::new(8).with_sbp_mode(SbpMode::Orbitope);
    /// assert!(ColoringSession::supports(&options));
    ///
    /// // Instance-dependent (Shatter) SBPs are routed to per-k re-encoding.
    /// assert!(!ColoringSession::supports(&options.with_instance_dependent_sbps()));
    /// ```
    pub fn supports(options: &SolveOptions) -> bool {
        !matches!(options.solver, SolverKind::Cplex)
            && matches!(options.symmetry, SymmetryHandling::InstanceIndependentOnly)
    }

    /// Encodes `graph` once at `K = min(options.k, DSATUR bound − 1)`
    /// (the largest target the ladder can query — the DSATUR bound itself
    /// is already witnessed), adds
    /// the configured instance-independent SBPs, and builds the
    /// long-lived solver backend (a persistent portfolio when the options
    /// imply one, a single persistent engine otherwise). The portfolio
    /// workers read [`SolveOptions::fault`]: a scheduled worker panic
    /// fires at that 0-based query index, and stalled workers burn
    /// wall-clock from their scheduled query on.
    ///
    /// # Errors
    ///
    /// [`SolveError::EmptyGraph`] / [`SolveError::ZeroColorBound`] on
    /// degenerate inputs, [`SolveError::UnsupportedIncremental`] when
    /// [`ColoringSession::supports`] is false for `options`.
    pub fn new(graph: &'g Graph, options: &SolveOptions) -> Result<Self, SolveError> {
        let (b, clique) = bounds_with_clique(graph);
        Self::new_with(graph, options, 0, b.upper, &clique)
    }

    /// [`ColoringSession::new`] from bounds the caller already computed —
    /// the one-shot DSATUR bound `dsatur_upper` that sets the encoding
    /// width and the greedy `clique` that starts the SBP vertex order —
    /// plus a worker **seed offset**, the supervisor's rebuild interface.
    ///
    /// A retry after a watchdog trip rebuilds the session with a non-zero
    /// `seed_offset`, shifting every backend engine's diversification seed
    /// so the restarted search explores differently from the stalled one
    /// ("cancel, reseed, restart").
    pub(crate) fn new_with(
        graph: &'g Graph,
        options: &SolveOptions,
        seed_offset: u64,
        dsatur_upper: usize,
        clique: &[usize],
    ) -> Result<Self, SolveError> {
        if graph.num_vertices() == 0 {
            return Err(SolveError::EmptyGraph);
        }
        if options.k == 0 {
            return Err(SolveError::ZeroColorBound);
        }
        if !Self::supports(options) {
            return Err(SolveError::UnsupportedIncremental);
        }
        let recorder = options.recorder.clone();
        // Encode at the largest target the ladder can ever query: one
        // below the DSATUR bound (the bound itself is already witnessed,
        // so no query ever asks for it), clamped by the caller's cap. An
        // extra color layer would cost variables, conflict clauses and
        // SBP rows on every single query.
        let k = dsatur_upper.saturating_sub(1).max(1).min(options.k);
        let mut encoding = {
            let _span = recorder.span(Phase::Encode);
            ColoringEncoding::new(graph, k)
        };
        // The ladder asks decision queries; the `MIN Σ yᵢ` objective is
        // replaced by the suffix assumptions.
        encoding.formula_mut().clear_objective();
        let (_, sbp_order) = {
            let _span = recorder.span(Phase::Sbp);
            add_sbps_with_clique(&mut encoding, graph, options.sbp_mode, clique)
        };
        let backend = match options.portfolio_workers() {
            Some(n) => {
                let configs: Vec<_> = portfolio_configs(n)
                    .iter()
                    .map(|c| c.with_seed(c.seed.wrapping_add(seed_offset)))
                    .collect();
                let session =
                    PortfolioSession::new(encoding.formula(), &configs, &recorder, &options.fault)?;
                SessionBackend::Portfolio(session)
            }
            None => {
                let config =
                    options.solver.engine_config().expect("supports() admits only CDCL solvers");
                let config = config.with_seed(config.seed.wrapping_add(seed_offset));
                let mut engine = PbEngine::from_formula(encoding.formula(), config);
                engine.set_recorder(recorder.clone());
                SessionBackend::Sequential(Box::new(engine))
            }
        };
        Ok(ColoringSession { backend, encoding, graph, recorder, k, ceiling: k, sbp_order })
    }

    /// Informs the session that a `upper`-coloring has been witnessed, so
    /// no future query will ever ask for more than `upper − 1` colors. The
    /// session *commits* `¬y[j]` for the retired suffix `j ∈ [upper−1, k)`
    /// as permanent unit clauses in every backend engine. Returns how many
    /// color indicators were retired (0 when the bound changes nothing).
    ///
    /// This is the incremental ladder's edge over per-query assumptions:
    /// a root-level unit is propagated and simplified against once, while
    /// an assumption is re-decided after every restart. It is sound
    /// precisely because the ladder's upper bound is monotone — every
    /// future query's assumption set would contain these literals anyway —
    /// and it lowers [`ColoringSession::ceiling`] accordingly: queries
    /// above the new ceiling would be answered against the strengthened
    /// formula and are rejected.
    ///
    /// The witness does not have to come from the session itself: the
    /// hybrid chromatic search commits the *validated* incumbent of the
    /// heuristic race running beside it here before every query, so the
    /// exact ladder skips the rungs the race has already answered. Only
    /// re-validated colorings may reach this method — an unchecked upper
    /// bound would strengthen the formula unsoundly (see `DESIGN.md` §4i).
    pub fn commit_upper_bound(&mut self, upper: usize) -> usize {
        let new_ceiling = upper.saturating_sub(1).clamp(1, self.ceiling);
        if new_ceiling == self.ceiling {
            return 0;
        }
        let units: Vec<Lit> =
            (new_ceiling..self.ceiling).map(|j| self.encoding.y(j).negative()).collect();
        match &mut self.backend {
            SessionBackend::Sequential(engine) => {
                for &lit in &units {
                    engine.add_clause([lit]);
                }
            }
            SessionBackend::Portfolio(session) => session.commit_units(&units),
        }
        let retired = self.ceiling - new_ceiling;
        self.ceiling = new_ceiling;
        retired
    }

    /// The encoding width `K`: the largest color count the session can
    /// express. The first query may take any `target ≤ K`; `target == K`
    /// runs with no assumptions at all.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The largest target still queryable: `K` until
    /// [`commit_upper_bound`](ColoringSession::commit_upper_bound) retires
    /// part of the color suffix.
    pub fn ceiling(&self) -> usize {
        self.ceiling
    }

    /// The vertex order the session's SBP construction follows
    /// (`order[i]` is the vertex at position i; empty for modes that follow
    /// none). Learned clauses are only valid under the SBP clauses they
    /// were learned with, so checkpoints persist it beside the width.
    pub(crate) fn sbp_order(&self) -> &[usize] {
        &self.sbp_order
    }

    /// Workers still alive in the backend (always 1 for sequential).
    pub fn alive_workers(&self) -> usize {
        match &self.backend {
            SessionBackend::Sequential(_) => 1,
            SessionBackend::Portfolio(p) => p.alive_workers(),
        }
    }

    /// The diversification seed of each backend engine, in worker order
    /// (a single entry for the sequential backend) — persisted in
    /// checkpoints so a resume can diversify away from them.
    pub fn worker_seeds(&self) -> Vec<u64> {
        match &self.backend {
            SessionBackend::Sequential(engine) => vec![engine.config().seed],
            SessionBackend::Portfolio(p) => p.worker_seeds(),
        }
    }

    /// Exports the learned clauses worth persisting in a checkpoint:
    /// every clause that passes the default LBD/size share filter. For
    /// the portfolio backend this is the shared pool's snapshot (clauses
    /// already filtered at export time); for the sequential backend the
    /// engine's live learned clauses are filtered here. Each clause is
    /// entailed by the encoding plus the committed bounds (see the module
    /// docs), so it stays valid for any resumed query.
    pub fn export_learned(&self) -> Vec<(Vec<Lit>, u32)> {
        match &self.backend {
            SessionBackend::Sequential(engine) => engine.export_learned(SharingConfig::default()),
            SessionBackend::Portfolio(p) => p.export_clauses(),
        }
    }

    /// Imports externally supplied learned clauses (a resumed
    /// checkpoint's lemmas) into the backend and returns how many were
    /// accepted. The caller must have re-committed the bounds the clauses
    /// were learned under first — `supervisor::resume` does — or the
    /// import would be unsound.
    pub fn import_learned(&mut self, clauses: &[(Vec<Lit>, u32)]) -> usize {
        match &mut self.backend {
            SessionBackend::Sequential(engine) => {
                let before = engine.stats().imported;
                engine.import_learned(clauses);
                (engine.stats().imported - before) as usize
            }
            SessionBackend::Portfolio(p) => p.import_clauses(clauses),
        }
    }

    /// Asks "is the graph `target`-colorable?" against the persistent
    /// solver state by assuming `¬y[j]` for every `j ∈ [target, K)`.
    ///
    /// The budget keeps solver-side semantics: its deadline is armed on
    /// first use (arm it once before the ladder to give all steps one
    /// wall-clock), and conflict caps compare against *cumulative* engine
    /// conflicts, capping the session's total work.
    ///
    /// A SAT model that fails to decode to a proper coloring (which would
    /// indicate an encoding bug) degrades to [`SessionAnswer::Unknown`]
    /// rather than returning a wrong answer.
    ///
    /// # Panics
    ///
    /// Panics if `target` is 0 or exceeds [`ColoringSession::ceiling`]
    /// (colors above the ceiling are committed away and can no longer be
    /// queried).
    pub fn query(&mut self, target: usize, budget: &Budget) -> SessionStep {
        assert!(
            target >= 1 && target <= self.ceiling,
            "target {} out of 1..={} (k = {})",
            target,
            self.ceiling,
            self.k
        );
        // Literals in [ceiling, k) are already root-level units; only the
        // live suffix needs assuming.
        let assumptions: Vec<Lit> =
            (target..self.ceiling).map(|j| self.encoding.y(j).negative()).collect();
        let recorder = self.recorder.clone();
        let (outcome, core, retained, workers, exhaust) = match &mut self.backend {
            SessionBackend::Sequential(engine) => {
                let retained = engine.live_learned() as u64;
                let outcome = {
                    let _span = recorder.span(Phase::Solve);
                    engine.solve_with_assumptions(&assumptions, budget)
                };
                let core = match outcome {
                    SolveOutcome::Unsat => engine.assumption_core().to_vec(),
                    _ => Vec::new(),
                };
                let exhaust = engine.stats().exhaust;
                (outcome, core, retained, 1, exhaust)
            }
            SessionBackend::Portfolio(session) => {
                let out = {
                    let _span = recorder.span(Phase::Solve);
                    session.query(&assumptions, budget)
                };
                let workers = session.alive_workers();
                let exhaust = out.stats.exhaust;
                (out.outcome, out.core, out.retained_clauses, workers, exhaust)
            }
        };
        let (answer, exhaust) = match outcome {
            SolveOutcome::Sat(model) => {
                let _span = recorder.span(Phase::Verify);
                match self.encoding.decode(&model).filter(|c| c.is_proper(self.graph)) {
                    Some(coloring) => (SessionAnswer::Colorable(coloring.compacted()), None),
                    None => (SessionAnswer::Unknown, None),
                }
            }
            SolveOutcome::Unsat => (SessionAnswer::NotColorable { core }, None),
            SolveOutcome::Unknown => (SessionAnswer::Unknown, exhaust),
        };
        SessionStep { answer, retained_clauses: retained, workers, exhaust }
    }
}

impl std::fmt::Debug for ColoringSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let backend = match &self.backend {
            SessionBackend::Sequential(_) => "sequential".to_string(),
            SessionBackend::Portfolio(p) => format!("portfolio({} alive)", p.alive_workers()),
        };
        write!(f, "ColoringSession(k={}, backend={backend})", self.k)
    }
}
