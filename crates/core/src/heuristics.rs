//! Heuristic primal/dual bounds racing the exact search.
//!
//! The paper's K-selection procedure (Section 4.1) brackets χ with a
//! one-shot greedy pass: a greedy clique for the lower bound and DSATUR
//! for the upper bound. That bracket is what the exact ladder then has to
//! walk down rung by rung — every rung between DSATUR and χ is a full
//! incremental SAT query. This module tightens the bracket by racing
//! three local-search workers from `sbgc-heur` over one shared, validated
//! bracket:
//!
//! * **TabuCol** — reactive tabu search descending one color at a time
//!   below the bracket's upper bound;
//! * **PartialCol** — the partial-coloring variant of the same descent,
//!   attacking the identical targets from a different neighborhood;
//! * **clique search** — penalty-driven multi-restart clique growth that
//!   lifts the lower bound beyond the one-shot greedy clique.
//!
//! The workers run on scoped threads under the same discipline as the
//! CDCL portfolio (`sbgc-pb`): each body is wrapped in `catch_unwind` so
//! a panicking heuristic dies alone, shared state is locked
//! poison-tolerantly, and a race [`CancelToken`] stops the survivors.
//!
//! # Racing alongside the ladder
//!
//! On the session path, `chromatic_number_outcome` and `solve_supervised`
//! run the race *beside* the exact ladder, not ahead of it: the workers
//! start on scoped threads and the ladder queries on the calling thread,
//! both tightening the same bracket. A supervised solve keeps one race
//! across all its attempts, started from the greedy bracket or from a
//! resumed checkpoint's. Before every query the ladder commits the
//! bracket's validated incumbent into its session; after each query it
//! publishes its verified witness (the workers then retarget below it) or
//! its refutation (which raises the lower bound the workers stop at).
//! Each query's budget carries its own [`CancelToken`] beside the
//! caller's. The bracket's cancellation rules:
//!
//! * an update that leaves the in-flight target moot — target ≥ upper
//!   (a validated coloring already answers it) or target < lower —
//!   trips the query token, and the ladder moves on to the new target
//!   instead of reporting budget exhaustion;
//! * an update that collapses the bracket (`lower >= upper`, χ proven)
//!   trips the race token as well;
//! * the ladder's return trips the race token, whatever the reason (an
//!   unwinding panic included): the race never outlives the ladder.
//!
//! [`race_heuristics`] is the same race over a bracket no one else
//! touches: it runs the workers to completion and returns the tightened
//! bracket. The CPLEX/Shatter optimization fallback still runs it first.
//!
//! # Trust boundary
//!
//! Heuristic results are *suggestions*, not proofs. Everything a worker
//! offers is re-validated against the graph before it can touch the
//! shared bracket: colorings must be proper, cover every vertex, and use
//! exactly the claimed number of colors; cliques must be duplicate-free
//! and pairwise adjacent. A result that fails validation is rejected,
//! counted in [`HeuristicOutcome::rejected_witnesses`], and kills its
//! worker (an implementation that emits one improper coloring cannot be
//! trusted for the next one either). This matters because the validated
//! upper bound is later committed into the solver as root-level units
//! ([`crate::session::ColoringSession::commit_upper_bound`]) — an
//! unchecked bound would strengthen the formula unsoundly (see
//! `DESIGN.md` §4i). The ladder's own witnesses arrive verified by the
//! session, which decodes and checks every model.
//!
//! # Determinism
//!
//! Every worker is seeded by [`sbgc_heur::derive_seed`] from a fixed
//! stream constant and its worker index, runs a fixed iteration budget,
//! and uses no timing- or hash-order-dependent state. In
//! [`race_heuristics`], cancellation can only stop a worker *earlier*,
//! and fires only once the bracket is collapsed — a state no further
//! offer can improve — so the final `(lower, upper)` pair is identical
//! across runs on the same input. Beside the ladder, χ is just as
//! deterministic, but the witness, the ladder's steps and the race's
//! telemetry depend on thread timing.

use crate::chromatic::{ChromaticBounds, ChromaticResult};
use crate::error::SolveError;
use crate::flow::SolveOptions;
use sbgc_graph::{Coloring, Graph};
use sbgc_heur::{clique_search, derive_seed, partialcol, tabucol_from, SplitMix64};
use sbgc_obs::{FaultPlan, HeuristicsTelemetry, SearchCounters, WorkerTelemetry};
use sbgc_sat::CancelToken;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

/// Base of the per-worker seed derivation. The heuristic race has no
/// user-facing seed knob: reproducibility of the *default* configuration
/// is the point, so the base is a constant and workers differ only by
/// their index stream (see the module docs on determinism).
const SEED_BASE: u64 = 0x5bc0_c01a_b0a7_ed01;

/// The heuristic workers, by index: `0` = TabuCol, `1` = PartialCol,
/// `2` = clique search.
const WORKERS: [&str; 3] = ["tabucol", "partialcol", "clique"];

/// Iterations each descent worker may spend per target k.
fn iters_per_level(graph: &Graph) -> u64 {
    20_000 + 400 * graph.num_vertices() as u64
}

/// Restarts the clique worker may spend in total.
fn clique_restarts(graph: &Graph) -> u64 {
    64 + graph.num_vertices() as u64
}

/// The tightened bracket produced by [`race_heuristics`], together with
/// the fault-tolerance tallies the caller folds into telemetry.
#[derive(Clone, Debug)]
pub struct HeuristicOutcome {
    /// Best validated lower bound (size of `clique`).
    pub lower: usize,
    /// Best validated upper bound (colors used by `witness`).
    pub upper: usize,
    /// A re-validated proper coloring using exactly `upper` colors.
    pub witness: Coloring,
    /// A re-validated clique of size `lower` witnessing the lower bound.
    pub clique: Vec<usize>,
    /// Workers that died — by panic or by offering an invalid result.
    pub failed_workers: usize,
    /// Offers rejected at the trust boundary (improper colorings,
    /// non-cliques). Always `0` unless a worker is buggy or a
    /// [`SolveOptions::fault`] injected a corruption.
    pub rejected_witnesses: u64,
}

/// The validated chromatic bracket shared by the heuristic workers and,
/// on the session path, the exact ladder. The mutex and the cancel
/// tokens are the only state those threads share.
pub(crate) struct Bracket<'g> {
    graph: &'g Graph,
    /// The one-shot greedy bracket the race started from.
    seed_lower: usize,
    seed_upper: usize,
    state: Mutex<BracketState>,
    /// Stops the heuristic workers.
    race: CancelToken,
}

/// Invariant between lock acquisitions: `witness` is proper with `upper`
/// colors, `clique` is a real clique of at most `lower` vertices, and
/// `lower <= upper` unless `crossed` records the update that broke it —
/// impossible while every validator is sound, since a clique never
/// exceeds the size of any proper coloring.
struct BracketState {
    lower: usize,
    upper: usize,
    witness: Coloring,
    clique: Vec<usize>,
    /// The heuristic worker holding `upper` / `lower`; `None` while the
    /// seed bounds or a ladder answer hold it.
    upper_by: Option<usize>,
    lower_by: Option<usize>,
    /// The bounds heuristic workers alone moved the bracket to — what the
    /// race reports; a ladder answer is never credited to it.
    race_upper: usize,
    race_lower: usize,
    rejected: u64,
    /// The ladder's in-flight query: its target and cancel token.
    query: Option<(usize, CancelToken)>,
    /// What crossed the bracket (`upper < lower`), once something has.
    crossed: Option<String>,
}

/// The ladder's next query, registered with the bracket by
/// [`Bracket::next_query`].
pub(crate) struct Query {
    /// The color count to query.
    pub target: usize,
    /// The validated upper bound when the query was registered; the
    /// ladder commits it into its session before querying.
    pub upper: usize,
    /// Tripped once a validated update makes `target` moot.
    pub token: CancelToken,
}

impl BracketState {
    /// Applies the cancellation rules after an update: a collapsed (or
    /// crossed) bracket stops the race, and any update that leaves the
    /// in-flight target outside `[lower, upper)` makes the query moot.
    fn settle(&mut self, race: &CancelToken) {
        if self.lower >= self.upper {
            race.cancel();
        }
        if let Some((target, token)) = &self.query {
            if *target >= self.upper || *target < self.lower {
                token.cancel();
            }
        }
    }

    fn contradiction(&self) -> Result<(), SolveError> {
        match &self.crossed {
            Some(detail) => Err(SolveError::BoundContradiction {
                lower: self.lower,
                upper: self.upper,
                detail: detail.clone(),
            }),
            None => Ok(()),
        }
    }
}

impl<'g> Bracket<'g> {
    /// A bracket seeded with `seed` (the one-shot greedy bounds).
    pub(crate) fn new(graph: &'g Graph, seed: &ChromaticBounds) -> Self {
        let race = CancelToken::new();
        if seed.lower >= seed.upper {
            race.cancel();
        }
        Bracket {
            graph,
            seed_lower: seed.lower,
            seed_upper: seed.upper,
            state: Mutex::new(BracketState {
                lower: seed.lower,
                upper: seed.upper,
                witness: seed.witness.clone(),
                clique: Vec::new(),
                upper_by: None,
                lower_by: None,
                race_upper: seed.upper,
                race_lower: seed.lower,
                rejected: 0,
                query: None,
                crossed: None,
            }),
            race,
        }
    }

    fn lock(&self) -> MutexGuard<'_, BracketState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Offers a heuristic worker's coloring. Validation happens here, at
    /// the boundary between untrusted worker output and trusted state;
    /// an invalid offer changes nothing but the rejection count and is
    /// reported back as a fatal error.
    pub(crate) fn offer_coloring(&self, worker: usize, coloring: Coloring) -> Result<(), String> {
        let coloring = coloring.compacted();
        if coloring.num_vertices() != self.graph.num_vertices() || !coloring.is_proper(self.graph) {
            self.lock().rejected += 1;
            return Err("improper coloring rejected at the trust boundary".to_string());
        }
        self.tighten_upper(Some(worker), coloring);
        Ok(())
    }

    /// Offers a heuristic worker's clique, same contract as
    /// [`Bracket::offer_coloring`].
    pub(crate) fn offer_clique(&self, worker: usize, clique: Vec<usize>) -> Result<(), String> {
        if !is_valid_clique(self.graph, &clique) {
            self.lock().rejected += 1;
            return Err("non-clique rejected at the trust boundary".to_string());
        }
        let size = clique.len();
        let mut s = self.lock();
        if size > s.lower {
            s.race_lower = size;
            s.lower_by = Some(worker);
            s.clique = clique;
            self.raise_lower(&mut s, size, "a validated clique");
        }
        Ok(())
    }

    /// Publishes the ladder's witness, already decoded and verified
    /// proper by the session.
    pub(crate) fn publish_witness(&self, coloring: Coloring) {
        self.tighten_upper(None, coloring);
    }

    /// Publishes the ladder's refutation of `target`: χ > `target`.
    pub(crate) fn publish_refutation(&self, target: usize) {
        let mut s = self.lock();
        if target + 1 > s.lower {
            s.lower_by = None;
            self.raise_lower(&mut s, target + 1, "a ladder refutation");
        }
    }

    fn tighten_upper(&self, by: Option<usize>, coloring: Coloring) {
        let colors = coloring.num_colors();
        let mut s = self.lock();
        if colors < s.upper {
            s.upper = colors;
            s.witness = coloring;
            s.upper_by = by;
            if by.is_some() {
                s.race_upper = colors;
            }
            if colors < s.lower && s.crossed.is_none() {
                let source = if by.is_some() { "heuristic" } else { "ladder" };
                s.crossed = Some(format!("{source} witness beat the proven lower bound"));
            }
        }
        s.settle(&self.race);
    }

    fn raise_lower(&self, s: &mut BracketState, lower: usize, source: &str) {
        s.lower = lower;
        if s.upper < lower && s.crossed.is_none() {
            s.crossed = Some(format!("{source} rose above the witnessed upper bound"));
        }
        s.settle(&self.race);
    }

    /// The current `(lower, upper)` pair.
    pub(crate) fn bounds(&self) -> (usize, usize) {
        let s = self.lock();
        (s.lower, s.upper)
    }

    /// Registers the ladder's next query — `target = min(upper − 1, k)`
    /// for an encoding of width `k` — and returns it with a fresh cancel
    /// token, or `None` once no query can change the answer: the bracket
    /// is collapsed, or the K-cap puts the target below the proven lower
    /// bound (a rung whose answer is already known).
    ///
    /// # Errors
    ///
    /// [`SolveError::BoundContradiction`] once the bracket has crossed.
    pub(crate) fn next_query(&self, k: usize) -> Result<Option<Query>, SolveError> {
        let mut s = self.lock();
        s.contradiction()?;
        let target = s.upper.saturating_sub(1).min(k);
        if target < s.lower {
            return Ok(None);
        }
        let token = CancelToken::new();
        s.query = Some((target, token.clone()));
        Ok(Some(Query { target, upper: s.upper, token }))
    }

    /// The bracket as a chromatic answer: exact once collapsed.
    ///
    /// # Errors
    ///
    /// [`SolveError::BoundContradiction`] once the bracket has crossed.
    pub(crate) fn result(&self) -> Result<ChromaticResult, SolveError> {
        let s = self.lock();
        s.contradiction()?;
        Ok(ChromaticResult::from_bracket(s.lower, s.upper, s.witness.clone()))
    }
}

fn panic_summary(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

/// Corrupts a coloring the way a buggy heuristic would: merge the two
/// endpoints of the first edge into one class, producing a monochromatic
/// edge. Used only under [`sbgc_obs::FaultPlan::improper_witness`] to
/// prove the trust boundary rejects it. Edge-free graphs are returned
/// unchanged (there is no way to make their colorings improper).
fn corrupt_coloring(graph: &Graph, coloring: Coloring) -> Coloring {
    let mut colors = coloring.colors().to_vec();
    for u in 0..graph.num_vertices() {
        if let Some(&v) = graph.neighbors(u).first() {
            colors[u] = colors[v as usize];
            return Coloring::new(colors);
        }
    }
    coloring
}

/// Re-validates a clique offer: in-range, duplicate-free, pairwise
/// adjacent.
fn is_valid_clique(graph: &Graph, clique: &[usize]) -> bool {
    let n = graph.num_vertices();
    if clique.iter().any(|&v| v >= n) {
        return false;
    }
    let mut sorted = clique.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted.len() != clique.len() {
        return false;
    }
    for (i, &u) in clique.iter().enumerate() {
        for &v in &clique[i + 1..] {
            if !graph.has_edge(u, v) {
                return false;
            }
        }
    }
    true
}

/// Collapses a proper coloring onto `k` classes to seed the next descent
/// level: vertices in classes `>= k` are reassigned uniformly at random.
/// The result is usually improper — that is the starting point TabuCol
/// repairs.
fn collapse_to_k(colors: &[usize], k: usize, rng: &mut SplitMix64) -> Vec<usize> {
    colors.iter().map(|&c| if c < k { c } else { rng.below(k as u64) as usize }).collect()
}

/// Descent loop shared by both coloring workers: repeatedly attack one
/// color below the bracket's upper bound until a level resists or the
/// bracket leaves nothing to attack.
fn descend(
    bracket: &Bracket<'_>,
    fault: &FaultPlan,
    worker: usize,
    attempt: &mut dyn FnMut(usize) -> Option<Coloring>,
) -> Result<(), String> {
    loop {
        let (lower, upper) = bracket.bounds();
        if upper <= 1 || upper - 1 < lower || bracket.race.is_cancelled() {
            return Ok(());
        }
        let Some(coloring) = attempt(upper - 1) else { return Ok(()) };
        let coloring = if fault.improper_witness(worker) {
            corrupt_coloring(bracket.graph, coloring)
        } else {
            coloring
        };
        bracket.offer_coloring(worker, coloring)?;
    }
}

/// Spawns the three heuristic workers on `scope`, racing over `bracket`
/// under the fault plan [`race_heuristics`] describes.
fn spawn_workers<'scope, 'env>(
    scope: &'scope Scope<'scope, 'env>,
    options: &'env SolveOptions,
    bracket: &'env Bracket<'env>,
) -> Vec<ScopedJoinHandle<'scope, WorkerRun>> {
    let graph = bracket.graph;
    let fault = &options.fault;
    let token = &bracket.race;
    let iters = iters_per_level(graph);
    let witness = bracket.lock().witness.clone();
    (0..WORKERS.len())
        .map(|index| {
            let witness = witness.clone();
            let worker_seed = derive_seed(SEED_BASE, index as u64);
            let panic_if_scheduled = move || {
                if fault.worker_panic(index).is_some() {
                    panic!("fault injection: heuristic worker {index} panics");
                }
            };
            scope.spawn(move || {
                let run_start = Instant::now();
                let body = catch_unwind(AssertUnwindSafe(|| match index {
                    0 => {
                        let mut rng = SplitMix64::new(worker_seed);
                        let mut current = witness.colors().to_vec();
                        descend(bracket, fault, index, &mut |target| {
                            panic_if_scheduled();
                            let start = collapse_to_k(&current, target, &mut rng);
                            let found =
                                tabucol_from(graph, target, start, &mut rng, iters, || {
                                    token.is_cancelled()
                                })?;
                            current = found.colors().to_vec();
                            Some(found)
                        })
                    }
                    1 => {
                        let mut stream = 0u64;
                        descend(bracket, fault, index, &mut |target| {
                            panic_if_scheduled();
                            let level_seed = derive_seed(worker_seed, stream);
                            stream += 1;
                            partialcol(graph, target, level_seed, iters, || token.is_cancelled())
                        })
                    }
                    _ => {
                        panic_if_scheduled();
                        let clique =
                            clique_search(graph, worker_seed, clique_restarts(graph), || {
                                token.is_cancelled()
                            });
                        bracket.offer_clique(index, clique)
                    }
                }));
                let failed = match body {
                    Ok(Ok(())) => None,
                    Ok(Err(message)) => Some(message),
                    Err(payload) => Some(panic_summary(payload.as_ref())),
                };
                (failed, run_start.elapsed())
            })
        })
        .collect()
}

/// How one heuristic worker ended: its failure, if it died, and its
/// wall-clock run time.
type WorkerRun = (Option<String>, Duration);

/// Joins the workers [`spawn_workers`] started and records their
/// telemetry plus the race summary, returning the failed-worker count.
fn join_workers(
    options: &SolveOptions,
    bracket: &Bracket<'_>,
    handles: Vec<ScopedJoinHandle<'_, WorkerRun>>,
    started: Instant,
) -> usize {
    // `catch_unwind` already contains worker panics; a join error would
    // mean the thread died outside its body.
    let runs: Vec<WorkerRun> = handles
        .into_iter()
        .map(|handle| {
            handle
                .join()
                .unwrap_or_else(|payload| (Some(panic_summary(payload.as_ref())), Duration::ZERO))
        })
        .collect();
    let failed_workers = runs.iter().filter(|(failed, _)| failed.is_some()).count();
    let recorder = &options.recorder;
    if recorder.is_enabled() {
        let seconds = started.elapsed().as_secs_f64();
        let s = bracket.lock();
        for (index, (failed, run_time)) in runs.into_iter().enumerate() {
            let kind = WORKERS[index];
            recorder.record_worker(WorkerTelemetry {
                index,
                kind: kind.to_string(),
                seed: derive_seed(SEED_BASE, index as u64),
                config: format!("{kind} (heuristic race)"),
                search: SearchCounters::default(),
                won: s.upper_by == Some(index) || s.lower_by == Some(index),
                cancel_latency: None,
                run_time,
                failed,
                query: None,
            });
        }
        recorder.record_heuristics(HeuristicsTelemetry {
            dsatur_upper: bracket.seed_upper,
            greedy_clique_lower: bracket.seed_lower,
            upper: s.race_upper,
            lower: s.race_lower,
            rungs_skipped: bracket.seed_upper - s.race_upper,
            workers: WORKERS.len(),
            rejected_witnesses: s.rejected,
            failed_workers: failed_workers as u64,
            seconds,
        });
    }
    failed_workers
}

/// Races the heuristic workers against each other to tighten `seed`
/// (the one-shot greedy bracket from [`crate::chromatic::bounds`]), over
/// a bracket no exact search touches, and returns once every worker has
/// finished.
///
/// The chaos suite schedules faults through [`SolveOptions::fault`] to
/// prove that panicking workers and improper witnesses are contained (see
/// `docs/ROBUSTNESS.md`). Worker indices for the plan: `0` = TabuCol,
/// `1` = PartialCol, `2` = clique search. A scheduled worker panic fires
/// when the worker starts a descent level (or its clique search); its
/// count is ignored.
pub fn race_heuristics(
    graph: &Graph,
    options: &SolveOptions,
    seed: &ChromaticBounds,
) -> HeuristicOutcome {
    let started = Instant::now();
    let bracket = Bracket::new(graph, seed);
    let failed_workers = std::thread::scope(|scope| {
        let handles = spawn_workers(scope, options, &bracket);
        join_workers(options, &bracket, handles, started)
    });
    let s = bracket.lock();
    HeuristicOutcome {
        lower: s.lower,
        upper: s.upper,
        witness: s.witness.clone(),
        clique: s.clique.clone(),
        failed_workers,
        rejected_witnesses: s.rejected,
    }
}

/// Runs `exact` on the calling thread while the heuristic workers race
/// over `bracket` on scoped threads, and stops the race when `exact`
/// returns or unwinds. The race's telemetry records only what heuristic
/// workers established, and its `seconds` is the race's wall time beside
/// `exact`.
pub(crate) fn race_alongside<T>(
    options: &SolveOptions,
    bracket: &Bracket<'_>,
    exact: impl FnOnce() -> T,
) -> T {
    /// Trips the race token when dropped, so a panic in `exact` stops the
    /// workers instead of waiting out their iteration budgets.
    struct StopRace<'a>(&'a CancelToken);
    impl Drop for StopRace<'_> {
        fn drop(&mut self) {
            self.0.cancel();
        }
    }
    let started = Instant::now();
    std::thread::scope(|scope| {
        let handles = spawn_workers(scope, options, bracket);
        let out = {
            let _stop = StopRace(&bracket.race);
            exact()
        };
        join_workers(options, bracket, handles, started);
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chromatic::bounds;
    use sbgc_graph::gen;
    use sbgc_obs::FaultPlan;

    fn options() -> SolveOptions {
        SolveOptions::new(8)
    }

    fn complete(n: usize) -> Graph {
        gen::complete_multipartite(&vec![1; n])
    }

    fn cycle(n: usize) -> Graph {
        Graph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n)))
    }

    /// Mycielski graphs keep the gap open (triangle-free, so clique
    /// search is stuck at 2-3 while χ grows), which makes the race fully
    /// deterministic: no cancellation can fire.
    #[test]
    fn race_tightens_the_dsatur_bracket_on_mycielski() {
        let g = gen::mycielski(4);
        let b = bounds(&g);
        let out = race_heuristics(&g, &options(), &b);
        assert!(out.upper <= b.upper, "heuristics must never loosen the bound");
        assert!(out.lower >= b.lower);
        assert!(out.lower <= out.upper);
        assert!(out.witness.is_proper(&g));
        assert_eq!(out.witness.num_colors(), out.upper);
        assert!(is_valid_clique(&g, &out.clique));
        assert_eq!(out.failed_workers, 0);
        assert_eq!(out.rejected_witnesses, 0);
        // χ(M4) = 5: TabuCol reliably lands the optimum on 23 vertices.
        assert_eq!(out.upper, 5);
    }

    #[test]
    fn race_closes_the_gap_on_complete_graphs() {
        let g = complete(7);
        let b = bounds(&g);
        // Greedy already closes K7; feed the race an artificially loose
        // bracket to prove it re-closes the gap from both sides.
        let loose = ChromaticBounds { lower: 2, upper: b.upper, witness: b.witness.clone() };
        let out = race_heuristics(&g, &options(), &loose);
        assert_eq!(out.lower, 7, "clique search must find K7 itself");
        assert_eq!(out.upper, 7);
        assert_eq!(out.clique.len(), 7);
    }

    #[test]
    fn race_is_deterministic_across_runs() {
        let g = gen::mycielski(3);
        let b = bounds(&g);
        let a = race_heuristics(&g, &options(), &b);
        let c = race_heuristics(&g, &options(), &b);
        assert_eq!(a.lower, c.lower);
        assert_eq!(a.upper, c.upper);
        assert_eq!(a.rejected_witnesses, c.rejected_witnesses);
        assert_eq!(a.failed_workers, c.failed_workers);
    }

    #[test]
    fn improper_witness_is_rejected_and_counted() {
        // A deliberately loose bracket on C5 (χ = 3, one color per vertex
        // as the witness) forces the TabuCol worker to find and offer an
        // improvement — which the fault plan then corrupts in flight.
        // PartialCol is retired at its first level: left running, it can
        // walk C5 down to χ before TabuCol's first offer, leaving nothing
        // to corrupt.
        let g = cycle(5);
        let b = ChromaticBounds { lower: 2, upper: 5, witness: Coloring::new((0..5).collect()) };
        assert!(b.witness.is_proper(&g));
        let plan = FaultPlan::new(7).with_improper_witness(0).with_worker_panic(1, 0);
        let out = race_heuristics(&g, &options().with_fault_plan(plan), &b);
        assert_eq!(out.rejected_witnesses, 1, "the corrupted offer must be rejected");
        assert_eq!(out.failed_workers, 2, "the untrustworthy worker is retired too");
        // The bracket stays sound: the seed bounds hold.
        assert!(out.witness.is_proper(&g));
        assert_eq!((out.lower, out.upper), (2, 5));
        assert_eq!(out.witness.num_colors(), out.upper);
    }

    #[test]
    fn panicking_worker_dies_alone() {
        let g = gen::mycielski(3);
        let b = bounds(&g);
        let opts = options().with_fault_plan(FaultPlan::new(3).with_worker_panic(2, 1));
        let out = race_heuristics(&g, &opts, &b);
        assert_eq!(out.failed_workers, 1);
        assert!(out.witness.is_proper(&g), "coloring workers keep racing");
        assert!(out.upper <= b.upper);
    }

    #[test]
    fn collapsed_seed_bracket_short_circuits() {
        let g = complete(5);
        let b = bounds(&g);
        assert_eq!(b.lower, b.upper);
        let out = race_heuristics(&g, &options(), &b);
        assert_eq!(out.lower, 5);
        assert_eq!(out.upper, 5);
    }

    #[test]
    fn corrupt_coloring_makes_a_monochromatic_edge() {
        let g = cycle(5);
        let proper = sbgc_graph::algo::dsatur(&g);
        assert!(proper.is_proper(&g));
        let bad = corrupt_coloring(&g, proper);
        assert!(!bad.is_proper(&g));
    }

    /// C5 (χ = 3) under a deliberately loose bracket `[lower, upper]`
    /// witnessed by one color per vertex collapsed onto `upper` classes.
    fn c5_bracket(graph: &Graph, lower: usize, upper: usize) -> Bracket<'_> {
        let witness = match upper {
            5 => Coloring::new(vec![0, 1, 2, 3, 4]),
            4 => Coloring::new(vec![0, 1, 2, 3, 1]),
            _ => Coloring::new(vec![0, 1, 0, 1, 2]),
        };
        assert!(witness.is_proper(graph) && witness.num_colors() == upper);
        Bracket::new(graph, &ChromaticBounds { lower, upper, witness })
    }

    fn expect_query(bracket: &Bracket<'_>, k: usize) -> Query {
        bracket.next_query(k).expect("bracket is sound").expect("bracket is open")
    }

    #[test]
    fn offer_at_or_below_the_in_flight_target_trips_the_query_token() {
        let g = cycle(5);
        let bracket = c5_bracket(&g, 2, 5);
        let q = expect_query(&bracket, 8);
        assert_eq!((q.target, q.upper), (4, 5));
        // Offers above the target, or no better than the bracket, leave
        // the query running.
        bracket.offer_coloring(0, Coloring::new(vec![0, 1, 2, 3, 4])).expect("proper");
        assert!(!q.token.is_cancelled());
        // A validated 4-coloring answers "is C5 4-colorable?".
        bracket.offer_coloring(0, Coloring::new(vec![0, 1, 2, 3, 1])).expect("proper");
        assert!(q.token.is_cancelled(), "target 4 is moot once upper is 4");
        assert!(!bracket.race.is_cancelled(), "the bracket [2, 4] is still open");
        // The next query moves to the new target; an offer below it
        // makes that one moot too.
        let q = expect_query(&bracket, 8);
        assert_eq!((q.target, q.upper), (3, 4));
        bracket.offer_coloring(1, sbgc_graph::algo::dsatur(&g)).expect("proper");
        assert!(q.token.is_cancelled());
        assert_eq!(bracket.bounds(), (2, 3));
    }

    #[test]
    fn refutation_that_collapses_the_bracket_trips_the_race_token() {
        let g = cycle(5);
        let bracket = c5_bracket(&g, 2, 3);
        let q = expect_query(&bracket, 8);
        assert_eq!(q.target, 2);
        bracket.publish_refutation(2);
        assert!(bracket.race.is_cancelled(), "χ = 3 is proven: the race must stop");
        assert!(q.token.is_cancelled());
        assert!(bracket.next_query(8).expect("sound").is_none(), "no rung is left");
        match bracket.result().expect("sound") {
            ChromaticResult::Exact { chromatic_number, witness } => {
                assert_eq!(chromatic_number, 3);
                assert!(witness.is_proper(&g));
            }
            other => panic!("expected exact, got {other:?}"),
        }
    }

    #[test]
    fn k_cap_below_the_lower_bound_issues_no_query() {
        let g = cycle(5);
        let bracket = c5_bracket(&g, 3, 5);
        // An encoding of width 2 cannot ask anything the lower bound 3
        // has not already answered.
        assert!(bracket.next_query(2).expect("sound").is_none());
        match bracket.result().expect("sound") {
            ChromaticResult::Bounded { lower, upper, .. } => assert_eq!((lower, upper), (3, 5)),
            other => panic!("expected the capped bracket, got {other:?}"),
        }
    }

    #[test]
    fn crossed_bracket_is_a_bound_contradiction() {
        let g = cycle(5);
        // A refutation above a witnessed upper bound crosses the bracket.
        let bracket = c5_bracket(&g, 2, 3);
        bracket.publish_refutation(3);
        assert!(bracket.race.is_cancelled());
        for err in [bracket.next_query(8).err(), bracket.result().err()] {
            assert!(
                matches!(err, Some(SolveError::BoundContradiction { lower: 4, upper: 3, .. })),
                "{err:?}"
            );
        }
        // So does a validated witness below a (bogus) proven lower bound.
        let bracket = c5_bracket(&g, 4, 5);
        let q = expect_query(&bracket, 8);
        bracket.offer_coloring(0, sbgc_graph::algo::dsatur(&g)).expect("proper");
        assert!(q.token.is_cancelled() && bracket.race.is_cancelled());
        let err = bracket.next_query(8).err();
        assert!(
            matches!(err, Some(SolveError::BoundContradiction { lower: 4, upper: 3, .. })),
            "{err:?}"
        );
    }

    #[test]
    fn rejected_offer_changes_nothing() {
        let g = cycle(5);
        let bracket = c5_bracket(&g, 2, 5);
        let q = expect_query(&bracket, 8);
        assert!(bracket.offer_coloring(0, Coloring::new(vec![0; 5])).is_err());
        assert!(bracket.offer_coloring(0, Coloring::new(vec![0, 1])).is_err(), "partial");
        assert!(bracket.offer_clique(2, vec![0, 1, 2]).is_err(), "a path is no triangle");
        assert_eq!(bracket.bounds(), (2, 5));
        assert!(!q.token.is_cancelled());
        assert!(!bracket.race.is_cancelled());
        let s = bracket.lock();
        assert_eq!(s.rejected, 3);
        assert_eq!(s.witness.num_colors(), 5);
        assert!(s.clique.is_empty());
        assert_eq!((s.upper_by, s.lower_by), (None, None));
    }

    #[test]
    fn ladder_answers_are_never_credited_to_the_race() {
        let g = cycle(5);
        let bracket = c5_bracket(&g, 2, 5);
        bracket.offer_coloring(0, Coloring::new(vec![0, 1, 2, 3, 1])).expect("proper");
        bracket.publish_witness(sbgc_graph::algo::dsatur(&g));
        bracket.publish_refutation(2);
        let s = bracket.lock();
        assert_eq!((s.lower, s.upper), (3, 3));
        assert_eq!((s.race_lower, s.race_upper), (2, 4), "only the heuristic 4-coloring");
        assert_eq!((s.upper_by, s.lower_by), (None, None), "the ladder holds both bounds");
    }

    #[test]
    fn exact_side_panic_stops_the_race() {
        // Mycielski-3 is triangle-free with χ = 4: the race alone never
        // collapses the bracket, so only the unwinding exact side can
        // trip the race token.
        let g = gen::mycielski(3);
        let bracket = Bracket::new(&g, &bounds(&g));
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            race_alongside(&options(), &bracket, || panic!("exact side dies"))
        }));
        assert!(unwound.is_err(), "the exact side's panic propagates");
        assert!(bracket.race.is_cancelled(), "the race must stop when the exact side unwinds");
    }

    #[test]
    fn clique_validation_rejects_non_cliques() {
        let g = cycle(6);
        assert!(is_valid_clique(&g, &[0, 1]));
        assert!(!is_valid_clique(&g, &[0, 1, 2]), "a path is not a triangle");
        assert!(!is_valid_clique(&g, &[0, 0]), "duplicates are rejected");
        assert!(!is_valid_clique(&g, &[0, 99]), "out-of-range is rejected");
    }
}
