//! Heuristic primal/dual bounds racing the exact search.
//!
//! The paper's K-selection procedure (Section 4.1) brackets χ with a
//! one-shot greedy pass: a greedy clique for the lower bound and DSATUR
//! for the upper bound. That bracket is what the exact ladder then has to
//! walk down rung by rung — every rung between DSATUR and χ is a full
//! incremental SAT query. This module tightens the bracket *before* the
//! first query by racing three local-search workers from `sbgc-heur`:
//!
//! * **TabuCol** — reactive tabu search descending one color at a time
//!   from the DSATUR witness;
//! * **PartialCol** — the partial-coloring variant of the same descent,
//!   attacking the identical targets from a different neighborhood;
//! * **clique search** — penalty-driven multi-restart clique growth that
//!   lifts the lower bound beyond the one-shot greedy clique.
//!
//! The workers run on scoped threads under the same discipline as the
//! CDCL portfolio (`sbgc-pb`): each body is wrapped in `catch_unwind` so
//! a panicking heuristic dies alone, shared state is locked
//! poison-tolerantly, and a [`CancelToken`] stops the survivors as soon
//! as the bracket collapses (`lower == upper` proves χ without any SAT
//! query at all).
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
//! `DESIGN.md` §4i).
//!
//! # Determinism
//!
//! Every worker is seeded by [`sbgc_heur::derive_seed`] from a fixed
//! stream constant and its worker index, runs a fixed iteration budget,
//! and uses no timing- or hash-order-dependent state. Cancellation can
//! only stop a worker *earlier*, and fires only once the bracket is
//! collapsed — a state no further offer can improve — so the final
//! `(lower, upper)` pair is identical across runs on the same input.

use crate::chromatic::ChromaticBounds;
use crate::flow::SolveOptions;
use sbgc_graph::{Coloring, Graph};
use sbgc_heur::{clique_search, derive_seed, partialcol, tabucol_from, SplitMix64};
use sbgc_obs::{HeuristicsTelemetry, SearchCounters, WorkerTelemetry};
use sbgc_sat::CancelToken;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Base of the per-worker seed derivation. The heuristic race has no
/// user-facing seed knob: reproducibility of the *default* configuration
/// is the point, so the base is a constant and workers differ only by
/// their index stream (see the module docs on determinism).
const SEED_BASE: u64 = 0x5bc0_c01a_b0a7_ed01;

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

/// Shared bracket the workers race on. Invariant between lock
/// acquisitions: `witness` is proper with `upper` colors, `clique` is a
/// real clique of size `lower`, and `lower <= upper` (both sides are
/// validated against the same graph, and a clique never exceeds the size
/// of any proper coloring).
struct SharedBracket {
    lower: usize,
    upper: usize,
    witness: Coloring,
    clique: Vec<usize>,
    upper_by: Option<usize>,
    lower_by: Option<usize>,
    rejected: u64,
}

fn lock_tolerant<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
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

/// Races the heuristic workers against each other to tighten `seed`
/// (the one-shot greedy bracket from [`crate::chromatic::bounds`]).
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
    let fault = &options.fault;
    let start = Instant::now();
    let token = CancelToken::new();
    let shared = Mutex::new(SharedBracket {
        lower: seed.lower,
        upper: seed.upper,
        witness: seed.witness.clone(),
        clique: Vec::new(),
        upper_by: None,
        lower_by: None,
        rejected: 0,
    });
    if seed.lower >= seed.upper {
        token.cancel();
    }

    // Offers a coloring to the shared bracket. Validation happens here,
    // at the boundary between untrusted worker output and trusted state;
    // an invalid offer is counted and reported back as a fatal error.
    let offer_coloring = |worker: usize, coloring: Coloring| -> Result<(), String> {
        let coloring = if fault.improper_witness(worker) {
            corrupt_coloring(graph, coloring)
        } else {
            coloring
        };
        let coloring = coloring.compacted();
        if coloring.num_vertices() != graph.num_vertices() || !coloring.is_proper(graph) {
            lock_tolerant(&shared).rejected += 1;
            return Err("improper coloring rejected at the trust boundary".to_string());
        }
        let colors = coloring.num_colors();
        let mut s = lock_tolerant(&shared);
        if colors < s.upper {
            s.upper = colors;
            s.witness = coloring;
            s.upper_by = Some(worker);
            if s.upper <= s.lower {
                token.cancel();
            }
        }
        Ok(())
    };

    // Offers a clique, same contract as `offer_coloring`.
    let offer_clique = |worker: usize, clique: Vec<usize>| -> Result<(), String> {
        if !is_valid_clique(graph, &clique) {
            lock_tolerant(&shared).rejected += 1;
            return Err("non-clique rejected at the trust boundary".to_string());
        }
        let mut s = lock_tolerant(&shared);
        if clique.len() > s.lower {
            s.lower = clique.len();
            s.clique = clique;
            s.lower_by = Some(worker);
            if s.upper <= s.lower {
                token.cancel();
            }
        }
        Ok(())
    };

    // Descent loop shared by both coloring workers: repeatedly attack one
    // color below the best validated upper bound until a level resists.
    let descend =
        |worker: usize, attempt: &mut dyn FnMut(usize) -> Option<Coloring>| -> Result<(), String> {
            loop {
                let (lower, upper) = {
                    let s = lock_tolerant(&shared);
                    (s.lower, s.upper)
                };
                if upper <= 1 || upper - 1 < lower || token.is_cancelled() {
                    return Ok(());
                }
                let target = upper - 1;
                match attempt(target) {
                    Some(coloring) => offer_coloring(worker, coloring)?,
                    None => return Ok(()),
                }
            }
        };

    let iters = iters_per_level(graph);
    let mut telemetry: Vec<WorkerTelemetry> = Vec::new();
    let mut failed_workers = 0usize;

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (index, kind) in ["tabucol", "partialcol", "clique"].iter().enumerate() {
            let token = token.clone();
            let shared = &shared;
            let offer_clique = &offer_clique;
            let descend = &descend;
            let witness = seed.witness.clone();
            let worker_seed = derive_seed(SEED_BASE, index as u64);
            let handle = scope.spawn(move || {
                let run_start = Instant::now();
                let body = catch_unwind(AssertUnwindSafe(|| match index {
                    0 => {
                        let mut rng = SplitMix64::new(worker_seed);
                        let mut current = witness.colors().to_vec();
                        descend(index, &mut |target| {
                            if fault.worker_panic(index).is_some() {
                                panic!("fault injection: heuristic worker {index} panics");
                            }
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
                        descend(index, &mut |target| {
                            if fault.worker_panic(index).is_some() {
                                panic!("fault injection: heuristic worker {index} panics");
                            }
                            let level_seed = derive_seed(worker_seed, stream);
                            stream += 1;
                            partialcol(graph, target, level_seed, iters, || token.is_cancelled())
                        })
                    }
                    _ => {
                        if fault.worker_panic(index).is_some() {
                            panic!("fault injection: heuristic worker {index} panics");
                        }
                        let clique =
                            clique_search(graph, worker_seed, clique_restarts(graph), || {
                                token.is_cancelled()
                            });
                        offer_clique(index, clique)
                    }
                }));
                let failed = match body {
                    Ok(Ok(())) => None,
                    Ok(Err(message)) => Some(message),
                    Err(payload) => Some(panic_summary(payload.as_ref())),
                };
                let won = {
                    let s = lock_tolerant(shared);
                    s.upper_by == Some(index) || s.lower_by == Some(index)
                };
                WorkerTelemetry {
                    index,
                    kind: kind.to_string(),
                    seed: worker_seed,
                    config: format!("{kind} (heuristic race)"),
                    search: SearchCounters::default(),
                    won,
                    cancel_latency: None,
                    run_time: run_start.elapsed(),
                    failed,
                    query: None,
                }
            });
            handles.push(handle);
        }
        for handle in handles {
            match handle.join() {
                Ok(record) => {
                    if record.failed.is_some() {
                        failed_workers += 1;
                    }
                    telemetry.push(record);
                }
                // `catch_unwind` already contains worker panics; a join
                // error would mean the telemetry assembly itself died.
                Err(_) => failed_workers += 1,
            }
        }
    });

    let s = lock_tolerant(&shared);
    let outcome = HeuristicOutcome {
        lower: s.lower,
        upper: s.upper,
        witness: s.witness.clone(),
        clique: s.clique.clone(),
        failed_workers,
        rejected_witnesses: s.rejected,
    };
    drop(s);

    if options.recorder.is_enabled() {
        for record in telemetry {
            options.recorder.record_worker(record);
        }
        options.recorder.record_heuristics(HeuristicsTelemetry {
            dsatur_upper: seed.upper,
            greedy_clique_lower: seed.lower,
            upper: outcome.upper,
            lower: outcome.lower,
            rungs_skipped: seed.upper - outcome.upper,
            workers: 3,
            rejected_witnesses: outcome.rejected_witnesses,
            failed_workers: outcome.failed_workers as u64,
            seconds: start.elapsed().as_secs_f64(),
        });
    }
    outcome
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
        let g = cycle(5);
        let b = ChromaticBounds { lower: 2, upper: 5, witness: Coloring::new((0..5).collect()) };
        assert!(b.witness.is_proper(&g));
        let opts = options().with_fault_plan(FaultPlan::new(7).with_improper_witness(0));
        let out = race_heuristics(&g, &opts, &b);
        assert!(out.rejected_witnesses >= 1, "the corrupted offer must be rejected");
        assert!(out.failed_workers >= 1, "an untrustworthy worker is retired");
        // The bracket stays sound: the surviving workers' bounds hold.
        assert!(out.witness.is_proper(&g));
        assert_eq!(out.witness.num_colors(), out.upper);
        assert!(out.lower <= out.upper);
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

    #[test]
    fn clique_validation_rejects_non_cliques() {
        let g = cycle(6);
        assert!(is_valid_clique(&g, &[0, 1]));
        assert!(!is_valid_clique(&g, &[0, 1, 2]), "a path is not a triangle");
        assert!(!is_valid_clique(&g, &[0, 0]), "duplicates are rejected");
        assert!(!is_valid_clique(&g, &[0, 99]), "out-of-range is rejected");
    }
}
