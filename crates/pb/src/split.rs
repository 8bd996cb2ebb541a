//! Cube-and-conquer on assumption queries (Heule, Kullmann, Wieringa and
//! Biere, HVC 2011): one loop that runs a query whole for a fixed number
//! of conflicts and then solves it cube by cube, taking the cubes from a
//! cursor.
//!
//! The caller chooses the cubes and answers for them: all cubes refuted
//! refute the query only when the cubes cover every model its assumptions
//! admit, and a cube's own core says nothing about the models outside the
//! cubes, so such a refutation's core is the whole assumption list.
//! `sbgc-core`'s coloring session splits a hard ladder rung into
//! value-precedence prefix cubes, which cover every coloring its ordered
//! symmetry breaking admits.
//!
//! Both of the session's backends run [`solve_split`]. The sequential
//! engine takes from a list of its own, so it solves the cubes in order.
//! The workers of one [`crate::PortfolioSession`] query share one list and
//! its cursor, so each cube is solved once, by whichever worker takes it:
//! the cubes become parallel work instead of a race. A cube's literals
//! enter as assumptions, so every clause an engine learns or imports while
//! solving it stays valid for every later query.

use crate::engine::PbEngine;
use sbgc_formula::Lit;
use sbgc_sat::{Budget, ExhaustReason, SolveOutcome};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Conflicts of its own an engine spends on a query whole before it splits
/// the query into cubes. Measured on the benchmark's workloads while
/// choosing it: splitting from the first conflict read 0.135 s `wall_s` on
/// `ladder-seq` (0.155 s at 128), but on `certify` it also split SAT rungs
/// at χ, which the heuristic race then answered after about 7 ms each;
/// splitting after 64 conflicts split myciel4's 86-conflict rung, and
/// `certify` read 6% more `wall_s`, slower in 4 of 4 pairs.
const SPLIT_AFTER_CONFLICTS: u64 = 128;

/// A non-empty list of cubes stored flat, `width` literals per cube, and a
/// cursor at the next cube not yet taken. Every engine that splits one
/// query takes its cubes from the same list, so each cube is taken once.
#[derive(Debug)]
pub struct CubeList {
    /// Cube-major literals: cube `i` is `lits[i * width..(i + 1) * width]`.
    lits: Vec<Lit>,
    width: usize,
    /// Index of the next cube to take; past the end once all are taken.
    /// It publishes no data (the list is immutable and shared by `Arc`),
    /// so `Relaxed` suffices: `fetch_add` alone hands out each index once.
    next: AtomicUsize,
}

impl CubeList {
    /// The cubes `lits[i * width..(i + 1) * width]`, cursor at the first.
    ///
    /// # Panics
    ///
    /// Panics if `lits` is empty or `width` is 0 or does not divide
    /// `lits.len()`.
    pub fn new(lits: Vec<Lit>, width: usize) -> Self {
        assert!(
            width > 0 && !lits.is_empty() && lits.len().is_multiple_of(width),
            "{} literals are no non-empty list of {width}-literal cubes",
            lits.len()
        );
        CubeList { lits, width, next: AtomicUsize::new(0) }
    }

    /// Number of cubes on the list (at least one).
    pub fn count(&self) -> usize {
        self.lits.len() / self.width
    }

    /// Cubes taken from the cursor so far.
    pub fn taken(&self) -> usize {
        self.next.load(Ordering::Relaxed).min(self.count())
    }

    /// Takes the next cube, or `None` once every cube has been taken.
    pub(crate) fn take(&self) -> Option<&[Lit]> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        self.lits.get(i.checked_mul(self.width)?..)?.get(..self.width)
    }
}

/// How one engine's part of a query ended.
#[derive(Clone, Debug)]
pub struct SplitRun {
    /// `Sat` or `Unsat` when the whole query or a cube decided; `Unknown`
    /// when the budget stopped the engine or the cursor ran dry.
    pub outcome: SolveOutcome,
    /// The engine's failed-assumption core when the whole query was
    /// refuted; empty otherwise.
    pub core: Vec<Lit>,
    /// Cubes this engine took and refuted. A cube it took but did not
    /// finish is not counted.
    pub refuted: usize,
    /// Which budget dimension stopped the engine; `None` when it decided
    /// or ran the cursor dry.
    pub exhaust: Option<ExhaustReason>,
}

/// One query on `engine`, never split: its outcome and, on UNSAT, the
/// engine's assumption core.
pub fn solve_whole(engine: &mut PbEngine, assumptions: &[Lit], budget: &Budget) -> SplitRun {
    let outcome = engine.solve_with_assumptions(assumptions, budget);
    let core = match outcome {
        SolveOutcome::Unsat => engine.assumption_core().to_vec(),
        _ => Vec::new(),
    };
    SplitRun { outcome, core, refuted: 0, exhaust: engine.stats().exhaust }
}

/// Runs `assumptions` on `engine` whole for 128 conflicts of the engine's
/// own. If that cap alone stopped it, asks `cubes` for the list and solves
/// one query per cube taken from its cursor, each `assumptions` plus the
/// cube's literals, until a cube is not refuted or the cursor runs dry.
/// Without a list the query runs whole under `budget`.
///
/// Every cube refuted ends the run `Unknown`: whether that refutes the
/// query is the caller's count of refuted cubes against
/// [`CubeList::count`], since engines sharing the list refute its cubes
/// between them. One deadline covers the whole run.
pub fn solve_split(
    engine: &mut PbEngine,
    assumptions: &[Lit],
    budget: &Budget,
    cubes: impl FnOnce() -> Option<Arc<CubeList>>,
) -> SplitRun {
    let budget = budget.started();
    let cap = engine.stats().conflicts.saturating_add(SPLIT_AFTER_CONFLICTS);
    let capped =
        budget.clone().with_max_conflicts(budget.max_conflicts().map_or(cap, |m| m.min(cap)));
    let whole = solve_whole(engine, assumptions, &capped);
    let cap_alone = matches!(whole.outcome, SolveOutcome::Unknown)
        && budget.exhaust_reason(engine.stats().conflicts, engine.arena_bytes()).is_none();
    if !cap_alone {
        return whole;
    }
    let Some(cubes) = cubes() else {
        return solve_whole(engine, assumptions, &budget);
    };
    let mut lits = assumptions.to_vec();
    let mut refuted = 0;
    while let Some(cube) = cubes.take() {
        lits.truncate(assumptions.len());
        lits.extend_from_slice(cube);
        match engine.solve_with_assumptions(&lits, &budget) {
            SolveOutcome::Unsat => refuted += 1,
            outcome => {
                let exhaust = engine.stats().exhaust;
                return SplitRun { outcome, core: Vec::new(), refuted, exhaust };
            }
        }
    }
    SplitRun { outcome: SolveOutcome::Unknown, core: Vec::new(), refuted, exhaust: None }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SolverKind;
    use sbgc_formula::{PbFormula, Var};

    /// Clausal pigeonhole PHP(holes + 1, holes) and its variables,
    /// `x[p][h]` for pigeon p in hole h: UNSAT, and past the split's
    /// 128 conflicts from five holes on (six holes take 747 whole).
    fn pigeonhole(holes: usize) -> (PbFormula, Vec<Vec<Lit>>) {
        let mut f = PbFormula::new();
        let x: Vec<Vec<Lit>> = (0..=holes)
            .map(|_| f.new_vars(holes).into_iter().map(Var::positive).collect())
            .collect();
        for p in &x {
            f.add_clause(p.iter().copied());
        }
        for p in 0..=holes {
            for q in p + 1..=holes {
                for (&ph, &qh) in x[p].iter().zip(&x[q]) {
                    f.add_clause([!ph, !qh]);
                }
            }
        }
        (f, x)
    }

    fn engine(f: &PbFormula) -> PbEngine {
        PbEngine::from_formula(f, SolverKind::PbsII.engine_config().expect("CDCL kind"))
    }

    #[test]
    fn the_cursor_hands_out_each_cube_once() {
        let lits: Vec<Lit> = (0..6).map(Lit::from_code).collect();
        let cubes = CubeList::new(lits.clone(), 2);
        assert_eq!(cubes.count(), 3);
        assert_eq!(cubes.take(), Some(&lits[0..2]));
        assert_eq!(cubes.take(), Some(&lits[2..4]));
        assert_eq!(cubes.taken(), 2);
        assert_eq!(cubes.take(), Some(&lits[4..6]));
        assert_eq!(cubes.take(), None);
        assert_eq!(cubes.take(), None);
        assert_eq!(cubes.taken(), 3, "takes past the end are not counted");
    }

    #[test]
    #[should_panic(expected = "no non-empty list")]
    fn a_ragged_list_is_rejected() {
        CubeList::new((0..5).map(Lit::from_code).collect(), 2);
    }

    #[test]
    fn an_engine_alone_refutes_every_cube_it_takes() {
        // Pigeon 0's hole, one cube per hole: together they cover every
        // model, and the whole query runs past the cap first.
        let (f, x) = pigeonhole(6);
        let mut e = engine(&f);
        let list = Arc::new(CubeList::new(x[0].clone(), 1));
        let run = solve_split(&mut e, &[], &Budget::unlimited(), || Some(Arc::clone(&list)));
        assert!(matches!(run.outcome, SolveOutcome::Unknown), "{:?}", run.outcome);
        assert_eq!((run.refuted, list.taken(), run.exhaust), (6, 6, None));
        assert!(e.stats().conflicts > SPLIT_AFTER_CONFLICTS);
    }

    #[test]
    fn a_query_decided_within_the_cap_never_asks_for_cubes() {
        let (f, _) = pigeonhole(2);
        let mut e = engine(&f);
        let run = solve_split(&mut e, &[], &Budget::unlimited(), || panic!("cubes asked for"));
        assert!(matches!(run.outcome, SolveOutcome::Unsat));
        assert_eq!(run.refuted, 0);
    }

    #[test]
    fn without_cubes_the_query_runs_whole() {
        let (f, _) = pigeonhole(6);
        let mut e = engine(&f);
        let run = solve_split(&mut e, &[], &Budget::unlimited(), || None);
        assert!(matches!(run.outcome, SolveOutcome::Unsat));
        assert_eq!(run.refuted, 0);
    }

    #[test]
    fn a_budget_stop_is_not_a_refutation() {
        // The caller's conflict cap falls inside the cube phase: the cube
        // it stops is neither refuted nor counted.
        let (f, x) = pigeonhole(6);
        let mut e = engine(&f);
        let list = Arc::new(CubeList::new(x[0].clone(), 1));
        let budget = Budget::unlimited().with_max_conflicts(SPLIT_AFTER_CONFLICTS + 1);
        let run = solve_split(&mut e, &[], &budget, || Some(Arc::clone(&list)));
        assert!(matches!(run.outcome, SolveOutcome::Unknown));
        assert_eq!(run.exhaust, Some(ExhaustReason::Conflicts));
        assert_eq!(run.refuted + 1, list.taken(), "the stopped cube is taken, not refuted");
    }
}
