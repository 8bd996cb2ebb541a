//! The event recorder: phase spans, typed counters, worker telemetry.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The pipeline phases a [`Recorder`] can time.
///
/// Each phase corresponds to one stage of the end-to-end coloring flow
/// (`encode → sbp → detect → solve → verify`); see `docs/OBSERVABILITY.md`
/// for exactly which code runs under which phase.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Phase {
    /// Building the K-coloring 0-1 ILP encoding from the graph.
    Encode,
    /// Appending instance-independent SBPs (NU/CA/LI/SC/…).
    Sbp,
    /// The Shatter flow: symmetry detection + lex-leader SBP generation.
    Detect,
    /// The solver search (sequential or portfolio race).
    Solve,
    /// Decoding the model and re-verifying the coloring against the graph.
    Verify,
}

impl Phase {
    /// All phases, in pipeline order.
    pub const ALL: [Phase; 5] =
        [Phase::Encode, Phase::Sbp, Phase::Detect, Phase::Solve, Phase::Verify];

    /// The lower-case name used in JSON reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Encode => "encode",
            Phase::Sbp => "sbp",
            Phase::Detect => "detect",
            Phase::Solve => "solve",
            Phase::Verify => "verify",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The typed counters a [`Recorder`] accumulates.
///
/// Counters are monotonically increasing `u64`s updated with relaxed
/// atomics, so portfolio workers can record concurrently without locks.
/// Solvers flush counter deltas at stride boundaries (every 64 conflicts)
/// and at solve exit, so a live reader sees progress at that granularity.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Counter {
    /// Branching decisions made.
    Decisions,
    /// Conflicts analyzed.
    Conflicts,
    /// Literals propagated (trail pushes).
    Propagations,
    /// Restarts performed.
    Restarts,
    /// Clauses learned.
    Learned,
    /// Learned clauses deleted by database reduction.
    Deleted,
    /// Analyzed conflicts whose conflicting constraint, or a reason their
    /// 1UIP derivation resolved on, is a PB constraint (each at most once).
    PbConflicts,
    /// Total literals across all learned clauses (divide by
    /// [`Counter::Learned`] for the mean learned-clause size).
    LearnedLiterals,
    /// Sum of LBD (glue) values across all learned clauses (divide by
    /// [`Counter::Learned`] for the mean glue).
    LbdSum,
    /// Learned clauses exported into the portfolio's shared clause pool.
    Exported,
    /// Clauses imported from the portfolio's shared clause pool.
    Imported,
}

impl Counter {
    /// All counters, in report order.
    pub const ALL: [Counter; 11] = [
        Counter::Decisions,
        Counter::Conflicts,
        Counter::Propagations,
        Counter::Restarts,
        Counter::Learned,
        Counter::Deleted,
        Counter::PbConflicts,
        Counter::LearnedLiterals,
        Counter::LbdSum,
        Counter::Exported,
        Counter::Imported,
    ];

    /// The snake_case name used in JSON reports.
    pub fn name(self) -> &'static str {
        match self {
            Counter::Decisions => "decisions",
            Counter::Conflicts => "conflicts",
            Counter::Propagations => "propagations",
            Counter::Restarts => "restarts",
            Counter::Learned => "learned",
            Counter::Deleted => "deleted",
            Counter::PbConflicts => "pb_conflicts",
            Counter::LearnedLiterals => "learned_literals",
            Counter::LbdSum => "lbd_sum",
            Counter::Exported => "exported",
            Counter::Imported => "imported",
        }
    }

    fn index(self) -> usize {
        match self {
            Counter::Decisions => 0,
            Counter::Conflicts => 1,
            Counter::Propagations => 2,
            Counter::Restarts => 3,
            Counter::Learned => 4,
            Counter::Deleted => 5,
            Counter::PbConflicts => 6,
            Counter::LearnedLiterals => 7,
            Counter::LbdSum => 8,
            Counter::Exported => 9,
            Counter::Imported => 10,
        }
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A plain-data snapshot of the search counters (one solver run or one
/// portfolio worker). The same quantities as [`Counter`], as struct
/// fields so they can be embedded in reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchCounters {
    /// Branching decisions made.
    pub decisions: u64,
    /// Conflicts analyzed.
    pub conflicts: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Clauses learned.
    pub learned: u64,
    /// Learned clauses deleted by database reduction.
    pub deleted: u64,
    /// Analyzed conflicts whose conflicting constraint, or a reason their
    /// 1UIP derivation resolved on, is a PB constraint (each at most once).
    pub pb_conflicts: u64,
    /// Total literals across all learned clauses.
    pub learned_literals: u64,
    /// Sum of LBD (glue) values across all learned clauses.
    pub lbd_sum: u64,
    /// Learned clauses exported into the shared clause pool.
    pub exported: u64,
    /// Clauses imported from the shared clause pool.
    pub imported: u64,
}

impl SearchCounters {
    /// Mean learned-clause length, or `None` before the first learned
    /// clause.
    pub fn mean_learned_len(&self) -> Option<f64> {
        (self.learned > 0).then(|| self.learned_literals as f64 / self.learned as f64)
    }

    /// Mean LBD (glue) of learned clauses, or `None` before the first
    /// learned clause.
    pub fn mean_lbd(&self) -> Option<f64> {
        (self.learned > 0).then(|| self.lbd_sum as f64 / self.learned as f64)
    }

    /// Reads the field corresponding to a [`Counter`].
    pub fn get(&self, counter: Counter) -> u64 {
        match counter {
            Counter::Decisions => self.decisions,
            Counter::Conflicts => self.conflicts,
            Counter::Propagations => self.propagations,
            Counter::Restarts => self.restarts,
            Counter::Learned => self.learned,
            Counter::Deleted => self.deleted,
            Counter::PbConflicts => self.pb_conflicts,
            Counter::LearnedLiterals => self.learned_literals,
            Counter::LbdSum => self.lbd_sum,
            Counter::Exported => self.exported,
            Counter::Imported => self.imported,
        }
    }
}

/// One finished span: which phase ran, when it started (relative to the
/// recorder's creation), for how long, and at which nesting depth.
#[derive(Clone, Copy, Debug)]
pub struct SpanRecord {
    /// The phase the span timed.
    pub phase: Phase,
    /// Start offset from the recorder's creation instant.
    pub start: Duration,
    /// Wall-clock duration of the span.
    pub duration: Duration,
    /// Nesting depth at open time (0 = top level). Spans opened while
    /// another span is open — e.g. a per-query `solve` inside an outer
    /// flow — report depth ≥ 1.
    pub depth: usize,
}

/// Per-worker telemetry of one portfolio race, recorded by every
/// `sbgc-pb::PortfolioSession` query (a ladder step, an optimization
/// step, a one-shot decision race) and by the heuristic race when given
/// an enabled recorder.
#[derive(Clone, Debug)]
pub struct WorkerTelemetry {
    /// Worker index into the portfolio's config slice.
    pub index: usize,
    /// What kind of worker this was: `"cdcl"` for the exact CDCL/PB
    /// portfolio workers, or a heuristic name (`"tabucol"`, `"partialcol"`,
    /// `"clique"`, …) for the primal-bound racers of `sbgc-heur`.
    pub kind: String,
    /// The worker's diversification seed.
    pub seed: u64,
    /// Human-readable description of the worker's engine configuration.
    pub config: String,
    /// The worker's own search counters (not summed with its peers).
    pub search: SearchCounters,
    /// Whether this worker produced the definitive answer.
    pub won: bool,
    /// For losing workers in a decided race: wall-clock delay between the
    /// winner tripping the shared cancellation token (`sbgc-sat`'s
    /// `CancelToken`) and this worker returning — the
    /// cooperative-cancellation latency (≈ up to 64 conflicts of work).
    /// `None` for the winner and for undecided races.
    pub cancel_latency: Option<Duration>,
    /// Total wall-clock time this worker ran.
    pub run_time: Duration,
    /// `Some(message)` when the worker died mid-race (its solve panicked);
    /// the message summarizes the panic payload. A failed worker never
    /// wins, and its `search` counters are whatever was flushed before
    /// death (possibly all zero).
    pub failed: Option<String>,
    /// For CDCL workers: the 0-based session query this telemetry entry
    /// describes — a ladder step or an optimization step (a session
    /// records one entry per worker per query, with `search` holding the
    /// worker's counter *delta* since its previous entry, not its lifetime
    /// totals). `None` for heuristic racers.
    pub query: Option<u64>,
}

/// Telemetry for one step of an incremental chromatic-number ladder
/// (one assumption query against a persistent solver session), recorded
/// by `sbgc-core`'s ladder driver.
#[derive(Clone, Debug)]
pub struct LadderStepTelemetry {
    /// 0-based position of the step in the ladder.
    pub step: u64,
    /// The color count the step queried ("is the graph `target`-colorable?").
    pub target: usize,
    /// `"sat"`, `"unsat"`, `"unknown"` (a limit stopped the query), or
    /// `"moot"` (the concurrent heuristic race answered the target
    /// mid-flight, so the ladder moved on to its next target).
    pub outcome: String,
    /// Wall-clock seconds the query took.
    pub seconds: f64,
    /// Learned clauses still live in the session's engines when the query
    /// started — clauses retained from earlier ladder steps (summed across
    /// portfolio workers). 0 on the first step.
    pub retained_clauses: u64,
    /// Alive solver workers that served the query (1 for sequential).
    pub workers: usize,
}

/// Summary telemetry of one heuristic race (the `sbgc-heur` workers that
/// tighten the chromatic bracket before or while the exact search runs),
/// recorded by `sbgc-core`'s hybrid search. Bounds count only offers made
/// by heuristic workers: a ladder witness or refutation that tightened
/// the shared bracket is never credited to the race.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HeuristicsTelemetry {
    /// The one-shot DSATUR upper bound the race started from.
    pub dsatur_upper: usize,
    /// The one-shot greedy-clique lower bound the race started from.
    pub greedy_clique_lower: usize,
    /// Best upper bound a heuristic worker's validated coloring set
    /// (≤ `dsatur_upper`).
    pub upper: usize,
    /// Best lower bound a heuristic worker's validated clique set
    /// (≥ `greedy_clique_lower`).
    pub lower: usize,
    /// Ladder rungs the heuristic incumbent took from the exact search
    /// (`dsatur_upper − upper`).
    pub rungs_skipped: usize,
    /// Heuristic workers launched.
    pub workers: usize,
    /// Offered bounds rejected at the trust boundary (improper coloring,
    /// wrong color count, or non-clique).
    pub rejected_witnesses: u64,
    /// Heuristic workers that died (panicked) or had an offer rejected.
    pub failed_workers: u64,
    /// Wall-clock seconds the race ran (beside the ladder, when it ran
    /// alongside one).
    pub seconds: f64,
}

/// Summary telemetry of one supervised solve (the watchdog/retry loop of
/// `sbgc-core::supervisor`), recorded once per run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SupervisorTelemetry {
    /// Solve attempts made (1 = no retries).
    pub attempts: u64,
    /// Times the wall-clock watchdog tripped a stalled attempt (no
    /// conflict progress for the configured window).
    pub watchdog_trips: u64,
    /// Configured watchdog stall window in seconds, when a watchdog ran.
    pub watchdog_secs: Option<f64>,
    /// The budget-escalation factor of the final attempt (1 = the original
    /// budget; doubles per retry up to the supervisor's cap).
    pub final_escalation: u64,
    /// Checkpoints successfully written at ladder-rung boundaries.
    pub checkpoints_written: u64,
    /// Path checkpoints were written to, when auto-checkpointing was on.
    pub checkpoint_path: Option<String>,
}

/// Telemetry of one resume-from-checkpoint, recorded by
/// `sbgc-core::supervisor` after the checkpoint passed validation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResumeTelemetry {
    /// Path the checkpoint was loaded from.
    pub from_path: String,
    /// Lower chromatic bound restored from the checkpoint.
    pub lower: usize,
    /// Upper chromatic bound (committed ladder rungs) restored.
    pub upper: usize,
    /// Colors used by the restored incumbent witness, if one survived
    /// re-validation.
    pub witness_colors: Option<usize>,
    /// Learned clauses offered by the checkpoint.
    pub clauses_offered: u64,
    /// Offered clauses accepted by the rebuilt session's share filter.
    pub clauses_imported: u64,
    /// Ladder rungs the resumed search skips relative to a fresh start
    /// (the fresh DSATUR upper bound minus the restored one).
    pub rungs_skipped: u64,
}

struct Inner {
    epoch: Instant,
    depth: AtomicUsize,
    counters: [AtomicU64; Counter::ALL.len()],
    spans: Mutex<Vec<SpanRecord>>,
    workers: Mutex<Vec<WorkerTelemetry>>,
    ladder: Mutex<Vec<LadderStepTelemetry>>,
    heuristics: Mutex<Option<HeuristicsTelemetry>>,
    supervisor: Mutex<Option<SupervisorTelemetry>>,
    resume: Mutex<Option<ResumeTelemetry>>,
}

/// A lightweight event/span recorder shared across the solving pipeline.
///
/// A `Recorder` is either *enabled* (created by [`Recorder::new`]) or
/// *disabled* ([`Recorder::disabled`], also the `Default`). Cloning an
/// enabled recorder yields a handle to the **same** log, so one recorder
/// can be handed to the flow, the solver and every portfolio worker, and
/// all of them append to one place. Every recording method on a disabled
/// recorder is a no-op behind a single branch
/// ([`is_enabled`](Recorder::is_enabled)), which is why the solvers only
/// consult it at stride boundaries.
///
/// See the crate docs for an end-to-end example.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// Creates an enabled recorder. Its monotonic epoch (the zero point of
    /// [`SpanRecord::start`]) is the creation instant.
    pub fn new() -> Self {
        Recorder {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                depth: AtomicUsize::new(0),
                counters: Default::default(),
                spans: Mutex::new(Vec::new()),
                workers: Mutex::new(Vec::new()),
                ladder: Mutex::new(Vec::new()),
                heuristics: Mutex::new(None),
                supervisor: Mutex::new(None),
                resume: Mutex::new(None),
            })),
        }
    }

    /// Creates a disabled recorder: every recording call is a no-op and
    /// every query returns empty/zero.
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// Whether this recorder records anything. Call sites on hot paths
    /// should check this once per stride, not per event.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a timed span for `phase`; the span is recorded when the
    /// returned guard drops (including during panic unwinding). Spans may
    /// nest; guards close in LIFO order by construction.
    pub fn span(&self, phase: Phase) -> SpanGuard {
        let inner = match &self.inner {
            Some(inner) => inner,
            None => return SpanGuard { inner: None, phase, start: None, depth: 0 },
        };
        let depth = inner.depth.fetch_add(1, Ordering::Relaxed);
        SpanGuard { inner: Some(Arc::clone(inner)), phase, start: Some(Instant::now()), depth }
    }

    /// Adds `n` to a typed counter (relaxed atomic; race-free across
    /// threads).
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        if let Some(inner) = &self.inner {
            if n > 0 {
                inner.counters[counter.index()].fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Current value of a counter (0 when disabled).
    pub fn counter(&self, counter: Counter) -> u64 {
        match &self.inner {
            Some(inner) => inner.counters[counter.index()].load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Snapshot of all counters as a [`SearchCounters`] struct.
    pub fn search_counters(&self) -> SearchCounters {
        SearchCounters {
            decisions: self.counter(Counter::Decisions),
            conflicts: self.counter(Counter::Conflicts),
            propagations: self.counter(Counter::Propagations),
            restarts: self.counter(Counter::Restarts),
            learned: self.counter(Counter::Learned),
            deleted: self.counter(Counter::Deleted),
            pb_conflicts: self.counter(Counter::PbConflicts),
            learned_literals: self.counter(Counter::LearnedLiterals),
            lbd_sum: self.counter(Counter::LbdSum),
            exported: self.counter(Counter::Exported),
            imported: self.counter(Counter::Imported),
        }
    }

    /// Records one portfolio worker's telemetry.
    ///
    /// Poison-tolerant: telemetry is recorded even if a previous worker
    /// panicked while appending — a dead worker must not take the
    /// survivors' records with it.
    pub fn record_worker(&self, worker: WorkerTelemetry) {
        if let Some(inner) = &self.inner {
            inner.workers.lock().unwrap_or_else(PoisonError::into_inner).push(worker);
        }
    }

    /// All finished spans, in the order they *closed* (nested spans
    /// therefore appear before their parents).
    pub fn spans(&self) -> Vec<SpanRecord> {
        match &self.inner {
            Some(inner) => inner.spans.lock().unwrap_or_else(PoisonError::into_inner).clone(),
            None => Vec::new(),
        }
    }

    /// All recorded worker telemetry, in recording order.
    pub fn workers(&self) -> Vec<WorkerTelemetry> {
        match &self.inner {
            Some(inner) => inner.workers.lock().unwrap_or_else(PoisonError::into_inner).clone(),
            None => Vec::new(),
        }
    }

    /// Records one ladder step of an incremental chromatic-number search.
    ///
    /// Poison-tolerant for the same reason as [`Recorder::record_worker`].
    pub fn record_ladder_step(&self, step: LadderStepTelemetry) {
        if let Some(inner) = &self.inner {
            inner.ladder.lock().unwrap_or_else(PoisonError::into_inner).push(step);
        }
    }

    /// All recorded ladder steps, in recording (= ladder) order.
    pub fn ladder_steps(&self) -> Vec<LadderStepTelemetry> {
        match &self.inner {
            Some(inner) => inner.ladder.lock().unwrap_or_else(PoisonError::into_inner).clone(),
            None => Vec::new(),
        }
    }

    /// Records the summary of a heuristic primal-bound race. A later call
    /// overwrites an earlier one (the report carries one race per run).
    ///
    /// Poison-tolerant for the same reason as [`Recorder::record_worker`].
    pub fn record_heuristics(&self, telemetry: HeuristicsTelemetry) {
        if let Some(inner) = &self.inner {
            *inner.heuristics.lock().unwrap_or_else(PoisonError::into_inner) = Some(telemetry);
        }
    }

    /// The recorded heuristic-race summary, if one was recorded.
    pub fn heuristics(&self) -> Option<HeuristicsTelemetry> {
        match &self.inner {
            Some(inner) => inner.heuristics.lock().unwrap_or_else(PoisonError::into_inner).clone(),
            None => None,
        }
    }

    /// Records the summary of a supervised solve. A later call overwrites
    /// an earlier one (the report carries one supervised run).
    ///
    /// Poison-tolerant for the same reason as [`Recorder::record_worker`].
    pub fn record_supervisor(&self, telemetry: SupervisorTelemetry) {
        if let Some(inner) = &self.inner {
            *inner.supervisor.lock().unwrap_or_else(PoisonError::into_inner) = Some(telemetry);
        }
    }

    /// The recorded supervised-solve summary, if one was recorded.
    pub fn supervisor(&self) -> Option<SupervisorTelemetry> {
        match &self.inner {
            Some(inner) => inner.supervisor.lock().unwrap_or_else(PoisonError::into_inner).clone(),
            None => None,
        }
    }

    /// Records the summary of a resume-from-checkpoint. A later call
    /// overwrites an earlier one.
    ///
    /// Poison-tolerant for the same reason as [`Recorder::record_worker`].
    pub fn record_resume(&self, telemetry: ResumeTelemetry) {
        if let Some(inner) = &self.inner {
            *inner.resume.lock().unwrap_or_else(PoisonError::into_inner) = Some(telemetry);
        }
    }

    /// The recorded resume summary, if one was recorded.
    pub fn resume(&self) -> Option<ResumeTelemetry> {
        match &self.inner {
            Some(inner) => inner.resume.lock().unwrap_or_else(PoisonError::into_inner).clone(),
            None => None,
        }
    }

    /// Total time spent in `phase` (sum over its finished spans).
    pub fn phase_time(&self, phase: Phase) -> Duration {
        self.spans().iter().filter(|s| s.phase == phase).map(|s| s.duration).sum()
    }

    /// Number of finished spans of `phase`.
    pub fn phase_count(&self, phase: Phase) -> usize {
        self.spans().iter().filter(|s| s.phase == phase).count()
    }

    /// The number of currently open spans (0 once all guards dropped).
    pub fn open_spans(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.depth.load(Ordering::Relaxed),
            None => 0,
        }
    }
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            None => f.write_str("Recorder(disabled)"),
            Some(inner) => write!(
                f,
                "Recorder(spans={}, workers={}, conflicts={})",
                inner.spans.lock().map(|s| s.len()).unwrap_or(0),
                inner.workers.lock().map(|w| w.len()).unwrap_or(0),
                inner.counters[Counter::Conflicts.index()].load(Ordering::Relaxed),
            ),
        }
    }
}

/// RAII guard returned by [`Recorder::span`]; records the span when
/// dropped. Dropping during panic unwinding still records, so phase
/// accounting stays balanced even when a stage fails.
#[must_use = "a span guard records its phase only when dropped"]
pub struct SpanGuard {
    inner: Option<Arc<Inner>>,
    phase: Phase,
    start: Option<Instant>,
    depth: usize,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let (Some(inner), Some(start)) = (self.inner.take(), self.start) else {
            return;
        };
        let record = SpanRecord {
            phase: self.phase,
            start: start.duration_since(inner.epoch),
            duration: start.elapsed(),
            depth: self.depth,
        };
        // Decrement depth before taking the lock so a panicking thread
        // cannot leave the depth counter stuck if the mutex is poisoned.
        inner.depth.fetch_sub(1, Ordering::Relaxed);
        inner.spans.lock().unwrap_or_else(PoisonError::into_inner).push(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_one_log() {
        let a = Recorder::new();
        let b = a.clone();
        b.add(Counter::Decisions, 7);
        {
            let _s = b.span(Phase::Solve);
        }
        assert_eq!(a.counter(Counter::Decisions), 7);
        assert_eq!(a.spans().len(), 1);
    }

    #[test]
    fn phase_time_sums_spans() {
        let r = Recorder::new();
        for _ in 0..3 {
            let _s = r.span(Phase::Encode);
        }
        assert_eq!(r.phase_count(Phase::Encode), 3);
        assert_eq!(r.phase_count(Phase::Solve), 0);
    }

    #[test]
    fn nested_spans_report_depth() {
        let r = Recorder::new();
        {
            let _outer = r.span(Phase::Solve);
            let _inner = r.span(Phase::Verify);
        }
        let spans = r.spans();
        // Inner closes first.
        assert_eq!(spans[0].phase, Phase::Verify);
        assert_eq!(spans[0].depth, 1);
        assert_eq!(spans[1].phase, Phase::Solve);
        assert_eq!(spans[1].depth, 0);
        assert_eq!(r.open_spans(), 0);
    }

    #[test]
    fn ladder_steps_record_in_order() {
        let r = Recorder::new();
        for (i, target) in [(0u64, 8usize), (1, 6)] {
            r.record_ladder_step(LadderStepTelemetry {
                step: i,
                target,
                outcome: "sat".to_string(),
                seconds: 0.1,
                retained_clauses: i * 100,
                workers: 4,
            });
        }
        let steps = r.ladder_steps();
        assert_eq!(steps.len(), 2);
        assert_eq!(steps[0].target, 8);
        assert_eq!(steps[1].retained_clauses, 100);
        assert!(Recorder::disabled().ladder_steps().is_empty());
    }

    #[test]
    fn supervisor_and_resume_record_once_each() {
        let r = Recorder::new();
        r.record_supervisor(SupervisorTelemetry { attempts: 1, ..Default::default() });
        r.record_supervisor(SupervisorTelemetry {
            attempts: 3,
            watchdog_trips: 1,
            final_escalation: 4,
            ..Default::default()
        });
        let sup = r.supervisor().expect("supervisor summary recorded");
        assert_eq!(sup.attempts, 3, "later record overwrites earlier");
        assert_eq!(sup.final_escalation, 4);
        r.record_resume(ResumeTelemetry {
            from_path: "ckpt.bin".to_string(),
            lower: 5,
            upper: 7,
            rungs_skipped: 2,
            ..Default::default()
        });
        assert_eq!(r.resume().unwrap().rungs_skipped, 2);
        assert!(Recorder::disabled().supervisor().is_none());
        assert!(Recorder::disabled().resume().is_none());
    }

    #[test]
    fn mean_learned_len() {
        let c = SearchCounters { learned: 4, learned_literals: 10, ..Default::default() };
        assert_eq!(c.mean_learned_len(), Some(2.5));
        assert_eq!(SearchCounters::default().mean_learned_len(), None);
    }
}
