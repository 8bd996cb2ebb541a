//! Parallel portfolio solving with cooperative cancellation and panic
//! isolation.
//!
//! The paper observes that PBS II, Galena and Pueblo — three configurations
//! of the same CDCL-PB framework — "exhibit the same performance trends"
//! but differ in *which* instances each wins. A portfolio exploits exactly
//! that diversity: race one worker per [`EngineConfig`] on the same
//! formula, take the first definitive answer, and cancel the rest through
//! the shared [`CancelToken`] carried by every worker's [`Budget`] (a
//! losing worker stops at its next stride-64 budget check, i.e. within
//! ~64 conflicts).
//!
//! There is one race, [`PortfolioSession`]: one long-lived [`PbEngine`]
//! per worker thread, raced on every assumption query. Every parallel CDCL
//! solve drives it:
//!
//! * a one-shot decision race is a session answering a single query with
//!   no assumptions;
//! * [`optimize_portfolio`] minimizes by linear search over one session:
//!   each step races one query, and the winner's model of value `v`
//!   commits the cut `obj ≤ v − 1` to every worker before the next step;
//! * `sbgc-core`'s chromatic ladder races assumption queries and commits
//!   the color suffixes it will never query again;
//! * `sbgc-core`'s racing certifier is a one-query session whose workers
//!   log into one shared DRAT proof ([`PortfolioSession::with_proof`]).
//!
//! No dependencies beyond `std`.
//!
//! # Learned-clause sharing
//!
//! Workers in one race cooperate, not just compete: every session creates
//! a [`SharedClausePool`] and hands each worker a [`SharingHandle`], so
//! learned clauses that pass the default glue filter (low LBD, short —
//! see [`SharingConfig`]) are exported to the pool and imported by every
//! peer at its next restart. Import happens only at restart boundaries,
//! where the trail is at the root level anyway, which keeps the
//! propagation hot loop free of locks (see `docs/DESIGN.md` §4f). Sharing
//! is always on.
//!
//! # Fault tolerance
//!
//! Each worker's engine construction, commits and solves run under
//! [`std::panic::catch_unwind`]: a panicking worker dies alone, its
//! possibly-corrupt engine is never reused, and the survivors keep
//! racing. Dead workers are counted in the outcome's `failed_workers` and
//! — with an enabled [`Recorder`] — recorded as [`WorkerTelemetry`]
//! entries whose `failed` field summarizes the panic payload. Every
//! session takes a deterministic [`FaultPlan`] to test exactly this
//! machinery; the empty plan injects nothing (see `docs/ROBUSTNESS.md`).

use crate::config::{EngineConfig, RestartPolicy, SolverKind};
use crate::engine::{PbEngine, PbStats};
use crate::optimize::OptOutcome;
use sbgc_formula::{Assignment, Lit, PbConstraint, PbFormula};
use sbgc_obs::{FaultPlan, Recorder, SearchCounters, WorkerTelemetry};
use sbgc_proof::{AddsOnlyProofLogger, SharedProof};
use sbgc_sat::{Budget, CancelToken, SharedClausePool, SharingConfig, SharingHandle, SolveOutcome};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Typed failure of a portfolio entry point — misuse conditions that were
/// previously reported by panicking, surfaced as values so callers can
/// degrade gracefully (see `docs/ROBUSTNESS.md`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PortfolioError {
    /// The `configs` slice was empty: there is no worker to race.
    NoWorkers,
    /// [`optimize_portfolio`] was called on a formula without an
    /// objective; there is nothing to minimize.
    MissingObjective,
}

impl std::fmt::Display for PortfolioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PortfolioError::NoWorkers => write!(f, "portfolio needs at least one config"),
            PortfolioError::MissingObjective => {
                write!(f, "optimize_portfolio requires a formula with an objective")
            }
        }
    }
}

impl std::error::Error for PortfolioError {}

/// Result of an [`optimize_portfolio`] race.
#[derive(Clone, Debug)]
pub struct PortfolioOptOutcome {
    /// The optimization answer: proven by the step that refuted the last
    /// cut (or found a zero-cost model); otherwise the best model any
    /// step found, as `Feasible`.
    pub outcome: OptOutcome,
    /// Index and configuration of the worker that won the deciding step,
    /// when the race was decided.
    pub winner: Option<(usize, EngineConfig)>,
    /// Engine statistics summed over all workers and steps.
    pub stats: PbStats,
    /// Number of workers that died (panicked) during the race.
    pub failed_workers: usize,
}

/// Locks poison-tolerantly: a mutex poisoned by a panicking worker stays
/// usable for the survivors. All the portfolio's shared state is plain
/// data whose invariants hold between (not within) lock acquisitions, so
/// recovering the inner value is always sound here.
fn lock_tolerant<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Renders a `catch_unwind` payload for telemetry; panic messages are
/// almost always `&str` or `String`.
fn panic_summary(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

fn add_stats(total: &mut PbStats, s: PbStats) {
    total.decisions += s.decisions;
    total.conflicts += s.conflicts;
    total.propagations += s.propagations;
    total.restarts += s.restarts;
    total.learned += s.learned;
    total.deleted += s.deleted;
    total.pb_conflicts += s.pb_conflicts;
    total.learned_literals += s.learned_literals;
    total.lbd_sum += s.lbd_sum;
    total.exported += s.exported;
    total.imported += s.imported;
    // Keep the first exhaustion reason any worker reported; a decided race
    // clears it at the end (the answer supersedes the losers' exhaustion).
    total.exhaust = total.exhaust.or(s.exhaust);
}

/// Human-readable label of a worker configuration: the preset name when
/// the config matches one of the named [`SolverKind`]s, plus suffixes for
/// the modern-CDCL knobs layered on top of it, plus the seed — e.g.
/// `"Galena +adaptive-restarts +chrono +tiered (seed 1)"`.
fn config_label(config: &EngineConfig) -> String {
    const NAMED: [SolverKind; 4] =
        [SolverKind::PbsII, SolverKind::Galena, SolverKind::Pueblo, SolverKind::PbsLegacy];
    for kind in NAMED {
        let preset = kind.engine_config().expect("named kinds are CDCL");
        let mut probe = config.with_seed(0);
        let mut flags = String::new();
        if probe.restart != preset.restart {
            match probe.restart {
                RestartPolicy::Luby { base } => flags.push_str(&format!(" +luby{base}")),
                RestartPolicy::Geometric { first, .. } => flags.push_str(&format!(" +geo{first}")),
                RestartPolicy::AdaptiveLbd { .. } => flags.push_str(" +adaptive-restarts"),
            }
            probe.restart = preset.restart;
        }
        if probe.chrono {
            flags.push_str(" +chrono");
            probe.chrono = false;
        }
        if probe.rephase {
            flags.push_str(" +rephase");
            probe.rephase = false;
        }
        if probe.tiered_reduce {
            flags.push_str(" +tiered");
            probe.tiered_reduce = false;
        }
        if probe == preset {
            return format!("{}{} (seed {})", kind.display_name(), flags, config.seed);
        }
    }
    format!("{config:?}")
}

/// The telemetry record of CDCL worker `index` at session query `query`
/// that neither won nor failed and has no counters yet; callers fill in
/// what they know.
fn cdcl_telemetry(
    index: usize,
    config: &EngineConfig,
    run_time: Duration,
    query: u64,
) -> WorkerTelemetry {
    WorkerTelemetry {
        index,
        kind: "cdcl".to_string(),
        seed: config.seed,
        config: config_label(config),
        search: SearchCounters::default(),
        won: false,
        cancel_latency: None,
        run_time,
        failed: None,
        query: Some(query),
    }
}

/// Shared cancel-time mark for measuring cooperative-cancellation latency:
/// the winner stamps it immediately before tripping the [`CancelToken`];
/// losers subtract it from their own finish time.
struct CancelMark(Mutex<Option<Instant>>);

impl CancelMark {
    fn new() -> Self {
        CancelMark(Mutex::new(None))
    }

    fn stamp(&self) {
        *lock_tolerant(&self.0) = Some(Instant::now());
    }

    /// Latency from the stamp to `finish`; `None` if the race was never
    /// cancelled or this worker finished before the stamp.
    fn latency(&self, finish: Instant) -> Option<std::time::Duration> {
        lock_tolerant(&self.0).and_then(|t| finish.checked_duration_since(t))
    }
}

/// A diversified portfolio of `n` engine configurations.
///
/// Worker 0 is the plain PBS II preset with seed 0 — *identical* to the
/// sequential default — so a 1-worker portfolio explores exactly the
/// sequential search tree. Further workers cycle through the legacy-PBS,
/// Pueblo and Galena presets (three explanation strategies) and layer the
/// per-worker modern-CDCL knobs of [`EngineConfig::diversified`] on top.
/// The knob ladder is ordered by distance from worker 0's plain PBS II —
/// worker 1 is the *most* different (legacy-PBS explanations, no phase
/// saving, every modern knob on), so a narrow 2-worker portfolio on a
/// small host already spans the extremes of the configuration space.
/// Every worker carries its index as the diversification seed, which
/// deterministically perturbs initial phases and VSIDS tie-breaking. No
/// wall-clock randomness anywhere: the same `n` always yields the same
/// portfolio.
pub fn portfolio_configs(n: usize) -> Vec<EngineConfig> {
    const CYCLE: [SolverKind; 4] =
        [SolverKind::PbsII, SolverKind::PbsLegacy, SolverKind::Pueblo, SolverKind::Galena];
    (0..n.max(1))
        .map(|i| {
            let kind = CYCLE[i % CYCLE.len()];
            kind.engine_config().expect("CDCL kind").with_seed(i as u64).diversified(i)
        })
        .collect()
}

/// Minimizes the formula's objective by linear search over one
/// [`PortfolioSession`] of one worker per config — the sequential
/// [`crate::Optimizer`]'s loop with every step raced.
///
/// Each step races all surviving workers on one query without
/// assumptions. A model of value `v` commits the cut `obj ≤ v − 1` to
/// every worker before the next step; a refutation proves the last model
/// optimal, or the formula infeasible when no step found a model. If the
/// budget runs out first, the best model found is returned as
/// `Feasible`. The budget's deadline is armed once, so every step shares
/// it, and a conflict cap bounds each worker's total over all steps.
///
/// Telemetry and faults are the session's: with an enabled `recorder`,
/// every step records one [`WorkerTelemetry`] entry per worker, with the
/// step's 0-based index in `query` and that step's counters, and engines
/// flush their search counters into `recorder`; a disabled recorder
/// records nothing. When `fault` schedules a worker panic, its count is
/// the 0-based step before which that worker dies. Production callers
/// pass an empty plan.
///
/// Clause sharing stays sound across the cuts. A cut reaches a worker
/// through its command channel, ahead of the next step's query, and a
/// step returns only once every worker has stopped, so a worker imports
/// a clause learned under a cut only after committing that cut itself.
/// Every clause any worker holds is therefore entailed by the formula
/// plus the cuts that worker has committed.
///
/// # Example
///
/// ```
/// use sbgc_formula::{Objective, PbFormula};
/// use sbgc_pb::{optimize_portfolio, portfolio_configs, Budget, FaultPlan, Recorder};
///
/// // minimize a + b subject to a ∨ b
/// let mut f = PbFormula::new();
/// let a = f.new_var().positive();
/// let b = f.new_var().positive();
/// f.add_clause([a, b]);
/// f.set_objective(Objective::minimize([(1, a), (1, b)]));
///
/// let recorder = Recorder::new();
/// let configs = portfolio_configs(2);
/// let out =
///     optimize_portfolio(&f, &configs, &Budget::unlimited(), &recorder, &FaultPlan::default())
///         .expect("non-empty portfolio with an objective");
/// assert_eq!(out.outcome.value(), Some(1));
/// // One entry per worker per step, exactly one winner per step.
/// let workers = recorder.workers();
/// let steps = workers.iter().filter(|w| w.won).count();
/// assert_eq!(workers.len(), 2 * steps);
/// ```
///
/// # Errors
///
/// [`PortfolioError::NoWorkers`] if `configs` is empty,
/// [`PortfolioError::MissingObjective`] if the formula has no objective.
pub fn optimize_portfolio(
    formula: &PbFormula,
    configs: &[EngineConfig],
    budget: &Budget,
    recorder: &Recorder,
    fault: &FaultPlan,
) -> Result<PortfolioOptOutcome, PortfolioError> {
    let objective = formula.objective().ok_or(PortfolioError::MissingObjective)?;
    let budget = budget.started();
    let mut session = PortfolioSession::new(formula, configs, recorder, fault)?;
    let mut stats = PbStats::default();
    let mut best: Option<(u64, Assignment)> = None;
    let (outcome, winner) = loop {
        let step = session.query(&[], &budget);
        add_stats(&mut stats, step.stats);
        match step.outcome {
            SolveOutcome::Sat(model) => {
                let value = objective.value(&model).expect("total model");
                debug_assert!(best.as_ref().is_none_or(|(b, _)| value < *b), "cut not enforced");
                if value == 0 {
                    break (OptOutcome::Optimal { value, model }, step.winner);
                }
                let cut = PbConstraint::at_most(
                    objective.terms().iter().map(|&(c, l)| (c as i64, l)),
                    value as i64 - 1,
                );
                session.broadcast(|| Command::Cut { cut: cut.clone() });
                best = Some((value, model));
            }
            SolveOutcome::Unsat => {
                let outcome = match best {
                    Some((value, model)) => OptOutcome::Optimal { value, model },
                    None => OptOutcome::Infeasible,
                };
                break (outcome, step.winner);
            }
            SolveOutcome::Unknown => {
                let outcome = match best {
                    Some((value, model)) => OptOutcome::Feasible { value, model },
                    None => OptOutcome::Unknown,
                };
                break (outcome, None);
            }
        }
    };
    Ok(PortfolioOptOutcome { outcome, winner, stats, failed_workers: session.failed_workers() })
}

// ---------------------------------------------------------------------------
// Persistent portfolio session
// ---------------------------------------------------------------------------

/// Per-field difference of two cumulative stats snapshots — the work a
/// persistent engine did between two replies. Carries the *after*
/// exhaustion reason (exhaustion is per-solve, not cumulative).
fn stats_delta(before: PbStats, after: PbStats) -> PbStats {
    let mut d = after;
    d.decisions -= before.decisions;
    d.conflicts -= before.conflicts;
    d.propagations -= before.propagations;
    d.restarts -= before.restarts;
    d.learned -= before.learned;
    d.deleted -= before.deleted;
    d.pb_conflicts -= before.pb_conflicts;
    d.learned_literals -= before.learned_literals;
    d.lbd_sum -= before.lbd_sum;
    d.exported -= before.exported;
    d.imported -= before.imported;
    d
}

/// A command sent to a persistent session worker. Shutdown is signalled by
/// dropping the sender, not by a variant.
enum Command {
    /// Answer one assumption query against the worker's long-lived engine.
    Query { id: u64, assumptions: Vec<Lit>, budget: Budget },
    /// Permanently add each literal as a unit clause before the next
    /// query. Fire-and-forget: the channel's ordering guarantees every
    /// worker applies the commit before it starts any later query, and
    /// `query` only returns once all workers are quiescent, so a clause
    /// learned from committed units can never reach a worker that has not
    /// committed them itself.
    Commit { units: Vec<Lit> },
    /// Permanently add an optimization step's objective cut before the
    /// next query, ordered and fire-and-forget exactly like `Commit`.
    Cut { cut: PbConstraint },
}

/// One worker's answer to one [`Command::Query`].
enum ReplyBody {
    /// The query ran (possibly to `Unknown`); the engine survives and the
    /// worker is ready for the next query.
    Answered {
        outcome: SolveOutcome,
        /// Failed-assumption core; non-empty only for assumption-relative
        /// `Unsat` answers.
        core: Vec<Lit>,
        /// The engine's counter *delta* since the worker's previous reply
        /// (the engine's counters are cumulative across the session): the
        /// query plus any construction or commits before it, so a
        /// worker's deltas sum to its engine's totals.
        delta: PbStats,
        /// Live learned clauses in the engine when the query started —
        /// state retained from earlier queries (0 on the first).
        retained: u64,
        run_time: Duration,
        finish: Instant,
    },
    /// The worker died (its solve panicked) and will never reply again; a
    /// possibly-corrupt engine is never reused.
    Died { summary: String, run_time: Duration },
}

struct Reply {
    worker: usize,
    query: u64,
    body: ReplyBody,
}

struct WorkerSlot {
    config: EngineConfig,
    tx: Option<Sender<Command>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl WorkerSlot {
    fn alive(&self) -> bool {
        self.tx.is_some()
    }

    /// Drops the command channel (the thread's `recv` loop exits if it is
    /// still running) and joins the thread.
    fn retire(&mut self) {
        self.tx = None;
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Builds one session worker's engine. A proof logger goes on before the
/// formula's clauses, so root simplifications enter the proof. A panic
/// here is caught like a solve's: it becomes a `Died` reply on the first
/// query instead of a hung session.
fn worker_engine(
    formula: &PbFormula,
    config: EngineConfig,
    recorder: Recorder,
    sharing: SharingHandle,
    proof: Option<SharedProof>,
) -> Result<PbEngine, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut engine = PbEngine::new(formula.num_vars(), config);
        if let Some(proof) = proof {
            engine.set_proof_logger(Box::new(AddsOnlyProofLogger::new(proof)));
        }
        for clause in formula.clauses() {
            engine.add_clause(clause.literals().iter().copied());
        }
        for pb in formula.pb_constraints() {
            engine.add_pb(pb.clone());
        }
        engine.set_recorder(recorder);
        engine.set_sharing(sharing);
        engine
    }))
    .map_err(|payload| panic_summary(payload.as_ref()))
}

/// Permanently strengthens a live engine between queries (`add_clause`
/// and `add_pb` backtrack to the root themselves). A panic here poisons
/// the engine exactly like a mid-solve panic: it is never reused.
fn commit(engine: &mut Result<PbEngine, String>, add: impl FnOnce(&mut PbEngine)) {
    if let Ok(eng) = engine.as_mut() {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| add(eng))) {
            *engine = Err(panic_summary(payload.as_ref()));
        }
    }
}

/// Body of one persistent session worker thread: answer assumption
/// queries against the engine built once, until the command channel
/// closes.
fn session_worker(
    index: usize,
    mut engine: Result<PbEngine, String>,
    recorder: Recorder,
    fault: FaultPlan,
    rx: Receiver<Command>,
    reply_tx: Sender<Reply>,
) {
    // The fault plan's worker-panic count is the 0-based query index at
    // which this worker panics, modeling a worker dying between steps
    // (see `docs/ROBUSTNESS.md`).
    let injected = fault.worker_panic(index);
    let stalled_from = fault.stalled_worker(index);
    // Engine counters as of the previous reply.
    let mut reported = PbStats::default();
    while let Ok(command) = rx.recv() {
        let (id, assumptions, budget) = match command {
            Command::Query { id, assumptions, budget } => (id, assumptions, budget),
            Command::Commit { units } => {
                commit(&mut engine, |eng| {
                    for &lit in &units {
                        eng.add_clause([lit]);
                    }
                });
                continue;
            }
            Command::Cut { cut } => {
                commit(&mut engine, |eng| eng.add_pb(cut));
                continue;
            }
        };
        let run_start = Instant::now();
        let eng = match engine.as_mut() {
            Ok(eng) => eng,
            Err(summary) => {
                let body =
                    ReplyBody::Died { summary: summary.clone(), run_time: run_start.elapsed() };
                let _ = reply_tx.send(Reply { worker: index, query: id, body });
                return;
            }
        };
        let retained = eng.live_learned() as u64;
        let solved = catch_unwind(AssertUnwindSafe(|| {
            if injected == Some(id) {
                panic!("injected fault: worker {index} panicked before query {id}");
            }
            if stalled_from.is_some_and(|from| id >= from) {
                // Simulate a wedged search: burn wall-clock without any
                // conflict progress until the budget fires — a deadline,
                // a race cancel, or the supervisor's watchdog tripping the
                // query's cancel token. The engine is untouched, so the
                // worker stays reusable after the stall.
                let budget = budget.started();
                while !budget.exhausted(0) {
                    std::thread::sleep(Duration::from_millis(2));
                }
                return (SolveOutcome::Unknown, Vec::new());
            }
            let outcome = eng.solve_with_assumptions(&assumptions, &budget);
            let core = match outcome {
                SolveOutcome::Unsat => eng.assumption_core().to_vec(),
                _ => Vec::new(),
            };
            (outcome, core)
        }));
        let finish = Instant::now();
        match solved {
            Ok((outcome, core)) => {
                if recorder.is_enabled() {
                    eng.flush_recorder();
                }
                let stats = eng.stats();
                let body = ReplyBody::Answered {
                    outcome,
                    core,
                    delta: stats_delta(reported, stats),
                    retained,
                    run_time: finish.duration_since(run_start),
                    finish,
                };
                reported = stats;
                let _ = reply_tx.send(Reply { worker: index, query: id, body });
            }
            Err(payload) => {
                let body = ReplyBody::Died {
                    summary: panic_summary(payload.as_ref()),
                    run_time: finish.duration_since(run_start),
                };
                let _ = reply_tx.send(Reply { worker: index, query: id, body });
                return;
            }
        }
    }
}

/// Result of one [`PortfolioSession::query`].
#[derive(Clone, Debug)]
pub struct SessionQueryOutcome {
    /// The decision answer under the query's assumptions (first definitive
    /// reply, else `Unknown`).
    pub outcome: SolveOutcome,
    /// Index and configuration of the worker that produced the definitive
    /// answer, when there was one.
    pub winner: Option<(usize, EngineConfig)>,
    /// Search statistics summed over all workers, as *deltas* for this
    /// query only — the work this query cost, not the session's lifetime
    /// totals.
    pub stats: PbStats,
    /// Workers that died (panicked) during *this* query; see
    /// [`PortfolioSession::failed_workers`] for the session total.
    pub failed_workers: usize,
    /// Learned clauses still live across all engines when the query
    /// started — solver state retained from earlier queries (0 on the
    /// session's first query).
    pub retained_clauses: u64,
    /// The winner's failed-assumption core when `outcome` is `Unsat` under
    /// non-empty assumptions: a subset of the query's assumptions whose
    /// conjunction the formula already refutes. Empty otherwise.
    pub core: Vec<Lit>,
}

/// A persistent portfolio: one long-lived worker thread per
/// [`EngineConfig`], each keeping its [`PbEngine`] — clause database,
/// learned-clause tiers, saved phases, restart state — and its
/// [`SharedClausePool`] handle alive across an arbitrary number of
/// assumption queries.
///
/// This is the MiniSat-family incremental-SAT idea applied to a racing
/// portfolio: each [`query`](PortfolioSession::query) races all surviving
/// workers on `solve_with_assumptions`, takes the first definitive answer
/// and cancels the rest through a per-query [`CancelToken`]. Cancellation
/// of query *i*'s losers cannot poison query *i + 1*: a cancelled engine
/// backtracks to the root on its next solve and rejoins at the next query,
/// re-importing any pool clauses it missed at its first restart boundary.
/// Learned clauses — local and imported — are derived by resolution from
/// the clause database alone (assumptions enter as decisions, never as
/// axioms), so everything retained or shared is entailed by the formula
/// plus what every worker has committed, and stays valid for every later
/// query, whatever its assumptions.
///
/// A worker that panics dies alone (its possibly-corrupt engine is never
/// reused), later queries race the survivors, and a session whose workers
/// have all died answers `Unknown`. With an enabled [`Recorder`], every
/// query records one [`WorkerTelemetry`] entry per worker with the query
/// index in its `query` field and the counters since that worker's
/// previous entry.
///
/// Dropping the session shuts the workers down and joins their threads.
pub struct PortfolioSession {
    workers: Vec<WorkerSlot>,
    reply_rx: Receiver<Reply>,
    recorder: Recorder,
    next_query: u64,
    failed_total: usize,
    pool: Arc<SharedClausePool>,
}

impl PortfolioSession {
    /// Spawns one persistent worker per config on `formula`, with clause
    /// sharing on. Workers build their engines concurrently; the call
    /// returns without waiting for them.
    ///
    /// `fault` schedules deterministic failures for chaos tests; the empty
    /// plan injects nothing. A [`FaultPlan`] worker panic's count is the
    /// 0-based **query index** at which the worker panics (a worker dying
    /// *between* ladder or optimization steps), and a stalled worker burns
    /// wall-clock from its scheduled query on.
    ///
    /// # Errors
    ///
    /// [`PortfolioError::NoWorkers`] if `configs` is empty.
    pub fn new(
        formula: &PbFormula,
        configs: &[EngineConfig],
        recorder: &Recorder,
        fault: &FaultPlan,
    ) -> Result<Self, PortfolioError> {
        Self::spawn(formula, configs, recorder, fault, None)
    }

    /// A session whose workers log every clause they add, learn or import
    /// into `proof`, one DRAT log for the whole race, with telemetry off
    /// and no faults.
    ///
    /// Each worker attaches an [`AddsOnlyProofLogger`] before adding the
    /// formula's clauses. Deletions are suppressed because one worker's
    /// deletion could strip a clause a peer's later addition resolves on;
    /// an exporter logs its clause before publishing it to the pool and an
    /// importer re-logs what it attaches, so every addition is RUP with
    /// respect to the log prefix it lands after, whichever interleaving
    /// the race produces. The log is checkable only for a pure-CNF
    /// formula.
    ///
    /// # Errors
    ///
    /// [`PortfolioError::NoWorkers`] if `configs` is empty.
    pub fn with_proof(
        formula: &PbFormula,
        configs: &[EngineConfig],
        proof: &SharedProof,
    ) -> Result<Self, PortfolioError> {
        Self::spawn(formula, configs, &Recorder::disabled(), &FaultPlan::default(), Some(proof))
    }

    fn spawn(
        formula: &PbFormula,
        configs: &[EngineConfig],
        recorder: &Recorder,
        fault: &FaultPlan,
        proof: Option<&SharedProof>,
    ) -> Result<Self, PortfolioError> {
        if configs.is_empty() {
            return Err(PortfolioError::NoWorkers);
        }
        let formula = Arc::new(formula.clone());
        let pool = SharedClausePool::new();
        let (reply_tx, reply_rx) = mpsc::channel();
        let workers = configs
            .iter()
            .enumerate()
            .map(|(index, &config)| {
                let (tx, rx) = mpsc::channel();
                let formula = Arc::clone(&formula);
                let recorder = recorder.clone();
                let fault = fault.clone();
                let sharing = pool.handle(index, SharingConfig::default());
                let proof = proof.cloned();
                let reply_tx = reply_tx.clone();
                let handle = std::thread::spawn(move || {
                    let engine = worker_engine(&formula, config, recorder.clone(), sharing, proof);
                    session_worker(index, engine, recorder, fault, rx, reply_tx)
                });
                WorkerSlot { config, tx: Some(tx), handle: Some(handle) }
            })
            .collect();
        Ok(PortfolioSession {
            workers,
            reply_rx,
            recorder: recorder.clone(),
            next_query: 0,
            failed_total: 0,
            pool,
        })
    }

    /// Sends a fresh `command()` to every surviving worker, retiring the
    /// slots whose thread is already gone; returns how many were sent.
    fn broadcast(&mut self, command: impl Fn() -> Command) -> usize {
        let mut sent = 0;
        for slot in &mut self.workers {
            let Some(tx) = &slot.tx else { continue };
            if tx.send(command()).is_ok() {
                sent += 1;
            } else {
                slot.retire();
            }
        }
        sent
    }

    /// Races all surviving workers on one assumption query and returns the
    /// first definitive answer (cancelling the losers), or `Unknown` when
    /// the budget ran out or every worker is dead.
    ///
    /// The call waits for *every* surviving worker to acknowledge the
    /// query (cancelled losers included) before returning, so the workers
    /// are quiescent — and their engines intact — when the next query
    /// starts. The budget's deadline is armed on first use; conflict caps
    /// compare against each engine's *cumulative* conflict count, so a
    /// `with_max_conflicts` budget caps the session's total work, not each
    /// query's.
    pub fn query(&mut self, assumptions: &[Lit], budget: &Budget) -> SessionQueryOutcome {
        let id = self.next_query;
        self.next_query += 1;
        let budget = budget.started();
        let race = CancelToken::new();
        let cancel_mark = CancelMark::new();
        let mut pending = self.broadcast(|| Command::Query {
            id,
            assumptions: assumptions.to_vec(),
            budget: budget.clone().with_cancel_token(race.clone()),
        });

        let mut stats = PbStats::default();
        let mut retained_clauses = 0u64;
        let mut failed_workers = 0usize;
        let mut winner: Option<(usize, SolveOutcome, Vec<Lit>)> = None;
        while pending > 0 {
            // `recv` can only fail when every worker thread has exited, in
            // which case each pending worker already sent its `Died`.
            let Ok(reply) = self.reply_rx.recv() else { break };
            if reply.query != id {
                continue;
            }
            pending -= 1;
            let config = self.workers[reply.worker].config;
            match reply.body {
                ReplyBody::Died { summary, run_time } => {
                    failed_workers += 1;
                    self.failed_total += 1;
                    self.workers[reply.worker].retire();
                    if self.recorder.is_enabled() {
                        self.recorder.record_worker(WorkerTelemetry {
                            failed: Some(summary),
                            ..cdcl_telemetry(reply.worker, &config, run_time, id)
                        });
                    }
                }
                ReplyBody::Answered { outcome, core, delta, retained, run_time, finish } => {
                    add_stats(&mut stats, delta);
                    retained_clauses += retained;
                    let mut won = false;
                    if winner.is_none()
                        && matches!(outcome, SolveOutcome::Sat(_) | SolveOutcome::Unsat)
                    {
                        winner = Some((reply.worker, outcome, core));
                        cancel_mark.stamp();
                        race.cancel();
                        won = true;
                    }
                    if self.recorder.is_enabled() {
                        self.recorder.record_worker(WorkerTelemetry {
                            search: delta.into(),
                            won,
                            cancel_latency: if won { None } else { cancel_mark.latency(finish) },
                            ..cdcl_telemetry(reply.worker, &config, run_time, id)
                        });
                    }
                }
            }
        }

        let (winner, outcome, core) = match winner {
            Some((index, outcome, core)) => {
                (Some((index, self.workers[index].config)), outcome, core)
            }
            None => (None, SolveOutcome::Unknown, Vec::new()),
        };
        if !matches!(outcome, SolveOutcome::Unknown) {
            // The query was decided; the losers' budget exhaustion is not
            // the outcome's exhaustion.
            stats.exhaust = None;
        }
        SessionQueryOutcome { outcome, winner, stats, failed_workers, retained_clauses, core }
    }

    /// Permanently adds each literal in `units` as a unit clause in every
    /// surviving worker's engine, ahead of all later queries.
    ///
    /// This strengthens the formula, so it is only sound when the caller
    /// knows every *future* query would carry these literals among its
    /// assumptions anyway — e.g. a chromatic ladder whose upper bound just
    /// dropped commits the color-indicator suffix it will never query
    /// again. Root-level units beat assumptions: the engines simplify
    /// against them once instead of re-deciding them after every restart.
    pub fn commit_units(&mut self, units: &[Lit]) {
        if !units.is_empty() {
            self.broadcast(|| Command::Commit { units: units.to_vec() });
        }
    }

    /// Number of workers still alive (spawned minus died).
    pub fn alive_workers(&self) -> usize {
        self.workers.iter().filter(|w| w.alive()).count()
    }

    /// Total workers that have died (panicked) over the session's life.
    pub fn failed_workers(&self) -> usize {
        self.failed_total
    }

    /// Queries issued so far (the next query's 0-based index).
    pub fn queries_issued(&self) -> u64 {
        self.next_query
    }

    /// The RNG seed of each worker's engine config, in worker order —
    /// persisted in checkpoints so a resumed session can diversify away
    /// from the seeds that were running when the solve died.
    pub fn worker_seeds(&self) -> Vec<u64> {
        self.workers.iter().map(|w| w.config.seed).collect()
    }

    /// Snapshot of the session's shared clause pool: every clause any
    /// worker has exported so far, with its LBD. Clauses in the pool
    /// already passed a share filter at export time and are entailed by
    /// the formula plus the units committed so far, so they are exactly
    /// the lemmas a solve checkpoint may persist.
    ///
    /// Workers keep running while the snapshot is taken; callers that
    /// need a quiescent view (the checkpoint writer) call this between
    /// queries.
    pub fn export_clauses(&self) -> Vec<(Vec<Lit>, u32)> {
        self.pool.snapshot()
    }

    /// Seeds the shared pool with externally supplied learned clauses (a
    /// resumed checkpoint's lemmas); every worker imports them at its next
    /// restart boundary. Clauses are re-filtered through the default
    /// share filter. Returns the number accepted.
    ///
    /// Only sound when each clause is entailed by the current formula —
    /// the resume path re-commits the checkpoint's bounds as root units
    /// *before* importing (see `docs/ROBUSTNESS.md`).
    pub fn import_clauses(&mut self, clauses: &[(Vec<Lit>, u32)]) -> usize {
        self.pool.seed(clauses, SharingConfig::default())
    }
}

impl Drop for PortfolioSession {
    fn drop(&mut self) {
        // Close every command channel first so all workers exit their
        // receive loops concurrently, then join.
        for slot in &mut self.workers {
            slot.tx = None;
        }
        for slot in &mut self.workers {
            if let Some(handle) = slot.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

impl std::fmt::Debug for PortfolioSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PortfolioSession(workers={}, alive={}, queries={})",
            self.workers.len(),
            self.alive_workers(),
            self.next_query
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbgc_formula::{Lit, Objective, Var};

    fn covering() -> PbFormula {
        // minimize y0 + y1 + y2 s.t. pairwise covers; optimum 2.
        let mut f = PbFormula::new();
        let y: Vec<Lit> = f.new_vars(3).into_iter().map(Var::positive).collect();
        f.add_clause([y[0], y[1]]);
        f.add_clause([y[1], y[2]]);
        f.add_clause([y[0], y[2]]);
        f.set_objective(Objective::minimize(y.iter().map(|&l| (1, l))));
        f
    }

    /// The optimization race with telemetry off and no injected faults.
    fn race_optimum(
        f: &PbFormula,
        configs: &[EngineConfig],
        budget: &Budget,
    ) -> Result<PortfolioOptOutcome, PortfolioError> {
        optimize_portfolio(f, configs, budget, &Recorder::disabled(), &FaultPlan::default())
    }

    /// A one-shot decision race: a fresh session of `n` workers answering
    /// one query without assumptions.
    fn race_decision(
        f: &PbFormula,
        n: usize,
        budget: &Budget,
        recorder: &Recorder,
        fault: &FaultPlan,
    ) -> SessionQueryOutcome {
        PortfolioSession::new(f, &portfolio_configs(n), recorder, fault)
            .expect("non-empty portfolio")
            .query(&[], budget)
    }

    #[test]
    fn configs_are_deterministic_and_start_sequential() {
        let a = portfolio_configs(4);
        let b = portfolio_configs(4);
        assert_eq!(a, b);
        assert_eq!(a[0], SolverKind::PbsII.engine_config().expect("cdcl"));
        // All workers distinct (kind or seed differs).
        for i in 0..a.len() {
            for j in i + 1..a.len() {
                assert_ne!(a[i], a[j]);
            }
        }
    }

    #[test]
    fn decision_race_agrees_with_sequential() {
        let f = covering();
        for n in 1..=4 {
            let out = race_decision(
                &f,
                n,
                &Budget::unlimited(),
                &Recorder::disabled(),
                &FaultPlan::default(),
            );
            assert!(matches!(out.outcome, SolveOutcome::Sat(_)), "n={n}");
            assert!(out.winner.is_some());
            assert!(out.stats.decisions > 0);
            assert_eq!(out.failed_workers, 0);
        }
    }

    #[test]
    fn optimization_race_finds_the_optimum() {
        let f = covering();
        for n in 1..=4 {
            let out = race_optimum(&f, &portfolio_configs(n), &Budget::unlimited())
                .expect("non-empty portfolio");
            match out.outcome {
                OptOutcome::Optimal { value, ref model } => {
                    assert_eq!(value, 2, "n={n}");
                    assert!(f.is_satisfied_by(model), "n={n}");
                }
                ref other => panic!("n={n}: expected optimal, got {other:?}"),
            }
            assert!(out.winner.is_some());
        }
    }

    #[test]
    fn infeasibility_is_detected() {
        let mut f = PbFormula::new();
        let a = f.new_var().positive();
        f.add_unit(a);
        f.add_unit(!a);
        f.set_objective(Objective::minimize([(1, a)]));
        let out = race_optimum(&f, &portfolio_configs(3), &Budget::unlimited())
            .expect("non-empty portfolio");
        assert!(out.outcome.is_infeasible());
    }

    #[test]
    fn empty_portfolio_is_a_typed_error() {
        let f = covering();
        assert_eq!(
            race_optimum(&f, &[], &Budget::unlimited()).unwrap_err(),
            PortfolioError::NoWorkers
        );
    }

    #[test]
    fn missing_objective_is_a_typed_error() {
        let mut f = PbFormula::new();
        let a = f.new_var().positive();
        f.add_unit(a);
        let err = race_optimum(&f, &portfolio_configs(2), &Budget::unlimited()).unwrap_err();
        assert_eq!(err, PortfolioError::MissingObjective);
        assert!(err.to_string().contains("objective"));
    }

    #[test]
    fn zero_budget_cancels_cleanly() {
        let f = covering();
        let b = Budget::unlimited().with_max_conflicts(0);
        let out = race_optimum(&f, &portfolio_configs(4), &b).expect("non-empty portfolio");
        assert!(!out.outcome.is_infeasible());
    }

    /// The number of optimization steps `rec` recorded: one past the
    /// highest `query` index of its worker entries.
    fn recorded_steps(rec: &Recorder) -> u64 {
        rec.workers().iter().filter_map(|w| w.query).max().map_or(0, |q| q + 1)
    }

    #[test]
    fn recorded_race_captures_worker_telemetry() {
        let f = covering();
        let rec = Recorder::new();
        let configs = portfolio_configs(3);
        let out =
            optimize_portfolio(&f, &configs, &Budget::unlimited(), &rec, &FaultPlan::default())
                .expect("non-empty portfolio");
        assert!(out.winner.is_some());
        // Every step is one session query: each worker records one entry
        // per step, and each step has exactly one winner.
        let workers = rec.workers();
        for step in 0..recorded_steps(&rec) {
            let at_step: Vec<_> = workers.iter().filter(|w| w.query == Some(step)).collect();
            assert_eq!(at_step.len(), 3, "every worker records step {step}");
            assert_eq!(at_step.iter().filter(|w| w.won).count(), 1, "one winner at step {step}");
        }
        for w in &workers {
            assert_eq!(w.seed, w.index as u64, "portfolio seeds are worker indices");
            assert!(!w.config.is_empty());
            assert!(w.failed.is_none());
        }
        // The engines flushed their counters into the shared recorder.
        assert!(rec.counter(sbgc_obs::Counter::Decisions) > 0);
        assert_eq!(rec.counter(sbgc_obs::Counter::Decisions), out.stats.decisions);
    }

    #[test]
    fn optimization_cut_reaches_every_worker() {
        // Vertex cover of K5: optimum 4, so the race takes at least one
        // model and one refutation. Every worker answers every step —
        // which it can only do after committing the previous step's cut —
        // and the steps' deltas add up to what the engines flushed.
        let mut f = PbFormula::new();
        let y: Vec<Lit> = f.new_vars(5).into_iter().map(Var::positive).collect();
        for i in 0..5 {
            for j in i + 1..5 {
                f.add_clause([y[i], y[j]]);
            }
        }
        f.set_objective(Objective::minimize(y.iter().map(|&l| (1, l))));
        let rec = Recorder::new();
        let out = optimize_portfolio(
            &f,
            &portfolio_configs(3),
            &Budget::unlimited(),
            &rec,
            &FaultPlan::default(),
        )
        .expect("non-empty portfolio");
        assert_eq!(out.outcome.value(), Some(4));
        assert!(out.outcome.is_optimal());

        let workers = rec.workers();
        let steps = recorded_steps(&rec);
        assert!(steps >= 2, "a positive optimum takes a model and a refutation");
        assert_eq!(workers.len() as u64, 3 * steps, "workers × steps entries");
        let mut winners = Vec::new();
        for step in 0..steps {
            let at_step: Vec<_> = workers.iter().filter(|w| w.query == Some(step)).collect();
            assert_eq!(at_step.len(), 3, "every worker answers step {step}");
            let won: Vec<_> = at_step.iter().filter(|w| w.won).collect();
            assert_eq!(won.len(), 1, "one winner at step {step}");
            winners.push(won[0].index);
        }
        assert_eq!(out.winner.map(|(i, _)| i), winners.last().copied(), "the last step decides");
        assert_eq!(rec.search_counters(), SearchCounters::from(out.stats));
    }

    #[test]
    fn disabled_recorder_keeps_portfolio_silent() {
        let f = covering();
        let rec = Recorder::disabled();
        let out = race_decision(&f, 2, &Budget::unlimited(), &rec, &FaultPlan::default());
        assert!(matches!(out.outcome, SolveOutcome::Sat(_)));
        assert!(rec.workers().is_empty());
        assert_eq!(rec.counter(sbgc_obs::Counter::Decisions), 0);
    }

    #[test]
    fn config_labels_name_the_presets_and_knobs() {
        let labels: Vec<String> = portfolio_configs(6).iter().map(config_label).collect();
        assert_eq!(labels[0], "PBS II (seed 0)");
        assert_eq!(labels[1], "PBS +adaptive-restarts +chrono +rephase +tiered (seed 1)");
        assert_eq!(labels[2], "Pueblo +rephase +tiered (seed 2)");
        assert_eq!(labels[3], "Galena +adaptive-restarts +chrono +tiered (seed 3)");
        // Lap 2: preset cycle again, Luby base doubled, tiered reduction.
        assert_eq!(labels[4], "PBS II +tiered (seed 4)");
        assert_eq!(labels[5], "PBS +luby100 +tiered (seed 5)");
        // Plain presets keep their plain labels.
        assert_eq!(
            config_label(&SolverKind::Pueblo.engine_config().expect("cdcl").with_seed(7)),
            "Pueblo (seed 7)"
        );
    }

    #[test]
    fn pre_cancelled_budget_returns_unknown() {
        let f = covering();
        let token = CancelToken::new();
        token.cancel();
        let b = Budget::unlimited().with_cancel_token(token);
        let out = race_decision(&f, 4, &b, &Recorder::disabled(), &FaultPlan::default());
        assert!(matches!(out.outcome, SolveOutcome::Unknown));
        assert!(out.winner.is_none());
    }

    #[test]
    fn injected_panic_leaves_survivors_winning() {
        let f = covering();
        let rec = Recorder::new();
        // Kill worker 1 immediately; workers 0 and 2 survive and decide.
        let plan = FaultPlan::new(0).with_worker_panic(1, 0);
        let out = optimize_portfolio(&f, &portfolio_configs(3), &Budget::unlimited(), &rec, &plan)
            .expect("non-empty portfolio");
        match out.outcome {
            OptOutcome::Optimal { value, .. } => assert_eq!(value, 2),
            ref other => panic!("survivors must decide, got {other:?}"),
        }
        assert_eq!(out.failed_workers, 1);
        let (winner_index, _) = out.winner.expect("a survivor won");
        assert_ne!(winner_index, 1, "the dead worker cannot win");
        // The dead worker records its death at step 0 and nothing after;
        // the two survivors record every step.
        let workers = rec.workers();
        let steps = recorded_steps(&rec) as usize;
        assert_eq!(workers.len(), 1 + 2 * steps, "dead workers still record telemetry");
        let dead: Vec<_> = workers.iter().filter(|w| w.failed.is_some()).collect();
        assert_eq!(dead.len(), 1);
        assert_eq!((dead[0].index, dead[0].query), (1, Some(0)));
        assert!(dead[0].failed.as_deref().unwrap().contains("injected fault"));
        assert!(workers.iter().all(|w| !(w.index == 1 && w.won)), "the dead worker never wins");
    }

    #[test]
    fn injected_panic_in_decision_race_is_survivable() {
        let f = covering();
        // In a session the panic count is a query index: worker 0 dies at
        // the first (and only) query.
        let plan = FaultPlan::new(7).with_worker_panic(0, 0);
        let out = race_decision(&f, 2, &Budget::unlimited(), &Recorder::disabled(), &plan);
        assert!(matches!(out.outcome, SolveOutcome::Sat(_)));
        assert_eq!(out.failed_workers, 1);
        assert_eq!(out.winner.map(|(i, _)| i), Some(1));
    }

    #[test]
    fn all_workers_dead_degrades_gracefully() {
        let f = covering();
        let plan = FaultPlan::new(0).with_worker_panic(0, 0);
        let out = optimize_portfolio(
            &f,
            &portfolio_configs(1),
            &Budget::unlimited(),
            &Recorder::disabled(),
            &plan,
        )
        .expect("non-empty portfolio");
        assert!(matches!(out.outcome, OptOutcome::Unknown | OptOutcome::Feasible { .. }));
        assert_eq!(out.failed_workers, 1);
        assert!(out.winner.is_none());
    }

    /// Clausal pigeonhole PHP(holes + 1, holes): UNSAT, with enough
    /// conflicts for workers to actually learn and exchange clauses.
    fn pigeonhole(holes: usize) -> PbFormula {
        let pigeons = holes + 1;
        let mut f = PbFormula::new();
        let x: Vec<Vec<Lit>> = (0..pigeons)
            .map(|_| f.new_vars(holes).into_iter().map(Var::positive).collect())
            .collect();
        for p in &x {
            f.add_clause(p.iter().copied());
        }
        for p in 0..pigeons {
            for q in p + 1..pigeons {
                for (&ph, &qh) in x[p].iter().zip(&x[q]) {
                    f.add_clause([!ph, !qh]);
                }
            }
        }
        f
    }

    #[test]
    fn shared_race_exchanges_clauses() {
        // On a conflict-rich UNSAT instance the race must actually use the
        // pool: someone exports, someone imports, and the summed stats
        // surface both so telemetry can report sharing traffic.
        let f = pigeonhole(5);
        let rec = Recorder::new();
        let out = race_decision(&f, 4, &Budget::unlimited(), &rec, &FaultPlan::default());
        assert!(matches!(out.outcome, SolveOutcome::Unsat));
        assert!(out.stats.exported > 0, "no worker exported a glue clause");
        // Imports are likely but racy (the winner may finish before peers
        // restart); the counters must at least be plumbed through.
        assert_eq!(rec.counter(sbgc_obs::Counter::Exported), out.stats.exported);
        assert_eq!(rec.counter(sbgc_obs::Counter::Imported), out.stats.imported);
    }

    #[test]
    fn worker_panic_does_not_poison_the_shared_pool() {
        // Minimize the gate of a gated pigeonhole: step 0 finds a model
        // with the gate on, step 1 refutes the pigeonhole under the cut
        // `gate ≤ 0`. Kill one worker before step 1 — after it has had
        // step 0 to export — with sharing on: the pool must stay usable
        // and the survivors must still refute the cut.
        let (mut f, gate) = gated_pigeonhole(4);
        f.set_objective(Objective::minimize([(1, gate)]));
        let rec = Recorder::new();
        let plan = FaultPlan::new(3).with_worker_panic(1, 1);
        let out = optimize_portfolio(&f, &portfolio_configs(3), &Budget::unlimited(), &rec, &plan)
            .expect("non-empty portfolio");
        assert!(out.outcome.is_optimal(), "survivors must refute the cut");
        assert_eq!(out.outcome.value(), Some(1));
        assert_eq!(out.failed_workers, 1);
        let (winner_index, _) = out.winner.expect("a survivor won");
        assert_ne!(winner_index, 1, "the dead worker cannot win");
    }

    /// Pigeonhole behind a gate literal: UNSAT under `¬gate`, SAT outright.
    fn gated_pigeonhole(holes: usize) -> (PbFormula, Lit) {
        let pigeons = holes + 1;
        let mut f = PbFormula::new();
        let gate = f.new_var().positive();
        let x: Vec<Vec<Lit>> = (0..pigeons)
            .map(|_| f.new_vars(holes).into_iter().map(Var::positive).collect())
            .collect();
        for p in &x {
            f.add_clause(p.iter().copied().chain([gate]));
        }
        for p in 0..pigeons {
            for q in p + 1..pigeons {
                for (&ph, &qh) in x[p].iter().zip(&x[q]) {
                    f.add_clause([!ph, !qh]);
                }
            }
        }
        (f, gate)
    }

    #[test]
    fn session_answers_assumption_queries() {
        let (f, gate) = gated_pigeonhole(4);
        let configs = portfolio_configs(3);
        let mut session =
            PortfolioSession::new(&f, &configs, &Recorder::disabled(), &FaultPlan::default())
                .expect("non-empty portfolio");
        let unsat = session.query(&[!gate], &Budget::unlimited());
        assert!(matches!(unsat.outcome, SolveOutcome::Unsat));
        assert!(unsat.winner.is_some());
        assert_eq!(unsat.core, vec![!gate], "the failed core is the gate assumption");

        let sat = session.query(&[], &Budget::unlimited());
        match sat.outcome {
            SolveOutcome::Sat(ref model) => assert!(f.is_satisfied_by(model)),
            ref other => panic!("expected sat without assumptions, got {other:?}"),
        }
        assert!(sat.core.is_empty());
        assert_eq!(session.queries_issued(), 2);
        assert_eq!(session.failed_workers(), 0);
    }

    #[test]
    fn session_retains_learned_clauses_across_queries() {
        let (f, gate) = gated_pigeonhole(5);
        let rec = Recorder::new();
        let mut session =
            PortfolioSession::new(&f, &portfolio_configs(2), &rec, &FaultPlan::default())
                .expect("non-empty portfolio");
        let first = session.query(&[!gate], &Budget::unlimited());
        assert!(matches!(first.outcome, SolveOutcome::Unsat));
        assert_eq!(first.retained_clauses, 0, "nothing to retain on the first query");
        assert!(first.stats.learned > 0, "refuting PHP(6,5) must learn clauses");

        let second = session.query(&[!gate], &Budget::unlimited());
        assert!(matches!(second.outcome, SolveOutcome::Unsat));
        assert!(
            second.retained_clauses > 0,
            "the second query must start from retained learned clauses"
        );

        // Per-query telemetry: both queries recorded, tagged with their index.
        let workers = rec.workers();
        assert_eq!(workers.len(), 4, "2 workers × 2 queries");
        for q in [0u64, 1] {
            let per_query: Vec<_> = workers.iter().filter(|w| w.query == Some(q)).collect();
            assert_eq!(per_query.len(), 2, "query {q}");
            assert_eq!(per_query.iter().filter(|w| w.won).count(), 1, "query {q}");
        }
    }

    #[test]
    fn session_worker_panic_between_queries_leaves_survivors() {
        let (f, gate) = gated_pigeonhole(4);
        let rec = Recorder::new();
        // Worker 1 panics at query index 1 — between the first and second
        // ladder steps.
        let plan = FaultPlan::new(0).with_worker_panic(1, 1);
        let mut session = PortfolioSession::new(&f, &portfolio_configs(3), &rec, &plan)
            .expect("non-empty portfolio");

        let first = session.query(&[!gate], &Budget::unlimited());
        assert!(matches!(first.outcome, SolveOutcome::Unsat));
        assert_eq!(first.failed_workers, 0);
        assert_eq!(session.alive_workers(), 3);

        let second = session.query(&[], &Budget::unlimited());
        assert!(matches!(second.outcome, SolveOutcome::Sat(_)), "survivors still answer");
        assert_eq!(second.failed_workers, 1);
        assert_eq!(session.alive_workers(), 2);
        let (winner_index, _) = second.winner.expect("a survivor won");
        assert_ne!(winner_index, 1, "the dead worker cannot win");

        let third = session.query(&[!gate], &Budget::unlimited());
        assert!(matches!(third.outcome, SolveOutcome::Unsat), "the session keeps going");
        assert_eq!(third.failed_workers, 0);
        assert_eq!(session.failed_workers(), 1);

        let dead: Vec<_> = rec.workers().into_iter().filter(|w| w.failed.is_some()).collect();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].index, 1);
        assert_eq!(dead[0].query, Some(1));
    }

    #[test]
    fn session_with_all_workers_dead_answers_unknown() {
        let f = covering();
        let plan = FaultPlan::new(0).with_worker_panic(0, 0);
        let mut session =
            PortfolioSession::new(&f, &portfolio_configs(1), &Recorder::disabled(), &plan)
                .expect("non-empty portfolio");
        let first = session.query(&[], &Budget::unlimited());
        assert!(matches!(first.outcome, SolveOutcome::Unknown));
        assert_eq!(first.failed_workers, 1);
        assert_eq!(session.alive_workers(), 0);
        // Further queries degrade to an immediate Unknown.
        let second = session.query(&[], &Budget::unlimited());
        assert!(matches!(second.outcome, SolveOutcome::Unknown));
        assert_eq!(second.failed_workers, 0);
    }

    #[test]
    fn session_empty_configs_is_a_typed_error() {
        let f = covering();
        let err = PortfolioSession::new(&f, &[], &Recorder::disabled(), &FaultPlan::default())
            .unwrap_err();
        assert_eq!(err, PortfolioError::NoWorkers);
    }

    #[test]
    fn session_pre_cancelled_budget_stays_usable() {
        // A cancelled query (all workers Unknown) must not poison the next.
        let f = covering();
        let configs = portfolio_configs(2);
        let mut session =
            PortfolioSession::new(&f, &configs, &Recorder::disabled(), &FaultPlan::default())
                .expect("non-empty portfolio");
        let token = CancelToken::new();
        token.cancel();
        let cancelled = session.query(&[], &Budget::unlimited().with_cancel_token(token));
        assert!(matches!(cancelled.outcome, SolveOutcome::Unknown));
        assert_eq!(cancelled.failed_workers, 0);
        let after = session.query(&[], &Budget::unlimited());
        assert!(matches!(after.outcome, SolveOutcome::Sat(_)));
    }
}
