//! The resumable solve supervisor: checkpoints, watchdog, retries.
//!
//! [`solve_supervised`] runs the incremental chromatic ladder
//! (`crate::chromatic`'s one rung loop, over the same shared bracket and
//! with the heuristic race beside it when `options.heuristics` is on)
//! inside a fault-tolerant attempt loop with three independent layers:
//!
//! 1. **Auto-checkpointing.** With a configured checkpoint path, a
//!    [`SolveCheckpoint`] — the bracket as it stands, its witness, worker
//!    seeds, and the learned clauses passing the share filter — is
//!    persisted atomically before *every* ladder query and once more when
//!    the solve ends. A process killed mid-ladder loses at most one rung
//!    of work.
//! 2. **Resume.** With a configured resume path, the supervisor loads the
//!    checkpoint, re-validates it at the trust boundary (graph
//!    fingerprint, SBP mode, witness propriety — corrupted or stale files
//!    are typed [`SolveError`]s, never panics), seeds the bracket with it,
//!    rebuilds a [`ColoringSession`], commits the bracket's upper bound as
//!    root units, and only then re-imports the persisted clauses. The
//!    order matters: each persisted clause is entailed by the encoding
//!    plus the bounds committed when it was learned. The bracket's upper
//!    bound only falls, so the one stored beside the clauses is at most
//!    every bound committed before they were learned, and committing it
//!    first makes the import sound. The encoding must also be the same
//!    one: clauses are imported only into a session of the stored width
//!    whose SBP construction follows the stored vertex order; otherwise
//!    the bracket and witness still seed the solve and no clause is.
//! 3. **Watchdog + retries.** A wall-clock watchdog thread samples the
//!    recorder's conflict counter; if no conflict progress happens for
//!    the configured window, the attempt's cancel token is tripped
//!    ("cancel"), the session's learned clauses are exported, and the
//!    solve restarts with shifted worker seeds ("reseed, restart") and an
//!    escalated budget — caps multiplied by the escalation factor per
//!    retry, up to [`MAX_ESCALATION`]. Genuine budget exhaustion retries
//!    through the same escalation path; the bracket and clauses carry
//!    over, so no retry ever re-proves a committed rung.
//!
//! See `docs/ROBUSTNESS.md` ("Checkpoint & resume", "Watchdog/retry")
//! for the operational story and the chaos tests that pin it down.

use crate::checkpoint::{CheckpointError, GraphFingerprint, SolveCheckpoint};
use crate::chromatic::{
    bounds_with_clique, run_ladder, ChromaticBounds, ChromaticOutcome, LadderEnd,
};
use crate::error::SolveError;
use crate::flow::SolveOptions;
use crate::heuristics::{race_alongside, Bracket};
use crate::sbp::SbpMode;
use crate::session::ColoringSession;
use sbgc_formula::Lit;
use sbgc_graph::{Coloring, Graph};
use sbgc_obs::{Counter, FaultPlan, Recorder, ResumeTelemetry, SupervisorTelemetry};
use sbgc_pb::CancelToken;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hard cap on the budget-escalation factor: caps double (or multiply by
/// the configured factor) per retry but never beyond this.
pub const MAX_ESCALATION: u32 = 64;

/// Worker-seed stride between attempts: each retry shifts every backend
/// engine's diversification seed by this (odd) constant so the restarted
/// search explores a genuinely different portfolio trajectory.
const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Knobs of the supervised solve. Construct with
/// [`SupervisorConfig::new`], chain the builders, and let
/// [`solve_supervised`] validate — or call
/// [`validate`](SupervisorConfig::validate) eagerly at CLI-parse time.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Where to auto-checkpoint at ladder-rung boundaries; `None`
    /// disables checkpointing.
    pub checkpoint_path: Option<PathBuf>,
    /// A checkpoint to resume from; `None` starts fresh.
    pub resume_from: Option<PathBuf>,
    /// Watchdog stall window: an attempt with no conflict progress for
    /// this long is cancelled and retried. `None` disables the watchdog.
    pub watchdog: Option<Duration>,
    /// Maximum retries after the first attempt (total attempts =
    /// `max_retries + 1`). Must be ≥ 1; a solve that should never retry
    /// belongs on the plain `chromatic_number_outcome` path.
    pub max_retries: u32,
    /// Per-retry budget multiplier (conflicts, time, memory), applied
    /// cumulatively up to [`MAX_ESCALATION`]. Must be ≥ 1; the default 2
    /// doubles per retry.
    pub escalation: u32,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            checkpoint_path: None,
            resume_from: None,
            watchdog: None,
            max_retries: 3,
            escalation: 2,
        }
    }
}

impl SupervisorConfig {
    /// The default configuration: no checkpointing, no resume, no
    /// watchdog, 3 retries, escalation factor 2.
    pub fn new() -> Self {
        Self::default()
    }

    /// Auto-checkpoint to `path` at every ladder-rung boundary.
    pub fn with_checkpoint_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint_path = Some(path.into());
        self
    }

    /// Resume from the checkpoint at `path`.
    pub fn with_resume_from(mut self, path: impl Into<PathBuf>) -> Self {
        self.resume_from = Some(path.into());
        self
    }

    /// Cancel and retry an attempt after `window` without conflict
    /// progress.
    pub fn with_watchdog(mut self, window: Duration) -> Self {
        self.watchdog = Some(window);
        self
    }

    /// Allow up to `retries` retries after the first attempt.
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Multiply budget caps by `factor` per retry.
    pub fn with_escalation(mut self, factor: u32) -> Self {
        self.escalation = factor;
        self
    }

    /// Rejects misconfigurations at parse time with typed errors instead
    /// of silent misbehavior at solve time.
    ///
    /// # Errors
    ///
    /// [`SolveError::InvalidConfig`] for a zero watchdog window (every
    /// attempt would be cancelled instantly), a retry cap of 0 (the
    /// supervisor exists to retry; use the plain chromatic entry points
    /// for one-shot solves), a zero escalation factor (retries would run
    /// with an empty budget), or a checkpoint path that is also the
    /// resume path's temp file.
    pub fn validate(&self) -> Result<(), SolveError> {
        if self.watchdog == Some(Duration::ZERO) {
            return Err(SolveError::InvalidConfig(
                "watchdog window must be positive (a zero window cancels every attempt \
                 before its first conflict)"
                    .to_string(),
            ));
        }
        if self.max_retries == 0 {
            return Err(SolveError::InvalidConfig(
                "retry cap must be at least 1; for a solve that never retries use \
                 chromatic_number_outcome directly"
                    .to_string(),
            ));
        }
        if self.escalation == 0 {
            return Err(SolveError::InvalidConfig(
                "escalation factor must be at least 1 (0 would zero every retry's budget)"
                    .to_string(),
            ));
        }
        Ok(())
    }
}

/// Everything a supervised solve produced: the chromatic answer plus the
/// supervision trace (attempts, watchdog trips, checkpoints written).
#[derive(Clone, Debug)]
pub struct SupervisedOutcome {
    /// The chromatic answer (exact or bracketed), exactly as the plain
    /// ladder would report it.
    pub outcome: ChromaticOutcome,
    /// Solve attempts made (1 = no retries were needed).
    pub attempts: u64,
    /// Times the watchdog cancelled a stalled attempt.
    pub watchdog_trips: u64,
    /// Checkpoints successfully written.
    pub checkpoints_written: u64,
    /// Whether the solve started from a restored checkpoint.
    pub resumed: bool,
}

/// Runs the incremental chromatic ladder under the supervisor loop (see
/// the module docs). Proves the same χ as `chromatic_number_outcome` when
/// `config` is all-default, plus crash safety and stall recovery when it
/// is not. Like `chromatic_number_outcome`, it races the heuristics
/// alongside the ladder when `options.heuristics` is on: one race spans
/// every attempt, starting from the greedy bracket or the restored one.
///
/// Besides the faults every ladder reads, [`SolveOptions::fault`]
/// schedules the supervisor's own chaos: mid-rung kills (a panic at the
/// start of a scheduled ladder step, after the previous rung's checkpoint
/// is on disk), checkpoint bit-flips and artifact write failures. Session
/// faults (panicking or stalled workers — the watchdog's prey) and
/// mid-rung kills apply to the first attempt only, so retries genuinely
/// recover.
///
/// # Errors
///
/// [`SolveError::InvalidConfig`] for invalid knobs,
/// [`SolveError::Checkpoint`] for unwritable/corrupted/stale checkpoints,
/// [`SolveError::UnsupportedIncremental`] for configurations without the
/// incremental session interface (the supervisor checkpoints *session*
/// state), plus everything the underlying ladder can return.
pub fn solve_supervised(
    graph: &Graph,
    options: &SolveOptions,
    config: &SupervisorConfig,
) -> Result<SupervisedOutcome, SolveError> {
    config.validate()?;
    if graph.num_vertices() == 0 {
        return Err(SolveError::EmptyGraph);
    }
    if options.k == 0 {
        return Err(SolveError::ZeroColorBound);
    }
    if !ColoringSession::supports(options) {
        return Err(SolveError::UnsupportedIncremental);
    }
    // The watchdog detects stalls through the recorder's conflict
    // counter, so supervision needs an enabled recorder even when the
    // caller runs without telemetry.
    let mut options = options.clone();
    if !options.recorder.is_enabled() && config.watchdog.is_some() {
        options.recorder = Recorder::new();
    }

    // Establish the starting bracket: a validated checkpoint with the
    // clauses it carries, or the greedy bounds. Every session is built at
    // the width the fresh DSATUR bound gives, whatever a checkpoint says.
    let (fresh, clique) = bounds_with_clique(graph);
    let dsatur_upper = fresh.upper;
    let (seed, carried, resume) = match &config.resume_from {
        Some(path) => {
            let (seed, carried, telemetry) = restore(graph, &options, path, fresh)?;
            (seed, carried, Some(telemetry))
        }
        None => (fresh, Carried::default(), None),
    };
    let bracket = Bracket::new(graph, &seed);
    let mut supervision = Supervision {
        attempts: 0,
        watchdog_trips: 0,
        checkpoints_written: 0,
        final_escalation: 1,
        config,
        resumed: resume.is_some(),
        dsatur_upper,
        clique: &clique,
    };

    if seed.lower >= seed.upper {
        // Bracket already collapsed (clique met DSATUR, or the resumed
        // checkpoint was final): provably optimal without any search. A
        // checkpoint is still written so a `--checkpoint` run always
        // leaves a resumable artifact behind.
        supervision.attempts = 1;
        supervision.write_checkpoint(graph, &options, &bracket, None)?;
        let outcome = LadderEnd::Settled.outcome(&bracket)?;
        return Ok(supervision.finish(outcome, &options.recorder));
    }

    let attempts = || supervision.run(graph, &options, &bracket, carried, resume);
    let outcome =
        if options.heuristics { race_alongside(&options, &bracket, attempts) } else { attempts() }?;
    Ok(supervision.finish(outcome, &options.recorder))
}

/// Learned clauses carried into the next attempt's session (restored from
/// a checkpoint, or exported by the attempt that ran out), with the
/// encoding width `k()` and the SBP vertex order of the session that
/// learned them.
#[derive(Default)]
struct Carried {
    width: u64,
    sbp_order: Vec<u64>,
    clauses: Vec<(Vec<Lit>, u32)>,
}

impl Carried {
    /// What `session` learned, to carry into the next attempt.
    fn from_session(session: &ColoringSession<'_>) -> Self {
        Carried {
            width: session.k() as u64,
            sbp_order: order_u64(session),
            clauses: session.export_learned(),
        }
    }

    /// Whether `session` encodes what these clauses were learned under:
    /// the same width (the clauses name its variables) and the same SBP
    /// vertex order (they are entailed only by those SBP clauses).
    fn fits(&self, session: &ColoringSession<'_>) -> bool {
        self.width == session.k() as u64 && self.sbp_order == order_u64(session)
    }
}

/// `session`'s SBP vertex order as the checkpoint stores it.
fn order_u64(session: &ColoringSession<'_>) -> Vec<u64> {
    session.sbp_order().iter().map(|&v| v as u64).collect()
}

/// Supervision bookkeeping shared by every exit path.
struct Supervision<'a> {
    attempts: u64,
    watchdog_trips: u64,
    checkpoints_written: u64,
    final_escalation: u64,
    config: &'a SupervisorConfig,
    /// Whether the solve started from a restored checkpoint.
    resumed: bool,
    /// The graph's one-shot DSATUR bound: every attempt's session width.
    dsatur_upper: usize,
    /// The graph's greedy clique: every attempt's SBP vertex order starts
    /// with it.
    clique: &'a [usize],
}

impl Supervision<'_> {
    /// The attempt loop: each attempt rebuilds the session, re-imports the
    /// carried clauses and runs the ladder over `bracket` until it settles
    /// or a limit stops it. A stopped attempt carries its clauses into a
    /// reseeded, escalated retry, or gives up honestly with everything
    /// proven so far once the retries are used up.
    fn run(
        &mut self,
        graph: &Graph,
        options: &SolveOptions,
        bracket: &Bracket<'_>,
        mut carried: Carried,
        mut resume: Option<ResumeTelemetry>,
    ) -> Result<ChromaticOutcome, SolveError> {
        let recorder = &options.recorder;
        // Injected session faults hit the first attempt only: retries
        // must demonstrate genuine recovery.
        let retry_options = SolveOptions { fault: FaultPlan::default(), ..options.clone() };
        let mut step: u64 = 0;
        loop {
            self.attempts += 1;
            let attempt = self.attempts;
            // Caps multiply per retry: factor = escalation^(attempt-1), capped.
            let factor = self
                .config
                .escalation
                .saturating_pow((attempt - 1).min(u64::from(u32::MAX)) as u32)
                .min(MAX_ESCALATION);
            self.final_escalation = u64::from(factor);
            // The first attempt runs the caller's budget verbatim (cancel
            // tokens included); retries re-arm with escalated caps and
            // fresh cancellation (a tripped watchdog token must not kill
            // them).
            let (attempt_options, base_budget) = if attempt == 1 {
                (options, options.budget.clone())
            } else {
                (&retry_options, options.budget.escalated(factor))
            };
            // Reseed: shift every engine seed per attempt (and once more
            // for a resume, diversifying away from the dead run's seeds).
            let seed_offset = SEED_STRIDE.wrapping_mul(attempt - 1 + u64::from(self.resumed));
            let mut session = ColoringSession::new_with(
                graph,
                attempt_options,
                seed_offset,
                self.dsatur_upper,
                self.clique,
            )?;
            // Order matters: committing the bracket's upper bound first
            // makes every carried clause entailed by the strengthened
            // formula, so the import below is sound. Clauses name the
            // encoding variables of the session that learned them and rest
            // on its SBP clauses, so only a session of the same width and
            // SBP vertex order may take them.
            session.commit_upper_bound(bracket.bounds().1);
            let imported =
                if carried.fits(&session) { session.import_learned(&carried.clauses) } else { 0 };
            if let Some(telemetry) = resume.take() {
                recorder.record_resume(ResumeTelemetry {
                    clauses_imported: imported as u64,
                    ..telemetry
                });
            }

            let watchdog = Watchdog::arm(self.config.watchdog, recorder);
            let budget = match &watchdog {
                Some(w) => base_budget.with_cancel_token(w.token.clone()).started(),
                None => base_budget.started(),
            };
            let kill = options.fault.mid_rung_kill().filter(|_| attempt == 1);
            let end = run_ladder(&mut session, bracket, &budget, &mut step, recorder, |s, step| {
                // The previous rung's checkpoint is on disk before a
                // scheduled kill fires.
                self.write_checkpoint(graph, options, bracket, Some(s))?;
                if kill == Some(step) {
                    panic!("injected fault: solve killed at ladder rung {step}");
                }
                Ok(())
            });
            if watchdog.is_some_and(Watchdog::disarm) {
                self.watchdog_trips += 1;
            }
            let end = end?;
            if matches!(end, LadderEnd::Settled) || attempt > u64::from(self.config.max_retries) {
                self.write_checkpoint(graph, options, bracket, Some(&session))?;
                return end.outcome(bracket);
            }
            carried = Carried::from_session(&session);
        }
    }

    /// Persists the bracket as it stands, with `session`'s learned clauses,
    /// when checkpointing is configured. Any moment is a sound one: the
    /// bracket's upper bound only falls, so the stored one is at most every
    /// bound committed before those clauses were learned. Write failures
    /// are hard errors: the caller asked for durability, and pretending to
    /// have it would be the silent misbehavior this module exists to
    /// remove.
    fn write_checkpoint(
        &mut self,
        graph: &Graph,
        options: &SolveOptions,
        bracket: &Bracket<'_>,
        session: Option<&ColoringSession<'_>>,
    ) -> Result<(), SolveError> {
        let Some(path) = &self.config.checkpoint_path else {
            return Ok(());
        };
        let result = bracket.result()?;
        let (lower, upper) = result.bracket();
        let ckpt = SolveCheckpoint {
            fingerprint: GraphFingerprint::of(graph),
            sbp: options.sbp_mode.display_name().to_string(),
            ceiling: session.map(ColoringSession::k).unwrap_or(0) as u64,
            sbp_order: session.map(order_u64).unwrap_or_default(),
            lower: lower as u64,
            upper: upper as u64,
            witness: Some(result.witness().colors().iter().map(|&c| c as u64).collect()),
            worker_seeds: session.map(ColoringSession::worker_seeds).unwrap_or_default(),
            clauses: session.map(ColoringSession::export_learned).unwrap_or_default(),
        };
        ckpt.save(path, Some(&options.fault))?;
        self.checkpoints_written += 1;
        Ok(())
    }

    /// Records the supervision summary and assembles the outcome.
    fn finish(self, outcome: ChromaticOutcome, recorder: &Recorder) -> SupervisedOutcome {
        recorder.record_supervisor(SupervisorTelemetry {
            attempts: self.attempts,
            watchdog_trips: self.watchdog_trips,
            watchdog_secs: self.config.watchdog.map(|w| w.as_secs_f64()),
            final_escalation: self.final_escalation,
            checkpoints_written: self.checkpoints_written,
            checkpoint_path: self.config.checkpoint_path.as_ref().map(|p| p.display().to_string()),
        });
        SupervisedOutcome {
            outcome,
            attempts: self.attempts,
            watchdog_trips: self.watchdog_trips,
            checkpoints_written: self.checkpoints_written,
            resumed: self.resumed,
        }
    }
}

/// Loads `path` and re-validates everything the checkpoint claims at the
/// trust boundary, against the graph's `fresh` greedy bounds. Returns the
/// restored bracket, the clauses it carries, and the resume telemetry (its
/// `clauses_imported` is filled in once the first session accepts the
/// clauses).
fn restore(
    graph: &Graph,
    options: &SolveOptions,
    path: &std::path::Path,
    fresh: ChromaticBounds,
) -> Result<(ChromaticBounds, Carried, ResumeTelemetry), SolveError> {
    let ckpt = SolveCheckpoint::load(path)?;
    let resuming = GraphFingerprint::of(graph);
    if ckpt.fingerprint != resuming {
        return Err(CheckpointError::GraphMismatch { stored: ckpt.fingerprint, resuming }.into());
    }
    match SbpMode::parse(&ckpt.sbp) {
        None => {
            return Err(CheckpointError::SbpMismatch {
                stored: ckpt.sbp,
                detail: "unknown SBP mode name".to_string(),
            }
            .into());
        }
        Some(mode) if mode != options.sbp_mode => {
            return Err(CheckpointError::SbpMismatch {
                stored: ckpt.sbp,
                detail: format!(
                    "resume options use {} — committed bounds and learned clauses are only \
                     sound under the encoding they were produced with",
                    options.sbp_mode.display_name()
                ),
            }
            .into());
        }
        Some(_) => {}
    }
    // The witness is cheap to re-check, so it is never trusted: length,
    // propriety, and color count must all hold before its upper bound
    // counts for anything.
    let upper = usize::try_from(ckpt.upper)
        .map_err(|_| CheckpointError::Malformed("upper bound exceeds usize".to_string()))?;
    let witness = match &ckpt.witness {
        None => None,
        Some(colors) => {
            let mut decoded = Vec::with_capacity(colors.len());
            for &c in colors {
                decoded.push(usize::try_from(c).map_err(|_| {
                    CheckpointError::InvalidWitness("color exceeds usize".to_string())
                })?);
            }
            let coloring = Coloring::new(decoded);
            if coloring.num_vertices() != graph.num_vertices() {
                return Err(CheckpointError::InvalidWitness(format!(
                    "witness colors {} vertices, graph has {}",
                    coloring.num_vertices(),
                    graph.num_vertices()
                ))
                .into());
            }
            if !coloring.is_proper(graph) {
                return Err(CheckpointError::InvalidWitness("improper coloring".to_string()).into());
            }
            if coloring.num_colors() > upper {
                return Err(CheckpointError::InvalidWitness(format!(
                    "witness uses {} colors, more than the claimed upper bound {}",
                    coloring.num_colors(),
                    upper
                ))
                .into());
            }
            Some(coloring.compacted())
        }
    };
    // The greedy bounds come from the graph, so the resumed bracket can
    // only be as good as or better than a fresh start — never worse, and
    // never below a provable clique bound.
    let stored_lower = usize::try_from(ckpt.lower)
        .map_err(|_| CheckpointError::Malformed("lower bound exceeds usize".to_string()))?;
    let lower = stored_lower.max(fresh.lower);
    let (upper, witness) = match witness {
        Some(w) => (w.num_colors().min(upper), w),
        // No witness in the checkpoint: the stored upper bound is
        // unwitnessed hearsay; fall back to the fresh DSATUR witness.
        None => (fresh.upper, fresh.witness),
    };
    if lower > upper {
        return Err(CheckpointError::Malformed(format!(
            "restored bracket [{lower}, {upper}] is crossed after re-validation"
        ))
        .into());
    }
    let telemetry = ResumeTelemetry {
        from_path: path.display().to_string(),
        lower,
        upper,
        witness_colors: Some(witness.num_colors()),
        clauses_offered: ckpt.clauses.len() as u64,
        clauses_imported: 0,
        rungs_skipped: fresh.upper.saturating_sub(upper) as u64,
    };
    let carried = Carried { width: ckpt.ceiling, sbp_order: ckpt.sbp_order, clauses: ckpt.clauses };
    Ok((ChromaticBounds { lower, upper, witness }, carried, telemetry))
}

/// A per-attempt watchdog: a thread that trips `token` when the
/// recorder's conflict counter stops advancing for the window.
struct Watchdog {
    token: CancelToken,
    tripped: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

impl Watchdog {
    fn arm(window: Option<Duration>, recorder: &Recorder) -> Option<Watchdog> {
        let window = window?;
        let token = CancelToken::new();
        let tripped = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let token = token.clone();
            let tripped = Arc::clone(&tripped);
            let stop = Arc::clone(&stop);
            let recorder = recorder.clone();
            // Poll often enough to trip promptly, rarely enough to stay
            // invisible next to the solver threads.
            let poll = (window / 8).clamp(Duration::from_millis(5), Duration::from_millis(250));
            std::thread::spawn(move || {
                let mut last_conflicts = recorder.counter(Counter::Conflicts);
                let mut last_progress = Instant::now();
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(poll);
                    let conflicts = recorder.counter(Counter::Conflicts);
                    if conflicts != last_conflicts {
                        last_conflicts = conflicts;
                        last_progress = Instant::now();
                    } else if last_progress.elapsed() >= window {
                        tripped.store(true, Ordering::Relaxed);
                        token.cancel();
                        return;
                    }
                }
            })
        };
        Some(Watchdog { token, tripped, stop, handle })
    }

    /// Stops the thread and reports whether it tripped.
    fn disarm(self) -> bool {
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.handle.join();
        self.tripped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::SolveOptions;
    use sbgc_graph::gen::{mycielski, queens};

    fn scratch(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sbgc-supervisor-{}-{}.ckpt", std::process::id(), name));
        p
    }

    #[test]
    fn knob_validation_rejects_degenerate_configs() {
        let zero_watchdog = SupervisorConfig::new().with_watchdog(Duration::ZERO);
        assert!(matches!(zero_watchdog.validate(), Err(SolveError::InvalidConfig(_))));
        let zero_retries = SupervisorConfig::new().with_max_retries(0);
        assert!(matches!(zero_retries.validate(), Err(SolveError::InvalidConfig(_))));
        let zero_escalation = SupervisorConfig::new().with_escalation(0);
        assert!(matches!(zero_escalation.validate(), Err(SolveError::InvalidConfig(_))));
        assert!(SupervisorConfig::new().validate().is_ok());
    }

    #[test]
    fn supervised_solve_matches_the_plain_ladder() {
        let graph = mycielski(4); // χ = 5, triangle-free: the ladder works
        let recorder = Recorder::new();
        let options = SolveOptions::new(8).with_recorder(recorder.clone());
        let out = solve_supervised(&graph, &options, &SupervisorConfig::new()).unwrap();
        assert_eq!(out.outcome.exact(), Some(5));
        assert!(out.outcome.witness().is_proper(&graph));
        assert_eq!(out.attempts, 1);
        assert_eq!(out.watchdog_trips, 0);
        assert_eq!(out.checkpoints_written, 0);
        assert!(!out.resumed);
        // The race runs beside the supervised ladder: the invariants the
        // plain hybrid ladder keeps hold under any interleaving here too.
        let h = recorder.heuristics().expect("the race ran beside the ladder");
        let steps = recorder.ladder_steps();
        assert!(steps.iter().all(|s| s.target < h.dsatur_upper), "{steps:?}");
        assert!(steps.iter().all(|s| s.outcome != "unknown"), "nothing ran out: {steps:?}");
        for pair in steps.windows(2) {
            if pair[0].outcome == "moot" {
                assert!(pair[1].target < pair[0].target, "{steps:?}");
            }
        }
    }

    #[test]
    fn k_cap_below_the_clique_bound_queries_no_rung() {
        // queens(6,6) has a 6-clique: under a cap of 4 every rung the
        // encoding can express is already refuted, so the supervisor
        // returns the final K-cap bracket without a query or a rung
        // checkpoint.
        let graph = queens(6, 6);
        let recorder = Recorder::new();
        let options = SolveOptions::new(4).with_recorder(recorder.clone());
        let path = scratch("kcap");
        let config = SupervisorConfig::new().with_checkpoint_path(&path);
        let out = solve_supervised(&graph, &options, &config).unwrap();
        let (lower, upper) = out.outcome.bracket();
        assert!(lower >= 6 && upper >= lower, "[{lower}, {upper}]");
        assert_eq!(out.outcome.exhaust, None, "a K-cap bracket is final, not exhaustion");
        assert_eq!(out.checkpoints_written, 1, "only the end-of-solve checkpoint");
        assert!(recorder.ladder_steps().is_empty(), "{:?}", recorder.ladder_steps());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checkpoints_are_written_and_resumable() {
        let graph = mycielski(4); // χ = 5, bracket starts open: rungs run
        let options = SolveOptions::new(8);
        let path = scratch("resume");
        let config = SupervisorConfig::new().with_checkpoint_path(&path);
        let out = solve_supervised(&graph, &options, &config).unwrap();
        assert_eq!(out.outcome.exact(), Some(5));
        assert!(out.checkpoints_written >= 2, "per-query + end-of-solve checkpoints");
        // The final checkpoint resumes to the exact answer without any
        // further search.
        let resume = SupervisorConfig::new().with_resume_from(&path);
        let back = solve_supervised(&graph, &options, &resume).unwrap();
        assert_eq!(back.outcome.exact(), Some(5));
        assert!(back.resumed);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_rejects_a_different_graph() {
        let graph = queens(5, 5);
        let options = SolveOptions::new(8);
        let path = scratch("stale");
        let config = SupervisorConfig::new().with_checkpoint_path(&path);
        solve_supervised(&graph, &options, &config).unwrap();
        let other = mycielski(4);
        let resume = SupervisorConfig::new().with_resume_from(&path);
        let err = solve_supervised(&other, &options, &resume).unwrap_err();
        assert!(matches!(err, SolveError::Checkpoint(CheckpointError::GraphMismatch { .. })));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_rejects_a_bit_flipped_checkpoint() {
        let graph = queens(5, 5);
        let options = SolveOptions::new(8);
        let path = scratch("flipped");
        let config = SupervisorConfig::new().with_checkpoint_path(&path);
        solve_supervised(&graph, &options, &config).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        let resume = SupervisorConfig::new().with_resume_from(&path);
        let err = solve_supervised(&graph, &options, &resume).unwrap_err();
        assert!(
            matches!(
                err,
                SolveError::Checkpoint(
                    CheckpointError::ChecksumMismatch { .. } | CheckpointError::Malformed(_)
                )
            ),
            "{err}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_rejects_a_mismatched_sbp_mode() {
        let graph = queens(5, 5);
        let options = SolveOptions::new(8).with_sbp_mode(SbpMode::Nu);
        let path = scratch("sbp");
        let config = SupervisorConfig::new().with_checkpoint_path(&path);
        solve_supervised(&graph, &options, &config).unwrap();
        let other = SolveOptions::new(8).with_sbp_mode(SbpMode::Li);
        let resume = SupervisorConfig::new().with_resume_from(&path);
        let err = solve_supervised(&graph, &other, &resume).unwrap_err();
        assert!(
            matches!(err, SolveError::Checkpoint(CheckpointError::SbpMismatch { .. })),
            "{err}"
        );
        std::fs::remove_file(&path).unwrap();
    }
}
