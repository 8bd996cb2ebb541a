//! Search budgets: conflict limits, wall-clock limits, and cooperative
//! cancellation.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared flag that tells a running solver to stop at the next budget
/// check.
///
/// Cloning a token yields a handle to the *same* flag, so one clone can be
/// handed to a solver (inside a [`Budget`]) while another is kept to
/// [`cancel`](CancelToken::cancel) it from a different thread. This is how
/// the parallel portfolio stops losing workers once one worker finds a
/// definitive answer: every worker's budget carries a clone of the race
/// token, and the winner sets it.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken(Arc::new(AtomicBool::new(false)))
    }

    /// Trips the flag. All budgets carrying a clone of this token report
    /// exhaustion from now on.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether the flag has been tripped.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Why a budgeted solve stopped before reaching a definitive answer.
///
/// The engine records the first reason observed on the stride-64 budget
/// path in its stats (`PbStats::exhaust` in `sbgc-pb`), and the value
/// flows up through portfolio telemetry and run reports so that a timeout,
/// a memory cap and an external cancellation are distinguishable after the
/// fact — the paper reports timeouts as *data*, and so do we.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExhaustReason {
    /// The conflict cap ([`Budget::with_max_conflicts`]) was reached.
    Conflicts,
    /// The wall-clock deadline ([`Budget::with_timeout`]) passed.
    Time,
    /// The clause-arena memory cap ([`Budget::with_max_memory`]) was
    /// exceeded.
    Memory,
    /// An attached [`CancelToken`] was tripped (e.g. a portfolio race was
    /// won by another worker).
    Cancelled,
}

impl ExhaustReason {
    /// Stable lower-case label used in JSON reports and log lines.
    pub fn as_str(self) -> &'static str {
        match self {
            ExhaustReason::Conflicts => "conflicts",
            ExhaustReason::Time => "time",
            ExhaustReason::Memory => "memory",
            ExhaustReason::Cancelled => "cancelled",
        }
    }
}

impl std::fmt::Display for ExhaustReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A resource budget for a solver run.
///
/// The paper runs every solver with a 1000-second timeout; our experiment
/// harness uses much smaller wall-clock budgets so the full grid completes
/// in-session, plus deterministic conflict budgets for reproducible tests.
///
/// Wall-clock budgets are *deferred*: [`with_timeout`](Budget::with_timeout)
/// records the duration, and the countdown starts when a solver entry point
/// calls [`started`](Budget::started). This lets a budget be built once
/// (e.g. in a CLI config) and reused across solves without the setup time
/// between construction and the first solve counting against the limit.
///
/// # Example
///
/// ```
/// use sbgc_sat::Budget;
/// use std::time::Duration;
/// let b = Budget::unlimited()
///     .with_max_conflicts(10_000)
///     .with_timeout(Duration::from_secs(2));
/// assert!(!b.conflicts_exhausted(9_999));
/// assert!(b.conflicts_exhausted(10_000));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Budget {
    max_conflicts: Option<u64>,
    timeout: Option<Duration>,
    deadline: Option<Instant>,
    max_memory: Option<u64>,
    cancel: Vec<CancelToken>,
}

impl Budget {
    /// A budget with no limits.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Caps the number of conflicts.
    pub fn with_max_conflicts(mut self, max: u64) -> Self {
        self.max_conflicts = Some(max);
        self
    }

    /// Caps wall-clock time. The countdown is armed by
    /// [`started`](Budget::started), which every solver entry point calls,
    /// so the limit is measured from the start of the solve rather than
    /// from this call.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self.deadline = None;
        self
    }

    /// Caps the clause-arena footprint, in bytes.
    ///
    /// The engine (`PbEngine` in `sbgc-pb`) keeps a running estimate of the
    /// bytes held by its constraint arenas and compares it against this cap
    /// on the same stride-64 path as the other budget checks. Exceeding the
    /// cap ends the solve with [`ExhaustReason::Memory`]; learned-clause
    /// reductions and arena compaction can bring a solver back under the
    /// cap before the next check, so the limit bounds the *steady-state*
    /// footprint rather than aborting on a transient spike.
    pub fn with_max_memory(mut self, bytes: u64) -> Self {
        self.max_memory = Some(bytes);
        self
    }

    /// Attaches a cancellation token. May be called more than once; the
    /// budget is exhausted as soon as *any* attached token is cancelled,
    /// so a caller-supplied token composes with e.g. a portfolio race
    /// token.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel.push(token);
        self
    }

    /// Arms the wall-clock countdown, returning a budget whose deadline is
    /// `now + timeout`. Idempotent: if the deadline is already armed (an
    /// outer entry point started the clock), it is left untouched, so
    /// nested solve calls — e.g. the decision queries inside an
    /// optimization loop — share one deadline instead of each restarting
    /// it.
    #[must_use]
    pub fn started(&self) -> Self {
        let mut armed = self.clone();
        if armed.deadline.is_none() {
            armed.deadline = armed.timeout.map(|t| Instant::now() + t);
        }
        armed
    }

    /// The conflict cap, if one was set.
    pub fn max_conflicts(&self) -> Option<u64> {
        self.max_conflicts
    }

    /// The wall-clock limit, if one was set (armed or not).
    pub fn timeout(&self) -> Option<Duration> {
        self.timeout
    }

    /// The armed deadline, if [`started`](Budget::started) has run on a
    /// budget with a timeout. Supervisors use this to align watchdog
    /// polling with the solve's own wall-clock horizon.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Wall-clock time left until the armed deadline (`None` when no
    /// deadline is armed; zero once it has passed).
    pub fn remaining_time(&self) -> Option<Duration> {
        self.deadline.map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// The memory cap in bytes, if one was set.
    pub fn max_memory(&self) -> Option<u64> {
        self.max_memory
    }

    /// A budget with every *resource* cap multiplied by `factor` — the
    /// escalation step of a supervised retry loop. Conflict, time and
    /// memory caps scale (saturating); cancellation tokens are **not**
    /// carried over (a retry must not be stillborn because the previous
    /// attempt's race token is still tripped), and the deadline is
    /// disarmed so the scaled timeout re-arms from the retry's own start.
    #[must_use]
    pub fn escalated(&self, factor: u32) -> Self {
        Budget {
            max_conflicts: self.max_conflicts.map(|m| m.saturating_mul(factor as u64)),
            timeout: self.timeout.map(|t| t.saturating_mul(factor)),
            deadline: None,
            max_memory: self.max_memory.map(|m| m.saturating_mul(factor as u64)),
            cancel: Vec::new(),
        }
    }

    /// Returns `true` once `conflicts` meets or exceeds the conflict cap.
    pub fn conflicts_exhausted(&self, conflicts: u64) -> bool {
        self.max_conflicts.is_some_and(|m| conflicts >= m)
    }

    /// Returns `true` once the (armed) wall-clock deadline has passed.
    pub fn time_exhausted(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Returns `true` once `bytes` exceeds the memory cap.
    pub fn memory_exhausted(&self, bytes: u64) -> bool {
        self.max_memory.is_some_and(|m| bytes > m)
    }

    /// Returns `true` once any attached cancellation token is tripped.
    pub fn cancelled(&self) -> bool {
        self.cancel.iter().any(CancelToken::is_cancelled)
    }

    /// Returns `true` if any resource is exhausted or the budget was
    /// cancelled.
    pub fn exhausted(&self, conflicts: u64) -> bool {
        self.conflicts_exhausted(conflicts) || self.time_exhausted() || self.cancelled()
    }

    /// Like [`exhausted`](Budget::exhausted) but also checks the memory
    /// cap against `arena_bytes` and reports *which* resource ran out.
    ///
    /// Checks are ordered by how actionable the reason is for a caller:
    /// cancellation (another worker won — not this run's fault), then
    /// memory, then time, then conflicts. Returns `None` while the budget
    /// still has headroom.
    pub fn exhaust_reason(&self, conflicts: u64, arena_bytes: u64) -> Option<ExhaustReason> {
        if self.cancelled() {
            Some(ExhaustReason::Cancelled)
        } else if self.memory_exhausted(arena_bytes) {
            Some(ExhaustReason::Memory)
        } else if self.time_exhausted() {
            Some(ExhaustReason::Time)
        } else if self.conflicts_exhausted(conflicts) {
            Some(ExhaustReason::Conflicts)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_exhausts() {
        let b = Budget::unlimited();
        assert!(!b.exhausted(u64::MAX));
    }

    #[test]
    fn conflict_cap() {
        let b = Budget::unlimited().with_max_conflicts(5);
        assert!(!b.exhausted(4));
        assert!(b.exhausted(5));
    }

    #[test]
    fn deadline_armed_at_start_not_construction() {
        let b = Budget::unlimited().with_timeout(Duration::from_secs(0));
        std::thread::sleep(Duration::from_millis(1));
        // Not armed yet: construction time does not count.
        assert!(!b.time_exhausted());
        let b = b.started();
        std::thread::sleep(Duration::from_millis(1));
        assert!(b.time_exhausted());
    }

    #[test]
    fn started_is_idempotent() {
        let b = Budget::unlimited().with_timeout(Duration::from_millis(200)).started();
        let inner = b.started();
        // The inner call must not push the deadline further out.
        assert_eq!(b.deadline, inner.deadline);
    }

    #[test]
    fn cancellation_exhausts() {
        let token = CancelToken::new();
        let b = Budget::unlimited().with_cancel_token(token.clone());
        assert!(!b.exhausted(0));
        token.cancel();
        assert!(b.exhausted(0));
        assert!(b.cancelled());
    }

    #[test]
    fn memory_cap() {
        let b = Budget::unlimited().with_max_memory(1024);
        assert!(!b.memory_exhausted(1024));
        assert!(b.memory_exhausted(1025));
        assert_eq!(b.exhaust_reason(0, 2048), Some(ExhaustReason::Memory));
        assert_eq!(b.exhaust_reason(0, 0), None);
    }

    #[test]
    fn exhaust_reason_precedence() {
        let token = CancelToken::new();
        let b = Budget::unlimited()
            .with_max_conflicts(5)
            .with_max_memory(100)
            .with_cancel_token(token.clone());
        assert_eq!(b.exhaust_reason(0, 0), None);
        assert_eq!(b.exhaust_reason(5, 0), Some(ExhaustReason::Conflicts));
        assert_eq!(b.exhaust_reason(5, 200), Some(ExhaustReason::Memory));
        token.cancel();
        assert_eq!(b.exhaust_reason(5, 200), Some(ExhaustReason::Cancelled));
    }

    #[test]
    fn exhaust_reason_labels() {
        assert_eq!(ExhaustReason::Conflicts.as_str(), "conflicts");
        assert_eq!(ExhaustReason::Time.as_str(), "time");
        assert_eq!(ExhaustReason::Memory.to_string(), "memory");
        assert_eq!(ExhaustReason::Cancelled.as_str(), "cancelled");
    }

    #[test]
    fn accessors_round_trip() {
        let b = Budget::unlimited()
            .with_max_conflicts(100)
            .with_timeout(Duration::from_secs(3))
            .with_max_memory(4096);
        assert_eq!(b.max_conflicts(), Some(100));
        assert_eq!(b.timeout(), Some(Duration::from_secs(3)));
        assert_eq!(b.max_memory(), Some(4096));
        assert_eq!(b.deadline(), None, "deadline arms on started(), not construction");
        assert_eq!(b.remaining_time(), None);
        let armed = b.started();
        assert!(armed.deadline().is_some());
        assert!(armed.remaining_time().expect("armed") <= Duration::from_secs(3));
    }

    #[test]
    fn escalation_scales_caps_and_drops_cancellation() {
        let token = CancelToken::new();
        token.cancel();
        let b = Budget::unlimited()
            .with_max_conflicts(100)
            .with_timeout(Duration::from_secs(2))
            .with_max_memory(1000)
            .with_cancel_token(token)
            .started();
        let e = b.escalated(2);
        assert_eq!(e.max_conflicts(), Some(200));
        assert_eq!(e.timeout(), Some(Duration::from_secs(4)));
        assert_eq!(e.max_memory(), Some(2000));
        assert_eq!(e.deadline(), None, "the scaled timeout re-arms from the retry's start");
        assert!(!e.cancelled(), "a tripped token must not leak into the retry");
        // Unlimited dimensions stay unlimited.
        let u = Budget::unlimited().escalated(4);
        assert_eq!(u.max_conflicts(), None);
        assert_eq!(u.timeout(), None);
    }

    #[test]
    fn any_of_several_tokens_cancels() {
        let a = CancelToken::new();
        let b = CancelToken::new();
        let budget = Budget::unlimited().with_cancel_token(a.clone()).with_cancel_token(b.clone());
        assert!(!budget.exhausted(0));
        b.cancel();
        assert!(budget.exhausted(0));
        assert!(!a.is_cancelled());
    }
}
