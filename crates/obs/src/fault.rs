//! Deterministic fault injection for chaos testing.
//!
//! A [`FaultPlan`] describes *when and where* the pipeline should fail:
//! which portfolio worker panics and at which 0-based query of its
//! session, which workers stall, which heuristic worker offers corrupt
//! witnesses, at which ladder rung a supervised solve dies, and whether
//! artifact writes fail or a checkpoint is corrupted. Plans are plain
//! data — seeded, cloneable and free of wall-clock or RNG state at
//! trigger time — so a chaos test that fails replays identically under
//! `--test-threads=1` or in a debugger.
//!
//! Production runs carry the empty plan (`FaultPlan::default()`): the
//! portfolio session takes a plan argument and `sbgc-core` carries one
//! in `SolveOptions::fault`, and an empty plan injects nothing, so the
//! machinery costs a few branches outside the solver hot path.
//!
//! # Example
//!
//! ```
//! use sbgc_obs::FaultPlan;
//!
//! let plan = FaultPlan::new(42).with_seeded_worker_panic(4, 1);
//! let victim = plan.panicking_worker().unwrap();
//! assert!(victim < 4);
//! assert_eq!(plan.worker_panic(victim), Some(1));
//! // Every other worker is untouched.
//! assert!((0..4).filter(|&w| plan.worker_panic(w).is_some()).count() == 1);
//! ```

/// A deterministic schedule of faults to inject into a solving pipeline.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    /// `(worker index, query index)`: the portfolio worker panics before
    /// that 0-based query of its session; the heuristic race ignores the
    /// query index.
    worker_panic: Option<(usize, u64)>,
    /// Heuristic worker whose offered witnesses are corrupted before the
    /// trust-boundary check (exercises improper-coloring rejection).
    improper_witness: Option<usize>,
    /// `(worker index, query index)`: from this 0-based session query on,
    /// workers at this index and above stall — they burn wall-clock
    /// without conflict progress until their budget fires (exercises the
    /// supervisor's watchdog; `(0, 0)` wedges the whole race).
    stalled_worker: Option<(usize, u64)>,
    /// 0-based ladder rung at whose *start* the supervised solve dies
    /// (after the previous rung's checkpoint was written), modeling a
    /// process kill mid-ladder.
    mid_rung_kill: Option<u64>,
    /// Byte offset whose lowest bit is flipped in a written checkpoint
    /// (exercises CRC rejection of corrupted files).
    checkpoint_corruption: Option<u64>,
    /// When set, every artifact write through the fault-aware atomic
    /// writer fails with an I/O error (a full disk).
    artifact_write_failure: bool,
}

impl FaultPlan {
    /// An empty plan (no faults) carrying `seed` for derived choices.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, ..FaultPlan::default() }
    }

    /// The seed this plan was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Schedules portfolio worker `worker` to panic before the 0-based
    /// query `query` of its session — a worker dying between ladder or
    /// optimization steps. The heuristic race panics the worker whatever
    /// the query index.
    pub fn with_worker_panic(mut self, worker: usize, query: u64) -> Self {
        self.worker_panic = Some((worker, query));
        self
    }

    /// Schedules a panic in a seed-chosen worker out of `num_workers`
    /// before the 0-based query `query`. The choice is a pure function of
    /// the seed (SplitMix64), so a given seed always kills the same
    /// worker.
    pub fn with_seeded_worker_panic(self, num_workers: usize, query: u64) -> Self {
        assert!(num_workers > 0, "need at least one worker to kill");
        let victim = (splitmix64(self.seed) % num_workers as u64) as usize;
        self.with_worker_panic(victim, query)
    }

    /// If worker `worker` is scheduled to die: the 0-based session query
    /// before which it panics (see [`FaultPlan::with_worker_panic`]).
    pub fn worker_panic(&self, worker: usize) -> Option<u64> {
        match self.worker_panic {
            Some((w, n)) if w == worker => Some(n),
            _ => None,
        }
    }

    /// The worker scheduled to panic, if any.
    pub fn panicking_worker(&self) -> Option<usize> {
        self.worker_panic.map(|(w, _)| w)
    }

    /// Schedules heuristic worker `worker` to corrupt every coloring it
    /// offers to the shared incumbent (the offer becomes improper before
    /// the trust-boundary validation sees it).
    pub fn with_improper_witness(mut self, worker: usize) -> Self {
        self.improper_witness = Some(worker);
        self
    }

    /// Whether heuristic worker `worker` is scheduled to emit corrupted
    /// witnesses.
    pub fn improper_witness(&self, worker: usize) -> bool {
        self.improper_witness == Some(worker)
    }

    /// Schedules session workers `worker` **and above** to stall (no
    /// conflict progress, only wall-clock burn) from 0-based query
    /// `from_query` onward. `with_stalled_worker(0, 0)` therefore wedges
    /// the entire race — the scenario the supervisor's watchdog exists
    /// for — while a higher index stalls only a suffix of the portfolio.
    pub fn with_stalled_worker(mut self, worker: usize, from_query: u64) -> Self {
        self.stalled_worker = Some((worker, from_query));
        self
    }

    /// If worker `worker` is scheduled to stall: the 0-based query index
    /// from which it stalls.
    pub fn stalled_worker(&self, worker: usize) -> Option<u64> {
        match self.stalled_worker {
            Some((w, q)) if worker >= w => Some(q),
            _ => None,
        }
    }

    /// Schedules the supervised solve to die at the start of 0-based
    /// ladder rung `rung`, after the previous rung's checkpoint was
    /// written.
    pub fn with_mid_rung_kill(mut self, rung: u64) -> Self {
        self.mid_rung_kill = Some(rung);
        self
    }

    /// The 0-based ladder rung at whose start the solve dies, if
    /// scheduled.
    pub fn mid_rung_kill(&self) -> Option<u64> {
        self.mid_rung_kill
    }

    /// Schedules the lowest bit of byte `offset` to be flipped in the next
    /// written checkpoint (the offset wraps modulo the file length).
    pub fn with_checkpoint_corruption(mut self, offset: u64) -> Self {
        self.checkpoint_corruption = Some(offset);
        self
    }

    /// The byte offset scheduled for a checkpoint bit-flip, if any.
    pub fn checkpoint_corruption(&self) -> Option<u64> {
        self.checkpoint_corruption
    }

    /// Makes every artifact write through the fault-aware atomic writer
    /// fail with an I/O error.
    pub fn with_artifact_write_failure(mut self) -> Self {
        self.artifact_write_failure = true;
        self
    }

    /// Whether artifact writes are scheduled to fail.
    pub fn artifact_write_failure(&self) -> bool {
        self.artifact_write_failure
    }

    /// `true` when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.worker_panic.is_none()
            && self.improper_witness.is_none()
            && self.stalled_worker.is_none()
            && self.mid_rung_kill.is_none()
            && self.checkpoint_corruption.is_none()
            && !self.artifact_write_failure
    }
}

/// SplitMix64 — the same cheap, well-mixed, dependency-free generator the
/// portfolio uses for seed diversification.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::new(7);
        assert!(plan.is_empty());
        assert_eq!(plan.worker_panic(0), None);
        assert_eq!(plan.panicking_worker(), None);
        assert_eq!(plan.seed(), 7);
    }

    #[test]
    fn worker_panic_targets_one_worker() {
        let plan = FaultPlan::new(0).with_worker_panic(2, 50);
        assert_eq!(plan.worker_panic(2), Some(50));
        assert_eq!(plan.worker_panic(0), None);
        assert_eq!(plan.worker_panic(3), None);
        assert_eq!(plan.panicking_worker(), Some(2));
    }

    #[test]
    fn seeded_choice_is_deterministic_and_in_range() {
        for seed in 0..32u64 {
            let a = FaultPlan::new(seed).with_seeded_worker_panic(4, 10);
            let b = FaultPlan::new(seed).with_seeded_worker_panic(4, 10);
            assert_eq!(a, b, "same seed must pick the same victim");
            assert!(a.panicking_worker().unwrap() < 4);
        }
        // Different seeds spread across workers (not all the same victim).
        let victims: std::collections::HashSet<usize> = (0..32u64)
            .map(|s| FaultPlan::new(s).with_seeded_worker_panic(4, 10).panicking_worker().unwrap())
            .collect();
        assert!(victims.len() > 1);
    }

    #[test]
    fn improper_witness_targets_one_worker() {
        let plan = FaultPlan::new(5).with_improper_witness(1);
        assert!(plan.improper_witness(1));
        assert!(!plan.improper_witness(0));
        assert!(!plan.is_empty());
        assert!(plan.worker_panic(1).is_none());
    }

    #[test]
    fn stalled_worker_targets_a_suffix_of_the_portfolio() {
        let plan = FaultPlan::new(3).with_stalled_worker(1, 2);
        assert_eq!(plan.stalled_worker(1), Some(2));
        assert_eq!(plan.stalled_worker(3), Some(2), "higher indices stall too");
        assert_eq!(plan.stalled_worker(0), None, "lower indices keep solving");
        assert!(!plan.is_empty());
    }

    #[test]
    fn supervisor_faults_round_trip() {
        let plan = FaultPlan::new(0)
            .with_mid_rung_kill(2)
            .with_checkpoint_corruption(17)
            .with_artifact_write_failure();
        assert_eq!(plan.mid_rung_kill(), Some(2));
        assert_eq!(plan.checkpoint_corruption(), Some(17));
        assert!(plan.artifact_write_failure());
        assert!(!plan.is_empty());
        assert!(FaultPlan::new(0).mid_rung_kill().is_none());
    }

    #[test]
    fn each_fault_alone_makes_the_plan_non_empty() {
        // `is_empty` must see every field: a plan scheduling any one fault
        // is not the production no-op plan, whatever the seed.
        let base = FaultPlan::new(9);
        let single = [
            base.clone().with_worker_panic(0, 0),
            base.clone().with_improper_witness(0),
            base.clone().with_stalled_worker(0, 0),
            base.clone().with_mid_rung_kill(0),
            base.clone().with_checkpoint_corruption(0),
            base.clone().with_artifact_write_failure(),
        ];
        for plan in &single {
            assert!(!plan.is_empty(), "{plan:?}");
            assert_ne!(plan, &base);
        }
        assert!(base.is_empty());
        assert!(FaultPlan::default().is_empty());
    }
}
