//! Supervisor chaos suite: kill-and-resume, corrupted checkpoints, and
//! watchdog-driven restarts, end to end.
//!
//! These are the acceptance tests of the resumable-solve layer (see
//! `docs/ROBUSTNESS.md`):
//!
//! * a solve killed mid-ladder resumes from its on-disk checkpoint,
//!   skips the already-committed rungs (visible in the `ladder[]` and
//!   `resume` telemetry of the v8 report schema), and reaches the same χ;
//! * a bit-flipped checkpoint is rejected with a typed error, never a
//!   panic or a silently wrong resume;
//! * a deliberately stalled portfolio is detected by the wall-clock
//!   watchdog, cancelled, and restarted with an escalated budget — and
//!   the retried race still completes;
//! * a resume re-imports the checkpoint's learned clauses exactly when it
//!   rebuilds the encoding width and the SBP vertex order they were
//!   learned under;
//! * with the heuristic race running beside the ladder, a killed solve
//!   still resumes to the same χ;
//! * on random G(n,p) instances, killing the solve at a scheduled ladder
//!   rung and resuming agrees exactly with the uninterrupted solve
//!   (seeded and deterministic, so failures replay).

use sbgc_core::{
    solve_supervised, CheckpointError, SbpMode, SolveCheckpoint, SolveError, SolveOptions,
    SupervisorConfig,
};
use sbgc_graph::gen::{gnp, mycielski, queens};
use sbgc_obs::{FaultPlan, Recorder, RunReport};
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sbgc-supervisor-it-{}-{name}.ckpt", std::process::id()))
}

/// Kills a queen6_6 solve under `options` at the start of ladder rung
/// `rung` and returns once its checkpoint is on disk at `path`.
fn kill_queen6_6_at(options: &SolveOptions, rung: u64, path: &Path) {
    let config = SupervisorConfig::new().with_checkpoint_path(path);
    let fault = FaultPlan::new(17).with_mid_rung_kill(rung);
    let killed = std::panic::catch_unwind(AssertUnwindSafe(|| {
        solve_supervised(&queens(6, 6), &options.clone().with_fault_plan(fault), &config)
    }));
    let message = match killed {
        Err(payload) => *payload.downcast::<String>().expect("panic carries its message"),
        Ok(out) => panic!("the injected kill at rung {rung} must unwind, got {out:?}"),
    };
    assert!(message.contains("injected fault"), "{message}");
    assert!(path.exists(), "the previous rung's checkpoint must already be on disk");
}

#[test]
fn killed_queen6_6_solve_resumes_and_skips_committed_rungs() {
    // χ(queen6_6) = 7. Without heuristics the DSATUR bracket is open, so
    // rung 0 is a SAT query that commits a tighter upper bound (and its
    // checkpoint); the injected kill then fires at the start of rung 1.
    let graph = queens(6, 6);
    let path = scratch("queen66-kill");
    kill_queen6_6_at(&SolveOptions::new(9).without_heuristics(), 1, &path);

    // Resume from the checkpoint: same χ, and the committed rung is never
    // re-proved — every remaining ladder query targets at most the
    // restored upper bound minus one.
    let rec = Recorder::new();
    let resume_options = SolveOptions::new(9).without_heuristics().with_recorder(rec.clone());
    let resume = SupervisorConfig::new().with_resume_from(&path);
    let out = solve_supervised(&graph, &resume_options, &resume).expect("checkpoint accepted");
    assert_eq!(out.outcome.exact(), Some(7), "resumed solve reaches χ(queen6_6)");
    assert!(out.resumed);
    assert!(out.outcome.witness().is_proper(&graph));

    let telemetry = rec.resume().expect("resume telemetry recorded");
    assert!(telemetry.rungs_skipped >= 1, "the committed rung is skipped: {telemetry:?}");
    assert!(telemetry.upper <= 8, "rung 0's checkpoint tightened the DSATUR bracket");
    assert!(telemetry.witness_colors.is_some());
    let steps = rec.ladder_steps();
    assert!(!steps.is_empty(), "the resumed ladder still proves the lower bound");
    assert!(
        steps.iter().all(|s| s.target < telemetry.upper),
        "no resumed query re-asks a committed rung: {steps:?}"
    );

    // The v8 report schema carries the whole story.
    let mut report = RunReport::default();
    report.from_recorder(&rec);
    let json = report.to_json(0);
    assert!(json.contains("\"resume\""), "{json}");
    assert!(json.contains("\"rungs_skipped\""), "{json}");
    assert!(json.contains("\"supervisor\""), "{json}");
    assert!(json.contains("\"ladder\""), "{json}");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn resume_reimports_clauses_only_at_the_same_encoding_width() {
    // K 9 encodes queen6_6 at width min(DSATUR 9 − 1, 9) = 8, and rung 0
    // (a SAT query at 8) leaves learned clauses in the rung-1 checkpoint.
    let graph = queens(6, 6);
    let path = scratch("queen66-reimport");
    kill_queen6_6_at(&SolveOptions::new(9).without_heuristics(), 1, &path);
    let resume = SupervisorConfig::new().with_resume_from(&path);

    // The same width takes every offered clause.
    let rec = Recorder::new();
    let options = SolveOptions::new(9).without_heuristics().with_recorder(rec.clone());
    let out = solve_supervised(&graph, &options, &resume).expect("checkpoint accepted");
    assert_eq!(out.outcome.exact(), Some(7));
    let telemetry = rec.resume().expect("resume telemetry recorded");
    assert!(telemetry.clauses_offered > 0, "rung 0 learned clauses: {telemetry:?}");
    assert_eq!(telemetry.clauses_imported, telemetry.clauses_offered, "{telemetry:?}");

    // K 7 rebuilds a width-7 encoding: the width-8 clauses name other
    // variables, so none may be imported, and χ is still proved.
    let rec = Recorder::new();
    let options = SolveOptions::new(7).without_heuristics().with_recorder(rec.clone());
    let out = solve_supervised(&graph, &options, &resume).expect("checkpoint accepted");
    assert_eq!(out.outcome.exact(), Some(7));
    let telemetry = rec.resume().expect("resume telemetry recorded");
    assert!(telemetry.clauses_offered > 0);
    assert_eq!(telemetry.clauses_imported, 0, "{telemetry:?}");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn resume_reimports_clauses_only_under_the_same_sbp_vertex_order() {
    // ValPrec follows a vertex order computed from the graph; clauses
    // learned under it rest on its SBP clauses. A checkpoint that names
    // another order keeps its bracket and witness but gives no clause.
    let graph = queens(6, 6);
    let path = scratch("queen66-order");
    let options = SolveOptions::new(9).with_sbp_mode(SbpMode::ValuePrec).without_heuristics();
    kill_queen6_6_at(&options, 1, &path);
    let stored = SolveCheckpoint::load(&path).expect("checkpoint on disk");
    assert_eq!(stored.sbp_order.len(), graph.num_vertices(), "ValPrec stores its order");
    let resume = SupervisorConfig::new().with_resume_from(&path);

    // The stored order: the clauses are imported (all but those the
    // rebuilt root level already satisfies).
    let rec = Recorder::new();
    let out = solve_supervised(&graph, &options.clone().with_recorder(rec.clone()), &resume)
        .expect("checkpoint accepted");
    assert_eq!(out.outcome.exact(), Some(7));
    let telemetry = rec.resume().expect("resume telemetry recorded");
    assert!(telemetry.clauses_offered > 0, "rung 0 learned clauses: {telemetry:?}");
    assert!(telemetry.clauses_imported > 0, "{telemetry:?}");

    // Another order at the same width: nothing is imported, and the
    // restored bracket still leads to the same χ.
    let mut reordered = stored.clone();
    reordered.sbp_order.reverse();
    reordered.save(&path, None).expect("rewrite the checkpoint");
    let rec = Recorder::new();
    let out = solve_supervised(&graph, &options.clone().with_recorder(rec.clone()), &resume)
        .expect("checkpoint accepted");
    assert_eq!(out.outcome.exact(), Some(7));
    assert!(out.outcome.witness().is_proper(&graph));
    let telemetry = rec.resume().expect("resume telemetry recorded");
    assert_eq!(telemetry.clauses_offered, stored.clauses.len() as u64);
    assert_eq!(telemetry.clauses_imported, 0, "{telemetry:?}");
    assert_eq!(telemetry.upper as u64, stored.upper, "the bracket is still restored");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn killed_solve_with_the_race_beside_it_resumes_to_chi() {
    // The race cannot lift the lower bound past queen6_6's 6-clique while
    // χ = 7, so the bracket stays open and rung 0 always starts: the kill
    // fires on every run, whatever the race has done by then.
    let graph = queens(6, 6);
    let path = scratch("queen66-race-kill");
    kill_queen6_6_at(&SolveOptions::new(9), 0, &path);

    let rec = Recorder::new();
    let options = SolveOptions::new(9).with_recorder(rec.clone());
    let resume = SupervisorConfig::new().with_resume_from(&path);
    let out = solve_supervised(&graph, &options, &resume).expect("checkpoint accepted");
    assert_eq!(out.outcome.exact(), Some(7), "resumed solve reaches χ(queen6_6)");
    assert!(out.resumed);
    assert!(out.outcome.witness().is_proper(&graph));
    // The resumed race starts from the restored bracket.
    let restored = rec.resume().expect("resume telemetry recorded");
    let race = rec.heuristics().expect("the race ran beside the resumed ladder");
    assert_eq!(race.dsatur_upper, restored.upper);
    assert_eq!(race.greedy_clique_lower, restored.lower);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn resume_from_a_witness_with_a_huge_color_reaches_chi() {
    // A checkpoint re-saved with a valid CRC whose witness renames one
    // color class to u64::MAX: still proper and no more colors, so the
    // trust boundary must count and compact it — without wrapping
    // `color + 1` or sizing a table by the color — and the resumed solve
    // must reach χ. The stored lower bound is dropped (a weaker claim is
    // still sound) so the resumed ladder has rungs left to run.
    let graph = mycielski(3); // χ = 4
    let path = scratch("huge-color");
    let options = SolveOptions::new(6);
    let config = SupervisorConfig::new().with_checkpoint_path(&path);
    let out = solve_supervised(&graph, &options, &config).expect("a clean solve");
    assert_eq!(out.outcome.exact(), Some(4));
    let mut ckpt = SolveCheckpoint::load(&path).expect("checkpoint on disk");
    let witness = ckpt.witness.as_mut().expect("the checkpoint keeps its witness");
    let renamed = witness[0];
    for c in witness.iter_mut().filter(|c| **c == renamed) {
        *c = u64::MAX;
    }
    let mut distinct = witness.clone();
    distinct.sort_unstable();
    distinct.dedup();
    ckpt.lower = 1;
    ckpt.save(&path, None).expect("rewrite the checkpoint");

    let rec = Recorder::new();
    let resume = SupervisorConfig::new().with_resume_from(&path);
    let out = solve_supervised(&graph, &options.clone().with_recorder(rec.clone()), &resume)
        .expect("the renamed witness is accepted");
    assert!(out.resumed);
    assert_eq!(out.outcome.exact(), Some(4));
    assert!(out.outcome.witness().is_proper(&graph));
    let restored = rec.resume().expect("resume telemetry recorded");
    assert_eq!(restored.witness_colors, Some(distinct.len()), "counted, not rejected");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn bit_flipped_checkpoint_is_rejected_with_a_typed_error() {
    // The corruption is injected at write time (one flipped bit in the
    // payload), modeling storage rot between the save and the resume.
    let graph = mycielski(4); // χ = 5
    let path = scratch("bit-flip");
    let options = SolveOptions::new(8);
    let fault = FaultPlan::new(3).with_checkpoint_corruption(41);
    let config = SupervisorConfig::new().with_checkpoint_path(&path);
    let out = solve_supervised(&graph, &options.clone().with_fault_plan(fault), &config)
        .expect("corruption only bites at load time");
    assert_eq!(out.outcome.exact(), Some(5));

    let resume = SupervisorConfig::new().with_resume_from(&path);
    let err = solve_supervised(&graph, &options, &resume)
        .expect_err("a corrupted checkpoint must never resume");
    match err {
        SolveError::Checkpoint(CheckpointError::ChecksumMismatch { stored, computed }) => {
            assert_ne!(stored, computed);
        }
        other => panic!("expected a checksum rejection, got {other:?}"),
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn watchdog_restarts_a_stalled_race_and_still_completes() {
    // Every portfolio worker stalls from the very first query (burning
    // wall-clock with zero conflict progress). The watchdog must trip,
    // cancel the attempt, and the reseeded, escalated retry — where the
    // fault no longer applies — must still prove χ(myciel3) = 4.
    let graph = mycielski(3);
    let rec = Recorder::new();
    let options =
        SolveOptions::new(6).with_parallelism(4).with_recorder(rec.clone()).without_heuristics();
    let fault = FaultPlan::new(7).with_stalled_worker(0, 0);
    let config =
        SupervisorConfig::new().with_watchdog(Duration::from_millis(250)).with_max_retries(2);
    let out = solve_supervised(&graph, &options.with_fault_plan(fault), &config)
        .expect("a stall is recoverable, not an error");
    assert_eq!(out.outcome.exact(), Some(4), "the race still completes");
    assert!(out.watchdog_trips >= 1, "the stall must be detected: {out:?}");
    assert!(out.attempts >= 2, "the stalled attempt must be retried: {out:?}");

    let sup = rec.supervisor().expect("supervisor telemetry recorded");
    assert_eq!(sup.attempts, out.attempts);
    assert_eq!(sup.watchdog_trips, out.watchdog_trips);
    assert!(sup.final_escalation >= 2, "retries run with escalated budgets: {sup:?}");
    assert_eq!(sup.watchdog_secs, Some(0.25));
}

#[test]
fn random_gnp_kill_and_resume_agrees_with_the_uninterrupted_solve() {
    // Seeded G(n,p) property sweep: for each instance, the uninterrupted
    // supervised solve fixes the ground truth; a solve killed at a seeded
    // ladder rung and resumed from its checkpoint must reach the same χ
    // with a proper witness. Everything is derived from the seed — a
    // failing case replays identically.
    for seed in [11u64, 23, 47] {
        let graph = gnp(18, 0.45, seed);
        if graph.num_vertices() == 0 {
            continue;
        }
        let options = SolveOptions::new(12).without_heuristics();
        let truth = solve_supervised(&graph, &options, &SupervisorConfig::new())
            .expect("uninterrupted solve")
            .outcome;
        let chi = truth.exact().expect("small G(n,p) instances decide");

        let path = scratch(&format!("gnp-{seed}"));
        let config = SupervisorConfig::new().with_checkpoint_path(&path);
        let kill_rung = seed % 3; // seeded, spread over early rungs
        let fault = FaultPlan::new(seed).with_mid_rung_kill(kill_rung);
        let killed = std::panic::catch_unwind(AssertUnwindSafe(|| {
            solve_supervised(&graph, &options.clone().with_fault_plan(fault), &config)
        }));
        let resumed = match killed {
            // The kill fired mid-ladder: resume from the checkpoint.
            Err(_) => {
                assert!(path.exists(), "seed {seed}: checkpoint written before the kill");
                let resume = SupervisorConfig::new().with_resume_from(&path);
                solve_supervised(&graph, &options, &resume).expect("resume accepted").outcome
            }
            // The ladder finished before the scheduled rung: the result
            // must already agree, and the final checkpoint still resumes.
            Ok(done) => {
                done.expect("supervised solve");
                let resume = SupervisorConfig::new().with_resume_from(&path);
                solve_supervised(&graph, &options, &resume).expect("resume accepted").outcome
            }
        };
        assert_eq!(resumed.exact(), Some(chi), "seed {seed}: resumed χ agrees");
        let witness = resumed.witness();
        assert!(witness.is_proper(&graph), "seed {seed}: resumed witness is proper");
        assert!(witness.num_colors() <= chi, "seed {seed}: witness within χ");
        std::fs::remove_file(&path).unwrap();
    }
}
