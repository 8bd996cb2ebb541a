//! Machine-readable sequential-vs-portfolio benchmark.
//!
//! Runs every configured instance × SBP mode twice — once with the
//! sequential PBS II optimizer, once with the parallel clause-sharing
//! portfolio (worker count from `--jobs`, default 4) — and writes
//! `BENCH_portfolio.json` with per-run wall time, conflict counts, the
//! winning configuration, the resulting color count and per-worker
//! sharing telemetry (clauses exported/imported, mean learned-clause
//! LBD), so later changes can track the speedup curve over time.
//!
//! A second section, `ladder`, compares the *persistent incremental
//! session* (one encoding, suffix-assumption ladder, clauses retained
//! across steps) against per-k re-encoding on the chromatic-number
//! search, recording per-instance times, ladder step counts and total
//! retained clauses. The workload is the configured instances plus one
//! synthetic random graph (`gnm_32_248`) whose DSATUR overshoot makes a
//! multi-step ladder; the recorded `ladder.summary.speedup` is the
//! geometric mean of per-instance speedups over decided instances taking
//! ≥ 5 ms (totals are recorded alongside for transparency).
//!
//! A third section, `ablation`, sweeps the **full
//! [`SbpMode::EXTENDED`] grid** — the paper's four constructions plus
//! SC-clique, LI-prefix, Orbitope and ValuePrec — running each
//! instance × mode through the incremental chromatic ladder under its
//! own short per-run budget (`min(--timeout, 5 s)`, so a weak mode
//! cannot stall the whole benchmark), and records per-run time, the
//! established χ, and the mode's measured SBP aux-var/clause/PB sizes.
//! Undecided rows are recorded as such; every *decided* row must agree
//! on χ or the binary exits non-zero.
//!
//! A fourth section, `heuristics`, compares the **hybrid** chromatic
//! search (the `sbgc-heur` TabuCol/PartialCol/clique race running beside
//! the incremental ladder) against the exact-only ladder on the same
//! instances, recording per-instance DSATUR bounds and, from a standalone
//! `race_heuristics` over the same greedy bracket (deterministic, unlike
//! the hybrid run's timing-dependent telemetry), the heuristic cap and
//! the ladder rungs it skips. Two gates ride on it: hybrid and exact-only
//! must prove the same χ (soundness — always enforced), and under
//! `--min-speedup` the standalone race must skip at least one rung
//! whenever some decided instance's DSATUR bound overshot χ.
//!
//! A fifth section, `supervised`, is the resumable-solve smoke pass: a
//! supervised solve of queen6_6 writes rung-boundary checkpoints (to
//! `--checkpoint PATH` or a scratch file), a second solve resumes from
//! the result, and both must agree on χ — the binary exits non-zero when
//! a harness-written checkpoint fails to round-trip through `resume`.
//! `--watchdog-secs` and `--retries` feed straight into the supervised
//! run's [`SupervisorConfig`].
//!
//! The default instance set is the Table 3 queens subset (`queen5_5`,
//! `queen6_6`, `queen7_7`, `queen8_12`); override with `--instances`.
//! With `--min-speedup X` the binary exits non-zero when the overall
//! portfolio speedup — or the ladder's incremental-vs-reencode speedup on
//! instances decided by both sides — falls below `X`; this is the CI
//! perf-smoke gate (which therefore also runs the new modes on every
//! perf-smoke invocation, via the ablation sweep).
//!
//! `cargo run --release -p sbgc-bench --bin bench_json -- --timeout 2 --jobs 4`

use sbgc_bench::{HarnessConfig, QUICK_INSTANCES};
use sbgc_core::{
    add_instance_independent_sbps, bounds, chromatic_number, race_heuristics, solve_supervised,
    ColoringEncoding, PreparedColoring, SbpMode, SolveOptions, SupervisorConfig,
};
use sbgc_graph::{gen, suite, Graph};
use sbgc_pb::{
    optimize_portfolio, portfolio_configs, solve_decision, Budget, FaultPlan, OptOutcome,
    Optimizer, Recorder, SolveOutcome, SolverKind, WorkerTelemetry,
};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The queens rows of Table 3 present in the suite.
const QUEENS_SUBSET: [&str; 4] = ["queen5_5", "queen6_6", "queen7_7", "queen8_12"];

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

struct RunRecord {
    time: Duration,
    conflicts: u64,
    decided: bool,
    colors: Option<u64>,
    winner: Option<String>,
    /// One entry per portfolio worker per optimization step (decided or
    /// not); empty for the sequential run.
    workers: Vec<String>,
}

/// Renders one worker's telemetry at one optimization step: which
/// configuration it ran, its share of the step's clause traffic, the mean
/// LBD of what it learned, and whether it won the step.
fn worker_json(w: &WorkerTelemetry) -> String {
    format!(
        "{{\"index\": {}, \"step\": {}, \"config\": \"{}\", \"exported\": {}, \
         \"imported\": {}, \"lbd_mean\": {}, \"won\": {}}}",
        w.index,
        w.query.map_or("null".to_string(), |q| q.to_string()),
        json_escape(&w.config),
        w.search.exported,
        w.search.imported,
        w.search.mean_lbd().map_or("null".to_string(), |m| format!("{m:.3}")),
        w.won,
    )
}

/// The ladder section's baseline: χ by per-k re-encoding, the way a pure
/// decision solver is driven (the paper's §4.1 linear search). Each rung
/// builds a fresh encoding at k, drops the objective, adds the configured
/// instance-independent SBPs and runs a sequential decision solve under
/// `options.budget` (armed afresh per rung), stepping k down from the
/// greedy DSATUR bound until a rung is refuted or the clique bound is met.
/// `None` when a rung ran out of budget.
fn reencode_chromatic(graph: &Graph, options: &SolveOptions) -> Option<usize> {
    let b = bounds(graph);
    let mut upper = b.upper;
    while b.lower < upper {
        let k = upper - 1;
        let mut enc = ColoringEncoding::new(graph, k);
        enc.formula_mut().clear_objective();
        add_instance_independent_sbps(&mut enc, graph, options.sbp_mode);
        match solve_decision(enc.formula(), options.solver, &options.budget) {
            SolveOutcome::Sat(model) => {
                let coloring = enc.decode(&model).filter(|c| c.is_proper(graph))?;
                upper = coloring.compacted().num_colors().min(k);
            }
            SolveOutcome::Unsat => break,
            SolveOutcome::Unknown => return None,
        }
    }
    Some(upper)
}

impl RunRecord {
    fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"time_s\": {:.6}, \"conflicts\": {}, \"decided\": {}, \"colors\": {}",
            self.time.as_secs_f64(),
            self.conflicts,
            self.decided,
            self.colors.map_or("null".to_string(), |c| c.to_string()),
        );
        if let Some(w) = &self.winner {
            let _ = write!(s, ", \"winning_config\": \"{}\"", json_escape(w));
        }
        if !self.workers.is_empty() {
            let _ = write!(s, ", \"workers\": [{}]", self.workers.join(", "));
        }
        s.push('}');
        s
    }
}

fn main() {
    let mut config = HarnessConfig::from_args(20, Duration::from_secs(2));
    let quick: Vec<String> = QUICK_INSTANCES.iter().map(|s| s.to_string()).collect();
    if config.instances == quick {
        // No explicit --instances/--full: default to the queens subset.
        config.instances = QUEENS_SUBSET.iter().map(|s| s.to_string()).collect();
    }
    let workers = if config.jobs > 1 { config.jobs } else { 4 };
    let instances = config.build_instances();

    println!(
        "bench_json: {} instances × {} SBP modes, K = {}, timeout {:?}, {} portfolio workers",
        instances.len(),
        SbpMode::ALL.len(),
        config.k,
        config.timeout,
        workers
    );

    let mut runs = Vec::new();
    let mut seq_total = Duration::ZERO;
    let mut par_total = Duration::ZERO;
    let mut agree = true;
    for inst in &instances {
        for mode in SbpMode::ALL {
            let options = SolveOptions::new(config.k).with_sbp_mode(mode);
            let prepared = PreparedColoring::new(&inst.graph, &options);
            let formula = prepared.formula();

            let start = Instant::now();
            let mut opt = Optimizer::new(formula, SolverKind::PbsII);
            let seq_out = opt.run(&config.budget());
            let sequential = RunRecord {
                time: start.elapsed(),
                conflicts: opt.stats().conflicts,
                decided: seq_out.is_decided(),
                colors: seq_out.value(),
                winner: None,
                workers: Vec::new(),
            };

            let configs = portfolio_configs(workers);
            let rec = Recorder::new();
            let start = Instant::now();
            let par_out = optimize_portfolio(
                formula,
                &configs,
                &config.budget(),
                &rec,
                &FaultPlan::default(),
            )
            .expect("portfolio_configs is non-empty and the formula has an objective");
            let elapsed = start.elapsed();
            let mut telemetry = rec.workers();
            telemetry.sort_by_key(|w| (w.query, w.index));
            let portfolio = RunRecord {
                time: elapsed,
                conflicts: par_out.stats.conflicts,
                decided: par_out.outcome.is_decided(),
                colors: par_out.outcome.value(),
                // The worker that won the deciding step, by its label.
                winner: par_out.winner.and_then(|(index, _)| {
                    let w = telemetry.iter().find(|w| w.index == index)?;
                    Some(format!("worker {index}: {}", w.config))
                }),
                workers: telemetry.iter().map(worker_json).collect(),
            };

            seq_total += sequential.time;
            par_total += portfolio.time;
            if sequential.decided
                && portfolio.decided
                && matches!(
                    (&seq_out, &par_out.outcome),
                    (OptOutcome::Optimal { .. }, OptOutcome::Optimal { .. })
                )
                && sequential.colors != portfolio.colors
            {
                agree = false;
                eprintln!(
                    "DISAGREEMENT on {} / {}: sequential {:?} vs portfolio {:?}",
                    inst.meta.name,
                    mode.display_name(),
                    sequential.colors,
                    portfolio.colors
                );
            }
            println!(
                "  {:<10} {:<6} seq {:>8.3}s  portfolio {:>8.3}s",
                inst.meta.name,
                mode.display_name(),
                sequential.time.as_secs_f64(),
                portfolio.time.as_secs_f64()
            );
            runs.push(format!(
                "    {{\"instance\": \"{}\", \"mode\": \"{}\", \"sequential\": {}, \"portfolio\": {}}}",
                json_escape(inst.meta.name),
                json_escape(mode.display_name()),
                sequential.to_json(),
                portfolio.to_json()
            ));
        }
    }

    // Chromatic-ladder comparison: the persistent incremental session
    // (encode once, suffix assumptions, clauses retained across steps)
    // against per-k re-encoding (linear decision search builds a fresh
    // formula and engine for every color count). Only instances both
    // sides decide within budget count toward the speedup, so a shared
    // timeout cannot fake a ratio.
    println!("\nchromatic ladder: incremental session vs per-k re-encoding");
    let mut ladder_runs = Vec::new();
    let mut ladder_reencode_total = Duration::ZERO;
    let mut ladder_incremental_total = Duration::ZERO;
    let mut ladder_ratios: Vec<f64> = Vec::new();
    let mut ladder_decided = 0usize;
    let mut ladder_agree = true;
    // The suite instances, plus a synthetic random graph whose DSATUR
    // bound overshoots χ: its multi-step ladder is the workload clause
    // retention exists for (the queens ladders are one cheap SAT query
    // plus one hard UNSAT, which no amount of reuse can speed up).
    let ladder_workload: Vec<(String, Graph)> = instances
        .iter()
        .map(|inst| (inst.meta.name.to_string(), inst.graph.clone()))
        .chain([("gnm_32_248".to_string(), gen::gnm(32, 248, 14))])
        .collect();
    for (name, graph) in &ladder_workload {
        // Heuristics off on both sides: this section isolates the value
        // of clause retention, which a TabuCol incumbent would mask by
        // collapsing the ladder before the first query.
        let opts = SolveOptions::new(config.k)
            .with_sbp_mode(SbpMode::Nu)
            .with_budget(config.budget())
            .without_heuristics();
        let start = Instant::now();
        let reencode = reencode_chromatic(graph, &opts);
        let reencode_time = start.elapsed();

        let rec = Recorder::new();
        let inc_opts = opts.clone().with_recorder(rec.clone());
        let start = Instant::now();
        let incremental = chromatic_number(graph, &inc_opts);
        let incremental_time = start.elapsed();
        let steps = rec.ladder_steps();
        let retained: u64 = steps.iter().map(|s| s.retained_clauses).sum();

        let decided = reencode.is_some() && incremental.exact().is_some();
        if decided {
            ladder_reencode_total += reencode_time;
            ladder_incremental_total += incremental_time;
            ladder_decided += 1;
            // Sub-5ms instances are pure timer noise; they stay in the
            // totals but not in the gated per-instance geomean.
            if reencode_time + incremental_time >= Duration::from_millis(5) {
                ladder_ratios.push(reencode_time.as_secs_f64() / incremental_time.as_secs_f64());
            }
            if reencode != incremental.exact() {
                ladder_agree = false;
                eprintln!(
                    "LADDER DISAGREEMENT on {name}: re-encode {:?} vs incremental {:?}",
                    reencode,
                    incremental.exact()
                );
            }
        }
        println!(
            "  {:<10} re-encode {:>8.3}s  incremental {:>8.3}s  ({} steps, {} clauses retained)",
            name,
            reencode_time.as_secs_f64(),
            incremental_time.as_secs_f64(),
            steps.len(),
            retained
        );
        ladder_runs.push(format!(
            "      {{\"instance\": \"{}\", \"reencode_s\": {:.6}, \"incremental_s\": {:.6}, \
             \"decided\": {}, \"chi\": {}, \"steps\": {}, \"retained_clauses\": {}}}",
            json_escape(name),
            reencode_time.as_secs_f64(),
            incremental_time.as_secs_f64(),
            decided,
            incremental.exact().map_or("null".to_string(), |c| c.to_string()),
            steps.len(),
            retained
        ));
    }
    // SBP ablation: the full EXTENDED mode grid — the paper's four plus
    // SC-clique, LI-prefix, Orbitope and ValuePrec — each run through the
    // incremental chromatic ladder under a short per-run budget so one
    // weakly-propagating mode (no SBPs, LI, ValPrec on hard instances)
    // cannot stall the benchmark. Undecided rows are recorded honestly;
    // χ must agree across every decided row of an instance.
    println!("\nsbp ablation: incremental ladder across the full EXTENDED grid");
    let ablation_budget = config.timeout.min(Duration::from_secs(5));
    let mut ablation_runs = Vec::new();
    let mut ablation_decided = 0usize;
    let mut ablation_agree = true;
    for inst in &instances {
        let mut chi_ref: Option<(usize, SbpMode)> = None;
        for mode in SbpMode::EXTENDED {
            // Measure the mode's encoding footprint at the configured K.
            let mut enc = ColoringEncoding::new(&inst.graph, config.k);
            let sbp = add_instance_independent_sbps(&mut enc, &inst.graph, mode);

            // Heuristics off: the ablation compares SBP constructions,
            // and a shared heuristic cap would flatten their differences.
            let opts = SolveOptions::new(config.k)
                .with_sbp_mode(mode)
                .with_budget(Budget::unlimited().with_timeout(ablation_budget))
                .without_heuristics();
            let start = Instant::now();
            let result = chromatic_number(&inst.graph, &opts);
            let time = start.elapsed();
            let chi = result.exact();

            if let Some(c) = chi {
                ablation_decided += 1;
                match chi_ref {
                    None => chi_ref = Some((c, mode)),
                    Some((expected, ref_mode)) if expected != c => {
                        ablation_agree = false;
                        eprintln!(
                            "ABLATION DISAGREEMENT on {}: {} found chi = {c}, {} found chi = \
                             {expected}",
                            inst.meta.name,
                            mode.display_name(),
                            ref_mode.display_name()
                        );
                    }
                    Some(_) => {}
                }
            }
            println!(
                "  {:<10} {:<8} {:>8.3}s  chi = {:<9} (sbp: {} aux vars, {} clauses, {} pb)",
                inst.meta.name,
                mode.display_name(),
                time.as_secs_f64(),
                chi.map_or("undecided".to_string(), |c| c.to_string()),
                sbp.aux_vars,
                sbp.clauses,
                sbp.pb_constraints
            );
            ablation_runs.push(format!(
                "      {{\"instance\": \"{}\", \"mode\": \"{}\", \"time_s\": {:.6}, \
                 \"decided\": {}, \"chi\": {}, \"sbp_aux_vars\": {}, \"sbp_clauses\": {}, \
                 \"sbp_pb\": {}}}",
                json_escape(inst.meta.name),
                json_escape(mode.display_name()),
                time.as_secs_f64(),
                chi.is_some(),
                chi.map_or("null".to_string(), |c| c.to_string()),
                sbp.aux_vars,
                sbp.clauses,
                sbp.pb_constraints
            ));
        }
    }

    // Hybrid-vs-exact: the heuristic race (TabuCol/PartialCol descents
    // plus clique search) running beside the ladder must never change the
    // proven χ, and on DSATUR-overshooting instances the race must
    // recover a rung.
    println!("\nheuristics: hybrid (heuristic race + ladder) vs exact-only ladder");
    let mut heur_runs = Vec::new();
    let mut heur_agree = true;
    let mut heur_hybrid_total = Duration::ZERO;
    let mut heur_exact_total = Duration::ZERO;
    let mut heur_skipped_total: u64 = 0;
    let mut heur_rung_available = false;
    for inst in &instances {
        let base =
            SolveOptions::new(config.k).with_sbp_mode(SbpMode::Nu).with_budget(config.budget());
        let start = Instant::now();
        let exact = chromatic_number(&inst.graph, &base.clone().without_heuristics());
        let exact_time = start.elapsed();

        let start = Instant::now();
        let hybrid = chromatic_number(&inst.graph, &base);
        let hybrid_time = start.elapsed();
        // The hybrid run races the heuristics beside its ladder, so what
        // the race achieved there depends on thread timing. The rung gate
        // reads the deterministic standalone race over the same greedy
        // bracket instead (none when the bracket starts collapsed).
        let seed = bounds(&inst.graph);
        let race = (seed.lower < seed.upper).then(|| race_heuristics(&inst.graph, &base, &seed));

        heur_exact_total += exact_time;
        heur_hybrid_total += hybrid_time;
        if let (Some(e), Some(h)) = (exact.exact(), hybrid.exact()) {
            if e != h {
                heur_agree = false;
                eprintln!(
                    "HEURISTICS DISAGREEMENT on {}: exact-only chi = {e}, hybrid chi = {h}",
                    inst.meta.name
                );
            }
        }
        if let Some(r) = &race {
            heur_skipped_total += seed.upper.saturating_sub(r.upper) as u64;
            if let Some(chi) = hybrid.exact() {
                // A DSATUR overshoot above proven χ means the race had a
                // rung it should have recovered.
                if seed.upper > chi {
                    heur_rung_available = true;
                }
            }
            if r.upper > seed.upper {
                heur_agree = false;
                eprintln!(
                    "HEURISTICS REGRESSION on {}: heuristic upper {} above DSATUR {}",
                    inst.meta.name, r.upper, seed.upper
                );
            }
        }
        let (dsatur_upper, heur_upper, heur_lower, rungs_skipped) = race.as_ref().map_or(
            ("null".to_string(), "null".to_string(), "null".to_string(), 0),
            |r| {
                (
                    seed.upper.to_string(),
                    r.upper.to_string(),
                    r.lower.to_string(),
                    seed.upper.saturating_sub(r.upper),
                )
            },
        );
        println!(
            "  {:<10} exact {:>8.3}s  hybrid {:>8.3}s  (dsatur {}, heuristic upper {}, {} rungs skipped)",
            inst.meta.name,
            exact_time.as_secs_f64(),
            hybrid_time.as_secs_f64(),
            dsatur_upper,
            heur_upper,
            rungs_skipped
        );
        heur_runs.push(format!(
            "      {{\"instance\": \"{}\", \"exact_s\": {:.6}, \"hybrid_s\": {:.6}, \
             \"chi_exact\": {}, \"chi_hybrid\": {}, \"dsatur_upper\": {}, \
             \"heuristic_upper\": {}, \"heuristic_lower\": {}, \"rungs_skipped\": {}, \
             \"rejected_witnesses\": {}, \"failed_workers\": {}}}",
            json_escape(inst.meta.name),
            exact_time.as_secs_f64(),
            hybrid_time.as_secs_f64(),
            exact.exact().map_or("null".to_string(), |c| c.to_string()),
            hybrid.exact().map_or("null".to_string(), |c| c.to_string()),
            dsatur_upper,
            heur_upper,
            heur_lower,
            rungs_skipped,
            race.as_ref().map_or(0, |r| r.rejected_witnesses),
            race.as_ref().map_or(0, |r| r.failed_workers),
        ));
    }

    // Supervised checkpoint round-trip: the resumable-solve smoke pass.
    // A supervised solve of queen6_6 writes rung-boundary checkpoints
    // (`--checkpoint PATH`, or a scratch file), then a second supervised
    // solve resumes from the final checkpoint and must reach the same χ
    // without redoing any committed rung — the CI robustness gate that a
    // harness-written checkpoint actually round-trips through `resume`.
    println!("\nsupervised: checkpoint write + resume round-trip on queen6_6");
    let sup_graph = suite::build("queen6_6").graph;
    let ckpt_path = config.checkpoint.clone().map(std::path::PathBuf::from).unwrap_or_else(|| {
        std::env::temp_dir().join(format!("bench_json_{}.ckpt", std::process::id()))
    });
    // The gate needs queen6_6 decided (χ = 7 with an UNSAT proof at 6),
    // so it gets a floor under the shared --timeout.
    let sup_budget = Budget::unlimited().with_timeout(config.timeout.max(Duration::from_secs(60)));
    let sup_opts =
        SolveOptions::new(config.k.min(9)).with_sbp_mode(SbpMode::Nu).with_budget(sup_budget);
    let sup_config = {
        let mut c = config.supervisor_config().with_checkpoint_path(&ckpt_path);
        c.resume_from = config.resume.clone().map(std::path::PathBuf::from);
        c
    };
    let start = Instant::now();
    // A rejected `--resume` file (corrupted, wrong graph, wrong SBP mode)
    // is user input, not a harness bug: surface the typed error and exit
    // like the flag parser does, no backtrace.
    let first = solve_supervised(&sup_graph, &sup_opts, &sup_config).unwrap_or_else(|e| {
        eprintln!("error: supervised queen6_6 solve could not start: {e}");
        std::process::exit(2);
    });
    let first_time = start.elapsed();
    let start = Instant::now();
    let resumed = solve_supervised(
        &sup_graph,
        &sup_opts,
        &SupervisorConfig::new().with_resume_from(&ckpt_path),
    )
    .expect("resume from a harness-written checkpoint must be accepted");
    let resume_time = start.elapsed();
    let supervised_ok = first.outcome.result.exact().is_some()
        && first.outcome.result.exact() == resumed.outcome.result.exact()
        && resumed.resumed;
    println!(
        "  queen6_6   solve {:>8.3}s ({} checkpoints, {} attempts)  resume {:>8.3}s  chi = {} / {}",
        first_time.as_secs_f64(),
        first.checkpoints_written,
        first.attempts,
        resume_time.as_secs_f64(),
        first.outcome.result.exact().map_or("undecided".to_string(), |c| c.to_string()),
        resumed.outcome.result.exact().map_or("undecided".to_string(), |c| c.to_string()),
    );
    let supervised_json = format!(
        "{{\"instance\": \"queen6_6\", \"solve_s\": {:.6}, \"resume_s\": {:.6}, \
         \"checkpoints_written\": {}, \"attempts\": {}, \"watchdog_trips\": {}, \
         \"chi_first\": {}, \"chi_resumed\": {}, \"round_trip_ok\": {}}}",
        first_time.as_secs_f64(),
        resume_time.as_secs_f64(),
        first.checkpoints_written,
        first.attempts,
        first.watchdog_trips,
        first.outcome.result.exact().map_or("null".to_string(), |c| c.to_string()),
        resumed.outcome.result.exact().map_or("null".to_string(), |c| c.to_string()),
        supervised_ok
    );
    if config.checkpoint.is_none() {
        let _ = std::fs::remove_file(&ckpt_path);
    }

    // Gate on the geometric mean of per-instance speedups (the standard
    // suite metric): a totals ratio would let one instance whose ladder
    // is a single hard UNSAT query — a structural tie — drown out every
    // instance where clause retention actually pays.
    let ladder_speedup = if ladder_ratios.is_empty() {
        None
    } else {
        let geomean =
            (ladder_ratios.iter().map(|r| r.ln()).sum::<f64>() / ladder_ratios.len() as f64).exp();
        Some(geomean)
    };

    let speedup = if par_total.as_secs_f64() > 0.0 {
        seq_total.as_secs_f64() / par_total.as_secs_f64()
    } else {
        1.0
    };
    let json = format!(
        "{{\n  \"k\": {},\n  \"timeout_s\": {:.3},\n  \"workers\": {},\n  \"runs\": [\n{}\n  ],\n  \
         \"ladder\": {{\n    \"runs\": [\n{}\n    ],\n    \"summary\": {{\"reencode_total_s\": \
         {:.6}, \"incremental_total_s\": {:.6}, \"speedup\": {}, \
         \"speedup_basis\": \"geomean of decided instances >= 5ms\", \"decided_instances\": {}, \
         \"chi_agree\": {}}}\n  }},\n  \
         \"ablation\": {{\n    \"budget_s\": {:.3},\n    \"modes\": {},\n    \"runs\": \
         [\n{}\n    ],\n    \"summary\": {{\"decided_runs\": {}, \"chi_agree\": {}}}\n  }},\n  \
         \"heuristics\": {{\n    \"runs\": [\n{}\n    ],\n    \"summary\": \
         {{\"exact_total_s\": {:.6}, \"hybrid_total_s\": {:.6}, \"rungs_skipped_total\": {}, \
         \"chi_agree\": {}}}\n  }},\n  \
         \"supervised\": {},\n  \
         \"summary\": {{\"sequential_total_s\": {:.6}, \"portfolio_total_s\": {:.6}, \
         \"speedup\": {:.4}, \"optimal_color_counts_agree\": {}}}\n}}\n",
        config.k,
        config.timeout.as_secs_f64(),
        workers,
        runs.join(",\n"),
        ladder_runs.join(",\n"),
        ladder_reencode_total.as_secs_f64(),
        ladder_incremental_total.as_secs_f64(),
        ladder_speedup.map_or("null".to_string(), |s| format!("{s:.4}")),
        ladder_decided,
        ladder_agree,
        ablation_budget.as_secs_f64(),
        SbpMode::EXTENDED.len(),
        ablation_runs.join(",\n"),
        ablation_decided,
        ablation_agree,
        heur_runs.join(",\n"),
        heur_exact_total.as_secs_f64(),
        heur_hybrid_total.as_secs_f64(),
        heur_skipped_total,
        heur_agree,
        supervised_json,
        seq_total.as_secs_f64(),
        par_total.as_secs_f64(),
        speedup,
        agree
    );
    // Atomic (temp + rename): a crash mid-write must never leave a
    // truncated JSON where the previous benchmark's good data used to be.
    if let Err(err) = sbgc_obs::write_atomic("BENCH_portfolio.json".as_ref(), json.as_bytes()) {
        // The measurements are already printed; dump the JSON to stderr so
        // the data survives, then flag the failure in the exit status.
        eprintln!("error: could not write BENCH_portfolio.json: {err}");
        eprintln!("{json}");
        std::process::exit(1);
    }
    println!(
        "\ntotals: sequential {:.3}s, portfolio {:.3}s, speedup {:.2}x — wrote BENCH_portfolio.json",
        seq_total.as_secs_f64(),
        par_total.as_secs_f64(),
        speedup
    );

    if !ablation_agree {
        // A χ disagreement between decided SBP modes is a soundness bug,
        // not a perf regression: fail regardless of any --min-speedup gate.
        eprintln!("sbp ablation FAILED: decided modes disagree on chi");
        std::process::exit(1);
    }
    if !heur_agree {
        // Same reasoning: a hybrid run that proves a different χ than the
        // exact-only ladder (or a heuristic "upper bound" above DSATUR)
        // means a heuristic result leaked past the trust boundary.
        eprintln!("heuristics section FAILED: hybrid and exact-only searches disagree");
        std::process::exit(1);
    }
    if !supervised_ok {
        // A checkpoint the harness itself wrote that does not resume to
        // the same χ is a durability bug, never a perf matter.
        eprintln!("supervised section FAILED: checkpoint did not round-trip through resume");
        std::process::exit(1);
    }
    println!("supervised gate passed: harness checkpoint round-tripped through resume");

    sbgc_bench::run_certification(&config);
    sbgc_bench::write_report(&config, "bench_json");

    if let Some(min) = config.min_speedup {
        if speedup < min {
            eprintln!("perf-smoke gate FAILED: speedup {speedup:.2}x < required {min:.2}x");
            std::process::exit(1);
        }
        println!("perf-smoke gate passed: speedup {speedup:.2}x >= {min:.2}x");
        // The same threshold gates the chromatic ladder: the persistent
        // session must not lose to per-k re-encoding on decided instances.
        match ladder_speedup {
            Some(ls) if ls < min => {
                eprintln!("ladder gate FAILED: incremental speedup {ls:.2}x < required {min:.2}x");
                std::process::exit(1);
            }
            Some(ls) => println!("ladder gate passed: incremental speedup {ls:.2}x >= {min:.2}x"),
            None => println!("ladder gate skipped: no instance decided by both sides"),
        }
        // The heuristic race earns its keep by recovering ladder rungs:
        // whenever some decided instance's DSATUR bound overshot χ (as
        // queen6_6's does), at least one rung must have been skipped.
        if heur_rung_available && heur_skipped_total == 0 {
            eprintln!(
                "heuristics gate FAILED: DSATUR overshot chi but the race skipped no ladder rung"
            );
            std::process::exit(1);
        }
        println!("heuristics gate passed: {heur_skipped_total} ladder rungs skipped");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbgc_graph::gen::{mycielski, queens};

    #[test]
    fn reencode_baseline_agrees_with_the_chromatic_ladder() {
        for g in [Graph::cycle(5), mycielski(3), queens(4, 4), Graph::complete(4)] {
            let options = SolveOptions::new(20);
            let expected = chromatic_number(&g, &options).exact();
            assert!(expected.is_some());
            assert_eq!(reencode_chromatic(&g, &options), expected);
        }
    }

    #[test]
    fn reencode_baseline_with_nu_sc_sbps() {
        // Every rung carries the NU+SC predicates; they must not cut the
        // optimal 5-colouring of queen5_5.
        let options = SolveOptions::new(20).with_sbp_mode(SbpMode::NuSc);
        assert_eq!(reencode_chromatic(&queens(5, 5), &options), Some(5));
    }

    #[test]
    fn reencode_baseline_budget_exhaustion_is_undecided() {
        // One conflict per rung cannot walk myciel4 (χ = 5) down to a
        // refuted rung; an exhausted rung reports no χ rather than a wrong one.
        let options = SolveOptions::new(20).with_budget(Budget::unlimited().with_max_conflicts(1));
        let result = reencode_chromatic(&mycielski(4), &options);
        assert!(matches!(result, None | Some(5)), "got {result:?}");
    }
}
