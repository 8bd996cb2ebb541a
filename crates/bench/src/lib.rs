//! Shared harness for the table/figure reproduction binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper:
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `table1` | Table 1 — the 20-instance benchmark suite |
//! | `table2` | Table 2 — formula sizes + symmetry statistics per SBP mode |
//! | `table3` | Table 3 — solver grid at K = 20 |
//! | `table4` | Table 4 — solver grid at K = 30 |
//! | `table5` | Table 5 — per-instance queens detail, five solvers |
//! | `figure1` | Figure 1 — admitted assignments per SBP construction |
//!
//! All binaries accept `--timeout <secs>`, `--k <K>`, `--instances a,b,c`
//! and `--full` (full 20-instance suite at paper parameters; the default is
//! a quick subset so a complete run finishes in minutes — absolute times
//! differ from the paper's 2002-era Sun Blade 1000s anyway, it is the
//! relative ordering that reproduces).
//!
//! The table binaries and `bench_json` also accept `--report PATH`, which
//! re-runs each configured instance once with a live [`Recorder`] attached
//! and writes a structured JSON [`ReportFile`] — per-phase timings, search
//! counters, encoding sizes, detection statistics, and (with `--jobs N`,
//! N > 1) per-worker portfolio telemetry. The schema is documented
//! field-by-field in `docs/OBSERVABILITY.md`.
//!
//! With `--certify` the binaries additionally re-derive each instance's
//! chromatic number on the SBP-free pure-CNF decision encoding, replay the
//! DRAT refutation of χ−1 under a greedy clique's pins through the
//! independent checker of `sbgc-proof`, and exit non-zero unless every
//! instance certifies ([`run_certification`]); `--proof DIR` writes each
//! proof as `DIR/<instance>.drat` next to the formula it refutes,
//! `DIR/<instance>.cnf` (with one unit clause per pin).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sbgc_core::{
    certify_result_parallel, chromatic_number_certified, cnf_decision_formula, cnf_pins,
    solve_coloring, ChromaticResult, ColoringOutcome, OptimalityCertificate, PreparedColoring,
    ProofStatus, Recorder, SbpMode, SolveOptions, SolverKind, SupervisorConfig, SymmetryHandling,
};
use sbgc_graph::suite::{self, Instance};
use sbgc_graph::Graph;
use sbgc_obs::{
    CertificateStats, DetectionStats, EncodingSize, InstanceInfo, ReportFile, RunOutcome,
    RunReport, SbpTelemetry,
};
use sbgc_pb::Budget;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Locks a mutex even if a previous holder panicked. The only data behind
/// these locks are per-instance result slots, which are written atomically
/// (a single `Option` assignment), so a poisoned lock never guards a
/// half-updated value.
fn lock_tolerant<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Harness configuration parsed from the command line.
#[derive(Clone, Debug)]
pub struct HarnessConfig {
    /// Per-run wall-clock timeout (the paper used 1000 s).
    pub timeout: Duration,
    /// The color bound K.
    pub k: usize,
    /// Instance names to run.
    pub instances: Vec<String>,
    /// Print per-instance rows in addition to totals.
    pub per_instance: bool,
    /// Number of grid cells run concurrently (`--jobs N`, default 1).
    /// Per-cell times are still measured on the worker thread, so reported
    /// solve times stay meaningful; only wall-clock completion of the
    /// whole table shrinks.
    pub jobs: usize,
    /// When set (`--report PATH`), the binary writes a structured JSON
    /// [`ReportFile`] of instrumented per-instance runs to this path after
    /// the table prints. Schema documented in `docs/OBSERVABILITY.md`.
    pub report: Option<String>,
    /// With `--certify`, re-derive every instance's chromatic number on the
    /// SBP-free pure-CNF decision encoding and check the DRAT refutation of
    /// χ−1 under a greedy clique's pins with the independent checker; the
    /// binary exits non-zero if any certificate fails (see
    /// [`run_certification`]).
    pub certify: bool,
    /// With `--proof DIR`, certification writes each DRAT proof to
    /// `DIR/<instance>.drat` and its formula to `DIR/<instance>.cnf`
    /// (implies nothing by itself; only used when
    /// `certify` is set).
    pub proof_dir: Option<String>,
    /// With `--min-speedup X`, binaries that measure a sequential-vs-
    /// portfolio speedup (currently `bench_json`) exit non-zero when the
    /// overall speedup falls below `X` — the CI perf-smoke gate.
    pub min_speedup: Option<f64>,
    /// With `--sbp MODE`, override the instance-independent SBP
    /// construction used by the binary's canonical runs (`table1` rows,
    /// the `--report` instrumented runs). Accepts any
    /// [`SbpMode::parse`] spelling (`nu+sc`, `orbitope`, `li-pfx`, …);
    /// `None` keeps each binary's default (NU+SC). Grid binaries that
    /// already sweep every mode (`table2`–`table5`, `bench_json`'s
    /// ablation) ignore this.
    pub sbp: Option<SbpMode>,
    /// With `--checkpoint PATH`, supervised runs auto-checkpoint the
    /// k-ladder state to `PATH` at every rung boundary (see
    /// `docs/ROBUSTNESS.md`, "Checkpoint & resume"). Currently honored by
    /// `bench_json`'s supervised smoke pass.
    pub checkpoint: Option<String>,
    /// With `--resume PATH`, supervised runs restore the ladder from the
    /// checkpoint at `PATH` instead of starting fresh; the file is
    /// re-validated at load (CRC, graph fingerprint, SBP mode, witness).
    pub resume: Option<String>,
    /// With `--watchdog-secs N`, supervised runs cancel and retry any
    /// attempt that makes no conflict progress for `N` seconds. Must be
    /// positive — validated at parse time.
    pub watchdog_secs: Option<f64>,
    /// With `--retries N`, supervised runs allow `N` retries after the
    /// first attempt (escalating budgets). Must be at least 1 — validated
    /// at parse time; `None` keeps the supervisor default.
    pub retries: Option<u32>,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            timeout: Duration::from_secs(30),
            k: 5,
            instances: QUICK_INSTANCES.iter().map(|s| s.to_string()).collect(),
            per_instance: false,
            jobs: 1,
            report: None,
            certify: false,
            proof_dir: None,
            min_speedup: None,
            sbp: None,
            checkpoint: None,
            resume: None,
            watchdog_secs: None,
            retries: None,
        }
    }
}

/// The quick default subset: small and medium instances from five of the
/// seven families, chosen so the full grid finishes in minutes.
pub const QUICK_INSTANCES: [&str; 8] =
    ["myciel3", "myciel4", "myciel5", "queen5_5", "queen6_6", "huck", "jean", "miles250"];

impl HarnessConfig {
    /// Parses `std::env::args`-style flags ([`HarnessConfig::parse`]); an
    /// unknown flag or a bad value exits 2 with a usage line.
    pub fn from_args(default_k: usize, default_timeout: Duration) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&args, default_k, default_timeout).unwrap_or_else(|message| usage(&message))
    }

    /// Parses `args`, the flags after the binary name, over the given
    /// defaults, then validates the supervision knobs
    /// ([`HarnessConfig::validate_supervision`]).
    ///
    /// # Errors
    ///
    /// The message [`HarnessConfig::from_args`] prints above its usage
    /// line: an unknown flag, a missing or malformed value, `--k 0`, an
    /// `--instances` name outside the suite (the message lists the suite),
    /// or seconds that are negative, NaN or too large for a [`Duration`].
    pub fn parse(
        args: &[String],
        default_k: usize,
        default_timeout: Duration,
    ) -> Result<Self, String> {
        let mut config =
            HarnessConfig { timeout: default_timeout, k: default_k, ..HarnessConfig::default() };
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let flag = flag.as_str();
            let mut value = |what: &str| args.next().ok_or_else(|| format!("{flag} needs {what}"));
            match flag {
                "--timeout" => config.timeout = seconds(flag, value("seconds")?)?,
                "--k" => {
                    config.k = value("a positive integer")?
                        .parse()
                        .ok()
                        .filter(|&k| k > 0)
                        .ok_or("--k needs a positive integer")?;
                }
                "--instances" => {
                    let list = value("a list")?;
                    config.instances = list.split(',').map(|s| s.trim().to_string()).collect();
                    let known = |name: &str| suite::SUITE.iter().any(|m| m.name == name);
                    if let Some(name) = config.instances.iter().find(|name| !known(name)) {
                        return Err(format!(
                            "unknown instance `{name}` (try one of: {})",
                            suite::SUITE.map(|m| m.name).join(", ")
                        ));
                    }
                }
                "--full" => {
                    config.instances = suite::SUITE.iter().map(|m| m.name.to_string()).collect();
                }
                "--per-instance" => config.per_instance = true,
                "--jobs" => {
                    let jobs: usize =
                        value("an integer")?.parse().map_err(|_| "--jobs needs an integer")?;
                    config.jobs = jobs.max(1);
                }
                "--report" => config.report = Some(value("a path")?.clone()),
                "--certify" => config.certify = true,
                "--min-speedup" => {
                    // A NaN threshold would pass every `speedup < min` gate.
                    let min =
                        value("a finite number")?.parse().ok().filter(|m: &f64| m.is_finite());
                    config.min_speedup = Some(min.ok_or("--min-speedup needs a finite number")?);
                }
                "--proof" => config.proof_dir = Some(value("a directory")?.clone()),
                "--sbp" => {
                    let name = value("a mode name")?;
                    config.sbp = Some(SbpMode::parse(name).ok_or_else(|| {
                        format!(
                            "unknown SBP mode `{name}` (try one of: {})",
                            SbpMode::EXTENDED.map(|m| m.display_name()).join(", ")
                        )
                    })?);
                }
                "--checkpoint" => config.checkpoint = Some(value("a path")?.clone()),
                "--resume" => config.resume = Some(value("a path")?.clone()),
                "--watchdog-secs" => {
                    config.watchdog_secs = Some(seconds(flag, value("seconds")?)?.as_secs_f64());
                }
                "--retries" => {
                    let retries = value("an integer")?.parse();
                    config.retries = Some(retries.map_err(|_| "--retries needs an integer")?);
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        config.validate_supervision()?;
        Ok(config)
    }

    /// Parse-time validation of the supervision knobs: degenerate values
    /// (`--watchdog-secs 0`, `--retries 0`) and output-path collisions
    /// (`--checkpoint` aliasing `--report` or `--resume` would make one
    /// artifact clobber another) are rejected before any solving starts,
    /// with the same typed messages [`SupervisorConfig::validate`] uses.
    pub fn validate_supervision(&self) -> Result<(), String> {
        if let Some(secs) = self.watchdog_secs {
            if !Duration::try_from_secs_f64(secs).is_ok_and(|window| !window.is_zero()) {
                return Err("--watchdog-secs must be positive and finite (a zero window \
                            cancels every attempt before its first conflict)"
                    .to_string());
            }
        }
        if self.retries == Some(0) {
            return Err("--retries must be at least 1 (the supervisor exists to retry)".to_string());
        }
        if let Some(ckpt) = &self.checkpoint {
            if self.report.as_deref() == Some(ckpt.as_str()) {
                return Err(format!(
                    "--checkpoint and --report both point at `{ckpt}`; the checkpoint would \
                     clobber the report"
                ));
            }
        }
        self.supervisor_config().validate().map_err(|e| e.to_string())
    }

    /// The [`SupervisorConfig`] these flags describe (defaults where a
    /// knob was not given). Call [`validate_supervision`] first when the
    /// values come from an untrusted command line.
    ///
    /// [`validate_supervision`]: HarnessConfig::validate_supervision
    pub fn supervisor_config(&self) -> SupervisorConfig {
        let mut sup = SupervisorConfig::new();
        if let Some(path) = &self.checkpoint {
            sup = sup.with_checkpoint_path(path);
        }
        if let Some(path) = &self.resume {
            sup = sup.with_resume_from(path);
        }
        if let Some(secs) = self.watchdog_secs {
            sup = sup.with_watchdog(Duration::try_from_secs_f64(secs).unwrap_or_default());
        }
        if let Some(retries) = self.retries {
            sup = sup.with_max_retries(retries);
        }
        sup
    }

    /// Builds the configured instances.
    pub fn build_instances(&self) -> Vec<Instance> {
        self.instances.iter().map(|name| suite::build(name)).collect()
    }

    /// The solver budget for one run.
    pub fn budget(&self) -> Budget {
        Budget::unlimited().with_timeout(self.timeout)
    }
}

/// Parses `value`, the argument of `flag`, as a number of seconds.
fn seconds(flag: &str, value: &str) -> Result<Duration, String> {
    value
        .parse()
        .ok()
        .and_then(|secs| Duration::try_from_secs_f64(secs).ok())
        .ok_or_else(|| format!("{flag} needs a non-negative, finite number of seconds"))
}

fn usage(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!(
        "usage: <bin> [--timeout SECS] [--k K] [--instances a,b,c] [--full] [--per-instance] \
         [--jobs N] [--report PATH] [--certify] [--proof DIR] [--min-speedup X] [--sbp MODE] \
         [--checkpoint PATH] [--resume PATH] [--watchdog-secs N] [--retries N]"
    );
    std::process::exit(2)
}

/// One cell of the solver grid: total time over the instance set and the
/// number of instances decided (solved to optimality or proven UNSAT) —
/// the `Tm.`/`#S` pairs of Tables 3–5.
#[derive(Clone, Copy, Debug, Default)]
pub struct GridCell {
    /// Summed wall-clock solve time (timeouts contribute the timeout).
    pub total_time: Duration,
    /// Number of instances decided within the budget.
    pub solved: usize,
}

impl GridCell {
    /// Formats like the paper: total seconds (rounded) and solve count.
    pub fn render(&self) -> String {
        format!("{:>8.1}s {:>3}", self.total_time.as_secs_f64(), self.solved)
    }
}

/// The per-instance work of one grid row: cells (one per solver) plus the
/// `--per-instance` report lines, kept as strings so worker threads never
/// interleave output.
struct InstanceRow {
    cells: Vec<GridCell>,
    lines: Vec<String>,
}

fn run_instance_row(
    inst: &Instance,
    k: usize,
    mode: SbpMode,
    symmetry: SymmetryHandling,
    solvers: &[SolverKind],
    budget_for: &(impl Fn() -> Budget + Sync),
    per_instance: bool,
) -> InstanceRow {
    let mut row =
        InstanceRow { cells: vec![GridCell::default(); solvers.len()], lines: Vec::new() };
    let mut options = SolveOptions::new(k).with_sbp_mode(mode);
    options.symmetry = symmetry;
    let prepared = PreparedColoring::new(&inst.graph, &options);
    for (cell, &solver) in row.cells.iter_mut().zip(solvers) {
        // Timing happens inside `solve`, on this worker thread.
        let report = prepared.solve(&inst.graph, solver, &budget_for());
        cell.total_time += report.solve_time;
        if report.outcome.is_decided() {
            cell.solved += 1;
        }
        if per_instance {
            let outcome = match &report.outcome {
                o if o.is_decided() => match o.colors() {
                    Some(c) => format!("optimal {c}"),
                    None => format!("UNSAT at K={k}"),
                },
                o => match o.colors() {
                    Some(c) => format!("feasible {c} (timeout)"),
                    None => "timeout".to_string(),
                },
            };
            row.lines.push(format!(
                "    {:<12} {:<7} i.d.={:<5} {:<7} {:>8.2}s  {}",
                inst.meta.name,
                mode.display_name(),
                matches!(symmetry, SymmetryHandling::WithInstanceDependent),
                solver.display_name(),
                report.solve_time.as_secs_f64(),
                outcome
            ));
        }
    }
    row
}

/// Runs one (SBP mode × symmetry handling) configuration over the instance
/// set for *all* the given solvers, preparing each instance (encoding +
/// symmetry detection) only once. Returns one `Tm.`/`#S` cell per solver,
/// in the given order.
///
/// With `jobs > 1` the per-instance work is distributed over that many
/// scoped worker threads (a shared atomic work queue — instances are
/// claimed in order, results are merged and printed in instance order, so
/// the output is identical to a sequential run). Each cell's solve time is
/// still measured on the thread that ran it.
#[allow(clippy::too_many_arguments)]
pub fn run_grid_row(
    instances: &[Instance],
    k: usize,
    mode: SbpMode,
    symmetry: SymmetryHandling,
    solvers: &[SolverKind],
    budget_for: impl Fn() -> Budget + Sync,
    per_instance: bool,
    jobs: usize,
) -> Vec<GridCell> {
    let rows: Vec<Mutex<Option<InstanceRow>>> =
        instances.iter().map(|_| Mutex::new(None)).collect();
    let jobs = jobs.max(1).min(instances.len().max(1));
    if jobs == 1 {
        for (inst, slot) in instances.iter().zip(&rows) {
            *lock_tolerant(slot) =
                Some(run_instance_row(inst, k, mode, symmetry, solvers, &budget_for, per_instance));
        }
    } else {
        let next = AtomicUsize::new(0);
        let (next, rows, budget_for) = (&next, &rows, &budget_for);
        std::thread::scope(|s| {
            for _ in 0..jobs {
                s.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(inst) = instances.get(i) else { break };
                    let row = run_instance_row(
                        inst,
                        k,
                        mode,
                        symmetry,
                        solvers,
                        budget_for,
                        per_instance,
                    );
                    *lock_tolerant(&rows[i]) = Some(row);
                });
            }
        });
    }

    let mut cells = vec![GridCell::default(); solvers.len()];
    for slot in rows {
        let row = slot
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .expect("worker filled every slot");
        for (cell, c) in cells.iter_mut().zip(&row.cells) {
            cell.total_time += c.total_time;
            cell.solved += c.solved;
        }
        for line in row.lines {
            println!("{line}");
        }
    }
    cells
}

/// Convenience wrapper for a single (mode × symmetry × solver) cell.
pub fn run_grid_cell(
    instances: &[Instance],
    k: usize,
    mode: SbpMode,
    symmetry: SymmetryHandling,
    solver: SolverKind,
    budget_for: impl Fn() -> Budget + Sync,
    per_instance: bool,
) -> GridCell {
    run_grid_row(instances, k, mode, symmetry, &[solver], budget_for, per_instance, 1)
        .pop()
        .expect("one cell per solver")
}

/// Renders a Markdown-ish table row.
pub fn render_row(cells: &[String]) -> String {
    cells.join(" | ")
}

/// Flattens an [`OptimalityCertificate`] into the dependency-free
/// [`CertificateStats`] form the JSON report schema carries.
pub fn certificate_stats(cert: &OptimalityCertificate) -> CertificateStats {
    let mut stats = CertificateStats {
        chromatic_number: cert.chromatic_number,
        witness_verified: cert.witness_verified,
        clique_pins: cert.clique.clone(),
        ..CertificateStats::default()
    };
    match &cert.unsat {
        ProofStatus::Checked { steps, adds, deletes, literals, solve_seconds, check_seconds } => {
            stats.status = "checked".to_string();
            stats.proof_steps = *steps;
            stats.proof_adds = *adds;
            stats.proof_deletes = *deletes;
            stats.proof_literals = *literals;
            stats.solve_seconds = *solve_seconds;
            stats.check_seconds = *check_seconds;
        }
        ProofStatus::Trivial { reason } => {
            stats.status = "trivial".to_string();
            stats.detail = reason.clone();
        }
        ProofStatus::Unchecked { reason } => {
            stats.status = "unchecked".to_string();
            stats.detail = reason.clone();
        }
        ProofStatus::Rejected { error } => {
            stats.status = "rejected".to_string();
            stats.detail = error.clone();
        }
    }
    stats
}

/// Runs the `--certify` pass: re-derives each configured instance's
/// chromatic number, refutes χ−1 on the SBP-free pure-CNF decision
/// encoding with a greedy clique pinned to the first colors, checks the
/// DRAT derivation with the independent checker in `sbgc-proof`, and
/// prints one line per instance with the number of pins. With `--proof
/// DIR` each produced proof is also written to `DIR/<instance>.drat` in
/// text DRAT, next to the formula it refutes in DIMACS CNF,
/// `DIR/<instance>.cnf` (the plain CNF plus one unit clause per pin).
///
/// Exits the process with status 1 if any instance fails to certify — a
/// rejected proof, an unverified witness, a budget-truncated proof, or a
/// χ search that only bounded the answer. This is the CI gate: on the
/// small-graph suite with a sane timeout every instance must certify.
/// Proof-archiving I/O failures, by contrast, only degrade: a warning is
/// printed and certification continues without the archive.
pub fn run_certification(config: &HarnessConfig) {
    if !config.certify {
        return;
    }
    let mut proof_dir = config.proof_dir.clone();
    if let Some(dir) = &proof_dir {
        if let Err(err) = std::fs::create_dir_all(dir) {
            // Degrade rather than die: certification itself can still run,
            // only the proof archive is lost.
            eprintln!(
                "warning: could not create proof directory {dir}: {err}; proofs not archived"
            );
            proof_dir = None;
        }
    }
    println!(
        "\nCertification (SBP-free CNF decision encoding, clique pinned, independent DRAT check):"
    );
    let mut failures = 0usize;
    for inst in config.build_instances() {
        // NU+SC speeds up the (untrusted) chi search; the certificate
        // re-derives optimality on an SBP-free formula regardless. With
        // --jobs N (N > 1) both the search and the refutation race that
        // many clause-sharing workers.
        let opts = SolveOptions::new(config.k)
            .with_sbp_mode(SbpMode::NuSc)
            .with_budget(config.budget())
            .with_parallelism(config.jobs);
        let (result, cert) = chromatic_number_certified(&inst.graph, &opts);
        let Some(cert) = cert else {
            let (lower, upper) = match result {
                ChromaticResult::Bounded { lower, upper, .. } => (lower, upper),
                ChromaticResult::Exact { .. } => unreachable!("exact results always certify"),
            };
            println!(
                "  {:<12} FAILED: search only bounded chi to {lower}..{upper} within the budget",
                inst.meta.name
            );
            failures += 1;
            continue;
        };
        let witness = if cert.witness_verified { "witness ok" } else { "WITNESS BAD" };
        println!(
            "  {:<12} chi = {:<3} {witness}, unsat {}, {} clique pins",
            inst.meta.name,
            cert.chromatic_number,
            cert.unsat,
            cert.clique.len()
        );
        if let Some(dir) = &proof_dir {
            archive_proof(dir, inst.meta.name, &inst.graph, &cert);
        }
        if !cert.is_certified() {
            failures += 1;
        }
    }
    if failures > 0 {
        eprintln!("certification FAILED on {failures} instance(s)");
        std::process::exit(1);
    }
    println!("all instances certified");
}

/// Writes `cert`'s refutation to `DIR/<name>.drat` in text DRAT and the
/// formula it refutes to `DIR/<name>.cnf` in DIMACS: `c` comments naming
/// the clique in pin order, then the SBP-free (χ−1)-coloring CNF of
/// `graph` and one unit clause per clique pin ([`pinned_cnf`]).
///
/// Every lemma is RUP against the plain CNF, so any DRAT checker
/// (drat-trim among them) checks that the pinned CNF has no model. That
/// refutes the plain CNF, and so certifies χ, only if the pinned vertices
/// are pairwise adjacent, which no DRAT checker looks at: an external
/// verifier must also find, for every two pinned vertices, their edge
/// clauses in the CNF (the comments say how to read them). Does nothing
/// for a certificate without a proof; a failed write prints a warning and
/// leaves that file out.
fn archive_proof(dir: &str, name: &str, graph: &Graph, cert: &OptimalityCertificate) {
    let Some(proof) = &cert.proof else { return };
    let cnf = pinned_cnf(graph, cert.chromatic_number - 1, &cert.clique);
    for (ext, text) in [("cnf", cnf), ("drat", proof.to_dimacs())] {
        let path = format!("{dir}/{name}.{ext}");
        if let Err(err) = sbgc_obs::write_atomic(path.as_ref(), text.as_bytes()) {
            eprintln!("warning: could not write {path}: {err}; proof not archived");
        }
    }
}

/// The `colors`-coloring CNF of `graph` in DIMACS with `clique` pinned:
/// `c` lines naming the clique's vertices (0-based) in pin order and the
/// side condition a verifier must check, then the plain
/// [`cnf_decision_formula`] and the unit clause of each pin
/// ([`cnf_pins`]).
fn pinned_cnf(graph: &Graph, colors: usize, clique: &[usize]) -> String {
    let (num_vars, mut clauses) = cnf_decision_formula(graph, colors);
    for pin in cnf_pins(colors, clique) {
        clauses.push([pin]);
    }
    let names: Vec<String> = clique.iter().map(usize::to_string).collect();
    format!(
        "c clique pins in color order (0-based vertices): {}\n\
         c vertex v has color c as variable v*{colors}+c+1; the last {} unit clauses pin \
         the vertex listed at position i (from 0) to color i\n\
         c the pins are sound only if the listed vertices are pairwise adjacent: \
         edge (u, v) gives -(u*{colors}+c+1) -(v*{colors}+c+1) for every color c\n{}",
        names.join(" "),
        clique.len(),
        sbgc_proof::dimacs_cnf(num_vars, &clauses)
    )
}

/// Runs one fully instrumented end-to-end solve of `inst` and assembles
/// the [`RunReport`] for it.
///
/// The instrumented run uses the paper's strongest configuration — NU+SC
/// instance-independent SBPs plus Shatter instance-dependent SBPs, solved
/// by PBS II — under the harness budget. With `config.jobs > 1` the solve
/// races that many portfolio workers, so the report carries one
/// [`sbgc_obs::WorkerTelemetry`] record per worker; with `jobs == 1` the
/// solve is sequential and `workers` is empty.
pub fn collect_run_report(inst: &Instance, config: &HarnessConfig) -> RunReport {
    let recorder = Recorder::new();
    let options = SolveOptions::new(config.k)
        .with_sbp_mode(config.sbp.unwrap_or(SbpMode::NuSc))
        .with_instance_dependent_sbps()
        .with_solver(SolverKind::PbsII)
        .with_budget(config.budget())
        .with_parallelism(config.jobs)
        .with_recorder(recorder.clone());
    let solved = solve_coloring(&inst.graph, &options);

    let mut report = RunReport {
        instance: InstanceInfo {
            name: inst.meta.name.to_string(),
            vertices: inst.graph.num_vertices(),
            edges: inst.graph.num_edges(),
        },
        k: config.k,
        sbp_mode: options.sbp_mode.display_name().to_string(),
        solver: options.solver.display_name().to_string(),
        jobs: config.jobs,
        encoding: EncodingSize {
            base_vars: solved.base_stats.vars,
            base_clauses: solved.base_stats.clauses,
            base_pb: solved.base_stats.pb_constraints(),
            sbp_aux_vars: solved.sbp_stats.aux_vars,
            sbp_clauses: solved.sbp_stats.clauses,
            sbp_pb: solved.sbp_stats.pb_constraints,
            final_vars: solved.final_stats.vars,
            final_clauses: solved.final_stats.clauses,
            final_pb: solved.final_stats.pb_constraints(),
        },
        sbp: SbpTelemetry {
            mode: options.sbp_mode.display_name().to_string(),
            aux_vars: solved.sbp_stats.aux_vars,
            clauses: solved.sbp_stats.clauses,
            pb_constraints: solved.sbp_stats.pb_constraints,
        },
        detection: solved.shatter.as_ref().map(|s| DetectionStats {
            seconds: s.symmetry.detection_time.as_secs_f64(),
            generators: s.num_generators,
            order_log10: s.symmetry.order_log10,
            spurious_dropped: s.symmetry.spurious_dropped,
            exact: s.symmetry.exact,
            sbp_clauses: s.sbp.clauses,
            sbp_aux_vars: s.sbp.aux_vars,
        }),
        total_seconds: solved.total_time.as_secs_f64(),
        outcome: {
            // Undecided runs carry the budget dimension that stopped them
            // (schema v3 `exhaust_reason`); decided runs carry none.
            let exhaust = solved.exhaust.map(|e| e.as_str().to_string());
            match &solved.outcome {
                ColoringOutcome::Optimal { colors, .. } => RunOutcome {
                    kind: "optimal".to_string(),
                    colors: Some(*colors),
                    decided: true,
                    exhaust_reason: None,
                },
                ColoringOutcome::Feasible { colors, .. } => RunOutcome {
                    kind: "feasible".to_string(),
                    colors: Some(*colors),
                    decided: false,
                    exhaust_reason: exhaust,
                },
                ColoringOutcome::InfeasibleAtK => RunOutcome {
                    kind: "infeasible_at_k".to_string(),
                    colors: None,
                    decided: true,
                    exhaust_reason: None,
                },
                ColoringOutcome::Unknown => RunOutcome {
                    kind: "timeout".to_string(),
                    colors: None,
                    decided: false,
                    exhaust_reason: exhaust,
                },
            }
        },
        ..RunReport::default()
    };
    report.from_recorder(&recorder);
    if config.certify {
        // An Optimal outcome at K is the exact chromatic number (the
        // optimizer minimizes color count), so it can be certified; the
        // certificate re-derives optimality on the SBP-free CNF encoding.
        if let ColoringOutcome::Optimal { coloring, colors } = &solved.outcome {
            let claim =
                ChromaticResult::Exact { chromatic_number: *colors, witness: coloring.clone() };
            report.certificate =
                certify_result_parallel(&inst.graph, &claim, &config.budget(), config.jobs)
                    .as_ref()
                    .map(certificate_stats);
        }
    }
    report
}

/// Drop guard that makes `--report` crash-safe: runs are pushed into the
/// guard as they complete, and if the process unwinds before [`finish`]
/// (a panic inside an instrumented solve), [`Drop`] flushes whatever has
/// accumulated so the completed runs survive on disk. The panic still
/// propagates, so the process exits non-zero; only the data is saved.
///
/// [`finish`]: ReportGuard::finish
pub struct ReportGuard {
    path: String,
    file: ReportFile,
    finished: bool,
}

impl ReportGuard {
    /// Starts a report destined for `path`, carrying the harness metadata.
    pub fn new(path: &str, generator: &str, config: &HarnessConfig) -> Self {
        ReportGuard {
            path: path.to_string(),
            file: ReportFile {
                generator: generator.to_string(),
                k: config.k,
                timeout_s: config.timeout.as_secs_f64(),
                jobs: config.jobs,
                runs: Vec::new(),
            },
            finished: false,
        }
    }

    /// Appends one completed instrumented run.
    pub fn push(&mut self, run: RunReport) {
        self.file.runs.push(run);
    }

    /// Writes the complete report atomically (temp file + rename, so a
    /// crash mid-write can never leave a truncated report where a good
    /// one — or none — used to be). Exits with status 1 if the file
    /// cannot be written — with `--report` the file *is* the deliverable.
    pub fn finish(mut self) {
        self.finished = true;
        match sbgc_obs::write_atomic(self.path.as_ref(), self.file.to_json().as_bytes()) {
            Ok(()) => eprintln!("report written: {}", self.path),
            Err(err) => {
                eprintln!("error: could not write report to {}: {err}", self.path);
                std::process::exit(1);
            }
        }
    }
}

impl Drop for ReportGuard {
    fn drop(&mut self) {
        if self.finished {
            return;
        }
        eprintln!(
            "warning: report interrupted; flushing {} completed run(s) to {}",
            self.file.runs.len(),
            self.path
        );
        if let Err(err) = sbgc_obs::write_atomic(self.path.as_ref(), self.file.to_json().as_bytes())
        {
            eprintln!("error: could not write partial report to {}: {err}", self.path);
        }
    }
}

/// Writes the `--report PATH` file if the flag was given, re-running every
/// configured instance once with a live [`Recorder`] attached.
///
/// The instrumented runs are separate from the table runs the binary just
/// printed — the table grid varies SBP mode and solver per cell, while the
/// report wants one canonical, fully-traced run per instance (see
/// [`collect_run_report`]). Call this at the end of `main`. Exits with an
/// error if the file cannot be written; if an instrumented run panics, the
/// runs completed so far are still flushed to `PATH` ([`ReportGuard`]).
pub fn write_report(config: &HarnessConfig, generator: &str) {
    let Some(path) = &config.report else { return };
    eprintln!("\ncollecting instrumented runs for --report {path}");
    let mut guard = ReportGuard::new(path, generator, config);
    for inst in config.build_instances() {
        guard.push(collect_run_report(&inst, config));
    }
    guard.finish();
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbgc_core::certify_result;

    #[test]
    fn quick_instances_exist_in_suite() {
        for name in QUICK_INSTANCES {
            assert!(suite::SUITE.iter().any(|m| m.name == name), "{name}");
        }
    }

    #[test]
    fn grid_cell_accumulates() {
        let instances = vec![suite::build("myciel3")];
        let cell = run_grid_cell(
            &instances,
            5,
            SbpMode::NuSc,
            SymmetryHandling::InstanceIndependentOnly,
            SolverKind::PbsII,
            Budget::unlimited,
            false,
        );
        assert_eq!(cell.solved, 1);
    }

    #[test]
    fn render_is_stable() {
        let c = GridCell { total_time: Duration::from_millis(1500), solved: 3 };
        assert_eq!(c.render(), "     1.5s   3");
    }

    #[test]
    fn collected_report_carries_phases_counters_and_outcome() {
        let config = HarnessConfig {
            timeout: Duration::from_secs(30),
            k: 5,
            instances: vec!["myciel3".to_string()],
            per_instance: false,
            jobs: 1,
            report: None,
            certify: false,
            proof_dir: None,
            ..HarnessConfig::default()
        };
        let inst = suite::build("myciel3");
        let report = collect_run_report(&inst, &config);
        assert_eq!(report.instance.name, "myciel3");
        assert_eq!(report.outcome.kind, "optimal");
        assert_eq!(report.outcome.colors, Some(4)); // χ(myciel3) = 4
        assert!(report.outcome.decided);
        assert!(report.encoding.final_vars > report.encoding.base_vars);
        assert_eq!(report.sbp.mode, "NU+SC");
        assert_eq!(report.sbp.clauses, report.encoding.sbp_clauses);
        assert!(report.sbp.clauses > 0, "NU+SC adds clauses");
        assert!(report.detection.is_some(), "instance-dependent SBPs ran");
        for (phase, timing) in &report.phases {
            assert!(timing.count > 0, "phase {phase} never entered");
        }
        assert!(report.search.decisions > 0);
        assert!(report.workers.is_empty(), "sequential run has no workers");
        let json = report.to_json(0);
        assert!(json.contains("\"kind\": \"optimal\""));
    }

    #[test]
    fn collected_report_with_jobs_carries_worker_telemetry() {
        let config = HarnessConfig {
            timeout: Duration::from_secs(30),
            k: 5,
            instances: vec!["myciel3".to_string()],
            per_instance: false,
            jobs: 2,
            report: None,
            certify: false,
            proof_dir: None,
            ..HarnessConfig::default()
        };
        let inst = suite::build("myciel3");
        let report = collect_run_report(&inst, &config);
        // Each optimization step records both workers, one of them won.
        let steps = report.workers.iter().filter(|w| w.won).count();
        assert!(steps >= 2, "χ = 4 at K = 5 takes a model and a refutation");
        assert_eq!(report.workers.len(), 2 * steps);
        for step in 0..steps as u64 {
            let at_step = report.workers.iter().filter(|w| w.query == Some(step));
            assert_eq!(at_step.clone().count(), 2, "step {step}");
            assert_eq!(at_step.filter(|w| w.won).count(), 1, "step {step}");
        }
    }

    #[test]
    fn archived_proof_pair_checks_without_hints() {
        // The .cnf/.drat pair --proof writes must stand alone: both parse
        // back; the .cnf is comments naming the clique, the χ−1 CNF and
        // one unit per pin; the hint-free text proof derives "not every
        // pin holds" from the plain CNF, and so refutes the whole file as
        // a DRAT checker reads it; and the pinned vertices' edge clauses
        // are in the CNF, as the comments tell a verifier to check.
        let dir = std::env::temp_dir().join(format!("sbgc_proofs_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let dir_str = dir.to_str().expect("utf-8 temp path");
        let graph = suite::build("myciel3").graph;
        let (_, cert) = chromatic_number_certified(&graph, &SolveOptions::new(6));
        let cert = cert.expect("exact result yields a certificate");
        archive_proof(dir_str, "myciel3", &graph, &cert);

        let read = |ext: &str| std::fs::read_to_string(dir.join(format!("myciel3.{ext}")));
        let text = read("cnf").expect(".cnf written");
        let formula = sbgc_formula::parse_dimacs_cnf(&text).expect("the archived CNF parses");
        let proof = sbgc_proof::DratProof::from_dimacs(&read("drat").expect(".drat written"))
            .expect("the archived proof parses");
        assert_eq!(proof.steps(), cert.proof.as_ref().expect("proof").steps());
        let clauses = formula.clauses();
        let colors = cert.chromatic_number - 1;
        let (num_vars, plain) = cnf_decision_formula(&graph, colors);
        let pins = cnf_pins(colors, &cert.clique);
        assert_eq!(pins.len(), 2, "myciel3 is triangle-free: an edge is pinned");
        assert_eq!(formula.num_vars(), num_vars);
        assert!(clauses.iter().take(plain.len()).eq(&plain), "the plain CNF comes first");
        let units = pins.iter().map(std::slice::from_ref);
        assert!(clauses.iter().skip(plain.len()).eq(units), "one unit clause per pin, in order");
        let names: Vec<String> = cert.clique.iter().map(usize::to_string).collect();
        assert!(text.starts_with(&format!(
            "c clique pins in color order (0-based vertices): {}\n",
            names.join(" ")
        )));
        for (i, &u) in cert.clique.iter().enumerate() {
            for &v in &cert.clique[..i] {
                for c in 0..colors {
                    let x = |w: usize| sbgc_formula::Var::from_index(w * colors + c).negative();
                    let edge = [[x(u), x(v)], [x(v), x(u)]];
                    assert!(
                        plain.iter().any(|clause| edge.iter().any(|e| clause == e)),
                        "edge ({v}, {u}), color {c}"
                    );
                }
            }
        }

        let goal: Vec<_> = pins.iter().map(|&pin| !pin).collect();
        let stats = sbgc_proof::check_derivation(num_vars, &plain, &proof, &goal)
            .expect("the archived proof derives the goal");
        assert_eq!((stats.chained, stats.searched), (0, stats.adds), "text DRAT has no hints");
        sbgc_proof::check_drat(num_vars, clauses, &proof).expect("the archived pair checks");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn blocked_proof_archive_still_writes_the_cnf_and_no_temp_file() {
        // A directory standing where DIR/<name>.drat goes makes the atomic
        // rename fail, even for root. The .cnf is still written, the
        // directory is left as it was, and no .drat.tmp stays behind.
        let dir = std::env::temp_dir().join(format!("sbgc_blocked_proofs_{}", std::process::id()));
        let blocker = dir.join("myciel3.drat");
        std::fs::create_dir_all(&blocker).expect("temp dirs");
        std::fs::write(blocker.join("keep"), b"untouched").expect("sentinel file");
        let graph = suite::build("myciel3").graph;
        let (_, cert) = chromatic_number_certified(&graph, &SolveOptions::new(6));
        let cert = cert.expect("exact result yields a certificate");
        archive_proof(dir.to_str().expect("utf-8 temp path"), "myciel3", &graph, &cert);

        let cnf = std::fs::read_to_string(dir.join("myciel3.cnf")).expect(".cnf written");
        assert_eq!(cnf, pinned_cnf(&graph, cert.chromatic_number - 1, &cert.clique));
        let entries: Vec<_> = std::fs::read_dir(&blocker)
            .expect("the blocking directory is still a directory")
            .map(|e| e.expect("dir entry").file_name())
            .collect();
        assert_eq!(entries, ["keep"]);
        assert_eq!(std::fs::read(blocker.join("keep")).expect("sentinel"), b"untouched");
        assert!(!dir.join("myciel3.drat.tmp").exists(), "no temp file left behind");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn archive_proof_writes_nothing_without_a_proof() {
        // χ = 1 certifies by definition, so there is no refutation to keep.
        let dir = std::env::temp_dir().join(format!("sbgc_no_proof_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let graph = Graph::empty(3);
        let (_, cert) = chromatic_number_certified(&graph, &SolveOptions::new(3));
        let cert = cert.expect("exact result yields a certificate");
        assert!(matches!(cert.unsat, ProofStatus::Trivial { .. }), "{}", cert.unsat);
        archive_proof(dir.to_str().expect("utf-8 temp path"), "empty3", &graph, &cert);
        assert_eq!(std::fs::read_dir(&dir).expect("temp dir").count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn archive_proof_replaces_a_stale_archive() {
        // An earlier run's files are replaced whole, and no temp file stays.
        let dir = std::env::temp_dir().join(format!("sbgc_stale_proofs_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        for ext in ["cnf", "drat", "drat.tmp"] {
            std::fs::write(dir.join(format!("myciel3.{ext}")), b"stale").expect("stale file");
        }
        let graph = suite::build("myciel3").graph;
        let (_, cert) = chromatic_number_certified(&graph, &SolveOptions::new(6));
        let cert = cert.expect("exact result yields a certificate");
        archive_proof(dir.to_str().expect("utf-8 temp path"), "myciel3", &graph, &cert);

        let read = |ext: &str| std::fs::read_to_string(dir.join(format!("myciel3.{ext}")));
        assert_eq!(read("drat").expect(".drat written"), cert.proof.expect("proof").to_dimacs());
        let cnf = pinned_cnf(&graph, cert.chromatic_number - 1, &cert.clique);
        assert_eq!(read("cnf").expect(".cnf written"), cnf);
        assert!(!dir.join("myciel3.drat.tmp").exists(), "no temp file left behind");
        assert!(!dir.join("myciel3.cnf.tmp").exists(), "no temp file left behind");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A `--certify` run of myciel3 with `--proof proof_dir`.
    fn certify_myciel3(proof_dir: &std::path::Path) -> HarnessConfig {
        HarnessConfig {
            timeout: Duration::from_secs(30),
            k: 5,
            instances: vec!["myciel3".to_string()],
            certify: true,
            proof_dir: Some(proof_dir.to_str().expect("utf-8 temp path").to_string()),
            ..HarnessConfig::default()
        }
    }

    #[test]
    fn certification_creates_the_proof_directory_and_archives_each_instance() {
        // run_certification returns (rather than exiting 1) only when every
        // instance certified; the nested directory is created on the way.
        let root = std::env::temp_dir().join(format!("sbgc_run_proofs_{}", std::process::id()));
        let dir = root.join("nested").join("proofs");
        run_certification(&certify_myciel3(&dir));
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .expect("proof directory created")
            .map(|e| e.expect("dir entry").file_name().into_string().expect("utf-8 name"))
            .collect();
        names.sort();
        assert_eq!(names, ["myciel3.cnf", "myciel3.drat"]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn uncreatable_proof_directory_leaves_the_verdict_standing() {
        // A regular file where the proof directory's parent should be makes
        // create_dir_all fail; certification warns, runs on and passes.
        let file = std::env::temp_dir().join(format!("sbgc_not_a_dir_{}", std::process::id()));
        std::fs::write(&file, b"a file").expect("temp file");
        run_certification(&certify_myciel3(&file.join("proofs")));
        assert_eq!(std::fs::read(&file).expect("still a file"), b"a file");
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn certify_flag_attaches_checked_certificate_to_report() {
        let config = HarnessConfig {
            timeout: Duration::from_secs(30),
            k: 5,
            instances: vec!["myciel3".to_string()],
            per_instance: false,
            jobs: 1,
            report: None,
            certify: true,
            proof_dir: None,
            ..HarnessConfig::default()
        };
        let inst = suite::build("myciel3");
        let report = collect_run_report(&inst, &config);
        let cert = report.certificate.as_ref().expect("certified run");
        assert_eq!(cert.status, "checked");
        assert_eq!(cert.chromatic_number, 4);
        assert!(cert.witness_verified);
        assert!(cert.proof_steps > 0);
        assert_eq!(cert.clique_pins.len(), 2, "myciel3 is triangle-free: an edge is pinned");
        assert!(cert.is_verified());
        let json = report.to_json(0);
        assert!(json.contains("\"status\": \"checked\""));
        assert!(json.contains(&format!("\"clique_pins\": {:?}", cert.clique_pins)), "{json}");
    }

    #[test]
    fn exhausted_instrumented_run_reports_its_reason() {
        // A nanosecond of budget cannot finish an optimization run; the
        // report must say the run is undecided *because of time*. Budgets
        // are checked on the stride-64 conflict path, so the instance must
        // be hard enough to accumulate conflicts (queen6_6 at K = 7 needs
        // an UNSAT proof at 6 colors).
        let config = HarnessConfig {
            timeout: Duration::from_nanos(1),
            k: 7,
            instances: vec!["queen6_6".to_string()],
            per_instance: false,
            jobs: 1,
            report: None,
            certify: false,
            proof_dir: None,
            ..HarnessConfig::default()
        };
        let inst = suite::build("queen6_6");
        let report = collect_run_report(&inst, &config);
        assert!(!report.outcome.decided);
        assert_eq!(report.outcome.exhaust_reason.as_deref(), Some("time"));
        assert!(report.to_json(0).contains("\"exhaust_reason\": \"time\""));
    }

    #[test]
    fn report_guard_flushes_partial_report_on_unwind() {
        let path = std::env::temp_dir().join(format!("sbgc_partial_{}.json", std::process::id()));
        let path_str = path.to_str().expect("utf-8 temp path").to_string();
        let config = HarnessConfig {
            timeout: Duration::from_secs(1),
            k: 3,
            instances: vec![],
            per_instance: false,
            jobs: 1,
            report: Some(path_str.clone()),
            certify: false,
            proof_dir: None,
            ..HarnessConfig::default()
        };
        let result = std::panic::catch_unwind(|| {
            let mut guard = ReportGuard::new(&path_str, "chaos", &config);
            let mut run = RunReport::default();
            run.instance.name = "survivor".to_string();
            guard.push(run);
            panic!("boom mid-report");
        });
        assert!(result.is_err());
        let json = std::fs::read_to_string(&path).expect("partial report flushed");
        assert!(json.contains("\"generator\": \"chaos\""));
        assert!(json.contains("\"survivor\""));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn report_guard_finish_writes_complete_report() {
        let path = std::env::temp_dir().join(format!("sbgc_full_{}.json", std::process::id()));
        let path_str = path.to_str().expect("utf-8 temp path").to_string();
        let config = HarnessConfig {
            timeout: Duration::from_secs(1),
            k: 3,
            instances: vec![],
            per_instance: false,
            jobs: 1,
            report: Some(path_str.clone()),
            certify: false,
            proof_dir: None,
            ..HarnessConfig::default()
        };
        let mut guard = ReportGuard::new(&path_str, "table9", &config);
        guard.push(RunReport::default());
        guard.push(RunReport::default());
        guard.finish();
        let json = std::fs::read_to_string(&path).expect("report written");
        assert!(json.contains("\"generator\": \"table9\""));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn supervision_knobs_validate_at_parse_time() {
        let good = HarnessConfig {
            checkpoint: Some("a.ckpt".to_string()),
            watchdog_secs: Some(5.0),
            retries: Some(2),
            ..HarnessConfig::default()
        };
        assert!(good.validate_supervision().is_ok());
        let sup = good.supervisor_config();
        assert_eq!(sup.checkpoint_path.as_deref(), Some(std::path::Path::new("a.ckpt")));
        assert_eq!(sup.watchdog, Some(Duration::from_secs(5)));
        assert_eq!(sup.max_retries, 2);

        let zero_watchdog = HarnessConfig { watchdog_secs: Some(0.0), ..HarnessConfig::default() };
        assert!(zero_watchdog.validate_supervision().unwrap_err().contains("watchdog"));
        let zero_retries = HarnessConfig { retries: Some(0), ..HarnessConfig::default() };
        assert!(zero_retries.validate_supervision().unwrap_err().contains("retries"));
        let collision = HarnessConfig {
            checkpoint: Some("out.json".to_string()),
            report: Some("out.json".to_string()),
            ..HarnessConfig::default()
        };
        assert!(collision.validate_supervision().unwrap_err().contains("clobber"));
    }

    fn parse(args: &[&str]) -> Result<HarnessConfig, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        HarnessConfig::parse(&args, 5, Duration::from_secs(2))
    }

    #[test]
    fn flags_parse_over_the_defaults() {
        let config =
            parse(&["--timeout", "1.5", "--k", "7", "--jobs", "2", "--watchdog-secs", "3"])
                .expect("valid flags");
        assert_eq!(config.timeout, Duration::from_millis(1500));
        assert_eq!((config.k, config.jobs), (7, 2));
        assert_eq!(config.watchdog_secs, Some(3.0));
        let defaults = parse(&[]).expect("no flags");
        assert_eq!((defaults.k, defaults.timeout), (5, Duration::from_secs(2)));
    }

    #[test]
    fn bad_flag_values_are_errors_not_panics() {
        for (args, needle) in [
            (&["--timeout", "-1"][..], "--timeout"),
            (&["--timeout", "nan"], "--timeout"),
            (&["--timeout", "inf"], "--timeout"),
            (&["--timeout"], "--timeout"),
            (&["--watchdog-secs", "inf"], "--watchdog-secs"),
            (&["--watchdog-secs", "-2"], "--watchdog-secs"),
            (&["--watchdog-secs", "0"], "--watchdog-secs"),
            (&["--k", "0"], "--k"),
            (&["--k", "-3"], "--k"),
            (&["--min-speedup", "nan"], "--min-speedup"),
            (&["--retries", "0"], "--retries"),
            (&["--sbp", "bogus"], "ValPrec"),
            (&["--instances", "bogus"], "unknown instance `bogus`"),
            (&["--instances", "myciel3,queen8_8"], "queen8_12"),
            (&["--instances", "myciel3,"], "unknown instance ``"),
            (&["--bogus"], "unknown flag"),
        ] {
            let err = parse(args).expect_err(&format!("{args:?} must be rejected"));
            assert!(err.contains(needle), "{args:?}: {err}");
        }
    }

    /// Satellite regression: an atomic artifact write that fails mid-flight
    /// (injected via [`FaultPlan`]) must leave the previous report intact —
    /// never a truncated or missing file.
    #[test]
    fn injected_write_failure_preserves_the_previous_report() {
        use sbgc_obs::{write_atomic_instrumented, FaultPlan};
        let path =
            std::env::temp_dir().join(format!("sbgc_atomic_report_{}.json", std::process::id()));
        std::fs::write(&path, b"{\"good\": true}").unwrap();
        let fault = FaultPlan::new(7).with_artifact_write_failure();
        let err = write_atomic_instrumented(&path, b"half-written", Some(&fault)).unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), b"{\"good\": true}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn certificate_stats_preserve_failure_detail() {
        use sbgc_core::Coloring;
        use sbgc_graph::Graph;
        // An overclaimed optimum must flatten to a "rejected" record.
        let g = Graph::cycle(6);
        let bogus = ChromaticResult::Exact {
            chromatic_number: 4,
            witness: Coloring::new(vec![0, 1, 2, 3, 0, 1]),
        };
        let cert = certify_result(&g, &bogus, &Budget::unlimited()).expect("exact claim");
        let stats = certificate_stats(&cert);
        assert_eq!(stats.status, "rejected");
        assert!(!stats.detail.is_empty());
        assert!(!stats.is_verified());
    }

    #[test]
    fn certificate_stats_carry_trivial_and_unchecked_detail() {
        use sbgc_core::Coloring;
        // χ = 1 flattens to a verified "trivial" record with its reason.
        let one =
            ChromaticResult::Exact { chromatic_number: 1, witness: Coloring::new(vec![0; 3]) };
        let cert = certify_result(&Graph::empty(3), &one, &Budget::unlimited()).expect("exact");
        let stats = certificate_stats(&cert);
        assert_eq!(stats.status, "trivial");
        assert!(stats.detail.contains("χ ≤ 1"), "{}", stats.detail);
        assert!(stats.is_verified());
        assert_eq!(stats.proof_steps, 0);

        // A zero-conflict budget cannot refute 6-coloring queen6_6; the
        // record is "unchecked" and says which budget ran out.
        let inst = suite::build("queen6_6");
        let seven = ChromaticResult::Exact {
            chromatic_number: 7,
            witness: Coloring::new(vec![0; inst.graph.num_vertices()]),
        };
        let budget = Budget::unlimited().with_max_conflicts(0);
        let cert = certify_result(&inst.graph, &seven, &budget).expect("exact claim");
        let stats = certificate_stats(&cert);
        assert_eq!(stats.status, "unchecked");
        assert!(stats.detail.contains("budget exhausted (conflicts)"), "{}", stats.detail);
        assert!(!stats.is_verified());
    }
}
