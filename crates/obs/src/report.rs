//! The unified run report: one serializable struct per end-to-end
//! coloring run, plus the [`ReportFile`] envelope the bench binaries
//! write with `--report out.json`.
//!
//! The JSON schema emitted here is documented field-by-field in
//! `docs/OBSERVABILITY.md`; bump [`SCHEMA_VERSION`] when a field is
//! added, removed, or changes meaning.

use crate::json::{self, Obj};
use crate::recorder::{
    Counter, HeuristicsTelemetry, LadderStepTelemetry, Phase, Recorder, ResumeTelemetry,
    SearchCounters, SupervisorTelemetry, WorkerTelemetry,
};

/// Version of the JSON schema emitted by [`RunReport::to_json`] and
/// [`ReportFile::to_json`]. Incremented on any incompatible change.
///
/// v2 added the optional `certificate` object (optimality-certificate
/// status, proof size, and check time). v3 added `outcome.exhaust_reason`
/// (which budget dimension stopped an undecided run) and the per-worker
/// `failed` field (panic summary for workers that died mid-race). v4 added
/// the clause-sharing counters `lbd_sum`, `exported` and `imported` plus
/// the derived `mean_lbd` to every `search` object (run-level and
/// per-worker). v5 added the `ladder` array (one entry per incremental
/// chromatic ladder step with its `retained_clauses` counter) and the
/// per-worker `query` field (ladder-query index for persistent-session
/// workers, `null` for one-shot races). v6 added the `sbp` object — the
/// symmetry-breaking construction's label and its measured aux-var /
/// clause / PB-constraint counts as one self-contained record (the
/// counts were previously only recoverable from the `encoding` object).
/// v7 added the optional `heuristics` object (the primal-bound race's
/// bracket tightening, rung skips, and trust-boundary rejections) and the
/// per-worker `kind` field (`"cdcl"` vs a heuristic name), so heuristic
/// workers share the `workers` array with the exact portfolio. v8 added
/// the optional `supervisor` object (watchdog trips, retry attempts,
/// budget escalation, checkpoints written) and the optional `resume`
/// object (restored bracket, re-validated witness, imported clauses, and
/// the ladder rungs the resume skipped) for supervised solves. v9 added
/// the `"moot"` ladder-step outcome (a query the concurrent heuristic
/// race answered mid-flight) and narrowed the `heuristics` object's
/// `upper`, `lower` and `rungs_skipped` to what heuristic workers alone
/// established, with `seconds` the race's wall time beside the ladder.
/// v10 set the per-worker `query` of fixed-K portfolio runs: optimization
/// races one session query per step, so it records one worker entry per
/// step with the step index in `query` (previously one entry per worker
/// with `query: null`). v11 added the certificate's `clique_pins`: the
/// vertices the χ−1 refutation pinned to colors 0, 1, … (its `proof_*`
/// counts now describe a derivation of "not every pin holds" from the
/// χ−1 CNF).
pub const SCHEMA_VERSION: u32 = 11;

/// Identity and size of the graph instance a run solved.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InstanceInfo {
    /// Instance name as the benchmark tables print it (e.g. `"miles250"`).
    pub name: String,
    /// Number of vertices in the graph.
    pub vertices: usize,
    /// Number of undirected edges in the graph.
    pub edges: usize,
}

/// Size of the encoded formula, split into the base coloring encoding
/// and the symmetry-breaking predicates layered on top.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EncodingSize {
    /// Variables in the base coloring encoding (before any SBPs).
    pub base_vars: usize,
    /// Clauses in the base coloring encoding.
    pub base_clauses: usize,
    /// Pseudo-Boolean constraints in the base coloring encoding.
    pub base_pb: usize,
    /// Auxiliary variables introduced by symmetry-breaking predicates.
    pub sbp_aux_vars: usize,
    /// Clauses added by symmetry-breaking predicates.
    pub sbp_clauses: usize,
    /// Pseudo-Boolean constraints added by symmetry-breaking predicates.
    pub sbp_pb: usize,
    /// Total variables in the final formula handed to the solver.
    pub final_vars: usize,
    /// Total clauses in the final formula.
    pub final_clauses: usize,
    /// Total pseudo-Boolean constraints in the final formula.
    pub final_pb: usize,
}

impl EncodingSize {
    fn to_json(self, indent: usize) -> String {
        let mut o = Obj::new();
        o.usize("base_vars", self.base_vars)
            .usize("base_clauses", self.base_clauses)
            .usize("base_pb", self.base_pb)
            .usize("sbp_aux_vars", self.sbp_aux_vars)
            .usize("sbp_clauses", self.sbp_clauses)
            .usize("sbp_pb", self.sbp_pb)
            .usize("final_vars", self.final_vars)
            .usize("final_clauses", self.final_clauses)
            .usize("final_pb", self.final_pb);
        o.finish(indent)
    }
}

/// The instance-independent symmetry-breaking layer of one run, as a
/// self-contained record: which construction ran and how much it added
/// to the formula (new in schema v6).
///
/// Mirrors `sbgc-core`'s `SbpSizeStats` — this crate stays
/// dependency-free, so the counts are flattened here by the harness.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SbpTelemetry {
    /// The construction's display label (e.g. `"Orbitope"`), matching
    /// the run's top-level `sbp_mode` field.
    pub mode: String,
    /// Auxiliary variables the construction introduced.
    pub aux_vars: usize,
    /// CNF clauses the construction appended.
    pub clauses: usize,
    /// Pseudo-Boolean constraints the construction appended.
    pub pb_constraints: usize,
}

impl SbpTelemetry {
    fn to_json(&self, indent: usize) -> String {
        let mut o = Obj::new();
        o.str("mode", &self.mode)
            .usize("aux_vars", self.aux_vars)
            .usize("clauses", self.clauses)
            .usize("pb", self.pb_constraints);
        o.finish(indent)
    }
}

/// Results of instance-dependent automorphism detection (the Shatter
/// pipeline). Absent from a report when the run used only
/// instance-independent SBPs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DetectionStats {
    /// Wall-clock seconds spent in automorphism detection.
    pub seconds: f64,
    /// Number of generators the detector returned.
    pub generators: usize,
    /// `log10` of the symmetry graph's automorphism-group order (a lower
    /// bound when `exact` is false).
    pub order_log10: f64,
    /// Generators discarded as spurious (failed validation).
    pub spurious_dropped: usize,
    /// Whether detection was exact (`true`) or a heuristic cutoff hit.
    pub exact: bool,
    /// Clauses contributed by the instance-dependent SBPs.
    pub sbp_clauses: usize,
    /// Auxiliary variables contributed by the instance-dependent SBPs.
    pub sbp_aux_vars: usize,
}

impl DetectionStats {
    fn to_json(&self, indent: usize) -> String {
        let mut o = Obj::new();
        o.float("seconds", self.seconds)
            .usize("generators", self.generators)
            .float("order_log10", self.order_log10)
            .usize("spurious_dropped", self.spurious_dropped)
            .bool("exact", self.exact)
            .usize("sbp_clauses", self.sbp_clauses)
            .usize("sbp_aux_vars", self.sbp_aux_vars);
        o.finish(indent)
    }
}

/// Outcome of optimality certification for a run, when `--certify` was
/// requested. This crate stays dependency-free, so the certificate is
/// flattened to plain counters here; the structured form lives in
/// `sbgc-core::certify`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CertificateStats {
    /// One of `"checked"`, `"trivial"`, `"unchecked"`, or `"rejected"`.
    pub status: String,
    /// Reason (for trivial/unchecked) or checker error (for rejected);
    /// empty for checked proofs.
    pub detail: String,
    /// The chromatic number the certificate is about.
    pub chromatic_number: usize,
    /// Whether the witness coloring verified (proper, exactly χ colors).
    pub witness_verified: bool,
    /// The clique pinned in the χ−1 refutation, in pin order: vertex
    /// `clique_pins[i]` is assumed to have color `i`. Empty when χ ≤ 1.
    pub clique_pins: Vec<usize>,
    /// Proof steps replayed by the checker (0 unless checked).
    pub proof_steps: usize,
    /// Lemma additions in the proof.
    pub proof_adds: usize,
    /// Deletions in the proof.
    pub proof_deletes: usize,
    /// Total literals across proof steps (a proof-size proxy).
    pub proof_literals: usize,
    /// Wall-clock seconds producing the refutation (0 unless checked).
    pub solve_seconds: f64,
    /// Wall-clock seconds replaying it through the checker.
    pub check_seconds: f64,
}

impl CertificateStats {
    /// `true` when the run's optimality claim is machine-verified: the
    /// witness checked out and the status is `"checked"` or `"trivial"`.
    pub fn is_verified(&self) -> bool {
        self.witness_verified && (self.status == "checked" || self.status == "trivial")
    }

    fn to_json(&self, indent: usize) -> String {
        let mut o = Obj::new();
        o.str("status", &self.status)
            .str("detail", &self.detail)
            .usize("chromatic_number", self.chromatic_number)
            .bool("witness_verified", self.witness_verified)
            .raw("clique_pins", format!("{:?}", self.clique_pins))
            .usize("proof_steps", self.proof_steps)
            .usize("proof_adds", self.proof_adds)
            .usize("proof_deletes", self.proof_deletes)
            .usize("proof_literals", self.proof_literals)
            .float("solve_seconds", self.solve_seconds)
            .float("check_seconds", self.check_seconds);
        o.finish(indent)
    }
}

/// Aggregated wall-clock for one [`Phase`]: total seconds across all
/// spans of that phase and how many spans were recorded.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseTiming {
    /// Total seconds summed over every span of the phase.
    pub seconds: f64,
    /// Number of spans recorded for the phase.
    pub count: usize,
}

/// What the solve concluded, in report-friendly form.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunOutcome {
    /// One of `"optimal"`, `"feasible"` (budget ran out holding a
    /// suboptimal coloring), `"infeasible_at_k"`, or `"timeout"`.
    pub kind: String,
    /// Number of colors established, when the run produced one (the
    /// verified coloring size, or χ for chromatic-number runs).
    pub colors: Option<usize>,
    /// Whether the run reached a definitive answer (not a timeout).
    pub decided: bool,
    /// For undecided runs: which budget dimension ran out, as reported by
    /// the solver (`"conflicts"`, `"time"`, `"memory"` or `"cancelled"`).
    /// `None` for decided runs.
    pub exhaust_reason: Option<String>,
}

impl RunOutcome {
    fn to_json(&self, indent: usize) -> String {
        let mut o = Obj::new();
        o.str("kind", &self.kind);
        match self.colors {
            Some(c) => o.usize("colors", c),
            None => o.raw("colors", "null"),
        };
        o.bool("decided", self.decided);
        match &self.exhaust_reason {
            Some(r) => o.str("exhaust_reason", r),
            None => o.raw("exhaust_reason", "null"),
        };
        o.finish(indent)
    }
}

/// Everything one end-to-end coloring run produced, aggregated into a
/// single serializable record.
///
/// Built by the bench harness from a solved instance plus the
/// [`Recorder`] that observed it; see [`RunReport::from_recorder`] for
/// the parts that come straight off the recorder.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// The graph instance that was solved.
    pub instance: InstanceInfo,
    /// Color count `k` the decision query used (0 for pure χ searches).
    pub k: usize,
    /// Human-readable SBP construction label (e.g. `"NU+SC"`).
    pub sbp_mode: String,
    /// Human-readable solver label (e.g. `"PBS II"`).
    pub solver: String,
    /// Worker count the run was configured with (1 = sequential).
    pub jobs: usize,
    /// Formula sizes before and after SBP generation.
    pub encoding: EncodingSize,
    /// The instance-independent SBP layer as a self-contained record
    /// (label + measured sizes).
    pub sbp: SbpTelemetry,
    /// Automorphism-detection results, when instance-dependent SBPs ran.
    pub detection: Option<DetectionStats>,
    /// Per-phase wall-clock aggregates, one entry per [`Phase`] in
    /// [`Phase::ALL`] order.
    pub phases: Vec<(Phase, PhaseTiming)>,
    /// Search counters summed over every solver worker in the run.
    pub search: SearchCounters,
    /// Per-worker portfolio telemetry; empty for sequential runs.
    pub workers: Vec<WorkerTelemetry>,
    /// Per-step incremental-ladder telemetry; empty for one-shot runs.
    pub ladder: Vec<LadderStepTelemetry>,
    /// Summary of the heuristic primal-bound race, when one ran (new in
    /// schema v7). The per-worker detail lives in `workers` (entries with
    /// a non-`"cdcl"` `kind`).
    pub heuristics: Option<HeuristicsTelemetry>,
    /// Summary of the supervised solve's watchdog/retry loop, when the
    /// run went through `sbgc-core::supervisor` (new in schema v8).
    pub supervisor: Option<SupervisorTelemetry>,
    /// Summary of the resume-from-checkpoint, when the run restored one
    /// (new in schema v8).
    pub resume: Option<ResumeTelemetry>,
    /// End-to-end wall-clock seconds for the run.
    pub total_seconds: f64,
    /// What the run concluded.
    pub outcome: RunOutcome,
    /// Optimality-certificate results, when certification ran.
    pub certificate: Option<CertificateStats>,
}

impl RunReport {
    /// Copies the recorder-owned parts — phase timings, summed search
    /// counters, and per-worker telemetry — into `self`.
    ///
    /// The caller fills the remaining fields (instance identity,
    /// encoding sizes, outcome) from its own context.
    pub fn from_recorder(&mut self, rec: &Recorder) {
        self.phases = Phase::ALL
            .iter()
            .map(|&p| {
                (
                    p,
                    PhaseTiming {
                        seconds: rec.phase_time(p).as_secs_f64(),
                        count: rec.phase_count(p),
                    },
                )
            })
            .collect();
        self.search = rec.search_counters();
        self.workers = rec.workers();
        self.ladder = rec.ladder_steps();
        self.heuristics = rec.heuristics();
        self.supervisor = rec.supervisor();
        self.resume = rec.resume();
    }

    /// Renders the report as a pretty-printed JSON object indented by
    /// `indent` spaces (see `docs/OBSERVABILITY.md` for the schema).
    pub fn to_json(&self, indent: usize) -> String {
        let inner = indent + 2;
        let mut o = Obj::new();
        o.raw("instance", {
            let mut i = Obj::new();
            i.str("name", &self.instance.name)
                .usize("vertices", self.instance.vertices)
                .usize("edges", self.instance.edges);
            i.finish(inner)
        });
        o.usize("k", self.k)
            .str("sbp_mode", &self.sbp_mode)
            .str("solver", &self.solver)
            .usize("jobs", self.jobs)
            .raw("encoding", self.encoding.to_json(inner))
            .raw("sbp", self.sbp.to_json(inner));
        match &self.detection {
            Some(d) => o.raw("detection", d.to_json(inner)),
            None => o.raw("detection", "null"),
        };
        o.raw("phases", {
            let mut p = Obj::new();
            for (phase, timing) in &self.phases {
                let mut t = Obj::new();
                t.float("seconds", timing.seconds).usize("count", timing.count);
                p.raw(phase.name(), t.finish(inner + 2));
            }
            p.finish(inner)
        });
        o.raw("search", search_counters_json(&self.search, inner));
        o.raw(
            "workers",
            json::array(
                &self.workers.iter().map(|w| worker_json(w, inner + 2)).collect::<Vec<_>>(),
                inner,
            ),
        );
        o.raw(
            "ladder",
            json::array(
                &self.ladder.iter().map(|s| ladder_step_json(s, inner + 2)).collect::<Vec<_>>(),
                inner,
            ),
        );
        match &self.heuristics {
            Some(h) => o.raw("heuristics", heuristics_json(h, inner)),
            None => o.raw("heuristics", "null"),
        };
        match &self.supervisor {
            Some(s) => o.raw("supervisor", supervisor_json(s, inner)),
            None => o.raw("supervisor", "null"),
        };
        match &self.resume {
            Some(r) => o.raw("resume", resume_json(r, inner)),
            None => o.raw("resume", "null"),
        };
        o.float("total_seconds", self.total_seconds).raw("outcome", self.outcome.to_json(inner));
        match &self.certificate {
            Some(c) => o.raw("certificate", c.to_json(inner)),
            None => o.raw("certificate", "null"),
        };
        o.finish(indent)
    }
}

fn search_counters_json(s: &SearchCounters, indent: usize) -> String {
    let mut o = Obj::new();
    for &c in Counter::ALL.iter() {
        o.uint(c.name(), s.get(c));
    }
    match s.mean_learned_len() {
        Some(len) => o.float("mean_learned_len", len),
        None => o.raw("mean_learned_len", "null"),
    };
    match s.mean_lbd() {
        Some(lbd) => o.float("mean_lbd", lbd),
        None => o.raw("mean_lbd", "null"),
    };
    o.finish(indent)
}

fn heuristics_json(h: &HeuristicsTelemetry, indent: usize) -> String {
    let mut o = Obj::new();
    o.usize("dsatur_upper", h.dsatur_upper)
        .usize("greedy_clique_lower", h.greedy_clique_lower)
        .usize("upper", h.upper)
        .usize("lower", h.lower)
        .usize("rungs_skipped", h.rungs_skipped)
        .usize("workers", h.workers)
        .uint("rejected_witnesses", h.rejected_witnesses)
        .uint("failed_workers", h.failed_workers)
        .float("seconds", h.seconds);
    o.finish(indent)
}

fn supervisor_json(s: &SupervisorTelemetry, indent: usize) -> String {
    let mut o = Obj::new();
    o.uint("attempts", s.attempts).uint("watchdog_trips", s.watchdog_trips);
    match s.watchdog_secs {
        Some(secs) => o.float("watchdog_secs", secs),
        None => o.raw("watchdog_secs", "null"),
    };
    o.uint("final_escalation", s.final_escalation)
        .uint("checkpoints_written", s.checkpoints_written);
    match &s.checkpoint_path {
        Some(p) => o.str("checkpoint_path", p),
        None => o.raw("checkpoint_path", "null"),
    };
    o.finish(indent)
}

fn resume_json(r: &ResumeTelemetry, indent: usize) -> String {
    let mut o = Obj::new();
    o.str("from_path", &r.from_path).usize("lower", r.lower).usize("upper", r.upper);
    match r.witness_colors {
        Some(c) => o.usize("witness_colors", c),
        None => o.raw("witness_colors", "null"),
    };
    o.uint("clauses_offered", r.clauses_offered)
        .uint("clauses_imported", r.clauses_imported)
        .uint("rungs_skipped", r.rungs_skipped);
    o.finish(indent)
}

fn worker_json(w: &WorkerTelemetry, indent: usize) -> String {
    let mut o = Obj::new();
    o.usize("index", w.index)
        .str("kind", &w.kind)
        .uint("seed", w.seed)
        .str("config", &w.config)
        .raw("search", search_counters_json(&w.search, indent + 2))
        .bool("won", w.won);
    match w.cancel_latency {
        Some(d) => o.float("cancel_latency_seconds", d.as_secs_f64()),
        None => o.raw("cancel_latency_seconds", "null"),
    };
    o.float("run_seconds", w.run_time.as_secs_f64());
    match &w.failed {
        Some(msg) => o.str("failed", msg),
        None => o.raw("failed", "null"),
    };
    match w.query {
        Some(q) => o.uint("query", q),
        None => o.raw("query", "null"),
    };
    o.finish(indent)
}

fn ladder_step_json(s: &LadderStepTelemetry, indent: usize) -> String {
    let mut o = Obj::new();
    o.uint("step", s.step)
        .usize("target", s.target)
        .str("outcome", &s.outcome)
        .float("seconds", s.seconds)
        .uint("retained_clauses", s.retained_clauses)
        .usize("workers", s.workers);
    o.finish(indent)
}

/// The envelope a bench binary writes when invoked with
/// `--report out.json`: file-level metadata plus one [`RunReport`] per
/// instance solved.
#[derive(Clone, Debug, Default)]
pub struct ReportFile {
    /// Name of the binary that produced the file (e.g. `"table2"`).
    pub generator: String,
    /// Color count `k` the harness was configured with.
    pub k: usize,
    /// Per-run budget in seconds.
    pub timeout_s: f64,
    /// Worker count (`--jobs`) the harness was configured with.
    pub jobs: usize,
    /// One report per instance, in harness order.
    pub runs: Vec<RunReport>,
}

impl ReportFile {
    /// Renders the complete report file as pretty-printed JSON, with a
    /// trailing newline, ready to write to disk.
    pub fn to_json(&self) -> String {
        let mut o = Obj::new();
        o.uint("schema_version", u64::from(SCHEMA_VERSION))
            .str("generator", &self.generator)
            .usize("k", self.k)
            .float("timeout_s", self.timeout_s)
            .usize("jobs", self.jobs)
            .raw(
                "runs",
                json::array(&self.runs.iter().map(|r| r.to_json(4)).collect::<Vec<_>>(), 2),
            );
        let mut s = o.finish(0);
        s.push('\n');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Phase;

    #[test]
    fn run_report_round_trips_recorder_data() {
        let rec = Recorder::new();
        {
            let _s = rec.span(Phase::Encode);
            rec.add(Counter::Decisions, 7);
        }
        let mut report = RunReport::default();
        report.from_recorder(&rec);
        assert_eq!(report.phases.len(), Phase::ALL.len());
        let encode = report.phases.iter().find(|(p, _)| *p == Phase::Encode).unwrap();
        assert_eq!(encode.1.count, 1);
        assert!(encode.1.seconds > 0.0);
        assert_eq!(report.search.decisions, 7);
    }

    #[test]
    fn report_file_emits_valid_looking_json() {
        let mut report = RunReport::default();
        report.instance.name = "grid\"3x3".to_string();
        report.outcome.kind = "sat".to_string();
        report.outcome.colors = Some(2);
        let file = ReportFile {
            generator: "table2".to_string(),
            k: 2,
            timeout_s: 10.0,
            jobs: 1,
            runs: vec![report],
        };
        let json = file.to_json();
        assert!(json.contains("\"schema_version\": 11"));
        assert!(json.contains("\"heuristics\": null"));
        assert!(json.contains("\"supervisor\": null"));
        assert!(json.contains("\"resume\": null"));
        assert!(json.contains("\"exported\": 0"));
        assert!(json.contains("\"mean_lbd\": null"));
        assert!(json.contains("\"grid\\\"3x3\""));
        assert!(json.contains("\"colors\": 2"));
        assert!(json.contains("\"certificate\": null"));
        assert!(json.contains("\"exhaust_reason\": null"));
        assert!(json.contains("\"ladder\": []"));
        assert!(json.ends_with('\n'));
    }

    #[test]
    fn sbp_telemetry_serializes_as_self_contained_object() {
        let report = RunReport {
            sbp_mode: "Orbitope".to_string(),
            sbp: SbpTelemetry {
                mode: "Orbitope".to_string(),
                aux_vars: 200,
                clauses: 810,
                pb_constraints: 0,
            },
            ..Default::default()
        };
        let json = report.to_json(0);
        assert!(json.contains("\"mode\": \"Orbitope\""));
        assert!(json.contains("\"aux_vars\": 200"));
        assert!(json.contains("\"clauses\": 810"));
        assert!(json.contains("\"pb\": 0"));
    }

    #[test]
    fn ladder_steps_serialize_with_retained_clauses() {
        let mut report = RunReport::default();
        report.ladder.push(LadderStepTelemetry {
            step: 1,
            target: 6,
            outcome: "unsat".to_string(),
            seconds: 0.5,
            retained_clauses: 1234,
            workers: 4,
        });
        let json = report.to_json(0);
        assert!(json.contains("\"target\": 6"));
        assert!(json.contains("\"outcome\": \"unsat\""));
        assert!(json.contains("\"retained_clauses\": 1234"));
    }

    #[test]
    fn undecided_outcome_carries_exhaust_reason() {
        let mut report = RunReport::default();
        report.outcome.kind = "timeout".to_string();
        report.outcome.exhaust_reason = Some("memory".to_string());
        let json = report.to_json(0);
        assert!(json.contains("\"exhaust_reason\": \"memory\""));
    }

    #[test]
    fn failed_worker_serializes_its_panic_summary() {
        use crate::recorder::WorkerTelemetry;
        use std::time::Duration;
        let mut report = RunReport::default();
        report.workers.push(WorkerTelemetry {
            index: 1,
            kind: "cdcl".to_string(),
            seed: 1,
            config: "Galena (seed 1)".to_string(),
            search: SearchCounters::default(),
            won: false,
            cancel_latency: None,
            run_time: Duration::from_millis(3),
            failed: Some("injected fault".to_string()),
            query: Some(2),
        });
        let json = report.to_json(0);
        assert!(json.contains("\"failed\": \"injected fault\""));
        assert!(json.contains("\"kind\": \"cdcl\""));
        assert!(json.contains("\"query\": 2"));
    }

    #[test]
    fn heuristics_object_serializes_rung_skips_and_rejections() {
        let report = RunReport {
            heuristics: Some(HeuristicsTelemetry {
                dsatur_upper: 9,
                greedy_clique_lower: 6,
                upper: 7,
                lower: 6,
                rungs_skipped: 2,
                workers: 3,
                rejected_witnesses: 1,
                failed_workers: 1,
                seconds: 0.2,
            }),
            ..RunReport::default()
        };
        let json = report.to_json(0);
        assert!(json.contains("\"dsatur_upper\": 9"));
        assert!(json.contains("\"rungs_skipped\": 2"));
        assert!(json.contains("\"rejected_witnesses\": 1"));
        assert!(json.contains("\"failed_workers\": 1"));
    }

    #[test]
    fn supervisor_and_resume_objects_serialize() {
        let report = RunReport {
            supervisor: Some(SupervisorTelemetry {
                attempts: 3,
                watchdog_trips: 1,
                watchdog_secs: Some(2.5),
                final_escalation: 4,
                checkpoints_written: 5,
                checkpoint_path: Some("out/queen6_6.ckpt".to_string()),
            }),
            resume: Some(ResumeTelemetry {
                from_path: "out/queen6_6.ckpt".to_string(),
                lower: 6,
                upper: 8,
                witness_colors: Some(8),
                clauses_offered: 120,
                clauses_imported: 100,
                rungs_skipped: 3,
            }),
            ..RunReport::default()
        };
        let json = report.to_json(0);
        assert!(json.contains("\"attempts\": 3"));
        assert!(json.contains("\"watchdog_trips\": 1"));
        assert!(json.contains("\"watchdog_secs\": 2.5"));
        assert!(json.contains("\"final_escalation\": 4"));
        assert!(json.contains("\"checkpoints_written\": 5"));
        assert!(json.contains("\"from_path\": \"out/queen6_6.ckpt\""));
        assert!(json.contains("\"witness_colors\": 8"));
        assert!(json.contains("\"clauses_imported\": 100"));
        assert!(json.contains("\"rungs_skipped\": 3"));
        // Both objects flow off the recorder like every other section.
        let rec = Recorder::new();
        rec.record_supervisor(SupervisorTelemetry { attempts: 2, ..Default::default() });
        let mut round_trip = RunReport::default();
        round_trip.from_recorder(&rec);
        assert_eq!(round_trip.supervisor.unwrap().attempts, 2);
        assert!(round_trip.resume.is_none());
    }

    #[test]
    fn certificate_stats_serialize_and_classify() {
        let checked = CertificateStats {
            status: "checked".to_string(),
            detail: String::new(),
            chromatic_number: 4,
            witness_verified: true,
            clique_pins: vec![3, 0, 7],
            proof_steps: 12,
            proof_adds: 10,
            proof_deletes: 2,
            proof_literals: 57,
            solve_seconds: 0.25,
            check_seconds: 0.01,
        };
        assert!(checked.is_verified());
        let report = RunReport { certificate: Some(checked), ..RunReport::default() };
        let json = report.to_json(0);
        assert!(json.contains("\"status\": \"checked\""));
        assert!(json.contains("\"proof_steps\": 12"));
        assert!(json.contains("\"witness_verified\": true"));
        assert!(json.contains("\"clique_pins\": [3, 0, 7]"), "{json}");

        let rejected = CertificateStats {
            status: "rejected".to_string(),
            witness_verified: true,
            ..CertificateStats::default()
        };
        assert!(!rejected.is_verified());
        let unchecked_witness = CertificateStats {
            status: "trivial".to_string(),
            witness_verified: false,
            ..CertificateStats::default()
        };
        assert!(!unchecked_witness.is_verified());
    }
}
