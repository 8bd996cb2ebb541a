//! The traced operations: each op driven layer by layer from the
//! benchmark's own code, with a span around every public library call
//! and the counters of an enabled `Recorder`.
//!
//! Each traced operation replays what the library's single call does —
//! the ladder below is `chromatic_number_outcome`'s bounds → race →
//! session → query loop, the fixed-K flow is `solve_coloring`'s encode →
//! detect → SBP → optimize — so the traced answer must equal the untraced
//! one, which the caller checks. No tracing is added inside the library.

use crate::ops::{certified_answer, detect_answer, Answer};
use crate::stats::ratio;
use crate::trace::Trace;
use crate::workloads::Op;
use sbgc_core::{
    add_instance_independent_sbps, bounds, certify_result_parallel, race_heuristics,
    ChromaticBounds, ChromaticResult, ColoringEncoding, ColoringOutcome, ColoringSession,
    ProofStatus, Recorder, SessionAnswer, SolveOptions,
};
use sbgc_graph::Graph;
use sbgc_obs::{Counter, LadderStepTelemetry};
use sbgc_pb::{OptOutcome, Optimizer};
use sbgc_shatter::{add_sbps, detect_symmetries, formula_graph};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Per-layer metrics reported by a traced run, with their units, in the
/// order `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("graph.bounds_s", "s"),
    ("graph.dsatur_gap", "count"),
    ("heur.race_s", "s"),
    ("heur.rungs_skipped", "count"),
    ("heur.closed_frac", "ratio"),
    ("heur.upper_excess", "count"),
    ("encode.s", "s"),
    ("encode.vars", "count"),
    ("encode.clauses", "count"),
    ("sbp.s", "s"),
    ("sbp.clauses", "count"),
    ("sbp.aux_vars", "count"),
    ("session.build_s", "s"),
    ("session.queries", "count"),
    ("session.sat_s", "s"),
    ("session.unsat_s", "s"),
    ("session.retained_clauses", "count"),
    ("pb.conflicts", "count"),
    ("pb.propagations", "count"),
    ("pb.decisions", "count"),
    ("pb.restarts", "count"),
    ("pb.learned", "count"),
    ("pb.deleted", "count"),
    ("pb.pb_conflicts", "count"),
    ("pb.mean_lbd", "lbd"),
    ("pb.props_per_s", "1/s"),
    ("pb.conflicts_per_s", "1/s"),
    ("portfolio.exported", "count"),
    ("portfolio.imported", "count"),
    ("portfolio.import_per_export", "ratio"),
    ("portfolio.winner_conflict_share", "ratio"),
    ("portfolio.cancel_latency_s_max", "s"),
    ("portfolio.failed_workers", "count"),
    ("shatter.graph_s", "s"),
    ("aut.search_s", "s"),
    ("shatter.sbp_s", "s"),
    ("shatter.graph_vertices", "count"),
    ("shatter.graph_edges", "count"),
    ("shatter.generators", "count"),
    ("shatter.order_log10", "log10"),
    ("shatter.sbp_clauses", "count"),
    ("optimize.s", "s"),
    ("certify.s", "s"),
    ("certify.solve_s", "s"),
    ("certify.check_s", "s"),
    ("proof.steps", "count"),
    ("proof.adds", "count"),
    ("proof.deletes", "count"),
    ("proof.literals", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// Raw per-layer totals of one or more traced operations. Keys ending in
/// `_max` merge by maximum, all others by sum.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn add(&mut self, key: &'static str, value: f64) {
        *self.0.entry(key).or_insert(0.0) += value;
    }

    fn max(&mut self, key: &'static str, value: f64) {
        let slot = self.0.entry(key).or_insert(0.0);
        *slot = slot.max(value);
    }

    fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// Folds another operation's totals into these.
    pub fn merge(&mut self, other: &Layers) {
        for (&key, &value) in &other.0 {
            if key.ends_with("_max") {
                self.max(key, value);
            } else {
                self.add(key, value);
            }
        }
    }

    /// The per-layer metrics of a pass (everything in [`PER_LAYER`] but
    /// `trace.overhead_frac`, which compares whole runs). Ratios are
    /// formed from the pass totals, not averaged over operations.
    pub fn finish(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = PER_LAYER
            .iter()
            .filter(|(name, _)| *name != "trace.overhead_frac")
            .map(|&(name, _)| (name, self.get(name)))
            .collect();
        out.insert("heur.closed_frac", ratio(self.get("heur.closed"), self.get("ops")));
        out.insert("pb.mean_lbd", ratio(self.get("pb.lbd_sum"), self.get("pb.learned")));
        let engine_s = self.get("engine_s");
        out.insert("pb.props_per_s", ratio(self.get("pb.propagations"), engine_s));
        out.insert("pb.conflicts_per_s", ratio(self.get("pb.conflicts"), engine_s));
        out.insert(
            "portfolio.import_per_export",
            ratio(self.get("portfolio.imported"), self.get("portfolio.exported")),
        );
        out.insert(
            "portfolio.winner_conflict_share",
            ratio(self.get("portfolio.winner_conflicts"), self.get("portfolio.conflicts")),
        );
        out
    }
}

/// One traced operation's answer, per-layer totals, and its wall-clock
/// seconds (the outermost span, excluding the bookkeeping after it).
pub struct TracedOp {
    /// The answer, checked like an untraced one.
    pub answer: Answer,
    /// Per-layer totals of this operation.
    pub layers: Layers,
    /// Seconds of the `op` span.
    pub seconds: f64,
}

/// Runs operation `op_id` of kind `op` on `graph`, layer by layer.
/// `dsatur_upper` is the graph's one-shot DSATUR bound, for the gap metric.
pub fn run_traced(
    op: Op,
    graph: &Graph,
    options: &SolveOptions,
    dsatur_upper: usize,
    trace: &mut Trace,
    op_id: u64,
) -> TracedOp {
    let recorder = Recorder::new();
    let recorder_epoch = Instant::now();
    let options = options.clone().with_recorder(recorder.clone());
    let mut layers = Layers::default();
    let root = trace.begin("op", op_id);
    let (answer, session_k) = match op {
        Op::Chromatic { .. } => ladder(graph, &options, trace, op_id),
        Op::Detect => (detect(graph, &options, trace, op_id, &mut layers), None),
        Op::Certified => {
            let id = trace.begin("chromatic", op_id);
            let (answer, session_k) = ladder(graph, &options, trace, op_id);
            trace.end(id);
            (certify(graph, &options, answer, trace, op_id, &mut layers), session_k)
        }
    };
    trace.end(root);
    let seconds = trace.duration(root);
    trace.import(&recorder, recorder_epoch, op_id);

    // Encoding sizes of the ladder session, rebuilt outside the op span.
    if let Some(k) = session_k {
        let mut encoding = ColoringEncoding::new(graph, k);
        encoding.formula_mut().clear_objective();
        let base = encoding.formula().stats();
        let sbp = add_instance_independent_sbps(&mut encoding, graph, options.sbp_mode);
        layers.add("encode.vars", base.vars as f64);
        layers.add("encode.clauses", base.clauses as f64);
        layers.add("sbp.clauses", sbp.clauses as f64);
        layers.add("sbp.aux_vars", sbp.aux_vars as f64);
    }
    collect(&recorder, trace, op_id, &mut layers);
    if let Some(chi) = answer.chi() {
        layers.add("graph.dsatur_gap", dsatur_upper.saturating_sub(chi) as f64);
        if let Some(h) = recorder.heuristics() {
            layers.add("heur.upper_excess", h.upper.saturating_sub(chi) as f64);
        }
    }
    TracedOp { answer, layers, seconds }
}

/// `chromatic_number_outcome`'s ladder, one public call per span.
/// Returns the answer and, when a session was built, its encoding width.
fn ladder(
    graph: &Graph,
    options: &SolveOptions,
    trace: &mut Trace,
    op: u64,
) -> (Answer, Option<usize>) {
    let mut b = trace.span("graph", op, || bounds(graph));
    if options.heuristics && b.lower < b.upper {
        let h = trace.span("heur", op, || race_heuristics(graph, options, &b));
        if h.upper < h.lower {
            return (Answer::failed("heuristic race crossed the bracket"), None);
        }
        b = ChromaticBounds { lower: h.lower, upper: h.upper, witness: h.witness };
    }
    if b.lower >= b.upper {
        return (Answer::exact(b.upper, b.witness), None);
    }
    let build = trace.begin("session.build", op);
    let mut session = match ColoringSession::new(graph, options) {
        Ok(session) => session,
        Err(e) => {
            trace.end(build);
            return (Answer::failed(format!("error: {e}")), None);
        }
    };
    session.commit_upper_bound(b.upper);
    trace.end(build);
    let k = session.k();
    let budget = options.budget.started();
    let (mut lower, mut upper, mut witness) = (b.lower, b.upper, b.witness);
    let mut step = 0;
    while lower < upper {
        let target = (upper - 1).min(k);
        let query = trace.begin("session.query", op);
        let s = session.query(target, &budget);
        trace.end(query);
        let (name, outcome) = match &s.answer {
            SessionAnswer::Colorable(_) => ("session.sat", "sat"),
            SessionAnswer::NotColorable { .. } => ("session.unsat", "unsat"),
            SessionAnswer::Unknown => ("session.unknown", "unknown"),
        };
        trace.rename(query, name);
        options.recorder.record_ladder_step(LadderStepTelemetry {
            step,
            target,
            outcome: outcome.to_string(),
            seconds: trace.duration(query),
            retained_clauses: s.retained_clauses,
            workers: s.workers,
        });
        step += 1;
        match s.answer {
            SessionAnswer::Colorable(c) => {
                let colors = c.num_colors().min(target);
                if colors < lower {
                    let reason = format!("ladder witness at target {target} beat the lower bound");
                    return (Answer::failed(reason), Some(k));
                }
                upper = colors;
                witness = c;
                trace.span("session.commit", op, || session.commit_upper_bound(upper));
            }
            SessionAnswer::NotColorable { .. } => {
                lower = (target + 1).max(lower);
                if target == k && lower < upper {
                    let reason = format!("K-cap bracket [{lower}, {upper}]");
                    return (Answer::failed(reason), Some(k));
                }
            }
            SessionAnswer::Unknown => {
                let reason = format!("undecided: χ in [{lower}, {upper}]");
                return (Answer::failed(reason), Some(k));
            }
        }
    }
    (Answer::exact(upper, witness), Some(k))
}

/// `solve_coloring`'s fixed-K flow with instance-dependent SBPs. The
/// symmetry graph is built once on its own (`shatter.graph`) and once
/// inside `detect_symmetries`; the difference is the automorphism search.
fn detect(
    graph: &Graph,
    options: &SolveOptions,
    trace: &mut Trace,
    op: u64,
    layers: &mut Layers,
) -> Answer {
    let mut encoding = trace.span("encode", op, || ColoringEncoding::new(graph, options.k));
    let base = encoding.formula().stats();
    layers.add("encode.vars", base.vars as f64);
    layers.add("encode.clauses", base.clauses as f64);
    let sbp = trace
        .span("sbp", op, || add_instance_independent_sbps(&mut encoding, graph, options.sbp_mode));
    layers.add("sbp.clauses", sbp.clauses as f64);
    layers.add("sbp.aux_vars", sbp.aux_vars as f64);
    trace.span("shatter.graph", op, || black_box(formula_graph(encoding.formula())));
    let (perms, report) =
        trace.span("detect", op, || detect_symmetries(encoding.formula(), &options.shatter.aut));
    let stats = trace.span("shatter.sbp", op, || {
        add_sbps(encoding.formula_mut(), &perms, options.shatter.construction)
    });
    layers.add("shatter.graph_vertices", report.graph_vertices as f64);
    layers.add("shatter.graph_edges", report.graph_edges as f64);
    layers.add("shatter.generators", report.num_generators as f64);
    layers.add("shatter.order_log10", report.order_log10);
    layers.add("shatter.sbp_clauses", stats.clauses as f64);
    let outcome = trace.span("optimize", op, || {
        let mut optimizer = Optimizer::new(encoding.formula(), options.solver);
        optimizer.set_recorder(options.recorder.clone());
        optimizer.run(&options.budget)
    });
    // Decode and verify as `solve_coloring` does: a model that does not
    // decode to a proper coloring of the claimed size is no answer.
    let decoded = |value: u64, model| {
        encoding.decode(model).filter(|c| c.is_proper(graph) && c.num_colors() as u64 == value)
    };
    let outcome = match outcome {
        OptOutcome::Optimal { value, model } => match decoded(value, &model) {
            Some(coloring) => ColoringOutcome::Optimal { coloring, colors: value as usize },
            None => ColoringOutcome::Unknown,
        },
        OptOutcome::Feasible { value, model } => match decoded(value, &model) {
            Some(coloring) => ColoringOutcome::Feasible { coloring, colors: value as usize },
            None => ColoringOutcome::Unknown,
        },
        OptOutcome::Infeasible => ColoringOutcome::InfeasibleAtK,
        OptOutcome::Unknown => ColoringOutcome::Unknown,
    };
    detect_answer(outcome, options.k)
}

/// `chromatic_number_certified`'s second half on the ladder's answer.
fn certify(
    graph: &Graph,
    options: &SolveOptions,
    answer: Answer,
    trace: &mut Trace,
    op: u64,
    layers: &mut Layers,
) -> Answer {
    let Some((chi, witness)) = answer.decided else { return answer };
    let result = ChromaticResult::Exact { chromatic_number: chi, witness };
    let workers = options.portfolio_workers().unwrap_or(1);
    let certificate = trace
        .span("certify", op, || certify_result_parallel(graph, &result, &options.budget, workers));
    if let Some(ProofStatus::Checked {
        steps,
        adds,
        deletes,
        literals,
        solve_seconds,
        check_seconds,
    }) = certificate.as_ref().map(|c| &c.unsat)
    {
        layers.add("certify.solve_s", *solve_seconds);
        layers.add("certify.check_s", *check_seconds);
        layers.add("proof.steps", *steps as f64);
        layers.add("proof.adds", *adds as f64);
        layers.add("proof.deletes", *deletes as f64);
        layers.add("proof.literals", *literals as f64);
    }
    certified_answer(result, certificate)
}

/// Folds span totals and recorder counters of operation `op` into
/// `layers`.
fn collect(recorder: &Recorder, trace: &Trace, op: u64, layers: &mut Layers) {
    layers.add("ops", 1.0);
    layers.add("graph.bounds_s", trace.total(op, "graph"));
    layers.add("encode.s", trace.total(op, "encode"));
    layers.add("sbp.s", trace.total(op, "sbp"));
    layers.add(
        "session.build_s",
        trace.total(op, "session.build") + trace.total(op, "session.commit"),
    );
    let graph_s = trace.total(op, "shatter.graph");
    layers.add("shatter.graph_s", graph_s);
    layers.add("aut.search_s", (trace.total(op, "detect") - graph_s).max(0.0));
    layers.add("shatter.sbp_s", trace.total(op, "shatter.sbp"));
    layers.add("optimize.s", trace.total(op, "optimize"));
    layers.add("certify.s", trace.total(op, "certify"));
    layers.add("engine_s", trace.total(op, "solve") + trace.total(op, "optimize"));

    if let Some(h) = recorder.heuristics() {
        layers.add("heur.race_s", h.seconds);
        layers.add("heur.rungs_skipped", h.rungs_skipped as f64);
        layers.add("heur.closed", f64::from(u8::from(h.lower >= h.upper)));
    }
    for step in recorder.ladder_steps() {
        layers.add("session.queries", 1.0);
        layers.add("session.retained_clauses", step.retained_clauses as f64);
        match step.outcome.as_str() {
            "sat" => layers.add("session.sat_s", step.seconds),
            "unsat" => layers.add("session.unsat_s", step.seconds),
            _ => {}
        }
    }
    for (key, counter) in [
        ("pb.conflicts", Counter::Conflicts),
        ("pb.propagations", Counter::Propagations),
        ("pb.decisions", Counter::Decisions),
        ("pb.restarts", Counter::Restarts),
        ("pb.learned", Counter::Learned),
        ("pb.deleted", Counter::Deleted),
        ("pb.pb_conflicts", Counter::PbConflicts),
        ("pb.lbd_sum", Counter::LbdSum),
    ] {
        layers.add(key, recorder.counter(counter) as f64);
    }
    // Exact-search workers only; the heuristic race records its own
    // workers under other kinds.
    for w in recorder.workers().iter().filter(|w| w.kind == "cdcl") {
        layers.add("portfolio.exported", w.search.exported as f64);
        layers.add("portfolio.imported", w.search.imported as f64);
        layers.add("portfolio.conflicts", w.search.conflicts as f64);
        if w.won {
            layers.add("portfolio.winner_conflicts", w.search.conflicts as f64);
        }
        if let Some(latency) = w.cancel_latency {
            layers.max("portfolio.cancel_latency_s_max", latency.as_secs_f64());
        }
        layers.add("portfolio.failed_workers", f64::from(u8::from(w.failed.is_some())));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::run;
    use crate::workloads::{find, WORKLOADS};

    #[test]
    fn merge_sums_totals_and_keeps_maxima() {
        let mut a = Layers::default();
        a.add("pb.conflicts", 3.0);
        a.max("portfolio.cancel_latency_s_max", 0.2);
        let mut b = Layers::default();
        b.add("pb.conflicts", 4.0);
        b.max("portfolio.cancel_latency_s_max", 0.1);
        a.merge(&b);
        assert_eq!(a.get("pb.conflicts"), 7.0);
        assert_eq!(a.get("portfolio.cancel_latency_s_max"), 0.2);
    }

    #[test]
    fn finish_reports_every_per_layer_metric_but_overhead() {
        let out = Layers::default().finish();
        assert_eq!(out.len(), PER_LAYER.len() - 1);
        assert!(out.values().all(|&v| v == 0.0));
    }

    #[test]
    fn traced_answers_equal_untraced_answers() {
        let g = sbgc_graph::gen::gnp(24, 0.5, 3); // χ = 7, DSATUR 8: the ladder runs
        for w in &WORKLOADS {
            let options = w.options();
            let mut trace = Trace::new();
            let traced = run_traced(w.op, &g, &options, 8, &mut trace, 0);
            assert_eq!(traced.answer.chi(), run(w.op, &g, &options).chi(), "{}", w.name);
            assert_eq!(traced.answer.chi(), Some(7), "{}", w.name);
            assert!(traced.seconds > 0.0);
            assert_eq!(trace.total(0, "op"), traced.seconds);
        }
    }

    #[test]
    fn bypassed_layers_read_zero() {
        let g = sbgc_graph::gen::gnp(24, 0.5, 3);
        let traced = |name: &str| {
            let w = find(name).expect("workload exists");
            run_traced(w.op, &g, &w.options(), 8, &mut Trace::new(), 0).layers.finish()
        };
        let seq = traced("ladder-seq");
        assert!(seq["session.queries"] > 0.0 && seq["pb.conflicts"] > 0.0);
        for key in ["heur.race_s", "portfolio.exported", "shatter.graph_s", "aut.search_s"] {
            assert_eq!(seq[key], 0.0, "ladder-seq {key}");
        }
        let port = traced("portfolio-2w");
        assert!(port["portfolio.winner_conflict_share"] > 0.0);
        assert_eq!(port["heur.race_s"], 0.0);
        let detect = traced("detect-k20");
        assert!(detect["shatter.generators"] > 0.0 && detect["optimize.s"] > 0.0);
        assert_eq!(detect["heur.race_s"], 0.0);
        assert_eq!(detect["portfolio.imported"], 0.0);
        let certify = traced("certify");
        assert!(certify["proof.steps"] > 0.0 && certify["certify.s"] > 0.0);
        assert_eq!(certify["shatter.graph_s"], 0.0);
    }
}
