//! Seeded benchmark of the time to a proven chromatic number.
//!
//! ```text
//! cargo run --release --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- \
//!     --workload ladder-seq --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One invocation builds the workload's graphs from `--seed`, then runs
//! passes over them — each operation one at a time, in this process — for
//! about `--seconds` seconds. It checks every answer, prints each metric
//! as `name value unit`, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` also runs every operation layer by
//! layer with spans and reports the per-layer metrics. A wrong answer
//! exits 1; a bad argument exits 2. See README.md for the definitions.

mod check;
mod json;
mod layers;
mod ops;
mod stats;
mod sys;
mod trace;
mod workloads;

use check::Ledger;
use layers::{run_traced, Layers, PER_LAYER};
use sbgc_graph::algo;
use stats::{iqr, median, min, Sample};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use trace::Trace;
use workloads::{Instance, Workload};

const USAGE: &str =
    "usage: benchmark --workload <ladder-seq|portfolio-2w|hybrid|detect-k20|certify> \
                     [--seed N] [--seconds N] [--trace 0|1]";

/// Where reports, spans and the χ ledger go: inside the checkout the
/// benchmark was built from.
const RESULTS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/results");

/// Times each graph is rebuilt (and timed, for `setup_s`) before each of
/// its untraced operations. Spreading the builds over the whole run keeps
/// one burst of machine noise from deciding the median.
const SETUP_REPS: usize = 3;

/// End-to-end metrics, in the order `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 5] =
    [("wall_s", "s"), ("p50_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1, 20, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: bad number {value:?}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workloads::find(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// State of one benchmark run.
struct Run<'a> {
    workload: &'static Workload,
    instances: &'a [Instance],
    options: sbgc_core::SolveOptions,
    /// One-shot DSATUR bound per instance (for `graph.dsatur_gap`).
    dsatur: Vec<usize>,
    /// Untraced repetitions per instance.
    samples: Vec<Vec<Sample>>,
    /// Process CPU seconds of each untraced repetition.
    cpu: Vec<Vec<f64>>,
    /// Seconds of each rebuild of each instance's graph.
    setup: Vec<Vec<f64>>,
    /// Peak resident set size of each pass, MiB.
    peak_rss: Vec<f64>,
    /// Traced repetitions per instance (trace runs only).
    traced: Vec<Vec<Sample>>,
    /// The χ each instance's first decided repetition found.
    chi: Vec<Option<usize>>,
    /// Instances with at least one answer that failed a check; their χ
    /// is never recorded in the ledger.
    wrong_instance: Vec<bool>,
    /// Per-layer metrics of each traced pass.
    pass_layers: Vec<BTreeMap<&'static str, f64>>,
    trace: Trace,
    wrong: Vec<String>,
    attempted: usize,
    failed: usize,
    passes: usize,
}

impl<'a> Run<'a> {
    fn new(workload: &'static Workload, instances: &'a [Instance]) -> Self {
        let n = instances.len();
        Run {
            workload,
            instances,
            options: workload.options(),
            dsatur: instances.iter().map(|i| algo::dsatur(&i.graph).num_colors()).collect(),
            samples: vec![Vec::new(); n],
            cpu: vec![Vec::new(); n],
            setup: vec![Vec::new(); n],
            peak_rss: Vec::new(),
            traced: vec![Vec::new(); n],
            chi: vec![None; n],
            wrong_instance: vec![false; n],
            pass_layers: Vec::new(),
            trace: Trace::new(),
            wrong: Vec::new(),
            attempted: 0,
            failed: 0,
            passes: 0,
        }
    }

    /// One repetition of every instance, untraced and, when tracing, traced.
    fn pass(&mut self, traced: bool) {
        let mut layers = Layers::default();
        sys::reset_peak_rss();
        for i in 0..self.instances.len() {
            for _ in 0..SETUP_REPS {
                let start = Instant::now();
                std::hint::black_box(self.instances[i].recipe.build());
                self.setup[i].push(start.elapsed().as_secs_f64());
            }
            let graph = &self.instances[i].graph;
            let cpu_start = sys::cpu_seconds();
            let start = Instant::now();
            let answer = ops::run(self.workload.op, graph, &self.options);
            let seconds = start.elapsed().as_secs_f64();
            self.cpu[i].push(sys::cpu_seconds() - cpu_start);
            self.samples[i].push(Sample { seconds, failed: answer.failure.is_some() });
            self.check(i, &answer, "untraced");
            if traced {
                let op_id = (self.passes * self.instances.len() + i) as u64;
                let t = run_traced(
                    self.workload.op,
                    graph,
                    &self.options,
                    self.dsatur[i],
                    &mut self.trace,
                    op_id,
                );
                self.traced[i]
                    .push(Sample { seconds: t.seconds, failed: t.answer.failure.is_some() });
                self.check(i, &t.answer, "traced");
                layers.merge(&t.layers);
            }
        }
        if traced {
            self.pass_layers.push(layers.finish());
        }
        self.peak_rss.push(sys::peak_rss_mb());
        self.passes += 1;
    }

    /// Counts the operation and checks its answer: a proper witness with
    /// exactly χ colors, the paper's or pinned χ when known, and the same
    /// χ as every earlier repetition (traced or not).
    fn check(&mut self, i: usize, answer: &ops::Answer, kind: &str) {
        let inst = &self.instances[i];
        self.attempted += 1;
        if let Some(reason) = &answer.failure {
            self.failed += 1;
            eprintln!("failed: {} ({kind}): {reason}", inst.label);
        }
        let mut problems: Vec<String> = answer.wrong.iter().cloned().collect();
        if let Some((chi, witness)) = &answer.decided {
            if let Err(e) = check::witness(&inst.graph, witness, *chi) {
                problems.push(e);
            }
            if let Some(expected) = inst.expected.filter(|e| e != chi) {
                problems.push(format!("χ = {chi}, expected {expected}"));
            }
            match self.chi[i] {
                Some(prev) if prev != *chi => problems
                    .push(format!("χ = {chi} disagrees with χ = {prev} of an earlier repetition")),
                Some(_) => {}
                None => self.chi[i] = Some(*chi),
            }
        }
        if !problems.is_empty() {
            self.wrong_instance[i] = true;
            self.wrong
                .extend(problems.into_iter().map(|p| format!("{} ({kind}): {p}", inst.label)));
        }
    }

    fn budget_s(&self) -> f64 {
        self.workload.budget_s as f64
    }

    /// `metric(p)` for every pass `p`.
    fn by_pass(&self, metric: impl Fn(usize) -> f64) -> Vec<f64> {
        (0..self.passes).map(metric).collect()
    }

    /// The end-to-end metrics, each with its IQR over passes.
    fn end_to_end(&self) -> BTreeMap<&'static str, (f64, f64)> {
        let budget = self.budget_s();
        let pass =
            |p: usize| -> Vec<Vec<Sample>> { self.samples.iter().map(|s| vec![s[p]]).collect() };
        let wall = self.by_pass(|p| stats::wall_s(&pass(p), budget));
        let p50 = self.by_pass(|p| stats::p50_s(&pass(p), budget));
        let cpu = self.by_pass(|p| self.cpu.iter().map(|c| c[p]).sum());
        let setup = self.by_pass(|p| {
            self.setup.iter().map(|s| median(&s[p * SETUP_REPS..(p + 1) * SETUP_REPS])).sum()
        });
        BTreeMap::from([
            ("wall_s", (stats::wall_s(&self.samples, budget), iqr(&wall))),
            ("p50_s", (stats::p50_s(&self.samples, budget), iqr(&p50))),
            ("cpu_s", (self.cpu.iter().map(|c| min(c)).sum(), iqr(&cpu))),
            ("setup_s", (self.setup.iter().map(|s| median(s)).sum(), iqr(&setup))),
            ("peak_rss_mb", (median(&self.peak_rss), iqr(&self.peak_rss))),
        ])
    }

    /// The per-layer metrics of a traced run: medians over passes, and
    /// the tracing overhead of the whole run.
    fn per_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = PER_LAYER
            .iter()
            .map(|&(name, _)| {
                let values: Vec<f64> =
                    self.pass_layers.iter().filter_map(|m| m.get(name)).copied().collect();
                (name, median(&values))
            })
            .collect();
        let untraced = stats::wall_s(&self.samples, self.budget_s());
        let traced = stats::wall_s(&self.traced, self.budget_s());
        out.insert("trace.overhead_frac", stats::ratio(traced - untraced, untraced));
        out
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;

    let instances = w.build(args.seed);
    let mut run = Run::new(w, &instances);
    let start = Instant::now();
    loop {
        run.pass(args.trace);
        // Start another pass only if one more of average length fits.
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / run.passes as f64 > args.seconds as f64 {
            break;
        }
    }

    let results = Path::new(RESULTS_DIR);
    if let Err(e) = std::fs::create_dir_all(results) {
        eprintln!("warning: cannot create {}: {e}", results.display());
    }
    check_ledger(&mut run, &results.join("chi-ledger.tsv"));

    let e2e = run.end_to_end();
    let layer_metrics = if args.trace { run.per_layer() } else { BTreeMap::new() };
    let failed_frac = stats::failed_frac(run.failed, run.attempted);

    for &(name, unit) in &END_TO_END {
        println!("{name} {} {unit}", e2e[name].0);
    }
    println!("failed_frac {failed_frac} ratio");
    for &(name, unit) in PER_LAYER.iter().filter(|_| args.trace) {
        println!("{name} {} {unit}", layer_metrics[name]);
    }
    for e in &run.wrong {
        eprintln!("WRONG: {e}");
    }

    let report = report_json(&args, &run, &e2e, &layer_metrics, failed_frac);
    let stem = format!("{}-seed{}-trace{}", w.name, args.seed, u8::from(args.trace));
    write_or_warn(&results.join(format!("{stem}.json")), &report);
    if args.trace {
        write_or_warn(
            &results.join(format!("{stem}-spans.json")),
            &run.trace.to_json(w.name, args.seed),
        );
    }

    let metrics: Vec<String> = if args.trace {
        PER_LAYER.iter().map(|&(name, unit)| metric_json(name, layer_metrics[name], unit)).collect()
    } else {
        END_TO_END.iter().map(|&(name, unit)| metric_json(name, e2e[name].0, unit)).collect()
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.wrong.is_empty(),
        run.attempted,
        run.failed,
        metrics.join(", ")
    );
    if run.wrong.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Holds every decided χ to the ledger of earlier runs in this checkout.
/// Only a run whose every answer passed its checks writes the ledger, so
/// one wrong run cannot make later correct runs read as wrong.
fn check_ledger(run: &mut Run, path: &Path) {
    let mut ledger = match Ledger::load(path) {
        Ok(ledger) => ledger,
        Err(e) => {
            eprintln!("warning: χ ledger unreadable, cross-run check skipped: {e}");
            return;
        }
    };
    for (i, inst) in run.instances.iter().enumerate() {
        let Some(chi) = run.chi[i].filter(|_| !run.wrong_instance[i]) else { continue };
        if let Err(e) = ledger.check(&inst.fingerprint().to_string(), chi) {
            run.wrong.push(format!("{}: {e}", inst.label));
        }
    }
    if !run.wrong.is_empty() {
        eprintln!("χ ledger left unchanged: this run has wrong answers");
    } else if let Err(e) = ledger.save() {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

fn write_or_warn(path: &Path, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!(
        "{}: {{\"value\": {}, \"unit\": {}}}",
        json::string(name),
        json::number(value),
        json::string(unit)
    )
}

/// The full report: settings, every metric with its IQR over passes, and
/// each instance's fingerprint, χ and repetitions.
fn report_json(
    args: &Args,
    run: &Run,
    e2e: &BTreeMap<&str, (f64, f64)>,
    layer_metrics: &BTreeMap<&str, f64>,
    failed_frac: f64,
) -> String {
    let budget = run.budget_s();
    let e2e_json: Vec<String> = END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let (value, spread) = e2e[name];
            format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"iqr\": {}}}",
                json::string(name),
                json::number(value),
                json::string(unit),
                json::number(spread)
            )
        })
        .collect();
    let layer_json: Vec<String> = PER_LAYER
        .iter()
        .filter_map(|&(name, unit)| Some(metric_json(name, *layer_metrics.get(name)?, unit)))
        .collect();
    let instances: Vec<String> = run
        .instances
        .iter()
        .enumerate()
        .map(|(i, inst)| {
            let (median_s, iqr_s) = stats::summarize(&run.samples[i], budget);
            let samples: Vec<String> = run.samples[i].iter().map(|s| json::number(s.seconds)).collect();
            let censored: Vec<String> = run.samples[i].iter().map(|s| s.failed.to_string()).collect();
            let traced = if run.traced[i].is_empty() {
                "null".to_string()
            } else {
                json::number(stats::summarize(&run.traced[i], budget).0)
            };
            format!(
                "{{\"label\": {}, \"seeded\": {}, \"generator_seed\": {}, \"fingerprint\": {}, \
                 \"expected_chi\": {}, \"chi\": {}, \"best_s\": {}, \"median_s\": {}, \"iqr_s\": {}, \
                 \"cpu_best_s\": {}, \"traced_median_s\": {traced}, \"samples_s\": [{}], \"censored\": [{}]}}",
                json::string(&inst.label),
                inst.seeded,
                inst.recipe.generator_seed().map_or("null".to_string(), |s| s.to_string()),
                json::string(&inst.fingerprint().to_string()),
                inst.expected.map_or("null".to_string(), |c| c.to_string()),
                run.chi[i].map_or("null".to_string(), |c| c.to_string()),
                json::number(stats::best(&run.samples[i], budget)),
                json::number(median_s),
                json::number(iqr_s),
                json::number(min(&run.cpu[i])),
                samples.join(", "),
                censored.join(", ")
            )
        })
        .collect();
    let wrong: Vec<String> = run.wrong.iter().map(|e| json::string(e)).collect();
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"passes\": {}, \
         \"budget_s\": {}, \"available_parallelism\": {parallelism}, \"correct\": {}, \"wrong\": [{}], \
         \"attempted\": {}, \"failed\": {}, \"failed_frac\": {},\n\"metrics\": {{{}}},\n\"layers\": {{{}}},\n\
         \"instances\": [\n{}\n]}}\n",
        json::string(run.workload.name),
        args.seed,
        args.seconds,
        args.trace,
        run.passes,
        run.workload.budget_s,
        run.wrong.is_empty(),
        wrong.join(", "),
        run.attempted,
        run.failed,
        json::number(failed_frac),
        e2e_json.join(", "),
        layer_json.join(", "),
        instances.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbgc_graph::{Coloring, Graph};
    use workloads::{Recipe, WORKLOADS};

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    fn complete(n: usize) -> Instance {
        let recipe = Recipe::Gnp { n, p: 1.0, seed: 0 };
        let graph = Graph::complete(n);
        Instance { label: format!("K{n}"), recipe, graph, expected: Some(n), seeded: false }
    }

    /// Checks each `(instance, claimed χ)` with a proper witness in a fresh
    /// run, then holds the run to the ledger at `path`.
    fn ledger_run(instances: &[Instance], claims: &[usize], path: &Path) -> Vec<String> {
        let mut run = Run::new(workloads::find("ladder-seq").expect("exists"), instances);
        for (i, &chi) in claims.iter().enumerate() {
            let n = instances[i].graph.num_vertices();
            run.check(i, &ops::Answer::exact(chi, Coloring::new((0..n).collect())), "untraced");
        }
        check_ledger(&mut run, path);
        run.wrong
    }

    #[test]
    fn a_run_with_a_wrong_answer_leaves_the_ledger_unchanged() {
        let dir = std::env::temp_dir().join(format!("sbgc-run-ledger-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("chi-ledger.tsv");
        let _ = std::fs::remove_file(&path);
        let graphs = [complete(3), complete(4)];
        // K3 is answered right, K4 wrongly: nothing is recorded, not even K3.
        assert!(!ledger_run(&graphs, &[3, 5], &path).is_empty());
        assert!(!path.exists(), "a wrong run writes no ledger");
        // So a correct run after it passes, and records both graphs.
        assert_eq!(ledger_run(&graphs, &[3, 4], &path), Vec::<String>::new());
        let recorded = std::fs::read_to_string(&path).expect("ledger written");
        assert_eq!(recorded.lines().count(), 2);
        // Another wrong run leaves the recorded ledger as it was.
        assert!(!ledger_run(&graphs, &[2, 4], &path).is_empty());
        assert_eq!(std::fs::read_to_string(&path).expect("ledger kept"), recorded);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&["--workload", "hybrid", "--seed", "9", "--seconds", "3", "--trace", "1"])
            .expect("valid");
        assert_eq!((a.workload.name, a.seed, a.seconds, a.trace), ("hybrid", 9, 3, true));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "hybrid", "--trace", "yes"]).is_err());
        assert!(args(&["--workload", "hybrid", "--seed"]).is_err());
    }

    /// `BENCHMARK.json` at the repository root lists the same workloads
    /// and metrics, with the same units, as this program reports.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = text.split_whitespace().collect();
        for w in &WORKLOADS {
            assert!(compact.contains(&format!("{{\"name\":\"{}\",", w.name)), "{}", w.name);
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",");
            assert!(compact.contains(&entry), "{entry}");
        }
        assert_eq!(compact.matches("\"unit\":").count(), END_TO_END.len() + PER_LAYER.len());
    }

    /// This package repeats the repository's release profile, so the
    /// library is measured as the repository builds it.
    #[test]
    fn release_profile_matches_the_repository() {
        let profile = |path: &str| -> Vec<String> {
            let text = std::fs::read_to_string(path).expect("manifest");
            let body = &text[text.find("[profile.release]").expect("a release profile")..];
            let end = body[1..].find("\n[").map_or(body.len(), |i| i + 1);
            body[..end]
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(str::to_string)
                .collect()
        };
        let root = profile(concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../Cargo.toml"));
        assert_eq!(profile(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml")), root);
    }
}
