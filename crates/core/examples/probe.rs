//! Ad-hoc probe: time individual portfolio configs on one instance/mode.
//!
//! cargo run --release -p sbgc-core --example probe -- queen6_6 SC 3 120
//!
//! Arguments: a suite instance name, an SBP mode (any name `--sbp`
//! accepts, such as `NU+SC` or `ValPrec`), comma-separated indices into
//! `portfolio_configs(8)`, a timeout in seconds, and optionally the color
//! cap K (default 20). Bad arguments print a usage line and exit 2.

use sbgc_core::{PreparedColoring, SbpMode, SolveOptions};
use sbgc_graph::suite;
use sbgc_pb::{optimize_portfolio, portfolio_configs, Budget, FaultPlan, Recorder};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: probe <suite instance> <SBP mode> <worker indices 0-7, comma-separated> <timeout secs> [K]";
const CONFIGS: usize = 8;

struct Args {
    name: String,
    mode: SbpMode,
    workers: Vec<usize>,
    timeout: u64,
    k: usize,
}

fn parse(args: &[String]) -> Option<Args> {
    let [name, mode, workers, timeout, rest @ ..] = args else { return None };
    suite::SUITE.iter().find(|m| m.name == name)?;
    let workers = workers
        .split(',')
        .map(|s| s.parse().ok().filter(|&i| i < CONFIGS))
        .collect::<Option<Vec<usize>>>()?;
    let k = match rest {
        [] => 20,
        [k] => k.parse().ok().filter(|&k| k > 0)?,
        _ => return None,
    };
    Some(Args {
        name: name.clone(),
        mode: SbpMode::parse(mode)?,
        workers,
        timeout: timeout.parse().ok()?,
        k,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(Args { name, mode, workers, timeout, k }) = parse(&args) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };

    let graph = suite::build(&name).graph;
    let options = SolveOptions::new(k).with_sbp_mode(mode);
    let prepared = PreparedColoring::new(&graph, &options);
    let formula = prepared.formula();

    let all = portfolio_configs(CONFIGS);
    let configs: Vec<_> = workers.iter().map(|&i| all[i]).collect();
    let budget = Budget::unlimited().with_timeout(Duration::from_secs(timeout));
    let start = Instant::now();
    let out = match optimize_portfolio(
        formula,
        &configs,
        &budget,
        &Recorder::disabled(),
        &FaultPlan::default(),
    ) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("probe: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{name} {mode} workers {workers:?}: {:?} in {:.2}s, {} conflicts, exported {}, imported {}",
        out.outcome.value(),
        start.elapsed().as_secs_f64(),
        out.stats.conflicts,
        out.stats.exported,
        out.stats.imported,
    );
    ExitCode::SUCCESS
}
