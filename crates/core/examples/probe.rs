//! Ad-hoc probe: time individual portfolio configs on one instance/mode.
//!
//! cargo run --release -p sbgc-core --example probe -- queen6_6 SC 3 120

use sbgc_core::{PreparedColoring, SbpMode, SolveOptions};
use sbgc_pb::{optimize_portfolio, portfolio_configs, Budget, FaultPlan, Recorder};
use std::time::{Duration, Instant};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = &args[1];
    let mode = match args[2].as_str() {
        "none" => SbpMode::None,
        "NU" => SbpMode::Nu,
        "CA" => SbpMode::Ca,
        "LI" => SbpMode::Li,
        "SC" => SbpMode::Sc,
        _ => SbpMode::NuSc,
    };
    let workers: Vec<usize> = args[3].split(',').map(|s| s.parse().unwrap()).collect();
    let timeout: u64 = args[4].parse().unwrap();
    let k: usize = args.get(5).map_or(20, |s| s.parse().unwrap());

    let graph = sbgc_graph::suite::build(name).graph;
    let options = SolveOptions::new(k).with_sbp_mode(mode);
    let prepared = PreparedColoring::new(&graph, &options);
    let formula = prepared.formula();

    let all = portfolio_configs(8);
    let configs: Vec<_> = workers.iter().map(|&i| all[i]).collect();
    let budget = Budget::unlimited().with_timeout(Duration::from_secs(timeout));
    let start = Instant::now();
    let out = optimize_portfolio(
        formula,
        &configs,
        &budget,
        &Recorder::disabled(),
        &FaultPlan::default(),
    )
    .unwrap();
    println!(
        "{name} {mode:?} workers {workers:?}: {:?} in {:.2}s, {} conflicts, exported {}, imported {}",
        out.outcome.value(),
        start.elapsed().as_secs_f64(),
        out.stats.conflicts,
        out.stats.exported,
        out.stats.imported,
    );
}
