//! Three ways to run the chromatic ladder on one instance — the paper's
//! §4.1 K-selection made incremental: encode once, then tighten the color
//! budget with assumption queries against one persistent solver state.
//!
//! 1. **exact-only**: the greedy DSATUR/clique bracket, then one
//!    sequential engine walks the ladder;
//! 2. **hybrid** (the default): a TabuCol/PartialCol/clique race runs
//!    beside the ladder and tightens the shared bracket, so the ladder
//!    skips the rungs the race answers first;
//! 3. **2-worker portfolio**: the exact-only ladder, but every query is
//!    raced by two diversified clause-sharing workers.
//!
//! Run with: `cargo run --release -p sbgc-core --example chromatic_search`

use sbgc_core::{chromatic_number_outcome, Recorder, SbpMode, SolveOptions};
use sbgc_graph::gen::queens;
use std::time::Instant;

fn main() {
    let graph = queens(6, 6);
    println!(
        "instance: queen6_6 ({} vertices, {} edges), χ = 7\n",
        graph.num_vertices(),
        graph.num_edges()
    );
    let base = SolveOptions::new(20).with_sbp_mode(SbpMode::NuSc);
    let ladders = [
        ("exact-only", base.clone().without_heuristics()),
        ("hybrid", base.clone()),
        ("2-worker portfolio", base.without_heuristics().with_parallelism(2)),
    ];

    let mut answers = Vec::new();
    for (name, options) in ladders {
        let recorder = Recorder::new();
        let start = Instant::now();
        let out = chromatic_number_outcome(&graph, &options.with_recorder(recorder.clone()))
            .expect("queen6_6 is a valid instance");
        let steps = recorder.ladder_steps();
        println!(
            "{name:<20} chi = {:?}   in {:>8.3?}   ({} ladder queries, first target {:?})",
            out.exact(),
            start.elapsed(),
            steps.len(),
            steps.first().map(|s| s.target),
        );
        answers.push(out.exact());
    }
    assert!(answers.iter().all(|&chi| chi == Some(7)), "every ladder must prove χ = 7");

    println!(
        "\nAll three agree. The hybrid race lets the ladder skip rungs below\n\
         the DSATUR bound; the portfolio races each query with shared clauses."
    );
}
