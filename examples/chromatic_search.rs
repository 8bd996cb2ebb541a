//! The three ways this library can pin down a chromatic number, compared
//! on one instance:
//!
//! 1. **incremental** search (`chromatic_number`): one solver, color
//!    budget tightened via assumptions, learned clauses reused (our
//!    extension of the paper's flow);
//! 2. repeated **decision** queries, linear search over K (paper §4.1);
//! 3. repeated decision queries, **binary** search over K (paper §4.1).
//!
//! Run with: `cargo run --release --example chromatic_search`

use sbgc_core::{
    chromatic_number, chromatic_number_by_decision, SbpMode, SearchStrategy, SolveOptions,
};
use sbgc_graph::gen::queens;
use std::time::Instant;

fn main() {
    let graph = queens(6, 6);
    println!(
        "instance: queen6_6 ({} vertices, {} edges), χ = 7\n",
        graph.num_vertices(),
        graph.num_edges()
    );
    let options = SolveOptions::new(20).with_sbp_mode(SbpMode::NuSc);

    let timed = |name: &str, f: &dyn Fn() -> Option<usize>| {
        let start = Instant::now();
        let chi = f();
        println!("{name:<28} chi = {chi:?}   in {:?}", start.elapsed());
    };

    timed("incremental (assumptions)", &|| chromatic_number(&graph, &options).exact());
    timed("decision, linear search", &|| {
        chromatic_number_by_decision(&graph, &options, SearchStrategy::Linear).exact()
    });
    timed("decision, binary search", &|| {
        chromatic_number_by_decision(&graph, &options, SearchStrategy::Binary).exact()
    });

    println!(
        "\nAll three must agree; the incremental search reuses one solver\n\
         instance across the K-tightening steps, so conflict clauses learned\n\
         while refuting K colors help refute K-1."
    );
}
