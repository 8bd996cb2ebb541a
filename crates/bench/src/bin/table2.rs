//! Table 2 — formula sizes and symmetry statistics per SBP construction.
//!
//! For each instance-independent SBP mode — the paper's grid
//! (none/NU/CA/LI/SC/NU+SC) plus the extensions (SC-clq, LI-pfx,
//! Orbitope, ValPrec; the full [`SbpMode::EXTENDED`] list) — this
//! encodes every configured instance at K, runs symmetry detection on the
//! result, and prints the totals the paper reports: #variables, #CNF
//! clauses, #PB constraints, Σ log₁₀|Aut| (shown as `10^x`), #generators,
//! and detection time.
//!
//! `cargo run --release -p sbgc-bench --bin table2`

use sbgc_bench::HarnessConfig;
use sbgc_core::{add_instance_independent_sbps, ColoringEncoding, SbpMode};
use sbgc_shatter::{detect_symmetries, AutomorphismOptions};
use std::time::Duration;

fn main() {
    let config = HarnessConfig::from_args(8, Duration::from_secs(10));
    let instances = config.build_instances();
    println!(
        "Table 2: formula sizes and symmetry statistics, {} instances, K = {}",
        instances.len(),
        config.k
    );
    println!(
        "{:<8} {:>9} {:>10} {:>7} | {:>12} {:>6} {:>9} {:>9}",
        "SBP", "#V", "#CL", "#PB", "#S", "#G", "spurious", "time"
    );
    let aut_opts = AutomorphismOptions::default();
    for mode in SbpMode::EXTENDED {
        let mut vars = 0usize;
        let mut clauses = 0usize;
        let mut pbs = 0usize;
        let mut order_sum = 0.0f64;
        let mut generators = 0usize;
        let mut spurious = 0usize;
        let mut time = Duration::ZERO;
        let mut exact = true;
        for inst in &instances {
            let mut enc = ColoringEncoding::new(&inst.graph, config.k);
            let _ = add_instance_independent_sbps(&mut enc, &inst.graph, mode);
            let stats = enc.formula().stats();
            vars += stats.vars;
            clauses += stats.clauses;
            pbs += stats.pb_constraints();
            let (perms, report) = detect_symmetries(enc.formula(), &aut_opts);
            order_sum += 10f64.powf(report.order_log10);
            generators += perms.len();
            spurious += report.spurious_dropped;
            time += report.detection_time;
            exact &= report.exact;
            if config.per_instance {
                println!(
                    "    {:<12} {:<7} |S|=10^{:<8.1} #G={:<4} t={:?}",
                    inst.meta.name,
                    mode.display_name(),
                    report.order_log10,
                    perms.len(),
                    report.detection_time
                );
            }
        }
        println!(
            "{:<8} {:>9} {:>10} {:>7} | {:>11} {:>6} {:>9} {:>8.1}s{}",
            mode.display_name(),
            vars,
            clauses,
            pbs,
            format!("{order_sum:.1e}"),
            generators,
            spurious,
            time.as_secs_f64(),
            if exact { "" } else { " (budgeted)" }
        );
    }
    println!(
        "\nNotes: #S sums per-instance group orders, as in the paper (totals are\n\
         dominated by the largest instance). The complete constructions\n\
         (LI, LI-pfx, Orbitope, ValPrec) should leave no color symmetry,\n\
         and all but ValPrec only the identity: where ValPrec's clique pins\n\
         leave no precedence clause open, it keeps the graph automorphisms\n\
         that fix the pinned vertices. SC should barely change #S. Rows\n\
         below NU+SC are post-paper extensions (see docs/SBP.md). Run with\n\
         --full --k 20 for the paper's exact parameters (slow)."
    );

    sbgc_bench::run_certification(&config);
    sbgc_bench::write_report(&config, "table2");
}
