//! The five workloads and the graphs each one runs on.
//!
//! Every workload mixes two kinds of input:
//!
//! * **anchors** — suite instances and G(n, p) graphs pinned to one
//!   generator seed. They carry most of each pass's time and are the same
//!   for every `--seed`. Exact solving time on random graphs is
//!   heavy-tailed (one G(60, 0.35) ladder takes 0.13 s, the next 13 s), so
//!   a workload whose bulk changed with the seed would measure the seed,
//!   not the code;
//! * **seeded families** — small G(n, p) graphs whose i-th member uses
//!   generator seed `S + i − 1` for `--seed S`. They vary the inputs from
//!   run to run and widen the answer checks, while staying small enough
//!   that no seed can make an operation miss its budget.

use sbgc_core::{Budget, GraphFingerprint, SbpMode, SolveOptions};
use sbgc_graph::{gen, suite, Graph};
use std::time::Duration;

/// The single user-facing call a workload times.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Op {
    /// `chromatic_number_outcome` under value-precedence SBPs.
    Chromatic {
        /// Portfolio workers (1 = the sequential engine).
        parallelism: usize,
        /// Whether the heuristic bound race runs before the exact ladder.
        heuristics: bool,
    },
    /// `solve_coloring` at a fixed K with instance-dependent (Shatter)
    /// SBPs and no instance-independent ones, on the PBS II analogue.
    Detect,
    /// `chromatic_number_certified`: χ plus a checked DRAT refutation of
    /// χ − 1 on the SBP-free CNF encoding.
    Certified,
}

/// Where an instance's graph comes from.
#[derive(Clone, Copy, Debug)]
pub enum Source {
    /// A Table 1 suite instance, expected to have the paper's χ.
    Suite(&'static str),
    /// A G(n, p) graph built from one fixed generator seed, whatever
    /// `--seed` is, with its known χ.
    Pinned { n: usize, p: f64, generator_seed: u64, chi: usize },
    /// `count` G(n, p) graphs; the i-th uses generator seed `S + i − 1`.
    Seeded { n: usize, p: f64, count: u64 },
}

/// A named benchmark workload.
#[derive(Debug)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// The operation every instance runs.
    pub op: Op,
    /// The color cap K.
    pub k: usize,
    /// Wall-clock budget per operation, in seconds.
    pub budget_s: u64,
    /// The graphs, anchors first.
    pub sources: &'static [Source],
}

/// A G(55, 0.35) ladder's time spans three orders of magnitude across
/// generator seeds (0.01–2 s and beyond for seeds 1–30). The seven pinned
/// here are those seeds whose sequential ladder takes 0.1–0.35 s on a
/// 2-vCPU box and whose 2-worker portfolio time is not bimodal (seed 4
/// and `DSJC125.1` are: whichever worker wins decides a 3× difference), so
/// many mid-sized operations average out one another's noise and a pass
/// fits a run about ten times.
const LADDER_GRAPHS: &[Source] = &[
    Source::Suite("myciel5"),
    Source::Pinned { n: 55, p: 0.35, generator_seed: 13, chi: 8 },
    Source::Pinned { n: 55, p: 0.35, generator_seed: 15, chi: 8 },
    Source::Pinned { n: 55, p: 0.35, generator_seed: 17, chi: 8 },
    Source::Pinned { n: 55, p: 0.35, generator_seed: 19, chi: 7 },
    Source::Pinned { n: 55, p: 0.35, generator_seed: 22, chi: 8 },
    Source::Pinned { n: 55, p: 0.35, generator_seed: 23, chi: 8 },
    Source::Pinned { n: 55, p: 0.35, generator_seed: 24, chi: 8 },
    Source::Seeded { n: 40, p: 0.4, count: 2 },
];

/// Sixteen pinned G(200, 0.025) graphs and two seeded ones.
const HYBRID_GRAPHS: &[Source] = &[
    Source::Pinned { n: 200, p: 0.025, generator_seed: 1, chi: 4 },
    Source::Pinned { n: 200, p: 0.025, generator_seed: 2, chi: 4 },
    Source::Pinned { n: 200, p: 0.025, generator_seed: 3, chi: 4 },
    Source::Pinned { n: 200, p: 0.025, generator_seed: 4, chi: 4 },
    Source::Pinned { n: 200, p: 0.025, generator_seed: 5, chi: 4 },
    Source::Pinned { n: 200, p: 0.025, generator_seed: 6, chi: 4 },
    Source::Pinned { n: 200, p: 0.025, generator_seed: 7, chi: 4 },
    Source::Pinned { n: 200, p: 0.025, generator_seed: 8, chi: 4 },
    Source::Pinned { n: 200, p: 0.025, generator_seed: 9, chi: 4 },
    Source::Pinned { n: 200, p: 0.025, generator_seed: 10, chi: 4 },
    Source::Pinned { n: 200, p: 0.025, generator_seed: 11, chi: 4 },
    Source::Pinned { n: 200, p: 0.025, generator_seed: 12, chi: 4 },
    Source::Pinned { n: 200, p: 0.025, generator_seed: 13, chi: 4 },
    Source::Pinned { n: 200, p: 0.025, generator_seed: 14, chi: 4 },
    Source::Pinned { n: 200, p: 0.025, generator_seed: 15, chi: 4 },
    Source::Pinned { n: 200, p: 0.025, generator_seed: 16, chi: 4 },
    Source::Seeded { n: 200, p: 0.025, count: 2 },
];

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "ladder-seq",
        op: Op::Chromatic { parallelism: 1, heuristics: false },
        k: 30,
        budget_s: 20,
        sources: LADDER_GRAPHS,
    },
    Workload {
        name: "portfolio-2w",
        op: Op::Chromatic { parallelism: 2, heuristics: false },
        k: 30,
        budget_s: 20,
        sources: LADDER_GRAPHS,
    },
    Workload {
        name: "hybrid",
        op: Op::Chromatic { parallelism: 1, heuristics: true },
        k: 30,
        budget_s: 10,
        // Sparse enough that a 4-clique (which would close the bracket
        // before the race starts) is rare, so every op does the same kind
        // of work: generator seeds 1–16 all have χ = 4 and take 55–90 ms.
        sources: HYBRID_GRAPHS,
    },
    Workload {
        name: "detect-k20",
        op: Op::Detect,
        k: 20,
        budget_s: 30,
        sources: &[
            Source::Suite("myciel3"),
            Source::Pinned { n: 10, p: 0.45, generator_seed: 3, chi: 4 },
            Source::Seeded { n: 10, p: 0.45, count: 2 },
        ],
    },
    Workload {
        name: "certify",
        op: Op::Certified,
        k: 30,
        budget_s: 20,
        sources: &[
            Source::Suite("myciel4"),
            Source::Suite("queen5_5"),
            Source::Suite("DSJC125.1"),
            Source::Pinned { n: 50, p: 0.25, generator_seed: 1, chi: 6 },
            Source::Pinned { n: 50, p: 0.25, generator_seed: 2, chi: 5 },
            Source::Pinned { n: 42, p: 0.4, generator_seed: 1, chi: 7 },
            Source::Pinned { n: 42, p: 0.4, generator_seed: 2, chi: 7 },
            Source::Pinned { n: 42, p: 0.4, generator_seed: 3, chi: 7 },
            Source::Seeded { n: 24, p: 0.4, count: 3 },
        ],
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How to build one graph.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Recipe {
    /// A suite instance by name.
    Suite(&'static str),
    /// `gnp(n, p, seed)`.
    Gnp { n: usize, p: f64, seed: u64 },
}

impl Recipe {
    /// Builds the graph: the set-up work `setup_s` times.
    pub fn build(self) -> Graph {
        match self {
            Recipe::Suite(name) => suite::build(name).graph,
            Recipe::Gnp { n, p, seed } => gen::gnp(n, p, seed),
        }
    }

    /// The generator seed of a G(n, p) graph.
    pub fn generator_seed(self) -> Option<u64> {
        match self {
            Recipe::Suite(_) => None,
            Recipe::Gnp { seed, .. } => Some(seed),
        }
    }
}

/// One graph of a workload, with what the benchmark knows about it.
#[derive(Clone, Debug)]
pub struct Instance {
    /// Readable name, e.g. `queen5_5` or `gnp(40,0.4)#s17`.
    pub label: String,
    /// How the graph is built.
    pub recipe: Recipe,
    /// The graph.
    pub graph: Graph,
    /// The χ the answer must equal, when known in advance.
    pub expected: Option<usize>,
    /// Whether the graph depends on `--seed`.
    pub seeded: bool,
}

impl Instance {
    fn new(label: String, recipe: Recipe, expected: Option<usize>, seeded: bool) -> Self {
        Instance { label, recipe, graph: recipe.build(), expected, seeded }
    }

    /// Identity of the graph, printed so two runs can show equal inputs.
    pub fn fingerprint(&self) -> GraphFingerprint {
        GraphFingerprint::of(&self.graph)
    }
}

impl Workload {
    /// The options of every operation of this workload.
    pub fn options(&self) -> SolveOptions {
        let budget = Budget::unlimited().with_timeout(Duration::from_secs(self.budget_s));
        let options = SolveOptions::new(self.k).with_budget(budget);
        match self.op {
            Op::Chromatic { parallelism, heuristics } => options
                .with_sbp_mode(SbpMode::ValuePrec)
                .with_parallelism(parallelism)
                .with_heuristics(heuristics),
            Op::Detect => options.with_instance_dependent_sbps(),
            Op::Certified => options.with_sbp_mode(SbpMode::ValuePrec),
        }
    }

    /// The workload's graphs for `--seed seed`, anchors first.
    pub fn build(&self, seed: u64) -> Vec<Instance> {
        let mut out = Vec::new();
        for &source in self.sources {
            match source {
                Source::Suite(name) => {
                    let expected = suite::build(name).meta.paper_chromatic;
                    out.push(Instance::new(name.to_string(), Recipe::Suite(name), expected, false));
                }
                Source::Pinned { n, p, generator_seed, chi } => {
                    let recipe = Recipe::Gnp { n, p, seed: generator_seed };
                    let label = format!("gnp({n},{p})#{generator_seed}");
                    out.push(Instance::new(label, recipe, Some(chi), false));
                }
                Source::Seeded { n, p, count } => {
                    for i in 0..count {
                        let recipe = Recipe::Gnp { n, p, seed: seed.wrapping_add(i) };
                        let label = format!("gnp({n},{p})#s{}", seed.wrapping_add(i));
                        out.push(Instance::new(label, recipe, None, true));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprints(w: &Workload, seed: u64) -> Vec<GraphFingerprint> {
        w.build(seed).iter().map(Instance::fingerprint).collect()
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        for w in &WORKLOADS {
            assert_eq!(fingerprints(w, 7), fingerprints(w, 7), "{}", w.name);
        }
    }

    #[test]
    fn a_new_seed_changes_only_the_seeded_graphs() {
        for w in &WORKLOADS {
            let a = w.build(1);
            let b = w.build(1000);
            assert_eq!(a.len(), b.len());
            assert!(a.iter().any(|i| i.seeded), "{} has no seeded family", w.name);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.seeded, y.seeded);
                if x.seeded {
                    assert_ne!(x.fingerprint(), y.fingerprint(), "{} {}", w.name, x.label);
                } else {
                    assert_eq!(x.fingerprint(), y.fingerprint(), "{} {}", w.name, x.label);
                }
            }
        }
    }

    #[test]
    fn family_members_use_consecutive_generator_seeds() {
        let w = find("hybrid").expect("hybrid exists");
        let family: Vec<u64> = w
            .build(5)
            .iter()
            .filter(|i| i.seeded)
            .filter_map(|i| i.recipe.generator_seed())
            .collect();
        assert_eq!(family, [5, 6]);
    }

    #[test]
    fn suite_anchors_have_a_paper_chromatic_number() {
        for w in &WORKLOADS {
            for inst in w.build(1).iter().filter(|i| !i.seeded) {
                assert!(inst.expected.is_some(), "{} {}", w.name, inst.label);
            }
        }
    }
}
