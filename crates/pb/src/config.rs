//! Solver configurations and the named presets used in the experiments.

use crate::explain::ExplainStrategy;

pub use sbgc_sat::RestartPolicy;

/// Tunable parameters of the CDCL-PB engine.
///
/// The named constructors reproduce the solver line-up of the paper's
/// Tables 3–5; see [`SolverKind`]. The modern-CDCL knobs (`chrono`,
/// `rephase`, `tiered_reduce`, adaptive restarts) all default *off* so the
/// presets keep reproducing the paper's solvers; the portfolio turns them
/// on per worker for diversification (see [`crate::portfolio_configs`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EngineConfig {
    /// How PB conflicts/propagations are explained as clauses.
    pub explain: ExplainStrategy,
    /// Whether to reuse the last assigned polarity at decisions.
    pub phase_saving: bool,
    /// Restart schedule.
    pub restart: RestartPolicy,
    /// VSIDS activity decay (0 < decay < 1; higher = slower forgetting).
    pub var_decay: f64,
    /// Diversification seed. `0` (the default) leaves initial phases and
    /// activities untouched — the exact behavior of the sequential presets.
    /// A nonzero seed deterministically perturbs the initial phases and
    /// breaks VSIDS ties differently, so portfolio workers running the same
    /// preset explore different parts of the search tree.
    pub seed: u64,
    /// Chronological backtracking: after a conflict whose backjump would
    /// discard more than a threshold of decision levels, step back just one
    /// level instead (CaDiCaL-style).
    pub chrono: bool,
    /// Periodic rephasing of saved polarities (splr-style stabilization
    /// schedule).
    pub rephase: bool,
    /// LBD-tiered learned-clause reduction: glue clauses (LBD ≤ 2) are
    /// kept forever; the rest are ranked by (LBD, activity).
    pub tiered_reduce: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            explain: ExplainStrategy::AllFalse,
            phase_saving: true,
            restart: RestartPolicy::Luby { base: 100 },
            var_decay: 0.95,
            seed: 0,
            chrono: false,
            rephase: false,
            tiered_reduce: false,
        }
    }
}

impl EngineConfig {
    /// Returns the same configuration with the given diversification seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Layers the modern-CDCL knobs of racing worker `worker` on top of
    /// this configuration. Worker 0 is returned unchanged, so a one-worker
    /// race is the sequential solve. Workers 1–3 switch on adaptive-LBD
    /// restarts, chronological backtracking, rephasing and tiered clause
    /// reduction in distinct combinations, ordered by distance from the
    /// unchanged worker 0. Later workers keep the tiered database and
    /// double the Luby restart base every four workers. The seed and the
    /// explanation strategy are left as they are.
    pub fn diversified(mut self, worker: usize) -> Self {
        match worker {
            0 => {}
            1 => {
                self.restart = RestartPolicy::AdaptiveLbd { min_interval: 100 };
                self.chrono = true;
                self.rephase = true;
                self.tiered_reduce = true;
            }
            2 => {
                self.rephase = true;
                self.tiered_reduce = true;
            }
            3 => {
                self.restart = RestartPolicy::AdaptiveLbd { min_interval: 50 };
                self.chrono = true;
                self.tiered_reduce = true;
            }
            _ => {
                self.restart = RestartPolicy::Luby { base: 50 << ((worker / 4).min(10)) };
                self.tiered_reduce = true;
            }
        }
        self
    }
}

/// The solvers evaluated in the paper, as configurations of our engines.
///
/// The paper observes that PBS II, Galena and Pueblo — three independent
/// implementations of the same DLL framework — show the *same* performance
/// trends, while the generic ILP solver CPLEX behaves differently. We
/// reproduce that axis with four configurations of one CDCL-PB engine
/// (differing in explanation strategy, phase handling and restarts) plus a
/// learning-free branch-and-bound baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SolverKind {
    /// PBS II analogue: CNF-clause learning from PB conflicts, weak
    /// (all-false-literals) explanations, phase saving, Luby restarts.
    PbsII,
    /// Galena analogue: coefficient-greedy (cardinality-reduction-style)
    /// explanations.
    Galena,
    /// Pueblo analogue: recency-greedy (slack/cutting-plane-style)
    /// explanations.
    Pueblo,
    /// The retired original PBS: weak explanations, no phase saving,
    /// geometric restarts (Appendix Table 5 only).
    PbsLegacy,
    /// Generic branch-and-bound 0-1 ILP without conflict learning
    /// (CPLEX stand-in).
    Cplex,
}

impl SolverKind {
    /// All kinds used in the main tables (Tables 3–4).
    pub const MAIN: [SolverKind; 4] =
        [SolverKind::PbsII, SolverKind::Cplex, SolverKind::Galena, SolverKind::Pueblo];

    /// All kinds used in the Appendix (Table 5).
    pub const APPENDIX: [SolverKind; 5] = [
        SolverKind::PbsLegacy,
        SolverKind::PbsII,
        SolverKind::Cplex,
        SolverKind::Galena,
        SolverKind::Pueblo,
    ];

    /// The engine configuration for CDCL-based kinds; `None` for
    /// [`SolverKind::Cplex`] (which uses [`crate::BnbSolver`] instead).
    pub fn engine_config(self) -> Option<EngineConfig> {
        match self {
            SolverKind::PbsII => Some(EngineConfig::default()),
            SolverKind::Galena => Some(EngineConfig {
                explain: ExplainStrategy::GreedyCoefficient,
                restart: RestartPolicy::Luby { base: 128 },
                ..EngineConfig::default()
            }),
            SolverKind::Pueblo => Some(EngineConfig {
                explain: ExplainStrategy::GreedyRecency,
                var_decay: 0.97,
                ..EngineConfig::default()
            }),
            SolverKind::PbsLegacy => Some(EngineConfig {
                explain: ExplainStrategy::AllFalse,
                phase_saving: false,
                restart: RestartPolicy::Geometric { first: 100, factor: 1.5 },
                ..EngineConfig::default()
            }),
            SolverKind::Cplex => None,
        }
    }

    /// Display name used in the experiment tables.
    pub fn display_name(self) -> &'static str {
        match self {
            SolverKind::PbsII => "PBS II",
            SolverKind::Galena => "Galena",
            SolverKind::Pueblo => "Pueblo",
            SolverKind::PbsLegacy => "PBS",
            SolverKind::Cplex => "CPLEX*",
        }
    }
}

impl std::fmt::Display for SolverKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.display_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_distinct() {
        let configs: Vec<_> =
            [SolverKind::PbsII, SolverKind::Galena, SolverKind::Pueblo, SolverKind::PbsLegacy]
                .iter()
                .map(|k| k.engine_config().expect("cdcl kind"))
                .collect();
        for i in 0..configs.len() {
            for j in i + 1..configs.len() {
                assert_ne!(configs[i], configs[j], "presets {i} and {j} identical");
            }
        }
    }

    #[test]
    fn cplex_has_no_engine_config() {
        assert!(SolverKind::Cplex.engine_config().is_none());
    }

    #[test]
    fn diversified_worker_zero_is_unchanged() {
        for kind in SolverKind::APPENDIX {
            if let Some(config) = kind.engine_config() {
                assert_eq!(config.diversified(0), config, "{kind}");
            }
        }
    }

    #[test]
    fn diversified_first_workers_are_distinct() {
        let base = EngineConfig::default();
        let configs: Vec<_> = (0..5).map(|w| base.diversified(w)).collect();
        for i in 0..configs.len() {
            for j in i + 1..configs.len() {
                assert_ne!(configs[i], configs[j], "workers {i} and {j} identical");
            }
        }
    }

    #[test]
    fn diversified_keeps_seed_and_explanation() {
        let base = EngineConfig {
            explain: ExplainStrategy::GreedyRecency,
            ..EngineConfig::default().with_seed(42)
        };
        for worker in 0..12 {
            let config = base.diversified(worker);
            assert_eq!(config.seed, 42, "worker {worker}");
            assert_eq!(config.explain, ExplainStrategy::GreedyRecency, "worker {worker}");
        }
    }

    #[test]
    fn diversified_luby_base_doubles_every_four_workers() {
        let base = EngineConfig::default();
        for (worker, expected) in [(4, 100), (7, 100), (8, 200), (12, 400), (1000, 50 << 10)] {
            let config = base.diversified(worker);
            assert_eq!(config.restart, RestartPolicy::Luby { base: expected }, "worker {worker}");
            assert!(config.tiered_reduce, "worker {worker}");
        }
    }

    #[test]
    fn display_names_are_unique() {
        let mut names: Vec<_> = SolverKind::APPENDIX.iter().map(|k| k.display_name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5);
    }
}
