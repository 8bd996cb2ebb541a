//! Restart schedules for the CDCL engine.
//!
//! `sbgc-pb::config` re-exports [`RestartPolicy`], so engine users import
//! it from there.

use crate::luby::Luby;

/// Restart schedule for the CDCL engines.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RestartPolicy {
    /// Luby sequence scaled by a base conflict count (modern default).
    Luby {
        /// Conflicts per Luby unit.
        base: u64,
    },
    /// Geometric schedule: `first`, then `×factor` after each restart
    /// (the scheme of early Chaff-era solvers).
    Geometric {
        /// Conflicts before the first restart.
        first: u64,
        /// Growth factor applied after each restart.
        factor: f64,
    },
    /// Glucose-style adaptive restarts: restart when the exponential
    /// moving average of recent learned-clause LBDs exceeds the global
    /// mean (the search is producing worse-than-usual clauses), but never
    /// more often than `min_interval` conflicts.
    AdaptiveLbd {
        /// Minimum conflicts between restart checks.
        min_interval: u64,
    },
}

impl RestartPolicy {
    /// Conflicts allowed before the next restart point, given how many
    /// restarts have already happened. `luby` carries the iterator state
    /// for the Luby schedule (its position, not `restarts`, drives that
    /// sequence).
    ///
    /// For [`RestartPolicy::AdaptiveLbd`] this is the *check* interval:
    /// when it elapses the solver consults its [`GlueEma`] and either
    /// restarts or re-arms a short countdown.
    pub fn next_limit(&self, restarts: u64, luby: &mut Luby) -> u64 {
        match *self {
            RestartPolicy::Luby { base } => luby.next().unwrap_or(1) * base,
            RestartPolicy::Geometric { first, factor } => {
                // The geometric limit overflows f64→u64 range after a few
                // hundred restarts; clamp explicitly to u64::MAX (and clamp
                // the exponent, which would wrap the i32 cast long before).
                let exponent = restarts.min(i32::MAX as u64) as i32;
                let limit = first as f64 * factor.powi(exponent);
                if limit.is_finite() && limit < u64::MAX as f64 {
                    limit as u64
                } else {
                    u64::MAX
                }
            }
            RestartPolicy::AdaptiveLbd { min_interval } => min_interval.max(1),
        }
    }
}

/// Tracks learned-clause LBD ("glue") averages for adaptive restarts.
///
/// Keeps a fast exponential moving average (gain 1/32, roughly the last
/// ~50 conflicts) next to the global mean. When recent clauses are
/// markedly worse than the run's average — `recent > 1.25 × global`, the
/// Glucose K = 0.8 criterion — the solver is judged to be stuck in an
/// unproductive region and a restart is indicated.
#[derive(Clone, Debug, Default)]
pub struct GlueEma {
    recent: f64,
    total: f64,
    count: u64,
}

impl GlueEma {
    /// Number of observations required before the trend is trusted.
    const WARMUP: u64 = 50;

    /// Records the LBD of a freshly learned clause.
    pub fn observe(&mut self, lbd: u32) {
        self.count += 1;
        self.total += lbd as f64;
        if self.count == 1 {
            self.recent = lbd as f64;
        } else {
            self.recent += (lbd as f64 - self.recent) / 32.0;
        }
    }

    /// Global mean LBD over every observation so far.
    pub fn global(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total / self.count as f64
        }
    }

    /// Recent (EMA) LBD.
    pub fn recent(&self) -> f64 {
        self.recent
    }

    /// `true` when recent clause quality has degraded enough to warrant a
    /// restart (`recent > 1.25 × global`, after a warm-up period).
    pub fn restart_indicated(&self) -> bool {
        self.count >= Self::WARMUP && self.recent * 4.0 > self.global() * 5.0
    }

    /// Notes that a restart happened: the recent average is pulled back to
    /// the global mean so one bad stretch does not trigger a restart storm.
    pub fn restarted(&mut self) {
        self.recent = self.global();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn luby_policy_scales_the_sequence() {
        let policy = RestartPolicy::Luby { base: 100 };
        let mut luby = Luby::new();
        let limits: Vec<u64> = (0..4).map(|r| policy.next_limit(r, &mut luby)).collect();
        assert_eq!(limits, vec![100, 100, 200, 100]);
    }

    #[test]
    fn adaptive_policy_returns_the_check_interval() {
        let policy = RestartPolicy::AdaptiveLbd { min_interval: 64 };
        let mut luby = Luby::new();
        assert_eq!(policy.next_limit(0, &mut luby), 64);
        assert_eq!(policy.next_limit(17, &mut luby), 64);
        // A zero interval is clamped so the countdown always moves.
        let degenerate = RestartPolicy::AdaptiveLbd { min_interval: 0 };
        assert_eq!(degenerate.next_limit(0, &mut luby), 1);
    }

    #[test]
    fn ema_warms_up_before_indicating() {
        let mut ema = GlueEma::default();
        for _ in 0..GlueEma::WARMUP - 1 {
            ema.observe(100);
        }
        assert!(!ema.restart_indicated(), "no signal before warm-up");
    }

    #[test]
    fn degrading_glue_indicates_restart() {
        let mut ema = GlueEma::default();
        for _ in 0..200 {
            ema.observe(2);
        }
        assert!(!ema.restart_indicated(), "steady glue must not trigger");
        for _ in 0..50 {
            ema.observe(20);
        }
        assert!(ema.restart_indicated(), "a burst of bad clauses must trigger");
        ema.restarted();
        assert!(!ema.restart_indicated(), "reset pulls recent back to the mean");
    }

    #[test]
    fn global_mean_is_exact() {
        let mut ema = GlueEma::default();
        for lbd in [2u32, 4, 6] {
            ema.observe(lbd);
        }
        assert!((ema.global() - 4.0).abs() < 1e-12);
    }
}
