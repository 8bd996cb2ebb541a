//! Order statistics, censoring and failure accounting.
//!
//! Quartiles follow Python's `statistics.quantiles(data, n=4)` (the
//! default "exclusive" method), so the spreads this benchmark reports are
//! the ones a reader recomputes from its JSON with the standard library.

/// One timed repetition of an operation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// Measured wall-clock seconds.
    pub seconds: f64,
    /// The operation failed: it errored, was undecided at its budget, or
    /// (when certifying) produced no checked certificate.
    pub failed: bool,
}

impl Sample {
    /// The value the sample contributes to timing statistics: a failed
    /// (censored) operation counts as having used its whole budget, never
    /// less, so a timeout can only make the metric worse.
    pub fn censored_seconds(&self, budget: f64) -> f64 {
        if self.failed {
            self.seconds.max(budget)
        } else {
            self.seconds
        }
    }
}

/// Median; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Smallest value; 0 for an empty slice.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// First and third quartiles, as `statistics.quantiles(values, n=4)`
/// returns them. A single value is its own quartiles; an empty slice
/// gives zeros.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let m = len + 1;
    let quantile = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quantile(1), quantile(3))
}

/// Interquartile range (`q3 − q1`).
pub fn iqr(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    q3 - q1
}

/// Median and IQR of one instance's repetitions, with failed repetitions
/// censored at `budget`.
pub fn summarize(samples: &[Sample], budget: f64) -> (f64, f64) {
    let values: Vec<f64> = samples.iter().map(|s| s.censored_seconds(budget)).collect();
    (median(&values), iqr(&values))
}

/// An instance's time in a run: its fastest repetition. Other tenants of
/// a shared host can only add time to an operation, never remove it, so
/// the fastest of many repetitions is the steadiest estimate of the
/// program's own cost. A failed repetition is never hidden by a faster
/// one: if any repetition failed, the instance counts at its slowest
/// censored repetition, which is at least the budget.
pub fn best(samples: &[Sample], budget: f64) -> f64 {
    let censored = samples.iter().filter(|s| s.failed).map(|s| s.censored_seconds(budget));
    match censored.reduce(f64::max) {
        Some(worst) => worst,
        None => min(&samples.iter().map(|s| s.seconds).collect::<Vec<_>>()),
    }
}

/// Batch makespan: the sum over instances of each instance's [`best`]
/// time. `per_instance[i]` holds instance `i`'s repetitions.
pub fn wall_s(per_instance: &[Vec<Sample>], budget: f64) -> f64 {
    per_instance.iter().map(|s| best(s, budget)).sum()
}

/// Median operation time: the median over instances of each instance's
/// [`best`] time.
pub fn p50_s(per_instance: &[Vec<Sample>], budget: f64) -> f64 {
    let times: Vec<f64> = per_instance.iter().map(|s| best(s, budget)).collect();
    median(&times)
}

/// Failed operations divided by attempted operations (0 when nothing was
/// attempted).
pub fn failed_frac(failed: usize, attempted: usize) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// `numerator / denominator`, or 0 when the denominator is 0 (a layer
/// that did no work reports a zero rate, not NaN).
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(seconds: f64) -> Sample {
        Sample { seconds, failed: false }
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), (1.25, 3.75));
        // The exclusive method extrapolates on tiny samples:
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[5.0, 7.0]), (4.5, 7.5));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(iqr(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn censored_samples_enter_at_the_budget() {
        let censored = Sample { seconds: 3.0, failed: true };
        assert_eq!(censored.censored_seconds(20.0), 20.0);
        // A failure that overran its budget is not shortened to it.
        let overrun = Sample { seconds: 21.5, failed: true };
        assert_eq!(overrun.censored_seconds(20.0), 21.5);
        assert_eq!(ok(0.5).censored_seconds(20.0), 0.5);
    }

    #[test]
    fn wall_sums_and_p50_takes_the_median_of_per_instance_best_times() {
        let per_instance = vec![
            vec![ok(1.0), ok(3.0), ok(2.0)],
            vec![ok(0.5), Sample { seconds: 0.1, failed: true }, ok(0.4)],
            vec![ok(10.0)],
        ];
        // best: 1.0, 5.0 (a failed repetition puts it at the budget), 10.0
        assert_eq!(wall_s(&per_instance, 5.0), 16.0);
        assert_eq!(p50_s(&per_instance, 5.0), 5.0);
        assert_eq!(p50_s(&per_instance[..2], 5.0), 3.0);
        let (m, spread) = summarize(&per_instance[0], 5.0);
        assert_eq!((m, spread), (2.0, 2.0));
    }

    #[test]
    fn a_failed_repetition_is_never_hidden_by_a_faster_one() {
        let failed = Sample { seconds: 0.2, failed: true };
        assert_eq!(best(&[ok(0.1), failed, ok(0.3)], 7.0), 7.0);
        let overrun = Sample { seconds: 21.5, failed: true };
        assert_eq!(best(&[ok(1.0), overrun], 20.0), 21.5);
        assert_eq!(best(&[ok(0.3), ok(0.2), ok(0.4)], 7.0), 0.2);
        assert_eq!(best(&[], 7.0), 0.0);
    }

    #[test]
    fn failed_fraction_and_ratio_guard_zero() {
        assert_eq!(failed_frac(0, 0), 0.0);
        assert_eq!(failed_frac(1, 4), 0.25);
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
