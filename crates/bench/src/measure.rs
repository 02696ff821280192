//! The one timing primitive of the harness.
//!
//! [`measure`] times a set of configurations against each other: one
//! untimed warm-up call of each, then trials that call every configuration
//! once, back to back, until [`TRIAL_BUDGET`] has elapsed — never fewer
//! than [`MIN_TRIALS`] trials, never more than [`MAX_TRIALS`].  Each trial
//! starts one configuration further along, so drift and order effects fall
//! on all of them alike, and a comparison is read trial by trial: a ratio
//! is the median of per-trial ratios, not a ratio of medians.  Every
//! figure comes out as a [`Stat`] — median, p10, p90 and the trial count.

use std::fmt;
use std::time::Duration;

/// Wall time after the warm-up within which [`measure`] keeps starting
/// trials.
pub const TRIAL_BUDGET: Duration = Duration::from_secs(1);

/// Trials [`measure`] runs however long they take.
pub const MIN_TRIALS: usize = 5;

/// Trials after which [`measure`] stops however short they are (odd, so
/// the median is one of the trials).
pub const MAX_TRIALS: usize = 41;

/// Order statistics of one measured quantity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    /// The median.
    pub median: f64,
    /// The 10th percentile.
    pub p10: f64,
    /// The 90th percentile.
    pub p90: f64,
    /// How many values the statistics summarise.
    pub n: usize,
}

impl Stat {
    /// The median, p10 and p90 of `values`, each interpolated linearly
    /// between the two nearest ranks (`NaN` when `values` is empty).
    pub fn of(mut values: Vec<f64>) -> Stat {
        values.sort_by(f64::total_cmp);
        let quantile = |q: f64| {
            let Some(last) = values.len().checked_sub(1) else {
                return f64::NAN;
            };
            let h = q * last as f64;
            let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
            values[lo] + (values[hi] - values[lo]) * (h - lo as f64)
        };
        Stat {
            median: quantile(0.5),
            p10: quantile(0.1),
            p90: quantile(0.9),
            n: values.len(),
        }
    }
}

impl fmt::Display for Stat {
    /// `median [p10, p90]`, every number at the formatter's precision
    /// (default 2), right-aligned to its width.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = f.precision().unwrap_or(2);
        let text = format!("{:.p$} [{:.p$}, {:.p$}]", self.median, self.p10, self.p90);
        write!(f, "{text:>width$}", width = f.width().unwrap_or(0))
    }
}

/// The seconds every configuration took, trial by trial.
#[derive(Debug, Clone)]
pub struct Trials(Vec<Vec<f64>>);

impl Trials {
    /// Order statistics over the trials of `f(seconds)`, where
    /// `seconds[i]` is configuration `i`'s time in that trial: a rate is
    /// `|s| work / s[i]`, a speedup `|s| s[i] / s[j]`.
    pub fn stat(&self, f: impl Fn(&[f64]) -> f64) -> Stat {
        Stat::of(self.0.iter().map(|seconds| f(seconds)).collect())
    }
}

/// Times `configs` configurations against each other; `run(i)` runs
/// configuration `i` once.  See the module docs for the trial schedule.
pub fn measure(configs: usize, mut run: impl FnMut(usize)) -> Trials {
    use std::time::Instant;
    (0..configs).for_each(&mut run);
    let mut trials = Vec::new();
    let start = Instant::now();
    while trials.len() < MAX_TRIALS && (trials.len() < MIN_TRIALS || start.elapsed() < TRIAL_BUDGET)
    {
        let mut seconds = vec![0.0; configs];
        for k in 0..configs {
            let i = (trials.len() + k) % configs;
            let call = Instant::now();
            run(i);
            seconds[i] = call.elapsed().as_secs_f64();
        }
        trials.push(seconds);
    }
    Trials(trials)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_reads_order_statistics_off_a_known_sequence() {
        let odd = Stat::of(vec![
            7.0, 3.0, 11.0, 1.0, 9.0, 5.0, 2.0, 10.0, 4.0, 8.0, 6.0,
        ]);
        assert_eq!(
            odd,
            Stat {
                median: 6.0,
                p10: 2.0,
                p90: 10.0,
                n: 11
            }
        );
        let even = Stat::of(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(even.median, 2.5);
        assert!((even.p10 - 1.3).abs() < 1e-12, "{even:?}");
        assert!((even.p90 - 3.7).abs() < 1e-12, "{even:?}");
        assert_eq!(even.n, 4);
        assert!(Stat::of(Vec::new()).median.is_nan());
        assert_eq!(format!("{:>15.1}", Stat::of(vec![1.0])), " 1.0 [1.0, 1.0]");
    }

    #[test]
    fn fast_configurations_stop_at_the_maximum_and_skip_the_warm_up() {
        let mut calls = Vec::new();
        let trials = measure(2, |i| {
            // Only the very first call is slow: the warm-up.
            if calls.is_empty() {
                std::thread::sleep(Duration::from_millis(300));
            }
            calls.push(i);
        });
        assert_eq!(trials.0.len(), MAX_TRIALS);
        assert_eq!(calls.len(), 2 * (MAX_TRIALS + 1), "one warm-up call each");
        // Warm-up in order, then every trial rotates its starting point.
        assert_eq!(calls[..6], [0, 1, 0, 1, 1, 0]);
        assert!(
            trials.0.iter().flatten().all(|&s| s < 0.3),
            "a trial timed the warm-up"
        );
    }

    #[test]
    fn slow_configurations_still_run_the_minimum() {
        let mut calls = 0;
        let trials = measure(1, |_| {
            calls += 1;
            std::thread::sleep(TRIAL_BUDGET / 3);
        });
        assert_eq!(trials.0.len(), MIN_TRIALS);
        assert_eq!(calls, MIN_TRIALS + 1);
        let seconds = trials.stat(|s| s[0]);
        assert!(
            seconds.p10 >= (TRIAL_BUDGET / 3).as_secs_f64(),
            "{seconds:?}"
        );
    }
}
