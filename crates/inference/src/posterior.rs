//! The unified posterior interface shared by every inference engine.
//!
//! Importance sampling, Metropolis–Hastings, and variational inference
//! produce structurally different results (weighted particles, a chain of
//! states, a fitted parameter vector), but a caller asking "what is the
//! posterior mean / variance / quantile / histogram of this statistic?"
//! should not care which engine answered.  This module holds:
//!
//! * [`Draw`] — one weighted posterior draw, the common currency: a slice
//!   of latent sample values, a relative weight, and the model's scalar
//!   return value when one was recorded;
//! * [`Posterior`] — the engine-agnostic trait: results expose their draws
//!   plus run-level figures (ESS, log-evidence, diagnostics) and inherit
//!   every summary statistic from the trait's provided methods;
//! * [`PosteriorSummary`] — the one-stop description of a statistic
//!   (mean, variance, quantiles, histogram, ESS, log-evidence);
//! * [`ViPosterior`] — the VI engine's posterior: the fitted [`ViResult`]
//!   plus weighted draws from the fitted guide, making VI interchangeable
//!   with IS and MCMC behind the trait.
//!
//! All expectation-style methods follow the **skip-and-renormalise
//! contract** documented on [`Posterior::expectation`]: draws where the
//! statistic is undefined are skipped and the remaining weights
//! renormalised, i.e. the result is the expectation *conditioned on the
//! statistic being defined*; `None` means no estimate exists at all.

use crate::importance::ImportanceResult;
use crate::mcmc::McmcResult;
use crate::vi::ViResult;
use ppl_dist::stats::Histogram;
use ppl_dist::Sample;
use ppl_runtime::RunCounts;

/// One weighted posterior draw.
#[derive(Debug, Clone, Copy)]
pub struct Draw<'a> {
    /// The latent sample values, in sampling order.
    pub samples: &'a [Sample],
    /// The draw's relative weight (consumers renormalise; MCMC states have
    /// unit weight, IS particles their self-normalised weight).
    pub weight: f64,
    /// The model's return value, when it was recorded as a scalar.
    pub value: Option<f64>,
}

/// The weighted expectation of partially defined values under the
/// skip-and-renormalise contract: pairs where the value is `None` are
/// skipped, and the mean is taken over the rest with weights renormalised.
/// `None` when the defined pairs carry no weight.
pub fn weighted_expectation(pairs: impl Iterator<Item = (Option<f64>, f64)>) -> Option<f64> {
    let mut acc = 0.0;
    let mut total = 0.0;
    for (value, weight) in pairs {
        if let Some(v) = value {
            acc += weight * v;
            total += weight;
        }
    }
    if total > 0.0 {
        Some(acc / total)
    } else {
        None
    }
}

/// Weighted quantiles of a statistic (step-function inverse CDF).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantiles {
    /// 5th percentile.
    pub q05: f64,
    /// First quartile.
    pub q25: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q75: f64,
    /// 95th percentile.
    pub q95: f64,
}

/// A complete posterior description of one scalar statistic.
#[derive(Debug, Clone)]
pub struct PosteriorSummary {
    /// Posterior mean.
    pub mean: f64,
    /// Posterior variance (weighted population variance).
    pub variance: f64,
    /// Weighted quantiles.
    pub quantiles: Quantiles,
    /// A weighted histogram (density estimate) over the draw range.
    pub histogram: Histogram,
    /// Effective sample size of the producing run.
    pub ess: f64,
    /// Log model-evidence estimate, when the engine provides one.
    pub log_evidence: Option<f64>,
    /// Number of draws the statistic was defined on.
    pub num_draws: usize,
}

impl PosteriorSummary {
    /// Posterior standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }
}

/// Number of histogram bins used by [`Posterior::summarize`].
const SUMMARY_BINS: usize = 32;

fn summarize_pairs(
    mut pairs: Vec<(f64, f64)>,
    ess: f64,
    log_evidence: Option<f64>,
) -> Option<PosteriorSummary> {
    let total: f64 = pairs.iter().map(|(_, w)| w).sum();
    if pairs.is_empty() || total <= 0.0 {
        return None;
    }
    let mean = pairs.iter().map(|(v, w)| v * w).sum::<f64>() / total;
    let variance = pairs
        .iter()
        .map(|(v, w)| w * (v - mean) * (v - mean))
        .sum::<f64>()
        / total;
    pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite statistics"));
    let quantile = |p: f64| -> f64 {
        let target = p * total;
        let mut cum = 0.0;
        for (v, w) in &pairs {
            cum += w;
            if cum >= target {
                return *v;
            }
        }
        pairs.last().expect("non-empty").0
    };
    let quantiles = Quantiles {
        q05: quantile(0.05),
        q25: quantile(0.25),
        median: quantile(0.50),
        q75: quantile(0.75),
        q95: quantile(0.95),
    };
    let (lo, hi) = (pairs[0].0, pairs[pairs.len() - 1].0);
    // Histogram bounds must be a non-empty half-open interval; widen
    // degenerate ranges and nudge the top so the maximum lands inside.
    let pad = (hi - lo).max(1e-9) * 1e-3 + f64::EPSILON;
    let mut histogram = Histogram::new(lo - pad, hi + pad, SUMMARY_BINS);
    for (v, w) in &pairs {
        histogram.add(*v, w / total);
    }
    Some(PosteriorSummary {
        mean,
        variance,
        quantiles,
        histogram,
        ess,
        log_evidence,
        num_draws: pairs.len(),
    })
}

/// The unified posterior interface implemented by every engine's result.
///
/// Implementors provide their draws and run-level figures; every summary
/// statistic (expectation, probability, mean/variance of a latent,
/// [`PosteriorSummary`]) comes from the provided methods, so IS, MCMC, and
/// VI results are interchangeable wherever a `&dyn Posterior` (or a
/// generic `P: Posterior`) is accepted.
pub trait Posterior {
    /// The producing algorithm's abbreviation (`"IS"`, `"MCMC"`, `"VI"`).
    fn method(&self) -> &'static str;

    /// Number of retained posterior draws.
    fn num_draws(&self) -> usize;

    /// Visits every retained draw in order.
    fn for_each_draw(&self, f: &mut dyn FnMut(Draw<'_>));

    /// Effective sample size of the run.
    fn ess(&self) -> f64;

    /// Log model-evidence estimate, when the engine provides one.
    fn log_evidence(&self) -> Option<f64>;

    /// Engine-specific run diagnostics as labelled numbers (acceptance
    /// rate, final ELBO, fitted parameters, …).
    fn diagnostics(&self) -> Vec<(String, f64)>;

    /// What the executor did producing this posterior, counted per run.
    fn counts(&self) -> RunCounts;

    /// Typed run-quality figures, assembled from the labelled
    /// [`diagnostics`](Posterior::diagnostics), the run-level accessors
    /// and this run's own [`counts`](Posterior::counts) — exact whatever
    /// else the process runs concurrently.
    fn diag(&self) -> crate::diag::Diagnostics {
        let labelled = self.diagnostics();
        let find = |key: &str| {
            labelled
                .iter()
                .find(|(name, _)| name == key)
                .map(|(_, value)| *value)
        };
        let mut elbo_tail: Vec<(usize, f64)> = labelled
            .iter()
            .filter_map(|(name, value)| {
                name.strip_prefix("elbo_tail.")
                    .and_then(|i| i.parse::<usize>().ok())
                    .map(|i| (i, *value))
            })
            .collect();
        elbo_tail.sort_by_key(|(i, _)| *i);
        let counts = self.counts();
        crate::diag::Diagnostics {
            method: self.method(),
            num_draws: self.num_draws(),
            ess: self.ess(),
            log_evidence: self.log_evidence(),
            acceptance_rate: find("acceptance_rate"),
            final_elbo: find("final_elbo"),
            elbo_tail: elbo_tail.into_iter().map(|(_, v)| v).collect(),
            lane_splits: counts.lane_splits,
            lane_reconverges: counts.lane_reconverges,
            cancel_checks: counts.cancel_checks,
            scalar_lanes: counts.scalar_lanes,
        }
    }

    /// Weighted posterior expectation of a statistic of the draws.
    ///
    /// # Skip-and-renormalise contract
    ///
    /// Draws for which `f` returns `None` (e.g. asking for a sample index
    /// that is absent on that control-flow path) are *skipped*, and the
    /// result is the weighted mean over the remaining draws with their
    /// weights renormalised to sum to one — i.e. the posterior expectation
    /// of `f` **conditioned on the event that `f` is defined**.
    /// Concretely: `Σ wᵢ·f(dᵢ) / Σ wᵢ`, both sums over the draws where
    /// `f(dᵢ)` is `Some`.
    ///
    /// Returns `None` when no estimate exists at all:
    /// * the run exposes no draws (e.g. every IS particle had zero
    ///   weight), or
    /// * `f` returned `None` for every draw, or only for draws carrying all
    ///   of the weight (the conditioning event has zero posterior mass).
    fn expectation(&self, f: &dyn Fn(&Draw<'_>) -> Option<f64>) -> Option<f64> {
        let mut acc = 0.0;
        let mut total = 0.0;
        self.for_each_draw(&mut |draw| {
            if let Some(v) = f(&draw) {
                acc += draw.weight * v;
                total += draw.weight;
            }
        });
        if total > 0.0 {
            Some(acc / total)
        } else {
            None
        }
    }

    /// Posterior probability of a predicate over the draws.
    fn probability(&self, pred: &dyn Fn(&Draw<'_>) -> bool) -> Option<f64> {
        self.expectation(&|draw| Some(if pred(draw) { 1.0 } else { 0.0 }))
    }

    /// Posterior mean of the `index`-th latent sample.
    fn mean_of_sample(&self, index: usize) -> Option<f64> {
        self.expectation(&|draw| draw.samples.get(index).map(|s| s.as_f64()))
    }

    /// Full summary (mean, variance, quantiles, histogram) of a statistic.
    fn summarize(&self, f: &dyn Fn(&Draw<'_>) -> Option<f64>) -> Option<PosteriorSummary> {
        let mut pairs = Vec::with_capacity(self.num_draws());
        self.for_each_draw(&mut |draw| {
            if let Some(v) = f(&draw) {
                if v.is_finite() && draw.weight > 0.0 {
                    pairs.push((v, draw.weight));
                }
            }
        });
        summarize_pairs(pairs, self.ess(), self.log_evidence())
    }

    /// Full summary of the `index`-th latent sample.
    fn summarize_sample(&self, index: usize) -> Option<PosteriorSummary> {
        self.summarize(&|draw| draw.samples.get(index).map(|s| s.as_f64()))
    }
}

impl Posterior for ImportanceResult {
    fn method(&self) -> &'static str {
        "IS"
    }

    // Zero on all-zero-weight runs, agreeing with `for_each_draw` (which
    // then exposes no draws): `num_draws() > 0` ⇔ estimates exist.
    fn num_draws(&self) -> usize {
        if self.normalized_weights.is_some() {
            self.particles.len()
        } else {
            0
        }
    }

    fn for_each_draw(&self, f: &mut dyn FnMut(Draw<'_>)) {
        // All-zero-weight runs expose no draws (there is no posterior
        // estimate to take), matching `normalized_weights`'s contract.
        if let Some(weights) = &self.normalized_weights {
            let values = self.particles.model_values();
            for (i, (&weight, &value)) in weights.iter().zip(values).enumerate() {
                f(Draw {
                    samples: self.particles.samples(i),
                    weight,
                    value,
                });
            }
        }
    }

    fn ess(&self) -> f64 {
        self.ess
    }

    fn log_evidence(&self) -> Option<f64> {
        Some(self.log_evidence)
    }

    fn diagnostics(&self) -> Vec<(String, f64)> {
        vec![
            ("particles".into(), self.particles.len() as f64),
            ("ess".into(), self.ess),
            ("log_evidence".into(), self.log_evidence),
        ]
    }

    fn counts(&self) -> RunCounts {
        self.counts
    }
}

impl Posterior for McmcResult {
    fn method(&self) -> &'static str {
        "MCMC"
    }

    fn num_draws(&self) -> usize {
        self.chain.len()
    }

    fn for_each_draw(&self, f: &mut dyn FnMut(Draw<'_>)) {
        for state in &self.chain {
            f(Draw {
                samples: &state.samples,
                weight: 1.0,
                value: None,
            });
        }
    }

    /// Kept chain length — a (generous) stand-in, since independence MH
    /// does not estimate autocorrelation.
    fn ess(&self) -> f64 {
        self.chain.len() as f64
    }

    fn log_evidence(&self) -> Option<f64> {
        None
    }

    fn diagnostics(&self) -> Vec<(String, f64)> {
        vec![
            ("kept_states".into(), self.chain.len() as f64),
            ("acceptance_rate".into(), self.acceptance_rate),
        ]
    }

    fn counts(&self) -> RunCounts {
        self.counts
    }
}

/// The VI engine's posterior: the ELBO fit plus weighted draws from the
/// guide at the fitted parameters.
///
/// A [`ViResult`] alone is a *fit*, not a set of posterior draws; running
/// one importance-sampling pass with the fitted guide as the proposal
/// turns it into one (and yields an evidence estimate at the optimum).
/// The query layer constructs this automatically.
#[derive(Debug, Clone)]
pub struct ViPosterior {
    /// The optimisation result (fitted parameters, ELBO trajectory).
    pub fit: ViResult,
    /// Weighted posterior draws from the fitted guide.
    pub draws: ImportanceResult,
}

impl Posterior for ViPosterior {
    fn method(&self) -> &'static str {
        "VI"
    }

    fn num_draws(&self) -> usize {
        self.draws.num_draws()
    }

    fn for_each_draw(&self, f: &mut dyn FnMut(Draw<'_>)) {
        self.draws.for_each_draw(f);
    }

    fn ess(&self) -> f64 {
        self.draws.ess
    }

    fn log_evidence(&self) -> Option<f64> {
        Some(self.draws.log_evidence)
    }

    fn diagnostics(&self) -> Vec<(String, f64)> {
        let mut out = vec![
            ("final_elbo".into(), self.fit.final_elbo()),
            ("iterations".into(), self.fit.elbo_trace.len() as f64),
            ("ess".into(), self.draws.ess),
        ];
        for (name, value) in self.fit.names.iter().zip(&self.fit.params) {
            out.push((format!("param.{name}"), *value));
        }
        // Trailing ELBO trajectory: at most 8 values, and never more than
        // the final tenth of the trace — exactly the window an amortized
        // artifact retains, so a warm replay reports byte-identical
        // diagnostics to the cold fit it was stored from.
        let n = self.fit.elbo_trace.len();
        if n > 0 {
            let tail = (n / 10).clamp(1, 8);
            for (i, value) in self.fit.elbo_trace[n - tail..].iter().enumerate() {
                out.push((format!("elbo_tail.{i}"), *value));
            }
        }
        out
    }

    /// The fit's mini-batches plus the draw pass (an artifact-warm
    /// posterior ran no fit, so only its draws count).
    fn counts(&self) -> RunCounts {
        let mut counts = self.fit.counts;
        counts += self.draws.counts;
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::importance::ParticleColumns;
    use crate::mcmc::ChainState;
    use ppl_runtime::RunCounts;
    use ppl_semantics::trace::Trace;

    fn is_result(values_weights: &[(f64, f64)]) -> ImportanceResult {
        let mut particles = ParticleColumns::default();
        for &(v, _) in values_weights {
            particles.push(0.0, Some(v), [Sample::Real(v)]);
        }
        ImportanceResult {
            particles,
            normalized_weights: Some(values_weights.iter().map(|&(_, w)| w).collect()),
            ess: values_weights.len() as f64,
            log_evidence: -1.0,
            counts: RunCounts::default(),
        }
    }

    #[test]
    fn trait_expectation_matches_inherent_is_contract() {
        let r = is_result(&[(1.0, 0.5), (2.0, 0.3), (3.0, 0.2)]);
        let via_trait = Posterior::mean_of_sample(&r, 0).unwrap();
        assert!((via_trait - (0.5 + 0.6 + 0.6)).abs() < 1e-15);
        // Skip-and-renormalise: drop the middle draw.
        let cond = r
            .expectation(&|d| {
                let v = d.value.unwrap();
                (v != 2.0).then_some(v)
            })
            .unwrap();
        assert!((cond - (0.5 + 0.6) / 0.7).abs() < 1e-12);
        assert_eq!(r.method(), "IS");
        assert_eq!(r.num_draws(), 3);
        assert_eq!(r.log_evidence(), Some(-1.0));
        assert!(r.diagnostics().iter().any(|(k, _)| k == "particles"));
    }

    #[test]
    fn zero_weight_runs_expose_no_draws() {
        let r = ImportanceResult {
            particles: ParticleColumns::default(),
            normalized_weights: None,
            ess: 0.0,
            log_evidence: f64::NEG_INFINITY,
            counts: RunCounts::default(),
        };
        let mut count = 0;
        r.for_each_draw(&mut |_| count += 1);
        assert_eq!(count, 0);
        assert!(r.expectation(&|d| d.value).is_none());
        assert!(r.summarize_sample(0).is_none());
        // `num_draws` agrees with `for_each_draw`, even when particles
        // were retained but carry no weight.
        let mut particles = ParticleColumns::default();
        particles.push(f64::NEG_INFINITY, Some(1.0), [Sample::Real(1.0)]);
        let degenerate = ImportanceResult {
            particles,
            normalized_weights: None,
            ess: 0.0,
            log_evidence: f64::NEG_INFINITY,
            counts: RunCounts::default(),
        };
        assert_eq!(degenerate.num_draws(), 0);
    }

    #[test]
    fn summary_statistics_are_exact_on_a_known_distribution() {
        // Equal-weight draws 1..=100: mean 50.5, variance 833.25.
        let pairs: Vec<(f64, f64)> = (1..=100).map(|i| (i as f64, 0.01)).collect();
        let r = is_result(&pairs);
        let s = r.summarize_sample(0).unwrap();
        assert!((s.mean - 50.5).abs() < 1e-9, "mean {}", s.mean);
        assert!(
            (s.variance - 833.25).abs() < 1e-6,
            "variance {}",
            s.variance
        );
        assert!((s.std_dev() - 833.25f64.sqrt()).abs() < 1e-6);
        // Step-function quantiles land on a draw value; float accumulation
        // may shift the landing by one draw.
        assert!(
            (s.quantiles.median - 50.0).abs() <= 1.0,
            "{:?}",
            s.quantiles
        );
        assert!((s.quantiles.q05 - 5.0).abs() <= 1.0, "{:?}", s.quantiles);
        assert!((s.quantiles.q95 - 95.0).abs() <= 1.0, "{:?}", s.quantiles);
        assert!((s.quantiles.q25 - 25.0).abs() <= 1.0, "{:?}", s.quantiles);
        assert!((s.quantiles.q75 - 75.0).abs() <= 1.0, "{:?}", s.quantiles);
        assert_eq!(s.num_draws, 100);
        assert_eq!(s.log_evidence, Some(-1.0));
        // The histogram covers every draw with total mass one.
        assert!((s.histogram.total_weight() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_single_value_summary_does_not_panic() {
        let r = is_result(&[(2.5, 1.0)]);
        let s = r.summarize_sample(0).unwrap();
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.variance, 0.0);
        assert_eq!(s.quantiles.median, 2.5);
        assert!((s.histogram.total_weight() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mcmc_results_are_unit_weight_draws() {
        let chain: Vec<ChainState> = (0..4)
            .map(|i| ChainState {
                latent: Trace::new(),
                samples: vec![Sample::Real(i as f64)],
                log_model: -1.0,
            })
            .collect();
        let r = McmcResult {
            chain,
            acceptance_rate: 0.5,
            counts: RunCounts::default(),
        };
        assert_eq!(r.method(), "MCMC");
        assert_eq!(r.num_draws(), 4);
        assert_eq!(Posterior::ess(&r), 4.0);
        assert_eq!(r.log_evidence(), None);
        assert_eq!(Posterior::mean_of_sample(&r, 0), Some(1.5));
        assert_eq!(r.probability(&|d| d.samples[0].as_f64() >= 2.0), Some(0.5));
        assert!(r
            .diagnostics()
            .iter()
            .any(|(k, v)| k == "acceptance_rate" && *v == 0.5));
    }

    #[test]
    fn vi_posterior_delegates_draws_and_reports_fit() {
        let vi = ViPosterior {
            fit: ViResult {
                params: vec![7.0, 0.5],
                names: vec!["mu".into(), "sigma".into()],
                elbo_trace: vec![-10.0, -2.0],
                counts: RunCounts::default(),
            },
            draws: is_result(&[(6.9, 0.5), (7.1, 0.5)]),
        };
        assert_eq!(vi.method(), "VI");
        assert_eq!(vi.num_draws(), 2);
        assert!((Posterior::mean_of_sample(&vi, 0).unwrap() - 7.0).abs() < 1e-12);
        assert_eq!(vi.log_evidence(), Some(-1.0));
        let diag = vi.diagnostics();
        assert!(diag.iter().any(|(k, v)| k == "param.mu" && *v == 7.0));
        assert!(diag.iter().any(|(k, _)| k == "final_elbo"));
    }

    #[test]
    fn posterior_is_object_safe_and_interchangeable() {
        let is = is_result(&[(1.0, 1.0)]);
        let mh = McmcResult {
            chain: vec![ChainState {
                latent: Trace::new(),
                samples: vec![Sample::Real(1.0)],
                log_model: 0.0,
            }],
            acceptance_rate: 1.0,
            counts: RunCounts::default(),
        };
        let posteriors: Vec<&dyn Posterior> = vec![&is, &mh];
        for p in posteriors {
            assert_eq!(p.mean_of_sample(0), Some(1.0));
            assert!(p.num_draws() > 0);
        }
    }

    #[test]
    fn weighted_expectation_helper_contract() {
        let pairs = vec![(Some(1.0), 0.5), (None, 0.3), (Some(3.0), 0.2)];
        let e = weighted_expectation(pairs.into_iter()).unwrap();
        assert!((e - (0.5 + 0.6) / 0.7).abs() < 1e-12);
        assert!(weighted_expectation(std::iter::empty()).is_none());
        assert!(weighted_expectation([(None::<f64>, 1.0)].into_iter()).is_none());
    }
}
