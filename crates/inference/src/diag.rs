//! Run-level inference-quality diagnostics.
//!
//! [`Diagnostics`] is the typed view of what an engine knows about one
//! run — the figures the serving tier surfaces per request (behind
//! `"diagnostics": true`) and folds into its engine-quality gauges.  The
//! provided [`diag`](crate::Posterior::diag) method assembles it from the
//! [`Posterior`](crate::Posterior): the quality figures from the labelled
//! diagnostics, the executor counts from the run's own
//! [`RunCounts`](ppl_runtime::RunCounts).  Every engine carries those in
//! its result (each worker's scratch counts a block, and the engine moves
//! the block's counts into the result), so the counts are exact per run
//! even while other runs execute concurrently.

/// Typed run-quality figures for one posterior.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostics {
    /// Producing algorithm (`"IS"`, `"MCMC"`, `"VI"`).
    pub method: &'static str,
    /// Number of retained posterior draws.
    pub num_draws: usize,
    /// Effective sample size — the headline weight-degeneracy figure for
    /// importance-style engines.
    pub ess: f64,
    /// Log model-evidence estimate, when the engine provides one.
    pub log_evidence: Option<f64>,
    /// MH acceptance rate (MCMC engines only).
    pub acceptance_rate: Option<f64>,
    /// Final ELBO — mean over the trailing tenth of the trajectory (VI
    /// engines only).
    pub final_elbo: Option<f64>,
    /// Trailing ELBO trajectory values, oldest first (VI engines only;
    /// at most the last eight optimisation steps).  A flat tail means
    /// the fit converged; a climbing one means it was stopped short.
    pub elbo_tail: Vec<f64>,
    /// Forks of the vectorised executor whose lanes diverged in this run.
    pub lane_splits: u64,
    /// Diverged forks whose lanes rejoined in this run.
    pub lane_reconverges: u64,
    /// Cooperative deadline polls in this run.
    pub cancel_checks: u64,
    /// Lanes this run executed through the scalar fallback (the block
    /// plan gave up, or a block nested past the executor's guard); zero
    /// when every block vectorised.
    pub scalar_lanes: u64,
}

#[cfg(test)]
mod tests {
    use crate::importance::{ImportanceResult, ParticleColumns};
    use crate::mcmc::McmcResult;
    use crate::{Posterior, ViPosterior, ViResult};
    use ppl_runtime::RunCounts;

    #[test]
    fn importance_diag_carries_ess_and_evidence() {
        let result = ImportanceResult {
            particles: ParticleColumns::default(),
            normalized_weights: Some(Vec::new()),
            ess: 12.5,
            log_evidence: -3.25,
            counts: RunCounts {
                cancel_checks: 17,
                scalar_lanes: 3,
                ..RunCounts::default()
            },
        };
        let diag = result.diag();
        assert_eq!(diag.method, "IS");
        assert_eq!(diag.ess, 12.5);
        assert_eq!(diag.log_evidence, Some(-3.25));
        assert_eq!(diag.acceptance_rate, None);
        assert_eq!(diag.final_elbo, None);
        assert!(diag.elbo_tail.is_empty());
        assert_eq!(diag.cancel_checks, 17);
        assert_eq!(diag.scalar_lanes, 3);
    }

    #[test]
    fn mcmc_diag_carries_acceptance() {
        let result = McmcResult {
            chain: Vec::new(),
            acceptance_rate: 0.42,
            counts: RunCounts {
                cancel_checks: 9,
                ..RunCounts::default()
            },
        };
        let diag = result.diag();
        assert_eq!(diag.method, "MCMC");
        assert_eq!(diag.acceptance_rate, Some(0.42));
        assert_eq!(diag.log_evidence, None);
        assert_eq!(diag.cancel_checks, 9);
        assert_eq!(diag.lane_splits, 0);
    }

    #[test]
    fn vi_diag_sums_the_fit_and_draw_counts() {
        let counts = |n: u64| RunCounts {
            cancel_checks: n,
            lane_splits: n,
            lane_reconverges: n,
            scalar_lanes: n,
        };
        let posterior = ViPosterior {
            fit: ViResult {
                params: Vec::new(),
                names: Vec::new(),
                elbo_trace: Vec::new(),
                counts: counts(5),
            },
            draws: ImportanceResult {
                particles: ParticleColumns::default(),
                normalized_weights: None,
                ess: 0.0,
                log_evidence: 0.0,
                counts: counts(2),
            },
        };
        let diag = posterior.diag();
        assert_eq!(
            (diag.cancel_checks, diag.lane_splits, diag.lane_reconverges),
            (7, 7, 7)
        );
        assert_eq!(diag.scalar_lanes, 7);
    }
}
