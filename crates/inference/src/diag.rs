//! Run-level inference-quality diagnostics.
//!
//! [`Diagnostics`] is the typed view of what an engine knows about the
//! quality of one run — the figures the serving tier surfaces per
//! request (behind `"diagnostics": true`) and folds into its
//! engine-quality gauges.  The engine-side fields are assembled from
//! [`Posterior`](crate::Posterior) by the provided
//! [`diag`](crate::Posterior::diag) method; the runtime-counter fields
//! are `None` until a caller that measured counter deltas around the run
//! (the serving layer) fills them in.

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
    /// Vectorised-executor lane splits during the run (delta, filled by
    /// callers that measured `ppl_runtime::stats` around the run).
    pub lane_splits: Option<u64>,
    /// Lane re-convergences during the run (delta, see `lane_splits`).
    pub lane_reconverges: Option<u64>,
    /// Cooperative deadline polls during the run (delta, see
    /// `lane_splits`).
    pub cancel_checks: Option<u64>,
}

#[cfg(test)]
mod tests {
    use crate::importance::{ImportanceResult, ParticleColumns};
    use crate::mcmc::McmcResult;
    use crate::Posterior;

    #[test]
    fn importance_diag_carries_ess_and_evidence() {
        let result = ImportanceResult {
            particles: ParticleColumns::default(),
            normalized_weights: Some(Vec::new()),
            ess: 12.5,
            log_evidence: -3.25,
        };
        let diag = result.diag();
        assert_eq!(diag.method, "IS");
        assert_eq!(diag.ess, 12.5);
        assert_eq!(diag.log_evidence, Some(-3.25));
        assert_eq!(diag.acceptance_rate, None);
        assert_eq!(diag.final_elbo, None);
        assert!(diag.elbo_tail.is_empty());
        assert_eq!(diag.cancel_checks, None);
    }

    #[test]
    fn mcmc_diag_carries_acceptance() {
        let result = McmcResult {
            chain: Vec::new(),
            acceptance_rate: 0.42,
        };
        let diag = result.diag();
        assert_eq!(diag.method, "MCMC");
        assert_eq!(diag.acceptance_rate, Some(0.42));
        assert_eq!(diag.log_evidence, None);
    }
}
