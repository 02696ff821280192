//! Markov-chain Monte Carlo (§5.2, "MCMC"): Metropolis–Hastings with
//! guide-program proposals.
//!
//! Two proposal styles are provided:
//!
//! * [`IndependenceMh`] — the guide proposes a fresh latent trace at every
//!   step, independent of the current state (forward density `w_fwd = w'_g`,
//!   backward density `w_bwd = w_g`);
//! * [`GuidedMh`] — the paper's custom-proposal style (§2.2): the proposal
//!   guide receives arguments *computed from the current trace* (e.g. the
//!   old `is_outlier` value), so it can propose data-dependent moves.  The
//!   backward density re-scores the old trace under the guide instantiated
//!   with arguments computed from the *new* trace, exactly as in the
//!   operational rule for MH in §5.2.
//!
//! The chain itself is inherently sequential (each proposal conditions on
//! the current state), so MCMC does not use the parallel particle driver;
//! it benefits from the zero-copy core through the borrowed-replay path:
//! re-scoring a proposed trace walks the trace in place instead of copying
//! its messages per proposal.

use ppl_dist::rng::Pcg32;
use ppl_dist::Sample;
use ppl_runtime::{JointExecutor, JointScratch, JointSpec, LatentSource, RunCounts, RuntimeError};
use ppl_semantics::trace::Trace;
use ppl_semantics::value::Value;

/// A posterior sample of the chain together with its model log-density.
#[derive(Debug, Clone)]
pub struct ChainState {
    /// The latent trace.
    pub latent: Trace,
    /// The latent sample values.
    pub samples: Vec<Sample>,
    /// The model's log-density `log w_m` at this trace.
    pub log_model: f64,
}

/// The result of an MCMC run.
#[derive(Debug, Clone)]
pub struct McmcResult {
    /// The kept states (after burn-in), in chain order.
    pub chain: Vec<ChainState>,
    /// Fraction of proposals accepted.
    pub acceptance_rate: f64,
    /// What the executor did during the chain: one deadline poll per
    /// proposal.
    pub counts: RunCounts,
}

impl McmcResult {
    /// Posterior mean of a function of the chain states.
    pub fn posterior_expectation<F>(&self, f: F) -> Option<f64>
    where
        F: Fn(&ChainState) -> Option<f64>,
    {
        crate::posterior::weighted_expectation(self.chain.iter().map(|s| (f(s), 1.0)))
    }

    /// Posterior mean of the `index`-th latent sample.
    pub fn posterior_mean_of_sample(&self, index: usize) -> Option<f64> {
        self.posterior_expectation(|s| s.samples.get(index).map(|v| v.as_f64()))
    }
}

/// Independence Metropolis–Hastings: the guide is used as an independent
/// proposal distribution.
#[derive(Debug, Clone)]
pub struct IndependenceMh {
    /// Total iterations (including burn-in).
    pub iterations: usize,
    /// Number of initial states to discard.
    pub burn_in: usize,
}

impl IndependenceMh {
    /// Creates a sampler.
    pub fn new(iterations: usize, burn_in: usize) -> Self {
        IndependenceMh {
            iterations,
            burn_in,
        }
    }

    /// Runs the chain.
    ///
    /// # Errors
    ///
    /// Propagates [`RuntimeError`]s from the joint executor.
    pub fn run(
        &self,
        executor: &JointExecutor,
        spec: &JointSpec,
        rng: &mut Pcg32,
    ) -> Result<McmcResult, RuntimeError> {
        executor
            .cancel_token()
            .record_joint_executions(self.iterations);
        let mut chain = Vec::new();
        let mut accepted = 0usize;
        let mut proposals = 0usize;
        // One scratch pool for the whole chain: the coroutine stacks and
        // the trace buffer of every rejected (or superseded) proposal are
        // reused, so a proposal iteration allocates only when a state is
        // actually recorded into the chain.
        let mut scratch = JointScratch::new();

        // Initialise from the guide (retry until a positive-weight state).
        let mut current = loop {
            let joint =
                executor.run_with_scratch(spec, LatentSource::FromGuide, rng, &mut scratch)?;
            if joint.log_model.is_finite() {
                break joint;
            }
            scratch.recycle(joint.latent);
        };

        for it in 0..self.iterations {
            // Cooperative cancellation once per proposal, so a chain never
            // outlives its request's deadline by more than one iteration.
            executor.cancel_token().check()?;
            let proposal =
                executor.run_with_scratch(spec, LatentSource::FromGuide, rng, &mut scratch)?;
            proposals += 1;
            // Acceptance ratio for an independence sampler:
            //   α = min(1, (w'_m / w'_g) / (w_m / w_g)).
            let log_alpha =
                (proposal.log_model - proposal.log_guide) - (current.log_model - current.log_guide);
            if log_alpha >= 0.0 || rng.next_f64().ln() < log_alpha {
                scratch.recycle(std::mem::replace(&mut current, proposal).latent);
                accepted += 1;
            } else {
                scratch.recycle(proposal.latent);
            }
            if it >= self.burn_in {
                chain.push(ChainState {
                    samples: current.latent_samples(),
                    log_model: current.log_model,
                    latent: current.latent.clone(),
                });
            }
        }
        Ok(McmcResult {
            chain,
            acceptance_rate: accepted as f64 / proposals.max(1) as f64,
            counts: RunCounts {
                cancel_checks: proposals as u64,
                ..RunCounts::default()
            },
        })
    }
}

/// A function computing the proposal guide's arguments from the current
/// latent trace (e.g. extracting the old `is_outlier` value).
pub type ProposalArgsFn = dyn Fn(&Trace) -> Vec<Value>;

/// Metropolis–Hastings with a data-dependent guide proposal.
pub struct GuidedMh<'f> {
    /// Total iterations (including burn-in).
    pub iterations: usize,
    /// Number of initial states to discard.
    pub burn_in: usize,
    /// Computes the guide arguments from the current latent trace.
    pub proposal_args: &'f ProposalArgsFn,
}

impl std::fmt::Debug for GuidedMh<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GuidedMh")
            .field("iterations", &self.iterations)
            .field("burn_in", &self.burn_in)
            .finish_non_exhaustive()
    }
}

impl<'f> GuidedMh<'f> {
    /// Creates a sampler with a data-dependent proposal.
    pub fn new(iterations: usize, burn_in: usize, proposal_args: &'f ProposalArgsFn) -> Self {
        GuidedMh {
            iterations,
            burn_in,
            proposal_args,
        }
    }

    /// Runs the chain.
    ///
    /// # Errors
    ///
    /// Propagates [`RuntimeError`]s from the joint executor.
    pub fn run(
        &self,
        executor: &JointExecutor,
        spec: &JointSpec,
        rng: &mut Pcg32,
    ) -> Result<McmcResult, RuntimeError> {
        executor
            .cancel_token()
            .record_joint_executions(self.iterations);
        let mut chain = Vec::new();
        let mut accepted = 0usize;
        let mut proposals = 0usize;
        let mut scratch = JointScratch::new();
        // One spec serves the whole chain: it is cloned once here and its
        // guide arguments are overwritten in place per move (the forward
        // and backward proposals of one iteration differ only in those
        // arguments), instead of rebuilding the spec — model arguments,
        // procedure names, and channel names included — three times per
        // iteration.
        let mut run_spec = spec.clone();

        // Initialise with arguments computed from an empty trace.
        run_spec.guide_args = (self.proposal_args)(&Trace::new());
        let mut current = loop {
            let joint =
                executor.run_with_scratch(&run_spec, LatentSource::FromGuide, rng, &mut scratch)?;
            if joint.log_model.is_finite() {
                break joint;
            }
            scratch.recycle(joint.latent);
        };

        for it in 0..self.iterations {
            // Cooperative cancellation once per proposal (see
            // [`IndependenceMh::run`]).
            executor.cancel_token().check()?;
            proposals += 1;
            // Forward move: propose σ'_ℓ ~ guide(args(σ_ℓ)).
            run_spec.guide_args = (self.proposal_args)(&current.latent);
            let proposal =
                executor.run_with_scratch(&run_spec, LatentSource::FromGuide, rng, &mut scratch)?;
            let log_fwd = proposal.log_guide;
            // Backward density: score σ_ℓ under guide(args(σ'_ℓ)).
            run_spec.guide_args = (self.proposal_args)(&proposal.latent);
            let backward = executor.run_with_scratch(
                &run_spec,
                LatentSource::Replay(&current.latent),
                rng,
                &mut scratch,
            )?;
            let log_bwd = backward.log_guide;
            scratch.recycle(backward.latent);

            let log_alpha = (proposal.log_model + log_bwd) - (current.log_model + log_fwd);
            if log_alpha >= 0.0 || rng.next_f64().ln() < log_alpha {
                scratch.recycle(std::mem::replace(&mut current, proposal).latent);
                accepted += 1;
            } else {
                scratch.recycle(proposal.latent);
            }
            if it >= self.burn_in {
                chain.push(ChainState {
                    samples: current.latent_samples(),
                    log_model: current.log_model,
                    latent: current.latent.clone(),
                });
            }
        }
        Ok(McmcResult {
            chain,
            acceptance_rate: accepted as f64 / proposals.max(1) as f64,
            counts: RunCounts {
                cancel_checks: proposals as u64,
                ..RunCounts::default()
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppl_syntax::parse_program;

    fn normal_normal() -> (ppl_syntax::Program, ppl_syntax::Program) {
        let model = parse_program(
            r#"
            proc Model() : real consume latent provide obs {
              let x <- sample recv latent (Normal(0.0, 1.0));
              let _ <- sample send obs (Normal(x, 1.0));
              return x
            }
        "#,
        )
        .unwrap();
        let guide = parse_program(
            r#"
            proc Guide() provide latent {
              let x <- sample send latent (Normal(0.5, 1.0));
              return ()
            }
        "#,
        )
        .unwrap();
        (model, guide)
    }

    #[test]
    fn independence_mh_recovers_posterior_mean() {
        let (model, guide) = normal_normal();
        let exec = JointExecutor::new(&model, &guide, vec![Sample::Real(1.0)]);
        let spec = JointSpec::new("Model", "Guide");
        let mut rng = Pcg32::seed_from_u64(31);
        let result = IndependenceMh::new(20_000, 2_000)
            .run(&exec, &spec, &mut rng)
            .unwrap();
        let mean = result.posterior_mean_of_sample(0).unwrap();
        assert!((mean - 0.5).abs() < 0.05, "posterior mean {mean}");
        assert!(result.acceptance_rate > 0.3, "{}", result.acceptance_rate);
        assert_eq!(result.chain.len(), 18_000);
    }

    #[test]
    fn guided_mh_outlier_example() {
        // §2.2 outlier model: prob_outlier ~ Unif, is_outlier ~ Ber(prob).
        // Observation strongly suggests an outlier.
        let model = parse_program(
            r#"
            proc OutlierModel() consume latent provide obs {
              let prob_outlier <- sample recv latent (Unif);
              let is_outlier <- sample recv latent (Ber(prob_outlier));
              let _ <- sample send obs (Normal(if is_outlier then 10.0 else 0.0, 1.0));
              return ()
            }
        "#,
        )
        .unwrap();
        // The proposal branches on the old is_outlier value (passed as an
        // argument), proposing its negation most of the time.
        let guide = parse_program(
            r#"
            proc OutlierGuide(old_is_outlier : bool) provide latent {
              let prob_outlier <- sample send latent (Beta(2.0, 2.0));
              let is_outlier <- sample send latent (Ber(if old_is_outlier then 0.2 else 0.8));
              return ()
            }
        "#,
        )
        .unwrap();
        let exec = JointExecutor::new(&model, &guide, vec![Sample::Real(9.5)]);
        let spec = JointSpec::new("OutlierModel", "OutlierGuide");
        let extract_old = |trace: &Trace| -> Vec<Value> {
            let old = trace
                .provider_samples()
                .get(1)
                .and_then(|s| s.as_bool())
                .unwrap_or(false);
            vec![Value::Bool(old)]
        };
        let mut rng = Pcg32::seed_from_u64(4);
        let result = GuidedMh::new(6_000, 1_000, &extract_old)
            .run(&exec, &spec, &mut rng)
            .unwrap();
        // Posterior probability that is_outlier = true should be near 1.
        let p_outlier = result
            .posterior_expectation(|s| {
                s.samples
                    .get(1)
                    .and_then(|v| v.as_bool())
                    .map(|b| if b { 1.0 } else { 0.0 })
            })
            .unwrap();
        assert!(
            p_outlier > 0.95,
            "posterior outlier probability {p_outlier}"
        );
        assert!(result.acceptance_rate > 0.05);
    }

    #[test]
    fn chain_states_expose_model_density() {
        let (model, guide) = normal_normal();
        let exec = JointExecutor::new(&model, &guide, vec![Sample::Real(1.0)]);
        let spec = JointSpec::new("Model", "Guide");
        let mut rng = Pcg32::seed_from_u64(2);
        let result = IndependenceMh::new(200, 0)
            .run(&exec, &spec, &mut rng)
            .unwrap();
        assert!(result.chain.iter().all(|s| s.log_model.is_finite()));
        assert!(result.chain.iter().all(|s| s.samples.len() == 1));
        assert!(result.posterior_expectation(|_| None).is_none());
    }
}
