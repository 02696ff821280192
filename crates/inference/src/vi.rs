//! Variational inference (§5.2, "VI").
//!
//! The guide is a *parameterised* program `m_{g,θ}`; VI maximises the
//! evidence lower bound
//! `ELBO(θ) = E_{σ ~ q_θ}[ log w_m(σ) − log w_g(σ; θ) ]`,
//! which is well-defined exactly when the guide is absolutely continuous
//! with respect to the posterior — the property certified by the guide
//! types (Theorem 5.2 and Lemma C.3).
//!
//! The gradient estimator is the score-function (REINFORCE) estimator with
//! a mean baseline:
//! `∇_θ ELBO ≈ mean_i [ (f_i − b) · ∇_θ log w_g(σ_i; θ) ]`, where
//! `f_i = log w_m − log w_g` and the per-parameter score derivatives are
//! obtained by re-scoring the *fixed* trace at perturbed parameter values
//! (central finite differences).  Parameters declared positive are
//! optimised in log space.  The optimiser is Adam.
//!
//! *Substitution note* (see `DESIGN.md`): the paper delegates optimisation
//! to Pyro's SVI/autograd; the estimator here exercises the same joint
//! coroutine executions and the same absolute-continuity requirement.

use crate::engine::Engine;
use crate::importance::DEFAULT_BLOCK;
use ppl_dist::rng::Pcg32;
use ppl_dist::Sample;
use ppl_runtime::{
    JointExecutor, JointResult, JointScratch, JointSpec, LatentSource, RunCounts, RuntimeError,
};
use ppl_semantics::value::Value;

/// A variational parameter: a name, an initial value, and whether it is
/// constrained to be positive.
#[derive(Debug, Clone)]
pub struct ParamSpec {
    /// Parameter name (for reporting).
    pub name: String,
    /// Initial (constrained-space) value.
    pub init: f64,
    /// If true, the parameter is kept positive by optimising its logarithm.
    pub positive: bool,
}

impl ParamSpec {
    /// A positive-constrained parameter.
    pub fn positive(name: impl Into<String>, init: f64) -> Self {
        ParamSpec {
            name: name.into(),
            init,
            positive: true,
        }
    }

    /// An unconstrained parameter.
    pub fn unconstrained(name: impl Into<String>, init: f64) -> Self {
        ParamSpec {
            name: name.into(),
            init,
            positive: false,
        }
    }
}

/// Configuration of the variational-inference engine.
#[derive(Debug, Clone)]
pub struct ViConfig {
    /// Number of optimisation iterations.
    pub iterations: usize,
    /// Monte-Carlo samples per iteration.
    pub samples_per_iteration: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Finite-difference step for the score derivative.
    pub fd_epsilon: f64,
    /// Worker threads for the per-iteration mini-batch and gradient loops
    /// (1 = sequential; results are bit-identical for every thread count).
    pub num_threads: usize,
    /// Particles stepped in lockstep per vectorised block in the mini-batch
    /// and ELBO-estimation loops (the gradient replays stay scalar).  Results
    /// are bit-identical at every block size; clamped to at least 1.
    pub block: usize,
}

impl Default for ViConfig {
    fn default() -> Self {
        ViConfig {
            iterations: 200,
            samples_per_iteration: 10,
            learning_rate: 0.05,
            fd_epsilon: 1e-4,
            num_threads: 1,
            block: DEFAULT_BLOCK,
        }
    }
}

/// The result of a VI run.
#[derive(Debug, Clone)]
pub struct ViResult {
    /// Final (constrained-space) parameter values, in [`ParamSpec`] order.
    pub params: Vec<f64>,
    /// Parameter names.
    pub names: Vec<String>,
    /// ELBO estimate per iteration (the optimisation trajectory).
    pub elbo_trace: Vec<f64>,
    /// What the block executor did drawing the fit's mini-batches.
    pub counts: RunCounts,
}

impl ViResult {
    /// The final ELBO estimate (mean of the last 10% of iterations).
    pub fn final_elbo(&self) -> f64 {
        let n = self.elbo_trace.len();
        if n == 0 {
            return f64::NEG_INFINITY;
        }
        let tail = (n / 10).max(1);
        self.elbo_trace[n - tail..].iter().sum::<f64>() / tail as f64
    }

    /// Looks up a final parameter value by name.
    pub fn param(&self, name: &str) -> Option<f64> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| self.params[i])
    }
}

/// The variational-inference engine.
#[derive(Debug, Clone)]
pub struct VariationalInference {
    /// Engine configuration.
    pub config: ViConfig,
}

impl VariationalInference {
    /// Creates an engine with the given configuration.
    pub fn new(config: ViConfig) -> Self {
        VariationalInference { config }
    }

    /// Estimates the ELBO at fixed parameter values.
    ///
    /// # Errors
    ///
    /// Propagates [`RuntimeError`]s from the joint executor.
    pub fn estimate_elbo(
        &self,
        executor: &JointExecutor,
        spec: &JointSpec,
        params: &[f64],
        num_samples: usize,
        rng: &mut Pcg32,
    ) -> Result<f64, RuntimeError> {
        let run_spec = spec_with_params(spec, params);
        let engine = Engine::new(self.config.num_threads);
        let fs = engine.run_particle_blocks_with(
            num_samples,
            self.config.block.max(1),
            rng,
            || (JointScratch::new(), Vec::new()),
            |(scratch, joints): &mut (JointScratch, Vec<JointResult>),
             master,
             first,
             len,
             out: &mut Vec<f64>|
             -> Result<(), RuntimeError> {
                joints.clear();
                executor.run_block_with_scratch(&run_spec, master, first, len, scratch, joints)?;
                for joint in joints.drain(..) {
                    let f = joint.log_model - joint.log_guide;
                    scratch.recycle(joint.latent);
                    out.push(if f.is_finite() { f } else { -1e6 });
                }
                Ok(())
            },
        )?;
        Ok(fs.iter().sum::<f64>() / num_samples as f64)
    }

    /// Runs stochastic optimisation of the ELBO.
    ///
    /// # Errors
    ///
    /// Propagates [`RuntimeError`]s from the joint executor.
    pub fn run(
        &self,
        executor: &JointExecutor,
        spec: &JointSpec,
        param_specs: &[ParamSpec],
        rng: &mut Pcg32,
    ) -> Result<ViResult, RuntimeError> {
        let dim = param_specs.len();
        // Unconstrained optimisation variables.
        let mut theta: Vec<f64> = param_specs
            .iter()
            .map(|p| if p.positive { p.init.ln() } else { p.init })
            .collect();
        crate::counters::record_joint_executions(
            self.config.iterations * self.config.samples_per_iteration,
        );
        crate::counters::record_vi_fit_executions(
            self.config.iterations * self.config.samples_per_iteration,
        );
        let mut adam = Adam::new(dim, self.config.learning_rate);
        let mut elbo_trace = Vec::with_capacity(self.config.iterations);
        let mut counts = RunCounts::default();
        let engine = Engine::new(self.config.num_threads);

        for _ in 0..self.config.iterations {
            // Cooperative cancellation once per optimisation step, on top
            // of the per-block polls inside the executor.
            executor.cancel_token().check()?;
            let constrained = constrain(&theta, param_specs);
            let run_spec = spec_with_params(spec, &constrained);

            // Draw the mini-batch of joint executions at the current θ —
            // independent particles stepped block-at-a-time by the vectorised
            // executor, fanned out over the worker threads with one RNG
            // substream per lane.  The traces are retained (the gradient
            // stage replays them), so only the coroutine stacks recycle here.
            let (batch, batch_counts) = engine.run_particle_blocks_with(
                self.config.samples_per_iteration,
                self.config.block.max(1),
                rng,
                || (JointScratch::new(), Vec::new()),
                |(scratch, joints): &mut (JointScratch, Vec<JointResult>),
                 master,
                 first,
                 len,
                 (out, counts): &mut (Vec<(f64, ppl_semantics::trace::Trace)>, RunCounts)|
                 -> Result<(), RuntimeError> {
                    joints.clear();
                    executor
                        .run_block_with_scratch(&run_spec, master, first, len, scratch, joints)?;
                    *counts += scratch.take_counts();
                    for joint in joints.drain(..) {
                        let f = joint.log_model - joint.log_guide;
                        out.push((if f.is_finite() { f } else { -1e6 }, joint.latent));
                    }
                    Ok(())
                },
            )?;
            counts += batch_counts;
            let (fs, traces): (Vec<f64>, Vec<_>) = batch.into_iter().unzip();
            let baseline = fs.iter().sum::<f64>() / fs.len() as f64;
            elbo_trace.push(baseline);

            // Score-function gradient with per-parameter finite-difference
            // score derivatives, evaluated by re-scoring the fixed traces.
            // Each sample's contribution is independent (replays draw
            // nothing from the RNG), so this loop parallelises too; the
            // contributions are summed in sample order afterwards to keep
            // the floating-point reduction deterministic.  Every worker
            // re-scores through its own scratch pool and a single reusable
            // spec whose parameter values are overwritten in place.
            let contributions = engine.run_particles_with(
                fs.len(),
                rng,
                || (JointScratch::new(), spec.clone()),
                |(scratch, run_spec), i, prng| -> Result<Vec<f64>, RuntimeError> {
                    let advantage = fs[i] - baseline;
                    let mut g = vec![0.0; dim];
                    if advantage == 0.0 {
                        return Ok(g);
                    }
                    for (d, slot) in g.iter_mut().enumerate() {
                        let mut plus = theta.clone();
                        plus[d] += self.config.fd_epsilon;
                        let mut minus = theta.clone();
                        minus[d] -= self.config.fd_epsilon;
                        set_params(run_spec, &constrain(&plus, param_specs));
                        let lp = score_guide(executor, run_spec, &traces[i], prng, scratch)?;
                        set_params(run_spec, &constrain(&minus, param_specs));
                        let lm = score_guide(executor, run_spec, &traces[i], prng, scratch)?;
                        if lp.is_finite() && lm.is_finite() {
                            *slot = advantage * (lp - lm) / (2.0 * self.config.fd_epsilon);
                        }
                    }
                    Ok(g)
                },
            )?;
            let mut grad = vec![0.0; dim];
            for c in &contributions {
                for (g, &gc) in grad.iter_mut().zip(c) {
                    *g += gc;
                }
            }
            for g in grad.iter_mut() {
                *g /= self.config.samples_per_iteration as f64;
            }
            adam.step(&mut theta, &grad);
        }

        Ok(ViResult {
            params: constrain(&theta, param_specs),
            names: param_specs.iter().map(|p| p.name.clone()).collect(),
            elbo_trace,
            counts,
        })
    }
}

/// Scores a fixed latent trace under the guide described by `spec` by a
/// replayed joint execution, returning `log w_g`.  The trace is borrowed —
/// replay walks it in place — the RNG is never consulted because a replay
/// draws nothing, and the freshly recorded trace is recycled immediately,
/// so a re-score is allocation-free in the steady state.
fn score_guide(
    executor: &JointExecutor,
    spec: &JointSpec,
    trace: &ppl_semantics::trace::Trace,
    rng: &mut Pcg32,
    scratch: &mut JointScratch,
) -> Result<f64, RuntimeError> {
    let joint = executor.run_with_scratch(spec, LatentSource::Replay(trace), rng, scratch)?;
    let log_guide = joint.log_guide;
    scratch.recycle(joint.latent);
    Ok(log_guide)
}

/// Overwrites `spec`'s guide arguments with the given parameter values in
/// place (reusing the argument buffer).
fn set_params(spec: &mut JointSpec, params: &[f64]) {
    spec.guide_args.clear();
    spec.guide_args
        .extend(params.iter().map(|&p| Value::Real(p)));
}

fn spec_with_params(spec: &JointSpec, params: &[f64]) -> JointSpec {
    let mut out = spec.clone();
    set_params(&mut out, params);
    out
}

fn constrain(theta: &[f64], specs: &[ParamSpec]) -> Vec<f64> {
    theta
        .iter()
        .zip(specs)
        .map(|(&t, s)| if s.positive { t.exp() } else { t })
        .collect()
}

/// A minimal Adam optimiser.
#[derive(Debug, Clone)]
struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl Adam {
    fn new(dim: usize, lr: f64) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            m: vec![0.0; dim],
            v: vec![0.0; dim],
            t: 0,
        }
    }

    /// Gradient-ascent step (we maximise the ELBO).
    fn step(&mut self, theta: &mut [f64], grad: &[f64]) {
        self.t += 1;
        for i in 0..theta.len() {
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * grad[i];
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * grad[i] * grad[i];
            let m_hat = self.m[i] / (1.0 - self.beta1.powi(self.t as i32));
            let v_hat = self.v[i] / (1.0 - self.beta2.powi(self.t as i32));
            theta[i] += self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }
}

/// The observations used by the "unreliable weighing" benchmark (see
/// `ppl-models`); re-exported here for the doc example.
pub fn example_observations(values: &[f64]) -> Vec<Sample> {
    values.iter().map(|&v| Sample::Real(v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppl_syntax::parse_program;

    /// weight ~ N(2, 1); two noisy measurements with scale 0.75.
    /// Observing 9.0 twice gives posterior mean ≈ (2/1 + 2*9/0.5625)/(1/1 + 2/0.5625) ≈ 7.47.
    fn weight_model() -> (ppl_syntax::Program, ppl_syntax::Program) {
        let model = parse_program(
            r#"
            proc WeightModel() : real consume latent provide obs {
              let w <- sample recv latent (Normal(2.0, 1.0));
              let _ <- sample send obs (Normal(w, 0.75));
              let _ <- sample send obs (Normal(w, 0.75));
              return w
            }
        "#,
        )
        .unwrap();
        let guide = parse_program(
            r#"
            proc WeightGuide(mu : real, sigma : preal) provide latent {
              let w <- sample send latent (Normal(mu, sigma));
              return ()
            }
        "#,
        )
        .unwrap();
        (model, guide)
    }

    #[test]
    fn vi_learns_the_conjugate_posterior() {
        let (model, guide) = weight_model();
        let exec = JointExecutor::new(&model, &guide, example_observations(&[9.0, 9.0]));
        let spec = JointSpec::new("WeightModel", "WeightGuide");
        let params = [
            ParamSpec::unconstrained("mu", 2.0),
            ParamSpec::positive("sigma", 1.0),
        ];
        let config = ViConfig {
            iterations: 400,
            samples_per_iteration: 12,
            learning_rate: 0.08,
            fd_epsilon: 1e-4,
            ..ViConfig::default()
        };
        let mut rng = Pcg32::seed_from_u64(2024);
        let result = VariationalInference::new(config)
            .run(&exec, &spec, &params, &mut rng)
            .unwrap();
        // Conjugate posterior: precision 1 + 2/0.5625 = 4.5556, mean ≈ 7.46,
        // std ≈ 0.468.
        let mu = result.param("mu").unwrap();
        let sigma = result.param("sigma").unwrap();
        assert!((mu - 7.46).abs() < 0.6, "learned mean {mu}");
        assert!(sigma > 0.2 && sigma < 1.0, "learned std {sigma}");
        // The ELBO should have improved substantially over the run.
        let early: f64 = result.elbo_trace[..20].iter().sum::<f64>() / 20.0;
        assert!(result.final_elbo() > early + 1.0, "ELBO did not improve");
    }

    #[test]
    fn elbo_estimate_is_finite_and_bounded_by_evidence() {
        let (model, guide) = weight_model();
        let exec = JointExecutor::new(&model, &guide, example_observations(&[9.0, 9.0]));
        let spec = JointSpec::new("WeightModel", "WeightGuide");
        let vi = VariationalInference::new(ViConfig::default());
        let mut rng = Pcg32::seed_from_u64(3);
        let elbo = vi
            .estimate_elbo(&exec, &spec, &[7.46, 0.47], 4000, &mut rng)
            .unwrap();
        assert!(elbo.is_finite());
        // The true log evidence of two N(w,0.75) observations at 9.0 with a
        // N(2,1) prior; the ELBO at near-optimal parameters must be below it
        // but within a nat.
        let log_evidence = {
            // p(y1, y2) computed by 1-d quadrature over w.
            let mut acc: f64 = 0.0;
            let n = 4000;
            let (lo, hi) = (-5.0, 15.0);
            let h = (hi - lo) / n as f64;
            for i in 0..n {
                let w = lo + (i as f64 + 0.5) * h;
                let prior =
                    (-0.5 * (w - 2.0_f64).powi(2)).exp() / (2.0 * std::f64::consts::PI).sqrt();
                let lik = |y: f64| {
                    (-0.5 * ((y - w) / 0.75_f64).powi(2)).exp()
                        / (0.75 * (2.0 * std::f64::consts::PI).sqrt())
                };
                acc += prior * lik(9.0) * lik(9.0) * h;
            }
            acc.ln()
        };
        assert!(
            elbo <= log_evidence + 0.05,
            "elbo {elbo} evidence {log_evidence}"
        );
        assert!(
            elbo >= log_evidence - 1.0,
            "elbo {elbo} evidence {log_evidence}"
        );
    }

    #[test]
    fn parallel_vi_is_bit_identical() {
        let (model, guide) = weight_model();
        let exec = JointExecutor::new(&model, &guide, example_observations(&[9.0, 9.0]));
        let spec = JointSpec::new("WeightModel", "WeightGuide");
        let params = [
            ParamSpec::unconstrained("mu", 2.0),
            ParamSpec::positive("sigma", 1.0),
        ];
        let mut runs = Vec::new();
        for threads in [1usize, 3] {
            let config = ViConfig {
                iterations: 12,
                samples_per_iteration: 8,
                num_threads: threads,
                ..ViConfig::default()
            };
            let mut rng = Pcg32::seed_from_u64(55);
            runs.push(
                VariationalInference::new(config)
                    .run(&exec, &spec, &params, &mut rng)
                    .unwrap(),
            );
        }
        let (seq, par) = (&runs[0], &runs[1]);
        for (a, b) in seq.elbo_trace.iter().zip(&par.elbo_trace) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(seq.counts.cancel_checks > 0);
        assert_eq!(
            seq.counts, par.counts,
            "a plan that never bails counts alike"
        );
        for (a, b) in seq.params.iter().zip(&par.params) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn vi_block_sizes_are_bit_identical() {
        let (model, guide) = weight_model();
        let exec = JointExecutor::new(&model, &guide, example_observations(&[9.0, 9.0]));
        let spec = JointSpec::new("WeightModel", "WeightGuide");
        let params = [
            ParamSpec::unconstrained("mu", 2.0),
            ParamSpec::positive("sigma", 1.0),
        ];
        let mut runs = Vec::new();
        for block in [1usize, 7, 64] {
            let config = ViConfig {
                iterations: 10,
                samples_per_iteration: 9,
                block,
                ..ViConfig::default()
            };
            let mut rng = Pcg32::seed_from_u64(88);
            runs.push(
                VariationalInference::new(config)
                    .run(&exec, &spec, &params, &mut rng)
                    .unwrap(),
            );
        }
        let reference = &runs[0];
        for run in &runs[1..] {
            for (a, b) in reference.elbo_trace.iter().zip(&run.elbo_trace) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in reference.params.iter().zip(&run.params) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn param_spec_and_result_helpers() {
        let p = ParamSpec::positive("sigma", 2.0);
        assert!(p.positive);
        let u = ParamSpec::unconstrained("mu", -1.0);
        assert!(!u.positive);
        let r = ViResult {
            params: vec![1.0, 2.0],
            names: vec!["a".into(), "b".into()],
            elbo_trace: vec![-10.0, -5.0, -1.0],
            counts: RunCounts::default(),
        };
        assert_eq!(r.param("b"), Some(2.0));
        assert_eq!(r.param("c"), None);
        assert!((r.final_elbo() + 1.0).abs() < 1e-12);
        let empty = ViResult {
            params: vec![],
            names: vec![],
            elbo_trace: vec![],
            counts: RunCounts::default(),
        };
        assert_eq!(empty.final_elbo(), f64::NEG_INFINITY);
    }
}
